//! Determinism: two identical seeded testbed runs produce byte-identical
//! traced event streams. Span ids come from a per-pipeline counter and
//! events carry sim time only, so tracing must not perturb
//! reproducibility — this is what makes committed report baselines
//! meaningful.
//!
//! Installs the process-wide pipeline (twice), so it lives alone in its
//! own integration-test binary.

use ampere_cluster::{ClusterSpec, ServerId};
use ampere_core::{AmpereController, ControllerConfig, HistoricalPercentile, ParitySplit};
use ampere_experiments::testbed::{DomainSpec, Testbed, TestbedConfig};
use ampere_power::CappingConfig;
use ampere_sched::{FreezePolicy, RandomFit};
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

use std::io::Write;
use std::sync::{Arc, Mutex};

/// A writer whose bytes outlive the sink that owns it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_run() -> Vec<u8> {
    let buf = SharedBuf::default();
    let sink = ampere_telemetry::JsonlSink::new(buf.clone());
    let tel = ampere_telemetry::Telemetry::builder().sink(sink).build();
    tel.scope(|| {
        let mut tb = Testbed::new(TestbedConfig {
            spec: ClusterSpec::tiny(),
            profile: RateProfile::Constant { per_min: 800.0 }.scaled(16.0 / 440.0),
            seed: 42,
            tick: SimDuration::MINUTE,
            measurement_noise: 0.003,
            capping: CappingConfig {
                enabled: false,
                ..CappingConfig::default()
            },
            policy: Box::new(RandomFit::default()),
            server_classes: None,
            service_classes: None,
            freeze_policy: FreezePolicy::Uniform,
            faults: None,
        });
        let (exp, _ctl) = ParitySplit::split((0..16).map(ServerId::new));
        tb.add_domain(DomainSpec {
            name: "experiment".into(),
            servers: exp,
            budget_w: 8.0 * 250.0 / 1.25,
            controller: Some(AmpereController::new(
                ControllerConfig::default(),
                Box::new(HistoricalPercentile::flat(0.02)),
            )),
            capped: false,
        });
        tb.run_for(SimDuration::from_mins(90));
    });
    tel.flush();
    let bytes = buf.0.lock().unwrap().clone();
    bytes
}

#[test]
fn identical_seeded_runs_dump_identical_bytes() {
    let a = traced_run();
    let b = traced_run();
    assert!(!a.is_empty(), "run emitted no telemetry");
    let text = String::from_utf8(a.clone()).expect("dump is UTF-8");
    assert!(text.contains("\"freeze\""), "run never froze a server");
    assert!(text.contains("\"trace\""), "events are untraced");
    assert_eq!(a, b, "traced dumps differ across identical seeded runs");
}
