//! Schema contract: a real smoke run's telemetry dump parses back
//! line-by-line with zero errors, trace reassembly links every freeze
//! to a controller-tick root span, and the baseline gate passes against
//! the run's own summary while catching a perturbed one.
//!
//! This test owns the process-wide telemetry pipeline (components
//! capture it at construction), so it lives alone in its own
//! integration-test binary.

use ampere_cluster::{ClusterSpec, ServerId};
use ampere_core::{AmpereController, ControllerConfig, HistoricalPercentile, ParitySplit};
use ampere_experiments::testbed::{DomainSpec, Testbed, TestbedConfig};
use ampere_obs::report::{check, parse_baseline, render_check, write_baseline, RunReport};
use ampere_obs::{read_run, RunLine, RunReader, TraceIndex};
use ampere_power::CappingConfig;
use ampere_sched::{FreezePolicy, RandomFit};
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;

use std::io::Write as _;

fn smoke_run(path: &std::path::Path) {
    let sink = ampere_telemetry::JsonlSink::create(path).expect("create dump");
    let tel = ampere_telemetry::Telemetry::builder().sink(sink).build();
    tel.scope(|| {
        let mut tb = Testbed::new(TestbedConfig {
            spec: ClusterSpec::tiny(),
            profile: RateProfile::Constant { per_min: 800.0 }.scaled(16.0 / 440.0),
            seed: 1,
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
        let budget = 8.0 * 250.0 / 1.25;
        tb.add_domain(DomainSpec {
            name: "experiment".into(),
            servers: exp,
            budget_w: budget,
            controller: Some(AmpereController::new(
                ControllerConfig::default(),
                Box::new(HistoricalPercentile::flat(0.02)),
            )),
            capped: false,
        });
        tb.run_for(SimDuration::from_mins(120));
    });

    // Same epilogue as `repro --telemetry`: flush events, append the
    // metrics snapshot.
    tel.flush();
    let snapshot = tel.snapshot().expect("pipeline is enabled");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("reopen dump");
    f.write_all(snapshot.to_jsonl().as_bytes()).expect("append");
}

#[test]
fn smoke_dump_parses_links_and_gates() {
    let path = std::env::temp_dir().join(format!(
        "ampere-schema-contract-{}.jsonl",
        std::process::id()
    ));
    smoke_run(&path);

    // Every line classifies as event or metric with zero schema errors.
    let mut events = 0usize;
    let mut metrics = 0usize;
    for line in RunReader::open(&path).expect("open dump") {
        match line.expect("schema violation in dump") {
            RunLine::Event(_) => events += 1,
            RunLine::Metric(_) => metrics += 1,
        }
    }
    assert!(events > 100, "suspiciously few events: {events}");
    assert!(metrics > 5, "metrics snapshot missing: {metrics}");

    let run = read_run(&path).expect("collect dump");
    let report = RunReport::build(&run);

    // The run actually exercised control …
    let freezes = report.summary.get("freezes").unwrap();
    assert!(freezes > 0.0, "smoke run never froze a server");
    assert!(report.summary.get("controller_ticks").unwrap() >= 120.0);

    // … and every freeze links to a controller-tick root span.
    assert_eq!(
        report.link.freezes_linked, report.link.freezes,
        "unlinked freezes in a fully controlled run"
    );
    assert_eq!(report.summary.get("freeze_link_ratio"), Some(1.0));
    let index = TraceIndex::build(&run.events);
    for e in &run.events {
        if e.component == "scheduler" && e.name == "freeze" {
            let root = index.root_of(&run.events, e.span).expect("freeze untraced");
            assert_eq!(
                (root.component.as_str(), root.name.as_str()),
                ("controller", "tick")
            );
        }
    }

    // The baseline gate passes against the run's own summary …
    let baseline = parse_baseline(&write_baseline(&report.summary)).expect("round trip");
    let results = check(&report.summary, &baseline);
    let (table, all_ok) = render_check(&results);
    assert!(all_ok, "self-check failed:\n{table}");

    // … and fails once a gated metric is perturbed beyond tolerance.
    let mut perturbed = report.summary.clone();
    for m in &mut perturbed.metrics {
        if m.0 == "violations" {
            m.1 = m.1 * 2.0 + 100.0;
        }
    }
    let results = check(&perturbed, &baseline);
    assert!(
        results.iter().any(|r| !r.ok),
        "perturbed summary passed the gate"
    );

    std::fs::remove_file(&path).ok();
}
