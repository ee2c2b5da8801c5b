//! `repro watch` — the live-observability benchmark: two identical
//! fan-out runs (a clean light-workload pass and a chaos-injected heavy
//! pass), executed twice — once bare, once with the `ampere-watch` tap
//! attached — so the rollup/alerting overhead is measured against the
//! same workload it monitors.
//!
//! The result is an [`ampere_obs::WatchRun`] (`BENCH_watch.json`,
//! `report --alerts`). What it checks:
//!
//! - **Determinism** — the simulated trajectories must be bit-identical
//!   with and without the tap (the tap is a passive sink; if attaching
//!   it changes the run, something is deeply wrong), and the alert
//!   stream digest must be worker-invariant (enforced in CI by diffing
//!   `BENCH_watch.json` across `--workers 1` and `--workers 4`).
//! - **Silence on health** — the clean pass must fire zero alerts.
//! - **Signal on chaos** — the chaos pass must open at least one
//!   breaker-proximity incident, linked to the violating control span.
//! - **Overhead** — the watch pass may cost at most the profiling bar
//!   (10 %) over the bare pass; gated by `report --alerts
//!   --max-overhead`, recorded here.

use ampere_experiments as exp;
use ampere_faults::{FaultPlan, OutageWindow};
use ampere_obs::alerts::{CHAOS_PASS, CLEAN_PASS, PROXIMITY_RULE};
use ampere_obs::dump::{hex, Fields};
use ampere_obs::WatchRun;
use ampere_sim::{Fnv, SimTime};
use ampere_telemetry::{JsonlSink, Telemetry};
use ampere_watch::pass_marker;
use exp::fig10::{Fig10Config, Fig10Result, WorkloadKind};

use std::time::Instant;

/// Configuration of the watch benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WatchBenchConfig {
    /// Worker threads for the fan-out pool.
    pub workers: usize,
    /// RNG seed shared by both tasks (fault streams derive from it).
    pub seed: u64,
    /// Measured hours per task.
    pub hours: u64,
    /// Warm-up minutes before measurement.
    pub warmup_mins: u64,
    /// Uncontrolled calibration hours fitting the `Et` table.
    pub calibration_hours: u64,
}

impl WatchBenchConfig {
    /// CI-sized configuration (same scale as the quick fig10 runs).
    pub fn quick(workers: usize) -> Self {
        WatchBenchConfig {
            workers,
            seed: 10,
            hours: 8,
            warmup_mins: 90,
            calibration_hours: 8,
        }
    }

    /// Paper-scale configuration.
    pub fn paper(workers: usize) -> Self {
        WatchBenchConfig {
            workers,
            seed: 10,
            hours: 24,
            warmup_mins: 120,
            calibration_hours: 24,
        }
    }

    fn fig10(&self, workload: WorkloadKind) -> Fig10Config {
        Fig10Config {
            workload,
            hours: self.hours,
            warmup_mins: self.warmup_mins,
            r_o: 0.25,
            seed: self.seed,
            calibration_hours: self.calibration_hours,
        }
    }

    /// The chaos plan: a quarter of samples dropped, plus a controller
    /// outage covering a quarter of the measured window so the
    /// uncontrolled demand runs into the breaker while the watchdog
    /// backstop holds the fort.
    pub fn fault_plan(&self) -> FaultPlan {
        let measured = self.hours * 60;
        let start = self.warmup_mins + measured / 4;
        let dur = 60.min(measured / 4).max(1);
        FaultPlan {
            sample_dropout: 0.25,
            outages: vec![OutageWindow {
                start: SimTime::from_mins(start),
                end: SimTime::from_mins(start + dur),
            }],
            ..FaultPlan::seeded(self.seed.wrapping_mul(1469))
        }
    }
}

fn checksum_results(results: &[Fig10Result]) -> u64 {
    let mut f = Fnv::new();
    for r in results {
        for &(m, p, u) in &r.exp_trace {
            f.bytes(&m.to_le_bytes());
            f.bytes(&p.to_bits().to_le_bytes());
            f.bytes(&u.to_bits().to_le_bytes());
        }
        for &(m, p) in &r.ctl_trace {
            f.bytes(&m.to_le_bytes());
            f.bytes(&p.to_bits().to_le_bytes());
        }
        for g in [&r.exp, &r.ctl] {
            f.bytes(&g.u_mean.to_bits().to_le_bytes());
            f.bytes(&g.u_max.to_bits().to_le_bytes());
            f.bytes(&g.p_mean.to_bits().to_le_bytes());
            f.bytes(&g.p_max.to_bits().to_le_bytes());
            f.bytes(&g.violations.to_le_bytes());
        }
    }
    f.finish()
}

/// Runs both tasks once in `tel`'s scope; the per-task captures
/// replay into it in task order, so any attached tap sees the clean
/// stream strictly before the chaos stream.
fn run_tasks(config: &WatchBenchConfig, tel: &Telemetry) -> Vec<Fig10Result> {
    let clean_cfg = config.fig10(WorkloadKind::Light);
    let chaos_cfg = config.fig10(WorkloadKind::Heavy);
    let faults = config.fault_plan();
    let tasks: Vec<ampere_par::Task<'static, Fig10Result>> = vec![
        Box::new(move || {
            ampere_telemetry::global().emit(pass_marker(CLEAN_PASS));
            exp::fig10::run(clean_cfg)
        }),
        Box::new(move || {
            ampere_telemetry::global().emit(pass_marker(CHAOS_PASS));
            exp::fig10::run_with_faults(chaos_cfg, Some(faults))
        }),
    ];
    let pool = ampere_par::WorkerPool::new(config.workers.max(1));
    let results = tel.scope(|| ampere_par::run_captured(&pool, tasks));
    // The replay lands in the parent's per-tick batch; drain it so the
    // sinks (and the tap) see the tail before the pass is timed off.
    tel.flush_events();
    results
}

/// Runs the full benchmark: bare pass, tapped pass, gates.
pub fn run(config: WatchBenchConfig) -> WatchRun {
    // Bare pass: events are serialized and discarded, matching the
    // instrumented profile baseline, but no watch tap is attached.
    let bare = Telemetry::builder()
        .sink(JsonlSink::new(std::io::sink()))
        .batched(true)
        .build();
    let t0 = Instant::now();
    let plain = run_tasks(&config, &bare);
    let wall_plain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let checksum_plain = checksum_results(&plain);

    // Tapped pass: same pipeline plus the watch tap. The tap observes
    // the merged replay stream, so its view — and therefore the alert
    // stream — is identical at any worker count.
    let (tap, handle) = ampere_watch::tap(ampere_watch::WatchConfig::default());
    let tapped = Telemetry::builder()
        .sink(JsonlSink::new(std::io::sink()))
        .sink(tap)
        .batched(true)
        .build();
    let t1 = Instant::now();
    let watched = run_tasks(&config, &tapped);
    let wall_watch_ms = t1.elapsed().as_secs_f64() * 1e3;
    let checksum_watch = checksum_results(&watched);
    let report = handle.finish();

    let mut run = WatchRun {
        workers: config.workers as u64,
        seed: config.seed,
        hours: config.hours,
        wall_plain_ms,
        wall_watch_ms,
        overhead_fraction: if wall_watch_ms > 0.0 {
            ((wall_watch_ms - wall_plain_ms) / wall_watch_ms).max(0.0)
        } else {
            0.0
        },
        checksum_plain: hex(checksum_plain),
        checksum_watch: hex(checksum_watch),
        rule_digest: hex(report.rule_digest()),
        alert_digest: hex(report.alert_digest()),
        events: report.events_seen,
        clean_fires: report.fires_in_pass(CLEAN_PASS) as u64,
        chaos_fires: report.fires_in_pass(CHAOS_PASS) as u64,
        chaos_proximity_incidents: report.incidents_for(CHAOS_PASS, PROXIMITY_RULE) as u64,
        rule_lines: Vec::new(),
        alerts: Vec::new(),
        incidents: Vec::new(),
        window_lines: Vec::new(),
    };
    let lines = report.rules.iter().map(|r| r.to_json_line());
    let lines = lines.chain(report.alerts.iter().map(|a| a.to_json_line()));
    let lines = lines.chain(report.incidents.iter().map(|i| i.to_json_line()));
    for line in lines.chain(report.windows.iter().map(|w| w.to_json_line())) {
        let fields = Fields::parse(0, &line).expect("the engine writes JSON lines");
        run.push_line(&line, &fields)
            .expect("the engine writes well-typed lines");
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_obs::BenchDump;

    #[test]
    fn tiny_bench_is_deterministic_and_serializes() {
        let config = WatchBenchConfig {
            workers: 2,
            seed: 10,
            hours: 2,
            warmup_mins: 30,
            calibration_hours: 2,
        };
        let r = run(config);
        assert!(r.trajectory_clean(), "tap perturbed the simulation");
        assert!(
            r.streams_verified(),
            "online digests disagree with the lines"
        );
        assert!(r.events > 0);
        assert!(!r.window_lines.is_empty());

        // Rerun: the tapped pass must reproduce the same alert digest.
        let r2 = run(config);
        assert_eq!(r.checksum_watch, r2.checksum_watch);
        assert_eq!(r.alert_digest, r2.alert_digest);

        let jsonl = r.encode();
        assert_eq!(
            jsonl.lines().count(),
            1 + r.rule_lines.len() + r.alerts.len() + r.incidents.len() + r.window_lines.len()
        );
        let decoded = WatchRun::decode(&jsonl).expect("dump decodes");
        assert_eq!(decoded.gates(), r.gates());
        assert_eq!(decoded.encode(), jsonl);
    }
}
