//! `repro watch` — the live-observability benchmark: two identical
//! fan-out runs (a clean light-workload pass and a chaos-injected heavy
//! pass), executed as five alternating pass pairs — bare, then with the
//! `ampere-watch` tap attached — so the rollup/alerting overhead is
//! measured against the same workload it monitors. The record reports
//! the median pair's walls and overhead, and the median pair's tap.
//!
//! The result is an [`ampere_obs::WatchRun`] (`BENCH_watch.json`,
//! `report --alerts`). What it checks:
//!
//! - **Determinism** — the simulated trajectories must be bit-identical
//!   in every pass, with and without the tap (the tap is a passive
//!   sink; if attaching it changes the run, something is deeply wrong),
//!   and the alert stream digest must be worker-invariant (enforced in
//!   CI by diffing `BENCH_watch.json` across `--workers 1` and
//!   `--workers 4`).
//! - **Silence on health** — the clean pass must fire zero alerts.
//! - **Signal on chaos** — the chaos pass must open at least one
//!   breaker-proximity incident, linked to the violating control span.
//! - **Overhead** — the median pair's watch pass may cost at most the
//!   profiling bar (10 %) over its bare pass; gated by `report --alerts
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

use crate::{median_pair, Timed};

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

/// Runs the full benchmark: the bare and tapped pass pairs, gates.
pub fn run(config: WatchBenchConfig) -> WatchRun {
    let pair = median_pair(
        // Bare pass: events are serialized and discarded, matching the
        // instrumented profile baseline, but no watch tap is attached.
        || {
            let bare = Telemetry::builder()
                .sink(JsonlSink::new(std::io::sink()))
                .batched(true)
                .build();
            Timed::run(|| (checksum_results(&run_tasks(&config, &bare)), ()))
        },
        // Tapped pass: same pipeline plus the watch tap. The tap
        // observes the merged replay stream, so its view — and
        // therefore the alert stream — is identical at any worker count.
        || {
            let (tap, handle) = ampere_watch::tap(ampere_watch::WatchConfig::default());
            let tapped = Telemetry::builder()
                .sink(JsonlSink::new(std::io::sink()))
                .sink(tap)
                .batched(true)
                .build();
            Timed::run(|| (checksum_results(&run_tasks(&config, &tapped)), handle))
        },
    );
    let report = pair.observed.value.finish();

    let mut run = WatchRun {
        workers: config.workers as u64,
        seed: config.seed,
        hours: config.hours,
        wall_plain_ms: pair.bare.wall_ms,
        wall_watch_ms: pair.observed.wall_ms,
        overhead_fraction: pair.overhead_fraction,
        checksum_plain: hex(pair.checksum_bare),
        checksum_watch: hex(pair.checksum_observed),
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
