//! `repro sla` — the mixed-fleet SLA benchmark: uniform vs selective
//! freezing from `ampere_experiments::sla`, recorded as an
//! [`ampere_obs::SlaRun`] (`BENCH_sla.json`, `report --sla`).
//!
//! What it checks:
//!
//! - **SLA protection** — selective freezing holds client-side p99.9
//!   within `sla_factor` (1.2x) of the uncontrolled baseline, while
//!   class-blind uniform freezing exceeds it, at equal power budgets.
//! - **Budget authority** — both controlled arms actually freeze, and
//!   the baseline actually over-runs the budget (else the comparison
//!   is vacuous).
//! - **Determinism** — the dump must be byte-identical at any
//!   `--workers` count (enforced in CI by diffing `BENCH_sla.json`
//!   across `--workers 1` and `--workers 4`).

use ampere_experiments::sla::{self, SlaConfig};
use ampere_obs::dump::hex;
use ampere_obs::sla::{SlaArmLine, SlaRun};

use std::time::Instant;

/// CI-sized configuration: three rows, two measured hours.
pub fn quick(workers: usize) -> SlaConfig {
    SlaConfig::quick(workers)
}

/// Paper-scale configuration: four rows, a full simulated day, 3.2
/// million streaming users.
pub fn paper(workers: usize) -> SlaConfig {
    SlaConfig::paper(workers)
}

/// Runs the full benchmark, stamps the wall time and declares the
/// verdicts the comparison recomputes.
pub fn run(config: &SlaConfig) -> SlaRun {
    let t0 = Instant::now();
    let r = sla::run(config);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let arms = r
        .arms
        .iter()
        .map(|a| SlaArmLine {
            policy: a.policy.clone(),
            p999_us: a.p999_us,
            p999_ratio: a.p999_ratio,
            peak_power_w: a.peak_power_w,
            mean_power_w: a.mean_power_w,
            over_budget_ticks: a.over_budget_ticks,
            placed: a.placed,
            froze: a.froze,
            unfroze: a.unfroze,
            mean_frozen: a.mean_frozen,
            interactive_frozen_peak: a.interactive_frozen_peak,
            batch_frozen_peak: a.batch_frozen_peak,
            min_capacity: a.min_capacity,
            checksum: hex(a.checksum),
        })
        .collect();
    SlaRun {
        workers: config.workers as u64,
        seed: config.seed,
        hours: config.hours,
        rows: r.rows as u64,
        servers_per_row: r.servers_per_row as u64,
        interactive_total: r.interactive_total as u64,
        batch_total: r.batch_total as u64,
        budget_w: r.budget_w,
        rated_w: r.rated_w,
        users: r.users,
        sla_factor: r.sla_factor,
        wall_ms,
        declared_sla_protected: false,
        declared_budget_binding: false,
        arms,
    }
    .with_declared_verdicts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_obs::BenchDump;
    use ampere_telemetry::Capture;
    use ampere_workload::InteractiveSim;

    #[test]
    fn tiny_bench_serializes_and_is_worker_identical() {
        let tiny = |workers| SlaConfig {
            hours: 1,
            warmup_mins: 30,
            sim: InteractiveSim {
                run_secs: 10.0,
                ..InteractiveSim::default()
            },
            ..SlaConfig::quick(workers)
        };
        let r = Capture::standalone().with(|| run(&tiny(2)));
        assert_eq!(r.arms.len(), 3);
        let jsonl = r.encode();
        assert!(jsonl.starts_with("{\"bench\":\"sla\","));
        let decoded = SlaRun::decode(&jsonl).expect("dump decodes");
        assert_eq!(decoded.gates(), r.gates());
        assert_eq!(decoded.encode(), jsonl);

        // The dump must be byte-identical at a different worker count,
        // header aside.
        let serial = Capture::standalone().with(|| run(&tiny(1)));
        let body = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(body(&jsonl), body(&serial.encode()));
        assert_eq!(
            (
                serial.declared_sla_protected,
                serial.declared_budget_binding
            ),
            (r.declared_sla_protected, r.declared_budget_binding)
        );
    }
}
