//! `repro hier` — the hierarchical-control benchmark: the multi-row
//! budget-arbiter sweep from `ampere_experiments::hier`, recorded as an
//! [`ampere_obs::HierRun`] (`BENCH_hier.json`, `report --hier`).
//!
//! What it checks:
//!
//! - **Safety per level** — the full grant-loss × arbiter-outage ×
//!   row-fault grid must complete with zero breaker trips at both the
//!   substation and the row level.
//! - **Sibling isolation** — healthy rows must be bit-identical between
//!   the clean run and the run where only row 0 is faulted.
//! - **Trip attribution** — any substation trip (none expected) must be
//!   preceded by a row-level violation or a control-plane fault.
//! - **Determinism** — the dump must be byte-identical at any
//!   `--workers` count (enforced in CI by diffing `BENCH_hier.json`
//!   across `--workers 1` and `--workers 4`).

use ampere_experiments::hier::{self, HierConfig};
use ampere_obs::dump::hex;
use ampere_obs::{HierCellLine, HierRoundLine, HierRun};

use std::time::Instant;

/// CI-sized configuration: the full quick fault grid.
pub fn quick(workers: usize) -> HierConfig {
    HierConfig {
        workers,
        ..HierConfig::quick()
    }
}

/// Paper-scale configuration: four rows, six measured hours per cell.
pub fn paper(workers: usize) -> HierConfig {
    HierConfig {
        workers,
        ..HierConfig::paper()
    }
}

/// Runs the full benchmark, stamps the wall time and declares the
/// verdicts the sweep recomputes.
pub fn run(config: &HierConfig) -> HierRun {
    let t0 = Instant::now();
    let r = hier::run(config);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cells = r
        .cells
        .iter()
        .map(|c| HierCellLine {
            grant_loss: c.grant_loss,
            outage_mins: c.outage_mins,
            row_fault: c.row_fault,
            substation_tripped: c.substation_tripped,
            substation_trip_min: c.substation_trip_min,
            substation_violations: c.substation_violations,
            row_trips: c.row_trips,
            row_violations: c.row_violations,
            row_over_grant_ticks: c.row_over_grant_ticks,
            arbiter_down_rounds: c.arbiter_down_rounds,
            grants_lost: c.grants_lost,
            fallback_rounds: c.fallback_rounds,
            static_share_rounds: c.static_share_rounds,
            held_rounds: c.held_rounds,
            pinned_rounds: c.pinned_rounds,
            max_reserve_w: c.max_reserve_w,
            min_coverage: c.min_coverage,
            degraded_ticks: c.degraded_ticks,
            backstop_ticks: c.backstop_ticks,
            placed: c.placed,
            throughput_ratio: c.throughput_ratio,
            trip_explained: hier::substation_trip_explained(c),
            row_checksums: c.row_checksums.iter().map(|&x| hex(x)).collect(),
            rounds: c
                .rounds
                .iter()
                .map(|r| HierRoundLine {
                    round: r.round,
                    at_min: r.at_min,
                    arbiter_up: r.arbiter_up,
                    held: r.held,
                    backstop: r.backstop,
                    reserve_w: r.reserve_w,
                    applied_w: r.applied_w.clone(),
                    lost_rows: r.lost_rows.clone(),
                    fallback_rows: r.fallback_rows.clone(),
                    pinned_rows: r.pinned_rows.clone(),
                })
                .collect(),
        })
        .collect();
    HierRun {
        workers: config.workers as u64,
        seed: config.seed,
        hours: config.hours,
        rows: r.rows as u64,
        grant_period_mins: r.grant_period_mins,
        feed_w: r.feed_w,
        allocatable_w: r.allocatable_w,
        oversubscription: r.oversubscription,
        floors_w: r.floors_w,
        ceilings_w: r.ceilings_w,
        baseline_placed: r.baseline_placed,
        wall_ms,
        declared_zero_trips: false,
        declared_isolation_ok: false,
        has_isolation_axis: false,
        declared_trips_explained: false,
        cells,
    }
    .with_declared_verdicts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_obs::BenchDump;
    use ampere_telemetry::Capture;

    #[test]
    fn tiny_bench_serializes_and_gates() {
        let config = HierConfig {
            rows: 3,
            hours: 1,
            warmup_mins: 30,
            grant_loss: vec![0.0, 0.3],
            outage_mins: vec![0],
            row_faults: vec![false, true],
            workers: 2,
            ..HierConfig::quick()
        };
        let r = Capture::standalone().with(|| run(&config));
        assert!(r.has_isolation_axis);
        assert!(
            r.gates().iter().all(|g| g.pass),
            "tiny grid failed a gate:\n{}",
            r.to_markdown()
        );
        assert_eq!(r.cells.len(), 4);
        assert!(r.cells.iter().all(|c| !c.rounds.is_empty()));

        let jsonl = r.encode();
        let rounds: usize = r.cells.iter().map(|c| c.rounds.len()).sum();
        assert_eq!(jsonl.lines().count(), 1 + r.cells.len() + rounds);
        let decoded = HierRun::decode(&jsonl).expect("dump decodes");
        assert_eq!(decoded.gates(), r.gates());
        assert_eq!(decoded.encode(), jsonl);

        // The dump must be byte-identical at a different worker count,
        // header aside.
        let serial = Capture::standalone().with(|| {
            run(&HierConfig {
                workers: 1,
                ..config
            })
        });
        let body = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(body(&jsonl), body(&serial.encode()));
    }
}
