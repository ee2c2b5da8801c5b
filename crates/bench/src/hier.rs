//! `repro hier` — the hierarchical-control benchmark: the multi-row
//! budget-arbiter sweep from `ampere_experiments::hier`, serialized as
//! `BENCH_hier.json` for `ampere-obs report --hier`.
//!
//! The gates encoded here are the PR's acceptance criteria:
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

use ampere_experiments::hier::{self, HierConfig, HierResult};

use std::fmt::Write as _;
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

/// The benchmark's outcome: the sweep plus wall time and the config
/// coordinates the dump is keyed on.
#[derive(Debug)]
pub struct HierBenchResult {
    /// Workers each cell stepped its rows with.
    pub workers: usize,
    /// Master seed.
    pub seed: u64,
    /// Measured hours per cell.
    pub hours: u64,
    /// Wall time of the whole sweep (ms).
    pub wall_ms: f64,
    /// The swept grid.
    pub result: HierResult,
}

impl HierBenchResult {
    /// Whether every cell kept both breaker levels trip-free.
    pub fn zero_trips(&self) -> bool {
        self.result.zero_trips()
    }

    /// The sibling-isolation verdict (false when the grid lacks the
    /// row-fault axis).
    pub fn isolation_ok(&self) -> bool {
        self.result.isolation_ok().unwrap_or(false)
    }

    /// Whether the grid swept the row-fault axis at all (isolation is
    /// only judged when it did).
    pub fn has_isolation_axis(&self) -> bool {
        self.result.isolation_ok().is_some()
    }

    /// Whether every substation trip in the grid is attributable to a
    /// preceding row-level violation or a control-plane fault.
    pub fn trips_explained(&self) -> bool {
        self.result
            .cells
            .iter()
            .all(hier::substation_trip_explained)
    }

    /// All acceptance gates together.
    pub fn gates_pass(&self) -> bool {
        self.zero_trips()
            && (!self.has_isolation_axis() || self.isolation_ok())
            && self.trips_explained()
    }

    /// Serializes as JSONL: one header line carrying the partition and
    /// the verdicts, one line per grid cell, then the per-round
    /// reallocation timeline of every cell — the exact layout
    /// `ampere-obs report --hier` consumes.
    pub fn to_jsonl(&self) -> String {
        let r = &self.result;
        let mut out = String::new();
        let join = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let join_idx = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        let _ = write!(
            out,
            concat!(
                "{{\"bench\":\"hier\",\"workers\":{},\"seed\":{},\"hours\":{},",
                "\"rows\":{},\"cells\":{},\"grant_period_mins\":{},",
                "\"feed_w\":{:.3},\"allocatable_w\":{:.3},\"oversubscription\":{:.6},",
                "\"floors_w\":[{}],\"ceilings_w\":[{}],",
                "\"baseline_placed\":{},\"wall_ms\":{:.3},",
                "\"zero_trips\":{},\"isolation_ok\":{},\"has_isolation_axis\":{},",
                "\"trips_explained\":{}}}"
            ),
            self.workers,
            self.seed,
            self.hours,
            r.rows,
            r.cells.len(),
            r.grant_period_mins,
            r.feed_w,
            r.allocatable_w,
            r.oversubscription,
            join(&r.floors_w),
            join(&r.ceilings_w),
            r.baseline_placed,
            self.wall_ms,
            self.zero_trips(),
            self.isolation_ok(),
            self.has_isolation_axis(),
            self.trips_explained(),
        );
        out.push('\n');
        for (i, c) in r.cells.iter().enumerate() {
            let checksums = c
                .row_checksums
                .iter()
                .map(|x| format!("{x:016x}"))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                concat!(
                    "{{\"cell\":{},\"grant_loss\":{},\"outage_mins\":{},\"row_fault\":{},",
                    "\"substation_tripped\":{},\"substation_trip_min\":{},",
                    "\"substation_violations\":{},\"row_trips\":{},\"row_violations\":{},",
                    "\"row_over_grant_ticks\":{},\"arbiter_down_rounds\":{},\"grants_lost\":{},",
                    "\"fallback_rounds\":{},\"static_share_rounds\":{},\"held_rounds\":{},",
                    "\"pinned_rounds\":{},\"max_reserve_w\":{:.3},\"min_coverage\":{:.6},",
                    "\"degraded_ticks\":{},\"backstop_ticks\":{},\"placed\":{},",
                    "\"throughput_ratio\":{:.6},\"trip_explained\":{},",
                    "\"row_checksums\":\"{}\"}}"
                ),
                i,
                c.grant_loss,
                c.outage_mins,
                c.row_fault,
                c.substation_tripped,
                c.substation_trip_min.map_or(-1i64, |m| m as i64),
                c.substation_violations,
                c.row_trips,
                c.row_violations,
                c.row_over_grant_ticks,
                c.arbiter_down_rounds,
                c.grants_lost,
                c.fallback_rounds,
                c.static_share_rounds,
                c.held_rounds,
                c.pinned_rounds,
                c.max_reserve_w,
                c.min_coverage,
                c.degraded_ticks,
                c.backstop_ticks,
                c.placed,
                c.throughput_ratio,
                hier::substation_trip_explained(c),
                checksums,
            );
            out.push('\n');
            for round in &c.rounds {
                let _ = write!(
                    out,
                    concat!(
                        "{{\"cell\":{},\"round\":{},\"at_min\":{},\"arbiter_up\":{},",
                        "\"held\":{},\"backstop\":{},\"reserve_w\":{:.3},\"applied_w\":[{}],",
                        "\"lost_rows\":[{}],\"fallback_rows\":[{}],\"pinned_rows\":[{}]}}"
                    ),
                    i,
                    round.round,
                    round.at_min,
                    round.arbiter_up,
                    round.held,
                    round.backstop,
                    round.reserve_w,
                    join(&round.applied_w),
                    join_idx(&round.lost_rows),
                    join_idx(&round.fallback_rows),
                    join_idx(&round.pinned_rows),
                );
                out.push('\n');
            }
        }
        out
    }

    /// Human-readable summary table.
    pub fn render_table(&self) -> String {
        let r = &self.result;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hier sweep (rows = {}, workers = {}, {} cells, {:.1} ms)",
            r.rows,
            self.workers,
            r.cells.len(),
            self.wall_ms
        );
        let _ = writeln!(
            out,
            "  feed {:.0} W   allocatable {:.0} W   oversubscription {:.3}x   grant period {} min",
            r.feed_w, r.allocatable_w, r.oversubscription, r.grant_period_mins
        );
        let _ = writeln!(
            out,
            "  {:<7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>5} {:>5} {:>7} {:>7} {:>7}",
            "loss",
            "outage",
            "rfault",
            "sstrip",
            "rtrips",
            "lost",
            "fback",
            "pin",
            "reserve",
            "min_cov",
            "r_thru"
        );
        for c in &r.cells {
            let _ = writeln!(
                out,
                "  {:<7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>5} {:>5} {:>7.0} {:>7.3} {:>7.3}",
                format!("{:.0}%", c.grant_loss * 100.0),
                format!("{}m", c.outage_mins),
                if c.row_fault { "YES" } else { "no" },
                if c.substation_tripped { "TRIP" } else { "no" },
                c.row_trips,
                c.grants_lost,
                c.fallback_rounds,
                c.pinned_rounds,
                c.max_reserve_w,
                c.min_coverage,
                c.throughput_ratio,
            );
        }
        let _ = writeln!(
            out,
            "  zero-trips {}   isolation {}   trip-attribution {}",
            if self.zero_trips() { "PASS" } else { "FAIL" },
            if !self.has_isolation_axis() {
                "n/a"
            } else if self.isolation_ok() {
                "PASS"
            } else {
                "FAIL"
            },
            if self.trips_explained() {
                "PASS"
            } else {
                "FAIL"
            },
        );
        out
    }
}

/// Runs the full benchmark and stamps the wall time.
pub fn run(config: &HierConfig) -> HierBenchResult {
    let t0 = Instant::now();
    let result = hier::run(config);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    HierBenchResult {
        workers: config.workers,
        seed: config.seed,
        hours: config.hours,
        wall_ms,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_telemetry::{json, Capture};

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
        assert!(r.has_isolation_axis());
        assert!(
            r.gates_pass(),
            "tiny grid failed a gate:\n{}",
            r.render_table()
        );

        let jsonl = r.to_jsonl();
        let mut lines = jsonl.lines();
        let header = json::parse_object_full(lines.next().expect("header")).expect("valid header");
        assert!(header
            .iter()
            .any(|(k, v)| k == "bench" && format!("{v:?}").contains("hier")));
        // Every line parses; cell and round lines are distinguishable.
        let (mut cells, mut rounds) = (0usize, 0usize);
        for line in lines {
            let pairs = json::parse_object_full(line).expect("valid line");
            if pairs.iter().any(|(k, _)| k == "round") {
                rounds += 1;
            } else {
                cells += 1;
            }
        }
        assert_eq!(cells, r.result.cells.len());
        assert_eq!(
            rounds,
            r.result.cells.iter().map(|c| c.rounds.len()).sum::<usize>()
        );

        // The dump must be byte-identical at a different worker count.
        let serial = Capture::standalone().with(|| {
            run(&HierConfig {
                workers: 1,
                ..config
            })
        });
        assert_eq!(strip_wall(&jsonl), strip_wall(&serial.to_jsonl()));
    }

    /// Wall time is the only nondeterministic field; the worker-identity
    /// check compares everything else.
    fn strip_wall(jsonl: &str) -> String {
        let mut out = String::new();
        for line in jsonl.lines() {
            let mut line = line.to_string();
            if let (Some(a), Some(b)) = (line.find("\"wall_ms\":"), line.find(",\"zero_trips\"")) {
                line.replace_range(a..b, "\"wall_ms\":0");
            }
            if let Some(a) = line.find("\"workers\":") {
                let b = line[a..].find(',').map(|i| a + i).unwrap_or(line.len());
                line.replace_range(a..b, "\"workers\":0");
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}
