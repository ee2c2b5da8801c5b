//! The `repro hier` record: the report section behind `report
//! --hier`.
//!
//! `repro hier` emits `BENCH_hier.json` — a JSONL header line carrying
//! the static partition (feed, floors, ceilings, oversubscription) and
//! the sweep verdicts, one line per grid cell and one line per grant
//! round (the budget-reallocation timeline). [`HierRun`] is that dump
//! as a record ([`BenchDump`]) with three hard gates:
//!
//! - **zero trips** — no cell may have tripped a breaker at either the
//!   substation or the row level;
//! - **sibling isolation** — healthy rows must be bit-identical between
//!   the clean cell and the row-fault cell (the dump carries the
//!   per-row checksums; the verdict is recomputed here, not trusted);
//! - **trip attribution** — any substation trip must be preceded by a
//!   row-level violation or a control-plane fault.

use crate::dump::{expect_count, read, BenchDump, Fields, Gate};

use std::fmt::Write as _;

/// One grid cell of the sweep.
#[derive(Debug, Clone)]
pub struct HierCellLine {
    /// Grant-RPC loss probability injected.
    pub grant_loss: f64,
    /// Arbiter-outage length injected, in minutes.
    pub outage_mins: u64,
    /// Whether row 0 was fault-injected.
    pub row_fault: bool,
    /// Whether the substation breaker tripped.
    pub substation_tripped: bool,
    /// Minute of the substation trip, if it tripped.
    pub substation_trip_min: Option<u64>,
    /// Substation over-feed minutes.
    pub substation_violations: u64,
    /// Rows whose own breaker tripped.
    pub row_trips: u64,
    /// Row-level over-budget minutes in the measured window.
    pub row_violations: u64,
    /// Ticks some row ran above its granted budget.
    pub row_over_grant_ticks: u64,
    /// Rounds the arbiter was down.
    pub arbiter_down_rounds: u64,
    /// Grant RPCs lost.
    pub grants_lost: u64,
    /// Row-rounds on a fallback budget.
    pub fallback_rounds: u64,
    /// Row-rounds on the static-share fallback.
    pub static_share_rounds: u64,
    /// Rounds hysteresis held the previous vector.
    pub held_rounds: u64,
    /// Row-rounds pinned to the floor by health.
    pub pinned_rounds: u64,
    /// Largest passive reserve reported, in watts.
    pub max_reserve_w: f64,
    /// Lowest monitoring coverage any row saw.
    pub min_coverage: f64,
    /// Ticks some row ran degraded.
    pub degraded_ticks: u64,
    /// Ticks the capping backstop was armed.
    pub backstop_ticks: u64,
    /// Jobs placed.
    pub placed: u64,
    /// Jobs placed, normalized to the clean cell.
    pub throughput_ratio: f64,
    /// The producer's trip-attribution verdict: any substation trip was
    /// preceded by a row-level violation or a control-plane fault.
    pub trip_explained: bool,
    /// Per-row trajectory checksums (hex strings, comma-joined in the
    /// dump).
    pub row_checksums: Vec<String>,
    /// The cell's grant rounds: its budget-reallocation timeline.
    pub rounds: Vec<HierRoundLine>,
}

/// One grant round of a cell's reallocation timeline.
#[derive(Debug, Clone)]
pub struct HierRoundLine {
    /// Round counter within the cell.
    pub round: u64,
    /// Barrier minute.
    pub at_min: u64,
    /// Whether the arbiter was up.
    pub arbiter_up: bool,
    /// Whether hysteresis held the previous vector.
    pub held: bool,
    /// Whether the substation backstop forced floors.
    pub backstop: bool,
    /// Passive reserve, in watts.
    pub reserve_w: f64,
    /// Budgets each row actuated, in watts.
    pub applied_w: Vec<f64>,
    /// Rows whose grant was lost this round.
    pub lost_rows: Vec<usize>,
    /// Rows on a fallback budget after this round.
    pub fallback_rows: Vec<usize>,
    /// Rows pinned to their floor this round.
    pub pinned_rows: Vec<usize>,
}

/// The `repro hier` sweep (`BENCH_hier.json`).
#[derive(Debug, Clone)]
pub struct HierRun {
    /// Workers each cell stepped its rows with.
    pub workers: u64,
    /// Master seed.
    pub seed: u64,
    /// Measured hours per cell.
    pub hours: u64,
    /// Rows under arbitration.
    pub rows: u64,
    /// Grant cadence, in minutes.
    pub grant_period_mins: u64,
    /// Substation feed capacity, in watts.
    pub feed_w: f64,
    /// Budget the arbiter allocates, in watts.
    pub allocatable_w: f64,
    /// Σ rated row power / feed.
    pub oversubscription: f64,
    /// Per-row budget floors, in watts.
    pub floors_w: Vec<f64>,
    /// Per-row budget ceilings, in watts.
    pub ceilings_w: Vec<f64>,
    /// Jobs the clean cell placed (the throughput-ratio denominator).
    pub baseline_placed: u64,
    /// Wall time of the whole sweep (ms).
    pub wall_ms: f64,
    /// The producer's zero-trips verdict, as written in the header.
    pub declared_zero_trips: bool,
    /// Declared isolation verdict (`false` without the row-fault axis).
    pub declared_isolation_ok: bool,
    /// Whether the producer's grid swept the row-fault axis.
    pub has_isolation_axis: bool,
    /// Declared trip-attribution verdict.
    pub declared_trips_explained: bool,
    /// All grid cells, in sweep order.
    pub cells: Vec<HierCellLine>,
}

fn join<T: ToString>(v: &[T]) -> String {
    v.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

fn join_w(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(",")
}

impl HierCellLine {
    fn decode(f: &Fields) -> Result<Self, String> {
        let trip_min = f.int("substation_trip_min")?;
        Ok(HierCellLine {
            grant_loss: f.num("grant_loss")?,
            outage_mins: f.uint("outage_mins")?,
            row_fault: f.boolean("row_fault")?,
            substation_tripped: f.boolean("substation_tripped")?,
            substation_trip_min: u64::try_from(trip_min).ok(),
            substation_violations: f.uint("substation_violations")?,
            row_trips: f.uint("row_trips")?,
            row_violations: f.uint("row_violations")?,
            row_over_grant_ticks: f.uint("row_over_grant_ticks")?,
            arbiter_down_rounds: f.uint("arbiter_down_rounds")?,
            grants_lost: f.uint("grants_lost")?,
            fallback_rounds: f.uint("fallback_rounds")?,
            static_share_rounds: f.uint("static_share_rounds")?,
            held_rounds: f.uint("held_rounds")?,
            pinned_rounds: f.uint("pinned_rounds")?,
            max_reserve_w: f.num("max_reserve_w")?,
            min_coverage: f.num("min_coverage")?,
            degraded_ticks: f.uint("degraded_ticks")?,
            backstop_ticks: f.uint("backstop_ticks")?,
            placed: f.uint("placed")?,
            throughput_ratio: f.num("throughput_ratio")?,
            trip_explained: f.boolean("trip_explained")?,
            row_checksums: f
                .string("row_checksums")?
                .split(',')
                .map(str::to_string)
                .collect(),
            rounds: Vec::new(),
        })
    }
}

impl HierRoundLine {
    fn decode(f: &Fields) -> Result<Self, String> {
        Ok(HierRoundLine {
            round: f.uint("round")?,
            at_min: f.uint("at_min")?,
            arbiter_up: f.boolean("arbiter_up")?,
            held: f.boolean("held")?,
            backstop: f.boolean("backstop")?,
            reserve_w: f.num("reserve_w")?,
            applied_w: f.floats("applied_w")?,
            lost_rows: f.indices("lost_rows")?,
            fallback_rows: f.indices("fallback_rows")?,
            pinned_rows: f.indices("pinned_rows")?,
        })
    }
}

impl HierRun {
    /// Sets the header's declared verdicts to the recomputed ones: what
    /// the producer of a freshly measured sweep declares.
    pub fn with_declared_verdicts(mut self) -> Self {
        let isolation = self.isolation_recomputed();
        self.declared_zero_trips = self.zero_trips();
        self.declared_isolation_ok = isolation.unwrap_or(false);
        self.has_isolation_axis = isolation.is_some();
        self.declared_trips_explained = self.trips_explained();
        self
    }

    fn cell(&self, grant_loss: f64, outage_mins: u64, row_fault: bool) -> Option<&HierCellLine> {
        self.cells.iter().find(|c| {
            c.grant_loss == grant_loss && c.outage_mins == outage_mins && c.row_fault == row_fault
        })
    }

    /// Whether every cell kept both breaker levels trip-free.
    pub fn zero_trips(&self) -> bool {
        self.cells
            .iter()
            .all(|c| !c.substation_tripped && c.row_trips == 0)
    }

    /// The isolation verdict, recomputed from the per-row checksums
    /// (healthy rows 1..N bit-identical between the clean and
    /// row-fault cells). `None` when the grid lacks either cell.
    pub fn isolation_recomputed(&self) -> Option<bool> {
        let clean = self.cell(0.0, 0, false)?;
        let faulted = self.cell(0.0, 0, true)?;
        Some(
            clean.row_checksums.len() == faulted.row_checksums.len()
                && clean.row_checksums[1..]
                    .iter()
                    .zip(&faulted.row_checksums[1..])
                    .all(|(a, b)| a == b),
        )
    }

    /// Whether every cell's trip-attribution verdict held.
    pub fn trips_explained(&self) -> bool {
        self.cells.iter().all(|c| c.trip_explained)
    }
}

/// Renders a compact epoch string (e.g. `"3-7, 12"`) from the round
/// indices where `pick` selected the row.
fn epochs(rounds: &[&HierRoundLine], pick: impl Fn(&HierRoundLine) -> bool) -> String {
    let hits: Vec<u64> = rounds.iter().filter(|r| pick(r)).map(|r| r.round).collect();
    if hits.is_empty() {
        return "-".into();
    }
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for h in hits {
        match spans.last_mut() {
            Some((_, end)) if *end + 1 == h => *end = h,
            _ => spans.push((h, h)),
        }
    }
    spans
        .iter()
        .map(|(a, b)| {
            if a == b {
                a.to_string()
            } else {
                format!("{a}-{b}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

impl BenchDump for HierRun {
    fn decode(text: &str) -> Result<Self, String> {
        let (h, body) = read(text, "hier")?;
        let mut run = HierRun {
            workers: h.uint("workers")?,
            seed: h.uint("seed")?,
            hours: h.uint("hours")?,
            rows: h.uint("rows")?,
            grant_period_mins: h.uint("grant_period_mins")?,
            feed_w: h.num("feed_w")?,
            allocatable_w: h.num("allocatable_w")?,
            oversubscription: h.num("oversubscription")?,
            floors_w: h.floats("floors_w")?,
            ceilings_w: h.floats("ceilings_w")?,
            baseline_placed: h.uint("baseline_placed")?,
            wall_ms: h.num("wall_ms")?,
            declared_zero_trips: h.boolean("zero_trips")?,
            declared_isolation_ok: h.boolean("isolation_ok")?,
            has_isolation_axis: h.boolean("has_isolation_axis")?,
            declared_trips_explained: h.boolean("trips_explained")?,
            cells: Vec::new(),
        };
        let mut rounds = Vec::new();
        for (_, f) in &body {
            if f.has("round") {
                rounds.push((f.uint("cell")? as usize, HierRoundLine::decode(f)?));
            } else {
                run.cells.push(HierCellLine::decode(f)?);
            }
        }
        expect_count(h.uint("cells")?, run.cells.len(), "cells")?;
        for (cell, round) in rounds {
            run.cells
                .get_mut(cell)
                .ok_or_else(|| format!("round line references unknown cell {cell}"))?
                .rounds
                .push(round);
        }
        Ok(run)
    }

    /// One header line carrying the partition and the declared
    /// verdicts, then each grid cell followed by its grant rounds.
    fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
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
            self.rows,
            self.cells.len(),
            self.grant_period_mins,
            self.feed_w,
            self.allocatable_w,
            self.oversubscription,
            join_w(&self.floors_w),
            join_w(&self.ceilings_w),
            self.baseline_placed,
            self.wall_ms,
            self.declared_zero_trips,
            self.declared_isolation_ok,
            self.has_isolation_axis,
            self.declared_trips_explained,
        );
        for (i, c) in self.cells.iter().enumerate() {
            let _ = writeln!(
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
                c.trip_explained,
                c.row_checksums.join(","),
            );
            for r in &c.rounds {
                let _ = writeln!(
                    out,
                    concat!(
                        "{{\"cell\":{},\"round\":{},\"at_min\":{},\"arbiter_up\":{},",
                        "\"held\":{},\"backstop\":{},\"reserve_w\":{:.3},\"applied_w\":[{}],",
                        "\"lost_rows\":[{}],\"fallback_rows\":[{}],\"pinned_rows\":[{}]}}"
                    ),
                    i,
                    r.round,
                    r.at_min,
                    r.arbiter_up,
                    r.held,
                    r.backstop,
                    r.reserve_w,
                    join_w(&r.applied_w),
                    join(&r.lost_rows),
                    join(&r.fallback_rows),
                    join(&r.pinned_rows),
                );
            }
        }
        out
    }

    /// Zero trips and trip attribution always; sibling isolation when
    /// the grid swept the row-fault axis.
    fn gates(&self) -> Vec<Gate> {
        let isolation = match self.isolation_recomputed() {
            Some(ok) => Gate::new(
                "sibling-isolation",
                ok && self.declared_isolation_ok,
                format!(
                    "a healthy sibling's trajectory changed under a row fault (recomputed \
                     {ok}, declared {})",
                    self.declared_isolation_ok
                ),
            ),
            None => Gate::new(
                "sibling-isolation",
                !self.has_isolation_axis,
                "isolation axis declared but the clean/row-fault cells are missing",
            ),
        };
        vec![
            Gate::new(
                "zero-trips",
                self.zero_trips() && self.declared_zero_trips,
                format!(
                    "a breaker tripped at the substation or row level (declared zero trips: {})",
                    self.declared_zero_trips
                ),
            ),
            isolation,
            Gate::new(
                "trip-attribution",
                self.trips_explained(),
                "a substation trip had no row-level or control-plane cause",
            ),
        ]
    }

    fn to_markdown(&self) -> String {
        let mut md = String::new();
        let _ = writeln!(md, "## Hierarchical sweep\n");
        let _ = writeln!(
            md,
            "{} rows under one substation feed: {:.0} W feed, {:.0} W allocatable, \
             {:.2}x oversubscribed, {}-minute grant rounds.\n",
            self.rows,
            self.feed_w,
            self.allocatable_w,
            self.oversubscription,
            self.grant_period_mins
        );
        let _ = writeln!(
            md,
            "| loss | outage | row fault | substation | row trips | lost | fallback | pinned | reserve W | r_thru |"
        );
        let _ = writeln!(
            md,
            "|-----:|-------:|:---------:|:----------:|----------:|-----:|---------:|-------:|----------:|-------:|"
        );
        for c in &self.cells {
            let _ = writeln!(
                md,
                "| {:.0}% | {}m | {} | {} | {} | {} | {} | {} | {:.0} | {:.3} |",
                c.grant_loss * 100.0,
                c.outage_mins,
                if c.row_fault { "yes" } else { "no" },
                if c.substation_tripped {
                    "**TRIP**"
                } else {
                    "ok"
                },
                c.row_trips,
                c.grants_lost,
                c.fallback_rounds,
                c.pinned_rounds,
                c.max_reserve_w,
                c.throughput_ratio,
            );
        }
        let _ = writeln!(md);

        // Budget-reallocation timeline of the most-faulted cell (the
        // last one in sweep order with any control-plane fault), or the
        // clean cell when the grid is all-clean.
        let focus = self
            .cells
            .iter()
            .rposition(|c| c.grants_lost > 0 || c.arbiter_down_rounds > 0 || c.row_fault)
            .unwrap_or(0);
        let rounds: Vec<&HierRoundLine> = self
            .cells
            .get(focus)
            .map(|c| c.rounds.iter().collect())
            .unwrap_or_default();
        if !rounds.is_empty() {
            let c = &self.cells[focus];
            let _ = writeln!(
                md,
                "### Reallocation timeline (cell: loss {:.0}%, outage {}m, row fault {})\n",
                c.grant_loss * 100.0,
                c.outage_mins,
                if c.row_fault { "yes" } else { "no" }
            );
            let _ = writeln!(
                md,
                "| round | at | arbiter | Σ applied W | reserve W | lost | fallback | pinned |"
            );
            let _ = writeln!(
                md,
                "|------:|---:|:-------:|------------:|----------:|:-----|:---------|:-------|"
            );
            let fmt_rows = |v: &[usize]| {
                if v.is_empty() {
                    "-".to_string()
                } else {
                    v.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
                }
            };
            for r in &rounds {
                let _ = writeln!(
                    md,
                    "| {} | {}m | {} | {:.0} | {:.0} | {} | {} | {} |",
                    r.round,
                    r.at_min,
                    if r.backstop {
                        "backstop"
                    } else if !r.arbiter_up {
                        "DOWN"
                    } else if r.held {
                        "held"
                    } else {
                        "up"
                    },
                    r.applied_w.iter().sum::<f64>(),
                    r.reserve_w,
                    fmt_rows(&r.lost_rows),
                    fmt_rows(&r.fallback_rows),
                    fmt_rows(&r.pinned_rows),
                );
            }
            let _ = writeln!(md);
            let _ = writeln!(
                md,
                "Degraded epochs (rounds): arbiter down {}; any row on fallback {}; \
                 any row pinned {}.\n",
                epochs(&rounds, |r| !r.arbiter_up && !r.backstop),
                epochs(&rounds, |r| !r.fallback_rows.is_empty()),
                epochs(&rounds, |r| !r.pinned_rows.is_empty()),
            );
        }

        let _ = writeln!(
            md,
            "Zero trips: **{}** — {} substation trip(s), {} row trip(s) across {} cells.",
            if self.zero_trips() { "PASS" } else { "FAIL" },
            self.cells.iter().filter(|c| c.substation_tripped).count(),
            self.cells.iter().map(|c| c.row_trips).sum::<u64>(),
            self.cells.len(),
        );
        match self.isolation_recomputed() {
            Some(ok) => {
                let _ = writeln!(
                    md,
                    "Sibling isolation: **{}** — healthy rows {} bit-identical between the \
                     clean and row-fault cells (recomputed from the dump's checksums{}).",
                    if ok && self.declared_isolation_ok {
                        "PASS"
                    } else {
                        "FAIL"
                    },
                    if ok { "are" } else { "are NOT" },
                    if ok == self.declared_isolation_ok {
                        ""
                    } else {
                        "; DISAGREES with the declared verdict"
                    },
                );
            }
            None => {
                let _ = writeln!(
                    md,
                    "Sibling isolation: **n/a** — the grid did not sweep the row-fault axis."
                );
            }
        }
        let _ = writeln!(
            md,
            "Trip attribution: **{}** — every substation trip (if any) was preceded by a \
             row-level violation or a control-plane fault.",
            if self.trips_explained() {
                "PASS"
            } else {
                "FAIL"
            },
        );
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump() -> String {
        include_str!("../tests/fixtures/hier.jsonl").to_string()
    }

    #[test]
    fn parses_and_gates_a_clean_dump() {
        let run = HierRun::decode(&dump()).unwrap();
        assert_eq!(run.cells.len(), 2);
        assert_eq!(run.cells.iter().map(|c| c.rounds.len()).sum::<usize>(), 2);
        assert_eq!(run.encode(), dump());
        assert!(run.zero_trips());
        assert_eq!(run.isolation_recomputed(), Some(true));
        assert!(run.gates().iter().all(|g| g.pass));
        let md = run.to_markdown();
        assert!(md.contains("## Hierarchical sweep"));
        assert!(md.contains("Zero trips: **PASS**"));
        assert!(md.contains("Sibling isolation: **PASS**"));
        assert!(md.contains("Reallocation timeline"));
    }

    #[test]
    fn detects_broken_isolation_and_trips() {
        let broken = dump().replace("\"00cc,00bb\"", "\"00cc,00dd\"");
        let run = HierRun::decode(&broken).unwrap();
        assert_eq!(run.isolation_recomputed(), Some(false));
        assert!(!run.gates()[1].pass);
        assert!(run.to_markdown().contains("Sibling isolation: **FAIL**"));

        let tripped = dump().replace(
            "{\"cell\":1,\"grant_loss\":0,\"outage_mins\":0,\"row_fault\":true,\"substation_tripped\":false",
            "{\"cell\":1,\"grant_loss\":0,\"outage_mins\":0,\"row_fault\":true,\"substation_tripped\":true",
        );
        let run = HierRun::decode(&tripped).unwrap();
        assert!(!run.zero_trips());
        assert!(!run.gates()[0].pass);
        assert!(run.to_markdown().contains("Zero trips: **FAIL**"));
    }

    #[test]
    fn rejects_malformed_dumps() {
        assert!(HierRun::decode("").is_err());
        assert!(HierRun::decode("{\"bench\":\"scale\"}").is_err());
        let short = dump().lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(HierRun::decode(&short).unwrap_err().contains("declares 2"));
        let dangling = format!(
            "{}{}",
            dump(),
            "{\"cell\":9,\"round\":0,\"at_min\":0,\"arbiter_up\":true,\"held\":false,\
             \"backstop\":false,\"reserve_w\":0.0,\"applied_w\":[1.0],\
             \"lost_rows\":[],\"fallback_rows\":[],\"pinned_rows\":[]}\n"
        );
        assert!(HierRun::decode(&dangling)
            .unwrap_err()
            .contains("unknown cell"));
    }
}
