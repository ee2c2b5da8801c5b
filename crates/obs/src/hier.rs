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

use crate::dump::{dump_line, expect_count, read, BenchDump, DumpLine, Gate, Line};

use std::fmt::Write as _;

dump_line! {
    /// One grid cell of the sweep.
    pub struct HierCellLine {
        /// Grant-RPC loss probability injected.
        grant_loss: f64,
        /// Arbiter-outage length injected, in minutes.
        outage_mins: u64,
        /// Whether row 0 was fault-injected.
        row_fault: bool,
        /// Whether the substation breaker tripped.
        substation_tripped: bool,
        /// Substation over-feed minutes.
        substation_violations: u64,
        /// Rows whose own breaker tripped.
        row_trips: u64,
        /// Row breaker violations in the measured window, summed over
        /// rows (row-ticks).
        row_violations: u64,
        /// Fleet ticks on which some row ran above its granted budget.
        row_over_grant_ticks: u64,
        /// Rounds the arbiter was down.
        arbiter_down_rounds: u64,
        /// Grant RPCs lost.
        grants_lost: u64,
        /// Row-rounds on a fallback budget.
        fallback_rounds: u64,
        /// Row-rounds on the static-share fallback.
        static_share_rounds: u64,
        /// Rounds hysteresis held the previous vector.
        held_rounds: u64,
        /// Row-rounds pinned to the floor by health.
        pinned_rounds: u64,
        /// Largest passive reserve reported, in watts.
        max_reserve_w: f64 => 3,
        /// Lowest monitoring coverage any row saw.
        min_coverage: f64 => 6,
        /// Row-ticks a row's controller ran degraded.
        degraded_ticks: u64,
        /// Row-ticks a row's capping backstop was armed.
        backstop_ticks: u64,
        /// Jobs placed.
        placed: u64,
        /// Jobs placed, normalized to the clean cell.
        throughput_ratio: f64 => 6,
        /// The producer's trip-attribution verdict: any substation trip was
        /// preceded by a row-level violation or a control-plane fault.
        trip_explained: bool,
    }
    extra {
        /// Minute of the substation trip, if it tripped (`-1` in the
        /// dump when it did not).
        substation_trip_min: Option<u64>,
        /// Per-row trajectory checksums (hex strings, comma-joined in the
        /// dump).
        row_checksums: Vec<String>,
        /// The cell's grant rounds: its budget-reallocation timeline.
        rounds: Vec<HierRoundLine>,
    }
}

dump_line! {
    /// One grant round of a cell's reallocation timeline.
    pub struct HierRoundLine {
        /// Round counter within the cell.
        round: u64,
        /// Barrier minute.
        at_min: u64,
        /// Whether the arbiter was up.
        arbiter_up: bool,
        /// Whether hysteresis held the previous vector.
        held: bool,
        /// Whether the substation backstop (post-trip) forced floors.
        backstop: bool,
        /// Passive reserve reported by the arbiter (0 when down), in
        /// watts.
        reserve_w: f64 => 3,
        /// Budgets each row actuated (post-fallback), in watts.
        applied_w: Vec<f64> => 3,
        /// Rows whose grant RPC was lost this round.
        lost_rows: Vec<usize>,
        /// Rows on a fallback budget after this round.
        fallback_rows: Vec<usize>,
        /// Rows pinned to their floor by health this round.
        pinned_rows: Vec<usize>,
    }
}

dump_line! {
    /// The `repro hier` sweep (`BENCH_hier.json`).
    pub struct HierRun {
        /// Workers each cell stepped its rows with.
        workers: u64,
        /// Master seed.
        seed: u64,
        /// Measured hours per cell.
        hours: u64,
        /// Rows under arbitration.
        rows: u64,
        /// Grant cadence, in minutes.
        grant_period_mins: u64,
        /// Substation feed capacity, in watts.
        feed_w: f64 => 3,
        /// Budget the arbiter allocates, in watts.
        allocatable_w: f64 => 3,
        /// Σ rated row power / feed.
        oversubscription: f64 => 6,
        /// Per-row budget floors, in watts.
        floors_w: Vec<f64> => 3,
        /// Per-row budget ceilings, in watts.
        ceilings_w: Vec<f64> => 3,
        /// Jobs the clean cell placed (the throughput-ratio denominator).
        baseline_placed: u64,
        /// Wall time of the whole sweep (ms).
        wall_ms: f64 => 3,
        /// The producer's zero-trips verdict, as written in the header.
        zero_trips: bool,
        /// Declared isolation verdict (`false` without the row-fault axis).
        isolation_ok: bool,
        /// Whether the producer's grid swept the row-fault axis.
        has_isolation_axis: bool,
        /// Declared trip-attribution verdict.
        trips_explained: bool,
    }
    extra {
        /// All grid cells, in sweep order.
        cells: Vec<HierCellLine>,
    }
}

impl HierRun {
    /// Sets the header's declared verdicts to the recomputed ones: what
    /// the producer of a freshly measured sweep declares.
    pub fn with_declared_verdicts(mut self) -> Self {
        let isolation = self.isolation_recomputed();
        self.zero_trips = self.zero_trips_recomputed();
        self.isolation_ok = isolation.unwrap_or(false);
        self.has_isolation_axis = isolation.is_some();
        self.trips_explained = self.trips_explained_recomputed();
        self
    }

    /// The cell at a grid coordinate, if swept.
    pub fn cell(
        &self,
        grant_loss: f64,
        outage_mins: u64,
        row_fault: bool,
    ) -> Option<&HierCellLine> {
        self.cells.iter().find(|c| {
            c.grant_loss == grant_loss && c.outage_mins == outage_mins && c.row_fault == row_fault
        })
    }

    /// Whether every cell kept both breaker levels trip-free.
    pub fn zero_trips_recomputed(&self) -> bool {
        self.cells
            .iter()
            .all(|c| !c.substation_tripped && c.row_trips == 0)
    }

    /// The sibling-isolation verdict, recomputed from the per-row
    /// checksums: healthy rows (1..N) must be bit-identical between the
    /// clean cell and the cell where only row 0 is faulted (both with a
    /// clean control plane). `None` when the grid lacks either cell;
    /// `Some(false)` when the two cells report different row counts or
    /// no rows at all, since no rows is no evidence.
    pub fn isolation_recomputed(&self) -> Option<bool> {
        let clean = &self.cell(0.0, 0, false)?.row_checksums;
        let faulted = &self.cell(0.0, 0, true)?.row_checksums;
        Some(!clean.is_empty() && clean.len() == faulted.len() && clean[1..] == faulted[1..])
    }

    /// Whether every cell's trip-attribution verdict held.
    pub fn trips_explained_recomputed(&self) -> bool {
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
        let mut run = HierRun::read(&h)?;
        for f in &body {
            // Each cell line carries the next index; its round lines
            // follow it and repeat that index.
            let cell: u64 = f.get("cell")?;
            let due = run.cells.len() as u64;
            if f.has("round") {
                run.cells
                    .last_mut()
                    .filter(|_| due.checked_sub(1) == Some(cell))
                    .ok_or_else(|| {
                        f.err(format!("round line for cell {cell} is not in its block"))
                    })?
                    .rounds
                    .push(HierRoundLine::read(f)?);
                continue;
            }
            if cell != due {
                return Err(f.err(format!("cell line {cell} where cell {due} was due")));
            }
            let mut line = HierCellLine::read(f)?;
            line.substation_trip_min = match f.get::<i64>("substation_trip_min")? {
                -1 => None,
                m => Some(u64::try_from(m).map_err(|_| {
                    f.err(format!(
                        "substation_trip_min {m} is neither a minute nor -1"
                    ))
                })?),
            };
            // No rows is an empty string, not one empty checksum.
            let checksums: String = f.get("row_checksums")?;
            if !checksums.is_empty() {
                line.row_checksums = checksums.split(',').map(str::to_string).collect();
            }
            run.cells.push(line);
        }
        expect_count(h.get("cells")?, run.cells.len(), "cells")?;
        Ok(run)
    }

    /// One header line carrying the partition and the declared
    /// verdicts, then each grid cell followed by its grant rounds.
    fn encode(&self) -> String {
        let mut out = String::new();
        let mut header = Line::header("hier", self);
        header.insert_after("rows", "cells", &(self.cells.len() as u64));
        header.write_to(&mut out);
        for (i, c) in self.cells.iter().enumerate() {
            let mut line = Line::default();
            line.push("cell", &(i as u64));
            c.write(&mut line);
            let trip_min = c.substation_trip_min.map_or(-1, |m| m as i64);
            line.insert_after("substation_tripped", "substation_trip_min", &trip_min);
            line.push("row_checksums", &c.row_checksums.join(","));
            line.write_to(&mut out);
            for r in &c.rounds {
                let mut line = Line::default();
                line.push("cell", &(i as u64));
                r.write(&mut line);
                line.write_to(&mut out);
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
                ok && self.isolation_ok,
                format!(
                    "a healthy sibling's trajectory changed under a row fault (recomputed \
                     {ok}, declared {})",
                    self.isolation_ok
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
                self.zero_trips_recomputed() && self.zero_trips,
                format!(
                    "a breaker tripped at the substation or row level (declared zero trips: {})",
                    self.zero_trips
                ),
            ),
            isolation,
            Gate::new(
                "trip-attribution",
                self.trips_explained_recomputed(),
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
            if self.zero_trips_recomputed() {
                "PASS"
            } else {
                "FAIL"
            },
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
                    if ok && self.isolation_ok {
                        "PASS"
                    } else {
                        "FAIL"
                    },
                    if ok { "are" } else { "are NOT" },
                    if ok == self.isolation_ok {
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
            if self.trips_explained_recomputed() {
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
        assert!(run.zero_trips_recomputed());
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
        assert!(!run.zero_trips_recomputed());
        assert!(!run.gates()[0].pass);
        assert!(run.to_markdown().contains("Zero trips: **FAIL**"));
    }

    #[test]
    fn no_row_checksums_is_no_isolation_evidence() {
        let empty = dump()
            .replace("\"row_checksums\":\"00aa,00bb\"", "\"row_checksums\":\"\"")
            .replace("\"row_checksums\":\"00cc,00bb\"", "\"row_checksums\":\"\"");
        let run = HierRun::decode(&empty).unwrap();
        assert!(run.cells.iter().all(|c| c.row_checksums.is_empty()));
        assert_eq!(run.isolation_recomputed(), Some(false));
        assert!(!run.gates()[1].pass);
        assert_eq!(run.encode(), empty);
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
            .contains("round line for cell 9 is not in its block"));
    }
}
