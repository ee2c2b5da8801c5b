//! The `repro scale` record: the report section behind `report --scale`.
//!
//! `repro scale` emits `BENCH_scale.json` — a JSONL header line plus
//! one line per (rows × workers) grid point, each carrying wall-clock
//! throughput, speedup vs the single-worker run and the deterministic
//! trajectory checksum of the sharded testbed. [`ScaleSweep`] is that
//! dump as a record ([`BenchDump`]); its Markdown section carries two
//! verdicts:
//!
//! - **throughput/speedup** — simulated domain-minutes per wall-second
//!   and the speedup ladder per row count (the engine's scaling curve);
//! - **thread invariance** — every worker count at a given row count
//!   must reproduce the same checksum. A mismatch means the parallel
//!   engine broke its determinism contract, and the report gate fails.
//!
//! Every point also carries per-server throughput
//! (`server_ticks_per_sec`), and the header records the soft floor
//! `repro` read from `AMPERE_SCALE_TICKS_PER_SERVER_FLOOR`; when the
//! floor is non-zero, any point below it fails the gate too.

use crate::dump::{dump_line, expect_count, read, BenchDump, DumpLine, Gate, Line};

use std::fmt::Write as _;

dump_line! {
    /// One grid point of the sweep.
    pub struct ScalePoint {
        /// Shard (row) count.
        rows: u64,
        /// Worker threads.
        workers: u64,
        /// Wall-clock milliseconds for the run.
        wall_ms: f64 => 3,
        /// Simulated domain-minutes (`rows · sim_minutes`).
        sim_mins: u64,
        /// Throughput: simulated domain-minutes per wall-second.
        sim_mins_per_sec: f64 => 3,
        /// Total servers simulated (`rows · servers_per_row`).
        servers: u64,
        /// Per-server throughput: simulated server-ticks per wall-second,
        /// comparable across row sizes.
        server_ticks_per_sec: f64 => 3,
        /// Speedup vs the 1-worker run at the same row count.
        speedup: f64 => 3,
        /// Trajectory checksum, as the emitted hex string.
        checksum: String,
    }
}

dump_line! {
    /// The `repro scale` sweep (`BENCH_scale.json`).
    pub struct ScaleSweep {
        /// Simulated minutes per grid point.
        sim_minutes: u64,
        /// Master seed of the sweep.
        seed: u64,
        /// Servers per row shard (8 tiny-row, 440 hyperscale).
        servers_per_row: u64,
        /// Per-server throughput soft floor recorded by the sweep; `0`
        /// means the gate was disabled.
        ticks_per_server_floor: f64 => 3,
    }
    extra {
        /// All grid points, row-major (rows outer, workers inner).
        points: Vec<ScalePoint>,
    }
}

impl ScaleSweep {
    /// Row counts in sweep order, deduplicated.
    fn row_counts(&self) -> Vec<u64> {
        let mut rows: Vec<u64> = self.points.iter().map(|p| p.rows).collect();
        rows.dedup();
        rows
    }

    /// Row counts whose checksums differ across worker counts — empty
    /// when the determinism contract held.
    pub fn invariance_violations(&self) -> Vec<u64> {
        self.row_counts()
            .into_iter()
            .filter(|&rows| {
                let mut sums = self
                    .points
                    .iter()
                    .filter(|p| p.rows == rows)
                    .map(|p| &p.checksum);
                match sums.next() {
                    Some(first) => sums.any(|c| c != first),
                    None => false,
                }
            })
            .collect()
    }

    /// Grid points whose per-server throughput fell below the recorded
    /// soft floor, as `(rows, workers, server_ticks_per_sec)` — empty
    /// when the floor is disabled or every point cleared it.
    pub fn floor_violations(&self) -> Vec<(u64, u64, f64)> {
        if self.ticks_per_server_floor <= 0.0 {
            return Vec::new();
        }
        self.points
            .iter()
            .filter(|p| p.server_ticks_per_sec < self.ticks_per_server_floor)
            .map(|p| (p.rows, p.workers, p.server_ticks_per_sec))
            .collect()
    }

    /// Best speedup observed anywhere in the sweep (the headline
    /// scaling number). On a box with fewer cores than workers the
    /// peak can sit at a small row count — or at 1.0x outright — so
    /// the row/worker coordinates are part of the answer.
    pub fn peak_speedup(&self) -> Option<(u64, u64, f64)> {
        self.points
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .map(|p| (p.rows, p.workers, p.speedup))
    }
}

impl BenchDump for ScaleSweep {
    fn decode(text: &str) -> Result<Self, String> {
        let (header, body) = read(text, "scale")?;
        let mut sweep = ScaleSweep::read(&header)?;
        sweep.points = body
            .iter()
            .map(ScalePoint::read)
            .collect::<Result<_, _>>()?;
        expect_count(header.get("points")?, sweep.points.len(), "points")?;
        Ok(sweep)
    }

    /// A header line, then one line per point. Checksums are hex
    /// strings (u64 does not survive a float roundtrip).
    fn encode(&self) -> String {
        let mut out = String::new();
        let mut header = Line::header("scale", self);
        header.insert_after("seed", "points", &(self.points.len() as u64));
        header.write_to(&mut out);
        for p in &self.points {
            Line::of(p).write_to(&mut out);
        }
        out
    }

    /// Thread invariance always; the per-server throughput floor when
    /// the sweep recorded one.
    fn gates(&self) -> Vec<Gate> {
        let broken = self.invariance_violations();
        let mut gates = vec![Gate::new(
            "thread-invariance",
            broken.is_empty(),
            format!("checksums differ across worker counts at row count(s) {broken:?}"),
        )];
        if self.ticks_per_server_floor > 0.0 {
            let slow = self.floor_violations();
            gates.push(Gate::new(
                "throughput-floor",
                slow.is_empty(),
                format!(
                    "{} point(s) below {:.0} server-ticks/sec: {slow:?}",
                    slow.len(),
                    self.ticks_per_server_floor
                ),
            ));
        }
        gates
    }

    fn to_markdown(&self) -> String {
        let mut md = String::new();
        let _ = writeln!(md, "## Scale sweep\n");
        let _ = writeln!(
            md,
            "{} simulated minutes per point, {} servers per row, seed {}.\n",
            self.sim_minutes, self.servers_per_row, self.seed
        );
        let _ = writeln!(
            md,
            "| rows | servers | workers | wall ms | sim-mins/sec | srv-ticks/sec | speedup | checksum |"
        );
        let _ = writeln!(
            md,
            "|-----:|--------:|--------:|--------:|-------------:|--------------:|--------:|:---------|"
        );
        for p in &self.points {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {:.1} | {:.1} | {:.0} | {:.2}x | `{}` |",
                p.rows,
                p.servers,
                p.workers,
                p.wall_ms,
                p.sim_mins_per_sec,
                p.server_ticks_per_sec,
                p.speedup,
                p.checksum
            );
        }
        let _ = writeln!(md);
        if let Some((rows, workers, speedup)) = self.peak_speedup() {
            let _ = writeln!(
                md,
                "Peak speedup: **{speedup:.2}x** at {rows} rows / {workers} workers."
            );
        }
        let broken = self.invariance_violations();
        if broken.is_empty() {
            let _ = writeln!(
                md,
                "Thread invariance: **OK** — every worker count reproduced the same \
                 trajectory checksum at every row count."
            );
        } else {
            let _ = writeln!(
                md,
                "Thread invariance: **BROKEN** — checksums differ across worker counts \
                 at row count(s) {broken:?}. The parallel engine violated its determinism \
                 contract (DESIGN.md §9)."
            );
        }
        if self.ticks_per_server_floor > 0.0 {
            let slow = self.floor_violations();
            if slow.is_empty() {
                let _ = writeln!(
                    md,
                    "Per-server throughput: **OK** — every point cleared the \
                     {:.0} server-ticks/sec floor.",
                    self.ticks_per_server_floor
                );
            } else {
                let _ = writeln!(
                    md,
                    "Per-server throughput: **BELOW FLOOR** — {} point(s) under \
                     {:.0} server-ticks/sec: {slow:?}.",
                    slow.len(),
                    self.ticks_per_server_floor
                );
            }
        }
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUMP: &str = "\
{\"bench\":\"scale\",\"sim_minutes\":5,\"seed\":42,\"points\":3,\"servers_per_row\":440,\"ticks_per_server_floor\":100000.000}
{\"rows\":1,\"workers\":1,\"wall_ms\":10.000,\"sim_mins\":5,\"sim_mins_per_sec\":500.000,\"servers\":440,\"server_ticks_per_sec\":220000.000,\"speedup\":1.000,\"checksum\":\"00000000deadbeef\"}
{\"rows\":64,\"workers\":1,\"wall_ms\":20.000,\"sim_mins\":320,\"sim_mins_per_sec\":16000.000,\"servers\":28160,\"server_ticks_per_sec\":7040000.000,\"speedup\":1.000,\"checksum\":\"00000000cafef00d\"}
{\"rows\":64,\"workers\":4,\"wall_ms\":16.000,\"sim_mins\":320,\"sim_mins_per_sec\":20000.000,\"servers\":28160,\"server_ticks_per_sec\":8800000.000,\"speedup\":1.250,\"checksum\":\"00000000cafef00d\"}
";

    #[test]
    fn parses_and_reports_invariant_sweep() {
        let sweep = ScaleSweep::decode(DUMP).unwrap();
        assert_eq!(sweep.points.len(), 3);
        assert_eq!(sweep.sim_minutes, 5);
        assert!(sweep.invariance_violations().is_empty());
        assert!(sweep.gates().iter().all(|g| g.pass));
        assert_eq!(sweep.peak_speedup(), Some((64, 4, 1.25)));
        assert_eq!(sweep.encode(), DUMP);
        let md = sweep.to_markdown();
        assert!(md.contains("## Scale sweep"));
        assert!(md.contains("Thread invariance: **OK**"));
        assert!(md.contains("**1.25x**"));
    }

    #[test]
    fn parses_hyperscale_fields_and_floor() {
        let sweep = ScaleSweep::decode(DUMP).unwrap();
        assert_eq!(sweep.servers_per_row, 440);
        assert_eq!(sweep.ticks_per_server_floor, 100_000.0);
        assert_eq!(sweep.points[1].servers, 28_160);
        assert_eq!(sweep.points[1].server_ticks_per_sec, 7_040_000.0);
        assert!(sweep.floor_violations().is_empty());
        let md = sweep.to_markdown();
        assert!(md.contains("srv-ticks/sec"));
        assert!(md.contains("440 servers per row"));
        assert!(md.contains("Per-server throughput: **OK**"));
    }

    #[test]
    fn detects_checksum_divergence() {
        let broken = DUMP.replace(
            "cafef00d\"}\n{\"rows\":64,\"workers\":4",
            "deadf00d\"}\n{\"rows\":64,\"workers\":4",
        );
        let sweep = ScaleSweep::decode(&broken).unwrap();
        assert_eq!(sweep.invariance_violations(), vec![64]);
        assert!(!sweep.gates()[0].pass);
        assert!(sweep.to_markdown().contains("**BROKEN**"));
    }

    #[test]
    fn floor_gate_catches_slow_points() {
        let mut sweep = ScaleSweep::decode(DUMP).unwrap();
        sweep.ticks_per_server_floor = 8_000_000.0;
        assert_eq!(
            sweep.floor_violations(),
            vec![(1, 1, 220_000.0), (64, 1, 7_040_000.0)]
        );
        assert!(!sweep.gates()[1].pass);
        assert!(sweep.to_markdown().contains("**BELOW FLOOR**"));
        // A disabled floor has no gate and never violates.
        sweep.ticks_per_server_floor = 0.0;
        assert!(sweep.floor_violations().is_empty());
        assert_eq!(sweep.gates().len(), 1);
        assert!(!sweep.to_markdown().contains("Per-server throughput"));
    }

    #[test]
    fn rejects_malformed_dumps() {
        assert!(ScaleSweep::decode("").is_err());
        assert!(ScaleSweep::decode("{\"bench\":\"other\"}").is_err());
        let short = DUMP.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(ScaleSweep::decode(&short)
            .unwrap_err()
            .contains("declares 3"));
        let untyped = DUMP.replace("\"servers\":440,", "\"servers\":\"many\",");
        assert!(ScaleSweep::decode(&untyped)
            .unwrap_err()
            .contains("\"servers\""));
    }
}
