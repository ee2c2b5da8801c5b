//! The `repro scale` sweep: rows × workers scaling of the parallel
//! engine.
//!
//! Each grid point builds a [`ShardedTestbed`] with `rows` single-row
//! shards and advances it `sim_minutes` ticks on `workers` threads,
//! measuring wall-clock time and the deterministic trajectory checksum.
//! Throughput is reported as simulated domain-minutes per wall-second
//! (`rows · sim_minutes / wall`), speedup relative to the 1-worker run
//! of the same row count.
//!
//! The checksum column is the point of the exercise: every worker count
//! at a given row count must produce the same checksum, or the engine
//! broke its determinism contract. `ampere-obs report --scale` checks
//! exactly that from the emitted `BENCH_scale.json`.

use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
use ampere_sim::SimDuration;

use std::fmt::Write as _;
use std::time::Instant;

/// Environment variable carrying the per-server throughput soft floor
/// (server-ticks per wall-second). `0` (the default) disables the gate;
/// CI sets it to catch hot-path regressions without making laptops and
/// loaded runners fail spuriously.
pub const TICKS_PER_SERVER_FLOOR_ENV: &str = "AMPERE_SCALE_TICKS_PER_SERVER_FLOOR";

/// Grid of the scaling sweep.
pub struct ScaleConfig {
    /// Row (shard) counts to sweep.
    pub rows: Vec<usize>,
    /// Worker counts to sweep (worker counts above a row count are
    /// skipped for that row count — they cannot help).
    pub workers: Vec<usize>,
    /// Simulated minutes per point.
    pub sim_minutes: u64,
    /// Master seed.
    pub seed: u64,
    /// Full 440-server paper rows per shard instead of the tiny
    /// 8-server rows (the hyperscale sweep; 2273 shards ≈ a
    /// 1,000,120-server fleet).
    pub hyper: bool,
}

/// Doubling ladder 1, 2, 4, … capped at (and always including) `max`.
fn worker_ladder(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut ladder = Vec::new();
    let mut w = 1;
    while w < max {
        ladder.push(w);
        w *= 2;
    }
    ladder.push(max);
    ladder
}

impl ScaleConfig {
    /// The paper-scale sweep: 1→64 rows, 1→`max_workers` threads.
    pub fn paper(max_workers: usize) -> Self {
        ScaleConfig {
            rows: vec![1, 4, 16, 64],
            workers: worker_ladder(max_workers),
            sim_minutes: 60,
            seed: 42,
            hyper: false,
        }
    }

    /// Quick mode for CI: fewer rows, shorter runs.
    pub fn quick(max_workers: usize) -> Self {
        ScaleConfig {
            rows: vec![1, 4, 16],
            workers: worker_ladder(max_workers.min(4)),
            sim_minutes: 12,
            seed: 42,
            hyper: false,
        }
    }

    /// The hyperscale sweep: full 440-server paper rows, topping out at
    /// 2273 shards = 1,000,120 servers.
    pub fn hyper(max_workers: usize) -> Self {
        ScaleConfig {
            rows: vec![16, 256, 2273],
            workers: worker_ladder(max_workers.min(4)),
            sim_minutes: 5,
            seed: 42,
            hyper: true,
        }
    }

    /// Hyperscale-representative smoke for CI: one 64-row point
    /// (28,160 servers), short run, workers 1 vs max.
    pub fn hyper_quick(max_workers: usize) -> Self {
        ScaleConfig {
            rows: vec![64],
            workers: worker_ladder(max_workers.min(4)),
            sim_minutes: 5,
            seed: 42,
            hyper: true,
        }
    }
}

/// One measured grid point.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Shard (row) count.
    pub rows: usize,
    /// Worker threads.
    pub workers: usize,
    /// Wall-clock time for the run, milliseconds.
    pub wall_ms: f64,
    /// Simulated domain-minutes (`rows · sim_minutes`).
    pub sim_mins: u64,
    /// Throughput: simulated domain-minutes per wall-second.
    pub sim_mins_per_sec: f64,
    /// Total servers simulated (`rows · servers-per-row`).
    pub servers: usize,
    /// Throughput normalized by fleet size: simulated server-ticks per
    /// wall-second (`sim_mins · servers-per-row / wall`). The scale
    /// engine's figure of merit — comparable across row sizes.
    pub server_ticks_per_sec: f64,
    /// Wall-clock speedup vs the 1-worker run at the same row count.
    pub speedup: f64,
    /// Deterministic trajectory checksum ([`ShardedTestbed::checksum`]).
    pub checksum: u64,
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// All measured points, row-major (rows outer, workers inner).
    pub points: Vec<ScalePoint>,
    /// Simulated minutes per point.
    pub sim_minutes: u64,
    /// Master seed.
    pub seed: u64,
    /// Servers per row shard (8 tiny-row, 440 hyperscale).
    pub servers_per_row: usize,
    /// Per-server throughput soft floor (server-ticks per wall-second)
    /// from [`TICKS_PER_SERVER_FLOOR_ENV`]; `0` disables the gate.
    pub ticks_per_server_floor: f64,
}

/// The configured soft floor, `0.0` when unset or unparseable.
pub fn ticks_per_server_floor() -> f64 {
    std::env::var(TICKS_PER_SERVER_FLOOR_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Runs the sweep. Wall-clock numbers vary run to run (this is a
/// benchmark); the checksums must not.
pub fn run(config: &ScaleConfig) -> ScaleResult {
    let shard_config = |rows, workers| {
        if config.hyper {
            ShardedTestbedConfig::hyper(rows, workers, config.seed)
        } else {
            ShardedTestbedConfig::quick(rows, workers, config.seed)
        }
    };
    let servers_per_row = shard_config(1, 1).spec.server_count();
    let mut points = Vec::new();
    for &rows in &config.rows {
        let mut serial_ms = None;
        for &workers in &config.workers {
            if workers > 1 && workers > rows {
                continue;
            }
            let start = Instant::now();
            let mut sharded = ShardedTestbed::new(shard_config(rows, workers));
            sharded.run_for(SimDuration::from_mins(config.sim_minutes));
            sharded.finish();
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if workers == 1 {
                serial_ms = Some(wall_ms);
            }
            let sim_mins = rows as u64 * config.sim_minutes;
            let server_ticks = (sim_mins * servers_per_row as u64) as f64;
            points.push(ScalePoint {
                rows,
                workers,
                wall_ms,
                sim_mins,
                sim_mins_per_sec: sim_mins as f64 / (wall_ms / 1e3),
                servers: rows * servers_per_row,
                server_ticks_per_sec: server_ticks / (wall_ms / 1e3),
                speedup: serial_ms.map_or(1.0, |s| s / wall_ms),
                checksum: sharded.checksum(),
            });
        }
    }
    ScaleResult {
        points,
        sim_minutes: config.sim_minutes,
        seed: config.seed,
        servers_per_row,
        ticks_per_server_floor: ticks_per_server_floor(),
    }
}

impl ScaleResult {
    /// Serializes the sweep as JSONL: a header line, then one line per
    /// point. Checksums are hex strings (u64 does not survive a float
    /// roundtrip).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"bench\":\"scale\",\"sim_minutes\":{},\"seed\":{},\"points\":{},\
             \"servers_per_row\":{},\"ticks_per_server_floor\":{:.3}}}",
            self.sim_minutes,
            self.seed,
            self.points.len(),
            self.servers_per_row,
            self.ticks_per_server_floor
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{{\"rows\":{},\"workers\":{},\"wall_ms\":{:.3},\"sim_mins\":{},\
                 \"sim_mins_per_sec\":{:.3},\"servers\":{},\"server_ticks_per_sec\":{:.3},\
                 \"speedup\":{:.3},\"checksum\":\"{:016x}\"}}",
                p.rows,
                p.workers,
                p.wall_ms,
                p.sim_mins,
                p.sim_mins_per_sec,
                p.servers,
                p.server_ticks_per_sec,
                p.speedup,
                p.checksum
            );
        }
        out
    }

    /// Whether every point clears the per-server throughput floor (true
    /// when the floor is disabled).
    pub fn clears_floor(&self) -> bool {
        self.ticks_per_server_floor <= 0.0
            || self
                .points
                .iter()
                .all(|p| p.server_ticks_per_sec >= self.ticks_per_server_floor)
    }

    /// Whether every worker count produced the same checksum at every
    /// row count (the determinism gate).
    pub fn thread_invariant(&self) -> bool {
        self.rows_counts().iter().all(|&rows| {
            let mut sums = self
                .points
                .iter()
                .filter(|p| p.rows == rows)
                .map(|p| p.checksum);
            match sums.next() {
                Some(first) => sums.all(|c| c == first),
                None => true,
            }
        })
    }

    fn rows_counts(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.points.iter().map(|p| p.rows).collect();
        rows.dedup();
        rows
    }

    /// Renders the sweep as a fixed-width table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>11} {:>16} {:>16} {:>8}  checksum",
            "rows", "servers", "workers", "wall ms", "sim-mins/sec", "srv-ticks/sec", "speedup"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>8} {:>11.1} {:>16.1} {:>16.0} {:>7.2}x  {:016x}",
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
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_telemetry::Capture;

    #[test]
    fn worker_ladder_doubles_to_max() {
        assert_eq!(worker_ladder(1), vec![1]);
        assert_eq!(worker_ladder(4), vec![1, 2, 4]);
        assert_eq!(worker_ladder(6), vec![1, 2, 4, 6]);
        assert_eq!(worker_ladder(0), vec![1]);
    }

    #[test]
    fn tiny_sweep_is_thread_invariant() {
        let result = Capture::standalone().with(|| {
            run(&ScaleConfig {
                rows: vec![1, 3],
                workers: vec![1, 2],
                sim_minutes: 5,
                seed: 7,
                hyper: false,
            })
        });
        // rows=1 skips workers=2: 1 + 2 points.
        assert_eq!(result.points.len(), 3);
        assert!(result.thread_invariant());
        assert!(result.points.iter().all(|p| p.wall_ms > 0.0));
        assert!(result.points.iter().all(|p| p.sim_mins_per_sec > 0.0));
        assert_eq!(result.servers_per_row, 8);
        assert!(result
            .points
            .iter()
            .all(|p| p.servers == p.rows * 8 && p.server_ticks_per_sec > 0.0));
        // No floor set in tests: the gate is open.
        assert!(result.clears_floor());
        let jsonl = result.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"bench\":\"scale\""));
        assert!(jsonl.contains("\"servers_per_row\":8"));
        assert!(jsonl.contains("\"server_ticks_per_sec\""));
        assert!(result.render_table().contains("srv-ticks/sec"));
    }

    #[test]
    fn floor_gate_flags_slow_points() {
        let mut result = Capture::standalone().with(|| {
            run(&ScaleConfig {
                rows: vec![1],
                workers: vec![1],
                sim_minutes: 2,
                seed: 7,
                hyper: false,
            })
        });
        result.ticks_per_server_floor = f64::MAX;
        assert!(!result.clears_floor());
        result.ticks_per_server_floor = 0.0;
        assert!(result.clears_floor());
    }
}
