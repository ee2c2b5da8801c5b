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
//! broke its determinism contract. The result is an
//! [`ampere_obs::ScaleSweep`], whose gates `repro scale` and
//! `report --scale` both exit on.

use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
use ampere_obs::dump::hex;
use ampere_obs::{ScalePoint, ScaleSweep};
use ampere_sim::SimDuration;

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

/// The configured soft floor, `0.0` when unset or unparseable.
pub fn ticks_per_server_floor() -> f64 {
    std::env::var(TICKS_PER_SERVER_FLOOR_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Runs the sweep. Wall-clock numbers vary run to run (this is a
/// benchmark); the checksums must not.
pub fn run(config: &ScaleConfig) -> ScaleSweep {
    let shard_config = |rows, workers| {
        if config.hyper {
            ShardedTestbedConfig::hyper(rows, workers, config.seed)
        } else {
            ShardedTestbedConfig::quick(rows, workers, config.seed)
        }
    };
    let servers_per_row = shard_config(1, 1).spec.server_count() as u64;
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
            let server_ticks = (sim_mins * servers_per_row) as f64;
            points.push(ScalePoint {
                rows: rows as u64,
                workers: workers as u64,
                wall_ms,
                sim_mins,
                sim_mins_per_sec: sim_mins as f64 / (wall_ms / 1e3),
                servers: rows as u64 * servers_per_row,
                server_ticks_per_sec: server_ticks / (wall_ms / 1e3),
                speedup: serial_ms.map_or(1.0, |s| s / wall_ms),
                checksum: hex(sharded.checksum()),
            });
        }
    }
    ScaleSweep {
        sim_minutes: config.sim_minutes,
        seed: config.seed,
        servers_per_row,
        ticks_per_server_floor: ticks_per_server_floor(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_obs::BenchDump;
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
        let sweep = Capture::standalone().with(|| {
            run(&ScaleConfig {
                rows: vec![1, 3],
                workers: vec![1, 2],
                sim_minutes: 5,
                seed: 7,
                hyper: false,
            })
        });
        // rows=1 skips workers=2: 1 + 2 points.
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.invariance_violations().is_empty());
        assert!(sweep.points.iter().all(|p| p.wall_ms > 0.0));
        assert!(sweep.points.iter().all(|p| p.sim_mins_per_sec > 0.0));
        assert_eq!(sweep.servers_per_row, 8);
        assert!(sweep
            .points
            .iter()
            .all(|p| p.servers == p.rows * 8 && p.server_ticks_per_sec > 0.0));
        // No floor set in tests: only the invariance gate, and it holds.
        let gates = sweep.gates();
        assert_eq!(gates.len(), 1);
        assert!(gates[0].pass);
        let jsonl = sweep.encode();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"bench\":\"scale\""));
        assert!(jsonl.contains("\"servers_per_row\":8"));
        let decoded = ScaleSweep::decode(&jsonl).unwrap();
        assert_eq!(decoded.gates(), gates);
        assert_eq!(decoded.encode(), jsonl);
        assert!(sweep.to_markdown().contains("srv-ticks/sec"));
    }

    #[test]
    fn floor_gate_flags_slow_points() {
        let mut sweep = Capture::standalone().with(|| {
            run(&ScaleConfig {
                rows: vec![1],
                workers: vec![1],
                sim_minutes: 2,
                seed: 7,
                hyper: false,
            })
        });
        sweep.ticks_per_server_floor = f64::MAX;
        assert!(!sweep.gates()[1].pass);
        sweep.ticks_per_server_floor = 0.0;
        assert!(sweep.gates().iter().all(|g| g.pass));
    }
}
