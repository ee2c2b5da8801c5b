//! Micro-benchmarks of the parallel engine: worker-pool dispatch
//! overhead, sharded stepping at several worker counts, and
//! captured telemetry fan-out. These bound what `repro scale` can show
//! on a given box — if the pool itself is slow, no experiment fans out
//! well.

use ampere_bench::harness::Runner;
use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
use ampere_par::{run_captured, Task, WorkerPool};
use ampere_sim::SimDuration;

fn main() {
    let r = Runner::from_args("parallel");

    r.bench("pool_dispatch_64_trivial_tasks_4w", || {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<'_, usize>> = (0..64usize)
            .map(|i| {
                let t: Task<'_, usize> = Box::new(move || i * 2);
                t
            })
            .collect();
        pool.run(tasks)
    });

    r.bench("captured_fanout_16_tasks_4w", || {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<'_, u64>> = (0..16u64)
            .map(|i| {
                let t: Task<'_, u64> = Box::new(move || i.wrapping_mul(0x9E37_79B9));
                t
            })
            .collect();
        run_captured(&pool, tasks)
    });

    for workers in [1usize, 2, 4] {
        r.bench_with_setup(
            &format!("sharded_step_8rows_10min_{workers}w"),
            move || ShardedTestbed::new(ShardedTestbedConfig::quick(8, workers, 42)),
            |mut sharded| {
                sharded.run_for(SimDuration::from_mins(10));
                sharded.finish();
                sharded.checksum()
            },
        );
    }

    // The shape `repro sla --quick` steps: 9 shards (3 arms x 3 rows)
    // through 180 ticks on 2 workers in one `run` call, so what it costs
    // to coordinate the workers shows against the stepping itself.
    r.bench_with_setup(
        "sharded_step_9rows_180min_2w",
        || ShardedTestbed::new(ShardedTestbedConfig::quick(9, 2, 42)),
        |mut sharded| {
            sharded.run_for(SimDuration::from_mins(180));
            sharded.finish();
            sharded.checksum()
        },
    );
}
