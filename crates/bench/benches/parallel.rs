//! Micro-benchmarks of the parallel engine: worker-pool dispatch
//! overhead, sharded stepping at several worker counts, and
//! captured telemetry fan-out. These bound what `repro scale` can show
//! on a given box — if the pool itself is slow, no experiment fans out
//! well.

use ampere_bench::harness::Runner;
use ampere_experiments::sla::{self, SlaConfig};
use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
use ampere_par::{fan_out, Task, WorkerPool};
use ampere_sim::SimDuration;
use ampere_telemetry::Telemetry;

fn main() {
    let r = Runner::from_args("parallel");

    r.bench("pool_dispatch_64_trivial_tasks_4w", || {
        let tasks = (0..64usize)
            .map(|i| Box::new(move || i * 2) as Task<'_, usize>)
            .collect();
        let mut sum = 0;
        WorkerPool::new(4).run_each(tasks, |_, v| sum += v);
        sum
    });

    // A disabled parent keeps this bench comparable with its history:
    // it times the fan-out's dispatch, with no capture to build or
    // replay.
    r.bench("captured_fanout_16_tasks_4w", || {
        fan_out(&Telemetry::disabled(), 4, (0..16u64).collect(), |_, i| {
            i.wrapping_mul(0x9E37_79B9)
        })
    });

    // The same fan-out under an enabled parent: each task also builds
    // its capture pipeline and replays it, so the gap to the bench
    // above is what a capture costs per fan-out.
    let parent = Telemetry::builder().build();
    r.bench("captured_fanout_16_tasks_4w_enabled", || {
        fan_out(&parent, 4, (0..16u64).collect(), |_, i| {
            i.wrapping_mul(0x9E37_79B9)
        })
    });

    for workers in [1usize, 2, 4] {
        r.bench_with_setup(
            &format!("sharded_step_8rows_10min_{workers}w"),
            move || ShardedTestbed::new(ShardedTestbedConfig::quick(8, workers, 42)),
            |sharded| {
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
        |sharded| {
            sharded.run_for(SimDuration::from_mins(180));
            sharded.finish();
            sharded.checksum()
        },
    );

    // One whole `repro sla --quick` call on 2 workers: the shape above
    // plus each arm's statistics and p99.9 model, which run on the
    // calling thread while the later arms still step.
    r.bench("sla_quick_2w", || sla::run(&SlaConfig::quick(2)));
}
