//! The `repro profile` benchmark: what does observing the simulator
//! cost, and where does a tick's wall time go?
//!
//! The same seeded [`ShardedTestbed`] workload runs in one process as
//! five alternating pass pairs:
//!
//! 1. **no-op pass** — run in the disabled handle's scope; every
//!    telemetry call site hits the disabled-handle fast path;
//! 2. **instrumented pass** — full pipeline: JSONL serialization (to a
//!    null writer, so the cost measured is serialization, not disk),
//!    per-tick event batching, the deterministic 1-in-N sampler and the
//!    tick-phase profiler.
//!
//! A pair's delta is the telemetry self-overhead, as a fraction of
//! instrumented wall time; the record reports the median pair, with
//! its walls and its instrumented pipeline's events and phases. Every
//! pass must produce the same trajectory checksum — telemetry that
//! perturbs the run it observes is a bug, and the
//! [`ampere_obs::ProfileRun`] record's digest gate fails both `repro
//! profile` and `report --profile` on it. A string-keyed
//! (registry mutex per op) vs pre-registered handle micro-benchmark is
//! included so the hot-path win stays visible in the report.

use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
use ampere_obs::dump::hex;
use ampere_obs::{ProfilePhase, ProfileRun};
use ampere_sim::SimDuration;
use ampere_telemetry::{EventSink, JsonlSink, MetricKind, Telemetry, TickPhase};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::{median_pair, Timed};

/// Configuration of one profiling run.
pub struct ProfileConfig {
    /// Shard (row) count of the testbed.
    pub rows: usize,
    /// Worker threads.
    pub workers: usize,
    /// Simulated minutes.
    pub sim_minutes: u64,
    /// Master seed (also seeds the sampler phase).
    pub seed: u64,
    /// Event-sampler period for the per-server event class (1 keeps
    /// everything).
    pub sample_period: u64,
}

impl ProfileConfig {
    /// Quick mode for CI smoke runs.
    pub fn quick(workers: usize) -> Self {
        ProfileConfig {
            rows: 6,
            workers,
            sim_minutes: 30,
            seed: 42,
            sample_period: 4,
        }
    }

    /// Paper-scale profiling run.
    pub fn paper(workers: usize) -> Self {
        ProfileConfig {
            rows: 16,
            workers,
            sim_minutes: 120,
            seed: 42,
            sample_period: 8,
        }
    }
}

/// Sink that only counts records (the serialization cost is carried by
/// the null-writer [`JsonlSink`] attached alongside it).
struct CountingSink {
    count: Arc<AtomicU64>,
}

impl EventSink for CountingSink {
    fn record(&mut self, _event: &ampere_telemetry::Event) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// Micro-benchmark: string-keyed counter op (registry lookup per call)
/// vs pre-registered handle op, ns/op each.
fn per_op_ns() -> (f64, f64) {
    const OPS: u64 = 200_000;
    let tel = Telemetry::builder().build();
    let start = Instant::now();
    for _ in 0..OPS {
        std::hint::black_box(tel.counter("profile_bench_ops", &[])).inc();
    }
    let mutex_ns = start.elapsed().as_nanos() as f64 / OPS as f64;
    let handle = tel.counter("profile_bench_ops", &[]);
    let start = Instant::now();
    for _ in 0..OPS {
        std::hint::black_box(&handle).inc();
    }
    let handle_ns = start.elapsed().as_nanos() as f64 / OPS as f64;
    (mutex_ns, handle_ns)
}

/// One pass in `tel`'s scope: its trajectory checksum.
fn run_pass(config: &ProfileConfig, tel: &Telemetry) -> u64 {
    tel.scope(|| {
        let mut sharded = ShardedTestbed::new(ShardedTestbedConfig::quick(
            config.rows,
            config.workers,
            config.seed,
        ));
        sharded.run_for(SimDuration::from_mins(config.sim_minutes));
        sharded.finish();
        sharded.checksum()
    })
}

/// Runs the pass pairs plus the per-op micro-benchmark.
pub fn run(config: &ProfileConfig) -> ProfileRun {
    let pair = median_pair(
        // Telemetry disabled — the no-op baseline.
        || Timed::run(|| (run_pass(config, &Telemetry::disabled()), ())),
        // Fully instrumented — serialization to a null writer,
        // batching, sampling, profiling.
        || {
            let count = Arc::new(AtomicU64::new(0));
            let tel = Telemetry::builder()
                .sink(JsonlSink::new(std::io::sink()))
                .sink(CountingSink {
                    count: Arc::clone(&count),
                })
                .batched(true)
                .sample_events(config.sample_period, config.seed)
                .profiling(true)
                .build();
            Timed::run(move || {
                let checksum = run_pass(config, &tel);
                tel.flush();
                (checksum, (tel, count))
            })
        },
    );
    let (wall_noop_ms, wall_instr_ms) = (pair.bare.wall_ms, pair.observed.wall_ms);
    let (tel, count) = pair.observed.value;
    let snapshot = tel
        .snapshot()
        .expect("instrumented pipeline has a registry");

    let events_total = count.load(Ordering::Relaxed);
    let events_sampled_out = match snapshot.get("telemetry_events_sampled_out", &[]) {
        Some(entry) => match entry.kind {
            MetricKind::Counter(n) => n,
            _ => 0,
        },
        None => 0,
    };
    let phases = TickPhase::ALL
        .iter()
        .map(|p| {
            let (calls, total_us) = match snapshot
                .get("profile_phase_wall_us", &[("phase", p.as_str())])
            {
                Some(entry) => match &entry.kind {
                    MetricKind::Histogram { counts, sum, .. } => (counts.iter().sum::<u64>(), *sum),
                    _ => (0, 0.0),
                },
                None => (0, 0.0),
            };
            ProfilePhase {
                phase: p.as_str().to_string(),
                calls,
                total_us,
                mean_us: if calls > 0 {
                    total_us / calls as f64
                } else {
                    0.0
                },
            }
        })
        .collect();
    let (mutex_ns_per_op, handle_ns_per_op) = per_op_ns();

    let ticks = config.rows as u64 * config.sim_minutes;
    let per_tick = |events: u64| events as f64 / ticks as f64;
    ProfileRun {
        rows: config.rows as u64,
        workers: config.workers as u64,
        sim_minutes: config.sim_minutes,
        seed: config.seed,
        sample_period: config.sample_period,
        ticks,
        wall_noop_ms,
        wall_instr_ms,
        ticks_per_sec_noop: ticks as f64 / (wall_noop_ms / 1e3),
        ticks_per_sec_instr: ticks as f64 / (wall_instr_ms / 1e3),
        overhead_fraction: pair.overhead_fraction,
        checksum_noop: hex(pair.checksum_bare),
        checksum_instr: hex(pair.checksum_observed),
        events_total,
        events_sampled_out,
        events_per_tick_pre_sample: per_tick(events_total + events_sampled_out),
        events_per_tick_post_sample: per_tick(events_total),
        mutex_ns_per_op,
        handle_ns_per_op,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_obs::BenchDump;

    #[test]
    fn quick_profile_is_digest_clean_and_serializes() {
        let result = run(&ProfileConfig {
            rows: 3,
            workers: 2,
            sim_minutes: 10,
            seed: 7,
            sample_period: 2,
        });
        assert!(
            result.gates().iter().all(|g| g.pass),
            "instrumentation perturbed the run"
        );
        assert!(result.events_total > 0, "instrumented pass saw no events");
        assert!(
            result.events_sampled_out > 0,
            "period-2 sampler never dropped an event"
        );
        assert_eq!(result.ticks, 30);
        assert_eq!(result.phases.len(), 6);
        // Phases wired through controller/scheduler/testbed must have
        // fired; fan-in merge fires once per shard replay.
        for phase in [
            "predict",
            "decide",
            "schedule",
            "monitor_sweep",
            "fan_in_merge",
        ] {
            let row = result.phases.iter().find(|p| p.phase == phase).unwrap();
            assert!(row.calls > 0, "phase {phase} never recorded");
        }
        let jsonl = result.encode();
        assert_eq!(jsonl.lines().count(), 7);
        assert!(jsonl.contains("\"bench\":\"profile\""));
        let decoded = ProfileRun::decode(&jsonl).expect("dump decodes");
        assert_eq!(decoded.gates(), result.gates());
        assert_eq!(decoded.encode(), jsonl);
        assert!(result.to_markdown().contains("Telemetry self-overhead"));
    }
}
