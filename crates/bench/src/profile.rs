//! The `repro profile` benchmark: what does observing the simulator
//! cost, and where does a tick's wall time go?
//!
//! The same seeded [`ShardedTestbed`] workload runs twice in one
//! process:
//!
//! 1. **no-op pass** — no global pipeline installed; every telemetry
//!    call site hits the disabled-handle fast path;
//! 2. **instrumented pass** — full pipeline: JSONL serialization (to a
//!    null writer, so the cost measured is serialization, not disk),
//!    per-tick event batching, the deterministic 1-in-N sampler and the
//!    tick-phase profiler.
//!
//! The delta is the telemetry self-overhead, reported as a fraction of
//! instrumented wall time. Both passes must produce the same trajectory
//! checksum — telemetry that perturbs the run it observes is a bug, and
//! `ampere-obs report --profile` hard-fails on it. A string-keyed
//! (registry mutex per op) vs pre-registered handle micro-benchmark is
//! included so the hot-path win stays visible in the report.

use ampere_experiments::{ShardedTestbed, ShardedTestbedConfig};
use ampere_sim::SimDuration;
use ampere_telemetry::{EventSink, JsonlSink, MetricKind, Telemetry, TickPhase};

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// One tick phase's aggregate timing.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase label (`predict`, `decide`, …).
    pub phase: &'static str,
    /// Number of recorded phase scopes.
    pub calls: u64,
    /// Total wall microseconds across all scopes.
    pub total_us: f64,
}

impl PhaseRow {
    /// Mean microseconds per scope (0 when never entered).
    pub fn mean_us(&self) -> f64 {
        if self.calls > 0 {
            self.total_us / self.calls as f64
        } else {
            0.0
        }
    }
}

/// Everything one profiling run measured.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// Shard count.
    pub rows: usize,
    /// Worker threads.
    pub workers: usize,
    /// Simulated minutes.
    pub sim_minutes: u64,
    /// Master seed.
    pub seed: u64,
    /// Sampler period used in the instrumented pass.
    pub sample_period: u64,
    /// Simulated domain-ticks (`rows · sim_minutes`).
    pub ticks: u64,
    /// Wall milliseconds of the no-op pass.
    pub wall_noop_ms: f64,
    /// Wall milliseconds of the instrumented pass.
    pub wall_instr_ms: f64,
    /// Telemetry self-overhead as a fraction of instrumented wall time.
    pub overhead_fraction: f64,
    /// Trajectory checksum of the no-op pass.
    pub checksum_noop: u64,
    /// Trajectory checksum of the instrumented pass (must match).
    pub checksum_instr: u64,
    /// Events that reached the sinks in the instrumented pass.
    pub events_total: u64,
    /// Events dropped by the deterministic sampler.
    pub events_sampled_out: u64,
    /// String-keyed (registry mutex per op) counter cost, ns/op.
    pub mutex_ns_per_op: f64,
    /// Pre-registered handle counter cost, ns/op.
    pub handle_ns_per_op: f64,
    /// Per-phase wall-time breakdown from the tick-phase profiler.
    pub phases: Vec<PhaseRow>,
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

fn run_pass(config: &ProfileConfig) -> (f64, u64) {
    let start = Instant::now();
    let mut sharded = ShardedTestbed::new(ShardedTestbedConfig::quick(
        config.rows,
        config.workers,
        config.seed,
    ));
    sharded.run_for(SimDuration::from_mins(config.sim_minutes));
    sharded.finish();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (wall_ms, sharded.checksum())
}

/// Runs the two passes plus the per-op micro-benchmark.
///
/// Installs (and afterwards resets) the process-global telemetry
/// pipeline for the instrumented pass, so callers must not hold a
/// pipeline they care about across this call.
pub fn run(config: &ProfileConfig) -> ProfileResult {
    // Pass 1: telemetry disabled — the no-op baseline.
    ampere_telemetry::reset_global();
    let (wall_noop_ms, checksum_noop) = run_pass(config);

    // Pass 2: fully instrumented — serialization to a null writer,
    // batching, sampling, profiling.
    let count = Arc::new(AtomicU64::new(0));
    ampere_telemetry::install_global(
        Telemetry::builder()
            .sink(JsonlSink::new(std::io::sink()))
            .sink(CountingSink {
                count: Arc::clone(&count),
            })
            .batched(true)
            .sample_events(config.sample_period, config.seed)
            .profiling(true)
            .build(),
    );
    let (wall_instr_ms, checksum_instr) = run_pass(config);
    let tel = ampere_telemetry::global();
    tel.flush();
    let snapshot = tel
        .snapshot()
        .expect("instrumented pipeline has a registry");
    ampere_telemetry::reset_global();

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
            PhaseRow {
                phase: p.as_str(),
                calls,
                total_us,
            }
        })
        .collect();
    let (mutex_ns_per_op, handle_ns_per_op) = per_op_ns();

    ProfileResult {
        rows: config.rows,
        workers: config.workers,
        sim_minutes: config.sim_minutes,
        seed: config.seed,
        sample_period: config.sample_period,
        ticks: config.rows as u64 * config.sim_minutes,
        wall_noop_ms,
        wall_instr_ms,
        overhead_fraction: ((wall_instr_ms - wall_noop_ms) / wall_instr_ms).max(0.0),
        checksum_noop,
        checksum_instr,
        events_total,
        events_sampled_out,
        mutex_ns_per_op,
        handle_ns_per_op,
        phases,
    }
}

impl ProfileResult {
    /// Domain-ticks per wall-second of the no-op pass.
    pub fn ticks_per_sec_noop(&self) -> f64 {
        self.ticks as f64 / (self.wall_noop_ms / 1e3)
    }

    /// Domain-ticks per wall-second of the instrumented pass.
    pub fn ticks_per_sec_instr(&self) -> f64 {
        self.ticks as f64 / (self.wall_instr_ms / 1e3)
    }

    /// Events per domain-tick before sampling (emitted + sampled out).
    pub fn events_per_tick_pre_sample(&self) -> f64 {
        (self.events_total + self.events_sampled_out) as f64 / self.ticks as f64
    }

    /// Events per domain-tick actually reaching the sinks.
    pub fn events_per_tick_post_sample(&self) -> f64 {
        self.events_total as f64 / self.ticks as f64
    }

    /// Whether instrumentation left the trajectory untouched.
    pub fn digest_clean(&self) -> bool {
        self.checksum_noop == self.checksum_instr
    }

    /// Serializes as JSONL: a header line, then one line per phase.
    /// Checksums are hex strings (u64 does not survive a float
    /// roundtrip).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"bench\":\"profile\",\"rows\":{},\"workers\":{},\"sim_minutes\":{},\"seed\":{},\
             \"sample_period\":{},\"ticks\":{},\"wall_noop_ms\":{:.3},\"wall_instr_ms\":{:.3},\
             \"ticks_per_sec_noop\":{:.3},\"ticks_per_sec_instr\":{:.3},\
             \"overhead_fraction\":{:.4},\"checksum_noop\":\"{:016x}\",\
             \"checksum_instr\":\"{:016x}\",\"events_total\":{},\"events_sampled_out\":{},\
             \"events_per_tick_pre_sample\":{:.3},\"events_per_tick_post_sample\":{:.3},\
             \"mutex_ns_per_op\":{:.1},\"handle_ns_per_op\":{:.1},\"phases\":{}}}",
            self.rows,
            self.workers,
            self.sim_minutes,
            self.seed,
            self.sample_period,
            self.ticks,
            self.wall_noop_ms,
            self.wall_instr_ms,
            self.ticks_per_sec_noop(),
            self.ticks_per_sec_instr(),
            self.overhead_fraction,
            self.checksum_noop,
            self.checksum_instr,
            self.events_total,
            self.events_sampled_out,
            self.events_per_tick_pre_sample(),
            self.events_per_tick_post_sample(),
            self.mutex_ns_per_op,
            self.handle_ns_per_op,
            self.phases.len()
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{{\"phase\":\"{}\",\"calls\":{},\"total_us\":{:.1},\"mean_us\":{:.2}}}",
                p.phase,
                p.calls,
                p.total_us,
                p.mean_us()
            );
        }
        out
    }

    /// Renders a fixed-width summary plus the phase table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rows={} workers={} sim_minutes={} ticks={} seed={} sample_period={}",
            self.rows, self.workers, self.sim_minutes, self.ticks, self.seed, self.sample_period
        );
        let _ = writeln!(
            out,
            "no-op pass:        {:>10.1} ms  ({:>10.1} ticks/sec)",
            self.wall_noop_ms,
            self.ticks_per_sec_noop()
        );
        let _ = writeln!(
            out,
            "instrumented pass: {:>10.1} ms  ({:>10.1} ticks/sec)",
            self.wall_instr_ms,
            self.ticks_per_sec_instr()
        );
        let _ = writeln!(
            out,
            "telemetry overhead: {:.1}% of instrumented wall time",
            self.overhead_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "digest: noop={:016x} instrumented={:016x} ({})",
            self.checksum_noop,
            self.checksum_instr,
            if self.digest_clean() {
                "clean"
            } else {
                "PERTURBED"
            }
        );
        let _ = writeln!(
            out,
            "events/tick: {:.2} before sampling, {:.2} after ({} sampled out)",
            self.events_per_tick_pre_sample(),
            self.events_per_tick_post_sample(),
            self.events_sampled_out
        );
        let _ = writeln!(
            out,
            "counter op: {:.1} ns string-keyed (registry mutex) vs {:.1} ns handle",
            self.mutex_ns_per_op, self.handle_ns_per_op
        );
        let _ = writeln!(
            out,
            "\n{:>16} {:>10} {:>14} {:>10}",
            "phase", "calls", "total us", "mean us"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:>16} {:>10} {:>14.1} {:>10.2}",
                p.phase,
                p.calls,
                p.total_us,
                p.mean_us()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_is_digest_clean_and_serializes() {
        let _guard = crate::GLOBAL_PIPELINE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let result = run(&ProfileConfig {
            rows: 3,
            workers: 2,
            sim_minutes: 10,
            seed: 7,
            sample_period: 2,
        });
        assert!(result.digest_clean(), "instrumentation perturbed the run");
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
        let jsonl = result.to_jsonl();
        assert_eq!(jsonl.lines().count(), 7);
        assert!(jsonl.contains("\"bench\":\"profile\""));
        assert!(result.render_table().contains("telemetry overhead"));
    }
}
