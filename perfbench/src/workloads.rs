//! The two workloads: how each builds its fleet, runs one untraced
//! repeat and runs once traced.
//!
//! Every workload is a closed loop: one process steps the simulation as
//! fast as it can. Simulated arrivals are Poisson in simulated time and
//! ignore the queue, so a backlog can grow.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ampere_cluster::{Cluster, ClusterSpec, RowId, ServiceClass};
use ampere_experiments::calibrate::default_controller;
use ampere_experiments::sla::{self, SlaConfig};
use ampere_experiments::{
    DomainSpec, ShardedTestbed, ShardedTestbedConfig, Testbed, TestbedConfig,
};
use ampere_power::CappingConfig;
use ampere_sched::{FreezePolicy, RandomFit};
use ampere_sim::{derive_subseed, rng::streams, SimDuration};
use ampere_telemetry::{Capture, JsonlSink, Telemetry};
use ampere_workload::interactive::OpType;
use ampere_workload::{RateProfile, UserPopulation};

use crate::traced::{LayerTotals, ShardPlan, TracedShard, DISPATCH_BUDGET};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Six 8-server rows at 300 jobs/min: a standing backlog past the
    /// scheduler's dispatch budget.
    QueueSaturated,
    /// The three-arm SLA comparison at CI size (three simulated hours
    /// with the evening peaks pulled in), two workers, telemetry on.
    SlaQuick,
}

pub const WORKLOADS: [Workload; 2] = [Workload::QueueSaturated, Workload::SlaQuick];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueueSaturated => "queue_saturated",
            Workload::SlaQuick => "sla_quick",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Times one construction of the workload's fleet, in seconds.
    pub fn setup(self, seed: u64) -> f64 {
        match self {
            Workload::SlaQuick => {
                // Under the pipeline the workload runs with, so each
                // testbed is built under its telemetry capture.
                let (_pipeline, _) = install_pipeline(true);
                let config = sla_config(seed);
                let start = Instant::now();
                drop(std::hint::black_box(sla_fleet(&config)));
                let elapsed = start.elapsed().as_secs_f64();
                ampere_telemetry::reset_global();
                elapsed
            }
            _ => {
                let config = self.sharded(seed);
                let start = Instant::now();
                drop(std::hint::black_box(ShardedTestbed::new(config)));
                start.elapsed().as_secs_f64()
            }
        }
    }

    /// Distinct simulation seeds one run covers. The sharded workload
    /// repeats one seed, so its repeats must agree bit for bit.
    /// `sla_quick`'s cost follows the backlog its seed happens to build
    /// (one call takes from 0.16 to 0.27 s on one host, by seed and
    /// host load), so a run covers three seeds to average that out.
    pub fn seeds_per_run(self) -> usize {
        match self {
            Workload::SlaQuick => 3,
            _ => 1,
        }
    }

    /// The `k`-th simulation seed of a run at `seed`: `seed` itself,
    /// then seeds derived from it.
    pub fn input_seed(self, seed: u64, k: usize) -> u64 {
        match k {
            0 => seed,
            k => derive_subseed(seed, streams::RUN, k as u64),
        }
    }

    /// One untraced repeat: build, warm up, measure the window.
    pub fn repeat(self, seed: u64) -> Observation {
        match self {
            Workload::SlaQuick => sla_repeat(seed, true).0,
            _ => sharded_repeat(self, seed),
        }
    }

    /// The traced run, with the untraced runs it is compared against.
    pub fn traced(self, seed: u64) -> Traced {
        match self {
            Workload::SlaQuick => sla_traced(seed),
            _ => sharded_traced(self, seed),
        }
    }

    fn sharded(self, seed: u64) -> ShardedTestbedConfig {
        match self {
            Workload::QueueSaturated => ShardedTestbedConfig::quick(6, 1, seed),
            Workload::SlaQuick => unreachable!("sla_quick is not a sharded testbed"),
        }
    }

    /// Ticks simulated before the window, and in it. The saturated window
    /// starts once every row's backlog has passed the dispatch budget
    /// (about 170 ticks), so the cost per tick is flat.
    fn ticks(self) -> (u64, u64) {
        match self {
            Workload::QueueSaturated => (200, 50),
            Workload::SlaQuick => unreachable!("sla_quick runs the whole call"),
        }
    }
}

/// One untraced repeat of a workload.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Wall of the repeat in phases: fleet construction, warm-up, the
    /// measured window (the whole call on `sla_quick`), then fan-in,
    /// checksum and post-processing.
    pub build_s: f64,
    pub warm_s: f64,
    pub window_s: f64,
    pub tail_s: f64,
    /// Simulated server-ticks in the measured window.
    pub server_ticks: u64,
    pub checksum: u64,
    /// Peak fleet power over the window, as a share of the fleet's
    /// control budget (the selective arm on `sla_quick`).
    pub peak_power_frac: f64,
    pub jobs_placed_per_server_hour: f64,
    pub p999_ratio: f64,
    /// Per-row queue lengths at the start and end of the window (empty
    /// for `sla_quick`, whose fleet `sla::run` does not expose).
    pub queue_start: Vec<usize>,
    pub queue_end: Vec<usize>,
    /// Failed output or regime checks.
    pub problems: Vec<String>,
}

impl Observation {
    pub fn run_s(&self) -> f64 {
        self.build_s + self.warm_s + self.window_s + self.tail_s
    }
}

/// Advances `sh` by `ticks`, returning the wall in seconds.
fn run_timed(sh: &mut ShardedTestbed, ticks: u64) -> f64 {
    let start = Instant::now();
    sh.run_for(SimDuration::from_mins(ticks));
    start.elapsed().as_secs_f64()
}

/// The traced run and the untraced runs it is compared against.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub checksum: u64,
    pub untraced_checksum: u64,
    pub totals: LayerTotals,
    pub workers: usize,
    /// Wall of the traced stepping loop.
    pub stepping_ns: u64,
    /// Per-tick max/mean worker-chunk time under the pool's partition.
    pub imbalance: f64,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub telemetry_events_per_tick: f64,
    pub telemetry_overhead_frac: f64,
    pub interactive_ns: u64,
    pub interactive_requests: u64,
    pub queue_start: usize,
    pub queue_end: usize,
    pub problems: Vec<String>,
}

/// FNV-1a, the digest the program's trajectory checksums use.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn sharded_repeat(w: Workload, seed: u64) -> Observation {
    let (warm, window) = w.ticks();
    let config = w.sharded(seed);
    let budget_scale = config.budget_scale;
    let start = Instant::now();
    let mut sh = ShardedTestbed::new(config);
    let build_s = start.elapsed().as_secs_f64();
    let warm_s = run_timed(&mut sh, warm);
    let queues = |sh: &ShardedTestbed| -> Vec<usize> {
        (0..sh.shard_count())
            .map(|s| sh.testbed(s).sched().queue_len())
            .collect()
    };
    let queue_start = queues(&sh);
    let window_s = run_timed(&mut sh, window);
    let queue_end = queues(&sh);
    let tail_start = Instant::now();
    sh.finish();
    let checksum = sh.checksum();
    let servers = sh.testbed(0).cluster().server_count() * sh.shard_count();
    let shards = 0..sh.shard_count();
    let placed: u64 = shards
        .clone()
        .flat_map(|s| &sh.records(s)[warm as usize..])
        .map(|r| r.placed_jobs)
        .sum();
    let budget_w: f64 = shards
        .clone()
        .map(|s| sh.testbed(s).rated_row_power_w(RowId::new(0)) * budget_scale)
        .sum();
    let peak_w = (warm as usize..(warm + window) as usize)
        .map(|k| {
            shards
                .clone()
                .map(|s| sh.records(s)[k].power_w)
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    let tail_s = tail_start.elapsed().as_secs_f64();
    let problems = regime_problems(&queue_start);
    Observation {
        build_s,
        warm_s,
        window_s,
        tail_s,
        server_ticks: servers as u64 * window,
        checksum,
        peak_power_frac: peak_w / budget_w,
        jobs_placed_per_server_hour: placed as f64 / (servers as f64 * window as f64 / 60.0),
        // The fleet serves no interactive traffic, so nothing can slow
        // its tail: the ratio to an uncontrolled run is 1 by definition.
        p999_ratio: 1.0,
        queue_start,
        queue_end,
        problems,
    }
}

/// The regime `queue_saturated` claims to measure: every row's queue is
/// past the dispatch budget when the window starts.
fn regime_problems(queue_start: &[usize]) -> Vec<String> {
    let min = queue_start.iter().copied().min().unwrap_or(0);
    let mut problems = Vec::new();
    if min < DISPATCH_BUDGET {
        problems.push(format!(
            "queue_saturated row queue {min} below the dispatch budget at window start"
        ));
    }
    problems
}

fn sharded_plans(config: &ShardedTestbedConfig) -> Vec<ShardPlan> {
    let rated = Cluster::new(config.spec).actual_rated_row_power_w(RowId::new(0));
    (0..config.shards)
        .map(|i| ShardPlan {
            spec: config.spec,
            profile: config.profile.clone(),
            seed: derive_subseed(config.seed, streams::SHARD, i as u64),
            breaker_w: rated * config.budget_scale,
            control_budget_w: None,
            controlled: config.controlled,
            freeze_policy: FreezePolicy::Uniform,
            service_classes: None,
            name: format!("shard{i}"),
        })
        .collect()
}

fn sharded_traced(w: Workload, seed: u64) -> Traced {
    let untraced = sharded_repeat(w, seed);
    let (warm, window) = w.ticks();
    let mut traced = trace_sharded(w.sharded(seed), warm, window);
    traced.untraced_checksum = untraced.checksum;
    traced.untraced_wall_s = untraced.window_s;
    traced.problems.extend(untraced.problems);
    traced
}

/// Runs a sharded testbed's shards traced: `warm` ticks, then `window`
/// recorded ticks.
pub fn trace_sharded(config: ShardedTestbedConfig, warm: u64, window: u64) -> Traced {
    let pool = ampere_par::WorkerPool::new(config.workers);
    let parent = ampere_telemetry::global();
    let mut shards: Vec<TracedShard> = sharded_plans(&config)
        .into_iter()
        .map(|plan| TracedShard::new(plan, Capture::new_under(&parent)))
        .collect();
    pool.step_ticks(&mut shards, warm, |_, s| s.step());
    let queue_start = shards.iter().map(TracedShard::queue_len).sum();
    shards.iter_mut().for_each(TracedShard::start_recording);
    let window_start = Instant::now();
    pool.step_ticks(&mut shards, window, |_, s| s.step());
    let stepping_ns = window_start.elapsed().as_nanos() as u64;
    let queue_end = shards.iter().map(TracedShard::queue_len).sum();
    for s in &mut shards {
        if let Some(capture) = s.take_capture() {
            ampere_telemetry::fanin::replay_into(&parent, capture.finish());
        }
    }
    // The digest of `ShardedTestbed::checksum`.
    let mut h = Fnv::new();
    for (i, s) in shards.iter().enumerate() {
        h.mix(i as u64);
        for r in &s.records {
            for v in [
                r.time_ms,
                r.power_w.to_bits(),
                r.frozen as u64,
                r.u_target.to_bits(),
                u64::from(r.violation),
                r.placed,
                r.mean_freq.to_bits(),
            ] {
                h.mix(v);
            }
        }
    }
    let mut traced = summarize(&shards, pool.workers(), stepping_ns);
    traced.checksum = h.0;
    traced.traced_wall_s = stepping_ns as f64 * 1e-9;
    traced.queue_start = queue_start;
    traced.queue_end = queue_end;
    traced
}

/// Sums the shards' spans and applies the pool's contiguous partition
/// to their per-tick walls.
fn summarize(shards: &[TracedShard], workers: usize, stepping_ns: u64) -> Traced {
    let mut totals = LayerTotals::default();
    for s in shards {
        totals.add(&s.totals);
    }
    let workers = workers.min(shards.len()).max(1);
    let (base, extra) = (shards.len() / workers, shards.len() % workers);
    let ticks = shards.iter().map(|s| s.tick_walls.len()).min().unwrap_or(0);
    let (mut max_sum, mut mean_sum) = (0.0, 0.0);
    for k in 0..ticks {
        let mut first = 0;
        let mut chunk_max = 0u64;
        let mut chunk_sum = 0u64;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let t: u64 = shards[first..first + len]
                .iter()
                .map(|s| s.tick_walls[k])
                .sum();
            chunk_max = chunk_max.max(t);
            chunk_sum += t;
            first += len;
        }
        max_sum += chunk_max as f64;
        mean_sum += chunk_sum as f64 / workers as f64;
    }
    let mut problems: Vec<String> = shards.iter().filter_map(|s| s.error.clone()).collect();
    // Self-time closure: the shards' tick spans must fit inside the
    // workers' share of the stepping wall, and at one worker account
    // for nearly all of it.
    let budget = workers as f64 * stepping_ns as f64;
    let covered = totals.tick_ns as f64 / budget;
    if totals.spans_total() > totals.tick_ns || covered > 1.01 || (workers == 1 && covered < 0.9) {
        problems.push(format!(
            "traced spans do not close: layer spans {} ns, tick walls {} ns, {} x stepping wall {} ns",
            totals.spans_total(),
            totals.tick_ns,
            workers,
            stepping_ns
        ));
    }
    Traced {
        totals,
        workers,
        stepping_ns,
        imbalance: if mean_sum > 0.0 {
            max_sum / mean_sum
        } else {
            1.0
        },
        problems,
        ..Traced::default()
    }
}

// ---- sla_quick ----

fn sla_config(seed: u64) -> SlaConfig {
    SlaConfig {
        seed,
        ..SlaConfig::quick(2)
    }
}

/// A `Write` that discards bytes and counts lines: the JSONL sink's
/// null writer, counting one event per line.
#[derive(Clone, Default)]
struct LineCounter(Arc<AtomicU64>);

impl Write for LineCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.0.fetch_add(lines, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Installs the batched JSONL pipeline `sla_quick` runs under (or none),
/// returning the handle and its line counter.
fn install_pipeline(on: bool) -> (Telemetry, LineCounter) {
    let counter = LineCounter::default();
    let telemetry = if on {
        Telemetry::builder()
            .sink(JsonlSink::new(counter.clone()))
            .batched(true)
            .build()
    } else {
        Telemetry::disabled()
    };
    ampere_telemetry::install_global(telemetry.clone());
    (telemetry, counter)
}

/// One digest over the three arms' trajectory checksums.
pub fn sla_checksum(result: &sla::SlaResult) -> u64 {
    let mut h = Fnv::new();
    for a in &result.arms {
        h.mix(a.checksum);
    }
    h.0
}

/// Simulated server-ticks in one `sla::run` call: every arm's rows over
/// warm-up and the measured day.
fn sla_server_ticks(config: &SlaConfig) -> u64 {
    let servers = (SLA_ARMS.len() * config.rows * sla_row_spec().servers_per_row()) as u64;
    servers * (config.warmup_mins + config.hours * 60)
}

fn sla_repeat(seed: u64, telemetry: bool) -> (Observation, u64) {
    let config = sla_config(seed);
    let (pipeline, events) = install_pipeline(telemetry);
    let start = Instant::now();
    let result = sla::run(&config);
    pipeline.flush();
    let run_s = start.elapsed().as_secs_f64();
    ampere_telemetry::reset_global();
    let arm = |name: &str| result.arm(name).expect("sla::run reports every arm");
    let (baseline, uniform, selective) = (arm("baseline"), arm("uniform"), arm("selective"));
    let mut problems = Vec::new();
    // The selective half of `sla_protected`. Its other half, uniform
    // freezing breaking the bar, depends on how hard a seed's three
    // hours load the rows: uniform landed at 1.1995x against the 1.2x bar
    // on one seed in ten, so it is reported, not required.
    if selective.p999_ratio > result.sla_factor {
        problems.push(format!(
            "selective arm broke the SLA: p99.9 {}x (uniform {}x), bar {}x",
            selective.p999_ratio, uniform.p999_ratio, result.sla_factor
        ));
    }
    if !(baseline.over_budget_ticks > 0 && uniform.froze > 0 && selective.froze > 0) {
        problems.push("budget_binding failed: the budget never bound".to_string());
    }
    let servers = (config.rows * result.servers_per_row) as f64;
    let obs = Observation {
        build_s: 0.0,
        warm_s: 0.0,
        window_s: run_s,
        tail_s: 0.0,
        server_ticks: sla_server_ticks(&config),
        checksum: sla_checksum(&result),
        peak_power_frac: selective.peak_power_w / (config.rows as f64 * result.budget_w),
        jobs_placed_per_server_hour: selective.placed as f64 / (servers * config.hours as f64),
        p999_ratio: selective.p999_ratio,
        queue_start: Vec::new(),
        queue_end: Vec::new(),
        problems,
    };
    (obs, events.0.load(Ordering::Relaxed))
}

/// The arms of `sla::run`, in its order: name, controlled, policy.
const SLA_ARMS: [(&str, bool, FreezePolicy); 3] = [
    ("baseline", false, FreezePolicy::Uniform),
    ("uniform", true, FreezePolicy::Uniform),
    ("selective", true, FreezePolicy::Selective),
];

/// One row of 4 racks x 10 servers, as `sla::run` builds it.
fn sla_row_spec() -> ClusterSpec {
    ClusterSpec {
        rows: 1,
        racks_per_row: 4,
        servers_per_rack: 10,
        ..ClusterSpec::tiny()
    }
}

/// Row `i`'s arrivals in `sla::run`: the streaming population's evening
/// peak plus a morning side stream, staggered per row.
fn sla_row_profile(i: usize, config: &SlaConfig) -> RateProfile {
    let pop = UserPopulation {
        peak_hour: (config.peak_hour + 1.5 * i as f64) % 24.0,
        amplitude: config.amplitude,
        ..UserPopulation::streaming(config.users / config.rows as f64)
    };
    let side = RateProfile::Diurnal {
        base_per_min: pop.base_jobs_per_min() * 0.45,
        amplitude: 0.70,
        peak_hour: (config.peak_hour + 12.0 + 1.0 * i as f64) % 24.0,
    };
    RateProfile::Mix {
        components: vec![pop.profile(), side],
    }
}

/// The arm x row shards of `sla::run`, in its construction order.
fn sla_plans(config: &SlaConfig) -> Vec<ShardPlan> {
    let spec = sla_row_spec();
    let per_row = spec.servers_per_row();
    let rated = spec.rated_row_power_w();
    let batch = (per_row as f64 * config.batch_fraction).round() as usize;
    let classes: Vec<ServiceClass> = (0..per_row)
        .map(|i| {
            if i >= per_row - batch {
                ServiceClass::Batch
            } else {
                ServiceClass::Interactive
            }
        })
        .collect();
    SLA_ARMS
        .iter()
        .flat_map(|arm| (0..config.rows).map(move |row| (arm, row)))
        .map(|(&(name, controlled, freeze_policy), row)| ShardPlan {
            spec,
            profile: sla_row_profile(row, config),
            seed: derive_subseed(config.seed, streams::SHARD, row as u64),
            breaker_w: rated,
            control_budget_w: controlled.then_some(rated * config.budget_scale),
            controlled,
            freeze_policy,
            service_classes: Some(classes.clone()),
            name: format!("{name}-row{row}"),
        })
        .collect()
}

/// Builds the `sla_quick` fleet through the public testbed API, as
/// `sla::run` builds it (which does not expose its construction time).
fn sla_fleet(config: &SlaConfig) -> Vec<Testbed> {
    let parent = ampere_telemetry::global();
    sla_plans(config)
        .into_iter()
        .map(|plan| {
            let capture = Capture::new_under(&parent);
            let build = || {
                let mut tb = Testbed::new(TestbedConfig {
                    spec: plan.spec,
                    profile: plan.profile,
                    seed: plan.seed,
                    tick: SimDuration::MINUTE,
                    measurement_noise: 0.003,
                    capping: CappingConfig::default(),
                    policy: Box::new(RandomFit::default()),
                    server_classes: None,
                    service_classes: plan.service_classes,
                    freeze_policy: plan.freeze_policy,
                    faults: None,
                });
                let servers = tb.cluster().row_server_ids(RowId::new(0)).collect();
                let domain = tb.add_domain(DomainSpec {
                    name: plan.name,
                    servers,
                    budget_w: plan.breaker_w,
                    controller: plan.controlled.then(default_controller),
                    capped: false,
                });
                tb.set_control_budget_w(domain, plan.control_budget_w);
                tb
            };
            match &capture {
                Some(c) => c.with(build),
                None => build(),
            }
        })
        .collect()
}

fn sla_traced(seed: u64) -> Traced {
    let (untraced, events) = sla_repeat(seed, true);
    let (untraced_off, _) = sla_repeat(seed, false);
    let config = sla_config(seed);
    let (pipeline, _) = install_pipeline(true);
    let start = Instant::now();
    let (mut traced, p999_ratio) = trace_sla(&config, &pipeline);
    pipeline.flush();
    traced.traced_wall_s = start.elapsed().as_secs_f64();
    ampere_telemetry::reset_global();

    traced.untraced_checksum = untraced.checksum;
    traced.untraced_wall_s = untraced.run_s();
    traced.telemetry_events_per_tick =
        events as f64 / (config.warmup_mins + config.hours * 60) as f64;
    traced.telemetry_overhead_frac = untraced.run_s() / untraced_off.run_s() - 1.0;
    if p999_ratio != untraced.p999_ratio {
        traced.problems.push(format!(
            "traced selective p99.9 ratio {p999_ratio} differs from sla::run's {}",
            untraced.p999_ratio
        ));
    }
    if untraced_off.checksum != untraced.checksum {
        traced.problems.push(format!(
            "sla_quick checksum {:#018x} with telemetry off differs from {:#018x} with it on",
            untraced_off.checksum, untraced.checksum
        ));
    }
    traced.problems.extend(untraced.problems);
    traced.problems.extend(untraced_off.problems);
    traced
}

/// Runs the arm x row shards of `sla::run` traced, then its
/// post-processing. Returns the run and the selective arm's p99.9 over
/// the baseline's.
pub fn trace_sla(config: &SlaConfig, parent: &Telemetry) -> (Traced, f64) {
    let mut shards: Vec<TracedShard> = sla_plans(config)
        .into_iter()
        .map(|plan| TracedShard::new(plan, Capture::new_under(parent)))
        .collect();
    shards.iter_mut().for_each(TracedShard::start_recording);
    let pool = ampere_par::WorkerPool::new(config.workers);
    let stepping = Instant::now();
    pool.step_ticks(&mut shards, config.warmup_mins, |_, s| s.step());
    let queue_start = shards.iter().map(TracedShard::queue_len).sum();
    pool.step_ticks(&mut shards, config.hours * 60, |_, s| s.step());
    let stepping_ns = stepping.elapsed().as_nanos() as u64;
    let queue_end = shards.iter().map(TracedShard::queue_len).sum();
    for s in &mut shards {
        if let Some(capture) = s.take_capture() {
            ampere_telemetry::fanin::replay_into(parent, capture.finish());
        }
    }

    // The post-processing of `sla::run`: per arm, the client-side p99.9
    // under the arm's unfrozen-interactive capacity, and the digest.
    let warm = config.warmup_mins as usize;
    let ticks = (config.hours * 60) as usize;
    let per_row = sla_row_spec().servers_per_row();
    let batch = (per_row as f64 * config.batch_fraction).round() as usize;
    let interactive_total = ((per_row - batch) * config.rows) as f64;
    let horizon_us = config.sim.run_secs * 1e6;
    let (mut interactive_ns, mut interactive_requests) = (0u64, 0u64);
    let mut p999 = Vec::new();
    let mut h = Fnv::new();
    for rows in shards.chunks(config.rows) {
        let capacity: Vec<f64> = (0..ticks)
            .map(|k| {
                let frozen: u32 = rows.iter().map(|s| s.class_frozen[warm + k].0).sum();
                (interactive_total - f64::from(frozen)) / interactive_total
            })
            .collect();
        let freq_at = |t: f64| {
            let idx = ((t / horizon_us) * ticks as f64) as usize;
            capacity[idx.min(ticks - 1)]
        };
        let sim_start = Instant::now();
        let stats = config.sim.run(OpType::Get, &freq_at);
        interactive_ns += sim_start.elapsed().as_nanos() as u64;
        interactive_requests += stats.count as u64;
        p999.push(stats.p999_us);
        let mut arm = Fnv::new();
        for s in rows {
            let mut shard = Fnv::new();
            for r in &s.records {
                for v in [
                    r.time_ms,
                    r.power_w.to_bits(),
                    r.frozen as u64,
                    r.u_target.to_bits(),
                    u64::from(r.violation),
                    r.placed,
                    r.froze as u64,
                    r.unfroze as u64,
                ] {
                    shard.mix(v);
                }
            }
            for &(i, b) in &s.class_frozen {
                shard.mix(u64::from(i));
                shard.mix(u64::from(b));
            }
            arm.mix(shard.0);
        }
        h.mix(arm.0);
    }

    let mut traced = summarize(&shards, pool.workers(), stepping_ns);
    traced.checksum = h.0;
    traced.interactive_ns = interactive_ns;
    traced.interactive_requests = interactive_requests;
    traced.queue_start = queue_start;
    traced.queue_end = queue_end;
    (traced, p999[2] / p999[0])
}
