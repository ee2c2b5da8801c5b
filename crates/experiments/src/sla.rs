//! SLA-aware selective freezing vs uniform freezing on a mixed fleet
//! (the §4.3 claim, promoted to a policy comparison).
//!
//! The paper's headline is that freeze/unfreeze never slows *running*
//! work — but on a fleet that mixes latency-critical interactive
//! services with batch, the *choice of which servers to freeze* still
//! moves the client-side tail: every frozen interactive server
//! displaces its request load onto the unfrozen survivors, and the
//! FIFO queueing model of [`ampere_workload::interactive`] turns that
//! concentration into p99.9 inflation exactly the way DVFS capping
//! does in Fig 11.
//!
//! Three arms run the same seed, the same mixed diurnal fleet and the
//! same power budget:
//!
//! 1. **Baseline** — no controller. Perfect latency, but row power
//!    tracks demand and busts the budget around the evening peak.
//! 2. **Uniform** — the paper's Algorithm 1 with the class-blind
//!    highest-power-first freeze planner. Holds the budget, but
//!    freezes interactive servers in proportion to their share of the
//!    fleet, so the surviving interactive capacity craters at peak.
//! 3. **Selective** — the same Algorithm 1 (identical power math and
//!    `n_freeze` targets) with the
//!    [`FreezeSelector`](ampere_sched::FreezeSelector) re-picking the
//!    frozen *set*: batch first, interactive only when the batch pool
//!    is exhausted, unfrozen in reverse.
//!
//! The gate mirrors the issue's acceptance bar: selective freezing
//! holds client-side p99.9 within 1.2x of the uncontrolled baseline
//! while uniform freezing exceeds it, at equal power budgets.
//!
//! Determinism: arm x row shards are independent testbeds on
//! sub-seeded streams (the *same* sub-seed per row across arms, so all
//! three arms see bit-identical workload draws), each stepped through
//! the whole run by whichever worker claims it, under a per-shard
//! telemetry capture that replays in construction order. Results are
//! byte-identical at any worker count.
//!
//! Shards are arm-major, and finished shards come back to the calling
//! thread in shard order, so an arm is complete as soon as its last
//! row arrives. Its statistics then run on the calling thread while the
//! workers still step the later arms — still in arm order, so the
//! result does not depend on which arm finished first.
//!
//! The p99.9 model is one pass of request draws for any number of
//! capacity traces ([`InteractiveSim::run_steps`]), so the first arm's
//! trace waits for the next arm that brings a new one, and the two run
//! in one pass, overlapped with the stepping of the arms after them;
//! the last arm runs whatever is still pending. An arm whose trace is
//! bit-equal to an earlier arm's (the baseline's is all ones, and a
//! selective arm that never freezes an interactive server matches it)
//! reuses that trace's result, which the deterministic model would
//! reproduce bit for bit.

use ampere_cluster::{ClusterSpec, RowId, ServiceClass};
use ampere_obs::dump::hex;
use ampere_obs::{SlaArmLine, SlaRun};
use ampere_par::ShardSet;
use ampere_power::CappingConfig;
use ampere_sched::{FreezePolicy, RandomFit};
use ampere_sim::{derive_subseed, rng::streams, Fnv, SimDuration};
use ampere_workload::interactive::{InteractiveSim, OpType, StepTrace};
use ampere_workload::{RateProfile, UserPopulation};

use crate::calibrate::default_controller;
use crate::testbed::{DomainId, DomainSpec, DomainTickRecord, Testbed, TestbedConfig};

/// Configuration of the three-arm SLA comparison.
pub struct SlaConfig {
    /// Rows in the mixed fleet (each is an independent shard).
    pub rows: usize,
    /// Measured hours per arm.
    pub hours: u64,
    /// Warm-up minutes before measurement.
    pub warmup_mins: u64,
    /// Master seed; row `i` simulates under
    /// `derive_subseed(seed, streams::SHARD, i)` in every arm.
    pub seed: u64,
    /// Control budget as a fraction of row rated power (equal across
    /// arms; the baseline arm ignores it and is scored against it).
    pub budget_scale: f64,
    /// Fraction of each row tagged [`ServiceClass::Batch`] (the block
    /// at the high end of the row's id range).
    pub batch_fraction: f64,
    /// Simulated interactive user population across the whole fleet;
    /// [`UserPopulation::streaming`] converts it to per-row arrival
    /// rates, so `repro` can drive millions of users.
    pub users: f64,
    /// Hour of day row 0's user activity peaks; row `i` peaks 1.5 h
    /// later ("different products per row"). The simulation clock
    /// starts at midnight, so configs place the staggered peaks
    /// inside the measured window.
    pub peak_hour: f64,
    /// Diurnal swing of user activity, in `[0, 1)`.
    pub amplitude: f64,
    /// The client-side benchmark model measuring p99.9.
    pub sim: InteractiveSim,
    /// Worker threads stepping the arm x row shards (1 = serial).
    pub workers: usize,
}

impl SlaConfig {
    /// Paper-scale comparison: four rows, a full measured day (so the
    /// staggered evening peaks at 20:00–24:30 fall in-window), 3.2
    /// million streaming users.
    pub fn paper(workers: usize) -> Self {
        Self {
            rows: 4,
            hours: 24,
            warmup_mins: 120,
            seed: 29,
            budget_scale: 0.8,
            batch_fraction: 0.5,
            users: 3.2e6,
            peak_hour: 20.0,
            amplitude: 0.85,
            sim: InteractiveSim::default(),
            workers,
        }
    }

    /// CI-sized comparison: three rows, two measured hours, 1.2
    /// million streaming users, peaks pulled into the short window.
    pub fn quick(workers: usize) -> Self {
        Self {
            rows: 3,
            hours: 2,
            warmup_mins: 60,
            users: 1.2e6,
            peak_hour: 1.5,
            sim: InteractiveSim {
                run_secs: 30.0,
                ..InteractiveSim::default()
            },
            ..Self::paper(workers)
        }
    }
}

/// Per-arm outcome of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaArm {
    /// The freeze policy's display name (`baseline` / `uniform` /
    /// `selective`).
    pub policy: String,
    /// Client-side p99.9 GET latency under this arm's capacity
    /// trajectory, in microseconds.
    pub p999_us: f64,
    /// `p999_us` normalized to the uncontrolled baseline arm.
    pub p999_ratio: f64,
    /// Peak fleet power over the measured window, in watts.
    pub peak_power_w: f64,
    /// Mean fleet power over the measured window, in watts.
    pub mean_power_w: f64,
    /// Measured ticks where some row exceeded its control budget.
    pub over_budget_ticks: u64,
    /// Jobs placed across the fleet in the measured window.
    pub placed: u64,
    /// Freeze actions actuated across the fleet (whole run).
    pub froze: u64,
    /// Unfreeze actions actuated across the fleet (whole run).
    pub unfroze: u64,
    /// Mean frozen servers per tick over the measured window.
    pub mean_frozen: f64,
    /// Peak frozen interactive servers at any measured tick.
    pub interactive_frozen_peak: u64,
    /// Peak frozen batch servers at any measured tick.
    pub batch_frozen_peak: u64,
    /// Lowest unfrozen-interactive capacity fraction over the
    /// measured window (1.0 = no interactive server ever frozen).
    pub min_capacity: f64,
    /// Order-sensitive FNV-1a digest over every row's tick trajectory
    /// and class-frozen trace — the worker-identity currency.
    pub checksum: u64,
}

/// The three-arm comparison plus the shared fleet parameters.
#[derive(Debug, Clone)]
pub struct SlaResult {
    /// Baseline, uniform, selective — in that order.
    pub arms: Vec<SlaArm>,
    /// Rows in the fleet.
    pub rows: usize,
    /// Servers per row.
    pub servers_per_row: usize,
    /// Interactive servers across the fleet.
    pub interactive_total: usize,
    /// Batch servers across the fleet.
    pub batch_total: usize,
    /// Per-row control budget, in watts.
    pub budget_w: f64,
    /// Per-row rated power, in watts.
    pub rated_w: f64,
    /// Simulated user population.
    pub users: f64,
    /// The SLA bar: controlled p99.9 within this factor of baseline.
    pub sla_factor: f64,
}

impl SlaResult {
    /// The arm named `policy`, if present.
    pub fn arm(&self, policy: &str) -> Option<&SlaArm> {
        self.arms.iter().find(|a| a.policy == policy)
    }

    /// The comparison as its `BENCH_sla.json` record, with the
    /// verdicts it recomputes declared in the header. `wall_ms` is the
    /// caller's timing of [`run`].
    ///
    /// The SLA verdict ([`SlaRun::sla_recomputed`]) checks only the two
    /// p99.9 ratios: selective within `sla_factor` of the baseline,
    /// uniform above it. Whether the controlled arms exceed the budget
    /// less often than the uncontrolled baseline is not checked: on the
    /// committed quick run they exceed it more often (ROADMAP.md, open
    /// item 1).
    pub fn record(&self, config: &SlaConfig, wall_ms: f64) -> SlaRun {
        let arms = self
            .arms
            .iter()
            .map(|a| SlaArmLine {
                policy: a.policy.clone(),
                p999_us: a.p999_us,
                p999_ratio: a.p999_ratio,
                peak_power_w: a.peak_power_w,
                mean_power_w: a.mean_power_w,
                over_budget_ticks: a.over_budget_ticks,
                placed: a.placed,
                froze: a.froze,
                unfroze: a.unfroze,
                mean_frozen: a.mean_frozen,
                interactive_frozen_peak: a.interactive_frozen_peak,
                batch_frozen_peak: a.batch_frozen_peak,
                min_capacity: a.min_capacity,
                checksum: hex(a.checksum),
            })
            .collect();
        SlaRun {
            workers: config.workers as u64,
            seed: config.seed,
            hours: config.hours,
            rows: self.rows as u64,
            servers_per_row: self.servers_per_row as u64,
            interactive_total: self.interactive_total as u64,
            batch_total: self.batch_total as u64,
            budget_w: self.budget_w,
            rated_w: self.rated_w,
            users: self.users,
            sla_factor: self.sla_factor,
            wall_ms,
            sla_protected: false,
            budget_binding: false,
            arms,
        }
        .with_declared_verdicts()
    }
}

/// Row `i`'s arrival profile: the streaming population's evening-peak
/// request stream plus a smaller morning-peak side stream, with the
/// peak hour staggered per row ("different products per row"). Rates
/// are per row — the population is split evenly across rows.
fn row_profile(i: usize, config: &SlaConfig) -> RateProfile {
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

/// The per-row cluster shape (one row of 4 racks x 10 servers, as in
/// the hierarchy sweep).
fn row_spec() -> ClusterSpec {
    ClusterSpec {
        rows: 1,
        racks_per_row: 4,
        servers_per_rack: 10,
        ..ClusterSpec::tiny()
    }
}

struct ArmPlan {
    policy: &'static str,
    controlled: bool,
    freeze_policy: FreezePolicy,
}

const ARMS: [ArmPlan; 3] = [
    ArmPlan {
        policy: "baseline",
        controlled: false,
        freeze_policy: FreezePolicy::Uniform,
    },
    ArmPlan {
        policy: "uniform",
        controlled: true,
        freeze_policy: FreezePolicy::Uniform,
    },
    ArmPlan {
        policy: "selective",
        controlled: true,
        freeze_policy: FreezePolicy::Selective,
    },
];

struct SlaShard {
    tb: Testbed,
    domain: DomainId,
    /// Per-tick (frozen interactive, frozen batch) in this row.
    class_frozen: Vec<(u32, u32)>,
}

impl SlaShard {
    fn step(&mut self) {
        self.tb.step();
        let mut frozen = (0u32, 0u32);
        for s in self.tb.cluster().iter_row(RowId::new(0)) {
            if s.is_frozen() {
                match s.service_class() {
                    ServiceClass::Interactive => frozen.0 += 1,
                    ServiceClass::Batch => frozen.1 += 1,
                }
            }
        }
        self.class_frozen.push(frozen);
    }
}

/// Order-sensitive FNV-1a over one row's trajectory plus its
/// class-frozen trace.
fn shard_checksum(recs: &[DomainTickRecord], class_frozen: &[(u32, u32)]) -> u64 {
    let mut h = Fnv::new();
    for r in recs {
        for v in [
            r.time.as_millis(),
            r.power_w.to_bits(),
            r.frozen as u64,
            r.u_target.to_bits(),
            u64::from(r.violation),
            r.placed_jobs,
            r.froze as u64,
            r.unfroze as u64,
        ] {
            h.word(v);
        }
    }
    for &(i, b) in class_frozen {
        h.word(u64::from(i));
        h.word(u64::from(b));
    }
    h.finish()
}

/// Runs the comparison: the arm x row shards advance independently on
/// the worker pool. Each arm's statistics are computed on the calling
/// thread as soon as that arm's rows have finished, overlapped with the
/// stepping of the later arms. The client-side benchmark runs there
/// too, once per distinct capacity trace, two new traces to a pass of
/// request draws (the last arm's pass takes what is left).
///
/// # Panics
/// If `config` has no rows, no measured hours, a batch fraction
/// outside `[0, 1]` or one that leaves a row no interactive server.
pub fn run(config: &SlaConfig) -> SlaResult {
    run_traced(config).0
}

/// [`run`], plus each arm's capacity trace (the unfrozen-interactive
/// fraction per measured tick) that the p99.9 model read.
fn run_traced(config: &SlaConfig) -> (SlaResult, Vec<Vec<f64>>) {
    assert!(config.rows > 0, "need at least one row");
    assert!(config.hours > 0, "need at least one measured hour");
    assert!(
        (0.0..=1.0).contains(&config.batch_fraction),
        "bad batch fraction"
    );
    let spec = row_spec();
    let per_row = spec.servers_per_row();
    let rated = spec.rated_row_power_w();
    let budget_w = rated * config.budget_scale;
    let batch_per_row = (per_row as f64 * config.batch_fraction).round() as usize;
    let interactive_per_row = per_row - batch_per_row;
    assert!(
        interactive_per_row > 0,
        "need at least one interactive server per row"
    );
    let total_mins = config.warmup_mins + config.hours * 60;
    let warm = config.warmup_mins as usize;

    // The batch block sits at the high end of each row's id range; the
    // selector must drain it before touching any interactive server.
    let classes: Vec<ServiceClass> = (0..per_row)
        .map(|i| {
            if i >= interactive_per_row {
                ServiceClass::Batch
            } else {
                ServiceClass::Interactive
            }
        })
        .collect();

    // Shard `a * rows + row` is arm `a`'s row `row`. Every arm's row
    // draws from the same row sub-seed, so the arms see bit-identical
    // workloads.
    let parent = ampere_telemetry::global();
    let shards = ARMS.len() * config.rows;
    let mut set = ShardSet::new(&parent, shards, config.workers, |i| {
        let (arm, row) = (&ARMS[i / config.rows], i % config.rows);
        let mut tb = Testbed::new(TestbedConfig {
            spec,
            profile: row_profile(row, config),
            seed: derive_subseed(config.seed, streams::SHARD, row as u64),
            tick: SimDuration::MINUTE,
            measurement_noise: 0.003,
            capping: CappingConfig::default(),
            policy: Box::new(RandomFit::default()),
            server_classes: None,
            service_classes: Some(classes.clone()),
            freeze_policy: arm.freeze_policy,
            faults: None,
        });
        let servers = tb.cluster().row_server_ids(RowId::new(0)).collect();
        let domain = tb.add_domain(DomainSpec {
            name: format!("{}-row{row}", arm.policy),
            servers,
            // Breaker at nameplate: the uncontrolled baseline must
            // over-run the *control* budget without tripping anything;
            // budget accounting is done against `budget_w` below for
            // every arm alike.
            budget_w: rated,
            controller: arm.controlled.then(default_controller),
            capped: false,
        });
        if arm.controlled {
            tb.set_control_budget_w(domain, Some(budget_w));
        }
        SlaShard {
            tb,
            domain,
            class_frozen: Vec::with_capacity(total_mins as usize),
        }
    });
    let interactive_total = interactive_per_row * config.rows;
    let ticks = (config.hours * 60) as usize;
    // Each distinct capacity trace in order of first appearance, and
    // the p99.9 of each trace modeled so far: `traces[p999.len()..]` is
    // still pending. `arm_trace[a]` is arm `a`'s trace.
    let mut traces: Vec<Vec<f64>> = Vec::new();
    let mut p999: Vec<f64> = Vec::new();
    let mut arm_trace = Vec::with_capacity(ARMS.len());

    let mut arms = Vec::with_capacity(ARMS.len());
    let mut rows: Vec<&SlaShard> = Vec::with_capacity(config.rows);
    // Shards arrive in index order, so arm `a` is complete with its
    // last row: its statistics run here, on the calling thread, while
    // the workers step the later arms.
    set.run_each(total_mins, SlaShard::step, |i, shard| {
        rows.push(shard);
        if rows.len() < config.rows {
            return;
        }
        let arm = &ARMS[i / config.rows];

        // Fleet-wide unfrozen-interactive capacity per measured tick.
        // A frozen interactive server's request load concentrates on
        // the unfrozen survivors; the single-server FIFO model absorbs
        // that as an equivalent service-rate derating (rho/f — the
        // same first-order effect as a frequency cap in Fig 11).
        let capacity: Vec<f64> = (0..ticks)
            .map(|k| {
                let frozen: u32 = rows.iter().map(|s| s.class_frozen[warm + k].0).sum();
                (interactive_total as f64 - f64::from(frozen)) / interactive_total as f64
            })
            .collect();
        let min_capacity = capacity.iter().copied().fold(1.0, f64::min);
        let bits = |trace: &[f64]| trace.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
        let seen = traces.iter().position(|t| bits(t) == bits(&capacity));
        arm_trace.push(seen.unwrap_or_else(|| {
            traces.push(capacity);
            traces.len() - 1
        }));
        // The model is one pass of request draws for any number of
        // traces: a new trace waits for the next one, and the last arm
        // runs whatever is still pending.
        let pending = &traces[p999.len()..];
        if pending.len() == 2 || (i + 1 == shards && !pending.is_empty()) {
            let steps: Vec<StepTrace> = pending.iter().map(|t| StepTrace::new(t)).collect();
            let runs = config.sim.run_steps(OpType::Get, &steps);
            p999.extend(runs.iter().map(|r| r.p999_us));
        }

        // Fleet power per measured tick (rows are summed in row order).
        let fleet_power: Vec<f64> = (0..ticks)
            .map(|k| {
                rows.iter()
                    .map(|s| s.tb.records(s.domain)[warm + k].power_w)
                    .sum()
            })
            .collect();
        fn measured(s: &SlaShard, warm: usize) -> &[DomainTickRecord] {
            &s.tb.records(s.domain)[warm..]
        }

        arms.push(SlaArm {
            policy: arm.policy.to_string(),
            // Set once every trace has been modeled.
            p999_us: f64::NAN,
            p999_ratio: f64::NAN,
            peak_power_w: fleet_power.iter().copied().fold(0.0, f64::max),
            mean_power_w: fleet_power.iter().sum::<f64>() / ticks.max(1) as f64,
            over_budget_ticks: rows
                .iter()
                .map(|s| {
                    measured(s, warm)
                        .iter()
                        .filter(|r| r.power_w > budget_w)
                        .count() as u64
                })
                .sum(),
            placed: rows
                .iter()
                .map(|s| measured(s, warm).iter().map(|r| r.placed_jobs).sum::<u64>())
                .sum(),
            froze: rows
                .iter()
                .map(|s| {
                    s.tb.records(s.domain)
                        .iter()
                        .map(|r| r.froze as u64)
                        .sum::<u64>()
                })
                .sum(),
            unfroze: rows
                .iter()
                .map(|s| {
                    s.tb.records(s.domain)
                        .iter()
                        .map(|r| r.unfroze as u64)
                        .sum::<u64>()
                })
                .sum(),
            mean_frozen: rows
                .iter()
                .flat_map(|s| measured(s, warm).iter().map(|r| r.frozen as f64))
                .sum::<f64>()
                / ticks.max(1) as f64,
            interactive_frozen_peak: rows
                .iter()
                .flat_map(|s| s.class_frozen[warm..].iter().map(|&(i, _)| u64::from(i)))
                .max()
                .unwrap_or(0),
            batch_frozen_peak: rows
                .iter()
                .flat_map(|s| s.class_frozen[warm..].iter().map(|&(_, b)| u64::from(b)))
                .max()
                .unwrap_or(0),
            min_capacity,
            checksum: {
                let mut h = Fnv::new();
                for s in &rows {
                    h.word(shard_checksum(s.tb.records(s.domain), &s.class_frozen));
                }
                h.finish()
            },
        });
        rows.clear();
    });
    // Replay per-shard telemetry into the parent pipeline in
    // construction order — byte-identical at any worker count.
    set.finish();

    let baseline_p999 = p999[arm_trace[0]];
    for (arm, &t) in arms.iter_mut().zip(&arm_trace) {
        arm.p999_us = p999[t];
        arm.p999_ratio = p999[t] / baseline_p999;
    }

    let result = SlaResult {
        arms,
        rows: config.rows,
        servers_per_row: per_row,
        interactive_total,
        batch_total: batch_per_row * config.rows,
        budget_w,
        rated_w: rated,
        users: config.users,
        sla_factor: 1.2,
    };
    (
        result,
        arm_trace.iter().map(|&t| traces[t].clone()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workers: usize) -> SlaConfig {
        SlaConfig {
            hours: 1,
            warmup_mins: 30,
            sim: InteractiveSim {
                run_secs: 10.0,
                ..InteractiveSim::default()
            },
            ..SlaConfig::quick(workers)
        }
    }

    #[test]
    fn baseline_is_uncontrolled_and_unfrozen() {
        let r = run(&tiny(1));
        let b = r.arm("baseline").unwrap();
        assert_eq!(b.froze, 0);
        assert_eq!(b.mean_frozen, 0.0);
        assert_eq!(b.min_capacity, 1.0);
        assert_eq!(b.p999_ratio, 1.0);
        // The budget is actually binding: the uncontrolled fleet must
        // exceed it somewhere, else the comparison is vacuous.
        assert!(b.over_budget_ticks > 0, "budget never binds");
    }

    #[test]
    fn selective_protects_interactive_capacity() {
        let r = run(&tiny(1));
        let u = r.arm("uniform").unwrap();
        let s = r.arm("selective").unwrap();
        assert!(u.froze > 0 && s.froze > 0, "controllers never froze");
        // Batch-first ordering: selective keeps more interactive
        // capacity than class-blind freezing at comparable depth.
        assert!(s.min_capacity >= u.min_capacity);
        assert!(s.p999_us <= u.p999_us);
        assert!(s.batch_frozen_peak >= s.interactive_frozen_peak);
    }

    #[test]
    fn arm_with_the_baseline_trace_reuses_its_p999() {
        let r = run(&tiny(1));
        let b = r.arm("baseline").unwrap();
        // min_capacity 1.0 means every tick's capacity is exactly 1.0:
        // the baseline's all-ones trace.
        let matching: Vec<&SlaArm> = r.arms[1..]
            .iter()
            .filter(|a| a.min_capacity == 1.0)
            .collect();
        assert!(
            !matching.is_empty(),
            "no controlled arm kept every interactive server"
        );
        for a in matching {
            assert!(a.froze > 0, "{} never froze", a.policy);
            assert_eq!(a.p999_us.to_bits(), b.p999_us.to_bits(), "{}", a.policy);
            assert_eq!(a.p999_ratio, 1.0, "{}", a.policy);
        }
    }

    /// Too few batch servers to shed the peak on batch alone: the
    /// selective arm freezes fewer interactive servers than the uniform
    /// arm but some, so all three arms' capacity traces differ and the
    /// last arm's trace runs in a pass of its own.
    fn three_traces(workers: usize) -> SlaConfig {
        SlaConfig {
            batch_fraction: 0.2,
            ..tiny(workers)
        }
    }

    #[test]
    fn each_arm_p999_equals_a_run_of_its_own_trace() {
        for config in [tiny(1), three_traces(1)] {
            let (r, traces) = run_traced(&config);
            for (arm, trace) in r.arms.iter().zip(&traces) {
                let alone = config.sim.run_steps(OpType::Get, &[StepTrace::new(trace)]);
                assert_eq!(
                    arm.p999_us.to_bits(),
                    alone[0].p999_us.to_bits(),
                    "{}",
                    arm.policy
                );
                assert_eq!(arm.min_capacity, trace.iter().copied().fold(1.0, f64::min));
            }
        }
        let (r, traces) = run_traced(&three_traces(1));
        let distinct = |a: &[f64], b: &[f64]| a.iter().zip(b).any(|(x, y)| x != y);
        assert!(distinct(&traces[0], &traces[1]) && distinct(&traces[1], &traces[2]));
        assert!(
            distinct(&traces[0], &traces[2]),
            "selective kept the baseline trace"
        );
        let [b, u, s] = [0, 1, 2].map(|a| r.arms[a].p999_us);
        assert!(b < s && s < u, "p99.9 {b} / {u} / {s}");
    }

    #[test]
    #[should_panic(expected = "need at least one measured hour")]
    fn zero_hours_is_rejected() {
        let _ = run(&SlaConfig {
            hours: 0,
            ..tiny(1)
        });
    }

    #[test]
    #[should_panic(expected = "need at least one interactive server per row")]
    fn all_batch_rows_are_rejected() {
        let _ = run(&SlaConfig {
            batch_fraction: 0.99,
            ..tiny(1)
        });
    }

    #[test]
    fn workers_do_not_change_results() {
        for config in [tiny, three_traces] {
            let a = run(&config(1));
            // 2 is the caller plus one spawned thread; 3 leaves a
            // partial last round of the 9 shards.
            for workers in [2, 3, 4] {
                let b = run(&config(workers));
                assert_eq!(a.arms, b.arms, "workers={workers}");
            }
        }
    }

    #[test]
    fn tiny_bench_serializes_and_is_worker_identical() {
        use ampere_obs::BenchDump;
        use ampere_telemetry::Capture;

        let measure = |workers| {
            let config = tiny(workers);
            Capture::standalone().with(|| run(&config).record(&config, 0.0))
        };
        let r = measure(2);
        assert_eq!(r.arms.len(), 3);
        let jsonl = r.encode();
        assert!(jsonl.starts_with("{\"bench\":\"sla\","));
        let decoded = SlaRun::decode(&jsonl).expect("dump decodes");
        assert_eq!(decoded.gates(), r.gates());
        assert_eq!(decoded.encode(), jsonl);

        // The dump must be byte-identical at a different worker count,
        // header aside.
        let serial = measure(1);
        let body = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(body(&jsonl), body(&serial.encode()));
        assert_eq!(
            (serial.sla_protected, serial.budget_binding),
            (r.sla_protected, r.budget_binding)
        );
    }
}
