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
//! The p99.9 model runs once per distinct capacity trace: an arm whose
//! trace is bit-equal to an earlier arm's (the baseline's is all ones,
//! and a selective arm that never freezes an interactive server
//! matches it) reuses that run's result, which the deterministic model
//! would reproduce bit for bit.

use ampere_cluster::{ClusterSpec, RowId, ServiceClass};
use ampere_par::ShardSet;
use ampere_power::CappingConfig;
use ampere_sched::{FreezePolicy, RandomFit};
use ampere_sim::{derive_subseed, rng::streams, Fnv, SimDuration};
use ampere_workload::interactive::{InteractiveSim, OpType};
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

    /// The headline verdict: selective holds the SLA bar, uniform
    /// busts it, and both controlled arms hold the budget better than
    /// the uncontrolled baseline.
    pub fn sla_protected(&self) -> bool {
        let (Some(s), Some(u)) = (self.arm("selective"), self.arm("uniform")) else {
            return false;
        };
        s.p999_ratio <= self.sla_factor && u.p999_ratio > self.sla_factor
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
/// the worker pool; statistics and the client-side benchmark (once per
/// distinct capacity trace) are computed serially afterwards.
///
/// # Panics
/// If `config` has no rows, no measured hours or a batch fraction
/// outside `[0, 1]`.
pub fn run(config: &SlaConfig) -> SlaResult {
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
    let mut set = ShardSet::new(&parent, ARMS.len() * config.rows, config.workers, |i| {
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
    set.run(total_mins, SlaShard::step);
    // Replay per-shard telemetry into the parent pipeline in
    // construction order — byte-identical at any worker count.
    set.finish();
    let shards = set.shards();

    let interactive_total = interactive_per_row * config.rows;
    let ticks = (config.hours * 60) as usize;
    let horizon_us = config.sim.run_secs * 1e6;
    // (capacity trace bits, p99.9) of every model run so far.
    let mut models: Vec<(Vec<u64>, f64)> = Vec::new();

    let mut arms = Vec::with_capacity(ARMS.len());
    for (a, arm) in ARMS.iter().enumerate() {
        let rows = &shards[a * config.rows..(a + 1) * config.rows];

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
        let trace: Vec<u64> = capacity.iter().map(|c| c.to_bits()).collect();
        let p999_us = match models.iter().find(|(seen, _)| *seen == trace) {
            Some(&(_, p999_us)) => p999_us,
            None => {
                let freq_at = |t: f64| {
                    let idx = ((t / horizon_us) * ticks as f64) as usize;
                    capacity[idx.min(ticks - 1)]
                };
                let p999_us = config.sim.run(OpType::Get, &freq_at).p999_us;
                models.push((trace, p999_us));
                p999_us
            }
        };

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
            p999_us,
            p999_ratio: 1.0,
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
                for s in rows {
                    h.word(shard_checksum(s.tb.records(s.domain), &s.class_frozen));
                }
                h.finish()
            },
        });
    }

    let baseline_p999 = arms[0].p999_us;
    for arm in &mut arms {
        arm.p999_ratio = arm.p999_us / baseline_p999;
    }

    SlaResult {
        arms,
        rows: config.rows,
        servers_per_row: per_row,
        interactive_total,
        batch_total: batch_per_row * config.rows,
        budget_w,
        rated_w: rated,
        users: config.users,
        sla_factor: 1.2,
    }
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

    #[test]
    #[should_panic(expected = "need at least one measured hour")]
    fn zero_hours_is_rejected() {
        let _ = run(&SlaConfig {
            hours: 0,
            ..tiny(1)
        });
    }

    #[test]
    fn workers_do_not_change_results() {
        let a = run(&tiny(1));
        let b = run(&tiny(4));
        for (x, y) in a.arms.iter().zip(&b.arms) {
            assert_eq!(x, y);
        }
    }
}
