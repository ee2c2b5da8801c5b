//! Hierarchical multi-row control under a fault-tolerant budget arbiter.
//!
//! The paper controls one row against a fixed budget. Real facilities
//! oversubscribe many rows under one substation feed, and the load
//! shifts between rows over the day (§2.2, "different products per
//! row"). This experiment stacks the [`ampere_arbiter::BudgetArbiter`]
//! on top of N independent per-row testbeds and asks the robustness
//! questions the single-row chaos sweep cannot:
//!
//! 1. **Safety per level** — per-row breakers sit at the row feed and a
//!    substation breaker at the shared feed; the gate is zero trips at
//!    *both* levels across the whole fault grid. If the substation
//!    breaker does trip, the driver's backstop pins every row to its
//!    floor for the rest of the run.
//! 2. **Fault isolation** — a degraded or dark row is pinned to its
//!    floor and its surplus becomes passive reserve. Healthy siblings'
//!    trajectories must be *bit-identical* to the clean run (checked
//!    via per-row checksums).
//! 3. **Arbiter as a fault domain** — grant RPCs are lost and the
//!    arbiter itself goes dark ([`FaultPlan::grant_loss`],
//!    [`FaultPlan::arbiter_outages`]); rows ride the
//!    [`GrantLink`] fallback ladder and must
//!    stay safe on haircut budgets.
//!
//! Determinism: rows are independent testbeds on sub-seeded streams,
//! stepped independently by the worker pool within a grant period; the
//! arbiter, the control-plane fault injector and the substation breaker
//! run serially at grant-period barriers. Results are byte-identical at
//! any worker count.

use ampere_arbiter::{
    ArbiterConfig, BudgetArbiter, FallbackState, GrantLink, GrantLinkConfig, RowHealth,
};
use ampere_cluster::{ClusterSpec, RowId};
use ampere_faults::{FaultInjector, FaultPlan, OutageWindow};
use ampere_obs::dump::hex;
use ampere_obs::{HierCellLine, HierRoundLine, HierRun};
use ampere_par::ShardSet;
use ampere_power::{hierarchy::PowerNode, CappingConfig, CircuitBreaker};
use ampere_sched::{FreezePolicy, RandomFit};
use ampere_sim::{derive_subseed, rng::streams, Fnv, SimDuration, SimTime};
use ampere_workload::RateProfile;

use crate::calibrate::default_controller;
use crate::testbed::{
    digest_records, DomainId, DomainSpec, DomainTickRecord, Testbed, TestbedConfig,
};

/// Configuration of the hierarchical sweep.
pub struct HierConfig {
    /// Rows under the substation feed.
    pub rows: usize,
    /// Measured hours per grid cell.
    pub hours: u64,
    /// Warm-up minutes before measurement (the arbiter runs during
    /// warm-up too; only the stats window is restricted).
    pub warmup_mins: u64,
    /// Master seed; row `i` simulates under
    /// `derive_subseed(seed, streams::SHARD, i)`.
    pub seed: u64,
    /// Grant-reallocation cadence, in minutes.
    pub grant_period_mins: u64,
    /// Substation feed capacity as a fraction of the summed row rated
    /// power (< 1 ⇒ the feed itself is oversubscribed).
    pub substation_scale: f64,
    /// Fraction of the feed the arbiter may allocate; the rest is a
    /// standing margin between Σ grants and the substation breaker.
    pub control_margin: f64,
    /// Per-row floor as a fraction of row rated power.
    pub floor_scale: f64,
    /// Per-row grant ceiling as a fraction of row rated power.
    pub ceiling_scale: f64,
    /// Per-row breaker limit as a fraction of row rated power (the row
    /// PDU feed, above the grant ceiling).
    pub row_breaker_scale: f64,
    /// Round-level hysteresis on the arbiter's nominal vector.
    pub hysteresis: f64,
    /// Grant-RPC loss probabilities swept (0.0 first: the baseline).
    pub grant_loss: Vec<f64>,
    /// Arbiter-outage lengths swept, in minutes (0 = no outage).
    pub outage_mins: Vec<u64>,
    /// Whether to also sweep cells with row 0 fault-injected (the
    /// sibling-isolation axis).
    pub row_faults: Vec<bool>,
    /// Sample dropout injected into the faulted row.
    pub fault_dropout: f64,
    /// Controller-outage length injected into the faulted row, minutes.
    pub fault_outage_mins: u64,
    /// Worker threads stepping the rows (1 = serial).
    pub workers: usize,
}

impl HierConfig {
    /// Paper-scale sweep: four rows, six measured hours per cell.
    pub fn paper() -> Self {
        Self {
            rows: 4,
            hours: 6,
            warmup_mins: 120,
            seed: 23,
            grant_period_mins: 10,
            substation_scale: 0.92,
            control_margin: 0.95,
            floor_scale: 0.72,
            ceiling_scale: 0.88,
            row_breaker_scale: 0.95,
            hysteresis: 0.02,
            grant_loss: vec![0.0, 0.15, 0.4],
            outage_mins: vec![0, 30],
            row_faults: vec![false, true],
            fault_dropout: 0.3,
            fault_outage_mins: 20,
            workers: 1,
        }
    }

    /// CI-sized sweep: three rows, two measured hours, the full fault
    /// grid (clean / lossy grants / arbiter outage / row fault).
    pub fn quick() -> Self {
        Self {
            rows: 3,
            hours: 2,
            warmup_mins: 60,
            grant_period_mins: 5,
            grant_loss: vec![0.0, 0.3],
            outage_mins: vec![0, 20],
            fault_outage_mins: 15,
            ..Self::paper()
        }
    }
}

/// One cell of the grant-loss × arbiter-outage × row-fault grid.
#[derive(Debug, Clone)]
pub struct HierCell {
    /// Grant-RPC loss probability injected.
    pub grant_loss: f64,
    /// Arbiter-outage length injected, in minutes.
    pub outage_mins: u64,
    /// Whether row 0 was fault-injected (dropout + controller outage).
    pub row_fault: bool,
    /// Whether the substation breaker tripped — the headline failure.
    pub substation_tripped: bool,
    /// Minute of the substation trip, if any.
    pub substation_trip_min: Option<u64>,
    /// Substation over-feed minutes in the measured window.
    pub substation_violations: u64,
    /// Rows whose own breaker tripped.
    pub row_trips: u64,
    /// Row-level over-budget minutes in the measured window, summed.
    pub row_violations: u64,
    /// First minute any row exceeded its breaker limit (whole run).
    pub first_row_violation_min: Option<u64>,
    /// Measured-window ticks where some row's power exceeded its
    /// currently-applied grant (transient overshoot, not a violation).
    pub row_over_grant_ticks: u64,
    /// Rounds the arbiter was down.
    pub arbiter_down_rounds: u64,
    /// Grant RPCs lost.
    pub grants_lost: u64,
    /// Row-rounds spent on a fallback (haircut) budget.
    pub fallback_rounds: u64,
    /// Row-rounds spent past grace on the static share.
    pub static_share_rounds: u64,
    /// Rounds hysteresis held the previous vector.
    pub held_rounds: u64,
    /// Row-rounds pinned to the floor by health.
    pub pinned_rounds: u64,
    /// Largest passive reserve reported, in watts.
    pub max_reserve_w: f64,
    /// Lowest per-tick sample coverage across rows.
    pub min_coverage: f64,
    /// Ticks with some row's controller degraded (measured window).
    pub degraded_ticks: u64,
    /// Ticks with some row's capping backstop armed (measured window).
    pub backstop_ticks: u64,
    /// Jobs placed across all rows in the measured window.
    pub placed: u64,
    /// `placed` normalized to the clean cell.
    pub throughput_ratio: f64,
    /// Per-row FNV digests over the full tick trajectory (bit-exact;
    /// the currency of the sibling-isolation check).
    pub row_checksums: Vec<u64>,
    /// The reallocation timeline.
    pub rounds: Vec<HierRoundLine>,
}

/// The swept grid plus the static partition it ran under.
#[derive(Debug, Clone)]
pub struct HierResult {
    /// One entry per grid cell, row-fault-major then outage then loss.
    pub cells: Vec<HierCell>,
    /// Placed jobs in the clean cell (the throughput denominator).
    pub baseline_placed: u64,
    /// Rows under arbitration.
    pub rows: usize,
    /// Substation feed capacity (the breaker limit), in watts.
    pub feed_w: f64,
    /// Budget the arbiter allocates (feed × control margin), in watts.
    pub allocatable_w: f64,
    /// Per-row floors, in watts.
    pub floors_w: Vec<f64>,
    /// Per-row grant ceilings, in watts.
    pub ceilings_w: Vec<f64>,
    /// Σ rated row power / feed — how oversubscribed the shared feed
    /// is relative to nameplate (the headroom statistical control
    /// reclaims; > 1 whenever `substation_scale < 1`).
    pub oversubscription: f64,
    /// Grant cadence, in minutes.
    pub grant_period_mins: u64,
}

impl HierResult {
    /// The cell at a grid coordinate, if swept.
    pub fn cell(&self, grant_loss: f64, outage_mins: u64, row_fault: bool) -> Option<&HierCell> {
        self.cells.iter().find(|c| {
            c.grant_loss == grant_loss && c.outage_mins == outage_mins && c.row_fault == row_fault
        })
    }

    /// The sweep as its `BENCH_hier.json` record, with the verdicts it
    /// recomputes declared in the header. `wall_ms` is the caller's
    /// timing of [`run`].
    pub fn record(&self, config: &HierConfig, wall_ms: f64) -> HierRun {
        let cells = self
            .cells
            .iter()
            .map(|c| HierCellLine {
                grant_loss: c.grant_loss,
                outage_mins: c.outage_mins,
                row_fault: c.row_fault,
                substation_tripped: c.substation_tripped,
                substation_violations: c.substation_violations,
                row_trips: c.row_trips,
                row_violations: c.row_violations,
                row_over_grant_ticks: c.row_over_grant_ticks,
                arbiter_down_rounds: c.arbiter_down_rounds,
                grants_lost: c.grants_lost,
                fallback_rounds: c.fallback_rounds,
                static_share_rounds: c.static_share_rounds,
                held_rounds: c.held_rounds,
                pinned_rounds: c.pinned_rounds,
                max_reserve_w: c.max_reserve_w,
                min_coverage: c.min_coverage,
                degraded_ticks: c.degraded_ticks,
                backstop_ticks: c.backstop_ticks,
                placed: c.placed,
                throughput_ratio: c.throughput_ratio,
                trip_explained: substation_trip_explained(c),
                substation_trip_min: c.substation_trip_min,
                row_checksums: c.row_checksums.iter().map(|&x| hex(x)).collect(),
                rounds: c.rounds.clone(),
            })
            .collect();
        HierRun {
            workers: config.workers as u64,
            seed: config.seed,
            hours: config.hours,
            rows: self.rows as u64,
            grant_period_mins: self.grant_period_mins,
            feed_w: self.feed_w,
            allocatable_w: self.allocatable_w,
            oversubscription: self.oversubscription,
            floors_w: self.floors_w.clone(),
            ceilings_w: self.ceilings_w.clone(),
            baseline_placed: self.baseline_placed,
            wall_ms,
            zero_trips: false,
            isolation_ok: false,
            has_isolation_axis: false,
            trips_explained: false,
            cells,
        }
        .with_declared_verdicts()
    }
}

/// Safety attribution for the two-level property: a substation trip is
/// only acceptable when a row-level violation preceded it or the
/// control plane itself was faulted (lost grants / arbiter outage put
/// rows on fallback budgets the arbiter never co-signed).
pub fn substation_trip_explained(cell: &HierCell) -> bool {
    match cell.substation_trip_min {
        None => true,
        Some(t) => {
            cell.first_row_violation_min.is_some_and(|v| v <= t)
                || cell.row_over_grant_ticks > 0
                || cell.arbiter_down_rounds > 0
                || cell.grants_lost > 0
        }
    }
}

/// Classifies a row's health from its own last-period records — never
/// from siblings (the isolation contract).
fn classify(recs: &[DomainTickRecord]) -> RowHealth {
    if recs.is_empty() {
        return RowHealth::Healthy;
    }
    let degraded = recs.iter().filter(|r| r.degraded).count();
    let min_cov = recs.iter().map(|r| r.coverage).fold(1.0, f64::min);
    if degraded == recs.len() || recs.iter().any(|r| r.backstop_armed) {
        RowHealth::Dark
    } else if degraded > 0 || min_cov < 0.9 {
        RowHealth::Degraded
    } else {
        RowHealth::Healthy
    }
}

/// Order-sensitive FNV-1a over one row's full trajectory (same fields
/// as `ShardedTestbed::checksum`, per row).
fn row_checksum(recs: &[DomainTickRecord]) -> u64 {
    let mut h = Fnv::new();
    digest_records(&mut h, recs);
    h.finish()
}

struct RowShard {
    tb: Testbed,
    domain: DomainId,
    profile: RateProfile,
    link: GrantLink,
    /// Budget currently actuated (post-fallback), in watts.
    applied_w: f64,
}

/// The per-row cluster shape: one row of 4 racks × 10 servers — large
/// enough that the controller's freezing authority moves row power,
/// small enough for a CI-sized grid.
fn row_spec() -> ClusterSpec {
    ClusterSpec {
        rows: 1,
        racks_per_row: 4,
        servers_per_rack: 10,
        ..ClusterSpec::tiny()
    }
}

/// Row `i`'s skewed-diurnal arrival profile, scaled from the 440-server
/// presets to this row size (distinct base rate, amplitude and peak
/// hour per row — the paper's "different products per row").
fn row_profile(i: usize, spec: &ClusterSpec) -> RateProfile {
    RateProfile::product_mix(i as u64).scaled(spec.servers_per_row() as f64 / 440.0)
}

fn run_cell(
    config: &HierConfig,
    rated: f64,
    grant_loss: f64,
    outage_mins: u64,
    row_fault: bool,
) -> HierCell {
    let spec = row_spec();
    let rows = config.rows;
    let feed_w = rated * rows as f64 * config.substation_scale;
    let allocatable_w = feed_w * config.control_margin;
    let floors_w = vec![rated * config.floor_scale; rows];
    let ceilings_w = vec![rated * config.ceiling_scale; rows];
    let static_share_w = (allocatable_w / rows as f64)
        .clamp(rated * config.floor_scale, rated * config.ceiling_scale);

    let mut arbiter = BudgetArbiter::new(ArbiterConfig {
        substation_budget_w: allocatable_w,
        floors_w: floors_w.clone(),
        ceilings_w: ceilings_w.clone(),
        grant_period_mins: config.grant_period_mins,
        hysteresis: config.hysteresis,
    });
    let mut substation = CircuitBreaker::new(feed_w, 5).with_label("substation");

    let total_mins = config.warmup_mins + config.hours * 60;
    // The control-plane fault window opens a third into measurement —
    // the hierarchy is warm, then the arbiter vanishes.
    let cp_start = SimTime::from_mins(config.warmup_mins + config.hours * 60 / 3);
    let cp_plan = FaultPlan {
        grant_loss,
        arbiter_outages: (outage_mins > 0)
            .then(|| OutageWindow {
                start: cp_start,
                end: cp_start + SimDuration::from_mins(outage_mins),
            })
            .into_iter()
            .collect(),
        ..FaultPlan::seeded(config.seed)
    };
    let mut cp = FaultInjector::new(cp_plan);

    let parent = ampere_telemetry::global();
    let mut set = ShardSet::new(&parent, rows, config.workers, |i| {
        let sub_seed = derive_subseed(config.seed, streams::SHARD, i as u64);
        let profile = row_profile(i, &spec);
        let faults = (row_fault && i == 0).then(|| FaultPlan {
            sample_dropout: config.fault_dropout,
            sensor_noise: 0.01,
            rpc_loss: 0.05,
            outages: (config.fault_outage_mins > 0)
                .then(|| OutageWindow {
                    start: cp_start,
                    end: cp_start + SimDuration::from_mins(config.fault_outage_mins),
                })
                .into_iter()
                .collect(),
            ..FaultPlan::seeded(sub_seed)
        });
        let mut tb = Testbed::new(TestbedConfig {
            spec,
            profile: profile.clone(),
            seed: sub_seed,
            tick: SimDuration::MINUTE,
            measurement_noise: 0.003,
            capping: CappingConfig {
                // Backstop-armable only: the row watchdog may
                // engage capping for a dark controller, exactly
                // as in the single-row chaos sweep.
                enabled: true,
                ..CappingConfig::default()
            },
            policy: Box::new(RandomFit::default()),
            server_classes: None,
            service_classes: None,
            freeze_policy: FreezePolicy::Uniform,
            faults,
        });
        let servers = tb.cluster().row_server_ids(RowId::new(0)).collect();
        let domain = tb.add_domain(DomainSpec {
            name: format!("row{i}"),
            servers,
            budget_w: rated * config.row_breaker_scale,
            controller: Some(default_controller()),
            capped: false,
        });
        tb.set_control_budget_w(domain, Some(static_share_w));
        RowShard {
            tb,
            domain,
            profile,
            link: GrantLink::new(GrantLinkConfig {
                static_share_w,
                floor_w: rated * config.floor_scale,
                grace_rounds: 2,
                haircut_per_round: 0.03,
                max_haircut: 0.15,
            }),
            applied_w: static_share_w,
        }
    });

    let period = config.grant_period_mins;
    let mut rounds_log: Vec<HierRoundLine> = Vec::new();
    let mut substation_violations = 0u64;
    let mut row_over_grant_ticks = 0u64;
    let mut static_share_rounds = 0u64;
    let mut done_mins = 0u64;

    while done_mins < total_mins {
        let at = SimTime::from_mins(done_mins);
        let ticks = period.min(total_mins - done_mins);
        let round = rounds_log.len() as u64;

        // --- Serial arbiter phase at the barrier. ---
        let seen = done_mins as usize;
        let backstop = substation.tripped_at().is_some();
        let health: Vec<RowHealth> = set
            .shards()
            .iter()
            .map(|s| classify(&s.tb.records(s.domain)[seen.saturating_sub(period as usize)..]))
            .collect();
        // Forecast weights from the deterministic workload shape at the
        // period midpoint — never from measured power (isolation).
        let mid = at + SimDuration::from_mins(period / 2);
        let weights: Vec<f64> = set
            .shards()
            .iter()
            .map(|s| s.profile.rate_per_min(mid))
            .collect();

        let (arbiter_up, held, reserve_w, grants_w) = if backstop {
            // Substation backstop: after a trip every row is pinned to
            // its floor for the rest of the run.
            let reserve_w = allocatable_w - floors_w.iter().sum::<f64>();
            (false, false, reserve_w, Some(floors_w.clone()))
        } else if cp.arbiter_up(at) {
            let g = arbiter.reallocate(at, &weights, &health);
            (true, g.held, g.reserve_w, Some(g.grants_w))
        } else {
            (false, false, 0.0, None)
        };
        let mut lost_rows = Vec::new();
        set.for_each_mut(|i, s| {
            s.applied_w = match &grants_w {
                Some(g) if backstop || cp.grant_delivered(at, i as u64) => s.link.deliver(g[i]),
                Some(_) => {
                    lost_rows.push(i);
                    s.link.miss()
                }
                None => s.link.miss(),
            };
            s.tb.set_control_budget_w(s.domain, Some(s.applied_w));
        });
        let shards = set.shards();
        static_share_rounds += shards
            .iter()
            .filter(|s| matches!(s.link.state(), FallbackState::StaticShare { .. }))
            .count() as u64;
        rounds_log.push(HierRoundLine {
            round,
            at_min: done_mins,
            arbiter_up,
            held,
            backstop,
            reserve_w,
            applied_w: shards.iter().map(|s| s.applied_w).collect(),
            lost_rows,
            fallback_rows: (0..rows).filter(|&i| shards[i].link.degraded()).collect(),
            pinned_rows: (0..rows).filter(|&i| health[i].pinned()).collect(),
        });

        // --- Parallel stepping phase. ---
        set.run(ticks, |s| s.tb.step());
        done_mins += ticks;

        // --- Serial substation phase: feed the shared breaker the
        // per-tick row-power sums of the period just run. Like the
        // scenario harness's breaker warm-up, commissioning transients
        // (cold rows ramping from idle) are not the breaker's job —
        // observation starts when the measured window does. ---
        for k in 0..ticks as usize {
            let minute = done_mins - ticks + k as u64;
            let mut total = 0.0;
            let mut time = at;
            let mut over_grant = false;
            for s in set.shards() {
                let r = &s.tb.records(s.domain)[seen + k];
                total += r.power_w;
                time = r.time;
                over_grant |= r.power_w > s.applied_w;
            }
            if minute >= config.warmup_mins {
                if substation.observe(time, total) {
                    substation_violations += 1;
                }
                if over_grant {
                    row_over_grant_ticks += 1;
                }
            }
        }
    }

    // Replay per-row telemetry into the parent pipeline in row order —
    // the event stream is byte-identical at any worker count.
    set.finish();
    let shards = set.shards();

    let warm = config.warmup_mins as usize;
    fn measured(s: &RowShard, warm: usize) -> &[DomainTickRecord] {
        &s.tb.records(s.domain)[warm..]
    }
    let first_row_violation_min = shards
        .iter()
        .flat_map(|s| {
            s.tb.records(s.domain)
                .iter()
                .find(|r| r.violation)
                .map(|r| r.time.as_mins())
        })
        .min();
    HierCell {
        grant_loss,
        outage_mins,
        row_fault,
        substation_tripped: substation.tripped_at().is_some(),
        substation_trip_min: substation.tripped_at().map(|t| t.as_mins()),
        substation_violations,
        row_trips: shards
            .iter()
            .filter(|s| s.tb.breaker(s.domain).tripped_at().is_some())
            .count() as u64,
        row_violations: shards
            .iter()
            .map(|s| measured(s, warm).iter().filter(|r| r.violation).count() as u64)
            .sum(),
        first_row_violation_min,
        row_over_grant_ticks,
        arbiter_down_rounds: rounds_log
            .iter()
            .filter(|r| !r.arbiter_up && !r.backstop)
            .count() as u64,
        grants_lost: rounds_log.iter().map(|r| r.lost_rows.len() as u64).sum(),
        fallback_rounds: rounds_log
            .iter()
            .map(|r| r.fallback_rows.len() as u64)
            .sum(),
        static_share_rounds,
        held_rounds: rounds_log.iter().filter(|r| r.held).count() as u64,
        pinned_rounds: rounds_log.iter().map(|r| r.pinned_rows.len() as u64).sum(),
        max_reserve_w: rounds_log.iter().map(|r| r.reserve_w).fold(0.0, f64::max),
        min_coverage: shards
            .iter()
            .flat_map(|s| measured(s, warm).iter().map(|r| r.coverage))
            .fold(1.0, f64::min),
        degraded_ticks: shards
            .iter()
            .map(|s| measured(s, warm).iter().filter(|r| r.degraded).count() as u64)
            .sum(),
        backstop_ticks: shards
            .iter()
            .map(|s| {
                measured(s, warm)
                    .iter()
                    .filter(|r| r.backstop_armed)
                    .count() as u64
            })
            .sum(),
        placed: shards
            .iter()
            .map(|s| measured(s, warm).iter().map(|r| r.placed_jobs).sum::<u64>())
            .sum(),
        throughput_ratio: 1.0,
        row_checksums: shards
            .iter()
            .map(|s| row_checksum(s.tb.records(s.domain)))
            .collect(),
        rounds: rounds_log,
    }
}

/// Runs the sweep: the full grant-loss × arbiter-outage × row-fault
/// grid, serially per cell (each cell parallelizes across its rows).
pub fn run(config: &HierConfig) -> HierResult {
    let spec = row_spec();
    let rated = spec.rated_row_power_w();
    let feed_w = rated * config.rows as f64 * config.substation_scale;
    let floors_w = vec![rated * config.floor_scale; config.rows];
    let ceilings_w = vec![rated * config.ceiling_scale; config.rows];

    // The guaranteed (floor) partition must fit the feed statically —
    // checked through the same hierarchy model the provisioning path
    // uses, so a bad sweep config fails loudly before simulating.
    let tree = PowerNode::over(
        "substation",
        feed_w,
        floors_w
            .iter()
            .enumerate()
            .map(|(i, &f)| PowerNode::leaf(format!("row{i}"), f))
            .collect(),
    );
    let errors = tree.validate();
    assert!(
        errors.is_empty(),
        "floor partition over-commits the feed: {errors:?}"
    );

    let mut cells: Vec<HierCell> = Vec::new();
    for &row_fault in &config.row_faults {
        for &outage in &config.outage_mins {
            for &loss in &config.grant_loss {
                cells.push(run_cell(config, rated, loss, outage, row_fault));
            }
        }
    }
    let baseline_placed = cells
        .iter()
        .find(|c| c.grant_loss == 0.0 && c.outage_mins == 0 && !c.row_fault)
        .map_or(0, |c| c.placed);
    for cell in &mut cells {
        if baseline_placed > 0 {
            cell.throughput_ratio = cell.placed as f64 / baseline_placed as f64;
        }
    }
    HierResult {
        cells,
        baseline_placed,
        rows: config.rows,
        feed_w,
        allocatable_w: feed_w * config.control_margin,
        oversubscription: rated * config.rows as f64 / feed_w,
        floors_w,
        ceilings_w,
        grant_period_mins: config.grant_period_mins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HierConfig {
        // A trimmed grid for the unit tests; the full quick grid runs
        // in the repro binary and the integration gate.
        HierConfig {
            hours: 1,
            warmup_mins: 30,
            ..HierConfig::quick()
        }
    }

    #[test]
    fn clean_cell_allocates_everything_and_stays_safe() {
        let r = run(&HierConfig {
            grant_loss: vec![0.0],
            outage_mins: vec![0],
            row_faults: vec![false],
            ..tiny()
        });
        assert!(r.oversubscription > 1.0, "feed must be oversubscribed");
        let c = &r.cells[0];
        assert!(!c.substation_tripped && c.row_trips == 0);
        assert_eq!(c.arbiter_down_rounds, 0);
        assert_eq!(c.grants_lost, 0);
        assert_eq!(c.fallback_rounds, 0);
        assert_eq!(c.pinned_rounds, 0);
        // Skewed diurnal rows: the arbiter must actually move budget at
        // some point (not every round held).
        let held = c.rounds.iter().filter(|x| x.held).count();
        assert!(held < c.rounds.len(), "hysteresis held every round");
        // Every round conserves the allocatable budget.
        for round in &c.rounds {
            let sum: f64 = round.applied_w.iter().sum();
            assert!(
                sum <= r.allocatable_w + 1e-6,
                "round {} over-allocated: {sum}",
                round.round
            );
            for (w, f) in round.applied_w.iter().zip(&r.floors_w) {
                assert!(w >= f);
            }
        }
    }

    #[test]
    fn sibling_isolation_is_bit_exact() {
        let config = HierConfig {
            grant_loss: vec![0.0],
            outage_mins: vec![0],
            row_faults: vec![false, true],
            ..tiny()
        };
        let r = run(&config);
        assert_eq!(r.record(&config, 0.0).isolation_recomputed(), Some(true));
        let faulted = r.cell(0.0, 0, true).unwrap();
        // The faulted row itself must have diverged (pinned rounds and
        // degraded ticks prove the fault actually landed).
        let clean = r.cell(0.0, 0, false).unwrap();
        assert_ne!(clean.row_checksums[0], faulted.row_checksums[0]);
        assert!(faulted.pinned_rounds > 0, "row fault never pinned row 0");
        assert!(faulted.min_coverage < 0.9);
        assert!(faulted.max_reserve_w > 0.0, "pinned surplus not reserved");
    }

    #[test]
    fn isolation_fails_on_mismatched_or_missing_rows() {
        let config = HierConfig {
            grant_loss: vec![0.0],
            outage_mins: vec![0],
            row_faults: vec![false, true],
            ..tiny()
        };
        let mut r = run(&config);
        let isolated = |r: &HierResult| r.record(&config, 0.0).isolation_recomputed();
        assert_eq!(isolated(&r), Some(true));
        // A faulted cell that lost a healthy row must not pass as
        // isolated, even though the rows both cells report agree.
        let faulted = r.cells.iter_mut().find(|c| c.row_fault).unwrap();
        faulted.row_checksums.pop();
        assert_eq!(isolated(&r), Some(false));
        // Neither cell reporting any row is no evidence of isolation.
        for c in &mut r.cells {
            c.row_checksums.clear();
        }
        assert_eq!(isolated(&r), Some(false));
    }

    #[test]
    fn arbiter_faults_ride_the_fallback_ladder() {
        let config = HierConfig {
            grant_loss: vec![0.0, 0.4],
            outage_mins: vec![0, 20],
            row_faults: vec![false],
            ..tiny()
        };
        let r = run(&config);
        assert!(
            r.record(&config, 0.0).zero_trips_recomputed(),
            "a breaker tripped under control-plane faults"
        );
        let lossy = r.cell(0.4, 0, false).unwrap();
        assert!(lossy.grants_lost > 0, "grant loss never sampled");
        assert!(
            lossy.fallback_rounds > 0,
            "lost grants never hit the ladder"
        );
        let dark = r.cell(0.0, 20, false).unwrap();
        assert!(
            dark.arbiter_down_rounds > 0,
            "outage never downed the arbiter"
        );
        assert!(dark.fallback_rounds >= dark.arbiter_down_rounds);
        for c in &r.cells {
            assert!(substation_trip_explained(c));
        }
    }

    #[test]
    fn tiny_bench_serializes_and_gates() {
        use ampere_obs::BenchDump;
        use ampere_telemetry::Capture;

        let config = HierConfig {
            rows: 3,
            hours: 1,
            warmup_mins: 30,
            grant_loss: vec![0.0, 0.3],
            outage_mins: vec![0],
            row_faults: vec![false, true],
            workers: 2,
            ..HierConfig::quick()
        };
        let r = Capture::standalone().with(|| run(&config).record(&config, 0.0));
        assert!(r.has_isolation_axis);
        assert!(
            r.gates().iter().all(|g| g.pass),
            "tiny grid failed a gate:\n{}",
            r.to_markdown()
        );
        assert_eq!(r.cells.len(), 4);
        assert!(r.cells.iter().all(|c| !c.rounds.is_empty()));

        let jsonl = r.encode();
        let rounds: usize = r.cells.iter().map(|c| c.rounds.len()).sum();
        assert_eq!(jsonl.lines().count(), 1 + r.cells.len() + rounds);
        let decoded = HierRun::decode(&jsonl).expect("dump decodes");
        assert_eq!(decoded.gates(), r.gates());
        assert_eq!(decoded.encode(), jsonl);

        // The dump must be byte-identical at a different worker count,
        // header aside.
        let serial_config = HierConfig {
            workers: 1,
            ..config
        };
        let serial = Capture::standalone().with(|| run(&serial_config).record(&serial_config, 0.0));
        let body = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(body(&jsonl), body(&serial.encode()));
    }

    #[test]
    fn workers_do_not_change_results() {
        let run_with = |workers: usize| {
            run(&HierConfig {
                grant_loss: vec![0.3],
                outage_mins: vec![15],
                row_faults: vec![true],
                workers,
                ..tiny()
            })
        };
        let serial = run_with(1);
        let parallel = run_with(4);
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.row_checksums, b.row_checksums);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.placed, b.placed);
            assert_eq!(a.substation_violations, b.substation_violations);
        }
    }
}
