//! Running one scenario and evaluating the invariant registry.
//!
//! The runner builds a [`Testbed`] from the scenario (one controlled
//! domain per row, capping present but only armable by the watchdog
//! backstop — the chaos-suite configuration), executes it under a
//! telemetry [`Capture`] so the invariant checker can observe the full
//! event stream even when the process has no global pipeline, and then
//! evaluates every invariant in the registry. When determinism checking
//! is on, the whole run repeats and the two byte-digests must match.

use ampere_arbiter::{ArbiterConfig, BudgetArbiter, RowHealth};
use ampere_cluster::{RowId, ServiceClass};
use ampere_experiments::testbed::{DomainTickRecord, Testbed, TestbedConfig};
use ampere_experiments::{DomainSpec, WindowStats};
use ampere_sched::FreezePolicy;
use ampere_sim::{Fnv, SimDuration};
use ampere_telemetry::fanin::{replay_into, Capture};
use ampere_telemetry::Event;
use ampere_watch::{WatchConfig, WatchEngine, DEFAULT_HEADROOM_MIN};

use crate::invariant::{InvariantKind, Violation};
use crate::scenario::Scenario;

/// Test-only planted defects, switchable from the environment so a
/// printed repro command can re-arm the same bug in a fresh process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// Flips the sign of the controller-vs-breaker provisioning margin:
    /// the controller regulates against `budget · (1 + margin)` instead
    /// of `budget · (1 − margin)`, so it happily holds power *above*
    /// the breaker limit — the classic mis-signed safety margin.
    BreakerMarginMisSign,
    /// Inverts the selective freeze selector's class priority:
    /// interactive servers freeze *first* and batch last — the exact
    /// ordering bug the `sla-protection` invariant exists to catch.
    SlaOrderingInversion,
}

/// Environment variable the repro command uses to re-arm a bug.
pub const BUG_ENV: &str = "AMPERE_SCENARIO_BUG";

impl InjectedBug {
    /// The value `AMPERE_SCENARIO_BUG` takes for this bug.
    pub fn env_value(self) -> &'static str {
        match self {
            InjectedBug::BreakerMarginMisSign => "breaker-margin-sign",
            InjectedBug::SlaOrderingInversion => "sla-ordering",
        }
    }

    /// Parses an `AMPERE_SCENARIO_BUG` value.
    pub fn from_env_value(value: &str) -> Option<InjectedBug> {
        match value {
            "breaker-margin-sign" => Some(InjectedBug::BreakerMarginMisSign),
            "sla-ordering" => Some(InjectedBug::SlaOrderingInversion),
            _ => None,
        }
    }

    /// Reads the bug switch from the process environment.
    pub fn from_env() -> Option<InjectedBug> {
        std::env::var(BUG_ENV)
            .ok()
            .as_deref()
            .and_then(InjectedBug::from_env_value)
    }
}

/// How to run a scenario.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Run twice and require byte-identical digests (invariant 5).
    /// The shrinker turns this off unless determinism itself failed.
    pub check_determinism: bool,
    /// Planted defect, if any.
    pub bug: Option<InjectedBug>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            check_determinism: true,
            bug: None,
        }
    }
}

/// Aggregate statistics of one run (for reports and margin tracking).
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Ticks simulated.
    pub ticks: u64,
    /// Fleet size.
    pub servers: usize,
    /// The domains' records as one window: breaker violations,
    /// degraded and backstop ticks (domain-ticks) and jobs placed.
    pub window: WindowStats,
    /// Smallest normalized breaker headroom seen on any domain tick:
    /// `1 − power/budget` (negative while over budget).
    pub min_margin: f64,
    /// Largest frozen-server count seen fleet-wide in one tick.
    pub max_frozen: usize,
}

/// The verdict on one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Every invariant violation found (empty = pass).
    pub violations: Vec<Violation>,
    /// FNV-1a digest over all domain records and telemetry bytes.
    pub digest: u64,
    /// Aggregates.
    pub stats: RunStats,
}

impl ScenarioOutcome {
    /// Whether the run satisfied every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The distinct invariant kinds violated, in registry order.
    pub fn violated_kinds(&self) -> Vec<InvariantKind> {
        InvariantKind::ALL
            .into_iter()
            .filter(|k| self.violations.iter().any(|v| v.invariant == *k))
            .collect()
    }
}

/// Cold-start grace for the breaker-safety invariant, in ticks. The
/// workload floods an idle cluster at t = 0; power can cross the budget
/// during that ramp faster than frozen-server decay (Fig 4) can answer,
/// tripping the 5-minute fuse with a perfectly healthy controller. A
/// real deployment's controller runs from before demand builds, so
/// would-trip windows are only charged to the controller after the
/// ramp has settled.
pub const BREAKER_WARMUP_TICKS: u64 = 30;

/// Consecutive violation minutes that trip the breaker (the testbed's
/// `CircuitBreaker::new(budget, 5)`).
const TRIP_CONSECUTIVE: u64 = 5;

/// Raw material one simulation pass produces for the checker.
struct RawRun {
    /// Per-domain tick records.
    records: Vec<Vec<DomainTickRecord>>,
    /// Per-domain final sum of member-server measurements, in watts.
    final_measured_w: Vec<f64>,
    /// Every telemetry event the run emitted, in order.
    events: Vec<Event>,
    /// Digest over records + serialized events.
    digest: u64,
}

/// Runs a scenario and evaluates the invariant registry.
pub fn run_scenario(scenario: &Scenario, opts: &RunOptions) -> ScenarioOutcome {
    // The primary pass replays its telemetry into the ambient pipeline
    // (so batches keep the byte-determinism contract); the determinism
    // re-run stays silent — its events exist only to be digested.
    let primary = run_once(scenario, opts.bug, true);
    let stats = stats_of(scenario, &primary);
    // Invariant evaluation is a profiled tick phase: inert unless the
    // ambient pipeline enabled profiling.
    let profiler = ampere_telemetry::PhaseProfiler::new(&ampere_telemetry::global());
    let mut violations = {
        let _phase = profiler.phase(ampere_telemetry::TickPhase::InvariantCheck);
        let mut v = evaluate(scenario, &primary);
        // 6. alert-quiet only means anything when 1–4 already hold.
        if v.is_empty() {
            v.extend(alert_quiet(scenario, &primary, &stats));
        }
        v
    };
    if opts.check_determinism {
        let rerun = run_once(scenario, opts.bug, false);
        if rerun.digest != primary.digest {
            violations.push(Violation {
                invariant: InvariantKind::Determinism,
                tick: None,
                detail: format!(
                    "same seed diverged: digest {:016x} vs {:016x}",
                    primary.digest, rerun.digest
                ),
            });
        }
    }
    violations.sort_by_key(|v| (v.invariant, v.tick));
    ScenarioOutcome {
        scenario: scenario.clone(),
        violations,
        digest: primary.digest,
        stats,
    }
}

/// One simulation pass under a telemetry capture.
fn run_once(scenario: &Scenario, bug: Option<InjectedBug>, replay: bool) -> RawRun {
    // Always a standalone capture, never one under the ambient
    // pipeline (a disabled one gives no capture at all): the digest
    // must cover the same bytes whatever pipeline is in scope, or none,
    // or the same seed would "diverge" between the CLI and the test
    // harness.
    let parent = ampere_telemetry::global();
    let capture = Capture::standalone();
    let (records, final_measured_w) = capture.with(|| simulate(scenario, bug));
    let captured = capture.finish();
    let events = captured.events.clone();
    if replay {
        replay_into(&parent, captured);
    }

    let mut digest = Fnv::new();
    for domain in &records {
        for r in domain {
            digest_record(&mut digest, r);
        }
    }
    for e in &events {
        digest.bytes(e.to_json().as_bytes());
        digest.bytes(b"\n");
    }
    RawRun {
        records,
        final_measured_w,
        events,
        digest: digest.finish(),
    }
}

/// Builds the testbed and runs the scenario's tick loop.
fn simulate(
    scenario: &Scenario,
    bug: Option<InjectedBug>,
) -> (Vec<Vec<DomainTickRecord>>, Vec<f64>) {
    let spec = scenario.cluster_spec();
    // RAPL is present but not armed up front: only the watchdog
    // backstop may engage it (the §3.2 last line of defense).
    let config = TestbedConfig {
        spec,
        tick: scenario.tick(),
        service_classes: scenario.service_classes(),
        freeze_policy: if scenario.service_mix.is_some() {
            FreezePolicy::Selective
        } else {
            FreezePolicy::Uniform
        },
        faults: scenario.fault_plan(),
        ..TestbedConfig::paper_row(scenario.profile(), scenario.seed)
    };
    let mut tb = Testbed::new(config);
    if bug == Some(InjectedBug::SlaOrderingInversion) {
        // Only bites on scenarios with a service-mix axis — the
        // selector is never consulted under the uniform policy.
        tb.set_selector_inverted(true);
    }

    let budget_w = scenario.domain_budget_w();
    // The provisioning margin between control plane and breaker: a
    // correct deployment gives the controller *less* than the breaker
    // allows; the planted bug flips the sign.
    let margin_sign = match bug {
        Some(InjectedBug::BreakerMarginMisSign) => 1.0,
        _ => -1.0,
    };
    let control_budget_w = budget_w * (1.0 + margin_sign * scenario.control.margin);

    let domains: Vec<_> = (0..spec.rows)
        .map(|r| {
            let servers = tb.cluster().row_server_ids(RowId::new(r as u64)).collect();
            let id = tb.add_domain(DomainSpec {
                name: format!("row{r}"),
                servers,
                budget_w,
                controller: Some(scenario.controller()),
                capped: false,
            });
            tb.set_control_budget_w(id, Some(control_budget_w));
            id
        })
        .collect();

    match scenario.budget {
        None => tb.run_for(SimDuration::from_mins(scenario.ticks)),
        Some(axis) => {
            // One substation budget split across the rows by the
            // arbiter's water-fill: ceilings at the row's solo control
            // budget, so the arbitrated run is never *looser* than the
            // non-arbitrated one — only the split varies with the
            // forecast skew and each row's own health.
            let substation_w = spec.rows as f64 * control_budget_w * axis.substation_scale;
            let floor_w = axis.floor_scale * substation_w / spec.rows as f64;
            let mut arbiter = BudgetArbiter::try_with_telemetry(
                ArbiterConfig {
                    substation_budget_w: substation_w,
                    floors_w: vec![floor_w; spec.rows],
                    ceilings_w: vec![control_budget_w; spec.rows],
                    grant_period_mins: axis.grant_period,
                    hysteresis: axis.hysteresis,
                },
                ampere_telemetry::global(),
            )
            .expect("generated axis ranges always validate");
            let weights = scenario.row_weights();
            for t in 0..scenario.ticks {
                if t % axis.grant_period == 0 {
                    // Health from each row's own records only — the
                    // isolation contract (DESIGN §13).
                    let health: Vec<RowHealth> = domains
                        .iter()
                        .map(|&d| match tb.records(d).last() {
                            Some(r) if r.backstop_armed => RowHealth::Dark,
                            Some(r) if r.degraded => RowHealth::Degraded,
                            _ => RowHealth::Healthy,
                        })
                        .collect();
                    let round = arbiter.reallocate(tb.now(), &weights, &health);
                    for (i, &d) in domains.iter().enumerate() {
                        tb.set_control_budget_w(d, Some(round.grants_w[i]));
                    }
                }
                tb.step();
            }
        }
    }

    let records = domains.iter().map(|&d| tb.records(d).to_vec()).collect();
    let measured = domains
        .iter()
        .map(|&d| {
            tb.domain_servers(d)
                .iter()
                .map(|&s| tb.measured_server_w(s))
                .sum()
        })
        .collect();
    (records, measured)
}

/// Evaluates invariants 1–4 against one pass.
fn evaluate(scenario: &Scenario, run: &RawRun) -> Vec<Violation> {
    let mut out = Vec::new();
    let model = scenario.cluster_spec().power_model;
    let per_domain = scenario.racks_per_row * scenario.servers_per_rack;
    let fleet = scenario.server_count();
    let budget_w = scenario.domain_budget_w();
    // Envelope slack: 0.3 % relative measurement noise, checked ~5σ out
    // plus a little, so a false positive is effectively impossible.
    let slack = 0.05;
    let ceiling_w = per_domain as f64 * model.rated_w * (1.0 + slack);
    let floor_w = per_domain as f64 * model.rated_w * model.idle_fraction * (1.0 - slack);

    // Outage grace: trips inside the outage or within two ticks after
    // it are the fault plan's doing, not the controller's.
    let outage_grace = scenario
        .faults
        .outage
        .map(|(start, len)| (start, start + len + 2));

    for (d, records) in run.records.iter().enumerate() {
        // 1. breaker-safety: scan for a *would-trip* window — 5
        // consecutive violation minutes, every one of them past the
        // cold-start warmup and with the controller healthy (not
        // degraded, no backstop armed, outside outage grace) *and
        // unpinned*. Unpinned matters: the control law is proportional,
        // `u = clamp((p + Et − 1)/kr, 0, u_max)`, and with the
        // generator's ranges (Et ≥ 0.05, kr ≤ 0.075) any healthy
        // over-budget tick forces `u_target = u_max` — the controller
        // has already demanded maximum shedding, and a trip then means
        // the drawn budget sits below the fleet's physical floor
        // (demand the freezing knob cannot shed), which is the breaker
        // doing its job, not a control failure. A controller that lets
        // power past the breaker *while asking for less than u_max* —
        // exactly what the mis-signed margin bug produces — is charged.
        // Scanning the records instead of asking the breaker catches
        // repeat would-trips after the sticky `tripped_at`, and lets
        // the warmup ramp be excused without resetting breaker state.
        let mut streak = 0u64;
        for r in records {
            let m = r.time.as_millis() / 60_000;
            let in_outage = outage_grace.is_some_and(|(s, e)| m >= s && m <= e);
            let pinned = r.u_target >= scenario.control.u_max - 1e-9;
            let charged = r.violation
                && m > BREAKER_WARMUP_TICKS
                && !r.degraded
                && !r.backstop_armed
                && !in_outage
                && !pinned;
            streak = if charged { streak + 1 } else { 0 };
            if streak == TRIP_CONSECUTIVE {
                out.push(Violation {
                    invariant: InvariantKind::BreakerSafety,
                    tick: Some(m),
                    detail: format!(
                        "domain {d}: {TRIP_CONSECUTIVE} consecutive over-budget minutes \
                         with the controller healthy and below u_max — the breaker trips here"
                    ),
                });
                break;
            }
        }

        for r in records {
            let tick = r.time.as_millis() / 60_000;
            // 2. frozen-bounds.
            if r.frozen > per_domain {
                out.push(Violation {
                    invariant: InvariantKind::FrozenBounds,
                    tick: Some(tick),
                    detail: format!("domain {d}: {} frozen of {per_domain} servers", r.frozen),
                });
            }
            if !(0.0..=1.0 + 1e-12).contains(&r.freezing_ratio) {
                out.push(Violation {
                    invariant: InvariantKind::FrozenBounds,
                    tick: Some(tick),
                    detail: format!("domain {d}: freezing ratio {}", r.freezing_ratio),
                });
            }
            if r.u_target > scenario.control.u_max + 1e-9 {
                out.push(Violation {
                    invariant: InvariantKind::FrozenBounds,
                    tick: Some(tick),
                    detail: format!(
                        "domain {d}: u_target {} above u_max {}",
                        r.u_target, scenario.control.u_max
                    ),
                });
            }
            // 3. power-conservation: envelope + self-consistency.
            if !(floor_w..=ceiling_w).contains(&r.power_w) {
                out.push(Violation {
                    invariant: InvariantKind::PowerConservation,
                    tick: Some(tick),
                    detail: format!(
                        "domain {d}: power {:.1} W outside [{:.1}, {:.1}]",
                        r.power_w, floor_w, ceiling_w
                    ),
                });
            }
            if (r.power_norm * budget_w - r.power_w).abs() > 1e-6 * budget_w {
                out.push(Violation {
                    invariant: InvariantKind::PowerConservation,
                    tick: Some(tick),
                    detail: format!(
                        "domain {d}: power_norm {} disagrees with power {:.3} W / budget {:.3} W",
                        r.power_norm, r.power_w, budget_w
                    ),
                });
            }
        }

        // 3. power-conservation: the final domain record must equal the
        // sum of its member servers' last measurements — domain
        // aggregation conserves server-level power.
        if let Some(last) = records.last() {
            let measured = run.final_measured_w[d];
            if (measured - last.power_w).abs() > 1e-6 * budget_w {
                out.push(Violation {
                    invariant: InvariantKind::PowerConservation,
                    tick: Some(last.time.as_millis() / 60_000),
                    detail: format!(
                        "domain {d}: record {:.6} W vs server sum {:.6} W",
                        last.power_w, measured
                    ),
                });
            }
        }
    }

    // 4. freeze-accounting, from the telemetry stream.
    let mut balance: i64 = 0;
    for e in &run.events {
        if e.component != "scheduler" {
            continue;
        }
        match e.name {
            "freeze" => balance += 1,
            "unfreeze" => balance -= 1,
            _ => continue,
        }
        if balance < 0 || balance > fleet as i64 {
            out.push(Violation {
                invariant: InvariantKind::FreezeAccounting,
                tick: Some(e.sim_time.as_millis() / 60_000),
                detail: format!("freeze balance {balance} outside [0, {fleet}]"),
            });
            break;
        }
    }
    let final_frozen: usize = run
        .records
        .iter()
        .filter_map(|rs| rs.last().map(|r| r.frozen))
        .sum();
    if balance >= 0 && balance != final_frozen as i64 {
        out.push(Violation {
            invariant: InvariantKind::FreezeAccounting,
            tick: None,
            detail: format!(
                "event balance {balance} but {final_frozen} servers frozen at end of run"
            ),
        });
    }

    // 7. budget-conservation, from the arbiter's round telemetry.
    out.extend(budget_conservation(&run.events));

    // 8. sla-protection, from the scheduler's freeze/unfreeze stream.
    out.extend(sla_protection(scenario, &run.events));

    out
}

/// Invariant 8: on service-mix scenarios, replays the scheduler's
/// freeze/unfreeze events into a frozen-set model and checks batch-first
/// ordering at the end of every tick that moved it: no interactive
/// server frozen while an unfrozen batch server remains in the same
/// row. End-of-tick, not per-event — within one tick the selector's
/// action lists are applied in ascending id order, so intermediate
/// states are not meaningful. Skipped when the fault axis loses RPCs
/// (a lost batch-freeze call legitimately leaves a state the next
/// decision interval has not yet repaired), and vacuously true without
/// the axis.
fn sla_protection(scenario: &Scenario, events: &[Event]) -> Vec<Violation> {
    let Some(classes) = scenario.service_classes() else {
        return Vec::new();
    };
    if scenario.faults.rpc_loss > 0.0 {
        return Vec::new();
    }
    let per_row = scenario.racks_per_row * scenario.servers_per_rack;
    let fleet = scenario.server_count();
    let mut frozen = vec![false; fleet];
    let mut out = Vec::new();
    let check = |frozen: &[bool], tick: u64, out: &mut Vec<Violation>| -> bool {
        for row in 0..scenario.rows {
            let range = row * per_row..(row + 1) * per_row;
            let bad_interactive = range
                .clone()
                .find(|&i| frozen[i] && classes[i] == ServiceClass::Interactive);
            let idle_batch = range
                .clone()
                .find(|&i| !frozen[i] && classes[i] == ServiceClass::Batch);
            if let (Some(i), Some(b)) = (bad_interactive, idle_batch) {
                out.push(Violation {
                    invariant: InvariantKind::SlaProtection,
                    tick: Some(tick),
                    detail: format!(
                        "row {row}: interactive server {i} frozen while batch server {b} \
                         is not — the selective policy must exhaust batch first"
                    ),
                });
                return true;
            }
        }
        false
    };
    let mut open_tick: Option<u64> = None;
    for e in events {
        if e.component != "scheduler" || (e.name != "freeze" && e.name != "unfreeze") {
            continue;
        }
        let Some(id) = e.field("server").and_then(|v| v.as_u64()) else {
            continue;
        };
        let tick = e.sim_time.as_millis() / 60_000;
        if let Some(prev) = open_tick {
            if prev != tick && check(&frozen, prev, &mut out) {
                return out;
            }
        }
        open_tick = Some(tick);
        if (id as usize) < fleet {
            frozen[id as usize] = e.name == "freeze";
        }
    }
    if let Some(prev) = open_tick {
        check(&frozen, prev, &mut out);
    }
    out
}

/// Invariant 7: every `arbiter/reallocate` round's grants sum to at
/// most the substation budget, and no grant falls below its row floor.
/// Vacuously true on runs without an arbiter (no events to check).
fn budget_conservation(events: &[Event]) -> Vec<Violation> {
    let mut out = Vec::new();
    // (budget_w, Σ grants so far, round tick) of the open round.
    let mut open: Option<(f64, f64, u64)> = None;
    let num = |e: &Event, key: &str| e.field(key).and_then(|v| v.as_f64());
    let close = |out: &mut Vec<Violation>, (budget, sum, tick): (f64, f64, u64)| {
        if sum > budget * (1.0 + 1e-9) + 1e-6 {
            out.push(Violation {
                invariant: InvariantKind::BudgetConservation,
                tick: Some(tick),
                detail: format!("granted {sum:.3} W exceeds the {budget:.3} W substation budget"),
            });
        }
    };
    for e in events {
        if e.component != "arbiter" {
            continue;
        }
        let tick = e.sim_time.as_millis() / 60_000;
        match e.name {
            "reallocate" => {
                if let Some(round) = open.take() {
                    close(&mut out, round);
                }
                if let Some(budget) = num(e, "budget_w") {
                    open = Some((budget, 0.0, tick));
                }
            }
            "grant" => {
                let (Some(grant), Some(floor)) = (num(e, "budget_w"), num(e, "floor_w")) else {
                    continue;
                };
                if grant < floor - 1e-6 {
                    out.push(Violation {
                        invariant: InvariantKind::BudgetConservation,
                        tick: Some(tick),
                        detail: format!(
                            "row {} granted {grant:.3} W below its {floor:.3} W floor",
                            e.field("row").and_then(|v| v.as_u64()).unwrap_or(u64::MAX)
                        ),
                    });
                }
                if let Some(round) = open.as_mut() {
                    round.1 += grant;
                }
            }
            _ => {}
        }
    }
    if let Some(round) = open {
        close(&mut out, round);
    }
    out
}

/// Extra breaker margin, beyond `Et` plus the headroom-low clear level,
/// a run must keep everywhere before the alert-quiet invariant charges
/// a firing. The watch engine's headroom gauge is the breaker margin
/// minus `Et`; holding it above the clear level by this slack puts the
/// whole run outside every default rule's hysteresis band, with room
/// for the 0.3 % measurement noise.
pub const QUIET_MARGIN_SLACK: f64 = 0.02;

/// Whether a run was calm enough that the default alert table is
/// *provably* obliged to stay silent: no injected faults, zero breaker
/// violation minutes, never degraded, backstop never armed, and the
/// worst breaker margin at least `Et + clear level + slack`. Under
/// those conditions no freezing happens (the proportional law's error
/// term stays negative), so churn, violation-streak, burn-rate and
/// headroom gauges all sit strictly on the quiet side of their
/// thresholds — any firing is rule noise, not signal.
pub fn provably_quiet(scenario: &Scenario, stats: &RunStats) -> bool {
    // A budget axis can legitimately grant a row less than the breaker
    // allows, so the "wide breaker margin ⇒ no freezing" implication
    // the quiet proof rests on does not hold under arbitration.
    scenario.budget.is_none()
        && scenario.faults.is_noop()
        && stats.window.breaker_violations == 0
        && stats.window.degraded_ticks == 0
        && stats.window.backstop_ticks == 0
        && stats.min_margin >= scenario.control.et + DEFAULT_HEADROOM_MIN + QUIET_MARGIN_SLACK
}

/// Invariant 6: replays the pass's telemetry through a default-config
/// [`WatchEngine`] and charges every rule firing — but only when
/// [`provably_quiet`] holds, so legitimate pages on stressed runs are
/// never misfiled as invariant violations.
fn alert_quiet(scenario: &Scenario, run: &RawRun, stats: &RunStats) -> Vec<Violation> {
    if !provably_quiet(scenario, stats) {
        return Vec::new();
    }
    let mut engine = WatchEngine::new(WatchConfig::default());
    for e in &run.events {
        engine.observe(e);
    }
    let report = engine.finish();
    report
        .alerts
        .iter()
        .filter(|a| a.state == "fire")
        .map(|a| Violation {
            invariant: InvariantKind::AlertQuiet,
            tick: Some(a.time.as_millis() / 60_000),
            detail: format!(
                "rule {} fired (value {:.3}) in a provably calm run \
                 (min breaker margin {:.3}, zero violations/degraded/backstop, no faults)",
                a.rule, a.value, stats.min_margin
            ),
        })
        .collect()
}

fn stats_of(scenario: &Scenario, run: &RawRun) -> RunStats {
    let budget_w = scenario.domain_budget_w();
    let ticks = run.records.first().map_or(0, |r| r.len() as u64);
    let max_frozen = (0..ticks as usize)
        .map(|t| run.records.iter().map(|rs| rs[t].frozen).sum())
        .max()
        .unwrap_or(0);
    let w = WindowStats::of_all(run.records.iter().map(Vec::as_slice), budget_w);
    RunStats {
        ticks,
        servers: scenario.server_count(),
        // The margin of the peak tick; 1.0 when nothing was measured.
        min_margin: if w.ticks == 0 {
            1.0
        } else {
            1.0 - w.peak_w / budget_w
        },
        max_frozen,
        window: w,
    }
}

/// Folds every field of a tick record into `h` as little-endian bytes,
/// bit-exact.
fn digest_record(h: &mut Fnv, r: &DomainTickRecord) {
    for v in [
        r.time.as_millis(),
        r.power_w.to_bits(),
        r.power_norm.to_bits(),
        r.frozen as u64,
        r.freezing_ratio.to_bits(),
        r.u_target.to_bits(),
        u64::from(r.violation),
        r.capped_servers as u64,
        r.mean_freq.to_bits(),
        r.placed_jobs,
        r.froze as u64,
        r.unfroze as u64,
        r.coverage.to_bits(),
        u64::from(r.degraded),
        u64::from(r.backstop_armed),
    ] {
        h.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bug_env_values_round_trip() {
        for bug in [
            InjectedBug::BreakerMarginMisSign,
            InjectedBug::SlaOrderingInversion,
        ] {
            assert_eq!(InjectedBug::from_env_value(bug.env_value()), Some(bug));
        }
        assert_eq!(InjectedBug::from_env_value("no-such-bug"), None);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::new();
        a.bytes(b"ab");
        let mut b = Fnv::new();
        b.bytes(b"ba");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn calm_scenario_engages_the_alert_quiet_invariant() {
        use crate::scenario::{ControlAxis, FaultAxis, WorkloadAxis, WorkloadKind};
        // A fault-free scenario with an over-provisioned breaker
        // (budget above rated row power, so the margin is structural —
        // a small fleet saturates near rated under any arrival rate):
        // the alert-quiet precondition must actually engage (not pass
        // vacuously) and the default rule table must stay silent.
        let scenario = Scenario {
            seed: 1,
            ticks: 90,
            rows: 1,
            racks_per_row: 2,
            servers_per_rack: 6,
            workload: WorkloadAxis {
                kind: WorkloadKind::Light,
                rate_scale: 0.6,
                amplitude: 0.1,
            },
            control: ControlAxis {
                budget_scale: 1.2,
                et: 0.06,
                kr_scale: 1.0,
                u_max: 0.55,
                margin: 0.10,
            },
            faults: FaultAxis::none(),
            budget: None,
            service_mix: None,
        };
        let outcome = run_scenario(&scenario, &RunOptions::default());
        assert!(
            provably_quiet(&scenario, &outcome.stats),
            "precondition should hold: {:?}",
            outcome.stats
        );
        assert!(
            outcome.passed(),
            "calm run violated: {:?}",
            outcome.violations
        );
    }

    #[test]
    fn budget_axis_runs_arbitrate_and_conserve() {
        use crate::scenario::{BudgetAxis, ControlAxis, FaultAxis, WorkloadAxis, WorkloadKind};
        let scenario = Scenario {
            seed: 5,
            ticks: 60,
            rows: 2,
            racks_per_row: 1,
            servers_per_rack: 6,
            workload: WorkloadAxis {
                kind: WorkloadKind::Light,
                rate_scale: 0.8,
                amplitude: 0.2,
            },
            control: ControlAxis {
                budget_scale: 0.95,
                et: 0.06,
                kr_scale: 1.0,
                u_max: 0.55,
                margin: 0.10,
            },
            faults: FaultAxis::none(),
            budget: Some(BudgetAxis {
                substation_scale: 0.90,
                skew: 0.4,
                floor_scale: 0.65,
                grant_period: 10,
                hysteresis: 0.02,
            }),
            service_mix: None,
        };
        let outcome = run_scenario(&scenario, &RunOptions::default());
        assert!(
            outcome.passed(),
            "budget run violated: {:?}",
            outcome.violations
        );
        // Not vacuous: the arbiter actually reallocated (6 rounds over
        // 60 ticks at period 10), which the determinism re-run also
        // digested — the events are part of the byte contract.
        let again = run_scenario(&scenario, &RunOptions::default());
        assert_eq!(outcome.digest, again.digest);
    }

    #[test]
    fn budget_conservation_charges_over_grants_and_floor_breaks() {
        use ampere_sim::SimTime;
        use ampere_telemetry::Severity;
        let reallocate = |min: u64, budget: f64| {
            Event::new(
                SimTime::from_mins(min),
                Severity::Info,
                "arbiter",
                "reallocate",
            )
            .with("round", min)
            .with("budget_w", budget)
            .with("reserve_w", 0.0)
            .with("held", false)
            .with("pinned", 0u64)
        };
        let grant = |min: u64, row: u64, w: f64, floor: f64| {
            Event::new(SimTime::from_mins(min), Severity::Info, "arbiter", "grant")
                .with("round", min)
                .with("row", row)
                .with("budget_w", w)
                .with("nominal_w", w)
                .with("floor_w", floor)
                .with("pinned", false)
        };
        // A clean round, an over-granted round, a floor-breaking grant.
        let events = vec![
            reallocate(0, 1000.0),
            grant(0, 0, 600.0, 300.0),
            grant(0, 1, 400.0, 300.0),
            reallocate(10, 1000.0),
            grant(10, 0, 700.0, 300.0),
            grant(10, 1, 400.0, 300.0),
            reallocate(20, 1000.0),
            grant(20, 0, 299.0, 300.0),
            grant(20, 1, 400.0, 300.0),
        ];
        let violations = budget_conservation(&events);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations
            .iter()
            .all(|v| v.invariant == InvariantKind::BudgetConservation));
        assert!(violations.iter().any(|v| v.tick == Some(10)));
        assert!(violations.iter().any(|v| v.tick == Some(20)));
        assert!(budget_conservation(&[]).is_empty());
    }

    #[test]
    fn small_scenario_runs_clean_and_deterministically() {
        // One fixed, fault-free-ish seed as a crate-level smoke test;
        // the broad batch lives in tests/harness.rs.
        let scenario = Scenario::generate(11);
        let outcome = run_scenario(&scenario, &RunOptions::default());
        assert!(
            outcome.passed(),
            "seed 11 violated: {:?}",
            outcome.violations
        );
        let again = run_scenario(&scenario, &RunOptions::default());
        assert_eq!(outcome.digest, again.digest);
    }
}
