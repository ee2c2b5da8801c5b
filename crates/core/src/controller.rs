//! The per-minute Ampere control loop (§3.5).
//!
//! Each [`ControlDomain`] — a physical row, or a virtual group in a
//! §4.1.2 controlled experiment — gets its own controller instance.
//! Every interval the controller reads the domain's power, updates its
//! `Et` predictor, evaluates the control function and applies
//! Algorithm 1's actions through the scheduler's freeze/unfreeze API.
//! The controller keeps no state beyond the predictor and a trace
//! buffer, matching the paper's "the controller is stateless, and thus
//! if the controller fails, we can easily switch to a replacement".

use ampere_cluster::{Cluster, ServerId};
use ampere_power::DomainReading;
use ampere_sched::Scheduler;
use ampere_sim::{SimDuration, SimTime};
use ampere_telemetry::{
    buckets, Counter, Event, Gauge, Histogram, PhaseProfiler, Severity, SpanCtx, Telemetry,
    TickPhase,
};

use crate::algorithm::{FreezeActions, FreezePlanner, ServerPowerReading};
use crate::error::ControlConfigError;
use crate::model::ControlFunction;
use crate::predict::{PowerChangePredictor, PredictionTracker};

/// The controller's operating mode with respect to telemetry quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMode {
    /// Full, fresh data: Algorithm 1 runs unchanged.
    Nominal,
    /// Stale or low-coverage data: hold existing freezes and inflate
    /// `Et` by the worst-case drift the staleness could hide.
    Degraded,
}

impl ControlMode {
    /// Stable string form used in telemetry fields.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Nominal => "nominal",
            Self::Degraded => "degraded",
        }
    }
}

/// When the controller degrades and how conservatively it then acts.
///
/// The thresholds answer "can I trust this reading enough to run
/// Algorithm 1?": coverage below `min_coverage` means too many servers
/// went unreported for the coverage-scaled estimate to be trusted, and
/// age above `max_age` means the reading predates lost sweeps. Either
/// way the controller stops unfreezing (the safe direction) and adds
/// `drift_per_min` of margin per stale minute — the worst one-minute
/// power increase the blind window could be hiding, same units as `Et`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedPolicy {
    /// Minimum sample coverage for nominal operation.
    pub min_coverage: f64,
    /// Maximum reading age for nominal operation.
    pub max_age: SimDuration,
    /// Extra `Et` margin per minute of staleness (budget-normalized).
    pub drift_per_min: f64,
}

impl Default for DegradedPolicy {
    fn default() -> Self {
        Self {
            min_coverage: 0.7,
            max_age: SimDuration::from_mins(2),
            // ≈ the heavy-workload 99.5th-percentile one-minute
            // increase (see ampere-experiments::calibrate): each blind
            // minute could hide one such step.
            drift_per_min: 0.03,
        }
    }
}

/// Static controller parameters.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Control model slope `kr` (fit via [`crate::model::ControlModel`]).
    pub kr: f64,
    /// Operational cap on the freezing ratio (0.5 in production).
    pub u_max: f64,
    /// Algorithm 1 stability ratio (0.8 in all paper experiments).
    pub r_stable: f64,
    /// Control interval (one minute in production).
    pub interval: SimDuration,
    /// Degraded-mode thresholds for the quality-aware decide path.
    pub degraded: DegradedPolicy,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            // The one-minute-horizon slope measured by the Fig 5
            // controlled experiment (see ampere-experiments::calibrate).
            kr: 0.05,
            u_max: 0.5,
            r_stable: 0.8,
            interval: SimDuration::MINUTE,
            degraded: DegradedPolicy::default(),
        }
    }
}

impl ControllerConfig {
    /// Validates every caller-supplied field.
    pub fn validate(&self) -> Result<(), ControlConfigError> {
        if !(self.kr > 0.0 && self.kr.is_finite()) {
            return Err(ControlConfigError::BadKr(self.kr));
        }
        if !(self.u_max > 0.0 && self.u_max <= 1.0) {
            return Err(ControlConfigError::BadUMax(self.u_max));
        }
        if !(0.0..=1.0).contains(&self.r_stable) {
            return Err(ControlConfigError::BadRStable(self.r_stable));
        }
        let d = &self.degraded;
        if !(d.min_coverage > 0.0 && d.min_coverage <= 1.0) {
            return Err(ControlConfigError::BadMinCoverage(d.min_coverage));
        }
        if !(d.drift_per_min >= 0.0 && d.drift_per_min.is_finite()) {
            return Err(ControlConfigError::BadDrift(d.drift_per_min));
        }
        Ok(())
    }
}

/// A set of servers controlled against one power budget.
#[derive(Debug, Clone)]
pub struct ControlDomain {
    /// Servers in the domain.
    pub servers: Vec<ServerId>,
    /// The provisioned power budget `PM` in watts (possibly scaled for
    /// over-provisioning emulation).
    pub budget_w: f64,
}

impl ControlDomain {
    /// Creates a domain, validating the budget. A non-positive or
    /// non-finite budget is a configuration error the embedding host
    /// must handle, not a programming invariant — hence the `Result`.
    pub fn new(servers: Vec<ServerId>, budget_w: f64) -> Result<Self, ControlConfigError> {
        if !(budget_w > 0.0 && budget_w.is_finite()) {
            return Err(ControlConfigError::BadBudget(budget_w));
        }
        Ok(Self { servers, budget_w })
    }

    /// Current domain power in watts, summed from the cluster.
    pub fn power_w(&self, cluster: &Cluster) -> f64 {
        self.servers
            .iter()
            .map(|&id| cluster.server(id).power_w())
            .sum()
    }

    /// Per-server readings for the planner.
    pub fn readings(&self, cluster: &Cluster) -> Vec<ServerPowerReading> {
        self.servers
            .iter()
            .map(|&id| {
                let s = cluster.server(id);
                ServerPowerReading {
                    id,
                    power_w: s.power_w(),
                    frozen: s.is_frozen(),
                }
            })
            .collect()
    }
}

/// What the controller did in one interval (one Fig 10 data point).
#[derive(Debug, Clone, Copy)]
pub struct ControlRecord {
    /// Interval start.
    pub time: SimTime,
    /// Domain power normalized to the budget.
    pub power_norm: f64,
    /// The `Et` margin used.
    pub et: f64,
    /// Target freezing ratio `u_t`.
    pub u_target: f64,
    /// Frozen servers after applying the actions.
    pub frozen_after: usize,
    /// Servers newly frozen this interval.
    pub froze: usize,
    /// Servers newly unfrozen this interval.
    pub unfroze: usize,
}

/// The Ampere controller for one domain.
pub struct AmpereController {
    config: ControllerConfig,
    predictor: Box<dyn PowerChangePredictor>,
    planner: FreezePlanner,
    trace: Vec<ControlRecord>,
    last_decision: Option<SimTime>,
    /// Root span of the most recent [`Self::decide`] call. Everything
    /// that decision causes (freezes, dispatch suppression, the power
    /// response) is traced under it; [`SpanCtx::NONE`] when telemetry
    /// is disabled, keeping uninstrumented runs free.
    last_span: SpanCtx,
    mode: ControlMode,
    telemetry: Telemetry,
    tick_counter: Counter,
    degraded_counter: Counter,
    power_gauge: Gauge,
    et_hist: Histogram,
    profiler: PhaseProfiler,
    prediction: PredictionTracker,
}

impl AmpereController {
    /// Creates a controller with the given `Et` predictor, reporting
    /// into the global telemetry pipeline (no-op unless installed).
    /// Panics on an invalid configuration; use
    /// [`AmpereController::try_new`] for the typed error.
    pub fn new(config: ControllerConfig, predictor: Box<dyn PowerChangePredictor>) -> Self {
        Self::with_telemetry(config, predictor, ampere_telemetry::global())
    }

    /// Like [`AmpereController::new`] with a typed error.
    pub fn try_new(
        config: ControllerConfig,
        predictor: Box<dyn PowerChangePredictor>,
    ) -> Result<Self, ControlConfigError> {
        Self::try_with_telemetry(config, predictor, ampere_telemetry::global())
    }

    /// Like [`AmpereController::new`] with an explicit pipeline.
    pub fn with_telemetry(
        config: ControllerConfig,
        predictor: Box<dyn PowerChangePredictor>,
        telemetry: Telemetry,
    ) -> Self {
        Self::try_with_telemetry(config, predictor, telemetry).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`AmpereController::with_telemetry`] with a typed error.
    pub fn try_with_telemetry(
        config: ControllerConfig,
        predictor: Box<dyn PowerChangePredictor>,
        telemetry: Telemetry,
    ) -> Result<Self, ControlConfigError> {
        config.validate()?;
        Ok(Self {
            planner: FreezePlanner::new(config.r_stable),
            config,
            trace: Vec::new(),
            last_decision: None,
            last_span: SpanCtx::NONE,
            mode: ControlMode::Nominal,
            tick_counter: telemetry.counter("controller_ticks", &[]),
            degraded_counter: telemetry.counter("controller_degraded_ticks", &[]),
            power_gauge: telemetry.gauge("controller_power_norm", &[]),
            et_hist: telemetry.histogram("controller_et", &[], &buckets::ratio()),
            profiler: PhaseProfiler::new(&telemetry),
            prediction: PredictionTracker::new(&telemetry, predictor.name()),
            predictor,
            telemetry,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The control trace accumulated so far.
    pub fn trace(&self) -> &[ControlRecord] {
        &self.trace
    }

    /// Pure decision step: given the domain's power reading and server
    /// states, produce the freeze/unfreeze actions. Separated from
    /// [`Self::tick`] so it can be driven with synthetic readings.
    ///
    /// Power observations always feed the predictor; a *control action*
    /// is only computed when the configured interval has elapsed since
    /// the previous one (identical behaviour at the default one-minute
    /// interval; slower cadences are an ablation knob).
    pub fn decide(
        &mut self,
        now: SimTime,
        power_norm: f64,
        readings: &[ServerPowerReading],
    ) -> (FreezeActions, f64) {
        self.decide_with_quality(now, power_norm, readings, ControlMode::Nominal, 0.0)
    }

    /// Quality-aware decision step: the monitor's qualified
    /// [`DomainReading`] replaces the bare power number. Full fresh
    /// data (coverage and age within the configured
    /// [`DegradedPolicy`]) runs Algorithm 1 unchanged on the
    /// coverage-corrected estimate; stale or low-coverage data switches
    /// to degraded mode — existing freezes are held (no unfreezes) and
    /// `Et` is inflated by the worst-case drift the staleness could
    /// hide, so the only possible error is over-freezing, never an
    /// unnoticed budget excursion.
    pub fn decide_on_reading(
        &mut self,
        now: SimTime,
        reading: &DomainReading,
        budget_w: f64,
        readings: &[ServerPowerReading],
    ) -> (FreezeActions, f64) {
        let policy = self.config.degraded;
        let healthy = reading.coverage >= policy.min_coverage && reading.age <= policy.max_age;
        let power_norm = reading.estimate_w() / budget_w;
        if healthy {
            self.decide_with_quality(now, power_norm, readings, ControlMode::Nominal, 0.0)
        } else {
            // At least one interval's drift even when degraded purely
            // by coverage (age may still be zero).
            let stale_mins = reading.age.as_mins_f64().max(1.0);
            let et_extra = policy.drift_per_min * stale_mins;
            self.decide_with_quality(now, power_norm, readings, ControlMode::Degraded, et_extra)
        }
    }

    fn decide_with_quality(
        &mut self,
        now: SimTime,
        power_norm: f64,
        readings: &[ServerPowerReading],
        mode: ControlMode,
        et_extra: f64,
    ) -> (FreezeActions, f64) {
        // Every tick opens a fresh causal episode: freezes, dispatch
        // suppression and the eventual power response all trace back to
        // this root span. Registering it as the active tick lets
        // measurement-side components (power monitor) join too.
        let span = self.telemetry.root_span();
        self.last_span = span;
        self.telemetry.set_active_tick(now, span);
        self.set_mode(now, mode);
        let et = {
            let _phase = self.profiler.phase(TickPhase::Predict);
            if mode == ControlMode::Nominal {
                // Degraded observations stay out of the predictor: stale
                // or coverage-scaled samples would contaminate the `Et`
                // history the healthy path relies on.
                self.predictor.observe(now, power_norm);
            }
            let et = self.predictor.estimate(now) + et_extra;
            if mode == ControlMode::Nominal {
                self.prediction.observe(power_norm, et);
            } else {
                self.degraded_counter.inc();
            }
            et
        };
        self.tick_counter.inc();
        self.power_gauge.set(power_norm);
        self.et_hist.record(et);
        let observe_only = self
            .last_decision
            .is_some_and(|last| now > last && now.since(last) < self.config.interval);
        let actions = {
            let _phase = self.profiler.phase(TickPhase::Decide);
            let mut actions = if observe_only {
                FreezeActions::default()
            } else {
                self.last_decision = Some(now);
                let cf = ControlFunction::new(self.config.kr, et, self.config.u_max);
                self.planner.plan(readings, &cf, power_norm)
            };
            if mode == ControlMode::Degraded && !actions.unfreeze.is_empty() {
                // Hold freezes: with untrusted data, releasing servers
                // is the one action that can push power over budget
                // unnoticed.
                actions.unfreeze.clear();
            }
            actions
        };
        self.telemetry.emit_with(|| {
            Event::new(now, Severity::Info, "controller", "tick")
                .in_span(span)
                .with("power_norm", power_norm)
                .with("et", et)
                .with("u_target", actions.target_ratio)
                .with("froze", actions.freeze.len())
                .with("unfroze", actions.unfreeze.len())
                .with("decided", !observe_only)
                .with("mode", mode.as_str())
        });
        (actions, et)
    }

    /// The current operating mode.
    pub fn mode(&self) -> ControlMode {
        self.mode
    }

    fn set_mode(&mut self, now: SimTime, mode: ControlMode) {
        if mode == self.mode {
            return;
        }
        let from = self.mode;
        self.mode = mode;
        self.telemetry.emit_with(|| {
            let severity = match mode {
                ControlMode::Degraded => Severity::Warn,
                ControlMode::Nominal => Severity::Info,
            };
            Event::new(now, severity, "controller", "mode")
                .in_span(self.last_span)
                .with("from", from.as_str())
                .with("to", mode.as_str())
        });
    }

    /// Root span of the most recent [`Self::decide`] call
    /// ([`SpanCtx::NONE`] before the first tick or when telemetry is
    /// disabled). Drivers hand this to collaborators — the scheduler's
    /// freeze bookkeeping, the breaker — so downstream events join the
    /// tick's trace.
    pub fn last_tick_span(&self) -> SpanCtx {
        self.last_span
    }

    /// One full control interval: read the domain power from the
    /// cluster (the monitor's IPMI sweep), decide, and apply actions
    /// through the scheduler's freeze/unfreeze API.
    pub fn tick(
        &mut self,
        now: SimTime,
        domain: &ControlDomain,
        cluster: &mut Cluster,
        sched: &mut Scheduler,
    ) -> ControlRecord {
        let readings = domain.readings(cluster);
        let power_norm = readings.iter().map(|r| r.power_w).sum::<f64>() / domain.budget_w;
        let (actions, et) = self.decide(now, power_norm, &readings);
        sched.set_clock(now);
        sched.set_tick_span(self.last_span);
        for &id in &actions.unfreeze {
            sched.unfreeze(cluster, id);
        }
        for &id in &actions.freeze {
            sched.freeze(cluster, id);
        }
        let frozen_after = domain
            .servers
            .iter()
            .filter(|&&id| cluster.server(id).is_frozen())
            .count();
        let record = ControlRecord {
            time: now,
            power_norm,
            et,
            u_target: actions.target_ratio,
            frozen_after,
            froze: actions.freeze.len(),
            unfroze: actions.unfreeze.len(),
        };
        self.trace.push(record);
        record
    }
}

impl std::fmt::Debug for AmpereController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmpereController")
            .field("config", &self.config)
            .field("predictor", &self.predictor.name())
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::HistoricalPercentile;
    use ampere_cluster::{ClusterSpec, JobId, Resources, RowId};
    use ampere_sched::{RandomFit, Scheduler};

    fn setup() -> (Cluster, Scheduler, AmpereController, ControlDomain) {
        let cluster = Cluster::new(ClusterSpec::tiny());
        let sched = Scheduler::new(Box::new(RandomFit::default()), 5);
        let controller = AmpereController::new(
            ControllerConfig::default(),
            Box::new(HistoricalPercentile::flat(0.02)),
        );
        let servers: Vec<ServerId> = (0..8).map(ServerId::new).collect();
        // Budget chosen so idle power (8 × 170 W) is ~0.85 of budget.
        let domain = ControlDomain::new(servers, 1_600.0).expect("valid budget");
        (cluster, sched, controller, domain)
    }

    fn hot_readings(n: u64) -> Vec<ServerPowerReading> {
        (0..n)
            .map(|i| ServerPowerReading {
                id: ServerId::new(i),
                power_w: 240.0,
                frozen: false,
            })
            .collect()
    }

    #[test]
    fn bad_budget_is_a_typed_error() {
        let servers: Vec<ServerId> = (0..4).map(ServerId::new).collect();
        assert_eq!(
            ControlDomain::new(servers.clone(), 0.0).err(),
            Some(ControlConfigError::BadBudget(0.0))
        );
        assert_eq!(
            ControlDomain::new(servers, f64::INFINITY).err(),
            Some(ControlConfigError::BadBudget(f64::INFINITY))
        );
    }

    #[test]
    fn bad_config_is_a_typed_error() {
        let bad = ControllerConfig {
            kr: -1.0,
            ..ControllerConfig::default()
        };
        assert_eq!(
            AmpereController::try_new(bad, Box::new(HistoricalPercentile::flat(0.02)))
                .err()
                .map(|e| e.to_string()),
            Some("bad kr: -1".to_string())
        );
    }

    fn reading(power_w: f64, coverage: f64, age_mins: u64) -> DomainReading {
        DomainReading {
            power_w,
            coverage,
            age: SimDuration::from_mins(age_mins),
        }
    }

    #[test]
    fn full_fresh_reading_stays_nominal() {
        let mut ctl = AmpereController::new(
            ControllerConfig::default(),
            Box::new(HistoricalPercentile::flat(0.02)),
        );
        let readings = hot_readings(8);
        let (_, et) = ctl.decide_on_reading(
            SimTime::from_mins(1),
            &reading(1_900.0, 1.0, 0),
            2_000.0,
            &readings,
        );
        assert_eq!(ctl.mode(), ControlMode::Nominal);
        assert!((et - 0.02).abs() < 1e-12, "no inflation when healthy");
    }

    #[test]
    fn low_coverage_degrades_and_inflates_et() {
        let mut ctl = AmpereController::new(
            ControllerConfig::default(),
            Box::new(HistoricalPercentile::flat(0.02)),
        );
        let readings = hot_readings(8);
        // Coverage 0.5 < 0.7 → degraded; age 0 → one interval's drift.
        let (_, et) = ctl.decide_on_reading(
            SimTime::from_mins(1),
            &reading(900.0, 0.5, 0),
            2_000.0,
            &readings,
        );
        assert_eq!(ctl.mode(), ControlMode::Degraded);
        assert!((et - (0.02 + 0.03)).abs() < 1e-12);
    }

    #[test]
    fn degraded_reading_scales_power_by_coverage() {
        let mut ctl = AmpereController::new(
            ControllerConfig::default(),
            Box::new(HistoricalPercentile::flat(0.02)),
        );
        // Half the servers reported 980 W total → the best estimate of
        // the full domain is 1960 W, i.e. 0.98 normalized.
        let r = reading(980.0, 0.5, 0);
        assert!((r.estimate_w() - 1_960.0).abs() < 1e-9);
        let (actions, _) =
            ctl.decide_on_reading(SimTime::from_mins(1), &r, 2_000.0, &hot_readings(8));
        // 0.98 + the inflated 0.05 margin crosses the budget → control
        // engages on the coverage-corrected estimate even though the
        // raw 980 W sum looked comfortably under budget.
        assert!(actions.target_ratio > 0.0);
    }

    #[test]
    fn degraded_mode_holds_existing_freezes() {
        let mut ctl = AmpereController::new(
            ControllerConfig::default(),
            Box::new(HistoricalPercentile::flat(0.02)),
        );
        // Half the fleet frozen, power now low: nominal would unfreeze.
        let readings: Vec<ServerPowerReading> = (0..8)
            .map(|i| ServerPowerReading {
                id: ServerId::new(i),
                power_w: 150.0,
                frozen: i < 4,
            })
            .collect();
        let stale = reading(1_200.0, 1.0, 10);
        let (actions, _) = ctl.decide_on_reading(SimTime::from_mins(1), &stale, 2_000.0, &readings);
        assert_eq!(ctl.mode(), ControlMode::Degraded);
        assert!(actions.unfreeze.is_empty(), "stale data must not unfreeze");
        // The same situation with fresh data does unfreeze.
        let mut fresh_ctl = AmpereController::new(
            ControllerConfig::default(),
            Box::new(HistoricalPercentile::flat(0.02)),
        );
        let (actions, _) = fresh_ctl.decide_on_reading(
            SimTime::from_mins(1),
            &reading(1_200.0, 1.0, 0),
            2_000.0,
            &readings,
        );
        assert!(!actions.unfreeze.is_empty());
    }

    #[test]
    fn mode_transitions_emit_events() {
        use ampere_telemetry::{RingBufferSink, Telemetry};
        let (sink, events) = RingBufferSink::new(64);
        let tel = Telemetry::builder().sink(sink).build();
        let mut ctl = AmpereController::with_telemetry(
            ControllerConfig::default(),
            Box::new(HistoricalPercentile::flat(0.02)),
            tel,
        );
        let readings = hot_readings(8);
        ctl.decide_on_reading(
            SimTime::from_mins(1),
            &reading(1_000.0, 1.0, 0),
            2_000.0,
            &readings,
        );
        ctl.decide_on_reading(
            SimTime::from_mins(2),
            &reading(500.0, 0.3, 0),
            2_000.0,
            &readings,
        );
        ctl.decide_on_reading(
            SimTime::from_mins(3),
            &reading(500.0, 0.3, 0),
            2_000.0,
            &readings,
        );
        ctl.decide_on_reading(
            SimTime::from_mins(4),
            &reading(1_000.0, 1.0, 0),
            2_000.0,
            &readings,
        );
        let modes: Vec<(String, String)> = events
            .events()
            .iter()
            .filter(|e| e.name == "mode")
            .map(|e| {
                (
                    e.field("from").unwrap().as_str().unwrap().to_string(),
                    e.field("to").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(modes.len(), 2, "one event per transition, not per tick");
        assert_eq!(modes[0], ("nominal".to_string(), "degraded".to_string()));
        assert_eq!(modes[1], ("degraded".to_string(), "nominal".to_string()));
    }

    #[test]
    fn no_control_when_under_threshold() {
        let (mut cluster, mut sched, mut ctl, domain) = setup();
        let rec = ctl.tick(SimTime::from_mins(1), &domain, &mut cluster, &mut sched);
        assert_eq!(rec.frozen_after, 0);
        assert_eq!(rec.u_target, 0.0);
        assert!(rec.power_norm < 0.9);
    }

    #[test]
    fn freezes_when_power_exceeds_threshold() {
        let (mut cluster, mut sched, mut ctl, domain) = setup();
        // Load every domain server to full utilization: power 8 × 250 =
        // 2000 W → 1.25 normalized.
        for (i, &id) in domain.servers.iter().enumerate() {
            cluster
                .server_mut(id)
                .place(
                    JobId::new(i as u64),
                    Resources::cores_gb(32, 64),
                    SimDuration::from_mins(30),
                )
                .unwrap();
        }
        let rec = ctl.tick(SimTime::from_mins(1), &domain, &mut cluster, &mut sched);
        assert!(rec.power_norm > 1.2);
        // u_max = 0.5 → 4 of 8 frozen.
        assert_eq!(rec.frozen_after, 4);
        assert_eq!(rec.froze, 4);
        assert!((rec.u_target - 0.5).abs() < 1e-12);
        // Frozen servers are still running their jobs.
        for &id in &domain.servers {
            assert_eq!(cluster.server(id).job_count(), 1);
        }
    }

    #[test]
    fn releases_when_power_drops() {
        let (mut cluster, mut sched, mut ctl, domain) = setup();
        for (i, &id) in domain.servers.iter().enumerate() {
            cluster
                .server_mut(id)
                .place(
                    JobId::new(i as u64),
                    Resources::cores_gb(32, 64),
                    SimDuration::from_mins(2),
                )
                .unwrap();
        }
        ctl.tick(SimTime::from_mins(1), &domain, &mut cluster, &mut sched);
        // Jobs finish; power returns to idle.
        cluster.advance(SimDuration::from_mins(2));
        cluster.advance(SimDuration::from_mins(2));
        let rec = ctl.tick(SimTime::from_mins(3), &domain, &mut cluster, &mut sched);
        assert_eq!(rec.frozen_after, 0);
        assert!(rec.unfroze > 0);
    }

    #[test]
    fn domain_power_sums_only_domain_servers() {
        let (cluster, _, _, domain) = setup();
        let idle = cluster.spec().power_model.idle_w();
        assert!((domain.power_w(&cluster) - idle * 8.0).abs() < 1e-9);
        // The cluster has 16 servers; the domain only 8.
        assert!((cluster.total_power_w() - idle * 16.0).abs() < 1e-9);
    }

    #[test]
    fn trace_accumulates() {
        let (mut cluster, mut sched, mut ctl, domain) = setup();
        for m in 1..=5 {
            ctl.tick(SimTime::from_mins(m), &domain, &mut cluster, &mut sched);
        }
        assert_eq!(ctl.trace().len(), 5);
        assert_eq!(ctl.trace()[0].time, SimTime::from_mins(1));
    }

    #[test]
    fn slower_interval_skips_intermediate_decisions() {
        let (mut cluster, mut sched, _, domain) = setup();
        let mut ctl = AmpereController::new(
            ControllerConfig {
                interval: SimDuration::from_mins(5),
                ..ControllerConfig::default()
            },
            Box::new(HistoricalPercentile::flat(0.02)),
        );
        // Load the domain so control is warranted every minute.
        for (i, &id) in domain.servers.iter().enumerate() {
            cluster
                .server_mut(id)
                .place(
                    JobId::new(i as u64),
                    Resources::cores_gb(32, 64),
                    SimDuration::from_mins(60),
                )
                .unwrap();
        }
        let r1 = ctl.tick(SimTime::from_mins(1), &domain, &mut cluster, &mut sched);
        assert!(r1.froze > 0, "first decision must act");
        // Minutes 2–5: observations only, no new actions.
        for m in 2..=5 {
            let r = ctl.tick(SimTime::from_mins(m), &domain, &mut cluster, &mut sched);
            assert_eq!(r.froze + r.unfroze, 0, "acted at minute {m}");
        }
        // Minute 6: a full interval elapsed, decisions resume (the
        // frozen set is already correct, so the plan may be empty, but
        // the target ratio is computed again).
        let r6 = ctl.tick(SimTime::from_mins(6), &domain, &mut cluster, &mut sched);
        assert!(r6.u_target > 0.0);
    }

    #[test]
    fn controller_only_touches_its_domain() {
        let (mut cluster, mut sched, mut ctl, domain) = setup();
        for (i, &id) in domain.servers.iter().enumerate() {
            cluster
                .server_mut(id)
                .place(
                    JobId::new(i as u64),
                    Resources::cores_gb(32, 64),
                    SimDuration::from_mins(30),
                )
                .unwrap();
        }
        ctl.tick(SimTime::from_mins(1), &domain, &mut cluster, &mut sched);
        // Row 1 servers (ids 8..16) must be untouched.
        for s in cluster.iter_row(RowId::new(1)) {
            assert!(!s.is_frozen());
        }
    }
}
