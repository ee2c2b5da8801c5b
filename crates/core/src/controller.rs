//! The per-minute Ampere control decision (§3.5).
//!
//! Each power domain — a physical row, or a virtual group in a §4.1.2
//! controlled experiment — gets its own controller instance. Every
//! interval the host reads the domain's power from the monitor and
//! hands it to [`AmpereController::decide_on_reading`]; the controller
//! updates its `Et` predictor, evaluates the control function and
//! returns Algorithm 1's freeze/unfreeze actions, which the host
//! applies through the scheduler's two-call API. The controller keeps
//! no state beyond the predictor, matching the paper's "the controller
//! is stateless, and thus if the controller fails, we can easily switch
//! to a replacement".

use ampere_power::DomainReading;
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

/// The Ampere controller for one domain.
pub struct AmpereController {
    config: ControllerConfig,
    predictor: Box<dyn PowerChangePredictor>,
    planner: FreezePlanner,
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

    /// Pure decision step: given the domain's normalized power and
    /// server states, produce the freeze/unfreeze actions and the `Et`
    /// margin used. The host applies the actions.
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
        self.telemetry.set_active_tick(span);
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
}

impl std::fmt::Debug for AmpereController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmpereController")
            .field("config", &self.config)
            .field("predictor", &self.predictor.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::HistoricalPercentile;
    use ampere_cluster::ServerId;

    fn controller() -> AmpereController {
        AmpereController::new(
            ControllerConfig::default(),
            Box::new(HistoricalPercentile::flat(0.02)),
        )
    }

    /// Servers `ids` at the given per-server power, none frozen.
    fn readings_at(ids: std::ops::Range<u64>, power_w: f64) -> Vec<ServerPowerReading> {
        ids.map(|i| ServerPowerReading {
            id: ServerId::new(i),
            power_w,
            frozen: false,
        })
        .collect()
    }

    fn hot_readings(n: u64) -> Vec<ServerPowerReading> {
        readings_at(0..n, 240.0)
    }

    /// The readings after `actions` were applied.
    fn applied(
        readings: &[ServerPowerReading],
        actions: &FreezeActions,
    ) -> Vec<ServerPowerReading> {
        readings
            .iter()
            .map(|r| ServerPowerReading {
                frozen: (r.frozen || actions.freeze.contains(&r.id))
                    && !actions.unfreeze.contains(&r.id),
                ..*r
            })
            .collect()
    }

    /// Normalized power of `readings` against a 1,600 W budget: idle
    /// (8 × 170 W) is 0.85, fully busy (8 × 250 W) is 1.25.
    fn norm(readings: &[ServerPowerReading]) -> f64 {
        readings.iter().map(|r| r.power_w).sum::<f64>() / 1_600.0
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
        let mut ctl = controller();
        let idle = readings_at(0..8, 170.0);
        let (actions, _) = ctl.decide(SimTime::from_mins(1), norm(&idle), &idle);
        assert!(actions.is_empty());
        assert_eq!(actions.target_ratio, 0.0);
    }

    #[test]
    fn freezes_when_power_exceeds_threshold() {
        let mut ctl = controller();
        // 200, 210, …, 270 W: 1,880 W against 1,600 W is 1.175.
        let readings: Vec<ServerPowerReading> = (0..8)
            .map(|i| ServerPowerReading {
                id: ServerId::new(i),
                power_w: 200.0 + 10.0 * i as f64,
                frozen: false,
            })
            .collect();
        let (actions, et) = ctl.decide(SimTime::from_mins(1), norm(&readings), &readings);
        assert_eq!(et, 0.02);
        // F(1.175) = 3.9 is capped at u_max = 0.5 → ⌊0.5 · 8⌋ = 4
        // frozen, hottest first.
        assert!((actions.target_ratio - 0.5).abs() < 1e-12);
        assert_eq!(actions.n_freeze, 4);
        let hottest: Vec<ServerId> = (4..8).rev().map(ServerId::new).collect();
        assert_eq!(actions.freeze, hottest);
        assert!(actions.unfreeze.is_empty());
    }

    #[test]
    fn releases_when_power_drops() {
        let mut ctl = controller();
        let busy = readings_at(0..8, 250.0);
        let (first, _) = ctl.decide(SimTime::from_mins(1), norm(&busy), &busy);
        assert_eq!(first.freeze.len(), 4);
        // Jobs finish; power returns to idle with four servers frozen.
        let idle = applied(&readings_at(0..8, 170.0), &first);
        let (actions, _) = ctl.decide(SimTime::from_mins(3), norm(&idle), &idle);
        assert_eq!(actions.target_ratio, 0.0);
        assert_eq!(actions.unfreeze.len(), 4);
        assert!(applied(&idle, &actions).iter().all(|r| !r.frozen));
    }

    #[test]
    fn slower_interval_skips_intermediate_decisions() {
        let mut ctl = AmpereController::new(
            ControllerConfig {
                interval: SimDuration::from_mins(5),
                ..ControllerConfig::default()
            },
            Box::new(HistoricalPercentile::flat(0.02)),
        );
        // The domain stays loaded, so control is warranted every minute.
        let mut readings = readings_at(0..8, 250.0);
        let (first, _) = ctl.decide(SimTime::from_mins(1), norm(&readings), &readings);
        assert!(!first.freeze.is_empty(), "first decision must act");
        readings = applied(&readings, &first);
        // Minutes 2–5: observations only, no new actions.
        for m in 2..=5 {
            let (actions, _) = ctl.decide(SimTime::from_mins(m), norm(&readings), &readings);
            assert!(actions.is_empty(), "acted at minute {m}");
            assert_eq!(actions.target_ratio, 0.0);
        }
        // Minute 6: a full interval elapsed, decisions resume (the
        // frozen set is already correct, so the plan may be empty, but
        // the target ratio is computed again).
        let (sixth, _) = ctl.decide(SimTime::from_mins(6), norm(&readings), &readings);
        assert!(sixth.target_ratio > 0.0);
    }

    #[test]
    fn controller_only_touches_its_domain() {
        let mut ctl = controller();
        // A domain of servers 8..16, loaded: every action names one of
        // them, whatever else the fleet holds.
        let readings = readings_at(8..16, 250.0);
        let (actions, _) = ctl.decide(SimTime::from_mins(1), norm(&readings), &readings);
        assert!(!actions.freeze.is_empty());
        for id in actions.freeze.iter().chain(&actions.unfreeze) {
            assert!((8..16).contains(&id.raw()), "{id:?} is outside the domain");
        }
    }
}
