//! The streaming engine: tick merging, window closes, rule evaluation
//! and the incident model.

use crate::rollup::{PowerHistogram, WindowAccum, WindowRollup};
use crate::rules::{AlertRule, RuleInput, RuleState, Transition};
use crate::{WatchConfig, P_OVER_MARGIN, SLIDING_WINDOWS, WINDOW};

use ampere_sim::SimTime;
use ampere_telemetry::{Event, Severity, SpanCtx};

use std::collections::VecDeque;

/// Everything observed at one sim instant, merged worst-case before the
/// per-tick rules see it.
#[derive(Debug)]
struct TickState {
    time: SimTime,
    /// Any `controller/tick` seen (power/headroom gauges known).
    controller_seen: bool,
    /// Max normalized power across the tick's controller decisions.
    power_norm: f64,
    /// Min Et headroom (`1 − power_norm − et`) across decisions.
    headroom: f64,
    /// Freeze + unfreeze count.
    churn: u64,
    /// Any decision ran in degraded mode.
    degraded: bool,
    /// Last controller tick span (alert linkage).
    tick_span: SpanCtx,
    /// Breaker violations this tick: (row, consecutive minutes, span).
    violations: Vec<(String, u64, SpanCtx)>,
    /// Arbiter reallocation rounds this tick.
    arb_rounds: u64,
    /// Rounds with ≥ 1 row pinned at floor while reserve was held.
    starved_rounds: u64,
}

impl TickState {
    fn new(time: SimTime) -> Self {
        TickState {
            time,
            controller_seen: false,
            power_norm: f64::NEG_INFINITY,
            headroom: f64::INFINITY,
            churn: 0,
            degraded: false,
            tick_span: SpanCtx::NONE,
            violations: Vec::new(),
            arb_rounds: 0,
            starved_rounds: 0,
        }
    }
}

/// One alert-stream entry: a rule transition at a sim instant.
#[derive(Debug, Clone)]
pub struct AlertRecord {
    /// Sim time of the transition.
    pub time: SimTime,
    /// Pass label in effect.
    pub pass: String,
    /// Rule name.
    pub rule: String,
    /// `"fire"`, `"ack"` or `"resolve"`.
    pub state: &'static str,
    /// Gauge value at the transition (peak so far for acks).
    pub value: f64,
    /// Causal span the transition links to ([`SpanCtx::NONE`] when the
    /// triggering context carried no trace).
    pub span: SpanCtx,
    /// Incident this transition belongs to.
    pub incident: u64,
}

/// One alert firing tracked through open → ack → resolve.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Incident id (dense, in open order).
    pub id: u64,
    /// Rule that fired.
    pub rule: String,
    /// Rule severity at fire time.
    pub severity: Severity,
    /// Pass label at fire time.
    pub pass: String,
    /// Fire time.
    pub opened_at: SimTime,
    /// Deterministic auto-ack time (`None` while fresh).
    pub acked_at: Option<SimTime>,
    /// Resolve time (`None` while still open at stream end).
    pub resolved_at: Option<SimTime>,
    /// Worst gauge value over the incident's lifetime.
    pub peak: f64,
    /// Causal span of the firing evaluation.
    pub span: SpanCtx,
}

/// Final snapshot of everything the engine derived from the stream.
#[derive(Debug, Clone)]
pub struct WatchReport {
    /// The rule table that was in force.
    pub rules: Vec<AlertRule>,
    /// The alert stream, in evaluation order.
    pub alerts: Vec<AlertRecord>,
    /// Closed-window rollups, in close order.
    pub windows: Vec<WindowRollup>,
    /// Incidents, in open order.
    pub incidents: Vec<Incident>,
    /// Events observed (pass markers included).
    pub events_seen: u64,
}

impl WatchReport {
    /// Alert firings attributed to `pass`.
    pub fn fires_in_pass(&self, pass: &str) -> usize {
        self.alerts
            .iter()
            .filter(|a| a.state == "fire" && a.pass == pass)
            .count()
    }

    /// Incidents for `rule` opened during `pass`.
    pub fn incidents_for(&self, pass: &str, rule: &str) -> usize {
        self.incidents
            .iter()
            .filter(|i| i.pass == pass && i.rule == rule)
            .count()
    }
}

/// The online engine. Feed it the event stream ([`WatchEngine::observe`]
/// or the [`crate::tap`] sink wrapper), then [`WatchEngine::finish`].
#[derive(Debug)]
pub struct WatchEngine {
    config: WatchConfig,
    states: Vec<RuleState>,
    /// Current pass label ("run" until a marker renames it).
    pass: String,
    /// Monotone segment counter.
    segment: u64,
    /// Whether this segment has seen a controller decision yet.
    armed: bool,
    tick: Option<TickState>,
    window: Option<WindowAccum>,
    /// Trailing closed windows of this segment (sliding view).
    history: VecDeque<WindowAccum>,
    /// Watchdog backstops currently armed (armed − disarmed events).
    backstops_armed: i64,
    alerts: Vec<AlertRecord>,
    windows: Vec<WindowRollup>,
    incidents: Vec<Incident>,
    events_seen: u64,
}

impl WatchEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: WatchConfig) -> Self {
        let states = config.rules.iter().map(|_| RuleState::default()).collect();
        WatchEngine {
            config,
            states,
            pass: "run".to_owned(),
            segment: 0,
            armed: false,
            tick: None,
            window: None,
            history: VecDeque::new(),
            backstops_armed: 0,
            alerts: Vec::new(),
            windows: Vec::new(),
            incidents: Vec::new(),
            events_seen: 0,
        }
    }

    /// Consumes one event from the stream. O(1) amortized: folding into
    /// the current tick/window is constant-time; rule evaluation runs
    /// once per tick/window close, not per event.
    pub fn observe(&mut self, event: &Event) {
        self.events_seen += 1;
        // Pass markers re-label everything that follows and force a
        // segment boundary so windows never straddle passes.
        if event.component == "watch" && event.name == "pass" {
            self.end_segment();
            if let Some(label) = event.field("label").and_then(|v| v.as_str()) {
                self.pass = label.to_owned();
            }
            return;
        }
        if let Some(open) = self.tick.as_ref().map(|t| t.time) {
            if event.sim_time < open {
                // Sim-time regression: the driver restarted the clock
                // (a new experiment phase, or the next shard's replay).
                self.end_segment();
            } else if event.sim_time > open {
                // Time moved on: the previous instant is complete.
                self.close_tick();
            }
        }
        let tick = self
            .tick
            .get_or_insert_with(|| TickState::new(event.sim_time));
        match (event.component, event.name) {
            ("controller", "tick") => {
                tick.controller_seen = true;
                if let Some(p) = event.field("power_norm").and_then(|v| v.as_f64()) {
                    tick.power_norm = tick.power_norm.max(p);
                    if let Some(et) = event.field("et").and_then(|v| v.as_f64()) {
                        tick.headroom = tick.headroom.min(1.0 - p - et);
                    }
                }
                for key in ["froze", "unfroze"] {
                    if let Some(n) = event.field(key).and_then(|v| v.as_u64()) {
                        tick.churn += n;
                    }
                }
                if event.field("mode").and_then(|v| v.as_str()) == Some("degraded") {
                    tick.degraded = true;
                }
                if event.span.is_some() {
                    tick.tick_span = event.span;
                }
            }
            ("breaker", "violation") => {
                let row = event
                    .field("row")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_owned();
                let consecutive = event
                    .field("consecutive")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(1);
                tick.violations.push((row, consecutive, event.span));
            }
            ("arbiter", "reallocate") => {
                tick.arb_rounds += 1;
                let pinned = event.field("pinned").and_then(|v| v.as_u64()).unwrap_or(0);
                let reserve = event
                    .field("reserve_w")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
                if pinned > 0 && reserve > 0.0 {
                    tick.starved_rounds += 1;
                }
            }
            ("watchdog", "backstop_armed") => self.backstops_armed += 1,
            ("watchdog", "backstop_disarmed") => {
                self.backstops_armed = (self.backstops_armed - 1).max(0);
            }
            _ => {}
        }
    }

    /// Flushes pending tick/window state and snapshots the report. The
    /// trailing partial window produces a rollup but no evaluations;
    /// incidents still active stay open (`resolved_at: None`).
    pub fn finish(&mut self) -> WatchReport {
        self.close_tick();
        self.close_window(false);
        // Open incidents: publish the worst value seen so far.
        for state in &self.states {
            if let Some(id) = state.incident {
                self.incidents[id as usize].peak = state.peak;
            }
        }
        WatchReport {
            rules: self.config.rules.clone(),
            alerts: self.alerts.clone(),
            windows: self.windows.clone(),
            incidents: self.incidents.clone(),
            events_seen: self.events_seen,
        }
    }

    /// Ends the current segment: the in-flight tick and window close
    /// (window rules do not evaluate on the partial window), arming and
    /// sliding history reset. Rule and incident state persist — an
    /// incident can stay open across a phase restart.
    fn end_segment(&mut self) {
        self.close_tick();
        self.close_window(false);
        self.history.clear();
        self.armed = false;
        self.backstops_armed = 0;
        self.segment += 1;
    }

    fn close_tick(&mut self) {
        let Some(tick) = self.tick.take() else {
            return;
        };
        // Arm on the segment's first controller decision: everything
        // from this tick on is a controlled run worth paging about.
        if tick.controller_seen {
            self.armed = true;
        }
        let index = tick.time.as_millis() / WINDOW.as_millis();
        if self.window.as_ref().is_some_and(|w| w.index != index) {
            // The stream moved past the window boundary: the closed
            // window is complete, so window rules evaluate.
            self.close_window(true);
        }
        let backstop = self.backstops_armed > 0;
        let w = self.window.get_or_insert_with(|| WindowAccum::new(index));
        w.ticks += 1;
        if tick.controller_seen && tick.power_norm.is_finite() {
            w.power_ticks += 1;
            w.power_sum += tick.power_norm;
            w.power_max = w.power_max.max(tick.power_norm);
            w.hist.record(tick.power_norm);
            if tick.power_norm > P_OVER_MARGIN {
                w.over_ticks += 1;
            }
            w.min_headroom = w.min_headroom.min(tick.headroom);
        }
        w.churn += tick.churn;
        if tick.degraded {
            w.degraded_ticks += 1;
        }
        if backstop {
            w.backstop_ticks += 1;
        }
        w.violations += tick.violations.len() as u64;
        w.arb_rounds += tick.arb_rounds;
        w.starved_rounds += tick.starved_rounds;
        if tick.tick_span.is_some() {
            w.last_span = tick.tick_span;
        }
        if self.armed {
            self.eval_tick_rules(&tick);
        }
        self.ack_sweep(tick.time);
    }

    fn eval_tick_rules(&mut self, tick: &TickState) {
        for i in 0..self.config.rules.len() {
            let rule = &self.config.rules[i];
            if rule.input.per_window() {
                continue;
            }
            // A `None` gauge (no controller decision this tick) skips
            // the evaluation: streaks neither extend nor reset.
            let (value, span) = match rule.input {
                RuleInput::EtHeadroom => {
                    if !(tick.controller_seen && tick.headroom.is_finite()) {
                        continue;
                    }
                    (tick.headroom, tick.tick_span)
                }
                RuleInput::PowerNorm => {
                    if !(tick.controller_seen && tick.power_norm.is_finite()) {
                        continue;
                    }
                    (tick.power_norm, tick.tick_span)
                }
                RuleInput::ViolationStreak => {
                    let worst = tick
                        .violations
                        .iter()
                        .filter(|(row, _, _)| {
                            rule.scope.as_deref().is_none_or(|scope| scope == row)
                        })
                        .max_by_key(|(_, consecutive, _)| *consecutive);
                    match worst {
                        // An uncontrolled row's violations carry no
                        // control span; fall back to the fleet's
                        // concurrent controller tick so the incident
                        // still links into the trace tree.
                        Some((_, consecutive, span)) => (
                            *consecutive as f64,
                            if span.is_some() {
                                *span
                            } else {
                                tick.tick_span
                            },
                        ),
                        // Breaker proximity reads 0 on violation-free
                        // controller ticks; during an outage (no
                        // decision, no violation) it is unknown.
                        None if tick.controller_seen => (0.0, tick.tick_span),
                        None => continue,
                    }
                }
                _ => continue,
            };
            self.transition(i, value, tick.time, span);
        }
    }

    fn close_window(&mut self, complete: bool) {
        let Some(w) = self.window.take() else {
            return;
        };
        let window_ms = WINDOW.as_millis();
        let start = SimTime::from_millis(w.index * window_ms);
        let end = SimTime::from_millis((w.index + 1) * window_ms);
        if complete && self.armed {
            for i in 0..self.config.rules.len() {
                let rule = &self.config.rules[i];
                let value = match rule.input {
                    RuleInput::DegradedBurn if w.ticks > 0 => {
                        Some(w.degraded_ticks as f64 / w.ticks as f64)
                    }
                    RuleInput::SloBurn if w.ticks > 0 => {
                        Some(w.backstop_ticks as f64 / w.ticks as f64)
                    }
                    RuleInput::ChurnZScore { min_churn } => {
                        self.states[i].churn_z(w.churn, min_churn)
                    }
                    // Unknown (skipped) when the window saw no
                    // reallocation round: single-row runs and arbiter
                    // outage windows neither extend nor reset streaks.
                    RuleInput::ArbiterStarvation if w.arb_rounds > 0 => {
                        Some(w.starved_rounds as f64 / w.arb_rounds as f64)
                    }
                    _ => None,
                };
                if let Some(value) = value {
                    self.transition(i, value, end, w.last_span);
                }
            }
            self.ack_sweep(end);
        }
        // Sliding view: this window plus its trailing neighbours.
        let mut sliding_hist = PowerHistogram::new();
        sliding_hist.merge(&w.hist);
        let mut sliding_churn = w.churn;
        for prev in &self.history {
            sliding_hist.merge(&prev.hist);
            sliding_churn += prev.churn;
        }
        self.windows.push(WindowRollup {
            segment: self.segment,
            pass: self.pass.clone(),
            index: w.index,
            start,
            end,
            ticks: w.ticks,
            power_ticks: w.power_ticks,
            power_mean: if w.power_ticks > 0 {
                w.power_sum / w.power_ticks as f64
            } else {
                0.0
            },
            power_max: w.power_max,
            power_p99: w.hist.quantile(0.99),
            sliding_p99: sliding_hist.quantile(0.99),
            churn: w.churn,
            sliding_churn,
            degraded_ticks: w.degraded_ticks,
            backstop_ticks: w.backstop_ticks,
            violations: w.violations,
            arb_rounds: w.arb_rounds,
            starved_rounds: w.starved_rounds,
            p_over: if w.power_ticks > 0 {
                w.over_ticks as f64 / w.power_ticks as f64
            } else {
                0.0
            },
            min_headroom: w.min_headroom.is_finite().then_some(w.min_headroom),
        });
        self.history.push_back(w);
        while self.history.len() >= SLIDING_WINDOWS {
            self.history.pop_front();
        }
    }

    /// Applies one rule evaluation and records any transition.
    fn transition(&mut self, i: usize, value: f64, time: SimTime, span: SpanCtx) {
        let Some(transition) = self.states[i].eval(&self.config.rules[i], value) else {
            return;
        };
        let rule = &self.config.rules[i];
        match transition {
            Transition::Fired => {
                let id = self.incidents.len() as u64;
                self.states[i].incident = Some(id);
                self.incidents.push(Incident {
                    id,
                    rule: rule.name.clone(),
                    severity: rule.severity,
                    pass: self.pass.clone(),
                    opened_at: time,
                    acked_at: None,
                    resolved_at: None,
                    peak: value,
                    span,
                });
                self.alerts.push(AlertRecord {
                    time,
                    pass: self.pass.clone(),
                    rule: rule.name.clone(),
                    state: "fire",
                    value,
                    span,
                    incident: id,
                });
            }
            Transition::Resolved => {
                let Some(id) = self.states[i].incident.take() else {
                    return;
                };
                let incident = &mut self.incidents[id as usize];
                incident.resolved_at = Some(time);
                incident.peak = self.states[i].peak;
                // A never-acked incident acks at resolution (MTTA is
                // then bounded by MTTR, as in real pager math).
                if incident.acked_at.is_none() {
                    incident.acked_at = Some(time);
                }
                self.alerts.push(AlertRecord {
                    time,
                    pass: self.pass.clone(),
                    rule: rule.name.clone(),
                    state: "resolve",
                    value,
                    span,
                    incident: id,
                });
            }
        }
    }

    /// Deterministic auto-ack: any incident open and unacked for
    /// `ack_after` of sim time acknowledges at the current evaluation
    /// instant.
    fn ack_sweep(&mut self, now: SimTime) {
        for (i, state) in self.states.iter().enumerate() {
            let Some(id) = state.incident else { continue };
            let incident = &mut self.incidents[id as usize];
            if incident.acked_at.is_none() && now >= incident.opened_at + self.config.ack_after {
                incident.acked_at = Some(now);
                self.alerts.push(AlertRecord {
                    time: now,
                    pass: incident.pass.clone(),
                    rule: self.config.rules[i].name.clone(),
                    state: "ack",
                    value: state.peak,
                    span: incident.span,
                    incident: id,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Cmp;
    use crate::WatchConfig;
    use ampere_sim::SimDuration;
    use ampere_telemetry::{SpanId, TraceId};

    fn power_rule(sustain: u32) -> AlertRule {
        AlertRule {
            name: "hot".into(),
            input: RuleInput::PowerNorm,
            scope: None,
            cmp: Cmp::Above,
            threshold: 0.9,
            clear: 0.8,
            sustain,
            severity: Severity::Warn,
        }
    }

    fn config(rules: Vec<AlertRule>) -> WatchConfig {
        WatchConfig {
            rules,
            ack_after: SimDuration::from_mins(2),
        }
    }

    fn tick_event(min: u64, power: f64) -> Event {
        Event::new(
            SimTime::from_mins(min),
            Severity::Info,
            "controller",
            "tick",
        )
        .with("power_norm", power)
        .with("et", 0.05)
        .with("u_target", 0.0)
        .with("froze", 0u64)
        .with("unfroze", 0u64)
        .with("decided", true)
        .with("mode", "nominal")
    }

    #[test]
    fn fires_resolves_and_links_incident() {
        let mut engine = WatchEngine::new(config(vec![power_rule(2)]));
        for (min, p) in [(0, 0.5), (1, 0.95), (2, 0.95), (3, 0.95), (4, 0.5)] {
            engine.observe(&tick_event(min, p));
        }
        let report = engine.finish();
        let fires: Vec<_> = report.alerts.iter().filter(|a| a.state == "fire").collect();
        assert_eq!(fires.len(), 1);
        // Sustain 2: breaches at minutes 1 and 2, fires at minute 2.
        assert_eq!(fires[0].time, SimTime::from_mins(2));
        assert_eq!(report.incidents.len(), 1);
        let incident = &report.incidents[0];
        assert_eq!(incident.opened_at, SimTime::from_mins(2));
        assert_eq!(incident.resolved_at, Some(SimTime::from_mins(4)));
        assert!((incident.peak - 0.95).abs() < 1e-12);
    }

    #[test]
    fn uncontrolled_segments_never_arm() {
        let mut engine = WatchEngine::new(config(vec![AlertRule {
            name: "prox".into(),
            input: RuleInput::ViolationStreak,
            scope: None,
            cmp: Cmp::Above,
            threshold: 0.5,
            clear: 0.5,
            sustain: 1,
            severity: Severity::Error,
        }]));
        // Violations without any controller tick: calibration phase.
        for min in 0..10 {
            engine.observe(
                &Event::new(
                    SimTime::from_mins(min),
                    Severity::Warn,
                    "breaker",
                    "violation",
                )
                .with("row", "control")
                .with("power_w", 1000.0)
                .with("limit_w", 900.0)
                .with("over_w", 100.0)
                .with("consecutive", min + 1),
            );
        }
        let report = engine.finish();
        assert!(report.alerts.is_empty(), "unarmed segment must stay silent");
    }

    #[test]
    fn violations_page_once_armed_and_link_their_span() {
        let span = SpanCtx {
            trace: TraceId(7),
            span: SpanId(9),
            parent: None,
        };
        let mut engine = WatchEngine::new(config(vec![AlertRule {
            name: "prox".into(),
            input: RuleInput::ViolationStreak,
            scope: None,
            cmp: Cmp::Above,
            threshold: 1.5,
            clear: 0.5,
            sustain: 2,
            severity: Severity::Error,
        }]));
        engine.observe(&tick_event(0, 0.5));
        for min in 1..=3 {
            engine.observe(
                &Event::new(
                    SimTime::from_mins(min),
                    Severity::Warn,
                    "breaker",
                    "violation",
                )
                .with("row", "control")
                .with("consecutive", min + 1)
                .in_span(span),
            );
            engine.observe(&tick_event(min, 0.5));
        }
        let report = engine.finish();
        assert_eq!(report.incidents.len(), 1);
        // consecutive=2 at min 1, 3 at min 2 → sustain 2 met at min 2.
        assert_eq!(report.incidents[0].opened_at, SimTime::from_mins(2));
        assert_eq!(report.incidents[0].span, span);
        // Violation-free armed tick resolves (0 < clear): finish closes
        // min 3's tick... min 3 still has a violation, so still active.
        assert_eq!(report.incidents[0].resolved_at, None);
    }

    #[test]
    fn scoped_rule_ignores_other_rows() {
        let mut engine = WatchEngine::new(config(vec![AlertRule {
            name: "prox-exp".into(),
            input: RuleInput::ViolationStreak,
            scope: Some("experiment".into()),
            cmp: Cmp::Above,
            threshold: 0.5,
            clear: 0.5,
            sustain: 1,
            severity: Severity::Error,
        }]));
        engine.observe(&tick_event(0, 0.5));
        engine.observe(
            &Event::new(
                SimTime::from_mins(1),
                Severity::Warn,
                "breaker",
                "violation",
            )
            .with("row", "control")
            .with("consecutive", 5u64),
        );
        engine.observe(&tick_event(1, 0.5));
        let report = engine.finish();
        assert!(report.alerts.is_empty(), "out-of-scope row must not page");
    }

    #[test]
    fn pass_markers_attribute_and_segment() {
        let mut engine = WatchEngine::new(config(vec![power_rule(1)]));
        engine.observe(&crate::pass_marker("clean"));
        engine.observe(&tick_event(0, 0.5));
        engine.observe(&tick_event(1, 0.5));
        engine.observe(&crate::pass_marker("chaos"));
        engine.observe(&tick_event(0, 0.99));
        engine.observe(&tick_event(1, 0.99));
        let report = engine.finish();
        assert_eq!(report.fires_in_pass("clean"), 0);
        assert_eq!(report.fires_in_pass("chaos"), 1);
        assert_eq!(report.incidents_for("chaos", "hot"), 1);
        // Two labelled segments → rollups attributed to both passes.
        assert!(report.windows.iter().any(|w| w.pass == "clean"));
        assert!(report.windows.iter().any(|w| w.pass == "chaos"));
    }

    #[test]
    fn time_regression_starts_new_segment_and_rearms() {
        let mut engine = WatchEngine::new(config(vec![power_rule(1)]));
        engine.observe(&tick_event(10, 0.5));
        engine.observe(&tick_event(11, 0.5));
        // Clock restart: a second phase from t=0, no controller ticks.
        engine.observe(
            &Event::new(SimTime::from_mins(0), Severity::Debug, "monitor", "sweep")
                .with("servers", 10u64)
                .with("dc_power_w", 100.0),
        );
        engine.observe(
            &Event::new(
                SimTime::from_mins(1),
                Severity::Warn,
                "breaker",
                "violation",
            )
            .with("row", "r")
            .with("consecutive", 9u64),
        );
        let report = engine.finish();
        // Segment 1 never armed, so nothing fired despite the segment-0
        // controller ticks.
        assert!(report.alerts.is_empty());
        assert!(report.windows.iter().any(|w| w.segment == 0));
        assert!(report.windows.iter().any(|w| w.segment == 1));
    }

    #[test]
    fn window_rollup_and_burn_rule() {
        let mut rules = vec![AlertRule {
            name: "degraded-burn".into(),
            input: RuleInput::DegradedBurn,
            scope: None,
            cmp: Cmp::Above,
            threshold: 0.2,
            clear: 0.05,
            sustain: 1,
            severity: Severity::Warn,
        }];
        rules.push(power_rule(99)); // inert
        let mut engine = WatchEngine::new(config(rules));
        // Window 0 (mins 0..5): 2/5 degraded ticks → burn 0.4 > 0.2.
        for min in 0..5 {
            let mut e = tick_event(min, 0.5);
            if min < 2 {
                // Rebuild with degraded mode.
                e = Event::new(
                    SimTime::from_mins(min),
                    Severity::Info,
                    "controller",
                    "tick",
                )
                .with("power_norm", 0.5)
                .with("et", 0.05)
                .with("froze", 1u64)
                .with("unfroze", 0u64)
                .with("mode", "degraded");
            }
            engine.observe(&e);
        }
        // First tick of window 1 closes window 0.
        engine.observe(&tick_event(5, 0.5));
        let report = engine.finish();
        let fires: Vec<_> = report.alerts.iter().filter(|a| a.state == "fire").collect();
        assert_eq!(fires.len(), 1);
        assert_eq!(fires[0].rule, "degraded-burn");
        // Window rules evaluate at the window end boundary.
        assert_eq!(fires[0].time, SimTime::from_mins(5));
        let w0 = &report.windows[0];
        assert_eq!(w0.ticks, 5);
        assert_eq!(w0.degraded_ticks, 2);
        assert_eq!(w0.churn, 2);
        assert!((w0.power_mean - 0.5).abs() < 1e-12);
    }

    fn starvation_rule(sustain: u32) -> AlertRule {
        AlertRule {
            name: "arbiter-starvation".into(),
            input: RuleInput::ArbiterStarvation,
            scope: None,
            cmp: Cmp::Above,
            threshold: 0.5,
            clear: 0.1,
            sustain,
            severity: Severity::Warn,
        }
    }

    fn reallocate_event(min: u64, pinned: u64, reserve_w: f64) -> Event {
        Event::new(
            SimTime::from_mins(min),
            Severity::Info,
            "arbiter",
            "reallocate",
        )
        .with("round", min)
        .with("budget_w", 30_000.0)
        .with("reserve_w", reserve_w)
        .with("held", false)
        .with("pinned", pinned)
    }

    #[test]
    fn starvation_fires_on_sustained_pinned_rounds_with_reserve() {
        let mut engine = WatchEngine::new(config(vec![starvation_rule(2)]));
        // Windows 0-1 (mins 0..10): every round starved → two breaching
        // windows meet sustain 2; window 2 is clean → resolves.
        for min in 0..15 {
            engine.observe(&tick_event(min, 0.5));
            let pinned = if min < 10 { 1 } else { 0 };
            let reserve = if min < 10 { 1_500.0 } else { 0.0 };
            engine.observe(&reallocate_event(min, pinned, reserve));
        }
        engine.observe(&tick_event(15, 0.5));
        let report = engine.finish();
        let fires: Vec<_> = report.alerts.iter().filter(|a| a.state == "fire").collect();
        assert_eq!(fires.len(), 1);
        assert_eq!(fires[0].rule, "arbiter-starvation");
        // Window 1 closes at min 10: the second breaching window.
        assert_eq!(fires[0].time, SimTime::from_mins(10));
        assert_eq!(
            report.incidents[0].resolved_at,
            Some(SimTime::from_mins(15))
        );
        assert_eq!(report.windows[0].arb_rounds, 5);
        assert_eq!(report.windows[0].starved_rounds, 5);
    }

    #[test]
    fn starvation_stays_silent_without_arbiter_or_without_reserve() {
        // No arbiter events at all: the gauge is unknown every window.
        let mut engine = WatchEngine::new(config(vec![starvation_rule(1)]));
        for min in 0..12 {
            engine.observe(&tick_event(min, 0.5));
        }
        assert!(engine.finish().alerts.is_empty(), "single-row run paged");
        // Rounds pin without held reserve (floors absorb the budget):
        // not starvation — nothing reclaimable is being withheld.
        let mut engine = WatchEngine::new(config(vec![starvation_rule(1)]));
        for min in 0..12 {
            engine.observe(&tick_event(min, 0.5));
            engine.observe(&reallocate_event(min, 1, 0.0));
        }
        let report = engine.finish();
        assert!(report.alerts.is_empty(), "reserve-free pinning paged");
        assert_eq!(report.windows[0].arb_rounds, 5);
        assert_eq!(report.windows[0].starved_rounds, 0);
    }

    #[test]
    fn incident_auto_acks_after_deadline() {
        let mut engine = WatchEngine::new(config(vec![power_rule(1)]));
        for min in 0..6 {
            engine.observe(&tick_event(min, 0.99));
        }
        let report = engine.finish();
        assert_eq!(report.incidents.len(), 1);
        let incident = &report.incidents[0];
        assert_eq!(incident.opened_at, SimTime::from_mins(0));
        // ack_after = 2 min: the minute-2 tick close acks it.
        assert_eq!(incident.acked_at, Some(SimTime::from_mins(2)));
        assert_eq!(incident.resolved_at, None, "still hot at stream end");
        assert!(report.alerts.iter().any(|a| a.state == "ack"));
    }

    #[test]
    fn backstop_ticks_feed_slo_burn() {
        let mut engine = WatchEngine::new(config(vec![AlertRule {
            name: "slo-burn".into(),
            input: RuleInput::SloBurn,
            scope: None,
            cmp: Cmp::Above,
            threshold: 0.25,
            clear: 0.05,
            sustain: 1,
            severity: Severity::Warn,
        }]));
        engine.observe(&tick_event(0, 0.5));
        engine.observe(
            &Event::new(
                SimTime::from_mins(1),
                Severity::Warn,
                "watchdog",
                "backstop_armed",
            )
            .with("unhealthy_ticks", 3u64),
        );
        for min in 1..5 {
            engine.observe(&tick_event(min, 0.5));
        }
        engine.observe(&tick_event(5, 0.5));
        let report = engine.finish();
        // Minutes 1..4 armed → 4/6 ticks... armed event lands at min 1
        // before its tick closes, so ticks 1-4 of window 0 count.
        assert_eq!(report.windows[0].backstop_ticks, 4);
        assert_eq!(report.fires_in_pass("run"), 1);
    }

    #[test]
    fn report_digests_are_stable_and_stream_sensitive() {
        // The dump's stream digests hash lines encoded field for field
        // from the report, so they are stable when the report is, and
        // every float must be finite to encode as a JSON number.
        let run = |hot_mins: u64| {
            let mut engine = WatchEngine::new(config(vec![power_rule(1)]));
            for min in 0..10 {
                let p = if min < hot_mins { 0.99 } else { 0.5 };
                engine.observe(&tick_event(min, p));
            }
            engine.finish()
        };
        let a = run(3);
        let b = run(3);
        let c = run(5);
        let streams = |r: &WatchReport| {
            format!(
                "{:?}|{:?}|{:?}|{:?}",
                r.rules, r.alerts, r.incidents, r.windows
            )
        };
        assert_eq!(streams(&a), streams(&b));
        assert_ne!(format!("{:?}", a.alerts), format!("{:?}", c.alerts));
        assert_eq!(format!("{:?}", a.rules), format!("{:?}", c.rules));
        assert!(!a.alerts.is_empty());
        assert!(a.alerts.iter().all(|x| x.value.is_finite()));
        assert!(a.incidents.iter().all(|i| i.peak.is_finite()));
        for w in &a.windows {
            let floats = [
                w.power_mean,
                w.power_max,
                w.power_p99,
                w.sliding_p99,
                w.p_over,
            ];
            assert!(floats.iter().all(|v| v.is_finite()), "{w:?}");
            assert!(w.min_headroom.is_none_or(f64::is_finite), "{w:?}");
        }
    }
}
