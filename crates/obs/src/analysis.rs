//! Analyses over one run dump's event stream.
//!
//! Everything here consumes `&[ParsedEvent]` (see [`crate::reader`])
//! and produces small, serializable summaries: the freeze-duration
//! distribution, decision→response latency, violation attribution by
//! `Et` regime, violation-epoch timelines and the one-table run
//! summary the `report` binary renders and gates CI on.
//!
//! A dump produced by `repro all --telemetry` concatenates several
//! experiments, so sim time restarts mid-file. Analyses that compare
//! *later* events against *earlier* ones first split the stream into
//! [`segments`] — maximal runs of non-decreasing timestamps — and never
//! reason across a restart.

use crate::reader::Run;
use crate::trace::{LinkReport, TraceIndex};

use ampere_telemetry::ParsedEvent;

use std::ops::Range;

fn mins(e: &ParsedEvent) -> f64 {
    e.sim_time.as_millis() as f64 / 60_000.0
}

fn f64_field(e: &ParsedEvent, key: &str) -> Option<f64> {
    e.field(key).and_then(|v| v.as_f64())
}

/// Splits a dump into per-experiment segments: a new segment starts
/// wherever sim time decreases (each experiment restarts at t≈0).
pub fn segments(events: &[ParsedEvent]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..events.len() {
        if events[i].sim_time < events[i - 1].sim_time {
            out.push(start..i);
            start = i;
        }
    }
    if start < events.len() {
        out.push(start..events.len());
    }
    out
}

/// An empirical distribution with ready-made quantiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Distribution {
    /// Samples, sorted ascending.
    pub samples: Vec<f64>,
}

impl Distribution {
    /// Builds from unsorted samples (non-finite values dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| v.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Self { samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Nearest-rank quantile (`q` in [0, 1]), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let idx = ((q.clamp(0.0, 1.0) * (self.samples.len() - 1) as f64).round()) as usize;
        Some(self.samples[idx])
    }

    /// CDF points `(value, cumulative fraction)`, deduplicated on value.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let n = self.samples.len();
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &v) in self.samples.iter().enumerate() {
            let frac = (i + 1) as f64 / n as f64;
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 = frac,
                _ => out.push((v, frac)),
            }
        }
        out
    }
}

/// Freeze-hold durations, from the `held_mins` field of
/// `scheduler/unfreeze` events. Freezes still in force at the end of a
/// run never produce an unfreeze and are not represented.
pub fn freeze_durations(events: &[ParsedEvent]) -> Distribution {
    Distribution::new(
        events
            .iter()
            .filter(|e| e.component == "scheduler" && e.name == "unfreeze")
            .filter_map(|e| f64_field(e, "held_mins"))
            .collect(),
    )
}

/// Decision→response latencies: for every controller tick that froze
/// servers, the minutes until the first later tick observing strictly
/// lower normalized power. Ticks with no later drop in their segment
/// are censored (not counted) — reported separately.
#[derive(Debug, Clone, Default)]
pub struct DecisionLatency {
    /// Latencies in minutes, one per responded-to decision.
    pub latencies: Distribution,
    /// Acting ticks whose power never dropped before the segment ended.
    pub censored: usize,
}

/// Computes [`DecisionLatency`] across all segments of a dump.
pub fn decision_latency(events: &[ParsedEvent]) -> DecisionLatency {
    let mut samples = Vec::new();
    let mut censored = 0;
    for seg in segments(events) {
        let ticks: Vec<&ParsedEvent> = events[seg]
            .iter()
            .filter(|e| e.component == "controller" && e.name == "tick")
            .collect();
        for (i, t) in ticks.iter().enumerate() {
            let acted = t.field("froze").and_then(|v| v.as_u64()).unwrap_or(0) > 0;
            if !acted {
                continue;
            }
            let Some(p0) = f64_field(t, "power_norm") else {
                continue;
            };
            let response = ticks[i + 1..].iter().find(|later| {
                later.sim_time > t.sim_time
                    && f64_field(later, "power_norm").is_some_and(|p| p < p0)
            });
            match response {
                Some(later) => samples.push(mins(later) - mins(t)),
                None => censored += 1,
            }
        }
    }
    DecisionLatency {
        latencies: Distribution::new(samples),
        censored,
    }
}

/// `Et` regime bins used for violation attribution: the prediction
/// margin the originating tick ran with.
pub const ET_BINS: [(f64, &str); 5] = [
    (0.01, "< 0.01"),
    (0.02, "0.01–0.02"),
    (0.05, "0.02–0.05"),
    (0.10, "0.05–0.10"),
    (f64::INFINITY, "≥ 0.10"),
];

/// Which control regimes breaker violations happened under.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViolationAttribution {
    /// Violations per [`ET_BINS`] bucket of the originating tick's `Et`.
    pub by_et: [u64; ET_BINS.len()],
    /// Violations that could not be linked to a tick (uncontrolled
    /// domains, untraced runs, or a filtered-out root).
    pub unlinked: u64,
}

impl ViolationAttribution {
    /// Attributes every `breaker/violation` event to the `Et` of its
    /// trace-root controller tick.
    pub fn build(events: &[ParsedEvent], index: &TraceIndex) -> Self {
        let mut a = ViolationAttribution::default();
        for e in events {
            if !(e.component == "breaker" && e.name == "violation") {
                continue;
            }
            let et = index
                .root_of(events, e.span)
                .filter(|root| root.component == "controller" && root.name == "tick")
                .and_then(|root| f64_field(root, "et"));
            match et {
                Some(et) => {
                    let bin = ET_BINS.iter().position(|&(hi, _)| et < hi).unwrap_or(0);
                    a.by_et[bin] += 1;
                }
                None => a.unlinked += 1,
            }
        }
        a
    }

    /// Total violations seen.
    pub fn total(&self) -> u64 {
        self.by_et.iter().sum::<u64>() + self.unlinked
    }
}

/// One maximal run of consecutive violating samples on one row.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationEpoch {
    /// Row label from the violation events (may be empty).
    pub row: String,
    /// First violating minute.
    pub start_min: f64,
    /// Last violating minute.
    pub end_min: f64,
    /// Samples in the epoch.
    pub count: usize,
    /// Worst overload above the limit, in watts.
    pub worst_over_w: f64,
}

/// Groups violations into epochs: consecutive events for the same row
/// whose `consecutive` counter keeps increasing. Works per segment so
/// experiment restarts never merge.
pub fn violation_epochs(events: &[ParsedEvent]) -> Vec<ViolationEpoch> {
    use std::collections::HashMap;
    let mut epochs: Vec<ViolationEpoch> = Vec::new();
    for seg in segments(events) {
        // Rows interleave in the file, so continuity is tracked per row:
        // row label → index of its open epoch.
        let mut open: HashMap<String, usize> = HashMap::new();
        for e in events[seg].iter() {
            if !(e.component == "breaker" && e.name == "violation") {
                continue;
            }
            let row = e
                .field("row")
                .and_then(|v| v.as_str())
                .unwrap_or_default()
                .to_string();
            let over_w = f64_field(e, "over_w").unwrap_or(0.0);
            let consecutive = e.field("consecutive").and_then(|v| v.as_u64()).unwrap_or(1);
            let continues = consecutive > 1
                && open
                    .get(&row)
                    .is_some_and(|&i| epochs[i].count as u64 + 1 == consecutive);
            if continues {
                let ep = &mut epochs[open[&row]];
                ep.end_min = mins(e);
                ep.count += 1;
                ep.worst_over_w = ep.worst_over_w.max(over_w);
            } else {
                epochs.push(ViolationEpoch {
                    row: row.clone(),
                    start_min: mins(e),
                    end_min: mins(e),
                    count: 1,
                    worst_over_w: over_w,
                });
                open.insert(row, epochs.len() - 1);
            }
        }
    }
    epochs
}

/// What fault injection did to a run and how the stack degraded:
/// everything the chaos experiments and drills leave in the event
/// stream and metrics snapshot. All zeros for a fault-free run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradedOps {
    /// Controller ticks executed in degraded mode.
    pub degraded_ticks: u64,
    /// Nominal↔degraded mode transitions.
    pub mode_transitions: u64,
    /// Controller outages begun (`faults/outage_begin`).
    pub outages: u64,
    /// Times the watchdog armed the capping backstop.
    pub backstop_arms: u64,
    /// Total minutes the backstop stayed armed (sum of `armed_mins`
    /// over disarm events; a backstop still armed at end-of-run is not
    /// counted).
    pub backstop_armed_mins: f64,
    /// Replacement controllers cold-started from the time-series DB.
    pub failovers: u64,
    /// Per-server samples dropped by the injector (metrics snapshot;
    /// 0 when the dump has no snapshot).
    pub samples_dropped: u64,
    /// Whole sweeps lost by the injector.
    pub sweeps_lost: u64,
    /// Freeze/unfreeze RPCs lost at the scheduler boundary.
    pub rpcs_lost: u64,
}

impl DegradedOps {
    /// Extracts degraded-operation evidence from a loaded run.
    pub fn build(run: &Run) -> Self {
        let events = &run.events;
        let count = |component: &str, name: &str| {
            events
                .iter()
                .filter(|e| e.component == component && e.name == name)
                .count() as u64
        };
        let counter = |name: &str| {
            run.metric(name, &[])
                .and_then(|m| m.as_counter())
                .unwrap_or(0)
        };
        DegradedOps {
            degraded_ticks: events
                .iter()
                .filter(|e| e.component == "controller" && e.name == "tick")
                .filter(|e| {
                    e.field("mode")
                        .and_then(|v| v.as_str())
                        .is_some_and(|m| m == "degraded")
                })
                .count() as u64,
            mode_transitions: count("controller", "mode"),
            outages: count("faults", "outage_begin"),
            backstop_arms: count("watchdog", "backstop_armed"),
            backstop_armed_mins: events
                .iter()
                .filter(|e| e.component == "watchdog" && e.name == "backstop_disarmed")
                .filter_map(|e| f64_field(e, "armed_mins"))
                .sum(),
            failovers: count("controller", "failover"),
            samples_dropped: counter("fault_samples_dropped"),
            sweeps_lost: counter("fault_sweeps_lost"),
            rpcs_lost: counter("fault_rpcs_lost"),
        }
    }

    /// Whether the run shows any fault or degradation at all.
    pub fn is_clean(&self) -> bool {
        *self == DegradedOps::default()
    }
}

/// The one-table summary of a run: every value is a plain number so the
/// same list drives the Markdown table, the JSON report and the
/// baseline regression check.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// `(metric name, value)` pairs, in render order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunSummary {
    /// Builds the summary from a loaded run. Only event-derived and
    /// count-derived quantities go in — never the phase profiler's
    /// wall-clock histograms, so the summary of a seeded run is
    /// deterministic.
    pub fn build(run: &Run) -> Self {
        let events = &run.events;
        let index = TraceIndex::build(events);
        let link = LinkReport::build(events, &index);
        let count = |component: &str, name: &str| {
            events
                .iter()
                .filter(|e| e.component == component && e.name == name)
                .count() as f64
        };
        let ticks: Vec<&ParsedEvent> = events
            .iter()
            .filter(|e| e.component == "controller" && e.name == "tick")
            .collect();
        let tick_stat =
            |key: &str| Distribution::new(ticks.iter().filter_map(|t| f64_field(t, key)).collect());
        let power = tick_stat("power_norm");
        let et = tick_stat("et");
        let durations = freeze_durations(events);
        let latency = decision_latency(events);
        let attribution = ViolationAttribution::build(events, &index);
        let degraded = DegradedOps::build(run);
        let sink_errors = run
            .metric("telemetry_sink_errors", &[])
            .and_then(|m| m.as_counter())
            .unwrap_or(0) as f64;

        let mut metrics: Vec<(&'static str, f64)> = vec![
            ("events_total", events.len() as f64),
            ("traced_events", link.traced as f64),
            ("traces", index.trace_count() as f64),
            ("controller_ticks", ticks.len() as f64),
            ("freezes", link.freezes as f64),
            ("unfreezes", count("scheduler", "unfreeze")),
            ("freeze_link_ratio", link.freeze_link_ratio()),
            ("violations", attribution.total() as f64),
            ("violations_linked", link.violations_linked as f64),
            ("breaker_trips", count("breaker", "trip")),
            ("sink_errors", sink_errors),
            ("malformed_lines", run.malformed_lines as f64),
            ("degraded_ticks", degraded.degraded_ticks as f64),
            ("mode_transitions", degraded.mode_transitions as f64),
            ("backstop_arms", degraded.backstop_arms as f64),
            ("failovers", degraded.failovers as f64),
        ];
        let mut push_opt = |name: &'static str, v: Option<f64>| {
            if let Some(v) = v {
                metrics.push((name, v));
            }
        };
        push_opt("power_norm_mean", power.mean());
        push_opt("power_norm_max", power.quantile(1.0));
        push_opt("et_mean", et.mean());
        push_opt("freeze_hold_mean_mins", durations.mean());
        push_opt("freeze_hold_p95_mins", durations.quantile(0.95));
        push_opt("decision_latency_mean_mins", latency.latencies.mean());
        push_opt(
            "decision_latency_p95_mins",
            latency.latencies.quantile(0.95),
        );
        metrics.push(("decision_latency_censored", latency.censored as f64));
        RunSummary { metrics }
    }

    /// A metric value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::SimTime;
    use ampere_telemetry::{Event, Severity, SpanCtx, SpanId, TraceId};

    fn parsed(e: Event) -> ParsedEvent {
        Event::parse_json(&e.to_json()).unwrap()
    }

    fn tick(min: u64, span: u64, power: f64, froze: u64, et: f64) -> ParsedEvent {
        parsed(
            Event::new(
                SimTime::from_mins(min),
                Severity::Info,
                "controller",
                "tick",
            )
            .in_span(SpanCtx {
                trace: TraceId(span),
                span: SpanId(span),
                parent: None,
            })
            .with("power_norm", power)
            .with("et", et)
            .with("froze", froze),
        )
    }

    fn violation(min: u64, tick_span: u64, consecutive: u64) -> ParsedEvent {
        let span = SpanCtx {
            trace: TraceId(tick_span),
            span: SpanId(tick_span),
            parent: None,
        };
        parsed(
            Event::new(
                SimTime::from_mins(min),
                Severity::Warn,
                "breaker",
                "violation",
            )
            .in_span(if tick_span == 0 { SpanCtx::NONE } else { span })
            .with("row", "row0")
            .with("over_w", 25.0)
            .with("consecutive", consecutive),
        )
    }

    fn unfreeze(min: u64, held: f64) -> ParsedEvent {
        parsed(
            Event::new(
                SimTime::from_mins(min),
                Severity::Info,
                "scheduler",
                "unfreeze",
            )
            .with("server", 1u64)
            .with("held_mins", held),
        )
    }

    #[test]
    fn segments_split_on_time_restart() {
        let events = vec![
            tick(1, 1, 1.0, 0, 0.02),
            tick(2, 2, 1.0, 0, 0.02),
            tick(1, 3, 1.0, 0, 0.02),
        ];
        let segs = segments(&events);
        assert_eq!(segs, vec![0..2, 2..3]);
    }

    #[test]
    fn latency_measures_minutes_to_power_drop() {
        let events = vec![
            tick(1, 1, 1.25, 4, 0.02), // Acts.
            tick(2, 2, 1.26, 0, 0.02), // Still rising.
            tick(3, 3, 1.10, 0, 0.02), // Response: 2 minutes later.
            tick(4, 4, 1.30, 2, 0.02), // Acts, never drops → censored.
        ];
        let lat = decision_latency(&events);
        assert_eq!(lat.latencies.count(), 1);
        assert!((lat.latencies.samples[0] - 2.0).abs() < 1e-12);
        assert_eq!(lat.censored, 1);
    }

    #[test]
    fn latency_never_crosses_segments() {
        let events = vec![
            tick(5, 1, 1.25, 4, 0.02), // Acts at the end of experiment 1.
            tick(1, 2, 0.90, 0, 0.02), // Experiment 2 restarts lower.
        ];
        let lat = decision_latency(&events);
        assert_eq!(lat.latencies.count(), 0);
        assert_eq!(lat.censored, 1);
    }

    #[test]
    fn freeze_cdf_from_held_mins() {
        let events = vec![unfreeze(10, 5.0), unfreeze(11, 15.0), unfreeze(12, 5.0)];
        let d = freeze_durations(&events);
        assert_eq!(d.count(), 3);
        assert!((d.mean().unwrap() - 25.0 / 3.0).abs() < 1e-12);
        let pts = d.cdf_points();
        assert_eq!(pts.len(), 2); // 5.0 deduplicated.
        assert!((pts[0].1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn attribution_buckets_by_root_tick_et() {
        let events = vec![
            tick(1, 1, 1.25, 4, 0.015),
            violation(2, 1, 1), // Links to the tick: Et 0.015 → bin 1.
            violation(3, 0, 2), // Untraced.
        ];
        let idx = TraceIndex::build(&events);
        let a = ViolationAttribution::build(&events, &idx);
        assert_eq!(a.by_et[1], 1);
        assert_eq!(a.unlinked, 1);
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn epochs_group_consecutive_violations() {
        let events = vec![
            violation(1, 0, 1),
            violation(2, 0, 2),
            violation(3, 0, 3),
            violation(7, 0, 1), // New epoch after recovery.
        ];
        let eps = violation_epochs(&events);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].count, 3);
        assert!((eps[0].start_min - 1.0).abs() < 1e-12);
        assert!((eps[0].end_min - 3.0).abs() < 1e-12);
        assert_eq!(eps[1].count, 1);
    }

    #[test]
    fn degraded_ops_from_events_and_counters() {
        let degraded_tick = parsed(
            Event::new(SimTime::from_mins(3), Severity::Info, "controller", "tick")
                .with("power_norm", 0.9)
                .with("mode", "degraded"),
        );
        let transition = parsed(
            Event::new(SimTime::from_mins(3), Severity::Warn, "controller", "mode")
                .with("from", "nominal")
                .with("to", "degraded"),
        );
        let outage = parsed(Event::new(
            SimTime::from_mins(4),
            Severity::Warn,
            "faults",
            "outage_begin",
        ));
        let armed = parsed(Event::new(
            SimTime::from_mins(5),
            Severity::Warn,
            "watchdog",
            "backstop_armed",
        ));
        let disarmed = parsed(
            Event::new(
                SimTime::from_mins(12),
                Severity::Info,
                "watchdog",
                "backstop_disarmed",
            )
            .with("armed_mins", 7.0),
        );
        let failover = parsed(Event::new(
            SimTime::from_mins(14),
            Severity::Info,
            "controller",
            "failover",
        ));
        let run = Run {
            events: vec![
                tick(1, 1, 0.8, 0, 0.02), // Nominal: not counted.
                degraded_tick,
                transition,
                outage,
                armed,
                disarmed,
                failover,
            ],
            metrics: vec![crate::reader::MetricLine {
                name: "fault_samples_dropped".into(),
                labels: Vec::new(),
                value: crate::reader::MetricValue::Counter(42),
            }],
            malformed_lines: 0,
        };
        let d = DegradedOps::build(&run);
        assert!(!d.is_clean());
        assert_eq!(d.degraded_ticks, 1);
        assert_eq!(d.mode_transitions, 1);
        assert_eq!(d.outages, 1);
        assert_eq!(d.backstop_arms, 1);
        assert!((d.backstop_armed_mins - 7.0).abs() < 1e-12);
        assert_eq!(d.failovers, 1);
        assert_eq!(d.samples_dropped, 42);
        assert_eq!(d.sweeps_lost, 0);

        let s = RunSummary::build(&run);
        assert_eq!(s.get("degraded_ticks"), Some(1.0));
        assert_eq!(s.get("backstop_arms"), Some(1.0));
        assert_eq!(s.get("failovers"), Some(1.0));

        assert!(DegradedOps::build(&Run::default()).is_clean());
    }

    #[test]
    fn summary_is_plain_numbers() {
        let run = Run {
            events: vec![tick(1, 1, 1.25, 4, 0.02), unfreeze(5, 4.0)],
            metrics: Vec::new(),
            malformed_lines: 0,
        };
        let s = RunSummary::build(&run);
        assert_eq!(s.get("controller_ticks"), Some(1.0));
        assert_eq!(s.get("unfreezes"), Some(1.0));
        assert_eq!(s.get("power_norm_max"), Some(1.25));
        assert_eq!(s.get("freeze_hold_mean_mins"), Some(4.0));
        assert!(s.metrics.iter().all(|(_, v)| v.is_finite()));
    }
}
