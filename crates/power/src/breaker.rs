//! Row-level PDU circuit-breaker accounting.
//!
//! The provisioned row budget is enforced by a physical fuse (§2.1). A
//! *power violation* in the paper's evaluation is a one-minute power
//! sample above the provisioned budget (Table 2 counts 321 of them for
//! the uncontrolled group under heavy load). The breaker model counts
//! violations and also tracks a sustained-overload trip condition: real
//! thermal-magnetic breakers tolerate brief overloads but trip when the
//! overload persists.

use ampere_sim::SimTime;
use ampere_telemetry::{buckets, Counter, Event, Histogram, Severity, SpanCtx, Telemetry};

use crate::error::PowerConfigError;

/// A row-level circuit breaker / violation counter.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    limit_w: f64,
    /// Consecutive over-limit samples required to trip the breaker.
    trip_after: u32,
    consecutive_over: u32,
    violations: u64,
    tripped_at: Option<SimTime>,
    worst_overload_w: f64,
    telemetry: Telemetry,
    label: String,
    /// Trace context of the control decision whose interval this
    /// breaker is currently observing (set by the driver after each
    /// controller tick). A violation at minute `m` is caused by the
    /// decision in force *before* `m`, so drivers wire the previous
    /// tick's span here — violation and trip events then join that
    /// tick's trace.
    control_span: SpanCtx,
    /// Violation counter and run-length histogram, registered at the
    /// first observation under the pipeline and label then in effect,
    /// so the builder steps before it register nothing.
    metrics: Option<(Counter, Histogram)>,
}

impl CircuitBreaker {
    /// Creates a breaker with the given limit. `trip_after` is the
    /// number of *consecutive* over-limit one-minute samples that cause
    /// a trip (outage); the paper's PDUs tolerate brief excursions, and
    /// 5 consecutive minutes of overload is our stand-in for the thermal
    /// trip curve.
    ///
    /// Telemetry (violation/trip events, the violation-run-length
    /// histogram) reports into the global pipeline; see
    /// [`CircuitBreaker::with_telemetry`] and
    /// [`CircuitBreaker::with_label`]. Its metrics are registered once,
    /// at the first [`CircuitBreaker::observe`], under the pipeline and
    /// label set by then.
    pub fn new(limit_w: f64, trip_after: u32) -> Self {
        Self::try_new(limit_w, trip_after).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`CircuitBreaker::new`] but returns a typed error instead
    /// of panicking on invalid input.
    pub fn try_new(limit_w: f64, trip_after: u32) -> Result<Self, PowerConfigError> {
        if !(limit_w > 0.0 && limit_w.is_finite()) {
            return Err(PowerConfigError::BadBreakerLimit(limit_w));
        }
        if trip_after == 0 {
            return Err(PowerConfigError::BadTripAfter);
        }
        Ok(Self {
            limit_w,
            trip_after,
            consecutive_over: 0,
            violations: 0,
            tripped_at: None,
            worst_overload_w: 0.0,
            telemetry: ampere_telemetry::global(),
            label: String::new(),
            control_span: SpanCtx::NONE,
            metrics: None,
        })
    }

    /// Replaces the telemetry pipeline (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Names this breaker's row in telemetry labels (builder style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The breaker limit in watts.
    pub fn limit_w(&self) -> f64 {
        self.limit_w
    }

    /// Sets the trace context violations observed from now on belong
    /// to: the controller tick whose decision interval is in force.
    /// [`SpanCtx::NONE`] leaves breaker events untraced.
    pub fn set_control_span(&mut self, span: SpanCtx) {
        self.control_span = span;
    }

    /// Records one power sample; returns `true` if this sample is a
    /// violation (over the limit).
    pub fn observe(&mut self, at: SimTime, power_w: f64) -> bool {
        let (violation_counter, run_hist) = self.metrics.get_or_insert_with(|| {
            let labels = [("row", self.label.as_str())];
            (
                self.telemetry.counter("breaker_violations", &labels),
                // Run lengths in one-minute samples: 1, 2, 4, … 512.
                self.telemetry.histogram(
                    "breaker_violation_run_mins",
                    &labels,
                    &buckets::exponential(1.0, 2.0, 10),
                ),
            )
        });
        let over = power_w > self.limit_w;
        if over {
            self.violations += 1;
            self.consecutive_over += 1;
            self.worst_overload_w = self.worst_overload_w.max(power_w - self.limit_w);
            violation_counter.inc();
            self.telemetry.emit_with(|| {
                Event::new(at, Severity::Warn, "breaker", "violation")
                    .in_span(self.control_span)
                    .with("row", self.label.as_str())
                    .with("power_w", power_w)
                    .with("limit_w", self.limit_w)
                    .with("over_w", power_w - self.limit_w)
                    .with("consecutive", u64::from(self.consecutive_over))
            });
            if self.consecutive_over >= self.trip_after && self.tripped_at.is_none() {
                self.tripped_at = Some(at);
                self.telemetry.emit_with(|| {
                    Event::new(at, Severity::Error, "breaker", "trip")
                        .in_span(self.control_span)
                        .with("row", self.label.as_str())
                        .with("power_w", power_w)
                        .with("limit_w", self.limit_w)
                        .with("sustained_mins", u64::from(self.consecutive_over))
                });
            }
        } else {
            if self.consecutive_over > 0 {
                // A violation run just ended; record its duration.
                run_hist.record(f64::from(self.consecutive_over));
            }
            self.consecutive_over = 0;
        }
        over
    }

    /// Total violation count so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Time the breaker tripped (sustained overload), if it did. A trip
    /// would be a catastrophic outage in production; experiments assert
    /// this stays `None` under Ampere's control.
    pub fn tripped_at(&self) -> Option<SimTime> {
        self.tripped_at
    }

    /// Largest observed overload above the limit, in watts.
    pub fn worst_overload_w(&self) -> f64 {
        self.worst_overload_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::SimDuration;

    fn t(min: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(min)
    }

    #[test]
    fn counts_violations() {
        let mut b = CircuitBreaker::new(100.0, 5);
        assert!(!b.observe(t(0), 99.0));
        assert!(b.observe(t(1), 101.0));
        assert!(!b.observe(t(2), 100.0)); // At the limit is not over it.
        assert_eq!(b.violations(), 1);
    }

    #[test]
    fn trips_on_sustained_overload() {
        let mut b = CircuitBreaker::new(100.0, 3);
        b.observe(t(0), 110.0);
        b.observe(t(1), 110.0);
        assert_eq!(b.tripped_at(), None);
        b.observe(t(2), 110.0);
        assert_eq!(b.tripped_at(), Some(t(2)));
        // Trip time latches at the first trip.
        b.observe(t(3), 110.0);
        assert_eq!(b.tripped_at(), Some(t(2)));
    }

    #[test]
    fn recovery_resets_consecutive_count() {
        let mut b = CircuitBreaker::new(100.0, 3);
        b.observe(t(0), 110.0);
        b.observe(t(1), 110.0);
        b.observe(t(2), 90.0);
        b.observe(t(3), 110.0);
        b.observe(t(4), 110.0);
        assert_eq!(b.tripped_at(), None);
        assert_eq!(b.violations(), 4);
    }

    #[test]
    fn tracks_worst_overload() {
        let mut b = CircuitBreaker::new(100.0, 10);
        b.observe(t(0), 105.0);
        b.observe(t(1), 112.0);
        b.observe(t(2), 101.0);
        assert!((b.worst_overload_w() - 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad breaker limit")]
    fn rejects_bad_limit() {
        let _ = CircuitBreaker::new(0.0, 1);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        use crate::error::PowerConfigError;
        assert!(matches!(
            CircuitBreaker::try_new(f64::NAN, 5),
            Err(PowerConfigError::BadBreakerLimit(v)) if v.is_nan()
        ));
        assert!(matches!(
            CircuitBreaker::try_new(-1.0, 5),
            Err(PowerConfigError::BadBreakerLimit(v)) if v == -1.0
        ));
        assert_eq!(
            CircuitBreaker::try_new(100.0, 0).err(),
            Some(PowerConfigError::BadTripAfter)
        );
        assert!(CircuitBreaker::try_new(100.0, 5).is_ok());
    }

    #[test]
    fn violations_join_the_wired_control_span() {
        use ampere_telemetry::{RingBufferSink, Telemetry};

        let (sink, events) = RingBufferSink::new(32);
        let tel = Telemetry::builder().sink(sink).build();
        let mut b = CircuitBreaker::new(100.0, 2).with_telemetry(tel.clone());
        let tick = tel.root_span();
        b.set_control_span(tick);
        b.observe(t(0), 110.0);
        b.observe(t(1), 110.0); // Trips.
        let evs = events.events();
        let violation = evs.iter().find(|e| e.name == "violation").unwrap();
        assert_eq!(violation.span, tick);
        let trip = evs.iter().find(|e| e.name == "trip").unwrap();
        assert_eq!(trip.span, tick);
        // An unwired breaker emits untraced violations.
        let mut b = CircuitBreaker::new(100.0, 5).with_telemetry(tel);
        b.observe(t(2), 120.0);
        let evs = events.events();
        assert!(evs.last().unwrap().span.is_none());
    }

    #[test]
    fn telemetry_reports_violations_runs_and_trip() {
        use ampere_telemetry::{MetricKind, RingBufferSink, Severity, Telemetry};

        let (sink, events) = RingBufferSink::new(32);
        let tel = Telemetry::builder().sink(sink).build();
        let mut b = CircuitBreaker::new(100.0, 3)
            .with_telemetry(tel.clone())
            .with_label("row0");
        // A 2-sample run that recovers, then a 3-sample run that trips.
        for (minute, watts) in [
            (0, 110.0),
            (1, 110.0),
            (2, 90.0),
            (3, 105.0),
            (4, 105.0),
            (5, 105.0),
        ] {
            b.observe(t(minute), watts);
        }
        let evs = events.events();
        let violations = evs.iter().filter(|e| e.name == "violation").count();
        assert_eq!(violations, 5);
        let trips: Vec<_> = evs.iter().filter(|e| e.name == "trip").collect();
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].severity, Severity::Error);
        assert_eq!(trips[0].sim_time, t(5));
        assert_eq!(trips[0].field("row").unwrap().as_str(), Some("row0"));

        let snap = tel.snapshot().unwrap();
        // Registered once, under the final label: no unlabeled series.
        let mut series = snap
            .entries
            .iter()
            .filter(|e| e.name.starts_with("breaker_"));
        assert!(series.all(|e| e.labels == [("row", "row0".to_string())]));
        let counter = snap.get("breaker_violations", &[("row", "row0")]).unwrap();
        assert_eq!(counter.kind, MetricKind::Counter(5));
        // Only the completed (recovered) run is in the histogram so far.
        let run = snap
            .get("breaker_violation_run_mins", &[("row", "row0")])
            .unwrap();
        match &run.kind {
            MetricKind::Histogram { counts, sum, .. } => {
                assert_eq!(counts.iter().sum::<u64>(), 1);
                assert!((sum - 2.0).abs() < 1e-12);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }
}
