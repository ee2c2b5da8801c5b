//! Deterministic telemetry fan-in for parallel execution.
//!
//! The parallel engine (`ampere-par`) runs independent tasks — row-domain
//! shards, chaos-grid cells, whole figures — on worker threads. Each task
//! must see an *enabled* telemetry pipeline (components capture
//! [`global()`](crate::global) at construction), but writing straight
//! into the parent pipeline from many threads would interleave events
//! and allocate span ids in racy order, breaking the byte-determinism
//! contract that the CI baselines rely on.
//!
//! The fix is **capture + replay**:
//!
//! 1. [`Capture::new_under`] builds a private pipeline (own event buffer,
//!    own metrics registry, own span counter starting at 1) inheriting
//!    the parent's severity threshold.
//! 2. The task runs inside [`Capture::with`], which installs the private
//!    pipeline as a *thread-local override* of [`global()`](crate::global)
//!    for the closure's duration, so everything the task constructs
//!    reports into the buffer.
//! 3. After all tasks finish, the caller replays each [`Captured`] buffer
//!    into the parent **in task order** via [`replay_into`]. Replay
//!    reserves a contiguous block of span ids from the parent and shifts
//!    every captured trace/span/parent id into it, which reproduces
//!    exactly the ids a serial run would have allocated. Metrics merge
//!    by kind: counters add, histograms add per-bucket counts and sums,
//!    gauges take the replayed value (last replay wins — matching the
//!    last-write-wins of a serial run).
//!
//! Because workers=1 and workers=N run the *same* capture/replay path
//! and replay in the same task order, the merged event stream and
//! metrics snapshot are byte-identical at any worker count.

use crate::{Event, EventSink, MetricsSnapshot, SpanId, Telemetry, TraceId};

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

/// Sink that buffers every event unboxed and in order (never drops).
struct CaptureSink {
    shared: Arc<Mutex<Vec<Event>>>,
}

impl EventSink for CaptureSink {
    fn record(&mut self, event: &Event) {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

/// A private capture pipeline scoped to one parallel task.
pub struct Capture {
    telemetry: Telemetry,
    events: Arc<Mutex<Vec<Event>>>,
}

/// Everything one task recorded, ready to [`replay_into`] a parent.
#[derive(Debug, Clone)]
pub struct Captured {
    /// Buffered events in emission order, ids still capture-local.
    pub events: Vec<Event>,
    /// Final state of the capture registry.
    pub snapshot: MetricsSnapshot,
    /// How many span ids the task allocated (capture-local ids
    /// `1..=spans_used`); replay reserves this many from the parent.
    pub spans_used: u64,
}

impl Capture {
    /// Builds a capture pipeline inheriting `parent`'s severity filter,
    /// or `None` when the parent is disabled (tasks then run with the
    /// default no-op handle and there is nothing to replay).
    pub fn new_under(parent: &Telemetry) -> Option<Capture> {
        let pipeline = parent.pipeline.as_ref()?;
        let shared = Arc::new(Mutex::new(Vec::new()));
        // Inherit the parent's whole hot-path configuration — severity
        // threshold, batching, sampler (period+phase, fresh counter) and
        // profiling — so a task behaves identically whether it reports
        // straight into the parent or through a capture. A fresh sampler
        // counter per capture makes the kept subset a function of shard
        // contents alone: worker-count invariant by construction.
        let mut builder = Telemetry::builder()
            .sink(CaptureSink {
                shared: Arc::clone(&shared),
            })
            .min_severity(pipeline.min_severity)
            .batched(pipeline.batched)
            .profiling(pipeline.profiling);
        if let Some(sampler) = &pipeline.sampler {
            builder = builder.sample_raw(sampler.period, sampler.phase);
        }
        let telemetry = builder.build();
        Some(Capture {
            telemetry,
            events: shared,
        })
    }

    /// Builds a capture pipeline that exists on its own, not under a
    /// parent: events record at every severity and there is no parent
    /// to replay into. Harnesses that must *observe* a run's event
    /// stream regardless of whether the process installed a global
    /// pipeline (e.g. the scenario invariant checker counting
    /// freeze/unfreeze events) use this as the fallback when
    /// [`Capture::new_under`] returns `None`.
    pub fn standalone() -> Capture {
        let shared = Arc::new(Mutex::new(Vec::new()));
        let telemetry = Telemetry::builder()
            .sink(CaptureSink {
                shared: Arc::clone(&shared),
            })
            .build();
        Capture {
            telemetry,
            events: shared,
        }
    }

    /// The capture pipeline itself (rarely needed; prefer
    /// [`Capture::with`] so construction-time [`global()`](crate::global)
    /// lookups resolve here).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs `f` with this capture installed as the thread's
    /// [`global()`](crate::global) override. Nest freely: overrides form
    /// a stack, and the override is popped even if `f` panics.
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        crate::push_thread_override(self.telemetry.clone());
        let _guard = PopGuard;
        f()
    }

    /// Consumes the capture, returning the buffered events, metrics
    /// snapshot and span-id usage. Drains any batched events first, so
    /// batched pipelines never strand a tail of events.
    pub fn finish(self) -> Captured {
        self.telemetry.flush_events();
        let events =
            std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner));
        let snapshot = self.telemetry.snapshot().unwrap_or_default();
        let spans_used = self
            .telemetry
            .pipeline
            .as_ref()
            .map_or(0, |p| p.next_span.load(Ordering::Relaxed) - 1);
        Captured {
            events,
            snapshot,
            spans_used,
        }
    }
}

struct PopGuard;

impl Drop for PopGuard {
    fn drop(&mut self) {
        crate::pop_thread_override();
    }
}

/// Runs `f` under a fresh capture of `parent`. Returns `f`'s result and
/// the captured telemetry (`None` when `parent` is disabled).
pub fn capture_into<R>(parent: &Telemetry, f: impl FnOnce() -> R) -> (R, Option<Captured>) {
    match Capture::new_under(parent) {
        Some(capture) => {
            let out = capture.with(f);
            (out, Some(capture.finish()))
        }
        None => (f(), None),
    }
}

/// Replays a captured buffer into `parent`: reserves a contiguous block
/// of `spans_used` ids, shifts every captured trace/span/parent id into
/// it, re-emits each event in order and merges the metrics snapshot.
///
/// Calling this for each task **in task order** reproduces the exact
/// span allocation and event interleaving of a serial run.
pub fn replay_into(parent: &Telemetry, captured: Captured) {
    let Some(pipeline) = parent.pipeline.as_ref() else {
        return;
    };
    // Merge cost is part of the tick-phase profile (inert when the
    // parent pipeline has profiling off).
    let profiler = crate::profile::PhaseProfiler::new(parent);
    let _merge = profiler.phase(crate::profile::TickPhase::FanInMerge);
    // Reserve the id block even when no spans were used: fetch_add(0)
    // is a no-op, keeping the counter exact.
    let base = pipeline
        .next_span
        .fetch_add(captured.spans_used, Ordering::Relaxed);
    let offset = base - 1;
    for mut event in captured.events {
        if event.span.is_some() {
            event.span.trace = TraceId(event.span.trace.0 + offset);
            event.span.span = SpanId(event.span.span.0 + offset);
            event.span.parent = event.span.parent.map(|p| SpanId(p.0 + offset));
        }
        parent.emit(event);
    }
    pipeline.registry.merge(&captured.snapshot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{global, MetricKind, RingBufferSink, Severity};
    use ampere_sim::SimTime;

    fn ev(name: &'static str) -> Event {
        Event::new(SimTime::from_mins(1), Severity::Info, "test", name)
    }

    #[test]
    fn capture_is_none_under_disabled_parent() {
        let (out, cap) = capture_into(&Telemetry::disabled(), || 7);
        assert_eq!(out, 7);
        assert!(cap.is_none());
    }

    #[test]
    fn override_routes_global_within_closure_only() {
        let parent = Telemetry::builder().build();
        let capture = Capture::new_under(&parent).unwrap();
        capture.with(|| {
            assert!(global().enabled(), "override must be visible");
            global().counter("inner", &[]).inc();
            global().emit(ev("inside"));
        });
        // Back outside, emits no longer land in the capture buffer.
        global().emit(ev("after"));
        let captured = capture.finish();
        assert_eq!(captured.events.len(), 1);
        assert_eq!(captured.events[0].name, "inside");
        assert_eq!(
            captured.snapshot.get("inner", &[]).unwrap().kind,
            MetricKind::Counter(1)
        );
    }

    #[test]
    fn replay_remaps_spans_to_serial_allocation() {
        // Serial reference: root+child, then root+child again.
        let serial = {
            let (sink, events) = RingBufferSink::new(16);
            let tel = Telemetry::builder().sink(sink).build();
            for _ in 0..2 {
                let root = tel.root_span();
                let child = tel.child_span(root);
                tel.emit(ev("root").in_span(root));
                tel.emit(ev("child").in_span(child));
            }
            events.events()
        };

        // Parallel path: two captures, replayed in task order.
        let (sink, events) = RingBufferSink::new(16);
        let parent = Telemetry::builder().sink(sink).build();
        let mut captured = Vec::new();
        for _ in 0..2 {
            let (_, cap) = capture_into(&parent, || {
                let tel = global();
                let root = tel.root_span();
                let child = tel.child_span(root);
                tel.emit(ev("root").in_span(root));
                tel.emit(ev("child").in_span(child));
            });
            captured.push(cap.unwrap());
        }
        for cap in captured {
            replay_into(&parent, cap);
        }
        let replayed = events.events();
        assert_eq!(serial.len(), replayed.len());
        for (a, b) in serial.iter().zip(&replayed) {
            assert_eq!(a.to_json(), b.to_json());
        }
        // The parent's counter advanced past the reserved block.
        assert_eq!(parent.root_span().span.raw(), 5);
    }

    #[test]
    fn metrics_merge_by_kind() {
        let parent = Telemetry::builder().build();
        parent.counter("ticks", &[]).inc_by(2);
        let h = parent.histogram("lat", &[], &[1.0, 2.0]);
        h.record(0.5);

        let (_, cap) = capture_into(&parent, || {
            let tel = global();
            tel.counter("ticks", &[]).inc_by(3);
            tel.gauge("power", &[]).set(9.5);
            tel.histogram("lat", &[], &[1.0, 2.0]).record(1.5);
        });
        replay_into(&parent, cap.unwrap());

        let snap = parent.snapshot().unwrap();
        assert_eq!(snap.get("ticks", &[]).unwrap().kind, MetricKind::Counter(5));
        assert_eq!(snap.get("power", &[]).unwrap().kind, MetricKind::Gauge(9.5));
        match &snap.get("lat", &[]).unwrap().kind {
            MetricKind::Histogram { counts, sum, .. } => {
                assert_eq!(counts, &vec![1, 1, 0]);
                assert!((sum - 2.0).abs() < 1e-12);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn nested_captures_replay_through_override() {
        let parent = Telemetry::builder().build();
        let (_, outer) = capture_into(&parent, || {
            // Inner fan-out replays into the *outer* capture, because
            // the outer override is this thread's global().
            let (_, inner) = capture_into(&global(), || {
                global().counter("deep", &[]).inc();
            });
            replay_into(&global(), inner.unwrap());
        });
        replay_into(&parent, outer.unwrap());
        let snap = parent.snapshot().unwrap();
        assert_eq!(snap.get("deep", &[]).unwrap().kind, MetricKind::Counter(1));
    }

    #[test]
    fn with_pops_override_on_panic() {
        let parent = Telemetry::builder().build();
        let capture = Capture::new_under(&parent).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            capture.with(|| panic!("boom"));
        }));
        assert!(result.is_err());
        // The override was popped: emits no longer land in the capture.
        global().emit(ev("after"));
        let captured = capture.finish();
        assert!(captured.events.is_empty(), "override leaked past the panic");
    }
}
