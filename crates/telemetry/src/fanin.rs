//! Deterministic telemetry fan-in for parallel execution.
//!
//! The parallel engine (`ampere-par`) runs independent tasks — row-domain
//! shards, chaos-grid cells, whole figures — on worker threads. Each task
//! must see an *enabled* telemetry pipeline (components capture
//! [`global()`](crate::global) at construction), but writing straight
//! into the parent pipeline from many threads would interleave events
//! and allocate span ids in racy order, breaking the byte-determinism
//! contract that the committed outputs and CI's `cmp` gates rely on.
//!
//! The fix is **capture + replay**:
//!
//! 1. [`Capture::new_under`] builds a private pipeline (own event buffer,
//!    own metrics registry, own span counter starting at 1) inheriting
//!    the parent's profiling setting. The capture's buffer is the only
//!    place an event waits before a sink: every other pipeline hands
//!    each event to its sinks as it is emitted.
//! 2. The task runs inside [`Capture::with`], the private pipeline's
//!    [`Telemetry::scope`]: for the closure's duration it is the thread's
//!    [`global()`](crate::global), so everything the task constructs
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
//!
//! `ampere_par` holds that path, once, for the whole workspace: its
//! `fan_out` (one-shot tasks) and `ShardSet` (shards stepped over
//! several runs) are handed the parent, build one capture per index,
//! run each index in its capture's scope and replay in index order.
//! A task that fans out again passes the handle in its scope — its own
//! capture — as the parent, so nested fan-outs replay inward first.

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
    /// Builds a capture pipeline with `parent`'s profiling setting, so a
    /// task behaves identically whether it reports straight into the
    /// parent or through a capture; `None` when the parent is disabled
    /// (there is nothing to capture or replay).
    pub fn new_under(parent: &Telemetry) -> Option<Capture> {
        let pipeline = parent.pipeline.as_ref()?;
        Some(Capture::build(pipeline.profiling))
    }

    /// Builds a capture pipeline that exists on its own, not under a
    /// parent, with default settings. Harnesses that must *observe* a
    /// run's whole event stream whatever pipeline is in scope (e.g. the
    /// scenario invariant checker counting freeze/unfreeze events) use
    /// this.
    pub fn standalone() -> Capture {
        Capture::build(false)
    }

    fn build(profiling: bool) -> Capture {
        let shared = Arc::new(Mutex::new(Vec::new()));
        let telemetry = Telemetry::builder()
            .sink(CaptureSink {
                shared: Arc::clone(&shared),
            })
            .profiling(profiling)
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

    /// Runs `f` in this capture's [`Telemetry::scope`].
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.telemetry.scope(f)
    }

    /// Consumes the capture, returning the buffered events, metrics
    /// snapshot and span-id usage.
    pub fn finish(self) -> Captured {
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

    /// What `f` records in the scope of a fresh capture of `parent`.
    fn captured(parent: &Telemetry, f: impl FnOnce()) -> Captured {
        let capture = Capture::new_under(parent).unwrap();
        capture.with(f);
        capture.finish()
    }

    #[test]
    fn capture_is_none_under_disabled_parent() {
        assert!(Capture::new_under(&Telemetry::disabled()).is_none());
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
        let buffers: Vec<Captured> = (0..2)
            .map(|_| {
                captured(&parent, || {
                    let tel = global();
                    let root = tel.root_span();
                    let child = tel.child_span(root);
                    tel.emit(ev("root").in_span(root));
                    tel.emit(ev("child").in_span(child));
                })
            })
            .collect();
        for buffer in buffers {
            replay_into(&parent, buffer);
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

        let buffer = captured(&parent, || {
            let tel = global();
            tel.counter("ticks", &[]).inc_by(3);
            tel.gauge("power", &[]).set(9.5);
            tel.histogram("lat", &[], &[1.0, 2.0]).record(1.5);
        });
        replay_into(&parent, buffer);

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
        let outer = captured(&parent, || {
            // Inner fan-out replays into the *outer* capture, because
            // the outer override is this thread's global().
            let inner = captured(&global(), || {
                global().counter("deep", &[]).inc();
            });
            replay_into(&global(), inner);
        });
        replay_into(&parent, outer);
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
