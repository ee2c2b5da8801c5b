//! Sim-time-aware telemetry for the Ampere control stack.
//!
//! Two pieces, one handle:
//!
//! - a **metrics registry** ([`MetricsRegistry`]) — counters, gauges and
//!   fixed-bucket histograms keyed by static names plus label sets, with
//!   snapshot/export to JSONL and a human-readable table;
//! - **structured events** ([`Event`]) — sim-time-stamped facts
//!   (`controller/tick`, `scheduler/freeze`, `breaker/trip` …) fanned
//!   out to pluggable [`sink`]s: ring buffer, JSONL writer.
//!
//! Wall-clock time is measured in one place only: the opt-in tick-phase
//! profiler ([`profile`], armed by `profiling(true)`). A pipeline built
//! without it exports a snapshot that is a pure function of the event
//! stream.
//!
//! The [`Telemetry`] handle is a cheap clone (one `Option<Arc>`). The
//! default handle is *disabled*: every metric handle is a no-op, and
//! [`Telemetry::emit_with`] never even builds the event, so
//! uninstrumented runs pay one branch per call site. Components capture
//! [`global()`] at construction; code that wants a run to report into a
//! pipeline builds the run inside [`Telemetry::scope`]. Only a process
//! entry point installs a pipeline with [`install_global`].
//!
//! ```
//! use ampere_sim::SimTime;
//! use ampere_telemetry::{Event, RingBufferSink, Severity, Telemetry};
//!
//! let (sink, events) = RingBufferSink::new(64);
//! let tel = Telemetry::builder().sink(sink).build();
//!
//! let ticks = tel.counter("controller_ticks", &[("domain", "row0")]);
//! ticks.inc();
//! tel.emit_with(|| {
//!     Event::new(SimTime::from_mins(1), Severity::Info, "controller", "tick")
//!         .with("power_norm", 0.93)
//! });
//!
//! assert_eq!(events.len(), 1);
//! // The tick counter plus the always-present sink-error counter.
//! assert_eq!(tel.snapshot().unwrap().entries.len(), 2);
//! ```

pub mod event;
pub mod fanin;
pub mod json;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod trace;

pub use event::{Event, ParseError, ParsedEvent, Severity, Value};
pub use fanin::{Capture, Captured};
pub use profile::{PhaseGuard, PhaseProfiler, TickPhase};
pub use registry::{
    buckets, Counter, CounterHandle, Gauge, GaugeHandle, Histogram, HistogramHandle, MetricKind,
    MetricSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use sink::{EventSink, JsonlSink, RingBufferHandle, RingBufferSink};
pub use trace::{SpanCtx, SpanId, TraceId};

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

struct Pipeline {
    registry: MetricsRegistry,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
    /// Whether [`PhaseProfiler`]s built against this pipeline resolve
    /// live histograms (default false: profiling costs two clock reads
    /// per phase, so it is strictly opt-in).
    profiling: bool,
    /// Deterministic span/trace id source: a plain counter, so traced
    /// runs replay identically (see [`trace`] module docs). `0` is the
    /// reserved "no span" id; the first allocation returns 1.
    next_span: AtomicU64,
    /// The most recent controller-tick root span: the decision interval
    /// currently in effect, which measurement-side events (monitor
    /// sweeps) join.
    active_tick: Mutex<SpanCtx>,
}

/// Handle to a telemetry pipeline; disabled (all no-op) by default.
#[derive(Clone, Default)]
pub struct Telemetry {
    pipeline: Option<Arc<Pipeline>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Configures a [`Telemetry`] pipeline.
#[derive(Default)]
pub struct TelemetryBuilder {
    sinks: Vec<Box<dyn EventSink>>,
    profiling: bool,
}

impl TelemetryBuilder {
    /// Attaches an event sink.
    pub fn sink(mut self, sink: impl EventSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// No-op kept for the benchmark package; its update (ROADMAP item 9) deletes it.
    #[deprecated(note = "events always reach the sinks when emitted")]
    pub fn batched(self, _batched: bool) -> Self {
        self
    }

    /// Enables the tick-phase profiler: [`PhaseProfiler`]s built against
    /// this pipeline resolve live histograms instead of no-ops.
    pub fn profiling(mut self, profiling: bool) -> Self {
        self.profiling = profiling;
        self
    }

    /// Builds an enabled pipeline (even with zero sinks, so metrics
    /// still aggregate).
    pub fn build(self) -> Telemetry {
        let registry = MetricsRegistry::new();
        // Sinks that can fail (file I/O) report into this counter
        // instead of panicking from the emit path.
        let errors = registry.counter("telemetry_sink_errors", &[]);
        let mut sinks = self.sinks;
        for sink in &mut sinks {
            sink.bind_error_counter(errors.clone());
        }
        Telemetry {
            pipeline: Some(Arc::new(Pipeline {
                registry,
                sinks: Mutex::new(sinks),
                profiling: self.profiling,
                next_span: AtomicU64::new(1),
                active_tick: Mutex::new(SpanCtx::NONE),
            })),
        }
    }
}

impl Telemetry {
    /// The disabled pipeline: no sinks, no registry, no allocation.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Starts configuring an enabled pipeline.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder::default()
    }

    /// Whether this handle points at a live pipeline.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.pipeline.is_some()
    }

    /// Emits an event, building it lazily, and hands it to every sink
    /// at once: with a disabled pipeline `build` is never called, so the
    /// hot path allocates nothing.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if let Some(pipeline) = &self.pipeline {
            let event = build();
            // The emit path must never take the simulation down: recover
            // a poisoned sink list instead of panicking.
            let mut sinks = pipeline
                .sinks
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for sink in sinks.iter_mut() {
                sink.record(&event);
            }
        }
    }

    /// Emits an already-built event. Prefer [`Telemetry::emit_with`] on
    /// hot paths.
    pub fn emit(&self, event: Event) {
        self.emit_with(|| event);
    }

    /// No-op kept for the benchmark package; its update (ROADMAP item 9) deletes it.
    #[deprecated(note = "events always reach the sinks when emitted")]
    pub fn flush_events(&self) {}

    /// Like [`Telemetry::emit_with`], attaching `span` to the built
    /// event. With a disabled pipeline `build` never runs.
    #[inline]
    pub fn emit_in_span(&self, span: SpanCtx, build: impl FnOnce() -> Event) {
        self.emit_with(|| build().in_span(span));
    }

    /// Allocates a root span: a fresh trace whose root span id equals
    /// the trace id. Returns [`SpanCtx::NONE`] when disabled, so
    /// uninstrumented runs do no work.
    pub fn root_span(&self) -> SpanCtx {
        match &self.pipeline {
            Some(p) => {
                let id = p.next_span.fetch_add(1, Ordering::Relaxed);
                SpanCtx {
                    trace: TraceId(id),
                    span: SpanId(id),
                    parent: None,
                }
            }
            None => SpanCtx::NONE,
        }
    }

    /// Allocates a child span of `parent` (same trace, new span id).
    /// A [`SpanCtx::NONE`] parent starts a new root instead; a disabled
    /// pipeline returns [`SpanCtx::NONE`].
    pub fn child_span(&self, parent: SpanCtx) -> SpanCtx {
        if parent.is_none() {
            return self.root_span();
        }
        match &self.pipeline {
            Some(p) => {
                let id = p.next_span.fetch_add(1, Ordering::Relaxed);
                SpanCtx {
                    trace: parent.trace,
                    span: SpanId(id),
                    parent: Some(parent.span),
                }
            }
            None => SpanCtx::NONE,
        }
    }

    /// Registers `ctx` as the decision interval in effect (called by
    /// the controller when it opens a tick root span).
    pub fn set_active_tick(&self, ctx: SpanCtx) {
        if let Some(p) = &self.pipeline {
            *p.active_tick.lock().unwrap_or_else(PoisonError::into_inner) = ctx;
        }
    }

    /// The most recently registered tick span — the decision interval
    /// still in effect.
    pub fn active_tick(&self) -> SpanCtx {
        match &self.pipeline {
            Some(p) => *p.active_tick.lock().unwrap_or_else(PoisonError::into_inner),
            None => SpanCtx::NONE,
        }
    }

    /// Counter handle for `name{labels}`; no-op when disabled.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        match &self.pipeline {
            Some(p) => p.registry.counter(name, labels),
            None => Counter::noop(),
        }
    }

    /// Gauge handle for `name{labels}`; no-op when disabled.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        match &self.pipeline {
            Some(p) => p.registry.gauge(name, labels),
            None => Gauge::noop(),
        }
    }

    /// Histogram handle for `name{labels}`; no-op when disabled.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match &self.pipeline {
            Some(p) => p.registry.histogram(name, labels, bounds),
            None => Histogram::noop(),
        }
    }

    /// Whether the tick-phase profiler is enabled for this pipeline.
    pub fn profiling_enabled(&self) -> bool {
        self.pipeline.as_ref().is_some_and(|p| p.profiling)
    }

    /// Snapshot of the metrics registry (`None` when disabled).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.pipeline.as_ref().map(|p| p.registry.snapshot())
    }

    /// Runs `f` with this handle as the calling thread's [`global()`],
    /// so every component `f` constructs reports here. Scopes nest (the
    /// innermost wins) and end when `f` returns or panics. Threads that
    /// `f` spawns do not inherit the scope; the parallel engine carries
    /// it to its workers explicitly.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        OVERRIDE.with(|stack| stack.borrow_mut().push(self.clone()));
        let _pop = PopOnDrop;
        f()
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        if let Some(pipeline) = &self.pipeline {
            let mut sinks = pipeline
                .sinks
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for sink in sinks.iter_mut() {
                sink.flush();
            }
        }
    }
}

static GLOBAL: RwLock<Option<Telemetry>> = RwLock::new(None);

thread_local! {
    /// Per-thread override stack consulted by [`global()`] before the
    /// process-wide handle; [`Telemetry::scope`] pushes and pops it. A
    /// stack, so scopes nest (a capture inside a capture).
    static OVERRIDE: RefCell<Vec<Telemetry>> = const { RefCell::new(Vec::new()) };
}

/// Pops the innermost [`Telemetry::scope`] override, also on unwind.
struct PopOnDrop;

impl Drop for PopOnDrop {
    fn drop(&mut self) {
        OVERRIDE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The calling thread's telemetry handle: the innermost
/// [`Telemetry::scope`] if one is active, else the process-wide handle
/// (disabled until [`install_global`]).
///
/// Components capture this at construction time, so build them inside
/// the scope of the pipeline that should hear from them. Tasks under the
/// parallel engine run inside their private capture's scope.
pub fn global() -> Telemetry {
    if let Some(telemetry) = OVERRIDE.with(|stack| stack.borrow().last().cloned()) {
        return telemetry;
    }
    GLOBAL.read().unwrap().clone().unwrap_or_default()
}

/// Installs `telemetry` as the process-wide handle. For process entry
/// points only; library code and tests use [`Telemetry::scope`].
pub fn install_global(telemetry: Telemetry) {
    *GLOBAL.write().unwrap() = Some(telemetry);
}

/// Removes the process-wide handle (tests).
pub fn reset_global() {
    *GLOBAL.write().unwrap() = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::SimTime;

    fn ev(sev: Severity) -> Event {
        Event::new(SimTime::from_mins(1), sev, "test", "e")
    }

    #[test]
    fn disabled_pipeline_never_builds_events() {
        let tel = Telemetry::disabled();
        let mut built = 0;
        tel.emit_with(|| {
            built += 1;
            ev(Severity::Error)
        });
        assert_eq!(built, 0, "event closure must not run when disabled");
        assert!(!tel.enabled());
        assert!(tel.snapshot().is_none());
    }

    #[test]
    fn events_fan_out_to_all_sinks() {
        let (a, ea) = RingBufferSink::new(8);
        let (b, eb) = RingBufferSink::new(8);
        let tel = Telemetry::builder().sink(a).sink(b).build();
        tel.emit(ev(Severity::Info));
        assert_eq!(ea.len(), 1);
        assert_eq!(eb.len(), 1);
    }

    #[test]
    fn scopes_nest_and_end_with_their_closure() {
        let outer = Telemetry::builder().build();
        let enabled = outer.scope(|| {
            let inner = Telemetry::disabled().scope(|| global().enabled());
            (global().enabled(), inner)
        });
        assert_eq!(enabled, (true, false), "the innermost scope wins");
        outer.scope(|| global().counter("scoped", &[]).inc());
        let snap = outer.snapshot().unwrap();
        assert_eq!(
            snap.get("scoped", &[]).unwrap().kind,
            MetricKind::Counter(1)
        );
    }

    #[test]
    fn global_roundtrip() {
        reset_global();
        assert!(!global().enabled());
        install_global(Telemetry::builder().build());
        assert!(global().enabled());
        reset_global();
        assert!(!global().enabled());
    }
}
