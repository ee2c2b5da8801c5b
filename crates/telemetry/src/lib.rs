//! Sim-time-aware telemetry for the Ampere control stack.
//!
//! Two pieces, one handle:
//!
//! - a **metrics registry** ([`MetricsRegistry`]) — counters, gauges and
//!   fixed-bucket histograms keyed by static names plus label sets, with
//!   snapshot/export to JSONL and a human-readable table;
//! - **structured events** ([`Event`]) — sim-time-stamped facts
//!   (`controller/tick`, `scheduler/freeze`, `breaker/trip` …) fanned
//!   out to pluggable [`sink`]s: ring buffer, JSONL writer, stderr.
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
//! [`global()`] at construction; a driver that wants a dump installs a
//! pipeline once via [`install_global`] before building the testbed.
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
pub use sink::{EventSink, JsonlSink, RingBufferHandle, RingBufferSink, StderrSink};
pub use trace::{SpanCtx, SpanId, TraceId};

use ampere_sim::SimTime;

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Deterministic 1-in-N event sampler state. The admission rule is a
/// pure function of the per-pipeline emission counter — `count % period
/// == phase` — so the kept subset depends only on emission order, never
/// on wall clock or thread timing. The phase is derived from the run
/// seed via `ampere_sim::rng`, so different seeds keep different (but
/// reproducible) subsets. Captures inherit `(period, phase)` with a
/// fresh counter, which makes the per-shard kept subsets a function of
/// shard contents alone — worker-count invariant.
struct Sampler {
    period: u64,
    phase: u64,
    emitted: AtomicU64,
    sampled_out: Counter,
}

struct Pipeline {
    registry: MetricsRegistry,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
    min_severity: Severity,
    /// Per-task event buffer (see [`Telemetry::flush_events`]). Empty
    /// and unused when `batched` is false.
    batch: Mutex<Vec<Event>>,
    /// When true, [`Telemetry::emit_with`] appends to `batch` instead of
    /// taking the sinks lock per event; the testbed drains once per tick.
    batched: bool,
    /// Deterministic sampler for [`Telemetry::emit_sampled_with`];
    /// `None` keeps every sampled-class event (the default).
    sampler: Option<Sampler>,
    /// Whether [`PhaseProfiler`]s built against this pipeline resolve
    /// live histograms (default false: profiling costs two clock reads
    /// per phase, so it is strictly opt-in).
    profiling: bool,
    /// Deterministic span/trace id source: a plain counter, so traced
    /// runs replay identically (see [`trace`] module docs). `0` is the
    /// reserved "no span" id; the first allocation returns 1.
    next_span: AtomicU64,
    /// The most recent controller-tick root span and its sim time: the
    /// decision interval currently in effect, which measurement-side
    /// events (monitor sweeps) join.
    active_tick: Mutex<(SimTime, SpanCtx)>,
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
    min_severity: Option<Severity>,
    batched: bool,
    sample: Option<(u64, u64)>,
    profiling: bool,
}

impl TelemetryBuilder {
    /// Attaches an event sink.
    pub fn sink(mut self, sink: impl EventSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Attaches a [`RingBufferSink`] holding the last `capacity` events
    /// and returns its read handle alongside the builder, so callers
    /// keep live access after the sink moves into the pipeline.
    pub fn ring_buffer(mut self, capacity: usize) -> (Self, RingBufferHandle) {
        let (sink, handle) = RingBufferSink::new(capacity);
        self.sinks.push(Box::new(sink));
        (self, handle)
    }

    /// [`TelemetryBuilder::ring_buffer`] at
    /// [`RingBufferSink::DEFAULT_CAPACITY`].
    pub fn ring_buffer_default(self) -> (Self, RingBufferHandle) {
        self.ring_buffer(RingBufferSink::DEFAULT_CAPACITY)
    }

    /// Drops events below `severity` (default: keep everything).
    pub fn min_severity(mut self, severity: Severity) -> Self {
        self.min_severity = Some(severity);
        self
    }

    /// Buffers emitted events and flushes them to the sinks in batches
    /// (see [`Telemetry::flush_events`]). Emission order is preserved
    /// exactly, so batched and unbatched pipelines produce byte-identical
    /// dumps; only the locking cadence changes.
    pub fn batched(mut self, batched: bool) -> Self {
        self.batched = batched;
        self
    }

    /// Keeps 1-in-`period` of the events emitted through
    /// [`Telemetry::emit_sampled_with`], with the kept phase derived
    /// deterministically from `seed`. `period <= 1` keeps everything.
    pub fn sample_events(self, period: u64, seed: u64) -> Self {
        let phase = if period > 1 {
            ampere_sim::rng::derive_subseed(
                seed,
                ampere_sim::rng::streams::TELEMETRY_SAMPLE,
                period,
            ) % period
        } else {
            0
        };
        self.sample_raw(period, phase)
    }

    /// Like [`TelemetryBuilder::sample_events`], but with an already
    /// derived phase — used by capture pipelines to inherit the parent's
    /// sampler configuration verbatim.
    pub(crate) fn sample_raw(mut self, period: u64, phase: u64) -> Self {
        self.sample = (period > 1).then_some((period, phase));
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
        // The sampled-out counter registers only when a sampler is
        // configured, so unsampled runs export an unchanged metric set.
        let sampler = self.sample.map(|(period, phase)| Sampler {
            period,
            phase,
            emitted: AtomicU64::new(0),
            sampled_out: registry.counter("telemetry_events_sampled_out", &[]),
        });
        Telemetry {
            pipeline: Some(Arc::new(Pipeline {
                registry,
                sinks: Mutex::new(sinks),
                min_severity: self.min_severity.unwrap_or(Severity::Debug),
                batch: Mutex::new(Vec::new()),
                batched: self.batched,
                sampler,
                profiling: self.profiling,
                next_span: AtomicU64::new(1),
                active_tick: Mutex::new((SimTime::ZERO, SpanCtx::NONE)),
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

    /// Emits an event, building it lazily: with a disabled pipeline (or
    /// one filtering everything) `build` is never called, so the hot
    /// path allocates nothing.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if let Some(pipeline) = &self.pipeline {
            let event = build();
            if event.severity >= pipeline.min_severity {
                if pipeline.batched {
                    // Batched hot path: one buffer push now, sinks see
                    // the event at the next flush_events() in exactly
                    // this order.
                    pipeline
                        .batch
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(event);
                    return;
                }
                // The emit path must never take the simulation down:
                // recover a poisoned sink list instead of panicking.
                let mut sinks = pipeline
                    .sinks
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                for sink in sinks.iter_mut() {
                    sink.record(&event);
                }
            }
        }
    }

    /// Emits an already-built event. Prefer [`Telemetry::emit_with`] on
    /// hot paths.
    pub fn emit(&self, event: Event) {
        self.emit_with(|| event);
    }

    /// Emits a high-cardinality per-server event through the
    /// deterministic 1-in-N sampler. Without a configured sampler
    /// (the default) this is exactly [`Telemetry::emit_with`]; with one,
    /// dropped events increment `telemetry_events_sampled_out` so totals
    /// stay reconstructible from the kept subset plus the counter.
    #[inline]
    pub fn emit_sampled_with(&self, build: impl FnOnce() -> Event) {
        let Some(pipeline) = &self.pipeline else {
            return;
        };
        match &pipeline.sampler {
            None => self.emit_with(build),
            Some(sampler) => {
                let n = sampler.emitted.fetch_add(1, Ordering::Relaxed);
                if n % sampler.period == sampler.phase {
                    self.emit_with(build);
                } else {
                    sampler.sampled_out.inc();
                }
            }
        }
    }

    /// Drains the batched event buffer to the sinks, in emission order.
    /// The testbed calls this once per tick; [`Telemetry::flush`] and
    /// capture finish call it too, so no event is ever stranded. No-op
    /// for unbatched pipelines.
    pub fn flush_events(&self) {
        let Some(pipeline) = &self.pipeline else {
            return;
        };
        if !pipeline.batched {
            return;
        }
        let drained = std::mem::take(
            &mut *pipeline
                .batch
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        if drained.is_empty() {
            return;
        }
        let mut sinks = pipeline
            .sinks
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for event in &drained {
            for sink in sinks.iter_mut() {
                sink.record(event);
            }
        }
    }

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

    /// Registers `ctx` as the decision interval in effect from sim time
    /// `now` (called by the controller when it opens a tick root span).
    pub fn set_active_tick(&self, now: SimTime, ctx: SpanCtx) {
        if let Some(p) = &self.pipeline {
            *p.active_tick.lock().unwrap_or_else(PoisonError::into_inner) = (now, ctx);
        }
    }

    /// The most recently registered tick span — the decision interval
    /// still in effect — regardless of the current sim time.
    pub fn active_tick(&self) -> SpanCtx {
        match &self.pipeline {
            Some(p) => {
                p.active_tick
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .1
            }
            None => SpanCtx::NONE,
        }
    }

    /// The tick span registered exactly at sim time `now`, or
    /// [`SpanCtx::NONE`] if the active tick was opened at another
    /// instant.
    pub fn active_tick_at(&self, now: SimTime) -> SpanCtx {
        match &self.pipeline {
            Some(p) => {
                let (at, ctx) = *p.active_tick.lock().unwrap_or_else(PoisonError::into_inner);
                if at == now {
                    ctx
                } else {
                    SpanCtx::NONE
                }
            }
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

    /// Events dropped by the deterministic sampler so far (0 without a
    /// configured sampler).
    pub fn events_sampled_out(&self) -> u64 {
        self.pipeline
            .as_ref()
            .and_then(|p| p.sampler.as_ref())
            .map_or(0, |s| s.sampled_out.get())
    }

    /// Snapshot of the metrics registry (`None` when disabled).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.pipeline.as_ref().map(|p| p.registry.snapshot())
    }

    /// Flushes every sink (draining the batched event buffer first).
    pub fn flush(&self) {
        self.flush_events();
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
    /// process-wide handle. Pushed/popped by [`fanin::Capture::with`] so
    /// parallel tasks record into private capture pipelines; a stack so
    /// captures nest (fan-out inside fan-out).
    static OVERRIDE: RefCell<Vec<Telemetry>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn push_thread_override(telemetry: Telemetry) {
    OVERRIDE.with(|stack| stack.borrow_mut().push(telemetry));
}

pub(crate) fn pop_thread_override() {
    OVERRIDE.with(|stack| {
        stack.borrow_mut().pop();
    });
}

/// The process-wide telemetry handle; disabled until [`install_global`].
///
/// Components capture this at construction time, so install the pipeline
/// *before* building the testbed/controllers that should report into it.
/// A thread-local override installed by [`fanin::Capture::with`] takes
/// precedence, so tasks running under the parallel engine resolve to
/// their private capture pipeline instead.
pub fn global() -> Telemetry {
    if let Some(telemetry) = OVERRIDE.with(|stack| stack.borrow().last().cloned()) {
        return telemetry;
    }
    GLOBAL.read().unwrap().clone().unwrap_or_default()
}

/// Installs `telemetry` as the process-wide handle.
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
    fn severity_filter_applies_after_build() {
        let (sink, events) = RingBufferSink::new(8);
        let tel = Telemetry::builder()
            .sink(sink)
            .min_severity(Severity::Warn)
            .build();
        tel.emit(ev(Severity::Info));
        tel.emit(ev(Severity::Warn));
        tel.emit(ev(Severity::Error));
        assert_eq!(events.len(), 2);
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
    fn builder_ring_buffer_wires_sink_and_handle() {
        let (builder, events) = Telemetry::builder().ring_buffer(2);
        let tel = builder.build();
        for n in 0..3 {
            tel.emit(ev(Severity::Info).with("n", n as u64));
        }
        // Capacity 2: the first event was evicted, latest two remain.
        let ns: Vec<u64> = events
            .events()
            .iter()
            .map(|e| e.field("n").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(ns, vec![1, 2]);
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
