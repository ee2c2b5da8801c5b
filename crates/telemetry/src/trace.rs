//! Causal span/trace identifiers for event correlation.
//!
//! The control loop is causal: a controller tick observes power, picks
//! a freezing ratio, and that decision propagates through the
//! scheduler into dispatch suppression and, minutes later, a power
//! response. Flat events cannot answer "which tick caused this breaker
//! violation?", so events may carry a [`SpanCtx`]: a trace identifier
//! (one per causal episode, normally one controller tick), a span
//! identifier (one per decision inside the episode, e.g. one freeze),
//! and an optional parent span.
//!
//! **Determinism rule:** identifiers come from a plain per-pipeline
//! counter ([`Telemetry::root_span`](crate::Telemetry::root_span) /
//! [`Telemetry::child_span`](crate::Telemetry::child_span)) — no clock
//! or RNG entropy — so two runs of the same seeded simulation produce
//! byte-identical traced dumps. Id `0` is reserved for "no span" and
//! is never allocated.

use std::fmt;

/// Identifies one causal episode (normally one controller tick and
/// everything it caused). `0` means "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

/// Identifies one decision within a trace. `0` means "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl TraceId {
    /// The raw identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl SpanId {
    /// The raw identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The trace context an event is emitted in: which trace, which span,
/// and (for child spans) which span caused it.
///
/// A root span has `trace.raw() == span.raw()` and no parent, so the
/// root of any trace can be found without walking the file. The
/// default value is [`SpanCtx::NONE`]: events emitted with it carry no
/// trace keys at all, keeping untraced dumps byte-identical to PR 1
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanCtx {
    /// The causal episode this span belongs to.
    pub trace: TraceId,
    /// This span.
    pub span: SpanId,
    /// The span that caused this one (`None` for roots).
    pub parent: Option<SpanId>,
}

impl SpanCtx {
    /// The untraced context: no keys are serialized.
    pub const NONE: SpanCtx = SpanCtx {
        trace: TraceId(0),
        span: SpanId(0),
        parent: None,
    };

    /// Whether this is the untraced context.
    pub fn is_none(&self) -> bool {
        self.span.0 == 0
    }

    /// Whether this context carries a live span.
    pub fn is_some(&self) -> bool {
        !self.is_none()
    }

    /// Whether this is a root span (its own trace, no parent).
    pub fn is_root(&self) -> bool {
        self.is_some() && self.parent.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn disabled_pipeline_allocates_nothing() {
        let tel = Telemetry::disabled();
        assert_eq!(tel.root_span(), SpanCtx::NONE);
        assert_eq!(tel.child_span(SpanCtx::NONE), SpanCtx::NONE);
        assert!(SpanCtx::NONE.is_none());
        assert!(!SpanCtx::NONE.is_root());
    }

    #[test]
    fn ids_are_sequential_and_deterministic() {
        let mk = || {
            let tel = Telemetry::builder().build();
            let a = tel.root_span();
            let b = tel.child_span(a);
            let c = tel.child_span(a);
            let d = tel.root_span();
            (a, b, c, d)
        };
        let (a, b, c, d) = mk();
        assert_eq!(a.trace.raw(), 1);
        assert_eq!(a.span.raw(), 1);
        assert!(a.is_root());
        assert_eq!(b.trace, a.trace);
        assert_eq!(b.span.raw(), 2);
        assert_eq!(b.parent, Some(a.span));
        assert_eq!(c.span.raw(), 3);
        assert_eq!(d.trace.raw(), 4);
        assert!(d.is_root());
        // A fresh pipeline replays the identical sequence.
        assert_eq!(mk(), (a, b, c, d));
    }

    #[test]
    fn child_of_untraced_context_starts_a_root() {
        let tel = Telemetry::builder().build();
        let orphan = tel.child_span(SpanCtx::NONE);
        assert!(orphan.is_root());
    }

    #[test]
    fn active_tick_tracks_latest_root() {
        let tel = Telemetry::builder().build();
        assert_eq!(tel.active_tick(), SpanCtx::NONE);
        let t1 = tel.root_span();
        tel.set_active_tick(t1);
        assert_eq!(tel.active_tick(), t1);
        let t2 = tel.root_span();
        tel.set_active_tick(t2);
        assert_eq!(tel.active_tick(), t2);
    }
}
