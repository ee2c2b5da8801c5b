//! Trace reassembly: from flat traced events back to causal trees.
//!
//! The control stack emits one root span per controller tick and child
//! spans for the decisions inside it (freezes); measurement events join
//! the tick span directly. Reassembly indexes a dump's events by span
//! and trace id so questions like "which tick froze this server?" or
//! "what fraction of freezes link back to a decision?" are one lookup.
//!
//! The schema guarantees a root span's id equals its trace id, so the
//! root of any trace is found without walking parent chains.

use ampere_telemetry::{ParsedEvent, SpanCtx};

use std::collections::HashMap;

/// Span/trace index over one dump's events.
#[derive(Debug, Default)]
pub struct TraceIndex {
    /// Span id → index of the event emitted *in* that span (first wins:
    /// a span can cover several events, e.g. freeze and its unfreeze).
    by_span: HashMap<u64, usize>,
    /// Trace id → indices of all events in the trace, in file order.
    by_trace: HashMap<u64, Vec<usize>>,
}

impl TraceIndex {
    /// Indexes `events` (indices refer into that slice).
    pub fn build(events: &[ParsedEvent]) -> Self {
        let mut idx = TraceIndex::default();
        for (i, e) in events.iter().enumerate() {
            if e.span.is_none() {
                continue;
            }
            idx.by_span.entry(e.span.span.raw()).or_insert(i);
            idx.by_trace.entry(e.span.trace.raw()).or_default().push(i);
        }
        idx
    }

    /// The first event emitted in span `span_id`, if any.
    pub fn event_in_span<'a>(
        &self,
        events: &'a [ParsedEvent],
        span_id: u64,
    ) -> Option<&'a ParsedEvent> {
        self.by_span.get(&span_id).map(|&i| &events[i])
    }

    /// The root event of the trace `ctx` belongs to — for control-stack
    /// dumps, the controller tick that started the causal episode.
    /// `None` for untraced events or when the root is missing from the
    /// dump (a truncated or filtered file).
    pub fn root_of<'a>(&self, events: &'a [ParsedEvent], ctx: SpanCtx) -> Option<&'a ParsedEvent> {
        if ctx.is_none() {
            return None;
        }
        let root = self.event_in_span(events, ctx.trace.raw())?;
        root.span.is_root().then_some(root)
    }

    /// Number of distinct traces seen.
    pub fn trace_count(&self) -> usize {
        self.by_trace.len()
    }
}

/// How completely a dump's events link into traces — the tracing
/// health check a report leads with.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkReport {
    /// Total events in the dump.
    pub events: usize,
    /// Events carrying a span.
    pub traced: usize,
    /// `scheduler/freeze` events in the dump.
    pub freezes: usize,
    /// Freezes whose trace root is a `controller/tick` event.
    pub freezes_linked: usize,
    /// `breaker/violation` events in the dump.
    pub violations: usize,
    /// Violations whose trace root is a `controller/tick` event.
    pub violations_linked: usize,
}

impl LinkReport {
    /// Builds the report for one dump.
    pub fn build(events: &[ParsedEvent], index: &TraceIndex) -> Self {
        let mut r = LinkReport {
            events: events.len(),
            ..LinkReport::default()
        };
        for e in events {
            if e.span.is_some() {
                r.traced += 1;
            }
            let linked_to_tick = index
                .root_of(events, e.span)
                .is_some_and(|root| root.component == "controller" && root.name == "tick");
            match (e.component.as_str(), e.name.as_str()) {
                ("scheduler", "freeze") => {
                    r.freezes += 1;
                    if linked_to_tick {
                        r.freezes_linked += 1;
                    }
                }
                ("breaker", "violation") => {
                    r.violations += 1;
                    if linked_to_tick {
                        r.violations_linked += 1;
                    }
                }
                _ => {}
            }
        }
        r
    }

    /// Fraction of freezes that link back to a controller tick (1.0
    /// when there are none to link).
    pub fn freeze_link_ratio(&self) -> f64 {
        if self.freezes == 0 {
            1.0
        } else {
            self.freezes_linked as f64 / self.freezes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::SimTime;
    use ampere_telemetry::{Event, Severity, SpanCtx, SpanId, TraceId};

    fn ctx(trace: u64, span: u64, parent: Option<u64>) -> SpanCtx {
        SpanCtx {
            trace: TraceId(trace),
            span: SpanId(span),
            parent: parent.map(SpanId),
        }
    }

    fn parsed(component: &'static str, name: &'static str, span: SpanCtx) -> ParsedEvent {
        let e = Event::new(SimTime::from_mins(1), Severity::Info, component, name).in_span(span);
        Event::parse_json(&e.to_json()).unwrap()
    }

    #[test]
    fn links_freezes_to_tick_roots() {
        let events = vec![
            parsed("controller", "tick", ctx(1, 1, None)),
            parsed("scheduler", "freeze", ctx(1, 2, Some(1))),
            parsed("scheduler", "freeze", ctx(1, 3, Some(1))),
            parsed("breaker", "violation", ctx(1, 1, None)),
            parsed("scheduler", "freeze", SpanCtx::NONE), // Manual freeze.
        ];
        let idx = TraceIndex::build(&events);
        assert_eq!(idx.trace_count(), 1);
        let root = idx.root_of(&events, events[1].span).unwrap();
        assert_eq!(root.name, "tick");
        assert!(idx.root_of(&events, events[4].span).is_none());

        let report = LinkReport::build(&events, &idx);
        assert_eq!(report.freezes, 3);
        assert_eq!(report.freezes_linked, 2);
        assert_eq!(report.violations_linked, 1);
        assert!((report.freeze_link_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn orphan_trace_has_no_tick_root() {
        // A freeze whose trace root is itself (manual freeze under an
        // enabled pipeline, no controller) must not count as linked.
        let events = vec![parsed("scheduler", "freeze", ctx(5, 5, None))];
        let idx = TraceIndex::build(&events);
        let report = LinkReport::build(&events, &idx);
        assert_eq!(report.freezes_linked, 0);
        // The root lookup itself works; it is just not a tick.
        assert_eq!(idx.root_of(&events, events[0].span).unwrap().name, "freeze");
    }
}
