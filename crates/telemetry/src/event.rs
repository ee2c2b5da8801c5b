//! Structured, sim-time-stamped events.
//!
//! An [`Event`] is one fact about the control stack at one sim instant:
//! a controller tick, a freeze decision, a breaker violation. Events are
//! plain data — a timestamp, a severity, a `component`/`name` pair and a
//! flat list of key/value fields — serialized one-per-line as JSON
//! ([`Event::to_json`]) and parsed back with [`Event::parse_json`] so
//! dumps can be post-processed without external tooling.

use ampere_sim::SimTime;

use crate::json::{write_json_f64, write_json_string};
use crate::trace::{SpanCtx, SpanId, TraceId};

use std::fmt;
use std::fmt::Write as _;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-volume diagnostics (per-tick detail).
    Debug,
    /// Normal control-plane decisions.
    Info,
    /// Unexpected but tolerated conditions.
    Warn,
    /// Faults: breaker trips, invariant violations.
    Error,
}

impl Severity {
    /// The lowercase wire name (`"debug"`, `"info"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses the wire name back.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "debug" => Severity::Debug,
            "info" => Severity::Info,
            "warn" => Severity::Warn,
            "error" => Severity::Error,
            _ => return None,
        })
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A field value. Non-finite floats serialize as JSON `null`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => write_json_f64(*v, out),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => write_json_string(s, out),
        }
    }

    /// The value as `f64` when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64` when it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $conv:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::$variant(v as $conv)
            }
        }
    )*};
}

value_from!(u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64,
            usize => U64 as u64, i64 => I64 as i64, i32 => I64 as i64,
            f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One structured, sim-time-stamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time the event happened.
    pub sim_time: SimTime,
    /// Severity level.
    pub severity: Severity,
    /// Emitting component (`"controller"`, `"scheduler"`, `"breaker"` …).
    pub component: &'static str,
    /// Event name within the component (`"tick"`, `"freeze"`, `"trip"` …).
    pub name: &'static str,
    /// Trace context ([`SpanCtx::NONE`] for untraced events: no
    /// `trace`/`span`/`parent` keys are serialized).
    pub span: SpanCtx,
    /// Flat key/value payload, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

/// JSON keys reserved for the envelope; payload fields must avoid them.
pub const RESERVED_KEYS: [&str; 7] = [
    "t_ms",
    "sev",
    "component",
    "event",
    "trace",
    "span",
    "parent",
];

impl Event {
    /// Creates an event with no payload fields.
    pub fn new(
        sim_time: SimTime,
        severity: Severity,
        component: &'static str,
        name: &'static str,
    ) -> Self {
        Event {
            sim_time,
            severity,
            component,
            name,
            span: SpanCtx::NONE,
            fields: Vec::new(),
        }
    }

    /// Attaches a trace context (builder style). A [`SpanCtx::NONE`]
    /// context leaves the event untraced.
    pub fn in_span(mut self, span: SpanCtx) -> Self {
        self.span = span;
        self
    }

    /// Appends one payload field (builder style).
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        debug_assert!(
            !RESERVED_KEYS.contains(&key),
            "field key {key:?} collides with the event envelope"
        );
        self.fields.push((key, value.into()));
        self
    }

    /// Returns the first field with the given key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Serializes as one flat JSON object (no trailing newline):
    /// `{"t_ms":60000,"sev":"info","component":"controller","event":"tick",...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        self.write_json(&mut out);
        out
    }

    /// Serializes into `out` without allocating a fresh `String`. The
    /// flush-path sinks reuse one thread-local scratch buffer through
    /// this, so per-event serialization costs no heap traffic.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t_ms\":");
        let _ = write!(out, "{}", self.sim_time.as_millis());
        out.push_str(",\"sev\":\"");
        out.push_str(self.severity.as_str());
        out.push_str("\",\"component\":");
        write_json_string(self.component, out);
        out.push_str(",\"event\":");
        write_json_string(self.name, out);
        if self.span.is_some() {
            let _ = write!(
                out,
                ",\"trace\":{},\"span\":{}",
                self.span.trace.raw(),
                self.span.span.raw()
            );
            if let Some(parent) = self.span.parent {
                let _ = write!(out, ",\"parent\":{}", parent.raw());
            }
        }
        for (k, v) in &self.fields {
            out.push(',');
            write_json_string(k, out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }

    /// Parses one JSONL line produced by [`Event::to_json`].
    pub fn parse_json(line: &str) -> Result<ParsedEvent, ParseError> {
        let pairs = crate::json::parse_object(line)?;
        let mut t_ms = None;
        let mut severity = None;
        let mut component = None;
        let mut name = None;
        let mut trace = None;
        let mut span = None;
        let mut parent = None;
        let mut fields = Vec::new();
        for (key, value) in pairs {
            match key.as_str() {
                "trace" => {
                    trace = Some(
                        value
                            .as_u64()
                            .ok_or(ParseError::new("trace must be an unsigned integer"))?,
                    )
                }
                "span" => {
                    span = Some(
                        value
                            .as_u64()
                            .ok_or(ParseError::new("span must be an unsigned integer"))?,
                    )
                }
                "parent" => {
                    parent = Some(
                        value
                            .as_u64()
                            .ok_or(ParseError::new("parent must be an unsigned integer"))?,
                    )
                }
                "t_ms" => {
                    t_ms = Some(
                        value
                            .as_u64()
                            .ok_or(ParseError::new("t_ms must be an unsigned integer"))?,
                    )
                }
                "sev" => {
                    let s = value
                        .as_str()
                        .ok_or(ParseError::new("sev must be a string"))?;
                    severity =
                        Some(Severity::from_str_opt(s).ok_or(ParseError::new("unknown severity"))?);
                }
                "component" => {
                    component = Some(
                        value
                            .as_str()
                            .ok_or(ParseError::new("component must be a string"))?
                            .to_owned(),
                    )
                }
                "event" => {
                    name = Some(
                        value
                            .as_str()
                            .ok_or(ParseError::new("event must be a string"))?
                            .to_owned(),
                    )
                }
                _ => fields.push((key, value)),
            }
        }
        let span = match (trace, span) {
            (None, None) => SpanCtx::NONE,
            (Some(t), Some(s)) if t != 0 && s != 0 => SpanCtx {
                trace: TraceId(t),
                span: SpanId(s),
                parent: parent.map(SpanId),
            },
            _ => return Err(ParseError::new("trace and span keys must appear together")),
        };
        Ok(ParsedEvent {
            sim_time: SimTime::from_millis(t_ms.ok_or(ParseError::new("missing t_ms"))?),
            severity: severity.ok_or(ParseError::new("missing sev"))?,
            component: component.ok_or(ParseError::new("missing component"))?,
            name: name.ok_or(ParseError::new("missing event"))?,
            span,
            fields,
        })
    }
}

/// An [`Event`] read back from JSONL (owned strings instead of statics).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Simulation time the event happened.
    pub sim_time: SimTime,
    /// Severity level.
    pub severity: Severity,
    /// Emitting component.
    pub component: String,
    /// Event name within the component.
    pub name: String,
    /// Trace context ([`SpanCtx::NONE`] when the line had no trace keys).
    pub span: SpanCtx,
    /// Payload fields.
    pub fields: Vec<(String, Value)>,
}

impl ParsedEvent {
    /// Returns the first field with the given key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Error parsing an event or JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: &'static str,
}

impl ParseError {
    pub(crate) fn new(msg: &'static str) -> Self {
        ParseError { msg }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "telemetry parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_envelope_then_fields() {
        let e = Event::new(SimTime::from_mins(2), Severity::Info, "controller", "tick")
            .with("power_norm", 0.93)
            .with("froze", 4u64)
            .with("acted", true)
            .with("note", "hello \"world\"\n");
        let json = e.to_json();
        assert!(
            json.starts_with("{\"t_ms\":120000,\"sev\":\"info\""),
            "{json}"
        );
        assert!(json.contains("\"power_norm\":0.93"), "{json}");
        assert!(json.contains("\"froze\":4"), "{json}");
        assert!(json.contains("\"acted\":true"), "{json}");
        assert!(json.contains("\\\"world\\\"\\n"), "{json}");
    }

    #[test]
    fn whole_floats_stay_floats() {
        let mut s = String::new();
        write_json_f64(3.0, &mut s);
        assert_eq!(s, "3.0");
        for v in [f64::NAN, f64::INFINITY] {
            let mut s = String::new();
            write_json_f64(v, &mut s);
            assert_eq!(s, "null");
        }
    }

    #[test]
    fn span_keys_round_trip() {
        let ctx = SpanCtx {
            trace: TraceId(7),
            span: SpanId(9),
            parent: Some(SpanId(7)),
        };
        let e = Event::new(SimTime::from_mins(3), Severity::Info, "scheduler", "freeze")
            .in_span(ctx)
            .with("server", 12u64);
        let json = e.to_json();
        assert!(
            json.contains("\"trace\":7,\"span\":9,\"parent\":7"),
            "{json}"
        );
        let parsed = Event::parse_json(&json).unwrap();
        assert_eq!(parsed.span, ctx);
        // A root span serializes without a parent key.
        let root = SpanCtx {
            trace: TraceId(4),
            span: SpanId(4),
            parent: None,
        };
        let json = Event::new(SimTime::ZERO, Severity::Info, "controller", "tick")
            .in_span(root)
            .to_json();
        assert!(!json.contains("parent"), "{json}");
        assert_eq!(Event::parse_json(&json).unwrap().span, root);
    }

    #[test]
    fn untraced_events_have_no_trace_keys() {
        let e = Event::new(SimTime::ZERO, Severity::Info, "test", "e");
        let json = e.to_json();
        assert!(!json.contains("trace"), "{json}");
        assert_eq!(Event::parse_json(&json).unwrap().span, SpanCtx::NONE);
        // A trace key without a span key is a schema error.
        assert!(Event::parse_json(
            r#"{"t_ms":0,"sev":"info","component":"a","event":"b","trace":3}"#
        )
        .is_err());
    }

    #[test]
    fn severity_round_trip() {
        for sev in [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ] {
            assert_eq!(Severity::from_str_opt(sev.as_str()), Some(sev));
        }
        assert!(Severity::from_str_opt("fatal").is_none());
        assert!(Severity::Warn > Severity::Info);
    }
}
