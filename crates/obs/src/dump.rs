//! Benchmark dumps: one typed record per `repro` benchmark, one codec,
//! one gate list.
//!
//! Every benchmark `repro` runs (`scale`, `sla`, `hier`, `profile`,
//! `watch`, `scenarios`) produces a record that lives in this crate and
//! implements [`BenchDump`]: [`encode`](BenchDump::encode) writes the
//! JSONL dump (one header line, then body lines),
//! [`decode`](BenchDump::decode) reads it back through the one field
//! reader below, and [`gates`](BenchDump::gates) is the list of
//! pass/fail verdicts. `repro` exits on the gates of the record it just
//! measured and `report` on the gates of the record it just decoded, so
//! a gate cannot disagree between them.
//!
//! Each line type is declared once, in a field table (`dump_line!`):
//! every field with its doc comment, its name (which is its JSON key),
//! its type (`DumpValue`) and, for floats, its precision. The table
//! generates the struct, its reader (`DumpLine::read`) and its writer
//! (`DumpLine::write`), in declaration order. A record's `encode` and
//! `decode` hold hand-written code only for what is not a plain field:
//! header counts, indices, sentinels, joined lists and fields that are
//! absent rather than `null` when unknown.
//!
//! Headers keep the producer's own verdicts (`sla_protected`,
//! `zero_trips`, …). A gate whose verdict the header declares passes
//! only when the recomputed verdict and the declared one both pass, so
//! an edited or stale header fails `report`.

use ampere_telemetry::json::{self, write_json_string, JsonValue};
use ampere_telemetry::Value;

use std::fmt::Write as _;

/// One pass/fail verdict of a benchmark dump.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Stable kebab-case name (`thread-invariance`, `sla-protection`, …).
    pub name: &'static str,
    /// Whether the gate held.
    pub pass: bool,
    /// One line on what was measured, printed when the gate fails.
    pub detail: String,
}

impl Gate {
    /// A gate named `name`.
    pub fn new(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        Gate {
            name,
            pass,
            detail: detail.into(),
        }
    }

    /// The `report --max-overhead` gate: the measured observability
    /// overhead fraction must not exceed `max`.
    pub fn max_overhead(fraction: f64, max: f64) -> Self {
        Gate::new(
            "max-overhead",
            fraction <= max,
            format!(
                "overhead {:.1}% against a {:.1}% bar",
                fraction * 100.0,
                max * 100.0
            ),
        )
    }
}

/// Prints every failed gate to stderr as `<label>: <gate> FAILED —
/// <detail>` and returns whether all of them passed.
pub fn gates_pass(label: &str, gates: &[Gate]) -> bool {
    for g in gates.iter().filter(|g| !g.pass) {
        eprintln!("{label}: {} FAILED — {}", g.name, g.detail);
    }
    gates.iter().all(|g| g.pass)
}

/// A benchmark's record: its dump codec, gates and report section.
pub trait BenchDump {
    /// Parses the JSONL dump `repro` wrote.
    fn decode(text: &str) -> Result<Self, String>
    where
        Self: Sized;

    /// Serializes the record as the JSONL dump.
    fn encode(&self) -> String;

    /// Every pass/fail verdict of the run, in report order.
    fn gates(&self) -> Vec<Gate>;

    /// Renders the Markdown report section.
    fn to_markdown(&self) -> String;

    /// Observability overhead as a fraction of wall time, for the
    /// benchmarks that measure one (`report --max-overhead` gates it).
    fn overhead_fraction(&self) -> Option<f64> {
        None
    }
}

/// The fields of one dump line, read by key. `get` errors on a missing
/// or mistyped field, naming the key and the line; `opt` reads an absent
/// (or `null`) field as `None` but still rejects a present field of the
/// wrong type.
#[derive(Debug)]
pub struct Fields {
    line: usize,
    pairs: Vec<(String, JsonValue)>,
}

impl Fields {
    /// Parses line `line` (1-based, for error messages).
    pub fn parse(line: usize, text: &str) -> Result<Self, String> {
        let pairs = json::parse_object_full(text).map_err(|e| format!("line {line}: {e}"))?;
        Ok(Fields { line, pairs })
    }

    /// `msg`, prefixed with the line number.
    pub(crate) fn err(&self, msg: String) -> String {
        format!("line {}: {msg}", self.line)
    }

    /// The key of the line's first field (what kind of line it is).
    pub fn first_key(&self) -> &str {
        self.pairs.first().map_or("", |(k, _)| k.as_str())
    }

    /// Whether `key` is present with a non-`null` value.
    pub fn has(&self, key: &str) -> bool {
        match self.pairs.iter().find(|(k, _)| k == key) {
            Some((_, JsonValue::Scalar(Value::F64(v)))) => !v.is_nan(),
            Some(_) => true,
            None => false,
        }
    }

    /// Field `key` as a `V`.
    pub(crate) fn get<V: DumpValue>(&self, key: &str) -> Result<V, String> {
        let value = self
            .pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| self.err(format!("missing field {key:?}")))?;
        V::from_json(value).ok_or_else(|| self.err(format!("field {key:?} is not {}", V::WHAT)))
    }

    /// [`get`](Self::get) for an optional field.
    pub(crate) fn opt<V: DumpValue>(&self, key: &str) -> Result<Option<V>, String> {
        self.has(key).then(|| self.get(key)).transpose()
    }
}

/// A value a dump field carries: written as JSON text, read back from
/// the parsed JSON. `decimals` is the field's declared precision:
/// floats print that many decimal places, or by `Display` when it is
/// `None`; other types ignore it.
pub(crate) trait DumpValue: Sized {
    /// What a well-typed value is, for error messages.
    const WHAT: &'static str;
    /// Appends the value's JSON text.
    fn write(&self, decimals: Option<usize>, out: &mut String);
    /// The value, if `json` has this type.
    fn from_json(json: &JsonValue) -> Option<Self>;
}

fn write_float(v: f64, decimals: Option<usize>, out: &mut String) {
    let _ = match decimals {
        Some(d) => write!(out, "{v:.d$}"),
        None => write!(out, "{v}"),
    };
}

fn scalar(json: &JsonValue) -> Option<&Value> {
    match json {
        JsonValue::Scalar(v) => Some(v),
        _ => None,
    }
}

fn write_list<T>(items: &[T], out: &mut String, mut each: impl FnMut(&T, &mut String)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(item, out);
    }
    out.push(']');
}

impl DumpValue for u64 {
    const WHAT: &'static str = "an unsigned integer";
    fn write(&self, _: Option<usize>, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn from_json(json: &JsonValue) -> Option<Self> {
        scalar(json)?.as_u64()
    }
}

impl DumpValue for i64 {
    const WHAT: &'static str = "a signed integer";
    fn write(&self, _: Option<usize>, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn from_json(json: &JsonValue) -> Option<Self> {
        match scalar(json)? {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }
}

impl DumpValue for bool {
    const WHAT: &'static str = "a boolean";
    fn write(&self, _: Option<usize>, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn from_json(json: &JsonValue) -> Option<Self> {
        match scalar(json)? {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl DumpValue for String {
    const WHAT: &'static str = "a string";
    fn write(&self, _: Option<usize>, out: &mut String) {
        write_json_string(self, out);
    }
    fn from_json(json: &JsonValue) -> Option<Self> {
        scalar(json)?.as_str().map(str::to_string)
    }
}

impl DumpValue for f64 {
    const WHAT: &'static str = "a number";
    fn write(&self, decimals: Option<usize>, out: &mut String) {
        write_float(*self, decimals, out);
    }
    fn from_json(json: &JsonValue) -> Option<Self> {
        scalar(json)?.as_f64()
    }
}

/// A nullable field: written `null` when `None`. The key must still be
/// present; [`Fields::opt`] reads fields that may be absent.
impl<V: DumpValue> DumpValue for Option<V> {
    const WHAT: &'static str = V::WHAT;
    fn write(&self, decimals: Option<usize>, out: &mut String) {
        match self {
            Some(v) => v.write(decimals, out),
            None => out.push_str("null"),
        }
    }
    fn from_json(json: &JsonValue) -> Option<Self> {
        match json {
            JsonValue::Scalar(Value::F64(v)) if v.is_nan() => Some(None),
            _ => V::from_json(json).map(Some),
        }
    }
}

impl DumpValue for Vec<f64> {
    const WHAT: &'static str = "an array of numbers";
    fn write(&self, decimals: Option<usize>, out: &mut String) {
        write_list(self, out, |v, out| write_float(*v, decimals, out));
    }
    fn from_json(json: &JsonValue) -> Option<Self> {
        match json {
            JsonValue::Array(v) => Some(v.clone()),
            _ => None,
        }
    }
}

impl DumpValue for Vec<usize> {
    const WHAT: &'static str = "an array of indices";
    fn write(&self, _: Option<usize>, out: &mut String) {
        write_list(self, out, |v, out| {
            let _ = write!(out, "{v}");
        });
    }
    fn from_json(json: &JsonValue) -> Option<Self> {
        Vec::<f64>::from_json(json)?
            .into_iter()
            .map(|v| (v >= 0.0 && v.fract() == 0.0).then_some(v as usize))
            .collect()
    }
}

/// One dump line as `(key, JSON text)` pairs in emission order.
#[derive(Debug, Default)]
pub(crate) struct Line(Vec<(&'static str, String)>);

fn json_text<V: DumpValue>(value: &V, decimals: Option<usize>) -> String {
    let mut text = String::new();
    value.write(decimals, &mut text);
    text
}

impl Line {
    /// A header line: `"bench":<bench>`, then `record`'s fields.
    pub(crate) fn header(bench: &str, record: &impl DumpLine) -> Self {
        let mut line = Line(vec![("bench", json_text(&bench.to_string(), None))]);
        record.write(&mut line);
        line
    }

    /// A body line holding `record`'s fields.
    pub(crate) fn of(record: &impl DumpLine) -> Self {
        let mut line = Line::default();
        record.write(&mut line);
        line
    }

    /// Appends `key` written at `decimals` (what the field table calls).
    pub(crate) fn field<V: DumpValue>(
        &mut self,
        key: &'static str,
        value: &V,
        decimals: Option<usize>,
    ) {
        self.0.push((key, json_text(value, decimals)));
    }

    /// Appends `key`.
    pub(crate) fn push<V: DumpValue>(&mut self, key: &'static str, value: &V) {
        self.field(key, value, None);
    }

    /// Inserts `key` right after the field `after`.
    ///
    /// # Panics
    /// If the line has no field `after`.
    pub(crate) fn insert_after<V: DumpValue>(&mut self, after: &str, key: &'static str, value: &V) {
        let at = self
            .0
            .iter()
            .position(|(k, _)| *k == after)
            .unwrap_or_else(|| panic!("dump line has no field {after:?}"));
        self.0.insert(at + 1, (key, json_text(value, None)));
    }

    /// Writes the line as one JSON object and a newline.
    pub(crate) fn write_to(&self, out: &mut String) {
        out.push('{');
        for (i, (key, text)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{key}\":{text}");
        }
        out.push_str("}\n");
    }
}

/// A line type declared by a field table: its plain fields, read and
/// written in declaration order.
pub(crate) trait DumpLine: Sized {
    /// Reads every plain field; the `extra` fields start at their
    /// defaults, for `decode` to fill.
    fn read(fields: &Fields) -> Result<Self, String>;
    /// Appends every plain field to `line`.
    fn write(&self, line: &mut Line);
}

/// Declares one dump line type: its struct, [`DumpLine::read`] and
/// [`DumpLine::write`]. Each plain field is listed once, as
/// `name: Type` or, for floats, `name: Type => decimals`; its name is
/// its JSON key. Fields in the optional `extra { .. }` block are part
/// of the struct but not of the table: `encode` and `decode` write and
/// read them by hand.
macro_rules! dump_line {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$doc:meta])* $field:ident : $ty:ty $(=> $decimals:literal)? ),* $(,)?
        }
        $( extra {
            $( $(#[$xdoc:meta])* $xfield:ident : $xty:ty ),* $(,)?
        } )?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $( $(#[$doc])* pub $field: $ty, )*
            $($( $(#[$xdoc])* pub $xfield: $xty, )*)?
        }

        impl $crate::dump::DumpLine for $name {
            fn read(fields: &$crate::dump::Fields) -> Result<Self, String> {
                Ok($name {
                    $( $field: fields.get(stringify!($field))?, )*
                    $($( $xfield: Default::default(), )*)?
                })
            }

            fn write(&self, line: &mut $crate::dump::Line) {
                $( line.field(stringify!($field), &self.$field, dump_line!(@decimals $($decimals)?)); )*
            }
        }
    };
    (@decimals) => { None };
    (@decimals $d:literal) => { Some($d) };
}
pub(crate) use dump_line;

/// Splits a dump into its header — checked to carry `"bench":<bench>`
/// — and its non-blank body lines.
pub fn read(text: &str, bench: &str) -> Result<(Fields, Vec<Fields>), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(no, l)| Fields::parse(no + 1, l));
    let header = lines
        .next()
        .ok_or_else(|| format!("empty {bench} dump"))??;
    match header.get::<String>("bench") {
        Ok(tag) if tag == bench => {}
        tag => return Err(format!("not a {bench} dump (bench tag {:?})", tag.ok())),
    }
    Ok((header, lines.collect::<Result<_, _>>()?))
}

/// Checks a header's declared line count against what the body held.
pub fn expect_count(declared: u64, found: usize, what: &str) -> Result<(), String> {
    if declared == found as u64 {
        Ok(())
    } else {
        Err(format!(
            "header declares {declared} {what}, dump has {found}"
        ))
    }
}

/// A checksum as the 16-digit hex string dumps carry.
pub fn hex(checksum: u64) -> String {
    format!("{checksum:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    dump_line! {
        /// One field of every value type the table supports.
        pub struct Sample {
            /// An unsigned integer.
            count: u64,
            /// A signed integer.
            offset: i64,
            /// A boolean.
            ok: bool,
            /// A quoted string.
            name: String,
            /// A float at a fixed precision.
            watts: f64 => 3,
            /// A float by `Display`.
            factor: f64,
            /// Floats at a fixed precision.
            levels: Vec<f64> => 1,
            /// Indices.
            rows: Vec<usize>,
            /// A nullable float at a fixed precision.
            limit: Option<f64> => 2,
            /// A nullable integer, written `null`.
            cap: Option<u64>,
        }
        extra {
            /// Not in the table.
            note: String,
        }
    }

    fn sample() -> Sample {
        Sample {
            count: 7,
            offset: -1,
            ok: true,
            name: "a \"b\"".into(),
            watts: 1.23456,
            factor: 1.2,
            levels: vec![0.26, 3.0],
            rows: vec![0, 2],
            limit: Some(0.5),
            cap: None,
            note: "kept out".into(),
        }
    }

    #[test]
    fn field_table_writes_in_declaration_order_and_reads_back() {
        let mut text = String::new();
        Line::of(&sample()).write_to(&mut text);
        assert_eq!(
            text,
            concat!(
                r#"{"count":7,"offset":-1,"ok":true,"name":"a \"b\"","watts":1.235,"#,
                r#""factor":1.2,"levels":[0.3,3.0],"rows":[0,2],"limit":0.50,"cap":null}"#,
                "\n"
            )
        );
        let back = Sample::read(&Fields::parse(1, text.trim_end()).unwrap()).unwrap();
        assert_eq!(
            back,
            Sample {
                watts: 1.235,
                levels: vec![0.3, 3.0],
                note: String::new(),
                ..sample()
            }
        );

        let mut header = Line::header("x", &back);
        header.insert_after("ok", "n", &2u64);
        header.push("last", &false);
        let mut text = String::new();
        header.write_to(&mut text);
        assert!(text.starts_with(r#"{"bench":"x","count":7,"offset":-1,"ok":true,"n":2,"name""#));
        assert!(text.ends_with(concat!(r#""cap":null,"last":false}"#, "\n")));
    }

    #[test]
    fn field_table_names_the_key_and_line_of_a_bad_field() {
        let mut text = String::new();
        Line::of(&sample()).write_to(&mut text);
        for (from, to, key) in [
            (r#""count":7,"#, "", "count"),
            ("\"offset\":-1", "\"offset\":\"-1\"", "offset"),
            ("\"ok\":true", "\"ok\":1", "ok"),
            ("\"watts\":1.235", "\"watts\":\"1.235\"", "watts"),
            ("\"levels\":[0.3,3.0]", "\"levels\":0.3", "levels"),
            ("\"rows\":[0,2]", "\"rows\":[0.5]", "rows"),
            (",\"limit\":0.50", "", "limit"),
            ("\"cap\":null", "\"cap\":\"x\"", "cap"),
            ("\"name\":\"a \\\"b\\\"\"", "\"name\":3", "name"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "{key}");
            let err = Sample::read(&Fields::parse(4, bad.trim_end()).unwrap()).unwrap_err();
            assert!(err.starts_with("line 4:"), "{err}");
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
    }

    #[test]
    fn optional_fields_are_absent_or_well_typed() {
        let f = Fields::parse(3, r#"{"a":1,"b":"x","c":null}"#).unwrap();
        assert_eq!(f.opt::<u64>("a"), Ok(Some(1)));
        assert_eq!(f.opt::<u64>("c"), Ok(None));
        assert_eq!(f.opt::<u64>("missing"), Ok(None));
        let err = f.opt::<u64>("b").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(f
            .get::<u64>("missing")
            .unwrap_err()
            .contains("missing field"));
    }

    #[test]
    fn reader_checks_the_bench_tag_and_counts() {
        assert!(read("", "scale").unwrap_err().contains("empty"));
        assert!(read("{\"bench\":\"sla\"}", "scale")
            .unwrap_err()
            .contains("not a scale dump"));
        let (header, body) = read("{\"bench\":\"x\",\"n\":1}\n\n{\"k\":2}\n", "x").unwrap();
        assert_eq!(header.get::<u64>("n"), Ok(1));
        assert_eq!(body.len(), 1);
        assert_eq!(body[0].first_key(), "k");
        assert!(expect_count(2, 1, "points")
            .unwrap_err()
            .contains("declares 2 points"));
    }

    #[test]
    fn failed_gates_fail_the_list() {
        let ok = || Gate::new("a", true, "");
        assert!(gates_pass("t", &[ok()]));
        assert!(!gates_pass("t", &[ok(), Gate::max_overhead(0.2, 0.1)]));
        assert!(Gate::max_overhead(0.1, 0.1).pass);
    }
}
