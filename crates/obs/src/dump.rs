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
//! Headers keep the producer's own verdicts (`sla_protected`,
//! `zero_trips`, …). A gate whose verdict the header declares passes
//! only when the recomputed verdict and the declared one both pass, so
//! an edited or stale header fails `report`.

use ampere_telemetry::json::{self, JsonValue};
use ampere_telemetry::Value;

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

/// The fields of one dump line, read by key. Every accessor errors on
/// a missing or mistyped field, naming the line; the `opt_*` forms
/// read an absent (or `null`) field as `None` but still reject a
/// present field of the wrong type.
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

    fn err(&self, msg: String) -> String {
        format!("line {}: {msg}", self.line)
    }

    /// The key of the line's first field (what kind of line it is).
    pub fn first_key(&self) -> &str {
        self.pairs.first().map_or("", |(k, _)| k.as_str())
    }

    fn get(&self, key: &str) -> Result<&JsonValue, String> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| self.err(format!("missing field {key:?}")))
    }

    fn scalar(&self, key: &str) -> Result<&Value, String> {
        match self.get(key)? {
            JsonValue::Scalar(v) => Ok(v),
            other => Err(self.err(format!("field {key:?} is not a scalar: {other:?}"))),
        }
    }

    /// Whether `key` is present with a non-`null` value.
    pub fn has(&self, key: &str) -> bool {
        match self.pairs.iter().find(|(k, _)| k == key) {
            Some((_, JsonValue::Scalar(Value::F64(v)))) => !v.is_nan(),
            Some(_) => true,
            None => false,
        }
    }

    /// A number (integer or float).
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.scalar(key)?
            .as_f64()
            .ok_or_else(|| self.err(format!("field {key:?} is not a number")))
    }

    /// An unsigned integer.
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        self.scalar(key)?
            .as_u64()
            .ok_or_else(|| self.err(format!("field {key:?} is not an unsigned integer")))
    }

    /// A signed integer.
    pub fn int(&self, key: &str) -> Result<i64, String> {
        match self.scalar(key)? {
            Value::I64(v) => Ok(*v),
            Value::U64(v) => i64::try_from(*v)
                .map_err(|_| self.err(format!("field {key:?} overflows a signed integer"))),
            _ => Err(self.err(format!("field {key:?} is not an integer"))),
        }
    }

    /// A boolean.
    pub fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.scalar(key)? {
            Value::Bool(v) => Ok(*v),
            _ => Err(self.err(format!("field {key:?} is not a boolean"))),
        }
    }

    /// A string.
    pub fn string(&self, key: &str) -> Result<String, String> {
        self.scalar(key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| self.err(format!("field {key:?} is not a string")))
    }

    /// An array of numbers.
    pub fn floats(&self, key: &str) -> Result<Vec<f64>, String> {
        match self.get(key)? {
            JsonValue::Array(v) => Ok(v.clone()),
            _ => Err(self.err(format!("field {key:?} is not an array"))),
        }
    }

    /// An array of non-negative integer indices.
    pub fn indices(&self, key: &str) -> Result<Vec<usize>, String> {
        self.floats(key)?
            .into_iter()
            .map(|v| {
                (v >= 0.0 && v.fract() == 0.0)
                    .then_some(v as usize)
                    .ok_or_else(|| self.err(format!("field {key:?} holds a non-index {v}")))
            })
            .collect()
    }

    /// [`uint`](Self::uint) for an optional field.
    pub fn opt_uint(&self, key: &str) -> Result<Option<u64>, String> {
        self.has(key).then(|| self.uint(key)).transpose()
    }
}

/// A dump's non-blank body lines, each with its raw text.
pub type Body<'a> = Vec<(&'a str, Fields)>;

/// Splits a dump into its header — checked to carry `"bench":<bench>`
/// — and its body.
pub fn read<'a>(text: &'a str, bench: &str) -> Result<(Fields, Body<'a>), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(no, l)| Fields::parse(no + 1, l).map(|f| (l, f)));
    let (_, header) = lines
        .next()
        .ok_or_else(|| format!("empty {bench} dump"))??;
    match header.string("bench") {
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

    #[test]
    fn optional_fields_are_absent_or_well_typed() {
        let f = Fields::parse(3, r#"{"a":1,"b":"x","c":null}"#).unwrap();
        assert_eq!(f.opt_uint("a"), Ok(Some(1)));
        assert_eq!(f.opt_uint("c"), Ok(None));
        assert_eq!(f.opt_uint("missing"), Ok(None));
        let err = f.opt_uint("b").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(f.uint("missing").unwrap_err().contains("missing field"));
    }

    #[test]
    fn reader_checks_the_bench_tag_and_counts() {
        assert!(read("", "scale").unwrap_err().contains("empty"));
        assert!(read("{\"bench\":\"sla\"}", "scale")
            .unwrap_err()
            .contains("not a scale dump"));
        let (header, body) = read("{\"bench\":\"x\",\"n\":1}\n\n{\"k\":2}\n", "x").unwrap();
        assert_eq!(header.uint("n"), Ok(1));
        assert_eq!(body.len(), 1);
        assert_eq!(body[0].0, "{\"k\":2}");
        assert_eq!(body[0].1.first_key(), "k");
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
