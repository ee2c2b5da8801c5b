//! A minimal JSON parser for reading telemetry dumps back, and the one
//! string escaper and float writer every JSON writer in the workspace
//! shares.
//!
//! Handles exactly the subset [`Event::to_json`](crate::Event::to_json)
//! and the metrics snapshot emit: one flat object per line whose values
//! are strings, numbers, booleans, `null` (non-finite floats), or — for
//! histogram metrics — arrays of numbers. Nested objects are not
//! supported and not produced.

use crate::event::{ParseError, Value};

use std::fmt::Write as _;

/// A parsed JSON value, extending [`Value`] with the array and
/// string-map shapes the metrics snapshot emits.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A scalar.
    Scalar(Value),
    /// An array of numbers.
    Array(Vec<f64>),
    /// A one-level object of scalar values (e.g. a label map).
    Object(Vec<(String, Value)>),
}

/// Writes `s` as a JSON string literal with the required escapes.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an `f64` so that it parses back as a float (always keeps a
/// decimal point or exponent); non-finite values become `null`.
///
/// Formats straight into `out` (no intermediate `to_string`): this sits
/// on the snapshot-export and event-flush paths, where a per-value heap
/// allocation is measurable at hyperscale event rates.
pub fn write_json_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Parses a flat JSON object into its key/value pairs, scalars only
/// (arrays are rejected). Used for event lines.
pub fn parse_object(input: &str) -> Result<Vec<(String, Value)>, ParseError> {
    parse_object_full(input)?
        .into_iter()
        .map(|(k, v)| match v {
            JsonValue::Scalar(v) => Ok((k, v)),
            _ => Err(ParseError::new("unexpected compound value in event")),
        })
        .collect()
}

/// Parses a flat JSON object allowing numeric-array values.
pub fn parse_object_full(input: &str) -> Result<Vec<(String, JsonValue)>, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            pairs.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(ParseError::new("expected ',' or '}'")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseError::new("trailing characters after object"));
    }
    Ok(pairs)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, want: u8) -> Result<(), ParseError> {
        if self.next() == Some(want) {
            Ok(())
        } else {
            Err(ParseError::new("unexpected character"))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Scalar(Value::Str(self.parse_string()?))),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_nested_object(),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Scalar(Value::Bool(true))),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Scalar(Value::Bool(false))),
            // Non-finite floats serialize as null; read them back as NaN.
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Scalar(Value::F64(f64::NAN))),
            Some(b'-' | b'0'..=b'9') => Ok(JsonValue::Scalar(self.parse_number()?)),
            _ => Err(ParseError::new("unexpected value")),
        }
    }

    fn parse_nested_object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match self.parse_value()? {
                JsonValue::Scalar(v) => pairs.push((key, v)),
                _ => return Err(ParseError::new("nested object values must be scalars")),
            }
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(pairs)),
                _ => return Err(ParseError::new("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            match self.parse_number()? {
                Value::U64(v) => items.push(v as f64),
                Value::I64(v) => items.push(v as f64),
                Value::F64(v) => items.push(v),
                _ => unreachable!("parse_number returns numbers"),
            }
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(ParseError::new("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(ParseError::new("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .ok_or(ParseError::new("truncated \\u escape"))?;
                        self.pos += 4;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(ParseError::new("bad \\u escape"))?;
                        out.push(
                            char::from_u32(code).ok_or(ParseError::new("bad \\u code point"))?,
                        );
                    }
                    _ => return Err(ParseError::new("unknown escape")),
                },
                Some(byte) => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let len = utf8_len(byte);
                    if len == 1 {
                        out.push(byte as char);
                    } else {
                        let start = self.pos - 1;
                        let chunk = self
                            .bytes
                            .get(start..start + len)
                            .ok_or(ParseError::new("truncated UTF-8"))?;
                        self.pos = start + len;
                        out.push_str(
                            std::str::from_utf8(chunk)
                                .map_err(|_| ParseError::new("invalid UTF-8"))?,
                        );
                    }
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| ParseError::new("invalid float"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| ParseError::new("invalid integer"))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| ParseError::new("invalid integer"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let pairs = parse_object(r#"{"a":1,"b":-2,"c":3.5,"d":"x","e":true,"f":null}"#).unwrap();
        assert_eq!(pairs[0], ("a".into(), Value::U64(1)));
        assert_eq!(pairs[1], ("b".into(), Value::I64(-2)));
        assert_eq!(pairs[2], ("c".into(), Value::F64(3.5)));
        assert_eq!(pairs[3], ("d".into(), Value::Str("x".into())));
        assert_eq!(pairs[4], ("e".into(), Value::Bool(true)));
        assert!(matches!(pairs[5].1, Value::F64(v) if v.is_nan()));
    }

    #[test]
    fn parses_arrays_and_unicode() {
        let pairs = parse_object_full(r#"{"buckets":[1,2.5,3e2],"s":"πA"}"#).unwrap();
        assert_eq!(pairs[0].1, JsonValue::Array(vec![1.0, 2.5, 300.0]));
        assert_eq!(pairs[1].1, JsonValue::Scalar(Value::Str("πA".into())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_object("not json").is_err());
        assert!(parse_object(r#"{"a":1"#).is_err());
        assert!(parse_object(r#"{"a":1} extra"#).is_err());
        assert!(
            parse_object(r#"{"a":[1]}"#).is_err(),
            "arrays rejected for events"
        );
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let mut out = String::new();
        write_json_string("a\"b\\c\nd\u{1}é", &mut out);
        assert_eq!(out, r#""a\"b\\c\nd\u0001é""#);
        let pairs = parse_object(&format!("{{\"k\":{out}}}")).unwrap();
        assert_eq!(pairs[0].1, Value::Str("a\"b\\c\nd\u{1}é".into()));
    }

    #[test]
    fn empty_object_ok() {
        assert!(parse_object("{}").unwrap().is_empty());
    }
}
