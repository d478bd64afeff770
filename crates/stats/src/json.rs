//! Minimal JSON rendering and parsing for campaign results.
//!
//! The workspace builds without external crates, so this is a small
//! JSON value tree: enough for `--json` result dumps and for reading
//! back our own reports ([`JsonValue::parse`], used by the
//! `bench_hotpath` regression gate), not a general-purpose serde.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// An exact unsigned integer (u64 seeds don't fit in f64).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

/// Where a [`JsonValue::parse`] failure occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What the parser expected.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// How deeply [`JsonValue::parse`] lets arrays and objects nest.
    /// Every report this workspace writes stays under 10 levels.
    pub const MAX_DEPTH: usize = 128;

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses JSON text into a value tree. Numbers with no fraction or
    /// exponent that fit a `u64` parse as [`JsonValue::UInt`] (exact
    /// round-trip for seeds); everything else numeric becomes
    /// [`JsonValue::Num`]. Trailing non-whitespace is an error — a
    /// report must be one complete document. So is nesting arrays and
    /// objects deeper than [`JsonValue::MAX_DEPTH`]: the parser recurses
    /// once per level, and the bound keeps hostile input off the stack.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, Self::MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonParseError {
                at: pos,
                message: "trailing characters after the document".into(),
            });
        }
        Ok(value)
    }

    /// Looks up a field of an object; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => out.push_str(&format!("{v}")),
            JsonValue::Num(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        out.push_str(&format!("{}", *v as i64));
                    } else {
                        out.push_str(&format!("{v}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn err(at: usize, message: impl Into<String>) -> JsonParseError {
    JsonParseError {
        at,
        message: message.into(),
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected {lit:?}")))
    }
}

/// Parses one value; `depth` is how many more arrays or objects may
/// open inside it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonParseError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == 0 {
        return Err(err(
            *pos,
            format!("nesting deeper than {} levels", JsonValue::MAX_DEPTH),
        ));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos, depth - 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(err(*pos, format!("unexpected byte {:?}", c as char))),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogates only appear in escaped pairs; our own
                        // renderer never emits them, so reject rather than
                        // decode UTF-16.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| err(*pos, "unpaired surrogate escape"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Take the full UTF-8 scalar starting here.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| err(*pos, "invalid UTF-8 in string"))?;
                let c = rest.chars().next().expect("non-empty checked above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII digits");
    if !fractional {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(v));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| err(start, format!("invalid number {text:?}")))
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let v = JsonValue::Obj(vec![
            ("name".into(), "fig6".into()),
            (
                "rows".into(),
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.5)]),
            ),
            ("ok".into(), JsonValue::Bool(true)),
            ("nan".into(), JsonValue::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"fig6","rows":[1,2.5],"ok":true,"nan":null}"#
        );
    }

    #[test]
    fn u64_values_are_exact() {
        let v = JsonValue::UInt(u64::MAX);
        assert_eq!(v.render(), "18446744073709551615");
    }

    #[test]
    fn escapes_strings() {
        let v = JsonValue::Str("a\"b\\c\nd".into());
        assert_eq!(v.render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let v = JsonValue::Obj(vec![
            ("name".into(), "fig6 \"quoted\" — dash".into()),
            (
                "rows".into(),
                JsonValue::Arr(vec![
                    JsonValue::Num(1.5),
                    JsonValue::Num(-2.25e-3),
                    JsonValue::UInt(u64::MAX),
                    JsonValue::Null,
                    JsonValue::Bool(false),
                ]),
            ),
            ("empty_arr".into(), JsonValue::Arr(vec![])),
            ("empty_obj".into(), JsonValue::Obj(vec![])),
        ]);
        let parsed = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_accepts_whitespace_and_pretty_printing() {
        let v = JsonValue::parse("  {\n  \"a\" : [ 1 , 2.5 ] ,\n  \"b\" : true\n}\n").unwrap();
        assert_eq!(v.get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::UInt(1),
                JsonValue::Num(2.5)
            ]))
        );
        assert_eq!(v.get("a").unwrap().get("x"), None, "get on non-object");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            "+5",
            "{\"a\":1,}",
            "[01x]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(JsonValue::parse(&nested(JsonValue::MAX_DEPTH)).is_ok());
        let e = JsonValue::parse(&nested(JsonValue::MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.at, JsonValue::MAX_DEPTH);
        let deep_obj =
            "{\"a\":".repeat(JsonValue::MAX_DEPTH) + "{}" + &"}".repeat(JsonValue::MAX_DEPTH);
        assert!(JsonValue::parse(&deep_obj).is_err());
    }

    #[test]
    fn accessors_read_numbers() {
        let v = JsonValue::parse(r#"{"rate": 812.5, "seed": 7}"#).unwrap();
        assert_eq!(v.get("rate").and_then(JsonValue::as_f64), Some(812.5));
        assert_eq!(v.get("seed").and_then(JsonValue::as_f64), Some(7.0));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Bool(true).as_f64(), None);
    }
}
