//! Minimal JSON document model, writer, and parser.
//!
//! The tracing exporters emit Chrome trace-event JSON and JSONL run
//! summaries, and the test suite parses them back to cross-check the
//! simulator's accounting. This build environment has no crates
//! registry, so rather than depending on `serde_json` the workspace
//! carries this small hand-rolled implementation: an order-preserving
//! [`Json`] value, a compact writer, and a strict recursive-descent
//! parser.
//!
//! Integers are kept exact: values that parse as non-negative integers
//! are stored as [`Json::UInt`] so `u64` quantities (cycle counts,
//! identifiers) round-trip bit-for-bit instead of passing through `f64`.

use std::collections::VecDeque;
use std::fmt;

/// A JSON value. Object members preserve insertion order so emitted
/// documents are deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`] or the typed accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError { msg: msg.into() })
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member of an object, or an error naming the missing key.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(members) => match members.iter().find(|(k, _)| k == name) {
                Some((_, v)) => Ok(v),
                None => err(format!("missing field `{name}`")),
            },
            _ => err(format!("expected object with field `{name}`")),
        }
    }

    /// Member of an object if present (and the value is an object).
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match *self {
            Json::UInt(v) => Ok(v),
            Json::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Ok(v as u64),
            _ => err(format!("expected u64, got {self}")),
        }
    }

    /// The value as `f64` (accepts either number variant).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match *self {
            Json::UInt(v) => Ok(v as f64),
            Json::Num(v) => Ok(v),
            _ => err(format!("expected number, got {self}")),
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match *self {
            Json::Bool(b) => Ok(b),
            _ => err(format!("expected bool, got {self}")),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => err(format!("expected string, got {self}")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => err(format!("expected array, got {self}")),
        }
    }

    /// Pretty serialization: two-space indent, one member per line,
    /// trailing newline. For artifacts committed to the repository
    /// (benchmark baselines), where line-oriented diffs matter; the
    /// compact `Display` form is for wire/JSONL output.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(indent);
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    item.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    write!(out, "{pad}  {}: ", Json::str(k.as_str())).unwrap();
                    v.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push('}');
            }
            other => write!(out, "{other}").unwrap(),
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    /// Compact serialization (no insignificant whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes `.0` for integral
                    // floats, which keeps the variant distinction stable.
                    write!(f, "{v:?}")
                } else {
                    // JSON has no Infinity/NaN; null is the least-bad spelling.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => err("unexpected end of input"),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Pending UTF-16 units for surrogate-pair decoding.
        let mut units: VecDeque<u16> = VecDeque::new();
        loop {
            let flush_units = |units: &mut VecDeque<u16>, out: &mut String| {
                if !units.is_empty() {
                    let decoded: Vec<u16> = units.drain(..).collect();
                    out.extend(char::decode_utf16(decoded).map(|r| r.unwrap_or('\u{fffd}')));
                }
            };
            match self.peek() {
                Some(b'"') => {
                    flush_units(&mut units, &mut out);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(JsonError {
                        msg: "unterminated escape".into(),
                    })?;
                    self.pos += 1;
                    match esc {
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| JsonError {
                                    msg: "bad \\u escape".into(),
                                })?;
                            let unit = u16::from_str_radix(hex, 16).map_err(|_| JsonError {
                                msg: "bad \\u escape".into(),
                            })?;
                            self.pos += 4;
                            units.push_back(unit);
                            continue;
                        }
                        _ => {
                            flush_units(&mut units, &mut out);
                            match esc {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'/' => out.push('/'),
                                b'n' => out.push('\n'),
                                b'r' => out.push('\r'),
                                b't' => out.push('\t'),
                                b'b' => out.push('\u{08}'),
                                b'f' => out.push('\u{0c}'),
                                _ => return err(format!("bad escape `\\{}`", esc as char)),
                            }
                        }
                    }
                }
                Some(_) => {
                    flush_units(&mut units, &mut out);
                    // Consume one UTF-8 scalar from the source text.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| JsonError {
                        msg: "invalid utf-8".into(),
                    })?;
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return err("unescaped control character in string");
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::Num(v)),
            Err(_) => err(format!("bad number `{text}`")),
        }
    }
}

/// Conversion into the [`Json`] document model.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "18446744073709551615"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
        assert_eq!(Json::parse("-1.5").unwrap(), Json::Num(-1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn u64_is_exact() {
        let big = u64::MAX - 1;
        let v = Json::parse(&Json::UInt(big).to_string()).unwrap();
        assert_eq!(v.as_u64().unwrap(), big);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "line\nwith \"quotes\" \\ tab\t and unicode é λ";
        let rendered = Json::str(s).to_string();
        assert_eq!(Json::parse(&rendered).unwrap().as_str().unwrap(), s);
        // Surrogate pair in the source text.
        assert_eq!(
            Json::parse(r#""😀""#).unwrap().as_str().unwrap(),
            "\u{1f600}"
        );
    }

    #[test]
    fn nested_structure_round_trips() {
        let doc = Json::obj([
            ("name", Json::str("fib")),
            ("workers", Json::UInt(32)),
            ("ratio", Json::Num(0.25)),
            (
                "phases",
                Json::Arr(vec![Json::str("lock"), Json::str("steal"), Json::Null]),
            ),
            ("meta", Json::obj([("ok", Json::Bool(true))])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(doc.field("workers").unwrap().as_u64().unwrap(), 32);
        assert!(doc.field("missing").is_err());
    }

    #[test]
    fn pretty_round_trips_and_is_line_oriented() {
        let doc = Json::obj([
            ("schema", Json::str("uat-bench/engine/v1")),
            (
                "entries",
                Json::Arr(vec![Json::obj([
                    ("label", Json::str("seed")),
                    ("events_per_sec", Json::Num(2.5e6)),
                    ("empty", Json::Arr(vec![])),
                ])]),
            ),
        ]);
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.ends_with('\n'));
        // One member per line: appending an entry touches few lines.
        assert!(text.lines().any(|l| l.trim() == "\"label\": \"seed\","));
        assert_eq!(text.lines().count(), 10, "{text}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" {\n \"a\" : [ 1 , 2 ] \t}\n").unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 2);
    }
}
