//! A small dependency-free JSON document model used by [`crate::report`].
//!
//! The build environment has no crates.io access, so `serde`/`serde_json`
//! cannot be pulled in; this module provides the subset the experiment
//! reports need: building documents, rendering them, and parsing them back.
//! Numbers keep their integer/float distinction so that `u64` fields (seeds,
//! cycle counters) round-trip exactly, and floats are rendered with Rust's
//! shortest-round-trip formatting so `f64` fields round-trip exactly too.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (no decimal point or exponent in the source).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`) so rendering is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Creates an empty object.
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts `value` under `key`; panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value);
            }
            _ => panic!("Json::set called on a non-object"),
        }
        self
    }

    /// Looks up `key`; returns `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|u| u32::try_from(u).ok())
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of array elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => {
                if n.is_finite() {
                    let s = format!("{n}");
                    out.push_str(&s);
                    // Keep floats recognisable as floats on re-parse.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
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

    /// Parses a JSON document.
    ///
    /// # Errors
    /// Returns a [`JsonError`] describing the first syntax error, or when
    /// arrays and objects nest more than 128 levels deep (the parser
    /// recurses per level, so hostile input must not exhaust the stack).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON syntax or schema error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the error was detected (0 for schema errors).
    pub offset: usize,
}

impl JsonError {
    /// Creates a schema-level error (no source position).
    pub fn schema(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. Real documents
/// (reports, caches, benchmark files) nest fewer than ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error("arrays and objects nest too deeply"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (the `\u` itself already
    /// consumed).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Decodes one `\u` escape, combining UTF-16 surrogate pairs
    /// (`😀` and friends) into their code point.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        let code = match code {
            0xD800..=0xDBFF => {
                if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                    return Err(self.error("unpaired high surrogate in \\u escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error("invalid low surrogate in \\u escape"));
                }
                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => {
                return Err(self.error("unpaired low surrogate in \\u escape"));
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u code point"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_scalars() {
        for (value, text) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::UInt(42), "42"),
            (Json::Int(-7), "-7"),
            (Json::Str("a\"b\n".to_string()), "\"a\\\"b\\n\""),
        ] {
            assert_eq!(value.render(), text);
            assert_eq!(Json::parse(text).unwrap(), value);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0 / 3.0, 123456.789, 1e-30, 2.5e20, f64::MIN_POSITIVE] {
            let rendered = Json::Num(f).render();
            match Json::parse(&rendered).unwrap() {
                Json::Num(back) => assert_eq!(back.to_bits(), f.to_bits(), "{rendered}"),
                other => panic!("{rendered} parsed as {other:?}"),
            }
        }
        // Whole-valued floats keep their float-ness through a round trip.
        assert_eq!(Json::Num(3.0).render(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
    }

    #[test]
    fn integers_round_trip_exactly() {
        let rendered = Json::UInt(u64::MAX).render();
        assert_eq!(Json::parse(&rendered).unwrap(), Json::UInt(u64::MAX));
    }

    #[test]
    fn objects_and_arrays_nest() {
        let mut obj = Json::object();
        obj.set("xs", Json::Arr(vec![Json::UInt(1), Json::Num(2.5)]));
        obj.set("name", Json::Str("grid".into()));
        let text = obj.render();
        assert_eq!(Json::parse(&text).unwrap(), obj);
    }

    #[test]
    fn parse_errors_carry_positions() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("42 trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        assert_eq!(
            Json::parse("\"\\u00e9\"").unwrap(),
            Json::Str("é".to_string())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(Json::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth - 1) + "{}" + &"}".repeat(depth - 1);
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        let err = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let doc = " { \"a\" : [ 1 , null , { } ] } ";
        assert!(Json::parse(doc).is_ok());
    }
}
