//! A minimal JSON value model, writer, and recursive-descent parser.
//!
//! Replaces `serde_json` for the workspace's needs: persisting experiment
//! results (`results_full.json`) and JSON-lines traces. Deliberately small:
//!
//! * Numbers are kept exact where it matters — integers without a decimal
//!   point parse into [`Json::UInt`]/[`Json::Int`] so `u64` counters
//!   (picosecond sums, pulse counts) round-trip bit-for-bit; anything with
//!   a `.` or exponent becomes [`Json::Num`] (an `f64`).
//! * Non-finite floats (`NaN`, `±inf`) have no JSON representation and are
//!   written as `null`, matching `serde_json`'s behaviour.
//! * Strings are escaped per RFC 8259 (`"` `\` control characters, with
//!   `\uXXXX` for the rest of C0), and the parser understands `\u` escapes
//!   including surrogate pairs.
//!
//! The parser rejects trailing garbage and guards recursion depth, so it
//! is safe to point at untrusted files.

use std::fmt::Write as _;

/// A parsed or to-be-written JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`, and the encoding of non-finite floats.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (fits `u64`).
    UInt(u64),
    /// A negative integer (fits `i64`).
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs (no deduplication).
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for std::io::Error {
    fn from(e: JsonError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Structured ⇄ [`Json`] conversion for every record the workspace persists
/// (experiment results, latency histograms, workload traces, telemetry
/// events).
///
/// One trait replaces the copy-pasted inherent `to_json`/`from_json` pairs
/// that used to live on each type. Implementations must round-trip:
/// `T::from_json(&t.to_json()) == Ok(t)` for every representable value —
/// the workspace's `propcheck!` suites assert this per type.
pub trait JsonCodec: Sized {
    /// Encode `self` as a JSON value.
    fn to_json(&self) -> Json;

    /// Decode from a JSON value produced by [`JsonCodec::to_json`].
    ///
    /// Unknown fields are ignored (forward compatibility); missing or
    /// ill-typed required fields yield a [`JsonError`] naming the field.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Encode straight to a compact one-line string (JSONL-friendly).
    fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parse a string and decode in one step.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(s)?)
    }
}

/// Build the [`JsonError`] used by [`JsonCodec`] decoders for a missing or
/// ill-typed field.
pub fn field_error(field: &str) -> JsonError {
    JsonError {
        offset: 0,
        msg: format!("missing or invalid field `{field}`"),
    }
}

impl Json {
    // ----- constructors ---------------------------------------------------

    /// An object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of `u64`s.
    pub fn u64_array(vals: &[u64]) -> Json {
        Json::Arr(vals.iter().map(|&v| Json::UInt(v)).collect())
    }

    // ----- accessors ------------------------------------------------------

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` (integers coerce; `Null` is NaN for round-trips).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            Json::Num(v) => Some(v),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as `u64` (only from non-negative integers).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    // ----- writing --------------------------------------------------------

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` prints the shortest string that round-trips.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    // ----- parsing --------------------------------------------------------

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { src: input, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parser recursion ceiling (arrays/objects nested deeper than this fail).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Unescaped bytes are copied a run at a time. A run ends only at
        // `"`, `\` or a control byte, all ASCII, so it ends on a char
        // boundary of the (valid UTF-8) input.
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("short \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // The scanned range is all ASCII (digits, sign, dot, exponent).
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text);
        }
    }

    #[test]
    fn u64_integers_are_exact() {
        let big = u64::MAX - 3;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v, Json::UInt(big));
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.to_string_compact(), big.to_string());
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(Json::parse("-12").unwrap(), Json::Int(-12));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Num(2500.0));
        assert_eq!(Json::parse("-0.125").unwrap(), Json::Num(-0.125));
    }

    #[test]
    fn nan_and_infinity_write_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string_compact(), "null");
        // And null reads back as NaN through the float accessor.
        assert!(Json::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t bell\u{07} unicode→é";
        let written = Json::Str(nasty.to_string()).to_string_compact();
        assert!(written.contains("\\\""));
        assert!(written.contains("\\\\"));
        assert!(written.contains("\\n"));
        assert!(written.contains("\\u0007"));
        let back = Json::parse(&written).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn long_mixed_string_round_trips() {
        // 256 KiB of 1- to 4-byte scalars with escapes between them.
        let unit = "ascii é € 𝄞 \"q\" back\\slash\n\t\u{01} ";
        let mut src = String::new();
        while src.len() < 256 * 1024 {
            src.push_str(unit);
        }
        let doc = Json::Str(src.clone()).to_string_compact();
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(src.as_str()));
        let open = &doc[..doc.len() - 1];
        assert_eq!(Json::parse(open).unwrap_err().msg, "unterminated string");
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""é""#).unwrap().as_str(), Some("é"));
        // 𝄞 U+1D11E as a surrogate pair.
        assert_eq!(Json::parse(r#""𝄞""#).unwrap().as_str(), Some("𝄞"));
        assert!(Json::parse(r#""\ud834""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"name":"vips","runs":[1,2,3],"ipc":0.75,"ok":true,"note":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("vips"));
        assert_eq!(v.get("runs").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.to_string_compact(), text);
        // Pretty output parses back to the same value.
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
            "[1]]",
            "nul",
            "+1",
            "01a",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_guarded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn f64_shortest_form_round_trips() {
        for x in [0.1, 1.0 / 3.0, 123456.789, 1e-9, 2.2250738585072014e-308] {
            let s = Json::Num(x).to_string_compact();
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{s}");
        }
    }
}
