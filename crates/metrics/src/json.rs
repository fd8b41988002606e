//! Minimal JSON layer: write-side rendering and read-side line framing.
//!
//! The workspace builds offline with zero external dependencies, so the
//! experiment and benchmark binaries emit machine-readable output through
//! this module instead of `serde`/`serde_json`. Since the event-sourced
//! market server journals its state transitions as one JSON line per event,
//! the module also carries the matching read side: [`JsonValue::parse`]
//! turns one line back into a tree, and the accessors
//! ([`JsonValue::get`], [`JsonValue::as_f64`], …) pick it apart.
//!
//! **Round-trip exactness.** A finite `f64` rendered by this module parses
//! back *bit-identically*: rendering uses Rust's shortest-roundtrip float
//! formatting (with integral values printed as integers, and `-0.0` kept
//! signed), and parsing uses Rust's correctly rounded `str::parse::<f64>`.
//! That guarantee is what lets the crash-recovery journal replay payments,
//! welfare, and queue backlogs without drifting by an ulp.
//!
//! # Example
//!
//! ```
//! use metrics::json::JsonValue;
//!
//! let line = JsonValue::object()
//!     .field("bench", "vcg_round/100")
//!     .field("median_ns", 1250.0)
//!     .field("ok", true)
//!     .to_string();
//! assert_eq!(line, r#"{"bench":"vcg_round/100","median_ns":1250,"ok":true}"#);
//! let back = JsonValue::parse(&line).unwrap();
//! assert_eq!(back.get("median_ns").and_then(|v| v.as_f64()), Some(1250.0));
//! ```

use std::fmt;

/// A JSON value tree. Construct with [`JsonValue::object`],
/// [`JsonValue::array`], or the `From` impls; render with `Display`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite or non-finite f64 (non-finite renders as `null`, like
    /// `serde_json`'s default behaviour).
    Number(f64),
    /// A string (escaped on render).
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Starts an empty object; chain [`field`](Self::field) to fill it.
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Starts an empty array; chain [`item`](Self::item) to fill it.
    pub fn array() -> JsonValue {
        JsonValue::Array(Vec::new())
    }

    /// Adds/overwrites a key on an object (panics on non-objects: that is a
    /// programming error, not a data error).
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        match &mut self {
            JsonValue::Object(fields) => {
                let value = value.into();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            _ => panic!("JsonValue::field on a non-object"),
        }
        self
    }

    /// Appends an element to an array (panics on non-arrays).
    pub fn item(mut self, value: impl Into<JsonValue>) -> JsonValue {
        match &mut self {
            JsonValue::Array(items) => items.push(value.into()),
            _ => panic!("JsonValue::item on a non-array"),
        }
        self
    }

    /// Parses one complete JSON value from `input` (surrounding whitespace
    /// allowed, nothing else). This is the read side of the journal's
    /// line framing: a torn or malformed line fails with the byte offset
    /// where parsing gave up, so the caller can truncate and move on.
    ///
    /// Arrays and objects may nest at most [`MAX_DEPTH`] deep. The parser
    /// recurses once per level, so without the cap a line of a few hundred
    /// thousand `[` would overflow the calling thread's stack; past it the
    /// parse fails with "nesting too deep" at the opening bracket.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing bytes after the JSON value"));
        }
        Ok(value)
    }

    /// Field lookup on an object (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is one and representable exactly
    /// (non-negative, integral, below 2⁵³ — the range where the `f64`
    /// carrier is lossless).
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        (v >= 0.0 && v == v.trunc() && v < 9.0e15).then_some(v as u64)
    }

    /// [`JsonValue::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs in insertion order, if this is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A parse failure: where in the input, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset at which the parser gave up.
    pub offset: usize,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// The deepest nesting of arrays and objects [`JsonValue::parse`]
/// accepts. Every document the workspace writes nests a handful of levels
/// deep; the cap bounds the parser's recursion on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent parser over the raw bytes (ASCII structure; string
/// contents are decoded as UTF-8 with JSON escapes).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to open a
    /// level past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonParseError>,
    ) -> Result<JsonValue, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
        let v: f64 = token
            .parse()
            .map_err(|_| self.err(&format!("malformed number `{token}`")))?;
        if !v.is_finite() {
            // The writer renders non-finite values as `null`, so a number
            // token overflowing f64 can only be garbage.
            return Err(self.err(&format!("number `{token}` overflows f64")));
        }
        Ok(JsonValue::Number(v))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
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
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Copy the whole run up to the next `"`, `\` or C0
                    // control in one step. All three stop bytes are ASCII,
                    // and in UTF-8 an ASCII byte is always a whole char
                    // (every byte of a multi-byte char is >= 0x80), so the
                    // run starts and ends on char boundaries and is valid
                    // UTF-8 on its own. Validating only the run keeps the
                    // parse linear in the input length.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let token = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(token, 16).map_err(|_| self.err("malformed \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let hi = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&hi) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&lo) {
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            Err(self.err("unpaired surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("bad \\u code point"))
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Types that can render themselves as a [`JsonValue`]. The in-repo
/// stand-in for `serde::Serialize`.
pub trait ToJson {
    /// Converts to a JSON tree.
    fn to_json(&self) -> JsonValue;
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

macro_rules! impl_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::Number(v as f64)
            }
        }
    )*};
}

impl_from_num!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<JsonValue> + Clone> From<&[T]> for JsonValue {
    fn from(v: &[T]) -> Self {
        JsonValue::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
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
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            // Remaining C0 controls (mandatory), DEL and the C1 block
            // (legal raw, but control characters have no business
            // unescaped in a log line), and the U+2028/U+2029 line
            // separators (valid JSON that breaks JavaScript consumers).
            c if (c as u32) < 0x20
                || (0x7f..=0x9f).contains(&(c as u32))
                || c == '\u{2028}'
                || c == '\u{2029}' =>
            {
                write!(f, "\\u{:04x}", c as u32)?
            }
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn write_number(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
    if !v.is_finite() {
        // JSON has no NaN/Inf; `serde_json` emits null here too.
        return f.write_str("null");
    }
    if v == v.trunc() && v.abs() < 9.0e15 && !(v == 0.0 && v.is_sign_negative()) {
        // Render integral values without a fraction part so ids and
        // counters round-trip as integers. `-0.0` is excluded: `0` would
        // parse back as `+0.0` and break the bitwise round-trip.
        write!(f, "{}", v as i64)
    } else {
        write!(f, "{v}")
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(v) => write_number(f, *v),
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
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

impl ToJson for crate::stats::Summary {
    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("n", self.n)
            .field("mean", self.mean)
            .field("std", self.std)
            .field("min", self.min)
            .field("max", self.max)
            .field("median", self.median)
    }
}

impl ToJson for crate::series::SeriesSet {
    fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        for name in self.names() {
            let series = self.get(name).unwrap_or(&[]);
            obj = obj.field(name, series.to_vec());
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use simrng::rngs::StdRng;
    use simrng::{RngExt, SeedableRng};

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::from(true).to_string(), "true");
        assert_eq!(JsonValue::from(3usize).to_string(), "3");
        assert_eq!(JsonValue::from(2.5).to_string(), "2.5");
        assert_eq!(JsonValue::from(-7i64).to_string(), "-7");
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn strings_escape() {
        let s = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn control_characters_all_escape() {
        // Backspace and form feed get their shorthands; every other C0
        // control, DEL, and the C1 block become \uXXXX — no raw control
        // byte can reach a log line.
        assert_eq!(
            JsonValue::from("a\u{8}b\u{c}c").to_string(),
            "\"a\\bb\\fc\""
        );
        for code in (0u32..0x20).chain(0x7f..=0x9f) {
            let c = char::from_u32(code).unwrap();
            let rendered = JsonValue::from(c.to_string()).to_string();
            assert!(
                rendered.chars().all(|ch| ch as u32 >= 0x20),
                "control {code:#x} leaked into {rendered:?}"
            );
        }
        // A round-trippable spot check for a C1 control and DEL.
        assert_eq!(JsonValue::from("\u{7f}").to_string(), "\"\\u007f\"");
        assert_eq!(JsonValue::from("\u{85}").to_string(), "\"\\u0085\"");
    }

    #[test]
    fn js_line_separators_escape() {
        assert_eq!(
            JsonValue::from("a\u{2028}b\u{2029}c").to_string(),
            "\"a\\u2028b\\u2029c\""
        );
        // Ordinary non-ASCII text passes through untouched.
        assert_eq!(JsonValue::from("µs — ok").to_string(), "\"µs — ok\"");
    }

    #[test]
    fn non_finite_floats_render_null_everywhere() {
        assert_eq!(JsonValue::from(f64::INFINITY).to_string(), "null");
        assert_eq!(JsonValue::from(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(JsonValue::from(f32::NAN).to_string(), "null");
        // Inside containers too — the guard lives at render time, so no
        // construction path can smuggle an `inf` token into the output.
        let o = JsonValue::object()
            .field("bad", f64::NAN)
            .field("v", vec![1.0, f64::INFINITY]);
        assert_eq!(o.to_string(), r#"{"bad":null,"v":[1,null]}"#);
        // Values near the integer-rendering cutoff stay finite and exact.
        assert_eq!(JsonValue::from(9.0e15).to_string(), "9000000000000000");
        assert_eq!(JsonValue::from(9.1e15).to_string(), "9100000000000000");
    }

    #[test]
    fn objects_keep_order_and_overwrite() {
        let o = JsonValue::object()
            .field("b", 1)
            .field("a", 2)
            .field("b", 3);
        assert_eq!(o.to_string(), r#"{"b":3,"a":2}"#);
    }

    #[test]
    fn arrays_nest() {
        let a = JsonValue::array()
            .item(1)
            .item(JsonValue::object().field("k", "v"))
            .item(vec![1.0, 2.0]);
        assert_eq!(a.to_string(), r#"[1,{"k":"v"},[1,2]]"#);
    }

    #[test]
    fn summary_to_json_line() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).to_json().to_string();
        assert!(s.starts_with(r#"{"n":3,"mean":2,"#), "{s}");
        assert!(s.contains(r#""median":2"#));
    }

    #[test]
    fn seriesset_to_json() {
        let mut s = crate::series::SeriesSet::new();
        s.push("welfare", 1.0);
        s.push("welfare", 2.5);
        assert_eq!(s.to_json().to_string(), r#"{"welfare":[1,2.5]}"#);
    }

    // ---- read side ------------------------------------------------------

    #[test]
    fn parse_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Number(-7.0));
        assert_eq!(
            JsonValue::parse("2.5e3").unwrap(),
            JsonValue::Number(2500.0)
        );
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::String("hi".into())
        );
    }

    #[test]
    fn parse_containers_and_accessors() {
        let v = JsonValue::parse(r#"{"a":[1,{"b":null}],"c":"x","d":true}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(JsonValue::as_bool), Some(true));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b"), Some(&JsonValue::Null));
        // Misses return None rather than panicking.
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("c").and_then(JsonValue::as_f64), None);
        assert_eq!(JsonValue::Null.get("a"), None);
    }

    #[test]
    fn parse_string_escapes() {
        let v = JsonValue::parse(r#""a\"b\\c\nd\te\u0001f\u00b5\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}fµ😀"));
    }

    #[test]
    fn as_u64_bounds() {
        assert_eq!(JsonValue::Number(0.0).as_u64(), Some(0));
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Number(4.0).as_usize(), Some(4));
        // Just under the lossless cutoff round-trips; at/above is refused.
        assert_eq!(
            JsonValue::Number(8.999999999999998e15).as_u64(),
            Some(8999999999999998)
        );
        assert_eq!(JsonValue::Number(9.0e15).as_u64(), None);
    }

    #[test]
    fn parse_rejects_garbage_and_torn_lines() {
        for bad in [
            "",
            "   ",
            "nul",
            "tru",
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "1 2",
            "{}x",
            "+5",
            "1e400",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"a\u{1}b\"",
            "[1,]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Every proper prefix of a realistic journal line must be rejected —
        // this is what lets recovery detect a torn trailing write.
        let line = r#"{"event":"seal","round":3,"sealed":[{"bidder":0,"cost":1.25}]}"#;
        for cut in 1..line.len() {
            assert!(
                JsonValue::parse(&line[..cut]).is_err(),
                "accepted torn prefix {:?}",
                &line[..cut]
            );
        }
        assert!(JsonValue::parse(line).is_ok());
        let err = JsonValue::parse("{\"a\":nope}").unwrap_err();
        assert_eq!(err.offset, 5);
        assert!(err.to_string().contains("byte 5"), "{err}");
    }

    #[test]
    fn floats_round_trip_bitwise() {
        // The journal's replay-equality contract rests on this: any finite
        // f64 the writer renders must parse back to the same bits.
        let mut samples = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            2.0 / 3.0,
            1e-300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            9.007199254740991e15, // 2^53 - 1
            9.0e15,
            -8.999999999999998e15,
            std::f64::consts::PI,
        ];
        // A deterministic spread of awkward mantissas (xorshift — no
        // external RNG in this workspace).
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = f64::from_bits(x);
            if v.is_finite() {
                samples.push(v);
            }
        }
        for v in samples {
            let line = JsonValue::from(v).to_string();
            let back = JsonValue::parse(&line)
                .unwrap_or_else(|e| panic!("{v:?} rendered {line:?}: {e}"))
                .as_f64()
                .unwrap();
            assert_eq!(
                back.to_bits(),
                v.to_bits(),
                "{v:?} rendered {line:?} parsed back as {back:?}"
            );
        }
    }

    #[test]
    fn negative_zero_stays_signed() {
        assert_eq!(JsonValue::from(-0.0f64).to_string(), "-0");
        let back = JsonValue::parse("-0").unwrap().as_f64().unwrap();
        assert!(back == 0.0 && back.is_sign_negative());
        // Positive zero still renders as the plain integer.
        assert_eq!(JsonValue::from(0.0f64).to_string(), "0");
    }

    /// One random char from a class mix that covers every escape the
    /// writer emits, raw ASCII, 2-, 3- and 4-byte UTF-8, C1 controls, DEL
    /// and the JavaScript line separators.
    fn random_char(rng: &mut StdRng) -> char {
        let code = match rng.random_range(0..8u32) {
            0 | 1 => rng.random_range(0x20..0x7fu32),
            2 => [0x22, 0x5c, 0x2f, 0x0a, 0x0d, 0x09, 0x08, 0x0c][rng.random_range(0..8usize)],
            3 => rng.random_range(0..0x20u32),
            4 => rng.random_range(0x7f..0x800u32),
            5 => [0x2028, 0x2029, 0x85, 0x9f][rng.random_range(0..4usize)],
            6 if rng.random_bool(0.5) => rng.random_range(0x800..0xd800u32),
            6 => rng.random_range(0xe000..0x10000u32),
            _ => rng.random_range(0x10000..0x110000u32),
        };
        char::from_u32(code).unwrap()
    }

    fn random_string(rng: &mut StdRng) -> String {
        let len = rng.random_range(0..24usize);
        (0..len).map(|_| random_char(rng)).collect()
    }

    /// A JSON string literal for `s` that the writer would never produce:
    /// each char is written raw where JSON allows it, as `\/` for `/`, or
    /// as a `\uXXXX` escape (a surrogate pair above the BMP), at random.
    fn alternate_literal(s: &str, rng: &mut StdRng) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            let raw_ok = c as u32 >= 0x20 && c != '"' && c != '\\';
            if raw_ok && rng.random_bool(0.5) {
                out.push(c);
            } else if c == '/' && rng.random_bool(0.5) {
                out.push_str("\\/");
            } else {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
        out.push('"');
        out
    }

    /// The escaped body of `s` as the writer renders it (no quotes).
    fn rendered_body(s: &str) -> String {
        let lit = JsonValue::from(s).to_string();
        lit[1..lit.len() - 1].to_string()
    }

    #[test]
    fn strings_round_trip_as_keys_values_and_items() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0013);
        for _ in 0..400 {
            let key = random_string(&mut rng);
            let value = random_string(&mut rng);
            let items: Vec<JsonValue> = (0..rng.random_range(0..4usize))
                .map(|_| JsonValue::String(random_string(&mut rng)))
                .collect();
            let doc = JsonValue::Object(vec![
                (key.clone(), JsonValue::String(value.clone())),
                ("items".into(), JsonValue::Array(items.clone())),
            ]);
            let line = doc.to_string();
            assert_eq!(JsonValue::parse(&line).as_ref(), Ok(&doc), "line {line:?}");

            // The parser also accepts every other spelling of the same
            // strings: `\/`, `\uXXXX` for any char, and surrogate pairs.
            let mut alt = format!(
                "{{{}:{},\"items\":[",
                alternate_literal(&key, &mut rng),
                alternate_literal(&value, &mut rng)
            );
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    alt.push(',');
                }
                alt.push_str(&alternate_literal(item.as_str().unwrap(), &mut rng));
            }
            alt.push_str("]}");
            assert_eq!(JsonValue::parse(&alt).as_ref(), Ok(&doc), "line {alt:?}");
        }
    }

    #[test]
    fn raw_control_byte_is_rejected_at_its_offset() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0014);
        for _ in 0..400 {
            let s = random_string(&mut rng);
            let cut = s
                .char_indices()
                .map(|(i, _)| i)
                .nth(rng.random_range(0..=s.chars().count()))
                .unwrap_or(s.len());
            let raw = rng.random_range(0..0x20u8) as char;
            let head = rendered_body(&s[..cut]);
            let torn = format!("\"{head}{raw}{}\"", rendered_body(&s[cut..]));
            // Put the damaged literal in a key, a value or an array item.
            let (prefix, suffix) = match rng.random_range(0..3u32) {
                0 => ("{", ":1}"),
                1 => ("{\"k\":", "}"),
                _ => ("[\"a\",", ",2]"),
            };
            let line = format!("{prefix}{torn}{suffix}");
            let err = JsonValue::parse(&line).unwrap_err();
            assert_eq!(err.message, "raw control character in string", "{line:?}");
            assert_eq!(err.offset, prefix.len() + 1 + head.len(), "{line:?}");
        }
    }

    fn nested_arrays(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        // Arrays and objects count alike, and the cap itself is accepted.
        let mut mixed = String::new();
        for level in 0..MAX_DEPTH {
            mixed.push_str(if level % 2 == 0 { "[" } else { "{\"k\":" });
        }
        mixed.push('0');
        for level in (0..MAX_DEPTH).rev() {
            mixed.push(if level % 2 == 0 { ']' } else { '}' });
        }
        assert!(JsonValue::parse(&mixed).is_ok());
        assert!(JsonValue::parse(&nested_arrays(MAX_DEPTH)).is_ok());

        // One level more fails at the bracket that would open it.
        let err = JsonValue::parse(&nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        // Inside an object, the object is level 1, so its value's
        // MAX_DEPTH-th `[` is the one refused.
        let err = JsonValue::parse(&format!("{{\"a\":{}}}", nested_arrays(MAX_DEPTH))).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (5 + MAX_DEPTH - 1, "nesting too deep")
        );

        // A hostile line far past the cap fails at the same byte on a
        // thread whose stack could not hold its full recursion: the
        // parser never descends below the cap.
        let hostile = "[".repeat(300_000);
        let err = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || JsonValue::parse(&hostile).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (MAX_DEPTH, "nesting too deep")
        );
    }

    #[test]
    fn structured_round_trip() {
        let original = JsonValue::object()
            .field("run", "exp_e9")
            .field("n", 3usize)
            .field("ratio", 0.8317281)
            .field("tags", JsonValue::array().item("a\nb").item(false))
            .field("nested", JsonValue::object().field("k", JsonValue::Null));
        let line = original.to_string();
        assert_eq!(JsonValue::parse(&line).unwrap(), original);
    }
}
