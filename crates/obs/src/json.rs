//! A hand-rolled JSON document model, writer, and strict parser.
//!
//! No serde: the workspace builds offline with zero external
//! dependencies. The writer is escaping-correct (quotes, backslashes,
//! all control characters via `\u00XX` or the short forms) and maps
//! non-finite floats to `null`, since JSON has no NaN/Infinity. Object
//! keys keep insertion order so reports are stable and diffable.

use std::fmt;

/// A JSON value. Integers are kept exact in a dedicated variant
/// instead of being forced through `f64` (counters can exceed 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer written without a decimal point.
    Int(i64),
    /// A finite float; non-finite values serialise as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be populated with [`Json::push`].
    #[must_use]
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn object_from<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Appends a `(key, value)` pair to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not `Json::Object`.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Object(pairs) => pairs.push((key.into(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// An array from values.
    pub fn array(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(values.into_iter().collect())
    }

    /// The value under `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Removes and returns the value under the first `key`, if this is an
    /// object containing it: the move-out counterpart of [`Json::get`],
    /// for callers that keep a decoded value instead of copying it.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Object(pairs) => {
                let index = pairs.iter().position(|(k, _)| k == key)?;
                Some(pairs.remove(index).1)
            }
            _ => None,
        }
    }

    /// The integer value, if this is `Json::Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is `Json::Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is `Json::Array`.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace).
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with 2-space indentation and a trailing newline,
    /// suitable for writing to a report file.
    #[must_use]
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, depth| {
                    items[i].write(out, indent, depth);
                });
            }
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, depth| {
                    write_escaped(&pairs[i].0, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, depth);
                });
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        // counters past i64::MAX lose exactness; JSON itself has no
        // integer width limit, but the model stores i64
        i64::try_from(n).map(Json::Int).unwrap_or(Json::Float(n as f64))
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(i64::from(n))
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(String::from(s))
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn write_f64(x: f64, out: &mut String) {
    use std::fmt::Write as _;
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            // keep a marker that this is a float, not an int
            let _ = write!(out, "{x:.1}");
        } else {
            let _ = write!(out, "{x}");
        }
    } else {
        // JSON has no NaN / Infinity
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    loop {
        // runs between specials are copied whole; a special is ASCII, so
        // both ends of every run are char boundaries
        let end = start + find_special(&bytes[start..]);
        out.push_str(&s[start..end]);
        let Some(&b) = bytes.get(end) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = end + 1;
    }
    out.push('"');
}

/// The offset of the first byte of `bytes` that a JSON string cannot
/// hold raw — `"`, `\` or a control character below 0x20 — or
/// `bytes.len()` when there is none. Scans a word of eight bytes per
/// step; the encoder and the decoder share it.
fn find_special(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // a byte's high bit is set in the result when the byte is zero; a
    // borrow can only flag bytes above a true zero, so the lowest flag
    // is exact
    let zero = |w: u64| w.wrapping_sub(ONES) & !w & HIGHS;
    let mut words = bytes.chunks_exact(8);
    let mut offset = 0;
    for chunk in &mut words {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let hits = zero(w ^ (ONES * u64::from(b'"')))
            | zero(w ^ (ONES * u64::from(b'\\')))
            | (w.wrapping_sub(ONES * 0x20) & !w & HIGHS);
        if hits != 0 {
            return offset + (hits.trailing_zeros() / 8) as usize;
        }
        offset += 8;
    }
    let tail = words.remainder();
    offset + tail.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20).unwrap_or(tail.len())
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * width {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
    out.push(close);
}

/// A parse failure with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// Strictness matches RFC 8259: no comments, no trailing commas, no
/// unquoted keys. `\uXXXX` escapes are decoded, including surrogate
/// pairs.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the run up to the next quote, backslash or control
            // byte whole: it is ASCII, so the run ends on a char boundary
            let end = self.pos + find_special(&self.bytes[self.pos..]);
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // high surrogate: require a following \uXXXX low half
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code =
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code)
                            .ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            other => return Err(self.err(format!("invalid escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // integer part: 0 | [1-9][0-9]*
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if is_float {
            text.parse().map(Json::Float).map_err(|e| self.err(e.to_string()))
        } else {
            // fall back to float on i64 overflow (JSON allows bignums)
            match text.parse::<i64>() {
                Ok(n) => Ok(Json::Int(n)),
                Err(_) => text.parse().map(Json::Float).map_err(|e| self.err(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_specials() {
        let j = Json::from("a\"b\\c\nd\te\r\u{08}\u{0C}\u{01}\u{1F}");
        assert_eq!(
            j.to_compact_string(),
            r#""a\"b\\c\nd\te\r\b\f\u0001\u001f""#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_compact_string(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).to_compact_string(), "null");
        assert_eq!(Json::Float(1.5).to_compact_string(), "1.5");
        assert_eq!(Json::Float(2.0).to_compact_string(), "2.0");
    }

    #[test]
    fn ints_stay_exact() {
        assert_eq!(Json::Int(i64::MAX).to_compact_string(), "9223372036854775807");
        assert_eq!(Json::Int(i64::MIN).to_compact_string(), "-9223372036854775808");
        assert_eq!(Json::from(42u64).to_compact_string(), "42");
    }

    #[test]
    fn object_order_is_preserved() {
        let j = Json::object_from([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(j.to_compact_string(), r#"{"z":1,"a":2}"#);
        assert_eq!(j.get("a"), Some(&Json::Int(2)));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let j = Json::object_from([
            ("list", Json::array([Json::Int(1), Json::Null])),
            ("empty", Json::Array(vec![])),
            ("nested", Json::object_from([("k", Json::Bool(true))])),
        ]);
        let pretty = j.to_pretty_string();
        assert!(pretty.contains("\n  \"list\": [\n    1,\n    null\n  ],"));
        assert!(pretty.contains("\"empty\": []"));
        assert_eq!(parse(&pretty).expect("reparse"), j);
    }

    #[test]
    fn parser_roundtrips_unicode_and_escapes() {
        let original = Json::from("päivä \u{1F600} \"q\" \\ \u{0}");
        let parsed = parse(&original.to_compact_string()).expect("parse");
        assert_eq!(parsed, original);
        // surrogate-pair escape decodes to the astral char
        assert_eq!(
            parse(r#""\ud83d\ude00""#).expect("parse"),
            Json::from("\u{1F600}")
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "{'a':1}", "[1 2]", "01", "1.", "1e",
            "\"\\x\"", "\"\\ud800\"", "tru", "nullx", "[1]]",
            "\"raw\u{01}control\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_accepts_numbers() {
        assert_eq!(parse("-0").expect("p"), Json::Int(0));
        assert_eq!(parse("123").expect("p"), Json::Int(123));
        assert_eq!(parse("-4.5e2").expect("p"), Json::Float(-450.0));
        assert_eq!(parse("1E+3").expect("p"), Json::Float(1000.0));
        // i64 overflow falls back to float
        assert_eq!(
            parse("99999999999999999999").expect("p"),
            Json::Float(1e20)
        );
    }
}
