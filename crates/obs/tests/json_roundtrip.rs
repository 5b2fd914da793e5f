//! Round-trip tests for the JSON writer against an *independent*
//! parser written in this file — so a bug in `obs::json::parse` cannot
//! mask a matching bug in the writer — plus property tests over
//! arbitrary strings.

use obs::Json;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// A tiny independent JSON parser. Deliberately shares no code with
// obs::json::parse: recursive descent over bytes, floats via
// str::parse, strings with short escapes and \uXXXX (incl. surrogate
// pairs).
// ---------------------------------------------------------------------

struct Mini<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Mini<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Mini { bytes: text.as_bytes(), pos: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at {}", p.pos));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(format!("expected {token:?} at {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => self.number(),
            None => Err("unexpected end".into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or("short \\u escape")?;
        self.pos = end;
        u16::from_str_radix(digits, 16).map_err(|e| format!("bad \\u{digits}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos).ok_or("dangling escape")?;
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
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                self.eat("\\u")?;
                                let lo = self.hex4()?;
                                let code = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(code).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(u32::from(hi)).ok_or("lone surrogate")?
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // raw UTF-8: take one full scalar value
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| format!("invalid UTF-8: {e}"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected , or ] at {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat("{")?;
        let mut pairs = Vec::new();
        self.ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(":")?;
            self.ws();
            pairs.push((key, self.value()?));
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected , or }} at {}", self.pos)),
            }
        }
    }
}

fn mini(text: &str) -> Json {
    Mini::parse(text).expect("independent parser accepts writer output")
}

// ---------------------------------------------------------------------
// References: the per-scalar string decoder and per-char escaper that
// the library's run-at-a-time versions replaced, kept verbatim. The
// decoder must give the same value, or fail at the same offset with the
// same message; the writer must give the same bytes.
// ---------------------------------------------------------------------

mod reference {
    use obs::json::{Json, ParseError};

    /// The quoted, escaped form of `s`, one char at a time.
    pub fn escaped(s: &str) -> String {
        let mut out = String::new();
        write_escaped(s, &mut out);
        out
    }

    fn write_escaped(s: &str, out: &mut String) {
        use std::fmt::Write as _;
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

    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    struct Parser<'a> {
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
                    Some(b) if b < 0x20 => {
                        return Err(self.err("raw control character in string"));
                    }
                    Some(_) => {
                        // consume one full UTF-8 scalar (input is &str, so
                        // boundaries are guaranteed valid)
                        let rest = &self.bytes[self.pos..];
                        let len = utf8_len(rest[0]);
                        let s = std::str::from_utf8(&rest[..len])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos += len;
                    }
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

    fn utf8_len(first_byte: u8) -> usize {
        match first_byte {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }
}

// ---------------------------------------------------------------------
// Generators for the differential tests
// ---------------------------------------------------------------------

/// A small deterministic generator for the text-level cases.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Characters that stress a run scan: plain ASCII, every kind of byte a
/// string must escape, DEL (which it must not), and 2-, 3- and 4-byte
/// characters.
const CHARS: &[char] = &[
    'a', 'Z', ' ', '0', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}',
    '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '€', '✓', '\u{fffd}', '😀', '\u{10ffff}',
];

/// A string of plain runs of varying length broken by `CHARS`, so
/// specials and multi-byte characters land at every offset of a word.
fn random_string(g: &mut Gen) -> String {
    let mut s = String::new();
    for _ in 0..g.below(6) {
        for _ in 0..g.below(12) {
            s.push('x');
        }
        for _ in 0..1 + g.below(3) {
            s.push(CHARS[g.below(CHARS.len())]);
        }
    }
    s
}

fn random_doc(g: &mut Gen, depth: usize) -> Json {
    match g.below(if depth > 2 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(g.below(2) == 0),
        2 => Json::Int(g.next() as i64 >> g.below(64)),
        3 => Json::Float((g.next() >> 11) as f64 / 1e3),
        4 => Json::Str(random_string(g)),
        5 => Json::Array((0..g.below(4)).map(|_| random_doc(g, depth + 1)).collect()),
        _ => Json::Object(
            (0..g.below(4)).map(|_| (random_string(g), random_doc(g, depth + 1))).collect(),
        ),
    }
}

/// Escapes and raw bytes that a decoder must reject or decode exactly:
/// bad and lone-surrogate `\u` escapes, truncated ones, a raw control
/// byte, and valid escapes beside multi-byte characters.
const EDITS: &[&str] = &[
    "\\x", "\\u12", "\\u12G4", "\\ud800", "\\udc00", "\\ud800\\u0041", "\\ud800x",
    "\\ud800\\", "\\ud83d\\ude00", "\\u00e9", "\\uD834\\uDD1E", "\\", "\u{1}", "\u{1f}",
    "\n", "\"", "é\\n", "\\té", "😀\\u0000😀", "€\\\"€",
];

/// A serialised random document with a few edits at char boundaries.
fn mutated_doc(g: &mut Gen) -> String {
    let mut text = random_doc(g, 0).to_compact_string();
    for _ in 0..1 + g.below(3) {
        let mut at = g.below(text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        if g.below(4) == 0 && at < text.len() {
            text.remove(at);
        } else {
            text.insert_str(at, EDITS[g.below(EDITS.len())]);
        }
    }
    text
}

fn assert_decoders_agree(text: &str) {
    assert_eq!(obs::json::parse(text), reference::parse(text), "input {text:?}");
}

// ---------------------------------------------------------------------
// Escaping
// ---------------------------------------------------------------------

#[test]
fn quotes_and_backslashes_escape() {
    let j = Json::from(r#"a "quoted" \path\"#);
    let text = j.to_compact_string();
    assert_eq!(text, r#""a \"quoted\" \\path\\""#);
    assert_eq!(mini(&text), j);
}

#[test]
fn control_characters_escape() {
    let j = Json::from("line1\nline2\ttab\r\u{0}\u{1f}\u{8}\u{c}");
    let text = j.to_compact_string();
    assert!(text.contains("\\n"), "{text}");
    assert!(text.contains("\\t"), "{text}");
    assert!(text.contains("\\u0000"), "{text}");
    assert!(text.contains("\\u001f"), "{text}");
    for b in text.bytes() {
        assert!(b >= 0x20, "raw control byte {b:#x} in output {text:?}");
    }
    assert_eq!(mini(&text), j);
}

#[test]
fn non_finite_floats_serialise_as_null() {
    assert_eq!(Json::Float(f64::NAN).to_compact_string(), "null");
    assert_eq!(Json::Float(f64::INFINITY).to_compact_string(), "null");
    assert_eq!(Json::Float(f64::NEG_INFINITY).to_compact_string(), "null");
    let arr = Json::array([Json::Float(f64::NAN), Json::Float(1.5)]);
    assert_eq!(mini(&arr.to_compact_string()), Json::array([Json::Null, Json::Float(1.5)]));
}

#[test]
fn unicode_passes_through_raw() {
    let j = Json::from("päivä ✓ 😀");
    let text = j.to_compact_string();
    assert!(text.contains("päivä ✓ 😀"), "{text}");
    assert_eq!(mini(&text), j);
}

// ---------------------------------------------------------------------
// Full-document round-trip
// ---------------------------------------------------------------------

/// A document shaped like a real `RunReport`.
fn report_like() -> Json {
    Json::object_from([
        ("schema_version", Json::Int(1)),
        ("tool", Json::from("satverify")),
        ("result", Json::from("UNSAT")),
        (
            "solver",
            Json::object_from([
                ("decisions", Json::Int(174)),
                ("conflicts", Json::Int(144)),
                ("proof_literals", Json::Int(1161)),
            ]),
        ),
        (
            "verification",
            Json::object_from([
                ("tested_fraction", Json::Float(0.9861111111111112)),
                ("core_fraction", Json::Float(1.0)),
                ("verify_time_s", Json::Float(0.002650012)),
            ]),
        ),
        (
            "spans",
            Json::array([Json::object_from([
                ("name", Json::from("cdcl.bcp")),
                ("count", Json::Int(319)),
                ("total_s", Json::Float(0.001352)),
            ])]),
        ),
        ("empty_list", Json::Array(vec![])),
        ("empty_obj", Json::Object(vec![])),
        ("nothing", Json::Null),
        ("flag", Json::Bool(true)),
    ])
}

#[test]
fn report_document_roundtrips_compact_and_pretty() {
    let doc = report_like();
    assert_eq!(mini(&doc.to_compact_string()), doc);
    assert_eq!(mini(&doc.to_pretty_string()), doc);
    // and through obs's own parser, for good measure
    assert_eq!(obs::json::parse(&doc.to_pretty_string()).expect("parse"), doc);
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings_roundtrip_through_both_parsers(
        chars in prop::collection::vec(any::<char>(), 0..48),
    ) {
        let s: String = chars.into_iter().collect();
        let j = Json::from(s);
        let text = j.to_compact_string();
        prop_assert_eq!(&mini(&text), &j);
        prop_assert_eq!(&obs::json::parse(&text).expect("own parser"), &j);
    }

    #[test]
    fn escaping_matches_the_reference_on_arbitrary_strings(
        chars in prop::collection::vec(any::<char>(), 0..48),
        seed in any::<u64>(),
    ) {
        for s in [chars.into_iter().collect::<String>(), random_string(&mut Gen(seed))] {
            prop_assert_eq!(Json::from(s.as_str()).to_compact_string(), reference::escaped(&s));
            let keyed = Json::object_from([(s.clone(), Json::Null)]).to_compact_string();
            prop_assert_eq!(keyed, format!("{{{}:null}}", reference::escaped(&s)));
        }
    }

    #[test]
    fn decoding_matches_the_reference_on_random_documents(seed in any::<u64>()) {
        let text = random_doc(&mut Gen(seed), 0).to_pretty_string();
        assert_decoders_agree(&text);
    }

    #[test]
    fn decoding_matches_the_reference_on_every_truncation(seed in any::<u64>()) {
        let text = random_doc(&mut Gen(seed), 1).to_compact_string();
        for end in (0..=text.len()).filter(|&end| text.is_char_boundary(end)) {
            assert_decoders_agree(&text[..end]);
        }
    }

    #[test]
    fn decoding_matches_the_reference_on_mutated_documents(seed in any::<u64>()) {
        assert_decoders_agree(&mutated_doc(&mut Gen(seed)));
    }

    #[test]
    fn arbitrary_ints_and_floats_roundtrip(n in any::<i64>(), x in any::<u64>()) {
        let int = Json::Int(n);
        prop_assert_eq!(&mini(&int.to_compact_string()), &int);
        // map the u64 onto a finite float via division
        let f = (x as f64) / 1e3;
        let float = Json::Float(f);
        match mini(&float.to_compact_string()) {
            Json::Float(back) => prop_assert_eq!(back, f),
            Json::Int(back) => prop_assert_eq!(back as f64, f),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn arbitrary_string_keys_roundtrip_in_objects(
        chars in prop::collection::vec(any::<char>(), 0..24),
        value in any::<i64>(),
    ) {
        let key: String = chars.into_iter().collect();
        let doc = Json::object_from([(key.clone(), Json::Int(value))]);
        let parsed = mini(&doc.to_pretty_string());
        prop_assert_eq!(parsed.get(&key), Some(&Json::Int(value)));
    }
}

#[test]
fn specials_at_every_offset_of_a_word_agree_with_the_references() {
    for &c in CHARS {
        for before in 0..17 {
            for after in [0, 1, 7, 8, 9] {
                let s = format!("{}{c}{}", "y".repeat(before), "z".repeat(after));
                let text = Json::from(s.as_str()).to_compact_string();
                assert_eq!(text, reference::escaped(&s), "{s:?}");
                assert_decoders_agree(&text);
                // the same character raw, where a special must be refused
                assert_decoders_agree(&format!("\"{s}\""));
            }
        }
    }
    for edit in EDITS {
        for before in 0..9 {
            assert_decoders_agree(&format!("[\"{}{edit}é\"]", "w".repeat(before)));
        }
    }
}
