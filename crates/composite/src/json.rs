//! A minimal JSON emitter and parser for harness output.
//!
//! The harness binaries dump tables and metric snapshots as JSON (and
//! JSON-lines), and the `sgtrace` analyzer reads flight-recorder dumps
//! back in. The repo builds in sealed environments with no registry
//! access, so rather than depending on an external serializer this module
//! provides what the harnesses need: a streaming `JsonWriter` that owns
//! the compact and 2-space-pretty layouts, and a small [`Json`] value tree
//! for short documents and for parsing. Emission is deterministic: object
//! keys keep insertion order, floats are written with `{:?}` (shortest
//! round-trip representation), and strings are escaped per RFC 8259.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    /// Insertion-ordered object; the writer emits keys in push order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Start an empty object.
    #[must_use]
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Push a field onto an object; panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Object(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Parse one JSON document (used by `sgtrace` to read trace dumps
    /// back in; accepts exactly what the writer side emits, i.e. RFC
    /// 8259 minus exotic escapes the writer never produces).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Unsigned integer view (covers `Int`/`UInt` holding `>= 0`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Signed integer view.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// String view.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering (JSON-lines friendly).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut JsonWriter::compact(&mut out));
        out
    }

    /// Pretty rendering with 2-space indentation.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut JsonWriter::pretty(&mut out));
        out
    }

    /// Stream this tree through `w`.
    pub(crate) fn write(&self, w: &mut JsonWriter<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Int(v) => w.i64(*v),
            Json::UInt(v) => w.u64(*v),
            Json::Float(v) => w.f64(*v),
            Json::Str(s) => w.str(s),
            Json::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end_array()
            }
            Json::Object(fields) => {
                w.begin_object();
                for (k, v) in fields {
                    w.key(k);
                    v.write(w);
                }
                w.end_object()
            }
        };
    }
}

/// Spaces sliced for pretty-layout indentation.
const SPACES: &str = "                                                                ";

/// A streaming JSON writer appending to a `String`: the one owner of the
/// output layout. Compact puts a document on one line; pretty puts every
/// array item and object field on its own line, indented two spaces per
/// level, writes `": "` after keys, and keeps empty containers as `[]`
/// and `{}`.
///
/// Callers pair every `begin_*` with its `end_*` and precede every value
/// inside an object with [`key`](Self::key). Top-level values are written
/// without separators, so JSON-lines emitters push their own `'\n'`.
#[derive(Debug)]
pub(crate) struct JsonWriter<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// Nothing has been written yet into the innermost open container.
    first: bool,
    /// A key was just written: the next value follows it directly.
    after_key: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer for the compact single-line layout.
    pub(crate) fn compact(out: &'a mut String) -> Self {
        Self::new(out, false)
    }

    /// A writer for the 2-space pretty layout.
    pub(crate) fn pretty(out: &'a mut String) -> Self {
        Self::new(out, true)
    }

    fn new(out: &'a mut String, pretty: bool) -> Self {
        Self {
            out,
            pretty,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// The separator and line break that precede a key or a value.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            if self.pretty {
                self.newline();
            }
        }
        self.first = false;
    }

    fn newline(&mut self) {
        self.out.push('\n');
        let mut n = 2 * self.depth;
        while n > 0 {
            let k = n.min(SPACES.len());
            self.out.push_str(&SPACES[..k]);
            n -= k;
        }
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.depth = self
            .depth
            .checked_sub(1)
            .expect("JsonWriter: end_* without a matching begin_*");
        if self.pretty && !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
        self
    }

    pub(crate) fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    pub(crate) fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    pub(crate) fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    pub(crate) fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// An object key; the next call writes its value.
    pub(crate) fn key(&mut self, k: &str) -> &mut Self {
        self.separate();
        write_escaped(self.out, k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.separate();
        push_u64(self.out, v);
        self
    }

    pub(crate) fn i64(&mut self, v: i64) -> &mut Self {
        self.separate();
        if v < 0 {
            self.out.push('-');
        }
        push_u64(self.out, v.unsigned_abs());
        self
    }

    /// A float in its shortest round-trip form (`{:?}`); non-finite
    /// values have no JSON spelling and become `null`.
    pub(crate) fn f64(&mut self, v: f64) -> &mut Self {
        self.separate();
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    pub(crate) fn str(&mut self, s: &str) -> &mut Self {
        self.separate();
        write_escaped(self.out, s);
        self
    }

    pub(crate) fn bool(&mut self, b: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    pub(crate) fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self
    }
}

/// Decimal digits of `v`, without going through `fmt`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
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
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let v = self.value()?;
                    fields.push((k, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are sound).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number at byte {start}"))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Json::Int(v))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

/// Append `s` as a quoted JSON string. Every byte that needs escaping is
/// ASCII, so runs between them are copied as whole (UTF-8-boundary) slices,
/// and a string with nothing to escape is one copy.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Array(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn compact_object_round_trips_structure() {
        let mut j = Json::object();
        j.push("name", "fs\"x")
            .push("count", 3u64)
            .push("ratio", 0.25);
        assert_eq!(j.to_line(), r#"{"name":"fs\"x","count":3,"ratio":0.25}"#);
    }

    #[test]
    fn pretty_indents_nested() {
        let mut inner = Json::object();
        inner.push("a", 1u64);
        let j = Json::Array(vec![inner, Json::Null]);
        assert_eq!(j.to_pretty(), "[\n  {\n    \"a\": 1\n  },\n  null\n]");
        let mut escaped_key = Json::object();
        escaped_key.push("a\"b", 1u64);
        assert_eq!(escaped_key.to_pretty(), "{\n  \"a\\\"b\": 1\n}");
    }

    #[test]
    fn control_chars_escaped() {
        let j = Json::Str("a\nb\u{1}".into());
        assert_eq!(j.to_line(), "\"a\\nb\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_line(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_line(), "null");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut j = Json::object();
        j.push("name", "fs\"x\n")
            .push("count", 3u64)
            .push("neg", -7i64)
            .push("ratio", 0.25)
            .push("none", Json::Null)
            .push("flag", true)
            .push(
                "arr",
                Json::Array(vec![Json::Int(1), Json::Str("a".into())]),
            );
        let parsed = Json::parse(&j.to_line()).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("fs\"x\n"));
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("neg").and_then(Json::as_i64), Some(-7));
        assert_eq!(parsed.get("ratio"), Some(&Json::Float(0.25)));
        assert_eq!(parsed.get("none"), Some(&Json::Null));
        assert_eq!(parsed.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed
                .get("arr")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        // Pretty output parses too.
        assert_eq!(Json::parse(&j.to_pretty()).unwrap(), parsed);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    /// Characters a generated string draws from: every escape the writer
    /// knows, other control bytes, and multi-byte UTF-8.
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
        'é', '→', '😀',
    ];

    fn random_str(rng: &mut SplitMix64) -> String {
        (0..rng.gen_index(6))
            .map(|_| CHARS[rng.gen_index(CHARS.len())])
            .collect()
    }

    /// A random tree: at depth, arrays and objects (empty ones included)
    /// nest; leaves cover integer extremes and non-finite floats.
    fn random_json(rng: &mut SplitMix64, depth: u32) -> Json {
        let kinds = if depth < 4 { 9 } else { 7 };
        match rng.gen_index(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::Int(
                *pick(rng, &[i64::MIN, i64::MAX, -1, 0]).unwrap_or(&(rng.next_u64() as i64)),
            ),
            3 => Json::UInt(*pick(rng, &[u64::MAX, 0]).unwrap_or(&rng.next_u64())),
            4 => Json::Float(
                *pick(
                    rng,
                    &[
                        f64::NAN,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        -0.0,
                        1e16,
                        1e-7,
                        f64::MAX,
                        5e-324,
                    ],
                )
                .unwrap_or(&if rng.next_u64() & 1 == 0 {
                    f64::from_bits(rng.next_u64())
                } else {
                    rng.gen_range(1 << 53) as f64 / 1000.0
                }),
            ),
            5 | 6 => Json::Str(random_str(rng)),
            7 => Json::Array(
                (0..rng.gen_index(4))
                    .map(|_| random_json(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Object(
                (0..rng.gen_index(4))
                    .map(|_| (random_str(rng), random_json(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// One of `special` half the time, else `None` (draw a random value).
    fn pick<'s, T>(rng: &mut SplitMix64, special: &'s [T]) -> Option<&'s T> {
        let i = rng.gen_index(2 * special.len());
        special.get(i)
    }

    #[test]
    fn writer_layouts_parse_back_equal_and_rerender_identically() {
        let mut rng = SplitMix64::new(0x0D15_EA5E);
        for case in 0..2_000 {
            let tree = random_json(&mut rng, 0);
            let line = tree.to_line();
            let pretty = tree.to_pretty();
            // RFC 8259 allows no raw control byte inside a string, and the
            // only one either layout writes between tokens is pretty's
            // line break.
            assert!(line.bytes().all(|b| b >= 0x20), "case {case}: {line}");
            assert!(
                pretty.bytes().all(|b| b >= 0x20 || b == b'\n'),
                "case {case}: {pretty}"
            );
            let from_line =
                Json::parse(&line).unwrap_or_else(|e| panic!("case {case}: {e}: {line}"));
            let from_pretty =
                Json::parse(&pretty).unwrap_or_else(|e| panic!("case {case}: {e}: {pretty}"));
            assert_eq!(from_line, from_pretty, "case {case}");
            assert_eq!(from_line.to_line(), line, "case {case}");
            assert_eq!(from_pretty.to_pretty(), pretty, "case {case}");
        }
    }

    #[test]
    fn empty_containers_at_depth() {
        let mut j = Json::object();
        j.push("a", Json::Array(Vec::new()))
            .push("b", Json::object());
        assert_eq!(j.to_line(), r#"{"a":[],"b":{}}"#);
        assert_eq!(j.to_pretty(), "{\n  \"a\": [],\n  \"b\": {}\n}");
        let nested = Json::Array(vec![
            Json::Array(vec![Json::object()]),
            Json::Array(Vec::new()),
        ]);
        assert_eq!(nested.to_line(), "[[{}],[]]");
        assert_eq!(nested.to_pretty(), "[\n  [\n    {}\n  ],\n  []\n]");
        assert_eq!(Json::Array(Vec::new()).to_pretty(), "[]");
        assert_eq!(Json::object().to_pretty(), "{}");
    }

    #[test]
    fn pretty_indentation_deeper_than_the_space_slice() {
        let depth = SPACES.len();
        let mut j = Json::Null;
        for _ in 0..depth {
            j = Json::Array(vec![j]);
        }
        let mut expected = String::new();
        for d in 0..depth {
            expected.push('[');
            expected.push('\n');
            expected.push_str(&" ".repeat(2 * (d + 1)));
        }
        expected.push_str("null");
        for d in (0..depth).rev() {
            expected.push('\n');
            expected.push_str(&" ".repeat(2 * d));
            expected.push(']');
        }
        assert_eq!(j.to_pretty(), expected);
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            Json::parse("\"a\\u0041\\u00e9\"").unwrap(),
            Json::Str("aAé".into())
        );
    }
}
