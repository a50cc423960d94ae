//! A minimal JSON value, parser and writer for the line protocol.
//!
//! The workspace deliberately carries no serde (the build environment is
//! offline), so the NDJSON protocol hand-rolls its JSON. The subset
//! implemented is complete for the protocol's needs: objects, arrays,
//! strings with escapes, integers, floats, booleans and null.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value. Object keys are ordered (`BTreeMap`) so serialization is
/// deterministic — the serve smoke test diffs replies against a golden
/// file byte for byte.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (the protocol's counters and ids).
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value of an object key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }
}

/// Write `s` as a JSON string literal. Bytes that need no escape are
/// copied in runs; a UTF-8 continuation byte is never `"`, `\` or a
/// control byte, so non-ASCII text passes through verbatim.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => '"',
            b'\\' => '\\',
            b'\n' => 'n',
            b'\r' => 'r',
            b'\t' => 't',
            0..=0x1f => 'u',
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push('\\');
        out.push(escape);
        if escape == 'u' {
            let hex = |d: u8| char::from_digit(u32::from(d), 16).expect("a nibble");
            out.push_str("00");
            out.push(hex(b >> 4));
            out.push(hex(b & 0xf));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        self.write_into(&mut buf);
        f.write_str(&buf)
    }
}

impl Json {
    /// Append the serialized value to `out`.
    pub(crate) fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        chars: src.chars().collect(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing content at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(format!("expected `{c}` at offset {}", self.pos))
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for c in word.chars() {
            if self.bump() != Some(c) {
                return Err(format!("invalid literal at offset {}", self.pos));
            }
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.keyword("true", Json::Bool(true)),
            Some('f') => self.keyword("false", Json::Bool(false)),
            Some('n') => self.keyword("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{c}` at offset {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(map)),
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => out.push(self.unicode_escape()?),
                    other => return Err(format!("bad escape `{other:?}`")),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` was consumed. A
    /// character outside the Basic Multilingual Plane arrives as a high
    /// surrogate escape followed by a low one (RFC 8259 §7); a surrogate
    /// on its own encodes no character and is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let code = self.hex4()?;
        let code = match code {
            0xd800..=0xdbff => {
                if self.bump() != Some('\\') || self.bump() != Some('u') {
                    return Err(format!("unpaired high surrogate at offset {at}"));
                }
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(format!("unpaired high surrogate at offset {at}"));
                }
                0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(format!("unpaired low surrogate at offset {at}")),
            _ => code,
        };
        Ok(char::from_u32(code).expect("a non-surrogate code point below U+110000"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self.bump().ok_or("truncated \\u escape")?;
            code = code * 16
                + c.to_digit(16)
                    .ok_or_else(|| format!("bad hex digit `{c}`"))?;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some('.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some('+' | '-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for src in ["null", "true", "false", "0", "-42", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_string(), src, "{src}");
        }
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            parse(r#" {"op": "assert", "id": 3, "facts": ["e(1, 2)", true], "x": {}} "#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("assert"));
        assert_eq!(v.get("id").and_then(Json::as_int), Some(3));
        match v.get("facts") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0].as_str(), Some("e(1, 2)"));
                assert_eq!(items[1], Json::Bool(true));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(v.get("x"), Some(&Json::Obj(BTreeMap::new())));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}";
        let rendered = Json::str(original).to_string();
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(original));
        assert_eq!(parse(r#""A\/""#).unwrap().as_str(), Some("A/"));
    }

    #[test]
    fn rejects_malformed_input() {
        for src in ["{", "[1,", "\"x", "{\"a\"}", "tru", "1 2", "", "01a"] {
            assert!(parse(src).is_err(), "should reject {src:?}");
        }
    }

    #[test]
    fn escapes_every_control_byte_and_passes_non_ascii_through() {
        assert_eq!(
            Json::str("a\u{1}\u{8}\"\\\n\r\t\u{1f}é😀/").to_string(),
            r#""a\u0001\u0008\"\\\n\r\t\u001fé😀/""#
        );
        let original: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\é😀/".chars())
            .collect();
        let rendered = Json::str(original.clone()).to_string();
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(original.as_str()));
    }

    #[test]
    fn decodes_a_surrogate_pair_as_one_character() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let v = parse(r#""a\uD83D\uDE00b\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a😀bé"));
    }

    #[test]
    fn rejects_unpaired_surrogates() {
        for src in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\n""#,
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.contains("surrogate"), "{src}: {err}");
        }
    }

    #[test]
    fn object_keys_serialize_sorted() {
        let v = parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"a":2,"b":1}"#);
    }
}
