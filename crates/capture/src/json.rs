//! A minimal JSON value model with an encoder and a recursive-descent
//! parser — just enough for the dataset file format, with no external
//! dependencies so the workspace builds offline.
//!
//! Numbers are integers only (`i128` covers the full `u64` and `i64`
//! ranges the dataset uses); floating-point literals are rejected,
//! which is fine because the format never emits them.

use std::fmt::Write as _;

/// Nesting depth cap for the parser (well above anything the dataset
/// format produces; prevents stack exhaustion on pathological input).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number.
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document; `None` on any syntax error or
    /// trailing garbage.
    pub fn parse(input: &str) -> Option<Json> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `i64`, if it is one and fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The number as `u64`, if it is one and fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The number as `u16`, if it is one and fits.
    pub fn as_u16(&self) -> Option<u16> {
        match self {
            Json::Num(n) => u16::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The number as `u8`, if it is one and fits.
    pub fn as_u8(&self) -> Option<u8> {
        match self {
            Json::Num(n) => u8::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes the value as compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as i128)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as i128)
    }
}

impl From<u16> for Json {
    fn from(n: u16) -> Json {
        Json::Num(n as i128)
    }
}

impl From<u8> for Json {
    fn from(n: u8) -> Json {
        Json::Num(n as i128)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(inner) => inner.into(),
            None => Json::Null,
        }
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, word: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        match self.peek()? {
            b'n' => self.literal("null").map(|_| Json::Null),
            b't' => self.literal("true").map(|_| Json::Bool(true)),
            b'f' => self.literal("false").map(|_| Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(depth),
            b'{' => self.object(depth),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn array(&mut self, depth: usize) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b']')?;
            return Some(Json::Arr(items));
        }
    }

    fn object(&mut self, depth: usize) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b'}')?;
            return Some(Json::Obj(fields));
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                b if b < 0x20 => return None,
                _ => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one step. Each of those is
                    // ASCII, so the run ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(std::str::from_utf8(&rest[..run]).ok()?);
                    self.pos += run;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (and a following surrogate
    /// pair when needed). Leaves `pos` after the escape.
    fn unicode_escape(&mut self) -> Option<char> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            self.literal("\\u")?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return None;
            }
            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(c)
        } else {
            char::from_u32(hi)
        }
    }

    /// Exactly four ASCII hex digits (no sign, unlike
    /// `u32::from_str_radix`).
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.bytes.get(self.pos..self.pos + 4)?;
        let mut v = 0;
        for &b in digits {
            v = v << 4 | char::from(b).to_digit(16)?;
        }
        self.pos += 4;
        Some(v)
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return None;
        }
        // Integer-only format: a fraction or exponent is malformed.
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        s.parse::<i128>().ok().map(Json::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0),
            Json::Num(-42),
            Json::Num(u64::MAX as i128),
            Json::Str("hi \"there\"\nline2\ttab\\slash".into()),
            Json::Str("unicode: ✓ 日本語".into()),
            Json::Str("ü\"é\\日\n語\u{1}✓".into()),
        ] {
            assert_eq!(Json::parse(&v.encode()), Some(v));
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v = Json::Obj(vec![
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            (
                "nested".into(),
                Json::Arr(vec![
                    Json::Num(1),
                    Json::Obj(vec![("k".into(), Json::Null)]),
                ]),
            ),
        ]);
        assert_eq!(Json::parse(&v.encode()), Some(v));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83d\ude00""#),
            Some(Json::Str("Aé😀".into()))
        );
    }

    #[test]
    fn malformed_rejected() {
        for bad in [
            "",
            "not json",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "1.5",
            "1e3",
            "tru",
            "[1] trailing",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "nullx",
            "--1",
        ] {
            assert!(Json::parse(bad).is_none(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_rejected_not_crashed() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_none());
    }
}
