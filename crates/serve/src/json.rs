//! A minimal hand-rolled JSON value type, parser, and renderer.
//!
//! The build environment vendors no serialization crates, and the audit
//! service's wire format needs exactly six shapes: null, booleans, numbers,
//! strings, arrays, objects. [`Json`] covers them with a recursive-descent
//! parser (depth-limited, offset-reporting errors) and a deterministic
//! renderer.
//!
//! **Numbers round-trip bit-for-bit.** Values render through Rust's shortest
//! round-trip `f64` formatting and parse back with `str::parse::<f64>`, so a
//! metric vector computed on the server and decoded by the client carries the
//! identical bits — the property the service's "bit-identical to the library
//! path" guarantee rests on. Non-finite values render as `null` (JSON has no
//! NaN/Inf).

use std::fmt;
use std::fmt::Write as _;

/// One JSON value. Objects preserve insertion order (rendering is
/// deterministic) and are looked up linearly — wire payloads here have a
/// handful of keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; exact for integers up to
    /// 2^53, which covers every count this service ships).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a short reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting ceiling for the parser — far above anything the wire format
/// produces, low enough that a hostile payload cannot overflow the stack.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    /// Returns a [`JsonError`] with the byte offset of the first violation.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after the document"));
        }
        Ok(value)
    }

    /// Render to a compact JSON string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_into(self, &mut out);
        out
    }

    /// Build an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value from anything convertible to `f64` losslessly enough
    /// for the wire (counts up to 2^53 are exact).
    #[must_use]
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// An array of numbers.
    #[must_use]
    pub fn num_arr(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// An array of strings.
    #[must_use]
    pub fn str_arr<S: AsRef<str>>(values: &[S]) -> Json {
        Json::Arr(
            values
                .iter()
                .map(|s| Json::Str(s.as_ref().to_string()))
                .collect(),
        )
    }

    /// A `u64` encoded losslessly: a JSON number when it fits the f64
    /// integer range (< 2^53), a decimal string otherwise — the convention
    /// seeds use on the wire ([`Json::as_u64`] reverses it).
    #[must_use]
    pub fn u64(v: u64) -> Json {
        if v < (1_u64 << 53) {
            Json::Num(v as f64)
        } else {
            Json::Str(v.to_string())
        }
    }

    /// The value as a `u64`: accepts non-negative integral numbers and
    /// decimal strings (the [`Json::u64`] encoding).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < 9_007_199_254_740_992.0 => {
                Some(*v as u64)
            }
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional numbers).
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9_007_199_254_740_992.0 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a vector of `f64` (every element must be a number).
    #[must_use]
    pub fn as_f64_vec(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Json::as_f64).collect()
    }

    /// The value as a vector of strings.
    #[must_use]
    pub fn as_str_vec(&self) -> Option<Vec<String>> {
        self.as_arr()?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect()
    }
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&other) => Err(err(*pos, format!("unexpected byte `{}`", other as char))),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{word}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "non-UTF8"))?;
    token
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("invalid number `{token}`")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let first = parse_hex4(bytes, pos)?;
                        let ch = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: require the paired `\uXXXX`.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(err(*pos, "unpaired surrogate"));
                            }
                            *pos += 2;
                            let second = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err(err(*pos, "invalid low surrogate"));
                            }
                            let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                            char::from_u32(code).ok_or_else(|| err(*pos, "invalid code point"))?
                        } else {
                            char::from_u32(first).ok_or_else(|| err(*pos, "invalid code point"))?
                        };
                        out.push(ch);
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(err(*pos, "raw control character in string")),
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid by construction).
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "non-UTF8"))?;
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Parse the `XXXX` of a `\uXXXX` escape; `pos` points at the `u` on entry
/// and at the final hex digit on exit (the caller's shared `+= 1` advances
/// past it).
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err(err(*pos, "truncated \\u escape"));
    }
    let hex = std::str::from_utf8(&bytes[start..end]).map_err(|_| err(start, "non-UTF8"))?;
    let v = u32::from_str_radix(hex, 16).map_err(|_| err(start, "invalid \\u escape"))?;
    *pos = end - 1;
    Ok(v)
}

fn render_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(v) => {
            if v.is_finite() {
                // Rust's shortest round-trip formatting, written in place:
                // parsing the token back recovers the identical bits.
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => render_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(k, out);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_shape() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"nested": true}, "c": null, "d": "x\ny"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_f64_vec().unwrap(),
            vec![1.0, -2.5, 1000.0]
        );
        assert_eq!(
            v.get("b").unwrap().get("nested").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_f64_bits_exactly() {
        let values = [
            0.1,
            -3.0303040493021432e-5,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -0.0,
            12345678901234.567,
        ];
        for &v in &values {
            let rendered = Json::Num(v).render();
            let parsed = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} via {rendered}");
        }
        let arr = Json::num_arr(&values);
        let back = Json::parse(&arr.render()).unwrap().as_f64_vec().unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn render_escapes_and_reparses() {
        let tricky = "quote\" slash\\ newline\n tab\t control\u{1} unicode\u{00e9}";
        let rendered = Json::Str(tricky.to_string()).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(tricky));
    }

    #[test]
    fn unicode_escapes_parse_including_surrogate_pairs() {
        assert_eq!(
            Json::parse(r#""é😀""#).unwrap().as_str(),
            Some("\u{e9}\u{1f600}")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\uZZZZ""#).is_err());
    }

    #[test]
    fn malformed_documents_report_offsets() {
        for doc in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] trailing",
            "{\"a\":}",
            "nul",
            "\u{1}",
        ] {
            let e = Json::parse(doc).unwrap_err();
            assert!(e.offset <= doc.len(), "{doc}: {e}");
            assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).unwrap_err().message.contains("deep"));
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_are_shape_strict() {
        let v = Json::parse(r#"{"n": 3, "frac": 3.5, "s": "x", "a": [1, "two"]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("frac").unwrap().as_usize(), None, "fractional");
        assert_eq!(Json::Num(-1.0).as_usize(), None, "negative");
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("a").unwrap().as_f64_vec(), None, "mixed array");
        assert_eq!(
            Json::str_arr(&["a", "b"]).as_str_vec(),
            Some(vec!["a".to_string(), "b".to_string()])
        );
    }

    #[test]
    fn object_rendering_preserves_insertion_order() {
        let v = Json::obj(vec![("z", Json::num(1.0)), ("a", Json::str("x"))]);
        assert_eq!(v.render(), r#"{"z":1,"a":"x"}"#);
    }

    #[test]
    fn u64_round_trips_through_the_wire_encoding() {
        for v in [0, 1, (1_u64 << 53) - 1, 1_u64 << 53, u64::MAX] {
            let encoded = Json::parse(&Json::u64(v).render()).unwrap();
            assert_eq!(encoded.as_u64(), Some(v), "{v}");
        }
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::str("banana").as_u64(), None);
    }
}
