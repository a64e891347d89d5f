//! A minimal, dependency-free JSON value: deterministic compact encoding
//! (keys in insertion order, shortest-roundtrip numbers) plus a strict
//! parser for validating emitted streams. The build environment has no
//! crates.io access, so this stands in for serde_json; the surface is
//! deliberately only what the observability layer needs.

use std::fmt;

/// A JSON value. Object keys keep insertion order, so encoding is
/// byte-deterministic for a fixed construction order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer wider than `i64` allows.
    UInt(u64),
    /// A finite float. Non-finite values serialize as `null` (JSON has no
    /// encoding for them).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a key in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// Whether this value is any JSON number.
    pub fn is_number(&self) -> bool {
        matches!(self, Json::Int(_) | Json::UInt(_) | Json::Num(_))
    }

    /// The numeric payload as `f64`, if this is any JSON number. Integral
    /// floats serialize without a decimal point and parse back as
    /// integers, so all three number variants convert.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::UInt(n) => Some(n as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            Json::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::UInt(n)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Int(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::UInt(n as u64)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Num(x) => {
                if x.is_finite() {
                    // Rust's shortest-roundtrip formatting is deterministic;
                    // integral floats print without an exponent or dot,
                    // which JSON accepts as a number either way.
                    write!(f, "{x}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(s, &mut buf);
                f.write_str(&buf)
            }
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
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    escape_into(k, &mut key);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure: the byte offset and a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so the bound is what keeps a hostile line from overflowing the
/// stack. The deepest document the repo writes or reads nests 10 levels
/// (the JSONL schema); records nest at most 5.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte, or the
/// bracket that opens a level deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(at: usize, message: &str) -> JsonError {
    JsonError {
        at,
        message: message.to_owned(),
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
        Err(err(*pos, &format!("expected `{}`", b as char)))
    }
}

/// Parses the value at `pos`, nested inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(err(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
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
                    _ => return Err(err(*pos, "expected `,` or `]`")),
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
                    _ => return Err(err(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{lit}`")))
    }
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogates are not produced by our encoder; map
                        // them to the replacement character on input.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 scalar at a time.
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest).map_err(|_| err(*pos, "invalid UTF-8"))?;
                let c = s.chars().next().expect("non-empty remainder");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number slice");
    if float {
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| err(start, "invalid number"))
    } else if text.starts_with('-') {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| err(start, "invalid integer"))
    } else {
        text.parse::<u64>()
            .map(Json::UInt)
            .map_err(|_| err(start, "invalid integer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_compact_and_ordered() {
        let v = Json::obj([
            ("type", "cell".into()),
            ("n", Json::UInt(7)),
            ("x", Json::Num(1.5)),
            ("ok", Json::Bool(true)),
            ("items", Json::Arr(vec![Json::Int(-1), Json::Null])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"type":"cell","n":7,"x":1.5,"ok":true,"items":[-1,null]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let v = Json::Str("a\"b\\c\nd\u{1}".to_owned());
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn roundtrip() {
        let v = Json::obj([
            ("s", "hé\tllo".into()),
            ("i", Json::Int(-42)),
            ("u", Json::UInt(u64::MAX)),
            ("f", Json::Num(0.25)),
            ("a", Json::Arr(vec![Json::Bool(false), Json::Null])),
            ("o", Json::obj([("k", Json::UInt(1))])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            parse(&over),
            Err(err(MAX_DEPTH, "nesting deeper than 128 levels"))
        );
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&objects).unwrap_err().at, 5 * MAX_DEPTH);
    }

    #[test]
    fn parser_accepts_whitespace_and_floats() {
        let v = parse(" { \"a\" : [ 1 , 2.5e1 , -3 ] } ").unwrap();
        assert_eq!(
            v,
            Json::obj([(
                "a",
                Json::Arr(vec![Json::UInt(1), Json::Num(25.0), Json::Int(-3)])
            )])
        );
        assert!(v.get("a").is_some());
        assert!(v.get("b").is_none());
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("s", "x".into()), ("n", Json::UInt(1))]);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert!(v.get("n").unwrap().is_number());
        assert!(!v.get("s").unwrap().is_number());
    }

    #[test]
    fn numeric_accessors_cross_variants() {
        // An integral float serializes as `2` and parses back as UInt;
        // as_f64 must recover it from any number variant.
        assert_eq!(parse("2").unwrap().as_f64(), Some(2.0));
        assert_eq!(Json::Num(2.5).as_f64(), Some(2.5));
        assert_eq!(Json::Int(-3).as_f64(), Some(-3.0));
        assert_eq!(Json::Str("2".into()).as_f64(), None);
        assert_eq!(Json::UInt(7).as_u64(), Some(7));
        assert_eq!(Json::Int(7).as_u64(), Some(7));
        assert_eq!(Json::Int(-7).as_u64(), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.as_bool(), None);
        assert_eq!(
            Json::Arr(vec![Json::Null]).as_arr().map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(Json::Null.as_arr(), None);
    }
}
