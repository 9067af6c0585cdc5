//! Offline shim for the subset of `serde_json` this workspace uses:
//! `to_string` / `to_string_pretty` over the shim `serde::Serialize`
//! trait, and `from_str` / `from_slice` producing a [`Value`] tree with
//! the accessors and comparisons the tests rely on.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// Error type for JSON encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Specialized result type mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// A JSON number: integer-preserving like serde_json's `Number`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A signed integer (anything that fits `i64`).
    Int(i64),
    /// An unsigned integer above `i64::MAX`.
    UInt(u64),
    /// A float (any number written with `.` or an exponent).
    Float(f64),
}

/// A parsed JSON document. Object keys keep insertion order so
/// re-encoding is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (insertion-ordered).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup; returns `None` for non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `true` if this is a number representable as `i64`.
    #[must_use]
    pub fn is_i64(&self) -> bool {
        self.as_i64().is_some()
    }

    /// `true` if this is a number representable as `u64`.
    #[must_use]
    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    /// `true` for any JSON number.
    #[must_use]
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// `true` for a JSON string.
    #[must_use]
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// `true` for `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::Int(v)) => Some(*v),
            Value::Number(Number::UInt(v)) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::Int(v)) => u64::try_from(*v).ok(),
            Value::Number(Number::UInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (any number).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::Int(v)) => Some(*v as f64),
            Value::Number(Number::UInt(v)) => Some(*v as f64),
            Value::Number(Number::Float(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an insertion-ordered key/value map.
    #[must_use]
    pub fn as_object(&self) -> Option<BTreeMap<&str, &Value>> {
        match self {
            Value::Object(fields) => Some(fields.iter().map(|(k, v)| (k.as_str(), v)).collect()),
            _ => None,
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

macro_rules! impl_eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_i64() == i64::try_from(*other).ok()
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
impl_eq_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl serde::Serialize for Value {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.serialize_json(out),
            Value::Number(Number::Int(v)) => v.serialize_json(out),
            Value::Number(Number::UInt(v)) => v.serialize_json(out),
            Value::Number(Number::Float(v)) => v.serialize_json(out),
            Value::String(s) => serde::write_json_string(s, out),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.serialize_json(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde::write_json_string(k, out);
                    out.push(':');
                    v.serialize_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Encodes `value` as compact JSON.
///
/// # Errors
/// Never fails in this shim (signature kept for API compatibility).
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// Encodes `value` as pretty-printed JSON (2-space indent, like
/// serde_json).
///
/// # Errors
/// Fails only if the compact encoding is not valid JSON (a `Serialize`
/// implementation bug).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let compact = to_string(value)?;
    let v: Value = from_str(&compact)?;
    let mut out = String::new();
    pretty(&v, 0, &mut out);
    Ok(out)
}

fn pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    let close_pad = "  ".repeat(indent);
    match v {
        Value::Array(a) if !a.is_empty() => {
            out.push_str("[\n");
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                serde::write_json_string(k, out);
                out.push_str(": ");
                pretty(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push('}');
        }
        other => {
            let mut s = String::new();
            serde::Serialize::serialize_json(other, &mut s);
            out.push_str(&s);
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
/// Returns a descriptive [`Error`] on malformed input.
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

/// Parses a JSON document from bytes (must be UTF-8).
///
/// # Errors
/// Returns an [`Error`] on invalid UTF-8 or malformed JSON.
pub fn from_slice(bytes: &[u8]) -> Result<Value> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Deepest nesting of arrays and objects `from_str` accepts, as in
/// serde_json: the parser recurses once per level, so without a cap a
/// small hostile document could overflow the stack.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Consumes the opening byte of a container and enters one level.
    fn open(&mut self, b: u8) -> Result<()> {
        self.expect(b)?;
        self.depth += 1;
        if self.depth > RECURSION_LIMIT {
            return Err(Error(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_lit("null") => Ok(Value::Null),
            Some(b't') if self.eat_lit("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.open(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(Error(format!("bad array at {:?}", other))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.open(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(Error(format!("bad object at {:?}", other))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(format!("invalid UTF-8 in string: {e}")))?,
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
                        .ok_or_else(|| Error("unterminated escape".into()))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("short \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(Error(format!("bad escape '\\{}'", other as char))),
                    }
                }
                other => return Err(Error(format!("unterminated string ({other:?})"))),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
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
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("non-UTF-8 number".into()))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(v)));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::Float(v)))
            .map_err(|_| Error(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_access() {
        let v = from_str(r#"{"a":1,"b":[true,null,"x"],"c":-2.5}"#).unwrap();
        assert_eq!(v["a"], 1);
        assert!(v["a"].is_i64());
        assert_eq!(v["b"][0], true);
        assert!(v["b"][1].is_null());
        assert_eq!(v["b"][2], "x");
        assert_eq!(v["c"].as_f64(), Some(-2.5));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn roundtrip_compact() {
        let src = r#"{"x":1,"y":[1,2,3],"s":"he\"llo","f":1.5,"n":null}"#;
        let v = from_str(src).unwrap();
        assert_eq!(to_string(&v).unwrap(), src);
    }

    #[test]
    fn pretty_preserves_key_order() {
        let v = from_str(r#"{"zeta":1,"alpha":2}"#).unwrap();
        let p = to_string_pretty(&v).unwrap();
        assert!(p.find("zeta").unwrap() < p.find("alpha").unwrap());
        assert_eq!(from_str(&p).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,").is_err());
        assert!(from_str("tru").is_err());
        assert!(from_str(r#"{"a":1}x"#).is_err());
    }

    #[test]
    fn nesting_past_the_recursion_limit_is_an_error_not_a_crash() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str(&nested(RECURSION_LIMIT)).is_ok());
        assert!(from_str(&nested(RECURSION_LIMIT + 1)).is_err());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(129), "}".repeat(129));
        assert!(from_str(&objects).is_err());
        // Siblings do not accumulate depth.
        let wide = format!("[{}]", vec![nested(RECURSION_LIMIT - 1); 3].join(","));
        assert!(from_str(&wide).is_ok());
        // A run far deeper than any stack would take fails cleanly.
        assert!(from_str(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn big_u64_survives() {
        let v = from_str("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert!(!v.is_i64());
    }
}
