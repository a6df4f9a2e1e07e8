//! # zatel-minijson — dependency-free JSON for the Zatel suite
//!
//! A small, exact JSON value model with a parser, compact and pretty
//! printers, and the `ToJson`/`FromJson` traits. It exists because the
//! build environment is fully offline: no crates-io registry is reachable,
//! so `serde`/`serde_json` cannot be used. The surface deliberately mirrors
//! the parts of `serde_json` the suite relied on (`Value`, `Map`, the
//! `json!` macro), keeping call sites nearly identical.
//!
//! A record type declares its JSON once with [`record!`]: one `key =>
//! field` entry per key, in document order. The traits are implemented for
//! the field types (integers range-checked, floats, strings, `Vec`,
//! `Option`, arrays, pairs), and [`field`] reads one key with the one
//! policy every record follows: absent or `null` is `None` or the
//! default, a present value of the wrong type is an error, unknown keys
//! are ignored, and a non-object is rejected.
//!
//! Integers are kept exact: [`Number`] stores `u64`/`i64` losslessly and
//! only uses `f64` for genuine floating-point values, so round-tripping
//! simulator counters never loses precision.
//!
//! ## Examples
//!
//! ```
//! use minijson::{json, Value};
//!
//! let v = json!({ "name": "L1D", "hits": 3u64, "rate": 0.75 });
//! let text = v.to_string();
//! let back = Value::parse(&text).unwrap();
//! assert_eq!(v, back);
//! assert_eq!(back.get("hits").and_then(Value::as_u64), Some(3));
//! ```
//!
//! ```
//! use minijson::{FromJson, ToJson, Value};
//!
//! #[derive(Debug, PartialEq)]
//! struct Cache {
//!     bytes: u64,
//!     ways: Option<u32>,
//! }
//!
//! minijson::record! {
//!     Cache {
//!         "bytes" => bytes,
//!         "ways" => ways,
//!     }
//! }
//!
//! let cache = Cache { bytes: 4096, ways: None };
//! assert_eq!(cache.to_json().to_string(), r#"{"bytes":4096,"ways":null}"#);
//! assert_eq!(Cache::from_json(&Value::parse(r#"{"bytes":4096}"#).unwrap()).unwrap(), cache);
//! let err = Cache::from_json(&Value::parse(r#"{"bytes":-1}"#).unwrap()).unwrap_err();
//! assert_eq!(err.message, "Cache: missing or invalid field 'bytes'");
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt;

/// An exact JSON number: integers are preserved bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
}

impl Number {
    /// The value as `f64` (lossy above 2^53 for integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub(crate) fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(v) => Some(v),
            Number::I64(v) => u64::try_from(v).ok(),
            Number::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            Number::F64(_) => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub(crate) fn as_i64(self) -> Option<i64> {
        match self {
            Number::U64(v) => i64::try_from(v).ok(),
            Number::I64(v) => Some(v),
            Number::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(v as i64),
            Number::F64(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::U64(a), Number::U64(b)) => a == b,
            (Number::I64(a), Number::I64(b)) => a == b,
            (Number::F64(a), Number::F64(b)) => a == b,
            // Mixed integer representations compare by value.
            _ => match (self.as_i64(), other.as_i64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_f64() == other.as_f64(),
            },
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::U64(v) => write!(f, "{v}"),
            Number::I64(v) => write!(f, "{v}"),
            Number::F64(v) => {
                if v.is_finite() {
                    // `{}` on f64 always prints a parseable literal; force a
                    // decimal point so integral floats stay floats.
                    let s = format!("{v}");
                    if s.contains(['.', 'e', 'E']) {
                        f.write_str(&s)
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    // JSON has no Inf/NaN; null is the conventional fallback.
                    f.write_str("null")
                }
            }
        }
    }
}

/// An ordered JSON object (insertion order preserved, like `serde_json`'s
/// default `Map`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Inserts `value` under `key`, returning the previous value if the key
    /// was already present (its position is kept).
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A JSON value. The default is `null`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(std::string::String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// Member lookup on objects; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a [`Map`] if it is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> std::string::String {
        let mut out = std::string::String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut std::string::String, depth: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push(']');
            }
            Value::Object(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
            other => {
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => {
                let mut buf = std::string::String::new();
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = std::string::String::new();
                    write_escaped(&mut buf, k);
                    write!(f, "{buf}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Error produced by [`Value::parse`] or [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset of the problem (0 for conversion errors).
    pub offset: usize,
    /// Set by [`JsonError::mistyped`]: [`field`] replaces the error by
    /// its own, which names the record and the key.
    mistyped: bool,
}

impl JsonError {
    /// Creates a conversion (non-positional) error.
    pub fn conversion(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
            mistyped: false,
        }
    }

    /// Convenience for "missing or mistyped field" errors.
    pub(crate) fn missing_field(ty: &str, field: &str) -> Self {
        JsonError::conversion(format!("{ty}: missing or invalid field '{field}'"))
    }

    /// A value that is absent, `null` or of the wrong JSON type. Read
    /// through [`field`], it becomes that key's "missing or invalid field"
    /// error, however deep in the field's value it was found.
    pub fn mistyped(message: impl Into<String>) -> Self {
        JsonError {
            mistyped: true,
            ..JsonError::conversion(message)
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset > 0 {
            write!(f, "{} at byte {}", self.message, self.offset)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos.max(1),
            ..JsonError::conversion(message)
        }
    }

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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // Surrogate pair.
                                self.expect_byte(b'\\')?;
                                self.expect_byte(b'u')?;
                                let low = self.hex4()?;
                                let combined = 0x10000
                                    + ((code - 0xD800) << 10)
                                    + (low.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let number = if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                Number::U64(v)
            } else if let Ok(v) = text.parse::<i64>() {
                Number::I64(v)
            } else {
                Number::F64(text.parse().map_err(|_| self.err("invalid number"))?)
            }
        } else {
            Number::F64(text.parse().map_err(|_| self.err("invalid number"))?)
        };
        Ok(Value::Number(number))
    }
}

/// Conversion into a JSON [`Value`]. Records implement it with
/// [`record!`] (no derive machinery in the offline environment).
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Value;
}

/// Fallible conversion from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Reconstructs `Self` from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when required fields are missing or mistyped.
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

/// Any value but `null`, which is absence (see [`field`]).
impl FromJson for Value {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Null => Err(JsonError::mistyped("expected a value")),
            v => Ok(v.clone()),
        }
    }
}

impl ToJson for Map {
    fn to_json(&self) -> Value {
        Value::Object(self.clone())
    }
}

/// Reads the key `key` of the object `object`, a record of type `ty`:
/// an absent key reads as `null`. Every error that the value's own
/// codecs raise with [`JsonError::mistyped`] becomes `ty`'s "missing or
/// invalid field 'key'"; the errors of a nested record pass through.
///
/// # Errors
///
/// Returns [`JsonError`] when the value does not decode as a `T`.
pub fn field<T: FromJson>(object: &Value, ty: &str, key: &str) -> Result<T, JsonError> {
    T::from_json(object.get(key).unwrap_or(&Value::Null)).map_err(|e| {
        if e.mistyped {
            JsonError::missing_field(ty, key)
        } else {
            e
        }
    })
}

/// The object a record of type `ty` is read from.
///
/// # Errors
///
/// Anything else is [`JsonError::mistyped`]: read through [`field`], an
/// absent record is its key's missing field.
pub fn object<'v>(value: &'v Value, ty: &str) -> Result<&'v Map, JsonError> {
    value
        .as_object()
        .ok_or_else(|| JsonError::mistyped(format!("{ty} must be an object")))
}

macro_rules! to_json_by_value {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::from(*self)
            }
        }
    )*};
}
to_json_by_value!(u8, u16, u32, u64, usize, i64, f64, f32, bool, &str);

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::from(self.as_str())
    }
}

macro_rules! from_json {
    ($($t:ty => |$v:ident| $read:expr;)*) => {$(
        impl FromJson for $t {
            fn from_json($v: &Value) -> Result<Self, JsonError> {
                $read.ok_or_else(|| JsonError::mistyped(concat!("expected a ", stringify!($t))))
            }
        }
    )*};
}
// Integers are range-checked: a number that does not fit is mistyped.
from_json! {
    u8 => |v| v.as_u64().and_then(|n| n.try_into().ok());
    u16 => |v| v.as_u64().and_then(|n| n.try_into().ok());
    u32 => |v| v.as_u64().and_then(|n| n.try_into().ok());
    u64 => |v| v.as_u64();
    usize => |v| v.as_u64().and_then(|n| n.try_into().ok());
    i64 => |v| v.as_i64();
    f64 => |v| v.as_f64();
    f32 => |v| v.as_f64().map(|f| f as f32);
    bool => |v| v.as_bool();
    String => |v| v.as_str().map(str::to_owned);
}

impl ToJson for char {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

/// `null` (or an absent key) is `None`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::mistyped("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// An array of exactly `N` elements.
impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Vec::<T>::from_json(value)?
            .try_into()
            .map_err(|_| JsonError::mistyped(format!("expected an array of {N}")))
    }
}

/// A pair is the array `[a, b]`.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::mistyped("expected an array of 2")),
        }
    }
}

/// Declares the JSON of a record once and implements [`ToJson`] and
/// [`FromJson`] from it, or the JSON of a string-tag enum.
///
/// A record lists its entries in document order, which is the key order
/// it renders, and decodes by the policy of the crate docs. Each entry is
/// one of:
///
/// - `"key" => field`: required. An `Option` field renders `None` as
///   `null` and reads an absent key or `null` as `None`.
/// - `"key" => field: skip_none`: an `Option` field whose key is left
///   out when `None`.
/// - `"key" => field: default`: an absent key or `null` reads as the
///   field type's `Default`.
/// - `field: with(write, read)`: a codec hook for a field with an odd
///   shape. `write(&field, &mut Map)` inserts its keys and `read(&Value,
///   ty)` decodes them from the whole object, usually with [`field`].
///
/// Before the entries, `schema(S)` renders `"schema": S` first and
/// rejects a document whose `schema` is another string, and `check(f)`
/// runs `f(&record) -> Result<(), JsonError>` on every decoded record.
/// `to_json Type { .. }` implements [`ToJson`] alone; its codec hooks
/// may be written `field: with(write)`.
///
/// `record! { pub enum Type { Variant => "tag", .. } }` renders each
/// variant as its string tag, rejects any other string, and adds
/// `Type::tag(self) -> &'static str` with the visibility written before
/// `enum`.
#[macro_export]
macro_rules! record {
    ($vis:vis enum $ty:ident { $($variant:ident => $tag:literal),+ $(,)? }) => {
        impl $ty {
            /// The value's wire tag.
            $vis fn tag(self) -> &'static str {
                match self {
                    $($ty::$variant => $tag,)+
                }
            }
        }

        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::from(self.tag())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Value) -> ::core::result::Result<Self, $crate::JsonError> {
                match value.as_str() {
                    $(Some($tag) => Ok($ty::$variant),)+
                    Some(other) => Err($crate::JsonError::conversion(format!(
                        "{}: unknown variant '{other}' (expected one of: {})",
                        stringify!($ty),
                        [$($tag),+].join(", "),
                    ))),
                    None => Err($crate::JsonError::mistyped(concat!(
                        stringify!($ty),
                        ": expected a string"
                    ))),
                }
            }
        }
    };

    (@put $this:ident $map:ident) => {};
    (@put $this:ident $map:ident , $($rest:tt)*) => {
        $crate::record!(@put $this $map $($rest)*);
    };
    (@put $this:ident $map:ident $key:literal => $field:ident : skip_none $($rest:tt)*) => {
        if let Some(value) = &$this.$field {
            $map.insert($key.into(), $crate::ToJson::to_json(value));
        }
        $crate::record!(@put $this $map $($rest)*);
    };
    (@put $this:ident $map:ident $key:literal => $field:ident : default $($rest:tt)*) => {
        $crate::record!(@put $this $map $key => $field $($rest)*);
    };
    (@put $this:ident $map:ident $key:literal => $field:ident $($rest:tt)*) => {
        $map.insert($key.into(), $crate::ToJson::to_json(&$this.$field));
        $crate::record!(@put $this $map $($rest)*);
    };
    (@put $this:ident $map:ident $field:ident : with($write:expr $(, $read:expr)?) $($rest:tt)*) => {
        $write(&$this.$field, &mut $map);
        $crate::record!(@put $this $map $($rest)*);
    };

    (@get $value:ident $ty_name:ident $ty:ident { $($fields:tt)* }) => {
        $ty { $($fields)* }
    };
    (@get $value:ident $ty_name:ident $ty:ident { $($fields:tt)* } , $($rest:tt)*) => {
        $crate::record!(@get $value $ty_name $ty { $($fields)* } $($rest)*)
    };
    (@get $value:ident $ty_name:ident $ty:ident { $($fields:tt)* }
        $key:literal => $field:ident : skip_none $($rest:tt)*) => {
        $crate::record!(@get $value $ty_name $ty { $($fields)* } $key => $field $($rest)*)
    };
    (@get $value:ident $ty_name:ident $ty:ident { $($fields:tt)* }
        $key:literal => $field:ident : default $($rest:tt)*) => {
        $crate::record!(@get $value $ty_name $ty {
            $($fields)*
            $field: $crate::field::<::core::option::Option<_>>($value, $ty_name, $key)?
                .unwrap_or_default(),
        } $($rest)*)
    };
    (@get $value:ident $ty_name:ident $ty:ident { $($fields:tt)* }
        $key:literal => $field:ident $($rest:tt)*) => {
        $crate::record!(@get $value $ty_name $ty {
            $($fields)* $field: $crate::field($value, $ty_name, $key)?,
        } $($rest)*)
    };
    (@get $value:ident $ty_name:ident $ty:ident { $($fields:tt)* }
        $field:ident : with($write:expr, $read:expr) $($rest:tt)*) => {
        $crate::record!(@get $value $ty_name $ty {
            $($fields)* $field: $read($value, $ty_name)?,
        } $($rest)*)
    };

    (to_json $ty:ident $(schema($schema:expr))? { $($entries:tt)* }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                let mut map = $crate::Map::new();
                $(map.insert("schema".into(), $crate::Value::from($schema));)?
                $crate::record!(@put self map $($entries)*);
                $crate::Value::Object(map)
            }
        }
    };

    ($ty:ident $(schema($schema:expr))? $(check($check:expr))? { $($entries:tt)* }) => {
        $crate::record!(to_json $ty $(schema($schema))? { $($entries)* });

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Value) -> ::core::result::Result<Self, $crate::JsonError> {
                const TY: &str = stringify!($ty);
                $crate::object(value, TY)?;
                $(
                    let schema: String = $crate::field(value, TY, "schema")?;
                    if schema != $schema {
                        return Err($crate::JsonError::conversion(format!(
                            "{TY}: unsupported schema '{schema}' (this build speaks {})",
                            $schema
                        )));
                    }
                )?
                let record = $crate::record!(@get value TY $ty {} $($entries)*);
                $($check(&record)?;)?
                Ok(record)
            }
        }
    };
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::U64(v as u64)) }
        }
    )*};
}
macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                if v >= 0 {
                    Value::Number(Number::U64(v as u64))
                } else {
                    Value::Number(Number::I64(v as i64))
                }
            }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64, usize);
from_signed!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::F64(v))
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::F64(v as f64))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}
impl From<Map> for Value {
    fn from(v: Map) -> Value {
        Value::Object(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Value`] with JSON-like syntax (subset of `serde_json::json!`:
/// object values are expressions, not nested literals — wrap nested
/// structures in their own `json!` call).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut, reason = "an empty object literal never inserts")]
        let mut map = $crate::Map::new();
        $( map.insert($key.to_string(), $crate::Value::from($val)); )*
        $crate::Value::Object(map)
    }};
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::Value::from($val)),* ])
    };
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = json!({
            "name": "Mobile SoC",
            "sms": 8u32,
            "big": u64::MAX,
            "neg": -42i64,
            "pi": 3.25,
            "flags": vec![true, false],
            "nested": json!({ "x": 1u32 }),
            "nothing": json!(null),
        });
        for text in [v.to_string(), v.pretty()] {
            assert_eq!(Value::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn integers_are_exact() {
        let v = Value::from(u64::MAX);
        let back = Value::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
        let v = Value::from(i64::MIN);
        let back = Value::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_i64(), Some(i64::MIN));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let v = Value::from(2.0f64);
        assert_eq!(v.to_string(), "2.0");
        assert!(matches!(
            Value::parse("2.0").unwrap(),
            Value::Number(Number::F64(_))
        ));
        assert!(matches!(
            Value::parse("2").unwrap(),
            Value::Number(Number::U64(2))
        ));
    }

    #[test]
    fn string_escapes() {
        let v = Value::from("a\"b\\c\nd\te\u{0007}");
        let back = Value::parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
        assert_eq!(Value::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        assert_eq!(Value::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn control_characters_are_escaped_as_unicode() {
        // Named escapes for the common control characters…
        assert_eq!(Value::from("a\nb").to_string(), r#""a\nb""#);
        assert_eq!(Value::from("a\rb").to_string(), r#""a\rb""#);
        assert_eq!(Value::from("a\tb").to_string(), r#""a\tb""#);
        // …and \u00XX for everything else below 0x20, so the output never
        // contains a raw control byte.
        assert_eq!(Value::from("\u{0000}").to_string(), r#""\u0000""#);
        assert_eq!(Value::from("\u{0007}").to_string(), r#""\u0007""#);
        assert_eq!(Value::from("\u{001f}").to_string(), r#""\u001f""#);
        let every_control: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let text = Value::from(every_control.as_str()).to_string();
        assert!(text.bytes().all(|b| b >= 0x20), "no raw controls: {text:?}");
        assert_eq!(
            Value::parse(&text).unwrap().as_str(),
            Some(every_control.as_str()),
            "all 32 control characters round-trip"
        );
    }

    #[test]
    fn non_ascii_passes_through_unescaped() {
        // Multi-byte UTF-8 is valid JSON as-is; emitting it raw keeps
        // output readable and avoids surrogate-pair bookkeeping.
        for s in ["é", "λ=0.5", "光線追跡", "😀🎯", "a\u{00a0}b"] {
            let text = Value::from(s).to_string();
            assert!(!text.contains("\\u"), "{s} emitted raw: {text}");
            assert_eq!(Value::parse(&text).unwrap().as_str(), Some(s));
        }
        // Object keys go through the same escaping path.
        let mut m = Map::new();
        m.insert("ключ\n".into(), json!(1u32));
        let text = Value::Object(m).to_string();
        assert_eq!(text, "{\"ключ\\n\":1}");
        assert!(Value::parse(&text).unwrap().get("ключ\n").is_some());
    }

    #[test]
    fn parses_escaped_surrogate_pairs() {
        assert_eq!(
            Value::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
        assert_eq!(Value::parse(r#""\u00e9""#).unwrap().as_str(), Some("é"));
        assert!(Value::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn map_preserves_order_and_replaces() {
        let mut m = Map::new();
        m.insert("b".into(), json!(1u32));
        m.insert("a".into(), json!(2u32));
        m.insert("b".into(), json!(3u32));
        let keys: Vec<&String> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(m.get("b").and_then(Value::as_u64), Some(3));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn parse_errors_have_positions() {
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("nul").is_err());
        assert!(Value::parse("1 2").is_err());
        let err = Value::parse("[1, ]").unwrap_err();
        assert!(err.offset > 0);
    }

    #[test]
    fn accessors() {
        let v = json!({ "s": "x", "n": 1.5, "b": true, "a": vec![1u32, 2u32] });
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
        assert!(Value::Null.get("x").is_none());
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        assert_eq!(Value::from(f64::INFINITY).to_string(), "null");
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Plain,
        Fancy,
    }

    record! {
        enum Kind {
            Plain => "plain",
            Fancy => "fancy",
        }
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Inner {
        x: u8,
    }

    record! { Inner { "x" => x } }

    /// One field of every shape the policy covers.
    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        id: u32,
        kind: Kind,
        span: (f64, f64),
        note: Option<String>,
        limit: Option<i64>,
        on: bool,
        tags: Vec<Inner>,
        inner: Inner,
    }

    fn write_span(span: &(f64, f64), map: &mut Map) {
        map.insert("lo".into(), span.0.to_json());
        map.insert("hi".into(), span.1.to_json());
    }

    fn read_span(value: &Value, ty: &str) -> Result<(f64, f64), JsonError> {
        Ok((field(value, ty, "lo")?, field(value, ty, "hi")?))
    }

    record! {
        Sample schema("sample-v1") check(ordered) {
            "id" => id,
            "kind" => kind,
            span: with(write_span, read_span),
            "note" => note,
            "limit" => limit: skip_none,
            "on" => on: default,
            "tags" => tags: default,
            "inner" => inner,
        }
    }

    fn ordered(s: &Sample) -> Result<(), JsonError> {
        let ordered = s.span.0 <= s.span.1;
        ordered
            .then_some(())
            .ok_or_else(|| JsonError::conversion("Sample: lo > hi"))
    }

    const FULL: &str = r#"{"schema":"sample-v1","id":7,"kind":"fancy","lo":0.25,"hi":0.5,"note":"n","limit":-3,"on":true,"tags":[{"x":1}],"inner":{"x":2}}"#;
    const MINIMAL: &str =
        r#"{"schema":"sample-v1","id":7,"kind":"plain","lo":0,"hi":1,"inner":{"x":0}}"#;

    fn parse_sample(text: &str) -> Result<Sample, String> {
        Sample::from_json(&Value::parse(text).unwrap()).map_err(|e| e.message)
    }

    /// Rendering follows the declaration order; decoding follows the one
    /// policy, row by row: an edit of the minimal document and what it
    /// decodes to.
    #[test]
    fn record_renders_in_order_and_decodes_by_policy() {
        assert_eq!(parse_sample(FULL).unwrap().to_json().to_string(), FULL);
        let minimal = parse_sample(MINIMAL).unwrap();
        assert_eq!(
            minimal.to_json().to_string(),
            r#"{"schema":"sample-v1","id":7,"kind":"plain","lo":0.0,"hi":1.0,"note":null,"on":false,"tags":[],"inner":{"x":0}}"#,
            "`None` renders as null unless skip_none, defaults render"
        );
        assert_eq!(Kind::Fancy.tag(), "fancy");

        let with = |edit: fn(&mut Sample)| {
            let mut s = minimal.clone();
            edit(&mut s);
            Ok(s)
        };
        let field_err = |key: &str| Err(format!("Sample: missing or invalid field '{key}'"));
        let rows: [(&str, Result<Sample, String>); 21] = [
            // Absent or null: None or the default.
            ("", Ok(minimal.clone())),
            (
                r#","note":null,"limit":null,"on":null,"tags":null"#,
                Ok(minimal.clone()),
            ),
            (
                r#","note":"n","limit":5,"on":true"#,
                with(|s| {
                    s.note = Some("n".into());
                    s.limit = Some(5);
                    s.on = true;
                }),
            ),
            // Unknown keys are ignored.
            (r#","extra":[1,2]"#, Ok(minimal.clone())),
            // Present with the wrong type: an error naming the key.
            (r#","note":5"#, field_err("note")),
            (r#","limit":"soon""#, field_err("limit")),
            (r#","on":"yes""#, field_err("on")),
            (r#","tags":{}"#, field_err("tags")),
            (r#","tags":[{"x":1},3]"#, field_err("tags")),
            (r#","lo":"a""#, field_err("lo")),
            (r#","kind":1"#, field_err("kind")),
            (
                r#","kind":"odd""#,
                Err("Kind: unknown variant 'odd' (expected one of: plain, fancy)".into()),
            ),
            // Integers are range-checked.
            (r#","id":4294967297"#, field_err("id")),
            (r#","id":-1"#, field_err("id")),
            (r#","id":1.5"#, field_err("id")),
            (r#","id":3.0"#, with(|s| s.id = 3)),
            // Required fields reject null; nested records report their own key.
            (r#","id":null"#, field_err("id")),
            (
                r#","inner":{"x":256}"#,
                Err("Inner: missing or invalid field 'x'".into()),
            ),
            (r#","inner":[]"#, field_err("inner")),
            // The check runs last.
            (r#","lo":2"#, Err("Sample: lo > hi".into())),
            (
                r#","schema":"sample-v2""#,
                Err("Sample: unsupported schema 'sample-v2' (this build speaks sample-v1)".into()),
            ),
        ];
        for (edit, expected) in rows {
            // A later duplicate key replaces the earlier value in place.
            let doc = format!("{}{edit}}}", &MINIMAL[..MINIMAL.len() - 1]);
            assert_eq!(parse_sample(&doc), expected, "{doc}");
        }
        assert_eq!(parse_sample(r#"{"id":7}"#), field_err("schema"));
        for non_object in ["[]", "3", "null", r#""sample""#] {
            assert_eq!(
                parse_sample(non_object),
                Err("Sample must be an object".into())
            );
        }
    }
}
