//! The JSON-shaped value model the shim's traits serialize into.
//!
//! [`Value`] plays the role of `serde_json::Value` (and is re-exported
//! from the `serde_json` shim under that name). Two deliberate choices
//! keep description files byte-stable through load → export cycles:
//!
//! * [`Map`] preserves insertion order, so an exported object lists its
//!   keys in field-declaration order, every time.
//! * [`Number`] normalizes: any finite float with zero fractional part
//!   that fits an `i64` is stored (and printed) as an integer, so
//!   `30.0` and `30` are the same value and always render as `30`.
//!
//! Floats print via Rust's shortest-round-trip `Display`, so an `f64`
//! survives value → text → value without losing a single bit — the
//! property the byte-identical-estimate guarantee of `camj-desc` rests
//! on.

use std::fmt;

/// A JSON number: a normalized integer or a float.
///
/// Construction normalizes (see [`Number::from_f64`]); as a result a
/// `Float` is never an integral value representable as `i64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer in `i64` range.
    Int(i64),
    /// Any other float (non-integral, out of `i64` range, or non-finite).
    Float(f64),
}

impl Number {
    /// Wraps a float, normalizing integral values into [`Number::Int`].
    /// `-0.0` stays a float (printed `-0`) so the sign bit survives the
    /// bit-exact text round trip.
    #[must_use]
    pub fn from_f64(v: f64) -> Self {
        if v == 0.0 && v.is_sign_negative() {
            return Number::Float(v);
        }
        if v.is_finite() && v.fract() == 0.0 && (-9.0e18..=9.0e18).contains(&v) {
            let i = v as i64;
            if i as f64 == v {
                return Number::Int(i);
            }
        }
        Number::Float(v)
    }

    /// Wraps an integer.
    #[must_use]
    pub fn from_i64(v: i64) -> Self {
        Number::Int(v)
    }

    /// Wraps an unsigned integer (values beyond `i64::MAX` degrade to
    /// the nearest float).
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        match i64::try_from(v) {
            Ok(i) => Number::Int(i),
            Err(_) => Number::Float(v as f64),
        }
    }

    /// The value as a float.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as a signed integer, if it is one.
    #[must_use]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::Int(i) => Some(i),
            Number::Float(_) => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative one.
    #[must_use]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::Int(i) => u64::try_from(i).ok(),
            Number::Float(_) => None,
        }
    }

    /// Whether the stored value is finite (always true for integers).
    #[must_use]
    pub fn is_finite(self) -> bool {
        match self {
            Number::Int(_) => true,
            Number::Float(f) => f.is_finite(),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(i) => write!(f, "{i}"),
            // Non-finite floats are not JSON; Display degrades to null
            // (the serializers reject them before printing).
            Number::Float(v) if !v.is_finite() => f.write_str("null"),
            Number::Float(v) => write!(f, "{v}"),
        }
    }
}

/// An insertion-ordered string-keyed object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Inserts (or replaces in place) a key.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.entries.push((key, value)),
        }
    }

    /// Inserts a struct field, skipping [`Value::Null`] — the shim's
    /// equivalent of serde's "skip serializing a `None`".
    pub fn insert_field(&mut self, key: &str, value: Value) {
        if value != Value::Null {
            self.insert(key, value);
        }
    }

    /// Merges a `#[serde(flatten)]`-ed sub-value's keys into this map.
    /// Non-object values are ignored (a flattened unit enum variant has
    /// no fields to contribute).
    pub fn merge_flat(&mut self, value: Value) {
        if let Value::Object(m) = value {
            for (k, v) in m.entries {
                self.insert(k, v);
            }
        }
    }

    /// The entries in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(String, Value)] {
        &self.entries
    }

    /// Iterates `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An insertion-ordered object.
    Object(Map),
}

impl Value {
    /// A single-entry object `{tag: value}` — the externally-tagged
    /// enum-variant encoding.
    #[must_use]
    pub fn tagged(tag: &str, value: Value) -> Value {
        let mut m = Map::new();
        m.insert(tag, value);
        Value::Object(m)
    }

    /// The object, if this is one.
    #[must_use]
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array, if this is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a float, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// A short type label for diagnostics ("object", "number", …).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Whether the value tree contains a non-finite number (which JSON
    /// cannot represent).
    #[must_use]
    pub fn has_non_finite(&self) -> bool {
        match self {
            Value::Number(n) => !n.is_finite(),
            Value::Array(a) => a.iter().any(Value::has_non_finite),
            Value::Object(m) => m.iter().any(|(_, v)| v.has_non_finite()),
            _ => false,
        }
    }

    /// A compact rendering truncated for error messages.
    #[must_use]
    pub fn preview(&self) -> String {
        let full = self.to_string();
        if full.chars().count() > 48 {
            let cut: String = full.chars().take(45).collect();
            format!("{cut}…")
        } else {
            full
        }
    }
}

/// Escapes `s` as JSON string contents (no surrounding quotes) into
/// `out`. Runs of characters that need no escape are copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0..=0x1f => None,
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[clean..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                use fmt::Write as _;
                write!(out, "\\u{b:04x}").expect("writing to a String cannot fail");
            }
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

impl fmt::Display for Value {
    /// Compact JSON (no whitespace). Non-finite numbers render as
    /// `null`; the `serde_json` entry points reject them up front.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                write!(f, "\"{buf}\"")
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
            Value::Object(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    escape_into(&mut buf, k);
                    write!(f, "\"{buf}\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_normalize_integral_floats() {
        assert_eq!(Number::from_f64(30.0), Number::Int(30));
        assert_eq!(Number::from_f64(-2.0), Number::Int(-2));
        assert_eq!(Number::from_f64(0.5), Number::Float(0.5));
        assert_eq!(Number::from_u64(7), Number::Int(7));
    }

    #[test]
    fn negative_zero_stays_a_float_and_keeps_its_sign() {
        let n = Number::from_f64(-0.0);
        assert!(matches!(n, Number::Float(_)));
        assert_eq!(n.to_string(), "-0");
        let back: f64 = n.to_string().parse().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn huge_integral_floats_stay_floats() {
        let n = Number::from_f64(1e300);
        assert!(matches!(n, Number::Float(_)));
        assert_eq!(n.as_i64(), None);
    }

    #[test]
    fn float_display_round_trips_bits() {
        for v in [5e-15, 0.1, 1.0 / 3.0, 123.456e-7, f64::MIN_POSITIVE] {
            let s = Number::from_f64(v).to_string();
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} → {s}");
        }
    }

    #[test]
    fn escapes_cover_quotes_controls_and_keep_unicode() {
        let mut out = String::from("<");
        escape_into(&mut out, "a\"b\\c\nd\r\t\u{8}\u{c}\u{1}\u{1f}é😀 ");
        assert_eq!(out, "<a\\\"b\\\\c\\nd\\r\\t\\b\\f\\u0001\\u001fé😀 ");
    }

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut m = Map::new();
        m.insert("b", Value::Null);
        m.insert("a", Value::Bool(true));
        m.insert("b", Value::Bool(false));
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert_eq!(m.get("b"), Some(&Value::Bool(false)));
    }

    #[test]
    fn insert_field_skips_null() {
        let mut m = Map::new();
        m.insert_field("x", Value::Null);
        m.insert_field("y", Value::Bool(true));
        assert!(m.get("x").is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn merge_flat_merges_objects_only() {
        let mut m = Map::new();
        m.insert("keep", Value::Bool(true));
        let mut inner = Map::new();
        inner.insert("added", Value::Number(Number::Int(1)));
        m.merge_flat(Value::Object(inner));
        m.merge_flat(Value::String("ignored".into()));
        assert_eq!(m.len(), 2);
        assert!(m.get("added").is_some());
    }

    #[test]
    fn display_is_compact_json() {
        let v = Value::Object(
            [
                (
                    "a".to_owned(),
                    Value::Array(vec![Value::Null, Value::Bool(true)]),
                ),
                ("s".to_owned(), Value::String("x\"y\n".into())),
            ]
            .into_iter()
            .collect(),
        );
        assert_eq!(v.to_string(), r#"{"a":[null,true],"s":"x\"y\n"}"#);
    }

    #[test]
    fn preview_truncates() {
        let long = Value::String("x".repeat(100));
        assert!(long.preview().ends_with('…'));
        assert!(long.preview().chars().count() <= 46);
    }

    #[test]
    fn non_finite_detection() {
        let v = Value::Array(vec![Value::Number(Number::Float(f64::NAN))]);
        assert!(v.has_non_finite());
        assert!(!Value::Bool(true).has_non_finite());
    }
}
