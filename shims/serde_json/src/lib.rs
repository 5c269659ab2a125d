//! Offline stand-in for `serde_json` — a real (small) JSON codec.
//!
//! Backed by the functional `serde` shim: [`to_string`] /
//! [`to_string_pretty`] walk the value tree a `Serialize` impl builds,
//! and [`from_str`] parses JSON text into that tree before handing it
//! to a `Deserialize` impl. Parse failures report line/column; semantic
//! failures report the JSON path of the offending value (see
//! `serde::de::DeError`).
//!
//! Output is deterministic and byte-stable: objects keep field order,
//! integers print without a fractional part, and floats print the
//! shortest string that parses back to the same bits — the property the
//! `camj-desc` golden files and byte-identical-estimate guarantees rely
//! on.

use std::fmt;

use serde::de::DeError;
pub use serde::value::{Map, Number, Value};
use serde::{DeserializeOwned, Serialize};

/// A serialization or deserialization failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The input text is not valid JSON.
    Syntax {
        /// 1-based line of the failure.
        line: usize,
        /// 1-based column of the failure.
        column: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON is well-formed but does not match the target type; the
    /// error carries the JSON path of the offending value.
    Semantic(DeError),
    /// The value contains a number JSON cannot represent (NaN or ±∞).
    NonFinite,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax {
                line,
                column,
                message,
            } => write!(
                f,
                "JSON syntax error at line {line}, column {column}: {message}"
            ),
            Error::Semantic(e) => write!(f, "{e}"),
            Error::NonFinite => {
                f.write_str("cannot serialize a non-finite number (NaN or infinity) as JSON")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::Semantic(e)
    }
}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// [`Error::NonFinite`] when the value contains NaN or infinity.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let v = value.to_value();
    if v.has_non_finite() {
        return Err(Error::NonFinite);
    }
    Ok(v.to_string())
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// [`Error::NonFinite`] when the value contains NaN or infinity.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let v = value.to_value();
    if v.has_non_finite() {
        return Err(Error::NonFinite);
    }
    let mut out = String::new();
    write_pretty(&v, 0, &mut out);
    Ok(out)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Reconstructs a `T` from a [`Value`] tree.
///
/// # Errors
///
/// [`Error::Semantic`] with the JSON path of the first mismatch.
pub fn from_value<T: DeserializeOwned>(value: &Value) -> Result<T, Error> {
    T::from_value(value).map_err(Error::from)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// [`Error::Syntax`] for malformed JSON, [`Error::Semantic`] (with the
/// JSON path) when the shape does not match `T`.
pub fn from_str<T: DeserializeOwned>(input: &str) -> Result<T, Error> {
    let value = parse_value_text(input)?;
    from_value(&value)
}

// ---------------------------------------------------------------------
// Pretty printer
// ---------------------------------------------------------------------

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    const STEP: &str = "  ";
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                for _ in 0..=indent {
                    out.push_str(STEP);
                }
                write_pretty(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            for _ in 0..indent {
                out.push_str(STEP);
            }
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push_str("{\n");
            let n = m.len();
            for (i, (k, item)) in m.iter().enumerate() {
                for _ in 0..=indent {
                    out.push_str(STEP);
                }
                out.push('"');
                serde::value::escape_into(out, k);
                out.push_str("\": ");
                write_pretty(item, indent + 1, out);
                if i + 1 < n {
                    out.push(',');
                }
                out.push('\n');
            }
            for _ in 0..indent {
                out.push_str(STEP);
            }
            out.push('}');
        }
        // Scalars, "[]", and "{}" use the compact form, written
        // straight into `out`.
        Value::String(s) => {
            out.push('"');
            serde::value::escape_into(out, s);
            out.push('"');
        }
        other => {
            use fmt::Write as _;
            write!(out, "{other}").expect("writing to a String cannot fail");
        }
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value_text(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error("trailing characters after the JSON document"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> Error {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        Error::Syntax {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't' | b'f') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
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
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy until the next escape or quote.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
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
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair.
                                if !(self.eat_keyword("\\u")) {
                                    return Err(self.error("unpaired surrogate escape"));
                                }
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
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
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                // "-0" must stay the float -0.0 (sign-preserving round
                // trip); every other integer literal is an Int.
                if i != 0 || !text.starts_with('-') {
                    return Ok(Value::Number(Number::from_i64(i)));
                }
            }
        }
        let f: f64 = text
            .parse()
            .map_err(|_| self.error(format!("invalid number `{text}`")))?;
        Ok(Value::Number(Number::from_f64(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<u32>(" 42 ").unwrap(), 42);
        assert_eq!(from_str::<f64>("2.5e-3").unwrap(), 2.5e-3);
        assert_eq!(from_str::<String>(r#""a\nbA""#).unwrap(), "a\nbA");
        assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
    }

    #[test]
    fn parses_nested_structures() {
        let v: Value = from_str(r#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.len(), 2);
        let a = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(
            a[1].as_object().unwrap().get("b").unwrap().as_str(),
            Some("x")
        );
    }

    #[test]
    fn syntax_errors_carry_line_and_column() {
        let err = from_str::<Value>("{\n  \"a\": tru\n}").unwrap_err();
        match err {
            Error::Syntax { line, column, .. } => {
                assert_eq!(line, 2);
                assert!(column >= 8, "column {column}");
            }
            other => panic!("expected syntax error, got {other}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "\u{1F600}");
        assert!(from_str::<String>(r#""\ud83d""#).is_err());
    }

    #[test]
    fn compact_and_pretty_agree_on_values() {
        let v: Value = from_str(r#"{"a":[1,2],"b":{"c":"x"},"empty":[],"eo":{}}"#).unwrap();
        let compact = to_string(&v).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Value>(&compact).unwrap(), v);
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"a\": [\n"), "{pretty}");
        assert!(pretty.contains("\"empty\": []"), "{pretty}");
    }

    #[test]
    fn float_bits_survive_text_round_trip() {
        for v in [3.0e-12_f64 / 7.0, 0.1 + 0.2, 5e-15, 1.0 / 3.0] {
            let text = to_string(&v).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} → {text}");
        }
    }

    #[test]
    fn integral_floats_print_as_integers() {
        assert_eq!(to_string(&30.0f64).unwrap(), "30");
        assert_eq!(to_string(&0.5f64).unwrap(), "0.5");
    }

    #[test]
    fn negative_zero_survives_bit_exactly() {
        let text = to_string(&-0.0f64).unwrap();
        assert_eq!(text, "-0");
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn non_finite_rejected() {
        assert_eq!(to_string(&f64::NAN).unwrap_err(), Error::NonFinite);
        assert!(to_string_pretty(&vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn reserialization_is_byte_stable() {
        let text = "{\n  \"b\": 2,\n  \"a\": [\n    1.5,\n    \"x\"\n  ]\n}";
        let v: Value = from_str(text).unwrap();
        // Key order is preserved, so pretty output reproduces the input.
        assert_eq!(to_string_pretty(&v).unwrap(), text);
    }

    #[test]
    fn semantic_errors_carry_json_path() {
        let err = from_str::<Vec<u32>>(r#"[1, "two"]"#).unwrap_err();
        assert!(err.to_string().starts_with("[1]:"), "{err}");
        assert!(err.to_string().contains("\"two\""), "{err}");
    }
}
