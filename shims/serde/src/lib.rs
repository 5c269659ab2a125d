//! Offline stand-in for `serde` — now a *functional* mini-serde.
//!
//! The build container has no crate-registry access, so this shim
//! implements the subset of serde this workspace needs, for real:
//! [`Serialize`] produces a JSON-shaped [`value::Value`] tree,
//! [`Deserialize`] consumes one, and the sibling `serde_derive` shim
//! generates actual field-walking impls (structs, tuple/newtype/unit
//! structs, enums with data, `rename`/`rename_all`/`flatten`/`default`).
//! Deserialization failures carry the JSON path to the offending value
//! ([`de::DeError`]).
//!
//! The trait *shapes* differ from real serde (no `Serializer` /
//! `Deserializer` visitors — everything goes through `Value`), but the
//! surface user code touches (`#[derive(Serialize, Deserialize)]`,
//! `serde_json::to_string_pretty`, `serde_json::from_str`) is
//! call-compatible, so swapping the path dependencies for the crates.io
//! versions remains a `Cargo.toml`-only change.

pub mod de;
pub mod value;

pub use serde_derive::{Deserialize, Serialize};

use de::DeError;
use value::{Number, Value};

/// Serialization into the shim's [`Value`] model.
pub trait Serialize {
    /// The value tree representing `self`.
    fn to_value(&self) -> Value;
}

/// Deserialization from the shim's [`Value`] model.
///
/// The lifetime parameter mirrors real serde's trait so existing bounds
/// compile unchanged; this shim always copies out of the tree.
pub trait Deserialize<'de>: Sized {
    /// Reconstructs `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns a path-qualified [`DeError`] on shape or type mismatch.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Like [`Deserialize::from_value`] but *without* the unknown-key
    /// check a derived struct performs — the entry point used for
    /// `#[serde(flatten)]` fields, whose object legitimately carries
    /// the parent's sibling keys. The parent's own check covers the
    /// union of both key sets (via [`Deserialize::known_fields`]).
    ///
    /// # Errors
    ///
    /// Returns a path-qualified [`DeError`] on shape or type mismatch.
    fn from_value_flat(v: &Value) -> Result<Self, DeError> {
        Self::from_value(v)
    }

    /// The closed set of object keys `from_value` reads, when that set
    /// is statically known (derived structs — including keys hoisted
    /// from `#[serde(flatten)]` fields). `None` means unconstrained
    /// (maps, enums, scalars); derived structs use the set to reject
    /// unknown keys, so a typo'd optional field fails loudly instead of
    /// silently deserializing as absent.
    #[must_use]
    fn known_fields() -> Option<Vec<&'static str>> {
        None
    }
}

/// Stand-in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! ser_de_int {
    ($($ty:ty),* $(,)?) => {
        $(
            impl Serialize for $ty {
                fn to_value(&self) -> Value {
                    #[allow(clippy::cast_lossless)]
                    Value::Number(Number::from_i64(*self as i64))
                }
            }
            impl<'de> Deserialize<'de> for $ty {
                fn from_value(v: &Value) -> Result<Self, DeError> {
                    let n = match v {
                        Value::Number(n) => *n,
                        _ => return Err(DeError::expected("an integer", v)),
                    };
                    let i = n
                        .as_i64()
                        .ok_or_else(|| DeError::expected("an integer", v))?;
                    <$ty>::try_from(i).map_err(|_| {
                        DeError::new(format!(
                            "integer {i} out of range for {}",
                            stringify!($ty)
                        ))
                    })
                }
            }
        )*
    };
}

ser_de_int!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_u64(*self))
    }
}

impl<'de> Deserialize<'de> for u64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Number(n) => n
                .as_u64()
                .ok_or_else(|| DeError::expected("an unsigned integer", v)),
            _ => Err(DeError::expected("an unsigned integer", v)),
        }
    }
}

impl Serialize for u128 {
    fn to_value(&self) -> Value {
        match u64::try_from(*self) {
            Ok(v) => v.to_value(),
            Err(_) => Value::Number(Number::from_f64(*self as f64)),
        }
    }
}

impl Serialize for i128 {
    fn to_value(&self) -> Value {
        match i64::try_from(*self) {
            Ok(v) => Value::Number(Number::from_i64(v)),
            Err(_) => Value::Number(Number::from_f64(*self as f64)),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            _ => Err(DeError::expected("a number", v)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(f64::from(*self)))
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::expected("a boolean", v))
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<'de> Deserialize<'de> for () {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            _ => Err(DeError::expected("null", v)),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::expected("a one-character string", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::expected("a one-character string", v)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::expected("a string", v))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

/// Shared pointers serialize as their pointee and deserialize into a
/// fresh, unshared value. (Real serde gates these impls behind its
/// `rc` feature; swapping this shim for it means enabling that.)
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let arr = v
            .as_array()
            .ok_or_else(|| DeError::expected("an array", v))?;
        arr.iter()
            .enumerate()
            .map(|(i, item)| T::from_value(item).map_err(|e| e.in_index(i)))
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DeError::new(format!("expected an array of {N} elements, found {len}")))
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("an object", v))?;
        obj.iter()
            .map(|(k, item)| {
                V::from_value(item)
                    .map(|val| (k.to_owned(), val))
                    .map_err(|e| e.in_field(k))
            })
            .collect()
    }
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort the (unordered) hash map's keys.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for std::collections::HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("an object", v))?;
        obj.iter()
            .map(|(k, item)| {
                V::from_value(item)
                    .map(|val| (k.to_owned(), val))
                    .map_err(|e| e.in_field(k))
            })
            .collect()
    }
}

macro_rules! tuple {
    ($len:literal: $($name:ident . $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = de::as_tuple(v, $len)?;
                Ok(($(
                    $name::from_value(&items[$idx]).map_err(|e| e.in_index($idx))?,
                )+))
            }
        }
    };
}

tuple!(1: A.0);
tuple!(2: A.0, B.1);
tuple!(3: A.0, B.1, C.2);
tuple!(4: A.0, B.1, C.2, D.3);
tuple!(5: A.0, B.1, C.2, D.3, E.4);
tuple!(6: A.0, B.1, C.2, D.3, E.4, F.5);

// Value itself round-trips through the traits, so generic code can ask
// for "raw JSON" fields.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(x: T)
    where
        T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
    {
        let v = x.to_value();
        assert_eq!(T::from_value(&v).unwrap(), x);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(42u32);
        round_trip(-7i64);
        round_trip(3.25f64);
        round_trip(true);
        round_trip("hello".to_owned());
        round_trip('x');
        round_trip(57_600_000u64);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip([4u32, 5, 6]);
        round_trip(Some(8u8));
        round_trip(Option::<u8>::None);
        round_trip(("a".to_owned(), 2u32));
        round_trip(
            [("k".to_owned(), 1u32)]
                .into_iter()
                .collect::<std::collections::BTreeMap<_, _>>(),
        );
    }

    #[test]
    fn float_bits_survive() {
        let v = 2.5e-13f64;
        let val = v.to_value();
        assert_eq!(f64::from_value(&val).unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn integer_range_checked() {
        let v = Value::Number(Number::from_i64(300));
        let err = u8::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn vec_error_carries_index() {
        let v = Value::Array(vec![
            Value::Number(Number::from_i64(1)),
            Value::String("two".into()),
        ]);
        let err = Vec::<u32>::from_value(&v).unwrap_err();
        assert_eq!(err.path(), "[1]");
        assert!(err.to_string().contains("\"two\""), "{err}");
    }

    #[test]
    fn fixed_array_length_checked() {
        let v = Value::Array(vec![Value::Number(Number::from_i64(1))]);
        let err = <[u32; 3]>::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("3 elements"), "{err}");
    }

    #[test]
    fn option_maps_null() {
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::None.to_value(), Value::Null);
    }
}
