//! Offline stand-in for `serde` (API subset).
//!
//! The real serde routes through a visitor-based data model; this shim
//! renders straight into a JSON-ish [`Value`] tree. The derive macro
//! (from the sibling `serde_derive` shim) targets [`Serialize`], so
//! `#[derive(Serialize)]` plus [`json::to_string`] render any
//! non-generic struct/enum in the workspace. Reading goes the untyped
//! way: [`json::parse_value`] into a [`Value`] tree.

pub use serde_derive::Serialize;

pub mod json;

/// A JSON-shaped value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (u64 range preserved exactly).
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Ordered array.
    Array(Vec<Value>),
    /// Ordered key/value map (insertion order preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up an object field.
    ///
    /// # Errors
    /// Not an object, or the field is absent.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::custom(format!("missing field `{name}`"))),
            other => Err(Error::custom(format!(
                "expected object with field `{name}`, found {other:?}"
            ))),
        }
    }

    /// Look up an array element.
    ///
    /// # Errors
    /// Not an array, or the index is out of range.
    pub fn index(&self, i: usize) -> Result<&Value, Error> {
        match self {
            Value::Array(items) => items
                .get(i)
                .ok_or_else(|| Error::custom(format!("missing array element {i}"))),
            other => Err(Error::custom(format!("expected array, found {other:?}"))),
        }
    }
}

/// Serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Build an error from a message.
    pub fn custom(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Render `self` into a [`Value`] tree.
pub trait Serialize {
    /// The value tree representation.
    fn to_value(&self) -> Value;
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as i64;
                if wide >= 0 { Value::U64(wide as u64) } else { Value::I64(wide) }
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
    )*};
}
impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )+};
}
impl_serde_tuple!((0 A), (0 A, 1 B), (0 A, 1 B, 2 C), (0 A, 1 B, 2 C, 3 D));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let text_round_trip = |v: &dyn Serialize| {
            let parsed = json::parse_value(&json::to_string(v)).unwrap();
            assert_eq!(parsed, v.to_value());
        };
        for v in [0u64, 1, u64::MAX] {
            text_round_trip(&v);
        }
        text_round_trip(&-5i32);
        text_round_trip(&true);
        text_round_trip(&vec![1u32, 2, 3]);
        text_round_trip(&None::<u32>);
        text_round_trip(&(7u8, "seven", 0.5f64));
    }

    #[test]
    fn field_lookup_reports_missing() {
        let obj = Value::Object(vec![("a".into(), Value::U64(1))]);
        assert!(obj.field("a").is_ok());
        assert!(obj.field("b").is_err());
        assert!(Value::Null.field("a").is_err());
    }
}
