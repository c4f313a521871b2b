//! Cell values. DBx1000 stores raw fixed-width bytes; we use a small tagged
//! enum instead, which keeps the workload code readable while staying cheap
//! to copy for the protocol-managed local read/write copies (paper §3.5,
//! Optimization 1 keeps "a local copy for every new read").

use std::fmt;
use std::sync::Arc;

/// A single column value.
///
/// Strings are reference-counted, and so is the whole [`crate::Row`] that
/// holds them: a transaction's local copy of a row (which Bamboo keeps for
/// *every* read) is one refcount bump, not a byte copy. A row is copied
/// value by value only when it is about to be written — an exclusive grant,
/// or the first `set` on a shared image — and then each string column
/// costs a pointer bump rather than a byte copy, the same cost profile as
/// DBx1000's pointer-sized column copies.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned 64-bit integer (also used for encoded composite keys).
    U64(u64),
    /// Signed 64-bit integer (balances, quantities).
    I64(i64),
    /// 64-bit float (TPC-C amounts, tax rates).
    F64(f64),
    /// Immutable shared string (names, payload fields).
    Str(Arc<str>),
}

impl Value {
    /// Returns the inner `u64`, panicking on type mismatch.
    ///
    /// The workloads always know their schema statically, so a mismatch is a
    /// programming error, not a runtime condition.
    #[inline]
    pub fn as_u64(&self) -> u64 {
        match self {
            Value::U64(v) => *v,
            other => panic!("expected U64, found {other:?}"),
        }
    }

    /// Returns the inner `i64`, panicking on type mismatch.
    #[inline]
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(v) => *v,
            other => panic!("expected I64, found {other:?}"),
        }
    }

    /// Returns the inner `f64`, panicking on type mismatch.
    #[inline]
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(v) => *v,
            other => panic!("expected F64, found {other:?}"),
        }
    }

    /// Returns the inner string slice, panicking on type mismatch.
    #[inline]
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, found {other:?}"),
        }
    }

    /// The [`crate::DataType`] tag of this value.
    #[inline]
    pub fn data_type(&self) -> crate::DataType {
        match self {
            Value::U64(_) => crate::DataType::U64,
            Value::I64(_) => crate::DataType::I64,
            Value::F64(_) => crate::DataType::F64,
            Value::Str(_) => crate::DataType::Str,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::from(7u64).as_u64(), 7);
        assert_eq!(Value::from(-7i64).as_i64(), -7);
        assert_eq!(Value::from(1.5f64).as_f64(), 1.5);
        assert_eq!(Value::from("abc").as_str(), "abc");
    }

    #[test]
    #[should_panic(expected = "expected U64")]
    fn type_mismatch_panics() {
        Value::from("abc").as_u64();
    }

    #[test]
    fn string_clone_is_shared() {
        let a = Value::from("payload");
        let b = a.clone();
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn data_type_tags() {
        assert_eq!(Value::from(1u64).data_type(), crate::DataType::U64);
        assert_eq!(Value::from(1i64).data_type(), crate::DataType::I64);
        assert_eq!(Value::from(1.0f64).data_type(), crate::DataType::F64);
        assert_eq!(Value::from("x").data_type(), crate::DataType::Str);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::from(3u64).to_string(), "3");
        assert_eq!(Value::from("hi").to_string(), "hi");
    }
}
