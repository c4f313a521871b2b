//! Physical rows. A [`Row`] is a copy-on-write handle on an immutable
//! image of [`Value`]s: cloning it bumps a refcount, and the first
//! [`Row::set`] on a shared image copies it once, so the writer gets a
//! private image and every other holder keeps the one it had.
//!
//! That is how the paper's local copies are kept (§3.2.2: "a local copy of
//! the tuple for each read request"; a retiring write publishes its
//! image). A read, a retire and a commit install hand the same image along
//! instead of copying it; a write pays for its copy at its first `set`, or
//! up front through [`Row::detach`].

use std::sync::Arc;

use crate::value::Value;

/// A row: one [`Value`] per schema column, shared until written.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Creates a row from column values.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into(),
        }
    }

    /// A private copy of this row's image that shares no storage with it,
    /// built in one allocation. Its first [`Row::set`] then writes in place
    /// instead of copying a shared image — and never touches the refcount
    /// of the image it came from.
    pub fn detach(&self) -> Row {
        self.values.iter().cloned().collect()
    }

    /// True when both rows hold the same image (not merely equal values).
    #[inline]
    pub fn ptr_eq(a: &Row, b: &Row) -> bool {
        Arc::ptr_eq(&a.values, &b.values)
    }

    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the row has no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow column `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Replace column `idx`. Copies the image first if another [`Row`]
    /// shares it, so no other holder sees the write.
    #[inline]
    pub fn set(&mut self, idx: usize, v: Value) {
        Arc::make_mut(&mut self.values)[idx] = v;
    }

    /// Column `idx` as `u64` (panics on type mismatch).
    #[inline]
    pub fn get_u64(&self, idx: usize) -> u64 {
        self.values[idx].as_u64()
    }

    /// Column `idx` as `i64` (panics on type mismatch).
    #[inline]
    pub fn get_i64(&self, idx: usize) -> i64 {
        self.values[idx].as_i64()
    }

    /// Column `idx` as `f64` (panics on type mismatch).
    #[inline]
    pub fn get_f64(&self, idx: usize) -> f64 {
        self.values[idx].as_f64()
    }

    /// Column `idx` as `&str` (panics on type mismatch).
    #[inline]
    pub fn get_str(&self, idx: usize) -> &str {
        self.values[idx].as_str()
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The shared image itself, for the table's cache hint.
    #[inline]
    pub(crate) fn image(&self) -> &Arc<[Value]> {
        &self.values
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Collects straight into the shared image: one allocation when the
/// iterator knows its exact length (a slice's, a `Range` mapped), where
/// [`Row::new`] moves a finished `Vec` into a second one.
impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut r = Row::from(vec![Value::U64(1), Value::I64(-2), Value::from("x")]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.get_u64(0), 1);
        assert_eq!(r.get_i64(1), -2);
        assert_eq!(r.get_str(2), "x");
        r.set(1, Value::I64(10));
        assert_eq!(r.get_i64(1), 10);
    }

    #[test]
    fn clone_shares_until_set_and_the_original_keeps_its_values() {
        let r = Row::from(vec![Value::I64(1), Value::from("s")]);
        let mut c = r.clone();
        assert!(Row::ptr_eq(&r, &c), "a clone is the same image");
        c.set(0, Value::I64(2));
        assert!(!Row::ptr_eq(&r, &c), "the first set copies");
        assert_eq!(r.get_i64(0), 1);
        assert_eq!(c.get_i64(0), 2);
        // The copy is the writer's own now: a second set writes in place.
        let before = c.values().as_ptr();
        c.set(0, Value::I64(3));
        assert_eq!(c.values().as_ptr(), before);
        assert_eq!(r.get_i64(0), 1);
    }

    #[test]
    fn detach_shares_nothing() {
        let r = Row::from(vec![Value::I64(1), Value::from("s")]);
        let mut d = r.detach();
        assert_eq!(d, r);
        assert!(!Row::ptr_eq(&r, &d));
        let before = d.values().as_ptr();
        d.set(0, Value::I64(2));
        assert_eq!(d.values().as_ptr(), before, "a detached row is private");
        assert_eq!(r.get_i64(0), 1);
    }

    #[test]
    fn empty_row() {
        let r = Row::default();
        assert!(r.is_empty());
        assert_eq!(r.values(), &[]);
    }

    /// A row handle is a fat pointer. It sits in every version of every
    /// tuple and in every access of every transaction.
    #[test]
    fn row_is_two_words() {
        assert_eq!(std::mem::size_of::<Row>(), 16);
    }
}
