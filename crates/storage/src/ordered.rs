//! Ordered (range) index.
//!
//! Bamboo inherits 2PL's phantom protection: "next-key locking in indexes;
//! this technique achieves the same effect as predicate locking but is more
//! widely used in practice" (paper §3.4). The hash indexes cannot answer
//! range queries, so scans go through this ordered index; the
//! concurrency-control layer locks each scanned key *plus the next existing
//! key past the range end*, and inserts lock their successor — blocking
//! phantoms exactly like ARIES/KVL.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use parking_lot::RwLock;

/// An ordered set of a table's primary keys. A key resolves to its tuple
/// through the table's primary-key index, like any other posting.
pub struct OrderedIndex {
    keys: RwLock<BTreeSet<u64>>,
}

impl OrderedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        OrderedIndex {
            keys: RwLock::new(BTreeSet::new()),
        }
    }

    /// Adds `key`; returns false when it was already present.
    pub fn insert(&self, key: u64) -> bool {
        self.keys.write().insert(key)
    }

    /// Every key within the inclusive range, in key order.
    pub fn range(&self, r: RangeInclusive<u64>) -> Vec<u64> {
        self.keys.read().range(r).copied().collect()
    }

    /// The smallest existing key strictly greater than `key` (the
    /// *next key* of next-key locking).
    pub fn next_key_after(&self, key: u64) -> Option<u64> {
        let next = key.checked_add(1)?;
        self.keys.read().range(next..).next().copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.keys.read().is_empty()
    }
}

impl Default for OrderedIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> OrderedIndex {
        let i = OrderedIndex::new();
        for k in [10u64, 20, 30, 40] {
            i.insert(k);
        }
        i
    }

    #[test]
    fn range_scan_in_key_order() {
        let i = idx();
        assert_eq!(i.range(15..=35), vec![20, 30]);
        assert_eq!(i.range(10..=10), vec![10]);
        assert_eq!(i.range(41..=99), Vec::<u64>::new());
    }

    #[test]
    fn next_key_after_finds_successor() {
        let i = idx();
        assert_eq!(i.next_key_after(15), Some(20));
        assert_eq!(i.next_key_after(20), Some(30));
        assert_eq!(i.next_key_after(40), None);
        assert_eq!(i.next_key_after(0), Some(10));
    }

    #[test]
    fn insert_reports_duplicates() {
        let i = idx();
        assert!(i.insert(25));
        assert!(!i.insert(25));
        assert_eq!(i.range(20..=30), vec![20, 25, 30]);
        assert_eq!(i.len(), 5);
    }

    #[test]
    fn next_key_after_max_is_none() {
        let i = OrderedIndex::new();
        i.insert(u64::MAX);
        assert_eq!(i.next_key_after(u64::MAX), None);
    }

    #[test]
    fn concurrent_range_scans_race_interleaved_inserts() {
        // Two writers interleave inserts into disjoint key classes (even /
        // odd) while readers range-scan: every observed scan must be a
        // sorted, duplicate-free subset of the final key set, and within a
        // class the observed prefix must be contiguous (each writer inserts
        // its class in ascending order).
        use std::sync::Arc;
        let i = Arc::new(OrderedIndex::new());
        let writers: Vec<_> = [0u64, 1]
            .into_iter()
            .map(|parity| {
                let i = Arc::clone(&i);
                std::thread::spawn(move || {
                    for k in (parity..2000).step_by(2) {
                        i.insert(k);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let i = Arc::clone(&i);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let v = i.range(0..=1999);
                        assert!(
                            v.windows(2).all(|w| w[0] < w[1]),
                            "scan must be sorted and duplicate-free"
                        );
                        for parity in [0u64, 1] {
                            let class: Vec<u64> =
                                v.iter().copied().filter(|k| k % 2 == parity).collect();
                            assert!(
                                class.windows(2).all(|w| w[1] == w[0] + 2),
                                "per-writer inserts must appear as a contiguous prefix"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(i.len(), 2000);
        assert_eq!(i.range(0..=1999).len(), 2000);
    }

    #[test]
    fn next_key_after_races_inserts() {
        // A writer fills the gap between 10 and 1000 from the top down
        // while readers probe next_key_after(10): every answer must be the
        // lowest key inserted so far, so it never rises and never leaves
        // the gap's legal successors.
        use std::sync::Arc;
        let i = Arc::new(OrderedIndex::new());
        i.insert(10);
        i.insert(1000);
        let writer = {
            let i = Arc::clone(&i);
            std::thread::spawn(move || {
                for k in (11..1000).rev() {
                    i.insert(k);
                }
            })
        };
        let mut last = 1000;
        for _ in 0..20_000 {
            let next = i.next_key_after(10).expect("1000 is always a successor");
            assert!(
                (11..=last).contains(&next),
                "next_key_after saw {next} after {last}"
            );
            last = next;
            assert_eq!(i.next_key_after(1000), None);
        }
        writer.join().unwrap();
        assert_eq!(i.next_key_after(10), Some(11));
    }

    #[test]
    fn concurrent_insert_and_scan() {
        use std::sync::Arc;
        let i = Arc::new(OrderedIndex::new());
        let w = {
            let i = Arc::clone(&i);
            std::thread::spawn(move || {
                for k in 0..1000u64 {
                    i.insert(k);
                }
            })
        };
        let r = {
            let i = Arc::clone(&i);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    let v = i.range(0..=999);
                    // Sorted at every instant.
                    assert!(v.windows(2).all(|w| w[0] < w[1]));
                }
            })
        };
        w.join().unwrap();
        r.join().unwrap();
        assert_eq!(i.len(), 1000);
    }
}
