//! Timestamp allocation.
//!
//! Wound-Wait (and therefore Bamboo) assigns each transaction a unique,
//! monotonically increasing timestamp; smaller timestamp = higher priority
//! (paper §2.1). Optimization 4 (§3.5, Algorithm 3) defers assignment until
//! the transaction's *first conflict*: a transaction starts `UNASSIGNED` and
//! the conflict site assigns timestamps to every transaction in the tuple's
//! lists (in list order) and then to the incoming transaction, all through
//! compare-and-swap so concurrent assignment sites agree.

use crate::sync::atomic::{AtomicU64, Ordering};

use crate::sync::CachePadded;

/// Sentinel for "no timestamp assigned yet" (Optimization 4). Sorts after
/// every assigned timestamp, i.e. unassigned transactions have the lowest
/// priority and are wounded first — they have done no conflicting work yet.
pub const UNASSIGNED: u64 = u64::MAX;

/// Global monotonic timestamp source. The counter is cache-padded: it is
/// hammered by every conflicting transaction's first-conflict assignment
/// and must not false-share with the database's other hot counters.
#[derive(Debug)]
pub struct TsSource {
    next: CachePadded<AtomicU64>,
}

impl TsSource {
    /// Creates a source starting at 1 (0 is reserved so that "smallest
    /// possible timestamp" comparisons never collide with a real value).
    pub fn new() -> Self {
        TsSource {
            next: CachePadded::new(AtomicU64::new(1)),
        }
    }

    /// Draws the next unique timestamp.
    #[inline]
    pub fn assign(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

impl Default for TsSource {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn timestamps_are_unique_and_increasing() {
        let s = TsSource::new();
        let a = s.assign();
        let b = s.assign();
        assert!(a < b);
        assert!(b < UNASSIGNED);
    }

    #[test]
    fn concurrent_assignment_is_unique() {
        let s = Arc::new(TsSource::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || (0..1000).map(|_| s.assign()).collect::<Vec<_>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }
}
