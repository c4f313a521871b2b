//! Per-tuple concurrency-control metadata.
//!
//! Every [`bamboo_storage::Tuple`] in a [`crate::Database`] carries one
//! [`TupleCc`]: the 2PL-family lock entry (with Bamboo's `retired` list,
//! whose writers carry their dirty versions), Silo's TID word, and IC3's
//! accessor list. Keeping all three in one struct lets every protocol run
//! against the same loaded database, which is how DBx1000's "pluggable lock
//! manager" comparison works (paper §5.1). IC3's part is allocated by the
//! first IC3 access, so a tuple no IC3 transaction touches pays 16 bytes
//! for it, not the state itself.

use std::sync::OnceLock;

use crate::sync::atomic::AtomicU64;

use parking_lot::{Mutex, MutexGuard};

use crate::lock::LockState;
use crate::protocol::ic3::Ic3TupleState;

/// Concurrency-control state attached to each tuple.
#[derive(Default)]
pub struct TupleCc {
    /// 2PL-family lock entry: `concat(retired, owners, waiters)` as one
    /// list (a retired writer's entry carries its dirty version).
    pub lock: Mutex<LockState>,
    /// Silo TID word: bit 0 = lock bit, bits 1.. = version number.
    pub tid: AtomicU64,
    /// IC3 accessor list, allocated on first use.
    pub ic3: Ic3Cell,
}

/// IC3's per-tuple state behind a cell that allocates it on first use.
/// The 2PL family and Silo never touch it, so their tuples carry an empty
/// cell instead of IC3's 64-byte latch, accessor list and version chain.
#[derive(Default)]
pub struct Ic3Cell(OnceLock<Box<Mutex<Ic3TupleState>>>);

impl Ic3Cell {
    /// Latches the tuple's IC3 state, allocating it if no IC3 transaction
    /// has touched the tuple yet.
    pub fn lock(&self) -> MutexGuard<'_, Ic3TupleState> {
        self.0.get_or_init(Box::default).lock()
    }

    /// True once an IC3 transaction has touched the tuple.
    pub fn is_allocated(&self) -> bool {
        self.0.get().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_storage::Tuple;

    /// Every tuple is one `Arc` allocation: a 16-byte refcount header plus
    /// the `Tuple`. glibc's malloc serves a request from a chunk of
    /// `request + 8` bytes rounded up to 16, so 16 + 136 = 152 B takes a
    /// 160-byte chunk, and 8 bytes more would take a 176-byte one: one
    /// more line for `Table::prefetch` to fetch. The tuple's lines
    /// are only the first level `Txn::prefetch` loads: the lock list's
    /// buffer and the newest row image are allocations of their own,
    /// which its second pass loads, so neither needs to move inline to
    /// avoid a miss.
    #[test]
    fn a_tuple_fits_a_160_byte_malloc_chunk() {
        let size = std::mem::size_of::<Tuple<TupleCc>>();
        assert!(size <= 136, "Tuple<TupleCc> is {size} B");
    }

    #[test]
    fn the_ic3_cell_allocates_on_first_lock() {
        let cell = Ic3Cell::default();
        assert_eq!(std::mem::size_of::<Ic3Cell>(), 16);
        assert!(!cell.is_allocated());
        assert!(cell.lock().is_quiescent());
        assert!(cell.is_allocated());
    }
}
