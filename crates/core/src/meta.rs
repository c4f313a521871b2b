//! Per-tuple concurrency-control metadata.
//!
//! Every [`bamboo_storage::Tuple`] in a [`crate::Database`] carries one
//! [`TupleCc`]: the 2PL-family lock entry (with Bamboo's `retired` list,
//! whose writers carry their dirty versions), Silo's TID word, and IC3's
//! accessor list. Keeping all three in one struct lets every protocol run
//! against the same loaded database, which is how DBx1000's "pluggable lock
//! manager" comparison works (paper §5.1).

use crate::sync::atomic::AtomicU64;

use parking_lot::Mutex;

use crate::lock::LockState;
use crate::protocol::ic3::Ic3TupleState;

/// Concurrency-control state attached to each tuple.
pub struct TupleCc {
    /// 2PL-family lock entry: `concat(retired, owners)` as one list (a
    /// retired writer's entry carries its dirty version) and the waiters.
    pub lock: Mutex<LockState>,
    /// Silo TID word: bit 0 = lock bit, bits 1.. = version number.
    pub tid: AtomicU64,
    /// IC3 accessor list.
    pub ic3: Mutex<Ic3TupleState>,
}

impl Default for TupleCc {
    fn default() -> Self {
        TupleCc {
            lock: Mutex::new(LockState::default()),
            tid: AtomicU64::new(0),
            ic3: Mutex::new(Ic3TupleState::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_storage::Tuple;

    /// Every tuple is one `Arc` allocation: a 16-byte refcount header plus
    /// the `Tuple`. glibc's malloc serves a request from a chunk of
    /// `request + 8` bytes rounded up to 16, so 16 + 216 = 232 B takes a
    /// 240-byte chunk, where 16 + 232 = 248 B (the size before rows became
    /// `Arc<[Value]>` and the version chain dropped its remembered
    /// watermark) took 256. Those 16 bytes per tuple pay for the refcount
    /// header each committed row image now carries, and keep the loaded
    /// database's resident size where it was.
    #[test]
    fn a_tuple_fits_a_240_byte_malloc_chunk() {
        let size = std::mem::size_of::<Tuple<TupleCc>>();
        assert!(size <= 216, "Tuple<TupleCc> is {size} B");
    }
}
