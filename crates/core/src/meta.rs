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
