//! Concurrency utilities shared by the commit pipeline — and the **single
//! atomics façade** for the whole workspace.
//!
//! [`CachePadded`] keeps hot atomics on private cache lines: the commit
//! clock's ring slots, the timestamp/TID sources, and the executor's
//! per-worker stats slots are all written from different threads at high
//! rates, and two of them sharing a line turns independent writes into
//! coherence ping-pong (false sharing).
//!
//! # The atomics façade
//!
//! All non-test code in this workspace imports its atomic types from
//! [`atomic`] and its fences from [`fence`], never from `std::sync`
//! directly (`bamboo_check` rule `std-sync` enforces this). Normally the
//! module simply re-exports `std::sync::atomic`; compiled with
//! `--cfg bamboo_model` it re-exports the `interleave` model checker's
//! types instead, so the `cfg(bamboo_model)` test suite can exhaustively
//! explore thread interleavings (with TSO store-buffer semantics) of the
//! commit clock, the snapshot registry and the cross-partition commit
//! path. See CONCURRENCY.md at the workspace root.

use std::ops::{Deref, DerefMut};

/// Atomic types: `std::sync::atomic` normally, the `interleave` model
/// checker's equivalents under `cfg(bamboo_model)`. [`atomic::Ordering`]
/// is always the real `std` enum.
pub mod atomic {
    #[cfg(not(bamboo_model))]
    pub use std::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    #[cfg(bamboo_model)]
    pub use interleave::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Memory fence: `std::sync::atomic::fence` normally, the model checker's
/// store-buffer-draining fence under `cfg(bamboo_model)`.
#[inline]
pub fn fence(order: atomic::Ordering) {
    #[cfg(not(bamboo_model))]
    std::sync::atomic::fence(order);
    #[cfg(bamboo_model)]
    interleave::sync::fence(order);
}

/// One round of waiting for another thread to finish something it has
/// started (a commit between `allocate` and `finish`): a pause-hinted spin
/// for the first 32 rounds, then a yield of the CPU, because on an
/// oversubscribed machine the thread waited for cannot finish until it
/// runs again. Under `cfg(bamboo_model)` every round is a scheduling point
/// that runs another thread first.
#[inline]
pub(crate) fn wait_round(rounds: &mut u32) {
    *rounds += 1;
    #[cfg(bamboo_model)]
    interleave::thread::yield_now();
    #[cfg(not(bamboo_model))]
    if *rounds < 32 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Pads and aligns `T` to 128 bytes — two 64-byte lines, covering the
/// spatial prefetcher's adjacent-line pulls on x86 (the same sizing
/// crossbeam's `CachePadded` uses on that family).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value`.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// Blocking lock acquisitions (`Mutex::lock`, `RwLock::read`/`write`,
/// successful `try_lock`s) performed by the *calling thread* since it
/// started.
///
/// The counter lives in the vendored `parking_lot` shim, so it observes
/// every lock in the workspace (`bamboo_storage`'s tuple latches included).
/// The commit-pipeline tests assert a delta of **zero** across the
/// steady-state hot paths (`CommitClock::allocate`/`finish`/`stable`,
/// snapshot register/release, `Session::snapshot` begin/commit) — the
/// lock-free claim as an executable check rather than a comment.
///
/// If the vendored shim is ever swapped for the real registry crate, this
/// function is the single seam to stub (return 0 and relax the `== 0`
/// assertions to "not asserted"); see ROADMAP "Vendored dependency shims".
#[inline]
pub fn thread_lock_acquisitions() -> u64 {
    parking_lot::diag::thread_acquisitions()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 128);
        let mut p = CachePadded::new(7u64);
        *p += 1;
        assert_eq!(*p, 8);
        assert_eq!(p.into_inner(), 8);
    }

    #[test]
    fn lock_counter_counts_this_thread_only() {
        let before = thread_lock_acquisitions();
        let m = parking_lot::Mutex::new(0u64);
        *m.lock() += 1;
        drop(m.lock());
        let l = parking_lot::RwLock::new(0u64);
        drop(l.read());
        drop(l.write());
        assert_eq!(thread_lock_acquisitions() - before, 4);
        // Another thread's locks do not land on our counter.
        let t_before = thread_lock_acquisitions();
        std::thread::spawn(|| {
            let m = parking_lot::Mutex::new(());
            drop(m.lock());
        })
        .join()
        .unwrap();
        assert_eq!(thread_lock_acquisitions(), t_before);
    }
}
