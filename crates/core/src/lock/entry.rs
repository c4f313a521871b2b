//! The per-tuple lock entry state machine (Algorithms 1–3 of the paper).
//!
//! # Invariants
//!
//! [`LockState`] stores the paper's three lists as one vector,
//! `concat(retired, owners, waiters)`, cut by two boundaries:
//! `list[..retired]` is the `retired` list, `list[retired..granted]` the
//! `owners` in grant order and `list[granted..]` the `waiters` in priority
//! order. The *granted prefix* `list[..granted]` is the paper's
//! `concat(retired, owners)`. The invariants maintained under the tuple
//! latch are stated over it:
//!
//! 1. `list[..retired]` is sorted by priority `(ts, id)` — the paper's
//!    "sorted based on the timestamps of transactions in it" — for every
//!    two entries that conflict. Only a run of mutually compatible entries
//!    can fall out of order, and only under Optimization 4: entries placed
//!    without a timestamp sort last by id, and may then be assigned one
//!    elsewhere in the other order. Every conflicting request assigns
//!    everyone a timestamp and sorts the list before it places anything.
//! 2. `list[retired..granted]` never contains two conflicting *live*
//!    entries (wounded leftovers may conflict until their owner thread
//!    releases them).
//! 3. The dirty versions are the `dirty` fields of `list[..retired]` —
//!    `Some` exactly on the retired exclusive entries — hence sorted by
//!    writer priority by invariant 1; a transaction with priority `p` reads
//!    the latest version with priority `< p`, falling back to the committed
//!    row. Combined with (1) this makes every dirty-read dependency point
//!    from an older to a younger transaction, which is why the
//!    commit-semaphore graph cannot deadlock.
//! 4. `counted` pairing: an entry's flag is true iff the tuple currently
//!    contributes +1 to its transaction's `commit_semaphore`, and it is
//!    true iff the entry is granted and a *conflicting predecessor* exists
//!    in the granted prefix. Every mutation (insert, retire-move,
//!    promotion, removal) re-establishes this locally, so increments and
//!    decrements always pair up exactly.
//!
//! A waiter is in none of them: it carries no version and is never
//! counted. A promotion moves the `granted` boundary over the queue head
//! (a read retiring on grant is rotated into its sorted place first), so a
//! request's entry — and the one handle clone it was made with — lives
//! from its enqueue to its release.
//!
//! Invariant 4 generalizes the head-departure rule of Algorithm 2 (lines
//! 19–21): for departures of the head it reduces to "notify the leading
//! non-conflicting transactions", and it also covers mid-list departures
//! (wounded readers, cancelled waiters) that the pseudocode leaves
//! implicit.

use std::sync::Arc;

use bamboo_storage::{Row, Tuple};

use crate::meta::TupleCc;
use crate::ts::TsSource;
use crate::txn::{AbortReason, LockMode, TxnShared, TxnStatus};

/// Which deadlock-handling flavour of 2PL the lock table runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockVariant {
    /// Wound-Wait: requesters abort younger conflicting holders and wait
    /// for older ones. Bamboo is built on this variant (§2.1, §3.2).
    WoundWait,
    /// Wait-Die: requesters older than every live conflicting entry
    /// (holder or waiter) wait; younger requesters self-abort.
    WaitDie,
    /// No-Wait: any conflict self-aborts the requester.
    NoWait,
}

/// Lock-table behaviour knobs (the protocol layer owns the δ heuristic of
/// Optimization 2; everything list-structural lives here).
#[derive(Clone, Copy, Debug)]
pub struct LockPolicy {
    /// Deadlock-handling variant.
    pub variant: LockVariant,
    /// Optimization 1: granted shared locks go straight to `retired`
    /// ("read operations retire automatically in LockAcquire()").
    pub retire_reads: bool,
    /// Optimization 3: shared requests never wound; when no conflicting
    /// exclusive entry with a *smaller* priority sits in `owners`/`waiters`,
    /// the reader slots directly into `retired` and reads the latest dirty
    /// version older than itself.
    pub no_raw_abort: bool,
    /// Optimization 4: assign timestamps on first conflict (Algorithm 3).
    pub dynamic_ts: bool,
}

impl LockPolicy {
    /// Full Bamboo: Wound-Wait + all list-level optimizations.
    pub fn bamboo() -> Self {
        LockPolicy {
            variant: LockVariant::WoundWait,
            retire_reads: true,
            no_raw_abort: true,
            dynamic_ts: true,
        }
    }

    /// A 2PL baseline: no retiring at any level; reads hold shared
    /// ownership until release.
    fn baseline(variant: LockVariant) -> Self {
        LockPolicy {
            variant,
            retire_reads: false,
            no_raw_abort: false,
            dynamic_ts: false,
        }
    }

    /// Plain Wound-Wait (the paper's WOUND_WAIT baseline).
    pub fn wound_wait() -> Self {
        Self::baseline(LockVariant::WoundWait)
    }

    /// Wait-Die baseline.
    pub fn wait_die() -> Self {
        Self::baseline(LockVariant::WaitDie)
    }

    /// No-Wait baseline.
    pub fn no_wait() -> Self {
        Self::baseline(LockVariant::NoWait)
    }
}

/// The copy of `row` a grant in `mode` hands its transaction. A shared grant
/// shares the image. An exclusive grant gets a private copy
/// ([`Row::detach`]), made under the tuple latch: its owner's first `set`
/// then writes in place, instead of cloning the hot image and later
/// dropping that reference — two writes to the image's refcount line, which
/// the next writer on the other core would have to pull back.
fn grant_copy(row: &Row, mode: LockMode) -> Row {
    match mode {
        LockMode::Sh => row.clone(),
        LockMode::Ex => row.detach(),
    }
}

/// One entry of `list`: a retired, owning or waiting transaction.
struct Ent {
    txn: Arc<TxnShared>,
    mode: LockMode,
    /// Invariant 4: whether this tuple holds +1 in `txn.commit_semaphore`.
    counted: bool,
    /// Invariant 3: the uncommitted row this entry published when it
    /// retired (the dirty data other transactions may read). Boxed: every
    /// grant writes an `Ent` and every release reads one back, retired or
    /// not, so the entry stays 24 bytes. Inline it cost Wound-Wait 4 % per
    /// transaction while a row was a 24-byte vector (`Ent` 40 B), and
    /// gained nothing on `hotspot` or `hotspot_ww` once a row became a
    /// 16-byte handle (`Ent` 32 B) — see EXPERIMENTS.md.
    dirty: Option<Box<Row>>,
}

impl Ent {
    /// A fresh request's entry: not counted, no version.
    fn new(txn: Arc<TxnShared>, mode: LockMode) -> Self {
        Ent {
            txn,
            mode,
            counted: false,
            dirty: None,
        }
    }

    /// Computed live from the transaction handle because dynamic timestamp
    /// assignment (Optimization 4) may assign the timestamp *after* the
    /// entry was granted or retired.
    #[inline]
    fn prio(&self) -> (u64, u64) {
        self.txn.prio()
    }
}

/// Result of [`LockState::acquire`].
pub enum Acquired {
    /// Lock granted; `row` is the image this transaction should operate on
    /// (latest visible dirty version or the committed row), and `retired`
    /// says whether the entry went straight into the retired list
    /// (Optimizations 1/3).
    Granted {
        /// Image to copy into the transaction's local working set.
        row: Row,
        /// True when the entry was placed in `retired` rather than `owners`.
        retired: bool,
    },
    /// Enqueued in `waiters`; park on the transaction condvar and poll
    /// [`LockState::check_granted`].
    Wait,
    /// The policy says the requester must self-abort (Wait-Die / No-Wait).
    Die(AbortReason),
}

/// The commit-time install a releasing writer hands to
/// [`LockState::release`]: the final row image becomes a new committed
/// version on the tuple's [`bamboo_storage::VersionChain`], tagged with the
/// transaction's commit timestamp, with versions below `watermark` eagerly
/// reclaimed.
pub struct CommitInstall<'a> {
    /// The tuple being written.
    pub tuple: &'a Tuple<TupleCc>,
    /// The final committed image.
    pub row: &'a Row,
    /// The writer's commit timestamp. 0 means "no MVCC context": the image
    /// overwrites the newest committed version in place instead of pushing
    /// a new chain entry (tests and layer probes) — pushing entries that no
    /// watermark will ever collect would leak versions.
    pub commit_ts: u64,
    /// GC watermark for the eager version-chain collection.
    pub watermark: u64,
}

impl<'a> CommitInstall<'a> {
    /// An install without MVCC context (tests and layer probes): overwrites
    /// in place, creating no version.
    pub fn untimed(tuple: &'a Tuple<TupleCc>, row: &'a Row) -> Self {
        CommitInstall {
            tuple,
            row,
            commit_ts: 0,
            watermark: 0,
        }
    }
}

/// Result of [`LockState::release`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReleaseOutcome {
    /// Number of transactions newly marked aborted by cascading (paper
    /// §4.2's "length of abort chain" metric counts these).
    pub cascaded: usize,
}

/// Result of [`LockState::cancel_wait`].
#[derive(Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// Entry removed from `waiters` (or was already gone).
    WasWaiting,
    /// The wait had actually been granted concurrently; the entry has been
    /// fully released instead.
    WasGranted,
}

/// Per-tuple lock state — Figure 2 of the paper.
#[derive(Default)]
pub struct LockState {
    /// `concat(retired, owners, waiters)`.
    list: Vec<Ent>,
    /// Boundary: `list[..retired]` is `retired`.
    retired: u32,
    /// Boundary: `list[retired..granted]` is `owners`, `list[granted..]`
    /// the `waiters`.
    granted: u32,
}

impl LockState {
    /// The paper's `retired` list.
    fn retired(&self) -> &[Ent] {
        &self.list[..self.retired_len()]
    }

    /// The paper's `owners` list.
    fn owners(&self) -> &[Ent] {
        &self.list[self.retired_len()..self.granted_len()]
    }

    /// The paper's `waiters` list.
    fn waiters(&self) -> &[Ent] {
        &self.list[self.granted_len()..]
    }

    /// Length of the granted prefix, `concat(retired, owners)`.
    #[inline]
    fn granted_len(&self) -> usize {
        self.granted as usize
    }

    // ------------------------------------------------------------------
    // Introspection helpers (tests, assertions, stats).
    // ------------------------------------------------------------------

    /// Number of entries in `owners`.
    pub fn owners_len(&self) -> usize {
        self.granted_len() - self.retired_len()
    }

    /// Number of entries in `waiters`.
    pub fn waiters_len(&self) -> usize {
        self.list.len() - self.granted_len()
    }

    /// Number of entries in `retired`.
    pub fn retired_len(&self) -> usize {
        self.retired as usize
    }

    /// Number of published uncommitted versions.
    pub fn versions_len(&self) -> usize {
        self.retired().iter().filter(|e| e.dirty.is_some()).count()
    }

    /// True when every list is empty (quiescent tuple).
    pub fn is_quiescent(&self) -> bool {
        self.list.is_empty()
    }

    /// Hints the CPU to load the list's buffer up to its capacity — the
    /// lines the next request's insert writes. A no-op on a buffer with no
    /// capacity; records nothing.
    #[inline]
    pub fn prefetch_list(&self) {
        let bytes = self.list.capacity() * std::mem::size_of::<Ent>();
        if bytes > 0 {
            bamboo_storage::table::prefetch_allocation(self.list.as_ptr().cast(), bytes);
        }
    }

    /// Debug-check of the structural invariants; used by tests and
    /// property tests.
    pub fn assert_invariants(&self) {
        assert!(
            self.retired <= self.granted && self.granted_len() <= self.list.len(),
            "boundaries out of order"
        );
        // retired sorted by priority. Stricter than invariant 1, which lets
        // a compatible run fall out of order between conflicting requests;
        // every state the tests check is fully sorted.
        for w in self.retired().windows(2) {
            assert!(w[0].prio() <= w[1].prio(), "retired list unsorted");
        }
        for (i, e) in self.list.iter().enumerate() {
            // a dirty version exactly on the retired writers.
            assert_eq!(
                e.dirty.is_some(),
                i < self.retired_len() && e.mode == LockMode::Ex,
                "dirty version misplaced at position {i} (txn {})",
                e.txn.id
            );
            // counted pairing: counted == granted with a conflicting
            // predecessor.
            assert_eq!(
                e.counted,
                i < self.granted_len() && self.has_conflicting_pred(i, e.mode),
                "counted flag mismatch at position {i} (txn {})",
                e.txn.id
            );
        }
        // live owners mutually compatible.
        for (i, a) in self.owners().iter().enumerate() {
            for b in &self.owners()[i + 1..] {
                if !a.txn.is_aborted() && !b.txn.is_aborted() {
                    assert!(
                        !a.mode.conflicts(b.mode),
                        "live conflicting owners {} and {}",
                        a.txn.id,
                        b.txn.id
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Internal helpers.
    // ------------------------------------------------------------------

    /// The image a grant in `mode` hands out: the latest dirty version with
    /// priority `< prio`, else the committed row (see [`grant_copy`]).
    fn visible_row(&self, tuple: &Tuple<TupleCc>, prio: (u64, u64), mode: LockMode) -> Row {
        match self
            .retired()
            .iter()
            .rev()
            .find_map(|e| e.dirty.as_deref().filter(|_| e.prio() < prio))
        {
            Some(dirty) => grant_copy(dirty, mode),
            None => tuple.with_row(|row| grant_copy(row, mode)),
        }
    }

    /// Position of `txn_id` in the granted prefix.
    fn find_entry(&self, txn_id: u64) -> Option<usize> {
        self.list[..self.granted_len()]
            .iter()
            .position(|e| e.txn.id == txn_id)
    }

    /// True when any entry before position `pos` conflicts with `mode`.
    fn has_conflicting_pred(&self, pos: usize, mode: LockMode) -> bool {
        self.list[..pos].iter().any(|e| e.mode.conflicts(mode))
    }

    /// Re-establishes invariant 4 for every granted entry at position
    /// `>= from` after an insertion, move or removal before them.
    fn recount_from(&mut self, from: usize) {
        for pos in from..self.granted_len() {
            let has_pred = self.has_conflicting_pred(pos, self.list[pos].mode);
            let e = &mut self.list[pos];
            if has_pred != e.counted {
                e.counted = has_pred;
                if has_pred {
                    e.txn.semaphore_inc();
                } else {
                    e.txn.semaphore_dec();
                }
            }
        }
    }

    /// Priority-sorted position for `prio` in `retired`.
    fn retired_pos(&self, prio: (u64, u64)) -> usize {
        self.retired().partition_point(|e| e.prio() <= prio)
    }

    /// Moves the entry at `from` (an owner or the queue head) to its
    /// priority-sorted position in `retired`, which it joins, and returns
    /// that position. The caller settles `counted` from it.
    fn move_to_retired(&mut self, from: usize) -> usize {
        let pos = self.retired_pos(self.list[from].prio());
        self.list[pos..=from].rotate_right(1);
        self.retired += 1;
        pos
    }

    /// Removes the granted entry at position `pos` (and with it the version
    /// it published) and re-settles successors' `counted` flags. The
    /// departing entry's own outstanding contribution is returned to its
    /// transaction's semaphore so pairing stays exact (only aborting
    /// transactions can still be counted here — a committing one must have
    /// drained to zero before its commit point).
    fn remove_entry(&mut self, pos: usize) {
        let ent = self.list.remove(pos);
        if pos < self.retired_len() {
            self.retired -= 1;
        }
        self.granted -= 1;
        if ent.counted {
            ent.txn.semaphore_dec();
        }
        self.recount_from(pos);
    }

    /// True when a conflicting retired entry is *committed but not yet
    /// released* and younger than `prio`. Such an entry's version is
    /// invisible to an older transaction under the timestamp rule, yet its
    /// commit is final — an older transaction slipping past it would base
    /// its work on a stale image (a lost update). It must wait out the
    /// (microseconds-long) release window instead. Wounding cannot help:
    /// the commit point already won the status CAS.
    fn committed_unreleased_blocks(&self, mode: LockMode, prio: (u64, u64)) -> bool {
        self.retired().iter().any(|e| {
            e.mode.conflicts(mode) && e.prio() > prio && e.txn.status() == TxnStatus::Committed
        })
    }

    /// Algorithm 2 `PromoteWaiters`: grant waiters in priority order until
    /// the first one that conflicts with current owners. Shared grants go
    /// straight to `retired` under Optimization 1. A grant moves the
    /// `granted` boundary over the queue head; the entry itself stays.
    fn promote_waiters(&mut self, pol: &LockPolicy) {
        loop {
            let head = self.granted_len();
            // Drop waiters that were aborted while queued so they cannot
            // block the queue behind them; their worker's cancel_wait will
            // find nothing, which is fine.
            while self.list.get(head).is_some_and(|w| w.txn.is_aborted()) {
                self.list.remove(head).txn.notify();
            }
            let Some(w) = self.list.get(head) else {
                return;
            };
            let mode = w.mode;
            if self.owners().iter().any(|o| o.mode.conflicts(mode)) {
                return;
            }
            if self.committed_unreleased_blocks(mode, w.prio()) {
                return;
            }
            let pos = if mode == LockMode::Sh && pol.retire_reads {
                self.move_to_retired(head)
            } else {
                head
            };
            self.granted += 1;
            self.recount_from(pos);
            self.list[pos].txn.notify();
        }
    }

    /// Algorithm 3: on conflict, assign timestamps to every queued
    /// transaction in list order, then to the requester. Then restore
    /// invariant 1 before anything is placed by priority: a retired entry
    /// placed here without a timestamp may have been assigned one
    /// elsewhere since, out of its order here.
    fn dynamic_assign(&mut self, txn: &Arc<TxnShared>, mode: LockMode, ts: &TsSource) {
        if !self.list.iter().any(|e| e.mode.conflicts(mode)) {
            return;
        }
        for e in &self.list {
            e.txn.assign_ts_if_unassigned(ts);
        }
        txn.assign_ts_if_unassigned(ts);
        // Only a run of readers can be out of order (invariant 1), so the
        // sort changes no entry's conflicting predecessors: `counted` holds.
        let retired = self.retired_len();
        if !self.list[..retired].is_sorted_by_key(Ent::prio) {
            self.list[..retired].sort_by_key(Ent::prio);
        }
        let head = self.granted_len();
        self.list[head..].sort_by_key(|w| w.prio());
    }

    /// Queues the request at its priority-sorted position among the
    /// waiters and grants what the queue head allows — possibly this very
    /// request. The entry made here is the request's only clone of `txn`:
    /// a grant moves the boundary, not the entry.
    fn enqueue(
        &mut self,
        tuple: &Tuple<TupleCc>,
        pol: &LockPolicy,
        txn: &Arc<TxnShared>,
        mode: LockMode,
    ) -> Acquired {
        let prio = txn.prio();
        let pos = self.granted_len() + self.waiters().partition_point(|w| w.prio() <= prio);
        self.list.insert(pos, Ent::new(Arc::clone(txn), mode));
        self.promote_waiters(pol);
        match self.check_granted(tuple, txn) {
            Some((row, retired)) => Acquired::Granted { row, retired },
            None => Acquired::Wait,
        }
    }

    // ------------------------------------------------------------------
    // Public protocol surface.
    // ------------------------------------------------------------------

    /// Algorithm 2 `LockAcquire`.
    pub fn acquire(
        &mut self,
        tuple: &Tuple<TupleCc>,
        pol: &LockPolicy,
        txn: &Arc<TxnShared>,
        mode: LockMode,
        ts: &TsSource,
    ) -> Acquired {
        debug_assert!(
            self.find_entry(txn.id).is_none(),
            "re-acquire must go through upgrade/write paths"
        );
        if pol.dynamic_ts {
            self.dynamic_assign(txn, mode, ts);
        }
        let prio = txn.prio();
        match pol.variant {
            LockVariant::NoWait => {
                if self.owners().iter().any(|e| mode.conflicts(e.mode)) {
                    return Acquired::Die(AbortReason::NoWait);
                }
                let pos = self.granted_len();
                self.list.insert(pos, Ent::new(Arc::clone(txn), mode));
                self.granted += 1;
                self.recount_from(pos);
                return Acquired::Granted {
                    row: tuple.with_row(|row| grant_copy(row, mode)),
                    retired: false,
                };
            }
            // Only an older transaction ever waits for a younger one, so
            // no wait closes a cycle. The request dies against any older
            // live entry it conflicts with, queued ones included; the
            // younger conflicting waiters it queues ahead of die, as they
            // would have had they arrived after it.
            LockVariant::WaitDie => {
                let live_conflict = |e: &Ent| mode.conflicts(e.mode) && !e.txn.is_aborted();
                if self
                    .list
                    .iter()
                    .any(|e| live_conflict(e) && e.prio() < prio)
                {
                    return Acquired::Die(AbortReason::WaitDie);
                }
                for w in self.waiters().iter().filter(|w| live_conflict(w)) {
                    w.txn.set_abort(AbortReason::WaitDie);
                }
            }
            // Optimization 3: a reader slots directly into `retired`
            // (reading the newest dirty version older than itself) unless a
            // conflicting exclusive entry with *higher priority* is in
            // owners or waiters — in that case skipping ahead would let
            // that older writer retire a version "before" us that we did
            // not read.
            LockVariant::WoundWait if mode == LockMode::Sh && pol.no_raw_abort => {
                let blocked = self.list[self.retired_len()..]
                    .iter()
                    .any(|e| e.mode == LockMode::Ex && e.prio() < prio && !e.txn.is_aborted())
                    || self.committed_unreleased_blocks(mode, prio);
                if !blocked {
                    let row = self.visible_row(tuple, prio, mode);
                    let pos = self.retired_pos(prio);
                    self.list.insert(pos, Ent::new(Arc::clone(txn), mode));
                    self.retired += 1;
                    self.granted += 1;
                    self.recount_from(pos);
                    return Acquired::Granted { row, retired: true };
                }
                // Blocked by an older writer: queue without wounding
                // (readers never wound under Optimization 3).
            }
            LockVariant::WoundWait => {
                // Algorithm 2 lines 2–7: scan concat(retired, owners); once
                // a conflict has been seen, wound every younger transaction.
                let mut has_conflicts = false;
                for e in &self.list[..self.granted_len()] {
                    if mode.conflicts(e.mode) {
                        has_conflicts = true;
                    }
                    if has_conflicts && prio < e.prio() {
                        e.txn.set_abort(AbortReason::Wounded);
                    }
                }
            }
        }
        self.enqueue(tuple, pol, txn, mode)
    }

    /// Polled by a parked waiter: returns the working image once granted.
    /// (`retired` mirrors [`Acquired::Granted::retired`].)
    pub fn check_granted(
        &self,
        tuple: &Tuple<TupleCc>,
        txn: &Arc<TxnShared>,
    ) -> Option<(Row, bool)> {
        let pos = self.find_entry(txn.id)?;
        let row = self.visible_row(tuple, txn.prio(), self.list[pos].mode);
        Some((row, pos < self.retired_len()))
    }

    /// Aborted while waiting: remove the queue entry. If a concurrent
    /// promotion had already granted the lock, fully release it instead.
    pub fn cancel_wait(&mut self, txn: &Arc<TxnShared>, pol: &LockPolicy) -> CancelOutcome {
        if let Some(i) = self.waiters().iter().position(|w| w.txn.id == txn.id) {
            self.list.remove(self.granted_len() + i);
            self.promote_waiters(pol);
            return CancelOutcome::WasWaiting;
        }
        if self.find_entry(txn.id).is_some() {
            // Granted concurrently with the wound: release as an abort
            // (no version could have been published — the worker never ran
            // with the lock).
            self.release(txn, pol, false, None);
            return CancelOutcome::WasGranted;
        }
        CancelOutcome::WasWaiting
    }

    /// Algorithm 2 `LockRetire`: publish the dirty row and move this
    /// exclusive owner to `retired`, making the version visible.
    pub fn retire(&mut self, txn: &Arc<TxnShared>, row: Row, pol: &LockPolicy) {
        let Some(i) = self.owners().iter().position(|e| e.txn.id == txn.id) else {
            panic!("retire: txn {} is not an owner", txn.id);
        };
        let from = self.retired_len() + i;
        let ent = &mut self.list[from];
        debug_assert_eq!(ent.mode, LockMode::Ex, "only writes retire here");
        ent.dirty = Some(Box::new(row));
        let pos = self.move_to_retired(from);
        // The entry's predecessor set changed (it may gain readers that
        // slotted in while it owned, or lose wounded younger leftovers that
        // now sit after it), and entries between its new and old positions
        // gained it as a predecessor — recount settles all of them,
        // including the moved entry itself.
        self.recount_from(pos);
        self.promote_waiters(pol);
    }

    /// Second write after retiring (paper §3.3: *"If a transaction writes a
    /// tuple for a second time after retiring the lock, it can still ensure
    /// serializability by simply aborting all transactions that have seen
    /// its first write"*), also used for SH→EX upgrades of a retired read.
    ///
    /// Aborts every successor, withdraws the published version, and moves
    /// the entry back to `owners` in exclusive mode. Returns the number of
    /// cascaded aborts.
    pub fn reacquire_ex(&mut self, txn: &Arc<TxnShared>) -> usize {
        let Some(i) = self.find_entry(txn.id) else {
            panic!("reacquire: txn {} has no entry", txn.id);
        };
        assert!(
            i < self.retired_len(),
            "reacquire only applies to retired entries"
        );
        let granted = self.granted_len();
        let mut cascaded = 0;
        for e in &self.list[i + 1..granted] {
            if e.txn.set_abort(AbortReason::Cascade) {
                cascaded += 1;
            }
        }
        let ent = &mut self.list[i];
        ent.dirty = None;
        ent.mode = LockMode::Ex;
        self.list[i..granted].rotate_left(1);
        self.retired -= 1;
        // The entry moved to the back of `owners` (and possibly changed
        // mode for SH→EX upgrades); recount settles its own flag and those
        // of the successors that lost it as a predecessor.
        self.recount_from(i);
        cascaded
    }

    /// SH→EX upgrade of a *shared owner* (baselines without Optimization 1,
    /// where reads hold ownership). Wound-Wait wounds younger co-owners and
    /// waits for older ones to release; Wait-Die dies when an older
    /// co-owner exists; No-Wait dies on any co-owner. Returns:
    ///
    /// * `Granted` once this transaction is the sole owner (mode flipped);
    /// * `Wait` while co-owners remain (poll again after parking);
    /// * `Die` per the policy.
    pub fn try_upgrade(&mut self, txn: &Arc<TxnShared>, pol: &LockPolicy) -> Acquired {
        let Some(pos) = self.find_entry(txn.id) else {
            panic!("upgrade: txn {} has no entry", txn.id);
        };
        assert!(
            pos >= self.retired_len(),
            "retired upgrades go through reacquire_ex"
        );
        let prio = txn.prio();
        let mut others = self
            .owners()
            .iter()
            .filter(|e| e.txn.id != txn.id)
            .peekable();
        if others.peek().is_some() {
            return match pol.variant {
                LockVariant::WoundWait => {
                    for e in others.filter(|e| prio < e.prio()) {
                        e.txn.set_abort(AbortReason::Wounded);
                    }
                    Acquired::Wait
                }
                LockVariant::WaitDie if others.any(|e| e.prio() < prio) => {
                    Acquired::Die(AbortReason::WaitDie)
                }
                LockVariant::WaitDie => Acquired::Wait,
                LockVariant::NoWait => Acquired::Die(AbortReason::NoWait),
            };
        }
        self.list[pos].mode = LockMode::Ex;
        self.recount_from(pos);
        Acquired::Granted {
            row: Row::default(),
            retired: false,
        }
    }

    /// Algorithm 2 `LockRelease`.
    ///
    /// * On commit of a write, `install` carries the final row image, which
    ///   becomes the new committed version (the entry's *dirty* version
    ///   leaves with it; the old committed image moves onto the tuple's
    ///   MVCC chain for live snapshots).
    /// * On abort of a write, every successor is cascade-aborted (line 17)
    ///   and the published version is discarded.
    pub fn release(
        &mut self,
        txn: &Arc<TxnShared>,
        pol: &LockPolicy,
        committed: bool,
        install: Option<CommitInstall<'_>>,
    ) -> ReleaseOutcome {
        let Some(pos) = self.find_entry(txn.id) else {
            // Already gone (e.g. cancel_wait raced); nothing to do.
            return ReleaseOutcome::default();
        };
        let mode = self.list[pos].mode;
        let mut cascaded = 0;
        if !committed && mode == LockMode::Ex {
            // Cascading aborts: everyone after us may have observed our
            // dirty version (or a version derived from it).
            for e in &self.list[pos + 1..self.granted_len()] {
                if e.txn.set_abort(AbortReason::Cascade) {
                    cascaded += 1;
                }
            }
        }
        if committed && mode == LockMode::Ex {
            if let Some(ci) = install {
                if ci.commit_ts == 0 {
                    // Untimed (non-MVCC) install: overwrite in place —
                    // a pushed version would never be collected.
                    ci.tuple.install(ci.row.clone());
                } else {
                    ci.tuple
                        .install_versioned(ci.row.clone(), ci.commit_ts, ci.watermark);
                }
            }
        }
        self.remove_entry(pos);
        self.promote_waiters(pol);
        ReleaseOutcome { cascaded }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_storage::{DataType, Schema, Table, Value};

    fn mk_table() -> Table<TupleCc> {
        Table::new(
            "t",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        )
    }

    fn mk_tuple(table: &Table<TupleCc>, k: u64, v: i64) -> Arc<Tuple<TupleCc>> {
        table.insert(k, Row::from(vec![Value::U64(k), Value::I64(v)]))
    }

    fn txn(id: u64, ts: u64) -> Arc<TxnShared> {
        TxnShared::new(id, ts)
    }

    fn ts_src() -> TsSource {
        TsSource::new()
    }

    /// Convenience: acquire and unwrap a grant.
    fn grant(
        st: &mut LockState,
        tuple: &Tuple<TupleCc>,
        pol: &LockPolicy,
        t: &Arc<TxnShared>,
        mode: LockMode,
        ts: &TsSource,
    ) -> Row {
        match st.acquire(tuple, pol, t, mode, ts) {
            Acquired::Granted { row, .. } => row,
            _ => panic!("expected grant"),
        }
    }

    #[test]
    fn exclusive_grant_then_conflicting_wait() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let t1 = txn(1, 1);
        let t2 = txn(2, 2);
        grant(&mut st, &tup, &pol, &t1, LockMode::Ex, &ts);
        // Younger writer must wait (t1 older, not wounded).
        match st.acquire(&tup, &pol, &t2, LockMode::Ex, &ts) {
            Acquired::Wait => {}
            _ => panic!("expected wait"),
        }
        assert!(!t1.is_aborted());
        st.assert_invariants();
    }

    #[test]
    fn older_writer_wounds_younger_owner() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let young = txn(2, 20);
        let old = txn(1, 10);
        grant(&mut st, &tup, &pol, &young, LockMode::Ex, &ts);
        match st.acquire(&tup, &pol, &old, LockMode::Ex, &ts) {
            Acquired::Wait => {}
            _ => panic!("old must queue behind the unreleased young owner"),
        }
        assert!(young.is_aborted(), "young owner must be wounded");
        // Young releases (abort): old gets promoted.
        st.release(&young, &pol, false, None);
        assert!(st.check_granted(&tup, &old).is_some());
        st.assert_invariants();
    }

    #[test]
    fn retire_publishes_version_and_next_writer_reads_it() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let t1 = txn(1, 1);
        let t2 = txn(2, 2);
        let mut r1 = grant(&mut st, &tup, &pol, &t1, LockMode::Ex, &ts);
        assert_eq!(r1.get_i64(1), 10);
        r1.set(1, Value::I64(11));
        st.retire(&t1, r1.clone(), &pol);
        assert_eq!(st.versions_len(), 1);
        // t2 now acquires EX and must see t1's dirty version.
        let r2 = grant(&mut st, &tup, &pol, &t2, LockMode::Ex, &ts);
        assert_eq!(r2.get_i64(1), 11, "dirty read of retired version");
        // t2 depends on t1: semaphore incremented exactly once.
        assert_eq!(t2.semaphore(), 1);
        assert_eq!(t1.semaphore(), 0);
        st.assert_invariants();
    }

    #[test]
    fn commit_release_clears_dependency_and_installs() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let t1 = txn(1, 1);
        let t2 = txn(2, 2);
        let mut r1 = grant(&mut st, &tup, &pol, &t1, LockMode::Ex, &ts);
        r1.set(1, Value::I64(11));
        st.retire(&t1, r1.clone(), &pol);
        let mut r2 = grant(&mut st, &tup, &pol, &t2, LockMode::Ex, &ts);
        r2.set(1, Value::I64(12));
        st.retire(&t2, r2.clone(), &pol);
        assert_eq!(t2.semaphore(), 1);
        // t1 commits: install and wake t2's dependency.
        st.release(&t1, &pol, true, Some(CommitInstall::untimed(&tup, &r1)));
        assert_eq!(t2.semaphore(), 0);
        assert_eq!(tup.read_row().get_i64(1), 11);
        st.release(&t2, &pol, true, Some(CommitInstall::untimed(&tup, &r2)));
        assert_eq!(tup.read_row().get_i64(1), 12);
        assert!(st.is_quiescent());
    }

    #[test]
    fn abort_cascades_to_dependents() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let t1 = txn(1, 1);
        let t2 = txn(2, 2);
        let t3 = txn(3, 3);
        let mut r1 = grant(&mut st, &tup, &pol, &t1, LockMode::Ex, &ts);
        r1.set(1, Value::I64(11));
        st.retire(&t1, r1, &pol);
        let mut r2 = grant(&mut st, &tup, &pol, &t2, LockMode::Ex, &ts);
        r2.set(1, Value::I64(12));
        st.retire(&t2, r2, &pol);
        let r3 = grant(&mut st, &tup, &pol, &t3, LockMode::Sh, &ts);
        assert_eq!(r3.get_i64(1), 12);
        // t1 aborts: t2 and t3 read (transitively) dirty data → cascade.
        let out = st.release(&t1, &pol, false, None);
        assert_eq!(out.cascaded, 2);
        assert!(t2.is_aborted());
        assert!(t3.is_aborted());
        assert_eq!(t2.abort_reason(), AbortReason::Cascade);
        // Committed row untouched.
        assert_eq!(tup.read_row().get_i64(1), 10);
        // Dependents release themselves.
        st.release(&t2, &pol, false, None);
        st.release(&t3, &pol, false, None);
        assert!(st.is_quiescent());
    }

    #[test]
    fn shared_abort_does_not_cascade() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let r = txn(1, 1);
        let w = txn(2, 2);
        grant(&mut st, &tup, &pol, &r, LockMode::Sh, &ts);
        grant(&mut st, &tup, &pol, &w, LockMode::Ex, &ts);
        assert_eq!(w.semaphore(), 1, "WAR dependency on the reader");
        let out = st.release(&r, &pol, false, None);
        assert_eq!(out.cascaded, 0, "SH abort has no cascading effect");
        assert!(!w.is_aborted());
        assert_eq!(w.semaphore(), 0, "reader's departure clears the WAR dep");
        st.assert_invariants();
    }

    #[test]
    fn opt3_reader_slots_before_younger_writer_without_wounding() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let young_w = txn(2, 20);
        let old_r = txn(1, 10);
        let mut rw = grant(&mut st, &tup, &pol, &young_w, LockMode::Ex, &ts);
        rw.set(1, Value::I64(99));
        st.retire(&young_w, rw, &pol);
        // Old reader arrives: must NOT wound, must NOT see the younger
        // writer's version.
        let row = grant(&mut st, &tup, &pol, &old_r, LockMode::Sh, &ts);
        assert!(!young_w.is_aborted(), "opt3: reads do not wound");
        assert_eq!(row.get_i64(1), 10, "reader sees pre-writer image");
        // Younger writer now depends on the reader (WAR in list order).
        assert_eq!(young_w.semaphore(), 1);
        assert_eq!(old_r.semaphore(), 0);
        st.assert_invariants();
    }

    #[test]
    fn opt3_reader_behind_older_writer_waits() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let old_w = txn(1, 10);
        let young_r = txn(2, 20);
        grant(&mut st, &tup, &pol, &old_w, LockMode::Ex, &ts);
        match st.acquire(&tup, &pol, &young_r, LockMode::Sh, &ts) {
            Acquired::Wait => {}
            _ => panic!("reader must wait for the older exclusive owner"),
        }
        // Writer retires → reader is promoted straight into retired and
        // sees the dirty version.
        let mut r = tup.read_row();
        r.set(1, Value::I64(42));
        st.retire(&old_w, r, &pol);
        let (row, retired) = st.check_granted(&tup, &young_r).unwrap();
        assert!(retired);
        assert_eq!(row.get_i64(1), 42);
        assert_eq!(young_r.semaphore(), 1);
        st.assert_invariants();
    }

    #[test]
    fn wound_wait_baseline_readers_hold_ownership() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::wound_wait();
        let ts = ts_src();
        let mut st = LockState::default();
        let r1 = txn(1, 1);
        let r2 = txn(2, 2);
        let w = txn(3, 3);
        grant(&mut st, &tup, &pol, &r1, LockMode::Sh, &ts);
        grant(&mut st, &tup, &pol, &r2, LockMode::Sh, &ts);
        assert_eq!(st.owners_len(), 2);
        assert_eq!(st.retired_len(), 0, "no retiring in plain Wound-Wait");
        match st.acquire(&tup, &pol, &w, LockMode::Ex, &ts) {
            Acquired::Wait => {}
            _ => panic!("writer must wait for shared owners"),
        }
        st.release(&r1, &pol, true, None);
        assert!(st.check_granted(&tup, &w).is_none());
        st.release(&r2, &pol, true, None);
        assert!(st.check_granted(&tup, &w).is_some());
        st.assert_invariants();
    }

    #[test]
    fn wait_die_younger_dies_older_waits() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::wait_die();
        let ts = ts_src();
        let mut st = LockState::default();
        let mid = txn(2, 20);
        let young = txn(3, 30);
        let old = txn(1, 10);
        grant(&mut st, &tup, &pol, &mid, LockMode::Ex, &ts);
        match st.acquire(&tup, &pol, &young, LockMode::Ex, &ts) {
            Acquired::Die(AbortReason::WaitDie) => {}
            _ => panic!("younger requester must die"),
        }
        match st.acquire(&tup, &pol, &old, LockMode::Ex, &ts) {
            Acquired::Wait => {}
            _ => panic!("older requester must wait"),
        }
        assert!(!mid.is_aborted(), "wait-die never wounds");
        st.assert_invariants();
    }

    /// Two transactions that each hold what the other waits for. T1 (ts 20)
    /// holds k and waits for j, held by the younger H; T2 (ts 10) queues
    /// on j ahead of T1, is granted when H releases, then requests k. T1
    /// must die when T2 queues ahead of it: otherwise T1 waits for the
    /// older T2, which waits for T1, and only the wait ceiling ends it.
    #[test]
    fn wait_die_older_request_kills_younger_waiters_it_queues_ahead_of() {
        let table = mk_table();
        let k = mk_tuple(&table, 1, 10);
        let j = mk_tuple(&table, 2, 20);
        let pol = LockPolicy::wait_die();
        let ts = ts_src();
        let (mut sk, mut sj) = (LockState::default(), LockState::default());
        let t1 = txn(1, 20);
        let h = txn(2, 30);
        let t2 = txn(3, 10);
        grant(&mut sk, &k, &pol, &t1, LockMode::Ex, &ts);
        grant(&mut sj, &j, &pol, &h, LockMode::Ex, &ts);
        assert!(matches!(
            sj.acquire(&j, &pol, &t1, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        assert!(matches!(
            sj.acquire(&j, &pol, &t2, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        assert!(
            t1.is_aborted(),
            "T1 would wait for the older T2 it queued behind"
        );
        assert_eq!(t1.abort_reason(), AbortReason::WaitDie);
        sj.release(&h, &pol, true, None);
        assert!(sj.check_granted(&j, &t2).is_some());
        assert!(sj.check_granted(&j, &t1).is_none());
        assert!(matches!(
            sk.acquire(&k, &pol, &t2, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        // T1 unwinds: its queued request goes, then its lock on k.
        assert_eq!(sj.cancel_wait(&t1, &pol), CancelOutcome::WasWaiting);
        sk.release(&t1, &pol, false, None);
        assert!(sk.check_granted(&k, &t2).is_some());
        assert!(!t2.is_aborted());
        sk.assert_invariants();
        sj.assert_invariants();
    }

    #[test]
    fn wait_die_request_dies_behind_an_older_waiter() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::wait_die();
        let ts = ts_src();
        let mut st = LockState::default();
        let young_owner = txn(1, 30);
        let old = txn(2, 10);
        let mid = txn(3, 20);
        grant(&mut st, &tup, &pol, &young_owner, LockMode::Ex, &ts);
        assert!(matches!(
            st.acquire(&tup, &pol, &old, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        // `mid` is older than the owner but younger than the queued `old`.
        assert!(matches!(
            st.acquire(&tup, &pol, &mid, LockMode::Ex, &ts),
            Acquired::Die(AbortReason::WaitDie)
        ));
        assert!(!old.is_aborted());
        st.assert_invariants();
    }

    #[test]
    fn no_wait_any_conflict_dies() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::no_wait();
        let ts = ts_src();
        let mut st = LockState::default();
        let a = txn(1, 1);
        let b = txn(2, 2);
        grant(&mut st, &tup, &pol, &a, LockMode::Sh, &ts);
        match st.acquire(&tup, &pol, &b, LockMode::Ex, &ts) {
            Acquired::Die(AbortReason::NoWait) => {}
            _ => panic!("conflicting no-wait request must die"),
        }
        // Compatible request is granted.
        grant(&mut st, &tup, &pol, &b, LockMode::Sh, &ts);
        st.assert_invariants();
    }

    #[test]
    fn reacquire_aborts_observers_of_first_write() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let w = txn(1, 1);
        let r = txn(2, 2);
        let mut img = grant(&mut st, &tup, &pol, &w, LockMode::Ex, &ts);
        img.set(1, Value::I64(50));
        st.retire(&w, img.clone(), &pol);
        let seen = grant(&mut st, &tup, &pol, &r, LockMode::Sh, &ts);
        assert_eq!(seen.get_i64(1), 50);
        // Second write: the reader of v1 must die.
        let cascaded = st.reacquire_ex(&w);
        assert_eq!(cascaded, 1);
        assert!(r.is_aborted());
        assert_eq!(st.versions_len(), 0, "first version withdrawn");
        // w can retire again with the second image.
        img.set(1, Value::I64(60));
        st.retire(&w, img.clone(), &pol);
        st.release(&r, &pol, false, None);
        st.release(&w, &pol, true, Some(CommitInstall::untimed(&tup, &img)));
        assert_eq!(tup.read_row().get_i64(1), 60);
        assert!(st.is_quiescent());
    }

    #[test]
    fn promote_waiters_preserves_priority_order() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::wound_wait();
        let ts = ts_src();
        let mut st = LockState::default();
        let holder = txn(1, 1);
        let w_old = txn(2, 5);
        let w_young = txn(3, 9);
        grant(&mut st, &tup, &pol, &holder, LockMode::Ex, &ts);
        // Queue the younger first — priority sorting must reorder.
        assert!(matches!(
            st.acquire(&tup, &pol, &w_young, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        assert!(matches!(
            st.acquire(&tup, &pol, &w_old, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        // (w_old wounds w_young? No: w_young is a waiter, not an owner;
        // wounds only hit retired/owners. holder is older → no wound.)
        st.release(&holder, &pol, true, None);
        assert!(
            st.check_granted(&tup, &w_old).is_some(),
            "older waiter promoted first"
        );
        assert!(st.check_granted(&tup, &w_young).is_none());
        st.assert_invariants();
    }

    #[test]
    fn cancel_wait_removes_waiter_and_unblocks_queue() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::wound_wait();
        let ts = ts_src();
        let mut st = LockState::default();
        let holder = txn(1, 1);
        let w1 = txn(2, 2);
        grant(&mut st, &tup, &pol, &holder, LockMode::Ex, &ts);
        assert!(matches!(
            st.acquire(&tup, &pol, &w1, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        assert_eq!(st.waiters_len(), 1);
        assert_eq!(st.cancel_wait(&w1, &pol), CancelOutcome::WasWaiting);
        assert_eq!(st.waiters_len(), 0);
        st.assert_invariants();
    }

    #[test]
    fn aborted_waiter_is_skipped_by_promotion() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::wound_wait();
        let ts = ts_src();
        let mut st = LockState::default();
        let holder = txn(1, 1);
        let dead = txn(2, 2);
        let live = txn(3, 3);
        grant(&mut st, &tup, &pol, &holder, LockMode::Ex, &ts);
        assert!(matches!(
            st.acquire(&tup, &pol, &dead, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        assert!(matches!(
            st.acquire(&tup, &pol, &live, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        dead.set_abort(AbortReason::User);
        st.release(&holder, &pol, true, None);
        assert!(
            st.check_granted(&tup, &live).is_some(),
            "aborted waiter must not block the queue"
        );
        st.assert_invariants();
    }

    #[test]
    fn dynamic_ts_assigned_on_first_conflict_only() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let tup2 = mk_tuple(&table, 2, 20);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st1 = LockState::default();
        let mut st2 = LockState::default();
        let a = txn(1, crate::ts::UNASSIGNED);
        let b = txn(2, crate::ts::UNASSIGNED);
        // Non-conflicting accesses: no assignment (Algorithm 3 guard).
        grant(&mut st1, &tup, &pol, &a, LockMode::Sh, &ts);
        grant(&mut st1, &tup, &pol, &b, LockMode::Sh, &ts);
        assert_eq!(a.ts(), crate::ts::UNASSIGNED);
        assert_eq!(b.ts(), crate::ts::UNASSIGNED);
        // Conflict on another tuple: both sides get timestamps, list first.
        grant(&mut st2, &tup2, &pol, &a, LockMode::Ex, &ts);
        let _ = st2.acquire(&tup2, &pol, &b, LockMode::Ex, &ts);
        assert_ne!(a.ts(), crate::ts::UNASSIGNED);
        assert_ne!(b.ts(), crate::ts::UNASSIGNED);
        assert!(a.ts() < b.ts(), "list entries assigned before requester");
        st1.assert_invariants();
        st2.assert_invariants();
    }

    /// Optimization 4 hands out timestamps on conflict, on any tuple.
    /// Readers placed here without one are ordered by id, and `r` is
    /// assigned its timestamp elsewhere before `e`, placed ahead of it. A
    /// writer `w` younger than `r` must still retire behind it: ahead of
    /// it, `r` would wait at commit for `w`, while `w` waits for the lock
    /// `r` holds on another tuple, until the lock-wait ceiling ends the
    /// cycle.
    #[test]
    fn a_late_timestamp_does_not_put_an_older_reader_behind_a_younger_writer() {
        let table = mk_table();
        let a = mk_tuple(&table, 1, 10);
        let b = mk_tuple(&table, 2, 20);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let (mut sa, mut sb) = (LockState::default(), LockState::default());
        let [x, e, r, w] = [1, 2, 3, 4].map(|id| txn(id, crate::ts::UNASSIGNED));
        for t in [&x, &e, &r] {
            grant(&mut sa, &a, &pol, t, LockMode::Sh, &ts);
        }
        // Conflicts elsewhere assign `x`, `r` and `w`; `e` has none yet.
        for t in [&x, &r, &w] {
            t.assign_ts_if_unassigned(&ts);
        }
        grant(&mut sb, &b, &pol, &r, LockMode::Ex, &ts);
        let mut row = grant(&mut sa, &a, &pol, &w, LockMode::Ex, &ts);
        assert!(e.is_aborted(), "e got the youngest timestamp: wounded");
        row.set(1, Value::I64(11));
        sa.retire(&w, row, &pol);
        assert_eq!(r.semaphore(), 0, "r waits for no younger writer");
        assert!(matches!(
            sb.acquire(&b, &pol, &w, LockMode::Ex, &ts),
            Acquired::Wait
        ));
        sa.assert_invariants();
        sb.assert_invariants();
    }

    #[test]
    fn semaphore_counts_once_per_tuple_with_multiple_predecessors() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 0);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let w1 = txn(1, 1);
        let w2 = txn(2, 2);
        let w3 = txn(3, 3);
        for (t, v) in [(&w1, 1i64), (&w2, 2), (&w3, 3)] {
            let mut r = grant(&mut st, &tup, &pol, t, LockMode::Ex, &ts);
            r.set(1, Value::I64(v));
            st.retire(t, r, &pol);
        }
        // w3 has two conflicting predecessors but exactly one increment.
        assert_eq!(w2.semaphore(), 1);
        assert_eq!(w3.semaphore(), 1);
        // w1 commits: w2 clears, w3 still depends on w2.
        let r1 = tup.read_row();
        st.release(&w1, &pol, true, Some(CommitInstall::untimed(&tup, &r1)));
        assert_eq!(w2.semaphore(), 0);
        assert_eq!(w3.semaphore(), 1);
        let r2 = tup.read_row();
        st.release(&w2, &pol, true, Some(CommitInstall::untimed(&tup, &r2)));
        assert_eq!(w3.semaphore(), 0);
        st.assert_invariants();
    }

    #[test]
    fn shared_grants_share_the_image_and_exclusive_grants_copy_it() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let (r0, w1, r2, w3) = (txn(1, 1), txn(2, 2), txn(3, 3), txn(4, 4));
        // Committed image: a reader shares it, a writer gets its own.
        let seen = grant(&mut st, &tup, &pol, &r0, LockMode::Sh, &ts);
        assert!(Row::ptr_eq(&seen, &tup.read_row()));
        let mut img = grant(&mut st, &tup, &pol, &w1, LockMode::Ex, &ts);
        assert_eq!(img, tup.read_row());
        assert!(!Row::ptr_eq(&img, &tup.read_row()));
        // Dirty image: the retire publishes the writer's own image, a
        // younger reader shares it, a younger writer gets its own.
        img.set(1, Value::I64(11));
        st.retire(&w1, img.clone(), &pol);
        let dirty = grant(&mut st, &tup, &pol, &r2, LockMode::Sh, &ts);
        assert!(Row::ptr_eq(&dirty, &img));
        let next = grant(&mut st, &tup, &pol, &w3, LockMode::Ex, &ts);
        assert_eq!(next, img);
        assert!(!Row::ptr_eq(&next, &img));
        // A waiter granted later takes the same path (`check_granted`).
        let (row, _) = st.check_granted(&tup, &w3).unwrap();
        assert!(!Row::ptr_eq(&row, &img));
        let (row, _) = st.check_granted(&tup, &r2).unwrap();
        assert!(Row::ptr_eq(&row, &img));
        // The commit install shares the image it is handed.
        st.release(&r0, &pol, true, None);
        st.release(&w1, &pol, true, Some(CommitInstall::untimed(&tup, &img)));
        assert!(Row::ptr_eq(&tup.read_row(), &img));
        st.assert_invariants();
    }

    #[test]
    fn a_dirty_reader_keeps_its_values_after_the_next_write_and_the_install() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 10);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let (w1, r, w2) = (txn(1, 1), txn(2, 2), txn(3, 3));
        let mut r1 = grant(&mut st, &tup, &pol, &w1, LockMode::Ex, &ts);
        r1.set(1, Value::I64(11));
        st.retire(&w1, r1.clone(), &pol);
        let seen = grant(&mut st, &tup, &pol, &r, LockMode::Sh, &ts);
        assert_eq!(seen.get_i64(1), 11);
        // W2 updates W1's dirty version and retires its own.
        let mut r2 = grant(&mut st, &tup, &pol, &w2, LockMode::Ex, &ts);
        assert_eq!(r2.get_i64(1), 11);
        r2.set(1, Value::I64(12));
        st.retire(&w2, r2.clone(), &pol);
        assert_eq!(seen.get_i64(1), 11, "W2's write is not the reader's");
        // W1 installs, then W2 on top of it.
        st.release(&w1, &pol, true, Some(CommitInstall::untimed(&tup, &r1)));
        assert_eq!(tup.read_row().get_i64(1), 11);
        st.release(&r, &pol, true, None);
        st.release(&w2, &pol, true, Some(CommitInstall::untimed(&tup, &r2)));
        assert_eq!(tup.read_row().get_i64(1), 12);
        assert_eq!(seen.get_i64(1), 11, "installs do not reach the reader");
        assert_eq!(r1.get_i64(1), 11);
        assert!(st.is_quiescent());
    }

    #[test]
    fn mid_chain_abort_cascades_only_downstream() {
        let table = mk_table();
        let tup = mk_tuple(&table, 1, 0);
        let pol = LockPolicy::bamboo();
        let ts = ts_src();
        let mut st = LockState::default();
        let w1 = txn(1, 1);
        let w2 = txn(2, 2);
        let w3 = txn(3, 3);
        for (t, v) in [(&w1, 1i64), (&w2, 2), (&w3, 3)] {
            let mut r = grant(&mut st, &tup, &pol, t, LockMode::Ex, &ts);
            r.set(1, Value::I64(v));
            st.retire(t, r, &pol);
        }
        let out = st.release(&w2, &pol, false, None);
        assert_eq!(out.cascaded, 1);
        assert!(!w1.is_aborted(), "upstream unaffected");
        assert!(w3.is_aborted(), "downstream cascaded");
        st.release(&w3, &pol, false, None);
        // w1 can still commit.
        let r1 = tup.read_row();
        st.release(&w1, &pol, true, Some(CommitInstall::untimed(&tup, &r1)));
        assert!(st.is_quiescent());
    }
}

#[cfg(test)]
mod upgrade_and_edge_tests {
    use super::*;
    use bamboo_storage::{DataType, Schema, Table, Value};

    fn mk() -> (Table<TupleCc>, Arc<Tuple<TupleCc>>, TsSource) {
        let table = Table::new(
            "t",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        let tup = table.insert(0, Row::from(vec![Value::U64(0), Value::I64(0)]));
        (table, tup, TsSource::new())
    }

    fn grant(
        st: &mut LockState,
        tup: &Tuple<TupleCc>,
        pol: &LockPolicy,
        t: &Arc<TxnShared>,
        mode: LockMode,
        ts: &TsSource,
    ) {
        match st.acquire(tup, pol, t, mode, ts) {
            Acquired::Granted { .. } => {}
            _ => panic!("expected grant"),
        }
    }

    #[test]
    fn sole_shared_owner_upgrades_in_place() {
        let (_tb, tup, ts) = mk();
        let pol = LockPolicy::wound_wait();
        let mut st = LockState::default();
        let t1 = TxnShared::new(1, ts.assign());
        grant(&mut st, &tup, &pol, &t1, LockMode::Sh, &ts);
        match st.try_upgrade(&t1, &pol) {
            Acquired::Granted { .. } => {}
            _ => panic!("sole owner upgrades immediately"),
        }
        st.assert_invariants();
        // Now exclusive: another SH request must wait.
        let t2 = TxnShared::new(2, ts.assign());
        assert!(matches!(
            st.acquire(&tup, &pol, &t2, LockMode::Sh, &ts),
            Acquired::Wait
        ));
        st.release(&t1, &pol, true, None);
        st.assert_invariants();
    }

    #[test]
    fn upgrade_wounds_younger_co_owner_and_waits() {
        let (_tb, tup, ts) = mk();
        let pol = LockPolicy::wound_wait();
        let mut st = LockState::default();
        let old = TxnShared::new(1, ts.assign());
        let young = TxnShared::new(2, ts.assign());
        grant(&mut st, &tup, &pol, &old, LockMode::Sh, &ts);
        grant(&mut st, &tup, &pol, &young, LockMode::Sh, &ts);
        assert!(matches!(st.try_upgrade(&old, &pol), Acquired::Wait));
        assert!(young.is_aborted(), "younger co-owner wounded");
        st.release(&young, &pol, false, None);
        assert!(matches!(
            st.try_upgrade(&old, &pol),
            Acquired::Granted { .. }
        ));
        st.release(&old, &pol, true, None);
        st.assert_invariants();
    }

    #[test]
    fn upgrade_dies_under_wait_die_with_older_co_owner() {
        let (_tb, tup, ts) = mk();
        let pol = LockPolicy::wait_die();
        let mut st = LockState::default();
        let old = TxnShared::new(1, ts.assign());
        let young = TxnShared::new(2, ts.assign());
        grant(&mut st, &tup, &pol, &old, LockMode::Sh, &ts);
        grant(&mut st, &tup, &pol, &young, LockMode::Sh, &ts);
        assert!(matches!(
            st.try_upgrade(&young, &pol),
            Acquired::Die(AbortReason::WaitDie)
        ));
        assert!(!old.is_aborted());
    }

    #[test]
    fn cancel_wait_on_granted_entry_releases_it() {
        let (_tb, tup, ts) = mk();
        let pol = LockPolicy::wound_wait();
        let mut st = LockState::default();
        let t1 = TxnShared::new(1, ts.assign());
        grant(&mut st, &tup, &pol, &t1, LockMode::Ex, &ts);
        // Simulate the wound-vs-grant race: the worker thinks it is still
        // waiting, but the entry was granted; cancel_wait must fully
        // release.
        assert_eq!(st.cancel_wait(&t1, &pol), CancelOutcome::WasGranted);
        assert!(st.is_quiescent());
    }

    #[test]
    fn untimed_installs_overwrite_in_place_and_never_version() {
        // An untimed install has no commit timestamp; pushing chain entries
        // that no watermark ever collects would leak a version per write.
        // The layer probes run this in a tight loop.
        let (_tb, tup, ts) = mk();
        let pol = LockPolicy::bamboo();
        let mut st = LockState::default();
        for i in 1..=50i64 {
            let w = TxnShared::new(i as u64, ts.assign());
            grant(&mut st, &tup, &pol, &w, LockMode::Ex, &ts);
            let mut row = tup.read_row();
            row.set(1, Value::I64(i * 100));
            st.release(&w, &pol, true, Some(CommitInstall::untimed(&tup, &row)));
        }
        assert!(st.is_quiescent());
        assert_eq!(
            tup.retained_versions(),
            0,
            "untimed installs must not grow the version chain"
        );
        assert_eq!(tup.read_row().get_i64(1), 5000);
    }

    #[test]
    fn wait_die_allows_shared_coexistence() {
        let (_tb, tup, ts) = mk();
        let pol = LockPolicy::wait_die();
        let mut st = LockState::default();
        let a = TxnShared::new(1, ts.assign());
        let b = TxnShared::new(2, ts.assign());
        grant(&mut st, &tup, &pol, &a, LockMode::Sh, &ts);
        grant(&mut st, &tup, &pol, &b, LockMode::Sh, &ts);
        assert_eq!(st.owners_len(), 2);
        st.release(&a, &pol, true, None);
        st.release(&b, &pol, true, None);
        assert!(st.is_quiescent());
    }

    #[test]
    fn dynamic_ts_versions_stay_visible_after_assignment() {
        // A writer retires while UNASSIGNED; a later conflicting acquire
        // assigns both sides. The version must remain visible to the
        // (younger) second transaction — regression test for snapshotting
        // priorities at retire time.
        let (_tb, tup, ts) = mk();
        let pol = LockPolicy::bamboo(); // dynamic_ts on
        let mut st = LockState::default();
        let w = TxnShared::new(1, crate::ts::UNASSIGNED);
        grant(&mut st, &tup, &pol, &w, LockMode::Ex, &ts);
        let mut row = tup.read_row();
        row.set(1, Value::I64(7));
        st.retire(&w, row, &pol);
        let r = TxnShared::new(2, crate::ts::UNASSIGNED);
        match st.acquire(&tup, &pol, &r, LockMode::Ex, &ts) {
            Acquired::Granted { row, .. } => {
                assert_eq!(row.get_i64(1), 7, "dirty version visible post-assignment");
            }
            _ => panic!("expected grant"),
        }
        assert!(w.ts() < r.ts(), "list entry assigned before requester");
        st.release(&r, &pol, false, None);
        st.release(&w, &pol, false, None);
        assert!(st.is_quiescent());
    }

    /// One list and two `u32` boundaries: a second vector (a waiter queue
    /// beside the list, as before) cannot come back unnoticed — every tuple
    /// pays for it.
    #[test]
    fn lock_state_is_one_list_two_boundaries() {
        assert!(std::mem::size_of::<LockState>() <= 32);
        assert!(std::mem::size_of::<Ent>() <= 24);
    }

    #[test]
    fn release_of_unknown_txn_is_noop() {
        let (_tb, tup, ts) = mk();
        let pol = LockPolicy::bamboo();
        let mut st = LockState::default();
        let ghost = TxnShared::new(99, ts.assign());
        let out = st.release(&ghost, &pol, false, None);
        assert_eq!(out.cascaded, 0);
        let _ = tup;
    }
}

#[cfg(test)]
mod committed_unreleased_tests {
    use super::*;
    use bamboo_storage::{DataType, Schema, Table, Value};

    /// Regression test for the lost-update hole: an older transaction must
    /// not slip past a *committed but unreleased* younger writer whose
    /// version the timestamp rule hides.
    #[test]
    fn older_writer_waits_for_committed_unreleased_younger() {
        let table = Table::new(
            "t",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        let tup = table.insert(0, Row::from(vec![Value::U64(0), Value::I64(100)]));
        let pol = LockPolicy::bamboo();
        let ts = TsSource::new();
        let mut st = LockState::default();
        let young = TxnShared::new(2, 20);
        let old = TxnShared::new(1, 10);
        // Young writes 101 and retires, then passes its commit point.
        let mut row = match st.acquire(&tup, &pol, &young, LockMode::Ex, &ts) {
            Acquired::Granted { row, .. } => row,
            _ => panic!("grant"),
        };
        row.set(1, Value::I64(101));
        st.retire(&young, row.clone(), &pol);
        assert!(young.try_commit_point());
        // Old arrives: the wound must fail (committed) and the old one
        // must NOT be granted — the hidden version would hand it a stale
        // base image.
        match st.acquire(&tup, &pol, &old, LockMode::Ex, &ts) {
            Acquired::Wait => {}
            Acquired::Granted { .. } => panic!("older writer slipped past a committed write"),
            Acquired::Die(_) => panic!("wound-wait never dies"),
        }
        assert_eq!(young.status(), TxnStatus::Committed);
        // Young releases (installs): old is promoted and sees 101.
        st.release(&young, &pol, true, Some(CommitInstall::untimed(&tup, &row)));
        let (granted_row, _) = st
            .check_granted(&tup, &old)
            .expect("promoted after release");
        assert_eq!(granted_row.get_i64(1), 101, "must see the committed write");
        st.release(&old, &pol, false, None);
        assert!(st.is_quiescent());
    }

    /// The same hole through the Optimization-3 reader bypass.
    #[test]
    fn older_reader_waits_for_committed_unreleased_younger() {
        let table = Table::new(
            "t",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        let tup = table.insert(0, Row::from(vec![Value::U64(0), Value::I64(100)]));
        let pol = LockPolicy::bamboo();
        let ts = TsSource::new();
        let mut st = LockState::default();
        let young = TxnShared::new(2, 20);
        let old = TxnShared::new(1, 10);
        let mut row = match st.acquire(&tup, &pol, &young, LockMode::Ex, &ts) {
            Acquired::Granted { row, .. } => row,
            _ => panic!("grant"),
        };
        row.set(1, Value::I64(101));
        st.retire(&young, row.clone(), &pol);
        assert!(young.try_commit_point());
        match st.acquire(&tup, &pol, &old, LockMode::Sh, &ts) {
            Acquired::Wait => {}
            Acquired::Granted { row, .. } => {
                panic!(
                    "bypass returned stale {} for a committed write",
                    row.get_i64(1)
                )
            }
            Acquired::Die(_) => unreachable!(),
        }
        st.release(&young, &pol, true, Some(CommitInstall::untimed(&tup, &row)));
        let (granted_row, _) = st.check_granted(&tup, &old).expect("promoted");
        assert_eq!(granted_row.get_i64(1), 101);
        st.release(&old, &pol, true, None);
        assert!(st.is_quiescent());
    }
}
