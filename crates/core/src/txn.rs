//! Transaction handles.
//!
//! A transaction has two halves:
//!
//! * [`TxnShared`] — the part *other* transactions touch concurrently:
//!   timestamp, status word, the `commit_semaphore` of paper §3.2.1 and the
//!   eventcount (wake word + condvar) its owner waits on for lock grants /
//!   semaphore-zero / wound delivery.
//!   Lock entries hold `Arc<TxnShared>`s.
//! * [`TxnCtx`] — the worker-local execution state: the access set with the
//!   local row copies the paper mandates ("Bamboo keeps a local copy of the
//!   tuple for each read request", §3.2.2), buffered inserts, per-attempt
//!   timers, and protocol-specific scratch (Silo read set, IC3 piece state).
//!
//! A local copy is a [`Row`]: a handle on an immutable image, shared with
//! whoever else holds it — the committed version, a retired writer's dirty
//! version, other readers. Nobody can change an image another holder sees:
//! a write's first `set` makes the image private (an exclusive grant hands
//! out a private one to begin with), so the copy behaves exactly like the
//! paper's, and a read, a retire and a commit install pass one image along
//! instead of copying it.

use crate::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_storage::{BuildKeyHasher, Row, TableId, Tuple};
use parking_lot::{Condvar, Mutex};

use crate::meta::TupleCc;
use crate::ts::UNASSIGNED;

/// Lock modes (paper §2.1: shared SH and exclusive EX).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Sh,
    /// Exclusive (write) lock.
    Ex,
}

impl LockMode {
    /// True when two locks of these modes cannot coexist.
    #[inline]
    pub fn conflicts(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Ex, _) | (_, LockMode::Ex))
    }
}

/// Why a transaction aborted. Paper §4.1 distinguishes (1) wounds,
/// (2) cascading aborts and (3) self/user aborts; the protocol-specific
/// variants below refine that taxonomy for the baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Wounded by a higher-priority transaction (Wound-Wait rule).
    Wounded,
    /// Aborted cascadingly because a transaction it read dirty data from
    /// aborted (paper challenge 2).
    Cascade,
    /// Self-aborted on conflict with an older owner (Wait-Die rule).
    WaitDie,
    /// Self-aborted on any conflict (No-Wait rule).
    NoWait,
    /// Silo read-set validation failed at commit.
    SiloValidation,
    /// Silo could not lock its write set at commit.
    SiloLockFail,
    /// User-initiated abort (e.g. TPC-C NewOrder invalid item).
    User,
    /// IC3 piece validation failed (optimistic execution).
    Ic3Validation,
    /// A snapshot-mode read resolved to a row that does not exist or is
    /// not yet visible at the snapshot timestamp (e.g. inserted after the
    /// snapshot was taken). Callers scanning volatile key spaces treat it
    /// as "row absent" ([`crate::session::Txn::read_opt`] does exactly
    /// that); surfacing it as an abort keeps the read signature uniform.
    SnapshotNotVisible,
    /// The durable log could not persist this transaction's commit record
    /// group (permanent storage fault or exhausted retry budget), and the
    /// owning partition degrades to read-only until healed
    /// ([`crate::PartitionedDb::heal`]). Not retryable — the partition
    /// fails fast until then. Two flavors share this reason:
    ///
    /// * **Append-time** (every policy): the commit point is revoked —
    ///   locks release, nothing installs, the commit never happened.
    /// * **Ack-time** (`FsyncPolicy::GroupCommit` only): the batch fsync
    ///   failed *after* the commit installed and released its locks. The
    ///   install stands in memory but was never acknowledged, and crash
    ///   recovery's horizon cut may drop it; the post-heal sealing
    ///   checkpoint re-seals the gap (see `DURABILITY.md` "Group commit").
    DurabilityFailed,
    /// A lock wait or the commit-semaphore wait outlived its liveness
    /// backstop (the wait seam, `TxnCtx::wait`) and the waiter gave up.
    /// Booked apart from [`AbortReason::Wounded`] / [`AbortReason::Cascade`]
    /// so the backstops never pollute the paper's two abort series; retried
    /// like either.
    WaitTimeout,
}

impl AbortReason {
    /// Every reason with its report label. The position is the reason's
    /// index in [`crate::stats::WorkerStats::aborts_by_reason`] and its
    /// encoding in the shared status word.
    pub const ALL: [(AbortReason, &'static str); 11] = [
        (AbortReason::Wounded, "wounded"),
        (AbortReason::Cascade, "cascade"),
        (AbortReason::WaitDie, "wait_die"),
        (AbortReason::NoWait, "no_wait"),
        (AbortReason::SiloValidation, "silo_validation"),
        (AbortReason::SiloLockFail, "silo_lock_fail"),
        (AbortReason::User, "user"),
        (AbortReason::Ic3Validation, "ic3_validation"),
        (AbortReason::SnapshotNotVisible, "snapshot_not_visible"),
        (AbortReason::DurabilityFailed, "durability_failed"),
        (AbortReason::WaitTimeout, "wait_timeout"),
    ];

    /// This reason's row in [`AbortReason::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&(r, _)| r == self)
            .expect("every AbortReason has a row in AbortReason::ALL")
    }
}

/// The terminal error of a transaction attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort(pub AbortReason);

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted: {:?}", self.0)
    }
}

impl std::error::Error for Abort {}

/// Status word values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TxnStatus {
    /// Executing or waiting.
    Running = 0,
    /// Marked for abort (wound / cascade / self); the owning worker will
    /// notice and run the release path.
    Aborted = 1,
    /// Passed its commit point (paper Definition 1): logged and immune to
    /// wounds; releases will install its writes.
    Committed = 2,
}

/// How long a parked transaction sleeps between predicate re-checks. A
/// notification wakes it immediately and is never slept through (the
/// eventcount, see [`TxnShared::begin_park`]); the timeout is the poll for
/// the one predicate nothing notifies (IC3's dependency wait), so every
/// blocking site inherits it from [`TxnCtx::wait`] instead of choosing its
/// own.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// The most one wait spins before it parks: three to four futex wake round
/// trips on the development VM (16–18 µs each), the classic spin-then-block
/// budget. Also the threshold of the history gate ([`spin_budget`]) — the
/// seam's only tuning constant.
const SPIN_CAP: Duration = Duration::from_micros(64);

/// Low bit of [`TxnShared::wake`]: the owner committed to sleeping on
/// `cond`, so a notifier must take the park mutex and signal.
const PARKED: u32 = 1;
/// One notification; the sequence occupies the bits above [`PARKED`].
const WAKE_SEQ: u32 = 2;

thread_local! {
    /// This worker's recent blocked time per parked-pacing wait
    /// ([`observe`]), read by the history gate ([`spin_budget`]).
    static WAIT_AVG: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// The history gate: a worker whose recent waits averaged under
/// [`SPIN_CAP`] spins that long before parking; one whose waits run longer
/// (an oversubscribed machine, a long holder) parks at once.
fn spin_budget(avg: Duration) -> Duration {
    if avg < SPIN_CAP {
        SPIN_CAP
    } else {
        Duration::ZERO
    }
}

/// Folds one wait's blocked time into the worker's average (weight ¼).
/// The sample saturates at twice the cap, so however long the waits were,
/// three short ones reopen the gate.
fn observe(avg: Duration, blocked: Duration) -> Duration {
    avg - avg / 4 + blocked.min(2 * SPIN_CAP) / 4
}

/// The concurrently-shared half of a transaction.
pub struct TxnShared {
    /// Unique incarnation id (also the tie-break for unassigned timestamps).
    pub id: u64,
    ts: AtomicU64,
    status: AtomicU8,
    /// Paper §3.2.1: incremented when this transaction starts depending on a
    /// retired conflicting transaction; it may reach its commit point only
    /// once the semaphore is zero (Algorithm 1 lines 4–5).
    pub commit_semaphore: AtomicI64,
    /// Number of IC3 pieces this transaction has completed (used by other
    /// transactions' piece-level waits).
    pub pieces_done: AtomicU32,
    /// IC3: set once commit installs / abort withdrawals fully finished.
    /// Commit-order waits block on this rather than on the commit point so
    /// a dependent's install can never race ahead of its predecessor's.
    released: crate::sync::atomic::AtomicBool,
    /// Why this transaction was told to abort (valid once status=Aborted).
    abort_reason: AtomicU8,
    /// The eventcount's wake word: a notification sequence
    /// ([`WAKE_SEQ`] per [`TxnShared::notify`]) above the [`PARKED`] bit.
    /// The owner snapshots it before evaluating a wait predicate, spins on
    /// it, and may sleep only if it has not moved since the snapshot.
    wake: AtomicU32,
    park: Mutex<()>,
    cond: Condvar,
}

impl TxnShared {
    /// Creates a running transaction with the given id and timestamp
    /// (`UNASSIGNED` under dynamic timestamp assignment).
    pub fn new(id: u64, ts: u64) -> Arc<Self> {
        Arc::new(TxnShared {
            id,
            ts: AtomicU64::new(ts),
            status: AtomicU8::new(TxnStatus::Running as u8),
            commit_semaphore: AtomicI64::new(0),
            pieces_done: AtomicU32::new(0),
            released: crate::sync::atomic::AtomicBool::new(false),
            abort_reason: AtomicU8::new(0),
            wake: AtomicU32::new(0),
            park: Mutex::new(()),
            cond: Condvar::new(),
        })
    }

    /// Current timestamp (possibly [`UNASSIGNED`]).
    #[inline]
    pub fn ts(&self) -> u64 {
        self.ts.load(Ordering::Acquire)
    }

    /// Priority key: smaller sorts first = higher priority. Unassigned
    /// timestamps sort last, tie-broken by arrival id so ordering stays
    /// total and stable.
    #[inline]
    pub fn prio(&self) -> (u64, u64) {
        (self.ts(), self.id)
    }

    /// Assigns a timestamp if none was assigned yet (Algorithm 3,
    /// `set_ts_if_unassigned`). Returns the winning timestamp.
    pub fn assign_ts_if_unassigned(&self, source: &crate::ts::TsSource) -> u64 {
        let cur = self.ts();
        if cur != UNASSIGNED {
            return cur;
        }
        let fresh = source.assign();
        match self
            .ts
            .compare_exchange(UNASSIGNED, fresh, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => fresh,
            Err(winner) => winner,
        }
    }

    /// Current status.
    #[inline]
    pub fn status(&self) -> TxnStatus {
        match self.status.load(Ordering::Acquire) {
            0 => TxnStatus::Running,
            1 => TxnStatus::Aborted,
            _ => TxnStatus::Committed,
        }
    }

    /// True once marked for abort.
    #[inline]
    pub fn is_aborted(&self) -> bool {
        self.status.load(Ordering::Acquire) == TxnStatus::Aborted as u8
    }

    /// Wound/cascade entry point: transitions Running → Aborted. Fails (and
    /// is a no-op) when the target already aborted or passed its commit
    /// point — this CAS is what makes the commit point (Definition 1)
    /// atomic with respect to wounds.
    pub fn set_abort(&self, reason: AbortReason) -> bool {
        let ok = self
            .status
            .compare_exchange(
                TxnStatus::Running as u8,
                TxnStatus::Aborted as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if ok {
            self.abort_reason
                .store(reason.index() as u8, Ordering::Release);
            self.notify();
        }
        ok
    }

    /// The reason recorded by the successful [`TxnShared::set_abort`].
    pub fn abort_reason(&self) -> AbortReason {
        AbortReason::ALL[self.abort_reason.load(Ordering::Acquire) as usize].0
    }

    /// Revokes a won commit point: Committed → Aborted, recording `reason`.
    /// Only the owning worker may call this, and only **before** any
    /// install, release, or acknowledgment happened — the one legitimate
    /// caller is the commit path whose durable log append failed after
    /// [`TxnShared::try_commit_point`] succeeded. At that moment nothing
    /// observed `Committed` irreversibly: dependents still hold their
    /// semaphore counts (the abort release path cascades them), a waiter
    /// blocked on a committed-unreleased retired entry re-evaluates when
    /// the release path mutates the lock entry, and a wounder whose
    /// `set_abort` lost simply waits for the release either way.
    pub fn revoke_commit(&self, reason: AbortReason) -> bool {
        let ok = self
            .status
            .compare_exchange(
                TxnStatus::Committed as u8,
                TxnStatus::Aborted as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if ok {
            self.abort_reason
                .store(reason.index() as u8, Ordering::Release);
            self.notify();
        }
        ok
    }

    /// Commit-point transition: Running → Committed. Fails when a wound won
    /// the race, in which case the caller must abort.
    pub fn try_commit_point(&self) -> bool {
        self.status
            .compare_exchange(
                TxnStatus::Running as u8,
                TxnStatus::Committed as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// True once the transaction finished (committed or aborted) — IC3's
    /// accessor lists use this to skip dead entries.
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.status.load(Ordering::Acquire) != TxnStatus::Running as u8
    }

    /// Marks installs/withdrawals complete (IC3 release barrier).
    #[inline]
    pub fn mark_released(&self) {
        self.released.store(true, Ordering::Release);
        self.notify();
    }

    /// True once [`TxnShared::mark_released`] ran.
    #[inline]
    pub fn is_released(&self) -> bool {
        self.released.load(Ordering::Acquire)
    }

    /// Tells the owning worker that a predicate it may be waiting on
    /// changed; call it *after* the state flip. Lock-free unless the owner
    /// is asleep: one atomic add, which a spinning owner sees on its own
    /// cache line.
    pub fn notify(&self) {
        if self.bump() {
            // The sleeper holds `park` from its `begin_park` until the
            // condvar releases it, so this signal cannot precede the sleep.
            let _guard = self.park.lock();
            self.cond.notify_all();
        }
    }

    /// The wake word as a wait snapshots it — always *before* it evaluates
    /// its predicate. The `Acquire` load pairs with the `AcqRel` add in
    /// [`TxnShared::bump`]: a snapshot that reads a bump also sees the
    /// state flip sequenced before that bump.
    #[inline]
    pub(crate) fn wake_word(&self) -> u32 {
        self.wake.load(Ordering::Acquire)
    }

    /// Waiter half of the eventcount: commits the owner to sleeping, which
    /// succeeds only if no notification arrived since the `seen` snapshot.
    /// This and [`TxnShared::bump`] are RMWs on one location, hence totally
    /// ordered: a bump that comes first fails the exchange (the owner
    /// re-evaluates instead of sleeping), a bump that comes second reads
    /// [`PARKED`] and signals. Either way a notified wait never sleeps
    /// through its notification.
    pub(crate) fn begin_park(&self, seen: u32) -> bool {
        self.wake
            .compare_exchange(seen, seen | PARKED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Retracts [`PARKED`] after a sleep that [`TxnShared::begin_park`]
    /// began (only the owner sets the bit, so the subtraction clears it).
    fn end_park(&self) {
        self.wake.fetch_sub(PARKED, Ordering::AcqRel);
    }

    /// Notifier half of the eventcount: advances the sequence and reports
    /// whether the owner is asleep. `--cfg bamboo_model_no_wake_bump` drops
    /// the advance, leaving a bare "is anybody parked?" check, so the model
    /// suite can prove it catches the lost wakeup.
    pub(crate) fn bump(&self) -> bool {
        #[cfg(not(bamboo_model_no_wake_bump))]
        let prev = self.wake.fetch_add(WAKE_SEQ, Ordering::AcqRel);
        #[cfg(bamboo_model_no_wake_bump)]
        let prev = self.wake.load(Ordering::Acquire);
        prev & PARKED != 0
    }

    /// Non-blocking semaphore read.
    #[inline]
    pub fn semaphore(&self) -> i64 {
        self.commit_semaphore.load(Ordering::Acquire)
    }

    /// Increment the commit semaphore (a dirty-read dependency appeared).
    #[inline]
    pub fn semaphore_inc(&self) {
        self.commit_semaphore.fetch_add(1, Ordering::AcqRel);
    }

    /// Decrement the commit semaphore (a dependency cleared); wakes the
    /// owner when it reaches zero.
    #[inline]
    pub fn semaphore_dec(&self) {
        if self.commit_semaphore.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.notify();
        }
    }
}

impl std::fmt::Debug for TxnShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnShared")
            .field("id", &self.id)
            .field("ts", &self.ts())
            .field("status", &self.status())
            .field("semaphore", &self.semaphore())
            .finish()
    }
}

/// Snapshot-mode state of a [`TxnCtx`]: the registry grant (which carries
/// the snapshot timestamp) and the little a read leaves behind. A snapshot read records no access: at a registered
/// snapshot a key's visible version cannot change, so there is nothing to
/// deduplicate or release.
#[derive(Debug)]
pub struct SnapshotCtx {
    /// The registry registration; released exactly once, when the
    /// [`crate::session::Txn`] commits or aborts.
    pub grant: crate::db::SnapshotGrant,
    /// The partitions the snapshot has read a row from, bit `id % 64`
    /// each: what [`crate::session::Txn::partitions_spanned`] counts.
    pub parts: u64,
    /// The row the latest read returned, which the read lends out; the
    /// next read replaces it.
    pub last: Option<Row>,
}

impl SnapshotCtx {
    /// The snapshot timestamp reads resolve at.
    #[inline]
    pub fn ts(&self) -> u64 {
        self.grant.ts
    }
}

/// Where this transaction's lock entry currently lives for an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessState {
    /// In the tuple's `owners` list.
    Owner,
    /// In the tuple's `retired` list (paper Figure 2).
    Retired,
    /// Entry already removed (released, or never had a lock — Silo reads).
    Released,
}

/// One tuple accessed by the transaction, with its local row copy.
pub struct Access {
    /// Table the tuple belongs to.
    pub table: TableId,
    /// The tuple.
    pub tuple: Arc<Tuple<TupleCc>>,
    /// Lock mode held (strongest requested so far).
    pub mode: LockMode,
    /// Local copy: the read image, or the in-progress write image. A read
    /// image is shared with the version it was read from; the write image
    /// is this transaction's own from its first `set` on, and what a
    /// retire publishes and a commit installs — shared again, not copied.
    pub local: Row,
    /// True once the local copy was modified.
    pub dirty: bool,
    /// Where our lock entry lives.
    pub state: AccessState,
    /// Silo: TID observed at read time. IC3: id of the version-chain writer
    /// observed at access time (0 = committed base). Validation token.
    pub observed_tid: u64,
    /// IC3: the tuple's install sequence number observed at access time —
    /// catches predecessors that committed *and installed* between our read
    /// and our piece validation (their version leaves the chain, so the
    /// tail id alone would falsely validate).
    pub observed_seq: u64,
    /// IC3: the group (merged piece) this access belongs to.
    pub group: u32,
}

impl Access {
    /// A clean access holding `local` under `mode`, with zeroed validation
    /// tokens — the only place an [`Access`] is spelled out.
    pub fn new(
        table: TableId,
        tuple: Arc<Tuple<TupleCc>>,
        mode: LockMode,
        local: Row,
        state: AccessState,
    ) -> Self {
        Access {
            table,
            tuple,
            mode,
            local,
            dirty: false,
            state,
            observed_tid: 0,
            observed_seq: 0,
            group: 0,
        }
    }

    /// Attaches the validation token of the optimistic protocols: Silo's
    /// observed TID, or IC3's `(chain-tail writer, install sequence)` pair
    /// plus the group the access belongs to.
    pub fn observing(mut self, tid: u64, seq: u64, group: u32) -> Self {
        self.observed_tid = tid;
        self.observed_seq = seq;
        self.group = group;
        self
    }
}

/// A buffered insert, applied at commit (storage-level inserts are
/// immediately visible, so buffering gives abort atomicity).
pub struct PendingInsert {
    /// Destination table.
    pub table: TableId,
    /// Primary key.
    pub key: u64,
    /// Row image.
    pub row: Row,
    /// Optional secondary-index maintenance: (index slot, secondary key).
    pub secondary: Option<(usize, u64)>,
}

/// Per-attempt wall-clock timers, matching the paper's runtime breakdown
/// (Figures 4b/5b/6b/...: "lock wait", "commit wait", with "abort" derived
/// by the executor from failed attempts).
#[derive(Clone, Copy, Debug, Default)]
pub struct TxnTimers {
    /// Time parked waiting for lock grants.
    pub lock_wait: Duration,
    /// Time parked waiting for `commit_semaphore == 0`.
    pub commit_wait: Duration,
    /// Sleeps on the condvar — each one a futex round trip.
    pub parks: u64,
    /// Notifications caught by the pre-park spin — no futex involved.
    pub spin_wakes: u64,
}

/// Which of the paper's phase timers a wait is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WaitTimer {
    /// [`TxnTimers::lock_wait`]: waiting for access to a tuple.
    Lock,
    /// [`TxnTimers::commit_wait`]: waiting for commit dependencies.
    Commit,
}

/// What a blocked transaction does between two checks of its predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pacing {
    /// Spin on the transaction's own wake word while the worker's recent
    /// waits were short, then sleep on its condvar until
    /// [`TxnShared::notify`] or [`PARK_TIMEOUT`] — for waits that end with
    /// a notification (lock grants, wounds, semaphore zeroings).
    Park,
    /// `yield_now` — for waits nothing notifies (IC3's `pieces_done`).
    Yield,
}

/// The per-site arguments of [`TxnCtx::wait`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct WaitSite {
    /// Timer charged with the time spent blocked.
    pub timer: WaitTimer,
    /// Liveness backstop: a wait this long self-aborts. Orders of magnitude
    /// above a healthy wait, so it only fires if an unforeseen wait cycle
    /// forms — the role a lock timeout plays in production lock managers.
    pub timeout: Duration,
    /// The reason such a self-abort books.
    pub on_timeout: AbortReason,
    /// See [`Pacing`].
    pub pacing: Pacing,
}

/// One IC3 commit-order dependency.
pub struct Ic3Dep {
    /// The predecessor transaction.
    pub txn: Arc<TxnShared>,
    /// Whether the dependency involves the predecessor's *write* (true ⇒
    /// its abort cascades to us; false ⇒ pure write-after-read ordering).
    pub wrote: bool,
    /// The predecessor's template index (drives IC3's order-preservation
    /// waits: we may not access a table before the predecessor has passed
    /// its conflicting piece on that table).
    pub template: u32,
}

/// IC3 per-attempt state.
#[derive(Default)]
pub struct Ic3Ctx {
    /// Index of the registered template being executed.
    pub template: usize,
    /// Original (pre-merge) piece currently executing.
    pub piece: usize,
    /// Group (merged piece) currently executing.
    pub group: usize,
    /// Transactions this one must commit after.
    pub deps: Vec<Ic3Dep>,
}

/// Worker-local transaction context.
pub struct TxnCtx {
    /// Shared half.
    pub shared: Arc<TxnShared>,
    /// Access set in access order.
    pub accesses: Vec<Access>,
    index: HashMap<(u32, u64), usize, BuildKeyHasher>,
    /// Inserts buffered by [`crate::session::Txn::insert`], applied by the
    /// commit tail.
    pub inserts: Vec<PendingInsert>,
    /// Read-only snapshot mode: `Some` when every read resolves against
    /// the committed version chains at the grant's timestamp with zero
    /// lock-manager interaction. Writes are forbidden. The session owns
    /// it: set by [`crate::session::Session::begin_with`], taken (and the
    /// registry entry released) when the [`crate::session::Txn`] commits
    /// or aborts. A snapshot context never reaches the protocol.
    pub snapshot: Option<SnapshotCtx>,
    /// Commit timestamp allocated at the commit point (0 until then);
    /// versioned installs and commit-time inserts are tagged with it.
    pub commit_ts: u64,
    /// Lock-manager acquisitions this attempt (lock table requests, Silo
    /// write-set locks). Snapshot-mode attempts must end with 0 — the
    /// stats layer asserts the read path truly bypasses the lock manager.
    pub locks_acquired: u64,
    /// Declared number of operations (stored-procedure mode) for the δ
    /// heuristic of Optimization 2, copied from the options by the 2PL
    /// family's `begin`; `None` in interactive mode.
    pub planned_ops: Option<usize>,
    /// Operations issued so far this attempt, counted by the 2PL family
    /// (Optimization 2's δ is its one reader).
    pub op_seq: usize,
    /// Phase timers.
    pub timers: TxnTimers,
    /// Attempt start time (for the adaptive clause of Optimization 2).
    pub started: Instant,
    /// Silo read set: (access index) entries live in `accesses` with
    /// `observed_tid`; this holds extra read-only observations.
    pub silo_reads: Vec<(Arc<Tuple<TupleCc>>, u64)>,
    /// IC3 state.
    pub ic3: Ic3Ctx,
    /// Group-commit durability ticket, set by a successful commit under
    /// `FsyncPolicy::GroupCommit`: the session must wait it out before
    /// acknowledging the client (`None` everywhere else — the commit was
    /// durable, or never promised to be, when `commit` returned).
    pub durability: Option<crate::wal::DurabilityTicket>,
}

impl TxnCtx {
    /// Fresh context for one attempt.
    pub fn new(shared: Arc<TxnShared>) -> Self {
        Self::with_access_capacity(shared, 16)
    }

    /// Fresh context for a snapshot attempt. A snapshot read records no
    /// access, so the context allocates no access buffers.
    pub fn snapshot(shared: Arc<TxnShared>, snapshot: SnapshotCtx) -> Self {
        TxnCtx {
            snapshot: Some(snapshot),
            ..Self::with_access_capacity(shared, 0)
        }
    }

    fn with_access_capacity(shared: Arc<TxnShared>, capacity: usize) -> Self {
        TxnCtx {
            shared,
            accesses: Vec::with_capacity(capacity),
            index: HashMap::with_capacity_and_hasher(capacity, BuildKeyHasher),
            inserts: Vec::new(),
            snapshot: None,
            commit_ts: 0,
            locks_acquired: 0,
            planned_ops: None,
            op_seq: 0,
            timers: TxnTimers::default(),
            started: Instant::now(),
            silo_reads: Vec::new(),
            ic3: Ic3Ctx::default(),
            durability: None,
        }
    }

    /// Finds an existing access of `(table, key)`. The primary key is
    /// unique across the whole logical keyspace of a partitioned database
    /// (replicated tables always resolve to the local replica, so one key
    /// still means one tuple per transaction).
    #[inline]
    pub fn find_access(&self, table: TableId, key: u64) -> Option<usize> {
        self.index.get(&(table.0, key)).copied()
    }

    /// Records a new access and returns its index.
    pub fn push_access(&mut self, access: Access) -> usize {
        let idx = self.accesses.len();
        self.index.insert((access.table.0, access.tuple.key), idx);
        self.accesses.push(access);
        idx
    }

    /// Timestamp shortcut.
    #[inline]
    pub fn ts(&self) -> u64 {
        self.shared.ts()
    }

    /// Returns an abort error carrying the shared handle's recorded reason.
    pub fn abort_err(&self) -> Abort {
        Abort(self.shared.abort_reason())
    }

    /// The wait seam: blocks until `ready` yields a value, and is the only
    /// place a transaction blocks. Every wait of every protocol — lock
    /// grant, upgrade, commit semaphore, IC3 piece and dependency
    /// waits — is one call, so the abort check, the liveness deadline, the
    /// spin-then-park pause and the phase-timer accounting exist once.
    ///
    /// Each round: snapshot the wake word; an aborted transaction (wounded,
    /// cascaded, or failed by its own predicate) returns its recorded
    /// reason; otherwise a wait blocked for longer than `site.timeout`
    /// self-aborts with `site.on_timeout`; otherwise `ready` runs;
    /// otherwise it pauses per `site.pacing`. The time since the first
    /// unready round is charged to `site.timer` on every exit — a wait that
    /// is ready at once reads no clock and charges nothing.
    ///
    /// `ready` may find that the attempt must fail (Wait-Die's die, a
    /// failed validation, a cascading dependency): it marks the transaction
    /// aborted with its reason and returns `None`; the abort check above is
    /// the one error exit.
    ///
    /// **No lost wakeup.** Everything that can end a wait flips its state
    /// and then calls [`TxnShared::notify`], which advances the wake word.
    /// The round's snapshot precedes every read of the round, so a flip the
    /// round did not see has its notification still to come: the spin sees
    /// the word move, and [`TxnShared::begin_park`] refuses to sleep on a
    /// stale snapshot. That is what lets `ready` run **outside** the park
    /// mutex, as it must — notifiers call `notify` while holding tuple
    /// latches, so a predicate that takes a latch under `park` would
    /// deadlock against them — and what makes the clock reads between
    /// `ready` and the sleep harmless.
    ///
    /// **The pause** ([`Pacing::Park`]). First the worker spins, for at most
    /// [`SPIN_CAP`] per wait, reading only the wake word of its *own*
    /// handle: no tuple latch, no line a lock holder writes, and `ready`
    /// re-runs only once the word moved — a spinner cannot slow the holder
    /// it waits for. A handoff caught there costs one cache-line transfer
    /// instead of a futex wake. Then it sleeps on the condvar, bounded by
    /// [`PARK_TIMEOUT`]. Whether to spin at all is decided by the worker's
    /// own history ([`spin_budget`] over the blocked times this function
    /// already measures): on an oversubscribed machine, where the holder
    /// may not even be running, waits are long and every wait parks at
    /// once.
    pub(crate) fn wait<T>(
        &mut self,
        site: WaitSite,
        mut ready: impl FnMut(&mut TxnCtx) -> Option<T>,
    ) -> Result<T, Abort> {
        let mut blocked_since: Option<Instant> = None;
        let res = loop {
            let seen = self.shared.wake_word();
            if self.shared.is_aborted() {
                break Err(self.abort_err());
            }
            if blocked_since.is_some_and(|t0| t0.elapsed() > site.timeout) {
                self.shared.set_abort(site.on_timeout);
                continue;
            }
            if let Some(v) = ready(self) {
                break Ok(v);
            }
            let t0 = *blocked_since.get_or_insert_with(Instant::now);
            match site.pacing {
                Pacing::Yield => std::thread::yield_now(),
                Pacing::Park => {
                    let shared = &*self.shared;
                    let budget = spin_budget(WAIT_AVG.get());
                    let mut spins = 0u32;
                    let woken = loop {
                        // The clock is read on the first iteration (a wait
                        // past its budget goes straight to sleep) and every
                        // 32nd after it.
                        if spins % 32 == 0 && t0.elapsed() >= budget {
                            break false;
                        }
                        if shared.wake_word() != seen {
                            break true;
                        }
                        std::hint::spin_loop();
                        spins += 1;
                    };
                    if woken {
                        self.timers.spin_wakes += 1;
                        continue;
                    }
                    let mut guard = shared.park.lock();
                    if shared.begin_park(seen) {
                        self.timers.parks += 1;
                        shared.cond.wait_for(&mut guard, PARK_TIMEOUT);
                        shared.end_park();
                    }
                }
            }
        };
        if let Some(t0) = blocked_since {
            let blocked = t0.elapsed();
            *match site.timer {
                WaitTimer::Lock => &mut self.timers.lock_wait,
                WaitTimer::Commit => &mut self.timers.commit_wait,
            } += blocked;
            if site.pacing == Pacing::Park {
                WAIT_AVG.set(observe(WAIT_AVG.get(), blocked));
            }
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ts::TsSource;

    #[test]
    fn lock_mode_conflicts() {
        assert!(!LockMode::Sh.conflicts(LockMode::Sh));
        assert!(LockMode::Sh.conflicts(LockMode::Ex));
        assert!(LockMode::Ex.conflicts(LockMode::Sh));
        assert!(LockMode::Ex.conflicts(LockMode::Ex));
    }

    #[test]
    fn wound_then_commit_point_fails() {
        let t = TxnShared::new(1, 10);
        assert!(t.set_abort(AbortReason::Wounded));
        assert!(!t.try_commit_point());
        assert_eq!(t.status(), TxnStatus::Aborted);
        assert_eq!(t.abort_reason(), AbortReason::Wounded);
    }

    #[test]
    fn commit_point_then_wound_fails() {
        let t = TxnShared::new(1, 10);
        assert!(t.try_commit_point());
        assert!(!t.set_abort(AbortReason::Wounded));
        assert_eq!(t.status(), TxnStatus::Committed);
    }

    #[test]
    fn double_wound_reports_first_reason() {
        let t = TxnShared::new(1, 10);
        assert!(t.set_abort(AbortReason::Cascade));
        assert!(!t.set_abort(AbortReason::Wounded));
        assert_eq!(t.abort_reason(), AbortReason::Cascade);
    }

    #[test]
    fn semaphore_inc_dec() {
        let t = TxnShared::new(1, 10);
        t.semaphore_inc();
        t.semaphore_inc();
        assert_eq!(t.semaphore(), 2);
        t.semaphore_dec();
        t.semaphore_dec();
        assert_eq!(t.semaphore(), 0);
    }

    #[test]
    fn every_abort_reason_round_trips_through_the_table() {
        // Exhaustive on purpose: a new variant fails to compile here until
        // it is listed, and then fails below until it has a table row.
        fn listed(r: AbortReason) -> AbortReason {
            match r {
                AbortReason::Wounded
                | AbortReason::Cascade
                | AbortReason::WaitDie
                | AbortReason::NoWait
                | AbortReason::SiloValidation
                | AbortReason::SiloLockFail
                | AbortReason::User
                | AbortReason::Ic3Validation
                | AbortReason::SnapshotNotVisible
                | AbortReason::DurabilityFailed
                | AbortReason::WaitTimeout => r,
            }
        }
        let mut names = std::collections::HashSet::new();
        for (i, &(reason, name)) in AbortReason::ALL.iter().enumerate() {
            assert_eq!(listed(reason).index(), i, "{name} sits at its own index");
            assert!(names.insert(name), "label {name} is unique");
            let t = TxnShared::new(1, 10);
            assert!(t.set_abort(reason));
            assert_eq!(t.abort_reason(), reason, "{name} survives the status word");
        }
    }

    const TEST_SITE: WaitSite = WaitSite {
        timer: WaitTimer::Lock,
        timeout: Duration::from_secs(30),
        on_timeout: AbortReason::WaitTimeout,
        pacing: Pacing::Park,
    };

    /// Spins until the waiter thread has published itself as parked.
    fn until_parked(t: &TxnShared) {
        while t.wake_word() & PARKED == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn wait_ready_on_first_check_charges_nothing() {
        for pacing in [Pacing::Park, Pacing::Yield] {
            let mut ctx = TxnCtx::new(TxnShared::new(1, 10));
            let mut calls = 0;
            let got = ctx.wait(
                WaitSite {
                    pacing,
                    ..TEST_SITE
                },
                |_| {
                    calls += 1;
                    Some(7)
                },
            );
            assert_eq!(got, Ok(7));
            assert_eq!(calls, 1);
            assert_eq!(ctx.timers.lock_wait, Duration::ZERO);
            assert_eq!(ctx.timers.commit_wait, Duration::ZERO);
        }
    }

    #[test]
    fn wait_observes_an_abort_that_precedes_it() {
        let mut ctx = TxnCtx::new(TxnShared::new(1, 10));
        ctx.shared.set_abort(AbortReason::Cascade);
        let res = ctx.wait(TEST_SITE, |_| -> Option<()> {
            panic!("an aborted transaction's predicate never runs")
        });
        assert_eq!(res, Err(Abort(AbortReason::Cascade)));
        assert_eq!(ctx.timers.lock_wait, Duration::ZERO);
    }

    #[test]
    fn wait_observes_an_abort_while_parked() {
        let shared = TxnShared::new(1, 10);
        let waiter = Arc::clone(&shared);
        let h = std::thread::spawn(move || {
            let mut ctx = TxnCtx::new(waiter);
            let res = ctx.wait(TEST_SITE, |_| None::<()>);
            (res, ctx.timers)
        });
        until_parked(&shared);
        shared.set_abort(AbortReason::Wounded);
        let (res, timers) = h.join().unwrap();
        assert_eq!(res, Err(Abort(AbortReason::Wounded)));
        assert!(
            timers.lock_wait > Duration::ZERO,
            "the blocked time is charged"
        );
        assert_eq!(timers.commit_wait, Duration::ZERO);
    }

    #[test]
    fn wait_wakes_when_the_predicate_turns_true() {
        for pacing in [Pacing::Park, Pacing::Yield] {
            let shared = TxnShared::new(1, 10);
            shared.semaphore_inc();
            let waiter = Arc::clone(&shared);
            let (polled_tx, polled_rx) = std::sync::mpsc::channel();
            let h = std::thread::spawn(move || {
                let mut ctx = TxnCtx::new(waiter);
                let site = WaitSite {
                    timer: WaitTimer::Commit,
                    pacing,
                    ..TEST_SITE
                };
                let res = ctx.wait(site, |ctx| {
                    let ready = ctx.shared.semaphore() == 0;
                    if !ready {
                        let _ = polled_tx.send(());
                    }
                    ready.then_some(())
                });
                (res, ctx.timers)
            });
            // The semaphore drops only after the waiter found it non-zero.
            polled_rx.recv().unwrap();
            shared.semaphore_dec();
            let (res, timers) = h.join().unwrap();
            assert_eq!(res, Ok(()));
            assert!(timers.commit_wait > Duration::ZERO);
            assert_eq!(timers.lock_wait, Duration::ZERO);
        }
    }

    #[test]
    fn wait_deadline_books_the_sites_reason_and_timer() {
        let timeout = Duration::from_millis(5);
        for (pacing, timer, on_timeout) in [
            (Pacing::Park, WaitTimer::Lock, AbortReason::WaitTimeout),
            (Pacing::Yield, WaitTimer::Commit, AbortReason::Ic3Validation),
        ] {
            let mut ctx = TxnCtx::new(TxnShared::new(1, 10));
            let site = WaitSite {
                timer,
                timeout,
                on_timeout,
                pacing,
            };
            assert_eq!(ctx.wait(site, |_| None::<()>), Err(Abort(on_timeout)));
            assert_eq!(ctx.shared.abort_reason(), on_timeout);
            let (charged, other) = match timer {
                WaitTimer::Lock => (ctx.timers.lock_wait, ctx.timers.commit_wait),
                WaitTimer::Commit => (ctx.timers.commit_wait, ctx.timers.lock_wait),
            };
            assert!(charged >= timeout, "{charged:?} covers the whole wait");
            assert_eq!(other, Duration::ZERO);
        }
    }

    #[test]
    fn wait_predicate_fails_the_attempt_by_aborting_it() {
        for pacing in [Pacing::Park, Pacing::Yield] {
            let mut ctx = TxnCtx::new(TxnShared::new(1, 10));
            let res = ctx.wait(
                WaitSite {
                    pacing,
                    ..TEST_SITE
                },
                |ctx| {
                    ctx.shared.set_abort(AbortReason::WaitDie);
                    None::<()>
                },
            );
            // Well inside TEST_SITE's 30 s: neither pacing sleeps it out.
            assert_eq!(res, Err(Abort(AbortReason::WaitDie)));
        }
    }

    #[test]
    fn wait_is_not_slept_through_when_notified_between_ready_and_park() {
        // The notification lands after the round's snapshot and before the
        // pause — the gap a bare "is anybody parked?" check sleeps through.
        // Gate open: the spin catches it. Gate closed: `begin_park` refuses.
        for (avg, spin_wakes) in [(Duration::ZERO, 1), (2 * SPIN_CAP, 0)] {
            WAIT_AVG.set(avg);
            let mut ctx = TxnCtx::new(TxnShared::new(1, 10));
            let mut calls = 0;
            let res = ctx.wait(TEST_SITE, |ctx| {
                calls += 1;
                if calls == 1 {
                    ctx.shared.notify();
                    return None;
                }
                Some(calls)
            });
            assert_eq!(res, Ok(2));
            assert_eq!(ctx.timers.parks, 0);
            assert_eq!(ctx.timers.spin_wakes, spin_wakes);
        }
    }

    #[test]
    fn wait_yield_pacing_never_spins_or_parks() {
        let mut ctx = TxnCtx::new(TxnShared::new(1, 10));
        let site = WaitSite {
            pacing: Pacing::Yield,
            ..TEST_SITE
        };
        let mut calls = 0;
        let res = ctx.wait(site, |ctx| {
            calls += 1;
            ctx.shared.notify();
            (calls == 4).then_some(())
        });
        assert_eq!(res, Ok(()));
        assert_eq!((ctx.timers.parks, ctx.timers.spin_wakes), (0, 0));
        assert_eq!(WAIT_AVG.get(), Duration::ZERO, "and leaves the gate alone");
    }

    #[test]
    fn history_gate_closes_on_long_waits_and_reopens_on_short_ones() {
        assert_eq!(spin_budget(Duration::ZERO), SPIN_CAP);
        let mut avg = Duration::ZERO;
        for _ in 0..8 {
            avg = observe(avg, Duration::from_millis(500));
        }
        assert_eq!(spin_budget(avg), Duration::ZERO);
        for _ in 0..3 {
            avg = observe(avg, SPIN_CAP / 8);
        }
        assert_eq!(spin_budget(avg), SPIN_CAP);
        // One failed spin (the cap, then a full park) does not close it.
        let failed = observe(SPIN_CAP / 4, SPIN_CAP + PARK_TIMEOUT);
        assert_eq!(spin_budget(failed), SPIN_CAP);
    }

    #[test]
    fn dynamic_ts_assignment_is_idempotent() {
        let src = TsSource::new();
        let t = TxnShared::new(7, crate::ts::UNASSIGNED);
        assert_eq!(t.ts(), crate::ts::UNASSIGNED);
        let a = t.assign_ts_if_unassigned(&src);
        let b = t.assign_ts_if_unassigned(&src);
        assert_eq!(a, b);
        assert_eq!(t.ts(), a);
        assert_ne!(a, crate::ts::UNASSIGNED);
    }

    #[test]
    fn prio_orders_unassigned_last() {
        let assigned = TxnShared::new(100, 5);
        let unassigned = TxnShared::new(1, crate::ts::UNASSIGNED);
        assert!(assigned.prio() < unassigned.prio());
    }
}
