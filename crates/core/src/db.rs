//! The database: a storage catalog instantiated with [`crate::TupleCc`]
//! metadata plus the global counters the protocols share (timestamp source,
//! transaction-id allocator) and the MVCC snapshot machinery
//! (commit clock, active-snapshot registry, published GC watermark).
//!
//! # The lock-free commit pipeline
//!
//! Every commit brackets its install phase with
//! [`CommitClock::allocate`]/[`CommitClock::finish`], and every snapshot
//! begins with [`CommitClock::stable`] plus a registry registration — so
//! these five operations are the hottest shared seam in the system. None
//! of them acquires a `Mutex`/`RwLock` on the steady-state path (the
//! commit-pipeline stress test asserts this against the lock counter in
//! the vendored `parking_lot` shim):
//!
//! * [`CommitClock`] is an atomic `next` counter plus a fixed ring of
//!   cache-padded per-slot atomics recording finished timestamps; the
//!   stable point is maintained in a cached atomic advanced by finishers.
//! * [`SnapshotRegistry`] is a set of shards, each a count of its live
//!   snapshots plus epoch bins — each bin one packed `AtomicU64` holding
//!   `(epoch, refcount)` — so concurrent snapshot register/release
//!   operations touch disjoint cache lines and never serialize against
//!   each other. A registration waits for the commits already in flight
//!   (`CommitClock::drain`); a commit never waits for a snapshot.
//!
//! # Memory-ordering contract
//!
//! The invariant the orderings protect: **a snapshot taken at timestamp
//! `s` observes every install of every commit with timestamp `<= s`**, and
//! **the published GC watermark never exceeds the timestamp of any live
//! snapshot**.
//!
//! * `finish(ts)` stores the slot with `Release` *after* the commit's
//!   installs, then issues a `SeqCst` fence and advances the cached
//!   stable point with an `AcqRel` compare-exchange. The fence totally
//!   orders concurrent finishers' store-then-scan sequences, so at least
//!   one of any pair observes the other's slot and walks `stable` over
//!   both (without it, store-buffering could strand a finished commit
//!   outside `stable` forever). Advancing to `t` requires an `Acquire`
//!   load of slot `t` (synchronizing with `t`'s finisher) and an
//!   `Acquire` view of the previous stable value (synchronizing with the
//!   previous advancer), so a reader that `Acquire`-loads `stable() == s`
//!   transitively happens-after the installs of *every* commit `<= s`.
//! * Snapshot registration orders a `SeqCst` bin update **before** a
//!   `SeqCst` re-read of the stable point (which becomes the snapshot
//!   timestamp), while the watermark publisher `SeqCst`-reads the stable
//!   point **before** `SeqCst`-scanning the bins. In the single total
//!   order of those operations, a publisher that misses a registration
//!   must have read a stable value no newer than the one the registrant
//!   adopted — so the published floor (which is capped by that stable
//!   read) can never exceed the registrant's snapshot timestamp. A
//!   publisher that *sees* the registration is capped by the bin's epoch
//!   floor instead, which is `<=` the snapshot timestamp by construction.
//! * The watermark itself is published with `fetch_max` (`AcqRel`), so a
//!   stale racer can never move it backwards.
//! * A committer allocates its timestamp `C` (a `SeqCst` RMW on `next`)
//!   and then reads each registry shard's live-snapshot count (`SeqCst`
//!   loads); a registering snapshot raises its shard's count (a `SeqCst`
//!   RMW) and then reads `next` (a `SeqCst` load). In the single total
//!   order of those operations, a committer that reads 0 in the
//!   snapshot's shard allocated `C` before the snapshot read `next`, so
//!   the snapshot sees `next > C`, waits until `stable >= next - 1 >= C`
//!   (`CommitClock::drain`) and adopts a timestamp `>= C`. It never needs the image the committer dropped at
//!   install (`Database::install_watermark` returned `C`). A committer
//!   that reads a count of 1 or more installs under the published
//!   watermark, as above.

use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use bamboo_storage::{Catalog, PartitionId, RouteStrategy, Router, Schema, Table, TableId};

use crate::meta::TupleCc;
use crate::partition::{PartitionedDb, PartitionedDbBuilder};
use crate::sync::{wait_round, CachePadded};
use crate::ts::TsSource;
use crate::wal::{DurabilityHorizon, WalHandle};

/// Default watermark-publish tick: every `EPOCH_COMMITS`-th commit
/// republishes the snapshot GC watermark, so GC keeps up even when no
/// snapshot churn refreshes it. Tunable per database through
/// [`DbOptions::epoch_commits`].
pub const EPOCH_COMMITS: u64 = 64;

/// Database-level tuning knobs, applied at build time through
/// [`DatabaseBuilder::with_options`] (or
/// [`crate::partition::PartitionedDbBuilder::with_options`]). The defaults
/// reproduce the historical hard-coded constants, so an un-tuned database
/// behaves exactly as before the knobs existed.
#[derive(Clone, Debug)]
pub struct DbOptions {
    /// Watermark-publish tick: every `epoch_commits`-th commit
    /// republishes the snapshot GC watermark. Smaller values keep the
    /// watermark fresher (tighter version-chain GC) at the cost of more
    /// registry scans; larger values amortize the scan further but let
    /// chains run up to one extra tick of commits long. Must be at least 1.
    pub epoch_commits: u64,
    /// Directory for durable per-partition WAL segments. `None` (the
    /// default) logs every commit to the committing session's in-memory
    /// ring: no files, no fsync, nothing survives the process. Set through
    /// [`DbOptions::with_wal_dir`] to make
    /// [`crate::partition::PartitionedDbBuilder::build`] open file-backed
    /// segments instead. [`DatabaseBuilder::build`] refuses it: checkpoint
    /// and recovery live on [`PartitionedDb`], so a durable database —
    /// one partition included — is built through
    /// [`PartitionedDb::builder`].
    pub wal_dir: Option<std::path::PathBuf>,
    /// When (if ever) the durable log fsyncs on the commit path. Ignored
    /// unless [`DbOptions::wal_dir`] is set. See
    /// [`bamboo_storage::FsyncPolicy`] for the durability horizon each
    /// policy buys.
    pub fsync_policy: bamboo_storage::FsyncPolicy,
    /// Frame bytes a durable WAL segment holds before the log rotates to
    /// a fresh file. Each segment file is preallocated (zero-filled and
    /// synced) to this size plus its header when it is created. Ignored
    /// unless [`DbOptions::wal_dir`] is set.
    pub segment_bytes: u64,
    /// Storage backend behind every durable file operation (WAL segments
    /// and checkpoint files). `None` (the default) uses the real
    /// filesystem; the chaos suite installs a seeded
    /// [`bamboo_storage::FaultBackend`] here through
    /// [`DbOptions::with_log_backend`]. Ignored unless
    /// [`DbOptions::wal_dir`] is set.
    pub log_backend: Option<std::sync::Arc<dyn bamboo_storage::LogBackend>>,
}

/// Default durable-segment rotation size (8 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            epoch_commits: EPOCH_COMMITS,
            wal_dir: None,
            fsync_policy: bamboo_storage::FsyncPolicy::Never,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            log_backend: None,
        }
    }
}

impl DbOptions {
    /// Default options (the historical constants).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the watermark-publish tick (clamped to at least 1).
    pub fn with_epoch_commits(mut self, n: u64) -> Self {
        self.epoch_commits = n.max(1);
        self
    }

    /// Enables durable WAL segments under `dir` (per-partition files; the
    /// directory is created on build if missing).
    pub fn with_wal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Sets the fsync policy of the durable log (no effect without
    /// [`DbOptions::with_wal_dir`]).
    pub fn with_fsync_policy(mut self, policy: bamboo_storage::FsyncPolicy) -> Self {
        self.fsync_policy = policy;
        self
    }

    /// Sets the durable-segment rotation size in bytes.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Installs a storage backend behind every durable file operation
    /// (segments *and* checkpoint files). The chaos suite passes a
    /// [`bamboo_storage::FaultBackend`] wrapping a seeded
    /// [`bamboo_storage::FaultInjector`]; production code leaves the
    /// default (`None` → the real filesystem).
    pub fn with_log_backend(
        mut self,
        backend: std::sync::Arc<dyn bamboo_storage::LogBackend>,
    ) -> Self {
        self.log_backend = Some(backend);
        self
    }

    /// The durable log directory as one handle — [`DbOptions::wal_dir`]
    /// behind the configured backend (the real filesystem by default) —
    /// or `None` when the database has no durable log.
    pub fn log_dir(&self) -> Option<bamboo_storage::LogDir> {
        let dir = self.wal_dir.as_ref()?;
        Some(match &self.log_backend {
            Some(backend) => bamboo_storage::LogDir::new(dir, Arc::clone(backend)),
            None => bamboo_storage::LogDir::real(dir),
        })
    }
}

/// A partition's view of the whole database: the router plus every
/// partition's catalog and durable log. Held by each
/// partition's [`Database`] so any partition can resolve any
/// `(table, key)` — the seam that lets one `Session` execute
/// cross-partition transactions without new protocol plumbing.
///
/// The vectors hold catalogs/WALs (not `Database`s), so there is no `Arc`
/// cycle: partitions share these slices, and nothing in them points back
/// at a `Database`.
pub(crate) struct Topology {
    /// The (table, key) → partition map.
    pub(crate) router: Arc<Router>,
    /// Every partition's catalog shard, indexed by partition id.
    pub(crate) catalogs: Arc<[Arc<Catalog<TupleCc>>]>,
    /// Every partition's durable log, indexed by partition id — empty
    /// when the database has no [`DbOptions::wal_dir`] (commits then go to
    /// the committing session's ring).
    pub(crate) wals: Arc<[Arc<WalHandle>]>,
    /// The partition this view belongs to.
    pub(crate) me: PartitionId,
}

/// Ring width of the commit clock: the maximum number of commits that can
/// be between `allocate` and `finish` at once before an allocator has to
/// wait for the oldest one. Must be a power of two; 4096 is ~2 orders of
/// magnitude above any realistic in-flight commit count (one per worker
/// thread), so the wrap guard never fires in practice.
#[cfg(not(bamboo_model))]
const CLOCK_WINDOW: usize = 4096;

/// Under the model checker every slot is a model memory location created
/// per explored schedule, so the ring shrinks to keep iterations cheap.
/// Still far above the 2–3 in-flight commits the model tests drive.
#[cfg(bamboo_model)]
const CLOCK_WINDOW: usize = 16;

/// Allocates commit timestamps and tracks which are still *in flight*
/// (allocated but not fully installed). [`CommitClock::stable`] is the
/// largest timestamp `s` such that every commit with timestamp `<= s` has
/// finished installing — the only timestamps snapshots may be taken at:
/// reading at a higher timestamp could miss a write that is still being
/// installed.
///
/// Lock-free: an atomic `next` counter, a fixed ring of per-slot atomics
/// (slot `ts % CLOCK_WINDOW` holds the newest *finished* timestamp mapping
/// to it), and a cached `stable` atomic that finishers advance with a
/// bounded forward scan. `allocate` is one `fetch_add`, `finish` one store
/// plus the scan, `stable` a single load. See the module docs for the
/// memory-ordering contract.
pub struct CommitClock {
    /// Next timestamp to hand out (1-based; 0 is the loader timestamp).
    next: CachePadded<AtomicU64>,
    /// Cached stable point: all commits `<= stable` have finished.
    stable: CachePadded<AtomicU64>,
    /// `slots[ts % CLOCK_WINDOW]` = newest finished timestamp congruent to
    /// `ts` (0 = none yet). Monotone per slot: an allocator reuses a slot
    /// only after its previous occupant finished.
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl CommitClock {
    pub(crate) fn new() -> Self {
        CommitClock {
            next: CachePadded::new(AtomicU64::new(1)),
            stable: CachePadded::new(AtomicU64::new(0)),
            slots: (0..CLOCK_WINDOW)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    fn slot(&self, ts: u64) -> &AtomicU64 {
        &self.slots[(ts as usize) & (CLOCK_WINDOW - 1)]
    }

    /// Allocates a fresh commit timestamp, marked in flight until
    /// [`CommitClock::finish`].
    ///
    /// Wait-free except when `CLOCK_WINDOW` commits are simultaneously in
    /// flight (the slot being reused still belongs to timestamp
    /// `ts - CLOCK_WINDOW`); then it spins until that commit finishes.
    pub fn allocate(&self) -> u64 {
        // ordering: SeqCst — the allocation must precede the committer's
        // read of the live-snapshot count in the total order a registering
        // snapshot's count raise and `next()` read also take part in
        // (module docs, bullet 4). On x86 every RMW is SeqCst anyway.
        let ts = self.next.fetch_add(1, Ordering::SeqCst);
        if ts > CLOCK_WINDOW as u64 {
            let prev = ts - CLOCK_WINDOW as u64;
            let slot = self.slot(ts);
            let mut rounds = 0;
            // ordering: Acquire — reusing the slot must happen-after the
            // previous occupant's finish (its Release store), so the new
            // occupant never overwrites an unpublished finish.
            while slot.load(Ordering::Acquire) < prev {
                // The previous occupant is typically a thread that was
                // preempted between allocate and finish.
                wait_round(&mut rounds);
            }
        }
        ts
    }

    /// Marks `ts` fully installed. Must be called exactly once per
    /// [`CommitClock::allocate`], including on the abort path after the
    /// commit point failed — a leaked timestamp would pin [`stable`]
    /// forever.
    ///
    /// [`stable`]: CommitClock::stable
    pub fn finish(&self, ts: u64) {
        let slot = self.slot(ts);
        // ordering: Relaxed — debug-only sanity reads; no synchronization
        // is derived from them.
        debug_assert!(
            slot.load(Ordering::Relaxed) < ts && ts < self.next.load(Ordering::Relaxed),
            "finish of unallocated or already-finished commit ts {ts}"
        );
        // ordering: Release — everything this commit installed
        // happens-before any thread that observes the slot (and hence any
        // stable point covering `ts`).
        slot.store(ts, Ordering::Release);
        // ordering: SeqCst fence — without it, two finishers of adjacent
        // timestamps can each have their slot store sitting in the store
        // buffer while scanning past the other's slot (store-buffering
        // reordering — legal even on x86), leaving `stable` permanently
        // short of a finished commit with no later finisher to re-scan.
        // The fence totally orders the finishers: the later one is
        // guaranteed to see the earlier one's slot store and advances over
        // both. Model-checked by `model_check::clock_*`; compiling with
        // `--cfg bamboo_model_no_fence` removes it so the checker can
        // demonstrate the stranded-stable schedule it prevents.
        #[cfg(not(bamboo_model_no_fence))]
        crate::sync::fence(Ordering::SeqCst);
        self.advance_stable();
    }

    /// Advances the cached stable point past every contiguously-finished
    /// timestamp. Bounded: scans at most the in-flight window. Concurrent
    /// finishers race benignly — the CAS keeps `stable` monotone, and the
    /// finisher of a gap-filling timestamp walks past all already-finished
    /// successors.
    fn advance_stable(&self) {
        // ordering: Acquire — synchronizes with the previous advancer's
        // AcqRel CAS, so this scan starts from a fully-published prefix.
        let mut s = self.stable.load(Ordering::Acquire);
        loop {
            let t = s + 1;
            // `>= t`: the slot holds the newest finished ts congruent to
            // `t`; a larger value implies `t` finished long ago (its slot
            // was reused, which required `t` finished first).
            // ordering: Acquire — synchronizes with `t`'s finisher's
            // Release slot store: covering `t` happens-after its installs.
            if self.slot(t).load(Ordering::Acquire) < t {
                return;
            }
            // ordering: AcqRel success / Acquire failure — publishing the
            // new stable point releases the chain of installs it covers to
            // any Acquire reader of `stable`; a lost race re-reads the
            // winner's value with Acquire for the same reason.
            match self
                .stable
                .compare_exchange_weak(s, t, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => s = t,
                // Another finisher advanced past us; continue from its
                // value (monotone, so `cur > s` — never re-check `t`).
                Err(cur) => s = cur,
            }
        }
    }

    /// The next timestamp to be handed out: every allocated timestamp is
    /// strictly below the returned value.
    ///
    /// The fuzzy checkpoint reads this *after* capturing the per-partition
    /// log cuts: any commit whose timestamp is at or above the returned
    /// value allocated after this load, hence logs after the cuts — which
    /// is exactly the bound that makes `stable = next - 1` a safe
    /// checkpoint horizon.
    pub fn next(&self) -> u64 {
        // ordering: SeqCst — must not read a stale value that misses an
        // allocation whose log records precede the checkpoint's cut
        // capture; SeqCst puts this load after the cut capture in the
        // single total order the checkpoint reasons about.
        self.next.load(Ordering::SeqCst)
    }

    /// Waits until every timestamp allocated before the call has finished,
    /// and returns the newest of them (0 when none was ever allocated):
    /// afterwards `stable()` is at least the returned value. Ends because
    /// an allocated timestamp always finishes before its committer returns
    /// control to its caller; the caller must not itself hold one.
    pub(crate) fn drain(&self) -> u64 {
        let last = self.next().saturating_sub(1);
        let mut rounds = 0;
        while self.stable() < last {
            wait_round(&mut rounds);
        }
        last
    }

    /// Fast-forwards a quiescent clock so every timestamp `<= ts` counts
    /// as finished and `ts + 1` is the next allocation. Recovery-only:
    /// callers guarantee no concurrent allocator or finisher exists.
    pub(crate) fn restore(&self, ts: u64) {
        // ordering: Relaxed throughout — recovery is single-threaded
        // before any session exists; the first post-recovery finish()'s
        // Release store publishes everything this wrote.
        for i in 0..CLOCK_WINDOW as u64 {
            // Newest t <= ts congruent to slot i (0 when none: timestamps
            // are 1-based, so slot value 0 means "never occupied").
            let base = ts - (ts % CLOCK_WINDOW as u64);
            let cand = base + i;
            let newest = if cand <= ts {
                cand
            } else {
                cand.saturating_sub(CLOCK_WINDOW as u64)
            };
            self.slots[i as usize].store(newest, Ordering::Relaxed);
        }
        self.stable.store(ts, Ordering::Relaxed);
        self.next.store(ts + 1, Ordering::Relaxed);
    }

    /// The newest timestamp at which a consistent snapshot can be taken
    /// (monotonically non-decreasing). A single atomic load.
    ///
    /// `SeqCst` so snapshot registration (bin update, then this load) and
    /// watermark publication (this load, then bin scan) order into one
    /// total order — see the module docs.
    #[inline]
    pub fn stable(&self) -> u64 {
        // ordering: SeqCst — participates in the registration/publication
        // total order described in the module docs (bin update before this
        // load; this load before the publisher's bin scan).
        self.stable.load(Ordering::SeqCst)
    }
}

/// Shards in the snapshot registry. Registrants pick a shard round-robin
/// per thread, so concurrent register/release traffic from different
/// threads lands on different cache lines.
#[cfg(not(bamboo_model))]
const SNAP_SHARDS: usize = 8;
/// Model-checking size: every bin load in a floor scan is a scheduling
/// point, so the registry shrinks to keep exhaustive exploration
/// tractable. The register/floor ordering argument is size-independent.
#[cfg(bamboo_model)]
const SNAP_SHARDS: usize = 2;

/// Epoch bins per shard. Live snapshot timestamps cluster near the clock
/// head, so a handful of bins per shard keeps collisions (two live epochs
/// `BINS * BIN_WIDTH` apart sharing a bin) vanishingly rare — and a
/// collision only makes the floor conservative, never wrong.
#[cfg(not(bamboo_model))]
const SNAP_BINS: usize = 32;
/// Model-checking size — see `SNAP_SHARDS`.
#[cfg(bamboo_model)]
const SNAP_BINS: usize = 4;

/// Commit timestamps per epoch bin. The bin floor (`epoch * BIN_WIDTH`)
/// understates its members' timestamps by at most `BIN_WIDTH - 1`, which
/// only delays GC by that many commits — it never reclaims a live version.
const BIN_WIDTH: u64 = 64;

/// Bits of the packed bin word holding the refcount.
const BIN_COUNT_BITS: u32 = 16;
const BIN_COUNT_MASK: u64 = (1 << BIN_COUNT_BITS) - 1;

#[inline]
fn bin_pack(epoch: u64, count: u64) -> u64 {
    debug_assert!(count <= BIN_COUNT_MASK, "snapshot bin refcount overflow");
    (epoch << BIN_COUNT_BITS) | count
}

#[inline]
fn bin_unpack(word: u64) -> (u64, u64) {
    (word >> BIN_COUNT_BITS, word & BIN_COUNT_MASK)
}

/// One registry shard: the count of its live snapshots and its epoch bins.
struct SnapShard {
    live: AtomicUsize,
    bins: [AtomicU64; SNAP_BINS],
}

/// A live snapshot registration: the snapshot timestamp plus the registry
/// coordinates needed to release it. Returned by
/// [`Database::register_snapshot`]; must be passed back to
/// [`Database::release_snapshot`] exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotGrant {
    /// The snapshot timestamp: reads resolve against the version chains
    /// at this point.
    pub ts: u64,
    shard: usize,
    bin: usize,
}

/// Registry of live read-only snapshots. The *watermark* — the oldest
/// timestamp any live snapshot can still read — gates version-chain GC:
/// a commit's install ([`bamboo_storage::VersionChain::install_at`]) only
/// reclaims versions superseded at or below it.
///
/// Lock-free: registration raises its shard's live count, drains the
/// commit clock (`CommitClock::drain`), then does one packed
/// compare-exchange on a sharded epoch bin plus two stable-point loads;
/// release is one compare-exchange on the bin and lowers the live count.
/// The floor is computed by scanning the bins, bounded above by a stable
/// value read *before* the scan — the ordering that makes a concurrent
/// registration either visible to the scan or newer than its bound (see
/// the module docs).
pub struct SnapshotRegistry {
    shards: Box<[CachePadded<SnapShard>]>,
    /// Round-robin shard assignment for registrant threads.
    next_shard: AtomicUsize,
}

thread_local! {
    /// The registry shard this thread registers snapshots in (assigned
    /// round-robin on first use; `usize::MAX` = unassigned).
    static SNAP_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

impl SnapshotRegistry {
    pub(crate) fn new() -> Self {
        SnapshotRegistry {
            shards: (0..SNAP_SHARDS)
                .map(|_| {
                    CachePadded::new(SnapShard {
                        live: AtomicUsize::new(0),
                        bins: std::array::from_fn(|_| AtomicU64::new(0)),
                    })
                })
                .collect(),
            next_shard: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn my_shard(&self) -> usize {
        SNAP_SHARD.with(|c| {
            let mut s = c.get();
            if s == usize::MAX {
                // ordering: Relaxed — round-robin counter; the value only
                // spreads threads over shards, it synchronizes nothing.
                s = self.next_shard.fetch_add(1, Ordering::Relaxed) % SNAP_SHARDS;
                c.set(s);
            }
            s
        })
    }

    /// Registers a snapshot. It first raises its shard's live count and
    /// drains the commit clock ([`CommitClock::drain`]): every commit
    /// allocated before the raise may have dropped the image it replaced,
    /// so the snapshot waits for those commits to finish and takes a
    /// timestamp at or above theirs. Then it publishes presence in an epoch bin
    /// *first*, and adopts the stable point re-read *after* publication as
    /// the snapshot timestamp. That order is what makes the registration
    /// race-free against watermark publication without a lock.
    fn register(&self, clock: &CommitClock) -> SnapshotGrant {
        let shard_i = self.my_shard();
        let shard = &self.shards[shard_i];
        // ordering: SeqCst — the raise precedes the drain's `next()` read,
        // and a committer's allocation precedes its read of this count, in
        // one total order: a committer that read 0 allocated before our
        // `next()` read, so the drain waits for it (module docs, bullet 4).
        shard.live.fetch_add(1, Ordering::SeqCst);
        // `--cfg bamboo_model_no_drain` removes the drain so the model
        // checker can show the lost version it prevents.
        #[cfg(not(bamboo_model_no_drain))]
        clock.drain();
        let provisional = clock.stable();
        let epoch = provisional / BIN_WIDTH;
        let bin_i = (epoch as usize) % SNAP_BINS;
        let bin = &shard.bins[bin_i];
        // ordering: SeqCst — the bin update must precede the stable re-read
        // below in the single total order the watermark publisher also
        // participates in (module docs, bullet 2).
        let mut cur = bin.load(Ordering::SeqCst);
        loop {
            let (e, c) = bin_unpack(cur);
            // An empty bin adopts our epoch. An occupied bin keeps the
            // *smaller* epoch label: the label must lower-bound every
            // member's timestamp, and a delayed registrant may arrive with
            // an older epoch than the current occupants'.
            let new = if c == 0 {
                bin_pack(epoch, 1)
            } else {
                bin_pack(e.min(epoch), c + 1)
            };
            // ordering: SeqCst — see the bin load above: publication of
            // this registration orders before the stable re-read.
            match bin.compare_exchange_weak(cur, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
        // Adopt the freshest stable point now that the bin pins us: any
        // publisher that missed the bin update read its stable bound
        // before this load, so its floor cannot exceed our timestamp.
        let ts = clock.stable();
        debug_assert!(ts >= epoch * BIN_WIDTH);
        SnapshotGrant {
            ts,
            shard: shard_i,
            bin: bin_i,
        }
    }

    /// Unregisters a snapshot: one compare-exchange decrementing the bin's
    /// refcount. The epoch label of an emptied bin goes stale harmlessly —
    /// floor scans skip bins with a zero count.
    fn unregister(&self, grant: SnapshotGrant) {
        let shard = &self.shards[grant.shard];
        let bin = &shard.bins[grant.bin];
        // ordering: SeqCst — releases participate in the same total order
        // as registrations and floor scans; a weaker release could let a
        // concurrent scan double-count or miss the bin transition.
        let mut cur = bin.load(Ordering::SeqCst);
        loop {
            let (e, c) = bin_unpack(cur);
            debug_assert!(c > 0, "unregister of unknown snapshot {}", grant.ts);
            let new = bin_pack(e, c.saturating_sub(1));
            // ordering: SeqCst — see the bin load above.
            match bin.compare_exchange_weak(cur, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
        // ordering: SeqCst — the same total order as the raise in
        // `register`; a committer that reads 0 from here on drops the
        // images it replaces, which this snapshot no longer reads.
        shard.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// Computes the GC floor: the minimum over every occupied bin's epoch
    /// floor and a stable point read **before** the scan (the bound that
    /// covers registrations the scan raced past).
    fn floor(&self, clock: &CommitClock) -> u64 {
        // Read stable BEFORE scanning: a registrant that the scan misses
        // adopted a stable value read after its bin publication, which in
        // the SeqCst total order is >= this one.
        let bound = clock.stable();
        let mut floor = bound;
        for bin in self.shards.iter().flat_map(|shard| &shard.bins) {
            // ordering: SeqCst — the scan must order after the pre-scan
            // stable read in the registration/publication total order; a
            // registration this scan misses then provably adopted a
            // timestamp >= our stable bound (module docs, bullet 2).
            let (e, c) = bin_unpack(bin.load(Ordering::SeqCst));
            if c > 0 {
                floor = floor.min(e * BIN_WIDTH);
            }
        }
        floor
    }

    /// True when some snapshot is registered. One load per shard, each
    /// of a line that only registrations write, so on a database running
    /// no snapshot every load hits the committer's cache.
    #[inline]
    fn any_live(&self) -> bool {
        self.shards
            .iter()
            // ordering: SeqCst — a committer's read of the counts follows
            // its allocation in the total order `register` reasons about
            // (module docs, bullet 4).
            .any(|s| s.live.load(Ordering::SeqCst) != 0)
    }

    /// Number of live snapshots: registered and not yet unregistered.
    pub fn active_count(&self) -> usize {
        self.shards
            .iter()
            // ordering: SeqCst — counts taken in the same total order as
            // register/unregister, so a quiesced registry reads exactly 0.
            .map(|s| s.live.load(Ordering::SeqCst))
            .sum()
    }
}

/// The bit of partition `p` in a partition mask. Past 64 partitions the
/// ids fold onto the `u64`, which can only under-count a span that wide.
#[inline]
pub(crate) fn partition_bit(p: PartitionId) -> u64 {
    1 << (p.0 % 64)
}

/// A loaded database shared by all worker threads: *one partition* of a
/// [`PartitionedDb`] — its own catalog shard plus a `Topology` view of
/// every partition. [`Database::builder`] builds the one-partition case
/// and hands out that partition.
///
/// The commit clock, snapshot registry, timestamp source, published
/// watermark and transaction-id source are behind `Arc`s so every
/// partition of one database shares them: commit timestamps stay globally
/// unique and snapshots stay globally consistent no matter which partition
/// a transaction enters through.
pub struct Database {
    pub(crate) catalog: Arc<Catalog<TupleCc>>,
    /// Global timestamp source (Wound-Wait priorities).
    pub ts_source: Arc<TsSource>,
    /// MVCC commit clock: versioned installs are tagged with its
    /// timestamps; snapshots are taken at its stable point.
    pub commit_clock: Arc<CommitClock>,
    /// Live read-only snapshots (watermark source).
    pub snapshots: Arc<SnapshotRegistry>,
    /// Published GC watermark: a cached, possibly slightly stale lower
    /// bound on the oldest timestamp a live snapshot can read. Staleness
    /// only delays GC; it never reclaims a visible version.
    pub(crate) watermark: Arc<CachePadded<AtomicU64>>,
    /// Transaction incarnation ids (the TID source).
    pub(crate) txn_ids: Arc<CachePadded<AtomicU64>>,
    /// Global durability horizon: group-commit acknowledgments park on it
    /// until every commit with a smaller timestamp is durable. Shared by
    /// every partition, like the commit clock it advances with.
    pub(crate) horizon: Arc<DurabilityHorizon>,
    /// Tuning knobs fixed at build time.
    pub(crate) options: DbOptions,
    /// This partition's view of the whole database.
    pub(crate) topology: Topology,
}

impl Database {
    /// Starts building a one-partition database: register tables, then
    /// [`DatabaseBuilder::build`].
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder(PartitionedDb::builder(1))
    }

    /// Table accessor: this partition's *local shard* of the table; use
    /// [`Database::table_for`] to resolve a specific key to the shard that
    /// owns it.
    #[inline]
    pub fn table(&self, id: TableId) -> &Arc<Table<TupleCc>> {
        self.catalog.table(id)
    }

    /// Resolves `(table, key)` to the table shard owning that key — the
    /// routed partition's shard (replicated tables resolve locally). This
    /// is the lookup every protocol operation goes through, so a
    /// transaction begun on any partition can transparently read and
    /// write tuples of every partition.
    #[inline]
    pub fn table_for(&self, table: TableId, key: u64) -> &Arc<Table<TupleCc>> {
        self.route(table, key).1
    }

    /// Routes `(table, key)`: the partition that owns it and that
    /// partition's shard of `table`.
    #[inline]
    pub(crate) fn route(&self, table: TableId, key: u64) -> (PartitionId, &Arc<Table<TupleCc>>) {
        let t = &self.topology;
        let p = t.router.route_from(t.me, table, key);
        (p, t.catalogs[p.idx()].table(table))
    }

    /// Table id by name (setup paths).
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.catalog.table_id(name)
    }

    /// The underlying catalog (this partition's shard).
    pub fn catalog(&self) -> &Catalog<TupleCc> {
        &self.catalog
    }

    /// The partition this database is.
    pub fn partition_id(&self) -> PartitionId {
        self.topology.me
    }

    /// This partition's view of the whole database.
    #[inline]
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The build-time tuning knobs.
    #[inline]
    pub fn options(&self) -> &DbOptions {
        &self.options
    }

    /// The version-chain trim threshold commits install with (unused by
    /// the trim, which reclaims exactly the dead versions).
    #[inline]
    pub fn trim_threshold(&self) -> usize {
        bamboo_storage::DEFAULT_TRIM_THRESHOLD
    }

    /// True when `table` is replicated on every partition. Replicated
    /// tables are read-only reference data: a write would only touch the
    /// local replica and silently diverge the copies, so the write paths
    /// debug-assert against this.
    #[inline]
    pub fn is_table_replicated(&self, table: TableId) -> bool {
        self.topology.router.is_replicated(table)
    }

    /// True when `table` has an ordered index (checked on the local shard;
    /// ordered indexes are enabled uniformly across shards via
    /// `PartitionedDb::enable_ordered_index`).
    pub fn has_ordered_index(&self, table: TableId) -> bool {
        self.catalog.table(table).ordered_index().is_some()
    }

    /// The catalogs holding `table`'s rows from this partition's
    /// viewpoint: every partition's shard, or only the local replica of a
    /// replicated table.
    fn shards_of(&self, table: TableId) -> &[Arc<Catalog<TupleCc>>] {
        if self.topology.router.is_replicated(table) {
            std::slice::from_ref(&self.catalog)
        } else {
            &self.topology.catalogs
        }
    }

    /// All keys of `table` within `range`, ascending — merged across every
    /// partition's shard (replicated tables scan the local replica only).
    /// Panics when the ordered index is missing, like the scan paths
    /// always have.
    pub fn scan_keys(&self, table: TableId, range: std::ops::RangeInclusive<u64>) -> Vec<u64> {
        let mut keys: Vec<u64> = Vec::new();
        for cat in self.shards_of(table) {
            let idx = cat
                .table(table)
                .ordered_index()
                .expect("scan requires an ordered index (Table::enable_ordered_index)");
            keys.extend(idx.range(range.clone()));
        }
        keys.sort_unstable();
        keys
    }

    /// The smallest existing key of `table` strictly greater than `key`,
    /// across every partition's shard (next-key phantom protection spans
    /// the whole logical keyspace). `None` when no such key exists or the
    /// ordered index is missing.
    pub fn next_key_after(&self, table: TableId, key: u64) -> Option<u64> {
        self.shards_of(table)
            .iter()
            .filter_map(|cat| cat.table(table).ordered_index()?.next_key_after(key))
            .min()
    }

    /// The partitions the given `(table, key)` accesses touch, one
    /// [`partition_bit`] each. Drives the executor's cross-partition
    /// commit accounting.
    pub(crate) fn partition_mask(&self, keys: impl Iterator<Item = (TableId, u64)>) -> u64 {
        let t = &self.topology;
        keys.fold(0, |mask, (table, key)| {
            mask | partition_bit(t.router.route_from(t.me, table, key))
        })
    }

    /// The global durability horizon (group-commit acknowledgments park
    /// on it; see [`crate::wal::DurabilityHorizon`]).
    #[inline]
    pub fn durability_horizon(&self) -> &DurabilityHorizon {
        &self.horizon
    }

    /// Allocates a unique transaction incarnation id.
    #[inline]
    pub fn next_txn_id(&self) -> u64 {
        // ordering: Relaxed — uniqueness is all that matters; ids carry no
        // happens-before obligations.
        self.txn_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a live read-only snapshot and returns its grant. The
    /// grant's timestamp is a stable point of the commit clock, at which
    /// every smaller commit is fully installed. Must be paired with
    /// [`Database::release_snapshot`].
    ///
    /// Steady-state cost: one increment of its shard's live count, a wait
    /// for the commits in flight to finish, two atomic loads and one bin
    /// compare-exchange — no lock of any kind. Registration cannot raise
    /// the watermark, so nothing is published here.
    pub fn register_snapshot(&self) -> SnapshotGrant {
        self.snapshots.register(&self.commit_clock)
    }

    /// Releases a snapshot previously returned by
    /// [`Database::register_snapshot`], letting the watermark advance.
    ///
    /// One compare-exchange and a decrement of the live count; the
    /// watermark itself is republished lazily by the next tick
    /// ([`Database::note_commit`], every
    /// [`DbOptions::epoch_commits`]-th commit) or an explicit
    /// [`Database::publish_watermark`] — keeping the registry scan off the
    /// snapshot-end hot path. The staleness only delays GC by at most one
    /// tick of commits; it never reclaims a live version.
    pub fn release_snapshot(&self, grant: SnapshotGrant) {
        self.snapshots.unregister(grant);
    }

    /// The watermark a committer passes to its installs, read once per
    /// commit after [`CommitClock::allocate`] returned `commit_ts`. With no
    /// snapshot registered it returns `commit_ts`, so an install drops the
    /// image it replaces at once, while that image is still warm;
    /// otherwise it returns [`Database::gc_watermark`].
    ///
    /// `commit_ts` is safe while every count reads 0: a snapshot
    /// registering after that read raises a count first, then reads
    /// `next()`, which is above `commit_ts`, and drains the clock before
    /// it adopts a timestamp. Its timestamp is therefore at least
    /// `commit_ts`, and no version superseded at or below `commit_ts` is
    /// visible to it.
    #[inline]
    pub(crate) fn install_watermark(&self, commit_ts: u64) -> u64 {
        if !self.snapshots.any_live() {
            commit_ts
        } else {
            self.gc_watermark()
        }
    }

    /// The published GC watermark: version-chain GC may reclaim versions
    /// superseded at or below it. Reads a cached atomic — the hot commit
    /// path never scans the registry.
    #[inline]
    pub fn gc_watermark(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel fetch_max publish, so
        // a GC that reads the watermark sees the registry state that
        // justified it.
        self.watermark.load(Ordering::Acquire)
    }

    /// Recomputes and publishes the watermark from the registry/clock.
    pub fn publish_watermark(&self) {
        let floor = self.snapshots.floor(&self.commit_clock);
        // Monotonic publish: a stale racer must not move the watermark
        // backwards past a newer floor (fetch_max keeps it safe — the
        // floor is a lower bound on every *live* snapshot by construction,
        // see `SnapshotRegistry::register`/`floor`).
        // ordering: AcqRel — the publish releases the scan that justified
        // the floor to Acquire readers (`gc_watermark`) and keeps racing
        // publishers totally ordered on the cell.
        self.watermark.fetch_max(floor, Ordering::AcqRel);
    }

    /// Commit-side bookkeeping after a versioned install completes: marks
    /// `commit_ts` finished on the clock and, every
    /// [`DbOptions::epoch_commits`]-th commit, republishes the watermark.
    pub fn note_commit(&self, commit_ts: u64) {
        self.commit_clock.finish(commit_ts);
        if commit_ts % self.options.epoch_commits == 0 {
            self.publish_watermark();
        }
    }

    /// Total rows across all tables (sanity checks / stats).
    pub fn total_rows(&self) -> usize {
        self.catalog.tables().iter().map(|t| t.len()).sum()
    }
}

/// Builder for a one-partition [`Database`]: a [`PartitionedDbBuilder`]
/// over one partition with every table pinned to it, handing out that
/// partition's view.
pub struct DatabaseBuilder(PartitionedDbBuilder);

impl DatabaseBuilder {
    /// Registers a table.
    pub fn add_table(&mut self, name: &str, schema: Schema) -> TableId {
        self.0.add_table(name, schema, RouteStrategy::Pin(0))
    }

    /// Registers a table pre-sized for `cap` tuples.
    pub fn add_table_with_capacity(&mut self, name: &str, schema: Schema, cap: usize) -> TableId {
        self.0
            .add_table_with_capacity(name, schema, cap, RouteStrategy::Pin(0))
    }

    /// Replaces the tuning knobs (defaults reproduce the historical
    /// constants).
    pub fn with_options(&mut self, options: DbOptions) -> &mut Self {
        self.0.with_options(options);
        self
    }

    /// Finalizes the database.
    ///
    /// # Panics
    ///
    /// When the options carry a [`DbOptions::wal_dir`]: the `Database`
    /// this returns cannot reach `checkpoint` / `recover`, so a durable
    /// log behind it could never be replayed. Build durable databases
    /// through [`PartitionedDb::builder`] (one partition is fine).
    pub fn build(self) -> Arc<Database> {
        assert!(
            self.0.options.wal_dir.is_none(),
            "Database::builder() cannot build a durable database (checkpoint and recover \
             live on PartitionedDb): use PartitionedDb::builder(1) with DbOptions::with_wal_dir"
        );
        Arc::clone(self.0.build().db(PartitionId(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_storage::DataType;

    #[test]
    fn builder_registers_tables() {
        let mut b = Database::builder();
        let a = b.add_table("a", Schema::build().column("k", DataType::U64));
        let db = b.build();
        assert_eq!(db.table_id("a"), Some(a));
        assert_eq!(db.table(a).name, "a");
        assert_eq!(db.total_rows(), 0);
    }

    #[test]
    fn txn_ids_are_unique() {
        let db = Database::builder().build();
        let a = db.next_txn_id();
        let b = db.next_txn_id();
        assert_ne!(a, b);
    }

    #[test]
    fn commit_clock_stable_excludes_inflight() {
        let db = Database::builder().build();
        assert_eq!(db.commit_clock.stable(), 0);
        let a = db.commit_clock.allocate();
        let b = db.commit_clock.allocate();
        assert_eq!((a, b), (1, 2));
        // Both in flight: nothing is stable yet.
        assert_eq!(db.commit_clock.stable(), 0);
        // Finishing out of order: stable only advances past the gap once
        // the oldest in-flight commit finishes.
        db.commit_clock.finish(b);
        assert_eq!(db.commit_clock.stable(), 0);
        db.commit_clock.finish(a);
        assert_eq!(db.commit_clock.stable(), 2);
    }

    #[test]
    fn commit_clock_survives_ring_wrap() {
        let db = Database::builder().build();
        for _ in 0..(CLOCK_WINDOW as u64 * 2 + 17) {
            let ts = db.commit_clock.allocate();
            db.commit_clock.finish(ts);
        }
        assert_eq!(db.commit_clock.stable(), CLOCK_WINDOW as u64 * 2 + 17);
    }

    #[test]
    fn snapshot_registry_pins_watermark() {
        let db = Database::builder().build();
        for _ in 0..3 {
            let ts = db.commit_clock.allocate();
            db.note_commit(ts);
        }
        let snap = db.register_snapshot();
        assert_eq!(snap.ts, 3);
        assert_eq!(db.snapshots.active_count(), 1);
        // Later commits do not move the watermark past the live snapshot's
        // bin floor (bin-granular: the floor is ts rounded down to the
        // epoch-bin width, never above the snapshot itself).
        for _ in 0..(BIN_WIDTH * 2) {
            let ts = db.commit_clock.allocate();
            db.note_commit(ts);
        }
        db.publish_watermark();
        assert!(db.gc_watermark() <= snap.ts);
        db.release_snapshot(snap);
        assert_eq!(db.snapshots.active_count(), 0);
        // Release itself is one CAS; the next publish (tick or
        // explicit) moves the watermark past the released snapshot.
        db.publish_watermark();
        assert_eq!(db.gc_watermark(), 3 + BIN_WIDTH * 2);
    }

    #[test]
    fn duplicate_snapshots_refcount() {
        let db = Database::builder().build();
        let a = db.register_snapshot();
        let b = db.register_snapshot();
        assert_eq!(a.ts, b.ts);
        db.release_snapshot(a);
        assert_eq!(db.snapshots.active_count(), 1);
        db.release_snapshot(b);
        assert_eq!(db.snapshots.active_count(), 0);
    }

    #[test]
    fn epoch_advance_publishes_watermark() {
        let db = Database::builder().build();
        for _ in 0..EPOCH_COMMITS - 1 {
            let ts = db.commit_clock.allocate();
            db.note_commit(ts);
        }
        assert_eq!(db.gc_watermark(), 0, "nothing published before the tick");
        let ts = db.commit_clock.allocate();
        db.note_commit(ts);
        assert_eq!(db.gc_watermark(), EPOCH_COMMITS);
    }

    #[test]
    fn db_options_tune_epoch_tick_period() {
        // Defaults reproduce the historical constants.
        let db = Database::builder().build();
        assert_eq!(db.options().epoch_commits, EPOCH_COMMITS);
        assert_eq!(db.trim_threshold(), bamboo_storage::DEFAULT_TRIM_THRESHOLD);
        // A shorter period republishes the watermark proportionally
        // earlier.
        let mut b = Database::builder();
        b.with_options(DbOptions::new().with_epoch_commits(4));
        let db = b.build();
        for _ in 0..3 {
            let ts = db.commit_clock.allocate();
            db.note_commit(ts);
        }
        assert_eq!(db.gc_watermark(), 0, "nothing published before the tick");
        let ts = db.commit_clock.allocate();
        db.note_commit(ts);
        assert_eq!(db.gc_watermark(), 4);
        // A zero period is clamped rather than dividing by zero.
        let mut b = Database::builder();
        b.with_options(DbOptions::new().with_epoch_commits(0));
        assert_eq!(b.build().options().epoch_commits, 1);
    }

    #[test]
    fn db_options_durability_knobs() {
        use bamboo_storage::FsyncPolicy;
        // Default stays in-memory: no wal dir, no fsync, stock rotation.
        let opts = DbOptions::new();
        assert_eq!(opts.wal_dir, None);
        assert!(opts.log_dir().is_none(), "no wal dir: no log directory");
        assert_eq!(opts.fsync_policy, FsyncPolicy::Never);
        assert_eq!(opts.segment_bytes, DEFAULT_SEGMENT_BYTES);
        // The builders set each knob independently.
        let group = FsyncPolicy::GroupCommit {
            max_batch: 1,
            max_wait_us: 0,
        };
        let opts = DbOptions::new()
            .with_wal_dir("/tmp/bamboo-wal")
            .with_fsync_policy(group)
            .with_segment_bytes(1 << 16);
        assert_eq!(
            opts.wal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/bamboo-wal"))
        );
        assert_eq!(
            opts.log_dir().expect("wal dir set").path(),
            std::path::Path::new("/tmp/bamboo-wal")
        );
        assert_eq!(opts.fsync_policy, group);
        assert_eq!(opts.segment_bytes, 1 << 16);
        // A database built without a wal dir ignores the other knobs (in
        // particular its options survive round-tripping through build).
        let mut b = Database::builder();
        b.with_options(DbOptions::new().with_fsync_policy(group));
        assert_eq!(b.build().options().fsync_policy, group);
    }

    #[test]
    #[should_panic(expected = "PartitionedDb::builder(1)")]
    fn builder_refuses_a_wal_dir_it_could_never_replay() {
        // Accepting the directory and logging to the session ring anyway —
        // what this builder used to do — hands an in-memory log to a
        // caller who asked for a durable one.
        let mut b = Database::builder();
        b.with_options(DbOptions::new().with_wal_dir("/tmp/bamboo-never-created"));
        b.build();
    }

    #[test]
    fn commit_clock_restore_resumes_allocation() {
        let clock = CommitClock::new();
        // Restore well past the slot window to exercise the wrap guard.
        let resume = CLOCK_WINDOW as u64 * 2 + 5;
        clock.restore(resume);
        assert_eq!(clock.stable(), resume);
        assert_eq!(clock.next(), resume + 1);
        // Allocation continues seamlessly: no spin on a stale slot, and
        // finishing advances stable as usual.
        let ts = clock.allocate();
        assert_eq!(ts, resume + 1);
        clock.finish(ts);
        assert_eq!(clock.stable(), resume + 1);
    }

    #[test]
    fn bin_packing_round_trips() {
        let w = bin_pack(123456, 7);
        assert_eq!(bin_unpack(w), (123456, 7));
        assert_eq!(bin_unpack(0), (0, 0));
    }
}
