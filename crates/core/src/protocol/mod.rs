//! Transaction-facing concurrency-control protocols.
//!
//! DBx1000 (the paper's prototype) "includes a pluggable lock manager that
//! supports different concurrency control schemes", which is what lets the
//! paper compare Bamboo with its baselines inside one system (§5.1). The
//! [`Protocol`] trait is that plug:
//!
//! * [`LockingProtocol`] — the whole 2PL family: **Bamboo**, Wound-Wait,
//!   Wait-Die and No-Wait (the paper's BAMBOO / WOUND_WAIT / WAIT_DIE /
//!   NO_WAIT configurations).
//! * [`SiloProtocol`] — the OCC baseline (SILO).
//! * [`ic3::Ic3Protocol`] — the transaction-chopping baseline (IC3).

pub mod ic3;
mod locking;
mod silo;

use std::sync::Arc;

use bamboo_storage::log::IoFailure;
use bamboo_storage::{Row, TableId};
use parking_lot::Mutex;

pub use ic3::{Ic3Protocol, PieceAccess, PieceDecl, TemplateDecl};
pub use locking::LockingProtocol;
pub use silo::SiloProtocol;

use crate::db::Database;
use crate::session::TxnOptions;
use crate::txn::{Abort, AbortReason, TxnCtx};
use crate::wal::{append_groups, DurabilityTicket, TicketParts, WalBuffer, WalWrite};

/// A pluggable concurrency-control protocol.
///
/// Contract: a transaction is driven as
/// `begin → (read | update | retire | lock_insert | scan)* → commit | abort`; any
/// `Err(Abort)` from an operation obliges the caller to invoke
/// [`Protocol::abort`] exactly once for the attempt. `commit` consumes the
/// attempt on success.
///
/// This trait is the *internal* plug — the seam protocols implement, and
/// concurrency control is all it holds. User code drives transactions
/// through [`crate::session::Session`] and the RAII
/// [`crate::session::Txn`] guard, which own this lifecycle contract (in
/// particular the "abort exactly once" obligation) by construction, and
/// everything around it: snapshot mode (a snapshot transaction never
/// reaches the protocol), insert buffering
/// ([`crate::session::Txn::insert`] buffers the row once
/// [`Protocol::lock_insert`] succeeded; the commit tail applies it) and
/// interactive mode's client round trips
/// ([`crate::session::Session::interactive`]).
pub trait Protocol: Send + Sync {
    /// Protocol display name (matches the paper's legends).
    fn name(&self) -> &str;

    /// Starts a new read-write attempt, copying from `opts` what the
    /// protocol reads (the 2PL family its planned operations, IC3 its
    /// template).
    fn begin(&self, db: &Database, opts: &TxnOptions) -> TxnCtx;

    /// Reads a row (shared access); returns a reference to the
    /// transaction-local copy.
    fn read<'c>(
        &self,
        db: &Database,
        ctx: &'c mut TxnCtx,
        table: TableId,
        key: u64,
    ) -> Result<&'c Row, Abort>;

    /// Read-modify-write (exclusive access): `f` mutates the local copy;
    /// visibility of the dirty result is protocol-specific (Bamboo retires
    /// the lock according to Optimization 2's δ heuristic).
    fn update(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut Row),
    ) -> Result<(), Abort>;

    /// §3.3's explicit `LockRetire()`: the program wrote `key` for the
    /// last time, so its dirty write may become visible now, whatever
    /// `update`'s own retire rule decided. Nothing by default, and nothing
    /// for a key this attempt holds no dirty exclusive lock on; only the
    /// Wound-Wait variant of [`LockingProtocol`] honours it (Bamboo is
    /// defined over Wound-Wait, §3.2). Retiring too early is not unsound:
    /// a later write to the key aborts whoever read the retired version.
    fn retire(&self, _db: &Database, _ctx: &mut TxnCtx, _table: TableId, _key: u64) {}

    /// Concurrency control for an insert of `key` into `table`, before the
    /// session buffers the row. Nothing by default: the row is invisible
    /// until the commit tail applies it.
    fn lock_insert(
        &self,
        _db: &Database,
        _ctx: &mut TxnCtx,
        _table: TableId,
        _key: u64,
    ) -> Result<(), Abort> {
        Ok(())
    }

    /// Range scan over the table's ordered index: reads every key in
    /// `range` (shared access) and returns copies of the matching rows.
    ///
    /// The default implementation performs plain per-key reads — correct
    /// under every protocol, with no phantom protection. Protocols with a
    /// stronger story override it ([`LockingProtocol`] adds §3.4's
    /// next-key locking). The key set merges every
    /// partition's index shard ([`Database::scan_keys`]), so a range
    /// spanning partitions reads each key from its owning shard.
    fn scan(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        range: std::ops::RangeInclusive<u64>,
    ) -> Result<Vec<Row>, Abort> {
        scan_rows(self, db, ctx, table, range)
    }

    /// Commits: waits out commit dependencies, logs, installs, releases.
    /// `ring` is the committing session's in-memory redo ring — where the
    /// commit is logged unless the database has durable partition logs
    /// (see `log_commit`).
    fn commit(&self, db: &Database, ctx: &mut TxnCtx, ring: &Mutex<WalBuffer>)
        -> Result<(), Abort>;

    /// Whether crash recovery can replay this protocol's redo records.
    /// Sessions refuse to bind a protocol that says `false` to a database
    /// with a [`DbOptions::wal_dir`](crate::DbOptions::wal_dir): its
    /// commits would be acknowledged as durable and then recover wrong.
    fn redo_replayable(&self) -> bool {
        true
    }

    /// Aborts the attempt, releasing everything. The session has already
    /// marked it aborted (a self-abort books [`AbortReason::User`]) and
    /// dropped its buffered inserts. Returns the number of transactions
    /// cascadingly aborted by this release (abort-chain accounting, §4.2).
    fn abort(&self, db: &Database, ctx: &mut TxnCtx) -> usize;

    /// IC3 hook: a new piece begins. No-op elsewhere.
    fn piece_begin(&self, _db: &Database, _ctx: &mut TxnCtx, _piece: usize) -> Result<(), Abort> {
        Ok(())
    }

    /// IC3 hook: the current piece ended (publish piece writes). No-op
    /// elsewhere.
    fn piece_end(&self, _db: &Database, _ctx: &mut TxnCtx) -> Result<(), Abort> {
        Ok(())
    }
}

/// The per-key read loop of [`Protocol::scan`], written once: the default
/// body, and the first half of an override that adds to it (the 2PL
/// family's next-key lock).
pub(crate) fn scan_rows<P: Protocol + ?Sized>(
    proto: &P,
    db: &Database,
    ctx: &mut TxnCtx,
    table: TableId,
    range: std::ops::RangeInclusive<u64>,
) -> Result<Vec<Row>, Abort> {
    db.scan_keys(table, range)
        .into_iter()
        .map(|key| proto.read(db, ctx, table, key).cloned())
        .collect()
}

/// The one commit tail (Algorithm 1 lines 6–8), shared by every protocol.
/// The caller has already waited out its protocol's commit condition — the
/// commit semaphore (2PL family), write-set locks + read validation (Silo),
/// finished dependencies (IC3). From there the order is fixed, and this is
/// the only place that spells it:
///
/// 1. **Allocate the MVCC commit timestamp** just before the commit point:
///    installs (and commit-time inserts) are tagged with it, and the clock
///    keeps it "in flight" until every install landed, so snapshots can
///    never be taken in the middle of this commit.
/// 2. **Pass the commit point** (Definition 1). If a wound won the race,
///    nothing installs under the timestamp: retire it immediately or the
///    stable point stalls, and abort.
/// 3. **Log** ([`log_commit`]) — *after* the commit point, so a wounded
///    transaction never reaches the log (with a durable log that is what
///    makes recovery redo-only), and *before* every install: if the process
///    dies between the log write and the install, replay redoes the writes
///    once they are durable; if it dies before the log write completes,
///    nothing was installed either. The appends never fsync: under group
///    commit they return a durability ticket, stashed in the context for
///    the session to wait out *after* this commit installed and released —
///    early lock release.
/// 4. **On a log failure, revoke.** No group of the commit is left in any
///    log (torn bytes were rewound, landed groups cut back out), nothing is
///    installed, no lock released, no dependent saw a `Committed` status it
///    could act on: revoke the commit point, retire the timestamp so the
///    stable point cannot stall on a commit that never was, and abort this
///    one transaction with [`AbortReason::DurabilityFailed`]. Locks and
///    accessor entries are released by the `abort` call the `Err` obliges.
/// 5. **Apply inserts, then install and release** (`install`), then
///    **finish the timestamp** ([`Database::note_commit`]). Inserts land
///    before any lock is released so a scanner queued on the inserter's
///    next-key lock finds the new rows.
///
/// `unwind` runs on either failed exit (2 or 4), before the revoke: the
/// step for state the protocol's `abort` does not undo. Silo unlocks its
/// write set there — an OCC abort normally holds no TID locks — *without*
/// bumping TIDs: no version was installed, so concurrent validators must
/// not observe a phantom TID change. The other protocols pass a no-op.
///
/// Generic over both closures (no `dyn`, no boxed hook) and inlined, so
/// each protocol's commit compiles to the straight-line code it was when
/// this sequence was written out three times.
#[inline]
pub(crate) fn commit_tail(
    db: &Database,
    ctx: &mut TxnCtx,
    ring: &Mutex<WalBuffer>,
    unwind: impl FnOnce(&TxnCtx),
    install: impl FnOnce(&mut TxnCtx),
) -> Result<(), Abort> {
    ctx.commit_ts = db.commit_clock.allocate();
    if !ctx.shared.try_commit_point() {
        unwind(ctx);
        db.commit_clock.finish(ctx.commit_ts);
        return Err(ctx.abort_err());
    }
    match log_commit(db, ctx, ring) {
        Ok(ticket) => ctx.durability = ticket,
        Err(_) => {
            unwind(ctx);
            let revoked = ctx.shared.revoke_commit(AbortReason::DurabilityFailed);
            debug_assert!(revoked, "only the owning worker moves Committed");
            db.commit_clock.finish(ctx.commit_ts);
            return Err(Abort(AbortReason::DurabilityFailed));
        }
    }
    apply_inserts(db, ctx);
    install(ctx);
    db.note_commit(ctx.commit_ts);
    Ok(())
}

/// Applies buffered inserts at commit time (shared by all protocols). The
/// new rows' first version carries the transaction's commit timestamp, so
/// snapshots older than the inserting transaction do not see them. Each
/// insert lands in the shard owning its key, and secondary-index
/// maintenance stays within that shard.
fn apply_inserts(db: &Database, ctx: &mut TxnCtx) {
    for ins in ctx.inserts.drain(..) {
        let table = db.table_for(ins.table, ins.key);
        table.insert_at(ins.key, ins.row, ctx.commit_ts);
        if let Some((slot, skey)) = ins.secondary {
            table.secondary_index(slot).insert(skey, ins.key);
        }
    }
}

/// Logs one commit's redo (shared by all protocols). Called by
/// [`commit_tail`] **after** the commit timestamp is allocated and the
/// commit-point CAS succeeded, so `ctx.commit_ts` is final and uncommitted
/// work never reaches a durable log — recovery is redo-only by
/// construction. Two arms:
///
/// * **No [`DbOptions::wal_dir`](crate::DbOptions::wal_dir):** one record
///   on `ring`, the committing session's in-memory ring, whatever the
///   partition count. The ring is taken for this one append only — a
///   commit that *waits* (the commit-semaphore wait of Algorithm 1 lines
///   4–5) never holds it, so sessions shared across threads cannot
///   deadlock on their own log.
/// * **Durable partition logs:** the group is split by partition and
///   appended to each *written* partition's log **in ascending
///   partition-id order** — the commit-ordering contract of
///   [`crate::partition::PartitionedDb`] — by one call,
///   [`append_groups`], which takes every written partition's sink lock,
///   in that order, before its first write and holds them all until its
///   last group landed. Every per-partition group carries the same commit
///   timestamp and the full partition mask, which is what lets recovery
///   check cross-partition completeness. A commit with no writes logs its
///   header group on its home partition.
///
/// Buffered inserts are logged alongside updates: an insert's row lives in
/// `ctx.inserts` until [`apply_inserts`] runs (after this), so the log
/// carries its key and image explicitly.
///
/// ## Group commit
///
/// The appends never fsync. Under
/// [`bamboo_storage::FsyncPolicy::GroupCommit`] this function then
/// registers the commit on the global
/// [`crate::wal::DurabilityHorizon`] — after the *last* append succeeded
/// and before anything installs, the ordering that keeps the commit
/// clock's stable point from passing an unregistered committed transaction
/// — and returns a [`DurabilityTicket`] carrying the end LSN of every
/// per-partition group. The session parks on the ticket before
/// acknowledging (`Session` ack path); the protocols just thread it from
/// here into [`TxnCtx::durability`](crate::txn::TxnCtx). Under `Never`
/// there is no ticket.
///
/// ## Failure semantics
///
/// A durable log can fail ([`IoFailure`]); [`commit_tail`] then revokes
/// the commit point ([`crate::txn::TxnShared::revoke_commit`]) and aborts
/// with [`AbortReason::DurabilityFailed`], releasing locks and
/// installing nothing. (Every error here is a *pre-install* failure, even
/// under group commit: the deferred batch fsync happens after install, but
/// its failures surface through the ticket wait, not through this
/// function.) A failed commit leaves none of its groups in any log:
///
/// * a degraded (or writer-less) target partition fails the commit while
///   the sink locks are being taken, before anything is written;
/// * a failed append has already cut its own torn bytes back out, and the
///   groups landed on lower partitions are cut back out too
///   ([`SegmentWriter::abandon_group`](bamboo_storage::log::SegmentWriter::abandon_group),
///   a synced truncate) while their locks are still held, so no other
///   group sits above them and no fsync covered them.
///
/// If that cut itself fails, the partition degrades and the group's fate
/// is unknown: the one double fault `DURABILITY.md` leaves ambiguous.
fn log_commit(
    db: &Database,
    ctx: &TxnCtx,
    ring: &Mutex<WalBuffer>,
) -> Result<Option<DurabilityTicket>, IoFailure> {
    let topo = db.topology();
    let dirty = || ctx.accesses.iter().filter(|a| a.dirty);
    if topo.wals.is_empty() {
        ring.lock().append_commit(
            ctx.shared.id,
            dirty()
                .map(|a| (a.table, a.tuple.key, &a.local))
                .chain(ctx.inserts.iter().map(|i| (i.table, i.key, &i.row))),
        );
        return Ok(None);
    }
    // Tickets exist exactly under group commit.
    let ticketing = matches!(
        db.options().fsync_policy,
        bamboo_storage::FsyncPolicy::GroupCommit { .. }
    );
    let ticket = |parts: TicketParts| {
        // Register after every append succeeded, before the caller
        // installs: see the horizon's type-level invariant. The entry
        // shares the ticket's parts, so it can retire from the partitions'
        // watermarks without its owner.
        db.durability_horizon()
            .register(ctx.commit_ts, Arc::clone(&parts));
        DurabilityTicket {
            commit_ts: ctx.commit_ts,
            parts,
        }
    };
    // Partition bit for the completeness mask (durable databases have at
    // most 64 partitions, asserted at build).
    let part_bit = |p: usize| 1u64 << p;
    let writes = || {
        dirty()
            .map(|a| WalWrite::Update {
                table: a.table,
                key: a.tuple.key,
                after: &a.local,
            })
            .chain(ctx.inserts.iter().map(|i| WalWrite::Insert {
                table: i.table,
                key: i.key,
                row: &i.row,
                secondary: i.secondary,
            }))
    };
    let route = |w: &WalWrite<'_>| {
        let (WalWrite::Update { table, key, .. } | WalWrite::Insert { table, key, .. }) = w;
        topo.router.route_from(topo.me, *table, *key).idx()
    };
    // The written partitions, scanned without allocating; a commit with no
    // writes still logs its header group, on its home partition.
    let parts_mask = match writes().fold(0u64, |m, w| m | part_bit(route(&w))) {
        0 => part_bit(topo.me.idx()),
        written => written,
    };
    let ends = append_groups(&topo.wals, ctx.shared.id, ctx.commit_ts, parts_mask, |p| {
        writes().filter(move |w| route(w) == p)
    })?;
    Ok(ticketing.then(|| ticket(ends.into())))
}
