//! The 2PL-family protocol: Bamboo, Wound-Wait, Wait-Die and No-Wait.
//!
//! One implementation serves all four because the paper designs Bamboo as a
//! strict extension of Wound-Wait: disable retiring and it *is* Wound-Wait
//! (§3.2.2, §3.4 "Compatibility with Underlying 2PL"); the Wait-Die /
//! No-Wait baselines differ only in the conflict policy inside the lock
//! table. This module owns the transaction lifecycle of Algorithm 1:
//!
//! ```text
//! LockAcquire … LockRetire … LockAcquire …
//! while commit_semaphore != 0 { pause }
//! writeLog(); LockRelease(…); terminate
//! ```
//!
//! plus Optimization 2 (δ = don't retire trailing writes; adaptively retire
//! them anyway if the semaphore wait drags on) and §3.3's explicit
//! `LockRetire()` ([`Protocol::retire`], the session's
//! [`crate::session::Txn::retire`]).
//!
//! Every configuration is Serializable. §3.4's weak isolation levels and
//! opacity are discussion in the paper, not evaluated designs; the one way
//! to read without locks is snapshot mode
//! ([`crate::session::TxnOptions::snapshot`]), which the session serves
//! without this protocol.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_storage::{Row, TableId, Tuple};
use parking_lot::Mutex;

use crate::db::Database;
use crate::lock::{Acquired, CommitInstall, LockPolicy, LockVariant};
use crate::meta::TupleCc;
use crate::protocol::{commit_tail, scan_rows, Protocol};
use crate::session::TxnOptions;
use crate::ts::UNASSIGNED;
use crate::txn::{
    Abort, AbortReason, Access, AccessState, LockMode, Pacing, TxnCtx, TxnShared, WaitSite,
    WaitTimer,
};
use crate::wal::WalBuffer;

/// Lock and upgrade waits. The backstop is three orders of magnitude
/// above a healthy wait (microseconds to a few milliseconds).
const LOCK_WAIT: WaitSite = WaitSite {
    timer: WaitTimer::Lock,
    timeout: Duration::from_millis(500),
    on_timeout: AbortReason::WaitTimeout,
    pacing: Pacing::Park,
};

/// The commit-semaphore wait (dependencies normally resolve in
/// milliseconds; an aborted-and-stuck predecessor is the only path to the
/// backstop).
const COMMIT_WAIT: WaitSite = WaitSite {
    timer: WaitTimer::Commit,
    timeout: Duration::from_millis(2000),
    on_timeout: AbortReason::WaitTimeout,
    pacing: Pacing::Park,
};

/// 2PL-family protocol configuration.
#[derive(Clone, Debug)]
pub struct LockingProtocol {
    /// Lock-table policy (variant + list-level optimizations).
    pub policy: LockPolicy,
    /// Whether writes retire automatically (subject to δ): Bamboo yes,
    /// the baselines no. [`Protocol::retire`] (§3.3's explicit
    /// `LockRetire()`, [`crate::session::Txn::retire`]) retires regardless,
    /// on the Wound-Wait variant: a BAMBOO-base configuration with this
    /// off retires exactly where its program says.
    pub retire_writes: bool,
    /// Optimization 2's δ: writes among the last `δ` fraction of a
    /// stored procedure's accesses are not retired (0 disables the
    /// heuristic — the paper's BAMBOO-base). Above 0 it brings the
    /// adaptive clause too: if the commit-semaphore wait exceeds δ of the
    /// execution time so far, the held-back writes retire after all.
    pub delta: f64,
    name: String,
}

impl LockingProtocol {
    /// Full Bamboo with all four §3.5 optimizations (the paper's BAMBOO:
    /// δ = 0.15 "across all workloads").
    pub fn bamboo() -> Self {
        LockingProtocol {
            policy: LockPolicy::bamboo(),
            retire_writes: true,
            delta: 0.15,
            name: "BAMBOO".into(),
        }
    }

    /// Bamboo without Optimization 2 (the paper's BAMBOO-base in Figures
    /// 4–5): every write retires immediately.
    pub fn bamboo_base() -> Self {
        LockingProtocol {
            policy: LockPolicy::bamboo(),
            retire_writes: true,
            delta: 0.0,
            name: "BAMBOO-base".into(),
        }
    }

    /// A 2PL baseline: Bamboo with retiring disabled, under `policy`.
    fn baseline(policy: LockPolicy, name: &str) -> Self {
        LockingProtocol {
            policy,
            retire_writes: false,
            delta: 0.0,
            name: name.into(),
        }
    }

    /// Wound-Wait baseline (Bamboo with retiring disabled).
    pub fn wound_wait() -> Self {
        Self::baseline(LockPolicy::wound_wait(), "WOUND_WAIT")
    }

    /// Wait-Die baseline.
    pub fn wait_die() -> Self {
        Self::baseline(LockPolicy::wait_die(), "WAIT_DIE")
    }

    /// No-Wait baseline.
    pub fn no_wait() -> Self {
        Self::baseline(LockPolicy::no_wait(), "NO_WAIT")
    }

    /// Renames the configuration (ablation studies).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.into();
        self
    }

    /// Acquire with wait loop; returns the working image and entry
    /// placement on success.
    fn acquire_blocking(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        tuple: &Arc<Tuple<TupleCc>>,
        mode: LockMode,
    ) -> Result<(Row, bool), Abort> {
        ctx.locks_acquired += 1;
        let outcome = {
            let mut st = tuple.meta.lock.lock();
            st.acquire(tuple, &self.policy, &ctx.shared, mode, &db.ts_source)
        };
        match outcome {
            Acquired::Granted { row, retired } => Ok((row, retired)),
            Acquired::Die(reason) => {
                ctx.shared.set_abort(reason);
                Err(Abort(reason))
            }
            Acquired::Wait => ctx
                .wait(LOCK_WAIT, |ctx| {
                    tuple.meta.lock.lock().check_granted(tuple, &ctx.shared)
                })
                .inspect_err(|_| {
                    // Leave the queue. A grant may have raced the abort; if
                    // so, cancel_wait fully releases the entry.
                    tuple
                        .meta
                        .lock
                        .lock()
                        .cancel_wait(&ctx.shared, &self.policy);
                }),
        }
    }

    /// Takes a fresh exclusive lock on `tuple` and records the (still clean)
    /// access; returns its index.
    fn acquire_ex(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        tuple: Arc<Tuple<TupleCc>>,
    ) -> Result<usize, Abort> {
        let (row, retired) = self.acquire_blocking(db, ctx, &tuple, LockMode::Ex)?;
        debug_assert!(!retired, "exclusive grants start as owners");
        let access = Access::new(table, tuple, LockMode::Ex, row, AccessState::Owner);
        Ok(ctx.push_access(access))
    }

    /// Optimization 2 δ heuristic: should the write issued as operation
    /// `op_seq` retire now? ("writes in the last δ fraction of accesses are
    /// not retired" — hotspots at the very end of a transaction would not
    /// unblock anyone for long, but retiring them costs latching and risks
    /// cascades.)
    fn should_retire(&self, ctx: &TxnCtx) -> bool {
        if !self.retire_writes {
            return false;
        }
        if self.delta <= 0.0 {
            return true;
        }
        match ctx.planned_ops {
            // Interactive mode: positions unknown, treat every write as the
            // last write and retire immediately (paper §5.1).
            None => true,
            Some(k) => (ctx.op_seq as f64) <= (1.0 - self.delta) * k as f64,
        }
    }

    /// Algorithm 2 `LockRetire` for one access: publishes the local image
    /// and moves the entry to `retired`. No-op unless the access is a dirty
    /// exclusive owner (already retired, released, shared, or clean).
    fn retire_access(&self, shared: &Arc<TxnShared>, a: &mut Access) {
        if a.state == AccessState::Owner && a.mode == LockMode::Ex && a.dirty {
            let mut st = a.tuple.meta.lock.lock();
            st.retire(shared, a.local.clone(), &self.policy);
            a.state = AccessState::Retired;
        }
    }

    /// Retires every still-owned dirty access (used by the adaptive clause
    /// of Optimization 2 during the semaphore wait).
    fn retire_pending(&self, ctx: &mut TxnCtx) {
        for a in ctx.accesses.iter_mut() {
            self.retire_access(&ctx.shared, a);
        }
    }

    /// Releases every entry (commit or abort path). On commit, dirty
    /// images install as new committed versions tagged with the
    /// transaction's commit timestamp; `watermark` drives the eager
    /// version-chain GC. Returns cascaded count.
    fn release_all(&self, ctx: &mut TxnCtx, committed: bool, watermark: u64) -> usize {
        let mut cascaded = 0;
        let commit_ts = ctx.commit_ts;
        for a in ctx.accesses.iter_mut() {
            if a.state == AccessState::Released {
                continue;
            }
            let install = if committed && a.dirty {
                Some(CommitInstall {
                    tuple: &a.tuple,
                    row: &a.local,
                    commit_ts,
                    watermark,
                })
            } else {
                None
            };
            let mut st = a.tuple.meta.lock.lock();
            let out = st.release(&ctx.shared, &self.policy, committed, install);
            cascaded += out.cascaded;
            a.state = AccessState::Released;
        }
        cascaded
    }
}

impl Protocol for LockingProtocol {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin(&self, db: &Database, opts: &TxnOptions) -> TxnCtx {
        let id = db.next_txn_id();
        let ts = if self.policy.dynamic_ts {
            UNASSIGNED
        } else {
            db.ts_source.assign()
        };
        let mut ctx = TxnCtx::new(TxnShared::new(id, ts));
        ctx.planned_ops = opts.planned_ops;
        ctx
    }

    fn read<'c>(
        &self,
        db: &Database,
        ctx: &'c mut TxnCtx,
        table: TableId,
        key: u64,
    ) -> Result<&'c Row, Abort> {
        if ctx.shared.is_aborted() {
            return Err(ctx.abort_err());
        }
        ctx.op_seq += 1;
        let tuple = db
            .table_for(table, key)
            .get(key)
            .unwrap_or_else(|| panic!("read: missing key {key} in table {}", table.0));
        if let Some(i) = ctx.find_access(table, tuple.key) {
            return Ok(&ctx.accesses[i].local);
        }
        let (row, retired) = self.acquire_blocking(db, ctx, &tuple, LockMode::Sh)?;
        let state = if retired {
            AccessState::Retired
        } else {
            AccessState::Owner
        };
        let i = ctx.push_access(Access::new(table, tuple, LockMode::Sh, row, state));
        Ok(&ctx.accesses[i].local)
    }

    fn update(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut Row),
    ) -> Result<(), Abort> {
        if ctx.shared.is_aborted() {
            return Err(ctx.abort_err());
        }
        ctx.op_seq += 1;
        let tuple = db
            .table_for(table, key)
            .get(key)
            .unwrap_or_else(|| panic!("update: missing key {key} in table {}", table.0));
        let i = match ctx.find_access(table, tuple.key) {
            Some(i) => {
                // Re-access:
                //  * still an exclusive owner: just mutate the local copy;
                //  * retired (second write after retire, §3.3) or a retired
                //    read being upgraded: abort observers and move back to
                //    owners via reacquire;
                //  * shared owner (baselines): upgrade in place.
                let (state, mode) = (ctx.accesses[i].state, ctx.accesses[i].mode);
                match (state, mode) {
                    (AccessState::Owner, LockMode::Ex) => i,
                    (AccessState::Retired, _) => {
                        let a = &mut ctx.accesses[i];
                        let mut st = a.tuple.meta.lock.lock();
                        st.reacquire_ex(&ctx.shared);
                        drop(st);
                        a.state = AccessState::Owner;
                        a.mode = LockMode::Ex;
                        i
                    }
                    (AccessState::Owner, LockMode::Sh) => {
                        // Shared-owner upgrade (baselines where reads hold
                        // ownership). The local copy stays valid: we held SH
                        // continuously, so the committed image cannot have
                        // changed under us.
                        ctx.locks_acquired += 1;
                        ctx.wait(LOCK_WAIT, |ctx| {
                            let outcome = ctx.accesses[i]
                                .tuple
                                .meta
                                .lock
                                .lock()
                                .try_upgrade(&ctx.shared, &self.policy);
                            match outcome {
                                Acquired::Granted { .. } => Some(()),
                                Acquired::Die(reason) => {
                                    ctx.shared.set_abort(reason);
                                    None
                                }
                                Acquired::Wait => None,
                            }
                        })?;
                        ctx.accesses[i].mode = LockMode::Ex;
                        i
                    }
                    (AccessState::Released, _) => {
                        unreachable!("a locking access is released only by commit or abort")
                    }
                }
            }
            None => self.acquire_ex(db, ctx, table, tuple)?,
        };
        f(&mut ctx.accesses[i].local);
        ctx.accesses[i].dirty = true;
        // Algorithm 1 line 2: retire after the (presumed) last write, subject
        // to Optimization 2.
        if self.should_retire(ctx) {
            self.retire_access(&ctx.shared, &mut ctx.accesses[i]);
        }
        Ok(())
    }

    /// §3.3's `LockRetire()`, on the Wound-Wait variant Bamboo is defined
    /// over (§3.2): "the LockRetire() function call is completely
    /// optional" (§3.2.2), so Wait-Die and No-Wait ignore it.
    fn retire(&self, _db: &Database, ctx: &mut TxnCtx, table: TableId, key: u64) {
        if self.policy.variant != LockVariant::WoundWait {
            return;
        }
        if let Some(i) = ctx.find_access(table, key) {
            self.retire_access(&ctx.shared, &mut ctx.accesses[i]);
        }
    }

    /// Next-key (gap) lock for an insert of `key`: exclusive-locks the
    /// smallest existing key greater than `key`, forcing an ordering with
    /// any scanner holding that key shared — phantom protection. Tables
    /// without an ordered index skip it, as DBx1000's hash-only
    /// configuration does. On a partitioned database the next key is
    /// resolved across every shard ([`Database::next_key_after`]), so the
    /// gap guard spans partition boundaries.
    fn lock_insert(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        key: u64,
    ) -> Result<(), Abort> {
        ctx.op_seq += 1;
        if !db.has_ordered_index(table) {
            return Ok(());
        }
        let Some(next) = db.next_key_after(table, key) else {
            return Ok(());
        };
        let tuple = db
            .table_for(table, next)
            .get(next)
            .expect("ordered index points at existing tuple");
        if ctx.find_access(table, tuple.key).is_some() {
            // Already hold it (e.g. several inserts into one gap): any
            // held mode suffices for ordering with scanners.
            return Ok(());
        }
        // Gap guard only: the access stays clean, nothing installs.
        self.acquire_ex(db, ctx, table, tuple)?;
        Ok(())
    }

    fn commit(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        ring: &Mutex<WalBuffer>,
    ) -> Result<(), Abort> {
        // Algorithm 1 lines 4–5: wait for the commit semaphore. The
        // adaptive clause of Optimization 2 fires mid-wait: once we have
        // been stalled for longer than δ of the execution time so far, the
        // trailing writes held back by the δ heuristic are blocking others
        // for real, so retire them after all.
        let mut may_retire_late = self.delta > 0.0;
        let mut retire_at: Option<Instant> = None;
        ctx.wait(COMMIT_WAIT, |ctx| {
            if ctx.shared.semaphore() == 0 {
                return Some(());
            }
            if may_retire_late {
                let now = Instant::now();
                let at =
                    *retire_at.get_or_insert_with(|| now + (now - ctx.started).mul_f64(self.delta));
                if now > at {
                    self.retire_pending(ctx);
                    may_retire_late = false;
                }
            }
            None
        })?;

        // Algorithm 1 lines 6–8 — commit point, log, install, release — are
        // the shared tail.
        commit_tail(
            db,
            ctx,
            ring,
            |_| {},
            |ctx| {
                self.release_all(ctx, true, db.install_watermark(ctx.commit_ts));
            },
        )
    }

    /// Range scan with phantom protection (§3.4: "next-key locking in
    /// indexes; this technique achieves the same effect as predicate
    /// locking"). Requires the table's ordered index
    /// ([`bamboo_storage::Table::enable_ordered_index`]).
    ///
    /// Every matching key is read (shared access) and the *next existing
    /// key* past the range end is share-locked too, so a concurrent insert
    /// into the gap must order itself after this transaction. Ranges
    /// extending past the largest existing key are protected only when a
    /// sentinel max-key row exists.
    fn scan(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        range: std::ops::RangeInclusive<u64>,
    ) -> Result<Vec<Row>, Abort> {
        let rows = scan_rows(self, db, ctx, table, range.clone())?;
        if let Some(next) = db.next_key_after(table, *range.end()) {
            self.read(db, ctx, table, next)?;
        }
        Ok(rows)
    }

    fn abort(&self, _db: &Database, ctx: &mut TxnCtx) -> usize {
        self.release_all(ctx, false, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use bamboo_storage::{DataType, Schema, Value};

    fn setup() -> (Arc<Database>, TableId) {
        let mut b = Database::builder();
        let t = b.add_table(
            "kv",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        let db = b.build();
        for k in 0..10u64 {
            db.table(t).insert(
                k,
                Row::from(vec![Value::U64(k), Value::I64(k as i64 * 100)]),
            );
        }
        (db, t)
    }

    fn add_100(row: &mut Row) {
        let v = row.get_i64(1);
        row.set(1, Value::I64(v + 100));
    }

    #[test]
    fn single_txn_read_update_commit() {
        for proto in [
            LockingProtocol::bamboo(),
            LockingProtocol::bamboo_base(),
            LockingProtocol::wound_wait(),
            LockingProtocol::wait_die(),
            LockingProtocol::no_wait(),
        ] {
            let (db, t) = setup();
            let wal = Mutex::new(WalBuffer::for_tests());
            let mut ctx = proto.begin(&db, &TxnOptions::new());
            assert_eq!(proto.read(&db, &mut ctx, t, 3).unwrap().get_i64(1), 300);
            proto.update(&db, &mut ctx, t, 3, &mut add_100).unwrap();
            // Read-own-write.
            assert_eq!(proto.read(&db, &mut ctx, t, 3).unwrap().get_i64(1), 400);
            proto.commit(&db, &mut ctx, &wal).unwrap();
            assert_eq!(
                db.table(t).get(3).unwrap().read_row().get_i64(1),
                400,
                "{} must install the write",
                proto.name()
            );
            assert_eq!(wal.lock().records(), 1);
        }
    }

    #[test]
    fn abort_discards_writes_and_inserts() {
        let (db, t) = setup();
        let session = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));
        let mut txn = session.begin();
        txn.update(t, 5, add_100).unwrap();
        txn.insert(t, 99, Row::from(vec![Value::U64(99), Value::I64(0)]), None)
            .unwrap();
        txn.abort();
        assert_eq!(db.table(t).get(5).unwrap().read_row().get_i64(1), 500);
        assert!(db.table(t).get(99).is_none());
    }

    #[test]
    fn insert_visible_after_commit() {
        let (db, t) = setup();
        let session = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));
        let mut txn = session.begin();
        txn.insert(t, 42, Row::from(vec![Value::U64(42), Value::I64(7)]), None)
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(db.table(t).get(42).unwrap().read_row().get_i64(1), 7);
    }

    #[test]
    fn bamboo_pipelines_two_writers() {
        // T1 writes and retires; T2 reads T1's dirty write, but can only
        // commit after T1.
        let (db, t) = setup();
        let proto = LockingProtocol::bamboo_base();
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut c1 = proto.begin(&db, &TxnOptions::new());
        let mut c2 = proto.begin(&db, &TxnOptions::new());
        proto.update(&db, &mut c1, t, 0, &mut add_100).unwrap();
        // T2 sees the dirty value because T1 retired its lock.
        proto.update(&db, &mut c2, t, 0, &mut add_100).unwrap();
        assert_eq!(
            {
                let a = &c2.accesses[0];
                a.local.get_i64(1)
            },
            200,
            "T2 read T1's dirty 100 and added 100"
        );
        assert_eq!(c2.shared.semaphore(), 1, "T2 depends on T1");
        proto.commit(&db, &mut c1, &wal).unwrap();
        assert_eq!(c2.shared.semaphore(), 0);
        proto.commit(&db, &mut c2, &wal).unwrap();
        assert_eq!(db.table(t).get(0).unwrap().read_row().get_i64(1), 200);
    }

    #[test]
    fn bamboo_cascade_on_writer_abort() {
        let (db, t) = setup();
        let proto = LockingProtocol::bamboo_base();
        let mut c1 = proto.begin(&db, &TxnOptions::new());
        let mut c2 = proto.begin(&db, &TxnOptions::new());
        proto.update(&db, &mut c1, t, 0, &mut add_100).unwrap();
        proto.update(&db, &mut c2, t, 0, &mut add_100).unwrap();
        // T1 aborts: T2 must be cascade-aborted.
        let cascaded = proto.abort(&db, &mut c1);
        assert_eq!(cascaded, 1);
        assert!(c2.shared.is_aborted());
        assert_eq!(c2.shared.abort_reason(), AbortReason::Cascade);
        // T2's commit fails; its abort releases cleanly.
        let wal = Mutex::new(WalBuffer::for_tests());
        assert!(proto.commit(&db, &mut c2, &wal).is_err());
        proto.abort(&db, &mut c2);
        assert_eq!(db.table(t).get(0).unwrap().read_row().get_i64(1), 0);
        let st = db.table(t).get(0).unwrap();
        assert!(st.meta.lock.lock().is_quiescent());
    }

    #[test]
    fn wound_wait_baseline_blocks_second_writer() {
        let (db, t) = setup();
        let proto = LockingProtocol::wound_wait();
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut c1 = proto.begin(&db, &TxnOptions::new());
        proto.update(&db, &mut c1, t, 0, &mut add_100).unwrap();
        // Younger writer on another thread: must block until T1 commits.
        let db2 = Arc::clone(&db);
        let proto2 = proto.clone();
        let h = std::thread::spawn(move || {
            let wal = Mutex::new(WalBuffer::for_tests());
            let mut c2 = proto2.begin(&db2, &TxnOptions::new());
            proto2.update(&db2, &mut c2, t, 0, &mut add_100).unwrap();
            proto2.commit(&db2, &mut c2, &wal).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!h.is_finished(), "Wound-Wait must block the younger writer");
        proto.commit(&db, &mut c1, &wal).unwrap();
        h.join().unwrap();
        assert_eq!(db.table(t).get(0).unwrap().read_row().get_i64(1), 200);
    }

    #[test]
    fn delta_heuristic_skips_trailing_writes() {
        let (db, t) = setup();
        let proto = LockingProtocol::bamboo(); // δ = 0.15
        let mut ctx = proto.begin(&db, &TxnOptions::new());
        ctx.planned_ops = Some(10);
        // ops 1..=8 are within the first 85%; ops 9, 10 are the trailing δ.
        for k in 0..8u64 {
            proto.update(&db, &mut ctx, t, k, &mut add_100).unwrap();
        }
        assert!(ctx.accesses.iter().all(|a| a.state == AccessState::Retired));
        proto.update(&db, &mut ctx, t, 8, &mut add_100).unwrap();
        proto.update(&db, &mut ctx, t, 9, &mut add_100).unwrap();
        assert_eq!(
            ctx.accesses
                .iter()
                .filter(|a| a.state == AccessState::Owner)
                .count(),
            2,
            "trailing writes stay owned"
        );
        let wal = Mutex::new(WalBuffer::for_tests());
        proto.commit(&db, &mut ctx, &wal).unwrap();
    }

    /// Optimization 2's adaptive clause: a write δ held back retires
    /// during the commit-semaphore wait once that wait outlasts δ of the
    /// execution so far, so a later writer is granted it dirty before the
    /// transaction it waits on commits.
    #[test]
    fn adaptive_clause_retires_held_back_write_during_commit_wait() {
        let (db, t) = setup();
        let proto = LockingProtocol::bamboo(); // δ = 0.15
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut c0 = proto.begin(&db, &TxnOptions::new());
        proto.update(&db, &mut c0, t, 0, &mut add_100).unwrap();
        assert_eq!(c0.accesses[0].state, AccessState::Retired);
        // T1 dirty-reads T0's retired write, then issues its last write,
        // which δ holds back.
        let mut c1 = proto.begin(&db, &TxnOptions::new().planned_ops(2));
        assert_eq!(proto.read(&db, &mut c1, t, 0).unwrap().get_i64(1), 100);
        proto.update(&db, &mut c1, t, 1, &mut add_100).unwrap();
        assert_eq!(c1.accesses[1].state, AccessState::Owner, "δ holds it");
        assert_eq!(c1.shared.semaphore(), 1, "T1 depends on T0");
        let (db1, proto1) = (Arc::clone(&db), proto.clone());
        let h = std::thread::spawn(move || {
            let wal = Mutex::new(WalBuffer::for_tests());
            proto1.commit(&db1, &mut c1, &wal)
        });
        // T1 blocks in the semaphore wait while T0 stays open; the clause
        // must retire its write, or this younger writer waits out the
        // lock backstop.
        let mut c2 = proto.begin(&db, &TxnOptions::new());
        proto.update(&db, &mut c2, t, 1, &mut add_100).unwrap();
        assert_eq!(c2.accesses[0].local.get_i64(1), 300, "T1's dirty 200 + 100");
        assert_eq!(c2.shared.semaphore(), 1, "T2 depends on T1");
        assert!(!h.is_finished(), "T1 still waits on T0");
        proto.commit(&db, &mut c0, &wal).unwrap();
        h.join().unwrap().unwrap();
        proto.commit(&db, &mut c2, &wal).unwrap();
        assert_eq!(db.table(t).get(1).unwrap().read_row().get_i64(1), 300);
    }

    #[test]
    fn second_write_after_retire_reacquires() {
        let (db, t) = setup();
        let proto = LockingProtocol::bamboo_base();
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut ctx = proto.begin(&db, &TxnOptions::new());
        proto.update(&db, &mut ctx, t, 1, &mut add_100).unwrap();
        assert_eq!(ctx.accesses[0].state, AccessState::Retired);
        proto.update(&db, &mut ctx, t, 1, &mut add_100).unwrap();
        proto.commit(&db, &mut ctx, &wal).unwrap();
        assert_eq!(db.table(t).get(1).unwrap().read_row().get_i64(1), 300);
    }

    #[test]
    fn no_wait_conflict_self_aborts() {
        let (db, t) = setup();
        let proto = LockingProtocol::no_wait();
        let mut c1 = proto.begin(&db, &TxnOptions::new());
        let mut c2 = proto.begin(&db, &TxnOptions::new());
        proto.update(&db, &mut c1, t, 0, &mut add_100).unwrap();
        let err = proto.update(&db, &mut c2, t, 0, &mut add_100).unwrap_err();
        assert_eq!(err.0, AbortReason::NoWait);
        proto.abort(&db, &mut c2);
        let wal = Mutex::new(WalBuffer::for_tests());
        proto.commit(&db, &mut c1, &wal).unwrap();
    }
}
