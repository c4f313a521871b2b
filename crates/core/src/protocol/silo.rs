//! The SILO baseline — a variant of optimistic concurrency control
//! (Tu et al., SOSP'13), the paper's strongest OCC competitor (§5.1).
//!
//! Each tuple carries a TID word (`TupleCc::tid`): bit 0 is the lock bit,
//! the upper bits a version number. Reads are lock-free snapshots validated
//! by TID stability; writes are buffered locally and installed during a
//! three-phase commit: (1) lock the write set in global (table, primary
//! key) order, (2) validate the read set, (3) install and release with a
//! fresh TID.
//!
//! Simplifications vs. the original: Silo's epochs exist for recovery and
//! read-only snapshots, which this engine does without them (the redo log
//! and the commit clock), so there is no epoch; our TIDs take the max of
//! observed versions + 1, which preserves all concurrency behaviour the
//! paper's figures depend on (abort rate under contention, cache-warm-up
//! retries, no lock waiting).
//!
//! MVCC integration: commits additionally allocate a commit timestamp from
//! the database's commit clock and install their write set as new committed
//! versions, so lock-free snapshot readers can run concurrently. As in real
//! Silo, anti-dependencies (a validated read overwritten by a later writer)
//! are not totally ordered by these timestamps; write-write and write-read
//! ordering is exact, which is what the update-only invariants and the
//! paper's figures rely on — the original handles the same caveat by taking
//! snapshots only at epoch boundaries.

use crate::sync::atomic::Ordering;
#[cfg(test)]
use std::sync::Arc;

use bamboo_storage::{Row, TableId, Tuple};
use parking_lot::Mutex;

use crate::db::Database;
use crate::meta::TupleCc;
use crate::protocol::{commit_tail, Protocol};
use crate::session::TxnOptions;
use crate::txn::{Abort, AbortReason, Access, AccessState, LockMode, TxnCtx};
use crate::wal::WalBuffer;

const LOCK_BIT: u64 = 1;

/// How many times to retry a TID-stable read before yielding.
const READ_SPIN: usize = 64;

/// Bounded spin when locking the write set; beyond this the attempt aborts
/// (`SiloLockFail`) rather than risking a stall behind a slow writer.
const LOCK_SPIN: usize = 4096;

/// The indices of the write set in the global order Silo locks it in:
/// `(table, primary key)`, unique across partitions, so two committers
/// never take one pair of tuples in opposite orders (each would spin out
/// `LOCK_SPIN` and abort).
fn write_set_in_lock_order(accesses: &[Access]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..accesses.len()).filter(|&i| accesses[i].dirty).collect();
    idx.sort_by_key(|&i| (accesses[i].table.0, accesses[i].tuple.key));
    idx
}

/// The SILO protocol.
#[derive(Clone, Debug, Default)]
pub struct SiloProtocol;

impl SiloProtocol {
    /// Creates the protocol.
    pub fn new() -> Self {
        SiloProtocol
    }

    /// TID-stable read: returns (row, tid).
    fn stable_read(tuple: &Tuple<TupleCc>) -> (Row, u64) {
        let mut spins = 0;
        loop {
            let v1 = tuple.meta.tid.load(Ordering::Acquire);
            if v1 & LOCK_BIT == 0 {
                let row = tuple.read_row();
                let v2 = tuple.meta.tid.load(Ordering::Acquire);
                if v1 == v2 {
                    return (row, v1);
                }
            }
            spins += 1;
            if spins % READ_SPIN == 0 {
                // wait-seam: a TID-word spin, not a transaction wait — the
                // lock bit is held for one install, there is nothing to be
                // wounded by and no timer the paper charges it to.
                std::thread::yield_now();
            } else {
                // wait-seam: the same TID-word spin, between yields.
                std::hint::spin_loop();
            }
        }
    }

    fn try_lock(tuple: &Tuple<TupleCc>) -> bool {
        let mut spins = 0;
        loop {
            let v = tuple.meta.tid.load(Ordering::Acquire);
            if v & LOCK_BIT == 0
                && tuple
                    .meta
                    .tid
                    .compare_exchange_weak(v, v | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return true;
            }
            spins += 1;
            if spins >= LOCK_SPIN {
                return false;
            }
            // wait-seam: a bounded TID-word spin (`LOCK_SPIN` tries, then
            // the attempt aborts) — commit-time write locking never blocks.
            std::hint::spin_loop();
        }
    }

    fn unlock(tuple: &Tuple<TupleCc>) {
        let v = tuple.meta.tid.load(Ordering::Acquire);
        debug_assert!(v & LOCK_BIT != 0);
        tuple.meta.tid.store(v & !LOCK_BIT, Ordering::Release);
    }

    fn unlock_with(tuple: &Tuple<TupleCc>, tid: u64) {
        debug_assert!(tid & LOCK_BIT == 0);
        tuple.meta.tid.store(tid, Ordering::Release);
    }
}

impl Protocol for SiloProtocol {
    fn name(&self) -> &str {
        "SILO"
    }

    fn begin(&self, db: &Database, _opts: &TxnOptions) -> TxnCtx {
        // OCC has no priorities; the id doubles as the timestamp for the
        // shared handle (unused in validation).
        let id = db.next_txn_id();
        TxnCtx::new(crate::txn::TxnShared::new(id, id))
    }

    fn read<'c>(
        &self,
        db: &Database,
        ctx: &'c mut TxnCtx,
        table: TableId,
        key: u64,
    ) -> Result<&'c Row, Abort> {
        let tuple = db
            .table_for(table, key)
            .get(key)
            .unwrap_or_else(|| panic!("read: missing key {key} in table {}", table.0));
        if let Some(i) = ctx.find_access(table, tuple.key) {
            return Ok(&ctx.accesses[i].local);
        }
        let (row, tid) = Self::stable_read(&tuple);
        // Released: OCC reads hold no lock entry.
        let access = Access::new(table, tuple, LockMode::Sh, row, AccessState::Released);
        let i = ctx.push_access(access.observing(tid, 0, 0));
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
        let tuple = db
            .table_for(table, key)
            .get(key)
            .unwrap_or_else(|| panic!("update: missing key {key} in table {}", table.0));
        let i = match ctx.find_access(table, tuple.key) {
            Some(i) => {
                ctx.accesses[i].mode = LockMode::Ex;
                i
            }
            None => {
                let (row, tid) = Self::stable_read(&tuple);
                let access = Access::new(table, tuple, LockMode::Ex, row, AccessState::Released);
                ctx.push_access(access.observing(tid, 0, 0))
            }
        };
        f(&mut ctx.accesses[i].local);
        ctx.accesses[i].dirty = true;
        Ok(())
    }

    fn commit(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        ring: &Mutex<WalBuffer>,
    ) -> Result<(), Abort> {
        // Phase 1: lock the write set in deterministic global order.
        let write_idx = write_set_in_lock_order(&ctx.accesses);
        let mut locked: Vec<usize> = Vec::with_capacity(write_idx.len());
        for &i in &write_idx {
            ctx.locks_acquired += 1;
            if Self::try_lock(&ctx.accesses[i].tuple) {
                locked.push(i);
            } else {
                for &j in &locked {
                    Self::unlock(&ctx.accesses[j].tuple);
                }
                ctx.shared.set_abort(AbortReason::SiloLockFail);
                return Err(Abort(AbortReason::SiloLockFail));
            }
        }

        // Phase 2: validate the read set — every observed TID must be
        // unchanged and not locked by someone else.
        let mut max_tid = 0u64;
        for (i, a) in ctx.accesses.iter().enumerate() {
            let cur = a.tuple.meta.tid.load(Ordering::Acquire);
            let locked_by_us = a.dirty && locked.contains(&i);
            let version_changed = (cur & !LOCK_BIT) != (a.observed_tid & !LOCK_BIT);
            let locked_by_other = (cur & LOCK_BIT != 0) && !locked_by_us;
            if version_changed || locked_by_other {
                for &j in &locked {
                    Self::unlock(&ctx.accesses[j].tuple);
                }
                ctx.shared.set_abort(AbortReason::SiloValidation);
                return Err(Abort(AbortReason::SiloValidation));
            }
            max_tid = max_tid.max(cur & !LOCK_BIT);
        }
        let new_tid = max_tid + 2; // LSB reserved for the lock bit.

        // The write set is locked and validation passed, so the
        // serialization point is now: the shared tail passes the commit
        // point (nothing wounds a Silo transaction) and logs. If the log
        // fails it unlocks the write set first — `abort` never touches TID
        // locks — leaving the TIDs as they were.
        commit_tail(
            db,
            ctx,
            ring,
            |ctx| {
                for &j in &locked {
                    Self::unlock(&ctx.accesses[j].tuple);
                }
            },
            // Phase 3: install the write set as new committed versions,
            // bump TIDs, unlock. The commit tail then finishes the
            // timestamp (db::note_commit, which republishes the snapshot
            // watermark every EPOCH_COMMITS-th commit).
            |ctx| {
                let watermark = db.install_watermark(ctx.commit_ts);
                for &i in &write_idx {
                    let a = &ctx.accesses[i];
                    a.tuple
                        .install_versioned(a.local.clone(), ctx.commit_ts, watermark);
                    Self::unlock_with(&a.tuple, new_tid);
                }
            },
        )
    }

    fn abort(&self, _db: &Database, _ctx: &mut TxnCtx) -> usize {
        0 // OCC holds nothing until commit, and never cascades.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            db.table(t)
                .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
        }
        (db, t)
    }

    fn inc(row: &mut Row) {
        let v = row.get_i64(1);
        row.set(1, Value::I64(v + 1));
    }

    #[test]
    fn read_update_commit_installs() {
        let (db, t) = setup();
        let p = SiloProtocol::new();
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut ctx = p.begin(&db, &TxnOptions::new());
        assert_eq!(p.read(&db, &mut ctx, t, 1).unwrap().get_i64(1), 0);
        p.update(&db, &mut ctx, t, 1, &mut inc).unwrap();
        p.commit(&db, &mut ctx, &wal).unwrap();
        assert_eq!(db.table(t).get(1).unwrap().read_row().get_i64(1), 1);
        let tid = db.table(t).get(1).unwrap().meta.tid.load(Ordering::Acquire);
        assert!(tid >= 2 && tid & LOCK_BIT == 0);
    }

    #[test]
    fn stale_read_fails_validation() {
        let (db, t) = setup();
        let p = SiloProtocol::new();
        let wal = Mutex::new(WalBuffer::for_tests());
        // T1 reads key 1.
        let mut c1 = p.begin(&db, &TxnOptions::new());
        p.read(&db, &mut c1, t, 1).unwrap();
        p.update(&db, &mut c1, t, 2, &mut inc).unwrap();
        // T2 writes key 1 and commits first.
        let mut c2 = p.begin(&db, &TxnOptions::new());
        p.update(&db, &mut c2, t, 1, &mut inc).unwrap();
        p.commit(&db, &mut c2, &wal).unwrap();
        // T1's validation must fail.
        let err = p.commit(&db, &mut c1, &wal).unwrap_err();
        assert_eq!(err.0, AbortReason::SiloValidation);
        // Key 2 untouched by the failed T1.
        assert_eq!(db.table(t).get(2).unwrap().read_row().get_i64(1), 0);
    }

    #[test]
    fn write_write_conflict_one_wins() {
        let (db, t) = setup();
        let p = SiloProtocol::new();
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut c1 = p.begin(&db, &TxnOptions::new());
        let mut c2 = p.begin(&db, &TxnOptions::new());
        p.update(&db, &mut c1, t, 3, &mut inc).unwrap();
        p.update(&db, &mut c2, t, 3, &mut inc).unwrap();
        p.commit(&db, &mut c1, &wal).unwrap();
        // c2 observed the pre-c1 TID → validation failure.
        assert!(p.commit(&db, &mut c2, &wal).is_err());
        assert_eq!(db.table(t).get(3).unwrap().read_row().get_i64(1), 1);
    }

    #[test]
    fn concurrent_increments_are_serializable() {
        let (db, t) = setup();
        let p = Arc::new(SiloProtocol::new());
        let threads = 4;
        let per = 200;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let db = Arc::clone(&db);
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let wal = Mutex::new(WalBuffer::for_tests());
                    let mut done = 0;
                    while done < per {
                        let mut ctx = p.begin(&db, &TxnOptions::new());
                        p.update(&db, &mut ctx, t, 0, &mut inc).unwrap();
                        match p.commit(&db, &mut ctx, &wal) {
                            Ok(()) => done += 1,
                            Err(_) => {
                                p.abort(&db, &mut ctx);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            db.table(t).get(0).unwrap().read_row().get_i64(1),
            (threads * per) as i64,
            "every successful increment must be preserved"
        );
    }

    /// On a 2-partition table the tuples of keys 1 and 150 sit on
    /// different partitions; write sets holding them in either order lock
    /// them in one order.
    #[test]
    fn write_sets_lock_in_primary_key_order_across_partitions() {
        use crate::partition::PartitionedDb;
        use bamboo_storage::{PartitionId, RouteStrategy};
        let mut b = PartitionedDb::builder(2);
        let t = b.add_table(
            "kv",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
            RouteStrategy::Range(vec![100]),
        );
        let pdb = b.build();
        for k in [1u64, 150] {
            pdb.insert(t, k, Row::from(vec![Value::U64(k), Value::I64(0)]));
        }
        let tuple = |k: u64| pdb.db(PartitionId(0)).table_for(t, k).get(k).unwrap();
        let locked_keys = |keys: [u64; 2]| -> Vec<u64> {
            let set = keys.map(|k| {
                let mut a = Access::new(
                    t,
                    tuple(k),
                    LockMode::Ex,
                    Row::default(),
                    AccessState::Released,
                );
                a.dirty = true;
                a
            });
            let order = write_set_in_lock_order(&set);
            order.iter().map(|&i| set[i].tuple.key).collect()
        };
        assert_eq!(locked_keys([1, 150]), vec![1, 150]);
        assert_eq!(locked_keys([150, 1]), vec![1, 150]);
    }

    #[test]
    fn read_own_write() {
        let (db, t) = setup();
        let p = SiloProtocol::new();
        let mut ctx = p.begin(&db, &TxnOptions::new());
        p.update(&db, &mut ctx, t, 5, &mut inc).unwrap();
        assert_eq!(p.read(&db, &mut ctx, t, 5).unwrap().get_i64(1), 1);
    }
}
