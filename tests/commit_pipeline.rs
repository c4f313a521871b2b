//! Stress and property coverage for the lock-free commit pipeline: the
//! commit clock (atomic `next` + finished-slot ring + cached stable
//! point), the sharded epoch-bin snapshot registry, and the "snapshot too
//! old" lag cap — and, under group commit, the durability horizon the
//! acknowledgments park on.
//!
//! The lock-free claim is asserted *executably*: the vendored
//! `parking_lot` shim counts every blocking lock acquisition per thread
//! (`bamboo_core::sync::thread_lock_acquisitions`), and the steady-state
//! hot paths must show a delta of exactly zero.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bamboo_repro::core::partition::PartitionedDb;
use bamboo_repro::core::protocol::{LockingProtocol, Protocol, SiloProtocol};
use bamboo_repro::core::sync::thread_lock_acquisitions;
use bamboo_repro::core::txn::{Abort, AbortReason};
use bamboo_repro::core::{Database, DbOptions, Session, TxnOptions};
use bamboo_repro::storage::{
    DataType, FsyncPolicy, PartitionId, RouteStrategy, Row, Schema, TableId, Value,
};
use proptest::prelude::*;

fn kv_schema() -> Schema {
    Schema::build()
        .column("k", DataType::U64)
        .column("v", DataType::I64)
}

fn kv_db(keys: u64) -> (Arc<Database>, TableId) {
    let mut b = Database::builder();
    let t = b.add_table("kv", kv_schema());
    let db = b.build();
    for k in 0..keys {
        db.table(t)
            .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    (db, t)
}

/// Multi-writer stress: `stable()` must be monotonic and must never cover
/// a commit whose installs have not finished. Writers model the install
/// phase by raising a per-timestamp flag *before* calling `finish`; a
/// checker thread verifies every timestamp newly covered by the stable
/// point has its flag up.
#[test]
fn stable_is_monotonic_and_never_covers_unfinished_commits() {
    const WRITERS: usize = 4;
    const OPS: u64 = 20_000;
    const TOTAL: u64 = WRITERS as u64 * OPS;

    let db = Database::builder().build();
    let installed: Vec<AtomicBool> = (0..=TOTAL).map(|_| AtomicBool::new(false)).collect();

    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            let db = &db;
            let installed = &installed;
            s.spawn(move || {
                for _ in 0..OPS {
                    let ts = db.commit_clock.allocate();
                    // "Install phase": visible strictly before finish.
                    installed[ts as usize].store(true, Ordering::Release);
                    db.commit_clock.finish(ts);
                }
            });
        }
        s.spawn(|| {
            let mut last = 0u64;
            loop {
                let stable = db.commit_clock.stable();
                assert!(stable >= last, "stable went backwards: {last} -> {stable}");
                // Each timestamp is checked exactly once, when the stable
                // point first covers it.
                for ts in last + 1..=stable {
                    assert!(
                        installed[ts as usize].load(Ordering::Acquire),
                        "stable {stable} covers unfinished commit {ts}"
                    );
                }
                last = stable;
                if stable == TOTAL {
                    return;
                }
                std::hint::spin_loop();
            }
        });
    });
    assert_eq!(db.commit_clock.stable(), TOTAL);
}

/// The acceptance check for the tentpole: `allocate`/`finish`/`stable`
/// and snapshot register/release/publish perform **zero** Mutex/RwLock
/// acquisitions in steady state, measured by the shim's lock counter.
#[test]
fn clock_and_registry_steady_state_acquires_zero_locks() {
    let db = Database::builder().build();
    // Reach steady state: first use initializes the thread's registry
    // shard and warms the watermark.
    for _ in 0..8 {
        let ts = db.commit_clock.allocate();
        db.commit_clock.finish(ts);
        let g = db.register_snapshot();
        db.release_snapshot(g);
    }

    let before = thread_lock_acquisitions();
    for _ in 0..1_000 {
        let ts = db.commit_clock.allocate();
        let _ = db.commit_clock.stable();
        db.commit_clock.finish(ts);
        let g = db.register_snapshot();
        let _ = db.gc_watermark();
        db.release_snapshot(g);
        db.publish_watermark();
    }
    assert_eq!(
        thread_lock_acquisitions() - before,
        0,
        "commit clock / snapshot registry hot path acquired a lock"
    );
}

/// The snapshot *session* fast path end to end: in steady state,
/// `Session::snapshot()` + `commit()` must execute without a single mutex
/// acquisition under every protocol family (atomic loads plus one shard
/// refcount CAS only).
#[test]
fn session_snapshot_fast_path_acquires_zero_mutexes() {
    let (db, _t) = kv_db(4);
    let protocols: Vec<Arc<dyn Protocol>> = vec![
        Arc::new(LockingProtocol::bamboo()),
        Arc::new(LockingProtocol::wound_wait()),
        Arc::new(LockingProtocol::wait_die()),
        Arc::new(LockingProtocol::no_wait()),
        Arc::new(SiloProtocol::new()),
    ];
    for proto in protocols {
        let name = proto.name().to_owned();
        let session = Session::new(Arc::clone(&db), proto);
        // Steady state: warm the session and the thread's registry shard.
        for _ in 0..8 {
            session.snapshot().commit().unwrap();
        }
        let before = thread_lock_acquisitions();
        for _ in 0..100 {
            let txn = session.snapshot();
            assert!(txn.snapshot_ts().is_some());
            txn.commit().unwrap();
        }
        assert_eq!(
            thread_lock_acquisitions() - before,
            0,
            "{name}: snapshot begin/commit acquired a mutex"
        );
    }
}

/// Point lookups take no latch: `Table::{get, contains, prefetch}` on a
/// present and on an absent key, and `Txn::read_opt` on an absent key,
/// acquire zero locks (the primary-key index is read with acquire loads
/// only; see `bamboo_storage::index`).
#[test]
fn point_lookups_acquire_zero_locks() {
    const KEYS: u64 = 64;
    let (db, t) = kv_db(KEYS);
    let table = db.table(t);
    let session = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));
    let mut txn = session.begin();
    let before = thread_lock_acquisitions();
    for i in 0..1_000 {
        let (present, absent) = (i % KEYS, KEYS + i);
        assert!(table.get(present).is_some() && table.get(absent).is_none());
        assert!(table.contains(present) && !table.contains(absent));
        table.prefetch(present);
        table.prefetch(absent);
        assert!(txn.read_opt(t, absent).unwrap().is_none());
    }
    assert_eq!(
        thread_lock_acquisitions() - before,
        0,
        "a point lookup acquired a lock"
    );
    txn.commit().unwrap();
}

/// Concurrent register/release churn against committing writers: every
/// reader observes the published GC watermark at or below its own live
/// snapshot timestamp for as long as it stays registered.
#[test]
fn watermark_never_passes_a_live_snapshot_under_churn() {
    const READERS: usize = 3;
    const WRITER_OPS: u64 = 30_000;
    let db = Database::builder().build();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let (db, done) = (&db, &done);
        s.spawn(move || {
            for _ in 0..WRITER_OPS {
                let ts = db.commit_clock.allocate();
                db.note_commit(ts);
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..READERS {
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let g = db.register_snapshot();
                    for _ in 0..16 {
                        let wm = db.gc_watermark();
                        assert!(
                            wm <= g.ts,
                            "watermark {wm} passed live snapshot at {ts}",
                            ts = g.ts
                        );
                    }
                    db.release_snapshot(g);
                }
            });
        }
    });
}

/// A lag-capped long reader aborts with [`AbortReason::SnapshotTooOld`]
/// once the commit clock runs past its cap, while writers keep committing
/// throughout — and an uncapped reader (the default) survives the same
/// write fire.
#[test]
fn capped_long_reader_aborts_snapshot_too_old_while_writers_commit() {
    let (db, t) = kv_db(4);
    let session = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));

    let commit_one = |k: u64| {
        let mut w = session.begin();
        w.update(t, k, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v + 1));
        })
        .unwrap();
        w.commit().unwrap();
    };

    let mut capped = session.begin_with(TxnOptions::new().snapshot_max_lag(4));
    let mut uncapped = session.snapshot();
    let capped_ts = capped.snapshot_ts().unwrap();
    // Within the cap: reads succeed.
    assert_eq!(capped.read(t, 0).unwrap().get_i64(1), 0);
    for k in 0..8 {
        commit_one(k % 4);
    }
    // The stable point is now 8 > 4 ahead: the capped reader must abort…
    assert_eq!(
        capped.read(t, 1).unwrap_err(),
        Abort(AbortReason::SnapshotTooOld)
    );
    drop(capped);
    // …the uncapped reader still reads its (pre-write) snapshot…
    assert_eq!(uncapped.read(t, 1).unwrap().get_i64(1), 0);
    uncapped.commit().unwrap();
    // …and writers were never impeded: they committed during the reader's
    // lifetime and keep committing after its abort.
    commit_one(0);
    assert!(db.commit_clock.stable() >= 9);
    // With both readers gone the watermark passes the capped snapshot.
    db.publish_watermark();
    assert!(db.gc_watermark() >= capped_ts);
}

/// A one-partition group-commit database on a real segment file, `keys`
/// rows loaded.
fn group_commit_db(tag: &str, keys: u64) -> (Arc<Database>, TableId, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("bamboo-cp-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut b = PartitionedDb::builder(1);
    let t = b.add_table("kv", kv_schema(), RouteStrategy::Pin(0));
    b.with_options(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(FsyncPolicy::GroupCommit {
                max_batch: 16,
                max_wait_us: 100,
            }),
    );
    let db = Arc::clone(b.build().db(PartitionId(0)));
    for k in 0..keys {
        db.table(t)
            .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    (db, t, dir)
}

/// Commits one write to `key` with the acknowledgment deferred.
fn stage(session: &Session, t: TableId, key: u64) -> bamboo_repro::core::wal::DurabilityTicket {
    let mut txn = session.begin();
    txn.update(t, key, |row| row.set(1, Value::I64(1))).unwrap();
    txn.commit_deferred()
        .expect("uncontended commit")
        .expect("group commit on a wal_dir always hands out a ticket")
}

/// Commits one write to `key` on a session and thread of its own and
/// acknowledges it; panics if the acknowledgment has not returned within
/// ten seconds (five orders of magnitude above an fsync).
fn commit_and_ack_under_watchdog(db: &Arc<Database>, t: TableId, key: u64) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let db = Arc::clone(db);
    let peer = std::thread::spawn(move || {
        let session = Session::new(db, Arc::new(LockingProtocol::bamboo()));
        let ticket = stage(&session, t, key);
        done_tx.send(session.ack_ticket(ticket)).unwrap();
    });
    let acked = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("an acknowledgment waited for another session instead of for its fsync");
    assert_eq!(acked, Ok(()));
    peer.join().unwrap();
}

/// The horizon retires an entry when the disk has covered it, not when
/// its owner says so: session A keeps a flight of unacknowledged tickets
/// while session B commits above them, and B's acknowledgment — whose
/// leader fsync covers A's groups on their shared log — must return
/// without A lifting a finger. A then acknowledges its flight.
#[test]
fn a_peer_mid_flight_does_not_hold_back_an_ack() {
    const FLIGHT: u64 = 8;
    let (db, t, dir) = group_commit_db("mid-flight", FLIGHT + 1);
    let a = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));
    let flight: Vec<_> = (0..FLIGHT).map(|key| stage(&a, t, key)).collect();
    assert_eq!(
        db.durability_horizon().durable_ts(),
        0,
        "nothing was fsynced yet, so nothing may be acknowledged"
    );

    commit_and_ack_under_watchdog(&db, t, FLIGHT);

    for ticket in flight {
        assert_eq!(a.ack_ticket(ticket), Ok(()));
    }
    assert_eq!(db.durability_horizon().acked(), FLIGHT + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ticket nobody ever acknowledges costs its owner the answer, not
/// everyone else theirs: the next fsync of its partition retires its
/// horizon entry.
#[test]
fn a_dropped_ticket_does_not_wedge_later_acks() {
    let (db, t, dir) = group_commit_db("dropped-ticket", 2);
    let a = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));
    drop(stage(&a, t, 0));

    commit_and_ack_under_watchdog(&db, t, 1);

    assert!(db.durability_horizon().durable_ts() >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    // Default config: CI pins PROPTEST_CASES / PROPTEST_SEED.
    #![proptest_config(ProptestConfig::default())]

    /// Model-based churn: arbitrary interleavings of commits, snapshot
    /// registrations, releases and explicit publishes never push the GC
    /// watermark above the oldest live snapshot.
    #[test]
    fn gc_watermark_never_exceeds_oldest_live_snapshot(
        ops in proptest::collection::vec((0u8..4, 0usize..8), 1..120),
    ) {
        let db = Database::builder().build();
        let mut live = Vec::new();
        for (op, idx) in ops {
            match op {
                // A commit: allocate + finish (epoch ticks publish).
                0 => {
                    let ts = db.commit_clock.allocate();
                    db.note_commit(ts);
                }
                // Register a snapshot.
                1 => live.push(db.register_snapshot()),
                // Release some live snapshot.
                2 => {
                    if !live.is_empty() {
                        let g = live.swap_remove(idx % live.len());
                        db.release_snapshot(g);
                    }
                }
                // Force a publish.
                _ => db.publish_watermark(),
            }
            db.publish_watermark();
            let oldest = live.iter().map(|g| g.ts).min();
            if let Some(oldest) = oldest {
                prop_assert!(
                    db.gc_watermark() <= oldest,
                    "watermark {} exceeds oldest live snapshot {}",
                    db.gc_watermark(),
                    oldest
                );
            }
            // The watermark never exceeds the stable point either.
            prop_assert!(db.gc_watermark() <= db.commit_clock.stable());
        }
    }
}
