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
use bamboo_repro::core::{Database, DbOptions, Session};
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

/// Point lookups take no latch: `Table::{get, get_ref, contains, prefetch}` on a
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
        assert!(table.get_ref(present).is_some() && table.get_ref(absent).is_none());
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

/// `Txn::prefetch`'s latch budget. Pass 1 is `Table::prefetch`, which
/// takes none (above). Pass 2 takes, per present key, the version chain's
/// read latch and, in a locking transaction, the lock entry's latch by
/// `try_lock`. Over N present keys a locking transaction takes 2N, a
/// snapshot N, and absent keys take none.
#[test]
fn the_prefetch_hint_takes_two_latches_per_present_key() {
    const KEYS: u64 = 64;
    let (db, t) = kv_db(KEYS);
    let session = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));
    for (snapshot, per_key) in [(false, 2), (true, 1)] {
        let txn = if snapshot {
            session.snapshot()
        } else {
            session.begin()
        };
        let before = thread_lock_acquisitions();
        txn.prefetch((0..KEYS).map(|k| (t, k)));
        assert_eq!(
            thread_lock_acquisitions() - before,
            per_key * KEYS,
            "present keys, snapshot={snapshot}"
        );
        let before = thread_lock_acquisitions();
        txn.prefetch((KEYS..2 * KEYS).map(|k| (t, k)));
        assert_eq!(
            thread_lock_acquisitions() - before,
            0,
            "absent keys, snapshot={snapshot}"
        );
        txn.commit().unwrap();
    }
}

/// The hint never waits on a latch: while another thread holds a tuple's
/// lock-entry latch, `Txn::prefetch` over that key still returns (pass 2
/// skips the list it cannot `try_lock`), and once the latch is released a
/// read of the key sees the committed row.
#[test]
fn the_prefetch_hint_never_waits_on_a_latch() {
    let (db, t) = kv_db(4);
    let session = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));
    let mut writer = session.begin();
    writer
        .update(t, 2, |row| row.set(1, Value::I64(7)))
        .unwrap();
    writer.commit().unwrap();
    let tuple = db.table(t).get(2).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let (go_tx, go_rx) = std::sync::mpsc::channel();
    let timeout = std::time::Duration::from_secs(10);
    std::thread::scope(|s| {
        let held = tuple.meta.lock.lock();
        let session = &session;
        s.spawn(move || {
            let mut txn = session.begin();
            txn.prefetch([(t, 3), (t, 2)]);
            done_tx.send(None).unwrap();
            go_rx.recv_timeout(timeout).unwrap();
            let v = txn.read(t, 2).unwrap().get_i64(1);
            txn.commit().unwrap();
            done_tx.send(Some(v)).unwrap();
        });
        let returned = done_rx.recv_timeout(timeout);
        drop(held);
        assert_eq!(returned, Ok(None), "the hint waited on a held entry latch");
        go_tx.send(()).unwrap();
        assert_eq!(done_rx.recv_timeout(timeout), Ok(Some(7)));
    });
}

/// The hint races writers' grants, retires and installs: while two Bamboo
/// writers increment a few keys, a third thread hints every key, in
/// locking transactions and in snapshots, and then reads them. No
/// increment is lost, and every snapshot sees every key.
#[test]
fn the_prefetch_hint_races_writers() {
    const KEYS: u64 = 8;
    const TXNS: u64 = 2_000;
    let (db, t) = kv_db(KEYS);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (db, proto, done) = (&db, &proto, &done);
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                s.spawn(move || {
                    let session = Session::new(Arc::clone(db), Arc::clone(proto));
                    for i in 0..TXNS {
                        let k = (i * 3 + w) % KEYS;
                        loop {
                            let mut txn = session.begin();
                            let bumped = txn.update(t, k, |row| {
                                let v = row.get_i64(1);
                                row.set(1, Value::I64(v + 1));
                            });
                            if bumped.and_then(|()| txn.commit()).is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        s.spawn(move || {
            let session = Session::new(Arc::clone(db), Arc::clone(proto));
            let mut snapshot = false;
            while !done.load(Ordering::Relaxed) {
                snapshot = !snapshot;
                let mut txn = if snapshot {
                    session.snapshot()
                } else {
                    session.begin()
                };
                txn.prefetch((0..KEYS).map(|k| (t, k)));
                let read_all = (0..KEYS).try_for_each(|k| txn.read(t, k).map(|_| ()));
                let committed = read_all.and_then(|()| txn.commit());
                assert!(!snapshot || committed.is_ok(), "{committed:?}");
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });
    let total: i64 = (0..KEYS)
        .map(|k| db.table(t).get(k).unwrap().read_row().get_i64(1))
        .sum();
    assert_eq!(total, 2 * TXNS as i64);
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

/// A long reader reads its snapshot through 8 commits to the rows it
/// reads, the writers never block on it, and once it ends the watermark
/// passes its snapshot.
#[test]
fn a_long_reader_reads_its_snapshot_while_writers_commit() {
    let (db, t) = kv_db(4);
    let session = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));

    let mut reader = session.snapshot();
    let ts = reader.snapshot_ts().unwrap();
    assert_eq!(reader.read(t, 0).unwrap().get_i64(1), 0);
    for k in 0..8 {
        let mut w = session.begin();
        w.update(t, k % 4, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v + 1));
        })
        .unwrap();
        w.commit().unwrap();
    }
    assert_eq!(db.commit_clock.stable(), ts + 8, "every writer committed");
    for k in 0..4 {
        assert_eq!(reader.read(t, k).unwrap().get_i64(1), 0, "key {k}");
    }
    db.publish_watermark();
    assert!(db.gc_watermark() <= ts, "the watermark held at the reader");
    reader.commit().unwrap();
    db.publish_watermark();
    assert!(
        db.gc_watermark() > ts,
        "the watermark passes the ended reader"
    );
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
                // A commit: allocate + finish (every EPOCH_COMMITS-th publishes).
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
