//! Exhaustive interleaving tests for the lock-free commit pipeline,
//! driven by the vendored `interleave` model checker.
//!
//! Compiled only under `--cfg bamboo_model`, which swaps the
//! [`crate::sync`] façade to `interleave`'s model atomics (TSO store-buffer
//! semantics, one scheduling point per atomic operation) so every test
//! here explores **all** thread interleavings up to the configured
//! preemption bound instead of the few an OS scheduler happens to produce.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS='--cfg bamboo_model' cargo test -p bamboo_core --lib model_
//! ```
//!
//! The mutation-validation run additionally passes
//! `--cfg bamboo_model_no_fence`, which removes the `SeqCst` fence in
//! [`CommitClock::finish`]; the regular clock tests are compiled out and
//! [`model_mutation_missing_fence_strands_stable`] asserts the checker
//! *finds* the stranded-stable interleaving the fence prevents:
//!
//! ```text
//! RUSTFLAGS='--cfg bamboo_model --cfg bamboo_model_no_fence' \
//!     cargo test -p bamboo_core --lib model_
//! ```
//!
//! A second mutation, `--cfg bamboo_model_no_wake_bump`, drops the sequence
//! bump of the wait seam's eventcount ([`crate::txn::TxnShared::bump`]);
//! [`model_mutation_missing_wake_bump_loses_a_wakeup`] asserts the checker
//! finds the lost wakeup:
//!
//! ```text
//! RUSTFLAGS='--cfg bamboo_model --cfg bamboo_model_no_wake_bump' \
//!     cargo test -p bamboo_core --lib model_
//! ```
//!
//! A third mutation, `--cfg bamboo_model_no_drain`, removes the wait for
//! in-flight commits from snapshot registration
//! ([`crate::db::CommitClock::drain`]);
//! [`model_mutation_missing_drain_loses_a_version`] asserts the checker
//! finds the snapshot whose version a committer dropped at install:
//!
//! ```text
//! RUSTFLAGS='--cfg bamboo_model --cfg bamboo_model_no_drain' \
//!     cargo test -p bamboo_core --lib model_
//! ```
//!
//! See CONCURRENCY.md at the workspace root for the invariant catalogue.
//!
//! [`model_mutation_missing_fence_strands_stable`]:
//!     self::model_mutation_missing_fence_strands_stable
//! [`model_mutation_missing_wake_bump_loses_a_wakeup`]:
//!     self::model_mutation_missing_wake_bump_loses_a_wakeup
//! [`model_mutation_missing_drain_loses_a_version`]:
//!     self::model_mutation_missing_drain_loses_a_version

use std::sync::Arc;

use interleave::{model, thread};
#[cfg(not(bamboo_model_no_fence))]
use interleave::{model_with, Config};

use crate::db::CommitClock;
#[cfg(not(bamboo_model_no_fence))]
use crate::db::Database;
use crate::sync::atomic::Ordering;
use crate::txn::TxnShared;

/// Spawns `n` model threads that each allocate a commit timestamp,
/// assert the stable point has not covered their still-in-flight commit,
/// and finish; then asserts every finished commit ended up covered.
///
/// This is the invariant [`CommitClock`] exists to provide: `stable()`
/// never covers an unfinished timestamp (snapshots taken at `stable`
/// would otherwise miss in-flight installs), and no finished commit is
/// stranded below it forever.
fn clock_scenario(n: u64) {
    let clock = Arc::new(CommitClock::new());
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let clock = Arc::clone(&clock);
            thread::spawn(move || {
                let ts = clock.allocate();
                // In flight: stable must be strictly below us until finish.
                let s = clock.stable();
                assert!(s < ts, "stable {s} covers unfinished commit {ts}");
                clock.finish(ts);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Every allocated timestamp finished, so the stable point must have
    // caught up — a shortfall here is exactly the stranded-stable schedule
    // the SeqCst fence in `finish` exists to exclude.
    let s = clock.stable();
    assert_eq!(s, n, "finished commit stranded: stable {s}, expected {n}");
}

#[cfg(not(bamboo_model_no_fence))]
#[test]
fn model_clock_two_finishers_never_strand_stable() {
    let report = model(|| clock_scenario(2));
    assert!(report.complete, "schedule space not exhausted");
}

#[cfg(not(bamboo_model_no_fence))]
#[test]
fn model_clock_three_finishers_never_strand_stable() {
    // Three finishers at preemption bound 1: enough to interleave a
    // gap-filling finisher between two already-scanning successors while
    // keeping the exhaustive run in the hundreds of thousands of steps.
    let report = model_with(
        Config {
            preemption_bound: Some(1),
            ..Config::default()
        },
        || clock_scenario(3),
    );
    assert!(report.complete, "schedule space not exhausted");
}

/// The seeded-mutation validation: with the `SeqCst` fence in
/// [`CommitClock::finish`] compiled out (`--cfg bamboo_model_no_fence`),
/// the checker must FIND a schedule where a finished commit is stranded
/// below `stable` forever — each finisher's slot store sits in its store
/// buffer while it scans past the other's slot (store-buffering reorder),
/// so neither advances over both. If this test fails, the checker could
/// not see the very bug class the fence exists to prevent, and the green
/// runs above prove nothing.
#[cfg(bamboo_model_no_fence)]
#[test]
fn model_mutation_missing_fence_strands_stable() {
    let caught = std::panic::catch_unwind(|| model(|| clock_scenario(2)));
    assert!(
        caught.is_err(),
        "fence removed but no stranded-stable schedule found: the model \
         checker missed the store-buffering reorder it exists to catch"
    );
}

/// The wait seam's eventcount, driven through the production halves
/// ([`TxnShared::begin_park`], [`TxnShared::bump`]) without the mutex and
/// condvar around them: one waiter runs a round of `TxnCtx::wait` up to
/// the decision to sleep, one notifier flips the predicate (the commit
/// semaphore) and notifies. A waiter that committed to sleeping without
/// having seen the flip must have been seen by the notifier — otherwise
/// nobody signals its condvar and the wakeup is lost.
fn eventcount_scenario() {
    let shared = TxnShared::new(1, 1);
    shared.semaphore_inc();
    let waiter = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            let seen = shared.wake_word();
            shared.semaphore() != 0 && shared.begin_park(seen)
        })
    };
    let notifier = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            shared.commit_semaphore.fetch_sub(1, Ordering::AcqRel);
            shared.bump()
        })
    };
    let sleeps = waiter.join().unwrap();
    let signalled = notifier.join().unwrap();
    assert!(
        !sleeps || signalled,
        "lost wakeup: the waiter sleeps on a stale predicate and the \
         notifier saw nobody parked"
    );
}

#[cfg(not(bamboo_model_no_wake_bump))]
#[test]
fn model_wait_eventcount_no_lost_wakeup() {
    let report = model(eventcount_scenario);
    assert!(report.complete, "schedule space not exhausted");
}

/// The second seeded mutation: with the sequence bump compiled out
/// (`--cfg bamboo_model_no_wake_bump`) `notify` degrades to a bare
/// "is anybody parked?" check, and the checker must FIND the schedule where
/// the notifier looks before the waiter publishes itself.
#[cfg(bamboo_model_no_wake_bump)]
#[test]
fn model_mutation_missing_wake_bump_loses_a_wakeup() {
    let caught = std::panic::catch_unwind(|| model(eventcount_scenario));
    assert!(
        caught.is_err(),
        "wake bump removed but no lost wakeup found: the model checker \
         missed the notify-before-park race the eventcount exists to close"
    );
}

/// A committer racing a registering snapshot over one tuple. The writer
/// allocates its timestamp, installs a new image under
/// [`Database::install_watermark`] — which drops the loader image when it
/// reads no live snapshot — and finishes. The reader registers, reads the
/// tuple at its timestamp and releases. Under every interleaving the
/// reader finds the version current at its timestamp: the loader image
/// below the writer's timestamp, the new image at or above it.
///
/// [`Database::install_watermark`]: crate::db::Database::install_watermark
fn install_drop_scenario() {
    use bamboo_storage::{DataType, Row, Schema, Value};

    let mut b = crate::db::Database::builder();
    let t = b.add_table(
        "kv",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    let db = b.build();
    db.table(t)
        .insert(1, Row::from(vec![Value::U64(1), Value::I64(0)]));
    let tuple = db.table(t).get(1).unwrap();
    let writer = {
        let (db, tuple) = (Arc::clone(&db), Arc::clone(&tuple));
        thread::spawn(move || {
            let ts = db.commit_clock.allocate();
            let watermark = db.install_watermark(ts);
            tuple.install_versioned(Row::from(vec![Value::U64(1), Value::I64(1)]), ts, watermark);
            db.note_commit(ts);
            ts
        })
    };
    let reader = {
        let db = Arc::clone(&db);
        thread::spawn(move || {
            let grant = db.register_snapshot();
            let seen = tuple.read_at(grant.ts).map(|row| row.get_i64(1));
            db.release_snapshot(grant);
            (grant.ts, seen)
        })
    };
    let commit_ts = writer.join().unwrap();
    let (snap, seen) = reader.join().unwrap();
    let want = i64::from(snap >= commit_ts);
    assert_eq!(
        seen,
        Some(want),
        "snapshot at {snap} lost its version to the commit at {commit_ts}"
    );
    assert_eq!(db.snapshots.active_count(), 0, "registration leaked");
}

#[cfg(not(bamboo_model_no_drain))]
#[test]
fn model_an_install_never_drops_a_registered_snapshots_version() {
    let report = model(install_drop_scenario);
    assert!(report.complete, "schedule space not exhausted");
}

/// The third seeded mutation: with the drain compiled out of snapshot
/// registration (`--cfg bamboo_model_no_drain`), the checker must FIND the
/// schedule where the writer reads a live count of 0 and drops the loader
/// image, and a snapshot that registered before the commit finished
/// adopts a timestamp below it and finds nothing to read.
#[cfg(bamboo_model_no_drain)]
#[test]
fn model_mutation_missing_drain_loses_a_version() {
    let caught = std::panic::catch_unwind(|| model(install_drop_scenario));
    assert!(
        caught.is_err(),
        "drain removed but no lost version found: the model checker \
         missed the commit a registering snapshot must wait for"
    );
}

#[cfg(not(bamboo_model_no_fence))]
#[test]
fn model_watermark_never_passes_live_snapshot() {
    let report = model(|| {
        let db = Database::builder().build();
        // Reader: register a snapshot, then observe the watermark while
        // the registration is live. The invariant under test: no publisher
        // schedule ever moves the watermark past a live snapshot's
        // timestamp (GC would reclaim versions the snapshot still reads).
        let reader = {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                let grant = db.register_snapshot();
                let w = db.gc_watermark();
                assert!(
                    w <= grant.ts,
                    "watermark {w} passed live snapshot at {}",
                    grant.ts
                );
                db.release_snapshot(grant);
            })
        };
        // Writer: finish a commit (advancing stable) and publish the
        // watermark — racing the reader's register/observe/release.
        let writer = {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                let ts = db.commit_clock.allocate();
                db.note_commit(ts);
                db.publish_watermark();
            })
        };
        reader.join().unwrap();
        writer.join().unwrap();
        assert_eq!(db.snapshots.active_count(), 0, "registration leaked");
        // With no live snapshots the floor is capped by stable only.
        db.publish_watermark();
        let (w, s) = (db.gc_watermark(), db.commit_clock.stable());
        assert!(w <= s, "watermark {w} beyond stable {s}");
    });
    assert!(report.complete, "schedule space not exhausted");
}

#[cfg(not(bamboo_model_no_fence))]
#[test]
fn model_cross_partition_commit_is_atomic_at_one_timestamp() {
    use crate::partition::{PartSession, PartitionedDb};
    use crate::protocol::LockingProtocol;
    use bamboo_storage::{DataType, PartitionId, RouteStrategy, Row, Schema, Value};

    // Two cross-partition writers over disjoint key pairs, each touching
    // both partitions. Disjointness matters for more than the scenario:
    // the tuple-lock `parking_lot` mutexes are real locks even under the
    // model, and the no-yield-inside-a-shared-critical-section rule
    // (CONCURRENCY.md) holds because only the WAL mutex is shared — and
    // its critical section performs no atomic operations.
    let report = model_with(
        Config {
            preemption_bound: Some(1),
            ..Config::default()
        },
        || {
            let mut b = PartitionedDb::builder(2);
            let t = b.add_table(
                "kv",
                Schema::build()
                    .column("k", DataType::U64)
                    .column("v", DataType::I64),
                RouteStrategy::Range(vec![100]),
            );
            let pdb = b.build();
            for k in [1u64, 2, 150, 151] {
                pdb.insert(t, k, Row::from(vec![Value::U64(k), Value::I64(0)]));
            }
            let s = Arc::new(PartSession::new(
                Arc::clone(&pdb),
                Arc::new(LockingProtocol::bamboo()),
            ));
            // Writer A: keys 1 (partition 0) and 151 (partition 1).
            let a = {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    let mut txn = s.begin_on(PartitionId(0));
                    txn.update(t, 1, |r| r.set(1, Value::I64(-7))).unwrap();
                    txn.update(t, 151, |r| r.set(1, Value::I64(7))).unwrap();
                    txn.commit().unwrap();
                })
            };
            // Writer B: keys 2 (partition 0) and 150 (partition 1).
            let b = {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    let mut txn = s.begin_on(PartitionId(1));
                    txn.update(t, 2, |r| r.set(1, Value::I64(-9))).unwrap();
                    txn.update(t, 150, |r| r.set(1, Value::I64(9))).unwrap();
                    txn.commit().unwrap();
                })
            };
            a.join().unwrap();
            b.join().unwrap();
            // The commit-ordering contract: every install of one commit
            // carries ONE timestamp, on both partitions.
            let ts_a0 = pdb.table(PartitionId(0), t).get(1).unwrap().commit_ts();
            let ts_a1 = pdb.table(PartitionId(1), t).get(151).unwrap().commit_ts();
            let ts_b0 = pdb.table(PartitionId(0), t).get(2).unwrap().commit_ts();
            let ts_b1 = pdb.table(PartitionId(1), t).get(150).unwrap().commit_ts();
            assert_eq!(ts_a0, ts_a1, "cross-partition commit split timestamps");
            assert_eq!(ts_b0, ts_b1, "cross-partition commit split timestamps");
            assert_ne!(ts_a0, ts_b0, "distinct commits share a timestamp");
            // Both commits finished, so stable covers both: no snapshot —
            // on any partition — can observe either half-applied.
            let stable = pdb.db(PartitionId(0)).commit_clock.stable();
            assert!(
                stable >= ts_a0.max(ts_b0),
                "stable {stable} below finished cross-partition commits \
                 ({ts_a0}, {ts_b0})"
            );
            // No wal dir: each writer logged one record, on the ring of
            // the session it committed through.
            assert_eq!(s.session(PartitionId(0)).log_records(), 1);
            assert_eq!(s.session(PartitionId(1)).log_records(), 1);
        },
    );
    assert!(report.complete, "schedule space not exhausted");
}
