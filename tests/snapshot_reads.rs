//! Multi-version snapshot reads: the seed's banking invariant restated for
//! lock-free read-only transactions.
//!
//! A snapshot reader scanning a hotspot while writers hammer it must
//! (1) never block — zero lock-manager acquisitions, (2) never abort, and
//! (3) observe a transactionally consistent state: the total balance at
//! its snapshot timestamp equals the invariant, even though writers commit
//! continuously underneath it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_repro::core::executor::{run_bench, BenchConfig, TxnSpec, Workload};
use bamboo_repro::core::partition::{PartSession, PartitionedDb};
use bamboo_repro::core::protocol::{
    Ic3Protocol, LockingProtocol, PieceAccess, PieceDecl, Protocol, SiloProtocol, TemplateDecl,
};
use bamboo_repro::core::{Abort, AbortReason, Database, Session, Txn};
use bamboo_repro::storage::{DataType, PartitionId, RouteStrategy, Row, Schema, TableId, Value};
use rand::rngs::SmallRng;
use rand::Rng;

const N_ACCOUNTS: u64 = 32;
const INITIAL: i64 = 100;

fn load() -> (Arc<Database>, TableId) {
    let mut b = Database::builder();
    let t = b.add_table(
        "acct",
        Schema::build()
            .column("id", DataType::U64)
            .column("bal", DataType::I64),
    );
    let db = b.build();
    for id in 0..N_ACCOUNTS {
        db.table(t)
            .insert(id, Row::from(vec![Value::U64(id), Value::I64(INITIAL)]));
    }
    (db, t)
}

/// Balance-preserving transfer: account 0 is the hotspot (every transfer
/// routes a fee through it, like the seed's serializability test).
struct Transfer {
    table: TableId,
    from: u64,
    to: u64,
    amount: i64,
}

impl TxnSpec for Transfer {
    fn planned_ops(&self) -> Option<usize> {
        Some(3)
    }

    fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        let amount = self.amount;
        txn.update(self.table, 0, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v + 1));
        })?;
        txn.update(self.table, self.from, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v - amount - 1));
        })?;
        txn.update(self.table, self.to, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v + amount));
        })?;
        Ok(())
    }
}

struct TransferWl {
    table: TableId,
}

impl Workload for TransferWl {
    fn name(&self) -> &str {
        "transfer"
    }

    fn generate(&self, _w: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        let from = rng.gen_range(1..N_ACCOUNTS);
        let mut to = rng.gen_range(1..N_ACCOUNTS - 1);
        if to >= from {
            to += 1;
        }
        Box::new(Transfer {
            table: self.table,
            from,
            to,
            amount: rng.gen_range(1..10),
        })
    }
}

/// One snapshot transaction scanning every account of a database under
/// active writer fire. Panics on any inconsistency, lock acquisition, or
/// abort.
fn snapshot_scan(session: &Session, t: TableId) {
    let mut txn = session.snapshot();
    let mut sum = 0i64;
    for id in 0..N_ACCOUNTS {
        // Reads can never fail in snapshot mode: no waits, no wounds.
        let row = txn.read(t, id).expect("snapshot read must never abort");
        sum += row.get_i64(1);
    }
    assert_eq!(
        sum,
        N_ACCOUNTS as i64 * INITIAL,
        "snapshot observed a torn state (non-transactional view)"
    );
    assert_eq!(
        txn.locks_acquired(),
        0,
        "snapshot scan touched the lock manager"
    );
    assert!(!txn.shared().is_aborted(), "snapshot reader was aborted");
    txn.commit().expect("snapshot commit cannot fail");
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Hotspot writers + repeated snapshot scans, per protocol. The reader
/// never blocks on the writers (zero lock interaction) and every scan sums
/// to the invariant. Writers publish their commit counts, so "under write
/// fire" is something the test observes — scanning starts once every writer
/// has committed and ends only after every writer committed again — rather
/// than something a sleep hopes the scheduler arranged.
#[test]
fn snapshot_reader_is_lock_free_and_consistent_under_write_fire() {
    const WRITERS: usize = 3;
    const MIN_SCANS: usize = 300;
    for proto in [
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
        Arc::new(LockingProtocol::bamboo_base()) as Arc<dyn Protocol>,
        Arc::new(LockingProtocol::wound_wait()) as Arc<dyn Protocol>,
        Arc::new(SiloProtocol::new()) as Arc<dyn Protocol>,
    ] {
        let (db, t) = load();
        let stop = AtomicBool::new(false);
        let commits: [AtomicU64; WRITERS] = Default::default();
        let deadline = Instant::now() + Duration::from_secs(60);
        // Some writer has not committed since it published `floor`.
        let behind = |floor: [u64; WRITERS]| {
            assert!(
                Instant::now() < deadline,
                "{}: writers must make progress",
                proto.name()
            );
            (0..WRITERS).any(|w| commits[w].load(Ordering::Acquire) <= floor[w])
        };
        std::thread::scope(|s| {
            for (w, published) in commits.iter().enumerate() {
                let (db, proto, stop) = (Arc::clone(&db), Arc::clone(&proto), &stop);
                s.spawn(move || {
                    use rand::SeedableRng;
                    let mut rng = SmallRng::seed_from_u64(1000 + w as u64);
                    let wl = TransferWl { table: t };
                    let session = Session::new(db, proto);
                    while !stop.load(Ordering::Relaxed) {
                        let spec = wl.generate(w, &mut rng);
                        session.run(spec.as_ref()).unwrap();
                        published.fetch_add(1, Ordering::Release);
                    }
                });
            }
            // Raised on every exit, a failed assertion included: the scope
            // joins the writers before it lets a panic out.
            let _stop = StopOnDrop(&stop);
            let reader_session = Session::new(Arc::clone(&db), Arc::clone(&proto));
            while behind([0; WRITERS]) {
                std::thread::yield_now();
            }
            let at_start = std::array::from_fn(|w| commits[w].load(Ordering::Acquire));
            let mut scans = 0;
            while scans < MIN_SCANS || behind(at_start) {
                snapshot_scan(&reader_session, t);
                scans += 1;
            }
        });
        assert_eq!(
            db.snapshots.active_count(),
            0,
            "{}: every snapshot must deregister",
            proto.name()
        );
        // Final state conserved, as in the seed's serializability suite.
        let total: i64 = (0..N_ACCOUNTS)
            .map(|id| db.table(t).get(id).unwrap().read_row().get_i64(1))
            .sum();
        assert_eq!(total, N_ACCOUNTS as i64 * INITIAL);
    }
}

/// Snapshots that come and go under write fire: two readers run short
/// snapshot scans back to back, so the number of live snapshots falls to
/// zero and rises again thousands of times while transfers commit. Every
/// scan reads every account through `Txn::read`, so a version a snapshot
/// still needed but a writer dropped surfaces as `SnapshotNotVisible` (or
/// as a torn total), and every scan checks the conserved total.
#[test]
fn snapshots_that_come_and_go_never_miss_a_version() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const SCANS: usize = 2_000;
    for proto in [
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
        Arc::new(LockingProtocol::bamboo_base()) as Arc<dyn Protocol>,
        Arc::new(LockingProtocol::wound_wait()) as Arc<dyn Protocol>,
        Arc::new(SiloProtocol::new()) as Arc<dyn Protocol>,
    ] {
        let (db, t) = load();
        let stop = AtomicBool::new(false);
        let commits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (db, proto, stop, commits) =
                    (Arc::clone(&db), Arc::clone(&proto), &stop, &commits);
                s.spawn(move || {
                    use rand::SeedableRng;
                    let mut rng = SmallRng::seed_from_u64(2000 + w as u64);
                    let wl = TransferWl { table: t };
                    let session = Session::new(db, proto);
                    while !stop.load(Ordering::Relaxed) {
                        let spec = wl.generate(w, &mut rng);
                        session.run(spec.as_ref()).unwrap();
                        commits.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let _stop = StopOnDrop(&stop);
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    let (db, proto) = (Arc::clone(&db), Arc::clone(&proto));
                    s.spawn(move || {
                        let session = Session::new(db, proto);
                        for _ in 0..SCANS {
                            snapshot_scan(&session, t);
                        }
                    })
                })
                .collect();
            for r in readers {
                if let Err(panic) = r.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        assert!(
            commits.load(Ordering::Relaxed) > 0,
            "{}: the writers never committed",
            proto.name()
        );
        assert_eq!(db.snapshots.active_count(), 0, "{}", proto.name());
        let total: i64 = (0..N_ACCOUNTS)
            .map(|id| db.table(t).get(id).unwrap().read_row().get_i64(1))
            .sum();
        assert_eq!(total, N_ACCOUNTS as i64 * INITIAL, "{}", proto.name());
    }
}

/// Snapshot isolation against inserts: a row committed after the snapshot
/// was taken is invisible to it (no snapshot phantoms), while later
/// snapshots see it. The invisibility now surfaces through the `Txn` read
/// result — `SnapshotNotVisible` from `read`, `Ok(None)` from `read_opt` —
/// instead of a storage-level panic.
#[test]
fn snapshot_does_not_see_later_inserts() {
    let (db, t) = load();
    let session = Session::new(
        Arc::clone(&db),
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
    );

    let mut old_snap = session.snapshot();
    // Writer inserts a new account and commits.
    let mut w = session.begin();
    w.insert(
        t,
        N_ACCOUNTS + 7,
        Row::from(vec![Value::U64(N_ACCOUNTS + 7), Value::I64(5)]),
        None,
    )
    .unwrap();
    w.commit().unwrap();

    let tuple = db.table(t).get(N_ACCOUNTS + 7).expect("insert applied");
    let snap_ts = old_snap.snapshot_ts().unwrap();
    assert!(
        !tuple.visible_at(snap_ts),
        "row inserted after the snapshot must be invisible at ts {snap_ts}"
    );
    // The session surface agrees with the storage-level check.
    assert_eq!(
        old_snap.read(t, N_ACCOUNTS + 7).unwrap_err(),
        Abort(AbortReason::SnapshotNotVisible),
        "read of a post-snapshot insert surfaces SnapshotNotVisible"
    );
    assert!(
        old_snap.read_opt(t, N_ACCOUNTS + 7).unwrap().is_none(),
        "read_opt treats the phantom as absent"
    );
    // The pre-existing rows are unaffected.
    assert_eq!(old_snap.read(t, 0).unwrap().get_i64(1), INITIAL);
    old_snap.commit().unwrap();

    // A fresh snapshot sees the committed insert.
    let mut new_snap = session.snapshot();
    assert_eq!(new_snap.read(t, N_ACCOUNTS + 7).unwrap().get_i64(1), 5);
    new_snap.commit().unwrap();
}

/// Snapshot repeatability: a snapshot re-reading a key sees the same value
/// even after a writer overwrote and committed in between, and a snapshot
/// taken later sees the new value.
#[test]
fn snapshot_reads_are_repeatable_across_concurrent_commits() {
    let (db, t) = load();
    let session = Session::new(
        Arc::clone(&db),
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
    );

    let mut snap = session.snapshot();
    let before = snap.read(t, 3).unwrap().get_i64(1);
    assert_eq!(before, INITIAL);

    let mut w = session.begin();
    w.update(t, 3, |row| row.set(1, Value::I64(999))).unwrap();
    w.commit().unwrap();
    assert_eq!(db.table(t).get(3).unwrap().read_row().get_i64(1), 999);

    // The live snapshot still resolves to its version: both through the
    // cached access and through the raw version chain at the same
    // timestamp.
    assert_eq!(snap.read(t, 3).unwrap().get_i64(1), INITIAL);
    let ts = snap.snapshot_ts().unwrap();
    assert_eq!(
        db.table(t).get(3).unwrap().read_at(ts).unwrap().get_i64(1),
        INITIAL,
        "version chain must retain the snapshot's image"
    );
    snap.commit().unwrap();

    let mut snap2 = session.snapshot();
    assert_eq!(snap2.read(t, 3).unwrap().get_i64(1), 999);
    snap2.commit().unwrap();
}

/// A snapshot reads key `k`; a writer then commits a new value of `k` and
/// inserts key `j`. Reading `k` again returns its first value and `j` is
/// absent: on one partition, and with both keys on a partition other than
/// the snapshot's home.
#[test]
fn a_snapshot_rereads_its_first_value_and_misses_a_later_insert() {
    for parts in [1u32, 2] {
        let mut b = PartitionedDb::builder(parts);
        let t = b.add_table(
            "acct",
            Schema::build()
                .column("id", DataType::U64)
                .column("bal", DataType::I64),
            RouteStrategy::Range((1..parts as u64).map(|p| p * 1000).collect()),
        );
        let pdb = b.build();
        let base = (parts as u64 - 1) * 1000;
        let (k, j) = (base + 1, base + 2);
        for key in [base, k] {
            pdb.insert(
                t,
                key,
                Row::from(vec![Value::U64(key), Value::I64(INITIAL)]),
            );
        }
        let session = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
        let writer_home = PartitionId(parts - 1);

        let mut snap = session.snapshot_on(PartitionId(0));
        assert_eq!(snap.read(t, k).unwrap().get_i64(1), INITIAL);
        let mut w = session.begin_on(writer_home);
        w.update(t, k, |row| row.set(1, Value::I64(INITIAL + 1)))
            .unwrap();
        w.insert(t, j, Row::from(vec![Value::U64(j), Value::I64(7)]), None)
            .unwrap();
        w.commit().unwrap();

        assert_eq!(
            snap.read(t, k).unwrap().get_i64(1),
            INITIAL,
            "parts={parts}"
        );
        assert!(snap.read_opt(t, j).unwrap().is_none(), "parts={parts}");
        assert_eq!(snap.read(t, base).unwrap().get_i64(1), INITIAL);
        assert_eq!(
            snap.read(t, k).unwrap().get_i64(1),
            INITIAL,
            "parts={parts}"
        );
        assert_eq!(snap.locks_acquired(), 0);
        snap.commit().unwrap();

        let mut fresh = session.snapshot_on(PartitionId(0));
        assert_eq!(fresh.read(t, k).unwrap().get_i64(1), INITIAL + 1);
        assert_eq!(fresh.read(t, j).unwrap().get_i64(1), 7);
        fresh.commit().unwrap();
    }
}

/// The executor-level view: a transfer workload with a snapshot-scanning
/// fraction. Snapshot commits land in their own stats bucket with zero
/// lock acquisitions, and the writers keep committing.
#[test]
fn snapshot_mix_accounted_and_conserves_balance() {
    struct MixWl {
        table: TableId,
    }

    struct ScanAll {
        table: TableId,
    }

    impl TxnSpec for ScanAll {
        fn planned_ops(&self) -> Option<usize> {
            Some(N_ACCOUNTS as usize)
        }

        fn read_only_snapshot(&self) -> bool {
            true
        }

        fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
            let mut sum = 0i64;
            for id in 0..N_ACCOUNTS {
                sum += txn.read(self.table, id)?.get_i64(1);
            }
            assert_eq!(sum, N_ACCOUNTS as i64 * INITIAL, "torn snapshot scan");
            Ok(())
        }
    }

    impl Workload for MixWl {
        fn name(&self) -> &str {
            "transfer+snapshot-scan"
        }

        fn generate(&self, _w: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
            if rng.gen_bool(0.2) {
                return Box::new(ScanAll { table: self.table });
            }
            let from = rng.gen_range(1..N_ACCOUNTS);
            let mut to = rng.gen_range(1..N_ACCOUNTS - 1);
            if to >= from {
                to += 1;
            }
            Box::new(Transfer {
                table: self.table,
                from,
                to,
                amount: rng.gen_range(1..10),
            })
        }
    }

    for proto in [
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
        Arc::new(LockingProtocol::wound_wait()) as Arc<dyn Protocol>,
        Arc::new(SiloProtocol::new()) as Arc<dyn Protocol>,
    ] {
        let (db, t) = load();
        let wl: Arc<dyn Workload> = Arc::new(MixWl { table: t });
        let res = run_bench(
            &db,
            &proto,
            &wl,
            &BenchConfig::quick(4)
                .with_duration(Duration::from_millis(250))
                .with_warmup(Duration::from_millis(25))
                .with_seed(23),
        );
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0, "{}: writers starved", res.protocol);
        assert!(
            res.totals.snapshot_commits > 0,
            "{}: snapshot scans must commit",
            res.protocol
        );
        assert_eq!(
            res.totals.snapshot_lock_acquisitions, 0,
            "{}: snapshot scans acquired locks",
            res.protocol
        );
        assert_eq!(
            res.totals.snapshot_aborts, 0,
            "{}: snapshot scans aborted",
            res.protocol
        );
        assert!(
            res.totals.lock_acquisitions > 0,
            "{}: writer lock accounting missing",
            res.protocol
        );
        let total: i64 = (0..N_ACCOUNTS)
            .map(|id| db.table(t).get(id).unwrap().read_row().get_i64(1))
            .sum();
        assert_eq!(total, N_ACCOUNTS as i64 * INITIAL, "{}", res.protocol);
        // No snapshot leaked its registration; the watermark can advance
        // and chains drain back toward a single version.
        assert_eq!(db.snapshots.active_count(), 0, "{}", res.protocol);
    }
}

/// Commits one write of `bal = v` to account `key`, then publishes the
/// watermark so that the next writer sees it.
fn write_and_publish(session: &Session, db: &Database, t: TableId, key: u64, v: i64) {
    let mut w = session.begin();
    w.update(t, key, |row| row.set(1, Value::I64(v))).unwrap();
    w.commit().unwrap();
    db.publish_watermark();
}

/// The 2PL family's writer reclaims a tuple's dead versions before it
/// requests its exclusive lock, not at its own install: a snapshot pinned
/// the loader image through the first write, and once the snapshot has
/// ended, the next writer's `update` leaves the chain empty while that
/// writer is still running.
#[test]
fn a_writer_reclaims_dead_versions_before_it_copies() {
    for proto in [LockingProtocol::bamboo(), LockingProtocol::wound_wait()] {
        let (db, t) = load();
        let session = Session::new(Arc::clone(&db), Arc::new(proto) as Arc<dyn Protocol>);
        let name = session.protocol().name().to_owned();
        let tuple = db.table(t).get(5).unwrap();

        let snap = session.snapshot();
        write_and_publish(&session, &db, t, 5, 1);
        snap.commit().unwrap();
        db.publish_watermark();
        assert_eq!(
            tuple.retained_versions(),
            1,
            "{name}: the loader image is dead but still retained"
        );

        let mut w2 = session.begin();
        w2.update(t, 5, |row| row.set(1, Value::I64(2))).unwrap();
        assert_eq!(
            tuple.retained_versions(),
            0,
            "{name}: the writer's update must reclaim the dead image"
        );
        w2.commit().unwrap();
        assert_eq!(tuple.read_row().get_i64(1), 2, "{name}");
    }
}

/// With no snapshot registered, a commit drops the image it replaces at
/// install: right after the commit the chain holds nothing, for the
/// locking, Silo and IC3 installs alike.
#[test]
fn a_commit_with_no_live_snapshot_retains_nothing() {
    let template = TemplateDecl {
        name: "write".into(),
        pieces: vec![PieceDecl::new(vec![PieceAccess::write(
            TableId(0),
            u64::MAX,
            u64::MAX,
        )])],
    };
    for proto in [
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
        Arc::new(LockingProtocol::wound_wait()) as Arc<dyn Protocol>,
        Arc::new(SiloProtocol::new()) as Arc<dyn Protocol>,
        Arc::new(Ic3Protocol::new(vec![template.clone()], false)) as Arc<dyn Protocol>,
    ] {
        let (db, t) = load();
        let session = Session::new(Arc::clone(&db), proto);
        let name = session.protocol().name().to_owned();
        let tuple = db.table(t).get(5).unwrap();
        for v in 1..=3 {
            let mut w = session.begin();
            w.update(t, 5, |row| row.set(1, Value::I64(v))).unwrap();
            w.commit().unwrap();
            assert_eq!(tuple.retained_versions(), 0, "{name}: write {v}");
            assert_eq!(tuple.read_row().get_i64(1), v, "{name}");
        }
    }
}

/// A writer's trim reclaims only what the watermark says is dead: a
/// snapshot taken after the first write keeps reading that write's image
/// through two later writes, and once the snapshot ends the next writer
/// reclaims the whole chain before it commits.
#[test]
fn a_live_snapshot_keeps_its_version_through_a_writers_trim() {
    let (db, t) = load();
    let session = Session::new(
        Arc::clone(&db),
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
    );
    let tuple = db.table(t).get(5).unwrap();

    write_and_publish(&session, &db, t, 5, 1);
    let mut snap = session.snapshot();
    assert_eq!(snap.read(t, 5).unwrap().get_i64(1), 1);
    let ts = snap.snapshot_ts().unwrap();

    for v in [2, 3] {
        write_and_publish(&session, &db, t, 5, v);
        assert_eq!(
            tuple.read_at(ts).map(|row| row.get_i64(1)),
            Some(1),
            "the snapshot's version went with the write of {v}"
        );
    }
    assert_eq!(snap.read(t, 5).unwrap().get_i64(1), 1);
    assert!(
        tuple.retained_versions() >= 2,
        "the snapshot pins two images"
    );
    snap.commit().unwrap();
    db.publish_watermark();

    let mut w = session.begin();
    w.update(t, 5, |row| row.set(1, Value::I64(4))).unwrap();
    assert_eq!(
        tuple.retained_versions(),
        0,
        "with the snapshot gone the writer reclaims every older image"
    );
    w.commit().unwrap();
    let mut later = session.snapshot();
    assert_eq!(later.read(t, 5).unwrap().get_i64(1), 4);
    later.commit().unwrap();
}
