//! End-to-end partitioning tests: router determinism at the storage layer,
//! cross-partition serializability (the bank-transfer invariant under all
//! five protocols), where a cross-partition commit is logged (one ring
//! record, or one durable group per written partition), the
//! zero-extra-locks guarantee of the single-partition fast path, that
//! `Database::builder()` is the one-partition case of the same engine, and
//! the snapshot-scan visibility regression (a remote partition's
//! post-snapshot insert is a phantom to skip, never an abort).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_repro::core::executor::{TxnSpec, Workload};
use bamboo_repro::core::partition::{PartSession, PartitionedDb};
use bamboo_repro::core::protocol::{
    Ic3Protocol, LockingProtocol, PieceAccess, PieceDecl, Protocol, SiloProtocol, TemplateDecl,
};
use bamboo_repro::core::stats::WorkerStats;
use bamboo_repro::core::sync::thread_lock_acquisitions;
use bamboo_repro::core::{Abort, Database, DbOptions, Session, Txn};
use bamboo_repro::storage::log::WalRecord;
use bamboo_repro::storage::{
    DataType, PartitionId, RouteStrategy, Router, Row, Schema, TableId, Value,
};
use bamboo_repro::workload::ycsb::{self, YcsbConfig, YcsbWorkload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Accounts per partition in the bank fixture.
const ACCOUNTS_PER_PART: u64 = 8;
/// Initial balance of every account.
const INITIAL: i64 = 1000;

fn kv_schema() -> Schema {
    Schema::build()
        .column("k", DataType::U64)
        .column("v", DataType::I64)
}

/// A bank of `parts * ACCOUNTS_PER_PART` accounts, range-partitioned so
/// account `a` lives on partition `a / ACCOUNTS_PER_PART`.
fn bank(parts: u32) -> (Arc<PartitionedDb>, TableId) {
    bank_with(parts, DbOptions::new())
}

fn bank_with(parts: u32, options: DbOptions) -> (Arc<PartitionedDb>, TableId) {
    let bounds = (1..parts as u64).map(|i| i * ACCOUNTS_PER_PART).collect();
    let mut b = PartitionedDb::builder(parts);
    let t = b.add_table("accounts", kv_schema(), RouteStrategy::Range(bounds));
    b.with_options(options);
    let pdb = b.build();
    for a in 0..parts as u64 * ACCOUNTS_PER_PART {
        pdb.insert(t, a, Row::from(vec![Value::U64(a), Value::I64(INITIAL)]));
    }
    (pdb, t)
}

fn total_balance(pdb: &PartitionedDb, t: TableId) -> i64 {
    pdb.parts()
        .iter()
        .map(|p| {
            let table = p.db().table(t);
            (0..table.len() as u64)
                .map(|r| table.get_by_row_id(r).unwrap().read_row().get_i64(1))
                .sum::<i64>()
        })
        .sum()
}

/// The five-entry roster of the acceptance criterion: Bamboo, WW, Silo,
/// IC3 and Interactive (Bamboo on sessions that pay a round trip per
/// client call). The third field is the entry's interactive round trip.
fn roster() -> Vec<(&'static str, Arc<dyn Protocol>, Option<Duration>)> {
    let template = TemplateDecl {
        name: "transfer".into(),
        pieces: vec![PieceDecl::new(vec![PieceAccess::write(
            TableId(0),
            u64::MAX,
            u64::MAX,
        )])],
    };
    vec![
        ("bamboo", Arc::new(LockingProtocol::bamboo()), None),
        ("wound_wait", Arc::new(LockingProtocol::wound_wait()), None),
        ("silo", Arc::new(SiloProtocol::new()), None),
        (
            "ic3",
            Arc::new(Ic3Protocol::new(vec![template], false)),
            None,
        ),
        (
            "interactive",
            Arc::new(LockingProtocol::bamboo()),
            Some(Duration::from_micros(5)),
        ),
    ]
}

/// A roster entry's session over `pdb`.
fn part_session(
    pdb: &Arc<PartitionedDb>,
    proto: Arc<dyn Protocol>,
    rpc: Option<Duration>,
) -> PartSession {
    let session = PartSession::new(Arc::clone(pdb), proto);
    match rpc {
        Some(rpc) => session.interactive(rpc),
        None => session,
    }
}

/// Cross-partition serializability: concurrent transfers between accounts
/// on *different* partitions must conserve the total balance under every
/// protocol, and a concurrent snapshot reader must always see a balanced
/// total (one commit timestamp per cross-partition commit).
#[test]
fn cross_partition_bank_transfers_conserve_money_under_all_protocols() {
    for (name, proto, rpc) in roster() {
        let (pdb, t) = bank(2);
        let session = Arc::new(part_session(&pdb, proto, rpc));
        let threads = 4;
        let per = 60;
        std::thread::scope(|s| {
            for w in 0..threads {
                let session = Arc::clone(&session);
                s.spawn(move || {
                    let mut rng = w as u64;
                    let mut next = move || {
                        // xorshift: cheap deterministic per-thread stream.
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        rng
                    };
                    let mut done = 0;
                    while done < per {
                        // `from` on partition 0, `to` on partition 1: every
                        // transfer is cross-partition by construction.
                        let from = next() % ACCOUNTS_PER_PART;
                        let to = ACCOUNTS_PER_PART + next() % ACCOUNTS_PER_PART;
                        let amount = (next() % 10) as i64 + 1;
                        let mut txn = session.begin_on(PartitionId(0));
                        let moved = txn
                            .update(t, from, |r| r.set(1, Value::I64(r.get_i64(1) - amount)))
                            .and_then(|_| {
                                txn.update(t, to, |r| r.set(1, Value::I64(r.get_i64(1) + amount)))
                            })
                            .and_then(|_| txn.commit());
                        if moved.is_ok() {
                            done += 1;
                        }
                    }
                });
            }
            // A snapshot reader riding along: every snapshot total must be
            // exactly balanced — a torn cross-partition commit would show.
            let session = Arc::clone(&session);
            let expected = 2 * ACCOUNTS_PER_PART as i64 * INITIAL;
            s.spawn(move || {
                for _ in 0..40 {
                    let mut snap = session.snapshot_on(PartitionId(1));
                    let mut sum = 0i64;
                    for a in 0..2 * ACCOUNTS_PER_PART {
                        sum += snap.read(t, a).unwrap().get_i64(1);
                    }
                    snap.commit().unwrap();
                    assert_eq!(sum, expected, "{name}: snapshot saw a torn transfer");
                }
            });
        });
        assert_eq!(
            total_balance(&pdb, t),
            2 * ACCOUNTS_PER_PART as i64 * INITIAL,
            "{name}: cross-partition transfers leaked money"
        );
        // No wal dir: a cross-partition commit is one record on the ring
        // of the session it committed through (all homed on partition 0).
        assert_eq!(
            session.session(PartitionId(0)).log_records(),
            (threads * per) as u64,
            "{name}: one ring record per cross-partition commit"
        );
        assert_eq!(session.session(PartitionId(1)).log_records(), 0);
    }
}

/// The durable group format of a cross-partition commit, under every
/// protocol that runs on a durable database: a `Begin … Commit` group on
/// *each* written partition's log, all carrying the one commit timestamp
/// and the full written-partition mask — what crash recovery checks
/// completeness against.
#[test]
fn cross_partition_commits_log_a_group_on_every_written_partition() {
    for (name, proto, rpc) in roster() {
        if !proto.redo_replayable() {
            continue; // IC3: refused on a durable database.
        }
        let dir = std::env::temp_dir().join(format!("bamboo-part-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // FsyncPolicy::Never (the default): the log is read back, not
        // crashed.
        let options = DbOptions::new().with_wal_dir(&dir);
        let log = options.log_dir().expect("wal dir set");
        let (pdb, t) = bank_with(2, options);
        let session = part_session(&pdb, proto, rpc);
        let transfers = 5;
        for i in 0..transfers {
            let mut txn = session.begin_on(PartitionId(i as u32 % 2));
            txn.update(t, i, |r| r.set(1, Value::I64(r.get_i64(1) - 1)))
                .unwrap();
            txn.update(t, ACCOUNTS_PER_PART + i, |r| {
                r.set(1, Value::I64(r.get_i64(1) + 1))
            })
            .unwrap();
            txn.commit().unwrap();
        }
        let groups = |p: u32| -> Vec<(u64, u64)> {
            pdb.part(PartitionId(p)).wal().sync().unwrap();
            let scan = log.scan_partition_from(p, 0).unwrap();
            scan.records
                .iter()
                .filter_map(|(_, r)| match r {
                    WalRecord::Begin {
                        commit_ts,
                        parts_mask,
                        ..
                    } => Some((*commit_ts, *parts_mask)),
                    _ => None,
                })
                .collect()
        };
        let (g0, g1) = (groups(0), groups(1));
        assert_eq!(g0.len(), transfers as usize, "{name}: a group per commit");
        assert_eq!(g0, g1, "{name}: same commit_ts and mask on both logs");
        assert!(
            g0.iter().all(|&(_, mask)| mask == 0b11),
            "{name}: the mask names both written partitions"
        );
        assert_eq!(
            session.session(PartitionId(0)).log_records(),
            0,
            "{name}: the ring is not used beside a durable log"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `Database::builder()` is the one-partition case of the partitioned
/// engine, not a second engine: the same seeded single-threaded YCSB run
/// on a database built through it and on `PartitionedDb::builder(1)`
/// (range-routed, as `ycsb::load_partitioned` builds it) ends with
/// identical rows, identical ring bytes and identical record counts.
#[test]
fn database_builder_and_one_partition_db_run_ycsb_identically() {
    let cfg = YcsbConfig::default().with_rows(512);
    let (pdb, t) = ycsb::load_partitioned(&cfg);
    let part = Arc::clone(pdb.db(PartitionId(0)));
    let mut b = Database::builder();
    let t2 = b.add_table("usertable", part.table(t).schema.clone());
    assert_eq!(t, t2);
    let built = b.build();
    for k in 0..cfg.rows {
        built
            .table(t)
            .insert(k, part.table(t).get(k).unwrap().read_row());
    }
    let run = |db: &Arc<Database>| {
        let session = Session::new(Arc::clone(db), Arc::new(LockingProtocol::bamboo()));
        let wl = YcsbWorkload::new(cfg.clone(), t);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            session.run(wl.generate(0, &mut rng).as_ref()).unwrap();
        }
        let rows: Vec<Row> = (0..cfg.rows)
            .map(|k| db.table(t).get(k).unwrap().read_row())
            .collect();
        (rows, session.log_bytes(), session.log_records())
    };
    let (rows_a, bytes_a, records_a) = run(&built);
    let (rows_b, bytes_b, records_b) = run(&part);
    assert_eq!(records_a, 200);
    assert_eq!((bytes_a, records_a), (bytes_b, records_b));
    assert!(rows_a == rows_b, "the two builds diverged");
}

/// The single-partition fast path takes **no more lock acquisitions** than
/// the identical transaction on a one-partition database — measured with the vendored parking_lot shim's per-thread lock counter
/// over the whole begin→read→update→commit cycle (tuple latches, WAL lock,
/// everything).
#[test]
fn single_partition_fast_path_takes_no_extra_locks() {
    let ops = |session: &Session, t: TableId, base: u64| {
        // Steady-state: warm up, then measure 32 identical transactions.
        let run = |session: &Session| {
            let mut txn = session.begin();
            let v = txn.read(t, base).unwrap().get_i64(1);
            txn.update(t, base + 1, |r| r.set(1, Value::I64(v + 1)))
                .unwrap();
            txn.update(t, base + 2, |r| r.set(1, Value::I64(v + 2)))
                .unwrap();
            txn.commit().unwrap();
        };
        for _ in 0..4 {
            run(session);
        }
        let before = thread_lock_acquisitions();
        for _ in 0..32 {
            run(session);
        }
        thread_lock_acquisitions() - before
    };

    // One-partition baseline.
    let mut b = Database::builder();
    let t = b.add_table("accounts", kv_schema());
    let one = b.build();
    for a in 0..ACCOUNTS_PER_PART {
        one.table(t)
            .insert(a, Row::from(vec![Value::U64(a), Value::I64(0)]));
    }
    let one_session = Session::new(one, Arc::new(LockingProtocol::bamboo()));
    let one_locks = ops(&one_session, t, 0);

    // 4-partition database, transaction confined to partition 2's keys.
    let (pdb, t) = bank(4);
    let psession = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
    let home = PartitionId(2);
    let part_locks = ops(psession.session(home), t, 2 * ACCOUNTS_PER_PART);

    assert!(
        part_locks <= one_locks,
        "partition-local fast path took {part_locks} lock acquisitions vs \
         {one_locks} on the one-partition baseline"
    );
}

/// Satellite regression: a cross-partition snapshot scan must honor
/// `SnapshotNotVisible` exactly like single-key reads — a row inserted
/// *after* the snapshot, on a remote partition, is skipped as a phantom
/// (`read_opt` returns `Ok(None)`, `scan` omits it); it must never abort
/// the scan.
#[test]
fn cross_partition_snapshot_scan_skips_post_snapshot_inserts() {
    // Sparse ranges so both partitions have room for new keys: partition 0
    // owns [0, 1000), partition 1 owns the rest.
    let mut b = PartitionedDb::builder(2);
    let t = b.add_table("accounts", kv_schema(), RouteStrategy::Range(vec![1000]));
    let pdb = b.build();
    for a in (0..8u64).chain(1000..1008) {
        pdb.insert(t, a, Row::from(vec![Value::U64(a), Value::I64(INITIAL)]));
    }
    pdb.enable_ordered_index(t);
    let session = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));

    // Take the snapshot first (homed on partition 0).
    let mut snap = session.snapshot_on(PartitionId(0));
    // Then commit one insert into each partition's range — from a session
    // homed on partition 1, so the partition-0 insert is itself a
    // cross-partition commit.
    let local_key = 500; // partition 0 (the snapshot's home)
    let remote_key = 2000; // partition 1 (remote from the snapshot's home)
    for key in [local_key, remote_key] {
        let mut w = session.begin_on(PartitionId(1));
        w.insert(
            t,
            key,
            Row::from(vec![Value::U64(key), Value::I64(1)]),
            None,
        )
        .unwrap();
        w.commit().unwrap();
    }

    // The scan spans both partitions and must silently skip both phantoms.
    let rows = snap.scan(t, 0..=u64::MAX).unwrap();
    assert_eq!(
        rows.len(),
        16,
        "snapshot scan must see exactly the pre-snapshot rows"
    );
    // Single-key reads agree: Ok(None) through read_opt, not an abort.
    assert!(snap.read_opt(t, local_key).unwrap().is_none());
    assert!(snap.read_opt(t, remote_key).unwrap().is_none());
    snap.commit().unwrap();

    // A fresh snapshot sees the inserts.
    let mut snap = session.snapshot_on(PartitionId(0));
    assert_eq!(snap.scan(t, 0..=u64::MAX).unwrap().len(), 18);
    snap.commit().unwrap();
}

/// A snapshot that reads rows on two partitions is a cross-partition
/// commit in `WorkerStats`, although a snapshot read records no access:
/// the context keeps the partitions its reads touched, its access set
/// stays empty, and it takes no lock.
#[test]
fn a_snapshot_read_on_two_partitions_counts_as_cross_partition() {
    struct ReadKeys {
        table: TableId,
        keys: Vec<u64>,
    }
    impl TxnSpec for ReadKeys {
        fn read_only_snapshot(&self) -> bool {
            true
        }
        fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
            for &key in &self.keys {
                txn.read_opt(self.table, key)?;
            }
            assert!(
                txn.ctx().accesses.is_empty(),
                "a snapshot read records no access"
            );
            Ok(())
        }
    }

    let (pdb, t) = bank(2);
    let session = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
    let remote = ACCOUNTS_PER_PART; // partition 1's first account
    let absent = 100; // routed to partition 1, never loaded

    let mut snap = session.snapshot_on(PartitionId(0));
    snap.read(t, 0).unwrap();
    assert!(snap.read_opt(t, absent).unwrap().is_none());
    assert_eq!(snap.partitions_spanned(), 1, "an absent key spans nothing");
    snap.read(t, remote).unwrap();
    assert_eq!(snap.partitions_spanned(), 2);
    assert!(snap.ctx().accesses.is_empty());
    assert_eq!(snap.locks_acquired(), 0);
    snap.commit().unwrap();

    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    for (keys, cross) in [(vec![0, 1, absent], 0), (vec![0, remote, 1], 1)] {
        let mut stats = WorkerStats::default();
        let spec = ReadKeys { table: t, keys };
        assert!(session
            .session(PartitionId(0))
            .run_reporting(&spec, &mut stats, &stop, deadline));
        assert_eq!(stats.snapshot_commits, 1);
        assert_eq!(stats.cross_partition_commits, cross, "{:?}", spec.keys);
        assert_eq!(stats.snapshot_lock_acquisitions, 0);
    }
}

/// Router sanity at the integration level: the same `(table, key)` routes
/// identically from every partition's viewpoint (except replicated
/// tables, which resolve locally) — the property the WAL-ordering
/// contract depends on.
#[test]
fn routing_is_viewpoint_independent_for_owned_tables() {
    let r = Router::new(4, RouteStrategy::Hash)
        .with_table(TableId(1), RouteStrategy::Range(vec![10, 20, 30]))
        .with_table(TableId(2), RouteStrategy::Replicated);
    for key in 0..64u64 {
        let owned = r.route(TableId(1), key);
        for p in 0..4 {
            assert_eq!(r.route_from(PartitionId(p), TableId(1), key), owned);
            assert_eq!(
                r.route_from(PartitionId(p), TableId(2), key),
                PartitionId(p),
                "replicated tables resolve to the asking partition"
            );
        }
    }
}
