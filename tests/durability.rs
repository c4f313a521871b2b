//! End-to-end durability tests: checkpoint → crash (drop) → recover round
//! trips, recovery idempotence, checkpoint replay-prefix skipping,
//! crash-during-recovery fallback, incomplete-group and torn-tail
//! handling, the horizon cut, a failed cross-partition append that leaves
//! no orphan group behind, the no-checkpoint failure mode, every recovery
//! report field in one recovery, the log's on-disk bytes for every kind
//! of group a commit writes, where a reopened log resumes on hand-made
//! segment chains, and that a failed read never makes reopening or
//! retirement delete a segment.
//!
//! "Crash" here is dropping the database mid-state and recovering from the
//! directory it left behind — the real `kill -9` variant lives in
//! `tests/crash_recovery.rs`.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bamboo_repro::core::partition::{PartSession, PartitionedDb};
use bamboo_repro::core::protocol::{LockingProtocol, Protocol};
use bamboo_repro::core::{AbortReason, DbOptions};
use bamboo_repro::storage::log::{
    FaultInjector, FileBarrier, LogBackend, LogDir, LogFile, RealBackend, SegmentWriter, WalRecord,
    SEG_HEADER_LEN,
};
use bamboo_repro::storage::{
    DataType, FaultBackend, FaultPlan, FsyncPolicy, PartitionId, RouteStrategy, Row, Schema,
    TableId, Value,
};

const ACCOUNTS_PER_PART: u64 = 8;
const INITIAL: i64 = 1000;
const PARTS: u32 = 2;
/// Group commit with a batch of one: one fsync per commit, before
/// `commit()` returns.
const GROUP_COMMIT_1: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 1,
    max_wait_us: 0,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bamboo-dur-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kv_schema() -> Schema {
    Schema::build()
        .column("k", DataType::U64)
        .column("v", DataType::I64)
}

/// A range-partitioned durable bank: account `a` lives on partition
/// `a / ACCOUNTS_PER_PART`. Ends with the genesis checkpoint so the
/// loaded rows are recoverable.
fn durable_bank(dir: &Path, policy: FsyncPolicy) -> (Arc<PartitionedDb>, TableId) {
    durable_bank_with(
        DbOptions::new()
            .with_wal_dir(dir.to_path_buf())
            .with_fsync_policy(policy),
    )
}

/// [`durable_bank`] under explicit options (a log backend, say).
fn durable_bank_with(opts: DbOptions) -> (Arc<PartitionedDb>, TableId) {
    let bounds = (1..PARTS as u64).map(|i| i * ACCOUNTS_PER_PART).collect();
    let mut b = PartitionedDb::builder(PARTS);
    let t = b.add_table("accounts", kv_schema(), RouteStrategy::Range(bounds));
    b.with_options(opts);
    let pdb = b.build();
    for a in 0..PARTS as u64 * ACCOUNTS_PER_PART {
        pdb.insert(t, a, Row::from(vec![Value::U64(a), Value::I64(INITIAL)]));
    }
    pdb.checkpoint().expect("genesis checkpoint");
    (pdb, t)
}

/// Runs `n` committed cross-partition transfers (deterministic pattern)
/// through the manual session API and returns how many committed.
fn transfers(pdb: &Arc<PartitionedDb>, t: TableId, n: u64, seed: u64) -> u64 {
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(pdb), proto);
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        rng
    };
    let mut done = 0;
    while done < n {
        let from = next() % ACCOUNTS_PER_PART;
        let to = ACCOUNTS_PER_PART + next() % ACCOUNTS_PER_PART;
        let amount = (next() % 10) as i64 + 1;
        let mut txn = session.begin_on(PartitionId(0));
        let moved = txn
            .update(t, from, |r| r.set(1, Value::I64(r.get_i64(1) - amount)))
            .and_then(|_| txn.update(t, to, |r| r.set(1, Value::I64(r.get_i64(1) + amount))))
            .and_then(|_| txn.commit());
        if moved.is_ok() {
            done += 1;
        }
    }
    done
}

/// Full observable state: every account's balance, across all shards.
fn state(pdb: &PartitionedDb, t: TableId) -> BTreeMap<u64, i64> {
    let mut m = BTreeMap::new();
    for p in pdb.parts() {
        let table = p.db().table(t);
        for r in 0..table.len() as u64 {
            let tuple = table.get_by_row_id(r).unwrap();
            m.insert(tuple.key, tuple.read_row().get_i64(1));
        }
    }
    m
}

fn total(pdb: &PartitionedDb, t: TableId) -> i64 {
    state(pdb, t).values().sum()
}

#[test]
fn genesis_checkpoint_then_recover_restores_loaded_rows() {
    let dir = tmp_dir("genesis");
    let (pdb, t) = durable_bank(&dir, GROUP_COMMIT_1);
    let before = state(&pdb, t);
    drop(pdb);

    let (rec, report) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(state(&rec, t), before);
    assert_eq!(report.restored_tuples, PARTS as u64 * ACCOUNTS_PER_PART);
    assert_eq!(report.replayed_txns, 0);
    assert_eq!(report.dropped_incomplete, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_transfers_survive_recovery() {
    let dir = tmp_dir("roundtrip");
    let (pdb, t) = durable_bank(&dir, GROUP_COMMIT_1);
    let n = transfers(&pdb, t, 40, 7);
    assert_eq!(n, 40);
    let before = state(&pdb, t);
    assert_eq!(before.values().sum::<i64>(), 16 * INITIAL);
    drop(pdb);

    let (rec, report) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(state(&rec, t), before, "recovered state diverged");
    assert_eq!(report.replayed_txns, 40);
    // Two partitions per transfer: one Update each.
    assert_eq!(report.replayed_writes, 80);
    assert_eq!(report.dropped_incomplete, 0);
    assert_eq!(report.dropped_horizon, 0);

    // The recovered database accepts new durable commits.
    transfers(&rec, t, 10, 99);
    assert_eq!(total(&rec, t), 16 * INITIAL);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery is idempotent: recovering the same directory twice (the second
/// time from the post-recovery checkpoint the first one wrote) converges
/// to the same state, with nothing left to replay.
#[test]
fn recovering_twice_converges() {
    let dir = tmp_dir("idem");
    let (pdb, t) = durable_bank(&dir, GROUP_COMMIT_1);
    transfers(&pdb, t, 25, 3);
    let before = state(&pdb, t);
    drop(pdb);

    let (rec1, r1) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(state(&rec1, t), before);
    let ts1 = r1.recovered_ts;
    drop(rec1);

    let (rec2, r2) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(state(&rec2, t), before);
    // The second pass starts from the first pass's sealing checkpoint:
    // the whole replayed history is already in the image.
    assert_eq!(r2.checkpoint_ts, ts1);
    assert_eq!(r2.replayed_txns, 0);
    assert_eq!(r2.recovered_ts, ts1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovered table's primary-key index resolves every tuple its slab
/// holds to that same tuple — one `Arc`, not a copy — both for
/// rows restored from the checkpoint image and for inserts replayed from
/// the log after it.
#[test]
fn recovered_index_and_slab_share_each_tuple() {
    let dir = tmp_dir("identity");
    let (pdb, t) = durable_bank(&dir, GROUP_COMMIT_1);
    transfers(&pdb, t, 20, 5);
    pdb.checkpoint().unwrap();
    let session = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
    let opened: Vec<u64> = (100..104).collect();
    for &a in &opened {
        let mut txn = session.begin_on(PartitionId(1));
        txn.insert(t, a, Row::from(vec![Value::U64(a), Value::I64(0)]), None)
            .and_then(|_| txn.commit())
            .unwrap();
    }
    drop(session);
    let before = state(&pdb, t);
    drop(pdb);

    let (rec, report) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(state(&rec, t), before);
    assert_eq!(report.replayed_txns, opened.len() as u64);
    let mut checked = 0;
    for p in rec.parts() {
        let table = p.db().table(t);
        for r in 0..table.len() as u64 {
            let by_row = table.get_by_row_id(r).unwrap();
            let by_key = table.get(by_row.key).unwrap();
            assert!(Arc::ptr_eq(&by_key, &by_row), "key {}", by_row.key);
            checked += 1;
        }
    }
    assert_eq!(checked, before.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every partition's postings of one secondary index: `(partition,
/// secondary key) -> primary keys`, in posting order.
fn postings(pdb: &PartitionedDb, t: TableId, skeys: u64) -> BTreeMap<(u32, u64), Vec<u64>> {
    let mut m = BTreeMap::new();
    for p in pdb.parts() {
        let idx = p.db().table(t).secondary_index(0);
        for s in 0..skeys {
            m.insert((p.id().0, s), idx.get(s));
        }
    }
    m
}

/// Secondary postings come back from both recovery sources: those posted
/// at load from the checkpoint image, those posted by transactional
/// inserts from the log. Each resolves by primary key to a tuple carrying
/// its secondary key, in its pre-crash per-key order (the order TPC-C's
/// by-last-name midpoint reads).
#[test]
fn secondary_postings_survive_recovery() {
    const SKEYS: u64 = 3;
    let dir = tmp_dir("secondary");
    let mut b = PartitionedDb::builder(PARTS);
    let t = b.add_table("people", kv_schema(), RouteStrategy::Range(vec![100]));
    b.with_options(DbOptions::new().with_wal_dir(dir.clone()));
    let pdb = b.build();
    for p in pdb.parts() {
        p.db().table(t).add_secondary_index();
    }
    let row = |k: u64| Row::from(vec![Value::U64(k), Value::I64((k % SKEYS) as i64)]);
    // Even keys at load, on both partitions.
    for k in (0..200).step_by(2) {
        pdb.insert(t, k, row(k));
        pdb.table(pdb.route(t, k), t)
            .secondary_index(0)
            .insert(k % SKEYS, k);
    }
    pdb.checkpoint().expect("genesis checkpoint");
    // Odd keys through committed inserts, in descending order, so each
    // posting list is in neither key order.
    let session = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
    for k in (1..200).rev().step_by(2) {
        let mut txn = session.begin_on(pdb.route(t, k));
        txn.insert(t, k, row(k), Some((0, k % SKEYS)))
            .and_then(|_| txn.commit())
            .unwrap();
    }
    drop(session);
    let before = postings(&pdb, t, SKEYS);
    assert_eq!(before.values().map(Vec::len).sum::<usize>(), 200);
    drop(pdb);

    let (rec, _) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(postings(&rec, t, SKEYS), before);
    for ((p, s), keys) in &before {
        let table = rec.table(PartitionId(*p), t);
        for &k in keys {
            let tuple = table.get(k).expect("a posting names a recovered tuple");
            assert_eq!(tuple.read_row().get_i64(1), *s as i64, "key {k}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint's cuts skip the log prefix: transactions committed before
/// the checkpoint are restored from the image, not replayed.
#[test]
fn checkpoint_skips_replay_prefix() {
    let dir = tmp_dir("prefix");
    let (pdb, t) = durable_bank(&dir, GROUP_COMMIT_1);
    transfers(&pdb, t, 30, 11);
    let mid_ts = pdb.checkpoint().unwrap();
    transfers(&pdb, t, 5, 13);
    let before = state(&pdb, t);
    drop(pdb);

    let (rec, report) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(state(&rec, t), before);
    assert_eq!(report.checkpoint_ts, mid_ts);
    assert_eq!(
        report.replayed_txns, 5,
        "pre-checkpoint transfers must come from the image, not the log"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash *during* recovery: the first recovery's sealing checkpoint wrote
/// its data files but the meta file never landed (simulated by deleting
/// it). The next recovery falls back to the previous complete checkpoint
/// and replays the log again — same final state.
#[test]
fn crash_during_recovery_falls_back_to_previous_checkpoint() {
    let dir = tmp_dir("midcrash");
    let (pdb, t) = durable_bank(&dir, GROUP_COMMIT_1);
    transfers(&pdb, t, 20, 17);
    let before = state(&pdb, t);
    drop(pdb);

    let (rec1, r1) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(state(&rec1, t), before);
    drop(rec1);
    // Un-land the sealing checkpoint's meta file: to a later recovery this
    // is indistinguishable from a crash between its data and meta writes.
    let meta = format!("ckpt-{:020}.meta", r1.recovered_ts);
    std::fs::remove_file(dir.join(meta)).unwrap();

    let (rec2, r2) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(state(&rec2, t), before);
    assert!(
        r2.checkpoint_ts < r1.recovered_ts,
        "fell back to the old checkpoint"
    );
    assert_eq!(r2.replayed_txns, 20, "replayed the log again");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unterminated record group at the log tail (crash mid-append) is
/// dropped: it was never acknowledged, and its timestamp is above every
/// complete group's, so the horizon cut keeps them all.
#[test]
fn incomplete_tail_group_is_dropped() {
    let dir = tmp_dir("incomplete");
    let (pdb, t) = durable_bank(&dir, GROUP_COMMIT_1);
    transfers(&pdb, t, 10, 23);
    let before = state(&pdb, t);
    let next_ts = before.len() as u64; // any ts above the committed history
    drop(pdb);

    // Forge a crash mid-append: a Begin + Update with no Commit on
    // partition 0's log.
    let mut w = SegmentWriter::open(&dir, 0, GROUP_COMMIT_1, 1 << 20).unwrap();
    w.append_record(&WalRecord::Begin {
        txn_id: u64::MAX,
        commit_ts: 1_000_000 + next_ts,
        parts_mask: 0b01,
    })
    .unwrap();
    w.append_record(&WalRecord::Update {
        table: 0,
        key: 0,
        row: Row::from(vec![Value::U64(0), Value::I64(-999_999)]),
    })
    .unwrap();
    w.sync().unwrap();
    drop(w);

    let (rec, report) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(
        state(&rec, t),
        before,
        "the torn transaction must not apply"
    );
    assert_eq!(report.dropped_incomplete, 1);
    assert_eq!(report.replayed_txns, 10);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Garbage bytes at the end of a segment's data (torn write) are detected
/// by the frame checksum and the tail is discarded; everything before it
/// replays.
#[test]
fn torn_tail_is_detected_and_skipped() {
    let dir = tmp_dir("torn");
    let (pdb, t) = durable_bank(&dir, GROUP_COMMIT_1);
    transfers(&pdb, t, 15, 29);
    let before = state(&pdb, t);
    let data_end = SEG_HEADER_LEN + pdb.parts()[0].wal().current_lsn();
    drop(pdb);

    // Write garbage right after partition 0's data, onto the zeros its
    // preallocated segment holds there: a torn frame. The log is one
    // segment long, starting at LSN 0.
    let seg = dir.join("wal-p000-00000000.seg");
    assert!(std::fs::metadata(&seg).unwrap().len() > data_end);
    use std::os::unix::fs::FileExt as _;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .write_all_at(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03], data_end)
        .unwrap();

    let (rec, report) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(state(&rec, t), before);
    assert_eq!(report.torn_partitions, 1);
    assert_eq!(report.replayed_txns, 15);

    // And the recovered database keeps committing durably past the tear
    // (the fresh writer truncated it).
    transfers(&rec, t, 5, 31);
    assert_eq!(total(&rec, t), 16 * INITIAL);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a checkpoint there is nothing sound to recover from (loader
/// inserts bypass the WAL): `recover` must fail cleanly, not fabricate an
/// empty database.
#[test]
fn recover_without_checkpoint_fails_cleanly() {
    let dir = tmp_dir("nockpt");
    let bounds = vec![ACCOUNTS_PER_PART];
    let mut b = PartitionedDb::builder(PARTS);
    let t = b.add_table("accounts", kv_schema(), RouteStrategy::Range(bounds));
    b.with_options(DbOptions::new().with_wal_dir(dir.clone()));
    let pdb = b.build();
    pdb.insert(t, 0, Row::from(vec![Value::U64(0), Value::I64(INITIAL)]));
    drop(pdb);

    let err = match PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())) {
        Err(e) => e,
        Ok(_) => panic!("recover without a checkpoint must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flight of 8 `Txn::commit_deferred` calls under `GroupCommit`, then
/// one `Session::ack_ticket` each (the batching the benchmark and the
/// `kill -9` harness use): every transfer commits with early lock release,
/// acks ride the durability horizon, the flight shares leader fsyncs (not
/// one per commit), and recovery replays every acked transfer.
#[test]
fn deferred_flight_batches_acks_under_group_commit() {
    const POLICY: FsyncPolicy = FsyncPolicy::GroupCommit {
        max_batch: 16,
        max_wait_us: 100,
    };

    let dir = tmp_dir("deferred-flight");
    let (pdb, t) = durable_bank(&dir, POLICY);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);
    let home = session.session(PartitionId(0));

    // Partition-0-local transfers; consecutive ones conflict (transfer i's
    // `to` is transfer i+1's `from`), which only works back-to-back because
    // early lock release frees the tuple at the commit point.
    let tickets: Vec<_> = (0..8u64)
        .map(|i| {
            let (from, to) = (i % ACCOUNTS_PER_PART, (i + 1) % ACCOUNTS_PER_PART);
            let mut txn = home.begin();
            txn.update(t, from, |r| r.set(1, Value::I64(r.get_i64(1) - 5)))
                .unwrap();
            txn.update(t, to, |r| r.set(1, Value::I64(r.get_i64(1) + 5)))
                .unwrap();
            txn.commit_deferred()
                .unwrap()
                .expect("group commit defers the ack")
        })
        .collect();
    assert_eq!(tickets.len(), 8);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let r = home.ack_ticket(ticket);
        assert!(r.is_ok(), "flight entry {i} failed: {r:?}");
    }
    assert_eq!(pdb.group_acks(), 8, "every entry acked through the horizon");
    let fsyncs = pdb.group_fsyncs();
    assert!(
        (1..8).contains(&fsyncs),
        "the flight must share leader fsyncs, got {fsyncs} for 8 commits"
    );

    assert_eq!(
        total(&pdb, t),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL
    );
    let before = state(&pdb, t);
    drop(session);
    drop(pdb);
    let (rec, _report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(POLICY),
    )
    .expect("recovery after a deferred flight");
    assert_eq!(state(&rec, t), before, "acked flight survives recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `Never`, a complete-looking transaction above the oldest
/// incomplete one is discarded by the horizon cut: a lost log suffix on one
/// partition must not resurrect dependents elsewhere. The cut is the one
/// rule, whatever policy the recovering caller passes.
#[test]
fn weak_policy_horizon_cut_drops_later_transactions() {
    let dir = tmp_dir("horizon");
    let (pdb, t) = durable_bank(&dir, FsyncPolicy::Never);
    transfers(&pdb, t, 10, 37);
    // Force the buffered appends to disk — FsyncPolicy::Never means the
    // test must sync explicitly to make this deterministic.
    for p in pdb.parts() {
        p.wal().sync().expect("real backend sync");
    }
    let genesis = state(&pdb, t);
    drop(pdb);

    // Forge an incomplete group with a commit timestamp *below* a forged
    // complete one: the horizon must discard both.
    let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
    w.append_record(&WalRecord::Begin {
        txn_id: u64::MAX - 1,
        commit_ts: 500_000,
        parts_mask: 0b11, // claims partition 1 too — which has no group
    })
    .unwrap();
    w.append_record(&WalRecord::Commit {
        txn_id: u64::MAX - 1,
        commit_ts: 500_000,
    })
    .unwrap();
    // A complete single-partition group above the incomplete one.
    w.append_record(&WalRecord::Begin {
        txn_id: u64::MAX,
        commit_ts: 500_001,
        parts_mask: 0b01,
    })
    .unwrap();
    w.append_record(&WalRecord::Update {
        table: 0,
        key: 1,
        row: Row::from(vec![Value::U64(1), Value::I64(-777)]),
    })
    .unwrap();
    w.append_record(&WalRecord::Commit {
        txn_id: u64::MAX,
        commit_ts: 500_001,
    })
    .unwrap();
    w.sync().unwrap();
    drop(w);

    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_COMMIT_1),
    )
    .unwrap();
    assert_eq!(report.dropped_incomplete, 1);
    assert_eq!(
        report.dropped_horizon, 1,
        "the complete group above the horizon must be discarded"
    );
    assert_eq!(
        state(&rec, t),
        genesis,
        "horizon-dropped writes must not apply"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One recovery that exercises every [`RecoveryReport`] field at once:
/// committed transfers and an insert with a secondary posting replay; a
/// cross-partition group whose `Commit` landed on partition 0 only is
/// incomplete and sets the horizon; a complete group on partition 1 above
/// it is cut; and partition 1's log ends in a torn tail after it.
///
/// [`RecoveryReport`]: bamboo_repro::core::RecoveryReport
#[test]
fn recovery_report_is_pinned() {
    const SKEYS: u64 = 2;
    let dir = tmp_dir("pinned");
    let mut b = PartitionedDb::builder(PARTS);
    let t = b.add_table(
        "accounts",
        kv_schema(),
        RouteStrategy::Range(vec![ACCOUNTS_PER_PART]),
    );
    b.with_options(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_COMMIT_1),
    );
    let pdb = b.build();
    for p in pdb.parts() {
        p.db().table(t).add_secondary_index();
    }
    let accounts = PARTS as u64 * ACCOUNTS_PER_PART;
    for a in 0..accounts {
        pdb.insert(t, a, Row::from(vec![Value::U64(a), Value::I64(INITIAL)]));
        pdb.table(pdb.route(t, a), t)
            .secondary_index(0)
            .insert(a % SKEYS, a);
    }
    let genesis_ts = pdb.checkpoint().expect("genesis checkpoint");
    assert_eq!(transfers(&pdb, t, 6, 41), 6);
    // One insert with a posting, on partition 1.
    let new_key = 100;
    let session = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
    let mut txn = session.begin_on(pdb.route(t, new_key));
    txn.insert(
        t,
        new_key,
        Row::from(vec![Value::U64(new_key), Value::I64(7)]),
        Some((0, 1)),
    )
    .and_then(|_| txn.commit())
    .unwrap();
    drop(session);
    let before = state(&pdb, t);
    let before_postings = postings(&pdb, t, SKEYS);
    drop(pdb);

    // Partition 0: a group that claims partitions 0 and 1, complete here
    // and absent on partition 1. Its timestamp is the horizon.
    let mut w0 = SegmentWriter::open(&dir, 0, GROUP_COMMIT_1, 1 << 20).unwrap();
    w0.append_record(&WalRecord::Begin {
        txn_id: 1_000_001,
        commit_ts: 1_000_000,
        parts_mask: 0b11,
    })
    .unwrap();
    w0.append_record(&WalRecord::Update {
        table: 0,
        key: 0,
        row: Row::from(vec![Value::U64(0), Value::I64(-999)]),
    })
    .unwrap();
    w0.append_record(&WalRecord::Commit {
        txn_id: 1_000_001,
        commit_ts: 1_000_000,
    })
    .unwrap();
    w0.sync().unwrap();
    drop(w0);
    // Partition 1: a complete one-partition group above the horizon, then
    // a torn frame right after it.
    let mut w1 = SegmentWriter::open(&dir, 1, GROUP_COMMIT_1, 1 << 20).unwrap();
    let (seg, start) = (w1.segment_index(), w1.lsn());
    w1.append_record(&WalRecord::Begin {
        txn_id: 1_000_002,
        commit_ts: 1_000_001,
        parts_mask: 0b10,
    })
    .unwrap();
    w1.append_record(&WalRecord::Update {
        table: 0,
        key: ACCOUNTS_PER_PART,
        row: Row::from(vec![Value::U64(ACCOUNTS_PER_PART), Value::I64(-777)]),
    })
    .unwrap();
    w1.append_record(&WalRecord::Commit {
        txn_id: 1_000_002,
        commit_ts: 1_000_001,
    })
    .unwrap();
    w1.sync().unwrap();
    let data_end = SEG_HEADER_LEN + (w1.lsn() - start);
    drop(w1);
    let seg = dir.join(format!("wal-p001-{seg:08}.seg"));
    assert!(std::fs::metadata(&seg).unwrap().len() > data_end);
    use std::os::unix::fs::FileExt as _;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .write_all_at(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03], data_end)
        .unwrap();

    let (rec, report) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(report.checkpoint_ts, genesis_ts);
    assert_eq!(report.restored_tuples, accounts);
    assert_eq!(report.replayed_txns, 7, "six transfers and the insert");
    assert_eq!(report.replayed_writes, 13, "two per transfer, one insert");
    assert_eq!(report.dropped_incomplete, 1);
    assert_eq!(report.dropped_horizon, 1);
    assert_eq!(report.torn_partitions, 1);
    assert_eq!(
        report.recovered_ts,
        genesis_ts + 7,
        "the newest replayed commit"
    );
    assert_eq!(state(&rec, t), before);
    assert_eq!(total(&rec, t), accounts as i64 * INITIAL + 7);
    assert_eq!(postings(&rec, t, SKEYS), before_postings);
    let mut expected: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
    for a in 0..accounts {
        let p = (a / ACCOUNTS_PER_PART) as u32;
        expected.entry((p, a % SKEYS)).or_default().push(a);
    }
    expected.get_mut(&(1, 1)).unwrap().push(new_key);
    assert_eq!(before_postings, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`LogBackend`] on the real filesystem whose writes to partition 1's
/// segments fail, permanently, while `fail_p1` is on.
#[derive(Debug)]
struct FailingP1 {
    fail_p1: Arc<AtomicBool>,
}

/// A segment file of [`FailingP1`]: `fail` is set for partition 1's.
struct MaybeFailing {
    inner: Box<dyn LogFile>,
    fail: Option<Arc<AtomicBool>>,
}

impl LogFile for MaybeFailing {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match &self.fail {
            Some(on) if on.load(Ordering::SeqCst) => Err(io::Error::other("partition 1 refuses")),
            _ => self.inner.write_all(buf),
        }
    }
    fn preallocate(&mut self, len: u64) -> io::Result<()> {
        self.inner.preallocate(len)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn barrier(&mut self) -> io::Result<FileBarrier> {
        self.inner.barrier()
    }
}

impl FailingP1 {
    fn wrap(&self, path: &Path, inner: Box<dyn LogFile>) -> Box<dyn LogFile> {
        let p1 = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("wal-p001-"));
        Box::new(MaybeFailing {
            inner,
            fail: p1.then(|| Arc::clone(&self.fail_p1)),
        })
    }
}

impl LogBackend for FailingP1 {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealBackend.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        RealBackend.list_dir(dir)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        Ok(self.wrap(path, RealBackend.create(path)?))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        Ok(self.wrap(path, RealBackend.open_append(path)?))
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        RealBackend.file_len(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealBackend.read(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        RealBackend.truncate(path, len)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealBackend.remove_file(path)
    }
}

/// One transfer through `session`, reporting how it ended.
fn transfer(
    session: &PartSession,
    t: TableId,
    from: u64,
    to: u64,
    amount: i64,
) -> Result<(), AbortReason> {
    let mut txn = session.begin_on(PartitionId(0));
    txn.update(t, from, |r| r.set(1, Value::I64(r.get_i64(1) - amount)))
        .and_then(|_| txn.update(t, to, |r| r.set(1, Value::I64(r.get_i64(1) + amount))))
        .and_then(|_| txn.commit())
        .map_err(|e| e.0)
}

/// A cross-partition commit whose partition-1 append fails leaves no
/// group on partition 0 either: its groups land on every partition it
/// writes or on none. So the acknowledged partition-0 commits after it are
/// not held behind an orphan by recovery's horizon cut — with `heal`, the
/// cross-partition commits after the heal neither.
fn failed_cross_partition_append_leaves_no_orphan(tag: &str, heal: bool) {
    let dir = tmp_dir(tag);
    let fail_p1 = Arc::new(AtomicBool::new(false));
    let backend = Arc::new(FailingP1 {
        fail_p1: Arc::clone(&fail_p1),
    });
    let (pdb, t) = durable_bank_with(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_COMMIT_1)
            .with_log_backend(backend),
    );
    let session = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
    transfer(&session, t, 0, ACCOUNTS_PER_PART, 5).expect("a clean cross-partition transfer");

    fail_p1.store(true, Ordering::SeqCst);
    let failed_ts = pdb.parts()[0].db().commit_clock.next();
    let err = transfer(&session, t, 1, ACCOUNTS_PER_PART + 1, 7).unwrap_err();
    fail_p1.store(false, Ordering::SeqCst);
    assert_eq!(err, AbortReason::DurabilityFailed);
    assert!(pdb.parts()[1].wal().is_degraded(), "partition 1 degrades");
    assert!(!pdb.parts()[0].wal().is_degraded());

    for from in 2..7 {
        transfer(&session, t, from, from + 1, 3).expect("partition-0 transfers acknowledge");
    }
    if heal {
        pdb.heal(PartitionId(1)).expect("heal re-opens partition 1");
        for from in 0..3 {
            transfer(&session, t, from, ACCOUNTS_PER_PART + 2 + from, 2)
                .expect("cross-partition transfers acknowledge after heal");
        }
    }
    let acked = state(&pdb, t);
    drop(session);
    drop(pdb);

    let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
    assert!(
        !scan.records.iter().any(
            |(_, r)| matches!(r, WalRecord::Begin { commit_ts, .. } if *commit_ts == failed_ts)
        ),
        "the failed commit left a group on partition 0"
    );
    let (rec, report) = PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).unwrap();
    assert_eq!(
        (report.dropped_incomplete, report.dropped_horizon),
        (0, 0),
        "nothing to drop: {report:?}"
    );
    assert_eq!(state(&rec, t), acked, "every acknowledged balance survives");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_cross_partition_append_leaves_no_orphan_group() {
    failed_cross_partition_append_leaves_no_orphan("no-orphan", false);
}

#[test]
fn a_failed_cross_partition_append_then_heal_leaves_no_orphan_group() {
    failed_cross_partition_append_leaves_no_orphan("no-orphan-heal", true);
}

/// Log compaction: once a *second* complete checkpoint exists, sealed
/// segments wholly below the previous checkpoint's cuts are retired, and
/// recovery from the retained suffix still reproduces the full state.
/// (Keep-last-two: the newest checkpoint's own cut is deliberately NOT
/// compacted to, so recovery can fall back one checkpoint if the newest
/// meta is lost — see `crash_during_recovery_falls_back_to_previous_checkpoint`.)
#[test]
fn compaction_retires_sealed_segments_and_recovery_survives() {
    let dir = tmp_dir("compact");
    let bounds = (1..PARTS as u64).map(|i| i * ACCOUNTS_PER_PART).collect();
    let mut b = PartitionedDb::builder(PARTS);
    let t = b.add_table("accounts", kv_schema(), RouteStrategy::Range(bounds));
    b.with_options(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_COMMIT_1)
            // Tiny segments so the transfer fire seals many of them.
            .with_segment_bytes(512),
    );
    let pdb = b.build();
    for a in 0..PARTS as u64 * ACCOUNTS_PER_PART {
        pdb.insert(t, a, Row::from(vec![Value::U64(a), Value::I64(INITIAL)]));
    }
    pdb.checkpoint().expect("genesis checkpoint");
    assert_eq!(pdb.segments_retired(), 0, "nothing to retire at genesis");

    let seg_count = |p: u32| {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("wal-p{:03}-", p))
            })
            .count()
    };

    // Two rounds of fire + checkpoint. The second checkpoint retires the
    // sealed segments below the *first* checkpoint's cuts.
    transfers(&pdb, t, 60, 7);
    pdb.checkpoint().expect("first post-load checkpoint");
    transfers(&pdb, t, 60, 11);
    let before_p0 = seg_count(0);
    pdb.checkpoint().expect("second post-load checkpoint");
    assert!(
        pdb.segments_retired() > 0,
        "two checkpoints over {}+ sealed segments must retire some",
        before_p0
    );
    assert!(
        seg_count(0) < before_p0,
        "retired partition-0 segments must be deleted from disk"
    );

    // More committed work *after* the compacting checkpoint, so recovery
    // must replay from the retained suffix, not just restore the dump.
    transfers(&pdb, t, 20, 13);
    let before = state(&pdb, t);
    drop(pdb);

    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_COMMIT_1),
    )
    .expect("recovery from the compacted log");
    assert_eq!(
        state(&rec, t),
        before,
        "retained-suffix recovery must reproduce the pre-crash state (report: {report:?})"
    );
    assert_eq!(
        total(&rec, t),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL
    );
    assert!(
        report.replayed_txns >= 20,
        "the post-checkpoint transfers must come from log replay (report: {report:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lowercase hex of `bytes`, no separators.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The durable log's bytes on disk, pinned. A 2-partition database under
/// `Never` writes, through three committed transactions:
///
/// * a single-partition commit on partition 0 — `Begin`, `Update`,
///   `Insert` with a secondary entry, `Commit`;
/// * a cross-partition commit — one group per partition, the same
///   `commit_ts` and the mask `0b11` in both;
/// * a commit with no writes, homed on partition 1 — its header group
///   (`Begin` / `Commit`, mask `0b10`) still lands on its home partition.
///
/// Each segment file opens with the fixed header and holds exactly these
/// frames, `[len][crc32][payload]`, up to the writer's LSN.
#[test]
fn durable_log_bytes_are_pinned() {
    let dir = tmp_dir("golden");
    let mut b = PartitionedDb::builder(PARTS);
    let t = b.add_table(
        "golden",
        kv_schema(),
        RouteStrategy::Range(vec![ACCOUNTS_PER_PART]),
    );
    b.with_options(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(FsyncPolicy::Never),
    );
    let pdb = b.build();
    for p in pdb.parts() {
        p.db().table(t).add_secondary_index();
    }
    let row = |k: u64, v: i64| Row::from(vec![Value::U64(k), Value::I64(v)]);
    for k in [1, ACCOUNTS_PER_PART + 1] {
        pdb.insert(t, k, row(k, 100));
    }
    let session = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
    let mut txn = session.begin_on(PartitionId(0));
    txn.update(t, 1, |r| r.set(1, Value::I64(101)))
        .and_then(|_| txn.insert(t, 2, row(2, 7), Some((0, 77))))
        .and_then(|_| txn.commit())
        .expect("single-partition commit");
    transfer(&session, t, 1, ACCOUNTS_PER_PART + 1, 5).expect("cross-partition commit");
    session
        .begin_on(PartitionId(1))
        .commit()
        .expect("no-write commit");
    drop(session);
    let ends: Vec<u64> = pdb.parts().iter().map(|p| p.wal().current_lsn()).collect();
    drop(pdb);

    let logged = |p: u32| {
        let bytes = std::fs::read(dir.join(format!("wal-p{p:03}-00000000.seg"))).unwrap();
        let end = (SEG_HEADER_LEN + ends[p as usize]) as usize;
        assert!(
            bytes[end..].iter().all(|&b| b == 0),
            "p{p}: data ends at the LSN"
        );
        hex(&bytes[..end])
    };
    // magic "BBWAL1\0\0", format version 1, partition, segment index 0,
    // start LSN 0, policy tag 0 (`Never`) and its argument 0.
    let header = |p: &str| {
        format!(
            "424257414c310000 01000000 {p} 0000000000000000 0000000000000000 00 0000000000000000"
        )
    };
    let p0 = [
        header("00000000"),
        // Begin: txn 1, ts 1, mask 0b01.
        "19000000 a96aa3af 01 0100000000000000 0100000000000000 0100000000000000".into(),
        // Update: table 0, key 1, row [U64 1, I64 101].
        "27000000 f488fe24 02 00000000 0100000000000000 0200000000000000 00 0100000000000000 01 6500000000000000".into(),
        // Insert: table 0, key 2, row [U64 2, I64 7], secondary (slot 0, key 77).
        "34000000 0e209e50 03 00000000 0200000000000000 0200000000000000 00 0200000000000000 01 0700000000000000 01 00000000 4d00000000000000".into(),
        // Commit: txn 1, ts 1.
        "11000000 7d4725d8 04 0100000000000000 0100000000000000".into(),
        // Cross-partition Begin: txn 2, ts 2, mask 0b11.
        "19000000 0e70509c 01 0200000000000000 0200000000000000 0300000000000000".into(),
        // Update: table 0, key 1, row [U64 1, I64 96].
        "27000000 90861e6c 02 00000000 0100000000000000 0200000000000000 00 0100000000000000 01 6000000000000000".into(),
        // Commit: txn 2, ts 2.
        "11000000 6cf4627f 04 0200000000000000 0200000000000000".into(),
    ];
    let p1 = [
        header("01000000"),
        // Cross-partition Begin: the same bytes as partition 0's.
        "19000000 0e70509c 01 0200000000000000 0200000000000000 0300000000000000".into(),
        // Update: table 0, key 9, row [U64 9, I64 105].
        "27000000 d45d226a 02 00000000 0900000000000000 0200000000000000 00 0900000000000000 01 6900000000000000".into(),
        // Commit: txn 2, ts 2.
        "11000000 6cf4627f 04 0200000000000000 0200000000000000".into(),
        // The no-write commit's header group on its home partition: Begin
        // (txn 3, ts 3, mask 0b10), Commit (txn 3, ts 3).
        "19000000 2684b77f 01 0300000000000000 0300000000000000 0200000000000000".into(),
        "11000000 6365a01d 04 0300000000000000 0300000000000000".into(),
    ];
    let spelled = |frames: &[String]| frames.concat().replace(' ', "");
    assert_eq!(logged(0), spelled(&p0), "partition 0");
    assert_eq!(logged(1), spelled(&p1), "partition 1");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Partition 0's frame bytes per segment in [`write_chain`]: three
/// `Begin` (33-byte frame) / `Commit` (25-byte frame) pairs of 58 bytes.
const CHAIN_SEG_DATA: u64 = 3 * 58;
/// LSN at the end of [`write_chain`]'s 40 pairs.
const CHAIN_END: u64 = 40 * 58;

/// Partition 0's segment `index` in `dir`.
fn seg_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-p000-{index:08}.seg"))
}

/// Partition 0's segment files in `dir`: (index, length), by index.
fn segment_files(dir: &Path) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let index = name.strip_prefix("wal-p000-")?.strip_suffix(".seg")?;
            Some((index.parse().unwrap(), e.metadata().unwrap().len()))
        })
        .collect();
    out.sort();
    out
}

/// Writes partition 0's log into a fresh `dir`: 40 `Begin` / `Commit`
/// pairs, one group each, in 200-byte segments. Each segment holds three
/// pairs, so the chain is 14 segments and ends at [`CHAIN_END`]; the
/// writer's last segment keeps its preallocated zeros.
fn write_chain(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    let mut w = SegmentWriter::open(dir, 0, FsyncPolicy::Never, 200).unwrap();
    for txn_id in 0..40 {
        w.stage_record(&WalRecord::Begin {
            txn_id,
            commit_ts: txn_id,
            parts_mask: 1,
        });
        w.stage_record(&WalRecord::Commit {
            txn_id,
            commit_ts: txn_id,
        });
        w.flush_group().unwrap();
    }
    w.sync().unwrap();
    assert_eq!((w.lsn(), w.segment_index()), (CHAIN_END, 13));
}

/// Shrinks `path` to `len` bytes.
fn set_len(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len).unwrap();
}

/// Seals [`write_chain`]'s last segment as a rotation would (trimmed to
/// header + data) and puts `bytes` where the next segment's file goes: a
/// crash inside `open_segment_file` after the create.
fn rotated_into(dir: &Path, bytes: &[u8]) {
    set_len(&seg_path(dir, 13), SEG_HEADER_LEN + 58);
    std::fs::write(seg_path(dir, 14), bytes).unwrap();
}

/// One hand-made chain for `open_writer_resumes_each_hand_made_chain`.
struct ChainCase {
    name: &'static str,
    /// Turns [`write_chain`]'s clean chain into this case's chain.
    make: fn(&Path),
    /// The LSN writing resumes at.
    lsn: u64,
    /// The kept segments below the resumed one: `sealed` full segments,
    /// then `last` (index, length) if set.
    sealed: u64,
    last: Option<(u64, u64)>,
    /// The resumed segment's index.
    index: u64,
}

/// `open_writer` on six hand-made chains: where writing resumes, which
/// segment files it leaves and how long they are, and that a fresh scan of
/// the reopened log ends where writing resumed. Every frame of every
/// segment is checked on reopening, so a bad checksum in a sealed segment
/// ends the log there, and a gap in the chain ends it at the gap.
#[test]
fn open_writer_resumes_each_hand_made_chain() {
    let h = SEG_HEADER_LEN;
    let cases = [
        ChainCase {
            name: "clean chain",
            make: |_| {},
            lsn: CHAIN_END,
            sealed: 13,
            last: Some((13, h + 58)),
            index: 14,
        },
        ChainCase {
            name: "torn last frame",
            // Three bytes short of the last Commit frame's end.
            make: |dir| set_len(&seg_path(dir, 13), SEG_HEADER_LEN + 58 - 3),
            lsn: CHAIN_END - 25,
            sealed: 13,
            last: Some((13, h + 33)),
            index: 14,
        },
        ChainCase {
            name: "zeroed last header",
            make: |dir| rotated_into(dir, &[0; SEG_HEADER_LEN as usize + 200]),
            lsn: CHAIN_END,
            sealed: 13,
            last: Some((13, h + 58)),
            index: 14,
        },
        ChainCase {
            name: "last header cut short",
            make: |dir| {
                let header = std::fs::read(seg_path(dir, 13)).unwrap();
                rotated_into(dir, &header[..20]);
            },
            lsn: CHAIN_END,
            sealed: 13,
            last: Some((13, h + 58)),
            index: 14,
        },
        ChainCase {
            name: "empty preallocated last segment",
            // A writer opened on the clean chain and dropped unused.
            make: |dir| drop(SegmentWriter::open(dir, 0, FsyncPolicy::Never, 200).unwrap()),
            lsn: CHAIN_END,
            sealed: 13,
            last: Some((13, h + 58)),
            index: 14,
        },
        ChainCase {
            name: "missing middle segment",
            make: |dir| std::fs::remove_file(seg_path(dir, 5)).unwrap(),
            lsn: 5 * CHAIN_SEG_DATA,
            sealed: 5,
            last: None,
            index: 5,
        },
        ChainCase {
            name: "bad CRC in a sealed middle segment",
            // One payload byte of segment 5's second frame (a Commit).
            make: |dir| {
                let path = seg_path(dir, 5);
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[(SEG_HEADER_LEN + 33 + 8 + 1) as usize] ^= 0x40;
                std::fs::write(&path, &bytes).unwrap();
            },
            lsn: 5 * CHAIN_SEG_DATA + 33,
            sealed: 5,
            last: Some((5, h + 33)),
            index: 6,
        },
    ];
    for case in &cases {
        let dir = tmp_dir("hand-made-chain");
        write_chain(&dir);
        (case.make)(&dir);
        let w = LogDir::real(&dir)
            .open_writer(0, FsyncPolicy::Never, 200)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_eq!(
            (w.lsn(), w.segment_index()),
            (case.lsn, case.index),
            "{}: where writing resumes",
            case.name
        );
        drop(w);
        let mut files: Vec<(u64, u64)> =
            (0..case.sealed).map(|i| (i, h + CHAIN_SEG_DATA)).collect();
        files.extend(case.last);
        files.push((case.index, h + 200));
        assert_eq!(segment_files(&dir), files, "{}: segment files", case.name);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert_eq!(
            (scan.end_lsn, scan.torn),
            (case.lsn, false),
            "{}: a fresh scan",
            case.name
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Copies every file of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap() {
        let e = e.unwrap();
        std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
    }
}

/// `dir` behind an armed fault schedule that fails one read in five.
fn read_faulty(dir: &Path, seed: u64) -> LogDir {
    let injector = FaultInjector::new(FaultPlan {
        seed,
        read_permille: 200,
        ..FaultPlan::quiet(seed)
    });
    injector.arm();
    LogDir::new(dir, Arc::new(FaultBackend::new(injector)))
}

/// A read that fails while a log is reopened fails the reopening and
/// deletes nothing: over 300 fault schedules, `open_writer` on
/// [`write_chain`]'s clean chain either fails and leaves the chain whole,
/// or resumes at its end, and a clean rescan then ends there too.
#[test]
fn a_failed_read_never_makes_reopening_delete_a_segment() {
    let chain = tmp_dir("read-fault-chain");
    write_chain(&chain);
    let dir = tmp_dir("read-fault-open");
    let mut lost = Vec::new();
    for seed in 0..300 {
        copy_dir(&chain, &dir);
        let opened = read_faulty(&dir, seed)
            .open_writer(0, FsyncPolicy::Never, 200)
            .map(|w| w.lsn());
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        if (scan.end_lsn, scan.torn) != (CHAIN_END, false)
            || opened.as_ref().is_ok_and(|&l| l != CHAIN_END)
        {
            lost.push((seed, opened.ok(), scan.end_lsn));
        }
    }
    let _ = std::fs::remove_dir_all(&chain);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        lost.is_empty(),
        "{} of 300 schedules lost data (seed, resumed at, a clean rescan ends at): {lost:?}",
        lost.len()
    );
}

/// A read that fails while segments are retired fails the retirement and
/// deletes nothing: over 300 fault schedules, retiring below the cut
/// after 30 of [`write_chain`]'s 40 pairs either fails or retires the ten
/// segments wholly below it, and the 20 records past the cut always scan.
#[test]
fn a_failed_read_never_makes_retirement_leave_a_gap() {
    let cut = 30 * 58;
    let chain = tmp_dir("read-fault-retire-chain");
    write_chain(&chain);
    let dir = tmp_dir("read-fault-retire");
    let mut broken = Vec::new();
    for seed in 0..300 {
        copy_dir(&chain, &dir);
        let retired = read_faulty(&dir, seed).retire_segments_below(0, cut);
        let scan = LogDir::real(&dir).scan_partition_from(0, cut).unwrap();
        if (scan.records.len(), scan.end_lsn, scan.torn) != (20, CHAIN_END, false)
            || retired.as_ref().is_ok_and(|&n| n != 10)
        {
            broken.push((seed, retired.ok(), scan.records.len()));
        }
    }
    let _ = std::fs::remove_dir_all(&chain);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        broken.is_empty(),
        "{} of 300 schedules broke the log past the cut (seed, retired, records past it): {broken:?}",
        broken.len()
    );
}
