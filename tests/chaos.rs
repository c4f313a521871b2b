//! The chaos suite: transfer fire under a *seeded* storage-fault schedule.
//!
//! A [`bamboo_storage::FaultBackend`] sits between the durable commit
//! pipeline and the filesystem, injecting transient fsync failures, short
//! (torn) writes, `ENOSPC` and failed reads from a reproducible per-seed
//! schedule. The suite asserts the graceful-degradation contract end to
//! end:
//!
//! * no process panic, ever — storage faults surface as
//!   `AbortReason::DurabilityFailed` aborts of the one affected commit;
//! * money is conserved, in memory while the faults fire and on disk after
//!   recovery;
//! * no acked-but-lost commits: every transfer acknowledged under group
//!   commit survives recovery — a commit whose append fails on one
//!   partition leaves no orphan group on another, so the horizon cut,
//!   recovery's one rule, keeps everything acknowledged;
//! * a poisoned partition serves snapshot reads while degraded and the
//!   other partitions keep committing;
//! * `PartitionedDb::heal` + recovery converge.
//!
//! Every test prints its seed (`chaos seed: N`); export
//! `BAMBOO_CHAOS_SEED=N` to reproduce a failing schedule exactly. The CI
//! `chaos` job sweeps six fixed seeds in debug and release.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bamboo_repro::core::partition::{PartSession, PartitionedDb};
use bamboo_repro::core::protocol::{
    Ic3Protocol, LockingProtocol, PieceAccess, PieceDecl, Protocol, SiloProtocol, TemplateDecl,
};
use bamboo_repro::core::{AbortReason, DbOptions};
use bamboo_repro::storage::log::FaultInjector;
use bamboo_repro::storage::{
    DataType, FaultBackend, FaultPlan, FsyncPolicy, PartitionId, RouteStrategy, Row, Schema,
    TableId, Value,
};

const ACCOUNTS_PER_PART: u64 = 8;
const INITIAL: i64 = 1000;
const PARTS: u32 = 2;
const ACCOUNTS: TableId = TableId(0);
const LEDGER: TableId = TableId(1);

/// The coordinator parameters used by the group-commit chaos case.
const GROUP_POLICY: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 8,
    max_wait_us: 100,
};
/// Group commit with a batch of one: one fsync per commit, before
/// `commit()` returns.
const GROUP_COMMIT_1: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 1,
    max_wait_us: 0,
};

/// The schedule seed: `BAMBOO_CHAOS_SEED` when set (the CI sweep and the
/// failing-run repro path), a fixed default otherwise.
fn chaos_seed() -> u64 {
    std::env::var("BAMBOO_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bamboo-chaos-{tag}-{}-{}",
        std::process::id(),
        chaos_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds the two-partition bank (accounts range-routed, ledger hashed)
/// on a fault-injecting backend. The injector starts disarmed, so schema
/// load and the genesis checkpoint run fault-free.
fn build_faulty(
    dir: &Path,
    plan: FaultPlan,
    policy: FsyncPolicy,
) -> (Arc<PartitionedDb>, Arc<FaultInjector>) {
    let injector = FaultInjector::new(plan);
    let backend = Arc::new(FaultBackend::new(Arc::clone(&injector)));
    let mut b = PartitionedDb::builder(PARTS);
    b.add_table(
        "accounts",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
        RouteStrategy::Range(vec![ACCOUNTS_PER_PART]),
    );
    b.add_table(
        "ledger",
        Schema::build()
            .column("seq", DataType::U64)
            .column("from", DataType::U64)
            .column("to", DataType::U64)
            .column("amount", DataType::I64),
        RouteStrategy::Hash,
    );
    b.with_options(
        DbOptions::new()
            .with_wal_dir(dir.to_path_buf())
            .with_fsync_policy(policy)
            .with_log_backend(backend),
    );
    let pdb = b.build();
    for a in 0..PARTS as u64 * ACCOUNTS_PER_PART {
        pdb.insert(
            ACCOUNTS,
            a,
            Row::from(vec![Value::U64(a), Value::I64(INITIAL)]),
        );
    }
    pdb.checkpoint().expect("genesis checkpoint (disarmed)");
    (pdb, injector)
}

fn balances(pdb: &PartitionedDb) -> BTreeMap<u64, i64> {
    let mut m = BTreeMap::new();
    for p in pdb.parts() {
        let table = p.db().table(ACCOUNTS);
        for r in 0..table.len() as u64 {
            let t = table.get_by_row_id(r).unwrap();
            m.insert(t.key, t.read_row().get_i64(1));
        }
    }
    m
}

fn ledger_rows(pdb: &PartitionedDb) -> BTreeMap<u64, (u64, u64, i64)> {
    let mut m = BTreeMap::new();
    for p in pdb.parts() {
        let table = p.db().table(LEDGER);
        for r in 0..table.len() as u64 {
            let t = table.get_by_row_id(r).unwrap();
            let row = t.read_row();
            m.insert(t.key, (row.get_u64(1), row.get_u64(2), row.get_i64(3)));
        }
    }
    m
}

/// One transfer attempt: `from` and `to` debit/credit plus a unique ledger
/// row, all in one transaction. Returns the commit outcome.
fn transfer(
    session: &PartSession,
    seq: u64,
    from: u64,
    to: u64,
    amount: i64,
) -> Result<(), AbortReason> {
    let mut txn = session.begin_on(PartitionId(0));
    txn.update(ACCOUNTS, from, |r| {
        r.set(1, Value::I64(r.get_i64(1) - amount))
    })
    .and_then(|_| {
        txn.update(ACCOUNTS, to, |r| {
            r.set(1, Value::I64(r.get_i64(1) + amount))
        })
    })
    .and_then(|_| {
        txn.insert(
            LEDGER,
            seq,
            Row::from(vec![
                Value::U64(seq),
                Value::U64(from),
                Value::U64(to),
                Value::I64(amount),
            ]),
            None,
        )
    })
    .and_then(|_| txn.commit())
    .map_err(|e| e.0)
}

/// The tentpole chaos run: seeded fsync/short-write/ENOSPC fire during
/// cross-partition transfers. Money conserved, every acked commit durable,
/// heal keeps the fire going after permanent faults, recovery converges.
/// Reads fail too, so a heal's reopening of the log is under fire: a failed
/// read must fail the heal, never delete a segment holding acked commits.
#[test]
fn seeded_fault_fire_preserves_acked_commits_and_money() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let dir = tmp_dir("fire");
    let plan = FaultPlan {
        seed,
        fsync_permille: 40,
        short_write_permille: 25,
        enospc_permille: 12,
        read_permille: 150,
        ..FaultPlan::quiet(seed)
    };
    let (pdb, injector) = build_faulty(&dir, plan, GROUP_COMMIT_1);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);

    injector.arm();
    let mut acks: Vec<(u64, u64, u64, i64)> = Vec::new();
    let mut failed = 0u64;
    for seq in 1u64..=400 {
        // Alternate partition-local and cross-partition transfers so both
        // the single-append and the multi-append (cut-back-out) paths see
        // faults.
        let from = seq % ACCOUNTS_PER_PART;
        let to = if seq % 2 == 0 {
            ACCOUNTS_PER_PART + seq % ACCOUNTS_PER_PART
        } else {
            (seq + 3) % ACCOUNTS_PER_PART
        };
        if from == to {
            continue;
        }
        let amount = (seq % 10) as i64 + 1;
        match transfer(&session, seq, from, to, amount) {
            Ok(()) => acks.push((seq, from, to, amount)),
            Err(reason) => {
                assert_eq!(
                    reason,
                    AbortReason::DurabilityFailed,
                    "storage faults must surface as DurabilityFailed (seed {seed})"
                );
                failed += 1;
                // Heal degraded partitions in place — with the injector
                // still armed, so the heal path itself is under fire. A
                // failed heal just leaves the partition degraded for the
                // next attempt.
                for p in 0..PARTS {
                    if pdb.parts()[p as usize].wal().is_degraded() {
                        let _ = pdb.heal(PartitionId(p));
                    }
                }
            }
        }
    }
    injector.disarm();
    assert!(
        injector.injected() > 0,
        "the schedule never fired — permilles too low for seed {seed}"
    );
    assert!(
        !acks.is_empty(),
        "every transfer failed under seed {seed} — fire too hot to test durability"
    );
    println!(
        "chaos seed {seed}: {} acked, {failed} aborted, {} faults injected, {} retries, {} failures",
        acks.len(),
        injector.injected(),
        pdb.wal_io_retries(),
        pdb.wal_io_failures(),
    );

    // In-memory invariant while the wreckage is still live: no transfer
    // was half-applied.
    let live = balances(&pdb);
    assert_eq!(
        live.values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
        "faults leaked money in memory (seed {seed})"
    );

    // Heal any leftover degradation so the directory ends on a clean tail,
    // then recover on the real filesystem.
    for p in 0..PARTS {
        if pdb.parts()[p as usize].wal().is_degraded() {
            pdb.heal(PartitionId(p)).expect("disarmed heal succeeds");
        }
    }
    drop(session);
    drop(pdb);
    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_COMMIT_1),
    )
    .unwrap_or_else(|e| panic!("recovery after chaos fire (seed {seed}): {e}"));

    let recovered = balances(&rec);
    assert_eq!(
        recovered.values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
        "recovery leaked money (seed {seed}, report: {report:?})"
    );
    let ledger = ledger_rows(&rec);
    for (seq, from, to, amount) in &acks {
        assert_eq!(
            ledger.get(seq),
            Some(&(*from, *to, *amount)),
            "acked commit {seq} lost (seed {seed}, report: {report:?})"
        );
    }
    // Atomicity: the recovered ledger replayed over the initial balances
    // reproduces the recovered balances — aborted transfers left nothing.
    let mut expected: BTreeMap<u64, i64> = (0..PARTS as u64 * ACCOUNTS_PER_PART)
        .map(|a| (a, INITIAL))
        .collect();
    for (from, to, amount) in ledger.values() {
        *expected.get_mut(from).unwrap() -= amount;
        *expected.get_mut(to).unwrap() += amount;
    }
    assert_eq!(
        recovered, expected,
        "a transfer was half-applied (seed {seed}, report: {report:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A permanent fault poisons exactly its partition: writes there abort
/// fast with `DurabilityFailed`, snapshot reads keep serving, the sibling
/// partition keeps committing, and `heal` re-admits writes. Recovery after
/// heal converges.
#[test]
fn degraded_partition_is_read_only_until_heal() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let dir = tmp_dir("degrade");
    // Every write tears: the first durable commit's append exhausts its
    // transient retries and escalates to a permanent degrade, before
    // anything installs. (Under group commit an fsync failure surfaces
    // after install, at the acknowledgment.)
    let plan = FaultPlan {
        seed,
        short_write_permille: 1000,
        ..FaultPlan::quiet(seed)
    };
    let (pdb, injector) = build_faulty(&dir, plan, GROUP_COMMIT_1);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);

    injector.arm();
    // Partition-0-local transfer: only wal-p000 sees the fault.
    let err = transfer(&session, 1, 0, 1, 5).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed);
    injector.disarm();

    assert_eq!(pdb.degraded_partitions(), 1, "only partition 0 degrades");
    assert!(pdb.parts()[0].wal().is_degraded());
    assert!(!pdb.parts()[1].wal().is_degraded());
    assert!(
        pdb.wal_io_retries() >= 2,
        "transient write faults are retried before escalating"
    );
    assert!(pdb.wal_io_failures() >= 1);

    // Degraded flag persists after the injector stops: writes targeting
    // partition 0 fail fast without touching the filesystem.
    let err = transfer(&session, 2, 2, 3, 5).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed, "degraded fails fast");

    // The failed transfers installed nothing.
    let live = balances(&pdb);
    assert!(live.values().all(|&v| v == INITIAL), "aborts left no trace");

    // Snapshot reads on the degraded partition keep serving.
    let mut snap = session.snapshot_on(PartitionId(0));
    assert_eq!(snap.read(ACCOUNTS, 0).unwrap().get_i64(1), INITIAL);
    snap.commit().unwrap();

    // The sibling partition keeps committing. No ledger row here: the
    // ledger is hash-routed and could land on the degraded partition, and
    // this assertion is about a *strictly* partition-1-local write.
    {
        let mut txn = session.begin_on(PartitionId(1));
        txn.update(ACCOUNTS, ACCOUNTS_PER_PART + 1, |r| {
            r.set(1, Value::I64(r.get_i64(1) - 7))
        })
        .and_then(|_| {
            txn.update(ACCOUNTS, ACCOUNTS_PER_PART + 2, |r| {
                r.set(1, Value::I64(r.get_i64(1) + 7))
            })
        })
        .and_then(|_| txn.commit())
        .expect("healthy partition commits while its sibling is degraded");
    }

    // A cross-partition transfer touching the degraded partition aborts
    // *before* writing an orphan group to the healthy sibling.
    let p1_records = pdb.parts()[1].wal().records();
    let err = transfer(&session, 4, 1, ACCOUNTS_PER_PART + 3, 5).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed);
    assert_eq!(
        pdb.parts()[1].wal().records(),
        p1_records,
        "degraded pre-check must fire before any sibling append"
    );

    // Checkpoints refuse while any partition is degraded.
    assert!(pdb.checkpoint().is_err(), "checkpoint requires health");

    // Heal partition 0 and re-admit writes.
    pdb.heal(PartitionId(0)).expect("heal re-opens the segment");
    assert_eq!(pdb.degraded_partitions(), 0);
    transfer(&session, 5, 0, 1, 9).expect("healed partition commits again");
    pdb.checkpoint().expect("checkpoint after heal");

    // Recovery converges on the healed history.
    let before = balances(&pdb);
    drop(session);
    drop(pdb);
    let (rec, _report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_COMMIT_1),
    )
    .unwrap();
    assert_eq!(balances(&rec), before, "recovery after heal converges");
    assert_eq!(
        balances(&rec).values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same seed produces the same schedule: two single-threaded fires
/// over identical workloads commit and abort identically, file for file.
#[test]
fn same_seed_reproduces_the_same_outcomes() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let run = |tag: &str| -> (Vec<bool>, u64) {
        let dir = tmp_dir(tag);
        let plan = FaultPlan {
            seed,
            fsync_permille: 60,
            short_write_permille: 30,
            enospc_permille: 15,
            ..FaultPlan::quiet(seed)
        };
        let (pdb, injector) = build_faulty(&dir, plan, GROUP_COMMIT_1);
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let session = PartSession::new(Arc::clone(&pdb), proto);
        injector.arm();
        let mut outcomes = Vec::new();
        for seq in 1u64..=120 {
            let from = seq % ACCOUNTS_PER_PART;
            let to = ACCOUNTS_PER_PART + (seq + 1) % ACCOUNTS_PER_PART;
            outcomes.push(transfer(&session, seq, from, to, 1).is_ok());
            for p in 0..PARTS {
                if pdb.parts()[p as usize].wal().is_degraded() {
                    let _ = pdb.heal(PartitionId(p));
                }
            }
        }
        injector.disarm();
        let injected = injector.injected();
        drop(session);
        drop(pdb);
        let _ = std::fs::remove_dir_all(&dir);
        (outcomes, injected)
    };
    let (a, ia) = run("det-a");
    let (b, ib) = run("det-b");
    assert_eq!(a, b, "same seed, same commit/abort sequence (seed {seed})");
    assert_eq!(ia, ib, "same seed, same injected-fault count (seed {seed})");
    assert!(ia > 0, "schedule fired at least once under seed {seed}");
}

/// Group-commit batch-fsync failure: the whole staged batch surfaces
/// `DurabilityFailed` at *ack* time — the commit points all passed (the
/// append never syncs), versions installed and
/// locks released, so the batch fsync is the first thing that can fail.
/// The failing partition degrades, the sibling keeps committing, and
/// heal + checkpoint + recovery converge on the installed state.
#[test]
fn group_commit_batch_fsync_failure_fails_whole_batch_and_degrades() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let dir = tmp_dir("group-batch");
    // Every fsync fails: the leader's batch sync exhausts its transient
    // retries and escalates to a permanent degrade.
    let plan = FaultPlan {
        seed,
        fsync_permille: 1000,
        ..FaultPlan::quiet(seed)
    };
    let (pdb, injector) = build_faulty(&dir, plan, GROUP_POLICY);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);

    injector.arm();
    // Stage a batch of partition-0-local transfers through the
    // deferred-ack pipeline (accounts only — the ledger is hash-routed
    // and could drag the healthy sibling's WAL into the ticket).
    let mut tickets = Vec::new();
    for seq in 1u64..=4 {
        let (from, to) = (seq, (seq + 3) % ACCOUNTS_PER_PART);
        let mut txn = session.begin_on(PartitionId(0));
        txn.update(ACCOUNTS, from, |r| r.set(1, Value::I64(r.get_i64(1) - 5)))
            .and_then(|_| txn.update(ACCOUNTS, to, |r| r.set(1, Value::I64(r.get_i64(1) + 5))))
            .expect("fsync faults cannot touch the commit point under GroupCommit");
        let ticket = txn
            .commit_deferred()
            .expect("commit point passes — only the ack can fail")
            .expect("durable GroupCommit commits always carry a ticket");
        tickets.push((seq, ticket));
    }
    // Every member of the batch fails at ack time, not just the leader.
    for (seq, ticket) in tickets {
        let err = session
            .session(PartitionId(0))
            .ack_ticket(ticket)
            .expect_err("the batch fsync failed — no member may ack");
        assert_eq!(
            err.0,
            AbortReason::DurabilityFailed,
            "batch member {seq} must surface DurabilityFailed (seed {seed})"
        );
    }
    injector.disarm();
    assert!(injector.injected() > 0, "the batch fsync never fired");
    assert_eq!(pdb.degraded_partitions(), 1, "only partition 0 degrades");
    assert!(pdb.parts()[0].wal().is_degraded());
    assert!(!pdb.parts()[1].wal().is_degraded());

    // Ack-time failure is post-commit: the batch is installed in memory
    // (that is the documented durability gap until heal + checkpoint),
    // and no transfer was half-applied.
    let live = balances(&pdb);
    assert!(
        live.values().any(|&v| v != INITIAL),
        "batch members must be installed despite the failed ack"
    );
    assert_eq!(
        live.values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
        "the failed batch leaked money in memory (seed {seed})"
    );

    // The sibling partition keeps committing while partition 0 is
    // degraded — its own group-commit coordinator is unaffected.
    {
        let mut txn = session.begin_on(PartitionId(1));
        txn.update(ACCOUNTS, ACCOUNTS_PER_PART + 1, |r| {
            r.set(1, Value::I64(r.get_i64(1) - 7))
        })
        .and_then(|_| {
            txn.update(ACCOUNTS, ACCOUNTS_PER_PART + 2, |r| {
                r.set(1, Value::I64(r.get_i64(1) + 7))
            })
        })
        .and_then(|_| txn.commit())
        .expect("healthy partition commits while its sibling is degraded");
    }

    // Later tickets on the degraded partition fail fast without parking.
    {
        let mut txn = session.begin_on(PartitionId(0));
        txn.update(ACCOUNTS, 6, |r| r.set(1, Value::I64(r.get_i64(1) - 1)))
            .and_then(|_| txn.update(ACCOUNTS, 7, |r| r.set(1, Value::I64(r.get_i64(1) + 1))))
            .and_then(|_| txn.commit())
            .expect_err("degraded partition must refuse new commits");
    }

    // Heal, recommit, seal with a checkpoint; recovery converges on the
    // installed state (including the never-acked batch, which the
    // checkpoint made durable).
    pdb.heal(PartitionId(0)).expect("disarmed heal succeeds");
    assert_eq!(pdb.degraded_partitions(), 0);
    transfer(&session, 100, 0, 1, 3).expect("healed partition commits and acks again");
    pdb.checkpoint().expect("checkpoint after heal");
    let before = balances(&pdb);
    drop(session);
    drop(pdb);
    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_POLICY),
    )
    .unwrap_or_else(|e| panic!("recovery after batch failure + heal (seed {seed}): {e}"));
    assert_eq!(
        balances(&rec),
        before,
        "recovery diverged from the healed state (seed {seed}, report: {report:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `DurabilityFailed` contract of the shared commit tail, across every
/// protocol that runs on a durable database: a commit that reaches its commit point and is then
/// revoked by a storage fault must release its locks exactly once and
/// retire its commit timestamp — the tuples end quiescent, no version
/// installed, the clock's stable point past the failed timestamp — and a
/// follow-up transaction on the same keys commits immediately once the
/// partition is healed.
#[test]
fn durability_failed_abort_releases_locks_under_every_protocol() {
    let protocols: Vec<(&str, Arc<dyn Protocol>)> = vec![
        ("bamboo", Arc::new(LockingProtocol::bamboo())),
        ("wound_wait", Arc::new(LockingProtocol::wound_wait())),
        ("wait_die", Arc::new(LockingProtocol::wait_die())),
        ("no_wait", Arc::new(LockingProtocol::no_wait())),
        ("silo", Arc::new(SiloProtocol::new())),
    ];
    for (name, proto) in protocols {
        let dir = tmp_dir(&format!("release-{name}"));
        // Every write fails with ENOSPC: the first durable commit's append
        // fails before anything installs, and the commit is revoked.
        let plan = FaultPlan {
            seed: chaos_seed(),
            enospc_permille: 1000,
            ..FaultPlan::quiet(chaos_seed())
        };
        let injector = FaultInjector::new(plan);
        let backend = Arc::new(FaultBackend::new(Arc::clone(&injector)));
        let mut b = PartitionedDb::builder(1);
        let t = b.add_table(
            "accounts",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
            RouteStrategy::Hash,
        );
        b.with_options(
            DbOptions::new()
                .with_wal_dir(dir.clone())
                .with_fsync_policy(GROUP_COMMIT_1)
                .with_log_backend(backend),
        );
        let pdb = b.build();
        for k in 0..4u64 {
            pdb.insert(t, k, Row::from(vec![Value::U64(k), Value::I64(0)]));
        }
        pdb.checkpoint().expect("genesis checkpoint (disarmed)");
        let session = PartSession::new(Arc::clone(&pdb), proto);
        let db0 = pdb.parts()[0].db();
        // The one timestamp the failing commit is about to allocate, and
        // the version stamps it must leave alone.
        let failed_ts = db0.commit_clock.next();
        let loaded_ts: Vec<u64> = (0..2u64)
            .map(|k| db0.table(t).get(k).unwrap().commit_ts())
            .collect();

        injector.arm();
        {
            let mut txn = session.begin_on(PartitionId(0));
            for k in 0..2u64 {
                txn.update(t, k, |r| r.set(1, Value::I64(99))).unwrap();
            }
            let err = txn.commit().unwrap_err();
            assert_eq!(
                err.0,
                AbortReason::DurabilityFailed,
                "{name}: the revoked commit must surface as DurabilityFailed"
            );
            // `commit` consumed the txn and aborted in place; the drop
            // here must NOT release a second time.
        }
        injector.disarm();

        assert_eq!(
            db0.commit_clock.next(),
            failed_ts + 1,
            "{name}: the failed commit allocates exactly one timestamp"
        );
        assert!(
            db0.commit_clock.stable() >= failed_ts,
            "{name}: the revoked commit's timestamp was never retired — the stable point stalls"
        );
        for k in 0..2u64 {
            let tup = db0.table(t).get(k).unwrap();
            assert!(
                tup.meta.lock.lock().is_quiescent(),
                "{name}: key {k} left residual lock state after DurabilityFailed"
            );
            assert_eq!(
                tup.read_row().get_i64(1),
                0,
                "{name}: revoked commit installed its write into key {k}"
            );
            assert_eq!(
                (tup.commit_ts(), tup.retained_versions()),
                (loaded_ts[k as usize], 0),
                "{name}: revoked commit left a version on key {k}"
            );
        }

        pdb.heal(PartitionId(0)).expect("disarmed heal succeeds");
        let mut txn = session.begin_on(PartitionId(0));
        for k in 0..2u64 {
            txn.update(t, k, |r| r.set(1, Value::I64(7))).unwrap();
        }
        txn.commit().unwrap_or_else(|e| {
            panic!("{name}: follow-up txn blocked by a leaked lock or stuck degraded flag: {e}")
        });
        for k in 0..2u64 {
            assert_eq!(db0.table(t).get(k).unwrap().read_row().get_i64(1), 7);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// IC3 logs column-local copies that crash recovery cannot replay as
/// whole-row images, so the pair "IC3 + a database with a `wal_dir`" is
/// refused where the two meet — binding a session — instead of
/// acknowledging commits as durable and recovering them wrong.
#[test]
#[should_panic(expected = "IC3-pess cannot run on a database with a wal_dir")]
fn ic3_on_a_durable_database_is_refused() {
    /// Removes the log directory when the expected panic unwinds.
    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = Cleanup(tmp_dir("ic3-refused"));
    let mut b = PartitionedDb::builder(1);
    b.add_table(
        "accounts",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
        RouteStrategy::Hash,
    );
    b.with_options(DbOptions::new().with_wal_dir(dir.0.clone()));
    let generic = vec![TemplateDecl {
        name: "generic".into(),
        pieces: vec![PieceDecl::new(vec![PieceAccess::write(
            ACCOUNTS,
            u64::MAX,
            u64::MAX,
        )])],
    }];
    PartSession::new(b.build(), Arc::new(Ic3Protocol::new(generic, false)));
}
