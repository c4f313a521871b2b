//! The `kill -9` crash harness: a child process loads a durable bank,
//! fires transfers under group commit with a batch of one (one fsync per
//! commit, before the synchronous `commit()` returns) and prints an `ACK`
//! line for every acknowledged commit; the parent SIGKILLs it in
//! steady state — so the crash lands at an arbitrary point of the commit
//! pipeline, possibly mid-append — then recovers the directory and checks:
//!
//! 1. money is conserved (the sum of all balances is exactly the initial
//!    endowment);
//! 2. every acknowledged commit is present (each transfer also inserts a
//!    unique ledger row in the same transaction; every `ACK`ed ledger row
//!    must exist after recovery with the right payload);
//! 3. atomicity: replaying the *recovered* ledger against the initial
//!    balances reproduces the recovered balances exactly — no transfer is
//!    half-applied.
//!
//! The child is this same test re-executed with `BAMBOO_CRASH_DIR` set.
//!
//! A second variant (`BAMBOO_CRASH_FAULT` = seed) layers a seeded
//! [`FaultBackend`] under the child's WAL, so the SIGKILL lands on a
//! pipeline that is *already* absorbing fsync failures, torn writes and
//! `ENOSPC` — the child heals degraded partitions in place and keeps
//! acking. The same three invariants must hold.
//!
//! Every child logs to small segments, so the kill also lands across
//! segment rotations (seal, trim, preallocate the next).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bamboo_repro::core::partition::{PartSession, PartitionedDb};
use bamboo_repro::core::protocol::{LockingProtocol, Protocol};
use bamboo_repro::core::DbOptions;
use bamboo_repro::storage::log::FaultInjector;
use bamboo_repro::storage::{
    DataType, FaultBackend, FaultPlan, FsyncPolicy, LogBackend, PartitionId, RouteStrategy, Row,
    Schema, TableId, Value,
};

const ACCOUNTS_PER_PART: u64 = 8;
const INITIAL: i64 = 1000;
const PARTS: u32 = 2;
const ACCOUNTS: TableId = TableId(0);
const LEDGER: TableId = TableId(1);

/// The coordinator parameters used by the group-commit crash variant.
const GROUP_POLICY: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 8,
    max_wait_us: 100,
};
/// Group commit with a batch of one: the synchronous children's policy.
const GROUP_COMMIT_1: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 1,
    max_wait_us: 0,
};

/// Segment size of every child's log. A transfer logs ≈ 150 bytes, so a
/// child rotates every dozen or so commits and the 50 acks the parent waits
/// for span several rotations: the SIGKILL can land while a segment is
/// being sealed, trimmed or preallocated, not only mid-append.
const SEGMENT_BYTES: u64 = 2 << 10;

fn build_with(
    dir: &Path,
    backend: Option<Arc<dyn LogBackend>>,
    policy: FsyncPolicy,
) -> Arc<PartitionedDb> {
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
    let mut opts = DbOptions::new()
        .with_wal_dir(dir.to_path_buf())
        .with_fsync_policy(policy)
        .with_segment_bytes(SEGMENT_BYTES);
    if let Some(backend) = backend {
        opts = opts.with_log_backend(backend);
    }
    b.with_options(opts);
    b.build()
}

/// Child mode: load, genesis-checkpoint, then fire transfers forever,
/// acknowledging each committed one on stdout. Killed by the parent.
///
/// With a fault seed, the WAL runs on a [`FaultBackend`] armed after the
/// genesis checkpoint. Open/read faults are left at zero so a degraded
/// partition can always be healed; the child heals on every
/// durability-failed commit and keeps firing.
fn child_main(dir: PathBuf, fault_seed: Option<u64>) -> ! {
    let injector = fault_seed.map(|seed| {
        FaultInjector::new(FaultPlan {
            seed,
            fsync_permille: 30,
            short_write_permille: 20,
            enospc_permille: 10,
            ..FaultPlan::quiet(seed)
        })
    });
    let backend = injector
        .as_ref()
        .map(|i| Arc::new(FaultBackend::new(Arc::clone(i))) as Arc<dyn LogBackend>);
    let pdb = build_with(&dir, backend, GROUP_COMMIT_1);
    for a in 0..PARTS as u64 * ACCOUNTS_PER_PART {
        pdb.insert(
            ACCOUNTS,
            a,
            Row::from(vec![Value::U64(a), Value::I64(INITIAL)]),
        );
    }
    pdb.checkpoint().expect("genesis checkpoint");
    if let Some(i) = &injector {
        i.arm();
    }

    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);
    let mut rng = 0xB4D5EEDu64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        rng
    };
    let stdout = std::io::stdout();
    for seq in 1u64..1_000_000 {
        let from = next() % ACCOUNTS_PER_PART;
        let to = ACCOUNTS_PER_PART + next() % ACCOUNTS_PER_PART;
        let amount = (next() % 10) as i64 + 1;
        let mut txn = session.begin_on(PartitionId(0));
        let committed = txn
            .update(ACCOUNTS, from, |r| {
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
            .and_then(|_| txn.commit());
        if committed.is_ok() {
            // `commit()` returned after the durability horizon passed the
            // commit: acknowledge it. Flush so the parent sees the ack
            // before any SIGKILL.
            let mut out = stdout.lock();
            writeln!(out, "ACK {seq} {from} {to} {amount}").unwrap();
            out.flush().unwrap();
        } else if injector.is_some() {
            // An injected fault aborted this commit (never acked). Heal
            // any partition the permanent fault poisoned so the fire —
            // and the ack stream the parent is waiting on — continues.
            for p in 0..PARTS {
                if pdb.parts()[p as usize].wal().is_degraded() {
                    let _ = pdb.heal(PartitionId(p));
                }
            }
        }
    }
    std::process::exit(0);
}

/// Group-commit child mode: the same bank, but commits ride the
/// deferred-ack pipeline — a flight of transfers is staged with
/// `commit_deferred` (commit point hit, locks released and versions
/// installed, no fsync yet), then the whole flight is acknowledged; one
/// leader fsync covers it. Only *acked* transfers print `ACK`, so a
/// SIGKILL mid-flight may lose staged-but-unacked commits — never acked
/// ones. That asymmetry is exactly the group-commit contract under test.
fn child_main_group(dir: PathBuf) -> ! {
    let pdb = build_with(&dir, None, GROUP_POLICY);
    for a in 0..PARTS as u64 * ACCOUNTS_PER_PART {
        pdb.insert(
            ACCOUNTS,
            a,
            Row::from(vec![Value::U64(a), Value::I64(INITIAL)]),
        );
    }
    pdb.checkpoint().expect("genesis checkpoint");

    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);
    let mut rng = 0xB4D5EEDu64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        rng
    };
    let stdout = std::io::stdout();
    let mut seq = 0u64;
    loop {
        let mut flight = Vec::new();
        for _ in 0..8 {
            seq += 1;
            let from = next() % ACCOUNTS_PER_PART;
            let to = ACCOUNTS_PER_PART + next() % ACCOUNTS_PER_PART;
            let amount = (next() % 10) as i64 + 1;
            let mut txn = session.begin_on(PartitionId(0));
            let staged = txn
                .update(ACCOUNTS, from, |r| {
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
                });
            if staged.is_err() {
                continue; // dropped `txn` runs the abort path
            }
            if let Ok(Some(ticket)) = txn.commit_deferred() {
                flight.push((seq, from, to, amount, ticket));
            }
        }
        for (seq, from, to, amount, ticket) in flight {
            if session.session(PartitionId(0)).ack_ticket(ticket).is_ok() {
                // The durability horizon covers this commit: acknowledge
                // it. Flush so the parent sees the ack before any SIGKILL.
                let mut out = stdout.lock();
                writeln!(out, "ACK {seq} {from} {to} {amount}").unwrap();
                out.flush().unwrap();
            }
        }
    }
}

#[test]
fn kill9_crash_preserves_acked_commits() {
    if let Ok(dir) = std::env::var("BAMBOO_CRASH_DIR") {
        child_main(PathBuf::from(dir), None);
    }
    run_crash_harness(
        "kill9_crash_preserves_acked_commits",
        None,
        GROUP_COMMIT_1,
        "clean",
    );
}

#[test]
fn kill9_crash_group_commit_preserves_acked_commits() {
    if let Ok(dir) = std::env::var("BAMBOO_CRASH_DIR") {
        child_main_group(PathBuf::from(dir));
    }
    run_crash_harness(
        "kill9_crash_group_commit_preserves_acked_commits",
        None,
        GROUP_POLICY,
        "group",
    );
}

#[test]
fn kill9_crash_with_storage_faults_preserves_acked_commits() {
    if let Ok(dir) = std::env::var("BAMBOO_CRASH_DIR") {
        let seed = std::env::var("BAMBOO_CRASH_FAULT")
            .expect("fault child needs BAMBOO_CRASH_FAULT")
            .parse()
            .expect("BAMBOO_CRASH_FAULT must be a u64 seed");
        child_main(PathBuf::from(dir), Some(seed));
    }
    // Reuse the chaos-suite seed knob so the CI sweep exercises this
    // harness under the same six schedules.
    let seed = std::env::var("BAMBOO_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA017);
    println!("crash fault seed: {seed}");
    run_crash_harness(
        "kill9_crash_with_storage_faults_preserves_acked_commits",
        Some(seed),
        GROUP_COMMIT_1,
        "fault",
    );
}

/// Parent mode: re-exec this binary as the crash child (filtered to
/// `test_name`), harvest 50 acks, SIGKILL, recover, verify.
fn run_crash_harness(test_name: &str, fault_seed: Option<u64>, policy: FsyncPolicy, tag: &str) {
    let dir = std::env::temp_dir().join(format!(
        "bamboo-crash-{}-{tag}-{}",
        std::process::id(),
        fault_seed.map_or_else(|| "clean".into(), |s| s.to_string())
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let exe = std::env::current_exe().unwrap();
    let mut cmd = std::process::Command::new(exe);
    cmd.args([test_name, "--exact", "--nocapture", "--test-threads=1"])
        .env("BAMBOO_CRASH_DIR", &dir)
        .stdout(std::process::Stdio::piped());
    if let Some(seed) = fault_seed {
        cmd.env("BAMBOO_CRASH_FAULT", seed.to_string());
    }
    let mut child = cmd.spawn().expect("spawning crash child");

    // Read acks until steady state, then SIGKILL mid-fire.
    let mut acks: Vec<(u64, u64, u64, i64)> = Vec::new();
    {
        let out = BufReader::new(child.stdout.take().unwrap());
        for line in out.lines() {
            let line = line.unwrap();
            if let Some(rest) = line.strip_prefix("ACK ") {
                let f: Vec<u64> = rest
                    .split(' ')
                    .map(|w| w.parse::<i64>().unwrap() as u64)
                    .collect();
                acks.push((f[0], f[1], f[2], f[3] as i64));
            }
            if acks.len() >= 50 {
                break;
            }
        }
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    assert!(
        acks.len() >= 50,
        "child exited after only {} acks — it should run until killed",
        acks.len()
    );
    let segments = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy().starts_with("wal-p000-")
        })
        .count();
    assert!(
        segments > 1,
        "partition 0 logged to {segments} segment(s): the kill had no rotation to land on"
    );

    // Recover the directory the child left behind. Locks released before
    // the fsync, so recovery cuts at the durability horizon: every ack
    // implies the whole prefix below it is durable.
    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(policy),
    )
    .expect("recovery after SIGKILL");

    // 1. Money is conserved.
    let balances: BTreeMap<u64, i64> = {
        let mut m = BTreeMap::new();
        for p in rec.parts() {
            let table = p.db().table(ACCOUNTS);
            for r in 0..table.len() as u64 {
                let t = table.get_by_row_id(r).unwrap();
                m.insert(t.key, t.read_row().get_i64(1));
            }
        }
        m
    };
    assert_eq!(
        balances.values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
        "SIGKILL leaked money (report: {report:?})"
    );

    // 2. Every fsync-acknowledged commit survived.
    let ledger: BTreeMap<u64, (u64, u64, i64)> = {
        let mut m = BTreeMap::new();
        for p in rec.parts() {
            let table = p.db().table(LEDGER);
            for r in 0..table.len() as u64 {
                let t = table.get_by_row_id(r).unwrap();
                let row = t.read_row();
                m.insert(t.key, (row.get_u64(1), row.get_u64(2), row.get_i64(3)));
            }
        }
        m
    };
    for (seq, from, to, amount) in &acks {
        assert_eq!(
            ledger.get(seq),
            Some(&(*from, *to, *amount)),
            "acked commit {seq} lost or corrupted by the crash (report: {report:?})"
        );
    }

    // 3. Atomicity: the recovered ledger replayed over the initial
    //    balances reproduces the recovered balances exactly.
    let mut expected: BTreeMap<u64, i64> = (0..PARTS as u64 * ACCOUNTS_PER_PART)
        .map(|a| (a, INITIAL))
        .collect();
    for (from, to, amount) in ledger.values() {
        *expected.get_mut(from).unwrap() -= amount;
        *expected.get_mut(to).unwrap() += amount;
    }
    assert_eq!(
        balances, expected,
        "a transfer was half-applied (report: {report:?})"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
