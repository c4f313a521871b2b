//! Executor/stats accounting: the measurement vocabulary the figures rely
//! on must be internally consistent.

use std::sync::Arc;
use std::time::Duration;

use bamboo_repro::core::executor::{run_bench, run_part_bench, BenchConfig, TxnSpec, Workload};
use bamboo_repro::core::protocol::{LockingProtocol, Protocol};
use bamboo_repro::core::stats::reason_name;
use bamboo_repro::core::{Abort, AbortReason, Database, PartSession, PartitionedDb, Txn};
use bamboo_repro::storage::{DataType, PartitionId, RouteStrategy, Row, Schema, TableId, Value};
use rand::rngs::SmallRng;
use rand::Rng;

fn load() -> (Arc<Database>, TableId) {
    let mut b = Database::builder();
    let t = b.add_table(
        "t",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    let db = b.build();
    for k in 0..32u64 {
        db.table(t)
            .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    (db, t)
}

/// A transaction that user-aborts with probability ~1/4.
struct MaybeAbort {
    t: TableId,
    key: u64,
    fail: bool,
}

impl TxnSpec for MaybeAbort {
    fn planned_ops(&self) -> Option<usize> {
        Some(1)
    }

    fn run_piece(&self, _p: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        txn.update(self.t, self.key, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v + 1));
        })?;
        if self.fail {
            return Err(Abort(AbortReason::User));
        }
        Ok(())
    }
}

struct Wl {
    t: TableId,
}

impl Workload for Wl {
    fn name(&self) -> &str {
        "maybe-abort"
    }

    fn generate(&self, _w: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        Box::new(MaybeAbort {
            t: self.t,
            key: rng.gen_range(0..32),
            fail: rng.gen_bool(0.25),
        })
    }
}

#[test]
fn user_aborts_counted_and_not_retried() {
    let (db, t) = load();
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let wl: Arc<dyn Workload> = Arc::new(Wl { t });
    let res = run_bench(
        &db,
        &proto,
        &wl,
        &BenchConfig::quick(2)
            .with_duration(Duration::from_millis(250))
            .with_warmup(Duration::from_millis(25))
            .with_seed(8),
    );
    assert_eq!(
        res.wait_timeouts(),
        0,
        "{} fired a wait backstop",
        res.protocol
    );
    let user_aborts = res.totals.aborts_by_reason[6];
    assert_eq!(reason_name(6), "user");
    assert!(user_aborts > 0, "the 25% user aborts must be visible");
    // ~1/4 of attempts abort; allow generous noise.
    let rate = res.abort_rate();
    assert!(
        (0.1..0.45).contains(&rate),
        "abort rate {rate} far from the configured 25%"
    );
    // Every committed increment (and none of the user-aborted ones)
    // reached the table: sum >= measured commits, and the aborted writes
    // rolled back so sum can never exceed total successful attempts.
    let sum: i64 = (0..32)
        .map(|k| db.table(t).get(k).unwrap().read_row().get_i64(1))
        .sum();
    assert!(sum >= res.totals.commits as i64);
}

/// A read-only scan over all keys, run in MVCC snapshot mode.
struct SnapScan {
    t: TableId,
}

impl TxnSpec for SnapScan {
    fn planned_ops(&self) -> Option<usize> {
        Some(32)
    }

    fn read_only_snapshot(&self) -> bool {
        true
    }

    fn run_piece(&self, _p: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        for k in 0..32u64 {
            std::hint::black_box(txn.read(self.t, k)?.get_i64(1));
        }
        Ok(())
    }
}

struct SnapMixWl {
    t: TableId,
}

impl Workload for SnapMixWl {
    fn name(&self) -> &str {
        "snapshot-mix"
    }

    fn generate(&self, _w: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        if rng.gen_bool(0.3) {
            return Box::new(SnapScan { t: self.t });
        }
        Box::new(MaybeAbort {
            t: self.t,
            key: rng.gen_range(0..32),
            fail: false,
        })
    }
}

/// Snapshot-mode transactions land in their own stats bucket: commits,
/// latency histogram and lock-acquisition counters are all separated from
/// the locking transactions of the same run.
#[test]
fn snapshot_transactions_counted_in_their_own_bucket() {
    let (db, t) = load();
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let wl: Arc<dyn Workload> = Arc::new(SnapMixWl { t });
    let res = run_bench(
        &db,
        &proto,
        &wl,
        &BenchConfig::quick(2)
            .with_duration(Duration::from_millis(250))
            .with_warmup(Duration::from_millis(25))
            .with_seed(9),
    );
    assert_eq!(
        res.wait_timeouts(),
        0,
        "{} fired a wait backstop",
        res.protocol
    );
    // Both buckets populated, independently.
    assert!(res.totals.commits > 0, "locking commits missing");
    assert!(res.totals.snapshot_commits > 0, "snapshot bucket empty");
    // Snapshot latency histogram filled exactly per snapshot commit; the
    // main histogram holds exactly the locking commits.
    let snap_hist: u64 = res.totals.snapshot_latency_us_log2.iter().sum();
    let main_hist: u64 = res.totals.latency_us_log2.iter().sum();
    assert_eq!(snap_hist, res.totals.snapshot_commits);
    assert_eq!(main_hist, res.totals.commits);
    // Lock accounting split: writers acquire locks, snapshots never.
    assert!(res.totals.lock_acquisitions > 0, "writer locks uncounted");
    assert_eq!(
        res.totals.snapshot_lock_acquisitions, 0,
        "snapshot transactions touched the lock manager"
    );
    assert_eq!(res.totals.snapshot_aborts, 0, "snapshot scans cannot abort");
    // Derived metrics are available per bucket.
    assert!(res.snapshot_throughput() > 0.0);
    assert!(res.snapshot_latency_percentile_us(0.5) > 0);
    assert!(res.snapshot_latency_percentile_us(0.99) >= res.snapshot_latency_percentile_us(0.5));
}

#[test]
fn latency_percentiles_are_monotonic() {
    let (db, t) = load();
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let wl: Arc<dyn Workload> = Arc::new(Wl { t });
    let res = run_bench(&db, &proto, &wl, &BenchConfig::quick(2));
    assert_eq!(
        res.wait_timeouts(),
        0,
        "{} fired a wait backstop",
        res.protocol
    );
    let p50 = res.latency_percentile_us(0.5);
    let p99 = res.latency_percentile_us(0.99);
    assert!(p50 > 0 && p99 >= p50, "p50={p50} p99={p99}");
}

#[test]
fn wal_bytes_accounted_per_worker() {
    let (db, t) = load();
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let wl: Arc<dyn Workload> = Arc::new(Wl { t });
    let res = run_bench(&db, &proto, &wl, &BenchConfig::quick(2));
    assert_eq!(
        res.wait_timeouts(),
        0,
        "{} fired a wait backstop",
        res.protocol
    );
    assert!(
        res.totals.log_bytes > res.totals.commits,
        "every commit writes a redo record"
    );
}

/// A transfer between key `k` on partition 0 and key `100 + k` on
/// partition 1, homed on either: every commit is cross-partition and logs
/// a record of one fixed size.
struct CrossTransfer {
    t: TableId,
    k: u64,
    home: u32,
}

impl TxnSpec for CrossTransfer {
    fn home_partition(&self) -> u32 {
        self.home
    }

    fn run_piece(&self, _p: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        txn.update(self.t, self.k, |r| r.set(1, Value::I64(r.get_i64(1) - 1)))?;
        txn.update(self.t, 100 + self.k, |r| {
            r.set(1, Value::I64(r.get_i64(1) + 1))
        })
    }
}

struct CrossWl {
    t: TableId,
}

impl Workload for CrossWl {
    fn name(&self) -> &str {
        "cross-transfer"
    }

    fn generate(&self, _w: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        Box::new(CrossTransfer {
            t: self.t,
            k: rng.gen_range(0..16),
            home: rng.gen_range(0..2),
        })
    }
}

/// Without a wal dir a partitioned run logs to its workers' session rings:
/// `totals.log_bytes` is the sum over *every* session of every worker (the
/// specs are homed on both partitions), one record per commit, and
/// cross-partition commits are still counted as such.
#[test]
fn partitioned_ring_bytes_summed_over_every_session() {
    let mut b = PartitionedDb::builder(2);
    let t = b.add_table(
        "t",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
        RouteStrategy::Range(vec![100]),
    );
    let pdb = b.build();
    for k in (0..16u64).chain(100..116) {
        pdb.insert(t, k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());

    // One commit's record, measured on a session of its own.
    let probe = PartSession::new(Arc::clone(&pdb), Arc::clone(&proto));
    let spec = CrossTransfer { t, k: 0, home: 1 };
    probe.session(PartitionId(1)).run(&spec).unwrap();
    let record: u64 = (0..2)
        .map(|p| probe.session(PartitionId(p)).log_bytes())
        .sum();
    assert!(record > 0);
    assert_eq!(
        probe.session(PartitionId(1)).log_records(),
        1,
        "one ring record"
    );
    assert_eq!(probe.session(PartitionId(0)).log_records(), 0);

    let wl: Arc<dyn Workload> = Arc::new(CrossWl { t });
    let res = run_part_bench(&pdb, &proto, &wl, &BenchConfig::quick(2));
    assert_eq!(
        res.wait_timeouts(),
        0,
        "{} fired a wait backstop",
        res.protocol
    );
    assert!(res.totals.commits > 0);
    assert_eq!(
        res.totals.cross_partition_commits, res.totals.commits,
        "every transfer spans both partitions"
    );
    // Each commit moved one unit out of partition 0's keys (warmup and the
    // probe's commit included), and the rings' counters are lifetime ones.
    let moved: i64 = (0..16u64)
        .map(|k| {
            -pdb.table(PartitionId(0), t)
                .get(k)
                .unwrap()
                .read_row()
                .get_i64(1)
        })
        .sum();
    assert_eq!(res.totals.log_bytes, record * (moved as u64 - 1));
    assert_eq!(pdb.log_bytes(), 0, "no wal dir: no partition logs");
}
