//! The benchmark executor: one worker per thread, each running a
//! generate → execute → commit/abort/retry loop against a shared
//! [`Database`] through a per-worker [`Session`] — the same harness shape
//! as DBx1000's (paper §5.1: "We collect transaction statistics, such as
//! throughput, latency, and abort rates by running each workload for at
//! least 30 seconds"; our durations are configurable because the figure
//! reproduction sweeps dozens of points).
//!
//! The attempt/retry machinery itself lives on
//! [`Session::run`]/[`Session::run_reporting`] — this module only owns the
//! worker orchestration (threads, warmup/measure switching, stats merging).

use crate::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::db::Database;
use crate::partition::{PartSession, PartitionedDb};
use crate::protocol::Protocol;
use crate::session::{Session, Txn};
use crate::stats::{BenchResult, WorkerStats};
use crate::sync::CachePadded;
use crate::txn::Abort;

/// One generated transaction instance: executed piece by piece (non-IC3
/// protocols see the pieces as consecutive program segments; IC3 uses the
/// boundaries for visibility).
pub trait TxnSpec: Send {
    /// Number of pieces (defaults to a single piece).
    fn pieces(&self) -> usize {
        1
    }

    /// Total operations the transaction will issue, when known ahead of
    /// time (stored-procedure mode; drives Optimization 2's δ heuristic).
    fn planned_ops(&self) -> Option<usize> {
        None
    }

    /// IC3 template index this instance was generated from.
    fn template(&self) -> usize {
        0
    }

    /// The partition this transaction is *homed* on: the partition whose
    /// session executes it. Workloads partition-aware by construction
    /// (TPC-C by warehouse, YCSB by key range) home each transaction
    /// where most of its keys live; remote accesses route transparently.
    fn home_partition(&self) -> u32 {
        0
    }

    /// True when this transaction is read-only and should run in snapshot
    /// mode: reads resolve against the committed version chains with zero
    /// lock-manager interaction
    /// ([`crate::session::TxnOptions::snapshot`]).
    /// Defaults to the locking read path.
    fn read_only_snapshot(&self) -> bool {
        false
    }

    /// Executes piece `piece` against the attempt's [`Txn`] handle. Called
    /// in order; any `Err` aborts the attempt (the `Txn` owns the release
    /// path). Retries re-run all pieces with the same inputs.
    fn run_piece(&self, piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort>;
}

/// A workload generates transaction instances.
pub trait Workload: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// Draws the next transaction for `worker`.
    fn generate(&self, worker: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec>;
}

/// Benchmark configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Worker threads.
    pub threads: usize,
    /// Measured duration.
    pub duration: Duration,
    /// Warm-up (executed, not measured).
    pub warmup: Duration,
    /// RNG seed (worker `i` uses `seed + i`).
    pub seed: u64,
    /// The client round trip when the workers' sessions run in interactive
    /// mode ([`Session::interactive`]); `None` runs stored procedures.
    pub interactive: Option<Duration>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig::quick(1)
    }
}

impl BenchConfig {
    /// A quick configuration for tests and smoke runs.
    pub fn quick(threads: usize) -> Self {
        BenchConfig {
            threads,
            duration: Duration::from_millis(200),
            warmup: Duration::from_millis(20),
            seed: 42,
            interactive: None,
        }
    }

    /// Sets the measured duration.
    pub fn with_duration(mut self, d: Duration) -> Self {
        self.duration = d;
        self
    }

    /// Sets the warm-up duration.
    pub fn with_warmup(mut self, d: Duration) -> Self {
        self.warmup = d;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs every worker's sessions in interactive mode with round trip
    /// `rpc`.
    pub fn interactive(mut self, rpc: Duration) -> Self {
        self.interactive = Some(rpc);
        self
    }
}

/// The measurement scaffold shared by [`run_bench`] and
/// [`run_part_bench`]: worker threads with warmup/measure switching over a
/// pre-allocated slab of cache-padded stats slots (written at commit rate
/// from different threads — the padding keeps neighbouring workers'
/// counters off each other's cache lines, and the slab is what lets the
/// scoped workers borrow instead of funnelling stats through join
/// handles).
///
/// A worker is its sessions, one per partition, built on its own thread
/// by `make_sessions` and made interactive when `cfg` says so: each spec
/// runs on the session of its [`TxnSpec::home_partition`], and the bytes
/// on the sessions' rings are the worker's `log_bytes` (lifetime
/// counters: warmup included).
fn drive_bench(
    protocol: &str,
    workload: &Arc<dyn Workload>,
    cfg: &BenchConfig,
    make_sessions: impl Fn() -> Vec<Session> + Sync,
) -> BenchResult {
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    // The warm-up clock starts once every worker has built its sessions
    // (a 16 MiB ring each): set-up must not eat into a measured window.
    let ready = std::sync::Barrier::new(cfg.threads + 1);
    let mut slots: Vec<CachePadded<WorkerStats>> = (0..cfg.threads)
        .map(|_| CachePadded::new(WorkerStats::default()))
        .collect();
    let total_time = cfg.warmup + cfg.duration + Duration::from_secs(30);
    let elapsed = std::thread::scope(|s| {
        for (w, slot) in slots.iter_mut().enumerate() {
            let seed = cfg.seed + w as u64;
            let (measuring, stop, ready, make_sessions) =
                (&measuring, &stop, &ready, &make_sessions);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed);
                let sessions: Vec<Session> = match cfg.interactive {
                    Some(rpc) => make_sessions()
                        .into_iter()
                        .map(|s| s.interactive(rpc))
                        .collect(),
                    None => make_sessions(),
                };
                ready.wait();
                let mut warm = WorkerStats::default();
                let measured: &mut WorkerStats = slot;
                let hard_deadline = Instant::now() + total_time;
                while !stop.load(Ordering::Relaxed) {
                    let spec = workload.generate(w, &mut rng);
                    let stats = if measuring.load(Ordering::Relaxed) {
                        &mut *measured
                    } else {
                        &mut warm
                    };
                    sessions[spec.home_partition() as usize % sessions.len()].run_reporting(
                        spec.as_ref(),
                        stats,
                        stop,
                        hard_deadline,
                    );
                }
                measured.log_bytes = sessions.iter().map(Session::log_bytes).sum();
            });
        }
        ready.wait();
        std::thread::sleep(cfg.warmup);
        // ordering: SeqCst — conservative fences around the measurement
        // window edges so no worker's transition straddles the timer reads
        // (off the hot path; workers poll with Relaxed loads).
        measuring.store(true, Ordering::SeqCst);
        let t0 = Instant::now();
        std::thread::sleep(cfg.duration);
        let elapsed = t0.elapsed();
        // ordering: SeqCst — see `measuring` above.
        stop.store(true, Ordering::SeqCst);
        elapsed
    });

    let mut totals = WorkerStats::default();
    for slot in &slots {
        totals.merge(slot);
    }
    BenchResult {
        protocol: protocol.to_string(),
        threads: cfg.threads,
        elapsed,
        totals,
    }
}

/// Runs `workload` under `proto` with `cfg` against one partition's view
/// (every spec runs there, whatever its home); returns the merged result.
pub fn run_bench(
    db: &Arc<Database>,
    proto: &Arc<dyn Protocol>,
    workload: &Arc<dyn Workload>,
    cfg: &BenchConfig,
) -> BenchResult {
    drive_bench(proto.name(), workload, cfg, || {
        vec![Session::new(Arc::clone(db), Arc::clone(proto))]
    })
}

/// [`run_bench`] over every partition: each worker owns one
/// [`PartSession`] and dispatches every generated transaction to the
/// session of its [`TxnSpec::home_partition`] — the partition-local fast
/// path when the spec's keys are home keys, transparent cross-partition
/// execution otherwise. On a database with durable partition logs (which
/// all workers share) the run's append volume is read from them rather
/// than from the workers' rings.
pub fn run_part_bench(
    pdb: &Arc<PartitionedDb>,
    proto: &Arc<dyn Protocol>,
    workload: &Arc<dyn Workload>,
    cfg: &BenchConfig,
) -> BenchResult {
    let log_before = pdb.log_bytes();
    let mut res = drive_bench(proto.name(), workload, cfg, || {
        PartSession::new(Arc::clone(pdb), Arc::clone(proto)).into_sessions()
    });
    // Includes warmup, like the rings' lifetime counters.
    res.totals.log_bytes += pdb.log_bytes() - log_before;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LockingProtocol;
    use bamboo_storage::{DataType, Row, Schema, TableId, Value};

    struct IncWorkload {
        table: TableId,
        keys: u64,
    }

    struct IncSpec {
        table: TableId,
        key: u64,
    }

    impl TxnSpec for IncSpec {
        fn planned_ops(&self) -> Option<usize> {
            Some(1)
        }

        fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
            txn.update(self.table, self.key, |row| {
                let v = row.get_i64(1);
                row.set(1, Value::I64(v + 1));
            })
        }
    }

    impl Workload for IncWorkload {
        fn name(&self) -> &str {
            "inc"
        }

        fn generate(&self, _worker: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
            use rand::Rng;
            Box::new(IncSpec {
                table: self.table,
                key: rng.gen_range(0..self.keys),
            })
        }
    }

    #[test]
    fn bench_executes_and_counts_consistently() {
        let mut b = Database::builder();
        let t = b.add_table(
            "kv",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        let db = b.build();
        for k in 0..4u64 {
            db.table(t)
                .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
        }
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let wl: Arc<dyn Workload> = Arc::new(IncWorkload { table: t, keys: 4 });
        let res = run_bench(&db, &proto, &wl, &BenchConfig::quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0, "some transactions must commit");
        assert!(res.throughput() > 0.0);
        // Conservation: the sum of counters equals total commits across
        // warmup + measurement — at least the measured commits.
        let sum: i64 = (0..4)
            .map(|k| db.table(t).get(k).unwrap().read_row().get_i64(1))
            .sum();
        assert!(
            sum >= res.totals.commits as i64,
            "each committed txn incremented exactly one counter"
        );
    }

    #[test]
    fn session_run_commits_and_respects_user_aborts() {
        use crate::txn::AbortReason;
        let mut b = Database::builder();
        let t = b.add_table(
            "kv",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        let db = b.build();
        db.table(t)
            .insert(0, Row::from(vec![Value::U64(0), Value::I64(0)]));
        let session = Session::new(
            Arc::clone(&db),
            Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
        );
        session.run(&IncSpec { table: t, key: 0 }).unwrap();
        assert_eq!(db.table(t).get(0).unwrap().read_row().get_i64(1), 1);

        struct UserAbort {
            table: TableId,
        }
        impl TxnSpec for UserAbort {
            fn run_piece(&self, _p: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
                txn.update(self.table, 0, |row| row.set(1, Value::I64(99)))?;
                Err(Abort(AbortReason::User))
            }
        }
        // User aborts are logical rollbacks: surfaced, not retried.
        assert_eq!(
            session.run(&UserAbort { table: t }),
            Err(Abort(AbortReason::User))
        );
        assert_eq!(
            db.table(t).get(0).unwrap().read_row().get_i64(1),
            1,
            "user-aborted write rolled back"
        );
        assert!(db.table(t).get(0).unwrap().meta.lock.lock().is_quiescent());
    }
}
