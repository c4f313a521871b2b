//! The five workloads: how each is loaded, run, and checked.
//!
//! All run in stored-procedure mode with the repository's default table
//! sizes, so they line up with the figure benches. Why each is here is in
//! `README.md` and in `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bamboo_core::executor::Workload;
use bamboo_core::protocol::{LockingProtocol, Protocol};
use bamboo_core::{Database, DbOptions, PartitionedDb, RecoveryReport, TupleCc};
use bamboo_storage::{DataType, FsyncPolicy, RouteStrategy, Row, Schema, Table, TableId, Value};
use bamboo_workload::tpcc::{self, schema as tpcc_schema, TpccTables};
use bamboo_workload::{synthetic, ycsb, SyntheticConfig, TpccConfig, YcsbConfig};

use crate::driver::TransferMix;

/// Accounts on each of the durable workload's two partitions.
pub const ACCOUNTS_PER_PARTITION: u64 = 65_536;
/// Share of transfers that cross partitions.
pub const CROSS_SHARE: f64 = 0.25;
const INITIAL_BALANCE: i64 = 1_000_000;
/// The durable workload's flush policy. Part of the workload's definition:
/// it never varies between the two sides of a comparison.
pub const FLUSH_POLICY: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 64,
    max_wait_us: 100,
};

/// A directory under the benchmark's scratch root, removed when dropped —
/// on success, on a failed check and on a panic alike.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `root/<pid>-<tag>` afresh.
    pub fn new(root: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = root.join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// TPC-C's Payment sums, taken before and after the run.
#[derive(Clone, Copy, Debug)]
pub struct PaymentSums {
    w_ytd: f64,
    d_ytd: f64,
    c_balance: f64,
}

/// What an in-memory workload's correctness check needs beyond the common
/// checks.
pub enum MemoryCheck {
    /// The hot row's counter equals the committed transactions.
    HotRow(TableId),
    /// Nothing beyond the checks every in-memory workload gets.
    CommonOnly,
    /// The Payment invariant against the sums taken after loading.
    Payment(TpccTables, PaymentSums),
}

/// A loaded in-memory workload.
pub struct MemoryWorkload {
    /// The database.
    pub db: Arc<Database>,
    /// The protocol every worker's session runs.
    pub proto: Arc<dyn Protocol>,
    /// The generator.
    pub workload: Arc<dyn Workload>,
    /// The table the per-layer probes read (the one most accesses go to).
    pub main_table: TableId,
    /// The workload-specific check.
    pub check: MemoryCheck,
}

/// The loaded durable workload.
pub struct DurableWorkload {
    /// The two-partition bank.
    pub db: Arc<PartitionedDb>,
    /// The transfer generator.
    pub mix: TransferMix,
    /// Wall time of the genesis checkpoint (part of set-up).
    pub checkpoint_ms: f64,
    /// The log directory.
    pub dir: TempDir,
}

/// A loaded workload.
pub enum Loaded {
    /// Monolithic database, ring WAL.
    Memory(MemoryWorkload),
    /// Partitioned database, file-backed WAL under group commit.
    Durable(DurableWorkload),
}

/// Loads `name`. The durable workload's log goes under `scratch`.
pub fn load(name: &str, scratch: &Path) -> Result<Loaded, String> {
    let bamboo = || Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>;
    Ok(match name {
        "hotspot" | "hotspot_ww" => {
            let cfg = SyntheticConfig::one_hotspot(0.0);
            let (db, table) = synthetic::load(&cfg);
            let proto = if name == "hotspot" {
                bamboo()
            } else {
                Arc::new(LockingProtocol::wound_wait())
            };
            Loaded::Memory(MemoryWorkload {
                db,
                proto,
                workload: Arc::new(synthetic::SyntheticWorkload::new(cfg, table)),
                main_table: table,
                check: MemoryCheck::HotRow(table),
            })
        }
        "ycsb_zipf" => {
            let cfg = YcsbConfig::default();
            let (db, table) = ycsb::load(&cfg);
            Loaded::Memory(MemoryWorkload {
                db,
                proto: bamboo(),
                workload: Arc::new(ycsb::YcsbWorkload::new(cfg, table)),
                main_table: table,
                check: MemoryCheck::CommonOnly,
            })
        }
        "tpcc_1wh" => {
            let cfg = TpccConfig::default().with_readonly(0.08, true);
            let (db, tables, lastname) = tpcc::load(&cfg);
            let before = payment_sums(&db, &tables);
            Loaded::Memory(MemoryWorkload {
                db: Arc::clone(&db),
                proto: bamboo(),
                workload: Arc::new(tpcc::TpccWorkload::new(cfg, db, tables, lastname)),
                main_table: tables.stock,
                check: MemoryCheck::Payment(tables, before),
            })
        }
        "durable_transfer" => {
            let dir = TempDir::new(scratch, "wal").map_err(|e| format!("log directory: {e}"))?;
            let mut b = PartitionedDb::builder(2);
            let table = b.add_table_with_capacity(
                "accounts",
                Schema::build()
                    .column("k", DataType::U64)
                    .column("v", DataType::I64),
                2 * ACCOUNTS_PER_PARTITION as usize,
                RouteStrategy::Range(vec![ACCOUNTS_PER_PARTITION]),
            );
            b.with_options(
                DbOptions::new()
                    .with_wal_dir(dir.path())
                    .with_fsync_policy(FLUSH_POLICY),
            );
            let db = b.build();
            for a in 0..2 * ACCOUNTS_PER_PARTITION {
                db.insert(
                    table,
                    a,
                    Row::from(vec![Value::U64(a), Value::I64(INITIAL_BALANCE)]),
                );
            }
            // Loader inserts bypass the WAL: without the genesis checkpoint
            // nothing is recoverable.
            let t0 = std::time::Instant::now();
            db.checkpoint()
                .map_err(|e| format!("genesis checkpoint: {e}"))?;
            let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
            Loaded::Durable(DurableWorkload {
                db,
                mix: TransferMix {
                    table,
                    accounts_per_partition: ACCOUNTS_PER_PARTITION,
                    cross_share: CROSS_SHARE,
                },
                checkpoint_ms,
                dir,
            })
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn tuples(
    table: &Table<TupleCc>,
) -> impl Iterator<Item = Arc<bamboo_storage::Tuple<TupleCc>>> + '_ {
    (0..table.len() as u64).filter_map(|id| table.get_by_row_id(id))
}

fn payment_sums(db: &Database, t: &TpccTables) -> PaymentSums {
    let sum = |table: TableId, col: usize| -> f64 {
        tuples(db.table(table))
            .map(|tup| tup.with_row(|r| r.get_f64(col)))
            .sum()
    };
    PaymentSums {
        w_ytd: sum(t.warehouse, tpcc_schema::wh::W_YTD),
        d_ytd: sum(t.district, tpcc_schema::dist::D_YTD),
        c_balance: sum(t.customer, tpcc_schema::cust::C_BALANCE),
    }
}

/// State of a quiesced in-memory database, read after the workers stopped.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndState {
    /// Tuples whose lock entry is not quiescent (must be 0).
    pub nonquiescent_tuples: u64,
    /// Live snapshot registrations (must be 0).
    pub snapshots_active: u64,
    /// Longest retained version chain.
    pub retained_max: u64,
    /// Commit clock's stable point minus the published GC watermark.
    pub watermark_lag: u64,
}

/// Reads the end state of `db` and appends a line to `errors` for each
/// violated condition.
pub fn check_end_state(db: &Database, errors: &mut Vec<String>) -> EndState {
    let mut end = EndState::default();
    for table in db.catalog().tables() {
        for tup in tuples(table) {
            if !tup.meta.lock.lock().is_quiescent() {
                end.nonquiescent_tuples += 1;
            }
            end.retained_max = end.retained_max.max(tup.retained_versions() as u64);
        }
    }
    end.snapshots_active = db.snapshots.active_count() as u64;
    end.watermark_lag = db.commit_clock.stable().saturating_sub(db.gc_watermark());
    if end.nonquiescent_tuples > 0 {
        errors.push(format!(
            "{} tuples still hold lock entries after the run",
            end.nonquiescent_tuples
        ));
    }
    if end.snapshots_active > 0 {
        errors.push(format!(
            "{} snapshots still registered after the run",
            end.snapshots_active
        ));
    }
    // The chain trims against a watermark that is republished every
    // `epoch_commits` commits, so a quiesced chain may retain that many
    // versions past the trim threshold; far beyond that is a leak.
    let bound = db.trim_threshold() as u64 + 16 * db.options().epoch_commits;
    if end.retained_max > bound {
        errors.push(format!(
            "a version chain retains {} versions (leak bound {bound})",
            end.retained_max
        ));
    }
    end
}

/// Runs the workload-specific check of an in-memory workload. `committed`
/// counts every committed transaction since loading, warm-up included.
pub fn check_memory(w: &MemoryWorkload, committed: u64, errors: &mut Vec<String>) {
    match &w.check {
        MemoryCheck::HotRow(table) => {
            let hot =
                w.db.table(*table)
                    .get(0)
                    .expect("hot row exists")
                    .with_row(|r| r.get_i64(1));
            if hot != committed as i64 {
                errors.push(format!(
                    "hot row counts {hot} increments, {committed} transactions committed"
                ));
            }
        }
        MemoryCheck::CommonOnly => {}
        MemoryCheck::Payment(tables, before) => {
            let after = payment_sums(&w.db, tables);
            let dw = after.w_ytd - before.w_ytd;
            let dd = after.d_ytd - before.d_ytd;
            let dc = before.c_balance - after.c_balance;
            // Sums of f64 amounts taken in different orders: equal up to
            // rounding, not bit for bit.
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-7 * a.abs().max(b.abs()).max(1.0);
            if !(close(dw, dd) && close(dw, dc)) {
                errors.push(format!(
                    "Payment invariant broken: ΔΣW_YTD={dw} ΔΣD_YTD={dd} −ΔΣC_BALANCE={dc}"
                ));
            }
        }
    }
}

/// What the durable workload's crash-and-recover check measured.
pub struct Recovered {
    /// The recovery report.
    pub report: RecoveryReport,
    /// Wall time of `PartitionedDb::recover`.
    pub recover_ms: f64,
    /// Redo bytes in the log at the crash.
    pub log_bytes: u64,
}

/// Ends the durable run: final `sync`, snapshot of every balance, drop the
/// database, `recover` from its directory, compare. `staged` counts the
/// transfers committed since the genesis checkpoint. Returns the recovered
/// database and what recovery measured.
pub fn crash_and_recover(
    w: DurableWorkload,
    staged: u64,
    errors: &mut Vec<String>,
) -> Result<(Arc<PartitionedDb>, Recovered), String> {
    let DurableWorkload { db, mix, dir, .. } = w;
    for p in db.parts() {
        p.wal().sync().map_err(|e| format!("final sync: {e:?}"))?;
    }
    if db.degraded_partitions() > 0 {
        errors.push(format!("{} partitions degraded", db.degraded_partitions()));
    }
    let balances = |db: &PartitionedDb| -> Vec<i64> {
        (0..2 * mix.accounts_per_partition)
            .map(|a| {
                db.table(db.route(mix.table, a), mix.table)
                    .get(a)
                    .expect("account exists")
                    .with_row(|r| r.get_i64(1))
            })
            .collect()
    };
    let before = balances(&db);
    let total: i64 = before.iter().sum();
    let expected = INITIAL_BALANCE * 2 * mix.accounts_per_partition as i64;
    if total != expected {
        errors.push(format!("balances sum to {total}, loaded {expected}"));
    }
    let log_bytes = db.log_bytes();
    drop(db);

    let t0 = std::time::Instant::now();
    let (recovered, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.path())
            .with_fsync_policy(FLUSH_POLICY),
    )
    .map_err(|e| format!("recover: {e}"))?;
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    if report.replayed_txns != staged {
        errors.push(format!(
            "recovery replayed {} transactions, {staged} committed since the checkpoint",
            report.replayed_txns
        ));
    }
    let after = balances(&recovered);
    let differing = before.iter().zip(&after).filter(|(a, b)| a != b).count();
    if differing > 0 {
        errors.push(format!(
            "{differing} accounts differ after recovery from their value before the crash"
        ));
    }
    // The recovered database lives on in memory (the probes read its
    // table); its directory goes now.
    drop(dir);
    Ok((
        recovered,
        Recovered {
            report,
            recover_ms,
            log_bytes,
        },
    ))
}
