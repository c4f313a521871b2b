//! YCSB (paper §5.4): a single table with zipfian-skewed point accesses.
//!
//! The paper's setup: 100 M rows × 10 columns of 100-byte strings (>100
//! GB), 16 accesses per transaction, `read_ratio` controlling the
//! read/update mix, θ controlling skew, and a variant with 5% long
//! read-only transactions of 1000 accesses (Figure 7). Row count and field
//! width are scaled down by default (zipfian hotspot behaviour depends on
//! θ, not table bytes); both are configurable to paper scale.

use std::sync::Arc;

use bamboo_core::executor::{TxnSpec, Workload};
use bamboo_core::{Abort, Database, PartitionedDb, Txn};
use bamboo_storage::{DataType, PartitionId, RouteStrategy, Row, Schema, TableId, Value};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::zipf::Zipfian;

/// Number of payload fields (YCSB standard: 10).
pub const FIELDS: usize = 10;

/// YCSB configuration.
#[derive(Clone, Debug)]
pub struct YcsbConfig {
    /// Table rows (paper: 100 M; default scaled).
    pub rows: u64,
    /// Zipfian θ.
    pub theta: f64,
    /// Fraction of accesses that are reads (rest are updates).
    pub read_ratio: f64,
    /// Accesses per normal transaction (paper: 16).
    pub ops_per_txn: usize,
    /// Fraction of transactions that are long read-only scans (Figure 7:
    /// 0.05).
    pub long_ro_fraction: f64,
    /// Accesses per long read-only transaction (Figure 7: 1000).
    pub long_ro_ops: usize,
    /// Run the long read-only transactions in MVCC snapshot mode: reads
    /// resolve against the committed version chains with zero lock-manager
    /// interaction instead of taking SH locks (the "snapshot" series of
    /// the Figure-7 reproduction).
    pub snapshot_ro: bool,
    /// Partitions of the range-partitioned variant ([`load_partitioned`]):
    /// the row space splits into `partitions` contiguous ranges, each
    /// transaction is homed on one partition, and its keys are drawn from
    /// the home range unless the remote roll fires. 1 = one table shard.
    pub partitions: u32,
    /// Fraction of transactions (under `partitions > 1`) that draw their
    /// keys from the *global* zipfian instead of the home partition's
    /// range — genuine cross-partition transactions.
    pub remote_ratio: f64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            rows: 1 << 17, // 131072
            theta: 0.9,
            read_ratio: 0.5,
            ops_per_txn: 16,
            long_ro_fraction: 0.0,
            long_ro_ops: 1000,
            snapshot_ro: false,
            partitions: 1,
            remote_ratio: 0.0,
        }
    }
}

impl YcsbConfig {
    /// Sets θ.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Sets the read ratio.
    pub fn with_read_ratio(mut self, rr: f64) -> Self {
        self.read_ratio = rr;
        self
    }

    /// Sets the row count.
    pub fn with_rows(mut self, rows: u64) -> Self {
        self.rows = rows;
        self
    }

    /// Enables the Figure-7 long read-only mix.
    pub fn with_long_readonly(mut self, fraction: f64, ops: usize) -> Self {
        self.long_ro_fraction = fraction;
        self.long_ro_ops = ops;
        self
    }

    /// Runs the long read-only transactions as lock-free MVCC snapshots.
    pub fn with_snapshot_readonly(mut self, on: bool) -> Self {
        self.snapshot_ro = on;
        self
    }

    /// Range-partitions the table into `partitions` shards with
    /// `remote_ratio` of transactions drawing keys globally (loaded via
    /// [`load_partitioned`]).
    pub fn with_partitions(mut self, partitions: u32, remote_ratio: f64) -> Self {
        self.partitions = partitions.max(1);
        self.remote_ratio = remote_ratio;
        self
    }

    /// Rows per partition (the last partition absorbs the remainder).
    pub fn rows_per_partition(&self) -> u64 {
        self.rows / self.partitions.max(1) as u64
    }
}

/// Loads the YCSB table on one partition, whatever `cfg.partitions` says,
/// and hands out that partition: [`load_partitioned`] with one shard.
pub fn load(cfg: &YcsbConfig) -> (Arc<Database>, TableId) {
    let (pdb, t) = load_partitioned(&cfg.clone().with_partitions(1, 0.0));
    (Arc::clone(pdb.db(PartitionId(0))), t)
}

/// Loads the YCSB table: key + 10 integer payload fields. (The paper's 100-
/// byte string fields only scale the memcpy cost of row copies; integers
/// keep the scaled-down table cache-resident the way the paper's table is
/// DRAM-resident.) Range-partitioned: partition `p` owns the
/// contiguous key range `[p * rows/n, (p+1) * rows/n)` (the last partition
/// absorbs the remainder), so a partition-homed transaction can sample
/// keys it is guaranteed to own.
pub fn load_partitioned(cfg: &YcsbConfig) -> (Arc<PartitionedDb>, TableId) {
    let n = cfg.partitions.max(1);
    let per = cfg.rows_per_partition();
    let bounds: Vec<u64> = (1..n as u64).map(|i| i * per).collect();
    let mut b = PartitionedDb::builder(n);
    let t = b.add_table_with_capacity(
        "usertable",
        ycsb_schema(),
        cfg.rows as usize,
        RouteStrategy::Range(bounds),
    );
    let pdb = b.build();
    for k in 0..cfg.rows {
        pdb.insert(t, k, ycsb_row(k));
    }
    (pdb, t)
}

fn ycsb_schema() -> Schema {
    let mut schema = Schema::build().column("key", DataType::U64);
    for f in 0..FIELDS {
        schema = schema.column(&format!("f{f}"), DataType::U64);
    }
    schema
}

fn ycsb_row(k: u64) -> Row {
    let mut vals = Vec::with_capacity(FIELDS + 1);
    vals.push(Value::U64(k));
    for f in 0..FIELDS {
        vals.push(Value::U64(k.wrapping_mul(31).wrapping_add(f as u64)));
    }
    Row::from(vals)
}

struct YcsbOp {
    key: u64,
    field: usize,
    write: bool,
    value: u64,
}

struct YcsbTxn {
    table: TableId,
    ops: Vec<YcsbOp>,
    snapshot: bool,
    home: u32,
}

impl TxnSpec for YcsbTxn {
    fn planned_ops(&self) -> Option<usize> {
        Some(self.ops.len())
    }

    fn read_only_snapshot(&self) -> bool {
        self.snapshot
    }

    fn home_partition(&self) -> u32 {
        self.home
    }

    fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        // Every key is known up front: start all their cache misses before
        // the first lock request.
        txn.prefetch(self.ops.iter().map(|op| (self.table, op.key)));
        for op in &self.ops {
            if op.write {
                let (field, value) = (op.field, op.value);
                txn.update(self.table, op.key, move |row| {
                    row.set(field + 1, Value::U64(value));
                })?;
            } else {
                let row = txn.read(self.table, op.key)?;
                std::hint::black_box(row.get_u64(op.field + 1));
            }
        }
        Ok(())
    }
}

/// YCSB transaction generator.
pub struct YcsbWorkload {
    cfg: YcsbConfig,
    table: TableId,
    zipf: Zipfian,
    /// Zipfian over one partition's row range (`partitions > 1` only):
    /// partition-homed transactions skew within their own range, so every
    /// partition reproduces the hotspot locally.
    part_zipf: Option<Zipfian>,
}

impl YcsbWorkload {
    /// Builds the generator (precomputes the zipfian tables).
    pub fn new(cfg: YcsbConfig, table: TableId) -> Self {
        let zipf = Zipfian::new(cfg.rows, cfg.theta);
        let part_zipf =
            (cfg.partitions > 1).then(|| Zipfian::new(cfg.rows_per_partition().max(1), cfg.theta));
        YcsbWorkload {
            cfg,
            table,
            zipf,
            part_zipf,
        }
    }

    /// Draws `n` distinct keys (distinct keys avoid intra-transaction
    /// upgrades, matching DBx1000's YCSB driver) from `zipf`, offset by
    /// `base` (the home partition's range start; 0 for global draws).
    fn distinct_keys(&self, zipf: &Zipfian, base: u64, n: usize, rng: &mut SmallRng) -> Vec<u64> {
        let mut keys: Vec<u64> = Vec::with_capacity(n);
        let mut attempts = 0;
        while keys.len() < n {
            let k = base + zipf.sample(rng);
            attempts += 1;
            if attempts > 16 * n || !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys
    }
}

impl Workload for YcsbWorkload {
    fn name(&self) -> &str {
        "ycsb"
    }

    fn generate(&self, _worker: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        // Each transaction is homed on one partition; the remote roll
        // makes it draw keys globally instead (a genuine cross-partition
        // transaction). One-partition configs are always home-partition 0.
        let home = if self.cfg.partitions > 1 {
            rng.gen_range(0..self.cfg.partitions)
        } else {
            0
        };
        let remote = self.cfg.partitions > 1 && rng.gen::<f64>() < self.cfg.remote_ratio;
        let (zipf, base) = match (&self.part_zipf, remote) {
            (Some(pz), false) => (pz, home as u64 * self.cfg.rows_per_partition()),
            _ => (&self.zipf, 0),
        };
        let long_ro =
            self.cfg.long_ro_fraction > 0.0 && rng.gen::<f64>() < self.cfg.long_ro_fraction;
        if long_ro {
            // Long read-only scans: zipfian reads without the distinctness
            // requirement (repeats become cached re-reads, like a real
            // scan's locality).
            let ops = (0..self.cfg.long_ro_ops)
                .map(|_| YcsbOp {
                    key: base + zipf.sample(rng),
                    field: rng.gen_range(0..FIELDS),
                    write: false,
                    value: 0,
                })
                .collect();
            return Box::new(YcsbTxn {
                table: self.table,
                ops,
                snapshot: self.cfg.snapshot_ro,
                home,
            });
        }
        let keys = self.distinct_keys(zipf, base, self.cfg.ops_per_txn, rng);
        let ops = keys
            .into_iter()
            .map(|key| {
                let write = rng.gen::<f64>() >= self.cfg.read_ratio;
                YcsbOp {
                    key,
                    field: rng.gen_range(0..FIELDS),
                    write,
                    value: rng.gen(),
                }
            })
            .collect();
        Box::new(YcsbTxn {
            table: self.table,
            ops,
            snapshot: false,
            home,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_core::executor::{run_bench, BenchConfig};
    use bamboo_core::protocol::{LockingProtocol, Protocol, SiloProtocol};
    use rand::SeedableRng;

    fn small_cfg() -> YcsbConfig {
        YcsbConfig {
            rows: 4096,
            theta: 0.9,
            read_ratio: 0.5,
            ops_per_txn: 8,
            long_ro_fraction: 0.0,
            long_ro_ops: 64,
            snapshot_ro: false,
            partitions: 1,
            remote_ratio: 0.0,
        }
    }

    #[test]
    fn loader_populates_rows() {
        let cfg = small_cfg();
        let (db, t) = load(&cfg);
        assert_eq!(db.table(t).len(), 4096);
        let row = db.table(t).get(7).unwrap().read_row();
        assert_eq!(row.len(), FIELDS + 1);
        assert_eq!(row.get_u64(0), 7);
    }

    #[test]
    fn distinct_keys_are_distinct() {
        let cfg = small_cfg();
        let wl = YcsbWorkload::new(cfg, TableId(0));
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..50 {
            let keys = wl.distinct_keys(&wl.zipf, 0, 8, &mut rng);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), keys.len());
        }
    }

    #[test]
    fn partitioned_loader_splits_the_row_space() {
        let mut cfg = small_cfg();
        cfg.partitions = 4;
        let (pdb, t) = load_partitioned(&cfg);
        assert_eq!(pdb.partitions(), 4);
        assert_eq!(pdb.total_rows(), 4096);
        for p in 0..4u32 {
            let shard = pdb.table(bamboo_storage::PartitionId(p), t);
            assert_eq!(shard.len(), 1024, "partition {p} owns its quarter");
            assert!(shard.get(p as u64 * 1024).is_some());
        }
    }

    #[test]
    fn partitioned_bench_commits_and_counts_cross_partition_share() {
        use bamboo_core::executor::run_part_bench;
        let mut cfg = small_cfg();
        cfg.partitions = 2;
        cfg.remote_ratio = 0.5;
        let (pdb, t) = load_partitioned(&cfg);
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
        let res = run_part_bench(&pdb, &proto, &wl, &BenchConfig::quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0);
        assert!(
            res.totals.cross_partition_commits > 0,
            "remote_ratio=0.5 must produce cross-partition commits"
        );
        assert!(res.cross_partition_share() < 1.0, "home draws stay local");
        assert!(
            res.totals.log_bytes > 0,
            "commits land on the workers' rings"
        );

        // remote_ratio = 0: every transaction stays on its home partition.
        let mut local = small_cfg();
        local.partitions = 2;
        local.remote_ratio = 0.0;
        let (pdb, t) = load_partitioned(&local);
        let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(local.clone(), t));
        let res = run_part_bench(&pdb, &proto, &wl, &BenchConfig::quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0);
        assert_eq!(
            res.totals.cross_partition_commits, 0,
            "remote_ratio=0 keeps every transaction single-partition"
        );
    }

    #[test]
    fn long_ro_mix_generates_long_txns() {
        let mut cfg = small_cfg();
        cfg.long_ro_fraction = 1.0;
        cfg.long_ro_ops = 100;
        let wl = YcsbWorkload::new(cfg, TableId(0));
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = wl.generate(0, &mut rng);
        assert_eq!(spec.planned_ops(), Some(100));
    }

    #[test]
    fn snapshot_long_ro_commits_lock_free() {
        let mut cfg = small_cfg();
        cfg.long_ro_fraction = 0.3;
        cfg.long_ro_ops = 64;
        cfg.snapshot_ro = true;
        let (db, t) = load(&cfg);
        for proto in [
            Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
            Arc::new(SiloProtocol::new()) as Arc<dyn Protocol>,
        ] {
            let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
            let res = run_bench(&db, &proto, &wl, &BenchConfig::quick(2));
            assert_eq!(
                res.wait_timeouts(),
                0,
                "{} fired a wait backstop",
                res.protocol
            );
            assert!(
                res.totals.snapshot_commits > 0,
                "{}: snapshot transactions must commit",
                res.protocol
            );
            assert_eq!(
                res.totals.snapshot_lock_acquisitions, 0,
                "{}: snapshot mode must never touch the lock manager",
                res.protocol
            );
            assert_eq!(
                res.totals.snapshot_aborts, 0,
                "{}: snapshot readers can neither block nor abort",
                res.protocol
            );
        }
    }

    #[test]
    fn runs_under_bamboo_and_silo() {
        let cfg = small_cfg();
        let (db, t) = load(&cfg);
        for proto in [
            Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
            Arc::new(SiloProtocol::new()) as Arc<dyn Protocol>,
        ] {
            let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
            let res = run_bench(&db, &proto, &wl, &BenchConfig::quick(2));
            assert_eq!(
                res.wait_timeouts(),
                0,
                "{} fired a wait backstop",
                res.protocol
            );
            assert!(
                res.totals.commits > 0,
                "{} must commit transactions",
                res.protocol
            );
        }
    }
}
