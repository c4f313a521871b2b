//! TPC-C (paper §5.5–5.6): 50% NewOrder / 50% Payment, 1% of NewOrders
//! rolled back by an invalid item.

pub mod loader;
pub mod readonly;
pub mod schema;
pub mod templates;
pub mod txns;

use bamboo_core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bamboo_core::executor::{TxnSpec, Workload};
use bamboo_core::{Database, PartitionedDb};
use bamboo_storage::SecondaryIndex;
use rand::rngs::SmallRng;
use rand::Rng;

pub use loader::{load, load_partitioned, TpccTables};
use readonly::{OrderStatusTxn, StockLevelTxn};
use schema::*;
pub use templates::templates;
use txns::{history_key, NewOrderTxn, OrderLineReq, PaymentTxn, INVALID_ITEM};

/// TPC-C configuration.
#[derive(Clone, Debug)]
pub struct TpccConfig {
    /// Number of warehouses (the paper sweeps {16,8,4,2,1}; 1 is the
    /// high-contention case).
    pub warehouses: u64,
    /// Items (TPC-C spec: 100 000; default scaled).
    pub items: u64,
    /// Customers per district (spec: 3000; default scaled).
    pub customers_per_district: u64,
    /// Fraction of NewOrders rolled back via an invalid item (spec &
    /// paper: 1%).
    pub rollback_fraction: f64,
    /// Fraction of Payments that pay for a remote customer (spec: 15%).
    pub remote_payment_fraction: f64,
    /// Per-line probability of a remote supplying warehouse (spec: 1%).
    pub remote_stock_fraction: f64,
    /// Figure 11c's modified NewOrder: also read W_YTD.
    pub neworder_reads_wytd: bool,
    /// Extension beyond the paper's mix: fraction of transactions that are
    /// read-only OrderStatus/StockLevel (0 = the paper's pure
    /// NewOrder/Payment mix).
    pub readonly_fraction: f64,
    /// Run the read-only transactions as lock-free MVCC snapshots instead
    /// of locking readers.
    pub readonly_snapshot: bool,
    /// Warehouse partitioning ([`load_partitioned`]): warehouse `w` lives
    /// on partition `w % partitions`, `item` is replicated. 1 = every
    /// warehouse on one partition. Remote-warehouse payments and
    /// remote-stock order lines become genuine cross-partition
    /// transactions.
    pub partitions: u64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 1,
            items: 10_000,
            customers_per_district: 1_000,
            rollback_fraction: 0.01,
            remote_payment_fraction: 0.15,
            remote_stock_fraction: 0.01,
            neworder_reads_wytd: false,
            readonly_fraction: 0.0,
            readonly_snapshot: false,
            partitions: 1,
        }
    }
}

impl TpccConfig {
    /// Sets the warehouse count.
    pub fn with_warehouses(mut self, w: u64) -> Self {
        self.warehouses = w;
        self
    }

    /// Enables the Figure-11c modified NewOrder.
    pub fn with_neworder_reads_wytd(mut self, on: bool) -> Self {
        self.neworder_reads_wytd = on;
        self
    }

    /// Enables a read-only OrderStatus/StockLevel fraction, optionally in
    /// lock-free MVCC snapshot mode.
    pub fn with_readonly(mut self, fraction: f64, snapshot: bool) -> Self {
        self.readonly_fraction = fraction;
        self.readonly_snapshot = snapshot;
        self
    }

    /// Sets the partition count (warehouse `w` → partition
    /// `w % partitions`; load through [`load_partitioned`]).
    pub fn with_partitions(mut self, partitions: u64) -> Self {
        self.partitions = partitions.max(1);
        self
    }

    /// Sets both remote knobs at once — one "remote ratio": `r` is the
    /// fraction of Payments paying a remote customer *and* the per-line
    /// probability of a remote supplying warehouse. 0 makes every transaction single-warehouse
    /// (and, partitioned, single-partition).
    pub fn with_remote_ratio(mut self, r: f64) -> Self {
        self.remote_payment_fraction = r;
        self.remote_stock_fraction = r;
        self
    }
}

/// TPC-C transaction generator over a warehouse-partitioned database
/// ([`TpccWorkload::new_partitioned`]; [`TpccWorkload::new`] is its
/// one-partition case). The partition count only decides which partition's
/// customer shard resolves the by-last-name lookup and which home
/// partition each spec carries.
pub struct TpccWorkload {
    cfg: TpccConfig,
    /// One database view per partition.
    dbs: Vec<Arc<Database>>,
    tables: TpccTables,
    /// The per-partition customer-by-last-name indexes (parallel to
    /// `dbs`).
    lastname: Vec<Arc<SecondaryIndex>>,
    history_seq: AtomicU64,
}

impl TpccWorkload {
    /// Builds the generator over the one partition [`load`] hands out.
    pub fn new(
        cfg: TpccConfig,
        db: Arc<Database>,
        tables: TpccTables,
        lastname_idx: Arc<SecondaryIndex>,
    ) -> Self {
        Self::over(cfg, vec![db], tables, vec![lastname_idx])
    }

    /// Builds the generator over a warehouse-partitioned database (the
    /// triple returned by [`load_partitioned`]).
    pub fn new_partitioned(
        cfg: TpccConfig,
        pdb: &Arc<PartitionedDb>,
        tables: TpccTables,
        lastname: Vec<Arc<SecondaryIndex>>,
    ) -> Self {
        let dbs = pdb.parts().iter().map(|p| Arc::clone(p.db())).collect();
        Self::over(cfg, dbs, tables, lastname)
    }

    fn over(
        cfg: TpccConfig,
        dbs: Vec<Arc<Database>>,
        tables: TpccTables,
        lastname: Vec<Arc<SecondaryIndex>>,
    ) -> Self {
        assert_eq!(
            lastname.len(),
            dbs.len(),
            "one lastname index per partition"
        );
        TpccWorkload {
            cfg,
            dbs,
            tables,
            lastname,
            history_seq: AtomicU64::new(1),
        }
    }

    /// The loaded table ids.
    pub fn tables(&self) -> TpccTables {
        self.tables
    }

    /// The IC3 templates matching this configuration.
    pub fn ic3_templates(&self) -> Vec<bamboo_core::protocol::TemplateDecl> {
        templates(&self.tables, self.cfg.neworder_reads_wytd)
    }

    /// The shard (and home partition) of warehouse `w` — `w % partitions`,
    /// matching the router's `ShiftDiv` mapping.
    fn shard(&self, w: u64) -> usize {
        (w % self.dbs.len() as u64) as usize
    }

    fn gen_new_order(&self, rng: &mut SmallRng) -> NewOrderTxn {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(0..DISTRICTS_PER_WAREHOUSE);
        let c = nurand(rng, 1023, 0, self.cfg.customers_per_district - 1);
        let n_lines = rng.gen_range(5..=15);
        let rollback = rng.gen::<f64>() < self.cfg.rollback_fraction;
        let mut lines: Vec<OrderLineReq> = (0..n_lines)
            .map(|_| {
                let supply_w = if self.cfg.warehouses > 1
                    && rng.gen::<f64>() < self.cfg.remote_stock_fraction
                {
                    // Any other warehouse.
                    let mut s = rng.gen_range(0..self.cfg.warehouses - 1);
                    if s >= w {
                        s += 1;
                    }
                    s
                } else {
                    w
                };
                OrderLineReq {
                    item: nurand(rng, 8191, 0, self.cfg.items - 1),
                    supply_w,
                    quantity: rng.gen_range(1..=10),
                }
            })
            .collect();
        // Deterministic global acquisition order prevents intra-piece
        // deadlocks (IC3) and reduces wound churn (2PL).
        lines.sort_by_key(|l| (l.supply_w, l.item));
        lines.dedup_by_key(|l| (l.supply_w, l.item));
        if rollback {
            // The invalid item is discovered at the item check, after the
            // district increment (TPC-C 2.4.1.5).
            let last = lines.len() - 1;
            lines[last].item = INVALID_ITEM;
        }
        NewOrderTxn {
            tables: self.tables,
            w,
            d,
            c_key: cust_key(w, d, c, self.cfg.customers_per_district),
            lines,
            items_per_wh: self.cfg.items,
            read_wytd: self.cfg.neworder_reads_wytd,
            home: self.shard(w) as u32,
        }
    }

    fn gen_payment(&self, rng: &mut SmallRng) -> PaymentTxn {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(0..DISTRICTS_PER_WAREHOUSE);
        // 15% remote customer (when possible).
        let (c_w, c_d) =
            if self.cfg.warehouses > 1 && rng.gen::<f64>() < self.cfg.remote_payment_fraction {
                let mut rw = rng.gen_range(0..self.cfg.warehouses - 1);
                if rw >= w {
                    rw += 1;
                }
                (rw, rng.gen_range(0..DISTRICTS_PER_WAREHOUSE))
            } else {
                (w, d)
            };
        // 60% by last name through the secondary index, 40% by id. The
        // lookup resolves against the *customer's* partition — its shard
        // holds the by-last-name index and the row.
        let c_shard = self.shard(c_w);
        let c_key = if rng.gen::<f64>() < 0.6 {
            let name_num = nurand(rng, 255, 0, LAST_NAMES - 1);
            let keys = self.lastname[c_shard].get(lastname_index_key(c_w, c_d, name_num));
            if keys.is_empty() {
                cust_key(
                    c_w,
                    c_d,
                    nurand(rng, 1023, 0, self.cfg.customers_per_district - 1),
                    self.cfg.customers_per_district,
                )
            } else {
                // Midpoint of the matching customers (spec: n/2 rounded up
                // in first-name order; the loader inserts in first-name
                // order).
                keys[keys.len() / 2]
            }
        } else {
            cust_key(
                c_w,
                c_d,
                nurand(rng, 1023, 0, self.cfg.customers_per_district - 1),
                self.cfg.customers_per_district,
            )
        };
        PaymentTxn {
            tables: self.tables,
            w,
            d,
            c_key,
            amount: rng.gen_range(1.0..5000.0),
            h_key: history_key(w, self.history_seq.fetch_add(1, Ordering::Relaxed)),
            home: self.shard(w) as u32,
        }
    }
}

impl Workload for TpccWorkload {
    fn name(&self) -> &str {
        "tpcc"
    }

    fn generate(&self, _worker: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        if self.cfg.readonly_fraction > 0.0 && rng.gen::<f64>() < self.cfg.readonly_fraction {
            let w = rng.gen_range(0..self.cfg.warehouses);
            let d = rng.gen_range(0..DISTRICTS_PER_WAREHOUSE);
            if rng.gen_bool(0.5) {
                return Box::new(OrderStatusTxn {
                    tables: self.tables,
                    w,
                    d,
                    c_key: cust_key(
                        w,
                        d,
                        nurand(rng, 1023, 0, self.cfg.customers_per_district - 1),
                        self.cfg.customers_per_district,
                    ),
                    snapshot: self.cfg.readonly_snapshot,
                    home: self.shard(w) as u32,
                });
            }
            return Box::new(StockLevelTxn {
                tables: self.tables,
                w,
                d,
                threshold: rng.gen_range(10..=20),
                items_per_wh: self.cfg.items,
                snapshot: self.cfg.readonly_snapshot,
                home: self.shard(w) as u32,
            });
        }
        // The paper: "50% new-order transactions and 50% payment".
        if rng.gen_bool(0.5) {
            Box::new(self.gen_new_order(rng))
        } else {
            Box::new(self.gen_payment(rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_core::executor::{run_bench, BenchConfig};
    use bamboo_core::protocol::{Ic3Protocol, LockingProtocol, Protocol, SiloProtocol};
    use rand::SeedableRng;

    fn tiny_cfg() -> TpccConfig {
        TpccConfig {
            warehouses: 1,
            items: 200,
            customers_per_district: 50,
            ..TpccConfig::default()
        }
    }

    fn build(cfg: &TpccConfig) -> (Arc<Database>, Arc<TpccWorkload>) {
        let (db, tables, idx) = load(cfg);
        let wl = Arc::new(TpccWorkload::new(cfg.clone(), Arc::clone(&db), tables, idx));
        (db, wl)
    }

    /// Sums across warehouses / districts / customers for the money
    /// conservation invariant.
    fn money_totals(db: &Database, t: &TpccTables) -> (f64, f64, f64) {
        let mut w_ytd = 0.0;
        let mut d_ytd = 0.0;
        let mut c_bal = 0.0;
        for w in 0..db.table(t.warehouse).len() as u64 {
            w_ytd += db
                .table(t.warehouse)
                .get(w)
                .unwrap()
                .read_row()
                .get_f64(wh::W_YTD);
        }
        for d in 0..db.table(t.district).len() as u64 {
            d_ytd += db
                .table(t.district)
                .get(d)
                .unwrap()
                .read_row()
                .get_f64(dist::D_YTD);
        }
        let ct = db.table(t.customer);
        for r in 0..ct.len() as u64 {
            c_bal += ct
                .get_by_row_id(r)
                .unwrap()
                .read_row()
                .get_f64(cust::C_BALANCE);
        }
        (w_ytd, d_ytd, c_bal)
    }

    #[test]
    fn generator_produces_both_types() {
        let cfg = tiny_cfg();
        let (_db, wl) = build(&cfg);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut pieces = std::collections::HashSet::new();
        for _ in 0..50 {
            pieces.insert(wl.generate(0, &mut rng).pieces());
        }
        assert!(pieces.contains(&5) && pieces.contains(&4));
    }

    #[test]
    fn money_is_conserved_under_every_protocol() {
        // The Payment invariant: Δ(ΣW_YTD) == Δ(ΣD_YTD) == -Δ(ΣC_BALANCE),
        // regardless of protocol — a strong serializability smoke test.
        for proto in [
            Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
            Arc::new(LockingProtocol::wound_wait()) as Arc<dyn Protocol>,
            Arc::new(LockingProtocol::no_wait()) as Arc<dyn Protocol>,
            Arc::new(SiloProtocol::new()) as Arc<dyn Protocol>,
        ] {
            let cfg = tiny_cfg();
            let (db, wl) = build(&cfg);
            let before = money_totals(&db, &wl.tables());
            let wl2: Arc<dyn Workload> = Arc::clone(&wl) as _;
            let res = run_bench(&db, &proto, &wl2, &BenchConfig::quick(2));
            assert_eq!(
                res.wait_timeouts(),
                0,
                "{} fired a wait backstop",
                res.protocol
            );
            assert!(res.totals.commits > 0, "{}", res.protocol);
            let after = money_totals(&db, &wl.tables());
            let dw = after.0 - before.0;
            let dd = after.1 - before.1;
            let dc = before.2 - after.2;
            assert!(
                (dw - dd).abs() < 1e-3 && (dw - dc).abs() < 1e-3,
                "{}: money leaked (ΔW={dw} ΔD={dd} ΔC={dc})",
                res.protocol
            );
        }
    }

    #[test]
    fn ic3_runs_tpcc_and_conserves_money() {
        let cfg = tiny_cfg();
        let (db, wl) = build(&cfg);
        let proto: Arc<dyn Protocol> = Arc::new(Ic3Protocol::new(wl.ic3_templates(), false));
        let before = money_totals(&db, &wl.tables());
        let wl2: Arc<dyn Workload> = Arc::clone(&wl) as _;
        let res = run_bench(&db, &proto, &wl2, &BenchConfig::quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0);
        let after = money_totals(&db, &wl.tables());
        let dw = after.0 - before.0;
        let dd = after.1 - before.1;
        let dc = before.2 - after.2;
        assert!(
            (dw - dd).abs() < 1e-3 && (dw - dc).abs() < 1e-3,
            "IC3 money leaked (ΔW={dw} ΔD={dd} ΔC={dc})"
        );
    }

    #[test]
    fn neworder_advances_district_counter_consistently() {
        let cfg = tiny_cfg();
        let (db, wl) = build(&cfg);
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let wl2: Arc<dyn Workload> = Arc::clone(&wl) as _;
        let res = run_bench(&db, &proto, &wl2, &BenchConfig::quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        let t = wl.tables();
        // Every inserted order is reachable via its district's counter
        // range, and counts match.
        let mut expected_orders = 0u64;
        for dkey in 0..db.table(t.district).len() as u64 {
            let next = db
                .table(t.district)
                .get(dkey)
                .unwrap()
                .read_row()
                .get_u64(dist::D_NEXT_O_ID);
            expected_orders += next - 3001;
            for o in 3001..next {
                let okey = (dkey << 32) | o;
                assert!(
                    db.table(t.orders).get(okey).is_some(),
                    "order {o} of district {dkey} missing"
                );
                assert!(db.table(t.new_order).get(okey).is_some());
            }
        }
        assert_eq!(db.table(t.orders).len() as u64, expected_orders);
        assert_eq!(db.table(t.new_order).len() as u64, expected_orders);
    }

    /// Money totals across every partition of a partitioned TPC-C.
    fn money_totals_partitioned(pdb: &PartitionedDb, t: &TpccTables) -> (f64, f64, f64) {
        let mut w_ytd = 0.0;
        let mut d_ytd = 0.0;
        let mut c_bal = 0.0;
        for part in pdb.parts() {
            let db = part.db();
            let wt = db.table(t.warehouse);
            for r in 0..wt.len() as u64 {
                w_ytd += wt.get_by_row_id(r).unwrap().read_row().get_f64(wh::W_YTD);
            }
            let dt = db.table(t.district);
            for r in 0..dt.len() as u64 {
                d_ytd += dt.get_by_row_id(r).unwrap().read_row().get_f64(dist::D_YTD);
            }
            let ct = db.table(t.customer);
            for r in 0..ct.len() as u64 {
                c_bal += ct
                    .get_by_row_id(r)
                    .unwrap()
                    .read_row()
                    .get_f64(cust::C_BALANCE);
            }
        }
        (w_ytd, d_ytd, c_bal)
    }

    #[test]
    fn partitioned_loader_places_warehouses_round_robin() {
        let cfg = TpccConfig {
            warehouses: 4,
            partitions: 2,
            ..tiny_cfg()
        };
        let (pdb, t, lastname) = load_partitioned(&cfg);
        assert_eq!(pdb.partitions(), 2);
        assert_eq!(lastname.len(), 2);
        use bamboo_storage::PartitionId;
        // Warehouses 0, 2 on partition 0; 1, 3 on partition 1.
        assert_eq!(pdb.table(PartitionId(0), t.warehouse).len(), 2);
        assert!(pdb.table(PartitionId(0), t.warehouse).get(2).is_some());
        assert!(pdb.table(PartitionId(1), t.warehouse).get(3).is_some());
        // District/stock shards follow their warehouse.
        assert!(pdb
            .table(PartitionId(1), t.district)
            .get(dist_key(1, 0))
            .is_some());
        assert!(pdb
            .table(PartitionId(0), t.district)
            .get(dist_key(1, 0))
            .is_none());
        assert!(pdb
            .table(PartitionId(1), t.stock)
            .get(stock_key(3, 7, cfg.items))
            .is_some());
        // Item is replicated everywhere.
        for p in 0..2 {
            assert_eq!(pdb.table(PartitionId(p), t.item).len(), cfg.items as usize);
        }
        // Each partition's lastname index resolves only its own customers.
        let keys = lastname[1].get(lastname_index_key(1, 0, 5));
        assert!(!keys.is_empty());
        let tuple = pdb.table(PartitionId(1), t.customer).get(keys[0]).unwrap();
        assert_eq!(tuple.key, cust_key(1, 0, 5, cfg.customers_per_district));
    }

    #[test]
    fn partitioned_tpcc_conserves_money_with_remote_transactions() {
        use bamboo_core::executor::run_part_bench;
        let cfg = TpccConfig {
            warehouses: 4,
            partitions: 2,
            ..tiny_cfg()
        }
        .with_remote_ratio(0.3);
        let (pdb, tables, lastname) = load_partitioned(&cfg);
        let wl = Arc::new(TpccWorkload::new_partitioned(
            cfg.clone(),
            &pdb,
            tables,
            lastname,
        ));
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let before = money_totals_partitioned(&pdb, &wl.tables());
        let wl2: Arc<dyn Workload> = Arc::clone(&wl) as _;
        let res = run_part_bench(&pdb, &proto, &wl2, &BenchConfig::quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0);
        assert!(
            res.totals.cross_partition_commits > 0,
            "remote payments/stock must cross partitions"
        );
        let after = money_totals_partitioned(&pdb, &wl.tables());
        let dw = after.0 - before.0;
        let dd = after.1 - before.1;
        let dc = before.2 - after.2;
        assert!(
            (dw - dd).abs() < 1e-3 && (dw - dc).abs() < 1e-3,
            "partitioned money leaked (ΔW={dw} ΔD={dd} ΔC={dc})"
        );
    }

    #[test]
    fn partitioned_tpcc_local_mix_stays_single_partition() {
        use bamboo_core::executor::run_part_bench;
        let cfg = TpccConfig {
            warehouses: 4,
            partitions: 4,
            ..tiny_cfg()
        }
        .with_remote_ratio(0.0);
        let (pdb, tables, lastname) = load_partitioned(&cfg);
        let wl: Arc<dyn Workload> = Arc::new(TpccWorkload::new_partitioned(
            cfg.clone(),
            &pdb,
            tables,
            lastname,
        ));
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
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
            "remote_ratio=0 must keep every transaction on its home partition"
        );
    }

    #[test]
    fn rollback_neworders_leave_no_orders() {
        let mut cfg = tiny_cfg();
        cfg.rollback_fraction = 1.0; // every NewOrder aborts
        let (db, wl) = build(&cfg);
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let wl2: Arc<dyn Workload> = Arc::clone(&wl) as _;
        let res = run_bench(&db, &proto, &wl2, &BenchConfig::quick(1));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        let t = wl.tables();
        assert_eq!(db.table(t.orders).len(), 0, "all NewOrders rolled back");
        assert!(
            res.totals.aborts > 0,
            "user aborts must be counted as aborts"
        );
        // Payments still commit.
        assert!(res.totals.commits > 0);
    }
}
