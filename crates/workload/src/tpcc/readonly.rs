//! Read-only TPC-C transactions: OrderStatus and StockLevel.
//!
//! The paper's evaluation runs only the NewOrder/Payment mix (§5.5); these
//! two are implemented as an *extension* (off by default, enabled through
//! [`super::TpccConfig::readonly_fraction`]) so the workload can also
//! exercise Bamboo's read path against the insert-heavy order tables —
//! long dependent read chains are where Optimization 3 (no read-after-write
//! aborts) earns its keep.
//!
//! Both transactions walk *volatile* key spaces (order ids claimed by
//! concurrent NewOrders), so every order/order-line access goes through
//! [`Txn::read_opt`]: a missing row — or, in snapshot mode, a row committed
//! after the snapshot was taken
//! ([`AbortReason::SnapshotNotVisible`](bamboo_core::AbortReason)) — is a
//! phantom this transaction skips, not an error.
//!
//! Neither knows its keys up front: each step's keys come out of the rows
//! the step before it read. So they pass [`Txn::prefetch`] each batch of
//! keys as soon as it is known (StockLevel: the 20 order keys, then each
//! order's line keys once its `O_OL_CNT` is read, then the stock keys of
//! the items that order adds; OrderStatus: the matching order's lines),
//! and a batch's cold misses overlap instead of following one another. A
//! snapshot holds no lock, so a hint taken mid-transaction moves no cold
//! work out of a lock's hold either.

use std::collections::HashSet;

use bamboo_core::executor::TxnSpec;
use bamboo_core::txn::Abort;
use bamboo_core::Txn;
use bamboo_storage::BuildKeyHasher;

use super::loader::TpccTables;
use super::schema::*;

/// ORDER-STATUS: a customer's most recent order and its lines.
pub struct OrderStatusTxn {
    /// Loaded table ids.
    pub tables: TpccTables,
    /// Warehouse.
    pub w: u64,
    /// District.
    pub d: u64,
    /// Encoded customer key.
    pub c_key: u64,
    /// Run as a lock-free MVCC snapshot instead of taking SH locks.
    pub snapshot: bool,
    /// Home partition (`w % partitions`; 0 when unpartitioned).
    pub home: u32,
}

impl TxnSpec for OrderStatusTxn {
    fn home_partition(&self) -> u32 {
        self.home
    }

    fn planned_ops(&self) -> Option<usize> {
        None // length depends on what exists; δ has nothing to skip anyway
    }

    fn template(&self) -> usize {
        super::txns::TEMPLATE_ORDER_STATUS
    }

    fn read_only_snapshot(&self) -> bool {
        self.snapshot
    }

    fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        // Customer balance.
        let row = txn.read(self.tables.customer, self.c_key)?;
        std::hint::black_box(row.get_f64(cust::C_BALANCE));
        // The district's order counter bounds the search for the
        // customer's latest order (read-only: no RMW).
        let next = {
            let row = txn.read(self.tables.district, dist_key(self.w, self.d))?;
            row.get_u64(dist::D_NEXT_O_ID)
        };
        // Walk backwards over recent orders looking for this customer
        // (bounded window keeps the transaction short).
        let lo = next.saturating_sub(20).max(3001);
        for o in (lo..next).rev() {
            let okey = order_key(self.w, self.d, o);
            // Order not yet committed / not visible at the snapshot.
            let Some(row) = txn.read_opt(self.tables.orders, okey)? else {
                continue;
            };
            let (c, ol_cnt) = (row.get_u64(orders::O_C_KEY), row.get_u64(orders::O_OL_CNT));
            if c != self.c_key {
                continue;
            }
            let lines = (0..ol_cnt).map(|line| order_line_key(okey, line));
            txn.prefetch(lines.clone().map(|lkey| (self.tables.order_line, lkey)));
            for lkey in lines {
                if let Some(row) = txn.read_opt(self.tables.order_line, lkey)? {
                    std::hint::black_box(row.get_f64(order_line::OL_AMOUNT));
                }
            }
            break;
        }
        Ok(())
    }
}

/// STOCK-LEVEL: count recent order-line items whose stock is low.
pub struct StockLevelTxn {
    /// Loaded table ids.
    pub tables: TpccTables,
    /// Warehouse.
    pub w: u64,
    /// District.
    pub d: u64,
    /// Low-stock threshold (spec: 10..20).
    pub threshold: i64,
    /// Items per warehouse (stock-key encoding).
    pub items_per_wh: u64,
    /// Run as a lock-free MVCC snapshot instead of taking SH locks.
    pub snapshot: bool,
    /// Home partition (`w % partitions`; 0 when unpartitioned).
    pub home: u32,
}

impl TxnSpec for StockLevelTxn {
    fn home_partition(&self) -> u32 {
        self.home
    }

    fn planned_ops(&self) -> Option<usize> {
        None
    }

    fn template(&self) -> usize {
        super::txns::TEMPLATE_STOCK_LEVEL
    }

    fn read_only_snapshot(&self) -> bool {
        self.snapshot
    }

    fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        std::hint::black_box(self.low_stock(txn)?);
        Ok(())
    }
}

impl StockLevelTxn {
    /// The transaction's result: how many distinct items of the district's
    /// last 20 orders have `S_QUANTITY` below the threshold.
    pub fn low_stock(&self, txn: &mut Txn<'_>) -> Result<u64, Abort> {
        let t = &self.tables;
        let next = {
            let row = txn.read(t.district, dist_key(self.w, self.d))?;
            row.get_u64(dist::D_NEXT_O_ID)
        };
        let lo = next.saturating_sub(20).max(3001);
        let orders = (lo..next).map(|o| order_key(self.w, self.d, o));
        txn.prefetch(orders.clone().map(|okey| (t.orders, okey)));
        let mut low = 0u64;
        // Distinct items only (spec 2.8.2.2).
        let mut seen: HashSet<u64, BuildKeyHasher> = HashSet::default();
        let mut fresh = Vec::new();
        for okey in orders {
            let Some(row) = txn.read_opt(t.orders, okey)? else {
                continue;
            };
            let lines = (0..row.get_u64(orders::O_OL_CNT)).map(|line| order_line_key(okey, line));
            txn.prefetch(lines.clone().map(|lkey| (t.order_line, lkey)));
            fresh.clear();
            for lkey in lines {
                let Some(row) = txn.read_opt(t.order_line, lkey)? else {
                    continue;
                };
                let item = row.get_u64(order_line::OL_I_ID);
                if seen.insert(item) {
                    fresh.push(item);
                }
            }
            let stock = |&item: &u64| stock_key(self.w, item, self.items_per_wh);
            txn.prefetch(fresh.iter().map(|item| (t.stock, stock(item))));
            for item in &fresh {
                let qty = {
                    let row = txn.read(t.stock, stock(item))?;
                    row.get_i64(stock::S_QUANTITY)
                };
                if qty < self.threshold {
                    low += 1;
                }
            }
        }
        Ok(low)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{load, TpccConfig, TpccWorkload};
    use super::*;
    use bamboo_core::executor::{run_bench, BenchConfig, Workload};
    use bamboo_core::protocol::{LockingProtocol, Protocol};
    use bamboo_core::{Database, Session, TxnOptions};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn tiny() -> TpccConfig {
        TpccConfig {
            warehouses: 1,
            items: 100,
            customers_per_district: 30,
            readonly_fraction: 0.0,
            ..TpccConfig::default()
        }
    }

    #[test]
    fn readonly_txns_run_on_fresh_database() {
        // No orders yet: both transactions complete trivially.
        let cfg = tiny();
        let (db, tables, _) = load(&cfg);
        let session = Session::new(
            Arc::clone(&db),
            Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
        );
        let os = OrderStatusTxn {
            tables,
            w: 0,
            d: 0,
            c_key: cust_key(0, 0, 5, cfg.customers_per_district),
            snapshot: false,
            home: 0,
        };
        let mut txn = session.begin();
        os.run_piece(0, &mut txn).unwrap();
        txn.commit().unwrap();
        let sl = StockLevelTxn {
            tables,
            w: 0,
            d: 0,
            threshold: 15,
            items_per_wh: cfg.items,
            snapshot: false,
            home: 0,
        };
        let mut txn = session.begin();
        sl.run_piece(0, &mut txn).unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn snapshot_readonly_txns_run_lock_free() {
        let cfg = tiny();
        let (db, tables, _) = load(&cfg);
        let session = Session::new(
            Arc::clone(&db),
            Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
        );
        let os = OrderStatusTxn {
            tables,
            w: 0,
            d: 0,
            c_key: cust_key(0, 0, 5, cfg.customers_per_district),
            snapshot: true,
            home: 0,
        };
        use bamboo_core::executor::TxnSpec as _;
        assert!(os.read_only_snapshot());
        let mut txn = session.snapshot();
        os.run_piece(0, &mut txn).unwrap();
        assert_eq!(
            txn.locks_acquired(),
            0,
            "snapshot reads must stay lock-free"
        );
        txn.commit().unwrap();
        assert_eq!(db.snapshots.active_count(), 0, "snapshot must deregister");
    }

    /// StockLevel's count computed straight from the committed rows: the
    /// distinct items of the district's last 20 orders whose `S_QUANTITY`
    /// is below `threshold`.
    fn low_stock_from_rows(db: &Database, sl: &StockLevelTxn) -> u64 {
        let t = &sl.tables;
        let committed = |table, key| db.table(table).get(key).map(|tuple| tuple.read_row());
        let next = committed(t.district, dist_key(sl.w, sl.d))
            .unwrap()
            .get_u64(dist::D_NEXT_O_ID);
        let mut items = BTreeSet::new();
        for o in next.saturating_sub(20).max(3001)..next {
            let okey = order_key(sl.w, sl.d, o);
            let Some(order) = committed(t.orders, okey) else {
                continue;
            };
            for line in 0..order.get_u64(orders::O_OL_CNT) {
                if let Some(row) = committed(t.order_line, order_line_key(okey, line)) {
                    items.insert(row.get_u64(order_line::OL_I_ID));
                }
            }
        }
        items
            .into_iter()
            .filter(|&i| {
                let stock = committed(t.stock, stock_key(sl.w, i, sl.items_per_wh)).unwrap();
                stock.get_i64(stock::S_QUANTITY) < sl.threshold
            })
            .count() as u64
    }

    #[test]
    fn stock_level_counts_the_committed_low_stock_items() {
        let cfg = tiny();
        let (db, tables, idx) = load(&cfg);
        let wl = TpccWorkload::new(cfg.clone(), Arc::clone(&db), tables, idx);
        let session = Session::new(
            Arc::clone(&db),
            Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
        );
        let mut rng = SmallRng::seed_from_u64(52);
        for _ in 0..400 {
            // A rolled-back NewOrder is part of the mix: it leaves no order.
            let _ = session.run(&wl.gen_new_order(&mut rng));
        }
        let mut total = 0;
        for d in 0..DISTRICTS_PER_WAREHOUSE {
            for threshold in [10, 15, 20] {
                for snapshot in [true, false] {
                    let sl = StockLevelTxn {
                        tables,
                        w: 0,
                        d,
                        threshold,
                        items_per_wh: cfg.items,
                        snapshot,
                        home: 0,
                    };
                    let expected = low_stock_from_rows(&db, &sl);
                    let mut txn = session.begin_with(TxnOptions::for_spec(&sl));
                    let low = sl.low_stock(&mut txn).unwrap();
                    txn.commit().unwrap();
                    assert_eq!(
                        low, expected,
                        "d={d} threshold={threshold} snapshot={snapshot}"
                    );
                    total += low;
                }
            }
        }
        assert!(
            total > 0,
            "some item must be low for the test to count anything"
        );
    }

    #[test]
    fn mixed_workload_with_readonly_commits_all_types() {
        let mut cfg = tiny();
        cfg.readonly_fraction = 0.3;
        let (db, tables, idx) = load(&cfg);
        let wl: Arc<dyn Workload> =
            Arc::new(TpccWorkload::new(cfg.clone(), Arc::clone(&db), tables, idx));
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let res = run_bench(&db, &proto, &wl, &BenchConfig::quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0);
        // Orders exist (NewOrders ran) and the read-only mix did not
        // corrupt anything: district counters still match order counts.
        let mut expected = 0u64;
        for dkey in 0..db.table(tables.district).len() as u64 {
            expected += db
                .table(tables.district)
                .get(dkey)
                .unwrap()
                .read_row()
                .get_u64(dist::D_NEXT_O_ID)
                - 3001;
        }
        assert_eq!(db.table(tables.orders).len() as u64, expected);
    }
}
