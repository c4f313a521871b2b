//! The NewOrder and Payment transaction bodies.
//!
//! Piece boundaries line up with the IC3 templates in
//! [`super::templates`](mod@super::templates); non-IC3 protocols simply run the pieces back to
//! back. 1% of NewOrders carry an invalid item and roll back at the item
//! check — the paper's "user-initiated aborts" (§5.5); per the TPC-C spec
//! the invalid item is discovered *after* the district increment, which is
//! exactly what makes those aborts interesting for cascading.

use bamboo_core::executor::TxnSpec;
use bamboo_core::txn::{Abort, AbortReason};
use bamboo_core::Txn;
use bamboo_storage::Value;

use super::loader::TpccTables;
use super::schema::*;

/// Marker for the invalid item of a rollback NewOrder.
pub const INVALID_ITEM: u64 = u64::MAX;

/// Template indexes (must match [`super::templates::templates`] order).
pub const TEMPLATE_NEW_ORDER: usize = 0;
/// Payment template index.
pub const TEMPLATE_PAYMENT: usize = 1;
/// OrderStatus template index (read-only extension).
pub const TEMPLATE_ORDER_STATUS: usize = 2;
/// StockLevel template index (read-only extension).
pub const TEMPLATE_STOCK_LEVEL: usize = 3;

/// One order line request.
#[derive(Clone, Copy, Debug)]
pub struct OrderLineReq {
    /// Item id (or [`INVALID_ITEM`]).
    pub item: u64,
    /// Supplying warehouse.
    pub supply_w: u64,
    /// Quantity ordered.
    pub quantity: u64,
}

/// A NewOrder instance.
pub struct NewOrderTxn {
    /// Loaded table ids.
    pub tables: TpccTables,
    /// Home warehouse.
    pub w: u64,
    /// District.
    pub d: u64,
    /// Encoded customer key.
    pub c_key: u64,
    /// Order lines, sorted by (supply warehouse, item) to keep lock/piece
    /// acquisition in a deterministic global order (as DBx1000 does).
    pub lines: Vec<OrderLineReq>,
    /// Items per warehouse (stock-key encoding).
    pub items_per_wh: u64,
    /// Whether NewOrder additionally reads W_YTD (Figure 11c's modified
    /// workload — only the declared/observed column set changes).
    pub read_wytd: bool,
    /// Home partition (`w % partitions`; 0 when unpartitioned). Remote
    /// supplying warehouses make the transaction cross-partition.
    pub home: u32,
}

impl TxnSpec for NewOrderTxn {
    fn home_partition(&self) -> u32 {
        self.home
    }

    fn pieces(&self) -> usize {
        5
    }

    fn template(&self) -> usize {
        TEMPLATE_NEW_ORDER
    }

    fn planned_ops(&self) -> Option<usize> {
        // p0 1 + p1 1 + p2 1 + p3 2n + p4 (1 cached read + 2 + n inserts).
        Some(6 + 3 * self.lines.len())
    }

    fn run_piece(&self, piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        match piece {
            0 => {
                // The customer and every line's item and stock are cold;
                // start their misses before the first lock request. The
                // rollback line has no stock key to prefetch.
                let t = &self.tables;
                let lines = self.lines.iter().filter(|l| l.item != INVALID_ITEM);
                let line_keys = lines.flat_map(|l| {
                    let stock = stock_key(l.supply_w, l.item, self.items_per_wh);
                    [(t.item, l.item), (t.stock, stock)]
                });
                txn.prefetch(std::iter::once((t.customer, self.c_key)).chain(line_keys));
                let row = txn.read(self.tables.warehouse, self.w)?;
                std::hint::black_box(row.get_f64(wh::W_TAX));
                if self.read_wytd {
                    std::hint::black_box(row.get_f64(wh::W_YTD));
                }
                Ok(())
            }
            1 => txn.update(self.tables.district, dist_key(self.w, self.d), |row| {
                let next = row.get_u64(dist::D_NEXT_O_ID);
                std::hint::black_box(row.get_f64(dist::D_TAX));
                row.set(dist::D_NEXT_O_ID, Value::U64(next + 1));
            }),
            2 => {
                let row = txn.read(self.tables.customer, self.c_key)?;
                std::hint::black_box(row.get_f64(cust::C_DISCOUNT));
                Ok(())
            }
            3 => {
                for line in &self.lines {
                    if line.item == INVALID_ITEM {
                        // TPC-C 2.4.1.5: unused item number → rollback.
                        return Err(Abort(AbortReason::User));
                    }
                    let price = {
                        let row = txn.read(self.tables.item, line.item)?;
                        row.get_f64(item::I_PRICE)
                    };
                    std::hint::black_box(price);
                    let remote = line.supply_w != self.w;
                    let qty = line.quantity as i64;
                    txn.update(
                        self.tables.stock,
                        stock_key(line.supply_w, line.item, self.items_per_wh),
                        |row| {
                            let s_qty = row.get_i64(stock::S_QUANTITY);
                            let new_qty = if s_qty >= qty + 10 {
                                s_qty - qty
                            } else {
                                s_qty - qty + 91
                            };
                            row.set(stock::S_QUANTITY, Value::I64(new_qty));
                            let ytd = row.get_f64(stock::S_YTD);
                            row.set(stock::S_YTD, Value::F64(ytd + qty as f64));
                            let cnt = row.get_u64(stock::S_ORDER_CNT);
                            row.set(stock::S_ORDER_CNT, Value::U64(cnt + 1));
                            if remote {
                                let r = row.get_u64(stock::S_REMOTE_CNT);
                                row.set(stock::S_REMOTE_CNT, Value::U64(r + 1));
                            }
                        },
                    )?;
                }
                Ok(())
            }
            4 => {
                // o_id was claimed in piece 1; the district access is
                // cached, so this read touches only the local copy.
                let o_id = {
                    let row = txn.read(self.tables.district, dist_key(self.w, self.d))?;
                    row.get_u64(dist::D_NEXT_O_ID) - 1
                };
                let okey = order_key(self.w, self.d, o_id);
                let all_local = self.lines.iter().all(|l| l.supply_w == self.w);
                txn.insert(
                    self.tables.orders,
                    okey,
                    bamboo_storage::Row::from(vec![
                        Value::U64(okey),
                        Value::U64(self.c_key),
                        Value::U64(20260613),
                        Value::U64(0),
                        Value::U64(self.lines.len() as u64),
                        Value::U64(all_local as u64),
                    ]),
                    None,
                )?;
                txn.insert(
                    self.tables.new_order,
                    okey,
                    bamboo_storage::Row::from(vec![Value::U64(okey)]),
                    None,
                )?;
                for (n, line) in self.lines.iter().enumerate() {
                    // Amount from the cached item read of piece 3.
                    let price = {
                        let row = txn.read(self.tables.item, line.item)?;
                        row.get_f64(item::I_PRICE)
                    };
                    txn.insert(
                        self.tables.order_line,
                        order_line_key(okey, n as u64),
                        bamboo_storage::Row::from(vec![
                            Value::U64(order_line_key(okey, n as u64)),
                            Value::U64(line.item),
                            Value::U64(line.supply_w),
                            Value::U64(line.quantity),
                            Value::F64(price * line.quantity as f64),
                        ]),
                        None,
                    )?;
                }
                Ok(())
            }
            _ => unreachable!("NewOrder has 5 pieces"),
        }
    }
}

/// A Payment instance. Customer selection (60% by last name through the
/// secondary index) happens at generation time, mirroring DBx1000's
/// index-then-access structure; see `super::TpccWorkload::generate`.
pub struct PaymentTxn {
    /// Loaded table ids.
    pub tables: TpccTables,
    /// Home warehouse (pays W_YTD — the 1-warehouse hotspot).
    pub w: u64,
    /// District.
    pub d: u64,
    /// Encoded customer key (possibly of a remote warehouse).
    pub c_key: u64,
    /// Payment amount.
    pub amount: f64,
    /// Unique history key ([`history_key`]: home warehouse in the high
    /// bits so the insert routes to the home partition).
    pub h_key: u64,
    /// Home partition (`w % partitions`; 0 when unpartitioned). A remote
    /// customer makes the transaction cross-partition.
    pub home: u32,
}

/// Bits of a history key holding the per-run sequence number; the home
/// warehouse sits above them, so history inserts route to the paying
/// warehouse's partition.
pub const HISTORY_SEQ_BITS: u32 = 40;

/// Encodes a history key: home warehouse in the high bits, the global
/// sequence number below.
#[inline]
pub fn history_key(w: u64, seq: u64) -> u64 {
    debug_assert!(seq < (1 << HISTORY_SEQ_BITS), "history sequence overflow");
    (w << HISTORY_SEQ_BITS) | seq
}

impl TxnSpec for PaymentTxn {
    fn home_partition(&self) -> u32 {
        self.home
    }

    fn pieces(&self) -> usize {
        4
    }

    fn template(&self) -> usize {
        TEMPLATE_PAYMENT
    }

    fn planned_ops(&self) -> Option<usize> {
        Some(4)
    }

    fn run_piece(&self, piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        let amount = self.amount;
        match piece {
            0 => {
                // The customer is the one cold tuple: start its miss before
                // the warehouse lock, the one-warehouse hotspot.
                txn.prefetch([(self.tables.customer, self.c_key)]);
                txn.update(self.tables.warehouse, self.w, |row| {
                    let ytd = row.get_f64(wh::W_YTD);
                    row.set(wh::W_YTD, Value::F64(ytd + amount));
                })
            }
            1 => txn.update(self.tables.district, dist_key(self.w, self.d), |row| {
                let ytd = row.get_f64(dist::D_YTD);
                row.set(dist::D_YTD, Value::F64(ytd + amount));
            }),
            2 => txn.update(self.tables.customer, self.c_key, |row| {
                let bal = row.get_f64(cust::C_BALANCE);
                row.set(cust::C_BALANCE, Value::F64(bal - amount));
                let ytd = row.get_f64(cust::C_YTD_PAYMENT);
                row.set(cust::C_YTD_PAYMENT, Value::F64(ytd + amount));
                let cnt = row.get_u64(cust::C_PAYMENT_CNT);
                row.set(cust::C_PAYMENT_CNT, Value::U64(cnt + 1));
            }),
            3 => txn.insert(
                self.tables.history,
                self.h_key,
                bamboo_storage::Row::from(vec![
                    Value::U64(self.h_key),
                    Value::U64(self.c_key),
                    Value::F64(amount),
                    Value::from("payment"),
                ]),
                None,
            ),
            _ => unreachable!("Payment has 4 pieces"),
        }
    }
}
