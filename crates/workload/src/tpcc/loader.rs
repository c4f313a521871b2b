//! TPC-C database loader: warehouse-partitioned ([`load_partitioned`]),
//! with [`load`] as its one-partition case.
//!
//! The split is the canonical TPC-C one: warehouse `w` lives on partition
//! `w % partitions`, and every warehouse-scoped table
//! (district, customer, stock, orders, order lines, history) routes by the
//! warehouse id embedded in its composite key
//! ([`bamboo_storage::RouteStrategy::ShiftDiv`] decodes it). The
//! warehouse-agnostic, read-only `item` table is replicated on every
//! partition so a partition-local NewOrder never leaves its partition.

use std::sync::Arc;

use bamboo_core::{Database, PartitionedDb};
use bamboo_storage::{
    DataType, PartitionId, RouteStrategy, Row, Schema, SecondaryIndex, TableId, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::schema::*;
use super::txns::HISTORY_SEQ_BITS;
use super::TpccConfig;

/// Table ids of a loaded TPC-C database.
#[derive(Clone, Copy, Debug)]
pub struct TpccTables {
    /// WAREHOUSE.
    pub warehouse: TableId,
    /// DISTRICT.
    pub district: TableId,
    /// CUSTOMER.
    pub customer: TableId,
    /// HISTORY (insert-only).
    pub history: TableId,
    /// ITEM (read-only).
    pub item: TableId,
    /// STOCK.
    pub stock: TableId,
    /// ORDERS (insert-only in this mix).
    pub orders: TableId,
    /// NEW-ORDER (insert-only in this mix).
    pub new_order: TableId,
    /// ORDER-LINE (insert-only in this mix).
    pub order_line: TableId,
}

fn warehouse_schema() -> Schema {
    Schema::build()
        .column("W_ID", DataType::U64)
        .column("W_NAME", DataType::Str)
        .column("W_TAX", DataType::F64)
        .column("W_YTD", DataType::F64)
}

fn district_schema() -> Schema {
    Schema::build()
        .column("D_KEY", DataType::U64)
        .column("D_NAME", DataType::Str)
        .column("D_TAX", DataType::F64)
        .column("D_YTD", DataType::F64)
        .column("D_NEXT_O_ID", DataType::U64)
}

fn customer_schema() -> Schema {
    Schema::build()
        .column("C_KEY", DataType::U64)
        .column("C_FIRST", DataType::Str)
        .column("C_MIDDLE", DataType::Str)
        .column("C_LAST", DataType::Str)
        .column("C_CREDIT", DataType::Str)
        .column("C_DISCOUNT", DataType::F64)
        .column("C_BALANCE", DataType::F64)
        .column("C_YTD_PAYMENT", DataType::F64)
        .column("C_PAYMENT_CNT", DataType::U64)
        .column("C_DATA", DataType::Str)
}

fn history_schema() -> Schema {
    Schema::build()
        .column("H_KEY", DataType::U64)
        .column("H_C_KEY", DataType::U64)
        .column("H_AMOUNT", DataType::F64)
        .column("H_DATA", DataType::Str)
}

fn item_schema() -> Schema {
    Schema::build()
        .column("I_ID", DataType::U64)
        .column("I_NAME", DataType::Str)
        .column("I_PRICE", DataType::F64)
        .column("I_IM_ID", DataType::U64)
        .column("I_DATA", DataType::Str)
}

fn stock_schema() -> Schema {
    Schema::build()
        .column("S_KEY", DataType::U64)
        .column("S_QUANTITY", DataType::I64)
        .column("S_YTD", DataType::F64)
        .column("S_ORDER_CNT", DataType::U64)
        .column("S_REMOTE_CNT", DataType::U64)
        .column("S_DATA", DataType::Str)
}

fn orders_schema() -> Schema {
    Schema::build()
        .column("O_KEY", DataType::U64)
        .column("O_C_KEY", DataType::U64)
        .column("O_ENTRY_D", DataType::U64)
        .column("O_CARRIER", DataType::U64)
        .column("O_OL_CNT", DataType::U64)
        .column("O_ALL_LOCAL", DataType::U64)
}

fn new_order_schema() -> Schema {
    Schema::build().column("NO_KEY", DataType::U64)
}

fn order_line_schema() -> Schema {
    Schema::build()
        .column("OL_KEY", DataType::U64)
        .column("OL_I_ID", DataType::U64)
        .column("OL_SUPPLY_W", DataType::U64)
        .column("OL_QUANTITY", DataType::U64)
        .column("OL_AMOUNT", DataType::F64)
}

fn warehouse_row(w: u64, rng: &mut SmallRng) -> Row {
    Row::from(vec![
        Value::U64(w),
        Value::from(format!("WH-{w}")),
        Value::F64(rng.gen_range(0.0..0.2)),
        Value::F64(300_000.0),
    ])
}

fn district_row(w: u64, d: u64, rng: &mut SmallRng) -> Row {
    Row::from(vec![
        Value::U64(dist_key(w, d)),
        Value::from(format!("D-{w}-{d}")),
        Value::F64(rng.gen_range(0.0..0.2)),
        Value::F64(30_000.0),
        Value::U64(3001),
    ])
}

fn customer_row(key: u64, c: u64, name_num: u64, rng: &mut SmallRng) -> Row {
    let credit = if rng.gen_bool(0.1) { "BC" } else { "GC" };
    Row::from(vec![
        Value::U64(key),
        Value::from(format!("F{c:06}")),
        Value::from("OE"),
        Value::from(last_name(name_num)),
        Value::from(credit),
        Value::F64(rng.gen_range(0.0..0.5)),
        Value::F64(-10.0),
        Value::F64(10.0),
        Value::U64(1),
        Value::from("customer-data"),
    ])
}

fn item_row(i: u64, rng: &mut SmallRng) -> Row {
    Row::from(vec![
        Value::U64(i),
        Value::from(format!("item-{i}")),
        Value::F64(rng.gen_range(1.0..100.0)),
        Value::U64(rng.gen_range(1..10_000)),
        Value::from("item-data"),
    ])
}

fn stock_row(key: u64, rng: &mut SmallRng) -> Row {
    Row::from(vec![
        Value::U64(key),
        Value::I64(rng.gen_range(10..100)),
        Value::F64(0.0),
        Value::U64(0),
        Value::U64(0),
        Value::from("stock-data"),
    ])
}

/// The last-name number of customer `c` of a district: the first 1000 per
/// district get sequential numbers (spec: uniquely covers the lookup
/// space); the rest NURand.
fn customer_name_num(c: u64, rng: &mut SmallRng) -> u64 {
    if c < LAST_NAMES {
        c
    } else {
        nurand(rng, 255, 0, LAST_NAMES - 1)
    }
}

/// Loads TPC-C on one partition, whatever `cfg.partitions` says, and hands
/// out that partition: the database, the table ids, and the
/// customer-by-last-name secondary index.
pub fn load(cfg: &TpccConfig) -> (Arc<Database>, TpccTables, Arc<SecondaryIndex>) {
    let (pdb, tables, mut lastname) = load_partitioned(&cfg.clone().with_partitions(1));
    let db = Arc::clone(pdb.db(PartitionId(0)));
    (db, tables, lastname.remove(0))
}

/// Registers the TPC-C tables on every partition (warehouse `w` →
/// partition `w % partitions`; `item` replicated) and loads initial data
/// into the owning shards. Returns the partitioned database, the table
/// ids, and one customer-by-last-name secondary index per partition
/// (indexed by partition id — each covers exactly its shard's customers).
pub fn load_partitioned(
    cfg: &TpccConfig,
) -> (Arc<PartitionedDb>, TpccTables, Vec<Arc<SecondaryIndex>>) {
    let n = cfg.partitions.max(1) as u32;
    let w_count = cfg.warehouses;
    let cpd = cfg.customers_per_district;
    let by_warehouse = |shift: u32, div: u64| RouteStrategy::ShiftDiv { shift, div };
    let mut b = PartitionedDb::builder(n);
    let tables = TpccTables {
        warehouse: b.add_table_with_capacity(
            "warehouse",
            warehouse_schema(),
            w_count as usize,
            by_warehouse(0, 1),
        ),
        district: b.add_table_with_capacity(
            "district",
            district_schema(),
            (w_count * DISTRICTS_PER_WAREHOUSE) as usize,
            by_warehouse(0, DISTRICTS_PER_WAREHOUSE),
        ),
        customer: b.add_table_with_capacity(
            "customer",
            customer_schema(),
            (w_count * DISTRICTS_PER_WAREHOUSE * cpd) as usize,
            by_warehouse(0, DISTRICTS_PER_WAREHOUSE * cpd),
        ),
        history: b.add_table(
            "history",
            history_schema(),
            by_warehouse(HISTORY_SEQ_BITS, 1),
        ),
        item: b.add_table_with_capacity(
            "item",
            item_schema(),
            cfg.items as usize,
            RouteStrategy::Replicated,
        ),
        stock: b.add_table_with_capacity(
            "stock",
            stock_schema(),
            (w_count * cfg.items) as usize,
            by_warehouse(0, cfg.items),
        ),
        // Order keys put dist_key in bits 32.. (order_key), order-line
        // keys shift that by another 4 (16 lines per order).
        orders: b.add_table(
            "orders",
            orders_schema(),
            by_warehouse(32, DISTRICTS_PER_WAREHOUSE),
        ),
        new_order: b.add_table(
            "new_order",
            new_order_schema(),
            by_warehouse(32, DISTRICTS_PER_WAREHOUSE),
        ),
        order_line: b.add_table(
            "order_line",
            order_line_schema(),
            by_warehouse(36, DISTRICTS_PER_WAREHOUSE),
        ),
    };
    let pdb = b.build();
    let mut rng = SmallRng::seed_from_u64(0xBA_5EBA11);

    for w in 0..w_count {
        pdb.insert(tables.warehouse, w, warehouse_row(w, &mut rng));
        for d in 0..DISTRICTS_PER_WAREHOUSE {
            pdb.insert(
                tables.district,
                dist_key(w, d),
                district_row(w, d, &mut rng),
            );
        }
    }

    let lastname: Vec<Arc<SecondaryIndex>> = (0..n)
        .map(|p| {
            pdb.table(PartitionId(p), tables.customer)
                .add_secondary_index()
        })
        .collect();
    for w in 0..w_count {
        let shard = (w % n as u64) as usize;
        for d in 0..DISTRICTS_PER_WAREHOUSE {
            for c in 0..cpd {
                let name_num = customer_name_num(c, &mut rng);
                let key = cust_key(w, d, c, cpd);
                pdb.insert(
                    tables.customer,
                    key,
                    customer_row(key, c, name_num, &mut rng),
                );
                lastname[shard].insert(lastname_index_key(w, d, name_num), key);
            }
        }
    }

    for i in 0..cfg.items {
        pdb.insert_replicated(tables.item, i, item_row(i, &mut rng));
    }
    for w in 0..w_count {
        for i in 0..cfg.items {
            let key = stock_key(w, i, cfg.items);
            pdb.insert(tables.stock, key, stock_row(key, &mut rng));
        }
    }

    (pdb, tables, lastname)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpccConfig {
        TpccConfig {
            warehouses: 2,
            items: 100,
            customers_per_district: 30,
            ..TpccConfig::default()
        }
    }

    #[test]
    fn loads_expected_cardinalities() {
        let cfg = tiny();
        let (db, t, _) = load(&cfg);
        assert_eq!(db.table(t.warehouse).len(), 2);
        assert_eq!(db.table(t.district).len(), 20);
        assert_eq!(db.table(t.customer).len(), 2 * 10 * 30);
        assert_eq!(db.table(t.item).len(), 100);
        assert_eq!(db.table(t.stock).len(), 200);
        assert_eq!(db.table(t.orders).len(), 0);
    }

    #[test]
    fn district_next_o_id_initialized() {
        let cfg = tiny();
        let (db, t, _) = load(&cfg);
        let d = db.table(t.district).get(dist_key(1, 3)).unwrap().read_row();
        assert_eq!(d.get_u64(dist::D_NEXT_O_ID), 3001);
    }

    #[test]
    fn lastname_index_resolves_customers() {
        let cfg = tiny();
        let (db, t, idx) = load(&cfg);
        // Customer 5 of district (0,0) has name number 5 (< 1000 rule).
        let keys = idx.get(lastname_index_key(0, 0, 5));
        assert!(!keys.is_empty());
        let tuple = db.table(t.customer).get(keys[0]).unwrap();
        assert_eq!(tuple.read_row().get_str(cust::C_LAST), last_name(5));
    }

    #[test]
    fn warehouse_ytd_initialized() {
        let cfg = tiny();
        let (db, t, _) = load(&cfg);
        for w in 0..2 {
            let row = db.table(t.warehouse).get(w).unwrap().read_row();
            assert_eq!(row.get_f64(wh::W_YTD), 300_000.0);
        }
    }
}
