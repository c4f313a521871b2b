//! The partitioned database, end to end.
//!
//! Builds a 4-partition TPC-C (one warehouse per partition), runs the
//! paper's NewOrder/Payment mix through partition-homed sessions, and
//! shows the three things the partitioned architecture guarantees:
//!
//! 1. Single-partition transactions stay on their home shard (local
//!    lock-entry space).
//! 2. Remote-warehouse payments and remote-stock order lines execute as
//!    genuine cross-partition transactions — one commit timestamp, one
//!    redo record on the committing session's ring (this database has no
//!    `wal_dir`; with one, a group per written partition's log) — and
//!    money is conserved across partitions.
//! 3. A snapshot taken on *any* partition is globally consistent, because
//!    every partition shares one lock-free commit clock.
//!
//! ```text
//! cargo run --release --example partitioned_demo
//! ```

use std::sync::Arc;

use bamboo_repro::core::executor::{run_part_bench, BenchConfig, Workload};
use bamboo_repro::core::protocol::{LockingProtocol, Protocol};
use bamboo_repro::storage::{PartitionId, Value};
use bamboo_repro::workload::tpcc::{self, TpccConfig, TpccWorkload};

fn main() {
    let partitions = 4;
    let cfg = TpccConfig {
        warehouses: partitions,
        items: 500,
        customers_per_district: 100,
        partitions,
        ..TpccConfig::default()
    }
    .with_remote_ratio(0.15);

    let (pdb, tables, lastname) = tpcc::load_partitioned(&cfg);
    println!(
        "loaded TPC-C: {} warehouses over {} partitions, {} physical rows",
        cfg.warehouses,
        pdb.partitions(),
        pdb.total_rows()
    );
    for part in pdb.parts() {
        println!(
            "  partition {}: {} warehouses, {} stock rows, item replica of {} rows",
            part.id().0,
            part.db().table(tables.warehouse).len(),
            part.db().table(tables.stock).len(),
            part.db().table(tables.item).len(),
        );
    }

    let wl: Arc<dyn Workload> = Arc::new(TpccWorkload::new_partitioned(
        cfg.clone(),
        &pdb,
        tables,
        lastname,
    ));
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let res = run_part_bench(&pdb, &proto, &wl, &BenchConfig::quick(4));

    println!(
        "\n{} committed {} txns ({:.0} txn/s), {:.1}% of commits cross-partition",
        res.protocol,
        res.totals.commits,
        res.throughput(),
        res.cross_partition_share() * 100.0,
    );
    println!(
        "  {} KiB of redo on the workers' session rings",
        res.totals.log_bytes / 1024
    );

    // The money invariant, summed across every partition's shards.
    let mut w_ytd = 0.0;
    let mut d_ytd = 0.0;
    for part in pdb.parts() {
        let db = part.db();
        let wt = db.table(tables.warehouse);
        for r in 0..wt.len() as u64 {
            w_ytd += wt.get_by_row_id(r).unwrap().read_row().get_f64(3);
        }
        let dt = db.table(tables.district);
        for r in 0..dt.len() as u64 {
            d_ytd += dt.get_by_row_id(r).unwrap().read_row().get_f64(3);
        }
    }
    let loaded = cfg.warehouses as f64 * 300_000.0;
    println!(
        "\nΔ(ΣW_YTD) = {:.2}, Δ(ΣD_YTD) = {:.2} (must match: payments land on both)",
        w_ytd - loaded,
        d_ytd - loaded,
    );
    assert!(
        (w_ytd - d_ytd).abs() < 1e-3,
        "money leaked across partitions"
    );

    // One cross-partition payment by hand: warehouse 0's YTD on partition
    // 0, warehouse 1's on partition 1 — one ring record on the session it
    // commits through.
    let session = bamboo_repro::core::PartSession::new(Arc::clone(&pdb), proto);
    let home = PartitionId(0);
    let mut txn = session.begin_on(home);
    for (w, delta) in [(0, -25.0), (1, 25.0)] {
        txn.update(tables.warehouse, w, |r| {
            r.set(3, Value::F64(r.get_f64(3) + delta))
        })
        .unwrap();
    }
    let spanned = txn.partitions_spanned();
    txn.commit().unwrap();
    println!(
        "hand-made transfer spanned {spanned} partitions, logged {} ring record ({} B)",
        session.session(home).log_records(),
        session.session(home).log_bytes(),
    );

    // Globally consistent snapshot from an arbitrary partition.
    let mut snap = session.snapshot_on(PartitionId(partitions as u32 - 1));
    let mut snap_w_ytd = 0.0;
    for w in 0..cfg.warehouses {
        snap_w_ytd += snap.read(tables.warehouse, w).unwrap().get_f64(3);
    }
    snap.commit().unwrap();
    println!("snapshot Σ W_YTD = {snap_w_ytd:.2} (consistent across partitions)");
    println!("\nOK: partitioned execution conserved the books.");
}
