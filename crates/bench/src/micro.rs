//! `repro micro`: the per-operation probes the repo benchmark's `per_op`
//! probes lack — the contended EX handoff between two workers behind
//! Optimization 1/2's overhead discussion, what one access costs in row
//! images (a read's grant; a write's grant, first `set`, retire and commit
//! install) on a narrow row and on a wide one with strings, the primary-key
//! point lookup from one thread and from two, a batch of cold keys with and
//! without a prefetch pass (from the table alone and through a
//! transaction, with one hint pass or two, and through a snapshot), one
//! TPC-C StockLevel snapshot, and the writer stall of an index growth.
//!
//! Each probe is a plain timing loop, reported as the median of `BATCHES`
//! batches in ns per operation after one untimed batch. Iteration counts
//! are for the default 300 ms and scale with `--duration-ms`; `--threads`
//! does not apply (a `_2t` probe runs two threads, the others one).
//!
//! The benchmark's probes cover the rest, so they are not repeated here:
//! `lock.acquire_release_ex_ns`, `lock.acquire_retire_release_ex_ns`,
//! `lock.dirty_read_grant_ns`, `zipf.sample_ns`, `wal.ring_append_ns` and
//! `row.clone_ns`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_core::executor::Workload;
use bamboo_core::lock::{Acquired, CommitInstall, LockPolicy};
use bamboo_core::protocol::{LockingProtocol, Protocol};
use bamboo_core::ts::TsSource;
use bamboo_core::txn::{LockMode, TxnShared};
use bamboo_core::{Database, Session, TupleCc};
use bamboo_storage::{DataType, Row, Schema, Table, Value};
use bamboo_workload::tpcc::readonly::StockLevelTxn;
use bamboo_workload::tpcc::schema::DISTRICTS_PER_WAREHOUSE;
use bamboo_workload::tpcc::txns::TEMPLATE_NEW_ORDER;
use bamboo_workload::tpcc::{self, TpccConfig, TpccWorkload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::RunOpts;

/// Timed batches per probe; the median is reported.
const BATCHES: usize = 5;
/// The lookup tables hold 2^`TABLE_BITS` rows.
const TABLE_BITS: u32 = 18;
/// Keys of one cold batch: one synthetic transaction's reads.
const BATCH: usize = 16;
/// Keys a growth table is sized for; it takes twice as many.
const GROW_CAP: usize = 1 << 16;
/// NewOrders run before the `stock_level` probe.
const STOCK_LEVEL_NEW_ORDERS: u64 = 20_000;

/// Median over [`BATCHES`] batches of `batch(iters)` ÷ `iters`, in ns, after
/// one untimed batch. `batch` times its own measured section, so it can set
/// up outside it.
fn per_op(iters: u64, mut batch: impl FnMut(u64) -> Duration) -> f64 {
    batch(iters);
    let mut ns: Vec<f64> = (0..BATCHES)
        .map(|_| batch(iters).as_nanos() as f64 / iters as f64)
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[BATCHES / 2]
}

/// Times `body` called `iters` times.
fn timed(iters: u64, mut body: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        body();
    }
    start.elapsed()
}

/// A table with the synthetic workload's key and one `i64` column.
fn kv_schema() -> Schema {
    Schema::build()
        .column("k", DataType::U64)
        .column("v", DataType::I64)
}

fn kv_row(k: u64) -> Row {
    Row::from(vec![Value::U64(k), Value::I64(0)])
}

/// Runs every probe and prints one line per probe.
pub fn run(opts: &RunOpts) {
    let default_ms = RunOpts::default().duration.as_millis() as u64;
    let scale = |iters: u64| (iters * opts.duration.as_millis() as u64 / default_ms).max(1);
    println!("\n== micro: per-operation probes (median of {BATCHES} batches) ==");
    println!("{:<40} {:>12}", "probe", "ns/op");
    let report = |name: &str, ns: f64| {
        assert!(ns.is_finite() && ns > 0.0, "{name}: {ns} ns/op");
        println!("{name:<40} {ns:>12.1}");
    };

    // Two workers alternate one EX lock on one tuple through the whole
    // blocking path — one-update Wound-Wait transactions: `acquire` queues
    // behind the other worker, `TxnCtx::wait` blocks, the other's commit
    // `release`s and notifies. Reported per handoff.
    let mut builder = Database::builder();
    let table = builder.add_table("t", kv_schema());
    let db = builder.build();
    db.table(table).insert(0, kv_row(0));
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::wound_wait());
    let handoff = per_op(scale(10_000), |iters| {
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let session = Session::new(Arc::clone(&db), Arc::clone(&proto));
                    let mut done = 0;
                    while done < iters {
                        let mut txn = session.begin();
                        let bumped = txn.update(table, 0, |row| {
                            let v = row.get_i64(1);
                            row.set(1, Value::I64(v + 1));
                        });
                        if bumped.and_then(|()| txn.commit()).is_ok() {
                            done += 1;
                        }
                    }
                });
            }
        });
        // `iters` commits per worker, each preceded by one handoff.
        start.elapsed() / 2
    });
    report("handoff_ex_2t", handoff);

    // (name, schema, loaded row, the column a write sets and its value): the
    // synthetic hotspot table's three-column row, and a TPC-C customer row
    // with its five strings, whose balance Payment updates.
    let narrow = (
        "3col",
        Schema::build()
            .column("k", DataType::U64)
            .column("a", DataType::I64)
            .column("b", DataType::U64),
        Row::from(vec![Value::U64(0), Value::I64(0), Value::U64(7)]),
        1,
        Value::I64(1),
    );
    let customer = (
        "customer",
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
            .column("C_DATA", DataType::Str),
        Row::from(vec![
            Value::U64(0),
            Value::from("F000001"),
            Value::from("OE"),
            Value::from("BARBARBAR"),
            Value::from("GC"),
            Value::F64(0.1),
            Value::F64(-10.0),
            Value::F64(10.0),
            Value::U64(1),
            Value::from("customer-data"),
        ]),
        6,
        Value::F64(-20.0),
    );
    let ts = TsSource::new();
    for (name, schema, loaded, col, written) in [narrow, customer] {
        let table = Table::<TupleCc>::new(name, schema);
        let tup = table.insert(0, loaded);
        let pol = LockPolicy::bamboo();
        let mut id = 0u64;
        let sh = per_op(scale(100_000), |iters| {
            timed(iters, || {
                id += 1;
                let txn = TxnShared::new(id, ts.assign());
                let mut st = tup.meta.lock.lock();
                let row = match st.acquire(&tup, &pol, &txn, LockMode::Sh, &ts) {
                    Acquired::Granted { row, .. } => row,
                    _ => unreachable!(),
                };
                black_box(row);
                st.release(&txn, &pol, true, None);
            })
        });
        report(&format!("sh_grant_release_{name}"), sh);
        let ex = per_op(scale(50_000), |iters| {
            timed(iters, || {
                id += 1;
                let txn = TxnShared::new(id, ts.assign());
                let mut st = tup.meta.lock.lock();
                let mut row = match st.acquire(&tup, &pol, &txn, LockMode::Ex, &ts) {
                    Acquired::Granted { row, .. } => row,
                    _ => unreachable!(),
                };
                row.set(col, written.clone());
                st.retire(&txn, row.clone(), &pol);
                // A timed install with the watermark one behind, as a
                // commit makes it when no snapshot is live.
                let install = CommitInstall {
                    tuple: &tup,
                    row: &row,
                    commit_ts: id,
                    watermark: id - 1,
                };
                st.release(&txn, &pol, true, Some(install));
            })
        });
        report(&format!("ex_grant_set_retire_install_{name}"), ex);
    }

    // Uniform random `get`s over a 2^18-row table. Keys come from the top
    // bits of a per-thread LCG, so drawing one costs a multiply-add. Each
    // probe's LCG runs on across its batches, so no batch rereads the keys
    // an earlier one warmed: a short run's batch fits in the cache.
    let big = Table::<TupleCc>::with_capacity("big", kv_schema(), 1 << TABLE_BITS);
    for k in 0..1u64 << TABLE_BITS {
        big.insert(k, kv_row(k));
    }
    let next_key = |x: &mut u64| {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> (64 - TABLE_BITS)
    };
    let random_gets = |x: &mut u64, iters: u64| {
        for _ in 0..iters {
            black_box(big.get(next_key(x)));
        }
    };
    let mut x = 1;
    report(
        "table_get",
        per_op(scale(200_000), |iters| {
            let start = Instant::now();
            random_gets(&mut x, iters);
            start.elapsed()
        }),
    );
    // Two threads look up at once; reported per lookup of one thread (wall
    // time ÷ `iters`), so it equals `table_get` when nothing is shared
    // between them.
    let mut xs = [1, 2];
    report(
        "table_get_2t",
        per_op(scale(200_000), |iters| {
            let start = Instant::now();
            std::thread::scope(|s| {
                for x in &mut xs {
                    s.spawn(move || random_gets(x, iters));
                }
            });
            start.elapsed()
        }),
    );

    // One synthetic transaction's cold reads: 16 random keys, looked up in
    // turn, or first all prefetched (`Table::prefetch`) and then looked up.
    // Reported per key; the gap is what a stored procedure's prefetch pass
    // saves on each cold tuple.
    for (name, prefetch) in [("cold_get_16", false), ("cold_prefetch_get_16", true)] {
        let mut x = 1;
        let ns = per_op(scale(10_000), |iters| {
            let start = Instant::now();
            for _ in 0..iters {
                let keys: [u64; BATCH] = std::array::from_fn(|_| next_key(&mut x));
                if prefetch {
                    for &k in &keys {
                        big.prefetch(k);
                    }
                }
                for &k in &keys {
                    black_box(big.get(k));
                }
            }
            start.elapsed() / BATCH as u32
        });
        report(name, ns);
    }
    drop(big);

    // The same 16 cold reads through the engine: one Bamboo transaction
    // reads them and commits, with no hint, with pass 1 only
    // (`Table::prefetch` per key) or with both passes (`Txn::prefetch`).
    // Reported per key. Pass 2 adds the loads of each tuple's newest image
    // and lock-list buffer, the two misses a cold shared grant takes after
    // the tuple's own. Every tuple is read once first, so its list has a
    // buffer, as in a running database.
    let mut builder = Database::builder();
    let cold = builder.add_table_with_capacity("cold", kv_schema(), 1 << TABLE_BITS);
    let cold_db = builder.build();
    for k in 0..1u64 << TABLE_BITS {
        cold_db.table(cold).insert(k, kv_row(k));
    }
    let session = Session::new(Arc::clone(&cold_db), Arc::new(LockingProtocol::bamboo()));
    for first in (0..1u64 << TABLE_BITS).step_by(BATCH) {
        let mut txn = session.begin();
        for k in first..first + BATCH as u64 {
            txn.read(cold, k).unwrap();
        }
        txn.commit().unwrap();
    }
    for (name, passes) in [
        ("cold_read_16_nohint", 0),
        ("cold_read_16_pass1", 1),
        ("cold_read_16_pass1_2", 2),
    ] {
        let mut x = 1;
        let ns = per_op(scale(2_000), |iters| {
            let start = Instant::now();
            for _ in 0..iters {
                let keys: [u64; BATCH] = std::array::from_fn(|_| next_key(&mut x));
                let mut txn = session.begin();
                match passes {
                    1 => keys.iter().for_each(|&k| cold_db.table(cold).prefetch(k)),
                    2 => txn.prefetch(keys.iter().map(|&k| (cold, k))),
                    _ => {}
                }
                for &k in &keys {
                    black_box(txn.read(cold, k).unwrap());
                }
                txn.commit().unwrap();
            }
            start.elapsed() / BATCH as u32
        });
        report(name, ns);
    }
    // The same keys through one snapshot transaction, no hint: the read
    // path a long reader takes (an index probe and a version pick).
    let mut x = 1;
    let ns = per_op(scale(2_000), |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            let keys: [u64; BATCH] = std::array::from_fn(|_| next_key(&mut x));
            let mut txn = session.snapshot();
            for &k in &keys {
                black_box(txn.read(cold, k).unwrap());
            }
            txn.commit().unwrap();
        }
        start.elapsed() / BATCH as u32
    });
    report("snapshot_read_16", ns);
    drop(session);
    drop(cold_db);

    // One TPC-C StockLevel snapshot (a random district and threshold) on a
    // 1-warehouse database after `STOCK_LEVEL_NEW_ORDERS` NewOrders: about
    // 20 orders, 200 order lines and up to 200 stock rows read per call.
    let cfg = TpccConfig::default();
    let (tpcc_db, tables, lastname) = tpcc::load(&cfg);
    let tpcc_wl = TpccWorkload::new(cfg.clone(), Arc::clone(&tpcc_db), tables, lastname);
    let session = Session::new(Arc::clone(&tpcc_db), Arc::new(LockingProtocol::bamboo()));
    let mut rng = SmallRng::seed_from_u64(1);
    let mut new_orders = 0;
    while new_orders < STOCK_LEVEL_NEW_ORDERS {
        let spec = tpcc_wl.generate(0, &mut rng);
        if spec.template() == TEMPLATE_NEW_ORDER {
            // 1 % roll back by design; they count as the workload's do.
            let _ = session.run(&*spec);
            new_orders += 1;
        }
    }
    let ns = per_op(scale(300), |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            let sl = StockLevelTxn {
                tables,
                w: 0,
                d: rng.gen_range(0..DISTRICTS_PER_WAREHOUSE),
                threshold: rng.gen_range(10..=20),
                items_per_wh: cfg.items,
                snapshot: true,
                home: 0,
            };
            session.run(&sl).unwrap();
        }
        start.elapsed()
    });
    report("stock_level", ns);
    drop(session);
    drop(tpcc_wl);
    drop(tpcc_db);

    // One growth of every shard: a table sized for `GROW_CAP` keys takes
    // twice as many, so each of its 64 shards copies its ≈ 1 000 entries
    // into a 4× array once. `insert_grow` is the mean insert across that
    // span, `insert_grow_worst` the slowest single one: the stall a
    // growth's copy puts on the writer that triggers it.
    let fresh = || Table::<TupleCc>::with_capacity("grow", kv_schema(), GROW_CAP);
    let keys = 0..2 * GROW_CAP as u64;
    let mean = per_op(scale(1), |iters| {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let t = fresh();
            let start = Instant::now();
            for k in keys.clone() {
                t.insert(k, kv_row(k));
            }
            total += start.elapsed() / (2 * GROW_CAP as u32);
        }
        total
    });
    report("insert_grow", mean);
    let worst = per_op(scale(1), |iters| {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let t = fresh();
            let mut worst = Duration::ZERO;
            for k in keys.clone() {
                let row = kv_row(k);
                let start = Instant::now();
                t.insert(k, row);
                worst = worst.max(start.elapsed());
            }
            total += worst;
        }
        total
    });
    report("insert_grow_worst", worst);
}
