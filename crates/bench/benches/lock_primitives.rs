//! Micro-benchmarks of the lock-table primitives: the grant/release cycle,
//! the retire path (publishing a dirty version), the dirty-read grant and
//! the contended handoff between two workers — the per-operation costs
//! behind Optimization 1/2's overhead discussion — the primary-key point
//! lookup every access starts with, from one thread and from two (a latch
//! shared by all lookups shows only in the second) and for a batch of cold
//! keys with and without a prefetch pass first, the writer stall of an
//! index growth, and what one access costs in row images: a read's grant,
//! and a write's grant, first `set`, retire and commit install, on a
//! narrow row and on a wide one with strings.

use std::sync::Arc;
use std::time::Duration;

use bamboo_core::lock::{Acquired, CommitInstall, LockPolicy};
use bamboo_core::protocol::{LockingProtocol, Protocol};
use bamboo_core::ts::TsSource;
use bamboo_core::txn::{LockMode, TxnShared};
use bamboo_core::{Database, Session, TupleCc};
use bamboo_storage::{DataType, Row, Schema, Table, Value};
use criterion::{criterion_group, criterion_main, Criterion};

fn mk_tuple() -> (Table<TupleCc>, Arc<bamboo_storage::Tuple<TupleCc>>) {
    let table = Table::new(
        "t",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    let tup = table.insert(0, Row::from(vec![Value::U64(0), Value::I64(0)]));
    (table, tup)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("lock_primitives");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));

    let ts = TsSource::new();
    let (_table, tup) = mk_tuple();

    g.bench_function("acquire_release_ex", |b| {
        let pol = LockPolicy::wound_wait();
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let txn = TxnShared::new(id, ts.assign());
            let mut st = tup.meta.lock.lock();
            let _ = st.acquire(&tup, &pol, &txn, LockMode::Ex, &ts);
            st.release(&txn, &pol, true, None);
        })
    });

    g.bench_function("acquire_retire_release_ex", |b| {
        let pol = LockPolicy::bamboo();
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let txn = TxnShared::new(id, ts.assign());
            let row = {
                let mut st = tup.meta.lock.lock();
                match st.acquire(&tup, &pol, &txn, LockMode::Ex, &ts) {
                    Acquired::Granted { row, .. } => row,
                    _ => unreachable!(),
                }
            };
            {
                let mut st = tup.meta.lock.lock();
                st.retire(&txn, row.clone(), &pol);
            }
            let mut st = tup.meta.lock.lock();
            st.release(&txn, &pol, true, Some(CommitInstall::untimed(&tup, &row)));
        })
    });

    g.bench_function("dirty_read_grant", |b| {
        // A retired writer sits on the tuple; measure the reader slot-in.
        let pol = LockPolicy::bamboo();
        let writer = TxnShared::new(u64::MAX - 1, ts.assign());
        let row = {
            let mut st = tup.meta.lock.lock();
            let r = match st.acquire(&tup, &pol, &writer, LockMode::Ex, &ts) {
                Acquired::Granted { row, .. } => row,
                _ => unreachable!(),
            };
            st.retire(&writer, r.clone(), &pol);
            r
        };
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let txn = TxnShared::new(id, ts.assign());
            let mut st = tup.meta.lock.lock();
            let _ = st.acquire(&tup, &pol, &txn, LockMode::Sh, &ts);
            st.release(&txn, &pol, true, None);
        });
        let mut st = tup.meta.lock.lock();
        st.release(
            &writer,
            &pol,
            true,
            Some(CommitInstall::untimed(&tup, &row)),
        );
    });

    g.bench_function("handoff_ex_2t", |b| {
        // Two workers alternate one EX lock on one tuple through the whole
        // blocking path — one-update Wound-Wait transactions: `acquire`
        // queues behind the other worker, `TxnCtx::wait` blocks, the
        // other's commit `release`s and notifies. Reported per handoff.
        let mut builder = Database::builder();
        let table = builder.add_table(
            "t",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        let db = builder.build();
        db.table(table)
            .insert(0, Row::from(vec![Value::U64(0), Value::I64(0)]));
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::wound_wait());
        b.iter_custom(|iters| {
            let start = std::time::Instant::now();
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
        })
    });

    g.finish();

    let mut gr = c.benchmark_group("row_primitives");
    gr.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));

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
    for (name, schema, loaded, col, written) in [narrow, customer] {
        let table = Table::<TupleCc>::new(name, schema);
        let tup = table.insert(0, loaded);
        let pol = LockPolicy::bamboo();
        let mut id = 0u64;
        gr.bench_function(format!("sh_grant_release_{name}"), |b| {
            b.iter(|| {
                id += 1;
                let txn = TxnShared::new(id, ts.assign());
                let mut st = tup.meta.lock.lock();
                let row = match st.acquire(&tup, &pol, &txn, LockMode::Sh, &ts) {
                    Acquired::Granted { row, .. } => row,
                    _ => unreachable!(),
                };
                criterion::black_box(row);
                st.release(&txn, &pol, true, None);
            })
        });
        gr.bench_function(format!("ex_grant_set_retire_install_{name}"), |b| {
            b.iter(|| {
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
    }

    gr.finish();

    let mut gt = c.benchmark_group("table_primitives");
    gt.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));

    // Uniform random `get`s over a 2^18-row table. Keys come from the top
    // bits of a per-thread LCG, so drawing one costs a multiply-add.
    const TABLE_BITS: u32 = 18;
    let big = Table::<TupleCc>::with_capacity(
        "big",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
        1 << TABLE_BITS,
    );
    for k in 0..1u64 << TABLE_BITS {
        big.insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    let next_key = |x: &mut u64| {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> (64 - TABLE_BITS)
    };
    let random_gets = |seed: u64, iters: u64| {
        let mut x = seed;
        for _ in 0..iters {
            criterion::black_box(big.get(next_key(&mut x)));
        }
    };

    gt.bench_function("table_get", |b| {
        b.iter_custom(|iters| {
            let start = std::time::Instant::now();
            random_gets(1, iters);
            start.elapsed()
        })
    });

    gt.bench_function("table_get_2t", |b| {
        // Two threads look up at once; reported per lookup of one thread
        // (wall time ÷ `iters`), so it equals `table_get` when nothing is
        // shared between them.
        b.iter_custom(|iters| {
            let start = std::time::Instant::now();
            std::thread::scope(|s| {
                for seed in [1, 2] {
                    s.spawn(move || random_gets(seed, iters));
                }
            });
            start.elapsed()
        })
    });

    // One synthetic transaction's cold reads: 16 random keys, looked up in
    // turn, or first all prefetched (`Table::prefetch`) and then looked up.
    // Reported per key; the gap is what a stored procedure's prefetch pass
    // saves on each cold tuple.
    const BATCH: usize = 16;
    for (name, prefetch) in [("cold_get_16", false), ("cold_prefetch_get_16", true)] {
        gt.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut x = 1;
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    let keys: [u64; BATCH] = std::array::from_fn(|_| next_key(&mut x));
                    if prefetch {
                        for &k in &keys {
                            big.prefetch(k);
                        }
                    }
                    for &k in &keys {
                        criterion::black_box(big.get(k));
                    }
                }
                start.elapsed() / BATCH as u32
            })
        });
    }

    // One growth of every shard: a table sized for `GROW_CAP` keys takes
    // twice as many, so each of its 64 shards copies its ≈ 1 000 entries
    // into a 4× array once. `insert_grow` is the mean insert across that
    // span, `insert_grow_worst` the slowest single one: the stall a
    // growth's copy puts on the writer that triggers it.
    const GROW_CAP: usize = 1 << 16;
    let fresh = || {
        Table::<TupleCc>::with_capacity(
            "grow",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
            GROW_CAP,
        )
    };
    let row = |k: u64| Row::from(vec![Value::U64(k), Value::I64(0)]);
    gt.bench_function("insert_grow", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let t = fresh();
                let start = std::time::Instant::now();
                for k in 0..2 * GROW_CAP as u64 {
                    t.insert(k, row(k));
                }
                total += start.elapsed() / (2 * GROW_CAP as u32);
            }
            total
        })
    });
    gt.bench_function("insert_grow_worst", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let t = fresh();
                let mut worst = Duration::ZERO;
                for k in 0..2 * GROW_CAP as u64 {
                    let row = row(k);
                    let start = std::time::Instant::now();
                    t.insert(k, row);
                    worst = worst.max(start.elapsed());
                }
                total += worst;
            }
            total
        })
    });

    gt.finish();

    let mut g2 = c.benchmark_group("workload_primitives");
    g2.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));

    g2.bench_function("zipfian_sample_theta09", |b| {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let z = bamboo_workload::Zipfian::new(1 << 20, 0.9);
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| criterion::black_box(z.sample(&mut rng)))
    });

    g2.bench_function("wal_append_commit_record", |b| {
        use bamboo_core::wal::WalBuffer;
        use bamboo_storage::TableId;
        let mut wal = WalBuffer::new();
        let row = Row::from(vec![Value::U64(1), Value::I64(2)]);
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            wal.append_commit(id, [(TableId(0), 1u64, &row)].into_iter());
        })
    });

    g2.bench_function("row_local_copy", |b| {
        // The per-read local copy Optimization 1 relies on: a refcount bump
        // since rows are copy-on-write (a value-by-value copy before).
        let row = Row::from(vec![
            Value::U64(1),
            Value::I64(2),
            Value::from("ten-byte-s"),
            Value::F64(3.5),
        ]);
        b.iter(|| criterion::black_box(row.clone()))
    });

    g2.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
