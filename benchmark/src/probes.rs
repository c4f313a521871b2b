//! Per-layer probes: fixed-iteration loops around one public call each,
//! run on one thread (two for the `_2t` ones) after the workers have
//! stopped, reported as the median of [`BATCHES`] batches in ns per call.
//!
//! Read-only probes run on the workload's own main table, so the table's
//! size and row shape are the workload's. Probes that write run on a scratch
//! database holding copies of that table's first [`SCRATCH_ROWS`] rows, so
//! they cannot disturb the state the correctness checks read. Each call
//! touches the next tuple of the set: uncontended, as a cold tuple of the
//! workload is.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bamboo_core::lock::{Acquired, CommitInstall, LockPolicy};
use bamboo_core::protocol::{LockingProtocol, Protocol, SiloProtocol};
use bamboo_core::ts::TsSource;
use bamboo_core::wal::WalBuffer;
use bamboo_core::{Database, LockMode, Session, TupleCc, TxnOptions, TxnShared};
use bamboo_storage::log::{decode_record, encode_record, frame_update};
use bamboo_storage::{FsyncPolicy, Row, SegmentWriter, Table, TableId, Tuple, WalRecord};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::workloads::TempDir;

/// Timed batches per probe; the median is reported.
const BATCHES: usize = 5;
/// Rows of the scratch table.
const SCRATCH_ROWS: u64 = 4096;
/// Keys of the workload's table the lookup probe cycles through.
const LOOKUP_KEYS: usize = 1 << 16;

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

/// Times `body(i)` for `i` in `0..iters`.
fn timed(iters: u64, mut body: impl FnMut(u64)) -> Duration {
    let t0 = Instant::now();
    for i in 0..iters {
        body(i);
    }
    t0.elapsed()
}

/// `body(thread, i)` on two threads started together; a batch takes as long
/// as the slower thread.
fn per_op_2t(iters: u64, body: impl Fn(usize, u64) + Sync) -> f64 {
    per_op(iters, |n| {
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|w| {
                    let (barrier, body) = (&barrier, &body);
                    s.spawn(move || {
                        barrier.wait();
                        timed(n, |i| body(w, i))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .max()
                .expect("two probe threads")
        })
    })
}

/// A scratch database with one table of the workload's row shape.
struct Scratch {
    db: Arc<Database>,
    table: TableId,
    /// A row of the workload's main table.
    row: Row,
}

impl Scratch {
    fn new(main: &Table<TupleCc>) -> Self {
        let mut b = Database::builder();
        let table = b.add_table_with_capacity("probe", main.schema.clone(), SCRATCH_ROWS as usize);
        let db = b.build();
        let rows = SCRATCH_ROWS.min(main.len() as u64);
        for k in 0..SCRATCH_ROWS {
            let src = main
                .get_by_row_id(k % rows)
                .expect("workload table is loaded");
            db.table(table).insert(k, src.read_row());
        }
        let row = db.table(table).get(0).expect("scratch row").read_row();
        Scratch { db, table, row }
    }

    fn tuple(&self, i: u64) -> Arc<Tuple<TupleCc>> {
        self.db
            .table(self.table)
            .get(i % SCRATCH_ROWS)
            .expect("scratch key")
    }

    /// One single-update transaction per call under `proto`, as a stored
    /// procedure declaring its one operation.
    fn update1(&self, proto: Arc<dyn Protocol>, iters: u64) -> f64 {
        let session = Session::new(Arc::clone(&self.db), proto);
        per_op(iters, |n| {
            timed(n, |i| update1(&session, self.table, i % SCRATCH_ROWS))
        })
    }
}

fn update1(session: &Session, table: TableId, key: u64) {
    let mut txn = session.begin_with(TxnOptions::new().planned_ops(1));
    txn.update(table, key, |r| {
        let v = r.get(1).clone();
        r.set(1, v);
    })
    .expect("uncontended update");
    txn.commit().expect("uncontended commit");
}

/// Runs every probe. `main` is the workload's main table; files go under
/// `scratch_root`. `quick` divides the iteration counts by ten.
pub fn run(
    main: &Table<TupleCc>,
    scratch_root: &Path,
    quick: bool,
) -> Result<Vec<(&'static str, f64)>, String> {
    let scale = |iters: u64| if quick { iters / 10 } else { iters };
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let s = Scratch::new(main);
    let bamboo = || Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>;

    // session / protocol: whole transactions through the public API.
    let session = Session::new(Arc::clone(&s.db), bamboo());
    out.push((
        "session.empty_txn_ns",
        per_op(scale(20_000), |n| {
            timed(n, |_| session.begin().commit().expect("empty commit"))
        }),
    ));
    out.push(("session.update1_txn_ns", s.update1(bamboo(), scale(10_000))));
    out.push(("session.update1_txn_2t_ns", {
        // Each thread owns a session (its own WAL ring) and half the keys.
        let sessions = [
            Session::new(Arc::clone(&s.db), bamboo()),
            Session::new(Arc::clone(&s.db), bamboo()),
        ];
        per_op_2t(scale(10_000), |w, i| {
            let half = SCRATCH_ROWS / 2;
            update1(&sessions[w], s.table, w as u64 * half + i % half)
        })
    }));
    out.push((
        "session.snapshot_begin_commit_ns",
        per_op(scale(20_000), |n| {
            timed(n, |_| session.snapshot().commit().expect("snapshot commit"))
        }),
    ));
    out.push((
        "protocol.silo_update1_txn_ns",
        s.update1(Arc::new(SiloProtocol::new()), scale(10_000)),
    ));
    out.push((
        "protocol.wound_wait_update1_txn_ns",
        s.update1(Arc::new(LockingProtocol::wound_wait()), scale(10_000)),
    ));

    // lock: the per-tuple lock entry, driven as the protocols drive it.
    let ts = TsSource::new();
    let mut txn_id = 0u64;
    let mut fresh_txn = || {
        txn_id += 1;
        TxnShared::new(txn_id, ts.assign())
    };
    for (name, mode) in [
        ("lock.acquire_release_ex_ns", LockMode::Ex),
        ("lock.acquire_release_sh_ns", LockMode::Sh),
    ] {
        let pol = LockPolicy::wound_wait();
        out.push((
            name,
            per_op(scale(20_000), |n| {
                timed(n, |i| {
                    let tup = s.tuple(i);
                    let txn = fresh_txn();
                    let mut st = tup.meta.lock.lock();
                    let _ = st.acquire(&tup, &pol, &txn, mode, &ts);
                    st.release(&txn, &pol, true, None);
                })
            }),
        ));
    }
    let pol = LockPolicy::bamboo();
    out.push((
        "lock.acquire_retire_release_ex_ns",
        per_op(scale(20_000), |n| {
            timed(n, |i| {
                let tup = s.tuple(i);
                let txn = fresh_txn();
                let row = match tup
                    .meta
                    .lock
                    .lock()
                    .acquire(&tup, &pol, &txn, LockMode::Ex, &ts)
                {
                    Acquired::Granted { row, .. } => row,
                    _ => unreachable!("uncontended tuple"),
                };
                tup.meta.lock.lock().retire(&txn, row.clone(), &pol);
                tup.meta.lock.lock().release(
                    &txn,
                    &pol,
                    true,
                    Some(CommitInstall::untimed(&tup, &row)),
                );
            })
        }),
    ));
    out.push(("lock.dirty_read_grant_ns", {
        // A retired writer sits on the tuple; readers slot in behind it.
        let tup = s.tuple(0);
        let writer = fresh_txn();
        let row = match tup
            .meta
            .lock
            .lock()
            .acquire(&tup, &pol, &writer, LockMode::Ex, &ts)
        {
            Acquired::Granted { row, .. } => row,
            _ => unreachable!("uncontended tuple"),
        };
        tup.meta.lock.lock().retire(&writer, row.clone(), &pol);
        let ns = per_op(scale(20_000), |n| {
            timed(n, |_| {
                let txn = fresh_txn();
                let mut st = tup.meta.lock.lock();
                let _ = st.acquire(&tup, &pol, &txn, LockMode::Sh, &ts);
                st.release(&txn, &pol, true, None);
            })
        });
        tup.meta.lock.lock().release(
            &writer,
            &pol,
            true,
            Some(CommitInstall::untimed(&tup, &row)),
        );
        ns
    }));

    // db: the commit clock and the snapshot registry, alone and shared.
    let db = &s.db;
    let clock = |_: u64| db.commit_clock.finish(db.commit_clock.allocate());
    out.push((
        "db.clock_allocate_finish_ns",
        per_op(scale(50_000), |n| timed(n, clock)),
    ));
    out.push((
        "db.clock_allocate_finish_2t_ns",
        per_op_2t(scale(50_000), |_, i| clock(i)),
    ));
    let snapshot = |_: u64| db.release_snapshot(db.register_snapshot());
    out.push((
        "db.snapshot_register_release_ns",
        per_op(scale(50_000), |n| timed(n, snapshot)),
    ));
    out.push((
        "db.snapshot_register_release_2t_ns",
        per_op_2t(scale(50_000), |_, i| snapshot(i)),
    ));

    // version: installs with the watermark keeping up, and with it pinned by
    // one old snapshot so that every chain is past the trim threshold.
    let threshold = db.trim_threshold();
    let mut commit_ts = 1u64;
    let mut install = |pinned: bool, iters: u64| {
        per_op(iters, |n| {
            // The after-images are built outside the timed section.
            let mut rows: Vec<Row> = (0..n).map(|_| s.row.clone()).collect();
            timed(n, |i| {
                commit_ts += 1;
                let watermark = if pinned { 0 } else { commit_ts - 1 };
                // 64 tuples, so a pinned chain passes the threshold at once.
                s.tuple(i % 64).install_versioned_with(
                    rows.pop().expect("one row per install"),
                    commit_ts,
                    watermark,
                    threshold,
                );
            })
        })
    };
    out.push(("version.install_ns", install(false, scale(20_000))));
    out.push(("version.install_pinned_ns", install(true, scale(20_000))));
    out.push(("version.read_at_ns", {
        // Chains of exactly `threshold` retained versions, read in the middle.
        let base = commit_ts + 1;
        for k in 64..128 {
            for v in 0..threshold as u64 {
                s.tuple(k)
                    .install_versioned_with(s.row.clone(), base + v, 0, usize::MAX);
            }
        }
        let snap = base + threshold as u64 / 2;
        per_op(scale(50_000), |n| {
            timed(n, |i| {
                std::hint::black_box(s.tuple(64 + i % 64).read_at(snap));
            })
        })
    }));

    // table / index / row, on the workload's own table.
    let keys: Vec<u64> = {
        let len = main.len() as u64;
        let n = (LOOKUP_KEYS as u64).min(len);
        // An odd stride visits distinct slab positions, far apart.
        (0..n)
            .map(|i| {
                main.get_by_row_id(i.wrapping_mul(0x9E37_79B1) % len)
                    .expect("loaded row")
                    .key
            })
            .collect()
    };
    out.push((
        "table.get_ns",
        per_op(scale(50_000), |n| {
            timed(n, |i| {
                std::hint::black_box(main.get(keys[i as usize % keys.len()]));
            })
        }),
    ));
    let ordered = db.table(s.table).enable_ordered_index();
    out.push((
        "ordered.range16_ns",
        per_op(scale(20_000), |n| {
            timed(n, |i| {
                let lo = i.wrapping_mul(97) % (SCRATCH_ROWS - 16);
                std::hint::black_box(ordered.range(lo..=lo + 15));
            })
        }),
    ));
    out.push((
        "row.clone_ns",
        per_op(scale(50_000), |n| {
            timed(n, |_| {
                std::hint::black_box(std::hint::black_box(&s.row).clone());
            })
        }),
    ));

    // wal / log: the ring, the record codec, the segment writer, the device.
    let mut ring = WalBuffer::new();
    out.push((
        "wal.ring_append_ns",
        per_op(scale(20_000), |n| {
            timed(n, |i| {
                ring.append_commit(i, [(s.table, i, &s.row)].into_iter())
            })
        }),
    ));
    let (mut framed, mut payload) = (Vec::new(), Vec::new());
    out.push((
        "log.frame_update_ns",
        per_op(scale(20_000), |n| {
            timed(n, |i| {
                framed.clear();
                frame_update(&mut framed, &mut payload, s.table.0, i, &s.row);
                std::hint::black_box(&framed);
            })
        }),
    ));
    payload.clear();
    encode_record(
        &WalRecord::Update {
            table: s.table.0,
            key: 1,
            row: s.row.clone(),
        },
        &mut payload,
    );
    out.push((
        "log.decode_record_ns",
        per_op(scale(20_000), |n| {
            timed(n, |_| {
                std::hint::black_box(decode_record(std::hint::black_box(&payload)));
            })
        }),
    ));
    let (_dir, mut writer) = scratch_segment(scratch_root, "probe")?;
    let mut io_error = None;
    out.push((
        "log.stage_flush_ns",
        per_op(scale(5_000), |n| {
            timed(n, |i| {
                writer.stage_update(s.table.0, i, &s.row);
                if let Err(e) = writer.flush_group() {
                    io_error = Some(e);
                }
            })
        }),
    ));
    if let Some(e) = io_error {
        return Err(format!("probe segment write: {e}"));
    }

    // workload: the generator's sampler runs inside the measured loop.
    let zipf = bamboo_workload::Zipfian::new(1 << 17, 0.9);
    let mut rng = SmallRng::seed_from_u64(1);
    out.push((
        "zipf.sample_ns",
        per_op(scale(50_000), |n| {
            timed(n, |_| {
                std::hint::black_box(zipf.sample(&mut rng));
            })
        }),
    ));
    Ok(out)
}

/// A log segment that never syncs on its own, in a fresh directory that goes
/// when the guard is dropped.
fn scratch_segment(scratch_root: &Path, tag: &str) -> Result<(TempDir, SegmentWriter), String> {
    let dir = TempDir::new(scratch_root, tag).map_err(|e| format!("{tag} directory: {e}"))?;
    let writer = SegmentWriter::open(
        dir.path(),
        0,
        FsyncPolicy::Never,
        bamboo_core::db::DEFAULT_SEGMENT_BYTES,
    )
    .map_err(|e| format!("{tag} segment: {e}"))?;
    Ok((dir, writer))
}

/// Median time of one `fsync` of a freshly appended record on the
/// directory's device, in µs. The sandbox's device, not a disk's
/// specification: recorded with every result so that the durable workload's
/// numbers stay attached to the device they were measured on.
pub fn sync_us(scratch_root: &Path) -> Result<f64, String> {
    const SYNCS: usize = 15;
    let (_dir, mut writer) = scratch_segment(scratch_root, "sync")?;
    let record = WalRecord::Commit {
        txn_id: 1,
        commit_ts: 1,
    };
    let mut us = Vec::with_capacity(SYNCS);
    for _ in 0..SYNCS {
        writer
            .append_record(&record)
            .map_err(|e| format!("sync append: {e}"))?;
        let t0 = Instant::now();
        writer.sync().map_err(|e| format!("fsync: {e}"))?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    us.sort_by(f64::total_cmp);
    Ok(us[SYNCS / 2])
}
