//! Durability bench: what the WAL costs and what recovery buys back.
//!
//! Two sweeps over the partitioned bank (cross-partition transfers
//! through the manual session API — every commit is a genuine group
//! commit spanning two per-partition WALs), then two series below the
//! log:
//!
//! * **fsync sweep** — committed throughput and commit-latency
//!   percentiles (p50/p99/p999) under the in-memory ring baseline, each
//!   durable fsync policy (`never`, and group commit with a batch of one,
//!   `group_commit_1`, and with the bench's batching window,
//!   `group_commit`), and the deferred-ack pipeline under that window,
//!   `group_commit_flight`: flights of `--batch` commits staged with
//!   [`bamboo_core::session::Txn::commit_deferred`] and acknowledged with
//!   [`bamboo_core::session::Session::ack_ticket`], so locks release and
//!   versions install immediately, one leader fsync covers the whole
//!   staged flight, and acks ride the durability horizon. The spread is
//!   the headline: how much of the commit path the durability horizon
//!   costs, from "buffered appends only" to "every ack survives
//!   `kill -9`", and what the flight buys back over `group_commit_1`
//!   (`speedup`). Every durable series also records the coordinator's
//!   leader fsyncs, acks, mean batch and timeout-sourced wakeups.
//! * **recovery sweep** — wall-clock time of `PartitionedDb::recover` as
//!   the replayable log grows (transfers past the genesis checkpoint),
//!   split into restore + replay by the recovery report's counters.
//! * **device** — `fdatasync` latency of the directory's device, in raw
//!   `std::fs` below the log: after an append that grows a file, and
//!   after an overwrite of a file zero-filled in advance (what a
//!   preallocated segment's commit path does), with one writer and with
//!   two writing at once.
//! * **rotation** — a `SegmentWriter` at the default segment size, fsynced
//!   every few groups like a group-commit leader would: how long a
//!   `flush_group` that rotates holds the writer (seal, trim, preallocate
//!   the next segment), and how many bytes reach the device per log byte
//!   over whole segments, zero-fill included.
//!
//! Output: one JSON document, to `--out FILE` or stdout —
//! `BENCH_durability.json` at the repo root is CI's run, regenerated each
//! time like the other `BENCH_*.json` files.

use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bamboo_core::partition::{PartSession, PartitionedDb};
use bamboo_core::protocol::{LockingProtocol, Protocol};
use bamboo_core::sync::atomic::{AtomicU64, Ordering};
use bamboo_core::wal::DurabilityTicket;
use bamboo_core::DbOptions;
use bamboo_storage::{
    DataType, FsyncPolicy, PartitionId, RouteStrategy, Row, Schema, SegmentWriter, TableId, Value,
    WalRecord,
};

const ACCOUNTS_PER_PART: u64 = 64;
const PARTS: u32 = 2;
const INITIAL: i64 = 1_000;

/// Coordinator parameters used everywhere this bench batches `GroupCommit`.
const GROUP_POLICY: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 64,
    max_wait_us: 100,
};
/// Group commit with a batch of one: one fsync per commit, before the
/// synchronous `commit()` returns — the baseline the batching is measured
/// against.
const GROUP_COMMIT_1: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 1,
    max_wait_us: 0,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bamboo-bench-dur-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A range-partitioned bank; durable when `dir` is set, ring otherwise.
fn bank(dir: Option<(&PathBuf, FsyncPolicy)>) -> (Arc<PartitionedDb>, TableId) {
    let bounds = (1..PARTS as u64).map(|i| i * ACCOUNTS_PER_PART).collect();
    let mut b = PartitionedDb::builder(PARTS);
    let t = b.add_table(
        "accounts",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
        RouteStrategy::Range(bounds),
    );
    if let Some((dir, policy)) = dir {
        b.with_options(
            DbOptions::new()
                .with_wal_dir(dir.clone())
                .with_fsync_policy(policy),
        );
    }
    let pdb = b.build();
    for a in 0..PARTS as u64 * ACCOUNTS_PER_PART {
        pdb.insert(t, a, Row::from(vec![Value::U64(a), Value::I64(INITIAL)]));
    }
    (pdb, t)
}

/// Throughput plus the sorted per-commit latencies (µs) of a hammer run.
struct HammerResult {
    tput: f64,
    lat_us: Vec<u64>,
}

/// The `q` quantile of an ascending `sorted`, 0 when it is empty.
fn pctile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as f64 - 1.0) * q).round() as usize]
}

impl HammerResult {
    fn pctile(&self, q: f64) -> u64 {
        pctile(&self.lat_us, q)
    }

    fn lat_json(&self) -> String {
        format!(
            "{{\"p50\": {}, \"p99\": {}, \"p999\": {}}}",
            self.pctile(0.50),
            self.pctile(0.99),
            self.pctile(0.999)
        )
    }
}

/// Simple xorshift so workers don't share an RNG.
fn rng_next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Cross-partition transfers from `threads` workers for `dur`, through the
/// deferred-ack pipeline: each worker stages up to `batch` transfers with
/// `commit_deferred` (commit point hit, locks released, versions installed
/// — no fsync wait) and then acknowledges the whole flight with
/// `ack_ticket`, so one leader fsync covers the batch. Latency is begin →
/// ack: it includes the deferral window, which is exactly what a client of
/// the batched API observes. `batch = 1` is the synchronous commit:
/// `Txn::commit` is `commit_deferred` followed by `ack_ticket`.
fn hammer_deferred(
    pdb: &Arc<PartitionedDb>,
    t: TableId,
    threads: usize,
    dur: Duration,
    batch: usize,
) -> HammerResult {
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = Arc::new(PartSession::new(Arc::clone(pdb), proto));
    let committed = AtomicU64::new(0);
    let mut lat_slots: Vec<Vec<u64>> = (0..threads).map(|_| Vec::new()).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (w, lat) in lat_slots.iter_mut().enumerate() {
            let session = Arc::clone(&session);
            let committed = &committed;
            s.spawn(move || {
                let home = PartitionId(0);
                let mut rng = (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut local = 0u64;
                let mut pending: Vec<(DurabilityTicket, Instant)> = Vec::with_capacity(batch);
                loop {
                    let out_of_time = start.elapsed() >= dur;
                    if pending.len() >= batch || (out_of_time && !pending.is_empty()) {
                        // Every staged ticket must be acked before this
                        // worker exits: an abandoned ticket would leave its
                        // horizon registration pending forever and wedge
                        // the other workers' acks.
                        for (ticket, t0) in pending.drain(..) {
                            if session.session(home).ack_ticket(ticket).is_ok() {
                                local += 1;
                                lat.push(t0.elapsed().as_micros() as u64);
                            }
                        }
                        continue;
                    }
                    if out_of_time {
                        break;
                    }
                    let from = rng_next(&mut rng) % ACCOUNTS_PER_PART;
                    let to = ACCOUNTS_PER_PART + rng_next(&mut rng) % ACCOUNTS_PER_PART;
                    let amount = (rng_next(&mut rng) % 10) as i64 + 1;
                    let t0 = Instant::now();
                    let mut txn = session.begin_on(home);
                    let staged = txn
                        .update(t, from, |r| r.set(1, Value::I64(r.get_i64(1) - amount)))
                        .and_then(|_| {
                            txn.update(t, to, |r| r.set(1, Value::I64(r.get_i64(1) + amount)))
                        });
                    if staged.is_err() {
                        continue; // dropped `txn` runs the abort path
                    }
                    match txn.commit_deferred() {
                        Ok(Some(ticket)) => pending.push((ticket, t0)),
                        Ok(None) => {
                            // Already durable at the commit point (ring or
                            // non-group policies): ack is implicit.
                            local += 1;
                            lat.push(t0.elapsed().as_micros() as u64);
                        }
                        Err(_) => {}
                    }
                }
                committed.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    let tput = committed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64();
    let mut lat_us = lat_slots.concat();
    lat_us.sort_unstable();
    HammerResult { tput, lat_us }
}

/// Bytes the block device under the temp directory has written so far:
/// sectors written (`/sys/dev/block/MAJ:MIN/stat`, field 7) × 512. Every
/// writer on that device counts, so read it on a quiet box. `None` when
/// the directory is not on a block device (tmpfs, overlay) or the kernel
/// does not say.
fn device_bytes_written() -> Option<u64> {
    use std::os::unix::fs::MetadataExt;
    let dev = std::fs::metadata(std::env::temp_dir()).ok()?.dev();
    let major = ((dev >> 8) & 0xfff) | ((dev >> 32) & !0xfff);
    let minor = (dev & 0xff) | ((dev >> 12) & !0xff);
    let stat = std::fs::read_to_string(format!("/sys/dev/block/{major}:{minor}/stat")).ok()?;
    let sectors: u64 = stat.split_whitespace().nth(6)?.parse().ok()?;
    Some(sectors * 512)
}

/// Bytes the device wrote between two [`device_bytes_written`] readings,
/// `None` where either is missing.
fn device_delta(before: Option<u64>, after: Option<u64>) -> Option<u64> {
    Some(after?.saturating_sub(before?))
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |v| format!("{v:.2}"))
}

const MIB: f64 = (1u64 << 20) as f64;

/// One fsync-sweep run: the hammer's result, the device bytes written
/// (see [`fsync_sweep`]), the bytes logged, and the group-commit
/// coordinator's leader fsyncs, acks and (coverage, horizon) timeout
/// wakeups.
struct SweepRun {
    r: HammerResult,
    device: Option<u64>,
    logged: u64,
    fsyncs: u64,
    acks: u64,
    wakeups: (u64, u64),
}

/// Each durable policy's run also reports what the device wrote for it —
/// from before the bank is built (so the segments' preallocation counts)
/// until a final sync has put everything it logged on disk — against the
/// bytes it logged. `group_commit_flight` acks in flights of `batch`; its
/// `speedup` is over the `group_commit_1` series.
fn fsync_sweep(o: &Opts) -> String {
    let series: [(&str, Option<FsyncPolicy>, usize); 5] = [
        ("ring", None, 1),
        ("never", Some(FsyncPolicy::Never), 1),
        ("group_commit_1", Some(GROUP_COMMIT_1), 1),
        ("group_commit", Some(GROUP_POLICY), 1),
        ("group_commit_flight", Some(GROUP_POLICY), o.batch),
    ];
    let mut out = Vec::new();
    let mut base_tput = f64::NAN;
    for (name, policy, batch) in series {
        let mut best: Option<SweepRun> = None;
        for _ in 0..o.repeat {
            let dir = tmp_dir(name);
            let before = device_bytes_written();
            let (pdb, t) = bank(policy.map(|p| (&dir, p)));
            let r = hammer_deferred(&pdb, t, o.threads, o.dur, batch);
            if policy.is_some() {
                for p in pdb.parts() {
                    p.wal().sync().expect("bench WAL runs on the real backend");
                }
            }
            let run = SweepRun {
                r,
                device: device_delta(before, device_bytes_written()),
                logged: pdb.log_bytes(),
                fsyncs: pdb.group_fsyncs(),
                acks: pdb.group_acks(),
                wakeups: pdb.group_timeout_wakeups(),
            };
            drop(pdb);
            let _ = std::fs::remove_dir_all(&dir);
            if best.as_ref().is_none_or(|b| run.r.tput > b.r.tput) {
                best = Some(run);
            }
        }
        let run = best.expect("repeat >= 1");
        let r = &run.r;
        let device_mib = run
            .device
            .filter(|_| policy.is_some())
            .map(|b| b as f64 / MIB);
        eprintln!(
            "fsync {name:<19} {:>10.0} txn/s  lat(p50={}us p99={}us p999={}us)  \
             device={} MiB log={:.2} MiB",
            r.tput,
            r.pctile(0.50),
            r.pctile(0.99),
            r.pctile(0.999),
            json_opt(device_mib),
            run.logged as f64 / MIB
        );
        let mut json = format!(
            "{{\"policy\": \"{name}\", \"tput\": {:.0}, \"lat_us\": {}, \
             \"device_mib\": {}, \"log_mib\": {:.2}",
            r.tput,
            r.lat_json(),
            json_opt(device_mib),
            run.logged as f64 / MIB
        );
        if policy.is_some() {
            let mean_batch = run.acks as f64 / run.fsyncs.max(1) as f64;
            let (cover, horizon) = run.wakeups;
            eprintln!(
                "      leader_fsyncs={} acks={} mean_batch={mean_batch:.1}  \
                 timeout_wakeups: coverage={cover} horizon={horizon}",
                run.fsyncs, run.acks
            );
            json += &format!(
                ", \"leader_fsyncs\": {}, \"acks\": {}, \"mean_batch\": {mean_batch:.1}, \
                 \"coverage_timeout_wakeups\": {cover}, \"horizon_timeout_wakeups\": {horizon}",
                run.fsyncs, run.acks
            );
        }
        if name == "group_commit_1" {
            base_tput = r.tput;
        }
        if name == "group_commit_flight" {
            let speedup = r.tput / base_tput;
            eprintln!("      batch={batch} speedup over group_commit_1={speedup:.1}x");
            json += &format!(", \"batch\": {batch}, \"speedup\": {speedup:.2}");
        }
        out.push(json + "}");
    }
    format!("[{}]", out.join(", "))
}

/// Bytes written before each `fdatasync` in the device series: about one
/// `durable_transfer` group-commit batch on one partition (≈ 20 groups of
/// ≈ 83 B).
const DEVICE_CHUNK: usize = 2 << 10;
/// `fdatasync`s per writer per device point.
const DEVICE_SYNCS: usize = 500;

/// One device point: `writers` threads, each writing [`DEVICE_CHUNK`]
/// bytes at a time to its own file and `fdatasync`ing after each write,
/// started together so their syncs overlap. A growing file starts empty,
/// so every sync also commits the file's new size to the filesystem
/// journal; a `zero_filled` one was written full of zeros and synced
/// first, so every sync overwrites blocks the file already owns. Returns
/// the sorted sync latencies (µs) of all writers, and the bytes the device
/// wrote per byte they wrote (the zero-fill not counted).
fn device_point(zero_filled: bool, writers: usize) -> (Vec<u64>, Option<f64>) {
    let dir = tmp_dir(&format!("device-{zero_filled}-{writers}"));
    std::fs::create_dir_all(&dir).expect("create device bench directory");
    let chunk = [0xA5u8; DEVICE_CHUNK];
    // Both barriers hold the writers and this thread: `ready` once every
    // zero-fill is on disk, `go` once the device counter has been read.
    let (ready, go) = (Barrier::new(writers + 1), Barrier::new(writers + 1));
    let mut lat_slots: Vec<Vec<u64>> = vec![Vec::with_capacity(DEVICE_SYNCS); writers];
    let mut before = None;
    std::thread::scope(|s| {
        for (w, lat) in lat_slots.iter_mut().enumerate() {
            let (dir, ready, go, chunk) = (&dir, &ready, &go, &chunk);
            s.spawn(move || {
                let file = std::fs::File::create(dir.join(format!("w{w}")))
                    .expect("create device bench file");
                if zero_filled {
                    let zeros = vec![0u8; DEVICE_CHUNK * DEVICE_SYNCS];
                    file.write_all_at(&zeros, 0).expect("zero-fill");
                    file.sync_all().expect("sync the zero-fill");
                }
                ready.wait();
                go.wait();
                for i in 0..DEVICE_SYNCS {
                    file.write_all_at(chunk, (i * DEVICE_CHUNK) as u64)
                        .expect("device bench write");
                    let t0 = Instant::now();
                    file.sync_data().expect("device bench fdatasync");
                    lat.push(t0.elapsed().as_micros() as u64);
                }
            });
        }
        ready.wait();
        before = device_bytes_written();
        go.wait();
    });
    let written = (writers * DEVICE_SYNCS * DEVICE_CHUNK) as f64;
    let per_byte = device_delta(before, device_bytes_written()).map(|b| b as f64 / written);
    let _ = std::fs::remove_dir_all(&dir);
    let mut lat_us = lat_slots.concat();
    lat_us.sort_unstable();
    (lat_us, per_byte)
}

fn device_sweep() -> String {
    let mut out = Vec::new();
    for zero_filled in [false, true] {
        for writers in [1, 2] {
            let (lat, per_byte) = device_point(zero_filled, writers);
            let file = if zero_filled {
                "zero_filled"
            } else {
                "growing"
            };
            let mean = lat.iter().sum::<u64>() as f64 / lat.len() as f64;
            eprintln!(
                "device {file:<11} writers={writers}  fdatasync p50={}us p99={}us mean={mean:.0}us  \
                 device bytes per byte written={}",
                pctile(&lat, 0.50),
                pctile(&lat, 0.99),
                json_opt(per_byte)
            );
            out.push(format!(
                "{{\"file\": \"{file}\", \"writers\": {writers}, \"fdatasync_us\": \
                 {{\"p50\": {}, \"p99\": {}, \"mean\": {mean:.0}}}, \
                 \"device_bytes_per_byte\": {}}}",
                pctile(&lat, 0.50),
                pctile(&lat, 0.99),
                json_opt(per_byte)
            ));
        }
    }
    format!("[{}]", out.join(", "))
}

/// Groups per `sync` in the rotation series, about `durable_transfer`'s
/// mean batch.
const ROTATION_BATCH: u64 = 20;

/// Appends one partition's share of a transfer (`Begin`, one `Update`,
/// `Commit`) as a group to a default-sized segment chain, syncing every
/// [`ROTATION_BATCH`] groups, until the writer has rotated `rotations`
/// times. Reports each rotating `flush_group`'s wall time next to the
/// median of the others, and the device bytes per log byte over the run.
fn rotation_series(rotations: usize) -> String {
    let dir = tmp_dir("rotation");
    let segment_bytes = bamboo_core::db::DEFAULT_SEGMENT_BYTES;
    let before = device_bytes_written();
    let mut w = SegmentWriter::open(&dir, 0, GROUP_POLICY, segment_bytes)
        .expect("open the rotation bench log");
    let row = Row::from(vec![Value::U64(1), Value::I64(INITIAL)]);
    let (mut stall_us, mut append_ns) = (Vec::new(), Vec::new());
    let mut txn = 0u64;
    while stall_us.len() < rotations {
        txn += 1;
        w.stage_record(&WalRecord::Begin {
            txn_id: txn,
            commit_ts: txn,
            parts_mask: 0b11,
        });
        w.stage_update(0, txn % ACCOUNTS_PER_PART, &row);
        w.stage_record(&WalRecord::Commit {
            txn_id: txn,
            commit_ts: txn,
        });
        let segment = w.segment_index();
        let t0 = Instant::now();
        w.flush_group().expect("rotation bench append");
        let took = t0.elapsed();
        if w.segment_index() != segment {
            stall_us.push(took.as_micros() as u64);
        } else {
            append_ns.push(took.as_nanos() as u64);
        }
        if txn % ROTATION_BATCH == 0 {
            w.sync().expect("rotation bench sync");
        }
    }
    w.sync().expect("rotation bench sync");
    let logged = w.lsn();
    let per_log_byte =
        device_delta(before, device_bytes_written()).map(|b| b as f64 / logged as f64);
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);
    stall_us.sort_unstable();
    append_ns.sort_unstable();
    let group_bytes = logged / txn;
    eprintln!(
        "rotation  {rotations} rotations of {segment_bytes} B segments: stall p50={}us max={}us  \
         other appends p50={}ns  device bytes per log byte={}",
        pctile(&stall_us, 0.5),
        pctile(&stall_us, 1.0),
        pctile(&append_ns, 0.5),
        json_opt(per_log_byte)
    );
    format!(
        "{{\"segment_bytes\": {segment_bytes}, \"group_bytes\": {group_bytes}, \
         \"groups_per_sync\": {ROTATION_BATCH}, \"rotations\": {rotations}, \
         \"stall_us\": {{\"p50\": {}, \"max\": {}}}, \"append_ns_p50\": {}, \
         \"device_bytes_per_log_byte\": {}}}",
        pctile(&stall_us, 0.5),
        pctile(&stall_us, 1.0),
        pctile(&append_ns, 0.5),
        json_opt(per_log_byte)
    )
}

fn recovery_sweep(txn_counts: &[u64]) -> String {
    let mut out = Vec::new();
    for &n in txn_counts {
        let dir = tmp_dir(&format!("rec{n}"));
        let (pdb, t) = bank(Some((&dir, FsyncPolicy::Never)));
        pdb.checkpoint().expect("genesis checkpoint");

        // n committed transfers past the checkpoint, then force the tail
        // out (Never policy buffers) and "crash".
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let session = PartSession::new(Arc::clone(&pdb), proto);
        let mut done = 0u64;
        let mut k = 0u64;
        while done < n {
            k += 1;
            let from = k % ACCOUNTS_PER_PART;
            let to = ACCOUNTS_PER_PART + k % ACCOUNTS_PER_PART;
            let mut txn = session.begin_on(PartitionId(0));
            let ok = txn
                .update(t, from, |r| r.set(1, Value::I64(r.get_i64(1) - 1)))
                .and_then(|_| txn.update(t, to, |r| r.set(1, Value::I64(r.get_i64(1) + 1))))
                .and_then(|_| txn.commit());
            if ok.is_ok() {
                done += 1;
            }
        }
        for p in pdb.parts() {
            p.wal().sync().expect("bench WAL runs on the real backend");
        }
        let log_bytes: u64 = pdb.parts().iter().map(|p| p.wal().current_lsn()).sum();
        drop(pdb);

        let t0 = Instant::now();
        let (rec, report) =
            PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).expect("recovery");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            report.replayed_txns, n,
            "bench invariant: all transfers replay"
        );
        drop(rec);
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "recover {n:>6} txns ({:>8} log bytes): {ms:>8.2} ms  \
             ({} tuples restored, {} writes replayed)",
            log_bytes, report.restored_tuples, report.replayed_writes
        );
        out.push(format!(
            "{{\"txns\": {n}, \"log_bytes\": {log_bytes}, \"recover_ms\": {ms:.2}, \
             \"restored_tuples\": {}, \"replayed_writes\": {}}}",
            report.restored_tuples, report.replayed_writes
        ));
    }
    format!("[{}]", out.join(", "))
}

/// The bench's flags, each with its default.
#[derive(Debug, PartialEq)]
struct Opts {
    out: Option<String>,
    dur: Duration,
    threads: usize,
    repeat: usize,
    batch: usize,
    txns: Vec<u64>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            out: None,
            dur: Duration::from_millis(300),
            threads: 4,
            repeat: 3,
            batch: 32,
            txns: vec![1_000, 5_000, 20_000],
        }
    }
}

impl Opts {
    /// Parses `--out FILE`, `--duration-ms N`, `--threads N`, `--repeat N`,
    /// `--batch N` and `--txns a,b,c` in any order. `None` on an unknown
    /// flag or a missing or malformed value.
    fn from_args(args: &[String]) -> Option<Opts> {
        let mut o = Opts::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args.next()?;
            match flag.as_str() {
                "--out" => o.out = Some(value.clone()),
                "--duration-ms" => o.dur = Duration::from_millis(value.parse().ok()?),
                "--threads" => o.threads = value.parse().ok()?,
                "--repeat" => o.repeat = value.parse::<usize>().ok()?.max(1),
                "--batch" => o.batch = value.parse::<usize>().ok()?.max(1),
                "--txns" => {
                    let list = value.split(',').map(|n| n.trim().parse().ok());
                    o.txns = list.collect::<Option<Vec<u64>>>()?;
                }
                _ => return None,
            }
        }
        Some(o)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: durability [--out FILE] [--duration-ms N] [--threads N] [--repeat N] \
         [--batch N] [--txns a,b,c]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = Opts::from_args(&args).unwrap_or_else(|| usage());
    let fsync = fsync_sweep(&o);
    let recovery = recovery_sweep(&o.txns);
    let device = device_sweep();
    let rotation = rotation_series(5);
    let (threads, repeat) = (o.threads, o.repeat);
    let doc = format!(
        "{{\n  \"bench\": \"durability\",\n  \"protocol\": \"bamboo\",\n  \
         \"threads\": {threads},\n  \"repeat\": {repeat},\n  \"partitions\": {PARTS},\n  \
         \"fsync\": {{\n    \"note\": \"cross-partition bank transfers; ring = in-memory baseline; \
         group_commit_flight = group_commit acking flights of batch commits deferred \
         (commit_deferred + ack_ticket), speedup = its tput over group_commit_1's; \
         device_mib = bytes the block device wrote from set-up until the log was synced, \
         segment preallocation included\",\n    \
         \"series\": {fsync}\n  }},\n  \
         \"recovery\": {{\n    \"note\": \"genesis checkpoint + N transfers, recover from cold\",\n    \
         \"series\": {recovery}\n  }},\n  \
         \"device\": {{\n    \"note\": \"raw std::fs: fdatasync after a {DEVICE_CHUNK}-byte write, \
         {DEVICE_SYNCS} per writer; growing = appending to an empty file, zero_filled = \
         overwriting a file zero-filled and synced in advance\",\n    \
         \"series\": {device}\n  }},\n  \
         \"rotation\": {rotation}\n}}\n",
    );
    match o.out {
        Some(path) => {
            std::fs::write(&path, &doc).expect("write JSON output");
            eprintln!("wrote {path}");
        }
        None => print!("{doc}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Option<Opts> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        Opts::from_args(&args)
    }

    #[test]
    fn no_flags_give_the_defaults() {
        assert_eq!(parse(""), Some(Opts::default()));
    }

    #[test]
    fn every_flag_parses_in_any_order() {
        let o = parse(
            "--txns 1000,5000 --out b.json --repeat 0 --threads 2 --batch 8 --duration-ms 20",
        )
        .unwrap();
        assert_eq!(
            o,
            Opts {
                out: Some("b.json".into()),
                dur: Duration::from_millis(20),
                threads: 2,
                repeat: 1,
                batch: 8,
                txns: vec![1000, 5000],
            }
        );
    }

    #[test]
    fn a_trailing_flag_is_refused() {
        assert_eq!(parse("--out"), None);
        assert_eq!(parse("--repeat 2 --out"), None);
    }

    #[test]
    fn an_unknown_flag_is_refused() {
        assert_eq!(parse("--output b.json"), None);
        assert_eq!(parse("--frobnicate"), None);
    }

    #[test]
    fn a_malformed_number_is_refused() {
        assert_eq!(parse("--txns 1,x"), None);
        assert_eq!(parse("--threads four"), None);
    }
}
