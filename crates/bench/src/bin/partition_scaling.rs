//! Partition-scaling bench: committed throughput as the database is split
//! into 1/2/4/8 partitions, under single-partition and cross-partition
//! transaction mixes.
//!
//! TPC-C is partitioned by warehouse with `warehouses == partitions` — the
//! canonical split, and the scaling story the partition refactor exists
//! for: the 1-partition point is the paper's high-contention 1-warehouse
//! configuration, and each added partition adds a warehouse with its own
//! lock-entry space and stats slab (the runs have no `wal_dir`: every
//! worker logs to its own session rings). The *single* mix pins
//! `remote_ratio = 0` (every transaction stays on its home partition);
//! the *cross* mix uses the spec's remote ratios (15% remote payments,
//! 15% remote-stock lines), making a sizable fraction of commits genuine
//! cross-partition commits. YCSB runs the same sweep over a
//! range-partitioned table with a zipfian hotspot per partition.
//!
//! The default protocol is **interactive Wound-Wait** (the paper's
//! client-server deployment: each operation pays a simulated RPC while
//! holding its locks). That makes each partition's hot rows a genuine
//! serialization bottleneck independent of core count — the bottleneck
//! partitioning removes — so the sweep measures the *architecture* even
//! on a small CI box, where stored-procedure transactions are too short
//! for cross-thread conflicts to dominate. `--protocol bamboo` /
//! `--protocol wound_wait` run the stored-procedure variants. Each point
//! is best-of-`--repeat` runs (the bench shares a box with CI noise).
//!
//! Output: `BENCH_partition_scaling.json` — committed at the repo root
//! and regenerated by CI each run.

use std::sync::Arc;
use std::time::Duration;

use bamboo_core::executor::{run_part_bench, BenchConfig, Workload};
use bamboo_core::protocol::{InteractiveProtocol, LockingProtocol, Protocol};
use bamboo_core::stats::BenchResult;
use bamboo_workload::tpcc::{self, TpccConfig, TpccWorkload};
use bamboo_workload::ycsb::{self, YcsbConfig, YcsbWorkload};

/// One measured point.
struct Point {
    partitions: u32,
    tput: f64,
    abort_rate: f64,
    cross_share: f64,
}

impl Point {
    fn from(partitions: u32, res: &BenchResult) -> Self {
        Point {
            partitions,
            tput: res.throughput(),
            abort_rate: res.abort_rate(),
            cross_share: res.cross_partition_share(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"partitions\": {}, \"tput\": {:.0}, \"abort_rate\": {:.4}, \"cross_share\": {:.4}}}",
            self.partitions, self.tput, self.abort_rate, self.cross_share
        )
    }
}

fn series_json(points: &[Point]) -> String {
    let inner = points
        .iter()
        .map(Point::json)
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{inner}]")
}

fn bench_cfg(threads: usize, dur: Duration) -> BenchConfig {
    BenchConfig::quick(threads)
        .with_duration(dur)
        .with_warmup(dur / 5)
        .with_seed(17)
}

fn make_proto(name: &str) -> Arc<dyn Protocol> {
    match name {
        "bamboo" => Arc::new(LockingProtocol::bamboo()),
        "wound_wait" => Arc::new(LockingProtocol::wound_wait()),
        // Interactive mode (the paper's client-server deployment): every
        // operation pays a simulated RPC while holding its locks, so the
        // hot rows of a partition serialize its throughput regardless of
        // core count — which is exactly the bottleneck partitioning
        // removes, and why this is the sweep's default.
        "interactive" => Arc::new(InteractiveProtocol::new(
            LockingProtocol::wound_wait(),
            Duration::from_micros(100),
        )),
        other => panic!("unknown protocol {other} (bamboo | wound_wait | interactive)"),
    }
}

/// Runs one point `repeat` times and keeps the best run — the bench
/// shares a box with CI noise, and max-of-N is the standard guard for a
/// throughput headline (a slow outlier says something about the box, not
/// the architecture).
fn best_of(repeat: usize, mut run: impl FnMut() -> Point) -> Point {
    let mut best = run();
    for _ in 1..repeat {
        let p = run();
        if p.tput > best.tput {
            best = p;
        }
    }
    best
}

fn tpcc_point(
    partitions: u32,
    remote_ratio: f64,
    proto_name: &str,
    threads: usize,
    dur: Duration,
    repeat: usize,
) -> Point {
    let cfg = TpccConfig {
        warehouses: partitions as u64,
        items: 2_000,
        customers_per_district: 200,
        partitions: partitions as u64,
        ..TpccConfig::default()
    }
    .with_remote_ratio(remote_ratio);
    let (pdb, tables, lastname) = tpcc::load_partitioned(&cfg);
    let wl: Arc<dyn Workload> = Arc::new(TpccWorkload::new_partitioned(
        cfg.clone(),
        &pdb,
        tables,
        lastname,
    ));
    let proto = make_proto(proto_name);
    best_of(repeat, || {
        Point::from(
            partitions,
            &run_part_bench(&pdb, &proto, &wl, &bench_cfg(threads, dur)),
        )
    })
}

fn ycsb_point(
    partitions: u32,
    remote_ratio: f64,
    proto_name: &str,
    threads: usize,
    dur: Duration,
    repeat: usize,
) -> Point {
    let cfg = YcsbConfig {
        rows: 1 << 15,
        theta: 0.9,
        read_ratio: 0.5,
        ops_per_txn: 8,
        ..YcsbConfig::default()
    }
    .with_partitions(partitions, remote_ratio);
    let (pdb, t) = ycsb::load_partitioned(&cfg);
    let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
    let proto = make_proto(proto_name);
    best_of(repeat, || {
        Point::from(
            partitions,
            &run_part_bench(&pdb, &proto, &wl, &bench_cfg(threads, dur)),
        )
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out: Option<String> = None;
    let mut dur = Duration::from_millis(200);
    let mut threads = 8usize;
    let mut repeat = 3usize;
    let mut proto = "interactive".to_string();
    let mut partitions: Vec<u32> = vec![1, 2, 4, 8];
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = Some(args[i + 1].clone());
                i += 2;
            }
            "--duration-ms" => {
                dur = Duration::from_millis(args[i + 1].parse().expect("duration in ms"));
                i += 2;
            }
            "--threads" => {
                threads = args[i + 1].parse().expect("thread count");
                i += 2;
            }
            "--repeat" => {
                repeat = args[i + 1].parse::<usize>().expect("repeat count").max(1);
                i += 2;
            }
            "--protocol" => {
                proto = args[i + 1].clone();
                i += 2;
            }
            "--partitions" => {
                partitions = args[i + 1]
                    .split(',')
                    .map(|p| p.trim().parse().expect("partition count"))
                    .collect();
                i += 2;
            }
            other => panic!("unknown flag {other}"),
        }
    }

    let mut tpcc_single = Vec::new();
    let mut tpcc_cross = Vec::new();
    let mut ycsb_single = Vec::new();
    let mut ycsb_cross = Vec::new();
    for &n in &partitions {
        let ts = tpcc_point(n, 0.0, &proto, threads, dur, repeat);
        let tc = tpcc_point(n, 0.15, &proto, threads, dur, repeat);
        let ys = ycsb_point(n, 0.0, &proto, threads, dur, repeat);
        let yc = ycsb_point(n, 0.2, &proto, threads, dur, repeat);
        eprintln!(
            "partitions={n:<2} tpcc single={:>9.0} txn/s  cross={:>9.0} txn/s ({:>4.1}% x-part) | \
             ycsb single={:>9.0} txn/s  cross={:>9.0} txn/s ({:>4.1}% x-part)",
            ts.tput,
            tc.tput,
            tc.cross_share * 100.0,
            ys.tput,
            yc.tput,
            yc.cross_share * 100.0,
        );
        tpcc_single.push(ts);
        tpcc_cross.push(tc);
        ycsb_single.push(ys);
        ycsb_cross.push(yc);
    }

    let doc = format!(
        "{{\n  \"bench\": \"partition_scaling\",\n  \"protocol\": \"{proto}\",\n  \
         \"threads\": {threads},\n  \"repeat\": {repeat},\n  \
         \"partitions\": {partitions:?},\n  \
         \"tpcc\": {{\n    \"note\": \"warehouses == partitions; 1 partition = the 1-warehouse high-contention baseline\",\n    \
         \"single\": {},\n    \"cross\": {}\n  }},\n  \
         \"ycsb\": {{\n    \"note\": \"range-partitioned, zipfian theta 0.9 per partition\",\n    \
         \"single\": {},\n    \"cross\": {}\n  }}\n}}\n",
        series_json(&tpcc_single),
        series_json(&tpcc_cross),
        series_json(&ycsb_single),
        series_json(&ycsb_cross),
    );
    match out {
        Some(path) => {
            std::fs::write(&path, &doc).expect("write JSON output");
            eprintln!("wrote {path}");
        }
        None => print!("{doc}"),
    }
}
