//! One function per paper figure/table (the `repro` binary's usage text is
//! the experiment index).
//!
//! Every function loads its workload, sweeps the paper's parameter, and
//! prints the same series the paper plots: throughput and — for the
//! "runtime analysis" panels — amortized per-commit lock-wait / abort /
//! commit-wait times. Absolute numbers depend on the host; EXPERIMENTS.md
//! records the measured *shapes* against the paper's.

use std::sync::Arc;

use bamboo_core::executor::Workload;
use bamboo_core::model;
use bamboo_core::protocol::{Ic3Protocol, LockingProtocol, Protocol, SiloProtocol};
use bamboo_workload::synthetic::{self, SyntheticConfig, SyntheticWorkload};
use bamboo_workload::tpcc::{self, TpccConfig, TpccWorkload};
use bamboo_workload::ycsb::{self, YcsbConfig, YcsbWorkload};

use crate::harness::{all_protocols, RunOpts, Series};

fn bamboo_vs_ww() -> Vec<Arc<dyn Protocol>> {
    vec![
        Arc::new(LockingProtocol::bamboo()),
        Arc::new(LockingProtocol::wound_wait()),
    ]
}

/// §5.2 headline: single RMW hotspot at the beginning; stored-procedure
/// BAMBOO vs best 2PL (the paper reports 6×) and interactive BAMBOO vs
/// WOUND_WAIT (7×).
pub fn sec52(opts: &RunOpts) {
    let cfg = SyntheticConfig::one_hotspot(0.0);
    let (db, t) = synthetic::load(&cfg);
    let wl: Arc<dyn Workload> = Arc::new(SyntheticWorkload::new(cfg.clone(), t));
    let threads = *opts.threads.last().unwrap_or(&8);

    let mut s = Series::new("sec5.2 single hotspot at beginning (stored procedure)");
    for proto in all_protocols() {
        s.run_point(threads, &db, &proto, &wl, &opts.config(threads));
    }
    s.print();

    let mut si = Series::new("sec5.2 single hotspot at beginning (interactive)");
    for proto in all_protocols() {
        si.run_point(threads, &db, &proto, &wl, &opts.interactive(threads));
    }
    si.print();
}

/// Figure 3a: speedup of BAMBOO over WOUND_WAIT vs thread count, for
/// transaction lengths {4, 16, 64}.
pub fn fig3a(opts: &RunOpts) {
    for ops in [4usize, 16, 64] {
        let cfg = SyntheticConfig::one_hotspot(0.0).with_ops(ops);
        let (db, t) = synthetic::load(&cfg);
        let wl: Arc<dyn Workload> = Arc::new(SyntheticWorkload::new(cfg.clone(), t));
        let mut s = Series::new(&format!("fig3a speedup BB/WW ({ops} ops per txn)"));
        for &threads in &opts.threads {
            for proto in bamboo_vs_ww() {
                s.run_point(threads, &db, &proto, &wl, &opts.config(threads));
            }
        }
        s.print();
        println!("-- speedup (BB over WW) --");
        for &threads in &opts.threads {
            let x = threads.to_string();
            if let (Some(bb), Some(ww)) = (
                s.throughput_of(&x, "BAMBOO"),
                s.throughput_of(&x, "WOUND_WAIT"),
            ) {
                println!("threads={threads:<3} speedup={:.2}x", bb / ww.max(1.0));
            }
        }
    }
}

/// Figure 3b: throughput vs hotspot position (0 → start, 1 → end),
/// 16-operation transactions.
pub fn fig3b(opts: &RunOpts) {
    let threads = 16.min(*opts.threads.last().unwrap_or(&16));
    let mut s = Series::new("fig3b throughput vs hotspot position (16 ops)");
    // One table serves every position: only the workload changes.
    let base = SyntheticConfig::one_hotspot(0.0);
    let (db, t) = synthetic::load(&base);
    for pos in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let cfg = SyntheticConfig::one_hotspot(pos).with_rows(base.rows);
        let wl: Arc<dyn Workload> = Arc::new(SyntheticWorkload::new(cfg, t));
        for proto in bamboo_vs_ww() {
            s.run_point(pos, &db, &proto, &wl, &opts.config(threads));
        }
    }
    s.print();
}

fn two_hotspot_protocols() -> Vec<Arc<dyn Protocol>> {
    vec![
        Arc::new(LockingProtocol::bamboo_base()),
        Arc::new(LockingProtocol::bamboo()),
        Arc::new(LockingProtocol::wound_wait()),
    ]
}

/// Figure 4: two hotspots, the first fixed at the beginning, the second
/// swept; BAMBOO-base vs BAMBOO vs WOUND_WAIT, throughput + breakdown.
pub fn fig4(opts: &RunOpts) {
    let threads = 32.min(*opts.threads.last().unwrap_or(&32));
    let mut s = Series::new(&format!(
        "fig4 two hotspots, 1st at beginning, 2nd swept ({threads} threads)"
    ));
    let base = SyntheticConfig::two_hotspots(0.0, 0.5);
    let (db, t) = synthetic::load(&base);
    for dist in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let cfg = SyntheticConfig::two_hotspots(0.0, dist).with_rows(base.rows);
        let wl: Arc<dyn Workload> = Arc::new(SyntheticWorkload::new(cfg, t));
        for proto in two_hotspot_protocols() {
            s.run_point(dist, &db, &proto, &wl, &opts.config(threads));
        }
    }
    s.print();
}

/// Figure 5: second hotspot fixed at the end, first swept.
pub fn fig5(opts: &RunOpts) {
    let threads = 32.min(*opts.threads.last().unwrap_or(&32));
    let mut s = Series::new(&format!(
        "fig5 two hotspots, 2nd at end, 1st swept ({threads} threads)"
    ));
    let base = SyntheticConfig::two_hotspots(0.0, 1.0);
    let (db, t) = synthetic::load(&base);
    for dist in [0.0, 0.25, 0.5, 0.75, 1.0] {
        // x = distance of the 1st hotspot from the fixed (end) hotspot:
        // position of the 1st = 1 - dist.
        let cfg = SyntheticConfig::two_hotspots(1.0 - dist, 1.0).with_rows(base.rows);
        let wl: Arc<dyn Workload> = Arc::new(SyntheticWorkload::new(cfg, t));
        for proto in two_hotspot_protocols() {
            s.run_point(dist, &db, &proto, &wl, &opts.config(threads));
        }
    }
    s.print();
}

/// Figure 6: YCSB (θ = 0.9, read ratio 0.5) with the thread count swept,
/// all five protocols.
pub fn fig6(opts: &RunOpts) {
    let cfg = YcsbConfig::default().with_theta(0.9).with_read_ratio(0.5);
    let (db, t) = ycsb::load(&cfg);
    let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
    let mut s = Series::new("fig6 YCSB theta=0.9 rr=0.5, threads swept");
    for &threads in &opts.threads {
        for proto in all_protocols() {
            s.run_point(threads, &db, &proto, &wl, &opts.config(threads));
        }
    }
    s.print();
}

/// Figure 7: YCSB with 5% long read-only transactions (1000 accesses),
/// plus the beyond-the-paper `snapshot` series: the same mix with the long
/// readers running as lock-free MVCC snapshots. The snapshot series prints
/// the per-point proof that the read-only transactions commit without a
/// single lock-manager acquisition, and the writer throughput to compare
/// against the locking series of the same run.
pub fn fig7(opts: &RunOpts) {
    let cfg = YcsbConfig::default()
        .with_theta(0.9)
        .with_read_ratio(0.5)
        .with_long_readonly(0.05, 1000);
    let (db, t) = ycsb::load(&cfg);
    let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
    let mut s = Series::new("fig7 YCSB + 5% long read-only (1000 tuples, locking reads)");
    for &threads in &opts.threads {
        for proto in all_protocols() {
            s.run_point(threads, &db, &proto, &wl, &opts.config(threads));
        }
    }
    s.print();

    let snap_cfg = cfg.with_snapshot_readonly(true);
    let wl_snap: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(snap_cfg, t));
    let mut ss = Series::new("fig7 snapshot series (long RO via lock-free MVCC snapshots)");
    for &threads in &opts.threads {
        for proto in all_protocols() {
            ss.run_point(threads, &db, &proto, &wl_snap, &opts.config(threads));
        }
    }
    ss.print();
    // Snapshot fast path: beyond the lock-*manager* counter below, the
    // snapshot begin/commit pair must reach steady state with zero mutex
    // acquisitions of any kind (commit-clock stable load + one registry
    // shard refcount CAS only), measured against the vendored shim's
    // per-thread lock counter.
    println!("-- snapshot fast path: Session::snapshot begin/commit mutexes (must be 0) --");
    for proto in all_protocols() {
        let delta = crate::harness::assert_snapshot_fast_path_lock_free(&db, &proto);
        println!("{:<14} snapshot begin/commit locks={delta}", proto.name());
    }
    println!("-- snapshot series: long-RO bucket (locks and aborts must be 0) --");
    for p in &ss.points {
        let r = &p.result;
        assert_eq!(
            r.totals.snapshot_lock_acquisitions, 0,
            "snapshot mode acquired locks"
        );
        assert_eq!(
            r.totals.snapshot_aborts, 0,
            "{}: snapshot readers can neither block nor abort",
            r.protocol
        );
        println!(
            "threads={:<3} {:<14} snap_commits={:<6} snap_locks={} snap_aborts={} writer_tput={:.0}",
            p.x,
            r.protocol,
            r.totals.snapshot_commits,
            r.totals.snapshot_lock_acquisitions,
            r.totals.snapshot_aborts,
            r.throughput(),
        );
    }
    // Comparable buckets: total_throughput counts locking + snapshot
    // commits on both sides (in the locking series the long ROs are
    // ordinary commits; in the snapshot series they sit in their own
    // bucket — comparing raw `commits` would mix denominators).
    println!("-- total throughput: snapshot vs locking series --");
    for &threads in &opts.threads {
        let x = threads.to_string();
        for proto in all_protocols() {
            let name = proto.name().to_owned();
            let find = |series: &Series| {
                series
                    .points
                    .iter()
                    .find(|p| p.x == x && p.result.protocol == name)
                    .map(|p| p.result.total_throughput())
            };
            if let (Some(lock), Some(snap)) = (find(&s), find(&ss)) {
                println!(
                    "threads={threads:<3} {name:<14} locking={lock:>10.0} snapshot={snap:>10.0} speedup={:.2}x",
                    snap / lock.max(1.0)
                );
            }
        }
    }
}

/// Figure 8: YCSB with zipfian θ swept at a fixed thread count, stored-
/// procedure and interactive modes.
pub fn fig8(opts: &RunOpts) {
    let threads = 16.min(*opts.threads.last().unwrap_or(&16));
    let mut s = Series::new(&format!(
        "fig8a YCSB theta swept ({threads} threads, stored procedure)"
    ));
    let mut si = Series::new(&format!(
        "fig8b YCSB theta swept ({threads} threads, interactive)"
    ));
    let base = YcsbConfig::default();
    let (db, t) = ycsb::load(&base);
    for theta in [0.5, 0.7, 0.8, 0.9, 0.99] {
        let cfg = YcsbConfig::default().with_theta(theta).with_read_ratio(0.5);
        let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
        for proto in all_protocols() {
            s.run_point(theta, &db, &proto, &wl, &opts.config(threads));
        }
        for proto in all_protocols() {
            si.run_point(theta, &db, &proto, &wl, &opts.interactive(threads));
        }
    }
    s.print();
    si.print();
}

/// §5.4 "Varying Read Ratio": Bamboo's improvement across read ratios.
pub fn read_ratio(opts: &RunOpts) {
    let threads = 16.min(*opts.threads.last().unwrap_or(&16));
    let mut s = Series::new(&format!(
        "sec5.4 YCSB read ratio swept (theta=0.9, {threads} threads)"
    ));
    let base = YcsbConfig::default();
    let (db, t) = ycsb::load(&base);
    for rr in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let cfg = YcsbConfig::default().with_theta(0.9).with_read_ratio(rr);
        let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
        for proto in all_protocols() {
            s.run_point(rr, &db, &proto, &wl, &opts.config(threads));
        }
    }
    s.print();
}

/// Figure 9: TPC-C with one warehouse, thread count swept, stored-procedure
/// (a) and interactive (b) modes.
pub fn fig9(opts: &RunOpts) {
    let cfg = TpccConfig::default().with_warehouses(1);
    let (db, tables, idx) = tpcc::load(&cfg);
    let wl: Arc<dyn Workload> =
        Arc::new(TpccWorkload::new(cfg.clone(), Arc::clone(&db), tables, idx));
    let mut s = Series::new("fig9a TPC-C 1 warehouse, threads swept (stored procedure)");
    for &threads in &opts.threads {
        for proto in all_protocols() {
            s.run_point(threads, &db, &proto, &wl, &opts.config(threads));
        }
    }
    s.print();
    let mut si = Series::new("fig9b TPC-C 1 warehouse, threads swept (interactive)");
    for &threads in &opts.threads {
        for proto in all_protocols() {
            si.run_point(threads, &db, &proto, &wl, &opts.interactive(threads));
        }
    }
    si.print();
}

/// Figure 10: TPC-C with the warehouse count swept at a fixed thread count.
pub fn fig10(opts: &RunOpts) {
    let threads = 32.min(*opts.threads.last().unwrap_or(&32));
    let mut s = Series::new(&format!(
        "fig10a TPC-C warehouses swept ({threads} threads, stored procedure)"
    ));
    let mut si = Series::new(&format!(
        "fig10b TPC-C warehouses swept ({threads} threads, interactive)"
    ));
    for wh in [16u64, 8, 4, 2, 1] {
        let cfg = TpccConfig::default().with_warehouses(wh);
        let (db, tables, idx) = tpcc::load(&cfg);
        let wl: Arc<dyn Workload> =
            Arc::new(TpccWorkload::new(cfg.clone(), Arc::clone(&db), tables, idx));
        for proto in all_protocols() {
            s.run_point(wh, &db, &proto, &wl, &opts.config(threads));
        }
        for proto in all_protocols() {
            si.run_point(wh, &db, &proto, &wl, &opts.interactive(threads));
        }
    }
    s.print();
    si.print();
}

/// Figure 11: Bamboo vs IC3 on TPC-C (1 warehouse), original (a/b) and
/// modified-NewOrder (c/d) workloads.
pub fn fig11(opts: &RunOpts) {
    for modified in [false, true] {
        let label = if modified {
            "fig11c/d TPC-C with modified new-order (reads W_YTD)"
        } else {
            "fig11a/b TPC-C with original new-order"
        };
        let cfg = TpccConfig::default()
            .with_warehouses(1)
            .with_neworder_reads_wytd(modified);
        let (db, tables, idx) = tpcc::load(&cfg);
        let wl_t = Arc::new(TpccWorkload::new(cfg.clone(), Arc::clone(&db), tables, idx));
        let templates = wl_t.ic3_templates();
        let wl: Arc<dyn Workload> = wl_t;
        let protos: Vec<Arc<dyn Protocol>> = vec![
            Arc::new(LockingProtocol::bamboo()),
            Arc::new(Ic3Protocol::new(templates, true)),
            Arc::new(LockingProtocol::wound_wait()),
            Arc::new(SiloProtocol::new()),
        ];
        let mut s = Series::new(label);
        for &threads in &opts.threads {
            for proto in &protos {
                s.run_point(threads, &db, proto, &wl, &opts.config(threads));
            }
        }
        s.print();
    }
}

/// Ablation of the §3.5 optimizations: full Bamboo vs each optimization
/// disabled, on the single-hotspot microbenchmark and contended YCSB.
pub fn ablation(opts: &RunOpts) {
    use bamboo_core::lock::LockPolicy;
    let configs: Vec<Arc<dyn Protocol>> = vec![
        Arc::new(LockingProtocol::bamboo()),
        Arc::new(LockingProtocol::bamboo_base().named("BB-no-opt2")),
        Arc::new({
            let mut p = LockingProtocol::bamboo();
            p.policy = LockPolicy {
                retire_reads: false,
                no_raw_abort: false,
                ..p.policy
            };
            p.named("BB-no-opt1+3")
        }),
        Arc::new({
            let mut p = LockingProtocol::bamboo();
            p.policy = LockPolicy {
                no_raw_abort: false,
                ..p.policy
            };
            p.named("BB-no-opt3")
        }),
        Arc::new({
            let mut p = LockingProtocol::bamboo();
            p.policy = LockPolicy {
                dynamic_ts: false,
                ..p.policy
            };
            p.named("BB-no-opt4")
        }),
        Arc::new(LockingProtocol::wound_wait()),
    ];
    let threads = 8.min(*opts.threads.last().unwrap_or(&8));

    let cfg = SyntheticConfig::one_hotspot(0.0);
    let (db, t) = synthetic::load(&cfg);
    let wl: Arc<dyn Workload> = Arc::new(SyntheticWorkload::new(cfg, t));
    let mut s = Series::new("ablation: single hotspot at beginning");
    for proto in &configs {
        s.run_point(threads, &db, proto, &wl, &opts.config(threads));
    }
    s.print();

    let ycfg = YcsbConfig::default().with_theta(0.9).with_read_ratio(0.5);
    let (db, t) = ycsb::load(&ycfg);
    let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(ycfg, t));
    let mut s = Series::new("ablation: YCSB theta=0.9");
    for proto in &configs {
        s.run_point(threads, &db, proto, &wl, &opts.config(threads));
    }
    s.print();
}

/// §4.2 analytic model: the gain condition and throughput estimates.
pub fn model_table() {
    println!("\n== sec4.2 analytic model ==");
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "N", "K", "D", "P_conflict", "P_deadlock", "est_WW", "est_BB", "BB wins"
    );
    for (n, k, d) in [
        (8.0, 4.0, 1e6),
        (32.0, 16.0, 1e6),
        (32.0, 16.0, 1e8),
        (120.0, 16.0, 1e8),
        (120.0, 64.0, 1e8),
        (1000.0, 64.0, 1e3),
    ] {
        println!(
            "{:>8} {:>6} {:>12.0} {:>12.3e} {:>12.3e} {:>10.3} {:>10.3} {:>8}",
            n,
            k,
            d,
            model::p_conflict(n, k, d),
            model::p_deadlock(n, k, d),
            model::ww_throughput(n, k, d, 1.0),
            model::bb_throughput(n, k, d, 1.0),
            model::bamboo_wins(n, k, d),
        );
    }
    println!("\ngain condition N^2*K^4/(2D^2) < (K-1)/(K+1); A_ww=1/2, A_bb=1/(K+1)");
}
