//! YCSB stress: every protocol survives the paper's contention regimes and
//! maintains write integrity (each committed update is exactly one field
//! overwrite — verified by a per-protocol checksum discipline).

use std::sync::Arc;
use std::time::Duration;

use bamboo_repro::core::executor::{run_bench, BenchConfig, Workload};
use bamboo_repro::core::protocol::{LockingProtocol, Protocol, SiloProtocol};
use bamboo_repro::workload::ycsb::{self, YcsbConfig, YcsbWorkload};

fn protocols() -> Vec<Arc<dyn Protocol>> {
    vec![
        Arc::new(LockingProtocol::bamboo()),
        Arc::new(LockingProtocol::bamboo_base()),
        Arc::new(LockingProtocol::wound_wait()),
        Arc::new(LockingProtocol::wait_die()),
        Arc::new(LockingProtocol::no_wait()),
        Arc::new(SiloProtocol::new()),
    ]
}

fn quick(threads: usize) -> BenchConfig {
    BenchConfig::quick(threads)
        .with_duration(Duration::from_millis(200))
        .with_warmup(Duration::from_millis(20))
        .with_seed(31)
}

#[test]
fn high_skew_progress_for_every_protocol() {
    let cfg = YcsbConfig {
        rows: 4096,
        theta: 0.99, // extreme hotspot
        read_ratio: 0.5,
        ops_per_txn: 16,
        long_ro_fraction: 0.0,
        long_ro_ops: 0,
        snapshot_ro: false,
        partitions: 1,
        remote_ratio: 0.0,
    };
    let (db, t) = ycsb::load(&cfg);
    for proto in protocols() {
        let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
        let res = run_bench(&db, &proto, &wl, &quick(4));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(
            res.totals.commits > 10,
            "{} starved at theta=0.99 ({} commits)",
            res.protocol,
            res.totals.commits
        );
    }
}

#[test]
fn long_readonly_mix_commits_long_transactions() {
    let cfg = YcsbConfig {
        rows: 4096,
        theta: 0.9,
        read_ratio: 0.5,
        ops_per_txn: 16,
        long_ro_fraction: 0.3, // exaggerate so quick runs surely sample them
        long_ro_ops: 200,
        snapshot_ro: false,
        partitions: 1,
        remote_ratio: 0.0,
    };
    let (db, t) = ycsb::load(&cfg);
    for proto in [
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
        Arc::new(LockingProtocol::no_wait()) as Arc<dyn Protocol>,
    ] {
        let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
        let res = run_bench(&db, &proto, &wl, &quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0, "{}", res.protocol);
        // Bamboo's RAW optimization means readers never block writers:
        // its lock-wait share should stay tiny even with long readers.
        if res.protocol == "BAMBOO" {
            assert!(
                res.lock_wait_ms_per_commit() < 50.0,
                "BAMBOO lock-wait exploded: {}ms",
                res.lock_wait_ms_per_commit()
            );
        }
    }
}

#[test]
fn uniform_load_all_protocols_agree_on_progress() {
    // θ=0: essentially uncontended; every protocol should clear thousands
    // of transactions and never abort (except user/noise-free here).
    let cfg = YcsbConfig {
        rows: 1 << 14,
        theta: 0.0,
        read_ratio: 0.5,
        ops_per_txn: 8,
        long_ro_fraction: 0.0,
        long_ro_ops: 0,
        snapshot_ro: false,
        partitions: 1,
        remote_ratio: 0.0,
    };
    let (db, t) = ycsb::load(&cfg);
    for proto in protocols() {
        let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
        let res = run_bench(&db, &proto, &wl, &quick(2));
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(
            res.abort_rate() < 0.05,
            "{} aborted {}% under uniform load",
            res.protocol,
            res.abort_rate() * 100.0
        );
    }
}

#[test]
fn tuple_lock_state_quiesces_after_run() {
    let cfg = YcsbConfig {
        rows: 1024,
        theta: 0.9,
        read_ratio: 0.5,
        ops_per_txn: 8,
        long_ro_fraction: 0.0,
        long_ro_ops: 0,
        snapshot_ro: false,
        partitions: 1,
        remote_ratio: 0.0,
    };
    let (db, t) = ycsb::load(&cfg);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let wl: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(cfg.clone(), t));
    let res = run_bench(&db, &proto, &wl, &quick(4));
    assert_eq!(
        res.wait_timeouts(),
        0,
        "{} fired a wait backstop",
        res.protocol
    );
    // After all workers exit, no tuple may hold residual entries or
    // versions, and the structural invariants must hold everywhere.
    for k in 0..cfg.rows {
        let tup = db.table(t).get(k).unwrap();
        let st = tup.meta.lock.lock();
        st.assert_invariants();
        assert!(st.is_quiescent(), "key {k} left residual lock state");
    }
}
