//! Interactive-mode integration: sessions that pay a round trip per client
//! call preserve protocol semantics, and reproduce the paper's core
//! interactive-mode finding — waiting-based protocols collapse while
//! Bamboo pipelines through the hotspot. No run fires a wait backstop.

use std::sync::Arc;
use std::time::Duration;

use bamboo_repro::core::executor::{run_bench, BenchConfig, Workload};
use bamboo_repro::core::protocol::{LockingProtocol, Protocol};
use bamboo_repro::workload::synthetic::{self, SyntheticConfig, SyntheticWorkload};

#[test]
fn interactive_bamboo_beats_interactive_wound_wait_on_hotspot() {
    // The paper's §5.2 interactive result (7×). Even a short run at 4
    // workers with a 200µs RPC shows a decisive margin, because Wound-Wait
    // holds the hotspot lock across 16 round-trips per transaction.
    let cfg = SyntheticConfig::one_hotspot(0.0).with_rows(4096);
    let (db, t) = synthetic::load(&cfg);
    let wl: Arc<dyn Workload> = Arc::new(SyntheticWorkload::new(cfg, t));
    let bench = BenchConfig::quick(4)
        .with_duration(Duration::from_millis(600))
        .with_warmup(Duration::from_millis(100))
        .with_seed(77)
        .interactive(Duration::from_micros(200));
    let bamboo: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let ww: Arc<dyn Protocol> = Arc::new(LockingProtocol::wound_wait());
    let rb = run_bench(&db, &bamboo, &wl, &bench);
    let rw = run_bench(&db, &ww, &wl, &bench);
    assert!(rb.totals.commits > 0 && rw.totals.commits > 0);
    assert!(
        rb.throughput() > rw.throughput() * 2.0,
        "interactive BAMBOO ({:.0}) must clearly beat WOUND_WAIT ({:.0})",
        rb.throughput(),
        rw.throughput()
    );
    // And the mechanism: Wound-Wait's time goes to lock waiting.
    assert!(
        rw.lock_wait_ms_per_commit() > rb.lock_wait_ms_per_commit() * 5.0,
        "WW lock wait {}ms vs BB {}ms",
        rw.lock_wait_ms_per_commit(),
        rb.lock_wait_ms_per_commit()
    );
    assert_eq!(rb.wait_timeouts(), 0, "BAMBOO fired a wait backstop");
    assert_eq!(rw.wait_timeouts(), 0, "WOUND_WAIT fired a wait backstop");
}

#[test]
fn interactive_mode_counts_are_consistent() {
    // The hot counter equals at least the number of measured commits —
    // the round-trip seam must not double-apply or skip operations.
    let cfg = SyntheticConfig::one_hotspot(0.0).with_rows(512).with_ops(4);
    let (db, t) = synthetic::load(&cfg);
    let wl: Arc<dyn Workload> = Arc::new(SyntheticWorkload::new(cfg, t));
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let res = run_bench(
        &db,
        &proto,
        &wl,
        &BenchConfig::quick(2)
            .with_duration(Duration::from_millis(300))
            .with_warmup(Duration::from_millis(30))
            .with_seed(3)
            .interactive(Duration::from_micros(50)),
    );
    let hot = db.table(t).get(0).unwrap().read_row().get_i64(1);
    assert!(hot >= res.totals.commits as i64);
    assert!(res.totals.commits > 0);
    assert_eq!(res.wait_timeouts(), 0, "BAMBOO fired a wait backstop");
}
