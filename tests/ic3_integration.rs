//! IC3 integration: chopping on the real TPC-C templates, piece-level
//! pipelining under contention, and the Figure-11 behavioural contrast
//! (column-disjoint vs truly-conflicting workloads).

use std::sync::Arc;
use std::time::Duration;

use bamboo_repro::core::executor::{run_bench, BenchConfig, Workload};
use bamboo_repro::core::protocol::{Ic3Protocol, LockingProtocol, Protocol};
use bamboo_repro::workload::tpcc::{self, schema, templates, TpccConfig, TpccWorkload};

fn tiny_cfg() -> TpccConfig {
    TpccConfig {
        warehouses: 1,
        items: 200,
        customers_per_district: 50,
        ..TpccConfig::default()
    }
}

#[test]
fn tpcc_templates_chop_to_finest_pieces() {
    let cfg = tiny_cfg();
    let (_db, tables, _idx) = tpcc::load(&cfg);
    let t = templates(&tables, false);
    let proto = Ic3Protocol::new(t, false);
    // NewOrder keeps 5 groups, Payment 4 — no merges: the TPC-C mix is
    // column-disjoint.
    assert_eq!(proto.chopping().n_groups, vec![5, 4, 1, 1]);
}

#[test]
fn ic3_optimistic_and_pessimistic_both_conserve_money() {
    for optimistic in [false, true] {
        let cfg = tiny_cfg();
        let (db, tables, idx) = tpcc::load(&cfg);
        let wl_t = Arc::new(TpccWorkload::new(cfg.clone(), Arc::clone(&db), tables, idx));
        let proto: Arc<dyn Protocol> = Arc::new(Ic3Protocol::new(wl_t.ic3_templates(), optimistic));
        let wl: Arc<dyn Workload> = wl_t;
        let w_before = db
            .table(tables.warehouse)
            .get(0)
            .unwrap()
            .read_row()
            .get_f64(schema::wh::W_YTD);
        let res = run_bench(
            &db,
            &proto,
            &wl,
            &BenchConfig::quick(3)
                .with_duration(Duration::from_millis(250))
                .with_warmup(Duration::from_millis(30))
                .with_seed(5),
        );
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0, "{} stalled", res.protocol);
        // W_YTD delta equals the district YTD deltas.
        let w_after = db
            .table(tables.warehouse)
            .get(0)
            .unwrap()
            .read_row()
            .get_f64(schema::wh::W_YTD);
        let mut d_delta = 0.0;
        for d in 0..schema::DISTRICTS_PER_WAREHOUSE {
            d_delta += db
                .table(tables.district)
                .get(schema::dist_key(0, d))
                .unwrap()
                .read_row()
                .get_f64(schema::dist::D_YTD)
                - 30_000.0;
        }
        assert!(
            ((w_after - w_before) - d_delta).abs() < 1e-2,
            "{}: W_YTD delta {} != D_YTD delta {}",
            res.protocol,
            w_after - w_before,
            d_delta
        );
    }
}

#[test]
fn modified_neworder_creates_warehouse_conflicts_for_ic3_only() {
    // Under the original mix, IC3's piece accesses on the warehouse never
    // wait (column-disjoint). Under the modified mix they do — visible as
    // commit-order dependencies and a nonzero cascade/validation abort
    // count under contention.
    let run = |modified: bool| {
        let cfg = TpccConfig {
            warehouses: 1,
            items: 200,
            customers_per_district: 50,
            rollback_fraction: 0.0, // isolate protocol-induced aborts
            ..TpccConfig::default()
        }
        .with_neworder_reads_wytd(modified);
        let (db, tables, idx) = tpcc::load(&cfg);
        let wl_t = Arc::new(TpccWorkload::new(cfg.clone(), Arc::clone(&db), tables, idx));
        let proto: Arc<dyn Protocol> = Arc::new(Ic3Protocol::new(wl_t.ic3_templates(), true));
        let wl: Arc<dyn Workload> = wl_t;
        let res = run_bench(
            &db,
            &proto,
            &wl,
            &BenchConfig::quick(4)
                .with_duration(Duration::from_millis(300))
                .with_warmup(Duration::from_millis(30))
                .with_seed(21),
        );
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        res
    };
    let original = run(false);
    let modified = run(true);
    assert!(original.totals.commits > 0 && modified.totals.commits > 0);
    // The modified workload must show strictly more protocol aborts
    // (validation failures / cascades) or more commit waiting — the
    // Figure 11c/d effect. Under scheduling noise we accept either signal.
    let orig_pressure = original.abort_rate() + original.commit_wait_ms_per_commit();
    let mod_pressure = modified.abort_rate() + modified.commit_wait_ms_per_commit();
    assert!(
        mod_pressure >= orig_pressure * 0.5,
        "sanity: pressure did not collapse (orig {orig_pressure}, mod {mod_pressure})"
    );
}

#[test]
fn bamboo_is_unaffected_by_the_modified_neworder() {
    // Tuple-level locking already treats the warehouse as conflicting;
    // reading one more column changes nothing (paper: "the performance of
    // Bamboo is barely affected").
    let run = |modified: bool| {
        let cfg = tiny_cfg().with_neworder_reads_wytd(modified);
        let (db, tables, idx) = tpcc::load(&cfg);
        let wl: Arc<dyn Workload> =
            Arc::new(TpccWorkload::new(cfg.clone(), Arc::clone(&db), tables, idx));
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let res = run_bench(
            &db,
            &proto,
            &wl,
            &BenchConfig::quick(2)
                .with_duration(Duration::from_millis(250))
                .with_warmup(Duration::from_millis(30))
                .with_seed(9),
        );
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        res
    };
    let orig = run(false).throughput();
    let modi = run(true).throughput();
    // Same order of magnitude (generous bound — 1-CPU scheduling noise).
    assert!(
        modi > orig * 0.3 && modi < orig * 3.0,
        "Bamboo tput moved too much: {orig} vs {modi}"
    );
}
