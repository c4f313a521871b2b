//! The benchmark's metric and workload tables — the single source of
//! `BENCHMARK.json` (`benchmark --print-manifest` writes it; a unit test
//! keeps the committed file equal to it) and of the names a run must report.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

use Better::{Higher, Lower};

/// A workload: `(name, why)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "hotspot",
        "one hot tuple written first in every 16-op txn under Bamboo: the paper's headline case, carried by lock retire, dirty reads and the commit semaphore",
    ),
    (
        "hotspot_ww",
        "same inputs under Wound-Wait: every txn queues behind the hot tuple, so the waiter queue and park/wake path dominate; hotspot/hotspot_ww is the paper's ratio",
    ),
    (
        "ycsb_zipf",
        "16 mostly distinct tuples per txn (zipf 0.9, half writes): per-access cost of lookup, uncontended lock entry, row copy, version install, commit clock, ring WAL",
    ),
    (
        "tpcc_1wh",
        "TPC-C at one warehouse with 8% snapshot readers: long txns, inserts, 1 KB redo per txn, version chains read while installed, watermark GC under load",
    ),
    (
        "durable_transfer",
        "uncontended 2-partition bank on a file WAL under group commit, flights of 32 deferred acks, then crash and recover: log framing, sink lock, fsync, horizon, replay",
    ),
];

/// An end-to-end metric: `(name, unit, better, bound)`. The bound is the
/// share of the parent's median by which it may worsen.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("norm_throughput_txn_s", "txn/s", Higher, 0.25),
    ("log_bytes_per_txn", "B", Lower, 0.02),
    ("loaded_rss_mb", "MiB", Lower, 0.05),
    ("setup_s", "s", Lower, 0.25),
];

/// A per-layer metric: `(name, unit, better)`.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // Demoted from the end-to-end list (README, "Demoted metrics"): on this
    // machine they spread by more than any bound the driver allows, follow
    // throughput, or are zero by design on some workloads.
    ("throughput_txn_s", "txn/s", Higher),
    ("latency_p50_us", "us", Lower),
    ("latency_p99_us", "us", Lower),
    ("abort_rate", "ratio", Lower),
    ("failed_share", "ratio", Lower),
    ("recovery_txn_per_s", "txn/s", Higher),
    ("peak_rss_mb", "MiB", Lower),
    // session: spans of the traced window, mean self time per committed txn.
    ("session.begin_ns", "ns", Lower),
    ("session.execute_ns", "ns", Lower),
    ("session.commit_ns", "ns", Lower),
    ("session.abort_ns", "ns", Lower),
    ("session.backoff_ns", "ns", Lower),
    ("session.flight_wait_ns", "ns", Lower),
    ("session.ack_ns", "ns", Lower),
    ("workload.generate_ns", "ns", Lower),
    ("trace.txn_latency_ns", "ns", Lower),
    ("trace.unattributed_ns", "ns", Lower),
    ("trace.overhead_pct", "%", Lower),
    // session: the untraced window's tail, and whole-transaction probes.
    ("session.latency_p999_us", "us", Lower),
    ("session.latency_top_us", "us", Lower),
    ("session.latency_top_pct", "%", Higher),
    ("session.latency_samples", "count", Higher),
    ("session.empty_txn_ns", "ns", Lower),
    ("session.update1_txn_ns", "ns", Lower),
    ("session.update1_txn_2t_ns", "ns", Lower),
    ("session.snapshot_begin_commit_ns", "ns", Lower),
    // lock
    ("lock.wait_us_per_txn", "us", Lower),
    ("lock.acquisitions_per_txn", "count", Lower),
    ("lock.nonquiescent_tuples", "count", Lower),
    ("lock.acquire_release_ex_ns", "ns", Lower),
    ("lock.acquire_release_sh_ns", "ns", Lower),
    ("lock.acquire_retire_release_ex_ns", "ns", Lower),
    ("lock.dirty_read_grant_ns", "ns", Lower),
    // protocol
    ("protocol.commit_wait_us_per_txn", "us", Lower),
    ("protocol.abort_us_per_txn", "us", Lower),
    ("protocol.aborts_wounded", "count", Lower),
    ("protocol.aborts_cascade", "count", Lower),
    ("protocol.aborts_other", "count", Lower),
    ("protocol.cascade_events", "count", Lower),
    ("protocol.cascade_victims_mean", "count", Lower),
    ("protocol.max_chain", "count", Lower),
    ("protocol.user_rollbacks", "count", Lower),
    ("protocol.snapshot_commits", "count", Higher),
    ("protocol.snapshot_aborts", "count", Lower),
    ("protocol.snapshot_lock_acquisitions", "count", Lower),
    ("protocol.silo_update1_txn_ns", "ns", Lower),
    ("protocol.wound_wait_update1_txn_ns", "ns", Lower),
    // db
    ("db.clock_allocate_finish_ns", "ns", Lower),
    ("db.clock_allocate_finish_2t_ns", "ns", Lower),
    ("db.snapshot_register_release_ns", "ns", Lower),
    ("db.snapshot_register_release_2t_ns", "ns", Lower),
    ("db.watermark_lag_end", "count", Lower),
    ("db.snapshots_active_end", "count", Lower),
    // version / table / index / row
    ("version.install_ns", "ns", Lower),
    ("version.install_pinned_ns", "ns", Lower),
    ("version.read_at_ns", "ns", Lower),
    ("version.retained_max_end", "count", Lower),
    ("table.get_ns", "ns", Lower),
    ("ordered.range16_ns", "ns", Lower),
    ("row.clone_ns", "ns", Lower),
    // wal / log
    ("wal.records_per_txn", "count", Lower),
    ("wal.group_fsyncs", "count", Lower),
    ("wal.mean_batch", "count", Higher),
    ("wal.io_retries", "count", Lower),
    ("wal.io_failures", "count", Lower),
    ("wal.ring_append_ns", "ns", Lower),
    ("log.frame_update_ns", "ns", Lower),
    ("log.decode_record_ns", "ns", Lower),
    ("log.stage_flush_ns", "ns", Lower),
    ("log.sync_us", "us", Lower),
    // partition / durability (durable_transfer only)
    ("partition.degraded_end", "count", Lower),
    ("partition.cross_share", "ratio", Lower),
    ("durability.checkpoint_ms", "ms", Lower),
    ("durability.recover_ms", "ms", Lower),
    ("durability.replayed_writes", "count", Lower),
    ("durability.log_mb", "MiB", Lower),
    // The machine, as the reference kernels saw it during the run.
    ("machine.index", "ratio", Lower),
    ("machine.mem_ns", "ns", Lower),
    ("machine.wake_us", "us", Lower),
    // workload
    ("setup.load_ms", "ms", Lower),
    ("zipf.sample_ns", "ns", Lower),
    // The traced window's own tallies, for the span-count check.
    ("trace.attempt_spans", "count", Higher),
    ("trace.commits", "count", Higher),
    ("trace.aborts", "count", Lower),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 18;

fn better(b: Better) -> &'static str {
    match b {
        Higher => "higher",
        Lower => "lower",
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|(name, unit, b, bound)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                    better(*b)
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, b)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    better(*b)
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

/// The values one run reports, checked against a table when printed.
#[derive(Default)]
pub struct Report(Vec<(&'static str, f64)>);

impl Report {
    /// Reports `value` for `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Reports 0 for metrics that do not exist on this workload.
    pub fn not_applicable(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// The reported values in the order of `table` — exactly the table's
    /// names, each once, each finite.
    pub fn in_order_of(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Result<Vec<Metric>, String> {
        for (name, _) in &self.0 {
            if !table.iter().any(|(n, _)| n == name) {
                return Err(format!("reported metric {name} is not in the table"));
            }
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let mut values = self.0.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v);
                match (values.next(), values.next()) {
                    (Some(value), None) if value.is_finite() => Ok(Metric { name, unit, value }),
                    (Some(value), None) => Err(format!("metric {name} is {value}")),
                    (None, _) => Err(format!("metric {name} was not reported")),
                    (Some(_), Some(_)) => Err(format!("metric {name} was reported twice")),
                }
            })
            .collect()
    }
}

/// One reported value.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// `(name, unit)` of every end-to-end metric.
pub fn end_to_end_names() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
}

/// `(name, unit)` of every per-layer metric.
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with: benchmark --print-manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in end_to_end_names().into_iter().chain(per_layer_names()) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for &(name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(END_TO_END.contains(&("setup_s", "s", Lower, 0.25)));
        assert!(manifest().len() < 64 << 10);
    }

    #[test]
    fn report_must_match_its_table() {
        let table = [("a", "ns"), ("b", "us")];
        let mut r = Report::default();
        r.set("a", 1.0);
        assert!(r.in_order_of(&table).is_err(), "b missing");
        r.set("b", 2.0);
        let got = r.in_order_of(&table).unwrap();
        assert_eq!((got[0].name, got[1].value), ("a", 2.0));
        r.set("b", 3.0);
        assert!(r.in_order_of(&table).is_err(), "b twice");
        let mut r = Report::default();
        r.set("a", f64::NAN);
        r.set("b", 0.0);
        assert!(r.in_order_of(&table).is_err(), "NaN");
    }
}
