//! Execution statistics — the paper's measurement vocabulary.
//!
//! §4.2 evaluates cascading aborts through three metrics: *length of abort
//! chain*, *abort rate*, and *abort time*, alongside *wait time* (lock
//! waits) and commit-semaphore waits. The runtime-analysis figures
//! (4b, 5b, 6b, 7b, 8b, 11b, 11d) plot amortized per-committed-transaction
//! time split into `lock wait / abort / commit wait`; [`BenchResult`]
//! reproduces exactly those series.

use std::time::Duration;

use crate::txn::AbortReason;

/// Number of distinct abort reasons (array-indexed counters): the rows of
/// [`AbortReason::ALL`], which is the one table mapping a reason to its
/// counter index and its label.
pub const REASONS: usize = AbortReason::ALL.len();

/// Label for the reason at array index `i` (report printing).
pub fn reason_name(i: usize) -> &'static str {
    AbortReason::ALL[i].1
}

/// Per-worker counters, merged after the run.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Aborted attempts by reason.
    pub aborts_by_reason: [u64; REASONS],
    /// Wall time of committed attempts.
    pub committed_wall: Duration,
    /// Wall time of aborted attempts (the paper's *abort time*: "total CPU
    /// time wasted on executing transactions that aborted in the end").
    pub aborted_wall: Duration,
    /// Time parked waiting for locks, across all attempts.
    pub lock_wait: Duration,
    /// Time parked waiting for the commit semaphore, across all attempts.
    pub commit_wait: Duration,
    /// Condvar sleeps inside those waits (each a futex round trip).
    pub parks: u64,
    /// Wait notifications caught by the pre-park spin instead.
    pub spin_wakes: u64,
    /// Number of cascade events this worker *initiated* (its abort wounded
    /// dependents).
    pub cascade_events: u64,
    /// Total transactions aborted across those cascades.
    pub cascade_victims: u64,
    /// Longest single abort chain seen.
    pub max_chain: u64,
    /// Redo-log bytes written.
    pub log_bytes: u64,
    /// Commit-latency histogram: bucket i counts commits with latency in
    /// [2^i, 2^{i+1}) microseconds (32 buckets ≈ up to ~1 hour).
    pub latency_us_log2: [u64; 32],
    /// Lock-manager acquisitions across all non-snapshot attempts (lock
    /// table requests, upgrades, Silo write-set locks).
    pub lock_acquisitions: u64,
    /// Committed read-only snapshot transactions (own bucket — not
    /// included in [`WorkerStats::commits`]).
    pub snapshot_commits: u64,
    /// Aborted snapshot attempts (should stay 0: snapshot mode can neither
    /// block nor be wounded; also counted in [`WorkerStats::aborts`]).
    pub snapshot_aborts: u64,
    /// Lock-manager acquisitions by snapshot-mode attempts. The snapshot
    /// read path bypasses the lock manager entirely, so this must be 0 —
    /// benches assert it.
    pub snapshot_lock_acquisitions: u64,
    /// Latency histogram of snapshot commits, same bucketing as
    /// [`WorkerStats::latency_us_log2`] (own bucket so 1000-tuple scans do
    /// not pollute the short-transaction percentiles).
    pub snapshot_latency_us_log2: [u64; 32],
    /// Committed transactions whose access set spanned more than one
    /// partition (also counted in [`WorkerStats::commits`]);
    /// [`BenchResult::cross_partition_share`] reports it as a share.
    pub cross_partition_commits: u64,
}

impl WorkerStats {
    /// Records one aborted attempt.
    pub fn record_abort(&mut self, reason: AbortReason, wall: Duration, cascaded: usize) {
        self.aborts += 1;
        self.aborts_by_reason[reason.index()] += 1;
        self.aborted_wall += wall;
        if cascaded > 0 {
            self.cascade_events += 1;
            self.cascade_victims += cascaded as u64;
            self.max_chain = self.max_chain.max(cascaded as u64 + 1);
        }
    }

    /// Records one committed attempt.
    pub fn record_commit(&mut self, wall: Duration) {
        self.commits += 1;
        self.committed_wall += wall;
        self.latency_us_log2[Self::latency_bucket(wall)] += 1;
    }

    /// Records one committed read-only snapshot attempt (own bucket).
    pub fn record_snapshot_commit(&mut self, wall: Duration) {
        self.snapshot_commits += 1;
        self.snapshot_latency_us_log2[Self::latency_bucket(wall)] += 1;
    }

    #[inline]
    fn latency_bucket(wall: Duration) -> usize {
        let us = wall.as_micros().max(1) as u64;
        (63 - us.leading_zeros() as usize).min(31)
    }

    /// Accumulates another worker's counters into this one.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        for i in 0..REASONS {
            self.aborts_by_reason[i] += other.aborts_by_reason[i];
        }
        self.committed_wall += other.committed_wall;
        self.aborted_wall += other.aborted_wall;
        self.lock_wait += other.lock_wait;
        self.commit_wait += other.commit_wait;
        self.parks += other.parks;
        self.spin_wakes += other.spin_wakes;
        self.cascade_events += other.cascade_events;
        self.cascade_victims += other.cascade_victims;
        self.max_chain = self.max_chain.max(other.max_chain);
        self.log_bytes += other.log_bytes;
        self.lock_acquisitions += other.lock_acquisitions;
        self.snapshot_commits += other.snapshot_commits;
        self.snapshot_aborts += other.snapshot_aborts;
        self.snapshot_lock_acquisitions += other.snapshot_lock_acquisitions;
        self.cross_partition_commits += other.cross_partition_commits;
        for i in 0..32 {
            self.latency_us_log2[i] += other.latency_us_log2[i];
            self.snapshot_latency_us_log2[i] += other.snapshot_latency_us_log2[i];
        }
    }
}

/// Aggregated result of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Protocol name.
    pub protocol: String,
    /// Worker threads.
    pub threads: usize,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Merged counters.
    pub totals: WorkerStats,
}

impl BenchResult {
    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        self.totals.commits as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of attempts that aborted.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.totals.commits + self.totals.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.totals.aborts as f64 / attempts as f64
        }
    }

    /// Aborts a wait backstop fired ([`AbortReason::WaitTimeout`]: a lock
    /// wait past 500 ms or a commit-semaphore wait past 2 s). A healthy
    /// run fires none; one that does has hit a wait cycle or a stuck
    /// predecessor, which the retry would otherwise hide.
    pub fn wait_timeouts(&self) -> u64 {
        self.totals.aborts_by_reason[AbortReason::WaitTimeout.index()]
    }

    /// Amortized *lock wait* per committed transaction, in milliseconds —
    /// the paper's runtime-analysis bar.
    pub fn lock_wait_ms_per_commit(&self) -> f64 {
        self.per_commit_ms(self.totals.lock_wait)
    }

    /// Amortized *commit wait* (semaphore) per committed transaction, ms.
    pub fn commit_wait_ms_per_commit(&self) -> f64 {
        self.per_commit_ms(self.totals.commit_wait)
    }

    /// Condvar sleeps and spin-caught wakes per committed transaction: how
    /// the lock and commit waits above ended.
    pub fn parks_spin_wakes_per_commit(&self) -> (f64, f64) {
        let commits = self.totals.commits.max(1) as f64;
        (
            self.totals.parks as f64 / commits,
            self.totals.spin_wakes as f64 / commits,
        )
    }

    /// Amortized *abort time* per committed transaction, ms.
    pub fn abort_ms_per_commit(&self) -> f64 {
        self.per_commit_ms(self.totals.aborted_wall)
    }

    /// Mean abort-chain length over cascade events.
    pub fn mean_chain(&self) -> f64 {
        if self.totals.cascade_events == 0 {
            0.0
        } else {
            self.totals.cascade_victims as f64 / self.totals.cascade_events as f64
        }
    }

    /// Approximate latency percentile in microseconds (upper bucket bound),
    /// e.g. `latency_percentile_us(0.99)` for p99.
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        Self::percentile_of(&self.totals.latency_us_log2, q)
    }

    /// Commits per second of the read-only snapshot bucket.
    pub fn snapshot_throughput(&self) -> f64 {
        self.totals.snapshot_commits as f64 / self.elapsed.as_secs_f64()
    }

    /// Commits per second across *both* buckets (locking + snapshot).
    /// Use this when comparing runs whose read-only transactions land in
    /// different buckets (e.g. fig7's locking vs snapshot series) — the
    /// per-bucket rates have mismatched denominators.
    pub fn total_throughput(&self) -> f64 {
        (self.totals.commits + self.totals.snapshot_commits) as f64 / self.elapsed.as_secs_f64()
    }

    /// Approximate latency percentile of the snapshot-commit bucket.
    pub fn snapshot_latency_percentile_us(&self, q: f64) -> u64 {
        Self::percentile_of(&self.totals.snapshot_latency_us_log2, q)
    }

    /// Fraction of commits whose access set spanned more than one
    /// partition.
    pub fn cross_partition_share(&self) -> f64 {
        if self.totals.commits == 0 {
            0.0
        } else {
            self.totals.cross_partition_commits as f64 / self.totals.commits as f64
        }
    }

    fn percentile_of(hist: &[u64; 32], q: f64) -> u64 {
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (total as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        u64::MAX
    }

    fn per_commit_ms(&self, d: Duration) -> f64 {
        if self.totals.commits == 0 {
            0.0
        } else {
            d.as_secs_f64() * 1e3 / self.totals.commits as f64
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let (parks, spin_wakes) = self.parks_spin_wakes_per_commit();
        format!(
            "{:>12} thr={:<3} tput={:>10.0} txn/s abort_rate={:>5.1}% lock_wait={:.4}ms parks={parks:.3} spin_wakes={spin_wakes:.3} abort={:.4}ms commit_wait={:.4}ms chain(max={} mean={:.1}) lat(p50={}us p99={}us p999={}us)",
            self.protocol,
            self.threads,
            self.throughput(),
            self.abort_rate() * 100.0,
            self.lock_wait_ms_per_commit(),
            self.abort_ms_per_commit(),
            self.commit_wait_ms_per_commit(),
            self.totals.max_chain,
            self.mean_chain(),
            self.latency_percentile_us(0.50),
            self.latency_percentile_us(0.99),
            self.latency_percentile_us(0.999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = WorkerStats::default();
        a.record_commit(Duration::from_millis(10));
        a.record_abort(AbortReason::Wounded, Duration::from_millis(5), 0);
        let mut b = WorkerStats::default();
        b.record_commit(Duration::from_millis(20));
        b.record_abort(AbortReason::Cascade, Duration::from_millis(5), 3);
        a.merge(&b);
        assert_eq!(a.commits, 2);
        assert_eq!(a.aborts, 2);
        assert_eq!(a.aborts_by_reason[0], 1);
        assert_eq!(a.aborts_by_reason[1], 1);
        assert_eq!(a.cascade_victims, 3);
        assert_eq!(a.max_chain, 4);
    }

    #[test]
    fn derived_metrics() {
        let mut t = WorkerStats::default();
        t.record_commit(Duration::from_millis(10));
        t.record_abort(AbortReason::NoWait, Duration::from_millis(30), 0);
        t.lock_wait = Duration::from_millis(4);
        let r = BenchResult {
            protocol: "TEST".into(),
            threads: 1,
            elapsed: Duration::from_secs(1),
            totals: t,
        };
        assert_eq!(r.throughput(), 1.0);
        assert_eq!(r.abort_rate(), 0.5);
        assert!((r.lock_wait_ms_per_commit() - 4.0).abs() < 1e-9);
        assert!((r.abort_ms_per_commit() - 30.0).abs() < 1e-9);
        assert_eq!(r.mean_chain(), 0.0);
        assert!(!r.summary().is_empty());
    }

    #[test]
    fn reason_names_and_counters_share_one_table() {
        // Reports and the benchmark look counters up by name; an index
        // is only the row's position in the one table.
        assert_eq!(reason_name(0), "wounded");
        assert_eq!(reason_name(6), "user");
        assert_eq!(reason_name(9), "durability_failed");
        for (i, &(reason, name)) in AbortReason::ALL.iter().enumerate() {
            let mut s = WorkerStats::default();
            s.record_abort(reason, Duration::ZERO, 0);
            assert_eq!(s.aborts_by_reason[i], 1, "{name} counts at its own index");
            assert_eq!(s.aborts, 1);
            assert_eq!(reason_name(i), name);
        }
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    #[test]
    fn latency_histogram_buckets_by_log2_micros() {
        let mut s = WorkerStats::default();
        s.record_commit(Duration::from_micros(3)); // bucket 1 ([2,4))
        s.record_commit(Duration::from_micros(1000)); // bucket 9 ([512,1024))
        assert_eq!(s.latency_us_log2[1], 1);
        assert_eq!(s.latency_us_log2[9], 1);
    }

    #[test]
    fn percentile_walks_cumulative_counts() {
        let mut t = WorkerStats::default();
        for _ in 0..99 {
            t.record_commit(Duration::from_micros(3));
        }
        t.record_commit(Duration::from_millis(100));
        let r = BenchResult {
            protocol: "T".into(),
            threads: 1,
            elapsed: Duration::from_secs(1),
            totals: t,
        };
        assert!(r.latency_percentile_us(0.5) <= 4);
        assert!(r.latency_percentile_us(0.999) >= 100_000 / 2);
    }

    #[test]
    fn empty_percentile_is_zero() {
        let r = BenchResult {
            protocol: "T".into(),
            threads: 1,
            elapsed: Duration::from_secs(1),
            totals: WorkerStats::default(),
        };
        assert_eq!(r.latency_percentile_us(0.99), 0);
    }
}
