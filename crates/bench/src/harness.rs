//! Shared experiment plumbing: protocol roster, run options, and series
//! printing.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use bamboo_core::executor::{run_bench, BenchConfig, Workload};
use bamboo_core::protocol::{LockingProtocol, Protocol, SiloProtocol};
use bamboo_core::stats::BenchResult;
use bamboo_core::{Database, Session};

/// Options shared by every experiment run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Measured duration per data point.
    pub duration: Duration,
    /// Warm-up per data point.
    pub warmup: Duration,
    /// Thread counts to sweep where the experiment calls for it.
    pub threads: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Simulated RPC round-trip for interactive-mode panels.
    pub rpc: Duration,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            duration: Duration::from_millis(300),
            warmup: Duration::from_millis(60),
            threads: vec![1, 2, 4, 8, 16, 32],
            seed: 7,
            rpc: Duration::from_micros(100),
        }
    }
}

impl RunOpts {
    /// Longer, lower-variance settings (`repro --full`).
    pub fn full() -> Self {
        RunOpts {
            duration: Duration::from_millis(2000),
            warmup: Duration::from_millis(300),
            ..Default::default()
        }
    }

    /// Parses `repro`'s flags (`--duration-ms N`, `--warmup-ms N`,
    /// `--threads a,b,c`, `--rpc-us N`, `--full`) in any order. `--full`
    /// supplies [`RunOpts::full`]'s values for the flags not given. `None`
    /// on an unknown flag or a missing or malformed value.
    pub fn from_args(args: &[String]) -> Option<RunOpts> {
        let (mut duration, mut warmup, mut rpc, mut threads) = (None, None, None, None);
        let mut full = false;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next()?.parse::<u64>().ok();
            match flag.as_str() {
                "--full" => full = true,
                "--duration-ms" => duration = Some(Duration::from_millis(value()?)),
                "--warmup-ms" => warmup = Some(Duration::from_millis(value()?)),
                "--rpc-us" => rpc = Some(Duration::from_micros(value()?)),
                "--threads" => {
                    let list = args.next()?.split(',').map(|s| s.parse().ok());
                    threads = Some(list.collect::<Option<Vec<usize>>>()?);
                }
                _ => return None,
            }
        }
        let base = full.then(RunOpts::full).unwrap_or_default();
        Some(RunOpts {
            duration: duration.unwrap_or(base.duration),
            warmup: warmup.unwrap_or(base.warmup),
            rpc: rpc.unwrap_or(base.rpc),
            threads: threads.unwrap_or(base.threads),
            ..base
        })
    }

    /// Builds the per-point bench config.
    pub fn config(&self, threads: usize) -> BenchConfig {
        BenchConfig::quick(threads)
            .with_duration(self.duration)
            .with_warmup(self.warmup)
            .with_seed(self.seed)
    }

    /// The per-point config of an interactive-mode series.
    pub fn interactive(&self, threads: usize) -> BenchConfig {
        self.config(threads).interactive(self.rpc)
    }
}

/// The paper's five stored-procedure protocols (§5.1 roster).
pub fn all_protocols() -> Vec<Arc<dyn Protocol>> {
    vec![
        Arc::new(LockingProtocol::bamboo()),
        Arc::new(LockingProtocol::wound_wait()),
        Arc::new(LockingProtocol::wait_die()),
        Arc::new(LockingProtocol::no_wait()),
        Arc::new(SiloProtocol::new()),
    ]
}

/// Asserts the snapshot fast path is lock-free end to end: in steady
/// state, `Session::snapshot()` begin + commit must perform **zero**
/// mutex/rwlock acquisitions (commit-clock stable load + one registry
/// shard refcount CAS only), measured against the vendored shim's
/// per-thread lock counter. Returns the measured delta (always 0 on
/// success) so callers can print it (the fig7 figure driver).
pub fn assert_snapshot_fast_path_lock_free(db: &Arc<Database>, proto: &Arc<dyn Protocol>) -> u64 {
    let session = Session::new(Arc::clone(db), Arc::clone(proto));
    // Steady state: warm the session and this thread's registry shard.
    for _ in 0..8 {
        session.snapshot().commit().expect("snapshot commit");
    }
    let before = bamboo_core::sync::thread_lock_acquisitions();
    for _ in 0..100 {
        session.snapshot().commit().expect("snapshot commit");
    }
    let delta = bamboo_core::sync::thread_lock_acquisitions() - before;
    assert_eq!(
        delta,
        0,
        "{}: snapshot begin/commit acquired a mutex",
        proto.name()
    );
    delta
}

thread_local! {
    /// The stored-procedure points this thread ran that fired a wait
    /// backstop ([`take_backstop_failures`]).
    static BACKSTOPS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Takes the stored-procedure points this thread ran whose run recorded a
/// [`BenchResult::wait_timeouts`] abort, named `series, x=…, protocol`.
/// A backstop is a failure, not a retry: `repro` prints every series and
/// then exits non-zero if this is not empty. An interactive point is
/// reported in its `timeouts` column only: its waits include other
/// clients' round trips.
pub fn take_backstop_failures() -> Vec<String> {
    BACKSTOPS.take()
}

/// One measured point of a series.
#[derive(Clone, Debug)]
pub struct Point {
    /// X-axis label (threads, θ, position, ...).
    pub x: String,
    /// Result.
    pub result: BenchResult,
}

/// A printable series of benchmark points.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Experiment title.
    pub title: String,
    /// Measured points.
    pub points: Vec<Point>,
}

impl Series {
    /// New empty series.
    pub fn new(title: &str) -> Self {
        Series {
            title: title.into(),
            points: Vec::new(),
        }
    }

    /// Runs one point and records it.
    pub fn run_point(
        &mut self,
        x: impl ToString,
        db: &Arc<Database>,
        proto: &Arc<dyn Protocol>,
        wl: &Arc<dyn Workload>,
        cfg: &BenchConfig,
    ) -> &BenchResult {
        let x = x.to_string();
        let result = run_bench(db, proto, wl, cfg);
        if cfg.interactive.is_none() && result.wait_timeouts() > 0 {
            let point = format!("{}, x={x}, {}", self.title, result.protocol);
            BACKSTOPS.with_borrow_mut(|b| b.push(point));
        }
        self.points.push(Point { x, result });
        &self.points.last().unwrap().result
    }

    /// Prints the paper-style table: throughput plus the runtime-analysis
    /// breakdown (lock wait / abort / commit wait, amortized ms per commit)
    /// and the aborts a wait backstop fired (`timeouts`, 0 in a healthy
    /// run).
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        println!(
            "{:<10} {:<14} {:>12} {:>9} {:>12} {:>9} {:>10} {:>10} {:>13} {:>7} {:>8}",
            "x",
            "protocol",
            "tput(txn/s)",
            "abort%",
            "lock_wait_ms",
            "parks/txn",
            "spinwk/txn",
            "abort_ms",
            "commitwait_ms",
            "chain",
            "timeouts"
        );
        for p in &self.points {
            let r = &p.result;
            let (parks, spin_wakes) = r.parks_spin_wakes_per_commit();
            println!(
                "{:<10} {:<14} {:>12.0} {:>8.1}% {:>12.4} {:>9.3} {:>10.3} {:>10.4} {:>13.4} {:>7} {:>8}",
                p.x,
                r.protocol,
                r.throughput(),
                r.abort_rate() * 100.0,
                r.lock_wait_ms_per_commit(),
                parks,
                spin_wakes,
                r.abort_ms_per_commit(),
                r.commit_wait_ms_per_commit(),
                r.totals.max_chain,
                r.wait_timeouts(),
            );
        }
    }

    /// Throughput of the point matching `(x, protocol)`, if measured.
    pub fn throughput_of(&self, x: &str, protocol: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.x == x && p.result.protocol == protocol)
            .map(|p| p.result.throughput())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_have_five_protocols() {
        assert_eq!(all_protocols().len(), 5);
        let names: Vec<_> = all_protocols()
            .iter()
            .map(|p| p.name().to_owned())
            .collect();
        assert!(names.contains(&"BAMBOO".to_owned()));
        assert!(names.contains(&"SILO".to_owned()));
    }

    #[test]
    fn full_fills_in_only_the_flags_not_given() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            RunOpts::from_args(&args).expect("valid flags")
        };
        let opts = parse("--rpc-us 10 --full");
        assert_eq!(opts.rpc, Duration::from_micros(10));
        assert_eq!(opts.duration, Duration::from_millis(2000));
        assert_eq!(
            parse("--duration-ms 500 --full").duration,
            Duration::from_millis(500)
        );
        let opts = parse("--full");
        assert_eq!(opts.duration, Duration::from_millis(2000));
        assert_eq!(opts.warmup, Duration::from_millis(300));
        let opts = parse("--threads 1,2 --warmup-ms 5");
        assert_eq!(
            (opts.threads, opts.warmup),
            (vec![1, 2], Duration::from_millis(5))
        );
        assert!(RunOpts::from_args(&["--threads".into(), "1,x".into()]).is_none());
        assert!(RunOpts::from_args(&["--bogus".into()]).is_none());
    }

    #[test]
    fn series_lookup_by_x_and_protocol() {
        let mut s = Series::new("t");
        s.points.push(Point {
            x: "8".into(),
            result: BenchResult {
                protocol: "BAMBOO".into(),
                threads: 8,
                elapsed: Duration::from_secs(1),
                totals: Default::default(),
            },
        });
        assert_eq!(s.throughput_of("8", "BAMBOO"), Some(0.0));
        assert_eq!(s.throughput_of("8", "SILO"), None);
    }
}
