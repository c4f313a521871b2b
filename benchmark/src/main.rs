//! The repository's benchmark: one process runs one workload.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--trace-out FILE]
//! benchmark --print-manifest
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over `--seconds`, a second of
//! the workload at a time; `--trace 1` splits `--seconds` into an untraced
//! half (engine counters, and the baseline for the tracing overhead) and a
//! traced half (spans), alternating in three rounds, then runs the per-layer
//! probes. Either way the workers run a slice of the reference kernels
//! (`reference.rs`) after every round, which is how a run knows the speed of
//! the machine it measured on; every correctness check of the workload is
//! armed, and a failed check makes the exit code non-zero.
//!
//! Standard output: an `env` line, one `metric NAME VALUE UNIT` line per
//! metric, `note` lines, and as the last line the result object the driver
//! reads. See `README.md`.

mod driver;
mod hist;
mod metrics;
mod probes;
mod reference;
mod span;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_core::{PartSession, Session};

use driver::{Control, Phase, Window, WorkerOut, WORKERS};
use hist::Hist;
use metrics::Report;
use span::{Name, Tracer};
use workloads::{EndState, Loaded};

/// Seconds the workers run before the measured window opens.
const WARMUP_S: f64 = 1.0;
/// The same under `--quick`.
const QUICK_WARMUP_S: f64 = 0.25;
/// Loads a traced run times; `setup.load_ms` is their median and the last
/// one is the database the run uses. Odd, so that the median is one of them.
const LOADS: usize = 15;
/// The same under `--quick`.
const QUICK_LOADS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn warmup(&self) -> f64 {
        if self.quick {
            QUICK_WARMUP_S
        } else {
            WARMUP_S
        }
    }
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-manifest" => return Ok(None),
            // A later `--seconds` overrides the second `--quick` asks for.
            "--quick" => {
                args.quick = true;
                args.seconds = 1.0;
            }
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if !metrics::WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        let names: Vec<_> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    Ok(Some(args))
}

/// First line of `program args…`'s output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A window's headline numbers, over all its slices together. Not medians
/// over slices: `tpcc_1wh` drops from about 41 000 to 30 000 txn/s part-way
/// through a run, and a median over slices reads one regime or the other
/// depending on which side of the window's middle the drop falls.
struct Summary {
    /// Transactions booked in the window per second of window.
    throughput: f64,
    /// Their latencies.
    all: Hist,
}

fn summarize(window: &Window) -> Summary {
    let mut all = Hist::default();
    for slice in &window.slices {
        all.merge(slice);
    }
    let seconds = window.slice_seconds() * window.slices.len() as f64;
    Summary {
        throughput: all.count() as f64 / seconds,
        all,
    }
}

/// Rounds of a traced run: its untraced and traced windows alternate, so
/// that both see the same moods of the sandbox's neighbours and their
/// difference is the tracing, not the minute.
const TRACE_ROUNDS: u64 = 3;
/// Length of an untraced run's rounds: a slice of the workload, then a slice
/// of the reference kernels.
const CYCLE_S: f64 = 1.0;
/// What a slice of the reference kernels takes at the machine's nominal
/// speed. A round's share of the workload is shortened by it, so that a run
/// measures for `--seconds` in all.
const REFERENCE_SLICE_S: f64 = 0.04;
/// A window's share of a round runs this much past its last slice, so that
/// the last slice is as full as the others.
const OVERRUN_S: f64 = 0.02;
/// Most rounds a window may have (`driver::Control` packs the index).
const MAX_ROUNDS: u64 = 60;

/// A window of `rounds` rounds of `round_s` seconds of the workload each,
/// cut into slices of about half a second.
fn window_of(rounds: u64, round_s: f64) -> Window {
    let slices = ((round_s / 0.5).floor() as u64).max(1);
    Window::new(rounds, slices, (round_s * 1e9 / slices as f64) as u64)
}

/// Runs the phases: the main thread only sleeps and announces. Returns the
/// workers' merged results and how long after `set_up_began` the first
/// measured round opened.
fn run_phases(args: &Args, loaded: &Loaded, set_up_began: Instant) -> (WorkerOut, Duration) {
    // Either way `--seconds` is spent on `rounds` rounds, each ending in a
    // slice of the reference kernels; a traced run halves a round's share of
    // the workload between its two windows.
    let (rounds, windows) = if args.trace {
        (TRACE_ROUNDS, 2.0)
    } else {
        let cycles = (args.seconds / CYCLE_S).round() as u64;
        (cycles.clamp(1, MAX_ROUNDS), 1.0)
    };
    let round_s = (args.seconds / rounds as f64 - REFERENCE_SLICE_S) / windows - OVERRUN_S;
    let window = window_of(rounds, round_s.max(0.05));
    let ctl = Control::new();
    let round = window.round_length() + Duration::from_secs_f64(OVERRUN_S);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (ctl, window) = (&ctl, &window);
                s.spawn(move || match loaded {
                    Loaded::Memory(m) => {
                        let session = Session::new(Arc::clone(&m.db), Arc::clone(&m.proto));
                        driver::run_memory_worker(
                            w,
                            ctl,
                            &session,
                            m.workload.as_ref(),
                            args.seed,
                            window,
                            args.trace,
                        )
                    }
                    Loaded::Durable(d) => {
                        let session = PartSession::new(
                            Arc::clone(&d.db),
                            Arc::new(bamboo_core::protocol::LockingProtocol::bamboo()),
                        );
                        driver::run_durable_worker(
                            w, ctl, &session, &d.mix, args.seed, window, args.trace,
                        )
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(args.warmup()));
        let set_up = set_up_began.elapsed();
        for r in 0..rounds {
            ctl.enter(Phase::Measure, r);
            std::thread::sleep(round);
            if args.trace {
                ctl.enter(Phase::Traced, r);
                std::thread::sleep(round);
            }
            ctl.enter(Phase::Reference, r);
            ctl.reference.wait_for(r + 1);
        }
        ctl.enter(Phase::Stop, 0);
        let merged = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .reduce(WorkerOut::merge)
            .expect("at least one worker");
        (merged, set_up)
    })
}

fn write_trace(path: &Path, kept: &[span::Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in kept {
        writeln!(
            f,
            "{{\"worker\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
             \"txn\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.txn >> driver::TXN_SEQ_BITS,
            s.id,
            s.parent.map_or("null".into(), |p| p.to_string()),
            s.name.label(),
            s.txn,
            s.start_ns,
            s.end_ns
        )?;
    }
    f.flush()
}

fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("benchmark-tmp")
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < WORKERS {
        return Err(format!(
            "{WORKERS} workers need {WORKERS} cores, this machine offers {nproc}"
        ));
    }
    let scratch = scratch_root();
    let sync_us = probes::sync_us(&scratch)?;
    println!(
        "env {{\"workload\": \"{}\", \"trace\": {}, \"nproc\": {nproc}, \"workers\": {WORKERS}, \
         \"rustc\": \"{}\", \"profile\": \"{}\", \"git_head\": \"{}\", \"seed\": {}, \
         \"measured_s\": {}, \"warmup_s\": {}, \"log.sync_us\": {sync_us}}}",
        args.workload,
        args.trace,
        first_line_of("rustc", &["--version"]),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        first_line_of("git", &["rev-parse", "HEAD"]),
        args.seed,
        args.seconds,
        args.warmup(),
    );

    // The environment probes above are the benchmark's, not the engine's:
    // set-up counts from here.
    let set_up_began = Instant::now();
    // A traced run times the load several times over, each database but the
    // last dropped before the next is loaded: one load of 10-120 ms follows
    // the machine's mood. An untraced run loads once, as a user would.
    let loads = match (args.trace, args.quick) {
        (false, _) => 1,
        (true, true) => QUICK_LOADS,
        (true, false) => LOADS,
    };
    let mut load_ms = Vec::with_capacity(loads);
    let mut loaded = None;
    for _ in 0..loads {
        drop(loaded.take());
        let t0 = Instant::now();
        loaded = Some(workloads::load(&args.workload, &scratch)?);
        load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let loaded = loaded.expect("at least one load");
    let loaded_rss_mb = peak_rss_mb()?;
    let log_bytes_loaded = match &loaded {
        Loaded::Memory(_) => 0,
        Loaded::Durable(d) => d.db.log_bytes(),
    };

    let (t, set_up) = run_phases(args, &loaded, set_up_began);

    // Correctness, on the quiesced database.
    let mut errors: Vec<String> = Vec::new();
    if t.failed > 0 {
        errors.push(format!("{} transactions were abandoned", t.failed));
    }
    let measured = summarize(&t.measured);
    if measured.all.count() == 0 {
        errors.push("no transaction committed in the measured window".into());
    }
    let mut end = EndState::default();
    let mut e2e = Report::default();
    let mut layer = Report::default();
    // Kept for the probes of a traced run.
    let main_table;
    match loaded {
        Loaded::Memory(m) => {
            end = workloads::check_end_state(&m.db, &mut errors);
            workloads::check_memory(&m, t.committed, &mut errors);
            for (window, s) in [("untraced", &t.measured_stats), ("traced", &t.traced_stats)] {
                if s.snapshot_aborts > 0 || s.snapshot_lock_acquisitions > 0 {
                    errors.push(format!(
                        "snapshot readers of the {window} window aborted {} times and took {} locks",
                        s.snapshot_aborts, s.snapshot_lock_acquisitions
                    ));
                }
            }
            e2e.set("log_bytes_per_txn", per(t.log_bytes as f64, t.committed));
            layer.set(
                "wal.records_per_txn",
                per(t.log_records as f64, t.committed),
            );
            layer.not_applicable(&[
                "recovery_txn_per_s",
                "wal.group_fsyncs",
                "wal.mean_batch",
                "wal.io_retries",
                "wal.io_failures",
                "partition.degraded_end",
                "durability.checkpoint_ms",
                "durability.recover_ms",
                "durability.replayed_writes",
                "durability.log_mb",
            ]);
            main_table = Arc::clone(m.db.table(m.main_table));
        }
        Loaded::Durable(d) => {
            let db = &d.db;
            let log_bytes = db.log_bytes() - log_bytes_loaded;
            e2e.set("log_bytes_per_txn", per(log_bytes as f64, t.committed));
            layer.set(
                "wal.records_per_txn",
                per(db.log_records() as f64, t.committed),
            );
            layer.set("wal.group_fsyncs", db.group_fsyncs() as f64);
            layer.set(
                "wal.mean_batch",
                per(db.group_acks() as f64, db.group_fsyncs()),
            );
            layer.set("wal.io_retries", db.wal_io_retries() as f64);
            layer.set("wal.io_failures", db.wal_io_failures() as f64);
            layer.set("partition.degraded_end", db.degraded_partitions() as f64);
            layer.set("durability.checkpoint_ms", d.checkpoint_ms);
            if db.wal_io_retries() + db.wal_io_failures() > 0 {
                errors.push("the log saw I/O retries or failures".into());
            }
            let table = d.mix.table;
            let (recovered, r) = workloads::crash_and_recover(d, t.committed, &mut errors)?;
            layer.set(
                "recovery_txn_per_s",
                r.report.replayed_txns as f64 / (r.recover_ms / 1e3),
            );
            layer.set("durability.recover_ms", r.recover_ms);
            layer.set(
                "durability.replayed_writes",
                r.report.replayed_writes as f64,
            );
            layer.set("durability.log_mb", r.log_bytes as f64 / (1 << 20) as f64);
            main_table = Arc::clone(recovered.table(bamboo_storage::PartitionId(0), table));
        }
    }

    // The machine's speed while the run measured: per reference slice the
    // index of the workers' readings; the run's is their median.
    let mut indices: Vec<f64> = t.reference.iter().map(|r| reference::index(r)).collect();
    let machine_index = median(&mut indices);
    e2e.set("norm_throughput_txn_s", measured.throughput * machine_index);
    layer.set("throughput_txn_s", measured.throughput);
    layer.set("machine.index", machine_index);
    let readings = || t.reference.iter().flatten();
    layer.set(
        "machine.mem_ns",
        median(&mut readings().map(|r| r.mem_ns).collect::<Vec<_>>()),
    );
    layer.set(
        "machine.wake_us",
        median(&mut readings().map(|r| r.wake_ns / 1e3).collect::<Vec<_>>()),
    );
    layer.set("latency_p50_us", measured.all.quantile(0.50) / 1e3);
    layer.set("latency_p99_us", measured.all.quantile(0.99) / 1e3);
    e2e.set("setup_s", set_up.as_secs_f64());
    layer.set("setup.load_ms", median(&mut load_ms));
    e2e.set("loaded_rss_mb", loaded_rss_mb);
    // Before the probes allocate their scratch databases, and without the
    // reference kernels' arrays, which are the benchmark's.
    layer.set("peak_rss_mb", peak_rss_mb()? - reference::RESIDENT_MB);

    let report = if args.trace {
        layer.set("log.sync_us", sync_us);
        let tracer = t.tracer.as_ref().expect("a traced run records spans");
        per_layer(&t, tracer, &measured, end, &mut layer, &mut errors);
        if let Some(path) = &args.trace_out {
            write_trace(path, &tracer.kept).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        for (name, value) in probes::run(&main_table, &scratch, args.quick)? {
            layer.set(name, value);
        }
        layer.in_order_of(&metrics::per_layer_names())?
    } else {
        e2e.in_order_of(&metrics::end_to_end_names())?
    };

    print_result(&report, &t, &measured, &errors);
    Ok(errors.is_empty())
}

/// Prints the metrics by name, the notes, and last the result object the
/// driver reads.
fn print_result(report: &[metrics::Metric], t: &WorkerOut, measured: &Summary, errors: &[String]) {
    for m in report {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "note committed={} measured_samples={} late={} user_rollbacks={}",
        t.committed,
        measured.all.count(),
        t.measured.late,
        t.user_rollbacks
    );
    let per_slice: Vec<String> = t
        .measured
        .slices
        .iter()
        .map(|h| format!("{:.0}", h.count() as f64 / t.measured.slice_seconds()))
        .collect();
    println!("note slices_txn_s {}", per_slice.join(" "));
    // The raw throughput, and per reference slice what the machine was like.
    println!("note throughput_txn_s {}", measured.throughput);
    let per_slice = |f: &dyn Fn(&[reference::Reading]) -> f64| {
        let values: Vec<String> = t.reference.iter().map(|r| format!("{:.3}", f(r))).collect();
        values.join(" ")
    };
    let mean = |r: &[reference::Reading], f: fn(&reference::Reading) -> f64| {
        r.iter().map(f).sum::<f64>() / r.len() as f64
    };
    println!("note machine_index {}", per_slice(&reference::index));
    println!(
        "note machine_mem_ns {}",
        per_slice(&|r| mean(r, |x| x.mem_ns))
    );
    println!(
        "note machine_wake_us {}",
        per_slice(&|r| mean(r, |x| x.wake_ns / 1e3))
    );
    for e in errors {
        println!("note FAILED CHECK: {e}");
    }
    let body: Vec<String> = report
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        t.generated.max(1),
        t.failed,
        body.join(", ")
    );
}

/// Fills in the counters and spans of a traced run, and checks the spans
/// against the counters of the same window.
fn per_layer(
    t: &WorkerOut,
    tracer: &Tracer,
    measured: &Summary,
    end: EndState,
    layer: &mut Report,
    errors: &mut Vec<String>,
) {
    // Counters of the untraced window.
    let s = &t.measured_stats;
    let txns = s.commits + s.snapshot_commits;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let aborts = |reason: &str| s.aborts_by_reason[driver::reason_index(reason)];
    let (wounded, cascade, user) = (aborts("wounded"), aborts("cascade"), aborts("user"));
    layer.set("abort_rate", per(s.aborts as f64, txns + s.aborts));
    layer.set("failed_share", per(t.failed as f64, t.generated));
    layer.set("lock.wait_us_per_txn", per(us(s.lock_wait), txns));
    layer.set(
        "lock.acquisitions_per_txn",
        per(
            (s.lock_acquisitions + s.snapshot_lock_acquisitions) as f64,
            txns,
        ),
    );
    layer.set("lock.nonquiescent_tuples", end.nonquiescent_tuples as f64);
    layer.set(
        "protocol.commit_wait_us_per_txn",
        per(us(s.commit_wait), txns),
    );
    layer.set("protocol.abort_us_per_txn", per(us(s.aborted_wall), txns));
    layer.set("protocol.aborts_wounded", wounded as f64);
    layer.set("protocol.aborts_cascade", cascade as f64);
    layer.set(
        "protocol.aborts_other",
        (s.aborts - wounded - cascade - user) as f64,
    );
    layer.set("protocol.cascade_events", s.cascade_events as f64);
    layer.set(
        "protocol.cascade_victims_mean",
        per(s.cascade_victims as f64, s.cascade_events),
    );
    layer.set("protocol.max_chain", s.max_chain as f64);
    layer.set("protocol.user_rollbacks", user as f64);
    layer.set("protocol.snapshot_commits", s.snapshot_commits as f64);
    layer.set("protocol.snapshot_aborts", s.snapshot_aborts as f64);
    layer.set(
        "protocol.snapshot_lock_acquisitions",
        s.snapshot_lock_acquisitions as f64,
    );
    layer.set(
        "partition.cross_share",
        per(s.cross_partition_commits as f64, s.commits),
    );
    layer.set("db.watermark_lag_end", end.watermark_lag as f64);
    layer.set("db.snapshots_active_end", end.snapshots_active as f64);
    layer.set("version.retained_max_end", end.retained_max as f64);

    // The untraced window's tail: reported, never bounded.
    layer.set(
        "session.latency_p999_us",
        measured.all.quantile(0.999) / 1e3,
    );
    let (top_q, top_ns) = measured.all.top_quantile().unwrap_or((0.0, 0.0));
    layer.set("session.latency_top_us", top_ns / 1e3);
    layer.set("session.latency_top_pct", top_q * 100.0);
    layer.set("session.latency_samples", measured.all.count() as f64);

    // Spans of the traced window: mean self time per committed transaction.
    let traced = summarize(&t.traced);
    let ts = &t.traced_stats;
    let traced_txns = ts.commits + ts.snapshot_commits;
    let self_ns = |name: Name| per(tracer.total(name).self_ns as f64, traced_txns);
    for (metric, name) in [
        ("session.begin_ns", Name::Begin),
        ("session.execute_ns", Name::Execute),
        ("session.commit_ns", Name::Commit),
        ("session.abort_ns", Name::Abort),
        ("session.backoff_ns", Name::Backoff),
        ("session.flight_wait_ns", Name::FlightWait),
        ("session.ack_ns", Name::Ack),
        ("workload.generate_ns", Name::Generate),
        ("trace.unattributed_ns", Name::Txn),
    ] {
        layer.set(metric, self_ns(name));
    }
    let latency_ns = per(tracer.total(Name::Txn).duration_ns as f64, traced_txns);
    layer.set("trace.txn_latency_ns", latency_ns);
    layer.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.throughput / measured.throughput),
    );
    let attempts = tracer.total(Name::Begin).count;
    layer.set("trace.attempt_spans", attempts as f64);
    layer.set("trace.commits", traced_txns as f64);
    layer.set("trace.aborts", ts.aborts as f64);
    if attempts != traced_txns + ts.aborts {
        errors.push(format!(
            "{attempts} attempt spans, but {traced_txns} commits + {} aborts",
            ts.aborts
        ));
    }
    if tracer.open_spans() > 0 {
        errors.push(format!("{} spans never closed", tracer.open_spans()));
    }
    let attributed: f64 = Name::ALL
        .iter()
        .filter(|&&n| n != Name::Txn && n != Name::Generate)
        .map(|&n| self_ns(n))
        .sum();
    if (attributed - latency_ns).abs() > 0.05 * latency_ns {
        errors.push(format!(
            "per-phase self times sum to {attributed:.0} ns, mean traced latency is {latency_ns:.0} ns"
        ));
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(None) => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => match run(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
