//! The benchmark's own closed-loop workers.
//!
//! `executor::run_bench` hides per-transaction latency behind the log2
//! histogram, so the loop lives here: generate → clock → run → clock. Two
//! workers (the box has two cores; the main thread only sleeps) move
//! through the phases the main thread announces: warm-up, the measured
//! untraced window, optionally a traced window, a slice of the reference
//! kernels (`reference.rs`) after each round, stop.
//!
//! * In-memory workloads run the untraced phases through
//!   `Session::run_reporting`, which is what fills the engine's own counters
//!   (`WorkerStats`).
//! * The traced phase, and every phase of the durable workload, drive the
//!   public `Txn` API directly ([`run_attempts`]) so that begin, execute,
//!   commit, back-off and ack can be timed one by one and the commit
//!   acknowledgment deferred.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bamboo_core::executor::{TxnSpec, Workload};
use bamboo_core::stats::{reason_name, WorkerStats, REASONS};
use bamboo_core::wal::DurabilityTicket;
use bamboo_core::{Abort, AbortReason, PartSession, Session, TxnOptions};
use bamboo_storage::{PartitionId, TableId, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::hist::Hist;
use crate::reference::{self, Reading};
use crate::span::{Name, SpanId, Tracer};

/// Worker threads of every workload.
pub const WORKERS: usize = 2;
/// Transactions a durable worker stages before acknowledging them.
pub const FLIGHT: usize = 32;
/// A transaction that keeps aborting for this long is abandoned and counted
/// as failed (the bound `executor::run_bench` uses).
const HARD_DEADLINE: Duration = Duration::from_secs(30);

/// What the workers are doing, announced by the main thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Executed, not measured.
    Warmup = 0,
    /// The untraced measured window.
    Measure = 1,
    /// The traced window.
    Traced = 2,
    /// One slice of the reference kernels, then wait for the next phase.
    Reference = 3,
    /// Finish the transaction (or flight) in hand and return.
    Stop = 4,
}

/// Where a transaction's end is booked: the round that was running when it
/// began.
#[derive(Clone, Copy)]
struct Round {
    index: u64,
    start_ns: u64,
}

/// Phase switch shared by the main thread and the workers: the phase, the
/// index of the current round within its window and the round's start,
/// packed into one word so that a worker reads the three together.
pub struct Control {
    /// What the workers' reference kernels share; its slices wake the
    /// thread that made this control block.
    pub reference: reference::Shared,
    epoch: Instant,
    /// `start_ns << 9 | round << 3 | phase`.
    state: AtomicU64,
}

impl Control {
    /// A control block in the warm-up phase.
    pub fn new() -> Self {
        Control {
            reference: reference::Shared::new(),
            epoch: Instant::now(),
            state: AtomicU64::new(Phase::Warmup as u64),
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Announces `phase`; round `round` (below 64) of its window starts now.
    pub fn enter(&self, phase: Phase, round: u64) {
        assert!(round < 64, "round index does not fit its six bits");
        // ordering: Relaxed — the word carries everything a worker needs;
        // nothing else is published through it.
        self.state.store(
            self.now_ns() << 9 | round << 3 | phase as u64,
            Ordering::Relaxed,
        );
    }

    /// Runs one reference slice, then waits for the main thread — which the
    /// last worker to finish wakes — to announce what follows it.
    fn reference_slice(&self, reference: &mut reference::Worker<'_>) {
        reference.slice();
        while self.phase().0 == Phase::Reference {
            // The main thread needs one of the two cores to announce it.
            std::thread::yield_now();
        }
    }

    fn phase(&self) -> (Phase, Round) {
        let state = self.state.load(Ordering::Relaxed);
        let phase = match state & 7 {
            0 => Phase::Warmup,
            1 => Phase::Measure,
            2 => Phase::Traced,
            3 => Phase::Reference,
            _ => Phase::Stop,
        };
        let round = Round {
            index: state >> 3 & 63,
            start_ns: state >> 9,
        };
        (phase, round)
    }
}

/// A measured window cut into equal slices. The headline numbers are taken
/// over all slices together; the slices themselves are printed, so that a
/// run in which the sandbox's neighbours took a core for some seconds, or
/// the workload changed pace, can be told from a steady one. The window may
/// run in several rounds with other phases between them; each round is a
/// whole number of slices.
#[derive(Clone)]
pub struct Window {
    slice_ns: u64,
    slices_per_round: u64,
    /// Per slice, in time order: latency (first begin → commit returned /
    /// acked) of the transactions that finished in it.
    pub slices: Vec<Hist>,
    /// Transactions that began in a round and finished after its last
    /// slice; counted nowhere else.
    pub late: u64,
}

impl Window {
    /// A window of `rounds` rounds of `slices_per_round` slices of
    /// `slice_ns` each.
    pub fn new(rounds: u64, slices_per_round: u64, slice_ns: u64) -> Self {
        Window {
            slice_ns,
            slices_per_round,
            slices: vec![Hist::default(); (rounds * slices_per_round) as usize],
            late: 0,
        }
    }

    fn record(&mut self, round: Round, end_ns: u64, latency_ns: u64) {
        let in_round = (end_ns - round.start_ns) / self.slice_ns;
        let slice = round.index * self.slices_per_round + in_round;
        match self.slices.get_mut(slice as usize) {
            Some(slice) if in_round < self.slices_per_round => slice.record(latency_ns),
            _ => self.late += 1,
        }
    }

    /// Length of one round.
    pub fn round_length(&self) -> Duration {
        Duration::from_nanos(self.slices_per_round * self.slice_ns)
    }

    /// Adds another worker's window, slice by slice.
    pub fn merge(&mut self, other: &Window) {
        for (a, b) in self.slices.iter_mut().zip(other.slices.iter()) {
            a.merge(b);
        }
        self.late += other.late;
    }

    /// Slice length in seconds.
    pub fn slice_seconds(&self) -> f64 {
        self.slice_ns as f64 / 1e9
    }
}

/// Everything one worker hands back; merged, everything the run produced.
pub struct WorkerOut {
    /// Transactions generated, all phases.
    pub generated: u64,
    /// Transactions committed (snapshot commits included), all phases.
    pub committed: u64,
    /// Transactions abandoned, all phases. User rollbacks are not failures.
    pub failed: u64,
    /// Transactions ended by a deliberate `User` abort, all phases.
    pub user_rollbacks: u64,
    /// The untraced measured window.
    pub measured: Window,
    /// Engine counters of the untraced measured window.
    pub measured_stats: WorkerStats,
    /// The traced window.
    pub traced: Window,
    /// Engine-visible counters of the traced window (commits and aborts).
    pub traced_stats: WorkerStats,
    /// Spans of the traced window.
    pub tracer: Option<Tracer>,
    /// Redo bytes this worker's session appended (ring WAL only; the durable
    /// segments are shared and read from the database).
    pub log_bytes: u64,
    /// Commit records this worker's session appended (ring WAL only).
    pub log_records: u64,
    /// Per reference slice, in order: every worker's reading of it.
    pub reference: Vec<Vec<Reading>>,
}

impl WorkerOut {
    fn new(window: &Window, trace: bool) -> Self {
        WorkerOut {
            generated: 0,
            committed: 0,
            failed: 0,
            user_rollbacks: 0,
            measured: window.clone(),
            measured_stats: WorkerStats::default(),
            traced: window.clone(),
            traced_stats: WorkerStats::default(),
            tracer: trace.then(Tracer::default),
            log_bytes: 0,
            log_records: 0,
            reference: Vec::new(),
        }
    }
}

impl WorkerOut {
    /// Adds another worker's results to this one.
    pub fn merge(mut self, other: WorkerOut) -> WorkerOut {
        self.generated += other.generated;
        self.committed += other.committed;
        self.failed += other.failed;
        self.user_rollbacks += other.user_rollbacks;
        self.measured.merge(&other.measured);
        self.measured_stats.merge(&other.measured_stats);
        self.traced.merge(&other.traced);
        self.traced_stats.merge(&other.traced_stats);
        if let (Some(mine), Some(theirs)) = (self.tracer.as_mut(), other.tracer) {
            mine.merge(theirs);
        }
        self.log_bytes += other.log_bytes;
        self.log_records += other.log_records;
        for (mine, theirs) in self.reference.iter_mut().zip(other.reference) {
            mine.extend(theirs);
        }
        self
    }
}

/// Index in `WorkerStats::aborts_by_reason` of the reason `stats` calls
/// `name`.
pub fn reason_index(name: &str) -> usize {
    (0..REASONS)
        .find(|&i| reason_name(i) == name)
        .expect("WorkerStats knows the abort reason")
}

/// How one transaction ended.
enum Outcome {
    /// Committed; the ticket is `Some` when the acknowledgment was deferred.
    Committed(Option<DurabilityTicket>),
    /// Ended by the spec's own `User` abort (TPC-C's invalid item).
    UserRollback,
    /// Abandoned: not retryable, or still aborting at the hard deadline.
    Failed,
}

/// Where [`run_attempts`] reports phase boundaries. The untraced durable
/// loop uses [`Untimed`], which compiles to nothing.
trait PhaseClock {
    fn now(&mut self) -> u64;
    fn phase(&mut self, name: Name, start_ns: u64, end_ns: u64);
}

struct Untimed;

impl PhaseClock for Untimed {
    #[inline]
    fn now(&mut self) -> u64 {
        0
    }
    #[inline]
    fn phase(&mut self, _: Name, _: u64, _: u64) {}
}

/// Books phases as leaf spans under one transaction's root span.
struct Traced<'a> {
    ctl: &'a Control,
    tracer: &'a mut Tracer,
    root: SpanId,
    txn: u64,
}

impl PhaseClock for Traced<'_> {
    #[inline]
    fn now(&mut self) -> u64 {
        self.ctl.now_ns()
    }
    #[inline]
    fn phase(&mut self, name: Name, start_ns: u64, end_ns: u64) {
        self.tracer
            .leaf(name, self.root, self.txn, start_ns, end_ns);
    }
}

/// Runs `spec` to its end through the public `Txn` API, retrying aborted
/// attempts by the session's `RetryPolicy` — the loop of `Session::run`,
/// opened up so that each phase can be timed and the acknowledgment
/// deferred. `start_ns` is the clock reading the caller took when the
/// transaction began; one reading closes a phase and opens the next, so a
/// traced transaction has no time between its phases. Returns the outcome
/// and the clock reading at its end.
fn run_attempts<C: PhaseClock>(
    session: &Session,
    spec: &dyn TxnSpec,
    deferred: bool,
    clock: &mut C,
    start_ns: u64,
    stats: &mut WorkerStats,
) -> (Outcome, u64) {
    // Snapshot readers are booked apart, as `Session::run_reporting` books
    // them: they must take no lock and never abort.
    let snapshot = spec.read_only_snapshot();
    let book_locks = |stats: &mut WorkerStats, txn: &bamboo_core::Txn<'_>| {
        stats.lock_wait += txn.ctx().timers.lock_wait;
        if snapshot {
            stats.snapshot_lock_acquisitions += txn.locks_acquired();
        } else {
            stats.lock_acquisitions += txn.locks_acquired();
        }
    };
    // Set at the first abort: a transaction that commits at once reads no
    // clock for it.
    let mut deadline = None;
    let mut attempt = 0u32;
    let mut t = start_ns;
    loop {
        let mut txn = session.begin_with(TxnOptions::for_spec(spec));
        let t_begun = clock.now();
        clock.phase(Name::Begin, t, t_begun);
        let executed = (|| -> Result<(), Abort> {
            for p in 0..spec.pieces() {
                txn.piece_begin(p)?;
                spec.run_piece(p, &mut txn)?;
                txn.piece_end()?;
            }
            Ok(())
        })();
        let t_executed = clock.now();
        clock.phase(Name::Execute, t_begun, t_executed);
        let result = match executed {
            Ok(()) => {
                // Everything the attempt waited for and locked is known
                // before the commit; the commit-semaphore wait inside
                // `commit` is not visible from here.
                book_locks(stats, &txn);
                let spanned = txn.partitions_spanned();
                let committed = if deferred {
                    txn.commit_deferred()
                } else {
                    txn.commit().map(|()| None)
                };
                t = clock.now();
                clock.phase(Name::Commit, t_executed, t);
                // A failed commit aborts inside the engine; its cascade is
                // not reported.
                committed
                    .map(|ticket| (ticket, spanned))
                    .map_err(|Abort(reason)| (reason, 0))
            }
            Err(Abort(reason)) => {
                book_locks(stats, &txn);
                let cascaded = txn.abort();
                t = clock.now();
                clock.phase(Name::Abort, t_executed, t);
                Err((reason, cascaded))
            }
        };
        let reason = match result {
            Ok((ticket, spanned)) => {
                if snapshot {
                    stats.snapshot_commits += 1;
                } else {
                    stats.commits += 1;
                }
                stats.cross_partition_commits += (spanned > 1) as u64;
                return (Outcome::Committed(ticket), t);
            }
            Err((reason, cascaded)) => {
                // The attempt's wall time is not taken here: the paper's
                // abort time comes from the untraced `run_reporting` window.
                stats.record_abort(reason, Duration::ZERO, cascaded);
                stats.snapshot_aborts += snapshot as u64;
                reason
            }
        };
        if reason == AbortReason::User && !session.retry().retry_user_aborts {
            return (Outcome::UserRollback, t);
        }
        let deadline = *deadline.get_or_insert_with(|| Instant::now() + HARD_DEADLINE);
        if !session.retry().retryable(reason) || Instant::now() >= deadline {
            return (Outcome::Failed, t);
        }
        attempt += 1;
        match session.retry().backoff(attempt) {
            None => std::thread::yield_now(),
            Some(d) => std::thread::sleep(d),
        }
        let t_resumed = clock.now();
        clock.phase(Name::Backoff, t, t_resumed);
        t = t_resumed;
    }
}

/// Bits of a span's `txn` below the worker's index.
pub const TXN_SEQ_BITS: u32 = 40;

fn txn_id(worker: usize, seq: u64) -> u64 {
    (worker as u64) << TXN_SEQ_BITS | seq
}

/// One worker of an in-memory workload: returns when the main thread
/// announces [`Phase::Stop`].
pub fn run_memory_worker(
    worker: usize,
    ctl: &Control,
    session: &Session,
    workload: &dyn Workload,
    seed: u64,
    window: &Window,
    trace: bool,
) -> WorkerOut {
    let mut rng = SmallRng::seed_from_u64(seed + worker as u64);
    let mut out = WorkerOut::new(window, trace);
    let mut reference = reference::Worker::new(&ctl.reference, worker);
    let mut warm_stats = WorkerStats::default();
    // `run_reporting` gives up retrying once this rises; a transaction must
    // run to its end, so it never does.
    let never = AtomicBool::new(false);
    let user = reason_index("user");
    loop {
        let (phase, round) = ctl.phase();
        if phase == Phase::Stop {
            break;
        }
        if phase == Phase::Reference {
            ctl.reference_slice(&mut reference);
            continue;
        }
        out.generated += 1;
        if phase == Phase::Traced {
            let tracer = out.tracer.as_mut().expect("traced phase without a tracer");
            let txn = txn_id(worker, out.generated);
            let t_gen = ctl.now_ns();
            let spec = workload.generate(worker, &mut rng);
            let t0 = ctl.now_ns();
            let gen = tracer.open(Name::Generate, None, txn, t_gen);
            tracer.close(gen, t0);
            let root = tracer.open(Name::Txn, None, txn, t0);
            let mut clock = Traced {
                ctl,
                tracer,
                root,
                txn,
            };
            let (outcome, t1) = run_attempts(
                session,
                spec.as_ref(),
                false,
                &mut clock,
                t0,
                &mut out.traced_stats,
            );
            tracer.close(root, t1);
            match outcome {
                Outcome::Committed(_) => {
                    out.committed += 1;
                    out.traced.record(round, t1, t1 - t0);
                }
                Outcome::UserRollback => out.user_rollbacks += 1,
                Outcome::Failed => out.failed += 1,
            }
            continue;
        }
        let spec = workload.generate(worker, &mut rng);
        let stats = if phase == Phase::Measure {
            &mut out.measured_stats
        } else {
            &mut warm_stats
        };
        let user_before = stats.aborts_by_reason[user];
        let t0 = Instant::now();
        let committed = session.run_reporting(spec.as_ref(), stats, &never, t0 + HARD_DEADLINE);
        let t1 = Instant::now();
        if committed {
            out.committed += 1;
            if phase == Phase::Measure {
                let end_ns = t1.duration_since(ctl.epoch).as_nanos() as u64;
                out.measured
                    .record(round, end_ns, (t1 - t0).as_nanos() as u64);
            }
        } else if stats.aborts_by_reason[user] > user_before {
            out.user_rollbacks += 1;
        } else {
            out.failed += 1;
        }
    }
    out.log_bytes = session.log_bytes();
    out.log_records = session.log_records();
    out.reference = reference.readings.into_iter().map(|r| vec![r]).collect();
    out
}

/// The durable workload's transaction: move `amount` between two accounts.
pub struct Transfer {
    /// The accounts table.
    pub table: TableId,
    /// Debited account.
    pub from: u64,
    /// Credited account.
    pub to: u64,
    /// Amount moved.
    pub amount: i64,
}

impl TxnSpec for Transfer {
    fn planned_ops(&self) -> Option<usize> {
        Some(2)
    }

    fn run_piece(&self, _piece: usize, txn: &mut bamboo_core::Txn<'_>) -> Result<(), Abort> {
        let amount = self.amount;
        txn.update(self.table, self.from, |r| {
            r.set(1, Value::I64(r.get_i64(1) - amount))
        })?;
        txn.update(self.table, self.to, |r| {
            r.set(1, Value::I64(r.get_i64(1) + amount))
        })
    }
}

/// Generator of the durable workload: uniform accounts over a two-partition
/// range-routed bank, a fixed share of transfers crossing partitions.
pub struct TransferMix {
    /// The accounts table.
    pub table: TableId,
    /// Accounts per partition (partition `p` owns `p*n .. (p+1)*n`).
    pub accounts_per_partition: u64,
    /// Share of transfers whose two accounts live on different partitions.
    pub cross_share: f64,
}

impl TransferMix {
    /// Draws a transfer and the partition it is homed on (the debited
    /// account's).
    fn generate(&self, rng: &mut SmallRng) -> (Transfer, PartitionId) {
        let n = self.accounts_per_partition;
        let home = rng.gen_range(0..2u64);
        let from = home * n + rng.gen_range(0..n);
        let to = if rng.gen::<f64>() < self.cross_share {
            (1 - home) * n + rng.gen_range(0..n)
        } else {
            // A different account of the same partition.
            home * n + (from - home * n + rng.gen_range(1..n)) % n
        };
        let transfer = Transfer {
            table: self.table,
            from,
            to,
            amount: rng.gen_range(1..=10),
        };
        (transfer, PartitionId(home as u32))
    }
}

/// A staged transfer: committed and released, not yet acknowledged.
struct Staged {
    ticket: DurabilityTicket,
    home: PartitionId,
    phase: Phase,
    round: Round,
    /// Clock reading at its begin.
    t0: u64,
    /// Root and flight-wait spans when tracing.
    spans: Option<(SpanId, SpanId)>,
    txn: u64,
}

/// One worker of the durable workload: stages flights of [`FLIGHT`]
/// transfers with `commit_deferred`, then acknowledges them with
/// `ack_ticket`; latency is begin → ack. Every staged ticket is
/// acknowledged before the worker returns.
pub fn run_durable_worker(
    worker: usize,
    ctl: &Control,
    session: &PartSession,
    mix: &TransferMix,
    seed: u64,
    window: &Window,
    trace: bool,
) -> WorkerOut {
    let mut rng = SmallRng::seed_from_u64(seed + worker as u64);
    let mut out = WorkerOut::new(window, trace);
    let mut reference = reference::Worker::new(&ctl.reference, worker);
    let mut warm_stats = WorkerStats::default();
    let mut flight: Vec<Staged> = Vec::with_capacity(FLIGHT);
    loop {
        let (phase, round) = ctl.phase();
        if phase == Phase::Stop {
            break;
        }
        if phase == Phase::Reference {
            ctl.reference_slice(&mut reference);
            continue;
        }
        let traced = phase == Phase::Traced;
        let stats = match phase {
            Phase::Measure => &mut out.measured_stats,
            Phase::Traced => &mut out.traced_stats,
            _ => &mut warm_stats,
        };
        while flight.len() < FLIGHT {
            out.generated += 1;
            let txn = txn_id(worker, out.generated);
            let t_gen = if traced { ctl.now_ns() } else { 0 };
            let (transfer, home) = mix.generate(&mut rng);
            let t0 = ctl.now_ns();
            let (outcome, spans) = if traced {
                let tracer = out.tracer.as_mut().expect("traced phase without a tracer");
                let gen = tracer.open(Name::Generate, None, txn, t_gen);
                tracer.close(gen, t0);
                let root = tracer.open(Name::Txn, None, txn, t0);
                let mut clock = Traced {
                    ctl,
                    tracer,
                    root,
                    txn,
                };
                let (outcome, t_staged) = run_attempts(
                    session.session(home),
                    &transfer,
                    true,
                    &mut clock,
                    t0,
                    stats,
                );
                let wait = tracer.open(Name::FlightWait, Some(root), txn, t_staged);
                (outcome, Some((root, wait)))
            } else {
                let (outcome, _) = run_attempts(
                    session.session(home),
                    &transfer,
                    true,
                    &mut Untimed,
                    0,
                    stats,
                );
                (outcome, None)
            };
            match outcome {
                Outcome::Committed(Some(ticket)) => flight.push(Staged {
                    ticket,
                    home,
                    phase,
                    round,
                    t0,
                    spans,
                    txn,
                }),
                // Not under group commit: the commit was its own ack. The
                // workload always runs under group commit, so this is a
                // misconfiguration, reported as a failure.
                Outcome::Committed(None) | Outcome::UserRollback | Outcome::Failed => {
                    out.failed += 1;
                    if let (Some((root, wait)), Some(tracer)) = (spans, out.tracer.as_mut()) {
                        let t = ctl.now_ns();
                        tracer.close(wait, t);
                        tracer.close(root, t);
                    }
                }
            }
        }
        // Tickets of one worker are staged in commit order, which is the
        // order the horizon advances in.
        for staged in flight.drain(..) {
            let t_ack = ctl.now_ns();
            let acked = session.session(staged.home).ack_ticket(staged.ticket);
            let t1 = ctl.now_ns();
            if let (Some((root, wait)), Some(tracer)) = (staged.spans, out.tracer.as_mut()) {
                tracer.close(wait, t_ack);
                tracer.leaf(Name::Ack, root, staged.txn, t_ack, t1);
                tracer.close(root, t1);
            }
            if acked.is_err() {
                out.failed += 1;
                continue;
            }
            out.committed += 1;
            let window = match staged.phase {
                Phase::Measure => &mut out.measured,
                Phase::Traced => &mut out.traced,
                _ => continue,
            };
            window.record(staged.round, t1, t1 - staged.t0);
        }
    }
    out.reference = reference.readings.into_iter().map(|r| vec![r]).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_core::protocol::{LockingProtocol, Protocol};
    use bamboo_workload::{synthetic, SyntheticConfig};
    use std::sync::Arc;

    /// Two workers fight over two hot tuples (wounds and cascades), first
    /// untraced, then traced, after one slice of the reference kernels;
    /// returns their results.
    fn contended_run() -> Vec<WorkerOut> {
        let cfg = SyntheticConfig::two_hotspots(0.0, 1.0)
            .with_rows(1024)
            .with_ops(4);
        let (db, table) = synthetic::load(&cfg);
        let workload = synthetic::SyntheticWorkload::new(cfg, table);
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let window = Window::new(1, 5, 10_000_000);
        let ctl = Control::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let (ctl, window, workload) = (&ctl, &window, &workload);
                    let session = Session::new(Arc::clone(&db), Arc::clone(&proto));
                    s.spawn(move || run_memory_worker(w, ctl, &session, workload, 7, window, true))
                })
                .collect();
            // A reference slice first: it ends when both workers are up and
            // have run it, so neither window opens before they are.
            ctl.enter(Phase::Reference, 0);
            ctl.reference.wait_for(1);
            for phase in [Phase::Measure, Phase::Traced] {
                ctl.enter(phase, 0);
                std::thread::sleep(window.round_length());
            }
            ctl.enter(Phase::Stop, 0);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn spans_agree_with_the_counters_of_the_same_window() {
        for out in contended_run() {
            let tracer = out.tracer.expect("traced run");
            let stats = &out.traced_stats;
            assert!(stats.commits > 0, "the traced window committed nothing");
            // One begin span per attempt, one root per transaction.
            assert_eq!(
                tracer.total(Name::Begin).count,
                stats.commits + stats.aborts
            );
            assert_eq!(
                tracer.total(Name::Commit).count + tracer.total(Name::Abort).count,
                stats.commits + stats.aborts
            );
            assert_eq!(tracer.open_spans(), 0);
            // Phases tile their transaction: the roots own no time.
            assert_eq!(tracer.total(Name::Txn).self_ns, 0);
            let phases: u64 = [
                Name::Begin,
                Name::Execute,
                Name::Commit,
                Name::Abort,
                Name::Backoff,
            ]
            .iter()
            .map(|&n| tracer.total(n).self_ns)
            .sum();
            assert_eq!(phases, tracer.total(Name::Txn).duration_ns);
            // Both windows booked what committed in them, or called it late.
            let booked = |w: &Window| w.slices.iter().map(Hist::count).sum::<u64>() + w.late;
            assert_eq!(booked(&out.traced), stats.commits);
            assert_eq!(booked(&out.measured), out.measured_stats.commits);
            assert_eq!(out.failed, 0);
            assert_eq!(out.reference.len(), 1);
        }
    }

    #[test]
    fn transfers_keep_their_share_of_partition_crossings() {
        let mix = TransferMix {
            table: TableId(0),
            accounts_per_partition: 100,
            cross_share: 0.25,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let mut crossing = 0;
        for _ in 0..10_000 {
            let (t, home) = mix.generate(&mut rng);
            assert_ne!(t.from, t.to);
            assert_eq!(t.from / 100, home.0 as u64);
            assert!(t.to < 200);
            crossing += (t.from / 100 != t.to / 100) as u32;
        }
        assert!((2_300..2_700).contains(&crossing), "{crossing} of 10000");
    }
}
