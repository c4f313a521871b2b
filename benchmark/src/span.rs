//! Spans recorded by the benchmark around its calls into the engine.
//!
//! A span is a name, a start, an end, the span that caused it and the id of
//! the transaction it belongs to. The engine is measured from outside, so
//! the tree is shallow: one `txn` root per transaction (first begin →
//! commit returned or ack) with the phases of each attempt beneath it.
//! Roots of different transactions may overlap on one thread (the durable
//! workload keeps a flight of 32 staged), so spans name their parent
//! explicitly instead of living on a stack.
//!
//! A span's **self time** is its duration minus the part its children
//! cover. Children of one parent run one after another on one thread, so
//! the covered part is the sum of their durations. Self times are summed per
//! name as spans close; only the first [`KEEP`] spans of a worker are kept
//! for `--trace-out`.

/// Spans kept per worker for `--trace-out`.
pub const KEEP: usize = 100_000;

/// What a span measures. The discriminant indexes the tracer's per-name sums.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One transaction: first attempt's begin → commit returned / acked.
    Txn,
    /// `Workload::generate` (before the transaction's clock starts).
    Generate,
    /// `Session::begin_with`.
    Begin,
    /// Every `run_piece` of one attempt.
    Execute,
    /// `Txn::commit` / `Txn::commit_deferred`.
    Commit,
    /// `Txn::abort` after a failed piece.
    Abort,
    /// The retry policy's yield or sleep between attempts.
    Backoff,
    /// Durable only: staged, waiting for the rest of the flight.
    FlightWait,
    /// Durable only: `Session::ack_ticket`.
    Ack,
}

impl Name {
    /// Every name, in discriminant order.
    pub const ALL: [Name; 9] = [
        Name::Txn,
        Name::Generate,
        Name::Begin,
        Name::Execute,
        Name::Commit,
        Name::Abort,
        Name::Backoff,
        Name::FlightWait,
        Name::Ack,
    ];

    /// The name written to `--trace-out`.
    pub fn label(self) -> &'static str {
        match self {
            Name::Txn => "txn",
            Name::Generate => "workload.generate",
            Name::Begin => "session.begin",
            Name::Execute => "session.execute",
            Name::Commit => "session.commit",
            Name::Abort => "session.abort",
            Name::Backoff => "session.backoff",
            Name::FlightWait => "session.flight_wait",
            Name::Ack => "session.ack",
        }
    }
}

/// Identifies a span within its worker (assigned in opening order).
pub type SpanId = u64;

/// One closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<SpanId>,
    /// What it measures.
    pub name: Name,
    /// `worker << 40 | sequence` of the transaction it belongs to.
    pub txn: u64,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// Per-name sums over closed spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub duration_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

struct Open {
    span: Span,
    covered_ns: u64,
}

/// One worker's span recorder.
pub struct Tracer {
    next_id: SpanId,
    open: Vec<Open>,
    /// Sums per [`Name`], indexed by discriminant.
    totals: [Total; Name::ALL.len()],
    /// The first [`KEEP`] closed spans.
    pub kept: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            next_id: 0,
            open: Vec::new(),
            totals: Default::default(),
            // Reserved up front: growing it would copy megabytes in the
            // middle of a measured window.
            kept: Vec::with_capacity(KEEP),
        }
    }
}

impl Tracer {
    /// Opens a span at `start_ns`.
    pub fn open(&mut self, name: Name, parent: Option<SpanId>, txn: u64, start_ns: u64) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            span: Span {
                id,
                parent,
                name,
                txn,
                start_ns,
                end_ns: start_ns,
            },
            covered_ns: 0,
        });
        id
    }

    /// Closes span `id` at `end_ns`: books its self time under its name and
    /// its duration as covered time of its (still open) parent.
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        let at = self
            .open
            .iter()
            .rposition(|o| o.span.id == id)
            .expect("closing a span that is not open");
        let Open {
            mut span,
            covered_ns,
        } = self.open.swap_remove(at);
        span.end_ns = end_ns;
        let duration_ns = end_ns.saturating_sub(span.start_ns);
        let total = &mut self.totals[span.name as usize];
        total.count += 1;
        total.duration_ns += duration_ns;
        total.self_ns += duration_ns.saturating_sub(covered_ns);
        if let Some(parent) = span.parent {
            if let Some(p) = self.open.iter_mut().rev().find(|o| o.span.id == parent) {
                p.covered_ns += duration_ns;
            }
        }
        if self.kept.len() < KEEP {
            self.kept.push(span);
        }
    }

    /// A childless span that has already ended.
    pub fn leaf(&mut self, name: Name, parent: SpanId, txn: u64, start_ns: u64, end_ns: u64) {
        let id = self.open(name, Some(parent), txn, start_ns);
        self.close(id, end_ns);
    }

    /// Sums for `name`.
    pub fn total(&self, name: Name) -> Total {
        self.totals[name as usize]
    }

    /// Number of spans still open (0 once every transaction has finished).
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Adds another worker's recorder to this one. Span ids stay per worker;
    /// a kept span's worker is in its `txn`.
    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.totals.iter_mut().zip(other.totals.iter()) {
            a.count += b.count;
            a.duration_ns += b.duration_ns;
            a.self_ns += b.self_ns;
        }
        self.open.extend(other.open);
        self.kept.extend(other.kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn self_ns(t: &Tracer, name: Name) -> u64 {
        t.total(name).self_ns
    }

    #[test]
    fn nested_self_time_is_duration_minus_children() {
        // txn [0,100] ⊃ execute [10,70] ⊃ (hypothetical grandchild) commit [20,50].
        let mut t = Tracer::default();
        let root = t.open(Name::Txn, None, 7, 0);
        let exec = t.open(Name::Execute, Some(root), 7, 10);
        let inner = t.open(Name::Commit, Some(exec), 7, 20);
        t.close(inner, 50);
        t.close(exec, 70);
        t.close(root, 100);
        assert_eq!(self_ns(&t, Name::Commit), 30);
        assert_eq!(self_ns(&t, Name::Execute), 60 - 30);
        assert_eq!(self_ns(&t, Name::Txn), 100 - 60);
        assert_eq!(t.total(Name::Txn).duration_ns, 100);
        assert_eq!(t.open_spans(), 0);
        // Self times of the whole tree add up to the root's duration.
        let sum: u64 = Name::ALL.iter().map(|&n| self_ns(&t, n)).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn adjacent_children_sharing_timestamps_leave_no_root_self_time() {
        // begin | execute | commit back to back: one clock read closes one
        // phase and opens the next, so the root is fully covered.
        let mut t = Tracer::default();
        let root = t.open(Name::Txn, None, 1, 1_000);
        t.leaf(Name::Begin, root, 1, 1_000, 1_040);
        t.leaf(Name::Execute, root, 1, 1_040, 1_900);
        t.leaf(Name::Commit, root, 1, 1_900, 2_500);
        t.close(root, 2_500);
        assert_eq!(self_ns(&t, Name::Txn), 0);
        assert_eq!(self_ns(&t, Name::Begin), 40);
        assert_eq!(self_ns(&t, Name::Execute), 860);
        assert_eq!(self_ns(&t, Name::Commit), 600);
        // A gap between children is the root's own time.
        let root = t.open(Name::Txn, None, 2, 3_000);
        t.leaf(Name::Begin, root, 2, 3_000, 3_010);
        t.leaf(Name::Execute, root, 2, 3_050, 3_100);
        t.close(root, 3_100);
        assert_eq!(self_ns(&t, Name::Txn), 40);
    }

    #[test]
    fn retried_attempts_sum_under_one_root() {
        // Attempt 1 aborts in execute, backs off, attempt 2 commits.
        let mut t = Tracer::default();
        let root = t.open(Name::Txn, None, 3, 0);
        t.leaf(Name::Begin, root, 3, 0, 10);
        t.leaf(Name::Execute, root, 3, 10, 200);
        t.leaf(Name::Abort, root, 3, 200, 230);
        t.leaf(Name::Backoff, root, 3, 230, 1_230);
        t.leaf(Name::Begin, root, 3, 1_230, 1_240);
        t.leaf(Name::Execute, root, 3, 1_240, 1_500);
        t.leaf(Name::Commit, root, 3, 1_500, 1_600);
        t.close(root, 1_600);
        assert_eq!(t.total(Name::Begin).count, 2, "one begin per attempt");
        assert_eq!(self_ns(&t, Name::Begin), 20);
        assert_eq!(self_ns(&t, Name::Execute), 190 + 260);
        assert_eq!(self_ns(&t, Name::Backoff), 1_000);
        assert_eq!(self_ns(&t, Name::Abort), 30);
        assert_eq!(self_ns(&t, Name::Txn), 0);
        assert_eq!(t.total(Name::Txn).duration_ns, 1_600);
    }

    #[test]
    fn overlapping_roots_book_children_to_their_own_parent() {
        // Two staged transactions of one flight: B runs while A waits.
        let mut t = Tracer::default();
        let a = t.open(Name::Txn, None, 1, 0);
        t.leaf(Name::Execute, a, 1, 0, 100);
        let a_wait = t.open(Name::FlightWait, Some(a), 1, 100);
        let b = t.open(Name::Txn, None, 2, 100);
        t.leaf(Name::Execute, b, 2, 100, 180);
        let b_wait = t.open(Name::FlightWait, Some(b), 2, 180);
        t.close(a_wait, 180);
        t.leaf(Name::Ack, a, 1, 180, 900);
        t.close(a, 900);
        t.close(b_wait, 900);
        t.leaf(Name::Ack, b, 2, 900, 905);
        t.close(b, 905);
        assert_eq!(self_ns(&t, Name::Txn), 0);
        assert_eq!(t.total(Name::Txn).duration_ns, 900 + 805);
        assert_eq!(self_ns(&t, Name::FlightWait), 80 + 720);
        assert_eq!(self_ns(&t, Name::Ack), 720 + 5);
        assert_eq!(t.kept.len(), 8);
        assert_eq!(t.kept[0].parent, Some(a));
    }

    #[test]
    fn merge_adds_workers() {
        let mut a = Tracer::default();
        let r = a.open(Name::Txn, None, 1, 0);
        a.close(r, 10);
        let mut b = Tracer::default();
        let r = b.open(Name::Txn, None, 2, 0);
        b.close(r, 30);
        b.open(Name::Txn, None, 3, 40);
        a.merge(b);
        assert_eq!(a.kept.len(), 2);
        assert_eq!(a.open_spans(), 1, "an unclosed span stays visible");
        assert_eq!(
            a.total(Name::Txn),
            Total {
                count: 2,
                duration_ns: 40,
                self_ns: 40
            }
        );
    }
}
