//! The liveness backstops of the wait seam book their own abort reason.
//!
//! A lock wait that outlives its ceiling used to self-abort as `wounded`,
//! a commit-semaphore wait as `cascade` — polluting the two abort series
//! the paper's figures plot. Both now book `wait_timeout`.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_repro::core::executor::TxnSpec;
use bamboo_repro::core::protocol::LockingProtocol;
use bamboo_repro::core::stats::{reason_name, WorkerStats, REASONS};
use bamboo_repro::core::{Abort, Database, Session, Txn};
use bamboo_repro::storage::{DataType, Row, Schema, TableId, Value};

fn load() -> (Arc<Database>, TableId) {
    let mut b = Database::builder();
    let t = b.add_table(
        "t",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    let db = b.build();
    db.table(t)
        .insert(0, Row::from(vec![Value::U64(0), Value::I64(0)]));
    (db, t)
}

struct Bump(TableId);

impl TxnSpec for Bump {
    fn run_piece(&self, _p: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        txn.update(self.0, 0, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v + 1));
        })
    }
}

/// Opens a writer on key 0 that never finishes, runs one `Bump` attempt
/// behind it (`stop` is already raised, so the attempt that times out is
/// not retried) and checks that its one abort is booked as `wait_timeout`
/// with `polluted` untouched. Returns `(lock_wait, commit_wait)`.
fn timed_out_behind_a_stalled_writer(
    protocol: LockingProtocol,
    polluted: &str,
) -> (Duration, Duration) {
    let (db, t) = load();
    let session = Session::new(db, Arc::new(protocol));
    let mut blocker = session.begin();
    blocker
        .update(t, 0, |row| row.set(1, Value::I64(7)))
        .unwrap();
    let mut stats = WorkerStats::default();
    let t0 = Instant::now();
    let committed =
        session.run_reporting(&Bump(t), &mut stats, &AtomicBool::new(true), Instant::now());
    let waited = t0.elapsed();
    assert!(!committed, "the blocked attempt cannot commit");
    assert_eq!(stats.aborts, 1);
    let booked = |name: &str| -> u64 {
        let i = (0..REASONS).find(|&i| reason_name(i) == name).unwrap();
        stats.aborts_by_reason[i]
    };
    assert_eq!(booked(polluted), 0);
    assert_eq!(booked("wait_timeout"), 1);
    assert!(stats.lock_wait + stats.commit_wait <= waited);
    // The waiter left the queue: the blocker commits and the tuple drains.
    blocker.commit().unwrap();
    let tuple = session.db().table(t).get(0).unwrap();
    assert!(tuple.meta.lock.lock().is_quiescent());
    assert_eq!(tuple.read_row().get_i64(1), 7);
    (stats.lock_wait, stats.commit_wait)
}

#[test]
fn lock_wait_timeout_is_not_booked_as_a_wound() {
    // The older transaction holds the exclusive lock: the younger one
    // cannot wound it and queues until the backstop. Nobody wounded it.
    let (lock_wait, commit_wait) =
        timed_out_behind_a_stalled_writer(LockingProtocol::wound_wait(), "wounded");
    assert!(lock_wait >= Duration::from_millis(500));
    assert_eq!(commit_wait, Duration::ZERO);
}

#[test]
fn commit_wait_timeout_is_not_booked_as_a_cascade() {
    // The first writer retires its lock and stalls before committing: the
    // second reads its dirty write, so its commit semaphore never clears.
    // Its predecessor never aborted.
    let (lock_wait, commit_wait) =
        timed_out_behind_a_stalled_writer(LockingProtocol::bamboo_base(), "cascade");
    assert!(commit_wait >= Duration::from_millis(2000));
    assert_eq!(lock_wait, Duration::ZERO);
}
