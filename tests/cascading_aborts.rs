//! Cascading-abort behaviour (paper §4): dependency-tracked dirty reads,
//! chain formation, chain length accounting, the SH-no-cascade rule, and
//! the wait-versus-abort trade-off the δ heuristic navigates.

use std::sync::Arc;

use bamboo_repro::core::protocol::{LockingProtocol, Protocol};
use bamboo_repro::core::txn::AbortReason;
use bamboo_repro::core::{Database, Session, TxnOptions};
use bamboo_repro::storage::{DataType, Row, Schema, TableId, Value};

fn load(rows: u64) -> (Arc<Database>, TableId) {
    let mut b = Database::builder();
    let t = b.add_table(
        "t",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    let db = b.build();
    for k in 0..rows {
        db.table(t)
            .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    (db, t)
}

fn session_with(db: &Arc<Database>, proto: LockingProtocol) -> Session {
    Session::new(Arc::clone(db), Arc::new(proto) as Arc<dyn Protocol>)
}

fn bump(row: &mut Row) {
    let v = row.get_i64(1);
    row.set(1, Value::I64(v + 1));
}

#[test]
fn serializable_reads_see_dirty_retired_data_with_protection() {
    // Serializable Bamboo *does* read dirty data — protected by the commit
    // semaphore and cascades (that is the whole point of the paper).
    let (db, t) = load(4);
    let session = session_with(&db, LockingProtocol::bamboo_base());
    let mut w = session.begin();
    w.update(t, 0, |row| row.set(1, Value::I64(42))).unwrap();
    let mut r = session.begin();
    assert_eq!(r.read(t, 0).unwrap().get_i64(1), 42);
    assert_eq!(
        r.shared().semaphore(),
        1,
        "dirty read is dependency-tracked"
    );
    w.commit().unwrap();
    r.commit().unwrap();
}

#[test]
fn chain_length_equals_number_of_dependents() {
    // The paper: "the number can be as large as the number of concurrent
    // transactions" — build a chain of N writers, abort the head.
    let (db, t) = load(4);
    let session = session_with(&db, LockingProtocol::bamboo_base());
    for n in [1usize, 3, 7] {
        let mut head = session.begin();
        head.update(t, 0, bump).unwrap();
        let mut deps = Vec::new();
        for _ in 0..n {
            let mut c = session.begin();
            c.update(t, 0, bump).unwrap();
            deps.push(c);
        }
        let cascaded = head.abort();
        assert_eq!(cascaded, n, "abort chain must cover all {n} dependents");
        for c in deps {
            assert!(c.shared().is_aborted());
            assert_eq!(c.shared().abort_reason(), AbortReason::Cascade);
            c.abort();
        }
        assert_eq!(db.table(t).get(0).unwrap().read_row().get_i64(1), 0);
        assert!(db.table(t).get(0).unwrap().meta.lock.lock().is_quiescent());
    }
}

#[test]
fn cascade_aborts_only_downstream_of_the_aborter() {
    let (db, t) = load(4);
    let session = session_with(&db, LockingProtocol::bamboo_base());
    let mut w1 = session.begin();
    w1.update(t, 0, bump).unwrap();
    let mut w2 = session.begin();
    w2.update(t, 0, bump).unwrap();
    let mut w3 = session.begin();
    w3.update(t, 0, bump).unwrap();
    // Abort the middle one: w3 dies, w1 survives.
    w2.abort();
    assert!(!w1.shared().is_aborted());
    assert!(w3.shared().is_aborted());
    drop(w3); // RAII: the drop aborts the wounded attempt
    w1.commit().unwrap();
    assert_eq!(db.table(t).get(0).unwrap().read_row().get_i64(1), 1);
}

#[test]
fn shared_access_aborts_do_not_cascade() {
    // "if the aborting transaction locks the tuple with type SH, then
    // cascading aborts are not triggered" (§3.2.2).
    let (db, t) = load(4);
    let session = session_with(&db, LockingProtocol::bamboo());
    let mut reader = session.begin();
    reader.read(t, 0).unwrap();
    let mut writer = session.begin();
    writer.update(t, 0, bump).unwrap();
    let mut reader2 = session.begin();
    reader2.read(t, 0).unwrap();
    let cascaded = reader.abort();
    assert_eq!(cascaded, 0);
    assert!(!writer.shared().is_aborted());
    assert!(!reader2.shared().is_aborted());
    writer.commit().unwrap();
    reader2.commit().unwrap();
}

#[test]
fn transitive_cascade_across_tuples() {
    // T1 dirty-writes A; T2 reads A and dirty-writes B; T3 reads B.
    // Aborting T1 must ripple to T3 through T2.
    let (db, t) = load(4);
    let session = session_with(&db, LockingProtocol::bamboo_base());
    let mut t1 = session.begin();
    t1.update(t, 0, bump).unwrap();
    let mut t2 = session.begin();
    t2.read(t, 0).unwrap();
    t2.update(t, 1, bump).unwrap();
    let mut t3 = session.begin();
    t3.read(t, 1).unwrap();
    t1.abort();
    assert!(t2.shared().is_aborted(), "direct dependent aborted");
    // T3 is aborted when T2 releases (the worker-driven ripple).
    t2.abort();
    assert!(t3.shared().is_aborted(), "transitive dependent aborted");
    t3.abort();
    for k in 0..2 {
        assert_eq!(db.table(t).get(k).unwrap().read_row().get_i64(1), 0);
        assert!(db.table(t).get(k).unwrap().meta.lock.lock().is_quiescent());
    }
}

#[test]
fn delta_zero_vs_delta_keeps_last_hotspot_locked() {
    // With δ > 0 and planned ops, the trailing write is not retired, so a
    // dependent cannot read it dirty — it must wait instead.
    let (db, t) = load(8);
    let session = session_with(&db, LockingProtocol::bamboo()); // δ = 0.15
    let mut txn = session.begin_with(TxnOptions::new().planned_ops(4));
    for k in 0..4u64 {
        txn.update(t, k, bump).unwrap();
    }
    // Last write (op 4 of 4 > 85% boundary) stays owned.
    let st = db.table(t).get(3).unwrap();
    assert_eq!(st.meta.lock.lock().retired_len(), 0, "trailing write held");
    assert_eq!(st.meta.lock.lock().owners_len(), 1);
    // Earlier writes retired.
    assert_eq!(
        db.table(t).get(0).unwrap().meta.lock.lock().retired_len(),
        1
    );
    txn.commit().unwrap();
}

#[test]
fn wound_of_waiting_transaction_cleans_up_queue() {
    let (db, t) = load(4);
    let session = session_with(&db, LockingProtocol::wound_wait());
    // Old holder keeps the lock; young waiter queues; an older transaction
    // then wounds the young waiter via a different tuple — the waiter must
    // unblock, clean its queue entry and abort.
    let mut holder = session.begin();
    holder.update(t, 0, bump).unwrap();
    let young = session.begin();
    let young_shared = Arc::clone(young.shared());
    std::thread::scope(|s| {
        let h = s.spawn(move || {
            let mut young = young;
            let res = young.update(t, 0, bump);
            let failed = res.is_err();
            young.abort();
            failed
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Wound the waiter directly (as a higher-priority conflict would).
        young_shared.set_abort(AbortReason::Wounded);
        assert!(h.join().unwrap(), "wounded waiter must give up");
    });
    let st = db.table(t).get(0).unwrap();
    assert_eq!(st.meta.lock.lock().waiters_len(), 0, "queue entry removed");
    holder.commit().unwrap();
}
