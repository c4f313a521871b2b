//! §3.4 phantom protection: next-key locking on the ordered index makes
//! range scans serializable.

use std::sync::Arc;
use std::time::Duration;

use bamboo_repro::core::protocol::{LockingProtocol, Protocol};
use bamboo_repro::core::{Database, Session};
use bamboo_repro::storage::{DataType, Row, Schema, TableId, Value};

/// Keys 10,20,30,40 plus a sentinel max key (guards open-ended gaps).
fn load() -> (Arc<Database>, TableId) {
    let mut b = Database::builder();
    let t = b.add_table(
        "t",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    let db = b.build();
    for k in [10u64, 20, 30, 40, u64::MAX] {
        db.table(t)
            .insert(k, Row::from(vec![Value::U64(k), Value::I64(1)]));
    }
    db.table(t).enable_ordered_index();
    (db, t)
}

fn session_with(db: &Arc<Database>, proto: LockingProtocol) -> Session {
    Session::new(Arc::clone(db), Arc::new(proto) as Arc<dyn Protocol>)
}

#[test]
fn scan_returns_range_in_order() {
    let (db, t) = load();
    let session = session_with(&db, LockingProtocol::bamboo());
    let mut txn = session.begin();
    let rows = txn.scan(t, 15..=35).unwrap();
    assert_eq!(
        rows.iter().map(|r| r.get_u64(0)).collect::<Vec<_>>(),
        vec![20, 30]
    );
    txn.commit().unwrap();
}

#[test]
fn serializable_scan_blocks_phantom_insert_until_commit_order() {
    // Scanner reads [15, 35]; a concurrent transaction inserts key 25.
    // Under next-key locking, the inserter orders after the scanner: a
    // re-scan inside the scanner's transaction must not see the phantom.
    let (db, t) = load();
    let session = session_with(&db, LockingProtocol::bamboo());
    let mut scanner = session.begin();
    let first = scanner.scan(t, 15..=35).unwrap().len();
    assert_eq!(first, 2);

    std::thread::scope(|s| {
        let inserter = s.spawn(|| {
            let mut txn = session.begin();
            txn.insert(t, 25, Row::from(vec![Value::U64(25), Value::I64(1)]), None)
                .unwrap();
            txn.commit().unwrap();
        });
        // Give the inserter time to reach its gap lock (it will queue
        // behind / depend on the scanner's next-key SH lock on key 30...
        // the scan locked 20, 30 and next-key 40).
        std::thread::sleep(Duration::from_millis(30));
        let again = scanner.scan(t, 15..=35).unwrap().len();
        assert_eq!(again, first, "phantom appeared inside a serializable txn");
        scanner.commit().unwrap();
        inserter.join().unwrap();
    });
    // After both commit, the phantom is durable.
    assert!(db.table(t).get(25).is_some());
}

#[test]
fn insert_beyond_max_key_is_guarded_by_sentinel() {
    let (db, t) = load();
    let session = session_with(&db, LockingProtocol::bamboo());
    // Scan to the sentinel: locks it as the next key.
    let mut scanner = session.begin();
    scanner.scan(t, 35..=100).unwrap();
    // Inserting 50 gap-locks the sentinel — the access sets must overlap.
    let mut ins = session.begin();
    ins.insert(t, 50, Row::from(vec![Value::U64(50), Value::I64(1)]), None)
        .unwrap();
    // The inserter's EX on the sentinel coexists with the retired SH of the
    // scanner, ordered by the commit semaphore.
    assert!(
        ins.shared().semaphore() >= 1,
        "inserter must order after the scanner via the sentinel gap lock"
    );
    scanner.commit().unwrap();
    ins.commit().unwrap();
    assert!(db.table(t).get(50).is_some());
}

#[test]
fn ordered_index_tracks_commit_time_inserts() {
    let (db, t) = load();
    let session = session_with(&db, LockingProtocol::bamboo());
    let mut txn = session.begin();
    txn.insert(t, 33, Row::from(vec![Value::U64(33), Value::I64(9)]), None)
        .unwrap();
    txn.commit().unwrap();
    let idx = db.table(t).ordered_index().unwrap();
    assert_eq!(
        idx.range(33..=33),
        vec![33],
        "insert reached the ordered index"
    );
    let mut c2 = session.begin();
    let rows = c2.scan(t, 30..=35).unwrap();
    assert_eq!(rows.len(), 2); // 30 and 33
    c2.commit().unwrap();
}
