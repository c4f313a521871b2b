//! Protocol equivalence: the same deterministic transaction sequence,
//! executed serially, must leave the database in the same final state under
//! every protocol — the protocols differ in concurrency handling, never in
//! single-threaded semantics.

use std::sync::Arc;

use bamboo_repro::core::protocol::{
    Ic3Protocol, LockingProtocol, PieceAccess, PieceDecl, Protocol, SiloProtocol, TemplateDecl,
};
use bamboo_repro::core::{Database, Session, TxnOptions};
use bamboo_repro::storage::{DataType, Row, Schema, TableId, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ROWS: u64 = 32;

fn load() -> (Arc<Database>, TableId) {
    let mut b = Database::builder();
    let t = b.add_table(
        "t",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    let db = b.build();
    for k in 0..ROWS {
        db.table(t)
            .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    (db, t)
}

/// Deterministic op scripts: (key, delta) updates and reads.
fn script(seed: u64) -> Vec<Vec<(u64, Option<i64>)>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..50)
        .map(|_| {
            let n = rng.gen_range(1..6);
            let mut keys: Vec<u64> = Vec::new();
            (0..n)
                .map(|_| {
                    let mut k = rng.gen_range(0..ROWS);
                    while keys.contains(&k) {
                        k = rng.gen_range(0..ROWS);
                    }
                    keys.push(k);
                    let delta = if rng.gen_bool(0.6) {
                        Some(rng.gen_range(-5i64..=5))
                    } else {
                        None
                    };
                    (k, delta)
                })
                .collect()
        })
        .collect()
}

fn run_script(session: &Session, t: TableId, txns: &[Vec<(u64, Option<i64>)>]) {
    for ops in txns {
        let mut txn = session.begin_with(TxnOptions::new().template(0));
        txn.piece_begin(0).unwrap();
        for &(k, delta) in ops {
            match delta {
                Some(d) => txn
                    .update(t, k, |row| {
                        let v = row.get_i64(1);
                        row.set(1, Value::I64(v + d));
                    })
                    .unwrap(),
                None => {
                    txn.read(t, k).unwrap();
                }
            }
        }
        txn.piece_end().unwrap();
        txn.commit().unwrap();
    }
}

fn snapshot(db: &Database, t: TableId) -> Vec<i64> {
    (0..ROWS)
        .map(|k| db.table(t).get(k).unwrap().read_row().get_i64(1))
        .collect()
}

#[test]
fn all_protocols_agree_on_serial_execution() {
    let txns = script(0xFEED);
    let mut reference: Option<Vec<i64>> = None;
    let ic3_template = TemplateDecl {
        name: "generic".into(),
        pieces: vec![PieceDecl::new(vec![PieceAccess::write(
            TableId(0),
            u64::MAX,
            u64::MAX,
        )])],
    };
    let protocols: Vec<(&str, Arc<dyn Protocol>)> = vec![
        ("bamboo", Arc::new(LockingProtocol::bamboo())),
        ("bamboo_base", Arc::new(LockingProtocol::bamboo_base())),
        ("wound_wait", Arc::new(LockingProtocol::wound_wait())),
        ("wait_die", Arc::new(LockingProtocol::wait_die())),
        ("no_wait", Arc::new(LockingProtocol::no_wait())),
        ("silo", Arc::new(SiloProtocol::new())),
        (
            "ic3",
            Arc::new(Ic3Protocol::new(vec![ic3_template.clone()], false)),
        ),
        (
            "ic3_optimistic",
            Arc::new(Ic3Protocol::new(vec![ic3_template], true)),
        ),
    ];
    for (name, proto) in protocols {
        let (db, t) = load();
        let session = Session::new(Arc::clone(&db), proto);
        run_script(&session, t, &txns);
        let snap = snapshot(&db, t);
        match &reference {
            None => reference = Some(snap),
            Some(r) => assert_eq!(&snap, r, "{name} diverged from the reference state"),
        }
        // Every tuple quiescent afterwards.
        for k in 0..ROWS {
            let tup = db.table(t).get(k).unwrap();
            assert!(
                tup.meta.lock.lock().is_quiescent(),
                "{name} leaked lock state on key {k}"
            );
            assert!(
                tup.meta.ic3.lock().is_quiescent(),
                "{name} leaked ic3 state on key {k}"
            );
        }
    }
}

#[test]
fn interactive_session_preserves_semantics() {
    let txns = script(0xBEEF);
    let (db1, t1) = load();
    let plain = Session::new(
        Arc::clone(&db1),
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
    );
    run_script(&plain, t1, &txns);
    let (db2, t2) = load();
    let interactive = Session::new(
        Arc::clone(&db2),
        Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
    )
    .interactive(std::time::Duration::from_micros(1));
    run_script(&interactive, t2, &txns);
    assert_eq!(snapshot(&db1, t1), snapshot(&db2, t2));
}
