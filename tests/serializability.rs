//! Cross-protocol serializability tests: invariants that hold under any
//! serializable execution, exercised with real concurrency.

use std::sync::Arc;
use std::time::Duration;

use bamboo_repro::core::executor::{run_bench, BenchConfig, TxnSpec, Workload};
use bamboo_repro::core::protocol::{LockingProtocol, Protocol, SiloProtocol};
use bamboo_repro::core::{Abort, Database, Session, Txn};
use bamboo_repro::storage::{DataType, Row, Schema, TableId, Value};
use rand::rngs::SmallRng;
use rand::Rng;

const N_ACCOUNTS: u64 = 64;
const INITIAL: i64 = 100;

fn load() -> (Arc<Database>, TableId) {
    let mut b = Database::builder();
    let t = b.add_table(
        "acct",
        Schema::build()
            .column("id", DataType::U64)
            .column("bal", DataType::I64),
    );
    let db = b.build();
    for id in 0..N_ACCOUNTS {
        db.table(t)
            .insert(id, Row::from(vec![Value::U64(id), Value::I64(INITIAL)]));
    }
    (db, t)
}

/// Moves money between two accounts plus a fee into the hot account 0.
struct Transfer {
    table: TableId,
    from: u64,
    to: u64,
    amount: i64,
}

impl TxnSpec for Transfer {
    fn planned_ops(&self) -> Option<usize> {
        Some(3)
    }

    fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        let amount = self.amount;
        txn.update(self.table, 0, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v + 1));
        })?;
        txn.update(self.table, self.from, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v - amount - 1));
        })?;
        txn.update(self.table, self.to, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v + amount));
        })?;
        Ok(())
    }
}

struct TransferWl {
    table: TableId,
}

impl Workload for TransferWl {
    fn name(&self) -> &str {
        "transfer"
    }

    fn generate(&self, _w: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        let from = rng.gen_range(1..N_ACCOUNTS);
        let mut to = rng.gen_range(1..N_ACCOUNTS - 1);
        if to >= from {
            to += 1;
        }
        Box::new(Transfer {
            table: self.table,
            from,
            to,
            amount: rng.gen_range(1..10),
        })
    }
}

fn total(db: &Database, t: TableId) -> i64 {
    (0..N_ACCOUNTS)
        .map(|id| db.table(t).get(id).unwrap().read_row().get_i64(1))
        .sum()
}

fn protocols() -> Vec<Arc<dyn Protocol>> {
    vec![
        Arc::new(LockingProtocol::bamboo()),
        Arc::new(LockingProtocol::bamboo_base()),
        Arc::new(LockingProtocol::wound_wait()),
        Arc::new(LockingProtocol::wait_die()),
        Arc::new(LockingProtocol::no_wait()),
        Arc::new(SiloProtocol::new()),
    ]
}

#[test]
fn money_conservation_under_heavy_hotspot_contention() {
    for proto in protocols() {
        let (db, t) = load();
        let wl: Arc<dyn Workload> = Arc::new(TransferWl { table: t });
        let res = run_bench(
            &db,
            &proto,
            &wl,
            &BenchConfig::quick(4)
                .with_duration(Duration::from_millis(300))
                .with_warmup(Duration::from_millis(30))
                .with_seed(17),
        );
        assert_eq!(
            res.wait_timeouts(),
            0,
            "{} fired a wait backstop",
            res.protocol
        );
        assert!(res.totals.commits > 0, "{} made no progress", res.protocol);
        // Conservation: fees (+1 per commit into account 0) are balanced by
        // the −1 on `from`, so total stays fixed.
        assert_eq!(
            total(&db, t),
            N_ACCOUNTS as i64 * INITIAL,
            "{} violated conservation",
            res.protocol
        );
        // Fee counter equals at least measured commits (warmup commits
        // also counted): checks lost-update freedom on the hotspot.
        let fees = db.table(t).get(0).unwrap().read_row().get_i64(1) - INITIAL;
        assert!(
            fees >= res.totals.commits as i64,
            "{}: fee counter {fees} < commits {}",
            res.protocol,
            res.totals.commits
        );
    }
}

#[test]
fn read_your_own_writes_and_repeatable_reads() {
    for proto in protocols() {
        let (db, t) = load();
        let session = Session::new(Arc::clone(&db), Arc::clone(&proto));
        let mut txn = session.begin();
        let first = txn.read(t, 5).unwrap().get_i64(1);
        txn.update(t, 5, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v * 2));
        })
        .unwrap();
        let second = txn.read(t, 5).unwrap().get_i64(1);
        assert_eq!(second, first * 2, "{} broke read-your-writes", proto.name());
        // Re-reading an untouched key yields the same value (local copy).
        let a = txn.read(t, 7).unwrap().get_i64(1);
        let b = txn.read(t, 7).unwrap().get_i64(1);
        assert_eq!(a, b);
        txn.commit().unwrap();
    }
}

#[test]
fn bamboo_dirty_reads_never_surface_aborted_data_to_committers() {
    // W writes 999 and retires; R reads it; W aborts. R must not commit.
    let (db, t) = load();
    let session = Session::new(
        Arc::clone(&db),
        Arc::new(LockingProtocol::bamboo_base()) as Arc<dyn Protocol>,
    );
    for _ in 0..50 {
        let mut w = session.begin();
        w.update(t, 3, |row| row.set(1, Value::I64(999))).unwrap();
        let mut r = session.begin();
        let seen = r.read(t, 3).unwrap().get_i64(1);
        assert_eq!(seen, 999, "dirty read must be visible");
        w.abort();
        assert!(
            r.commit().is_err(),
            "reader of aborted dirty data must not commit"
        );
        assert_eq!(
            db.table(t).get(3).unwrap().read_row().get_i64(1),
            INITIAL,
            "aborted write leaked into the committed image"
        );
    }
}

#[test]
fn commit_point_order_follows_dependency_order() {
    // Writers pipeline through retire; their installs must respect the
    // version order — final value equals the last committer's.
    let (db, t) = load();
    let session = Session::new(
        Arc::clone(&db),
        Arc::new(LockingProtocol::bamboo_base()) as Arc<dyn Protocol>,
    );
    let mut txns = Vec::new();
    for _ in 0..8 {
        let mut c = session.begin();
        c.update(t, 9, |row| {
            let v = row.get_i64(1);
            row.set(1, Value::I64(v + 1));
        })
        .unwrap();
        txns.push(c);
    }
    // All eight stacked dirty versions: every writer except the head holds
    // exactly one pending dependency on this tuple.
    for (i, c) in txns.iter().enumerate() {
        assert_eq!(
            c.shared().semaphore(),
            i64::from(i > 0),
            "writer {i} must depend exactly on its predecessor chain"
        );
    }
    for c in txns {
        c.commit().unwrap();
    }
    assert_eq!(
        db.table(t).get(9).unwrap().read_row().get_i64(1),
        INITIAL + 8
    );
}

#[test]
fn wound_wait_prioritizes_older_transactions() {
    let (db, t) = load();
    let session = Session::new(
        Arc::clone(&db),
        Arc::new(LockingProtocol::wound_wait()) as Arc<dyn Protocol>,
    );
    let old = session.begin();
    let mut young = session.begin();
    // Young takes the lock first.
    young.update(t, 2, |row| row.set(1, Value::I64(1))).unwrap();
    // Old requests it: young must be wounded.
    std::thread::scope(|s| {
        let h = s.spawn(move || {
            let mut old = old;
            old.update(t, 2, |row| row.set(1, Value::I64(2))).unwrap();
            old.commit().unwrap();
        });
        // Give the old transaction time to wound.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            young.shared().is_aborted(),
            "younger holder must be wounded"
        );
        young.abort();
        h.join().unwrap();
    });
    assert_eq!(db.table(t).get(2).unwrap().read_row().get_i64(1), 2);
}
