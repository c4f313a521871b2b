//! Quickstart: open a database, run transactions under Bamboo through the
//! `Session`/`Txn` API, observe a dirty read pipelined through the
//! `retired` list.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! ## The API in one look
//!
//! Before (the raw protocol surface — what protocol *implementors* see):
//!
//! ```text
//! let mut ctx = protocol.begin(&database, &opts);   // thread three handles
//! protocol.update(&database, &mut ctx, t, 0, &mut |r| …)?;  // everywhere,
//! protocol.commit(&database, &mut ctx, &wal)?;      // and on any Err you
//! // …must remember: protocol.abort(&database, &mut ctx), exactly once.
//! ```
//!
//! After (the session layer — what users write):
//!
//! ```text
//! let session = Session::new(db, Arc::new(LockingProtocol::bamboo()));
//! let mut txn = session.begin();
//! txn.update(t, 0, |r| …)?;
//! txn.commit()?;            // or drop(txn): aborts exactly once, always
//! ```

use std::sync::Arc;

use bamboo_repro::core::protocol::LockingProtocol;
use bamboo_repro::core::{Database, Session};
use bamboo_repro::storage::{DataType, Row, Schema, Value};

fn main() {
    // 1. Define a table and load some rows.
    let mut builder = Database::builder();
    let accounts = builder.add_table(
        "accounts",
        Schema::build()
            .column("id", DataType::U64)
            .column("balance", DataType::I64),
    );
    let db = builder.build();
    for id in 0..10u64 {
        db.table(accounts)
            .insert(id, Row::from(vec![Value::U64(id), Value::I64(100)]));
    }

    // 2. Open a session: one database + one protocol. `bamboo()` enables
    //    every optimization from the paper; `wound_wait()`, `wait_die()`,
    //    `no_wait()` are the 2PL baselines, `SiloProtocol`/`Ic3Protocol`
    //    the others — the session API is identical for all of them.
    let session = Session::new(Arc::clone(&db), Arc::new(LockingProtocol::bamboo()));

    // 3. A read-modify-write transaction. `Txn` is an RAII guard: if this
    //    function returned early (or panicked) before `commit`, the drop
    //    would abort the attempt and release its locks — exactly once.
    let mut t1 = session.begin();
    t1.update(accounts, 0, |row| {
        let v = row.get_i64(1);
        row.set(1, Value::I64(v - 30));
    })
    .expect("no conflicts yet");

    // T1 has not committed, but its write is already *retired*: a second
    // transaction reads the dirty value instead of blocking — the paper's
    // Figure 1c schedule.
    let mut t2 = session.begin();
    let dirty = t2
        .read(accounts, 0)
        .expect("dirty read via the retired list")
        .get_i64(1);
    println!("T2 sees T1's uncommitted balance: {dirty} (expected 70)");
    println!(
        "T2 commit_semaphore = {} (depends on T1)",
        t2.shared().semaphore()
    );

    // 4. Commits must follow the dependency order: T1 first, then T2.
    //    `commit` consumes the guard; on failure it aborts internally, so
    //    no cleanup is ever owed.
    t1.commit().expect("T1 commits");
    t2.commit().expect("T2 commits after T1");

    let final_balance = db.table(accounts).get(0).unwrap().read_row().get_i64(1);
    println!("final balance of account 0: {final_balance}");
    println!(
        "wal records: {}, bytes: {}",
        session.log_records(),
        session.log_bytes()
    );
    assert_eq!(final_balance, 70);

    // 5. The RAII contract, live: an abandoned transaction aborts on drop
    //    and a follow-up on the same key proceeds immediately.
    {
        let mut abandoned = session.begin();
        abandoned
            .update(accounts, 0, |row| row.set(1, Value::I64(-1)))
            .unwrap();
        // No commit, no abort — the drop below releases the lock.
    }
    let mut t3 = session.begin();
    let clean = t3.read(accounts, 0).unwrap().get_i64(1);
    t3.commit().unwrap();
    println!("after abandoned txn dropped: balance still {clean}");
    assert_eq!(clean, 70, "abandoned write must have rolled back");
}
