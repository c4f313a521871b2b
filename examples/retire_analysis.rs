//! The §3.3 program analysis, end to end: take the paper's Listing 1 and
//! Listing 3 programs, run the retire-point analysis (synthesized
//! conditions, hoisting, loop fission), and execute the transformed
//! programs against a live database through Bamboo.
//!
//! ```text
//! cargo run --example retire_analysis
//! ```

use std::sync::Arc;

use bamboo_repro::analysis::ir::{AccessMode, Expr, Program, Stmt};
use bamboo_repro::analysis::{insert_retire_points, run_program, Decision};
use bamboo_repro::core::protocol::LockingProtocol;
use bamboo_repro::core::{Database, Session};
use bamboo_repro::storage::{DataType, Row, Schema, TableId, Value};

fn load() -> std::sync::Arc<Database> {
    let mut b = Database::builder();
    let t = b.add_table(
        "table1",
        Schema::build()
            .column("key", DataType::U64)
            .column("value", DataType::I64),
    );
    assert_eq!(t, TableId(0));
    let db = b.build();
    for k in 0..64u64 {
        db.table(t)
            .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    db
}

/// Listing 1: `op1(table1, tup1); ...; tup2.key = f(input); if (cond)
/// op2(table1, tup2)`.
fn listing1() -> Program {
    Program {
        params: 2, // params[0] = cond, params[1] = input
        stmts: vec![
            Stmt::Access {
                id: 0,
                table: TableId(0),
                key: Expr::Const(5),
                mode: AccessMode::Write,
            },
            Stmt::Let {
                var: "other_work".into(),
                expr: Expr::Const(0),
            },
            Stmt::Let {
                var: "tup2_key".into(),
                expr: Expr::Mod(Box::new(Expr::Param(1)), Box::new(Expr::Const(64))),
            },
            Stmt::If {
                cond: Expr::Param(0),
                then_branch: vec![Stmt::Access {
                    id: 1,
                    table: TableId(0),
                    key: Expr::var("tup2_key"),
                    mode: AccessMode::Write,
                }],
                else_branch: vec![],
            },
        ],
    }
}

/// Listing 3: `for i { key[i] = f(input2[i]); access(table, key[i]) }` with
/// deliberately colliding keys so the `can_retire` scan matters.
fn listing3() -> Program {
    Program {
        params: 0,
        stmts: vec![Stmt::For {
            var: "i".into(),
            count: Expr::Const(6),
            body: vec![
                Stmt::LetArr {
                    arr: "key".into(),
                    idx: Expr::var("i"),
                    // keys: 0,1,2,0,1,2 — each key written twice.
                    expr: Expr::Mod(Box::new(Expr::var("i")), Box::new(Expr::Const(3))),
                },
                Stmt::Access {
                    id: 0,
                    table: TableId(0),
                    key: Expr::index("key", Expr::var("i")),
                    mode: AccessMode::Write,
                },
            ],
        }],
    }
}

fn main() {
    let db = load();
    // BAMBOO-base whose writes never retire by themselves: the program's
    // `Txn::retire` calls are the only retires.
    let mut proto = LockingProtocol::bamboo_base();
    proto.retire_writes = false;
    let session = Session::new(Arc::clone(&db), Arc::new(proto));

    println!("--- Listing 1 → Listing 2 (synthesized retire condition) ---");
    let a1 = insert_retire_points(&listing1());
    for r in &a1.report {
        println!("site {} → {:?}", r.site, r.decision);
    }
    assert_eq!(a1.report[0].decision, Decision::Conditional);
    // cond = true but keys differ (param1 % 64 = 9 ≠ 5): retire fires.
    let mut txn = session.begin();
    let stats = run_program(&mut txn, &a1.program, &[1, 9]).unwrap();
    txn.commit().unwrap();
    println!(
        "run(cond=1, key=9): retires={} skipped={}",
        stats.retires, stats.retires_skipped
    );
    assert_eq!(stats.retires, 2); // op1's conditional + op2's immediate
                                  // cond = true and keys EQUAL: retire of op1 must be skipped.
    let mut txn = session.begin();
    let stats = run_program(&mut txn, &a1.program, &[1, 5]).unwrap();
    txn.commit().unwrap();
    println!(
        "run(cond=1, key=5): retires={} skipped={}",
        stats.retires, stats.retires_skipped
    );
    assert_eq!(stats.retires_skipped, 1);
    assert_eq!(stats.reacquires, 0, "analysis never retires unsafely");

    println!("\n--- Listing 3 → Listing 4 (loop fission + can_retire) ---");
    let a3 = insert_retire_points(&listing3());
    for r in &a3.report {
        println!("site {} → {:?}", r.site, r.decision);
    }
    assert_eq!(a3.report[0].decision, Decision::LoopFission);
    let mut txn = session.begin();
    let stats = run_program(&mut txn, &a3.program, &[]).unwrap();
    txn.commit().unwrap();
    println!(
        "run: accesses={} retires={} skipped={} reacquires={}",
        stats.accesses, stats.retires, stats.retires_skipped, stats.reacquires
    );
    // Keys 0,1,2 appear at iterations 0..2 (later duplicates exist → skip)
    // and again at iterations 3..5 (last occurrence → retire).
    assert_eq!(stats.retires, 3);
    assert_eq!(stats.retires_skipped, 3);
    assert_eq!(stats.reacquires, 0, "duplicates were held, not retired");
    println!("\nanalysis-guided retiring matched the paper's Listings 2/4 ✓");
}
