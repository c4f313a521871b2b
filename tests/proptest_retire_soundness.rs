//! Property test for the §3.3 retire-point analysis: **soundness**.
//!
//! For random IR programs — straight-line accesses, data-dependent
//! conditionals, fixed-trip loops over computed key arrays —
//! `insert_retire_points` must never retire a lock *before* the access's
//! final write. The interpreter is the oracle: it runs the analysed
//! program through a session whose writes retire only at explicit
//! `Txn::retire` calls and counts writes that hit an already-retired access
//! ([`RunStats::reacquires`]); a sound analysis keeps that count at 0 on
//! every execution path. A second oracle re-runs the *original* program
//! on a fresh database and compares final states, so the transformation
//! also preserves semantics on the same inputs.

use bamboo_repro::analysis::ir::{AccessMode, Expr, Program, Stmt};
use bamboo_repro::analysis::{insert_retire_points, run_program, RunStats};
use bamboo_repro::core::protocol::LockingProtocol;
use bamboo_repro::core::{Database, Session};
use bamboo_repro::storage::{DataType, Row, Schema, TableId, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn mk_db() -> Arc<Database> {
    let mut b = Database::builder();
    let t = b.add_table(
        "t",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    assert_eq!(t, TableId(0));
    let db = b.build();
    for k in 0..16u64 {
        db.table(t)
            .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    db
}

fn snapshot(db: &Database) -> Vec<i64> {
    (0..16)
        .map(|k| db.table(TableId(0)).get(k).unwrap().read_row().get_i64(1))
        .collect()
}

/// Runs `program` as one committed transaction, returning its stats.
/// Explicit-retire configuration: BAMBOO-base with `retire_writes` off, so
/// the session's writes never retire by themselves, and the protocol's
/// eager read placements are disabled too — `retire_reads` and
/// Optimization 3 (`no_raw_abort`, which slots readers straight into
/// `retired`) both off. The *only* retires left are the synthesized
/// `RetireIf` points, issued through `Txn::retire`, so
/// `RunStats::reacquires` counts exactly the analysis's premature retires
/// — the §3.3 deployment model the soundness property is about.
fn exec(db: &Arc<Database>, program: &Program, params: &[u64]) -> RunStats {
    let mut proto = LockingProtocol::bamboo_base();
    proto.retire_writes = false;
    proto.policy.retire_reads = false;
    proto.policy.no_raw_abort = false;
    let session = Session::new(Arc::clone(db), Arc::new(proto));
    let mut txn = session.begin();
    let stats = run_program(&mut txn, program, params).unwrap();
    txn.commit().unwrap();
    stats
}

// ---------------------------------------------------------------------
// Random-program strategy. Keys stay in 0..16 (the loaded table); the
// scalars `a` and `b` are defined in a prologue from the two params, so
// every generated expression is closed. Access ids are assigned by a
// renumbering pass after generation (the analysis requires unique sites).
// ---------------------------------------------------------------------

fn key_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0u64..16).prop_map(Expr::Const),
        Just(Expr::var("a")),
        Just(Expr::var("b")),
        (1u64..16).prop_map(|c| Expr::Mod(
            Box::new(Expr::Add(
                Box::new(Expr::var("a")),
                Box::new(Expr::Const(c)),
            )),
            Box::new(Expr::Const(16)),
        )),
    ]
}

fn access() -> impl Strategy<Value = Stmt> {
    let mode = prop_oneof![Just(AccessMode::Read), Just(AccessMode::Write)];
    (key_expr(), mode).prop_map(|(key, mode)| Stmt::Access {
        id: 0, // renumbered below
        table: TableId(0),
        key,
        mode,
    })
}

fn cond_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0u64..2).prop_map(|c| Expr::eq(Expr::Param(0), Expr::Const(c))),
        Just(Expr::Lt(Box::new(Expr::var("a")), Box::new(Expr::var("b")),)),
        Just(Expr::ne(Expr::var("a"), Expr::var("b"))),
    ]
}

fn if_stmt() -> impl Strategy<Value = Stmt> {
    (
        cond_expr(),
        proptest::collection::vec(access(), 1..3),
        proptest::collection::vec(access(), 0..3),
    )
        .prop_map(|(cond, then_branch, else_branch)| Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
}

/// Listing-3-shaped loop: compute `keys[i]` then write it.
fn for_stmt() -> impl Strategy<Value = Stmt> {
    (1u64..4, 1u64..8, 0u64..16).prop_map(|(trip, stride, off)| Stmt::For {
        var: "i".into(),
        count: Expr::Const(trip),
        body: vec![
            Stmt::LetArr {
                arr: "keys".into(),
                idx: Expr::var("i"),
                expr: Expr::Mod(
                    Box::new(Expr::Add(
                        Box::new(Expr::Mul(
                            Box::new(Expr::var("i")),
                            Box::new(Expr::Const(stride)),
                        )),
                        Box::new(Expr::Const(off)),
                    )),
                    Box::new(Expr::Const(16)),
                ),
            },
            Stmt::Access {
                id: 0, // renumbered below
                table: TableId(0),
                key: Expr::index("keys", Expr::var("i")),
                mode: AccessMode::Write,
            },
        ],
    })
}

fn renumber(stmts: &mut [Stmt], next: &mut usize) {
    for s in stmts {
        match s {
            Stmt::Access { id, .. } => {
                *id = *next;
                *next += 1;
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                renumber(then_branch, next);
                renumber(else_branch, next);
            }
            Stmt::For { body, .. } => renumber(body, next),
            _ => {}
        }
    }
}

fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(prop_oneof![access(), access(), if_stmt(), for_stmt()], 1..6)
        .prop_map(|body| {
            let mut stmts = vec![
                Stmt::Let {
                    var: "a".into(),
                    expr: Expr::Mod(Box::new(Expr::Param(0)), Box::new(Expr::Const(16))),
                },
                Stmt::Let {
                    var: "b".into(),
                    expr: Expr::Mod(Box::new(Expr::Param(1)), Box::new(Expr::Const(16))),
                },
            ];
            stmts.extend(body);
            let mut next = 0;
            renumber(&mut stmts, &mut next);
            Program { params: 2, stmts }
        })
}

// Default config: `PROPTEST_CASES` scales it (CI's `check` job runs 512).
proptest! {
    #[test]
    fn retire_points_never_precede_final_write(
        program in arb_program(),
        p0 in 0u64..32,
        p1 in 0u64..32,
    ) {
        let analysed = insert_retire_points(&program);
        let db = mk_db();
        let stats = exec(&db, &analysed.program, &[p0, p1]);
        prop_assert_eq!(
            stats.reacquires, 0,
            "analysis retired a lock before the site's final write \
             (program: {:?}, report: {:?})",
            program, analysed.report
        );
        // Semantic preservation on the same inputs: the analysed program
        // leaves the database in exactly the state the original does.
        let db_orig = mk_db();
        exec(&db_orig, &program, &[p0, p1]);
        prop_assert_eq!(snapshot(&db_orig), snapshot(&db));
    }
}
