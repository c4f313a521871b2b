//! Property tests for the IC3 chopping algorithm and the §3.3 analysis
//! transform:
//!
//! * `chop` must reach a fixpoint with **no crossing C-edges** — the
//!   paper's deadlock-avoidance requirement — for arbitrary templates;
//! * the retire-point transformation must preserve program semantics: the
//!   transformed program leaves the database in exactly the state the
//!   original does.

use bamboo_repro::analysis::ir::{AccessMode, Expr, Program, Stmt};
use bamboo_repro::analysis::{insert_retire_points, run_program};
use bamboo_repro::core::protocol::ic3::{chop, PieceAccess, PieceDecl, TemplateDecl};
use bamboo_repro::core::protocol::LockingProtocol;
use bamboo_repro::core::{Database, Session};
use bamboo_repro::storage::{DataType, Row, Schema, TableId, Value};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// chop() fixpoint property
// ---------------------------------------------------------------------

fn arb_access() -> impl Strategy<Value = PieceAccess> {
    (0u32..3, 0u64..4, 0u64..4, any::<bool>()).prop_map(|(table, r, w, writes)| {
        let read_cols = 1 << r;
        let write_cols = if writes { 1 << w } else { 0 };
        PieceAccess::write(TableId(table), read_cols | write_cols, write_cols)
    })
}

fn arb_template(idx: usize) -> impl Strategy<Value = TemplateDecl> {
    proptest::collection::vec(
        proptest::collection::vec(arb_access(), 1..3).prop_map(PieceDecl::new),
        1..5,
    )
    .prop_map(move |pieces| TemplateDecl {
        name: format!("t{idx}"),
        pieces,
    })
}

/// Conflict between the merged groups `ga` of template `s` and `gb` of `t`.
fn groups_conflict(
    templates: &[TemplateDecl],
    groups: &[Vec<usize>],
    s: usize,
    ga: usize,
    t: usize,
    gb: usize,
) -> bool {
    let a_accs = templates[s]
        .pieces
        .iter()
        .zip(&groups[s])
        .filter(|(_, g)| **g == ga)
        .flat_map(|(p, _)| p.accesses.iter());
    a_accs.into_iter().any(|a| {
        templates[t]
            .pieces
            .iter()
            .zip(&groups[t])
            .filter(|(_, g)| **g == gb)
            .flat_map(|(p, _)| p.accesses.iter())
            .any(|b| a.conflicts(b))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn chop_fixpoint_has_no_crossing_c_edges(
        t0 in arb_template(0),
        t1 in arb_template(1),
        t2 in arb_template(2),
    ) {
        let templates = vec![t0, t1, t2];
        let c = chop(&templates);
        // Group maps must be non-decreasing and dense.
        for (t, g) in c.groups.iter().enumerate() {
            prop_assert_eq!(g.len(), templates[t].pieces.len());
            for w in g.windows(2) {
                prop_assert!(w[1] == w[0] || w[1] == w[0] + 1, "groups not contiguous");
            }
            prop_assert_eq!(g.last().copied().map(|x| x + 1).unwrap_or(0), c.n_groups[t]);
        }
        // No crossing: for every template pair (incl. self), collect
        // conflicting group pairs and check monotonicity.
        for s in 0..templates.len() {
            for t in 0..templates.len() {
                let mut pairs = Vec::new();
                for ga in 0..c.n_groups[s] {
                    for gb in 0..c.n_groups[t] {
                        if groups_conflict(&templates, &c.groups, s, ga, t, gb) {
                            pairs.push((ga, gb));
                        }
                    }
                }
                for &(a1, b1) in &pairs {
                    for &(a2, b2) in &pairs {
                        prop_assert!(
                            !(a1 < a2 && b1 > b2),
                            "crossing C-edges survive: ({a1},{b1}) x ({a2},{b2}) \
                             between templates {s} and {t}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Analysis semantic preservation
// ---------------------------------------------------------------------

fn mk_db() -> std::sync::Arc<Database> {
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

fn exec(db: &Arc<Database>, program: &Program, params: &[u64]) {
    let mut proto = LockingProtocol::bamboo_base();
    proto.retire_writes = false;
    let session = Session::new(Arc::clone(db), Arc::new(proto));
    let mut txn = session.begin();
    run_program(&mut txn, program, params).unwrap();
    txn.commit().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Listing-3-shaped loops with arbitrary key functions: fissioned
    /// programs must produce identical final state to the originals.
    #[test]
    fn loop_fission_preserves_semantics(trip in 1u64..8, modulus in 1u64..8) {
        let program = Program {
            params: 0,
            stmts: vec![Stmt::For {
                var: "i".into(),
                count: Expr::Const(trip),
                body: vec![
                    Stmt::LetArr {
                        arr: "key".into(),
                        idx: Expr::var("i"),
                        expr: Expr::Mod(
                            Box::new(Expr::Mul(
                                Box::new(Expr::var("i")),
                                Box::new(Expr::Const(3)),
                            )),
                            Box::new(Expr::Const(modulus)),
                        ),
                    },
                    Stmt::Access {
                        id: 0,
                        table: TableId(0),
                        key: Expr::index("key", Expr::var("i")),
                        mode: AccessMode::Write,
                    },
                ],
            }],
        };
        let analysed = insert_retire_points(&program);
        let db_orig = mk_db();
        exec(&db_orig, &program, &[]);
        let db_fiss = mk_db();
        exec(&db_fiss, &analysed.program, &[]);
        prop_assert_eq!(snapshot(&db_orig), snapshot(&db_fiss));
    }

    /// Listing-1-shaped conditionals: the transformed program (hoisted key
    /// computation + RetireIf) computes the same final state.
    #[test]
    fn conditional_retire_preserves_semantics(cond in 0u64..2, input in 0u64..32) {
        let program = Program {
            params: 2,
            stmts: vec![
                Stmt::Access {
                    id: 0,
                    table: TableId(0),
                    key: Expr::Const(3),
                    mode: AccessMode::Write,
                },
                Stmt::Let {
                    var: "k2".into(),
                    expr: Expr::Mod(Box::new(Expr::Param(1)), Box::new(Expr::Const(16))),
                },
                Stmt::If {
                    cond: Expr::Param(0),
                    then_branch: vec![Stmt::Access {
                        id: 1,
                        table: TableId(0),
                        key: Expr::var("k2"),
                        mode: AccessMode::Write,
                    }],
                    else_branch: vec![],
                },
            ],
        };
        let analysed = insert_retire_points(&program);
        let db_orig = mk_db();
        exec(&db_orig, &program, &[cond, input]);
        let db_xform = mk_db();
        exec(&db_xform, &analysed.program, &[cond, input]);
        prop_assert_eq!(snapshot(&db_orig), snapshot(&db_xform));
    }
}
