//! Interpreter: executes an (analysed) IR program as one transaction
//! through the session's [`Txn`] API.
//!
//! Retiring happens at the synthesized [`Stmt::RetireIf`] points, through
//! [`Txn::retire`] — the §3.3 deployment model: the analysis inserts
//! `LockRetire()` calls into the program, the protocol obeys them. Run it
//! on a session whose writes never retire by themselves (a BAMBOO-base
//! [`bamboo_core::protocol::LockingProtocol`] with `retire_writes` off) and
//! those points are the only retires.

use std::collections::HashMap;

use bamboo_core::txn::AccessState;
use bamboo_core::{Abort, Txn};
use bamboo_storage::Value;

use crate::ir::{AccessMode, Expr, Program, Stmt};

/// Execution statistics of one interpreted transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Retire calls actually performed.
    pub retires: usize,
    /// Retire conditions evaluated false.
    pub retires_skipped: usize,
    /// Writes that hit an already-retired access (would trigger the
    /// §3.3 second-write abort path). A correct analysis keeps this at 0.
    pub reacquires: usize,
    /// Tuple accesses issued.
    pub accesses: usize,
}

/// Variable environment.
#[derive(Default)]
struct Env {
    params: Vec<u64>,
    scalars: HashMap<String, u64>,
    arrays: HashMap<String, Vec<u64>>,
}

impl Env {
    fn eval(&self, e: &Expr) -> u64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Param(i) => self.params[*i],
            Expr::Var(v) => *self
                .scalars
                .get(v)
                .unwrap_or_else(|| panic!("undefined variable {v:?}")),
            Expr::Index(arr, idx) => {
                let i = self.eval(idx) as usize;
                self.arrays
                    .get(arr)
                    .and_then(|a| a.get(i))
                    .copied()
                    .unwrap_or_else(|| panic!("undefined {arr}[{i}]"))
            }
            Expr::Add(a, b) => self.eval(a).wrapping_add(self.eval(b)),
            Expr::Mul(a, b) => self.eval(a).wrapping_mul(self.eval(b)),
            Expr::Mod(a, b) => self.eval(a) % self.eval(b),
            Expr::Eq(a, b) => (self.eval(a) == self.eval(b)) as u64,
            Expr::Ne(a, b) => (self.eval(a) != self.eval(b)) as u64,
            Expr::Lt(a, b) => (self.eval(a) < self.eval(b)) as u64,
            Expr::Not(a) => (self.eval(a) == 0) as u64,
            Expr::And(a, b) => (self.eval(a) != 0 && self.eval(b) != 0) as u64,
            Expr::Or(a, b) => (self.eval(a) != 0 || self.eval(b) != 0) as u64,
        }
    }
}

/// Runs `program` with `params` inside the open transaction `txn`. The
/// caller owns the transaction lifecycle ([`Txn::commit`]/[`Txn::abort`],
/// or RAII drop) so programs compose with the normal session flow; the
/// interpreter only issues accesses and the §3.3 retire calls.
pub fn run_program(
    txn: &mut Txn<'_>,
    program: &Program,
    params: &[u64],
) -> Result<RunStats, Abort> {
    assert_eq!(params.len(), program.params, "parameter arity mismatch");
    let mut env = Env {
        params: params.to_vec(),
        ..Default::default()
    };
    let mut stats = RunStats::default();
    exec_block(txn, &program.stmts, &mut env, &mut stats)?;
    Ok(stats)
}

fn exec_block(
    txn: &mut Txn<'_>,
    stmts: &[Stmt],
    env: &mut Env,
    stats: &mut RunStats,
) -> Result<(), Abort> {
    for s in stmts {
        match s {
            Stmt::Let { var, expr } => {
                let v = env.eval(expr);
                env.scalars.insert(var.clone(), v);
            }
            Stmt::LetArr { arr, idx, expr } => {
                let i = env.eval(idx) as usize;
                let v = env.eval(expr);
                let a = env.arrays.entry(arr.clone()).or_default();
                if a.len() <= i {
                    a.resize(i + 1, 0);
                }
                a[i] = v;
            }
            Stmt::Access {
                table, key, mode, ..
            } => {
                let k = env.eval(key);
                stats.accesses += 1;
                match mode {
                    AccessMode::Read => {
                        let row = txn.read(*table, k)?;
                        std::hint::black_box(row.get_i64(1));
                    }
                    AccessMode::Write => {
                        // Track would-be second writes: a correct analysis
                        // never retires a lock that is written again.
                        let ctx = txn.ctx();
                        if let Some(i) = ctx.find_access(*table, k) {
                            if ctx.accesses[i].state == AccessState::Retired {
                                stats.reacquires += 1;
                            }
                        }
                        txn.update(*table, k, |row| {
                            let v = row.get_i64(1);
                            row.set(1, Value::I64(v + 1));
                        })?;
                    }
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let branch = if env.eval(cond) != 0 {
                    then_branch
                } else {
                    else_branch
                };
                exec_block(txn, branch, env, stats)?;
            }
            Stmt::For { var, count, body } => {
                let n = env.eval(count);
                for i in 0..n {
                    env.scalars.insert(var.clone(), i);
                    exec_block(txn, body, env, stats)?;
                }
            }
            Stmt::RetireIf {
                table, key, cond, ..
            } => {
                if env.eval(cond) != 0 {
                    txn.retire(*table, env.eval(key));
                    stats.retires += 1;
                } else {
                    stats.retires_skipped += 1;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_core::protocol::LockingProtocol;
    use bamboo_core::{Database, Session};
    use bamboo_storage::{DataType, Row, Schema, TableId};
    use std::sync::Arc;

    fn setup(rows: u64) -> (Arc<Database>, Session) {
        let mut b = Database::builder();
        let t = b.add_table(
            "t",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        assert_eq!(t, TableId(0));
        let db = b.build();
        for k in 0..rows {
            db.table(t)
                .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
        }
        let mut proto = LockingProtocol::bamboo_base();
        proto.retire_writes = false;
        let session = Session::new(Arc::clone(&db), Arc::new(proto));
        (db, session)
    }

    #[test]
    fn straight_line_program_executes() {
        let (db, session) = setup(8);
        let mut txn = session.begin();
        let p = Program {
            params: 1,
            stmts: vec![
                Stmt::Let {
                    var: "k".into(),
                    expr: Expr::Param(0),
                },
                Stmt::Access {
                    id: 0,
                    table: TableId(0),
                    key: Expr::var("k"),
                    mode: AccessMode::Write,
                },
                Stmt::RetireIf {
                    site: 0,
                    table: TableId(0),
                    key: Expr::var("k"),
                    cond: Expr::Const(1),
                },
            ],
        };
        let stats = run_program(&mut txn, &p, &[3]).unwrap();
        assert_eq!(stats.retires, 1);
        assert_eq!(stats.reacquires, 0);
        txn.commit().unwrap();
        assert_eq!(
            db.table(TableId(0)).get(3).unwrap().read_row().get_i64(1),
            1
        );
    }

    #[test]
    fn loops_and_arrays_evaluate() {
        let (db, session) = setup(4);
        let mut txn = session.begin();
        let p = Program {
            params: 0,
            stmts: vec![Stmt::For {
                var: "i".into(),
                count: Expr::Const(4),
                body: vec![
                    Stmt::LetArr {
                        arr: "ks".into(),
                        idx: Expr::var("i"),
                        expr: Expr::var("i"),
                    },
                    Stmt::Access {
                        id: 0,
                        table: TableId(0),
                        key: Expr::index("ks", Expr::var("i")),
                        mode: AccessMode::Write,
                    },
                ],
            }],
        };
        let stats = run_program(&mut txn, &p, &[]).unwrap();
        assert_eq!(stats.accesses, 4);
        txn.commit().unwrap();
        for k in 0..4 {
            assert_eq!(
                db.table(TableId(0)).get(k).unwrap().read_row().get_i64(1),
                1
            );
        }
    }

    #[test]
    #[should_panic(expected = "undefined variable")]
    fn undefined_variable_panics() {
        let (_db, session) = setup(1);
        let mut txn = session.begin();
        let p = Program {
            params: 0,
            stmts: vec![Stmt::Let {
                var: "x".into(),
                expr: Expr::var("missing"),
            }],
        };
        let _ = run_program(&mut txn, &p, &[]);
    }
}
