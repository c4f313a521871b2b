//! Property-based tests (proptest) on the core invariants:
//!
//! * lock-entry structural invariants under arbitrary operation sequences;
//! * conservation under random concurrent transfer mixes per protocol;
//! * retire-point analysis safety (never retire before a later same-tuple
//!   write on the executed path);
//! * zipfian sampler bounds.

use std::sync::Arc;

use bamboo_repro::analysis::ir::{AccessMode, Expr, Program, Stmt};
use bamboo_repro::analysis::{insert_retire_points, run_program};
use bamboo_repro::core::lock::{Acquired, LockPolicy, LockVariant};
use bamboo_repro::core::protocol::{LockingProtocol, Protocol, SiloProtocol};
use bamboo_repro::core::ts::TsSource;
use bamboo_repro::core::txn::{LockMode, TxnShared};
use bamboo_repro::core::{Database, TupleCc};
use bamboo_repro::storage::{DataType, Row, Schema, TableId, Tuple, Value};
use bamboo_repro::workload::Zipfian;
use proptest::prelude::*;

fn mk_tuple() -> (bamboo_repro::storage::Table<TupleCc>, Arc<Tuple<TupleCc>>) {
    let table = bamboo_repro::storage::Table::new(
        "t",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    let tup = table.insert(0, Row::from(vec![Value::U64(0), Value::I64(0)]));
    (table, tup)
}

/// Ops the property test drives against a single lock entry.
#[derive(Clone, Debug)]
enum LockOp {
    Acquire {
        txn: usize,
        ex: bool,
    },
    Retire {
        txn: usize,
    },
    /// Second write after retiring, or SH→EX of a retired read.
    Reacquire {
        txn: usize,
    },
    /// SH→EX of a shared owner.
    Upgrade {
        txn: usize,
    },
    Release {
        txn: usize,
        commit: bool,
    },
    Wound {
        txn: usize,
    },
}

fn lock_op_strategy(n_txns: usize) -> impl Strategy<Value = LockOp> {
    prop_oneof![
        (0..n_txns, any::<bool>()).prop_map(|(txn, ex)| LockOp::Acquire { txn, ex }),
        (0..n_txns).prop_map(|txn| LockOp::Retire { txn }),
        (0..n_txns).prop_map(|txn| LockOp::Reacquire { txn }),
        (0..n_txns).prop_map(|txn| LockOp::Upgrade { txn }),
        (0..n_txns, any::<bool>()).prop_map(|(txn, commit)| LockOp::Release { txn, commit }),
        (0..n_txns).prop_map(|txn| LockOp::Wound { txn }),
    ]
}

/// What the test believes one transaction holds on the entry.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Held {
    Nothing,
    Waiting,
    Owner,
    Retired,
}

/// The visibility oracle, kept beside the entry: the images of the writers
/// currently retired, by writer priority, and the committed row. A grant
/// must hand out the newest retired image below the grantee's priority,
/// else the committed row.
struct Visible {
    dirty: Vec<((u64, u64), Row)>,
    committed: Row,
}

impl Visible {
    fn image_for(&self, prio: (u64, u64)) -> &Row {
        self.dirty
            .iter()
            .filter(|(p, _)| *p < prio)
            .max_by_key(|(p, _)| *p)
            .map_or(&self.committed, |(_, row)| row)
    }

    fn withdraw(&mut self, prio: (u64, u64)) {
        self.dirty.retain(|(p, _)| *p != prio);
    }
}

/// Drives one lock entry under `pol` through `ops`; after every step the
/// structural invariants must hold and semaphores must stay non-negative;
/// every granted image must be the one the visibility oracle names; under
/// Wait-Die no live waiter has an older, live, conflicting entry ahead of
/// it (a granted one, or a waiter queued before it); after releasing
/// everything the entry must be quiescent and all semaphores zero.
fn drive_lock_entry(pol: &LockPolicy, ops: &[LockOp]) {
    // Writes retire only on the Wound-Wait variant (Bamboo is Wound-Wait
    // plus retiring, §3.2.2); Wait-Die and No-Wait never see a retired
    // writer, as under `LockingProtocol`.
    let retires = pol.variant == LockVariant::WoundWait;
    let (_table, tup) = mk_tuple();
    let ts = TsSource::new();
    let txns: Vec<Arc<TxnShared>> = (0..6)
        .map(|i| TxnShared::new(i as u64 + 1, ts.assign()))
        .collect();
    let mut held = [Held::Nothing; 6];
    // `ex_mode[t]` records whether t's entry is exclusive (only EX entries
    // may retire); `rows[t]` keeps the granted image so retire can publish
    // it and a committing release can install it.
    let mut ex_mode = [false; 6];
    let mut rows: [Option<Row>; 6] = Default::default();
    let mut visible = Visible {
        dirty: Vec::new(),
        committed: tup.read_row(),
    };
    // Every retire publishes an image no other retire published.
    let mut stamp = 0i64;
    for op in ops {
        match *op {
            LockOp::Acquire { txn, ex } => {
                if held[txn] != Held::Nothing || txns[txn].is_aborted() {
                    continue;
                }
                let mode = if ex { LockMode::Ex } else { LockMode::Sh };
                let mut st = tup.meta.lock.lock();
                match st.acquire(&tup, pol, &txns[txn], mode, &ts) {
                    Acquired::Granted { retired, row } => {
                        assert_eq!(
                            &row,
                            visible.image_for(txns[txn].prio()),
                            "grant of txn {txn} handed out the wrong image"
                        );
                        held[txn] = if retired { Held::Retired } else { Held::Owner };
                        ex_mode[txn] = ex;
                        rows[txn] = Some(row);
                    }
                    Acquired::Wait => {
                        held[txn] = Held::Waiting;
                        ex_mode[txn] = ex;
                    }
                    Acquired::Die(_) => {}
                }
                st.assert_invariants();
            }
            LockOp::Retire { txn } => {
                // Only exclusive owners retire through LockState::retire;
                // skip wounded txns like a real worker would.
                if !retires || held[txn] != Held::Owner || !ex_mode[txn] || txns[txn].is_aborted() {
                    continue;
                }
                stamp += 1;
                let row = rows[txn].as_mut().expect("granted txn kept its row");
                row.set(1, Value::I64(stamp));
                visible.dirty.push((txns[txn].prio(), row.clone()));
                let mut st = tup.meta.lock.lock();
                st.retire(&txns[txn], row.clone(), pol);
                st.assert_invariants();
                held[txn] = Held::Retired;
            }
            LockOp::Reacquire { txn } => {
                if held[txn] != Held::Retired || txns[txn].is_aborted() {
                    continue;
                }
                let mut st = tup.meta.lock.lock();
                st.reacquire_ex(&txns[txn]);
                st.assert_invariants();
                drop(st);
                visible.withdraw(txns[txn].prio());
                held[txn] = Held::Owner;
                ex_mode[txn] = true;
            }
            LockOp::Upgrade { txn } => {
                if held[txn] != Held::Owner || ex_mode[txn] || txns[txn].is_aborted() {
                    continue;
                }
                let mut st = tup.meta.lock.lock();
                match st.try_upgrade(&txns[txn], pol) {
                    Acquired::Granted { .. } => ex_mode[txn] = true,
                    // The worker polls again after parking.
                    Acquired::Wait => {}
                    Acquired::Die(reason) => {
                        txns[txn].set_abort(reason);
                    }
                }
                st.assert_invariants();
            }
            LockOp::Release { txn, commit } => {
                if held[txn] == Held::Nothing {
                    continue;
                }
                let mut st = tup.meta.lock.lock();
                if held[txn] == Held::Waiting {
                    st.cancel_wait(&txns[txn], pol);
                } else {
                    let committed = commit && !txns[txn].is_aborted();
                    // Retired EX commits install their published version,
                    // mirroring the protocol's commit path.
                    let install = match (held[txn], committed, ex_mode[txn]) {
                        (Held::Retired, true, true) => rows[txn]
                            .as_ref()
                            .map(|r| bamboo_repro::core::lock::CommitInstall::untimed(&tup, r)),
                        _ => None,
                    };
                    if install.is_some() {
                        visible.committed = rows[txn].clone().expect("installing txn kept its row");
                    }
                    st.release(&txns[txn], pol, committed, install);
                    assert_eq!(tup.read_row(), visible.committed, "committed row");
                }
                st.assert_invariants();
                visible.withdraw(txns[txn].prio());
                held[txn] = Held::Nothing;
                rows[txn] = None;
            }
            LockOp::Wound { txn } => {
                txns[txn].set_abort(bamboo_repro::core::AbortReason::Wounded);
            }
        }
        // A parked waiter polls `check_granted`; a promotion hands it its
        // image the same way a direct grant does.
        let st = tup.meta.lock.lock();
        for (t, txn) in txns.iter().enumerate() {
            if held[t] != Held::Waiting {
                continue;
            }
            if let Some((row, retired)) = st.check_granted(&tup, txn) {
                assert_eq!(
                    &row,
                    visible.image_for(txn.prio()),
                    "promotion of txn {t} handed out the wrong image"
                );
                held[t] = if retired { Held::Retired } else { Held::Owner };
                rows[t] = Some(row);
            }
        }
        assert_eq!(
            st.versions_len(),
            visible.dirty.len(),
            "one version per retired writer"
        );
        drop(st);
        if pol.variant == LockVariant::WaitDie {
            let live =
                |t: usize, states: &[Held]| states.contains(&held[t]) && !txns[t].is_aborted();
            for w in (0..6).filter(|&w| live(w, &[Held::Waiting])) {
                let ahead = (0..6).find(|&t| {
                    live(t, &[Held::Waiting, Held::Owner, Held::Retired])
                        && txns[t].prio() < txns[w].prio()
                        && (ex_mode[t] || ex_mode[w])
                });
                prop_assert!(
                    ahead.is_none(),
                    "wait-die: txn {w} waits behind the older txn {ahead:?}"
                );
            }
        }
        // Semaphores never go negative.
        for t in &txns {
            prop_assert!(t.semaphore() >= 0, "negative semaphore");
        }
    }
    // Drain: release everything still held.
    for (i, t) in txns.iter().enumerate() {
        let mut st = tup.meta.lock.lock();
        if held[i] == Held::Waiting {
            st.cancel_wait(t, pol);
        } else if held[i] != Held::Nothing {
            st.release(t, pol, false, None);
        }
        st.assert_invariants();
    }
    let st = tup.meta.lock.lock();
    prop_assert!(st.is_quiescent(), "entry must drain to quiescence");
    drop(st);
    for t in &txns {
        prop_assert_eq!(t.semaphore(), 0, "semaphore must return to zero");
    }
}

// Default config: `PROPTEST_CASES` scales this one (CI's `check` job runs it
// at 512); the properties below spin up worker threads per case and stay at
// their explicit count.
proptest! {
    /// Drive a single lock entry through arbitrary acquire / retire /
    /// reacquire / upgrade / release sequences, once under each of the four
    /// lock-table presets.
    #[test]
    fn lock_entry_invariants_hold_under_random_ops(
        ops in proptest::collection::vec(lock_op_strategy(6), 1..60),
    ) {
        for pol in [
            LockPolicy::bamboo(),
            LockPolicy::wound_wait(),
            LockPolicy::wait_die(),
            LockPolicy::no_wait(),
        ] {
            drive_lock_entry(&pol, &ops);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random concurrent transfer mixes conserve the total balance under
    /// Bamboo and Silo.
    #[test]
    fn random_transfers_conserve_balance(seed in any::<u64>()) {
        use bamboo_repro::core::executor::{run_bench, BenchConfig, TxnSpec, Workload};
        use bamboo_repro::core::{Abort, Txn};
        use rand::rngs::SmallRng;
        use rand::Rng;

        const N: u64 = 16;
        struct Spec { t: TableId, a: u64, b: u64 }
        impl TxnSpec for Spec {
            fn planned_ops(&self) -> Option<usize> { Some(2) }
            fn run_piece(&self, _p: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
                txn.update(self.t, self.a, |r| {
                    let v = r.get_i64(1);
                    r.set(1, Value::I64(v - 1));
                })?;
                txn.update(self.t, self.b, |r| {
                    let v = r.get_i64(1);
                    r.set(1, Value::I64(v + 1));
                })
            }
        }
        struct Wl { t: TableId }
        impl Workload for Wl {
            fn name(&self) -> &str { "prop-transfer" }
            fn generate(&self, _w: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
                let a = rng.gen_range(0..N);
                let mut b = rng.gen_range(0..N - 1);
                if b >= a { b += 1; }
                Box::new(Spec { t: self.t, a, b })
            }
        }

        for proto in [
            Arc::new(LockingProtocol::bamboo()) as Arc<dyn Protocol>,
            Arc::new(SiloProtocol::new()) as Arc<dyn Protocol>,
        ] {
            let mut b = Database::builder();
            let t = b.add_table(
                "a",
                Schema::build().column("k", DataType::U64).column("v", DataType::I64),
            );
            let db = b.build();
            for k in 0..N {
                db.table(t).insert(k, Row::from(vec![Value::U64(k), Value::I64(100)]));
            }
            let wl: Arc<dyn Workload> = Arc::new(Wl { t });
            let res = run_bench(
                &db,
                &proto,
                &wl,
                &BenchConfig::quick(2)
                    .with_duration(std::time::Duration::from_millis(50))
                    .with_warmup(std::time::Duration::from_millis(5))
                    .with_seed(seed),
            );
            prop_assert_eq!(res.wait_timeouts(), 0, "{} fired a wait backstop", res.protocol);
            let total: i64 = (0..N)
                .map(|k| db.table(t).get(k).unwrap().read_row().get_i64(1))
                .sum();
            prop_assert_eq!(total, N as i64 * 100);
        }
    }

    /// Zipfian samples stay in range and rank 0 dominates for skewed θ.
    #[test]
    fn zipfian_bounds(n in 1u64..10_000, theta in 0.0f64..0.99) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let z = Zipfian::new(n, theta);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// The retire-point analysis never triggers a second write to an
    /// already-retired access on the executed path, for the Listing-1
    /// program shape over arbitrary parameters.
    #[test]
    fn analysis_is_safe_for_conditional_reaccess(cond in 0u64..2, key2 in 0u64..8) {
        let program = Program {
            params: 2,
            stmts: vec![
                Stmt::Access {
                    id: 0,
                    table: TableId(0),
                    key: Expr::Const(5),
                    mode: AccessMode::Write,
                },
                Stmt::Let { var: "k2".into(), expr: Expr::Param(1) },
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
        let mut b = Database::builder();
        let t = b.add_table(
            "t",
            Schema::build().column("k", DataType::U64).column("v", DataType::I64),
        );
        prop_assert_eq!(t, TableId(0));
        let db = b.build();
        for k in 0..8u64 {
            db.table(t).insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
        }
        let mut proto = LockingProtocol::bamboo_base();
        proto.retire_writes = false;
        let session = bamboo_repro::core::Session::new(Arc::clone(&db), Arc::new(proto));
        let mut txn = session.begin();
        let stats = run_program(&mut txn, &analysed.program, &[cond, key2]).unwrap();
        txn.commit().unwrap();
        prop_assert_eq!(stats.reacquires, 0, "retire must never precede a same-tuple write");
        // And the retire must actually fire whenever it is safe.
        if cond == 0 || key2 != 5 {
            prop_assert!(stats.retires >= 1, "safe retire skipped");
        }
    }
}
