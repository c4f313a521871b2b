//! IC3 — the state-of-the-art transaction-chopping baseline (paper §2.2,
//! compared against Bamboo in §5.6 / Figure 11).
//!
//! IC3 decomposes each registered transaction template into pieces and
//! makes a piece's updates visible as soon as the piece finishes. Static
//! column-level analysis (our [`graph::chop`]) merges pieces whose conflict
//! edges would cross; at runtime, per-tuple accessor lists track which
//! uncommitted transaction touched a tuple in which piece, and a piece
//! accessing the tuple waits only until the *conflicting piece* of its
//! predecessors has finished — not until their commit. Commits are ordered
//! along the recorded dependencies.
//!
//! Substitutions versus the original system: IC3 analyses
//! stored-procedure source code; our templates declare their per-piece
//! column access sets explicitly, which is the same information. Optimistic
//! piece execution validates at piece end and, on failure, aborts the
//! attempt (the original re-executes just the piece; modelling that as a
//! transaction retry preserves "optimistic execution induces more aborts",
//! which is the behaviour Figure 11d reports).

mod graph;

use crate::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bamboo_storage::{Row, TableId, Tuple};
use parking_lot::Mutex;

pub use graph::{chop, group_accesses, Chopping, PieceAccess, PieceDecl, TemplateDecl};

use crate::db::Database;
use crate::meta::TupleCc;
use crate::protocol::Protocol;
use crate::session::TxnOptions;
use crate::txn::{
    Abort, AbortReason, Access, AccessState, LockMode, Pacing, TxnCtx, WaitSite, WaitTimer,
};
use crate::wal::WalBuffer;

/// A piece-level wait. Nothing notifies a `pieces_done` bump, so it yields
/// between polls. Piece waits are normally microseconds — the ceiling is a
/// liveness backstop, not a tuning knob; see [`staggered`].
const PIECE_WAIT: WaitSite = WaitSite {
    timer: WaitTimer::Lock,
    timeout: Duration::from_millis(50),
    on_timeout: AbortReason::Ic3Validation,
    pacing: Pacing::Yield,
};

/// The commit-order wait. Nothing notifies it: a dependency's
/// `mark_released` notifies the *releaser's own* handle, on which no
/// dependent waits, so this wait ends only by the seam's `PARK_TIMEOUT`
/// re-poll (or by a wound/cascade delivered to our own handle, which is
/// why it parks rather than yields).
const DEP_WAIT: WaitSite = WaitSite {
    timer: WaitTimer::Commit,
    timeout: Duration::from_millis(100),
    on_timeout: AbortReason::Ic3Validation,
    pacing: Pacing::Park,
};

/// `site` with its ceiling staggered per transaction id, so that if an
/// unforeseen wait cycle ever forms, one participant times out first and
/// the rest proceed.
fn staggered(site: WaitSite, id: u64) -> WaitSite {
    WaitSite {
        timeout: site.timeout + Duration::from_millis((id % 16) * 5),
        ..site
    }
}

/// One entry in a tuple's accessor list.
pub struct Ic3Accessor {
    txn: Arc<crate::txn::TxnShared>,
    template: u32,
    group: u32,
    read_cols: u64,
    write_cols: u64,
}

/// One published piece write: the writer, its local image, and the mask of
/// columns it actually owns. Masked composition keeps column-disjoint
/// writers from clobbering each other — IC3's whole point is that they
/// never conflict. The writer handle lets readers skip versions of writers
/// already marked aborted (their release, which withdraws the version and
/// cascades, may still be in flight on the owning thread).
struct Ic3Version {
    txn: Arc<crate::txn::TxnShared>,
    row: Row,
    write_cols: u64,
}

/// Per-tuple IC3 state: the accessor list plus the chain of published
/// piece writes (uncommitted versions, newest last).
#[derive(Default)]
pub struct Ic3TupleState {
    accessors: Vec<Ic3Accessor>,
    versions: Vec<Ic3Version>,
    /// Bumped on every commit install; part of the optimistic validation
    /// token (a committed-and-installed predecessor empties the chain, so
    /// the tail id alone cannot detect it).
    install_seq: u64,
}

/// Copies the columns in `mask` from `src` over `dst`.
fn apply_masked(dst: &mut Row, src: &Row, mask: u64) {
    for c in 0..dst.len().min(64) {
        if mask & (1 << c) != 0 {
            dst.set(c, src.get(c).clone());
        }
    }
}

impl Ic3TupleState {
    /// Latest visible image: committed row with every published piece
    /// write applied column-masked in chain order, skipping versions whose
    /// writer is already marked aborted. Returns the id of the chain tail
    /// (0 = committed base) as the validation token.
    fn visible(&self, tuple: &Tuple<TupleCc>) -> (u64, u64, Row) {
        let mut row = tuple.read_row();
        let mut tail = 0;
        for v in &self.versions {
            if v.txn.is_aborted() {
                continue;
            }
            apply_masked(&mut row, &v.row, v.write_cols);
            tail = v.txn.id;
        }
        (tail, self.install_seq, row)
    }

    /// True when no transaction is registered on the tuple (tests).
    pub fn is_quiescent(&self) -> bool {
        self.accessors.is_empty() && self.versions.is_empty()
    }
}

#[inline]
fn masks_conflict(my_r: u64, my_w: u64, other_r: u64, other_w: u64) -> bool {
    (my_w & (other_r | other_w)) | (other_w & (my_r | my_w)) != 0
}

/// The IC3 protocol.
pub struct Ic3Protocol {
    templates: Vec<TemplateDecl>,
    chopping: Chopping,
    /// Per template: `(table, group, read mask, write mask)` of every
    /// declared access, used by the order-preservation waits.
    group_tables: Vec<Vec<(TableId, usize, u64, u64)>>,
    optimistic: bool,
    name: String,
}

impl Ic3Protocol {
    /// Builds the protocol from the full workload's templates — IC3
    /// "requires the knowledge of the entire workload" (§5.6). `optimistic`
    /// enables optimistic piece execution.
    pub fn new(templates: Vec<TemplateDecl>, optimistic: bool) -> Self {
        let chopping = chop(&templates);
        let group_tables = templates
            .iter()
            .enumerate()
            .map(|(t, decl)| {
                decl.pieces
                    .iter()
                    .zip(&chopping.groups[t])
                    .flat_map(|(piece, &g)| {
                        piece
                            .accesses
                            .iter()
                            .map(move |a| (a.table, g, a.read_cols, a.write_cols))
                    })
                    .collect()
            })
            .collect();
        Ic3Protocol {
            templates,
            chopping,
            group_tables,
            optimistic,
            name: if optimistic {
                "IC3".into()
            } else {
                "IC3-pess".into()
            },
        }
    }

    /// IC3's order preservation ("enforces pieces involving C-edges to
    /// execute in order", §2.2): once we track a predecessor, we may not
    /// access a table it conflicts with until it has passed its conflicting
    /// piece. Returns true when some predecessor still blocks this access.
    fn dep_blocks(&self, ctx: &TxnCtx, table: TableId, my_r: u64, my_w: u64) -> bool {
        ctx.ic3.deps.iter().any(|dep| {
            if dep.txn.is_finished() {
                return false;
            }
            let done = dep.txn.pieces_done.load(Ordering::Acquire) as usize;
            self.group_tables[dep.template as usize]
                .iter()
                .any(|&(t, g, r, w)| t == table && g >= done && masks_conflict(my_r, my_w, r, w))
        })
    }

    /// The computed chopping (for tests and reporting).
    pub fn chopping(&self) -> &Chopping {
        &self.chopping
    }

    /// Declared column masks for accessing `table` in `group` of `template`.
    fn declared_masks(&self, template: usize, group: usize, table: TableId) -> (u64, u64) {
        let t = &self.templates[template];
        let mut r = 0u64;
        let mut w = 0u64;
        let mut found = false;
        for a in group_accesses(t, &self.chopping.groups[template], group) {
            if a.table == table {
                r |= a.read_cols;
                w |= a.write_cols;
                found = true;
            }
        }
        assert!(
            found,
            "template {:?} group {group} accesses table {} without declaring it",
            t.name, table.0
        );
        (r, w)
    }

    /// Shared access path. Registers the accessor entry, waits for
    /// conflicting predecessors' pieces (pessimistic mode), and returns the
    /// index of the access.
    fn access(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        key: u64,
        write: bool,
    ) -> Result<usize, Abort> {
        let tuple = db
            .table_for(table, key)
            .get(key)
            .unwrap_or_else(|| panic!("ic3: missing key {key} in table {}", table.0));
        if let Some(i) = ctx.find_access(table, tuple.key) {
            if write {
                ctx.accesses[i].mode = LockMode::Ex;
            }
            return Ok(i);
        }
        let group = ctx.ic3.group;
        let (rmask, wmask) = self.declared_masks(ctx.ic3.template, group, table);
        let (my_r, my_w) = if write { (rmask, wmask) } else { (rmask, 0) };
        debug_assert!(!write || wmask != 0, "write access must declare write cols");
        let site = staggered(PIECE_WAIT, ctx.shared.id);
        let (observed, observed_seq, row) = ctx.wait(site, |ctx| {
            if self.dep_blocks(ctx, table, my_r, my_w) {
                return None;
            }
            let mut st = tuple.meta.ic3.lock();
            let blocked = !self.optimistic
                && st.accessors.iter().any(|e| {
                    e.txn.id != ctx.shared.id
                        && !e.txn.is_finished()
                        && masks_conflict(my_r, my_w, e.read_cols, e.write_cols)
                        && e.txn.pieces_done.load(Ordering::Acquire) <= e.group
                });
            if blocked {
                return None;
            }
            // Record commit-order deps on every conflicting accessor that
            // has not fully released yet (flag: did they write?) —
            // including committed ones whose installs are still in flight,
            // so our own install can never overtake theirs.
            for e in &st.accessors {
                if e.txn.id != ctx.shared.id
                    && !e.txn.is_released()
                    && masks_conflict(my_r, my_w, e.read_cols, e.write_cols)
                    && !ctx.ic3.deps.iter().any(|d| d.txn.id == e.txn.id)
                {
                    ctx.ic3.deps.push(crate::txn::Ic3Dep {
                        txn: Arc::clone(&e.txn),
                        wrote: e.write_cols & (my_r | my_w) != 0,
                        template: e.template,
                    });
                }
            }
            st.accessors.push(Ic3Accessor {
                txn: Arc::clone(&ctx.shared),
                template: ctx.ic3.template as u32,
                group: group as u32,
                read_cols: my_r,
                write_cols: my_w,
            });
            Some(st.visible(&tuple))
        })?;
        let mode = if write { LockMode::Ex } else { LockMode::Sh };
        let access = Access::new(table, tuple, mode, row, AccessState::Owner);
        Ok(ctx.push_access(access.observing(observed, observed_seq, group as u32)))
    }

    /// Finalizes the current group: optimistic validation, publication of
    /// the group's dirty writes, and the `pieces_done` bump that unblocks
    /// waiters.
    fn finalize_group(&self, ctx: &mut TxnCtx) -> Result<(), Abort> {
        let group = ctx.ic3.group as u32;
        if self.optimistic {
            // Wait (only now) for conflicting predecessors, then check the
            // chain tail each access observed is still the tail.
            for i in 0..ctx.accesses.len() {
                if ctx.accesses[i].group != group || ctx.accesses[i].state != AccessState::Owner {
                    continue;
                }
                ctx.wait(PIECE_WAIT, |ctx| {
                    let a = &ctx.accesses[i];
                    let st = a.tuple.meta.ic3.lock();
                    let me = st
                        .accessors
                        .iter()
                        .position(|e| e.txn.id == ctx.shared.id)
                        .expect("own accessor entry present");
                    let pending = st.accessors[..me].iter().any(|e| {
                        !e.txn.is_finished()
                            && masks_conflict(
                                a.read_cols_hint(),
                                a.write_cols_hint(),
                                e.read_cols,
                                e.write_cols,
                            )
                            && e.txn.pieces_done.load(Ordering::Acquire) <= e.group
                    });
                    if pending {
                        return None;
                    }
                    let (tail, seq, _) = st.visible(&a.tuple);
                    if tail != a.observed_tid || seq != a.observed_seq {
                        drop(st);
                        ctx.shared.set_abort(AbortReason::Ic3Validation);
                        return None;
                    }
                    Some(())
                })?;
            }
        }
        // Publish this group's writes: visible dirty data, like Bamboo's
        // retire but at piece granularity, masked to the declared columns.
        let template = ctx.ic3.template;
        for a in ctx.accesses.iter_mut() {
            if a.group == group && a.state == AccessState::Owner && a.dirty {
                let (_, wmask) = self.declared_masks(template, group as usize, a.table);
                let mut st = a.tuple.meta.ic3.lock();
                st.versions.push(Ic3Version {
                    txn: Arc::clone(&ctx.shared),
                    row: a.local.clone(),
                    write_cols: wmask,
                });
                a.state = AccessState::Retired;
            }
        }
        ctx.shared.pieces_done.store(group + 1, Ordering::Release);
        Ok(())
    }

    /// Removes this transaction from a tuple's accessor list; when
    /// `cascade` (abort of a writer), aborts every conflicting later
    /// accessor. Returns the number cascaded.
    fn remove_from_tuple(&self, ctx: &TxnCtx, a: &Access, cascade: bool) -> usize {
        let mut st = a.tuple.meta.ic3.lock();
        let mut cascaded = 0;
        if let Some(me) = st.accessors.iter().position(|e| e.txn.id == ctx.shared.id) {
            if cascade {
                let my_w = st.accessors[me].write_cols;
                let my_r = st.accessors[me].read_cols;
                for e in &st.accessors[me + 1..] {
                    if masks_conflict(my_r, my_w, e.read_cols, e.write_cols)
                        && e.txn.set_abort(AbortReason::Cascade)
                    {
                        cascaded += 1;
                    }
                }
            }
            st.accessors.retain(|e| e.txn.id != ctx.shared.id);
        }
        st.versions.retain(|v| v.txn.id != ctx.shared.id);
        cascaded
    }
}

impl Access {
    fn read_cols_hint(&self) -> u64 {
        // The accessor entry holds the authoritative masks; accesses only
        // need "did I read / did I write" granularity for re-validation.
        u64::MAX
    }

    fn write_cols_hint(&self) -> u64 {
        if self.mode == LockMode::Ex {
            u64::MAX
        } else {
            0
        }
    }
}

impl Protocol for Ic3Protocol {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin(&self, db: &Database, opts: &TxnOptions) -> TxnCtx {
        let id = db.next_txn_id();
        let mut ctx = TxnCtx::new(crate::txn::TxnShared::new(id, id));
        ctx.ic3.template = opts.template;
        ctx
    }

    fn piece_begin(&self, _db: &Database, ctx: &mut TxnCtx, piece: usize) -> Result<(), Abort> {
        if ctx.shared.is_aborted() {
            return Err(ctx.abort_err());
        }
        ctx.ic3.piece = piece;
        ctx.ic3.group = self.chopping.groups[ctx.ic3.template][piece];
        Ok(())
    }

    fn piece_end(&self, _db: &Database, ctx: &mut TxnCtx) -> Result<(), Abort> {
        let t = ctx.ic3.template;
        let piece = ctx.ic3.piece;
        let groups = &self.chopping.groups[t];
        let last_of_group = piece + 1 >= groups.len() || groups[piece + 1] != groups[piece];
        if last_of_group {
            self.finalize_group(ctx)?;
        }
        Ok(())
    }

    fn read<'c>(
        &self,
        db: &Database,
        ctx: &'c mut TxnCtx,
        table: TableId,
        key: u64,
    ) -> Result<&'c Row, Abort> {
        let i = self.access(db, ctx, table, key, false)?;
        Ok(&ctx.accesses[i].local)
    }

    fn update(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut Row),
    ) -> Result<(), Abort> {
        let i = self.access(db, ctx, table, key, true)?;
        f(&mut ctx.accesses[i].local);
        ctx.accesses[i].dirty = true;
        Ok(())
    }

    fn commit(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        ring: &Mutex<WalBuffer>,
    ) -> Result<(), Abort> {
        // The manual (piece-less) session API never calls `piece_end`, so
        // the final group's writes are still unpublished here. Finalize it
        // now — publish the pending versions (and validate the group in
        // optimistic mode) — so a conflicting accessor unblocked by our
        // commit point reads the published image instead of falling
        // through to the committed chain during the commit-point → install
        // window (a lost update: it would base its own write on the
        // pre-install value).
        if ctx
            .accesses
            .iter()
            .any(|a| a.dirty && a.state == AccessState::Owner)
        {
            self.finalize_group(ctx)?;
        }
        // Commit ordering: wait for every dependency to finish; a finished-
        // aborted dependency that wrote data we (may) have read cascades.
        ctx.wait(staggered(DEP_WAIT, ctx.shared.id), |ctx| {
            for dep in &ctx.ic3.deps {
                if !(dep.txn.is_finished() && dep.txn.is_released()) {
                    return None;
                }
                if dep.txn.is_aborted() && dep.wrote {
                    ctx.shared.set_abort(AbortReason::Cascade);
                    return None;
                }
            }
            Some(())
        })?;
        // The shared tail passes the commit point and logs before any
        // install. Note the record carries the *column-local* copy: IC3
        // installs are column-masked merges computed atomically under each
        // tuple's accessor lock below, so a full after-image cannot be
        // captured at log time without racing concurrent disjoint-column
        // writers. Replaying such a record as a whole-row image would
        // recover wrong rows, so IC3 is refused on a database with a
        // `wal_dir` (`redo_replayable` below; DURABILITY.md): every log
        // write that reaches here goes to the session ring.
        crate::protocol::commit_tail(
            db,
            ctx,
            ring,
            |_| {},
            // Install writes (column-masked) as new committed versions and
            // clear accessor entries and versions.
            |ctx| {
                let watermark = db.install_watermark(ctx.commit_ts);
                for i in 0..ctx.accesses.len() {
                    let a = &ctx.accesses[i];
                    let mut st = a.tuple.meta.ic3.lock();
                    if a.dirty {
                        let (_, wmask) =
                            self.declared_masks(ctx.ic3.template, a.group as usize, a.table);
                        st.versions.retain(|v| v.txn.id != ctx.shared.id);
                        let mut base = a.tuple.read_row();
                        apply_masked(&mut base, &a.local, wmask);
                        a.tuple.install_versioned(base, ctx.commit_ts, watermark);
                        st.install_seq += 1;
                    }
                    st.accessors.retain(|e| e.txn.id != ctx.shared.id);
                    drop(st);
                    ctx.accesses[i].state = AccessState::Released;
                }
            },
        )?;
        ctx.shared.mark_released();
        Ok(())
    }

    fn redo_replayable(&self) -> bool {
        false
    }

    fn abort(&self, _db: &Database, ctx: &mut TxnCtx) -> usize {
        let mut cascaded = 0;
        for i in 0..ctx.accesses.len() {
            if ctx.accesses[i].state == AccessState::Released {
                continue;
            }
            let a = &ctx.accesses[i];
            // Published writes cascade to later conflicting accessors.
            let wrote = a.dirty;
            cascaded += self.remove_from_tuple(ctx, a, wrote);
            ctx.accesses[i].state = AccessState::Released;
        }
        ctx.shared.mark_released();
        cascaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_storage::{DataType, Schema, Value};

    const COL_A: u64 = 1 << 1;
    const COL_B: u64 = 1 << 2;

    /// Two tables with columns (k, a, b); the two-piece template writes
    /// column `a` of table 0 in piece 0 and column `a` of table 1 in piece
    /// 1 — same order in every instance, so chopping keeps both pieces.
    fn setup() -> (Arc<Database>, TableId, TableId) {
        let mut b = Database::builder();
        let schema = || {
            Schema::build()
                .column("k", DataType::U64)
                .column("a", DataType::I64)
                .column("b", DataType::I64)
        };
        let t0 = b.add_table("t0", schema());
        let t1 = b.add_table("t1", schema());
        let db = b.build();
        for t in [t0, t1] {
            for k in 0..10u64 {
                db.table(t).insert(
                    k,
                    Row::from(vec![Value::U64(k), Value::I64(0), Value::I64(0)]),
                );
            }
        }
        (db, t0, t1)
    }

    fn two_piece_template(t0: TableId, t1: TableId) -> TemplateDecl {
        TemplateDecl {
            name: "bump2".into(),
            pieces: vec![
                PieceDecl::new(vec![PieceAccess::write(t0, COL_A, COL_A)]),
                PieceDecl::new(vec![PieceAccess::write(t1, COL_A, COL_A)]),
            ],
        }
    }

    fn bump_a(row: &mut Row) {
        let v = row.get_i64(1);
        row.set(1, Value::I64(v + 1));
    }

    fn run_txn(
        p: &Ic3Protocol,
        db: &Database,
        keys: [u64; 2],
        tables: [TableId; 2],
    ) -> Result<(), Abort> {
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut ctx = p.begin(db, &TxnOptions::new());
        let res = (|| {
            for piece in 0..2 {
                p.piece_begin(db, &mut ctx, piece)?;
                p.update(db, &mut ctx, tables[piece], keys[piece], &mut bump_a)?;
                p.piece_end(db, &mut ctx)?;
            }
            p.commit(db, &mut ctx, &wal)
        })();
        if res.is_err() {
            p.abort(db, &mut ctx);
        }
        res
    }

    /// Only IC3 allocates a tuple's IC3 state: Bamboo, Wound-Wait and Silo
    /// transactions that read and write every tuple leave each cell empty,
    /// and the first IC3 transaction fills the cells of what it touched.
    #[test]
    fn only_ic3_allocates_the_ic3_cell() {
        use crate::protocol::{LockingProtocol, SiloProtocol};
        let (db, t0, t1) = setup();
        let allocated = |t: TableId| {
            (0..10u64)
                .filter(|&k| db.table(t).get(k).unwrap().meta.ic3.is_allocated())
                .count()
        };
        let wal = Mutex::new(WalBuffer::for_tests());
        let others: [Box<dyn Protocol>; 3] = [
            Box::new(LockingProtocol::bamboo()),
            Box::new(LockingProtocol::wound_wait()),
            Box::new(SiloProtocol::new()),
        ];
        for p in &others {
            for k in 0..10u64 {
                let mut ctx = p.begin(&db, &TxnOptions::new());
                p.read(&db, &mut ctx, t0, k).unwrap();
                p.update(&db, &mut ctx, t1, k, &mut bump_a).unwrap();
                p.commit(&db, &mut ctx, &wal).unwrap();
            }
        }
        assert_eq!((allocated(t0), allocated(t1)), (0, 0));
        let p = Ic3Protocol::new(vec![two_piece_template(t0, t1)], false);
        run_txn(&p, &db, [3, 4], [t0, t1]).unwrap();
        assert_eq!((allocated(t0), allocated(t1)), (1, 1));
        assert!(db.table(t0).get(3).unwrap().meta.ic3.is_allocated());
        assert!(db.table(t1).get(4).unwrap().meta.ic3.is_allocated());
    }

    #[test]
    fn chopping_keeps_same_order_pieces_separate() {
        let (_, t0, t1) = setup();
        let p = Ic3Protocol::new(vec![two_piece_template(t0, t1)], false);
        assert_eq!(p.chopping().n_groups, vec![2]);
    }

    #[test]
    fn single_transaction_commits_and_installs() {
        let (db, t0, t1) = setup();
        let p = Ic3Protocol::new(vec![two_piece_template(t0, t1)], false);
        run_txn(&p, &db, [0, 1], [t0, t1]).unwrap();
        assert_eq!(db.table(t0).get(0).unwrap().read_row().get_i64(1), 1);
        assert_eq!(db.table(t1).get(1).unwrap().read_row().get_i64(1), 1);
        assert!(db.table(t0).get(0).unwrap().meta.ic3.lock().is_quiescent());
        assert!(db.table(t1).get(1).unwrap().meta.ic3.lock().is_quiescent());
    }

    #[test]
    fn piece_visibility_before_commit() {
        // T1 finishes piece 0 (writes t0/key0) but has not committed; T2's
        // piece 0 on the same tuple must see T1's dirty write and record a
        // commit dependency.
        let (db, t0, t1) = setup();
        let p = Ic3Protocol::new(vec![two_piece_template(t0, t1)], false);
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut c1 = p.begin(&db, &TxnOptions::new());
        c1.ic3.template = 0;
        p.piece_begin(&db, &mut c1, 0).unwrap();
        p.update(&db, &mut c1, t0, 0, &mut bump_a).unwrap();
        p.piece_end(&db, &mut c1).unwrap();
        let mut c2 = p.begin(&db, &TxnOptions::new());
        c2.ic3.template = 0;
        p.piece_begin(&db, &mut c2, 0).unwrap();
        p.update(&db, &mut c2, t0, 0, &mut bump_a).unwrap();
        assert_eq!(
            c2.accesses[0].local.get_i64(1),
            2,
            "T2 saw T1's published piece write"
        );
        p.piece_end(&db, &mut c2).unwrap();
        assert_eq!(c2.ic3.deps.len(), 1, "T2 depends on T1");
        // Finish both in dependency order.
        p.piece_begin(&db, &mut c1, 1).unwrap();
        p.update(&db, &mut c1, t1, 1, &mut bump_a).unwrap();
        p.piece_end(&db, &mut c1).unwrap();
        p.commit(&db, &mut c1, &wal).unwrap();
        p.piece_begin(&db, &mut c2, 1).unwrap();
        p.update(&db, &mut c2, t1, 2, &mut bump_a).unwrap();
        p.piece_end(&db, &mut c2).unwrap();
        p.commit(&db, &mut c2, &wal).unwrap();
        assert_eq!(db.table(t0).get(0).unwrap().read_row().get_i64(1), 2);
        assert!(db.table(t0).get(0).unwrap().meta.ic3.lock().is_quiescent());
    }

    #[test]
    fn second_piece_access_waits_for_unfinished_piece() {
        // T1 is mid-piece on t0/key0 (accessor registered, piece not done):
        // T2's conflicting access must block and eventually time out since
        // T1 never finishes in this test.
        let (db, t0, t1) = setup();
        let p = Ic3Protocol::new(vec![two_piece_template(t0, t1)], false);
        let mut c1 = p.begin(&db, &TxnOptions::new());
        c1.ic3.template = 0;
        p.piece_begin(&db, &mut c1, 0).unwrap();
        p.update(&db, &mut c1, t0, 0, &mut bump_a).unwrap();
        // no piece_end: piece unfinished.
        let mut c2 = p.begin(&db, &TxnOptions::new());
        c2.ic3.template = 0;
        p.piece_begin(&db, &mut c2, 0).unwrap();
        let t_start = std::time::Instant::now();
        let err = p.update(&db, &mut c2, t0, 0, &mut bump_a).unwrap_err();
        assert_eq!(err.0, AbortReason::Ic3Validation, "timed-out piece wait");
        assert!(t_start.elapsed() >= PIECE_WAIT.timeout);
        p.abort(&db, &mut c2);
        p.abort(&db, &mut c1);
        assert!(db.table(t0).get(0).unwrap().meta.ic3.lock().is_quiescent());
    }

    #[test]
    fn abort_cascades_to_piece_readers() {
        let (db, t0, t1) = setup();
        let p = Ic3Protocol::new(vec![two_piece_template(t0, t1)], false);
        let mut c1 = p.begin(&db, &TxnOptions::new());
        c1.ic3.template = 0;
        p.piece_begin(&db, &mut c1, 0).unwrap();
        p.update(&db, &mut c1, t0, 0, &mut bump_a).unwrap();
        p.piece_end(&db, &mut c1).unwrap();
        let mut c2 = p.begin(&db, &TxnOptions::new());
        c2.ic3.template = 0;
        p.piece_begin(&db, &mut c2, 0).unwrap();
        p.update(&db, &mut c2, t0, 0, &mut bump_a).unwrap();
        p.piece_end(&db, &mut c2).unwrap();
        // T1 user-aborts: T2 saw its write → cascade.
        let cascaded = p.abort(&db, &mut c1);
        assert_eq!(cascaded, 1);
        assert!(c2.shared.is_aborted());
        p.abort(&db, &mut c2);
        assert_eq!(
            db.table(t0).get(0).unwrap().read_row().get_i64(1),
            0,
            "committed image untouched by either"
        );
        assert!(db.table(t0).get(0).unwrap().meta.ic3.lock().is_quiescent());
    }

    #[test]
    fn column_disjoint_pieces_do_not_wait_or_clobber() {
        // Template A writes column a; template B writes column b of the
        // same tuple: no conflict at column granularity, and both writes
        // must survive (masked install).
        let (db, t0, _) = setup();
        let ta = TemplateDecl {
            name: "wa".into(),
            pieces: vec![PieceDecl::new(vec![PieceAccess::write(t0, COL_A, COL_A)])],
        };
        let tb = TemplateDecl {
            name: "wb".into(),
            pieces: vec![PieceDecl::new(vec![PieceAccess::write(t0, COL_B, COL_B)])],
        };
        let p = Ic3Protocol::new(vec![ta, tb], false);
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut c1 = p.begin(&db, &TxnOptions::new());
        c1.ic3.template = 0;
        p.piece_begin(&db, &mut c1, 0).unwrap();
        p.update(&db, &mut c1, t0, 0, &mut bump_a).unwrap();
        // c1's piece is *not* finished. c2 writes column b of the same
        // tuple: must proceed without waiting (column-disjoint).
        let mut c2 = p.begin(&db, &TxnOptions::new());
        c2.ic3.template = 1;
        p.piece_begin(&db, &mut c2, 0).unwrap();
        p.update(&db, &mut c2, t0, 0, &mut |row| {
            let v = row.get_i64(2);
            row.set(2, Value::I64(v + 1));
        })
        .unwrap();
        p.piece_end(&db, &mut c2).unwrap();
        p.commit(&db, &mut c2, &wal).unwrap();
        assert!(c2.ic3.deps.is_empty(), "no dependency across columns");
        p.piece_end(&db, &mut c1).unwrap();
        p.commit(&db, &mut c1, &wal).unwrap();
        let row = db.table(t0).get(0).unwrap().read_row();
        assert_eq!(row.get_i64(1), 1, "column a from template A");
        assert_eq!(row.get_i64(2), 1, "column b from template B survives");
    }

    #[test]
    fn optimistic_mode_validates_at_piece_end() {
        let (db, t0, t1) = setup();
        let p = Ic3Protocol::new(vec![two_piece_template(t0, t1)], true);
        assert_eq!(p.name(), "IC3");
        // Without contention, optimistic transactions just commit.
        run_txn(&p, &db, [0, 1], [t0, t1]).unwrap();
        assert_eq!(db.table(t0).get(0).unwrap().read_row().get_i64(1), 1);
    }

    #[test]
    fn concurrent_hotspot_increments_serialize() {
        let (db, t0, t1) = setup();
        let p = Arc::new(Ic3Protocol::new(vec![two_piece_template(t0, t1)], false));
        let threads = 4;
        let per = 100;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let db = Arc::clone(&db);
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let mut done = 0;
                    while done < per {
                        // Everyone bumps hotspot t0/key0 then a private key.
                        if run_txn(&p, &db, [0, 2 + w], [t0, t1]).is_ok() {
                            done += 1;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            db.table(t0).get(0).unwrap().read_row().get_i64(1),
            (threads * per) as i64
        );
        assert!(db.table(t0).get(0).unwrap().meta.ic3.lock().is_quiescent());
    }
}
