//! Interactive-mode decorator.
//!
//! The paper's interactive mode runs transaction logic on a client that
//! issues `get_row()` / `update_row()` / `commit()` requests to the DB
//! server over gRPC (§5.1). The performance-relevant consequence is that
//! every operation pays a network round-trip, which (a) stretches lock hold
//! times enormously and (b) makes aborted work far more expensive — the two
//! effects behind Figures 8–10's interactive panels.
//!
//! [`InteractiveProtocol`] reproduces that cost model in-process: it wraps
//! any inner protocol and charges a configurable round-trip delay on each
//! operation and on commit. Delays are slept, not spun, so oversubscribed
//! thread counts behave like blocked RPC clients rather than burning CPU.

use std::time::Duration;

use bamboo_storage::{Row, TableId};
use parking_lot::Mutex;

use crate::db::Database;
use crate::protocol::Protocol;
use crate::session::TxnOptions;
use crate::txn::{Abort, TxnCtx};
use crate::wal::WalBuffer;

/// Wraps a protocol with per-operation RPC delays.
pub struct InteractiveProtocol<P> {
    inner: P,
    rpc: Duration,
    name: String,
}

impl<P: Protocol> InteractiveProtocol<P> {
    /// Wraps `inner`, charging `rpc` per operation.
    pub fn new(inner: P, rpc: Duration) -> Self {
        let name = format!("{}(interactive)", inner.name());
        InteractiveProtocol { inner, rpc, name }
    }

    #[inline]
    fn round_trip(&self) {
        if !self.rpc.is_zero() {
            std::thread::sleep(self.rpc);
        }
    }
}

impl<P: Protocol> Protocol for InteractiveProtocol<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin(&self, db: &Database, opts: &TxnOptions) -> TxnCtx {
        let mut ctx = self.inner.begin(db, opts);
        // Interactive clients do not know access positions ahead of time —
        // the δ heuristic is inapplicable (paper §5.1: "the second
        // optimization of no retiring does not apply").
        ctx.planned_ops = None;
        ctx
    }

    fn read<'c>(
        &self,
        db: &Database,
        ctx: &'c mut TxnCtx,
        table: TableId,
        key: u64,
    ) -> Result<&'c Row, Abort> {
        self.round_trip();
        self.inner.read(db, ctx, table, key)
    }

    fn update(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut Row),
    ) -> Result<(), Abort> {
        self.round_trip();
        self.inner.update(db, ctx, table, key, f)
    }

    fn lock_insert(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        key: u64,
    ) -> Result<(), Abort> {
        self.round_trip();
        self.inner.lock_insert(db, ctx, table, key)
    }

    fn scan(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        range: std::ops::RangeInclusive<u64>,
    ) -> Result<Vec<Row>, Abort> {
        // One round trip: an interactive client issues the range predicate
        // as a single request; the server-side scan (including the inner
        // protocol's next-key locking) runs without further hops.
        self.round_trip();
        self.inner.scan(db, ctx, table, range)
    }

    fn commit(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        ring: &Mutex<WalBuffer>,
    ) -> Result<(), Abort> {
        self.round_trip();
        self.inner.commit(db, ctx, ring)
    }

    fn redo_replayable(&self) -> bool {
        self.inner.redo_replayable()
    }

    fn abort(&self, db: &Database, ctx: &mut TxnCtx) -> usize {
        self.round_trip();
        self.inner.abort(db, ctx)
    }

    fn piece_begin(&self, db: &Database, ctx: &mut TxnCtx, piece: usize) -> Result<(), Abort> {
        self.inner.piece_begin(db, ctx, piece)
    }

    fn piece_end(&self, db: &Database, ctx: &mut TxnCtx) -> Result<(), Abort> {
        self.inner.piece_end(db, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LockingProtocol;
    use bamboo_storage::{DataType, Schema, Value};
    use std::time::Instant;

    #[test]
    fn delays_are_charged_per_operation() {
        let mut b = Database::builder();
        let t = b.add_table(
            "kv",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        let db = b.build();
        db.table(t)
            .insert(1, Row::from(vec![Value::U64(1), Value::I64(0)]));
        let p = InteractiveProtocol::new(LockingProtocol::bamboo(), Duration::from_millis(2));
        assert!(p.name().contains("interactive"));
        let wal = Mutex::new(WalBuffer::for_tests());
        let mut ctx = p.begin(&db, &TxnOptions::new().planned_ops(3));
        assert_eq!(ctx.planned_ops, None);
        let t0 = Instant::now();
        p.read(&db, &mut ctx, t, 1).unwrap();
        p.update(&db, &mut ctx, t, 1, &mut |r| r.set(1, Value::I64(9)))
            .unwrap();
        p.commit(&db, &mut ctx, &wal).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(6),
            "three operations at 2ms RPC each"
        );
        assert_eq!(db.table(t).get(1).unwrap().read_row().get_i64(1), 9);
    }
}
