#![deny(missing_docs)]
//! # bamboo-core
//!
//! A faithful Rust implementation of **Bamboo** — the concurrency-control
//! protocol of *"Releasing Locks As Early As You Can: Reducing Contention of
//! Hotspots by Violating Two-Phase Locking"* (SIGMOD 2021) — together with
//! the paper's baselines (Wound-Wait, Wait-Die, No-Wait 2PL, Silo, IC3)
//! behind one pluggable [`protocol::Protocol`] interface, mirroring the
//! DBx1000 architecture the paper evaluates in.
//!
//! The protocol stack:
//!
//! * [`lock`] — the per-tuple lock table with Bamboo's `retired` list and
//!   dirty-version chain (Algorithm 2, Figure 2).
//! * [`protocol`] — the *internal* plug: the 2PL family (including Bamboo
//!   and its four optimizations from §3.5), Silo, and IC3.
//! * [`session`] — the *public* transaction API: [`Session`] binds a
//!   database to a protocol, the RAII [`Txn`] guard owns one attempt's
//!   lifecycle.
//! * [`executor`] — a worker-per-thread benchmark harness with the paper's
//!   runtime breakdown (lock wait / commit wait / abort time, §4.2).
//! * [`model`] — the analytic waits-vs-aborts model of §4.2.
//!
//! ## Transactions: `Session` and the RAII `Txn` guard
//!
//! A transaction is started from a [`Session`] and driven through the
//! [`Txn`] handle — no database/protocol/context threading, and no abort
//! obligation: dropping an uncommitted `Txn` (early return, `?`, panic)
//! aborts the attempt exactly once.
//!
//! Before (the raw protocol surface — still available to protocol
//! implementors, no longer needed by users):
//!
//! ```text
//! let mut ctx = proto.begin(&db, &TxnOptions::new());
//! proto.update(&db, &mut ctx, t, 1, &mut |row| { /* … */ })?;   // on Err:
//! proto.commit(&db, &mut ctx, &mut wal)?;                       // caller MUST
//! // … proto.abort(&db, &mut ctx) exactly once, by convention   // remember
//! ```
//!
//! After:
//!
//! ```
//! use bamboo_core::{Database, Session, protocol::LockingProtocol};
//! use bamboo_storage::{Schema, DataType, Value, Row};
//! use std::sync::Arc;
//!
//! let mut b = Database::builder();
//! let t = b.add_table("kv", Schema::build()
//!     .column("k", DataType::U64)
//!     .column("v", DataType::I64));
//! let db = b.build();
//! db.table(t).insert(1, Row::from(vec![Value::U64(1), Value::I64(0)]));
//!
//! let session = Session::new(db, Arc::new(LockingProtocol::bamboo()));
//! let mut txn = session.begin();
//! txn.update(t, 1, |row| {
//!     let v = row.get_i64(1);
//!     row.set(1, Value::I64(v + 40));
//! }).unwrap();
//! txn.commit().unwrap();   // or: drop(txn) → aborts, exactly once
//! assert_eq!(session.db().table(t).get(1).unwrap().read_row().get_i64(1), 40);
//! ```
//!
//! [`session::TxnOptions`] selects snapshot mode, planned operations
//! (Optimization 2's δ) and the IC3 template;
//! [`Session::run`] executes a whole [`executor::TxnSpec`] with the
//! session's [`session::RetryPolicy`] governing restarts.
//!
//! ## Multi-version snapshot reads
//!
//! Long read-only transactions are the worst case for every lock-based
//! scheme (Figure 7): a scan holding shared locks pins writers behind it,
//! and retiring cannot help readers. The MVCC subsystem removes that cliff:
//!
//! * Every committing writer installs its after-images as new *committed
//!   versions* on the tuples' [`bamboo_storage::VersionChain`], tagged with
//!   a commit timestamp from [`db::CommitClock`]; the clock's *stable*
//!   point (all smaller timestamps fully installed) is the only timestamp
//!   snapshots are taken at.
//! * [`Session::snapshot`] (or [`session::TxnOptions::snapshot`])
//!   registers a snapshot in the [`db::SnapshotRegistry`] and returns a
//!   [`Txn`] whose reads resolve against the version chains with **zero
//!   lock-manager interaction** — the session serves it without calling
//!   the protocol, so the reader can neither block nor be wounded under
//!   any protocol, and writers never wait for it. A row invisible at the snapshot surfaces as
//!   [`AbortReason::SnapshotNotVisible`] (or `Ok(None)` through
//!   [`Txn::read_opt`]), never as a panic.
//! * The registry's floor is published as the GC watermark
//!   ([`db::Database::gc_watermark`]). The install is the one place a
//!   chain is trimmed, for every protocol: with no snapshot registered it
//!   drops the image it replaces, and otherwise it reclaims the versions
//!   no live snapshot can still see whenever the chain's oldest version
//!   is dead (one comparison; dead versions are a prefix of the chain).
//!   Every [`db::DbOptions::epoch_commits`]-th commit republishes the
//!   watermark ([`db::Database::note_commit`]), so chains drain even
//!   without snapshot churn.
//!
//! The commit clock, snapshot registry and watermark are all lock-free:
//! no `Mutex`/`RwLock` sits on the commit or snapshot-begin path (see
//! [`db`]'s module docs for the design and its memory-ordering contract).
//! A long reader pins the versions it may read for as long as it lives;
//! writers never wait for it, they only retain those versions.
//!
//! ## Partitioned databases
//!
//! [`partition::PartitionedDb`] splits the storage into N partitions —
//! each its own catalog shard (tuple slabs, indexes, version chains,
//! per-tuple lock entries) and durable log — while the commit clock,
//! snapshot registry and watermark stay shared, so commit timestamps
//! remain globally ordered and snapshots globally consistent.
//! [`partition::PartSession`] extends the `Session` seam with a
//! partition-local fast path ([`partition::PartSession::begin_on`]);
//! cross-partition transactions route per-key through
//! [`Database::table_for`] and commit under **one** commit timestamp —
//! one record on the session's ring, or with a `wal_dir` per-partition
//! log appends in partition-id order (the commit-ordering contract — see
//! [`partition`]'s module docs). [`Database::builder`] is the
//! one-partition case of the same engine. Build-time tuning knobs
//! (watermark-publish tick, the durable log's directory and fsync policy)
//! live in [`db::DbOptions`].

pub mod db;
pub mod durability;
pub mod executor;
pub mod lock;
pub mod meta;
pub mod model;
#[cfg(all(test, bamboo_model))]
mod model_check;
pub mod partition;
pub mod protocol;
pub mod session;
pub mod stats;
pub mod sync;
pub mod ts;
pub mod txn;
pub mod wal;

pub use db::{Database, DatabaseBuilder, DbOptions};
pub use durability::RecoveryReport;
pub use meta::TupleCc;
pub use partition::{PartSession, Partition, PartitionedDb};
pub use session::{RetryPolicy, Session, Txn, TxnOptions};
pub use txn::{Abort, AbortReason, LockMode, TxnCtx, TxnShared};
