#![deny(missing_docs)]
//! # bamboo-storage
//!
//! In-memory row-store substrate for the Bamboo concurrency-control
//! reproduction (SIGMOD 2021). This crate mirrors the storage layer of
//! DBx1000, the prototype the paper evaluates on: row-oriented tables with
//! hash indexes on the primary key, plus (for TPC-C Payment) one secondary
//! index.
//!
//! The crate is deliberately independent of any concurrency-control
//! protocol: every [`Tuple`] carries a generic `meta` slot that the
//! `bamboo-core` crate instantiates with its per-tuple lock entry / TID word
//! metadata. Storage itself only guards the physical row bytes with a
//! lightweight `parking_lot::RwLock`; *logical* isolation is entirely the
//! protocol's job.
//!
//! ## Module map and the version-chain lifecycle
//!
//! * [`catalog`]/[`table`] — tables, tuples, and the append-only tuple
//!   slab; [`index`]/[`ordered`] — primary/secondary hash indexes and the
//!   ordered (range/next-key) index.
//! * [`partition`] — the [`Router`] mapping `(table, key)` → partition id
//!   (hash, explicit key-range, embedded-entity and replicated
//!   strategies); `bamboo-core` builds per-partition catalog shards on
//!   top of it so installs, lock traffic and GC trims of one partition
//!   never touch another's cache lines.
//! * [`log`] — the durable side: per-partition WAL segment files with a
//!   checksummed record format, fsync policies, and checkpoint data files.
//!   The only module in the workspace allowed to touch `std::fs`
//!   (`bamboo_check` enforces this); `bamboo-core`'s `WalHandle` and
//!   recovery orchestration sit on top of it.
//! * [`version`] — each tuple's committed [`VersionChain`]: the newest
//!   image plus older versions tagged with commit timestamps. Committing
//!   writers call [`Tuple::install_versioned`] with the commit timestamp
//!   allocated by `bamboo-core`'s commit clock, which pushes the previous
//!   image onto the chain, or drops it at once when no snapshot is
//!   registered; lock-free snapshot readers resolve [`Tuple::read_at`]
//!   against it; the install, and nothing else, reclaims the versions
//!   superseded at or below the global snapshot watermark published by
//!   the snapshot registry in `bamboo_core::db`, so chains stay empty
//!   when no snapshot is live and bounded by the commits since the
//!   oldest live snapshot otherwise. Rows inserted
//!   transactionally enter via [`Table::insert_at`] with their commit
//!   timestamp, making them invisible to older snapshots (no snapshot
//!   phantoms).
//!
//! ```
//! use bamboo_storage::{Catalog, Schema, DataType, Value, Row};
//!
//! let mut catalog = Catalog::<()>::new();
//! let accounts = catalog.add_table(
//!     "accounts",
//!     Schema::build().column("id", DataType::U64).column("balance", DataType::I64),
//! );
//! let t = catalog.table(accounts);
//! t.insert(1, Row::from(vec![Value::U64(1), Value::I64(100)]));
//! assert_eq!(t.get(1).unwrap().read_row().get_i64(1), 100);
//! ```

pub mod catalog;
pub mod index;
pub mod log;
pub mod ordered;
pub mod partition;
mod row;
mod schema;
pub mod table;
pub mod value;
pub mod version;

pub use catalog::{Catalog, TableId};
pub use index::{hash_key, BuildKeyHasher, SecondaryIndex, ShardedIndex};
pub use log::{
    FaultBackend, FaultInjector, FaultPlan, FsyncPolicy, IoClass, IoFailure, LogBackend, LogDir,
    Lsn, RealBackend, SegmentWriter, WalRecord,
};
pub use ordered::OrderedIndex;
pub use partition::{PartitionId, RouteStrategy, Router};
pub use row::Row;
pub use schema::{ColumnDef, DataType, Schema};
pub use table::{Table, Tuple};
pub use value::Value;
pub use version::{VersionChain, DEFAULT_TRIM_THRESHOLD, TS_LOADER};
