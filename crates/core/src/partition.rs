//! The partitioned database: N partitions, one commit clock.
//!
//! [`PartitionedDb`] splits the storage and execution state that *can* be
//! split — catalog (tuple slabs, hash/ordered indexes, version chains,
//! per-tuple lock entries) and durable log — into per-partition shards,
//! while the state that defines transactional consistency — the commit
//! clock, snapshot registry, GC watermark, timestamp and transaction-id
//! sources — stays **shared** across partitions (one `Arc` each, see
//! [`crate::db::Database`]). A snapshot taken on any partition
//! is therefore consistent across all of them, and commit timestamps
//! remain globally unique and totally ordered.
//!
//! Every partition is a full [`Database`] holding its own catalog shard
//! plus a topology view of every partition, so one `Session` / `Txn` /
//! `Protocol` machinery executes every transaction. This is the only kind
//! of database there is: [`Database::builder`] builds the one-partition
//! case through [`PartitionedDbBuilder`] and hands out partition 0.
//!
//! * **Single-partition fast path.** [`PartSession::begin_on`] starts a
//!   plain [`Txn`] against the home partition's `Database`. Every lookup
//!   routes to the local shard (one arithmetic route per operation, no
//!   locks), the commit logs once, and the attempt performs *no more lock
//!   acquisitions* than the same transaction on a one-partition database
//!   — asserted by the partitioning test suite against the lock-counter
//!   shim.
//! * **Cross-partition transactions.** Operations whose keys route to
//!   another partition transparently resolve to that partition's shard
//!   through [`Database::table_for`]; locks, dirty-version chains and
//!   installs all live on the remote tuple itself, so the protocols'
//!   conflict handling (wounds, cascades, Silo validation, IC3 piece
//!   waits) works across partitions unchanged.
//!
//! # Commit-ordering contract (cross-partition commits)
//!
//! A cross-partition commit is **not** a two-phase commit — all partitions
//! share one in-memory commit pipeline. Without a
//! [`DbOptions::wal_dir`] it logs one record to the committing session's
//! ring, like any other commit. With one, it must leave every partition's
//! durable log in a consistent replayable order:
//!
//! 1. The protocol runs its normal commit protocol (semaphore wait /
//!    validation) once, over the whole access set.
//! 2. **One commit timestamp** is allocated from the shared clock and the
//!    commit point passes *before* anything is logged or installed, so a
//!    wounded transaction never reaches any WAL segment (with durable
//!    segments that is what makes recovery redo-only). The clock holds
//!    the timestamp in flight until all installs land, so no snapshot —
//!    on any partition — can observe a cross-partition commit
//!    half-applied.
//! 3. The redo group is split by partition and appended to each written
//!    partition's WAL segment **in ascending partition-id order** (see
//!    `log_commit` in `protocol`), every append carrying the same commit
//!    timestamp and the full written-partition mask (what crash recovery
//!    checks cross-partition completeness against). The commit takes
//!    every written partition's WAL lock, in that order, before its first
//!    append and holds them until its last group landed; if an append
//!    fails, the groups already landed are cut back out, so a commit's
//!    groups are on every partition it writes or on none. The fixed
//!    acquisition order keeps the nesting deadlock-free. Installs run
//!    only after every partition's append, so anything a dependent
//!    transaction can read was logged first.
//!
//! ```
//! use std::sync::Arc;
//! use bamboo_core::partition::{PartSession, PartitionedDb};
//! use bamboo_core::protocol::LockingProtocol;
//! use bamboo_storage::{DataType, PartitionId, Row, RouteStrategy, Schema, Value};
//!
//! // Two partitions; keys 0..50 live on partition 0, the rest on 1.
//! let mut b = PartitionedDb::builder(2);
//! let t = b.add_table(
//!     "accounts",
//!     Schema::build().column("id", DataType::U64).column("bal", DataType::I64),
//!     RouteStrategy::Range(vec![50]),
//! );
//! let pdb = b.build();
//! for k in [1u64, 99] {
//!     pdb.insert(t, k, Row::from(vec![Value::U64(k), Value::I64(100)]));
//! }
//! let s = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
//! // A cross-partition transfer through the partition-0 session.
//! let mut txn = s.begin_on(PartitionId(0));
//! txn.update(t, 1, |r| r.set(1, Value::I64(r.get_i64(1) - 10))).unwrap();
//! txn.update(t, 99, |r| r.set(1, Value::I64(r.get_i64(1) + 10))).unwrap();
//! txn.commit().unwrap();
//! assert_eq!(pdb.db(PartitionId(1)).table_for(t, 99).get(99).unwrap().read_row().get_i64(1), 110);
//! ```

use crate::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bamboo_storage::{Catalog, PartitionId, RouteStrategy, Router, Row, Schema, Table, TableId};

use crate::db::{CommitClock, Database, DbOptions, SnapshotRegistry, Topology};
use crate::meta::TupleCc;
use crate::protocol::Protocol;
use crate::session::{Session, Txn};
use crate::sync::CachePadded;
use crate::ts::TsSource;
use crate::wal::WalHandle;

/// One partition: its `Database` view (catalog shard + shared globals +
/// topology).
pub struct Partition {
    db: Arc<Database>,
}

impl Partition {
    /// This partition's id.
    pub fn id(&self) -> PartitionId {
        self.db.partition_id()
    }

    /// The partition's `Database` view. Transactions begun against it run
    /// partition-locally until they touch a remote key.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The partition's durable log.
    ///
    /// # Panics
    ///
    /// When the database was built without [`DbOptions::with_wal_dir`]:
    /// its commits go to the committing session's ring
    /// ([`Session::log_bytes`]), and there is no partition log.
    pub fn wal(&self) -> &Arc<WalHandle> {
        self.db
            .topology()
            .wals
            .get(self.id().idx())
            .expect("no partition log: the database has no DbOptions::wal_dir")
    }
}

/// A database split into N partitions sharing one commit clock and
/// snapshot registry. See the module docs for the architecture and the
/// cross-partition commit-ordering contract.
pub struct PartitionedDb {
    router: Arc<Router>,
    parts: Vec<Partition>,
    /// Sealed WAL segments deleted by checkpoint-time log compaction.
    segments_retired: AtomicU64,
}

impl PartitionedDb {
    /// Starts building a partitioned database with `partitions` partitions
    /// (at least 1).
    pub fn builder(partitions: u32) -> PartitionedDbBuilder {
        assert!(partitions >= 1, "a database has at least one partition");
        PartitionedDbBuilder {
            catalogs: (0..partitions).map(|_| Catalog::new()).collect(),
            strategies: Vec::new(),
            options: DbOptions::default(),
            partitions,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u32 {
        self.router.partitions()
    }

    /// The router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// All partitions, in id order.
    pub fn parts(&self) -> &[Partition] {
        &self.parts
    }

    /// One partition.
    pub fn part(&self, p: PartitionId) -> &Partition {
        &self.parts[p.idx()]
    }

    /// One partition's `Database` view.
    pub fn db(&self, p: PartitionId) -> &Arc<Database> {
        &self.parts[p.idx()].db
    }

    /// Routes `(table, key)` to its owning partition (replicated tables
    /// resolve to partition 0; use [`Database::table_for`] from inside a
    /// partition for local resolution).
    pub fn route(&self, table: TableId, key: u64) -> PartitionId {
        self.router.route(table, key)
    }

    /// The table shard of `table` on partition `p`.
    pub fn table(&self, p: PartitionId, table: TableId) -> &Arc<Table<TupleCc>> {
        self.parts[p.idx()].db.table(table)
    }

    /// Loader-path insert: routes `key` to its partition's shard. Panics
    /// on replicated tables — use [`PartitionedDb::insert_replicated`].
    pub fn insert(
        &self,
        table: TableId,
        key: u64,
        row: Row,
    ) -> Arc<bamboo_storage::Tuple<TupleCc>> {
        assert!(
            !self.router.is_replicated(table),
            "replicated tables load through insert_replicated"
        );
        let p = self.router.route(table, key);
        self.parts[p.idx()].db.table(table).insert(key, row)
    }

    /// Loader-path insert into *every* partition's replica of a
    /// replicated table.
    pub fn insert_replicated(&self, table: TableId, key: u64, row: Row) {
        assert!(
            self.router.is_replicated(table),
            "insert_replicated requires a Replicated table"
        );
        for part in &self.parts {
            part.db.table(table).insert(key, row.clone());
        }
    }

    /// Enables the ordered primary-key index on every shard of `table`
    /// (range scans and next-key phantom protection need it on all
    /// shards).
    pub fn enable_ordered_index(&self, table: TableId) {
        for part in &self.parts {
            part.db.table(table).enable_ordered_index();
        }
    }

    /// Total physical rows across all shards (replicated tables count
    /// once per replica).
    pub fn total_rows(&self) -> usize {
        self.parts.iter().map(|p| p.db.total_rows()).sum()
    }

    /// Every partition's durable log — empty without a
    /// [`DbOptions::wal_dir`].
    fn wals(&self) -> &[Arc<WalHandle>] {
        &self.parts[0].db.topology().wals
    }

    /// Total redo-log bytes across every partition's durable log (0
    /// without a [`DbOptions::wal_dir`]: the sessions' rings count their
    /// own, [`Session::log_bytes`]).
    pub fn log_bytes(&self) -> u64 {
        self.wals().iter().map(|w| w.current_lsn()).sum()
    }

    /// Total commit groups across every partition's durable log.
    pub fn log_records(&self) -> u64 {
        self.wals().iter().map(|w| w.records()).sum()
    }

    /// Sealed WAL segments deleted by checkpoint-time log compaction over
    /// this database's lifetime.
    pub fn segments_retired(&self) -> u64 {
        self.segments_retired.load(Ordering::Relaxed)
    }

    /// Adds to the compaction counter (called by
    /// [`PartitionedDb::checkpoint`]).
    pub(crate) fn note_segments_retired(&self, n: u64) {
        self.segments_retired.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of partitions currently degraded (WAL writes fail fast with
    /// [`crate::txn::AbortReason::DurabilityFailed`]; snapshot reads and
    /// the other partitions are unaffected).
    pub fn degraded_partitions(&self) -> u64 {
        self.wals().iter().filter(|w| w.is_degraded()).count() as u64
    }

    /// Total WAL transient-fault retries across every partition's handle.
    pub fn wal_io_retries(&self) -> u64 {
        self.wals().iter().map(|w| w.io_retries()).sum()
    }

    /// Total WAL permanent failures across every partition's handle.
    pub fn wal_io_failures(&self) -> u64 {
        self.wals().iter().map(|w| w.io_failures()).sum()
    }

    /// Total batch fsyncs issued by group-commit leaders across all
    /// partitions. Zero unless the database runs under
    /// [`bamboo_storage::FsyncPolicy::GroupCommit`].
    pub fn group_fsyncs(&self) -> u64 {
        self.wals().iter().map(|w| w.group_fsyncs()).sum()
    }

    /// Commits acknowledged through the shared durability horizon. The
    /// horizon is one object shared by every partition, so this reads it
    /// from partition 0 rather than summing.
    pub fn group_acks(&self) -> u64 {
        self.parts[0].db.durability_horizon().acked()
    }

    /// Group-commit parks that ended on the `GROUP_PARK` safety-net poll
    /// and then found their wait already over, as `(coverage, horizon)`:
    /// followers of a leader fsync ([`WalHandle::timeout_wakeups`], summed
    /// over the partitions; 0 when every covered follower is woken) and
    /// acknowledgments parked on the shared durability horizon
    /// ([`crate::wal::DurabilityHorizon::timeout_wakeups`]).
    pub fn group_timeout_wakeups(&self) -> (u64, u64) {
        (
            self.wals().iter().map(|w| w.timeout_wakeups()).sum(),
            self.parts[0].db.durability_horizon().timeout_wakeups(),
        )
    }

    /// Heals a degraded partition: re-opens its durable segment writer
    /// (scanning the existing segments and truncating any torn tail, so
    /// writing resumes on a clean frame boundary) and re-admits writes.
    ///
    /// Safe to call while the rest of the database keeps committing — the
    /// swap serializes behind the partition's WAL lock. Calling it on a
    /// healthy partition is a no-op refresh of the writer. Fails (leaving
    /// the partition degraded) when the segment still cannot be opened —
    /// e.g. the underlying fault persists — or when the database has no
    /// durable WAL configured.
    pub fn heal(&self, p: PartitionId) -> std::io::Result<()> {
        let opts = self.parts[p.idx()].db.options();
        let dir = opts.log_dir().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "heal requires a durable WAL (DbOptions::with_wal_dir)",
            )
        })?;
        let writer = dir.open_writer(p.0, opts.fsync_policy, opts.segment_bytes)?;
        self.parts[p.idx()].wal().replace_writer(writer);
        Ok(())
    }
}

/// Builder for [`PartitionedDb`]: registers every table in every
/// partition's catalog shard (same dense [`TableId`] everywhere) together
/// with its routing strategy.
pub struct PartitionedDbBuilder {
    catalogs: Vec<Catalog<TupleCc>>,
    strategies: Vec<RouteStrategy>,
    pub(crate) options: DbOptions,
    partitions: u32,
}

impl PartitionedDbBuilder {
    /// Registers a table on every partition with its routing strategy.
    pub fn add_table(&mut self, name: &str, schema: Schema, strategy: RouteStrategy) -> TableId {
        self.add_table_with_capacity(name, schema, 0, strategy)
    }

    /// Registers a table pre-sized for `cap` tuples *in total*: replicated
    /// shards reserve the full capacity each, a pinned table's owning
    /// shard takes it all (the others none), and every other strategy
    /// splits it evenly.
    pub fn add_table_with_capacity(
        &mut self,
        name: &str,
        schema: Schema,
        cap: usize,
        strategy: RouteStrategy,
    ) -> TableId {
        let n = self.partitions;
        let mut id = None;
        for (i, cat) in self.catalogs.iter_mut().enumerate() {
            let shard_cap = match &strategy {
                RouteStrategy::Replicated => cap,
                RouteStrategy::Pin(p) => {
                    if i as u32 == *p % n {
                        cap
                    } else {
                        0
                    }
                }
                _ if cap == 0 => 0,
                _ => cap / n as usize + 1,
            };
            let t = cat.add_table_with_capacity(name, schema.clone(), shard_cap);
            debug_assert!(id.is_none() || id == Some(t), "shards assign identical ids");
            id = Some(t);
        }
        let id = id.expect("at least one partition");
        debug_assert_eq!(id.0 as usize, self.strategies.len());
        self.strategies.push(strategy);
        id
    }

    /// Replaces the tuning knobs shared by every partition.
    pub fn with_options(&mut self, options: DbOptions) -> &mut Self {
        self.options = options;
        self
    }

    /// Finalizes the partitioned database: builds the router, the shared
    /// commit pipeline, and one `Database` view per partition.
    ///
    /// When [`DbOptions::with_wal_dir`] is set, every partition opens a
    /// durable WAL segment writer rooted in that directory (resuming after
    /// any existing log, with the torn tail truncated away — see
    /// [`bamboo_storage::log`]), the partitions on a thread each;
    /// otherwise there are no partition logs and every commit goes to its
    /// session's ring. Durable databases cap the partition count at 64:
    /// the cross-partition completeness mask is a `u64` bitmask.
    pub fn build(self) -> Arc<PartitionedDb> {
        let mut router = Router::new(self.partitions, RouteStrategy::Hash);
        for (i, s) in self.strategies.into_iter().enumerate() {
            router = router.with_table(TableId(i as u32), s);
        }
        let router = Arc::new(router);
        let catalogs: Arc<[Arc<Catalog<TupleCc>>]> =
            self.catalogs.into_iter().map(Arc::new).collect();
        let wals: Arc<[Arc<WalHandle>]> = match self.options.log_dir() {
            Some(dir) => {
                assert!(
                    self.partitions <= 64,
                    "durable WALs support at most 64 partitions \
                     (the completeness mask is a u64 bitmask)"
                );
                // Reopening walks each partition's whole log, and the
                // partitions' logs are disjoint: one thread each.
                per_partition(self.partitions, |p| {
                    // An unopenable segment no longer aborts the build: that
                    // partition comes up degraded (writes fail fast with
                    // DurabilityFailed, snapshot reads keep serving) and
                    // `PartitionedDb::heal` can re-open it later.
                    let opened =
                        dir.open_writer(p, self.options.fsync_policy, self.options.segment_bytes);
                    Arc::new(match opened {
                        Ok(w) => WalHandle::durable(w),
                        Err(_) => WalHandle::poisoned(),
                    })
                })
                .into()
            }
            None => Arc::from([]),
        };
        // The shared commit pipeline: one of each, cloned into every
        // partition's Database so commit timestamps and snapshots stay
        // globally consistent.
        let ts_source = Arc::new(TsSource::new());
        let commit_clock = Arc::new(CommitClock::new());
        let snapshots = Arc::new(SnapshotRegistry::new());
        let watermark = Arc::new(CachePadded::new(AtomicU64::new(0)));
        let txn_ids = Arc::new(CachePadded::new(AtomicU64::new(1)));
        let horizon = Arc::new(crate::wal::DurabilityHorizon::new(Arc::clone(&wals)));
        let options = DbOptions {
            epoch_commits: self.options.epoch_commits.max(1),
            ..self.options
        };
        let parts = (0..self.partitions)
            .map(|p| {
                let me = PartitionId(p);
                Partition {
                    db: Arc::new(Database {
                        catalog: Arc::clone(&catalogs[me.idx()]),
                        ts_source: Arc::clone(&ts_source),
                        commit_clock: Arc::clone(&commit_clock),
                        snapshots: Arc::clone(&snapshots),
                        watermark: Arc::clone(&watermark),
                        txn_ids: Arc::clone(&txn_ids),
                        horizon: Arc::clone(&horizon),
                        options: options.clone(),
                        topology: Topology {
                            router: Arc::clone(&router),
                            catalogs: Arc::clone(&catalogs),
                            wals: Arc::clone(&wals),
                            me,
                        },
                    }),
                }
            })
            .collect();
        Arc::new(PartitionedDb {
            router,
            parts,
            segments_retired: AtomicU64::new(0),
        })
    }
}

/// Runs `f` for every partition in `0..n`, each on a thread of its own,
/// and returns the results in partition order. A panic in `f` is
/// re-raised here.
pub(crate) fn per_partition<T: Send>(n: u32, f: impl Fn(u32) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n).map(|p| s.spawn(move || f(p))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// A partition-aware session: one inner [`Session`] per partition, all
/// bound to the same protocol.
///
/// [`PartSession::begin_on`] is the routing entry point: a transaction
/// begun on its home partition runs the partition-local fast path for
/// local keys and transparently reaches across partitions for remote ones
/// (see the module docs). This extends the `Session` seam from the
/// ROADMAP — no call site drives `Protocol` directly.
pub struct PartSession {
    pdb: Arc<PartitionedDb>,
    sessions: Vec<Session>,
}

impl PartSession {
    /// Binds every partition of `pdb` to `proto`.
    pub fn new(pdb: Arc<PartitionedDb>, proto: Arc<dyn Protocol>) -> Self {
        let sessions = pdb
            .parts()
            .iter()
            .map(|p| Session::new(Arc::clone(p.db()), Arc::clone(&proto)))
            .collect();
        PartSession { pdb, sessions }
    }

    /// Interactive mode on every partition's session
    /// ([`Session::interactive`]).
    pub fn interactive(mut self, rpc: Duration) -> Self {
        self.sessions = self
            .sessions
            .into_iter()
            .map(|s| s.interactive(rpc))
            .collect();
        self
    }

    /// Every partition's session, in partition-id order.
    pub(crate) fn into_sessions(self) -> Vec<Session> {
        self.sessions
    }

    /// The partitioned database.
    pub fn db(&self) -> &Arc<PartitionedDb> {
        &self.pdb
    }

    /// The session bound to partition `p`.
    pub fn session(&self, p: PartitionId) -> &Session {
        &self.sessions[p.idx()]
    }

    /// Starts a read-write transaction homed on partition `p` (the
    /// single-partition fast path when the transaction only touches `p`'s
    /// keys; cross-partition accesses route transparently).
    pub fn begin_on(&self, p: PartitionId) -> Txn<'_> {
        self.session(p).begin()
    }

    /// Starts a read-only snapshot transaction homed on partition `p`.
    /// The snapshot is globally consistent: all partitions share one
    /// commit clock, so reads on *any* partition resolve at the same
    /// stable timestamp.
    pub fn snapshot_on(&self, p: PartitionId) -> Txn<'_> {
        self.session(p).snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LockingProtocol;
    use bamboo_storage::{DataType, Value};

    fn two_part_db() -> (Arc<PartitionedDb>, TableId) {
        two_part_db_with(DbOptions::new())
    }

    fn two_part_db_with(options: DbOptions) -> (Arc<PartitionedDb>, TableId) {
        let mut b = PartitionedDb::builder(2);
        let t = b.add_table(
            "kv",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
            RouteStrategy::Range(vec![100]),
        );
        b.with_options(options);
        let pdb = b.build();
        for k in [1u64, 2, 150, 151] {
            pdb.insert(t, k, Row::from(vec![Value::U64(k), Value::I64(0)]));
        }
        (pdb, t)
    }

    #[test]
    fn shards_hold_only_their_keys() {
        let (pdb, t) = two_part_db();
        assert_eq!(pdb.table(PartitionId(0), t).len(), 2);
        assert_eq!(pdb.table(PartitionId(1), t).len(), 2);
        assert!(pdb.table(PartitionId(0), t).get(1).is_some());
        assert!(pdb.table(PartitionId(0), t).get(150).is_none());
        assert!(pdb.table(PartitionId(1), t).get(150).is_some());
        assert_eq!(pdb.total_rows(), 4);
    }

    #[test]
    fn table_for_resolves_remote_keys_from_any_partition() {
        let (pdb, t) = two_part_db();
        for p in [PartitionId(0), PartitionId(1)] {
            let db = pdb.db(p);
            assert_eq!(db.partition_id(), p);
            assert!(db.table_for(t, 1).get(1).is_some());
            assert!(db.table_for(t, 150).get(150).is_some());
        }
    }

    /// `Txn::prefetch` is a hint: on a key the other partition owns, a
    /// replicated table's key or an absent key, in a locking transaction
    /// and in a snapshot, it leaves the attempt and every lock entry as
    /// they were.
    #[test]
    fn prefetch_leaves_the_transaction_untouched() {
        let schema = || {
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64)
        };
        let mut b = PartitionedDb::builder(2);
        let kv = b.add_table("kv", schema(), RouteStrategy::Range(vec![100]));
        let refs = b.add_table("refs", schema(), RouteStrategy::Replicated);
        let pdb = b.build();
        let row = |k: u64| Row::from(vec![Value::U64(k), Value::I64(0)]);
        for k in [1u64, 150] {
            pdb.insert(kv, k, row(k));
        }
        pdb.insert_replicated(refs, 7, row(7));
        let quiescent = || {
            pdb.parts().iter().all(|p| {
                [kv, refs].iter().all(|&t| {
                    let table = p.db().table(t);
                    (0..table.len() as u64).all(|r| {
                        table
                            .get_by_row_id(r)
                            .is_some_and(|tup| tup.meta.lock.lock().is_quiescent())
                    })
                })
            })
        };
        let s = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
        for snapshot in [false, true] {
            let txn = if snapshot {
                s.snapshot_on(PartitionId(0))
            } else {
                s.begin_on(PartitionId(0))
            };
            // Remote, replicated, absent (routed both ways), then local.
            txn.prefetch([
                (kv, 150),
                (refs, 7),
                (kv, 99),
                (kv, 500),
                (refs, 8),
                (kv, 1),
            ]);
            assert!(txn.ctx().accesses.is_empty(), "snapshot={snapshot}");
            assert!(txn.ctx().inserts.is_empty());
            assert_eq!(txn.locks_acquired(), 0);
            assert!(quiescent(), "snapshot={snapshot}");
            txn.commit().unwrap();
        }
        assert_eq!(pdb.total_rows(), 4, "nothing was inserted");
    }

    #[test]
    fn partitions_share_the_commit_clock_and_txn_ids() {
        let (pdb, _t) = two_part_db();
        let a = pdb.db(PartitionId(0));
        let b = pdb.db(PartitionId(1));
        let id_a = a.next_txn_id();
        let id_b = b.next_txn_id();
        assert_ne!(id_a, id_b, "txn ids come from one shared source");
        let ts = a.commit_clock.allocate();
        a.note_commit(ts);
        assert_eq!(b.commit_clock.stable(), ts, "one clock across partitions");
    }

    /// A two-partition database logging to segment files in a fresh
    /// temp dir (no fsync: the tests read the log back, they do not crash).
    fn durable_two_part_db(tag: &str) -> (Arc<PartitionedDb>, TableId, bamboo_storage::LogDir) {
        let dir = std::env::temp_dir().join(format!("bamboo-part-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DbOptions::new().with_wal_dir(&dir);
        let log = options.log_dir().expect("wal dir set");
        let (pdb, t) = two_part_db_with(options);
        (pdb, t, log)
    }

    #[test]
    fn commits_without_a_wal_dir_log_to_the_session_ring() {
        let (pdb, t) = two_part_db();
        let s = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
        let mut txn = s.begin_on(PartitionId(1));
        txn.update(t, 150, |r| r.set(1, Value::I64(7))).unwrap();
        txn.commit().unwrap();
        // Cross-partition, homed on 0: still one record, on the committing
        // session's ring.
        let mut txn = s.begin_on(PartitionId(0));
        txn.update(t, 1, |r| r.set(1, Value::I64(-5))).unwrap();
        txn.update(t, 151, |r| r.set(1, Value::I64(5))).unwrap();
        txn.commit().unwrap();
        assert_eq!(s.session(PartitionId(0)).log_records(), 1);
        assert_eq!(s.session(PartitionId(1)).log_records(), 1);
        assert_eq!(pdb.log_records(), 0, "no wal dir: no partition logs");
    }

    #[test]
    fn single_partition_txn_commits_on_home_wal() {
        let (pdb, t, log) = durable_two_part_db("home");
        let s = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
        let mut txn = s.begin_on(PartitionId(1));
        txn.update(t, 150, |r| r.set(1, Value::I64(7))).unwrap();
        txn.commit().unwrap();
        assert_eq!(pdb.part(PartitionId(1)).wal().records(), 1);
        assert_eq!(pdb.part(PartitionId(0)).wal().records(), 0);
        assert_eq!(s.session(PartitionId(1)).log_records(), 0, "ring unused");
        let _ = std::fs::remove_dir_all(log.path());
    }

    #[test]
    fn cross_partition_txn_logs_to_both_wals_with_one_commit_ts() {
        use bamboo_storage::WalRecord;
        let (pdb, t, log) = durable_two_part_db("cross");
        let s = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
        let mut txn = s.begin_on(PartitionId(0));
        txn.update(t, 1, |r| r.set(1, Value::I64(-5))).unwrap();
        txn.update(t, 151, |r| r.set(1, Value::I64(5))).unwrap();
        txn.commit().unwrap();
        // The durable group format: a group on each written partition,
        // both carrying the one commit timestamp and the full mask.
        let begins: Vec<(u64, u64)> = (0..2)
            .map(|p| {
                // `Never` leaves the group in the writer's buffer.
                pdb.part(PartitionId(p)).wal().sync().unwrap();
                let scan = log.scan_partition_from(p, 0).unwrap();
                let begins: Vec<_> = scan
                    .records
                    .iter()
                    .filter_map(|(_, r)| match r {
                        WalRecord::Begin {
                            commit_ts,
                            parts_mask,
                            ..
                        } => Some((*commit_ts, *parts_mask)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(begins.len(), 1, "one group on partition {p}");
                begins[0]
            })
            .collect();
        assert_eq!(begins[0], begins[1], "one commit_ts, one mask");
        assert_eq!(begins[0].1, 0b11, "the mask names both partitions");
        // The installs carry that same timestamp.
        let ts0 = pdb.table(PartitionId(0), t).get(1).unwrap().commit_ts();
        let ts1 = pdb.table(PartitionId(1), t).get(151).unwrap().commit_ts();
        assert_eq!((ts0, ts1), (begins[0].0, begins[0].0));
        let _ = std::fs::remove_dir_all(log.path());
    }

    #[test]
    fn snapshot_on_any_partition_is_globally_consistent() {
        let (pdb, t) = two_part_db();
        let s = PartSession::new(Arc::clone(&pdb), Arc::new(LockingProtocol::bamboo()));
        // Transfer 10 from key 1 (p0) to key 151 (p1), twice.
        for _ in 0..2 {
            let mut txn = s.begin_on(PartitionId(0));
            txn.update(t, 1, |r| r.set(1, Value::I64(r.get_i64(1) - 10)))
                .unwrap();
            txn.update(t, 151, |r| r.set(1, Value::I64(r.get_i64(1) + 10)))
                .unwrap();
            txn.commit().unwrap();
        }
        // A snapshot homed on partition 1 must see a balanced total.
        let mut snap = s.snapshot_on(PartitionId(1));
        let a = snap.read(t, 1).unwrap().get_i64(1);
        let b = snap.read(t, 151).unwrap().get_i64(1);
        assert_eq!(a + b, 0, "snapshot must never observe a torn transfer");
        snap.commit().unwrap();
    }

    #[test]
    fn replicated_tables_resolve_locally() {
        let mut b = PartitionedDb::builder(2);
        let t = b.add_table(
            "ref",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
            RouteStrategy::Replicated,
        );
        let pdb = b.build();
        pdb.insert_replicated(t, 5, Row::from(vec![Value::U64(5), Value::I64(9)]));
        for p in [PartitionId(0), PartitionId(1)] {
            let db = pdb.db(p);
            let local = db.table_for(t, 5);
            assert!(Arc::ptr_eq(local, db.table(t)), "replicated stays local");
            assert_eq!(local.get(5).unwrap().read_row().get_i64(1), 9);
        }
    }

    #[test]
    fn options_flow_into_every_partition() {
        let mut b = PartitionedDb::builder(2);
        b.add_table(
            "kv",
            Schema::build().column("k", DataType::U64),
            RouteStrategy::Hash,
        );
        b.with_options(DbOptions::new().with_epoch_commits(8));
        let pdb = b.build();
        for p in [PartitionId(0), PartitionId(1)] {
            assert_eq!(pdb.db(p).options().epoch_commits, 8);
        }
        // The watermark-publish tick fires on the shared clock at the
        // configured period: not at commit 7, at commit 8.
        let db = pdb.db(PartitionId(0));
        for _ in 0..7 {
            let ts = db.commit_clock.allocate();
            db.note_commit(ts);
        }
        assert_eq!(db.gc_watermark(), 0);
        let ts = db.commit_clock.allocate();
        db.note_commit(ts);
        assert_eq!(pdb.db(PartitionId(1)).gc_watermark(), 8);
    }
}
