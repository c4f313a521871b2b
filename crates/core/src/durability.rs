//! Durability orchestration: fuzzy checkpoints and crash recovery for the
//! partitioned database.
//!
//! The storage layer ([`bamboo_storage::log`]) owns the file formats —
//! segment framing, record codec, checkpoint files. This module owns the
//! *protocol* above them:
//!
//! * [`PartitionedDb::checkpoint`] takes a **fuzzy checkpoint** while
//!   transactions keep committing: it pins the GC watermark with a
//!   snapshot registration, captures each partition's log high-water LSN
//!   (the replay *cuts*), fences a commit-clock bound `S` and waits for
//!   every commit at or below it to finish installing, then dumps each
//!   shard's tuples *as of `S`* through the MVCC version chains. The data
//!   files are written first and the meta file last — the meta file's
//!   presence is what makes a checkpoint complete, so a crash mid-dump
//!   leaves the previous checkpoint authoritative.
//! * [`PartitionedDb::recover`] rebuilds a database from the newest
//!   complete checkpoint plus the per-partition logs: ARIES-style
//!   *analysis* (scan from the cuts, group records into transactions,
//!   check cross-partition completeness against each record's partition
//!   mask) followed by *redo* (replay committed groups in commit-timestamp
//!   order, guarded per tuple so replay is idempotent). There is no undo
//!   pass: the commit pipeline logs **after** the commit-point CAS, so
//!   uncommitted work never reaches a segment.
//!
//! # Replayability: one rule
//!
//! Within one partition the log is written by a single appender under the
//! WAL lock, so whatever survives a crash is a byte-prefix of what was
//! written, and a transaction's record group (`Begin … Commit`) is never
//! interleaved with another group or split by a checkpoint cut. Across
//! partitions, a transaction is replayable iff its group is complete on
//! *every* partition in its mask.
//!
//! Recovery keeps a timestamp-prefix of the commit order: the **horizon
//! cut** discards every transaction with a commit timestamp at or above
//! the oldest incomplete transaction's. Dependency closure holds because a
//! reader's group always sits above its writer's group on the shared
//! partition's log — if the reader survived the prefix, so did the writer
//! (or the writer is incomplete elsewhere and the horizon removes both).
//! Early lock release makes the cut necessary: a commit installs before
//! the fsync that makes it durable, so a dependent that is durable on its
//! own partitions can outlive a writer that never became durable
//! elsewhere.
//!
//! The cut never discards an acknowledged commit, because every
//! acknowledgment waits for the horizon. Under
//! [`bamboo_storage::FsyncPolicy::GroupCommit`] a commit `T` is
//! acknowledged only once every commit with a timestamp at or below `T`'s
//! is durable on all its partitions, so the oldest incomplete transaction
//! — and hence the cut — sits strictly above `T`. Short of a crash (or the
//! double fault `DURABILITY.md` names), nothing leaves an incomplete group
//! behind: a commit whose append fails on one partition cuts the groups it
//! landed on the others back out before it is revoked
//! (`append_groups` in [`crate::wal`]), so no orphan sits in the middle
//! of a log. Under [`bamboo_storage::FsyncPolicy::Never`]
//! acknowledgments promise nothing, and the cut loses a suffix at most.
//! See `DURABILITY.md` "Group commit".
//!
//! Recovery ends by taking a fresh checkpoint of the recovered state, so
//! the ambiguous log region behind it is never scanned again — running
//! recovery twice (or crashing *during* recovery, before the new meta file
//! lands) converges to the same state.
//!
//! Loader-path inserts ([`PartitionedDb::insert`]) bypass the WAL; a
//! durable database must checkpoint after loading (the *genesis*
//! checkpoint) or the loaded rows are not recoverable — `recover` fails
//! cleanly when no checkpoint exists.
//!
//! Durable replay is defined for the whole-row-install protocols (the 2PL
//! family and Silo). IC3 installs column-masked merges, which a full-row
//! after-image cannot capture raceless-ly, so sessions refuse to bind it
//! to a database with a `wal_dir`
//! ([`Protocol::redo_replayable`](crate::protocol::Protocol::redo_replayable);
//! see `DURABILITY.md`).

use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::sync::Arc;

use bamboo_storage::log::{
    CheckpointMeta, CheckpointPart, LogScan, Lsn, TableDump, TableMeta, WalRecord,
};
use bamboo_storage::{BuildKeyHasher, PartitionId, TableId};

use crate::db::DbOptions;
use crate::partition::{per_partition, PartitionedDb};
use crate::sync::atomic::Ordering;

/// What [`PartitionedDb::recover`] did, for observability and tests.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Stable bound of the checkpoint recovery started from.
    pub checkpoint_ts: u64,
    /// Tuples restored from the checkpoint dump (all shards).
    pub restored_tuples: u64,
    /// Committed transactions replayed from the logs.
    pub replayed_txns: u64,
    /// Individual redo records applied.
    pub replayed_writes: u64,
    /// Transactions dropped because a partition's group was missing or
    /// unterminated: a crash landed inside the commit's appends, or before
    /// one of its groups was durable. Never an acknowledged commit.
    pub dropped_incomplete: u64,
    /// Complete transactions discarded by the horizon cut.
    pub dropped_horizon: u64,
    /// Partitions whose log ended in a torn (checksum-failing) tail.
    pub torn_partitions: u32,
    /// The commit timestamp the clock resumed from.
    pub recovered_ts: u64,
}

/// One transaction reassembled during the analysis pass. Its redo
/// records stay in the partitions' scans.
struct TxnGroup {
    commit_ts: u64,
    /// Partitions the transaction declared it would log to.
    parts_mask: u64,
    /// Partitions a *complete* group was found on.
    seen_mask: u64,
}

impl TxnGroup {
    /// Whether a complete group was found on every declared partition.
    fn complete(&self) -> bool {
        self.seen_mask & self.parts_mask == self.parts_mask
    }
}

impl PartitionedDb {
    /// Takes a fuzzy checkpoint of the whole database and returns its
    /// stable bound. See the module docs for the algorithm; requires a
    /// durable WAL ([`DbOptions::with_wal_dir`]).
    pub fn checkpoint(&self) -> io::Result<u64> {
        let db0 = self.db(PartitionId(0));
        let dir = db0
            .options()
            .log_dir()
            .expect("checkpoint requires a durable WAL (DbOptions::with_wal_dir)");
        // The currently-newest complete checkpoint (if any) is about to
        // become second-newest: its cuts bound what log compaction below
        // may retire.
        let prev = dir.latest_checkpoint()?;
        // A degraded partition has no trustworthy log high-water mark (its
        // writer is torn down), so a checkpoint taken now could record a
        // replay cut that skips whatever its log actually holds. Refuse —
        // heal first.
        if self.degraded_partitions() > 0 {
            return Err(io::Error::other(
                "checkpoint requires every partition healthy (heal degraded partitions first)",
            ));
        }
        // 1. Pin the GC watermark: versions needed by the dump below can
        //    not be reclaimed while this grant is live.
        let grant = db0.register_snapshot();
        // 2. Capture the replay cuts. `current_lsn` takes each WAL lock,
        //    and appends hold it for a whole record group, so a cut never
        //    lands inside a group. Any commit with ts > S that logged
        //    *before* its cut was captured is replayed redundantly and
        //    absorbed by the per-tuple guards.
        let cuts: Vec<Lsn> = self.parts().iter().map(|p| p.wal().current_lsn()).collect();
        // 3. Fence the stable bound: S is below every timestamp allocated
        //    after the cuts, and waiting for stable >= S means every
        //    commit at or below S finished installing before the dump.
        let stable_ts = db0.commit_clock.next().saturating_sub(1);
        while db0.commit_clock.stable() < stable_ts {
            std::thread::yield_now();
        }
        // 4. Schema-level metadata, from partition 0's catalog (identical
        //    on every shard) and the router.
        let tables: Vec<TableMeta> = db0
            .catalog()
            .tables()
            .iter()
            .enumerate()
            .map(|(i, t)| TableMeta {
                name: t.name.clone(),
                schema: t.schema.clone(),
                route: self.router().strategy(TableId(i as u32)).clone(),
                ordered: t.ordered_index().is_some(),
                secondary: self
                    .parts()
                    .iter()
                    .map(|p| p.db().table(TableId(i as u32)).secondary_count())
                    .max()
                    .unwrap_or(0) as u32,
            })
            .collect();
        // 5. Dump every shard as of S, one thread per partition, then
        //    write the data files. The meta file goes last — its presence
        //    is what commits the checkpoint.
        per_partition(self.partitions(), |p| {
            dir.write_checkpoint_part(&CheckpointPart {
                stable_ts,
                partition: p,
                tables: self.dump_shard(PartitionId(p), stable_ts),
            })
        })
        .into_iter()
        .collect::<io::Result<Vec<()>>>()?;
        dir.write_checkpoint_meta(&CheckpointMeta {
            stable_ts,
            partitions: self.partitions(),
            tables,
            cuts: cuts.clone(),
        })?;
        // 6. Drop a checkpoint marker into every partition's log (scan
        //    diagnostics; recovery itself reads the meta file). The
        //    checkpoint is already committed by the meta file above, so a
        //    marker failure does not invalidate it — the handle degrades
        //    itself (observable via `degraded_partitions`) and later
        //    commits abort fast until healed.
        for p in self.parts() {
            let _ = p.wal().append_checkpoint(stable_ts, &cuts);
        }
        // 7. Log compaction, one checkpoint behind: retire sealed segments
        //    wholly below the *previous* complete checkpoint's cuts. The
        //    log needed by the checkpoint that just landed stays intact,
        //    and so does everything the previous checkpoint could replay —
        //    recovery can still fall back one checkpoint if this one's
        //    meta file turns out to be the casualty of the next crash.
        //    Best-effort: a failed delete only postpones reclamation.
        if let Some(prev) = prev {
            if prev.cuts.len() == self.partitions() as usize {
                for p in 0..self.partitions() {
                    if let Ok(n) = dir.retire_segments_below(p, prev.cuts[p as usize]) {
                        self.note_segments_retired(n);
                    }
                }
            }
        }
        db0.release_snapshot(grant);
        Ok(stable_ts)
    }

    /// Dumps one partition shard's tables as of `stable_ts`: tuples in
    /// insertion order through the version chains, and the secondary
    /// postings whose tuple is visible at `stable_ts`, as they are
    /// (`(secondary key, primary key)` pairs).
    fn dump_shard(&self, p: PartitionId, stable_ts: u64) -> Vec<TableDump> {
        let db = self.db(p);
        db.catalog()
            .tables()
            .iter()
            .map(|table| {
                let mut dump = TableDump::default();
                for n in 0..table.len() as u64 {
                    let tuple = table.get_by_row_id(n).expect("slab positions are dense");
                    if let Some((ts, row)) = tuple.read_version_at(stable_ts) {
                        dump.tuples.push((tuple.key, ts, row));
                    }
                }
                for slot in 0..table.secondary_count() {
                    let postings = table
                        .secondary_index(slot)
                        .entries()
                        .into_iter()
                        .filter(|&(_, key)| {
                            table.get_ref(key).is_some_and(|t| t.visible_at(stable_ts))
                        })
                        .collect();
                    dump.secondary.push(postings);
                }
                dump
            })
            .collect()
    }

    /// Rebuilds a partitioned database from the durable state in
    /// `opts.wal_dir`: newest complete checkpoint + per-partition log
    /// replay. Returns the recovered database (with fresh durable WAL
    /// writers resuming at the log end) and a [`RecoveryReport`].
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] when the directory holds
    /// no complete checkpoint (a durable database must checkpoint once
    /// after loading).
    pub fn recover(opts: DbOptions) -> io::Result<(Arc<PartitionedDb>, RecoveryReport)> {
        let dir = opts
            .log_dir()
            .expect("recover requires a durable WAL (DbOptions::with_wal_dir)");
        let meta = dir.latest_checkpoint()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "no complete checkpoint found (durable databases checkpoint after loading)",
            )
        })?;
        let parts_n = meta.partitions;
        assert_eq!(meta.cuts.len(), parts_n as usize, "corrupt checkpoint meta");

        // Analysis 1/2: scan every partition's log from its cut, in
        // parallel. Scans stop cleanly at a torn or corrupt frame.
        let scans = per_partition(parts_n, |p| {
            dir.scan_partition_from(p, meta.cuts[p as usize])
        })
        .into_iter()
        .collect::<io::Result<Vec<LogScan>>>()?;
        let mut report = RecoveryReport {
            checkpoint_ts: meta.stable_ts,
            torn_partitions: scans.iter().filter(|s| s.torn).count() as u32,
            ..RecoveryReport::default()
        };

        // Analysis 2/2: reassemble transactions across partitions, keyed
        // by txn id (logs hold tens of thousands of groups, so lookup must
        // not be linear). Each partition's complete groups are kept as
        // ranges into its own scan, which redo reads in place.
        let mut groups: HashMap<u64, TxnGroup, BuildKeyHasher> = HashMap::default();
        let mut shares: Vec<Vec<(u64, Range<usize>)>> = vec![Vec::new(); parts_n as usize];
        let mut max_txn_id = 0u64;
        for (p, scan) in scans.iter().enumerate() {
            let mut open: Option<(u64, u64, usize)> = None;
            for (i, (_, rec)) in scan.records.iter().enumerate() {
                match *rec {
                    WalRecord::Begin {
                        txn_id,
                        commit_ts,
                        parts_mask,
                    } => {
                        max_txn_id = max_txn_id.max(txn_id);
                        debug_assert!(open.is_none(), "record groups never interleave");
                        open = Some((txn_id, commit_ts, i + 1));
                        groups.entry(txn_id).or_insert(TxnGroup {
                            commit_ts,
                            parts_mask,
                            seen_mask: 0,
                        });
                    }
                    WalRecord::Commit { txn_id, .. } => {
                        if let Some((id, commit_ts, first)) = open.take() {
                            debug_assert_eq!(id, txn_id, "Commit closes its own Begin");
                            let g = groups.get_mut(&id).expect("Begin registered the group");
                            g.seen_mask |= 1u64 << p;
                            shares[p].push((commit_ts, first..i));
                        }
                    }
                    _ => {}
                }
            }
            // An unterminated group at the tail: the crash landed inside
            // the append. The transaction is incomplete by construction.
        }
        // The horizon cut (see module docs): the oldest incomplete commit
        // timestamp bounds what replays. Every transaction below it is
        // complete, so a partition's share is its groups below it.
        let horizon = groups
            .values()
            .filter(|g| !g.complete())
            .map(|g| g.commit_ts)
            .min()
            .unwrap_or(u64::MAX);
        let mut max_ts = meta.stable_ts;
        for g in groups.values() {
            if !g.complete() {
                report.dropped_incomplete += 1;
            } else if g.commit_ts >= horizon {
                report.dropped_horizon += 1;
            } else {
                report.replayed_txns += 1;
                max_ts = max_ts.max(g.commit_ts);
            }
        }
        for share in &mut shares {
            share.retain(|&(ts, _)| ts < horizon);
            share.sort_by_key(|&(ts, _)| ts);
        }

        // Rebuild the catalog shards from the checkpoint's table metadata.
        // `build` opens fresh durable segment writers (truncating any torn
        // tail) — after the scans above, so nothing is lost to that.
        let mut builder = PartitionedDb::builder(parts_n);
        for m in &meta.tables {
            builder.add_table(&m.name, m.schema.clone(), m.route.clone());
        }
        builder.with_options(opts);
        let pdb = builder.build();
        for (i, m) in meta.tables.iter().enumerate() {
            for p in pdb.parts() {
                let table = p.db().table(TableId(i as u32));
                for _ in 0..m.secondary {
                    table.add_secondary_index();
                }
            }
        }

        // Restore, then redo, one thread per partition. The checkpoint
        // image goes in first: tuples in dump order with their dumped
        // version timestamps, postings as they were dumped. Then the
        // partition's share of every kept transaction replays in
        // commit-timestamp order. A partition's log holds only writes
        // routed to it, so shares touch disjoint shards; the per-tuple
        // timestamp guards make replay idempotent.
        let per_part = per_partition(parts_n, |p| -> io::Result<(u64, u64)> {
            let db = pdb.db(PartitionId(p));
            let part = dir.read_checkpoint_part(meta.stable_ts, p)?;
            let mut restored = 0u64;
            for (t, dump) in part.tables.into_iter().enumerate() {
                let table = db.table(TableId(t as u32));
                restored += dump.tuples.len() as u64;
                for (key, ts, row) in dump.tuples {
                    table.insert_at(key, row, ts);
                }
                for (slot, postings) in dump.secondary.into_iter().enumerate() {
                    let idx = table.secondary_index(slot);
                    for (skey, primary) in postings {
                        idx.insert(skey, primary);
                    }
                }
            }
            let records = &scans[p as usize].records;
            let mut applied = 0u64;
            for (ts, range) in &shares[p as usize] {
                for (_, rec) in &records[range.clone()] {
                    applied += u64::from(replay_record(db, *ts, rec));
                }
            }
            Ok((restored, applied))
        });
        for r in per_part {
            let (restored, applied) = r?;
            report.restored_tuples += restored;
            report.replayed_writes += applied;
        }

        // Resume the commit pipeline where the replayed history ends.
        let db0 = pdb.db(PartitionId(0));
        db0.commit_clock.restore(max_ts);
        // ordering: Release — the recovered watermark must be visible to
        // any thread that later observes the database; no concurrent
        // readers exist yet.
        db0.watermark.store(max_ts, Ordering::Release);
        // ordering: Relaxed — single-threaded at this point; the id source
        // only needs to resume above every replayed transaction id.
        db0.txn_ids
            .store(max_txn_id.saturating_add(1), Ordering::Relaxed);
        for (i, m) in meta.tables.iter().enumerate() {
            if m.ordered {
                pdb.enable_ordered_index(TableId(i as u32));
            }
        }
        report.recovered_ts = max_ts;

        // Seal recovery with a fresh checkpoint: its cuts sit at the new
        // writers' LSNs, past any dropped or ambiguous log region, so a
        // second recovery (or a crash right now) converges to this state.
        pdb.checkpoint()?;
        Ok((pdb, report))
    }
}

/// Applies one redo record to a partition shard. Returns whether it took
/// effect (guards make redo idempotent: a tuple already at or above the
/// record's timestamp is left alone).
fn replay_record(db: &crate::db::Database, ts: u64, rec: &WalRecord) -> bool {
    match rec {
        WalRecord::Update { table, key, row } => {
            let t = db.table(TableId(*table));
            match t.get(*key) {
                Some(tuple) if tuple.commit_ts() >= ts => false,
                Some(tuple) => {
                    tuple.install_versioned(row.clone(), ts, 0);
                    true
                }
                // An update to a key neither in the checkpoint nor
                // inserted by an earlier replayed group cannot happen on a
                // well-formed log; restore it defensively.
                None => {
                    t.insert_at(*key, row.clone(), ts);
                    true
                }
            }
        }
        WalRecord::Insert {
            table,
            key,
            row,
            secondary,
        } => {
            let t = db.table(TableId(*table));
            if t.contains(*key) {
                return false;
            }
            t.insert_at(*key, row.clone(), ts);
            if let Some((slot, skey)) = secondary {
                t.secondary_index(*slot as usize).insert(*skey, *key);
            }
            true
        }
        _ => false,
    }
}
