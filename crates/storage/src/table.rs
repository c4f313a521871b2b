//! Tables and tuples.
//!
//! A [`Table`] owns its tuples and a primary-key hash index. Each [`Tuple`]
//! carries its committed [`VersionChain`] (newest image + older versions
//! retained for live snapshots) behind a `RwLock`, plus a generic `meta`
//! slot where the concurrency-control layer keeps its per-tuple state (lock
//! entry with `owners`/`waiters`/`retired` lists for the 2PL family, TID
//! word for Silo, accessor lists for IC3 — see `bamboo-core`).
//!
//! A tuple has one name, its primary key: the primary-key index maps a key
//! straight to its tuple's `Arc`, so a point lookup is one latch-free shard
//! probe (see [`crate::index`]), and the secondary and ordered indexes hold
//! primary keys too. Beside the index, every tuple also sits in an
//! append-only slab in insertion order. The slab names nothing: it serves
//! `len`, dense walks (checkpoint dumps, [`Table::get_by_row_id`]) and the
//! ordered index's backfill, none of which the index can answer without a
//! walk over its shards.
//!
//! [`Table::prefetch`] is a cache hint with no semantic effect: it asks the
//! CPU to start loading a tuple's cache lines, so a caller that knows its
//! keys ahead of time can overlap the misses into cold tuples with other
//! work instead of taking them one at a time. It reads the index without
//! cloning the tuple's `Arc`, records nothing and changes nothing; a
//! program with every hint removed behaves identically. A second level
//! goes one pointer further: [`Table::get_ref`] borrows a tuple without a
//! refcount write, and [`Tuple::prefetch_row`] loads its newest image's
//! allocation. Every hint ends in [`prefetch_allocation`], which covers
//! any byte range (a tuple, a row image, a lock list's buffer); its
//! prefetch instruction is the one `unsafe` block in the workspace.

use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::index::{SecondaryIndex, ShardedIndex};
use crate::ordered::OrderedIndex;
use crate::row::Row;
use crate::schema::Schema;
use crate::version::VersionChain;

/// A physical tuple: committed version chain + protocol metadata.
pub struct Tuple<M> {
    /// Primary key the tuple was inserted under.
    pub key: u64,
    /// Committed images: the current row plus older versions retained for
    /// live snapshots. Protocols install new versions at commit.
    data: RwLock<VersionChain>,
    /// Per-tuple concurrency-control metadata.
    pub meta: M,
}

impl<M> Tuple<M> {
    /// The newest committed row. The returned [`Row`] shares the committed
    /// image (a refcount bump under the chain's read latch); writing to it
    /// copies the image first, so the tuple never sees the write.
    #[inline]
    pub fn read_row(&self) -> Row {
        self.data.read().latest().clone()
    }

    /// Applies `f` to the newest committed row without cloning it.
    #[inline]
    pub fn with_row<R>(&self, f: impl FnOnce(&Row) -> R) -> R {
        f(self.data.read().latest())
    }

    /// Overwrites the newest committed image in place without creating a
    /// version (legacy install path; snapshot visibility is unchanged).
    #[inline]
    pub fn install(&self, row: Row) {
        self.data.write().overwrite(row);
    }

    /// Installs `row` as a new committed version at `commit_ts` (MVCC
    /// commit path): the previous image goes onto the version chain, or is
    /// dropped at once when `commit_ts` is at or below `watermark`, and
    /// versions no snapshot at or above `watermark` can see are collected
    /// ([`VersionChain::install_at`]).
    #[inline]
    pub fn install_versioned(&self, row: Row, commit_ts: u64, watermark: u64) {
        self.data.write().install_at(row, commit_ts, watermark);
    }

    /// [`Tuple::install_versioned`] with an explicit version-chain trim
    /// threshold, which the trim ignores (see [`VersionChain::install_at_with`]).
    #[inline]
    pub fn install_versioned_with(
        &self,
        row: Row,
        commit_ts: u64,
        watermark: u64,
        trim_threshold: usize,
    ) {
        self.data
            .write()
            .install_at_with(row, commit_ts, watermark, trim_threshold);
    }

    /// Reclaims the versions no snapshot at or above `watermark` can see
    /// ([`VersionChain::gc`]) under the chain's write latch, and nothing
    /// else: the newest image and every version a live snapshot may read
    /// stay. A writer calls it just before it copies the row, so the copy
    /// reuses the allocation the dead image frees.
    #[inline]
    pub fn trim_versions(&self, watermark: u64) {
        self.data.write().gc(watermark);
    }

    /// The newest version visible at snapshot timestamp `snap`, or `None`
    /// when the tuple was inserted after the snapshot was taken.
    #[inline]
    pub fn read_at(&self, snap: u64) -> Option<Row> {
        self.data.read().read_at(snap).cloned()
    }

    /// The newest version visible at `snap` together with its commit
    /// timestamp (the checkpoint dump path).
    #[inline]
    pub fn read_version_at(&self, snap: u64) -> Option<(u64, Row)> {
        self.data
            .read()
            .version_at(snap)
            .map(|(ts, row)| (ts, row.clone()))
    }

    /// True when some version of this tuple is visible at `snap`.
    #[inline]
    pub fn visible_at(&self, snap: u64) -> bool {
        self.data.read().visible_at(snap)
    }

    /// Hints the CPU to load the newest committed image's allocation (its
    /// refcounts and values), which the next grant clones or copies. Holds
    /// the chain's read latch for the hint only; changes no refcount and
    /// records nothing.
    #[inline]
    pub fn prefetch_row(&self) {
        prefetch_arc(self.data.read().latest().image());
    }

    /// Commit timestamp of the newest committed image (0 for loader rows).
    #[inline]
    pub fn commit_ts(&self) -> u64 {
        self.data.read().latest_ts()
    }

    /// Number of retained older versions (0 when only the newest image
    /// exists).
    #[inline]
    pub fn retained_versions(&self) -> usize {
        self.data.read().retained()
    }
}

/// A named table: schema + tuple slab + primary-key index + optional
/// secondary indexes.
pub struct Table<M> {
    /// Table name (unique within a catalog).
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    slab: RwLock<Vec<Arc<Tuple<M>>>>,
    pk_index: ShardedIndex<Arc<Tuple<M>>>,
    secondary: RwLock<Vec<Arc<SecondaryIndex>>>,
    /// Set once, by [`Table::enable_ordered_index`]; an insert reads it
    /// without a latch.
    ordered: OnceLock<Arc<OrderedIndex>>,
}

impl<M: Default> Table<M> {
    /// Creates an empty table.
    pub fn new(name: &str, schema: Schema) -> Self {
        Self::with_capacity(name, schema, 0)
    }

    /// Creates an empty table pre-sized for `cap` tuples.
    pub fn with_capacity(name: &str, schema: Schema, cap: usize) -> Self {
        Table {
            name: name.to_owned(),
            schema,
            slab: RwLock::new(Vec::with_capacity(cap)),
            pk_index: ShardedIndex::with_capacity(cap).with_growth_hint(prefetch_arc),
            secondary: RwLock::new(Vec::new()),
            ordered: OnceLock::new(),
        }
    }

    /// Inserts a new tuple under primary key `key`. Returns the tuple.
    ///
    /// Duplicate keys panic: the workloads generate unique keys and a
    /// violation indicates a generator bug, not a runtime condition. (The
    /// concurrency-control layer is responsible for logical visibility of
    /// inserts; storage-level insert is immediately visible, matching
    /// DBx1000.)
    pub fn insert(&self, key: u64, row: Row) -> Arc<Tuple<M>> {
        self.insert_at(key, row, crate::version::TS_LOADER)
    }

    /// Inserts a new tuple whose first version is committed at `commit_ts`:
    /// snapshots older than `commit_ts` do not see it (transactional
    /// inserts applied at commit). Duplicate keys panic, as in
    /// [`Table::insert`].
    ///
    /// The tuple joins the slab before the insert looks for the ordered
    /// index, and [`Table::enable_ordered_index`] backfills from the slab
    /// under its write latch before it sets the index: so an insert racing
    /// the enable is in the backfill or sees the index (or both; the index
    /// is a set).
    pub fn insert_at(&self, key: u64, row: Row, commit_ts: u64) -> Arc<Tuple<M>> {
        debug_assert!(self.schema.validate(row.values()).is_ok());
        let tuple = Arc::new(Tuple {
            key,
            data: RwLock::new(VersionChain::new_at(row, commit_ts)),
            meta: M::default(),
        });
        self.slab.write().push(Arc::clone(&tuple));
        let prev = self.pk_index.insert(key, Arc::clone(&tuple));
        assert!(
            prev.is_none(),
            "duplicate primary key {key} in {}",
            self.name
        );
        if let Some(idx) = self.ordered.get() {
            idx.insert(key);
        }
        tuple
    }
}

impl<M> Table<M> {
    /// Primary-key point lookup.
    #[inline]
    pub fn get(&self, key: u64) -> Option<Arc<Tuple<M>>> {
        self.pk_index.get(key).cloned()
    }

    /// True when a tuple is stored under `key`. Touches the index only: the
    /// tuple's refcount line is not written, as a `get` would write it.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.pk_index.contains(key)
    }

    /// Primary-key point lookup that borrows the tuple instead of cloning
    /// its `Arc`, so the tuple's refcount line is not written. The borrow
    /// lives as long as the table: no tuple leaves the index.
    #[inline]
    pub fn get_ref(&self, key: u64) -> Option<&Tuple<M>> {
        self.pk_index.get(key).map(|tuple| &**tuple)
    }

    /// Hints the CPU to load every cache line of `key`'s tuple (module
    /// docs): one index probe, no refcount change, nothing recorded. A
    /// no-op for an absent key, and on targets other than `x86_64`.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        if let Some(tuple) = self.pk_index.get(key) {
            prefetch_arc(tuple);
        }
    }

    /// The `n`-th tuple inserted into this table object (0-based), for a
    /// dense walk over `0..len()`. Positions are not stable across
    /// recovery: a restored table is rebuilt in checkpoint-dump order. To
    /// name a tuple, use its primary key.
    #[inline]
    pub fn get_by_row_id(&self, n: u64) -> Option<Arc<Tuple<M>>> {
        self.slab.read().get(n as usize).cloned()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.slab.read().len()
    }

    /// True when the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers a new secondary index and returns its handle; the caller
    /// (workload loader) maintains it explicitly on insert.
    pub fn add_secondary_index(&self) -> Arc<SecondaryIndex> {
        let idx = Arc::new(SecondaryIndex::new());
        self.secondary.write().push(Arc::clone(&idx));
        idx
    }

    /// Secondary index `i` (panics when out of range).
    pub fn secondary_index(&self, i: usize) -> Arc<SecondaryIndex> {
        Arc::clone(&self.secondary.read()[i])
    }

    /// Number of registered secondary indexes.
    pub fn secondary_count(&self) -> usize {
        self.secondary.read().len()
    }

    /// Enables (or returns) the ordered primary-key index, backfilling
    /// existing tuples. Range scans and next-key phantom protection
    /// require it. The backfill and the setting of the index happen under
    /// the slab's write latch (see [`Table::insert_at`]).
    pub fn enable_ordered_index(&self) -> Arc<OrderedIndex> {
        if let Some(idx) = self.ordered.get() {
            return Arc::clone(idx);
        }
        let slab = self.slab.write();
        let idx = self.ordered.get_or_init(|| {
            let idx = OrderedIndex::new();
            for t in slab.iter() {
                idx.insert(t.key);
            }
            Arc::new(idx)
        });
        Arc::clone(idx)
    }

    /// The ordered index, if enabled. Takes no latch.
    #[inline]
    pub fn ordered_index(&self) -> Option<&Arc<OrderedIndex>> {
        self.ordered.get()
    }
}

/// Issues a `T0` prefetch for every cache line of the `len` bytes at
/// `start`: a whole allocation, such as an `Arc`'s counts and value
/// ([`Table::prefetch`], [`Tuple::prefetch_row`]) or a vector's buffer up
/// to its capacity (the lock list's hint in `bamboo-core`). Reads and
/// writes no byte of the range, so any address is sound, a dangling one
/// included; a no-op on targets other than `x86_64`.
#[inline]
pub fn prefetch_allocation(start: *const u8, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let skew = start.addr() % LINE;
        let lines = (skew + len).div_ceil(LINE);
        let first = start.wrapping_sub(skew);
        for i in 0..lines {
            // SAFETY: the intrinsic needs `sse`, which every x86_64 target
            // has. A prefetch is a hint: it never faults and reads nothing
            // the program can observe, so any address is sound.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(i * LINE).cast::<i8>()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (start, len);
}

/// [`prefetch_allocation`] over `arc`'s allocation: the strong and weak
/// counts `Arc` keeps in front of the value, then the value (for a tuple:
/// the lock entry, the version chain's latch and its newest image's
/// handle; for a row image: its values).
#[inline]
fn prefetch_arc<T: ?Sized>(arc: &Arc<T>) {
    // The value sits after the two counts, at the next multiple of its
    // alignment.
    let header =
        (2 * std::mem::size_of::<usize>()).next_multiple_of(std::mem::align_of_val(&**arc));
    let start = Arc::as_ptr(arc).cast::<u8>().wrapping_sub(header);
    prefetch_allocation(start, header + std::mem::size_of_val(&**arc));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::value::Value;

    fn table() -> Table<()> {
        Table::new(
            "t",
            Schema::build()
                .column("id", DataType::U64)
                .column("v", DataType::I64),
        )
    }

    fn row(id: u64, v: i64) -> Row {
        Row::from(vec![Value::U64(id), Value::I64(v)])
    }

    #[test]
    fn insert_then_get() {
        let t = table();
        t.insert(10, row(10, 1));
        t.insert(20, row(20, 2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(10).unwrap().read_row().get_i64(1), 1);
        assert_eq!(t.get(20).unwrap().read_row().get_i64(1), 2);
        assert!(t.get(30).is_none());
    }

    /// The index and the slab hold the same tuple: `get(k)` and the slab's
    /// `n`-th tuple are one `Arc`.
    fn resolves_to_slab(t: &Table<()>, k: u64, n: u64) -> bool {
        let tup = t.get(k).expect("key present");
        t.get_by_row_id(n)
            .is_some_and(|slot| Arc::ptr_eq(&tup, &slot))
    }

    #[test]
    fn inserts_racing_the_ordered_index_enable_all_land_in_it() {
        const PER_WRITER: u64 = 400;
        for round in 0..25 {
            let t = table();
            t.insert(u64::MAX, row(0, 0));
            std::thread::scope(|s| {
                for w in 0..2u64 {
                    let t = &t;
                    s.spawn(move || {
                        for k in 0..PER_WRITER {
                            let key = w * PER_WRITER + k;
                            t.insert(key, row(key, 0));
                        }
                    });
                }
                s.spawn(|| {
                    for _ in 0..round {
                        std::thread::yield_now();
                    }
                    t.enable_ordered_index();
                });
            });
            let idx = t.ordered_index().expect("enabled");
            assert_eq!(
                idx.range(0..=u64::MAX).len() as u64,
                2 * PER_WRITER + 1,
                "round {round}: an insert missed the ordered index"
            );
        }
    }

    #[test]
    fn index_and_slab_share_each_tuple() {
        let t = table();
        for k in 0..100 {
            t.insert(k * 7, row(k * 7, 0));
        }
        for k in 0..100 {
            assert!(resolves_to_slab(&t, k * 7, k), "key {}", k * 7);
        }
    }

    #[test]
    fn slab_positions_are_dense_in_insertion_order() {
        let t = table();
        for k in 0..100 {
            let tup = t.insert(k * 3, row(k * 3, k as i64));
            assert!(Arc::ptr_eq(&tup, &t.get_by_row_id(k).unwrap()));
        }
        for k in 0..100 {
            assert_eq!(t.get_by_row_id(k).unwrap().key, k * 3);
        }
        assert!(t.get_by_row_id(100).is_none());
    }

    #[test]
    fn install_replaces_committed_image() {
        let t = table();
        let tup = t.insert(1, row(1, 5));
        tup.install(row(1, 99));
        assert_eq!(t.get(1).unwrap().read_row().get_i64(1), 99);
    }

    #[test]
    #[should_panic(expected = "duplicate primary key")]
    fn duplicate_pk_panics() {
        let t = table();
        t.insert(1, row(1, 0));
        t.insert(1, row(1, 0));
    }

    #[test]
    fn versioned_install_preserves_snapshot_reads() {
        let t = table();
        let tup = t.insert(1, row(1, 5));
        // Commit at ts=10 with no live snapshot below 0: the old image is
        // retained until GC's watermark passes it.
        tup.install_versioned(row(1, 99), 10, 0);
        assert_eq!(tup.read_row().get_i64(1), 99);
        assert_eq!(tup.read_at(9).unwrap().get_i64(1), 5);
        assert_eq!(tup.read_at(10).unwrap().get_i64(1), 99);
        assert_eq!(tup.commit_ts(), 10);
        assert_eq!(tup.retained_versions(), 1);
        // A later install with the watermark at 10 reclaims the ts=0 image.
        tup.install_versioned(row(1, 100), 20, 10);
        assert_eq!(tup.retained_versions(), 1);
        assert_eq!(tup.read_at(10).unwrap().get_i64(1), 99);
    }

    #[test]
    fn insert_at_hides_row_from_older_snapshots() {
        let t = table();
        let tup = t.insert_at(7, row(7, 1), 42);
        assert!(!tup.visible_at(41));
        assert!(tup.read_at(41).is_none());
        assert_eq!(tup.read_at(42).unwrap().get_i64(1), 1);
        // Point lookups still find the tuple (visibility is the caller's
        // check, matching the protocol layer's contract).
        assert!(t.get(7).is_some());
    }

    #[test]
    fn prefetch_and_contains_change_nothing() {
        let t = table();
        let tup = t.insert(1, row(1, 7));
        let strong = Arc::strong_count(&tup);
        let image = tup.with_row(|r| Arc::strong_count(r.image()));
        for k in [1, 2, u64::MAX] {
            t.prefetch(k);
            if let Some(borrowed) = t.get_ref(k) {
                assert!(std::ptr::eq(borrowed, &*tup));
                borrowed.prefetch_row();
            }
        }
        assert!(t.get_ref(2).is_none());
        assert_eq!(tup.with_row(|r| Arc::strong_count(r.image())), image);
        assert_eq!(Arc::strong_count(&tup), strong, "no refcount left behind");
        assert_eq!(t.len(), 1, "an absent key is not inserted");
        assert!(t.get(2).is_none() && t.get(u64::MAX).is_none());
        assert!(t.contains(1));
        assert!(!t.contains(2));
        assert_eq!(Arc::strong_count(&tup), strong);
        assert_eq!(tup.read_row().get_i64(1), 7);
    }

    #[test]
    fn with_row_avoids_clone() {
        let t = table();
        t.insert(1, row(1, 7));
        let v = t.get(1).unwrap().with_row(|r| r.get_i64(1));
        assert_eq!(v, 7);
    }

    #[test]
    fn secondary_index_registration() {
        let t = table();
        let idx = t.add_secondary_index();
        t.insert(1, row(1, 0));
        idx.insert(42, 1);
        assert_eq!(t.secondary_index(0).get(42), vec![1]);
    }

    #[test]
    fn concurrent_insert_and_lookup() {
        use std::sync::Arc as StdArc;
        let t = StdArc::new(table());
        let writer = {
            let t = StdArc::clone(&t);
            std::thread::spawn(move || {
                for k in 0..1000u64 {
                    t.insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
                }
            })
        };
        let reader = {
            let t = StdArc::clone(&t);
            std::thread::spawn(move || {
                // A key the index already resolves is in the slab too (the
                // slab is written first), as the same tuple.
                for i in 0..10_000u64 {
                    let k = i % 1000;
                    if t.get(k).is_some() {
                        assert!(resolves_to_slab(&t, k, k), "key {k}");
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(t.len(), 1000);
        for k in 0..1000 {
            assert!(resolves_to_slab(&t, k, k), "key {k}");
        }
    }
}
