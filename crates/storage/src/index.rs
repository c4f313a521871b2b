//! Hash indexes.
//!
//! DBx1000 "stores all data in a row-oriented manner with hash table
//! indexes" (paper §5.1). [`ShardedIndex`] is the primary-key index, and
//! a lookup in it writes nothing: no latch, no counter, only acquire loads.
//! [`SecondaryIndex`] is a non-unique variant used by TPC-C Payment's
//! customer-by-last-name path.
//!
//! # The primary-key index
//!
//! Each of its 64 shards holds an open-addressed array of `OnceLock<(key,
//! value)>` slots. A slot is empty until an insert fills it and never
//! changes after that, so a lookup probes linearly from the key's home
//! slot and stops at the key or at the first empty slot. Inserts to one
//! shard serialise on its `Mutex`, which also holds the shard's count.
//! An insert that would fill the array past 2/3 first copies every entry
//! into an array four times larger and publishes it in the shard's next
//! level. A shard's levels are a fixed row of `OnceLock`s inside the shard
//! itself, filled in order, and a lookup takes the last filled one.
//!
//! Publication. Both the slot and the level are `OnceLock`s: setting one
//! is a release, reading it an acquire, and a new array is published only
//! after the copy into it is complete.
//! - A lookup ordered after `insert` returned (by a lock, a channel or a
//!   join) finds the key. The insert wrote the key into the newest array
//!   and published any newer array before it returned. The lookup
//!   therefore reaches that array and sees the filled slot.
//! - A lookup racing a growth either still sees the older array or
//!   already sees the newer one. Each holds every key whose insert had
//!   returned when the growth began. So the lookup can miss only keys
//!   inserted after it began.
//!
//! Older arrays are never freed while the index lives. A lookup may still
//! be probing one, and freeing it would take a reclamation scheme (epochs,
//! hazard pointers) built on `unsafe` code. Keeping them is what lets
//! `get` lend `&V` for the index's lifetime. The cost is bounded by the
//! 4× growth: a shard's older arrays together hold at most 1/4 + 1/16 + …
//! < 1/3 of its newest array's slots. A table sized by `with_capacity`
//! never grows and has one array per shard at ≈ 1.5 slots per key (24 B
//! per slot for an `Arc` value). A table that grows holds 1.5–6 slots per
//! key in its newest array, and at most 4/3 of that in all of them.
//!
//! The levels sit inside the shard, not behind a pointer in each array,
//! because a lookup reads all of them: a linked chain cost a dependent
//! miss per growth, and TPC-C's order-line shards grow about eight times
//! in a benchmark run (EXPERIMENTS.md, "latch-free primary-key index").
//! Twelve levels of 24 B are what a shard carries in every table, grown
//! or not; they reach 4^12 slots per shard, and an insert that would need
//! a thirteenth array panics.
//!
//! A growth clones every value into the new array. For a tuple's `Arc`
//! that writes the tuple's refcount line, a likely cache miss, so the copy
//! runs the table's prefetch hint 16 slots ahead of its clones
//! ([`ShardedIndex::with_growth_hint`]).
//!
//! Every map the engine keys by an integer it generated itself — primary
//! keys here, `(table, key)` in a transaction's access set, transaction ids
//! in recovery — hashes with [`BuildKeyHasher`]: one fold and the
//! splitmix64 finalizer, instead of std's keyed SipHash. The mixer is
//! unkeyed on purpose. SipHash's random key defends a map against an
//! adversary who picks keys to collide (hash flooding); these keys come
//! from the workload generators and the commit clock, not from a client,
//! and a database front end that accepted untrusted keys is out of scope
//! here. What the mixer must survive is the engine's own key patterns:
//! sequential keys, and the keys of one shard, which share `shard_of`'s
//! top Fibonacci bits (see `mixer_spreads_one_shards_keys`).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

use parking_lot::{Mutex, RwLock};

const SHARD_BITS: usize = 6;
/// Number of shards (64). Power of two so shard selection is a mask.
const SHARDS: usize = 1 << SHARD_BITS;
/// 2^64 / φ: the multiplier of Fibonacci hashing.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn shard_of(key: u64) -> usize {
    // Multiplicative hash (Fibonacci): cheap and spreads sequential keys,
    // which all our workloads generate.
    ((key.wrapping_mul(FIBONACCI)) >> (64 - SHARD_BITS)) as usize & (SHARDS - 1)
}

/// The shared, zero-sized [`BuildHasher`] for engine-generated integer keys
/// (module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildKeyHasher;

impl BuildHasher for BuildKeyHasher {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(0)
    }
}

/// The hasher [`BuildKeyHasher`] builds. Each integer written is folded
/// into the state (order matters, so `(t, k)` and `(k, t)` differ);
/// [`Hasher::finish`] runs the splitmix64 finalizer, so every output bit
/// depends on every input bit. A `HashMap` needs that: it takes the bucket
/// from the hash's low bits and a 7-bit tag from its top bits, while the
/// keys of one shard agree in the top bits of `shard_of`'s Fibonacci
/// product — a mixer built from that product would collide every key of a
/// shard in one of the two fields.
#[derive(Clone, Copy, Debug)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ n;
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    /// Byte fallback for key types that are not plain integers: folds the
    /// bytes eight at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One slot of a shard's array: empty until an insert fills it, never
/// written again after that (24 B for an `Arc` value).
type Slot<V> = OnceLock<(u64, V)>;

/// A shard at most this full grows (module docs).
const MAX_LOAD: (usize, usize) = (2, 3);
/// Growth factor of a shard's array (module docs).
const GROWTH: usize = 4;
/// Smallest array a growth makes.
const MIN_SLOTS: usize = 4;
/// Arrays one shard can hold: its first and eleven growths, ≥ 4^12 slots
/// (module docs).
const LEVELS: usize = 12;
/// How many slots ahead of its clone the growth copy hints a value's
/// cache lines (module docs).
const WARM_AHEAD: usize = 16;

/// `key`'s value in `slots` (`Ok`), or the empty slot that ends its probe
/// sequence (`Err`; 0 for an array without slots). Linear probing from the
/// slot that the product's bits below `shard_of`'s pick.
#[inline]
fn probe<V>(slots: &[Slot<V>], key: u64) -> Result<&V, usize> {
    let len = slots.len();
    let below_shard = key.wrapping_mul(FIBONACCI) << SHARD_BITS;
    let mut i = ((u128::from(below_shard) * len as u128) >> 64) as usize;
    loop {
        match slots.get(i).and_then(OnceLock::get) {
            None => return Err(i),
            Some((k, v)) if *k == key => return Ok(v),
            Some(_) => i = if i + 1 == len { 0 } else { i + 1 },
        }
    }
}

/// `len` empty slots.
fn empty_slots<V>(len: usize) -> Box<[Slot<V>]> {
    (0..len).map(|_| OnceLock::new()).collect()
}

/// One of the index's shards: its arrays, oldest first, and the insert
/// latch with the shard's entry count.
#[repr(align(64))]
struct Shard<V> {
    levels: [OnceLock<Box<[Slot<V>]>>; LEVELS],
    count: Mutex<usize>,
}

impl<V> Shard<V> {
    /// The newest published array (empty before the first) and how many
    /// arrays are published.
    #[inline]
    fn newest(&self) -> (&[Slot<V>], usize) {
        let mut newest: (&[Slot<V>], usize) = (&[], 0);
        for level in &self.levels {
            match level.get() {
                Some(slots) => newest = (slots, newest.1 + 1),
                None => break,
            }
        }
        newest
    }
}

/// A sharded unique hash index from `u64` keys to values whose lookups
/// write nothing (module docs).
pub struct ShardedIndex<V> {
    shards: Box<[Shard<V>]>,
    /// Cache hint the growth copy runs ahead of each clone.
    warm: fn(&V),
}

impl<V> ShardedIndex<V> {
    /// Creates an empty index whose shards hold `cap` evenly spread keys
    /// without growing.
    pub fn with_capacity(cap: usize) -> Self {
        // Room for a shard's share plus the few more an uneven spread puts
        // on one shard, at `MAX_LOAD`.
        let per_shard = cap / SHARDS + 1;
        let len = (per_shard * MAX_LOAD.1).div_ceil(MAX_LOAD.0) + 4;
        let shards = (0..SHARDS)
            .map(|_| Shard {
                levels: std::array::from_fn(|depth| match depth {
                    0 if cap > 0 => OnceLock::from(empty_slots(len)),
                    _ => OnceLock::new(),
                }),
                count: Mutex::new(0),
            })
            .collect();
        ShardedIndex {
            shards,
            warm: |_| {},
        }
    }

    /// Creates an empty index.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Sets the cache hint a growth issues for each value it is about to
    /// clone, `WARM_AHEAD` (16) slots ahead: a clone that writes the value's
    /// memory (an `Arc`'s count) otherwise takes its misses one at a time.
    pub fn with_growth_hint(mut self, warm: fn(&V)) -> Self {
        self.warm = warm;
        self
    }

    /// Point lookup: acquire loads only, no latch. The reference lives as
    /// long as the index, because no array moves or is freed before it.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        probe(self.shards[shard_of(key)].newest().0, key).ok()
    }

    /// True when the key is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Total number of entries (sums the shard counts under their insert
    /// latches; not linearizable under concurrent inserts, which is fine
    /// for stats and tests).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| *s.count.lock()).sum()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> ShardedIndex<V> {
    /// Inserts `key -> value` and returns `None`; a key already present
    /// keeps its value, which is returned, and `value` is dropped.
    ///
    /// Panics when a shard would need a thirteenth array (module docs).
    pub fn insert(&self, key: u64, value: V) -> Option<&V> {
        let shard = &self.shards[shard_of(key)];
        let mut count = shard.count.lock();
        let (mut slots, published) = shard.newest();
        let mut vacant = match probe(slots, key) {
            Ok(existing) => return Some(existing),
            Err(i) => i,
        };
        if (*count + 1) * MAX_LOAD.1 > slots.len() * MAX_LOAD.0 {
            let level = shard
                .levels
                .get(published)
                .expect("an index shard ran out of arrays");
            slots = level.get_or_init(|| self.grown(slots));
            vacant = probe(slots, key)
                .err()
                .expect("a key absent before a growth");
        }
        let _ = slots[vacant].set((key, value));
        *count += 1;
        None
    }

    /// A [`GROWTH`]× copy of `full`, the shard's newest array. The caller
    /// holds the shard's insert latch and publishes the copy.
    fn grown(&self, full: &[Slot<V>]) -> Box<[Slot<V>]> {
        let mut next = empty_slots((full.len() * GROWTH).max(MIN_SLOTS));
        for (i, slot) in full.iter().enumerate() {
            if let Some((_, ahead)) = full.get(i + WARM_AHEAD).and_then(OnceLock::get) {
                (self.warm)(ahead);
            }
            if let Some((key, value)) = slot.get() {
                let vacant = probe(&next, *key).err().expect("keys are unique");
                // Nobody else sees `next` yet: a plain store fills the slot.
                next[vacant] = OnceLock::from((*key, value.clone()));
            }
        }
        next
    }
}

impl<V> Default for ShardedIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Hashes an arbitrary composite key into the `u64` key space used by the
/// indexes. TPC-C encodes (w_id, d_id, c_id)-style composites directly; the
/// last-name index hashes the name string through this helper.
pub fn hash_key<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// A non-unique secondary index: one key maps to the primary keys of its
/// tuples, kept in insertion order (TPC-C's by-last-name lookup then picks
/// the midpoint of the matching customers ordered by first name — the
/// loader inserts in first-name order so positional midpoint matches the
/// spec). A posting resolves through [`crate::Table::get`].
pub struct SecondaryIndex {
    shards: Box<[PostingShard]>,
}

/// One shard of a secondary index: key → posting list of primary keys.
type PostingShard = RwLock<HashMap<u64, Vec<u64>, BuildKeyHasher>>;

impl SecondaryIndex {
    /// Creates an empty secondary index.
    pub fn new() -> Self {
        let shards = (0..SHARDS)
            .map(|_| RwLock::new(HashMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SecondaryIndex { shards }
    }

    /// Appends `primary` to the posting list of `key`.
    pub fn insert(&self, key: u64, primary: u64) {
        self.shards[shard_of(key)]
            .write()
            .entry(key)
            .or_default()
            .push(primary);
    }

    /// Returns a copy of the posting list for `key` (empty when absent).
    pub fn get(&self, key: u64) -> Vec<u64> {
        self.shards[shard_of(key)]
            .read()
            .get(&key)
            .cloned()
            .unwrap_or_default()
    }

    /// Every `(key, primary key)` posting in the index, in unspecified key
    /// order but insertion order within one key (the checkpoint dump path;
    /// the per-key order is what the TPC-C midpoint lookup depends on).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            for (key, primaries) in shard.read().iter() {
                out.extend(primaries.iter().map(|&p| (*key, p)));
            }
        }
        out
    }
}

impl Default for SecondaryIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arrays each shard holds: its first and the growths it took.
    fn levels_published<V>(idx: &ShardedIndex<V>) -> Vec<usize> {
        let length = |shard: &Shard<V>| {
            shard
                .levels
                .iter()
                .take_while(|l| l.get().is_some())
                .count()
        };
        idx.shards.iter().map(length).collect()
    }

    #[test]
    fn a_slot_is_24_bytes() {
        // The key and an `Arc` (16 B) plus `OnceLock`'s state word, padded:
        // the slot count × 24 B is what the index adds to a loaded table.
        assert_eq!(std::mem::size_of::<Slot<std::sync::Arc<[u8; 256]>>>(), 24);
    }

    #[test]
    fn many_keys_spread_across_shards() {
        let idx = ShardedIndex::<u64>::with_capacity(1000);
        for k in 0..1000u64 {
            idx.insert(k, k * 2);
        }
        assert_eq!(idx.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(idx.get(k), Some(&(k * 2)));
        }
        // Sequential keys must not all land in one shard.
        let occupied = idx.shards.iter().filter(|s| *s.count.lock() > 0).count();
        assert!(occupied > SHARDS / 2, "only {occupied} shards occupied");
    }

    /// The capacities the workloads load with: sequential keys fill them
    /// without a growth, so a loaded table keeps one array per shard.
    #[test]
    fn a_presized_index_loads_sequential_keys_without_growing() {
        for (cap, offset) in [
            (10, 0),
            (10_000, 1),
            (65_537, 65_536),
            (1 << 17, 0),
            (1 << 18, 0),
        ] {
            let idx = ShardedIndex::<()>::with_capacity(cap);
            for k in offset..offset + cap as u64 {
                idx.insert(k, ());
            }
            assert_eq!(idx.len(), cap);
            let grown = levels_published(&idx).iter().filter(|&&n| n > 1).count();
            assert_eq!(grown, 0, "capacity {cap}: {grown} shards grew");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Single-threaded model check against a `HashMap`: random keys
        /// with repeats (drawn from a small range, then scattered by an odd
        /// multiplier), an empty and a pre-sized index, every shard grown
        /// at least three times.
        #[test]
        fn the_index_agrees_with_a_hashmap(
            presized in proptest::prelude::any::<bool>(),
            scatter in proptest::prelude::any::<u64>(),
            draws in proptest::collection::vec(0u64..16_000, 24_000),
        ) {
            let key = |draw: u64| draw.wrapping_mul(scatter | 1);
            let idx = ShardedIndex::<u64>::with_capacity(if presized { 64 } else { 0 });
            let mut oracle: HashMap<u64, u64, BuildKeyHasher> = HashMap::default();
            for (i, &draw) in draws.iter().enumerate() {
                let k = key(draw);
                let value = i as u64;
                let first = *oracle.entry(k).or_insert(value);
                let returned = idx.insert(k, value).copied();
                proptest::prop_assert_eq!(returned, (first != value).then_some(first));
                proptest::prop_assert_eq!(idx.get(k), Some(&first));
            }
            proptest::prop_assert_eq!(idx.len(), oracle.len());
            for draw in 0..20_000 {
                let k = key(draw);
                proptest::prop_assert_eq!(idx.get(k), oracle.get(&k));
                proptest::prop_assert_eq!(idx.contains(k), oracle.contains_key(&k));
            }
            let fewest = levels_published(&idx).into_iter().min().unwrap_or(0);
            proptest::prop_assert!(fewest >= 4, "a shard grew only {} times", fewest.saturating_sub(1));
        }
    }

    /// Two inserters publish how many keys each has inserted; two readers
    /// check that every key below a count they read resolves to its value,
    /// while the shards grow under them.
    #[test]
    fn readers_find_every_published_key_across_growths() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const PER_INSERTER: u64 = 50_000;
        let value = |t: u64, i: u64| (t << 32 | i).wrapping_mul(3);
        let key = |t: u64, i: u64| i * 2 + t;
        let idx = ShardedIndex::<u64>::new();
        let published = [AtomicU64::new(0), AtomicU64::new(0)];
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (idx, published) = (&idx, &published);
                s.spawn(move || {
                    for i in 0..PER_INSERTER {
                        assert_eq!(idx.insert(key(t, i), value(t, i)), None);
                        published[t as usize].store(i + 1, Ordering::Release);
                    }
                });
            }
            for r in 0..2u64 {
                let (idx, published) = (&idx, &published);
                s.spawn(move || {
                    let mut seen = [0u64; 2];
                    let mut x = r + 1;
                    while seen.iter().any(|&n| n < PER_INSERTER) {
                        for t in 0..2u64 {
                            let count = published[t as usize].load(Ordering::Acquire);
                            // Every key published since the last look, and a
                            // sample of older ones (those a growth copied).
                            let fresh = seen[t as usize]..count;
                            let old = (0..16).map(|_| {
                                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                                (x >> 33) % count.max(1)
                            });
                            for i in fresh.chain(old).filter(|&i| i < count) {
                                assert_eq!(
                                    idx.get(key(t, i)),
                                    Some(&value(t, i)),
                                    "key {i} of inserter {t}"
                                );
                            }
                            seen[t as usize] = count;
                        }
                    }
                });
            }
        });
        assert_eq!(idx.len(), 2 * PER_INSERTER as usize);
        for t in 0..2 {
            for i in 0..PER_INSERTER {
                assert_eq!(idx.get(key(t, i)), Some(&value(t, i)));
            }
        }
        let fewest = levels_published(&idx).into_iter().min().unwrap_or(0);
        assert!(
            fewest >= 4,
            "a shard grew only {} times",
            fewest.saturating_sub(1)
        );
    }

    #[test]
    fn secondary_index_posting_lists() {
        let idx = SecondaryIndex::new();
        idx.insert(7, 100);
        idx.insert(7, 101);
        idx.insert(8, 200);
        assert_eq!(idx.get(7), vec![100, 101]);
        assert_eq!(idx.get(8), vec![200]);
        assert_eq!(idx.get(9), Vec::<u64>::new());
        let mut entries = idx.entries();
        entries.sort_unstable();
        assert_eq!(entries, vec![(7, 100), (7, 101), (8, 200)]);
    }

    /// Distinct values the `field` of `hashes` takes, as a share of what a
    /// uniform hash reaches with as many keys: `m · (1 − (1 − 1/m)^n)` for
    /// `m` possible values and `n` keys (4 096 keys cannot fill 8 192
    /// buckets; a uniform hash fills ≈ 3 224 of them).
    fn occupancy(hashes: &[u64], field: impl Fn(u64) -> u64, m: u64) -> f64 {
        let distinct: std::collections::HashSet<u64> = hashes.iter().map(|&h| field(h)).collect();
        let m = m as f64;
        let expected = m * (1.0 - (1.0 - 1.0 / m).powi(hashes.len() as i32));
        distinct.len() as f64 / expected
    }

    /// The hashbrown fields a hash feeds in a map of ≈ 4 096 entries: the
    /// bucket (low 13 bits) and the tag (top 7 bits).
    fn fields(hashes: &[u64]) -> (f64, f64) {
        (
            occupancy(hashes, |h| h & 0x1FFF, 1 << 13),
            occupancy(hashes, |h| h >> 57, 1 << 7),
        )
    }

    #[test]
    fn mixer_spreads_one_shards_keys() {
        // The keys one shard holds: their Fibonacci products share the top
        // six bits.
        let keys: Vec<u64> = (0..1u64 << 18).filter(|&k| shard_of(k) == 0).collect();
        assert!((3_900..4_300).contains(&keys.len()), "{} keys", keys.len());
        let hashes: Vec<u64> = keys.iter().map(|&k| BuildKeyHasher.hash_one(k)).collect();
        let (bucket, tag) = fields(&hashes);
        assert!(bucket >= 0.9, "bucket bits reach {bucket:.3} of uniform");
        assert!(tag >= 0.9, "tag bits reach {tag:.3} of uniform");
        // The pitfall this test guards: a mixer built from the shard's own
        // Fibonacci product carries the six shared bits into the tag
        // (unrotated) or the bucket (rotated by six), and collapses there.
        for rot in [0, 6] {
            let pitfall: Vec<u64> = keys
                .iter()
                .map(|&k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(rot))
                .collect();
            let (bucket, tag) = fields(&pitfall);
            assert!(bucket.min(tag) < 0.1, "rot {rot}: {bucket:.3} / {tag:.3}");
        }
    }

    #[test]
    fn mixer_separates_tables_and_orders() {
        let h = |t: u32, k: u64| BuildKeyHasher.hash_one((t, k));
        for t in 0..8u32 {
            for k in 0..1_000u64 {
                assert_ne!(h(t, k), h(t + 1, k), "(t={t}, k={k})");
            }
        }
        assert_ne!(
            BuildKeyHasher.hash_one((1u64, 2u64)),
            BuildKeyHasher.hash_one((2u64, 1u64))
        );
        // The byte fallback folds every byte.
        assert_ne!(
            BuildKeyHasher.hash_one("SMITH"),
            BuildKeyHasher.hash_one("SMITI")
        );
    }

    #[test]
    fn hash_key_is_deterministic() {
        assert_eq!(hash_key(&"SMITH"), hash_key(&"SMITH"));
        assert_ne!(hash_key(&"SMITH"), hash_key(&"JONES"));
    }
}
