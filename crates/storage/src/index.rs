//! Hash indexes.
//!
//! DBx1000 "stores all data in a row-oriented manner with hash table
//! indexes" (paper §5.1). [`ShardedIndex`] is the primary-key index: a
//! fixed-shard hash map guarded by per-shard `RwLock`s so that concurrent
//! lookups from worker threads do not serialize on one latch.
//! [`SecondaryIndex`] is a non-unique variant used by TPC-C Payment's
//! customer-by-last-name path.
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

use parking_lot::RwLock;

const SHARD_BITS: usize = 6;
/// Number of shards (64). Power of two so shard selection is a mask.
const SHARDS: usize = 1 << SHARD_BITS;

#[inline]
fn shard_of(key: u64) -> usize {
    // Multiplicative hash (Fibonacci): cheap and spreads sequential keys,
    // which all our workloads generate.
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> (64 - SHARD_BITS)) as usize & (SHARDS - 1)
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

/// A sharded unique hash index from `u64` keys to values.
pub struct ShardedIndex<V> {
    shards: Box<[RwLock<HashMap<u64, V, BuildKeyHasher>>]>,
}

impl<V: Clone> ShardedIndex<V> {
    /// Creates an empty index with capacity pre-split across shards.
    pub fn with_capacity(cap: usize) -> Self {
        let per_shard = cap / SHARDS + 1;
        let shards = (0..SHARDS)
            .map(|_| RwLock::new(HashMap::with_capacity_and_hasher(per_shard, BuildKeyHasher)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedIndex { shards }
    }

    /// Creates an empty index.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Point lookup.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.probe(key, V::clone)
    }

    /// Point lookup that lends the value to `f` under the shard's read
    /// latch instead of cloning it; `None` when the key is absent.
    #[inline]
    pub fn probe<R>(&self, key: u64, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shards[shard_of(key)].read().get(&key).map(f)
    }

    /// Inserts `key -> value`; returns the previous value if the key was
    /// already present.
    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        self.shards[shard_of(key)].write().insert(key, value)
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.shards[shard_of(key)].write().remove(&key)
    }

    /// True when the key is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.probe(key, |_| ()).is_some()
    }

    /// Total number of entries (sums shard sizes; not linearizable under
    /// concurrent inserts, which is fine for stats/tests).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> Default for ShardedIndex<V> {
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

/// A non-unique secondary index: one key maps to a set of row ids, kept in
/// insertion order (TPC-C's by-last-name lookup then picks the midpoint of
/// the matching customers ordered by first name — the loader inserts in
/// first-name order so positional midpoint matches the spec).
pub struct SecondaryIndex {
    shards: Box<[PostingShard]>,
}

/// One shard of a secondary index: key → posting list of row ids.
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

    /// Appends `row` to the posting list of `key`.
    pub fn insert(&self, key: u64, row: u64) {
        self.shards[shard_of(key)]
            .write()
            .entry(key)
            .or_default()
            .push(row);
    }

    /// Returns a copy of the posting list for `key` (empty when absent).
    pub fn get(&self, key: u64) -> Vec<u64> {
        self.shards[shard_of(key)]
            .read()
            .get(&key)
            .cloned()
            .unwrap_or_default()
    }

    /// Every `(key, row id)` posting in the index, in unspecified key order
    /// but insertion order within one key (the checkpoint dump path; the
    /// per-key order is what the TPC-C midpoint lookup depends on).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            for (key, rows) in shard.read().iter() {
                out.extend(rows.iter().map(|&r| (*key, r)));
            }
        }
        out
    }

    /// Removes one row id from the posting list of `key`.
    pub fn remove(&self, key: u64, row: u64) {
        let mut shard = self.shards[shard_of(key)].write();
        if let Some(list) = shard.get_mut(&key) {
            list.retain(|&r| r != row);
            if list.is_empty() {
                shard.remove(&key);
            }
        }
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

    #[test]
    fn insert_get_remove() {
        let idx = ShardedIndex::<u32>::new();
        assert_eq!(idx.insert(5, 50), None);
        assert_eq!(idx.insert(5, 55), Some(50));
        assert_eq!(idx.get(5), Some(55));
        assert!(idx.contains(5));
        assert_eq!(idx.remove(5), Some(55));
        assert!(!idx.contains(5));
        assert!(idx.is_empty());
    }

    #[test]
    fn many_keys_spread_across_shards() {
        let idx = ShardedIndex::<u64>::with_capacity(1000);
        for k in 0..1000u64 {
            idx.insert(k, k * 2);
        }
        assert_eq!(idx.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(idx.get(k), Some(k * 2));
        }
        // Sequential keys must not all land in one shard.
        let occupied = idx.shards.iter().filter(|s| !s.read().is_empty()).count();
        assert!(occupied > SHARDS / 2, "only {occupied} shards occupied");
    }

    #[test]
    fn concurrent_inserts() {
        use std::sync::Arc;
        let idx = Arc::new(ShardedIndex::<u64>::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        idx.insert(t * 1000 + i, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 1000);
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
        idx.remove(7, 100);
        assert_eq!(idx.get(7), vec![101]);
        idx.remove(7, 101);
        assert_eq!(idx.get(7), Vec::<u64>::new());
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
