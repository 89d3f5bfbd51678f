//! Fast, deterministic hashing for the join hot path.
//!
//! The seed engine hashed every join key with SipHash (`DefaultHasher`) —
//! a keyed, DoS-resistant hash whose per-call cost dominates the probe and
//! insert loops of the hash-based joins. Join keys here are engine-internal
//! (never attacker-controlled hash-table keys in a long-lived map), so we
//! trade DoS resistance for speed with an FxHash-style multiply-rotate
//! hasher, implemented inline because crates.io is unreachable from this
//! build environment.
//!
//! Three layers live here:
//!
//! * [`FxHasher`] / [`FxBuildHasher`] — a drop-in [`std::hash::Hasher`]
//!   usable with `HashMap` (see [`FxHashMap`]).
//! * [`mix`] / [`fold_hash`] — finalizers that spread an Fx hash's entropy
//!   into the low bits (Fx is multiply-based, so low bits are weak) and mix
//!   in a recursion *salt* so overflow re-partitioning redistributes keys
//!   **without rehashing the value** — the prehash is computed once per
//!   tuple and reused for bucket selection, map lookup, and re-partitioning.
//! * [`PrehashMap`] — an open-addressed key → value map addressed by a
//!   caller-supplied 64-bit prehash, so the bucketed hash tables never hash
//!   a key twice (the seed hashed once in `bucket_of` and again inside the
//!   per-bucket `HashMap`).
//!
//! Stability: FxHash output is pinned by unit tests below. Spill files and
//! bucket assignments never cross process boundaries, but deterministic
//! hashing keeps runs reproducible and lets tests assert exact routing.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The Firefox/rustc multiplier (64-bit golden-ratio-derived constant).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style streaming hasher: `hash = (hash.rol(5) ^ word) * SEED`
/// per 8-byte word. Not cryptographic, not DoS-resistant — fast.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// Fresh hasher with a zero state.
    #[inline]
    pub fn new() -> Self {
        FxHasher { hash: 0 }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.add(i as u8 as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s — plug into any `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] instead of SipHash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`] instead of SipHash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Fx-hash any `Hash` value to a raw 64-bit prehash (salt-free; apply
/// [`mix`]/[`fold_hash`] before using bits positionally).
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Finalize a raw prehash with a `salt`, spreading entropy into all bits
/// (murmur3-style avalanche). Same `(hash, salt)` always yields the same
/// output; different salts redistribute — this is what overflow
/// re-partitioning uses instead of rehashing the key.
#[inline]
pub fn mix(hash: u64, salt: u64) -> u64 {
    let mut x = hash ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// Map a prehash to one of `n` partitions under `salt`. The bucket routing
/// primitive: `fold_hash(h, n, salt)` replaces "hash the value again with a
/// salted hasher".
#[inline]
pub fn fold_hash(hash: u64, n: usize, salt: u64) -> usize {
    (mix(hash, salt) as usize) % n.max(1)
}

const EMPTY_SLOT: u32 = u32::MAX;

/// An open-addressed map from prehashed keys to values that never hashes a
/// key itself: every operation takes the caller's 64-bit prehash plus the
/// key for equality confirmation. Lookups are allocation-free; inserts
/// clone the key **once per distinct key** (group creation), not once per
/// row.
///
/// Keys are stored in insertion order in a dense `groups` vector (drain and
/// iteration are cache-friendly); `slots` is a linear-probed index over it.
#[derive(Debug, Clone)]
pub struct PrehashMap<K, V> {
    groups: Vec<(u64, K, V)>,
    slots: Vec<u32>,
    mask: usize,
}

impl<K, V> Default for PrehashMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> PrehashMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        PrehashMap {
            groups: Vec::new(),
            slots: Vec::new(),
            mask: 0,
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Salt for slot addressing. MUST differ from the bucket-routing salt
    /// (0): the bucketed tables partition with `mix(hash, 0) % n`, so
    /// within one bucket every key shares the low bits of `mix(hash, 0)` —
    /// indexing slots with the same finalizer would funnel a bucket's keys
    /// into `cap / n` initial slots and degrade probes to linear scans.
    const SLOT_SALT: u64 = 0xA076_1D64_78BD_642F;

    #[inline]
    fn slot_of(&self, hash: u64) -> usize {
        (mix(hash, Self::SLOT_SALT) as usize) & self.mask
    }

    /// Find the group index for `(hash, key)` where `key_eq` confirms a
    /// candidate match. Returns `Err(slot)` with the insertion slot when
    /// absent.
    #[inline]
    fn find(&self, hash: u64, key_eq: impl Fn(&K) -> bool) -> std::result::Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mut slot = self.slot_of(hash);
        loop {
            let g = self.slots[slot];
            if g == EMPTY_SLOT {
                return Err(slot);
            }
            let (h, k, _) = &self.groups[g as usize];
            if *h == hash && key_eq(k) {
                return Ok(g);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Allocation-free lookup: borrow the stored key and value for
    /// `(hash, key)` if present. `key_eq` confirms equality against the
    /// stored key, so the probe key can be any borrowed representation.
    #[inline]
    pub fn get_entry_hashed(&self, hash: u64, key_eq: impl Fn(&K) -> bool) -> Option<(&K, &V)> {
        match self.find(hash, key_eq) {
            Ok(g) => {
                let (_, k, v) = &self.groups[g as usize];
                Some((k, v))
            }
            Err(_) => None,
        }
    }

    /// Entry-style upsert: return the value for `(hash, key)`, materializing
    /// the owned key (via `make_key`) and a default value only when the key
    /// is new. This is the insert path's "clone the key once per group".
    #[inline]
    pub fn entry_hashed(
        &mut self,
        hash: u64,
        key_eq: impl Fn(&K) -> bool,
        make_key: impl FnOnce() -> K,
    ) -> &mut V
    where
        V: Default,
    {
        if self.needs_grow() {
            self.grow();
        }
        match self.find(hash, key_eq) {
            Ok(g) => &mut self.groups[g as usize].2,
            Err(slot) => {
                let g = self.groups.len() as u32;
                self.groups.push((hash, make_key(), V::default()));
                self.slots[slot] = g;
                &mut self.groups[g as usize].2
            }
        }
    }

    #[inline]
    fn needs_grow(&self) -> bool {
        // Load factor 7/8 over a power-of-two slot table.
        self.slots.is_empty() || (self.groups.len() + 1) * 8 > self.slots.len() * 7
    }

    #[cold]
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(8);
        self.slots = vec![EMPTY_SLOT; cap];
        self.mask = cap - 1;
        for (g, (h, _, _)) in self.groups.iter().enumerate() {
            let mut slot = (mix(*h, Self::SLOT_SALT) as usize) & self.mask;
            while self.slots[slot] != EMPTY_SLOT {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = g as u32;
        }
    }

    /// Iterate `(prehash, key, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &K, &V)> {
        self.groups.iter().map(|(h, k, v)| (h, k, v))
    }

    /// Iterate the values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.groups.iter().map(|(_, _, v)| v)
    }

    /// Drain all groups, leaving the map empty but with its slot table
    /// retained for reuse.
    pub fn drain(&mut self) -> impl Iterator<Item = (K, V)> + '_ {
        for s in &mut self.slots {
            *s = EMPTY_SLOT;
        }
        self.groups.drain(..).map(|(_, k, v)| (k, v))
    }

    /// Remove everything, keeping allocations.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = EMPTY_SLOT;
        }
        self.groups.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn fx_hasher_output_is_pinned() {
        // FxHash must be stable across runs and across processes: bucket
        // routing, spill partitioning, and the perf baselines all assume a
        // fixed hash function. If this test fails, the hash changed — that
        // invalidates recorded BENCH_* baselines and needs a call-out.
        assert_eq!(fx_hash(&42u64), 6807129317463932018);
        assert_eq!(fx_hash(&0u64), 0);
        assert_eq!(fx_hash(&1u64), 5871781006564002453);
        assert_eq!(fx_hash(&"tukwila"), 2746443715173178374);
        assert_eq!(fx_hash(&Value::Int(42)), 6807129317463932018);
        assert_eq!(fx_hash(&Value::str("seattle")), 747995832866758795);
        assert_eq!(fx_hash(&Value::Null), 5040379952546458196);
    }

    #[test]
    fn fx_hash_distinguishes_streams() {
        // write("ab") != write("a") + write("b") thanks to length folding
        let mut h1 = FxHasher::new();
        h1.write(b"ab");
        let mut h2 = FxHasher::new();
        h2.write(b"a");
        h2.write(b"b");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn value_hash_stable_within_process() {
        let a = fx_hash(&Value::Int(7));
        let b = fx_hash(&Value::Int(7));
        assert_eq!(a, b);
        assert_ne!(fx_hash(&Value::Int(7)), fx_hash(&Value::Int(8)));
    }

    #[test]
    fn mix_salts_redistribute() {
        let moved = (0..1000u64)
            .filter(|&i| fold_hash(fx_hash(&i), 16, 0) != fold_hash(fx_hash(&i), 16, 1))
            .count();
        assert!(moved > 800, "salted mix should redistribute, moved={moved}");
    }

    #[test]
    fn fold_hash_spreads_sequential_keys() {
        // Sequential integers must not pile into few buckets (the classic
        // weak-low-bits failure for multiply-based hashes).
        let mut counts = [0usize; 16];
        for i in 0..1600u64 {
            counts[fold_hash(fx_hash(&i), 16, 0)] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!(c > 40, "bucket {b} starved: {c}/1600");
        }
    }

    #[test]
    fn prehash_map_basics() {
        let mut m: PrehashMap<Value, Vec<i64>> = PrehashMap::new();
        for i in 0..100i64 {
            let key = Value::Int(i % 10);
            let h = fx_hash(&key);
            m.entry_hashed(h, |k| *k == key, || key.clone()).push(i);
        }
        assert_eq!(m.len(), 10);
        let key = Value::Int(3);
        let h = fx_hash(&key);
        let (_, rows) = m.get_entry_hashed(h, |k| *k == key).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r % 10 == 3));
        let missing = Value::Int(11);
        assert!(m
            .get_entry_hashed(fx_hash(&missing), |k| *k == missing)
            .is_none());
    }

    #[test]
    fn prehash_map_drain_and_reuse() {
        let mut m: PrehashMap<Value, Vec<i64>> = PrehashMap::new();
        for i in 0..20i64 {
            let key = Value::Int(i);
            let h = fx_hash(&key);
            m.entry_hashed(h, |k| *k == key, || key.clone()).push(i);
        }
        let drained: Vec<_> = m.drain().collect();
        assert_eq!(drained.len(), 20);
        assert!(m.is_empty());
        // reusable after drain
        let key = Value::Int(5);
        let h = fx_hash(&key);
        m.entry_hashed(h, |k| *k == key, || key.clone()).push(5);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn prehash_map_collision_safety() {
        // Same hash, different keys: equality confirmation must separate
        // them (forced by lying about the hash).
        let mut m: PrehashMap<Value, Vec<i64>> = PrehashMap::new();
        let a = Value::Int(1);
        let b = Value::Int(2);
        m.entry_hashed(7, |k| *k == a, || a.clone()).push(10);
        m.entry_hashed(7, |k| *k == b, || b.clone()).push(20);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get_entry_hashed(7, |k| *k == a), Some((&a, &vec![10])));
        assert_eq!(m.get_entry_hashed(7, |k| *k == b), Some((&b, &vec![20])));
    }
}
