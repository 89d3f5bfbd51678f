//! Bucketed hash tables with lazy spilling and tuple marking.
//!
//! Shared machinery for the hybrid/Grace hash joins (§4.2.1) and the double
//! pipelined join's overflow strategies (§4.2.3). A table is split into a
//! fixed number of hash buckets; buckets can be **flushed** to the spill
//! store, after which arrivals for that bucket are diverted to disk.
//!
//! Marking (the paper's duplicate-avoidance device): tuples that were in
//! memory when their bucket flushed are *old* (they have already joined
//! with every opposite-side tuple that arrived before the flush); tuples
//! arriving after the flush are *new* (marked). The overflow cleanup joins
//! old×new, new×old, and new×new — never old×old, which was emitted online.

use std::sync::Arc;

use tukwila_common::{fold_hash, fx_hash, PrehashMap, Result, Tuple, Value};
use tukwila_storage::{MemoryReservation, SpillBucket, SpillStore};

/// Hash a key value into one of `n` buckets, with a recursion `salt` so
/// overflow sub-partitioning (recursive hashing) redistributes. Computes
/// the Fx prehash; hot paths that already hold a prehash use
/// [`bucket_of_hash`] instead and never rehash the value.
pub fn bucket_of(v: &Value, n: usize, salt: u64) -> usize {
    bucket_of_hash(fx_hash(v), n, salt)
}

/// Bucket routing from a cached prehash: `mix(prehash, salt) % n`. The
/// same prehash serves bucket selection, the per-bucket map, and salted
/// re-partitioning — the key is hashed exactly once per tuple.
#[inline]
pub fn bucket_of_hash(hash: u64, n: usize, salt: u64) -> usize {
    fold_hash(hash, n, salt)
}

/// One side's bucketed hash table. Key groups live in [`PrehashMap`]s
/// addressed by the caller's cached prehash, so neither insert nor probe
/// ever rehashes (the seed hashed once for bucket routing and again inside
/// a per-bucket SipHash `HashMap`), and probes borrow — the in-memory
/// probe path performs no allocation and no `Value` clone.
pub struct BucketedTable {
    label: String,
    num_buckets: usize,
    key_idx: usize,
    /// Primary ("old") in-memory partitions: key → tuples.
    mem: Vec<PrehashMap<Value, Vec<Tuple>>>,
    /// Marked ("new") in-memory partitions — used by Incremental Left
    /// Flush, where the unflushed side keeps post-flush arrivals in memory.
    mem_marked: Vec<PrehashMap<Value, Vec<Tuple>>>,
    mem_bytes: Vec<usize>,
    flushed: Vec<bool>,
    old_spill: Vec<Option<SpillBucket>>,
    new_spill: Vec<Option<SpillBucket>>,
    reservation: Option<MemoryReservation>,
    spill: Arc<dyn SpillStore>,
    tuples_total: usize,
}

impl BucketedTable {
    /// Create an empty table of `num_buckets` partitions keyed on column
    /// `key_idx`. Memory charges go to `reservation` (shared with the
    /// owning join).
    pub fn new(
        label: impl Into<String>,
        num_buckets: usize,
        key_idx: usize,
        reservation: Option<MemoryReservation>,
        spill: Arc<dyn SpillStore>,
    ) -> Self {
        let n = num_buckets.max(1);
        BucketedTable {
            label: label.into(),
            num_buckets: n,
            key_idx,
            mem: (0..n).map(|_| PrehashMap::new()).collect(),
            mem_marked: (0..n).map(|_| PrehashMap::new()).collect(),
            mem_bytes: vec![0; n],
            flushed: vec![false; n],
            old_spill: vec![None; n],
            new_spill: vec![None; n],
            reservation,
            spill,
            tuples_total: 0,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Column index of the join key.
    pub fn key_idx(&self) -> usize {
        self.key_idx
    }

    /// Bucket index for a key (computes the prehash; prefer
    /// [`BucketedTable::bucket_for_hash`] when one is cached).
    pub fn bucket_for(&self, key: &Value) -> usize {
        bucket_of(key, self.num_buckets, 0)
    }

    /// Bucket index from a cached prehash.
    #[inline]
    pub fn bucket_for_hash(&self, hash: u64) -> usize {
        bucket_of_hash(hash, self.num_buckets, 0)
    }

    /// Whether a bucket has been flushed.
    pub fn is_flushed(&self, b: usize) -> bool {
        self.flushed[b]
    }

    /// Whether every bucket is flushed.
    pub fn fully_flushed(&self) -> bool {
        self.flushed.iter().all(|&f| f)
    }

    /// Total tuples ever inserted (memory + disk).
    pub fn total_tuples(&self) -> usize {
        self.tuples_total
    }

    /// Bytes currently held in memory by bucket `b`.
    pub fn bucket_bytes(&self, b: usize) -> usize {
        self.mem_bytes[b]
    }

    /// Total bytes currently held in memory.
    pub fn mem_bytes_total(&self) -> usize {
        self.mem_bytes.iter().sum()
    }

    fn charge(&mut self, bytes: usize) {
        if let Some(r) = &self.reservation {
            r.charge(bytes);
        }
    }

    fn release(&mut self, bytes: usize) {
        if let Some(r) = &self.reservation {
            r.release(bytes);
        }
    }

    /// Insert into the primary (old) in-memory partition of the tuple's
    /// bucket, hashing the key column (convenience / test path).
    pub fn insert(&mut self, tuple: Tuple) {
        let hash = fx_hash(tuple.value(self.key_idx));
        self.insert_hashed(hash, tuple);
    }

    /// Prehashed insert into the primary (old) partition. The key `Value`
    /// is cloned only when the key is new to its group map — duplicate-key
    /// inserts clone nothing. Caller must ensure the bucket is not flushed
    /// and the key is non-NULL.
    ///
    /// Block-view tuples (assembled join output, or rows materialized from
    /// a columnar batch) are stored as-is: views charge their slice size
    /// (`mem_size`), so the reservation books stay balanced across flush,
    /// and skipping the defensive copy keeps the insert loop allocation-free.
    pub fn insert_hashed(&mut self, hash: u64, tuple: Tuple) {
        let b = self.bucket_for_hash(hash);
        debug_assert!(!self.flushed[b], "insert into flushed bucket");
        let bytes = tuple.mem_size();
        let key = tuple.value(self.key_idx);
        self.mem[b]
            .entry_hashed(hash, |k| k == key, || key.clone())
            .push(tuple);
        self.mem_bytes[b] += bytes;
        self.charge(bytes);
        self.tuples_total += 1;
    }

    /// Insert into the marked (new) in-memory partition, hashing the key
    /// column (convenience / test path).
    pub fn insert_marked(&mut self, tuple: Tuple) {
        let hash = fx_hash(tuple.value(self.key_idx));
        self.insert_marked_hashed(hash, tuple);
    }

    /// Prehashed insert into the marked (new) partition (Left Flush keeps
    /// the unflushed side's post-flush arrivals in memory, marked).
    /// Stores block views as-is like [`BucketedTable::insert_hashed`].
    pub fn insert_marked_hashed(&mut self, hash: u64, tuple: Tuple) {
        let b = self.bucket_for_hash(hash);
        let bytes = tuple.mem_size();
        let key = tuple.value(self.key_idx);
        self.mem_marked[b]
            .entry_hashed(hash, |k| k == key, || key.clone())
            .push(tuple);
        self.mem_bytes[b] += bytes;
        self.charge(bytes);
        self.tuples_total += 1;
    }

    /// Divert a tuple arriving at a flushed bucket straight to disk,
    /// marked new.
    pub fn spill_new(&mut self, b: usize, tuple: &Tuple) -> Result<()> {
        if self.new_spill[b].is_none() {
            self.new_spill[b] = Some(self.spill.create_bucket(&format!("{}-new-{b}", self.label)));
        }
        self.spill
            .write(self.new_spill[b].unwrap(), std::slice::from_ref(tuple))?;
        self.tuples_total += 1;
        Ok(())
    }

    /// Probe the primary in-memory partition, hashing the key (convenience
    /// / test path).
    pub fn probe(&self, key: &Value) -> &[Tuple] {
        self.probe_hashed(fx_hash(key), key)
    }

    /// Prehashed probe of the primary partition: borrows matches (empty
    /// slice if none or bucket flushed). Allocation-free, clone-free.
    #[inline]
    pub fn probe_hashed(&self, hash: u64, key: &Value) -> &[Tuple] {
        let b = self.bucket_for_hash(hash);
        self.mem[b]
            .get_hashed(hash, |k| k == key)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Probe both primary and marked in-memory partitions.
    pub fn probe_all_mem<'a>(&'a self, key: &'a Value) -> impl Iterator<Item = &'a Tuple> + 'a {
        let hash = fx_hash(key);
        let b = self.bucket_for_hash(hash);
        self.mem[b]
            .get_hashed(hash, |k| k == key)
            .into_iter()
            .flatten()
            .chain(
                self.mem_marked[b]
                    .get_hashed(hash, |k| k == key)
                    .into_iter()
                    .flatten(),
            )
    }

    /// Flush bucket `b`: write primary tuples to the old-spill file and
    /// marked tuples to the new-spill file, clear memory, release charges.
    /// Returns the number of tuples written.
    pub fn flush_bucket(&mut self, b: usize) -> Result<usize> {
        let mut written = 0;
        let primary: Vec<Tuple> = self.mem[b].drain().flat_map(|(_k, v)| v).collect();
        if !primary.is_empty() {
            if self.old_spill[b].is_none() {
                self.old_spill[b] =
                    Some(self.spill.create_bucket(&format!("{}-old-{b}", self.label)));
            }
            self.spill.write(self.old_spill[b].unwrap(), &primary)?;
            written += primary.len();
        }
        let marked: Vec<Tuple> = self.mem_marked[b].drain().flat_map(|(_k, v)| v).collect();
        if !marked.is_empty() {
            if self.new_spill[b].is_none() {
                self.new_spill[b] =
                    Some(self.spill.create_bucket(&format!("{}-new-{b}", self.label)));
            }
            self.spill.write(self.new_spill[b].unwrap(), &marked)?;
            written += marked.len();
        }
        let bytes = self.mem_bytes[b];
        self.mem_bytes[b] = 0;
        self.release(bytes);
        self.flushed[b] = true;
        self.spill.stats().record_flush_event();
        Ok(written)
    }

    /// The unflushed bucket currently holding the most memory, if any.
    pub fn largest_unflushed(&self) -> Option<usize> {
        (0..self.num_buckets)
            .filter(|&b| !self.flushed[b])
            .max_by_key(|&b| (self.mem_bytes[b], usize::MAX - b))
            .filter(|&b| self.mem_bytes[b] > 0 || !self.flushed[b])
    }

    /// All "old" tuples of bucket `b`: spilled old file (disk read,
    /// counted) plus primary in-memory content.
    pub fn old_tuples(&self, b: usize) -> Result<Vec<Tuple>> {
        let mut out = match self.old_spill[b] {
            Some(sb) => self.spill.read_all(sb)?,
            None => Vec::new(),
        };
        out.extend(self.mem[b].values().flatten().cloned());
        Ok(out)
    }

    /// All "new" (marked) tuples of bucket `b`: spilled new file plus
    /// marked in-memory content.
    pub fn new_tuples(&self, b: usize) -> Result<Vec<Tuple>> {
        let mut out = match self.new_spill[b] {
            Some(sb) => self.spill.read_all(sb)?,
            None => Vec::new(),
        };
        out.extend(self.mem_marked[b].values().flatten().cloned());
        Ok(out)
    }

    /// Drop all in-memory state, releasing charges (join close).
    pub fn clear(&mut self) {
        let total: usize = self.mem_bytes.iter().sum();
        for b in 0..self.num_buckets {
            self.mem[b].clear();
            self.mem_marked[b].clear();
            self.mem_bytes[b] = 0;
        }
        self.release(total);
    }
}

/// Join two tuple sets on key columns, appending `probe ⋈ build` (probe
/// tuple first when `probe_first`) to `out`. If the build side exceeds
/// `budget`, recursively partitions both sides through the spill store
/// (recursive hashing, §4.2.1) — those writes/reads are counted I/O.
#[allow(clippy::too_many_arguments)]
pub fn join_sets(
    build: Vec<Tuple>,
    probe: Vec<Tuple>,
    build_key: usize,
    probe_key: usize,
    budget: Option<usize>,
    salt: u64,
    spill: &Arc<dyn SpillStore>,
    probe_first: bool,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    const MAX_DEPTH_SALT: u64 = 4;
    let build_bytes: usize = build.iter().map(Tuple::mem_size).sum();
    let fits = budget.map(|b| build_bytes <= b).unwrap_or(true);
    if fits || salt >= MAX_DEPTH_SALT || build.len() <= 1 {
        // Prehash-keyed index over the build side: keys are borrowed (no
        // clones), each probe hashes once and borrows its matches.
        let mut table: PrehashMap<&Value, Vec<u32>> = PrehashMap::new();
        for (i, t) in build.iter().enumerate() {
            let k = t.value(build_key);
            if !k.is_null() {
                table
                    .entry_hashed(fx_hash(k), |kk| *kk == k, || k)
                    .push(i as u32);
            }
        }
        for p in &probe {
            let k = p.value(probe_key);
            if k.is_null() {
                continue;
            }
            if let Some(matches) = table.get_hashed(fx_hash(k), |kk| *kk == k) {
                for &i in matches {
                    let b = &build[i as usize];
                    out.push(if probe_first {
                        p.concat(b)
                    } else {
                        b.concat(p)
                    });
                }
            }
        }
        return Ok(());
    }
    // Recursive partitioning: split both sides into sub-buckets on a new
    // salt, spill them (counted), and recurse pairwise.
    const FANOUT: usize = 8;
    let mut build_parts: Vec<Vec<Tuple>> = (0..FANOUT).map(|_| Vec::new()).collect();
    let mut probe_parts: Vec<Vec<Tuple>> = (0..FANOUT).map(|_| Vec::new()).collect();
    for t in build {
        let b = bucket_of(t.value(build_key), FANOUT, salt + 1);
        build_parts[b].push(t);
    }
    for t in probe {
        let b = bucket_of(t.value(probe_key), FANOUT, salt + 1);
        probe_parts[b].push(t);
    }
    for (bp, pp) in build_parts.into_iter().zip(probe_parts) {
        if bp.is_empty() || pp.is_empty() {
            continue;
        }
        // account the re-partitioning I/O
        let bb = spill.create_bucket("repart-build");
        spill.write(bb, &bp)?;
        let pb = spill.create_bucket("repart-probe");
        spill.write(pb, &pp)?;
        let bp = spill.read_all(bb)?;
        let pp = spill.read_all(pb)?;
        join_sets(
            bp,
            pp,
            build_key,
            probe_key,
            budget,
            salt + 1,
            spill,
            probe_first,
            out,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_common::tuple;
    use tukwila_storage::{InMemorySpillStore, MemoryManager};

    fn table(budget: usize) -> (BucketedTable, MemoryReservation, Arc<InMemorySpillStore>) {
        let mm = MemoryManager::new();
        let r = mm.register("t", budget);
        let spill = Arc::new(InMemorySpillStore::new());
        let t = BucketedTable::new("t", 4, 0, Some(r.clone()), spill.clone());
        (t, r, spill)
    }

    #[test]
    fn insert_and_probe() {
        let (mut t, _, _) = table(1_000_000);
        t.insert(tuple![1, 10]);
        t.insert(tuple![1, 11]);
        t.insert(tuple![2, 20]);
        assert_eq!(t.probe(&Value::Int(1)).len(), 2);
        assert_eq!(t.probe(&Value::Int(2)).len(), 1);
        assert!(t.probe(&Value::Int(3)).is_empty());
        assert_eq!(t.total_tuples(), 3);
    }

    #[test]
    fn flush_releases_memory_and_diverts() {
        let (mut t, r, spill) = table(1_000_000);
        for i in 0..20i64 {
            t.insert(tuple![i, i]);
        }
        let used_before = r.usage().used;
        assert!(used_before > 0);
        let b = t.largest_unflushed().unwrap();
        let written = t.flush_bucket(b).unwrap();
        assert!(written > 0);
        assert!(t.is_flushed(b));
        assert!(r.usage().used < used_before);
        assert_eq!(spill.stats().tuples_written(), written);
        // old_tuples reads the file back (counted)
        let old = t.old_tuples(b).unwrap();
        assert_eq!(old.len(), written);
        assert_eq!(spill.stats().tuples_read(), written);
    }

    #[test]
    fn marked_tuples_tracked_separately() {
        let (mut t, _, _) = table(1_000_000);
        t.insert(tuple![1, 1]);
        t.insert_marked(tuple![1, 2]);
        assert_eq!(t.probe(&Value::Int(1)).len(), 1); // primary only
        assert_eq!(t.probe_all_mem(&Value::Int(1)).count(), 2);
        let b = t.bucket_for(&Value::Int(1));
        assert_eq!(t.new_tuples(b).unwrap().len(), 1);
        assert_eq!(t.old_tuples(b).unwrap().len(), 1);
    }

    #[test]
    fn flush_preserves_marks() {
        let (mut t, _, _) = table(1_000_000);
        t.insert(tuple![1, 1]);
        t.insert_marked(tuple![1, 2]);
        let b = t.bucket_for(&Value::Int(1));
        t.flush_bucket(b).unwrap();
        assert_eq!(t.old_tuples(b).unwrap(), vec![tuple![1, 1]]);
        assert_eq!(t.new_tuples(b).unwrap(), vec![tuple![1, 2]]);
        // post-flush arrivals spill as new
        t.spill_new(b, &tuple![1, 3]).unwrap();
        assert_eq!(t.new_tuples(b).unwrap().len(), 2);
    }

    #[test]
    fn join_sets_in_memory() {
        let build = vec![tuple![1, 10], tuple![2, 20]];
        let probe = vec![tuple![1, 100], tuple![1, 101], tuple![3, 300]];
        let spill: Arc<dyn SpillStore> = Arc::new(InMemorySpillStore::new());
        let mut out = Vec::new();
        join_sets(build, probe, 0, 0, None, 0, &spill, true, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].arity(), 4);
        // probe_first: probe tuple leads
        assert_eq!(out[0].value(1), &Value::Int(100));
    }

    #[test]
    fn join_sets_recursive_partitioning_counts_io() {
        // tiny budget forces re-partitioning
        let build: Vec<Tuple> = (0..64i64).map(|i| tuple![i % 8, i]).collect();
        let probe: Vec<Tuple> = (0..64i64).map(|i| tuple![i % 8, i]).collect();
        let spill_store = Arc::new(InMemorySpillStore::new());
        let spill: Arc<dyn SpillStore> = spill_store.clone();
        let mut out = Vec::new();
        join_sets(build, probe, 0, 0, Some(64), 0, &spill, true, &mut out).unwrap();
        // 8 keys × 8 build × 8 probe per key = 512 results
        assert_eq!(out.len(), 512);
        assert!(spill_store.stats().tuples_written() > 0);
        assert_eq!(
            spill_store.stats().tuples_written(),
            spill_store.stats().tuples_read()
        );
    }

    #[test]
    fn null_keys_never_match() {
        let build = vec![Tuple::new(vec![Value::Null, Value::Int(1)])];
        let probe = vec![Tuple::new(vec![Value::Null, Value::Int(2)])];
        let spill: Arc<dyn SpillStore> = Arc::new(InMemorySpillStore::new());
        let mut out = Vec::new();
        join_sets(build, probe, 0, 0, None, 0, &spill, true, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn bucket_of_is_stable_and_salted() {
        let v = Value::Int(42);
        assert_eq!(bucket_of(&v, 16, 0), bucket_of(&v, 16, 0));
        // different salts redistribute (not a hard guarantee per value, but
        // across many values the distributions must differ)
        let moved = (0..100i64)
            .filter(|&i| bucket_of(&Value::Int(i), 16, 0) != bucket_of(&Value::Int(i), 16, 1))
            .count();
        assert!(moved > 50, "salt should redistribute, moved={moved}");
    }
}
