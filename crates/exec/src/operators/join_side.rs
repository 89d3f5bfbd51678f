//! One join input's in-memory partition, columnar from arrival through
//! overflow: the one side representation the hash join (§4.2) stores,
//! probes, flushes and cleans up under every schedule and flush policy.
//!
//! A side's rows (non-NULL keys only, arrival order) live as growing typed
//! columns with a row-id index over them ([`ResidentSide`]). Until memory
//! pressure first appears that is all there is: no row is assigned a
//! bucket. The first flush splits the side into its fixed hash buckets by
//! each stored row's cached prehash (`fold_hash(h, buckets, 0)`) and from
//! then on keeps per-bucket byte counters. Flushing bucket *b* appends its
//! rows to spill storage as one [`ColumnarBatch`] and releases their
//! charge; the rows stay in the store, unreachable (no probe enters a
//! flushed bucket), until they outnumber the live ones and the store
//! compacts. Rows arriving for a flushed bucket are appended to its
//! new-spill instead of stored.
//!
//! Marking (the paper's duplicate-avoidance device): rows that were in
//! memory when their bucket flushed are *old* (they have already joined
//! with every opposite-side row that arrived before the flush); rows
//! arriving after the flush are *new*. Under Left Flush the unflushed side
//! keeps its new rows in memory, in a second, unindexed store. The overflow
//! cleanup joins old×new, new×old and new×new — never old×old, which was
//! emitted online — each as the resident join, recursively, on one bucket
//! pair ([`BucketJoin`]).

use std::borrow::Cow;
use std::sync::Arc;

use tukwila_common::{
    fold_hash, ColumnarBatch, OutputQueue, PrehashMap, Result, TukwilaError, TupleBatch,
};
use tukwila_storage::{MemoryReservation, SpillBucket, SpillStore};

/// End of a [`ResidentSide`] key chain.
const NIL: u32 = u32::MAX;

/// Rows with non-NULL keys and their key prehashes, in arrival order.
#[derive(Clone, Default)]
pub(crate) struct Keyed {
    pub(crate) rows: ColumnarBatch,
    pub(crate) hashes: Vec<u64>,
}

impl Keyed {
    /// The rows of `rows` whose key (column `key`) is not NULL, prehashed
    /// once. NULL keys never join, so they are never stored, indexed,
    /// charged or spilled.
    pub(crate) fn of(mut rows: ColumnarBatch, key: usize) -> Keyed {
        let mut kv = Vec::with_capacity(rows.len());
        rows.col(key).hash_append(&mut kv);
        // Sized up front: collecting a flatten or a filter grows a vector by
        // doubling, which on small batches costs more than the hashing.
        let mut hashes = Vec::with_capacity(kv.len());
        hashes.extend(kv.iter().flatten());
        if hashes.len() < rows.len() {
            let mut keep = Vec::with_capacity(hashes.len());
            keep.extend((0..rows.len() as u32).filter(|&i| kv[i as usize].is_some()));
            rows = rows.gather(&keep);
        }
        Keyed { rows, hashes }
    }

    /// An arriving batch, converted to columns once if it is in row form.
    pub(crate) fn arrived(batch: &TupleBatch, key: usize) -> Keyed {
        if batch.is_empty() {
            return Keyed::default();
        }
        let rows = match batch.columns() {
            Some(cols) => cols.clone(),
            None => ColumnarBatch::from_rows(batch.tuples()),
        };
        Keyed::of(rows, key)
    }

    /// Every row spilled to `bucket` (none without one), read back.
    fn read(spill: &dyn SpillStore, bucket: Option<SpillBucket>, key: usize) -> Result<Keyed> {
        let mut out = Keyed::default();
        if let Some(bucket) = bucket {
            for batch in spill.read(bucket)? {
                out.append(&Keyed::of(batch, key));
            }
        }
        Ok(out)
    }

    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Append `other`'s rows; a column that changes variant is widened.
    pub(crate) fn append(&mut self, other: &Keyed) {
        if !other.is_empty() {
            self.rows.append_widening(&other.rows);
            self.hashes.extend_from_slice(&other.hashes);
        }
    }

    /// The rows at `idx`, which must be increasing (so taking all of them
    /// shares the columns instead of copying).
    pub(crate) fn gather(&self, idx: &[u32]) -> Keyed {
        if idx.len() == self.len() {
            return self.clone();
        }
        Keyed {
            rows: self.rows.gather(idx),
            hashes: idx.iter().map(|&i| self.hashes[i as usize]).collect(),
        }
    }

    /// Ids of the rows whose prehash routes to bucket `b` of `n` under
    /// `salt`.
    fn in_bucket(&self, n: usize, salt: u64, b: usize) -> Vec<u32> {
        (0..self.len() as u32)
            .filter(|&i| fold_hash(self.hashes[i as usize], n, salt) == b)
            .collect()
    }
}

/// One side's stored rows plus a row-id index over them. Rows of one key
/// form a chain through `next` in arrival order — `index` maps the key's
/// first row to its last — so a probe yields matches in arrival order and
/// indexing allocates nothing per distinct key.
pub(crate) struct ResidentSide {
    key: usize,
    stored: Keyed,
    index: PrehashMap<u32, u32>,
    next: Vec<u32>,
}

impl ResidentSide {
    /// An empty store keyed on column `key`.
    pub(crate) fn new(key: usize) -> Self {
        ResidentSide {
            key,
            stored: Keyed::default(),
            index: PrehashMap::new(),
            next: Vec::new(),
        }
    }

    /// Append `part` and index it.
    pub(crate) fn store(&mut self, part: &Keyed) -> Result<()> {
        if part.is_empty() {
            return Ok(());
        }
        // Row ids are `u32` with `NIL` reserved.
        if self.stored.len() + part.len() >= NIL as usize {
            return Err(TukwilaError::Internal(
                "a join side holds more than 2^32 rows".into(),
            ));
        }
        let first = self.stored.len() as u32;
        self.stored.append(part);
        let keys = self.stored.rows.col(self.key);
        for (row, &h) in (first..).zip(&part.hashes) {
            self.next.push(NIL);
            let mut first_of_key = false;
            let last = self.index.entry_hashed(
                h,
                |&head| keys.eq_at(head as usize, keys, row as usize),
                || {
                    first_of_key = true;
                    row
                },
            );
            if !first_of_key {
                self.next[*last as usize] = row;
            }
            *last = row;
        }
        Ok(())
    }
}

/// Paired selection vectors of a probe — one `(probe row, stored row)`
/// entry per output row — kept across calls so tiny batches allocate
/// nothing here.
#[derive(Default)]
pub(crate) struct Matches {
    probe: Vec<u32>,
    stored: Vec<u32>,
}

impl Matches {
    /// Pair each of `rows` of `probe` (key column `probe_key`) with every
    /// row of `side` holding an equal key.
    pub(crate) fn find(
        &mut self,
        side: &ResidentSide,
        probe: &Keyed,
        probe_key: usize,
        rows: impl IntoIterator<Item = u32>,
    ) {
        self.probe.clear();
        self.stored.clear();
        if side.stored.is_empty() || probe.is_empty() {
            return;
        }
        let keys = side.stored.rows.col(side.key);
        let probe_keys = probe.rows.col(probe_key);
        for i in rows {
            let found = side
                .index
                .get_entry_hashed(probe.hashes[i as usize], |&head| {
                    keys.eq_at(head as usize, probe_keys, i as usize)
                });
            let mut row = found.map_or(NIL, |(&head, _)| head);
            while row != NIL {
                self.probe.push(i);
                self.stored.push(row);
                row = side.next[row as usize];
            }
        }
    }

    /// Emit the pairs into `out` as blocks of at most `block` rows, each
    /// two typed gathers side by side: the probe rows' columns first when
    /// `probe_first`, else the stored rows'.
    pub(crate) fn emit(
        &self,
        probe: &ColumnarBatch,
        side: &ResidentSide,
        probe_first: bool,
        block: usize,
        out: &mut OutputQueue,
    ) {
        for (p, s) in self.probe.chunks(block).zip(self.stored.chunks(block)) {
            let (p, s) = (probe.gather(p), side.stored.rows.gather(s));
            let rows = if probe_first {
                ColumnarBatch::hstack(p, s)
            } else {
                ColumnarBatch::hstack(s, p)
            };
            out.extend_block(TupleBatch::from_columns(rows));
        }
    }
}

/// A run of arrived rows, split by where each goes.
#[derive(Default)]
pub(crate) struct Routed {
    /// One past the last row of the run.
    pub(crate) end: usize,
    /// Charging the run's stored rows puts the join under memory pressure,
    /// at its last row: overflow resolution runs before the next run.
    pub(crate) tripped: bool,
    /// Bytes the run's stored and marked rows charge.
    bytes: usize,
    /// Rows to probe against the opposite side.
    pub(crate) probe: Vec<u32>,
    /// `(bucket, row)` of the rows to spill, in arrival order.
    spill: Vec<(usize, u32)>,
    store: Vec<u32>,
    mark: Vec<u32>,
}

/// Per-bucket state of a side, from its first flush on.
struct Buckets {
    /// In-memory bytes (resident and marked rows) of each bucket.
    bytes: Vec<usize>,
    flushed: Vec<bool>,
    /// Marked (new) rows kept in memory: Left Flush's unflushed side after
    /// the opposite bucket flushed. Never probed, so never indexed.
    marked: Keyed,
    old: Vec<Option<SpillBucket>>,
    new: Vec<Option<SpillBucket>>,
    /// Resident rows of flushed buckets still in the store.
    dead: usize,
}

/// The bucket state of a side, built on first use from the stored rows'
/// cached prehashes and sizes.
fn buckets_of<'a>(
    slot: &'a mut Option<Buckets>,
    resident: &ResidentSide,
    n: usize,
) -> &'a mut Buckets {
    slot.get_or_insert_with(|| {
        let mut bytes = vec![0; n];
        let stored = &resident.stored;
        for (i, &h) in stored.hashes.iter().enumerate() {
            bytes[fold_hash(h, n, 0)] += stored.rows.row_mem_size(i);
        }
        Buckets {
            bytes,
            flushed: vec![false; n],
            marked: Keyed::default(),
            old: vec![None; n],
            new: vec![None; n],
            dead: 0,
        }
    })
}

/// The spill bucket in `slot`, created on first use.
fn handle(
    spill: &dyn SpillStore,
    slot: &mut Option<SpillBucket>,
    label: &str,
) -> Result<SpillBucket> {
    match *slot {
        Some(bucket) => Ok(bucket),
        None => Ok(*slot.insert(spill.create_bucket(label)?)),
    }
}

/// One join input: its [`ResidentSide`], its charge on the join's memory
/// reservation and, once memory pressure has been met, its buckets.
pub(crate) struct JoinSide {
    label: String,
    num_buckets: usize,
    resident: ResidentSide,
    /// Bytes charged for the resident and marked rows.
    charged: usize,
    buckets: Option<Buckets>,
    reservation: Option<MemoryReservation>,
    spill: Arc<dyn SpillStore>,
}

impl JoinSide {
    /// An empty side of `num_buckets` buckets keyed on column `key`,
    /// charging `reservation` and spilling to `spill` (buckets labelled
    /// after `label`).
    pub(crate) fn new(
        label: String,
        num_buckets: usize,
        key: usize,
        reservation: Option<MemoryReservation>,
        spill: Arc<dyn SpillStore>,
    ) -> Self {
        JoinSide {
            label,
            num_buckets: num_buckets.max(1),
            resident: ResidentSide::new(key),
            charged: 0,
            buckets: None,
            reservation,
            spill,
        }
    }

    /// The stored rows and their index.
    pub(crate) fn resident(&self) -> &ResidentSide {
        &self.resident
    }

    /// Whether bucket `b` has been flushed.
    pub(crate) fn is_flushed(&self, b: usize) -> bool {
        self.buckets.as_ref().is_some_and(|bk| bk.flushed[b])
    }

    /// In-memory bytes of every bucket.
    pub(crate) fn bucket_bytes(&mut self) -> &[usize] {
        &buckets_of(&mut self.buckets, &self.resident, self.num_buckets).bytes
    }

    /// The unflushed bucket holding the most memory (the lowest-numbered
    /// among equals), if any is unflushed.
    pub(crate) fn largest_unflushed(&mut self) -> Option<usize> {
        let bk = buckets_of(&mut self.buckets, &self.resident, self.num_buckets);
        (0..bk.bytes.len())
            .filter(|&b| !bk.flushed[b])
            .max_by_key(|&b| (bk.bytes[b], usize::MAX - b))
    }

    /// Take `other`'s flushed buckets as flushed here, recording no flush:
    /// a side that is only probed (its opposite input complete) spills its
    /// rows of those buckets for the cleanup instead of marking them.
    pub(crate) fn mirror(&mut self, other: &JoinSide) {
        if let Some(theirs) = &other.buckets {
            let bk = buckets_of(&mut self.buckets, &self.resident, self.num_buckets);
            bk.flushed.clone_from(&theirs.flushed);
        }
    }

    /// Route rows `start..` of `arrived`, rows of this side: a row whose
    /// bucket is flushed here spills, unprobed (the cleanup joins it); any
    /// other probes `other` and is stored — unless `keep` is false
    /// (footnote 3: the opposite input is complete, so the probe found
    /// every match) — or, when `other`'s bucket is flushed, stored marked
    /// and left unprobed (the opposite rows of the bucket are on disk for
    /// the cleanup). Buckets are computed only once either side has met
    /// memory pressure. The run ends just past the first stored row whose
    /// charge, with the run's earlier ones, leaves the reservation under
    /// pressure — the row at which an engine charging row by row would
    /// resolve overflow.
    pub(crate) fn route(
        &self,
        other: &JoinSide,
        keep: bool,
        arrived: &Keyed,
        start: usize,
    ) -> Routed {
        let bucketed = self.buckets.is_some() || other.buckets.is_some();
        let all = (start as u32)..(arrived.len() as u32);
        if !bucketed && !keep {
            return Routed {
                end: arrived.len(),
                probe: all.collect(),
                ..Routed::default()
            };
        }
        // Bytes left to charge before the reservation is under pressure
        // (`None`: it already is).
        let mut room = self
            .reservation
            .as_ref()
            .map_or(Some(usize::MAX), MemoryReservation::headroom);
        if !bucketed && start == 0 {
            // No overflow yet, and none now if the whole batch fits: one
            // run, no per-row work.
            let bytes = arrived.rows.mem_size();
            if room.is_some_and(|r| bytes <= r) {
                return Routed {
                    end: arrived.len(),
                    bytes,
                    probe: all.clone().collect(),
                    store: all.collect(),
                    ..Routed::default()
                };
            }
        }
        let mut routed = Routed::default();
        for row in all {
            let b = fold_hash(arrived.hashes[row as usize], self.num_buckets, 0);
            if bucketed && self.is_flushed(b) {
                routed.spill.push((b, row));
                continue;
            }
            if bucketed && other.is_flushed(b) {
                routed.mark.push(row);
            } else if keep {
                routed.probe.push(row);
                routed.store.push(row);
            } else {
                routed.probe.push(row);
                continue;
            }
            let size = arrived.rows.row_mem_size(row as usize);
            routed.bytes += size;
            room = room.and_then(|r| r.checked_sub(size));
            if room.is_none() {
                routed.end = row as usize + 1;
                routed.tripped = true;
                return routed;
            }
        }
        routed.end = arrived.len();
        routed
    }

    /// Carry out a [`JoinSide::route`]: spill, store and mark its rows,
    /// charging them. Returns the rows spilled.
    pub(crate) fn settle(&mut self, arrived: &Keyed, routed: &mut Routed) -> Result<u64> {
        let n = self.num_buckets;
        if !routed.mark.is_empty() {
            buckets_of(&mut self.buckets, &self.resident, n);
        }
        for (rows, marked) in [(&routed.store, false), (&routed.mark, true)] {
            if rows.is_empty() {
                continue;
            }
            // A batch stored whole is shared, not copied.
            let part = match rows.len() == arrived.len() {
                true => Cow::Borrowed(arrived),
                false => Cow::Owned(arrived.gather(rows)),
            };
            if let Some(bk) = &mut self.buckets {
                // From the first flush on, every charge counts into its bucket.
                for (i, &h) in part.hashes.iter().enumerate() {
                    bk.bytes[fold_hash(h, n, 0)] += part.rows.row_mem_size(i);
                }
                if marked {
                    bk.marked.append(&part);
                }
            }
            if !marked {
                self.resident.store(&part)?;
            }
        }
        if let Some(r) = &self.reservation {
            r.charge(routed.bytes);
        }
        self.charged += routed.bytes;
        if let (Some(bk), false) = (&mut self.buckets, routed.spill.is_empty()) {
            // One batch per bucket, in arrival order within each.
            routed.spill.sort_by_key(|&(b, _)| b);
            for run in routed.spill.chunk_by(|x, y| x.0 == y.0) {
                let b = run[0].0;
                let idx: Vec<u32> = run.iter().map(|&(_, row)| row).collect();
                let label = format!("{}-new-{b}", self.label);
                let bucket = handle(&*self.spill, &mut bk.new[b], &label)?;
                self.spill.append(bucket, &arrived.rows.gather(&idx))?;
            }
        }
        Ok(routed.spill.len() as u64)
    }

    /// Flush bucket `b`: append its resident rows to its old-spill and its
    /// marked rows to its new-spill, one batch each, and release their
    /// charge. Returns the rows written.
    pub(crate) fn flush(&mut self, b: usize) -> Result<usize> {
        let n = self.num_buckets;
        let bk = buckets_of(&mut self.buckets, &self.resident, n);
        let stored = &self.resident.stored;
        let old = stored.gather(&stored.in_bucket(n, 0, b));
        let (new, kept): (Vec<u32>, Vec<u32>) = (0..bk.marked.len() as u32)
            .partition(|&i| fold_hash(bk.marked.hashes[i as usize], n, 0) == b);
        let new = bk.marked.gather(&new);
        for (rows, slot, kind) in [(&old, &mut bk.old[b], "old"), (&new, &mut bk.new[b], "new")] {
            if !rows.is_empty() {
                let label = format!("{}-{kind}-{b}", self.label);
                self.spill
                    .append(handle(&*self.spill, slot, &label)?, &rows.rows)?;
            }
        }
        bk.marked = bk.marked.gather(&kept);
        let bytes = std::mem::take(&mut bk.bytes[b]);
        if let Some(r) = &self.reservation {
            r.release(bytes);
        }
        self.charged -= bytes;
        bk.flushed[b] = true;
        bk.dead += old.len();
        self.spill.stats().record_flush_event();
        if 2 * bk.dead > stored.len() {
            // Compact: drop the rows of flushed buckets, re-indexing the rest.
            let live: Vec<u32> = (0..stored.len() as u32)
                .filter(|&i| !bk.flushed[fold_hash(stored.hashes[i as usize], n, 0)])
                .collect();
            let mut fresh = ResidentSide::new(self.resident.key);
            fresh.store(&stored.gather(&live))?;
            self.resident = fresh;
            bk.dead = 0;
        }
        Ok(old.len() + new.len())
    }

    /// Bucket `b`'s old rows: its old-spill read back once flushed, its
    /// resident rows until then.
    pub(crate) fn old_rows(&self, b: usize) -> Result<Keyed> {
        match &self.buckets {
            Some(bk) if bk.flushed[b] => Keyed::read(&*self.spill, bk.old[b], self.resident.key),
            _ => {
                let stored = &self.resident.stored;
                Ok(stored.gather(&stored.in_bucket(self.num_buckets, 0, b)))
            }
        }
    }

    /// Bucket `b`'s new (marked) rows: its new-spill read back, and those
    /// still in memory.
    pub(crate) fn new_rows(&self, b: usize) -> Result<Keyed> {
        let Some(bk) = &self.buckets else {
            return Ok(Keyed::default());
        };
        let mut out = Keyed::read(&*self.spill, bk.new[b], self.resident.key)?;
        out.append(
            &bk.marked
                .gather(&bk.marked.in_bucket(self.num_buckets, 0, b)),
        );
        Ok(out)
    }

    /// Drop every row held in memory, releasing its charge (join close).
    pub(crate) fn clear(&mut self) {
        if let Some(r) = &self.reservation {
            r.release(self.charged);
        }
        self.charged = 0;
        self.resident = ResidentSide::new(self.resident.key);
        self.buckets = None;
    }
}

/// The overflow cleanup's join of one bucket pair: `probe ⋈ build`, probe
/// columns first, into `out` in blocks of `block` rows — the resident join
/// with `build` stored and `probe` probing it. A build side over `budget`
/// is re-partitioned 8 ways on a fresh salt through the spill store
/// (recursive hashing, §4.2.1; those writes and reads are counted I/O) and
/// each sub-bucket pair joined the same way, down to salt 4.
pub(crate) struct BucketJoin<'a> {
    pub(crate) build_key: usize,
    pub(crate) probe_key: usize,
    pub(crate) budget: Option<usize>,
    pub(crate) spill: &'a dyn SpillStore,
    pub(crate) block: usize,
}

impl BucketJoin<'_> {
    /// Join `build` and `probe` at recursion depth `salt`.
    pub(crate) fn run(
        &self,
        build: Keyed,
        probe: &Keyed,
        salt: u64,
        out: &mut OutputQueue,
    ) -> Result<()> {
        const MAX_DEPTH_SALT: u64 = 4;
        const FANOUT: usize = 8;
        let fits = self.budget.is_none_or(|b| build.rows.mem_size() <= b);
        if fits || salt >= MAX_DEPTH_SALT || build.len() <= 1 {
            let mut table = ResidentSide::new(self.build_key);
            table.store(&build)?;
            let mut matches = Matches::default();
            matches.find(&table, probe, self.probe_key, 0..probe.len() as u32);
            matches.emit(&probe.rows, &table, true, self.block, out);
            return Ok(());
        }
        for part in 0..FANOUT {
            let build_part = build.gather(&build.in_bucket(FANOUT, salt + 1, part));
            let probe_part = probe.gather(&probe.in_bucket(FANOUT, salt + 1, part));
            if build_part.is_empty() || probe_part.is_empty() {
                continue;
            }
            let build_part = self.round_trip(&build_part, "repart-build", self.build_key)?;
            let probe_part = self.round_trip(&probe_part, "repart-probe", self.probe_key)?;
            self.run(build_part, &probe_part, salt + 1, out)?;
        }
        Ok(())
    }

    /// Write `rows` to a fresh spill bucket and read them back (both
    /// counted), then remove the bucket.
    fn round_trip(&self, rows: &Keyed, label: &str, key: usize) -> Result<Keyed> {
        let bucket = self.spill.create_bucket(label)?;
        self.spill.append(bucket, &rows.rows)?;
        let back = Keyed::read(self.spill, Some(bucket), key);
        self.spill.remove_bucket(bucket);
        back
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_common::{tuple, Tuple, Value};
    use tukwila_storage::{InMemorySpillStore, MemoryManager};

    fn keyed(rows: &[Tuple]) -> Keyed {
        Keyed::of(ColumnarBatch::from_rows(rows), 0)
    }

    fn side(budget: usize) -> (JoinSide, MemoryReservation, Arc<InMemorySpillStore>) {
        let r = MemoryManager::new().register("t", budget);
        let spill = Arc::new(InMemorySpillStore::new());
        let side = JoinSide::new("t".into(), 4, 0, Some(r.clone()), spill.clone());
        (side, r, spill)
    }

    /// Route and settle every row of `arrived` on `side` against `other`
    /// (an empty side without one), resolving no overflow; returns the
    /// runs' ends.
    fn arrive(side: &mut JoinSide, other: Option<&JoinSide>, arrived: &Keyed) -> Vec<usize> {
        let empty = JoinSide::new("e".into(), 4, 0, None, Arc::new(InMemorySpillStore::new()));
        let other = other.unwrap_or(&empty);
        let (mut start, mut ends) = (0, Vec::new());
        while start < arrived.len() {
            let mut routed = side.route(other, true, arrived, start);
            side.settle(arrived, &mut routed).unwrap();
            start = routed.end;
            ends.push(start);
        }
        ends
    }

    fn probe_count(side: &JoinSide, key: i64) -> usize {
        let mut m = Matches::default();
        m.find(side.resident(), &keyed(&[tuple![key]]), 0, [0]);
        m.probe.len()
    }

    #[test]
    fn null_keys_are_never_kept() {
        let k = keyed(&[Tuple::new(vec![Value::Null, Value::Int(1)]), tuple![2, 2]]);
        assert_eq!(k.len(), 1);
        assert_eq!(k.rows.row_values(0), vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn a_run_ends_at_the_row_whose_charge_overflows() {
        let rows: Vec<Tuple> = (0..10i64).map(|i| tuple![i, i]).collect();
        let per_row = rows[0].mem_size();
        let (mut side, r, _) = side(per_row * 4 + per_row / 2);
        // Rows 0..4 fit; the fifth's charge is over budget.
        assert_eq!(arrive(&mut side, None, &keyed(&rows)), [5, 6, 7, 8, 9, 10]);
        assert_eq!(r.usage().used, per_row * 10, "every stored row is charged");
        assert_eq!(r.usage().peak, per_row * 10);
        side.clear();
        assert_eq!(r.usage().used, 0);
    }

    #[test]
    fn flush_spills_one_batch_and_releases_its_bytes() {
        let (mut side, r, spill) = side(1_000_000);
        let rows: Vec<Tuple> = (0..20i64).map(|i| tuple![i, i]).collect();
        arrive(&mut side, None, &keyed(&rows));
        let before = r.usage().used;
        let b = side.largest_unflushed().unwrap();
        let bytes = side.bucket_bytes()[b];
        let written = side.flush(b).unwrap();
        assert!(written > 0);
        assert!(side.is_flushed(b));
        assert_eq!(r.usage().used, before - bytes);
        assert_eq!(spill.stats().tuples_written(), written);
        assert_eq!(spill.stats().flush_events(), 1);
        // Its rows are read back from the old-spill, once, as one batch.
        assert_eq!(side.old_rows(b).unwrap().len(), written);
        assert_eq!(spill.stats().tuples_read(), written);
        // Later arrivals for the bucket spill new, unstored.
        let again: Vec<Tuple> = rows
            .iter()
            .filter(|t| fold_hash(tukwila_common::fx_hash(t.value(0)), 4, 0) == b)
            .cloned()
            .collect();
        arrive(&mut side, None, &keyed(&again));
        assert_eq!(r.usage().used, before - bytes);
        assert_eq!(side.new_rows(b).unwrap().len(), again.len());
        side.clear();
        assert_eq!(r.usage().used, 0);
    }

    #[test]
    fn marked_rows_wait_unindexed_until_their_bucket_flushes() {
        let (mut left, _, _) = side(1_000_000);
        let (mut right, r, spill) = side(1_000_000);
        arrive(&mut left, None, &keyed(&[tuple![1, 10]]));
        let b = fold_hash(tukwila_common::fx_hash(&Value::Int(1)), 4, 0);
        left.flush(b).unwrap();
        // The right's row for the left's flushed bucket is kept, marked.
        arrive(&mut right, Some(&left), &keyed(&[tuple![1, 20]]));
        assert_eq!(probe_count(&right, 1), 0, "marked rows are not probed");
        assert!(r.usage().used > 0);
        assert_eq!(right.new_rows(b).unwrap().len(), 1);
        assert_eq!(right.old_rows(b).unwrap().len(), 0);
        // Flushing moves them to the new-spill.
        assert_eq!(right.flush(b).unwrap(), 1);
        assert_eq!(r.usage().used, 0);
        assert_eq!(right.new_rows(b).unwrap().len(), 1);
        assert_eq!(spill.stats().tuples_read(), 1);
    }

    #[test]
    fn flushed_rows_leave_the_store_when_they_outnumber_the_live() {
        let (mut side, _, _) = side(1_000_000);
        let rows: Vec<Tuple> = (0..40i64).map(|i| tuple![i % 8, i]).collect();
        arrive(&mut side, None, &keyed(&rows));
        for b in 0..3 {
            side.flush(b).unwrap();
        }
        let live = |side: &JoinSide| -> usize { (0..8).map(|k| probe_count(side, k)).sum() };
        let unflushed = |side: &JoinSide, k: i64| {
            !side.is_flushed(fold_hash(tukwila_common::fx_hash(&Value::Int(k)), 4, 0))
        };
        let want: usize = (0..8).filter(|&k| unflushed(&side, k)).map(|_| 5).sum();
        assert!(side.resident().stored.len() <= 2 * want, "compacted");
        for k in (0..8).filter(|&k| unflushed(&side, k)) {
            assert_eq!(probe_count(&side, k), 5, "key {k}");
        }
        assert!(live(&side) >= want);
    }

    #[test]
    fn bucket_join_in_memory_and_repartitioned_agree() {
        let build = keyed(&(0..64i64).map(|i| tuple![i % 8, i]).collect::<Vec<_>>());
        let probe = keyed(&(0..64i64).map(|i| tuple![i % 8, i]).collect::<Vec<_>>());
        let spill = InMemorySpillStore::new();
        let run = |budget| {
            let join = BucketJoin {
                build_key: 0,
                probe_key: 0,
                budget,
                spill: &spill,
                block: 16,
            };
            let mut out = OutputQueue::new(16);
            join.run(build.clone(), &probe, 0, &mut out).unwrap();
            let rows: Vec<Tuple> = std::iter::from_fn(|| out.pop_block()).flatten().collect();
            rows
        };
        let in_memory = run(None);
        // 8 keys × 8 build × 8 probe rows per key.
        assert_eq!(in_memory.len(), 512);
        assert_eq!(in_memory[0].arity(), 4);
        assert_eq!(spill.stats().total_tuple_io(), 0);
        // A tiny budget re-partitions through the store, counted both ways.
        let mut repartitioned = run(Some(64));
        assert!(spill.stats().tuples_written() > 0);
        assert_eq!(spill.stats().tuples_written(), spill.stats().tuples_read());
        let mut in_memory = in_memory;
        let key = |t: &Tuple| format!("{t:?}");
        in_memory.sort_by_key(key);
        repartitioned.sort_by_key(key);
        assert_eq!(in_memory, repartitioned);
    }
}
