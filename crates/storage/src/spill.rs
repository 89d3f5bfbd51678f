//! Bucket-granularity spill storage with exact I/O accounting.
//!
//! The paper's overflow analysis (§4.2.3) counts *tuples* moved to and from
//! disk: "we count tuples rather than blocks". [`IoStats`] mirrors that
//! model, so tests can check the implemented strategies against the derived
//! cost formulas, and the `overflow_io` bench regenerates the analysis.
//!
//! The store holds **columnar batches**: a flush appends a bucket's rows as
//! one [`ColumnarBatch`], and cleanup reads the bucket's batches back. Two
//! implementations:
//! * [`InMemorySpillStore`] — deterministic, allocation-only; the default in
//!   tests, benches and the engine (I/O *accounting* is identical to the
//!   file store). It keeps the batches themselves.
//! * [`FileSpillStore`] — real temp files of [`crate::codec`] column
//!   frames; proves the overflow path works against an actual filesystem.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use tukwila_common::{ColumnarBatch, Result, TukwilaError};

use crate::codec;

/// Row-level spill I/O counters, one tuple I/O per row (shared,
/// thread-safe).
#[derive(Debug, Default)]
pub struct IoStats {
    tuples_written: AtomicUsize,
    tuples_read: AtomicUsize,
    bytes_written: AtomicUsize,
    bytes_read: AtomicUsize,
    flush_events: AtomicUsize,
}

impl IoStats {
    /// Tuples written to spill storage since creation.
    pub fn tuples_written(&self) -> usize {
        self.tuples_written.load(Ordering::Relaxed)
    }

    /// Tuples read back from spill storage.
    pub fn tuples_read(&self) -> usize {
        self.tuples_read.load(Ordering::Relaxed)
    }

    /// Bytes written (per the tuple memory model).
    pub fn bytes_written(&self) -> usize {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Bytes read back.
    pub fn bytes_read(&self) -> usize {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Number of distinct flush events (bucket evictions).
    pub fn flush_events(&self) -> usize {
        self.flush_events.load(Ordering::Relaxed)
    }

    /// Total tuple I/O operations — the unit of the paper's §4.2.3 cost
    /// analysis (one write + one read-back = 2 I/Os).
    pub fn total_tuple_io(&self) -> usize {
        self.tuples_written() + self.tuples_read()
    }

    /// Record a flush event (strategy-level, not per tuple).
    pub fn record_flush_event(&self) {
        self.flush_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Copyable point-in-time snapshot — subtract two to attribute spill
    /// I/O to one query when the store is shared across a fleet.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            tuples_written: self.tuples_written(),
            tuples_read: self.tuples_read(),
            bytes_written: self.bytes_written(),
            bytes_read: self.bytes_read(),
        }
    }

    fn record_write(&self, tuples: usize, bytes: usize) {
        self.tuples_written.fetch_add(tuples, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    fn record_read(&self, tuples: usize, bytes: usize) {
        self.tuples_read.fetch_add(tuples, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Point-in-time copy of [`IoStats`] counters. Subtracting a start-of-query
/// snapshot from an end-of-query one yields that query's own spill I/O even
/// when several queries share the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Tuples written to spill storage.
    pub tuples_written: usize,
    /// Tuples read back.
    pub tuples_read: usize,
    /// Bytes written.
    pub bytes_written: usize,
    /// Bytes read back.
    pub bytes_read: usize,
}

impl IoSnapshot {
    /// Counter-wise saturating difference (`self` later, `earlier` first).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            tuples_written: self.tuples_written.saturating_sub(earlier.tuples_written),
            tuples_read: self.tuples_read.saturating_sub(earlier.tuples_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
        }
    }
}

/// Handle to one spill bucket (an overflow file in the paper's terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpillBucket(u64);

/// Rows and bytes (the tuple memory model) of a bucket's batches.
fn rows_and_bytes(batches: &[ColumnarBatch]) -> (usize, usize) {
    batches
        .iter()
        .fold((0, 0), |(n, b), c| (n + c.len(), b + c.mem_size()))
}

/// Abstract spill storage: create a bucket, append columnar batches to it,
/// read its batches back, remove it. Every row written or read counts as
/// one tuple I/O, and its bytes as its [`ColumnarBatch::mem_size`] share.
///
/// All methods take `&self`; implementations are internally synchronized
/// because the double pipelined join's threads spill concurrently.
pub trait SpillStore: Send + Sync {
    /// Create a new, empty bucket. `label` is diagnostic only. Fails with
    /// [`TukwilaError::Io`] when the backing storage cannot hold one.
    fn create_bucket(&self, label: &str) -> Result<SpillBucket>;

    /// Append one batch to a bucket, counting its rows as written.
    fn append(&self, bucket: SpillBucket, batch: &ColumnarBatch) -> Result<()>;

    /// The bucket's batches in append order, counting their rows as read.
    fn read(&self, bucket: SpillBucket) -> Result<Vec<ColumnarBatch>>;

    /// Number of rows currently in the bucket.
    fn len(&self, bucket: SpillBucket) -> usize;

    /// Reclaim a bucket's storage. Reading a removed bucket errors;
    /// removing an unknown bucket is a no-op. Long-lived stores shared by
    /// a query fleet rely on this — see [`ScopedSpillStore`], which
    /// removes every bucket its query created when the query's
    /// environment is dropped.
    fn remove_bucket(&self, bucket: SpillBucket);

    /// Shared I/O counters.
    fn stats(&self) -> &Arc<IoStats>;
}

fn unknown(bucket: SpillBucket) -> TukwilaError {
    TukwilaError::Internal(format!("unknown spill bucket {bucket:?}"))
}

/// Deterministic in-memory spill store (accounting identical to the file
/// store). A bucket holds the appended batches themselves, so a write or a
/// read moves column handles, never rows.
#[derive(Debug, Default)]
pub struct InMemorySpillStore {
    next_id: AtomicU64,
    buckets: Mutex<HashMap<u64, Vec<ColumnarBatch>>>,
    stats: Arc<IoStats>,
}

impl InMemorySpillStore {
    /// Fresh store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpillStore for InMemorySpillStore {
    fn create_bucket(&self, _label: &str) -> Result<SpillBucket> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.buckets.lock().insert(id, Vec::new());
        Ok(SpillBucket(id))
    }

    fn append(&self, bucket: SpillBucket, batch: &ColumnarBatch) -> Result<()> {
        let mut guard = self.buckets.lock();
        let b = guard.get_mut(&bucket.0).ok_or_else(|| unknown(bucket))?;
        b.push(batch.clone());
        self.stats.record_write(batch.len(), batch.mem_size());
        Ok(())
    }

    fn read(&self, bucket: SpillBucket) -> Result<Vec<ColumnarBatch>> {
        let out = self
            .buckets
            .lock()
            .get(&bucket.0)
            .ok_or_else(|| unknown(bucket))?
            .clone();
        let (rows, bytes) = rows_and_bytes(&out);
        self.stats.record_read(rows, bytes);
        Ok(out)
    }

    fn len(&self, bucket: SpillBucket) -> usize {
        self.buckets
            .lock()
            .get(&bucket.0)
            .map_or(0, |b| rows_and_bytes(b).0)
    }

    fn remove_bucket(&self, bucket: SpillBucket) {
        self.buckets.lock().remove(&bucket.0);
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

/// File-backed spill store: one file per bucket in a private temp
/// directory (removed on drop), each append one column-major
/// [`crate::codec`] frame.
#[derive(Debug)]
pub struct FileSpillStore {
    dir: PathBuf,
    next_id: AtomicU64,
    files: Mutex<HashMap<u64, (PathBuf, File, usize)>>,
    stats: Arc<IoStats>,
}

impl FileSpillStore {
    /// Create a store under the system temp directory.
    pub fn new() -> Result<Self> {
        let dir = std::env::temp_dir().join(format!(
            "tukwila-spill-{}-{:x}",
            std::process::id(),
            // unique per store within a process
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(FileSpillStore {
            dir,
            next_id: AtomicU64::new(0),
            files: Mutex::new(HashMap::new()),
            stats: Arc::new(IoStats::default()),
        })
    }

    /// Directory holding the spill files (diagnostics).
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

impl Drop for FileSpillStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl SpillStore for FileSpillStore {
    fn create_bucket(&self, label: &str) -> Result<SpillBucket> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let sanitized: String = label
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = self.dir.join(format!("{id:06}-{sanitized}.spill"));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        self.files.lock().insert(id, (path, file, 0));
        Ok(SpillBucket(id))
    }

    fn append(&self, bucket: SpillBucket, batch: &ColumnarBatch) -> Result<()> {
        // One frame per append: the whole batch is encoded and written in
        // a single I/O, and read back frame by frame.
        let mut buf = Vec::new();
        codec::encode_columns(batch, &mut buf);
        let mut guard = self.files.lock();
        let (_, file, rows) = guard.get_mut(&bucket.0).ok_or_else(|| unknown(bucket))?;
        file.write_all(&buf)?;
        *rows += batch.len();
        self.stats.record_write(batch.len(), batch.mem_size());
        Ok(())
    }

    fn read(&self, bucket: SpillBucket) -> Result<Vec<ColumnarBatch>> {
        let path = {
            let guard = self.files.lock();
            let (path, _, _) = guard.get(&bucket.0).ok_or_else(|| unknown(bucket))?;
            path.clone()
        };
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let out = codec::decode_all_columns(&bytes)?;
        let (rows, mem) = rows_and_bytes(&out);
        self.stats.record_read(rows, mem);
        Ok(out)
    }

    fn len(&self, bucket: SpillBucket) -> usize {
        self.files.lock().get(&bucket.0).map_or(0, |(_, _, n)| *n)
    }

    fn remove_bucket(&self, bucket: SpillBucket) {
        if let Some((path, file, _)) = self.files.lock().remove(&bucket.0) {
            drop(file);
            let _ = std::fs::remove_file(path);
        }
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

/// Decorator giving one consumer (a query in a concurrent fleet) its own
/// I/O counters over a shared backing store: operations delegate to
/// `inner` (whose global counters still advance) while this store's
/// `stats()` count only the traffic that went through *this* handle — the
/// exact per-query attribution `ExecutionStats` reports. Dropping the
/// scope reclaims every bucket created through it, so a long-running
/// service does not accumulate finished queries' overflow data.
pub struct ScopedSpillStore {
    inner: Arc<dyn SpillStore>,
    stats: Arc<IoStats>,
    created: Mutex<Vec<SpillBucket>>,
}

impl ScopedSpillStore {
    /// Wrap `inner` with fresh counters.
    pub fn new(inner: Arc<dyn SpillStore>) -> Self {
        ScopedSpillStore {
            inner,
            stats: Arc::new(IoStats::default()),
            created: Mutex::new(Vec::new()),
        }
    }
}

impl Drop for ScopedSpillStore {
    fn drop(&mut self) {
        for bucket in self.created.get_mut().drain(..) {
            self.inner.remove_bucket(bucket);
        }
    }
}

impl SpillStore for ScopedSpillStore {
    fn create_bucket(&self, label: &str) -> Result<SpillBucket> {
        let bucket = self.inner.create_bucket(label)?;
        self.created.lock().push(bucket);
        Ok(bucket)
    }

    fn append(&self, bucket: SpillBucket, batch: &ColumnarBatch) -> Result<()> {
        self.inner.append(bucket, batch)?;
        self.stats.record_write(batch.len(), batch.mem_size());
        Ok(())
    }

    fn read(&self, bucket: SpillBucket) -> Result<Vec<ColumnarBatch>> {
        let out = self.inner.read(bucket)?;
        let (rows, bytes) = rows_and_bytes(&out);
        self.stats.record_read(rows, bytes);
        Ok(out)
    }

    fn len(&self, bucket: SpillBucket) -> usize {
        self.inner.len(bucket)
    }

    fn remove_bucket(&self, bucket: SpillBucket) {
        self.created.lock().retain(|b| *b != bucket);
        self.inner.remove_bucket(bucket);
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

/// Decorator adding a per-tuple service time to spill I/O — models the
/// disk the paper's overflow files landed on (our in-memory store would
/// otherwise make overflow nearly free, hiding the §6.3/§6.4 costs).
pub struct ThrottledSpillStore {
    inner: Arc<dyn SpillStore>,
    write_per_tuple: std::time::Duration,
    read_per_tuple: std::time::Duration,
}

impl ThrottledSpillStore {
    /// Wrap `inner`, charging the given per-tuple service times.
    pub fn new(
        inner: Arc<dyn SpillStore>,
        write_per_tuple: std::time::Duration,
        read_per_tuple: std::time::Duration,
    ) -> Self {
        ThrottledSpillStore {
            inner,
            write_per_tuple,
            read_per_tuple,
        }
    }
}

/// Sleep `per_row` once for each of `rows` rows.
fn service_time(per_row: std::time::Duration, rows: usize) {
    if !per_row.is_zero() && rows > 0 {
        std::thread::sleep(per_row * rows as u32);
    }
}

impl SpillStore for ThrottledSpillStore {
    fn create_bucket(&self, label: &str) -> Result<SpillBucket> {
        self.inner.create_bucket(label)
    }

    fn append(&self, bucket: SpillBucket, batch: &ColumnarBatch) -> Result<()> {
        service_time(self.write_per_tuple, batch.len());
        self.inner.append(bucket, batch)
    }

    fn read(&self, bucket: SpillBucket) -> Result<Vec<ColumnarBatch>> {
        let out = self.inner.read(bucket)?;
        service_time(self.read_per_tuple, rows_and_bytes(&out).0);
        Ok(out)
    }

    fn len(&self, bucket: SpillBucket) -> usize {
        self.inner.len(bucket)
    }

    fn remove_bucket(&self, bucket: SpillBucket) {
        self.inner.remove_bucket(bucket);
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_common::{tuple, Tuple};

    fn batch(rows: &[Tuple]) -> ColumnarBatch {
        tukwila_common::testing::columns(rows)
    }

    fn rows_of(batches: &[ColumnarBatch]) -> Vec<Tuple> {
        batches.iter().flat_map(ColumnarBatch::to_rows).collect()
    }

    #[test]
    fn scoped_store_attributes_io_per_handle() {
        let shared: Arc<dyn SpillStore> = Arc::new(InMemorySpillStore::new());
        let a = ScopedSpillStore::new(shared.clone());
        let b = ScopedSpillStore::new(shared.clone());
        let ba = a.create_bucket("a").unwrap();
        let bb = b.create_bucket("b").unwrap();
        a.append(ba, &batch(&[tuple![1], tuple![2]])).unwrap();
        b.append(bb, &batch(&[tuple![3]])).unwrap();
        let _ = a.read(ba).unwrap();
        // Each scope sees only its own traffic...
        assert_eq!(a.stats().tuples_written(), 2);
        assert_eq!(a.stats().tuples_read(), 2);
        assert_eq!(b.stats().tuples_written(), 1);
        assert_eq!(b.stats().tuples_read(), 0);
        // ...while the shared store aggregates everything.
        assert_eq!(shared.stats().tuples_written(), 3);
        // Buckets live in the shared store: b can read a's bucket.
        assert_eq!(rows_of(&b.read(ba).unwrap()).len(), 2);
    }

    #[test]
    fn scoped_store_reclaims_its_buckets_on_drop() {
        let shared: Arc<dyn SpillStore> = Arc::new(InMemorySpillStore::new());
        let survivor = shared.create_bucket("keep").unwrap();
        shared.append(survivor, &batch(&[tuple![0]])).unwrap();
        let scoped_bucket = {
            let scoped = ScopedSpillStore::new(shared.clone());
            let b = scoped.create_bucket("q1").unwrap();
            scoped.append(b, &batch(&[tuple![1], tuple![2]])).unwrap();
            assert_eq!(shared.len(b), 2);
            b
        }; // query done → its overflow data is reclaimed
           // The scope's bucket is gone; unrelated buckets survive.
        assert_eq!(shared.len(scoped_bucket), 0);
        assert!(shared.read(scoped_bucket).is_err());
        assert_eq!(shared.len(survivor), 1);
    }

    fn exercise(store: &dyn SpillStore) {
        let b1 = store.create_bucket("left-3").unwrap();
        let b2 = store.create_bucket("right-3").unwrap();
        assert_eq!(store.len(b1), 0);

        store
            .append(b1, &batch(&[tuple![1, "a"], tuple![2, "b"]]))
            .unwrap();
        store.append(b2, &batch(&[tuple![9]])).unwrap();
        store.append(b1, &batch(&[tuple![3, "c"]])).unwrap();

        assert_eq!(store.len(b1), 3);
        assert_eq!(store.len(b2), 1);
        assert_eq!(store.stats().tuples_written(), 4);

        let back = store.read(b1).unwrap();
        assert_eq!(back.len(), 2, "one batch per append");
        assert_eq!(
            rows_of(&back),
            vec![tuple![1, "a"], tuple![2, "b"], tuple![3, "c"]]
        );
        assert_eq!(store.stats().tuples_read(), 3);
        assert_eq!(store.stats().total_tuple_io(), 7);
        assert!(store.stats().bytes_written() > 0);
    }

    #[test]
    fn in_memory_store_round_trip() {
        exercise(&InMemorySpillStore::new());
    }

    #[test]
    fn file_store_round_trip() {
        exercise(&FileSpillStore::new().unwrap());
    }

    #[test]
    fn file_store_cleans_up_dir() {
        let dir;
        {
            let store = FileSpillStore::new().unwrap();
            dir = store.dir().clone();
            store.create_bucket("x").unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "temp dir should be removed on drop");
    }

    #[test]
    fn both_stores_account_identically() {
        let mem = InMemorySpillStore::new();
        let file = FileSpillStore::new().unwrap();
        // A gathered batch (shared string segment) and a fresh one.
        let rows = [tuple![1, "payload"], tuple![2, "x"], tuple![3, "skipped"]];
        for store in [&mem as &dyn SpillStore, &file as &dyn SpillStore] {
            let b = store.create_bucket("acct").unwrap();
            store.append(b, &batch(&rows).gather(&[1, 0])).unwrap();
            store.append(b, &batch(&[tuple![4, "y"]])).unwrap();
            assert_eq!(rows_of(&store.read(b).unwrap()).len(), 3);
        }
        let per_row: usize =
            rows[..2].iter().map(Tuple::mem_size).sum::<usize>() + tuple![4, "y"].mem_size();
        for stats in [mem.stats(), file.stats()] {
            assert_eq!(stats.tuples_written(), 3);
            assert_eq!(stats.tuples_read(), 3);
            assert_eq!(stats.bytes_written(), per_row, "the tuple memory model");
            assert_eq!(stats.bytes_read(), per_row);
        }
    }

    #[test]
    fn unknown_bucket_is_internal_error() {
        let store = InMemorySpillStore::new();
        let err = store
            .append(SpillBucket(99), &batch(&[tuple![1]]))
            .unwrap_err();
        assert_eq!(err.kind(), "internal");
    }

    #[test]
    fn throttled_store_delays_and_delegates() {
        use std::time::{Duration, Instant};
        let inner = Arc::new(InMemorySpillStore::new());
        let store = ThrottledSpillStore::new(
            inner.clone(),
            Duration::from_micros(500),
            Duration::from_micros(500),
        );
        let b = store.create_bucket("t").unwrap();
        let tuples: Vec<_> = (0..20i64).map(|i| tuple![i]).collect();
        let start = Instant::now();
        store.append(b, &batch(&tuples)).unwrap();
        let back = store.read(b).unwrap();
        assert_eq!(rows_of(&back).len(), 20);
        assert!(
            start.elapsed() >= Duration::from_millis(18),
            "throttle must charge per-tuple time: {:?}",
            start.elapsed()
        );
        assert_eq!(inner.stats().tuples_written(), 20);
        assert_eq!(store.len(b), 20);
    }

    #[test]
    fn flush_events_counted() {
        let store = InMemorySpillStore::new();
        store.stats().record_flush_event();
        store.stats().record_flush_event();
        assert_eq!(store.stats().flush_events(), 2);
    }
}
