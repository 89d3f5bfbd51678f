//! Simulated autonomous data sources.
//!
//! A [`SimulatedSource`] owns a relation and a [`LinkModel`]; each
//! [`SourceConnection`] replays the relation through the model with real
//! (interruptible) sleeps. Connections are independent — a collector racing
//! two mirrors gets two connections with independent jitter streams.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tukwila_common::{Relation, Schema, TupleBatch};

use crate::interruptible_sleep;
use crate::link::LinkModel;

/// What a connection yields next: an arrival burst or how the stream ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceBatchEvent {
    /// One or more tuples arrived together (never empty).
    Batch(TupleBatch),
    /// The stream finished normally.
    End,
    /// The connection failed permanently (after `fail_after` tuples, or the
    /// source was unavailable).
    Error(String),
    /// The pull was cancelled via the cancel flag before data arrived.
    Cancelled,
}

/// A simulated remote data source.
#[derive(Debug, Clone)]
pub struct SimulatedSource {
    name: String,
    relation: Arc<Relation>,
    link: LinkModel,
    seed: u64,
}

impl SimulatedSource {
    /// Create a source named `name` serving `relation` through `link`:
    /// every connection serves slices of the relation's columns.
    pub fn new(name: impl Into<String>, relation: Relation, link: LinkModel) -> Self {
        SimulatedSource {
            name: name.into(),
            relation: Arc::new(relation),
            link,
            seed: 0x7u64,
        }
    }

    /// Override the jitter seed (defaults to a fixed value; connections add
    /// their ordinal so two connections never share a jitter stream).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Source name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema of the served relation.
    pub fn schema(&self) -> &Schema {
        self.relation.schema()
    }

    /// Cardinality of the served relation — the "true" statistic the
    /// catalog may or may not know.
    pub fn cardinality(&self) -> usize {
        self.relation.len()
    }

    /// The underlying relation (tests, gold results).
    pub fn relation(&self) -> &Arc<Relation> {
        &self.relation
    }

    /// The link model.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Open a connection. `conn_ordinal` distinguishes parallel connections
    /// for jitter seeding.
    pub fn connect(&self, conn_ordinal: u64) -> SourceConnection {
        SourceConnection {
            source_name: self.name.clone(),
            relation: self.relation.clone(),
            link: self.link.clone(),
            rng: StdRng::seed_from_u64(
                self.seed ^ (conn_ordinal.wrapping_mul(0xD1B5_4A32_D192_ED03)),
            ),
            pos: 0,
            started: false,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// An open connection streaming tuples with link-model delays.
pub struct SourceConnection {
    source_name: String,
    relation: Arc<Relation>,
    link: LinkModel,
    rng: StdRng,
    pos: usize,
    started: bool,
    cancel: Arc<AtomicBool>,
}

impl SourceConnection {
    /// A handle that cancels this connection from another thread (collector
    /// `deactivate`, engine teardown).
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Name of the source this connection reads.
    pub fn source_name(&self) -> &str {
        &self.source_name
    }

    fn jittered(&mut self, d: Duration) -> Duration {
        if self.link.jitter_frac <= 0.0 || d.is_zero() {
            return d;
        }
        let f = 1.0
            + self
                .rng
                .gen_range(-self.link.jitter_frac..self.link.jitter_frac);
        d.mul_f64(f.max(0.0))
    }

    /// Sleep `d` unless cancelled first.
    fn wait(&self, d: Duration) -> Result<(), SourceBatchEvent> {
        if interruptible_sleep(d, &self.cancel) {
            Ok(())
        } else {
            Err(SourceBatchEvent::Cancelled)
        }
    }

    /// Wait out the link model for the next arrival run of at most `max`
    /// rows and advance past it, returning where the run starts. The first
    /// row pays every wait due before it (initial delay, stall, burst gap,
    /// per-tuple time); the run then takes each following row that arrives
    /// with no wait at all and stops before the first that would wait, fail
    /// or end the stream. Those conditions surface on the next call, so
    /// `End`/`Error`/`Cancelled` each come on a pull of their own and stay
    /// there. Touches only positions, never the relation's data.
    fn pace(&mut self, max: usize) -> Result<usize, SourceBatchEvent> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(SourceBatchEvent::Cancelled);
        }
        if !self.started {
            self.started = true;
            if self.link.unavailable {
                return Err(SourceBatchEvent::Error(format!(
                    "source `{}` refused connection",
                    self.source_name
                )));
            }
            let d = self.jittered(self.link.initial_delay);
            self.wait(d)?;
        }
        let start = self.pos;
        // The first row this connection cannot deliver.
        let mut limit = self.relation.len();
        if let Some(f) = self.link.fail_after {
            if start >= f {
                return Err(SourceBatchEvent::Error(format!(
                    "source `{}` connection dropped after {f} tuples",
                    self.source_name
                )));
            }
            limit = limit.min(f);
        }
        if start >= limit {
            return Err(SourceBatchEvent::End);
        }
        match self.link.stall_after {
            Some(s) if s == start => self.wait(self.link.stall_duration)?,
            Some(s) if s > start => limit = limit.min(s),
            _ => {}
        }
        let burst = self.link.burst_size;
        if burst != usize::MAX && burst > 0 {
            // A gap is due before every `burst`-th row (not the first).
            if start > 0 && start.is_multiple_of(burst) {
                let d = self.jittered(self.link.burst_gap);
                self.wait(d)?;
            }
            if !self.link.burst_gap.is_zero() {
                limit = limit.min((start / burst + 1) * burst);
            }
        }
        let d = self.jittered(self.link.per_tuple);
        if !d.is_zero() {
            self.wait(d)?;
        }
        // A paced link owes a wait before every row: the run is one row.
        self.pos = if self.link.per_tuple.is_zero() {
            limit.min(start.saturating_add(max.max(1)))
        } else {
            start + 1
        };
        Ok(start)
    }

    /// Block until data arrives, then hand over the whole arrival burst (up
    /// to `max` tuples) as a columnar slice of the source's relation: the
    /// first tuple under the full link-model wait, the rest only while they
    /// need no further waiting. Returns `End` at stream end, `Error` on
    /// injected failure, `Cancelled` if the cancel flag was raised.
    pub fn next_batch_event(&mut self, max: usize) -> SourceBatchEvent {
        match self.pace(max) {
            Ok(start) => SourceBatchEvent::Batch(TupleBatch::from_columns(
                self.relation.columnar().slice(start, self.pos),
            )),
            Err(terminal) => terminal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::drain;
    use std::time::Instant;
    use tukwila_common::{tuple, DataType, Schema, Tuple};

    fn rel(n: i64) -> Relation {
        let schema = Schema::of("s", &[("a", DataType::Int)]);
        let mut r = Vec::new();
        for i in 0..n {
            r.push(tuple![i]);
        }
        Relation::new(schema, r).unwrap()
    }

    #[test]
    fn streams_all_tuples_in_order() {
        let src = SimulatedSource::new("s1", rel(100), LinkModel::instant());
        let mut conn = src.connect(0);
        let got = drain(|max| conn.next_batch_event(max)).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got[7], tuple![7]);
    }

    #[test]
    fn initial_delay_observed() {
        let link = LinkModel {
            initial_delay: Duration::from_millis(30),
            ..LinkModel::instant()
        };
        let src = SimulatedSource::new("s1", rel(5), link);
        let start = Instant::now();
        let mut conn = src.connect(0);
        let first = conn.next_batch_event(1);
        assert!(matches!(first, SourceBatchEvent::Batch(_)));
        assert!(start.elapsed() >= Duration::from_millis(25));
        // subsequent tuples come instantly
        let t2 = Instant::now();
        conn.next_batch_event(1);
        assert!(t2.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn unavailable_source_errors_at_connect() {
        let src = SimulatedSource::new("down", rel(5), LinkModel::down());
        match src.connect(0).next_batch_event(64) {
            SourceBatchEvent::Error(e) => assert!(e.contains("down")),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn fail_after_injects_error_mid_stream() {
        let src = SimulatedSource::new("flaky", rel(10), LinkModel::failing(4));
        let mut conn = src.connect(0);
        let mut n = 0;
        loop {
            match conn.next_batch_event(1) {
                SourceBatchEvent::Batch(b) => n += b.len(),
                SourceBatchEvent::Error(_) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn cancel_interrupts_stall() {
        let src = SimulatedSource::new("stall", rel(10), LinkModel::stalling(2));
        let mut conn = src.connect(0);
        let cancel = conn.cancel_handle();
        assert!(matches!(
            conn.next_batch_event(1),
            SourceBatchEvent::Batch(_)
        ));
        assert!(matches!(
            conn.next_batch_event(1),
            SourceBatchEvent::Batch(_)
        ));
        // Third pull would stall for an hour; cancel from another thread.
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            cancel.store(true, Ordering::Relaxed);
        });
        let start = Instant::now();
        let ev = conn.next_batch_event(1);
        h.join().unwrap();
        assert_eq!(ev, SourceBatchEvent::Cancelled);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn end_is_sticky() {
        let src = SimulatedSource::new("s", rel(1), LinkModel::instant());
        let mut conn = src.connect(0);
        match conn.next_batch_event(64) {
            SourceBatchEvent::Batch(b) => assert_eq!(b.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(conn.next_batch_event(64), SourceBatchEvent::End);
        assert_eq!(conn.next_batch_event(64), SourceBatchEvent::End);
    }

    #[test]
    fn instant_link_delivers_full_bursts() {
        let src = SimulatedSource::new("s", rel(100), LinkModel::instant());
        let mut conn = src.connect(0);
        match conn.next_batch_event(64) {
            SourceBatchEvent::Batch(b) => assert_eq!(b.len(), 64),
            other => panic!("unexpected {other:?}"),
        }
        match conn.next_batch_event(64) {
            SourceBatchEvent::Batch(b) => assert_eq!(b.len(), 36),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(conn.next_batch_event(64), SourceBatchEvent::End);
        assert_eq!(conn.next_batch_event(64), SourceBatchEvent::End);
    }

    #[test]
    fn paced_link_delivers_singletons() {
        let link = LinkModel {
            per_tuple: Duration::from_micros(200),
            ..LinkModel::instant()
        };
        let src = SimulatedSource::new("s", rel(5), link);
        let mut conn = src.connect(0);
        for _ in 0..5 {
            match conn.next_batch_event(64) {
                SourceBatchEvent::Batch(b) => assert_eq!(b.len(), 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(conn.next_batch_event(64), SourceBatchEvent::End);
    }

    #[test]
    fn burst_gap_ends_batches() {
        // burst_size 4 with a non-zero gap: each batch covers one burst.
        let link = LinkModel {
            burst_size: 4,
            burst_gap: Duration::from_micros(200),
            ..LinkModel::instant()
        };
        let src = SimulatedSource::new("s", rel(10), link);
        let mut conn = src.connect(0);
        let mut sizes = Vec::new();
        loop {
            match conn.next_batch_event(64) {
                SourceBatchEvent::Batch(b) => sizes.push(b.len()),
                SourceBatchEvent::End => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn batch_stops_before_failure_then_errors() {
        let src = SimulatedSource::new("flaky", rel(10), LinkModel::failing(4));
        let mut conn = src.connect(0);
        match conn.next_batch_event(64) {
            SourceBatchEvent::Batch(b) => assert_eq!(b.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            conn.next_batch_event(64),
            SourceBatchEvent::Error(_)
        ));
    }

    #[test]
    fn batch_stops_at_stall() {
        let src = SimulatedSource::new("stall", rel(10), LinkModel::stalling(3));
        let mut conn = src.connect(0);
        match conn.next_batch_event(64) {
            SourceBatchEvent::Batch(b) => assert_eq!(b.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        // the next pull would stall; cancel instead of waiting an hour
        conn.cancel_handle().store(true, Ordering::Relaxed);
        assert_eq!(conn.next_batch_event(64), SourceBatchEvent::Cancelled);
    }

    #[test]
    fn batches_preserve_order_and_content() {
        let src = SimulatedSource::new("s", rel(50), LinkModel::instant());
        let mut conn = src.connect(0);
        let mut all = Vec::new();
        loop {
            match conn.next_batch_event(7) {
                SourceBatchEvent::Batch(b) => all.extend(b.to_rows()),
                SourceBatchEvent::End => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        let mut conn = src.connect(1);
        let gold = drain(|max| conn.next_batch_event(max)).unwrap();
        assert_eq!(all, gold);
    }

    #[test]
    fn jitter_deterministic_per_connection_ordinal() {
        let link = LinkModel {
            per_tuple: Duration::from_micros(100),
            jitter_frac: 0.5,
            ..LinkModel::instant()
        };
        let src = SimulatedSource::new("s", rel(20), link).with_seed(9);
        let (mut ca, mut cb) = (src.connect(3), src.connect(3));
        let a: Vec<Tuple> = drain(|max| ca.next_batch_event(max)).unwrap();
        let b: Vec<Tuple> = drain(|max| cb.next_batch_event(max)).unwrap();
        assert_eq!(a, b); // data identical; timing paths share the rng seed
    }
}
