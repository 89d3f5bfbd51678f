//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, query_id}`. Spans are kept
//! in memory for the whole traced pass and written out once at exit. A
//! layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Spans of one query share this identifier.
    pub query_id: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of client threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Time `f` as a span named `name`. `f` receives the span's id so the
    /// calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        query_id: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a client thread panicked while recording a span")
            .push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                query_id,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a client thread panicked while recording a span");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, by span id: duration minus the union of its
/// children's intervals (clipped to the span, overlaps counted once).
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Durations in nanoseconds of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Self times in nanoseconds of every span called `name`.
pub fn self_ns(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64)
        .collect()
}

/// The span file: one JSON document, one span per line.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {}, \"query_id\": {}}}{}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.query_id),
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "s",
            start_ns,
            end_ns,
            parent,
            query_id: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 50, 90, Some(0)),
            span(3, 55, 60, Some(2)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&0], 40);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 35);
        assert_eq!(selfs[&3], 5);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span(0, 100, 200, None),
            span(1, 110, 150, Some(0)),
            span(2, 140, 170, Some(0)), // overlaps span 1 by 10
            span(3, 190, 260, Some(0)), // runs past the parent's end
            span(4, 120, 130, Some(0)), // inside span 1
        ];
        // covered: [110,170) = 60 and [190,200) = 10
        assert_eq!(self_times_ns(&spans)[&0], 30);
    }

    #[test]
    fn tracer_hands_the_span_id_to_children() {
        let t = Tracer::default();
        let got = t.span("outer", None, Some(7), |outer| {
            t.span("inner", Some(outer), Some(7), |_| 41) + 1
        });
        assert_eq!(got, 42);
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].query_id, Some(7));
    }

    #[test]
    fn json_has_one_object_per_span() {
        let json = to_json("w", &[span(0, 1, 2, None), span(1, 1, 2, Some(0))]);
        assert!(json.starts_with("{\"workload\": \"w\", \"spans\": [\n"));
        assert!(json.contains("\"parent\": null, \"query_id\": 0},\n"));
        assert!(json.contains("\"parent\": 0, \"query_id\": 0}\n]}"));
    }
}
