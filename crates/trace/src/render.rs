//! Trace exporters: JSON (machine), CSV (spreadsheets), and a
//! human-readable per-query timeline + operator table.

use std::fmt::Write as _;

use crate::{OpMetricsSnapshot, TraceEvent, TraceLevel, TraceRecord, TraceSnapshot};
use tukwila_common::json::{write_escaped, JsonValue};

impl TraceSnapshot {
    /// Serialize the full snapshot as one JSON document:
    /// `{"level","dropped","events":[{"seq","at_us","kind",...}],"ops":[...]}`.
    pub fn to_json(&self) -> String {
        let mut events = Vec::with_capacity(self.events.len());
        for rec in &self.events {
            let mut members = vec![
                ("seq".to_string(), JsonValue::UInt(rec.seq)),
                ("at_us".to_string(), JsonValue::UInt(rec.at_us)),
                (
                    "kind".to_string(),
                    JsonValue::Str(rec.event.kind().to_string()),
                ),
            ];
            for (k, v) in rec.event.fields() {
                members.push((k.to_string(), v));
            }
            events.push(JsonValue::Obj(members));
        }
        let ops = self
            .ops
            .iter()
            .map(|m| {
                JsonValue::Obj(vec![
                    ("op".to_string(), JsonValue::UInt(m.op as u64)),
                    ("name".to_string(), JsonValue::Str(m.name.clone())),
                    ("rows_in".to_string(), JsonValue::UInt(m.rows_in)),
                    ("rows_out".to_string(), JsonValue::UInt(m.rows_out)),
                    ("batches_in".to_string(), JsonValue::UInt(m.batches_in)),
                    ("batches_out".to_string(), JsonValue::UInt(m.batches_out)),
                    ("build_ns".to_string(), JsonValue::UInt(m.build_ns)),
                    ("probe_ns".to_string(), JsonValue::UInt(m.probe_ns)),
                    (
                        "queue_stall_ns".to_string(),
                        JsonValue::UInt(m.queue_stall_ns),
                    ),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            (
                "level".to_string(),
                JsonValue::Str(self.level.as_str().to_string()),
            ),
            ("dropped".to_string(), JsonValue::UInt(self.dropped)),
            ("events".to_string(), JsonValue::Arr(events)),
            ("ops".to_string(), JsonValue::Arr(ops)),
        ])
        .to_json()
    }

    /// Parse a document produced by [`TraceSnapshot::to_json`].
    pub fn from_json(text: &str) -> Result<TraceSnapshot, String> {
        let v = JsonValue::parse(text)?;
        let level = v
            .get("level")
            .and_then(JsonValue::as_str)
            .and_then(TraceLevel::parse)
            .ok_or("missing/bad level")?;
        let dropped = v.get("dropped").and_then(JsonValue::as_u64).unwrap_or(0);
        let mut events = Vec::new();
        for e in v.get("events").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let kind = e
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or("event missing kind")?;
            events.push(TraceRecord {
                seq: e.get("seq").and_then(JsonValue::as_u64).ok_or("no seq")?,
                at_us: e
                    .get("at_us")
                    .and_then(JsonValue::as_u64)
                    .ok_or("no at_us")?,
                event: TraceEvent::from_kind_fields(kind, e)?,
            });
        }
        let mut ops = Vec::new();
        for o in v.get("ops").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let u = |f: &str| o.get(f).and_then(JsonValue::as_u64).unwrap_or(0);
            ops.push(OpMetricsSnapshot {
                op: u("op") as u32,
                name: o
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                rows_in: u("rows_in"),
                rows_out: u("rows_out"),
                batches_in: u("batches_in"),
                batches_out: u("batches_out"),
                build_ns: u("build_ns"),
                probe_ns: u("probe_ns"),
                queue_stall_ns: u("queue_stall_ns"),
            });
        }
        Ok(TraceSnapshot {
            level,
            dropped,
            events,
            ops,
        })
    }

    /// Events as CSV (`seq,at_us,kind,detail`; the detail column packs the
    /// payload as `k=v` pairs joined by `;` so it stays one CSV field).
    pub fn events_csv(&self) -> String {
        let mut out = String::from("seq,at_us,kind,detail\n");
        for rec in &self.events {
            let detail = rec
                .event
                .fields()
                .iter()
                .map(|(k, v)| format!("{k}={}", csv_scalar(v)))
                .collect::<Vec<_>>()
                .join(";");
            let mut quoted = String::new();
            write_escaped(&mut quoted, &detail);
            let _ = writeln!(
                out,
                "{},{},{},{}",
                rec.seq,
                rec.at_us,
                rec.event.kind(),
                quoted
            );
        }
        out
    }

    /// Operator metrics as CSV, one row per plan operator.
    pub fn ops_csv(&self) -> String {
        let mut out = String::from(
            "op,name,rows_in,rows_out,selectivity,batches_in,batches_out,build_ms,probe_ms,queue_stall_ms\n",
        );
        for m in &self.ops {
            let sel = m
                .selectivity()
                .map(|s| format!("{s:.4}"))
                .unwrap_or_default();
            let mut name = String::new();
            write_escaped(&mut name, &m.name);
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{:.3},{:.3},{:.3}",
                m.op,
                name,
                m.rows_in,
                m.rows_out,
                sel,
                m.batches_in,
                m.batches_out,
                m.build_ns as f64 / 1e6,
                m.probe_ns as f64 / 1e6,
                m.queue_stall_ns as f64 / 1e6,
            );
        }
        out
    }

    /// Human-readable per-query timeline plus (at `Metrics`) the operator
    /// table — what the `query-profile` bin prints.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace level={} events={} dropped={}",
            self.level.as_str(),
            self.events.len(),
            self.dropped
        );
        for rec in &self.events {
            let detail = rec
                .event
                .fields()
                .iter()
                .map(|(k, v)| format!("{k}={}", csv_scalar(v)))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "[{:>10.3} ms] {:<20} {}",
                rec.at_us as f64 / 1e3,
                rec.event.kind(),
                detail
            );
        }
        if !self.ops.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<4} {:<22} {:>10} {:>10} {:>6} {:>8} {:>9} {:>9} {:>9}",
                "op",
                "name",
                "rows_in",
                "rows_out",
                "sel",
                "batches",
                "build_ms",
                "probe_ms",
                "stall_ms"
            );
            for m in &self.ops {
                let sel = m
                    .selectivity()
                    .map(|s| format!("{s:.3}"))
                    .unwrap_or_else(|| "-".to_string());
                let _ = writeln!(
                    out,
                    "{:<4} {:<22} {:>10} {:>10} {:>6} {:>8} {:>9.3} {:>9.3} {:>9.3}",
                    m.op,
                    m.name,
                    m.rows_in,
                    m.rows_out,
                    sel,
                    m.batches_out,
                    m.build_ns as f64 / 1e6,
                    m.probe_ns as f64 / 1e6,
                    m.queue_stall_ns as f64 / 1e6,
                );
            }
        }
        out
    }
}

/// Render one payload value inline for CSV/timeline details.
fn csv_scalar(v: &JsonValue) -> String {
    match v {
        JsonValue::Str(s) => s.clone(),
        JsonValue::Arr(items) => format!(
            "[{}]",
            items.iter().map(csv_scalar).collect::<Vec<_>>().join("|")
        ),
        other => other.to_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheOutcome, QueryTrace};

    fn sample() -> TraceSnapshot {
        let t = QueryTrace::new(TraceLevel::Metrics);
        t.emit(TraceEvent::AdmissionEnqueued { queued: 2 });
        t.emit(TraceEvent::FragmentDispatched {
            fragment: 0,
            overlapped: false,
        });
        t.emit(TraceEvent::SourceStall {
            source: "books \"quoted\"".into(),
            waited_ms: 40,
        });
        t.emit(TraceEvent::RuleFired {
            rule: "timeout-reschedule".into(),
            trigger: "timeout(op 0)".into(),
        });
        t.emit(TraceEvent::CacheLookup {
            source: "books".into(),
            outcome: CacheOutcome::Coalesced,
        });
        t.emit(TraceEvent::PartitionSkew {
            op: 4,
            rows: vec![10, 0, 90],
        });
        t.emit(TraceEvent::QueryCompleted {
            outcome: "ok".into(),
        });
        let m = t.metrics().register(4, "dpj");
        m.add_input(100);
        m.add_output(42);
        m.add_build_ns(1_500_000);
        t.snapshot()
    }

    #[test]
    fn json_round_trip() {
        let snap = sample();
        let text = snap.to_json();
        let back = TraceSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn timeline_mentions_events_and_ops() {
        let text = sample().render_timeline();
        assert!(text.contains("source-stall"));
        assert!(text.contains("rule-fired"));
        assert!(text.contains("rows=[10|0|90]"));
        assert!(text.contains("dpj"));
        assert!(text.contains("0.420")); // selectivity column
    }

    #[test]
    fn csv_headers_and_rows() {
        let snap = sample();
        let ev = snap.events_csv();
        assert!(ev.starts_with("seq,at_us,kind,detail\n"));
        assert_eq!(ev.lines().count(), 1 + snap.events.len());
        let ops = snap.ops_csv();
        assert!(ops.contains("selectivity"));
        assert!(ops.lines().count() == 2);
    }
}
