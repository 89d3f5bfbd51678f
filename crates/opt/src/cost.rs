//! The cost model.
//!
//! Tukwila costs plans for a network-bound environment where *time to
//! completion is dominated by transfer and spill I/O*, and where the
//! optimizer must reason with incomplete statistics. Estimates combine:
//!
//! * per-source transfer cost (latency + per-tuple transfer, from the
//!   catalog's [`tukwila_catalog::AccessCost`]),
//! * CPU cost per tuple flowing through a join,
//! * spill I/O penalties when a join's estimated memory demand exceeds its
//!   budget (hybrid hash: inner only; double pipelined: both inputs —
//!   §4.2.2's trade-off),
//! * a pipelining credit for the double pipelined join reflecting its
//!   overlap of transfer with computation (§6.2's observed completion-time
//!   advantage).
//!
//! All estimates are in abstract milliseconds; only relative order matters.

use tukwila_catalog::Catalog;

use crate::config::{OptimizerConfig, DEFAULT_TUPLE_BYTES};

/// An estimated (cost, cardinality, width) triple for a subplan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Total cost in model-milliseconds.
    pub cost_ms: f64,
    /// Estimated output cardinality.
    pub card: f64,
    /// Estimated output tuple width in bytes.
    pub tuple_bytes: f64,
}

impl Estimate {
    /// Estimated total output volume in bytes.
    pub fn bytes(&self) -> f64 {
        self.card * self.tuple_bytes
    }
}

/// The cost model, parameterized by the optimizer config.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// CPU cost per tuple through a join, model-ms.
    pub cpu_per_tuple_ms: f64,
    /// Spill I/O cost per tuple written or read, model-ms.
    pub io_per_tuple_ms: f64,
    /// Join memory budget, bytes.
    pub join_memory_budget: usize,
    /// Fraction of transfer time the double pipelined join hides by
    /// overlapping communication with computation.
    pub dpj_overlap_credit: f64,
}

impl CostModel {
    /// Model from config defaults.
    pub fn new(config: &OptimizerConfig) -> Self {
        CostModel {
            cpu_per_tuple_ms: 0.001,
            io_per_tuple_ms: 0.01,
            join_memory_budget: config.join_memory_budget,
            dpj_overlap_credit: 0.3,
        }
    }

    /// Estimate for scanning one source (or a collector over sources —
    /// costed as its cheapest member, since policies stop early).
    pub fn source_scan(&self, catalog: &Catalog, sources: &[String]) -> Option<Estimate> {
        let mut best: Option<Estimate> = None;
        for name in sources {
            let desc = catalog.source(name).ok()?;
            let card = catalog.cardinality(name)? as f64;
            let width = desc.stats.avg_tuple_bytes.unwrap_or(DEFAULT_TUPLE_BYTES) as f64;
            let cost = desc.cost.transfer_ms(card as usize);
            let est = Estimate {
                cost_ms: cost,
                card,
                tuple_bytes: width,
            };
            best = Some(match best {
                Some(b) if b.cost_ms <= est.cost_ms => b,
                _ => est,
            });
        }
        best
    }

    /// Join output cardinality: `|L| × |R| × selectivity`.
    pub fn join_card(&self, left: &Estimate, right: &Estimate, selectivity: f64) -> f64 {
        (left.card * right.card * selectivity).max(0.0)
    }

    /// Cost of a double pipelined join over the two inputs (both hash
    /// tables resident; spill penalty when their combined size exceeds the
    /// budget).
    pub fn dpj_cost(&self, left: &Estimate, right: &Estimate, out_card: f64) -> f64 {
        let input_tuples = left.card + right.card;
        let cpu = (input_tuples + out_card) * self.cpu_per_tuple_ms;
        let demand = left.bytes() + right.bytes();
        let overflow_bytes = (demand - self.join_memory_budget as f64).max(0.0);
        let avg_width = ((left.tuple_bytes + right.tuple_bytes) / 2.0).max(1.0);
        // overflowed tuples are written once and read once
        let io = 2.0 * (overflow_bytes / avg_width) * self.io_per_tuple_ms;
        // pipelining credit: the DPJ overlaps the inputs' transfer with
        // computation; its effective added cost shrinks.
        let transfer_credit =
            -(left.cost_ms + right.cost_ms).min(cpu.max(0.0)) * self.dpj_overlap_credit;
        cpu + io + transfer_credit
    }

    /// Cost of a hybrid hash join (right input = inner/build). The build
    /// phase blocks; only the inner's spill overflow is charged.
    pub fn hybrid_cost(&self, left: &Estimate, right: &Estimate, out_card: f64) -> f64 {
        let cpu = (left.card + right.card + out_card) * self.cpu_per_tuple_ms;
        let overflow_bytes = (right.bytes() - self.join_memory_budget as f64).max(0.0);
        let overflow_tuples = overflow_bytes / right.tuple_bytes.max(1.0);
        // inner overflow partitions are written+read; the matching share of
        // the probe side is also diverted
        let probe_share = if right.bytes() > 0.0 {
            (overflow_bytes / right.bytes()).min(1.0)
        } else {
            0.0
        };
        let io = 2.0 * (overflow_tuples + probe_share * left.card) * self.io_per_tuple_ms;
        cpu + io
    }

    /// Pick the cheaper asymmetric orientation for a hybrid hash join:
    /// returns `(cost, inner_is_right)`, preferring the smaller side as the
    /// build relation.
    pub fn best_hybrid(&self, a: &Estimate, b: &Estimate, out_card: f64) -> (f64, bool) {
        let b_inner = self.hybrid_cost(a, b, out_card);
        let a_inner = self.hybrid_cost(b, a, out_card);
        if b_inner <= a_inner {
            (b_inner, true)
        } else {
            (a_inner, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_catalog::{AccessCost, SourceDesc, TableStats};
    use tukwila_common::{DataType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::of("t", &[("k", DataType::Int)]);
        c.add_source(
            SourceDesc::new("small", "t", schema.clone())
                .with_stats(TableStats::new(100, 50))
                .with_cost(AccessCost::new(5.0, 0.1)),
        );
        c.add_source(
            SourceDesc::new("big", "t", schema.clone())
                .with_stats(TableStats::new(100_000, 50))
                .with_cost(AccessCost::new(5.0, 0.1)),
        );
        c.add_source(SourceDesc::new("unknown", "t", schema));
        c
    }

    fn model() -> CostModel {
        CostModel::new(&OptimizerConfig::default())
    }

    #[test]
    fn source_scan_costs_transfer() {
        let m = model();
        let est = m.source_scan(&catalog(), &["small".into()]).unwrap();
        assert_eq!(est.card, 100.0);
        assert_eq!(est.cost_ms, 5.0 + 0.1 * 100.0);
        assert_eq!(est.tuple_bytes, 50.0);
    }

    #[test]
    fn unknown_source_yields_none() {
        let m = model();
        assert!(m.source_scan(&catalog(), &["unknown".into()]).is_none());
        // a collector with one known member costs as the known one
        assert!(m
            .source_scan(&catalog(), &["small".into(), "big".into()])
            .is_some());
    }

    #[test]
    fn collector_costed_as_cheapest_member() {
        let m = model();
        let est = m
            .source_scan(&catalog(), &["big".into(), "small".into()])
            .unwrap();
        assert_eq!(est.card, 100.0, "cheapest member is the small mirror");
    }

    #[test]
    fn smaller_inner_preferred_for_hybrid() {
        let m = model();
        let small = Estimate {
            cost_ms: 10.0,
            card: 100.0,
            tuple_bytes: 50.0,
        };
        let big = Estimate {
            cost_ms: 1000.0,
            card: 1_000_000.0,
            tuple_bytes: 50.0,
        };
        let (_, inner_is_right) = m.best_hybrid(&big, &small, 1000.0);
        assert!(inner_is_right, "small right side should build");
        let (_, inner_is_right2) = m.best_hybrid(&small, &big, 1000.0);
        assert!(!inner_is_right2, "sides swapped → inner flips");
    }

    #[test]
    fn dpj_overflow_penalized() {
        let m = model();
        let fits = Estimate {
            cost_ms: 1.0,
            card: 100.0,
            tuple_bytes: 50.0,
        };
        let huge = Estimate {
            cost_ms: 1.0,
            card: 10_000_000.0,
            tuple_bytes: 50.0,
        };
        let cheap = m.dpj_cost(&fits, &fits, 100.0);
        let costly = m.dpj_cost(&huge, &huge, 100.0);
        assert!(costly > cheap * 100.0);
    }

    #[test]
    fn join_card_multiplies_selectivity() {
        let m = model();
        let a = Estimate {
            cost_ms: 0.0,
            card: 1000.0,
            tuple_bytes: 50.0,
        };
        let b = Estimate {
            cost_ms: 0.0,
            card: 200.0,
            tuple_bytes: 50.0,
        };
        assert_eq!(m.join_card(&a, &b, 0.005), 1000.0);
    }
}
