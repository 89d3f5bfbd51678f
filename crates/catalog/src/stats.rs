//! Statistics records: table stats and access costs.

/// What the catalog believes about a source's relation. All fields optional
/// — data integration systems operate with "an absence of quality
/// statistics" (§1.1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Estimated cardinality, if known.
    pub cardinality: Option<usize>,
    /// Estimated average tuple width in bytes, if known.
    pub avg_tuple_bytes: Option<usize>,
}

impl TableStats {
    /// Stats with a known cardinality.
    pub fn with_cardinality(cardinality: usize) -> Self {
        TableStats {
            cardinality: Some(cardinality),
            avg_tuple_bytes: None,
        }
    }

    /// Stats with cardinality and tuple width.
    pub fn new(cardinality: usize, avg_tuple_bytes: usize) -> Self {
        TableStats {
            cardinality: Some(cardinality),
            avg_tuple_bytes: Some(avg_tuple_bytes),
        }
    }

    /// Completely unknown stats.
    pub fn unknown() -> Self {
        TableStats::default()
    }

    /// Whether the optimizer has enough information to cost a plan over
    /// this source (missing cardinality ⇒ candidate for a partial plan,
    /// §3).
    pub fn is_known(&self) -> bool {
        self.cardinality.is_some()
    }

    /// Estimated bytes for the whole relation, when both stats are present.
    pub fn estimated_bytes(&self) -> Option<usize> {
        Some(self.cardinality? * self.avg_tuple_bytes?)
    }
}

/// Cost of accessing a source (the catalog's model of its link).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessCost {
    /// Expected delay before the first tuple, milliseconds.
    pub initial_latency_ms: f64,
    /// Expected per-tuple transfer time, milliseconds.
    pub per_tuple_ms: f64,
}

impl Default for AccessCost {
    fn default() -> Self {
        // A fast local source.
        AccessCost {
            initial_latency_ms: 1.0,
            per_tuple_ms: 0.001,
        }
    }
}

impl AccessCost {
    /// Construct from latency and bandwidth figures.
    pub fn new(initial_latency_ms: f64, per_tuple_ms: f64) -> Self {
        AccessCost {
            initial_latency_ms,
            per_tuple_ms,
        }
    }

    /// Expected milliseconds to transfer `n` tuples.
    pub fn transfer_ms(&self, n: usize) -> f64 {
        self.initial_latency_ms + self.per_tuple_ms * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_stats_are_unknown() {
        let s = TableStats::unknown();
        assert!(!s.is_known());
        assert_eq!(s.estimated_bytes(), None);
    }

    #[test]
    fn estimated_bytes_multiplies() {
        let s = TableStats::new(100, 64);
        assert!(s.is_known());
        assert_eq!(s.estimated_bytes(), Some(6_400));
    }

    #[test]
    fn transfer_cost_is_affine() {
        let c = AccessCost::new(10.0, 0.5);
        assert_eq!(c.transfer_ms(0), 10.0);
        assert_eq!(c.transfer_ms(100), 60.0);
    }
}
