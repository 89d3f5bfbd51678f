//! Optimizer configuration knobs.

/// How the optimizer pipelines and fragments plans — the three strategies
/// of the interleaved-planning experiment (§6.4, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelinePolicy {
    /// One fully pipelined fragment for the whole query (Figure 5
    /// "Pipeline").
    FullyPipelined,
    /// Materialize after each join; no re-optimization rules (Figure 5
    /// "Materialize").
    MaterializeEachJoin,
    /// Materialize after each join and attach the `card ≥ factor ×
    /// est_card ⇒ replan` rule at every fragment end (Figure 5
    /// "Materialize and replan").
    MaterializeAndReplan,
    /// Cost-based: pipeline with double pipelined joins while estimated
    /// hash-table demand fits the join memory budget; break the pipeline
    /// (hybrid hash + materialization) above it — §1.3's small/large-table
    /// behaviour.
    Adaptive,
}

/// Replan when a join's actual cardinality differs from its estimate by
/// this factor (the paper's rule uses 2).
pub const REPLAN_FACTOR: f64 = 2.0;
/// Selectivity assumed for a join column pair the catalog has no estimate
/// for.
pub const FALLBACK_SELECTIVITY: f64 = 0.01;
/// Assumed tuple width (bytes) when the catalog lacks one.
pub const DEFAULT_TUPLE_BYTES: usize = 96;

/// Optimizer knobs.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Fragmentation / pipelining policy.
    pub policy: PipelinePolicy,
    /// Memory cap per join operator, bytes. With
    /// [`OptimizerConfig::estimate_driven_memory`] the actual allocation is
    /// `min(cap, 1.3 × estimated input bytes)` — so joins whose inputs were
    /// underestimated receive insufficient memory and overflow, the §6.4
    /// mechanism ("many of the join operations were given insufficient
    /// memory because of poor selectivity estimates").
    pub join_memory_budget: usize,
    /// Size join memory from cardinality estimates (true reproduces the
    /// paper; false grants every join the full cap).
    pub estimate_driven_memory: bool,
    /// Above this estimated combined input size (bytes), a double
    /// pipelined join is considered too memory-hungry and hybrid hash is
    /// chosen instead (Adaptive policy).
    pub dpj_max_input_bytes: usize,
    /// Timeout attached to wrapper scans (None = no timeout rules).
    pub source_timeout_ms: Option<u64>,
    /// Attach reschedule-on-timeout rules (query scrambling).
    pub reschedule_on_timeout: bool,
    /// Upper bound on the partition degree of exchange operators (1 =
    /// never emit an exchange; sequential joins). Defaults to the
    /// `TUKWILA_THREADS` environment variable, matching the engine's
    /// intra-query thread budget.
    pub max_parallelism: usize,
    /// Minimum estimated combined input cardinality before a join is
    /// worth partitioning; the chosen degree scales with the estimate
    /// (one partition per this many input rows, clamped to
    /// [`OptimizerConfig::max_parallelism`]).
    pub parallel_min_rows: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            policy: PipelinePolicy::Adaptive,
            join_memory_budget: 8 << 20,
            estimate_driven_memory: true,
            dpj_max_input_bytes: 6 << 20,
            source_timeout_ms: None,
            reschedule_on_timeout: false,
            max_parallelism: tukwila_common::env_parallelism(),
            parallel_min_rows: 1_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_adaptive_with_replan_factor_two() {
        let c = OptimizerConfig::default();
        assert_eq!(c.policy, PipelinePolicy::Adaptive);
        assert_eq!(REPLAN_FACTOR, 2.0);
    }
}
