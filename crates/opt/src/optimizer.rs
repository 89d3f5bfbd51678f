//! The optimizer facade: planning, partial planning, and incremental
//! re-optimization.
//!
//! The interleaved planning/execution loop (crate `tukwila-core`) drives
//! this interface:
//!
//! 1. [`Optimizer::plan`] — produce a (possibly partial) plan for a
//!    reformulated query;
//! 2. execute fragments, collecting [`Observation`]s (true cardinalities of
//!    fully-read sources and of materialized fragment results);
//! 3. [`Optimizer::replan`] — fold the observations into the catalog and
//!    the saved memo (recomputing, through its usage pointers, only the
//!    entries the observations affect) and emit a corrected plan for the
//!    remaining work.

use std::collections::HashMap;

use tukwila_catalog::Catalog;
use tukwila_common::{Result, TukwilaError};
use tukwila_query::ReformulatedQuery;

use crate::config::{OptimizerConfig, DEFAULT_TUPLE_BYTES, FALLBACK_SELECTIVITY};
use crate::cost::{CostModel, Estimate};
use crate::lower::{LoweredPlan, Lowerer};
use crate::memo::{EdgeSpec, JoinTree, Memo, RelMask};

/// A runtime-observed cardinality, reported back by the engine (§3.2: the
/// execution system "sends back information about operator state and
/// cardinalities so the optimizer will have more accurate statistics").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Source name or materialization name (`mat_*`).
    pub name: String,
    /// Observed cardinality.
    pub cardinality: usize,
}

/// A plan plus the saved optimizer state needed to replan incrementally.
pub struct PlannedQuery {
    /// The lowered plan (fragments, rules) and fragment→mask mapping.
    pub lowered: LoweredPlan,
    /// Saved search-space state (None when planning was purely heuristic —
    /// a partial plan emitted with no statistics at all).
    pub memo: Option<Memo>,
}

/// The Tukwila query optimizer.
pub struct Optimizer {
    catalog: Catalog,
    config: OptimizerConfig,
    model: CostModel,
    /// Pins accumulated across re-optimizations: subquery mask → observed
    /// estimate of its materialization.
    pins: HashMap<RelMask, Estimate>,
}

impl Optimizer {
    /// Build an optimizer over a catalog snapshot.
    pub fn new(catalog: Catalog, config: OptimizerConfig) -> Self {
        let model = CostModel::new(&config);
        Optimizer {
            catalog,
            config,
            model,
            pins: HashMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// The catalog (with any observations folded in).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Leaf estimates for every relation in the query (None = statistics
    /// missing).
    fn leaf_estimates(&self, rq: &ReformulatedQuery) -> Vec<Option<Estimate>> {
        rq.leaves
            .iter()
            .map(|leaf| self.model.source_scan(&self.catalog, &leaf.sources))
            .collect()
    }

    /// Join edges with selectivity estimates. Edges whose selectivity is
    /// unknown get [`FALLBACK_SELECTIVITY`].
    fn edges(&self, rq: &ReformulatedQuery) -> Result<Vec<EdgeSpec>> {
        let rel_index = |name: &str| {
            rq.query
                .relations
                .iter()
                .position(|r| r == name)
                .ok_or_else(|| {
                    TukwilaError::Optimizer(format!("join references unknown relation {name}"))
                })
        };
        rq.query
            .joins
            .iter()
            .map(|j| {
                let a = rel_index(j.left_relation())?;
                let b = rel_index(j.right_relation())?;
                let sel = self
                    .catalog
                    .join_selectivity(&j.left, &j.right)
                    .unwrap_or(FALLBACK_SELECTIVITY);
                Ok(EdgeSpec {
                    a,
                    b,
                    selectivity: sel,
                    a_col: j.left.clone(),
                    b_col: j.right.clone(),
                })
            })
            .collect()
    }

    fn step_coster<'a>(&'a self) -> impl Fn(&Estimate, &Estimate, f64) -> f64 + 'a {
        move |l, r, out| {
            let dpj = self.model.dpj_cost(l, r, out);
            let (hybrid, _) = self.model.best_hybrid(l, r, out);
            dpj.min(hybrid)
        }
    }

    /// Produce a plan. If statistics are missing for some leaves, emits a
    /// **partial plan** covering a known or heuristic first join and marks
    /// it incomplete (§3: "generate a partial plan with only the first
    /// steps specified").
    pub fn plan(&mut self, rq: &ReformulatedQuery) -> Result<PlannedQuery> {
        self.pins.clear(); // pins are per-query state
        let leaves = self.leaf_estimates(rq);
        let edges = self.edges(rq)?;
        if leaves.iter().all(Option::is_some) {
            let ests: Vec<Estimate> = leaves.into_iter().map(Option::unwrap).collect();
            let coster = self.step_coster();
            let pins: Vec<(RelMask, Estimate)> = self.pins.iter().map(|(&m, &e)| (m, e)).collect();
            let memo = Memo::build_with_pins(ests, edges, pins, &coster);
            let full = memo.full_mask();
            let tree = memo.extract(full).ok_or_else(|| {
                TukwilaError::Optimizer("query join graph is disconnected".into())
            })?;
            let lowered =
                Lowerer::new(rq, &memo, &self.catalog, &self.config).lower(&tree, full, false)?;
            return Ok(PlannedQuery {
                lowered,
                memo: Some(memo),
            });
        }
        self.plan_partial(rq, leaves, edges)
    }

    /// Heuristic partial plan: plan exactly one join of two **units** —
    /// where a unit is a maximal materialized subquery (pin) or a base
    /// relation not yet covered by one. Units keep the pin family laminar
    /// across successive partial plans (each step merges two units into a
    /// larger materialization, never creating overlapping atomics), and
    /// each step prefers the most-informed pair (both cardinalities known
    /// beats one, beats none; smaller combined size first) — the paper's
    /// "compute a partial result that it chooses heuristically".
    fn plan_partial(
        &mut self,
        rq: &ReformulatedQuery,
        leaves: Vec<Option<Estimate>>,
        edges: Vec<EdgeSpec>,
    ) -> Result<PlannedQuery> {
        // Maximal pins (the pin family is laminar by construction).
        let maximal_pins: Vec<RelMask> = self
            .pins
            .keys()
            .copied()
            .filter(|&m| !self.pins.keys().any(|&o| o != m && (m & o) == m))
            .collect();
        let unit_of = |rel: usize| -> RelMask {
            maximal_pins
                .iter()
                .copied()
                .find(|&m| m & (1 << rel) != 0)
                .unwrap_or(1 << rel)
        };
        let unit_known = |mask: RelMask| -> Option<f64> {
            if let Some(est) = self.pins.get(&mask) {
                return Some(est.card);
            }
            if mask.count_ones() == 1 {
                return leaves[mask.trailing_zeros() as usize].map(|e| e.card);
            }
            None
        };
        // Candidate: an edge whose endpoints live in different units.
        let score = |e: &EdgeSpec| {
            let (ua, ub) = (unit_of(e.a), unit_of(e.b));
            let (ka, kb) = (unit_known(ua), unit_known(ub));
            let known = ka.is_some() as u32 + kb.is_some() as u32;
            let size = ka.unwrap_or(0.0) + kb.unwrap_or(0.0);
            (known, -size)
        };
        let best = edges
            .iter()
            .filter(|e| unit_of(e.a) != unit_of(e.b))
            .max_by(|x, y| {
                let (kx, sx) = score(x);
                let (ky, sy) = score(y);
                kx.cmp(&ky).then(sx.total_cmp(&sy))
            })
            .ok_or_else(|| {
                TukwilaError::Optimizer(
                    "cannot build a partial plan: no join edge crosses two units".into(),
                )
            })?
            .clone();
        // Memo over everything so lowering has estimates; unknown leaves
        // get a neutral placeholder (card 0 ⇒ DPJ chosen, which is the
        // right call with no information).
        let placeholder = Estimate {
            cost_ms: 1.0,
            card: 0.0,
            tuple_bytes: DEFAULT_TUPLE_BYTES as f64,
        };
        let ests: Vec<Estimate> = leaves.iter().map(|l| l.unwrap_or(placeholder)).collect();
        let coster = self.step_coster();
        let pins: Vec<(RelMask, Estimate)> = self.pins.iter().map(|(&m, &e)| (m, e)).collect();
        let memo = Memo::build_with_pins(ests, edges, pins, &coster);

        let unit_tree = |mask: RelMask| -> JoinTree {
            if mask.count_ones() == 1 {
                JoinTree::Leaf {
                    rel: mask.trailing_zeros() as usize,
                }
            } else {
                JoinTree::Materialized { mask }
            }
        };
        let (left_mask, right_mask) = (unit_of(best.a), unit_of(best.b));
        let mask = left_mask | right_mask;
        let tree = JoinTree::Join {
            left: Box::new(unit_tree(left_mask)),
            right: Box::new(unit_tree(right_mask)),
            left_mask,
            right_mask,
        };
        let lowered =
            Lowerer::new(rq, &memo, &self.catalog, &self.config).lower(&tree, mask, true)?;
        Ok(PlannedQuery {
            lowered,
            memo: None, // heuristic step: no reusable search space yet
        })
    }

    /// Fold observations into catalog and memo, then emit a corrected plan
    /// for the remaining work. `prior_memo` is the saved state from the
    /// previous `plan`/`replan` call; the observed materializations are
    /// pinned into it and only the entries that use them are recomputed.
    /// Without a saved memo the search runs from scratch.
    pub fn replan(
        &mut self,
        rq: &ReformulatedQuery,
        prior_memo: Option<Memo>,
        observations: &[Observation],
    ) -> Result<PlannedQuery> {
        let mut pinned_masks = Vec::new();
        for obs in observations {
            if let Some(mask) = parse_materialization(&obs.name) {
                let width = prior_memo
                    .as_ref()
                    .and_then(|m| m.estimate(mask))
                    .map(|e| e.tuple_bytes)
                    .unwrap_or(DEFAULT_TUPLE_BYTES as f64);
                let est = Estimate {
                    // local scan of a materialized table: CPU only
                    cost_ms: obs.cardinality as f64 * 0.0005,
                    card: obs.cardinality as f64,
                    tuple_bytes: width,
                };
                self.pins.insert(mask, est);
                pinned_masks.push(mask);
            } else {
                self.catalog
                    .record_observed_cardinality(&obs.name, obs.cardinality);
            }
        }

        let leaves = self.leaf_estimates(rq);
        let edges = self.edges(rq)?;
        if !leaves.iter().all(Option::is_some) {
            return self.plan_partial(rq, leaves, edges);
        }
        let ests: Vec<Estimate> = leaves.into_iter().map(Option::unwrap).collect();
        let coster = self.step_coster();

        let memo = match prior_memo {
            None => {
                let pins: Vec<(RelMask, Estimate)> =
                    self.pins.iter().map(|(&m, &e)| (m, e)).collect();
                Memo::build_with_pins(ests, edges, pins, &coster)
            }
            Some(mut memo) => {
                for &mask in &pinned_masks {
                    memo.pin_materialized(mask, self.pins[&mask]);
                }
                for &mask in &pinned_masks {
                    memo.update_with_pointers(mask, &coster);
                }
                memo
            }
        };
        let full = memo.full_mask();
        let tree = memo.extract(full).ok_or_else(|| {
            TukwilaError::Optimizer("replan: query join graph is disconnected".into())
        })?;
        let lowered =
            Lowerer::new(rq, &memo, &self.catalog, &self.config).lower(&tree, full, false)?;
        Ok(PlannedQuery {
            lowered,
            memo: Some(memo),
        })
    }
}

/// Parse a `mat_<mask>` materialization name back to its mask.
pub fn parse_materialization(name: &str) -> Option<RelMask> {
    name.strip_prefix("mat_")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelinePolicy;
    use crate::lower::materialization_name;
    use tukwila_catalog::{AccessCost, SourceDesc, TableStats};
    use tukwila_common::{DataType, Schema};
    use tukwila_plan::{JoinKind, OperatorSpec};
    use tukwila_query::{ConjunctiveQuery, MediatedSchema, Reformulator};

    /// Three-relation chain catalog: a(1000) – b(100) – c(10).
    fn setup(with_stats: bool) -> (ReformulatedQuery, Catalog) {
        let mut m = MediatedSchema::new();
        let sa = Schema::of("a", &[("x", DataType::Int)]);
        let sb = Schema::of("b", &[("x", DataType::Int), ("y", DataType::Int)]);
        let sc = Schema::of("c", &[("y", DataType::Int)]);
        m.add_relation("a", sa.clone());
        m.add_relation("b", sb.clone());
        m.add_relation("c", sc.clone());

        let mut cat = Catalog::new();
        let mk = |name: &str, rel: &str, schema: Schema, card: usize| {
            let mut d = SourceDesc::new(name, rel, schema).with_cost(AccessCost::new(5.0, 0.01));
            if with_stats {
                d = d.with_stats(TableStats::new(card, 64));
            }
            d
        };
        cat.add_source(mk("src_a", "a", sa, 1000));
        cat.add_source(mk("src_b", "b", sb, 100));
        cat.add_source(mk("src_c", "c", sc, 10));
        cat.set_join_selectivity("a.x", "b.x", 0.001);
        cat.set_join_selectivity("b.y", "c.y", 0.01);

        let q = ConjunctiveQuery::new("q", vec!["a".into(), "b".into(), "c".into()])
            .join("a.x", "b.x")
            .join("b.y", "c.y");
        let rq = Reformulator::new(m).reformulate(&q, &cat).unwrap();
        (rq, cat)
    }

    fn config(policy: PipelinePolicy) -> OptimizerConfig {
        OptimizerConfig {
            policy,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn full_plan_when_stats_known() {
        let (rq, cat) = setup(true);
        let mut opt = Optimizer::new(cat, config(PipelinePolicy::FullyPipelined));
        let pq = opt.plan(&rq).unwrap();
        assert!(pq.lowered.plan.complete);
        assert_eq!(pq.lowered.plan.fragments.len(), 1, "fully pipelined");
        assert!(pq.memo.is_some());
    }

    #[test]
    fn materialize_policy_creates_fragment_per_join() {
        let (rq, cat) = setup(true);
        let mut opt = Optimizer::new(cat, config(PipelinePolicy::MaterializeEachJoin));
        let pq = opt.plan(&rq).unwrap();
        // two joins → intermediate fragment + output fragment
        assert_eq!(pq.lowered.plan.fragments.len(), 2);
        assert!(!pq.lowered.plan.dependencies.is_empty());
    }

    #[test]
    fn replan_rules_attached_only_with_replan_policy() {
        let (rq, cat) = setup(true);
        let mut plain = Optimizer::new(cat.clone(), config(PipelinePolicy::MaterializeEachJoin));
        let without = plain.plan(&rq).unwrap();
        assert!(without.lowered.plan.all_rules().is_empty());

        let mut replanning = Optimizer::new(cat, config(PipelinePolicy::MaterializeAndReplan));
        let with = replanning.plan(&rq).unwrap();
        assert!(!with.lowered.plan.all_rules().is_empty());
        assert!(with
            .lowered
            .plan
            .all_rules()
            .iter()
            .any(|r| r.actions.contains(&tukwila_plan::Action::Replan)));
    }

    #[test]
    fn missing_stats_produce_partial_plan() {
        let (rq, cat) = setup(false);
        let mut opt = Optimizer::new(cat, config(PipelinePolicy::Adaptive));
        let pq = opt.plan(&rq).unwrap();
        assert!(!pq.lowered.plan.complete, "partial plan expected");
        assert_eq!(pq.lowered.plan.fragments.len(), 1);
    }

    #[test]
    fn observations_enable_full_replan() {
        let (rq, cat) = setup(false);
        let mut opt = Optimizer::new(cat, config(PipelinePolicy::Adaptive));
        let first = opt.plan(&rq).unwrap();
        assert!(!first.lowered.plan.complete);
        // report observed cardinalities for all sources + the partial result
        let mask = first.lowered.fragment_masks[0].1;
        let obs = vec![
            Observation {
                name: "src_a".into(),
                cardinality: 1000,
            },
            Observation {
                name: "src_b".into(),
                cardinality: 100,
            },
            Observation {
                name: "src_c".into(),
                cardinality: 10,
            },
            Observation {
                name: materialization_name(mask),
                cardinality: 55,
            },
        ];
        let second = opt.replan(&rq, first.memo, &obs).unwrap();
        assert!(second.lowered.plan.complete);
        // the corrected plan reuses the materialization instead of re-reading
        let uses_mat = second.lowered.plan.fragments.iter().any(|f| {
            let mut found = false;
            f.root.walk(&mut |n| {
                if let OperatorSpec::TableScan { table } = &n.spec {
                    if table == &materialization_name(mask) {
                        found = true;
                    }
                }
            });
            found
        });
        assert!(uses_mat, "replan must reuse the materialized fragment");
    }

    #[test]
    fn parallel_config_wraps_big_joins_in_exchange() {
        let (rq, cat) = setup(true);
        let mut cfg = config(PipelinePolicy::Adaptive);
        cfg.max_parallelism = 4;
        cfg.parallel_min_rows = 100; // src_a is 1000, src_b 100, src_c 10
        let mut opt = Optimizer::new(cat.clone(), cfg);
        let pq = opt.plan(&rq).unwrap();
        let mut degrees = Vec::new();
        for f in &pq.lowered.plan.fragments {
            f.root.walk(&mut |n| {
                if let OperatorSpec::Exchange { input, partitions } = &n.spec {
                    assert!(matches!(input.spec, OperatorSpec::Join { .. }));
                    degrees.push(*partitions);
                }
            });
        }
        assert!(
            !degrees.is_empty(),
            "1000-row inputs over a 100-row floor must partition"
        );
        assert!(degrees.iter().all(|&d| (2..=4).contains(&d)));

        // Degree scales with cardinality: the whole-query join (≥1000
        // input rows over the 100-row floor) uses the full budget.
        assert!(degrees.contains(&4), "largest join should use the cap");

        // max_parallelism = 1 (the default without TUKWILA_THREADS) emits
        // no exchange at all.
        let mut seq_cfg = config(PipelinePolicy::Adaptive);
        seq_cfg.max_parallelism = 1;
        let mut seq_opt = Optimizer::new(cat, seq_cfg);
        let seq = seq_opt.plan(&rq).unwrap();
        for f in &seq.lowered.plan.fragments {
            f.root.walk(&mut |n| {
                assert!(
                    !matches!(n.spec, OperatorSpec::Exchange { .. }),
                    "sequential config must not emit exchanges"
                );
            });
        }
    }

    #[test]
    fn adaptive_policy_picks_hybrid_for_large_inputs() {
        let (rq, cat) = setup(true);
        let mut cfg = config(PipelinePolicy::Adaptive);
        cfg.dpj_max_input_bytes = 1; // force hybrid everywhere
        let mut opt = Optimizer::new(cat, cfg);
        let pq = opt.plan(&rq).unwrap();
        let mut kinds = Vec::new();
        for f in &pq.lowered.plan.fragments {
            f.root.walk(&mut |n| {
                if let OperatorSpec::Join { kind, .. } = &n.spec {
                    kinds.push(*kind);
                }
            });
        }
        assert!(kinds.iter().all(|k| *k == JoinKind::HybridHash));
        // hybrid breaks the pipeline → more than one fragment
        assert!(pq.lowered.plan.fragments.len() > 1);
    }

    #[test]
    fn hybrid_inner_is_smaller_side() {
        let (rq, cat) = setup(true);
        let mut cfg = config(PipelinePolicy::Adaptive);
        cfg.dpj_max_input_bytes = 1;
        let mut opt = Optimizer::new(cat, cfg);
        let pq = opt.plan(&rq).unwrap();
        // find a join over {b, c}: inner (right) should be c (card 10)
        for f in &pq.lowered.plan.fragments {
            f.root.walk(&mut |n| {
                if let OperatorSpec::Join { left, right, .. } = &n.spec {
                    let le = left.est_cardinality.unwrap_or(f64::MAX);
                    let re = right.est_cardinality.unwrap_or(f64::MAX);
                    assert!(
                        re <= le,
                        "inner (right) side must be the smaller: {re} vs {le}"
                    );
                }
            });
        }
    }

    #[test]
    fn mirrored_leaf_lowers_to_collector_with_fallback_rules() {
        let (_, mut cat) = setup(true);
        // add a mirror for source a
        let sa = Schema::of("a", &[("x", DataType::Int)]);
        cat.add_source(
            SourceDesc::new("src_a2", "a", sa.clone())
                .with_stats(TableStats::new(1000, 64))
                .with_cost(AccessCost::new(50.0, 0.01)),
        );
        cat.set_overlap(
            "src_a",
            "src_a2",
            tukwila_catalog::OverlapInfo::symmetric(1.0),
        );

        let mut m = MediatedSchema::new();
        m.add_relation("a", sa);
        let q = ConjunctiveQuery::new("q", vec!["a".into()]);
        let rq = Reformulator::new(m).reformulate(&q, &cat).unwrap();

        let mut cfg = config(PipelinePolicy::Adaptive);
        cfg.source_timeout_ms = Some(100);
        let mut opt = Optimizer::new(cat, cfg);
        let pq = opt.plan(&rq).unwrap();
        let frag = &pq.lowered.plan.fragments[0];
        let mut found_collector = false;
        frag.root.walk(&mut |n| {
            if let OperatorSpec::Collector { children, .. } = &n.spec {
                found_collector = true;
                assert_eq!(children.len(), 2);
            }
        });
        assert!(found_collector);
        assert!(
            !frag.local_rules.is_empty(),
            "collector policy rules expected"
        );
    }

    #[test]
    fn parse_materialization_round_trip() {
        assert_eq!(parse_materialization(&materialization_name(0b101)), Some(5));
        assert_eq!(parse_materialization("result"), None);
    }
}
