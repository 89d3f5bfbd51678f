//! Plan lowering: join trees → fragments, physical operators, and rules.
//!
//! Lowering is where the paper's policy decisions become concrete plan
//! structure:
//!
//! * **Physical join choice** (§1.3): double pipelined joins while the
//!   estimated combined input size fits the join memory budget; hybrid hash
//!   (smaller side as inner) above it — and the pipeline breaks at a hybrid
//!   join, materializing its result.
//! * **Fragmenting policies** for the Figure 5 experiment: one fragment per
//!   join (with or without replan rules) or one fully pipelined fragment.
//! * **Disjunctive leaves** (§4.1): a relation served by several sources
//!   lowers to a dynamic collector; the access order and fallback chain is
//!   derived from catalog costs and overlap info, expressed as
//!   `error`/`timeout` rules.
//! * **Rule generation** (§3.1.2): replan-on-misestimate at fragment ends,
//!   reschedule-on-timeout for wrapper scans, collector policies.

use tukwila_catalog::Catalog;
use tukwila_common::{Result, TukwilaError};
use tukwila_plan::{
    Action, Condition, EventKind, EventPattern, FragmentId, JoinKind, OpId, OperatorNode,
    OverflowMethod, PlanBuilder, Predicate, QueryPlan, Rule, SubjectRef,
};
use tukwila_query::ReformulatedQuery;

use crate::config::{OptimizerConfig, PipelinePolicy, REPLAN_FACTOR};
use crate::memo::{JoinTree, Memo, RelMask};

/// Canonical local-store name for the materialization of a subquery.
pub fn materialization_name(mask: RelMask) -> String {
    format!("mat_{mask}")
}

/// A lowered plan plus the mask each fragment computes (used to map
/// observed cardinalities back into the memo).
#[derive(Debug, Clone)]
pub struct LoweredPlan {
    /// The executable plan.
    pub plan: QueryPlan,
    /// `(fragment, subquery mask)` pairs.
    pub fragment_masks: Vec<(FragmentId, RelMask)>,
    /// Static-analysis report for the plan (Error-free by construction:
    /// lowering fails instead of returning a plan with Error findings).
    pub analysis: tukwila_plan::diag::Report,
}

pub(crate) struct Lowerer<'a> {
    rq: &'a ReformulatedQuery,
    memo: &'a Memo,
    catalog: &'a Catalog,
    config: &'a OptimizerConfig,
    builder: PlanBuilder,
    fragment_masks: Vec<(FragmentId, RelMask)>,
    /// Wrapper-scan op ids created since the last fragment boundary.
    scans: Vec<OpId>,
    /// Collector policy rules awaiting attachment to the next fragment.
    pending_rules: Vec<Rule>,
    /// Mask of the whole tree being lowered (the root join's result is the
    /// output fragment itself, never an intermediate materialization).
    root_mask: RelMask,
    /// Whether this is a partial plan: its output materializes under its
    /// `mat_<mask>` name (so later plans can reuse it) instead of `result`.
    partial: bool,
}

impl<'a> Lowerer<'a> {
    pub fn new(
        rq: &'a ReformulatedQuery,
        memo: &'a Memo,
        catalog: &'a Catalog,
        config: &'a OptimizerConfig,
    ) -> Self {
        Lowerer {
            rq,
            memo,
            catalog,
            config,
            builder: PlanBuilder::new(),
            fragment_masks: Vec::new(),
            scans: Vec::new(),
            pending_rules: Vec::new(),
            root_mask: 0,
            partial: false,
        }
    }

    /// Lower `tree` (covering `mask`) into a complete plan.
    pub fn lower(mut self, tree: &JoinTree, mask: RelMask, partial: bool) -> Result<LoweredPlan> {
        self.root_mask = mask;
        self.partial = partial;
        let (root, deps, _) = self.lower_node(tree)?;
        let output = self.finish_fragment(root, mask, &deps, true)?;
        let mut plan = self.builder.build(output);
        if partial {
            plan.complete = false;
        }
        // Every lowered plan goes through the full static analyzer before
        // it can execute — once: its first two passes are the structure and
        // rule validation. Error findings are optimizer bugs: loud in tests,
        // a hard failure (instead of a runtime surprise) in release.
        let analysis = tukwila_analyze::Analyzer::new()
            .with_catalog(self.catalog)
            .with_max_parallelism(self.config.max_parallelism)
            .analyze(&plan);
        debug_assert!(
            analysis.is_executable(),
            "optimizer produced a plan with analyzer errors:\n{}",
            analysis.render(&plan)
        );
        if let Some(first) = analysis.first_error() {
            return Err(TukwilaError::Optimizer(format!(
                "lowered plan failed static analysis: {}: {}",
                first.code, first.message
            )));
        }
        Ok(LoweredPlan {
            plan,
            fragment_masks: self.fragment_masks,
            analysis,
        })
    }

    /// Lower one node, returning the operator, the fragments the subtree
    /// created (dependencies for the enclosing fragment), and the node's
    /// estimated cardinality.
    fn lower_node(&mut self, tree: &JoinTree) -> Result<(OperatorNode, Vec<FragmentId>, f64)> {
        match tree {
            JoinTree::Leaf { rel } => self.lower_leaf(*rel),
            JoinTree::Materialized { mask } => {
                let est = self.memo.estimate(*mask);
                let node = self.builder.table_scan(&materialization_name(*mask));
                let card = est.map(|e| e.card).unwrap_or(0.0);
                Ok((node.with_est_cardinality(card), Vec::new(), card))
            }
            JoinTree::Join {
                left,
                right,
                left_mask,
                right_mask,
            } => self.lower_join(left, right, *left_mask, *right_mask),
        }
    }

    fn lower_leaf(&mut self, rel: usize) -> Result<(OperatorNode, Vec<FragmentId>, f64)> {
        let leaf = &self.rq.leaves[rel];
        let est = self.memo.estimate(1 << rel);
        let card = est.map(|e| e.card).unwrap_or(0.0);
        let node = if leaf.sources.len() == 1 {
            let mut scan = self.builder.wrapper_scan_opts(
                &leaf.sources[0],
                self.config.source_timeout_ms,
                None,
            );
            self.scans.push(scan.id);
            scan.est_cardinality = Some(card);
            scan
        } else {
            self.lower_collector(rel)?
        };
        // push down filters that mention only this relation
        let relation = &self.rq.query.relations[rel];
        let mut filters = Vec::new();
        for f in &self.rq.query.filters {
            let cols = f.columns();
            if !cols.is_empty()
                && cols
                    .iter()
                    .all(|c| c.split('.').next() == Some(relation.as_str()))
            {
                filters.push(f.clone());
            }
        }
        let node = if filters.is_empty() {
            node
        } else {
            self.builder.select(node, Predicate::and(filters))
        };
        Ok((node, Vec::new(), card))
    }

    /// Lower a disjunctive leaf to a dynamic collector with a generated
    /// policy: cheapest source active, the rest in a standby fallback chain
    /// activated on the active source's error or timeout.
    fn lower_collector(&mut self, rel: usize) -> Result<OperatorNode> {
        let leaf = &self.rq.leaves[rel];
        // Order by catalog access cost (latency-dominated).
        let mut ordered: Vec<&String> = leaf.sources.iter().collect();
        ordered.sort_by(|a, b| {
            let cost = |name: &str| {
                self.catalog
                    .source(name)
                    .map(|d| {
                        let card = self.catalog.cardinality(name).unwrap_or(10_000);
                        d.cost.transfer_ms(card)
                    })
                    .unwrap_or(f64::MAX)
            };
            cost(a).total_cmp(&cost(b))
        });
        // Policy: for true mirrors, contact only the cheapest and keep the
        // rest on standby behind error/timeout fallback rules — exact
        // results (no duplicate copies) and robust to outages. For
        // partially overlapping sources, contact all of them (the union
        // needs every member). Race-two-mirrors policies (the paper's §4.1
        // example) are expressible with hand-written threshold rules; the
        // engine supports them (see the collector tests), but the optimizer
        // defaults to the duplicate-free chain.
        let specs: Vec<(&str, bool)> = ordered
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let active = !leaf.all_mirrors || i == 0;
                (s.as_str(), active)
            })
            .collect();
        let timeout = self.config.source_timeout_ms;
        let (node, child_ids) = self.builder.collector_with_timeout(&specs, None, timeout);
        let coll = node.id;
        // Fallback chain: on error or timeout of child i, activate child
        // i+1 (if currently standby) and deactivate child i.
        for i in 0..child_ids.len() {
            let this = SubjectRef::Op(child_ids[i]);
            if let Some(&next_id) = child_ids.get(i + 1) {
                let next = SubjectRef::Op(next_id);
                self.pending_rules.push(Rule::new(
                    format!("collector-fallback-error-{coll}-{i}"),
                    SubjectRef::Op(coll),
                    EventPattern::new(EventKind::Error, this),
                    Condition::True,
                    vec![Action::Activate(next)],
                ));
                if timeout.is_some() {
                    self.pending_rules.push(Rule::new(
                        format!("collector-fallback-timeout-{coll}-{i}"),
                        SubjectRef::Op(coll),
                        EventPattern::new(EventKind::Timeout, this),
                        Condition::True,
                        vec![Action::Activate(next), Action::Deactivate(this)],
                    ));
                }
            }
        }
        Ok(node)
    }

    fn lower_join(
        &mut self,
        left: &JoinTree,
        right: &JoinTree,
        left_mask: RelMask,
        right_mask: RelMask,
    ) -> Result<(OperatorNode, Vec<FragmentId>, f64)> {
        let mask = left_mask | right_mask;
        let (mut l_node, mut l_deps, _) = self.lower_node(left)?;
        let (mut r_node, mut r_deps, _) = self.lower_node(right)?;
        let l_est = self.memo.estimate(left_mask);
        let r_est = self.memo.estimate(right_mask);
        let est = self.memo.estimate(mask);
        let out_card = est.map(|e| e.card).unwrap_or(0.0);

        // Crossing edges: first becomes the hash keys, the rest post-join
        // filters.
        let crossing: Vec<&crate::memo::EdgeSpec> = self
            .memo
            .edges()
            .iter()
            .filter(|e| {
                let (ma, mb) = (1u32 << e.a, 1u32 << e.b);
                (left_mask & ma != 0 && right_mask & mb != 0)
                    || (left_mask & mb != 0 && right_mask & ma != 0)
            })
            .collect();
        let first = crossing.first().ok_or_else(|| {
            TukwilaError::Optimizer(format!(
                "no join predicate crosses {left_mask:#b} | {right_mask:#b}"
            ))
        })?;
        let left_has_a = left_mask & (1u32 << first.a) != 0;
        let (mut lk, mut rk) = if left_has_a {
            (first.a_col.clone(), first.b_col.clone())
        } else {
            (first.b_col.clone(), first.a_col.clone())
        };

        // physical choice
        let kind = match self.config.policy {
            PipelinePolicy::FullyPipelined
            | PipelinePolicy::MaterializeEachJoin
            | PipelinePolicy::MaterializeAndReplan => JoinKind::DoublePipelined,
            PipelinePolicy::Adaptive => {
                let demand = l_est.map(|e| e.bytes()).unwrap_or(f64::MAX)
                    + r_est.map(|e| e.bytes()).unwrap_or(f64::MAX);
                if demand <= self.config.dpj_max_input_bytes as f64 {
                    JoinKind::DoublePipelined
                } else {
                    JoinKind::HybridHash
                }
            }
        };
        if kind == JoinKind::HybridHash {
            // smaller estimated side becomes the inner (right) build side
            let l_bytes = l_est.map(|e| e.bytes()).unwrap_or(f64::MAX);
            let r_bytes = r_est.map(|e| e.bytes()).unwrap_or(f64::MAX);
            if l_bytes < r_bytes {
                std::mem::swap(&mut l_node, &mut r_node);
                std::mem::swap(&mut lk, &mut rk);
                std::mem::swap(&mut l_deps, &mut r_deps);
            }
        }
        let node = match kind {
            JoinKind::DoublePipelined => self.builder.dpj(
                l_node,
                r_node,
                &lk,
                &rk,
                OverflowMethod::IncrementalLeftFlush,
            ),
            k => self.builder.join(k, l_node, r_node, &lk, &rk),
        };
        // Memory allocation (§3.1.1 annotation 4): estimate-driven, so
        // underestimated inputs get starved budgets (see config docs).
        let budget = if self.config.estimate_driven_memory {
            let demand = match kind {
                // DPJ holds both inputs; hybrid holds the build (right) side.
                JoinKind::DoublePipelined => {
                    l_est.map(|e| e.bytes()).unwrap_or(0.0)
                        + r_est.map(|e| e.bytes()).unwrap_or(0.0)
                }
                _ => r_est.map(|e| e.bytes()).unwrap_or(0.0),
            };
            ((demand * 1.3) as usize).clamp(16 << 10, self.config.join_memory_budget)
        } else {
            self.config.join_memory_budget
        };
        let node = node.with_memory(budget).with_est_cardinality(out_card);
        let join_id = node.id;

        // Intra-query parallelism: wrap joins whose estimated input
        // volume justifies the fan-out in an exchange. The
        // degree scales with the input cardinality (one partition per
        // `parallel_min_rows` input rows) and is capped by the configured
        // parallelism, so small joins stay sequential and big ones use the
        // whole thread budget.
        let input_rows =
            l_est.map(|e| e.card).unwrap_or(0.0) + r_est.map(|e| e.card).unwrap_or(0.0);
        let node = if self.config.max_parallelism > 1
            && input_rows >= self.config.parallel_min_rows as f64
        {
            let by_rows = (input_rows / self.config.parallel_min_rows as f64) as usize;
            let degree = by_rows.clamp(2, self.config.max_parallelism);
            self.builder
                .exchange(node, degree)
                .with_est_cardinality(out_card)
        } else {
            node
        };

        // remaining crossing predicates as post-join filters
        let extra: Vec<Predicate> = crossing
            .iter()
            .skip(1)
            .map(|e| Predicate::eq_cols(e.a_col.clone(), e.b_col.clone()))
            .collect();
        let node = if extra.is_empty() {
            node
        } else {
            self.builder.select(node, Predicate::and(extra))
        };

        let mut deps = l_deps;
        deps.extend(r_deps);

        // fragment boundary?
        let materialize_here = mask != self.root_mask
            && match self.config.policy {
                PipelinePolicy::FullyPipelined => false,
                PipelinePolicy::MaterializeEachJoin | PipelinePolicy::MaterializeAndReplan => true,
                PipelinePolicy::Adaptive => kind == JoinKind::HybridHash,
            };
        if materialize_here {
            let frag = self.finish_fragment(node, mask, &deps, false)?;
            self.attach_replan_rule(frag, join_id);
            let scan = self
                .builder
                .table_scan(&materialization_name(mask))
                .with_est_cardinality(out_card);
            Ok((scan, vec![frag], out_card))
        } else {
            Ok((node, deps, out_card))
        }
    }

    fn attach_replan_rule(&mut self, frag: FragmentId, join_id: OpId) {
        let replan = matches!(
            self.config.policy,
            PipelinePolicy::MaterializeAndReplan | PipelinePolicy::Adaptive
        );
        if replan {
            self.builder.add_local_rule(
                frag,
                Rule::replan_on_misestimate(frag, join_id, REPLAN_FACTOR),
            );
        }
    }

    /// Close the current fragment around `root`.
    fn finish_fragment(
        &mut self,
        root: OperatorNode,
        mask: RelMask,
        deps: &[FragmentId],
        is_output: bool,
    ) -> Result<FragmentId> {
        // output fragment: apply query projection
        let root = if is_output {
            if let Some(cols) = &self.rq.query.projection {
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                self.builder.project(root, &refs)
            } else {
                root
            }
        } else {
            root
        };
        let name = if is_output && !self.partial {
            "result".to_string()
        } else {
            materialization_name(mask)
        };
        let frag = self.builder.fragment(root, &name);
        for scan in std::mem::take(&mut self.scans) {
            if self.config.reschedule_on_timeout {
                self.builder
                    .add_local_rule(frag, Rule::reschedule_on_timeout(frag, scan));
            }
        }
        for rule in std::mem::take(&mut self.pending_rules) {
            self.builder.add_local_rule(frag, rule);
        }
        for d in deps {
            self.builder.depends(*d, frag);
        }
        self.fragment_masks.push((frag, mask));
        Ok(frag)
    }
}
