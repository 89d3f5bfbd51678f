//! Deployable TPC-D-style scenarios: data, simulated sources, catalog.
//!
//! The paper's evaluation (§6.1) runs scaled TPC-D data behind wrappers on
//! a network. [`TpchDeployment`] reproduces that setup in-process: it
//! generates the database, registers each table as a simulated network
//! source with a configurable link model, builds the mediated schema and a
//! catalog whose statistics can be **exact**, **deliberately wrong** (the
//! §6.4 setup: "correct source cardinalities, but … estimates of join
//! selectivities"), or **absent** (forcing partial plans). Mirrors can be
//! added for collector experiments.
//!
//! It also provides [`TpchDeployment::gold`] — a trusted reference
//! evaluator used by the integration tests to check every adaptive
//! execution against plain nested-loop semantics.

use std::collections::HashMap;

use tukwila_catalog::{AccessCost, Catalog, OverlapInfo, SourceDesc, TableStats};
use tukwila_common::relation::join_rows;
use tukwila_common::{Relation, Result, TukwilaError};
use tukwila_exec::ExecEnv;
use tukwila_opt::{Optimizer, OptimizerConfig};
use tukwila_query::{ConjunctiveQuery, MediatedSchema, Reformulator};
use tukwila_source::{LinkModel, SimulatedSource, SourceRegistry};
use tukwila_tpchgen::{join_graph, table_schema, JoinEdge, TpchDb, TpchTable};

use crate::system::TukwilaSystem;

/// How truthful the catalog statistics are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatsQuality {
    /// Correct cardinalities and join selectivities.
    Exact,
    /// Correct source cardinalities but join selectivities off by this
    /// multiplicative factor — the §6.4 experimental condition.
    MisestimatedSelectivities(f64),
    /// No cardinality statistics at all (drives partial planning).
    Unknown,
}

/// Builder for a TPC-D deployment.
pub struct TpchDeploymentBuilder {
    scale: f64,
    seed: u64,
    tables: Vec<TpchTable>,
    default_link: LinkModel,
    links: HashMap<TpchTable, LinkModel>,
    stats: StatsQuality,
    mirrors: Vec<(TpchTable, String, LinkModel)>,
}

impl TpchDeploymentBuilder {
    /// Deployment at `scale` with RNG `seed`, all tables, instant links,
    /// exact statistics.
    pub fn new(scale: f64, seed: u64) -> Self {
        TpchDeploymentBuilder {
            scale,
            seed,
            tables: TpchTable::ALL.to_vec(),
            default_link: LinkModel::instant(),
            links: HashMap::new(),
            stats: StatsQuality::Exact,
            mirrors: Vec::new(),
        }
    }

    /// Deploy only these tables.
    pub fn tables(mut self, tables: &[TpchTable]) -> Self {
        self.tables = tables.to_vec();
        self
    }

    /// Default link model for all sources.
    pub fn default_link(mut self, link: LinkModel) -> Self {
        self.default_link = link;
        self
    }

    /// Override the link model of one table's source.
    pub fn link(mut self, table: TpchTable, link: LinkModel) -> Self {
        self.links.insert(table, link);
        self
    }

    /// Set statistics quality.
    pub fn stats(mut self, stats: StatsQuality) -> Self {
        self.stats = stats;
        self
    }

    /// Register a mirror of `table` under `name` with its own link model.
    pub fn mirror(mut self, table: TpchTable, name: &str, link: LinkModel) -> Self {
        self.mirrors.push((table, name.to_string(), link));
        self
    }

    /// Materialize the deployment.
    pub fn build(self) -> TpchDeployment {
        let db = TpchDb::generate(self.scale, self.seed);
        let registry = SourceRegistry::new();
        let mut catalog = Catalog::new();
        let mut mediated = MediatedSchema::new();

        for &table in &self.tables {
            let rel = db.table(table).clone();
            let link = self.links.get(&table).unwrap_or(&self.default_link).clone();
            let card = rel.len();
            let avg_bytes = rel.mem_size().checked_div(card).unwrap_or(64);
            registry.register(SimulatedSource::new(table.name(), rel, link.clone()));
            mediated.add_relation(table.name(), table_schema(table));
            let stats = match self.stats {
                StatsQuality::Unknown => TableStats::unknown(),
                _ => TableStats::new(card, avg_bytes),
            };
            catalog.add_source(
                SourceDesc::new(table.name(), table.name(), table_schema(table))
                    .with_stats(stats)
                    .with_cost(link_cost(&link)),
            );
        }
        for (table, name, link) in &self.mirrors {
            let rel = db.table(*table).clone();
            let card = rel.len();
            let avg_bytes = rel.mem_size().checked_div(card).unwrap_or(64);
            registry.register(SimulatedSource::new(name.clone(), rel, link.clone()));
            let stats = match self.stats {
                StatsQuality::Unknown => TableStats::unknown(),
                _ => TableStats::new(card, avg_bytes),
            };
            catalog.add_source(
                SourceDesc::new(name.clone(), table.name(), table_schema(*table))
                    .with_stats(stats)
                    .with_cost(link_cost(link)),
            );
            catalog.set_overlap(table.name(), name, OverlapInfo::symmetric(1.0));
        }
        // mirrors of the same table are also mirrors of each other
        for (i, (t1, n1, _)) in self.mirrors.iter().enumerate() {
            for (t2, n2, _) in self.mirrors.iter().skip(i + 1) {
                if t1 == t2 {
                    catalog.set_overlap(n1, n2, OverlapInfo::symmetric(1.0));
                }
            }
        }

        // Join selectivities from the FK structure: |A ⋈fk B| ≈ |A|, so
        // selectivity ≈ 1/|B| (the referenced side); the supplier–customer
        // attribute join distributes over the 25 nations.
        //
        // Misestimation alternates ×f and ÷f per edge: a *uniform* factor
        // cancels out of join-order comparisons (every candidate for the
        // same subset shares the same number of predicates), so it would
        // not make the optimizer pick bad orders — the paper's §6.4 setup
        // needs estimates that are wrong in *different directions*.
        for (i, edge) in join_graph().into_iter().enumerate() {
            if !self.tables.contains(&edge.from) || !self.tables.contains(&edge.to) {
                continue;
            }
            let true_sel = true_selectivity(&edge, &db);
            let sel = match self.stats {
                StatsQuality::MisestimatedSelectivities(f) => {
                    if i % 2 == 0 {
                        true_sel * f
                    } else {
                        true_sel / f
                    }
                }
                _ => true_sel,
            };
            catalog.set_join_selectivity(
                &format!("{}.{}", edge.from.name(), edge.from_col),
                &format!("{}.{}", edge.to.name(), edge.to_col),
                sel,
            );
        }

        TpchDeployment {
            db,
            registry,
            catalog,
            mediated,
            tables: self.tables,
        }
    }
}

fn link_cost(link: &LinkModel) -> AccessCost {
    AccessCost::new(
        link.initial_delay.as_secs_f64() * 1e3,
        link.per_tuple.as_secs_f64() * 1e3,
    )
}

/// True FK selectivity: 1 / |referenced relation| (or 1/|nation| for the
/// supplier–customer attribute join).
fn true_selectivity(edge: &JoinEdge, db: &TpchDb) -> f64 {
    use TpchTable::*;
    if edge.from == Supplier && edge.to == Customer {
        return 1.0 / 25.0;
    }
    1.0 / db.table(edge.to).len().max(1) as f64
}

/// A live TPC-D deployment: data, sources, catalog, mediated schema.
pub struct TpchDeployment {
    /// The generated database (for gold results).
    pub db: TpchDb,
    /// Registered simulated sources.
    pub registry: SourceRegistry,
    /// The data source catalog.
    pub catalog: Catalog,
    /// The mediated schema users query.
    pub mediated: MediatedSchema,
    tables: Vec<TpchTable>,
}

impl TpchDeployment {
    /// Builder entry point.
    pub fn builder(scale: f64, seed: u64) -> TpchDeploymentBuilder {
        TpchDeploymentBuilder::new(scale, seed)
    }

    /// Assemble a [`TukwilaSystem`] over this deployment.
    pub fn system(&self, config: OptimizerConfig) -> TukwilaSystem {
        self.system_with_env(config, ExecEnv::new(self.registry.clone()))
    }

    /// Assemble a system with an explicit intra-query thread budget
    /// (overriding the `TUKWILA_THREADS` default) — the parallelism tests'
    /// entry point.
    pub fn system_threads(&self, config: OptimizerConfig, threads: usize) -> TukwilaSystem {
        self.system_with_env(
            config,
            ExecEnv::new(self.registry.clone()).with_threads(threads),
        )
    }

    /// Assemble a system over a caller-built environment.
    pub fn system_with_env(&self, config: OptimizerConfig, env: ExecEnv) -> TukwilaSystem {
        let reformulator = Reformulator::new(self.mediated.clone());
        let optimizer = Optimizer::new(self.catalog.clone(), config);
        TukwilaSystem::new(reformulator, optimizer, env)
    }

    /// A conjunctive query joining `tables` along every join-graph edge
    /// among them.
    pub fn query_for(&self, name: &str, tables: &[TpchTable]) -> ConjunctiveQuery {
        let mut q =
            ConjunctiveQuery::new(name, tables.iter().map(|t| t.name().to_string()).collect());
        for edge in join_graph() {
            if tables.contains(&edge.from) && tables.contains(&edge.to) {
                q = q.join(
                    &format!("{}.{}", edge.from.name(), edge.from_col),
                    &format!("{}.{}", edge.to.name(), edge.to_col),
                );
            }
        }
        q
    }

    /// Tables deployed.
    pub fn tables(&self) -> &[TpchTable] {
        &self.tables
    }

    /// Trusted reference evaluation of a conjunctive query against the
    /// generated data (nested-loop semantics; no projection/filters beyond
    /// the join predicates). Works on rows: each table is materialized
    /// once, and the answer is typed into columns once, at the end.
    pub fn gold(&self, query: &ConjunctiveQuery) -> Result<Relation> {
        let first = TpchTable::from_name(&query.relations[0]).ok_or_else(|| {
            TukwilaError::Internal(format!("unknown table {}", query.relations[0]))
        })?;
        let table = self.db.table(first);
        let (mut schema, mut rows) = (table.schema().clone(), table.to_rows());
        let mut included = vec![query.relations[0].clone()];
        let mut applied = vec![false; query.joins.len()];

        while included.len() < query.relations.len() {
            let mut progressed = false;
            for (i, j) in query.joins.iter().enumerate() {
                if applied[i] {
                    continue;
                }
                let l_in = included.iter().any(|r| r == j.left_relation());
                let r_in = included.iter().any(|r| r == j.right_relation());
                if l_in == r_in {
                    continue; // both in (cycle; handled below) or both out
                }
                let (in_col, out_col, out_rel) = if l_in {
                    (&j.left, &j.right, j.right_relation())
                } else {
                    (&j.right, &j.left, j.left_relation())
                };
                let table = TpchTable::from_name(out_rel)
                    .ok_or_else(|| TukwilaError::Internal(format!("unknown table {out_rel}")))?;
                let right = self.db.table(table);
                let li = schema.index_of(in_col)?;
                let ri = right.schema().index_of(out_col)?;
                rows = join_rows(&rows, &right.to_rows(), li, ri);
                schema = schema.concat(right.schema());
                included.push(out_rel.to_string());
                applied[i] = true;
                progressed = true;
            }
            if !progressed {
                return Err(TukwilaError::Internal(
                    "gold evaluator: disconnected join graph".into(),
                ));
            }
        }
        // remaining (cycle) predicates become filters
        for (i, j) in query.joins.iter().enumerate() {
            if applied[i] {
                continue;
            }
            let li = schema.index_of(&j.left)?;
            let ri = schema.index_of(&j.right)?;
            rows.retain(|t| t.value(li).sql_eq(t.value(ri)) == Some(true));
        }
        Relation::new(schema, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchDeployment {
        TpchDeployment::builder(0.002, 11)
            .tables(&[
                TpchTable::Region,
                TpchTable::Nation,
                TpchTable::Supplier,
                TpchTable::Partsupp,
            ])
            .build()
    }

    #[test]
    fn deployment_registers_sources_and_catalog() {
        let d = tiny();
        assert!(d.registry.contains("supplier"));
        assert!(d.catalog.source("supplier").is_ok());
        assert!(d.mediated.contains("supplier"));
        assert_eq!(
            d.catalog.cardinality("supplier"),
            Some(d.db.table(TpchTable::Supplier).len())
        );
    }

    #[test]
    fn selectivities_reflect_fk_structure() {
        let d = tiny();
        let sel = d
            .catalog
            .join_selectivity("supplier.s_nationkey", "nation.n_nationkey")
            .unwrap();
        assert!((sel - 1.0 / 25.0).abs() < 1e-9);
    }

    #[test]
    fn misestimation_scales_selectivities_in_alternating_directions() {
        let d = TpchDeployment::builder(0.002, 11)
            .tables(&[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier])
            .stats(StatsQuality::MisestimatedSelectivities(10.0))
            .build();
        // edge 0 (nation–region) gets ×f, edge 1 (supplier–nation) gets ÷f
        let s0 = d
            .catalog
            .join_selectivity("nation.n_regionkey", "region.r_regionkey")
            .unwrap();
        assert!((s0 - 10.0 / 5.0).abs() < 1e-9, "s0={s0}");
        let s1 = d
            .catalog
            .join_selectivity("supplier.s_nationkey", "nation.n_nationkey")
            .unwrap();
        assert!((s1 - 0.1 / 25.0).abs() < 1e-9, "s1={s1}");
    }

    #[test]
    fn unknown_stats_hide_cardinalities() {
        let d = TpchDeployment::builder(0.002, 11)
            .tables(&[TpchTable::Nation, TpchTable::Supplier])
            .stats(StatsQuality::Unknown)
            .build();
        assert_eq!(d.catalog.cardinality("supplier"), None);
    }

    #[test]
    fn gold_evaluates_fk_join_cardinality() {
        let d = tiny();
        // supplier ⋈ nation: every supplier matches exactly one nation
        let q = d.query_for("q", &[TpchTable::Supplier, TpchTable::Nation]);
        let gold = d.gold(&q).unwrap();
        assert_eq!(gold.len(), d.db.table(TpchTable::Supplier).len());
    }

    #[test]
    fn gold_handles_chains() {
        let d = tiny();
        let q = d.query_for(
            "q",
            &[TpchTable::Region, TpchTable::Nation, TpchTable::Supplier],
        );
        let gold = d.gold(&q).unwrap();
        assert_eq!(gold.len(), d.db.table(TpchTable::Supplier).len());
        assert_eq!(
            gold.schema().arity(),
            3 + 4 + 5 // region + nation + supplier columns
        );
    }

    #[test]
    fn mirrors_share_relation_and_overlap() {
        let d = TpchDeployment::builder(0.002, 11)
            .tables(&[TpchTable::Nation, TpchTable::Supplier])
            .mirror(TpchTable::Supplier, "supplier_eu", LinkModel::instant())
            .build();
        assert!(d.registry.contains("supplier_eu"));
        assert!(d.catalog.are_mirrors("supplier", "supplier_eu"));
        let sources = d.catalog.sources_for("supplier");
        assert_eq!(sources.len(), 2);
    }
}
