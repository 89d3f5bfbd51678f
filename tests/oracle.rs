//! One oracle for every physical alternative.
//!
//! Each case is a seed. From it the suite draws a runnable plan over the
//! TPC-H tables at a tiny scale, plus two small tables `xa` and `xb` with
//! NULLs in all four column types: scans and wrapper scans of real tables,
//! collectors over a table's source and its mirror, selects over real
//! columns, projects, equi-joins on type-compatible keys (every join kind
//! and overflow method, under drawn memory budgets), unions of
//! union-compatible inputs, exchanges over joins, and plans of several
//! fragments that scan each other's materializations. It also draws the
//! batch size (1 included) and the thread budget, and runs the plan
//! through `execute_plan`.
//!
//! The one reference is a row interpreter: `Predicate::matches`,
//! `relation::join_rows`, projection by index and bag union. The property:
//! when the analyzer (with the catalog) reports no Error, the run answers
//! what the reference answers, as a bag, or fails with a typed runtime
//! error (`out_of_memory`, `source_timeout`, `deadline_exceeded`) — never a
//! `plan`, `schema` or `internal` error, a panic or a hang — and the memory
//! governor ends at zero either way. A plan the analyzer rejects that runs
//! to the reference's answer is an over-strict diagnostic: it is printed,
//! not failed.
//!
//! A failing case prints its seed and plan text. Put the seed in [`PINNED`]
//! and run `cargo test --test oracle pinned_seeds` to rerun it alone.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

use proptest::prelude::Gen;
use tukwila::common::relation::join_rows;
use tukwila::common::testing::multiset;
use tukwila::core::execute_plan;
use tukwila::plan::{
    print_plan, CmpOp, FragmentId, OperatorNode, OperatorSpec, PlanBuilder, QueryPlan, Severity,
};
use tukwila::prelude::*;
use tukwila::tpchgen::join_graph;

/// Cases the suite draws, seeds `0..CASES`.
const CASES: u32 = 256;

/// Seeds run alone by `pinned_seeds`: any seed a failure names.
const PINNED: &[u32] = &[];

/// A case whose reference answer (or any join or union inside it) exceeds
/// this many rows is redrawn from the same generator.
const MAX_ROWS: usize = 20_000;

/// A run that takes longer than this is a hang.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Join budgets a case draws from, in bytes: the smaller ones overflow
/// nearly every join over the TPC-H tables.
const BUDGETS: [usize; 4] = [1_500, 6_000, 24_000, 96_000];

/// Errors a run may end in although the analyzer passed its plan.
const TYPED_RUNTIME_ERRORS: [&str; 3] = ["out_of_memory", "source_timeout", "deadline_exceeded"];

// ---- the deployment ----------------------------------------------------------

/// The data every case runs over. Each table is a source and a mirror
/// (`<table>_m`) on instant links, a catalog entry each, and rows for the
/// reference under both names.
struct World {
    tables: Vec<(String, Relation)>,
    rows: HashMap<String, (Schema, Vec<Tuple>)>,
    registry: SourceRegistry,
    catalog: Catalog,
}

/// `n` rows of `name(<p>_k, <p>_s, <p>_d, <p>_t)` with NULLs in every
/// column, few distinct values per column, `-0.0` and `0.0` both present
/// (different keys).
fn nullable_table(name: &str, p: char, n: i64, seed: i64) -> Relation {
    let cols = [
        (format!("{p}_k"), DataType::Int),
        (format!("{p}_s"), DataType::Str),
        (format!("{p}_d"), DataType::Double),
        (format!("{p}_t"), DataType::Date),
    ];
    let cols: Vec<(&str, DataType)> = cols.iter().map(|(c, t)| (c.as_str(), *t)).collect();
    let rows = (0..n)
        .map(|i| {
            let j = (i * 7 + seed) % 13;
            let or_null = |every: i64, v: Value| {
                if (i + seed) % every == 0 {
                    Value::Null
                } else {
                    v
                }
            };
            Tuple::new(vec![
                or_null(5, Value::Int(j % 9)),
                or_null(4, Value::str(format!("s{}", j % 5))),
                or_null(
                    6,
                    Value::Double([-0.0, 0.0, 1.0, 1.5, 2.0, 2.5][j as usize % 6]),
                ),
                or_null(7, Value::Date(9_000 + (j % 4) as i32)),
            ])
        })
        .collect();
    Relation::new(Schema::of(name, &cols), rows).expect("the rows fit the schema")
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let db = TpchDb::generate(0.0005, 7);
        let mut tables: Vec<(String, Relation)> = (TpchTable::ALL.iter())
            .map(|t| (t.name().to_string(), db.table(*t).clone()))
            .collect();
        tables.push(("xa".into(), nullable_table("xa", 'a', 60, 0)));
        tables.push(("xb".into(), nullable_table("xb", 'b', 45, 3)));
        let (registry, mut catalog, mut rows) =
            (SourceRegistry::new(), Catalog::new(), HashMap::new());
        for (name, rel) in &tables {
            let mirror = format!("{name}_m");
            for source in [name, &mirror] {
                let link = LinkModel::instant();
                registry.register(SimulatedSource::new(source, rel.clone(), link));
                let desc = SourceDesc::new(source, name, rel.schema().clone());
                catalog.add_source(desc.with_stats(TableStats::new(rel.len(), 64)));
                rows.insert(source.clone(), (rel.schema().clone(), rel.to_rows()));
            }
            catalog.set_overlap(name, &mirror, OverlapInfo::symmetric(1.0));
        }
        World {
            tables,
            rows,
            registry,
            catalog,
        }
    })
}

// ---- the generator -----------------------------------------------------------

/// One output column of a drawn subtree, and the table column it came
/// from (where predicate literals are sampled).
#[derive(Clone)]
struct Col {
    qualifier: String,
    name: String,
    dtype: DataType,
    origin: (usize, usize),
}

/// A drawn subtree and its output columns.
type Sub = (OperatorNode, Vec<Col>);

/// What a case runs under, besides its plan.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    batch_size: usize,
    threads: usize,
}

/// One plan's draw, built through [`PlanBuilder`] in the form the parser
/// produces (only join nodes carry a memory budget).
struct Draw<'a> {
    gen: &'a mut Gen,
    b: PlanBuilder,
    world: &'a World,
    /// Earlier fragments: materialization name, its columns, its id.
    mats: Vec<(String, Vec<Col>, FragmentId)>,
    /// Indices into `mats` the fragment being drawn scans.
    scanned: Vec<usize>,
}

impl Draw<'_> {
    fn below(&mut self, n: usize) -> usize {
        (self.gen.next_u64() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// How a plan names `c`: qualified or not (both resolve, as a drawn
    /// subtree never holds two columns of one name).
    fn pattern(&mut self, c: &Col) -> String {
        if self.one_in(2) {
            format!("{}.{}", c.qualifier, c.name)
        } else {
            c.name.clone()
        }
    }

    /// A value of `c`'s table column, from a random row.
    fn sample(&mut self, c: &Col) -> Value {
        let rel = &self.world.tables[c.origin.0].1;
        let row = self.below(rel.len());
        rel.columnar().col(c.origin.1).value_at(row)
    }

    /// A scan: an earlier fragment's materialization, a local table, a
    /// wrapper (with a timeout or read-ahead now and then), or a collector
    /// over the table's source and its mirror.
    fn leaf(&mut self) -> Sub {
        if !self.mats.is_empty() && self.one_in(3) {
            let i = self.below(self.mats.len());
            self.scanned.push(i);
            let (name, cols, _) = self.mats[i].clone();
            return (self.b.table_scan(&name), cols);
        }
        let t = self.below(self.world.tables.len());
        let (name, rel) = &self.world.tables[t];
        let cols = (rel.schema().fields().iter().enumerate())
            .map(|(i, f)| Col {
                qualifier: name.clone(),
                name: f.name.clone(),
                dtype: f.data_type,
                origin: (t, i),
            })
            .collect();
        let name = name.clone();
        let node = match self.below(8) {
            0 | 1 => self.b.table_scan(&name),
            2 => {
                let timeout = self.one_in(2).then_some(10_000);
                let prefetch = self.one_in(2).then(|| 1 + self.below(64));
                self.b.wrapper_scan_opts(&name, timeout, prefetch)
            }
            3 => {
                let (first, second) = [(true, true), (true, false), (false, true)][self.below(3)];
                let mirror = format!("{name}_m");
                self.b
                    .collector(&[(&name, first), (&mirror, second)], None)
                    .0
            }
            _ => self.b.wrapper_scan(&name),
        };
        (node, cols)
    }

    fn node(&mut self, depth: u32) -> Sub {
        if depth == 0 {
            return self.leaf();
        }
        match self.below(12) {
            0 | 1 => self.leaf(),
            2 | 3 => {
                let (input, cols) = self.node(depth - 1);
                let predicate = self.predicate(&cols, 2);
                (self.b.select(input, predicate), cols)
            }
            4 => {
                let (input, mut pool) = self.node(depth - 1);
                let kept = (0..1 + self.below(pool.len()))
                    .map(|_| pool.remove(self.below(pool.len())))
                    .collect();
                self.project_onto(input, kept)
            }
            5..=8 => self.join(depth),
            9 => self.union(depth),
            _ => {
                // Exchanges do not nest: an exchange over a join that holds
                // one is left out.
                let (input, cols) = self.join(depth);
                let mut nested = false;
                input.walk(&mut |n| nested |= matches!(n.spec, OperatorSpec::Exchange { .. }));
                if nested {
                    return (input, cols);
                }
                let partitions = 1 + self.below(4);
                (self.b.exchange(input, partitions), cols)
            }
        }
    }

    fn predicate(&mut self, cols: &[Col], depth: u32) -> Predicate {
        let c = cols[self.below(cols.len())].clone();
        let op = self.pick(CmpOp::KEYWORDS).1;
        match self.below(if depth == 0 { 4 } else { 7 }) {
            0 => {
                let d = cols[self.below(cols.len())].clone();
                let right = if c.dtype == d.dtype { d } else { c.clone() };
                Predicate::ColCol {
                    left: self.pattern(&c),
                    op,
                    right: self.pattern(&right),
                }
            }
            1..=3 => Predicate::ColLit {
                col: self.pattern(&c),
                op,
                value: self.sample(&c),
            },
            4 => Predicate::And(vec![
                self.predicate(cols, depth - 1),
                self.predicate(cols, depth - 1),
            ]),
            5 => Predicate::Or(vec![
                self.predicate(cols, depth - 1),
                self.predicate(cols, depth - 1),
            ]),
            _ => Predicate::Not(Box::new(self.predicate(cols, depth - 1))),
        }
    }

    fn project_onto(&mut self, input: OperatorNode, cols: Vec<Col>) -> Sub {
        let names: Vec<String> = cols.iter().map(|c| self.pattern(c)).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        (self.b.project(input, &names), cols)
    }

    /// Key columns `(left, right)` of one type: mostly a TPC-H foreign key
    /// or a pair of NULL-bearing columns when the sides have one, else any
    /// same-typed pair.
    fn keys(&mut self, left: &[Col], right: &[Col]) -> Option<(Col, Col)> {
        let (mut typed, mut related) = (Vec::new(), Vec::new());
        let graph = join_graph();
        for l in left {
            for r in right.iter().filter(|r| r.dtype == l.dtype) {
                let names = (l.name.as_str(), r.name.as_str());
                let fk = (graph.iter())
                    .any(|e| [(e.from_col, e.to_col), (e.to_col, e.from_col)].contains(&names));
                if fk || (l.qualifier.starts_with('x') && r.qualifier.starts_with('x')) {
                    related.push((l.clone(), r.clone()));
                }
                typed.push((l.clone(), r.clone()));
            }
        }
        let pool = if related.is_empty() || self.one_in(4) {
            typed
        } else {
            related
        };
        (!pool.is_empty()).then(|| pool[self.below(pool.len())].clone())
    }

    /// A join of two subtrees with no column name in common, of a drawn
    /// kind, overflow method and budget; the left subtree alone when no
    /// such pair turns up.
    fn join(&mut self, depth: u32) -> Sub {
        let (left, lcols) = self.node(depth - 1);
        for _ in 0..4 {
            let (right, rcols) = self.node(depth - 1);
            if rcols.iter().any(|r| lcols.iter().any(|l| l.name == r.name)) {
                continue;
            }
            let Some((lk, rk)) = self.keys(&lcols, &rcols) else {
                continue;
            };
            let (lk, rk) = (self.pattern(&lk), self.pattern(&rk));
            let mut join = match self.pick(JoinKind::KEYWORDS).1 {
                JoinKind::DoublePipelined => {
                    let method = self.pick(OverflowMethod::KEYWORDS).1;
                    self.b.dpj(left, right, &lk, &rk, method)
                }
                kind => self.b.join(kind, left, right, &lk, &rk),
            };
            if !self.one_in(3) {
                join = join.with_memory(self.pick(&BUDGETS));
            }
            return (join, [lcols, rcols].concat());
        }
        (left, lcols)
    }

    /// A union of two or three inputs with the first input's column types,
    /// each later input projected onto columns of those types in order.
    fn union(&mut self, depth: u32) -> Sub {
        let (first, cols) = self.node(depth - 1);
        let mut inputs = vec![first];
        for _ in 0..1 + self.below(2) {
            let (input, mut pool) = self.node(depth - 1);
            let chosen: Vec<Col> = (cols.iter())
                .map_while(|c| Some(pool.remove(pool.iter().position(|p| p.dtype == c.dtype)?)))
                .collect();
            if chosen.len() == cols.len() {
                inputs.push(self.project_onto(input, chosen).0);
            }
        }
        match inputs.len() {
            1 => (inputs.remove(0), cols),
            _ => (self.b.union(inputs), cols),
        }
    }

    /// One to three fragments; each later one may scan the earlier ones'
    /// materializations, and the last is the output.
    fn plan(mut self) -> QueryPlan {
        let fragments = [1, 1, 1, 2, 2, 3][self.below(6)];
        for i in 0..fragments {
            self.scanned.clear();
            let depth = 1 + self.below(3) as u32;
            let (root, cols) = self.node(depth);
            let name = match i + 1 == fragments {
                true => "result".to_string(),
                false => format!("mat_{i}"),
            };
            let id = self.b.fragment(root, &name);
            let mut before = std::mem::take(&mut self.scanned);
            before.sort_unstable();
            before.dedup();
            for j in before {
                self.b.depends(self.mats[j].2, id);
            }
            self.mats.push((name, cols, id));
        }
        let output = self.mats.last().expect("at least one fragment").2;
        self.b.build(output)
    }
}

// ---- the reference -----------------------------------------------------------

/// Why the reference has no answer.
enum NoAnswer {
    /// A join or union exceeds [`MAX_ROWS`]: redraw.
    TooBig,
    /// The plan cannot run (an unknown column, say).
    Invalid(String),
}

type Rows = (Schema, Vec<Tuple>);

/// The row interpreter: evaluates a plan's output fragment, and each
/// fragment it scans on the way.
struct Reference<'a> {
    plan: &'a QueryPlan,
    world: &'a World,
    mats: HashMap<String, Rows>,
}

impl Reference<'_> {
    fn answer(plan: &QueryPlan, world: &World) -> Result<Vec<Tuple>, NoAnswer> {
        let mut r = Reference {
            plan,
            world,
            mats: HashMap::new(),
        };
        let output = plan
            .fragment(plan.output)
            .expect("a drawn plan has an output");
        Ok(r.eval(&output.root)?.1)
    }

    fn table(&mut self, name: &str) -> Result<Rows, NoAnswer> {
        if let Some(rows) = (self.world.rows.get(name)).or_else(|| self.mats.get(name)) {
            return Ok(rows.clone());
        }
        let frag = (self.plan.fragments.iter())
            .find(|f| f.materialize_as == name)
            .ok_or_else(|| NoAnswer::Invalid(format!("no table {name}")))?;
        let rows = self.eval(&frag.root)?;
        self.mats.insert(name.to_string(), rows.clone());
        Ok(rows)
    }

    /// Bag union of `parts`, under the first part's schema.
    fn union(parts: Vec<Rows>) -> Result<Rows, NoAnswer> {
        let mut parts = parts.into_iter();
        let (schema, mut rows) = parts.next().ok_or(NoAnswer::Invalid("no inputs".into()))?;
        rows.extend(parts.flat_map(|(_, r)| r));
        match rows.len() > MAX_ROWS {
            true => Err(NoAnswer::TooBig),
            false => Ok((schema, rows)),
        }
    }

    fn eval(&mut self, node: &OperatorNode) -> Result<Rows, NoAnswer> {
        let invalid = |e: TukwilaError| NoAnswer::Invalid(e.to_string());
        Ok(match &node.spec {
            OperatorSpec::TableScan { table } => self.table(table)?,
            OperatorSpec::WrapperScan { source, .. } => self.table(source)?,
            OperatorSpec::Exchange { input, .. } => self.eval(input)?,
            OperatorSpec::Collector { children, .. } => {
                let mut parts = Vec::new();
                for c in children {
                    let (schema, rows) = self.table(&c.source)?;
                    parts.push((schema, if c.initially_active { rows } else { Vec::new() }));
                }
                Self::union(parts)?
            }
            OperatorSpec::Union { inputs } => {
                let parts = inputs
                    .iter()
                    .map(|i| self.eval(i))
                    .collect::<Result<_, _>>()?;
                Self::union(parts)?
            }
            OperatorSpec::Select { input, predicate } => {
                let (schema, rows) = self.eval(input)?;
                let p = predicate.compile(&schema).map_err(invalid)?;
                (schema, rows.into_iter().filter(|t| p.matches(t)).collect())
            }
            OperatorSpec::Project { input, columns } => {
                let (schema, rows) = self.eval(input)?;
                let idx = (columns.iter().map(|c| schema.index_of(c)))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(invalid)?;
                (
                    schema.project(&idx),
                    rows.iter().map(|t| t.project(&idx)).collect(),
                )
            }
            OperatorSpec::Join {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                let ((ls, l), (rs, r)) = (self.eval(left)?, self.eval(right)?);
                let li = ls.index_of(left_key).map_err(invalid)?;
                let ri = rs.index_of(right_key).map_err(invalid)?;
                let mut per_key: HashMap<&Value, usize> = HashMap::new();
                for t in &r {
                    *per_key.entry(t.value(ri)).or_insert(0) += 1;
                }
                let size: usize = (l.iter().filter(|t| !t.value(li).is_null()))
                    .filter_map(|t| per_key.get(t.value(li)))
                    .sum();
                if size > MAX_ROWS {
                    return Err(NoAnswer::TooBig);
                }
                (ls.concat(&rs), join_rows(&l, &r, li, ri))
            }
        })
    }
}

// ---- the property ------------------------------------------------------------

/// A drawn case: its plan, the knobs it runs under, the reference answer.
struct Case {
    seed: u32,
    plan: QueryPlan,
    knobs: Knobs,
    answer: Result<Vec<Tuple>, String>,
}

/// Draw case `seed`, redrawing from the same generator until the
/// reference answer is small enough.
fn draw(seed: u32) -> Case {
    let world = world();
    let mut gen = Gen::for_case(seed);
    loop {
        let knobs = Knobs {
            batch_size: [1, 3, 16, 64, 256, 1024][(gen.next_u64() % 6) as usize],
            threads: [1, 2, 4][(gen.next_u64() % 3) as usize],
        };
        let plan = Draw {
            gen: &mut gen,
            b: PlanBuilder::new(),
            world,
            mats: Vec::new(),
            scanned: Vec::new(),
        }
        .plan();
        let answer = match Reference::answer(&plan, world) {
            Err(NoAnswer::TooBig) => continue,
            Err(NoAnswer::Invalid(e)) => Err(e),
            Ok(rows) => Ok(rows),
        };
        return Case {
            seed,
            plan,
            knobs,
            answer,
        };
    }
}

/// How a case ended, when it did not fail.
enum Outcome {
    /// The analyzer passed the plan and the run answered the reference's
    /// answer, spilling this many tuples.
    Answered { spilled: usize },
    /// The analyzer passed the plan and the run failed with this typed
    /// runtime error.
    Typed(&'static str),
    /// The analyzer rejected the plan with these codes; `runs` when the
    /// run answered the reference's answer all the same.
    Rejected {
        codes: Vec<&'static str>,
        runs: bool,
    },
}

/// Run `case` under a watchdog: the result, and the bytes still charged to
/// the query's memory governor when it ended.
fn execute(case: &Case) -> Result<(tukwila::common::Result<QueryResult>, usize), String> {
    let world = world();
    let env = ExecEnv::new(world.registry.clone())
        .with_batch_size(case.knobs.batch_size)
        .with_threads(case.knobs.threads)
        .with_trace_level(TraceLevel::Off);
    for (name, rel) in &world.tables {
        env.local.put(name.as_str(), rel.clone());
    }
    let (memory, plan) = (env.memory.clone(), case.plan.clone());
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(format!("oracle-{}", case.seed))
        .spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(|| execute_plan(&plan, env)));
            let _ = tx.send(out);
        })
        .map_err(|e| format!("cannot start the run: {e}"))?;
    match rx.recv_timeout(WATCHDOG) {
        Ok(Ok(result)) => Ok((result, memory.total_used())),
        Ok(Err(panic)) => Err(format!(
            "the run panicked: {}",
            (panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
        Err(_) => Err(format!("the run did not end within {WATCHDOG:?}")),
    }
}

/// The property for one case: `Err` describes a failure.
fn check(case: &Case) -> Result<Outcome, String> {
    let report = Analyzer::new()
        .with_catalog(&world().catalog)
        .analyze(&case.plan);
    let codes: Vec<&'static str> = (report.diagnostics.iter())
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect();
    let run = execute(case);
    if !codes.is_empty() {
        let runs = match (&run, &case.answer) {
            (Ok((Ok(result), _)), Ok(answer)) => {
                multiset(result.relation.to_rows()) == multiset(answer)
            }
            _ => false,
        };
        return Ok(Outcome::Rejected { codes, runs });
    }
    let answer = (case.answer.as_ref())
        .map_err(|e| format!("the analyzer passed a plan the reference cannot run: {e}"))?;
    let (result, charged) = run?;
    if charged != 0 {
        return Err(format!("{charged} bytes still charged after the run"));
    }
    match result {
        Ok(result) => {
            let got = result.relation.to_rows();
            if multiset(&got) != multiset(answer) {
                let (got, want) = (got.len(), answer.len());
                return Err(format!("answered {got} rows, the reference {want}"));
            }
            Ok(Outcome::Answered {
                spilled: result.stats.spill_tuples_written,
            })
        }
        Err(e) => match TYPED_RUNTIME_ERRORS.iter().find(|k| **k == e.kind()) {
            Some(kind) => Ok(Outcome::Typed(kind)),
            None => Err(format!("the run failed: [{}] {e}", e.kind())),
        },
    }
}

/// A failure as the suite prints it: seed, knobs, plan text, how to rerun.
fn failure(case: &Case, why: &str) -> String {
    let (seed, knobs, text) = (case.seed, case.knobs, print_plan(&case.plan));
    format!(
        "seed {seed} ({knobs:?}): {why}\n{text}\nrerun: add {seed} to PINNED in \
         tests/oracle.rs, then `cargo test --test oracle pinned_seeds`"
    )
}

/// The shapes a case reached, named as in [`REQUIRED`]: the labels of its
/// operators (a join's with its flush policy and whether it has a
/// budget), NULL-bearing key columns, and the knobs.
fn shapes(case: &Case) -> Vec<String> {
    let mats: Vec<&str> = (case.plan.fragments.iter())
        .map(|f| f.materialize_as.as_str())
        .collect();
    let mut out = Vec::new();
    for f in &case.plan.fragments {
        f.root.walk(&mut |n| match &n.spec {
            OperatorSpec::TableScan { table } if mats.contains(&table.as_str()) => {
                out.push("materialization scan".into())
            }
            OperatorSpec::TableScan { .. } => out.push("table scan".into()),
            OperatorSpec::WrapperScan {
                timeout_ms,
                prefetch,
                ..
            } => {
                out.extend(timeout_ms.map(|_| "wrapper timeout".into()));
                out.extend(prefetch.map(|_| "wrapper prefetch".into()));
            }
            OperatorSpec::Join {
                left_key,
                right_key,
                kind,
                overflow,
                ..
            } => {
                let policy = match kind {
                    JoinKind::DoublePipelined => format!("{overflow:?}"),
                    other => format!("{other:?}"),
                };
                if n.memory_budget.is_some() {
                    out.push(format!("budgeted {policy}"));
                }
                for key in [left_key, right_key] {
                    let name = key.rsplit('.').next().unwrap_or(key);
                    if let Some(t) = name.strip_prefix("a_").or_else(|| name.strip_prefix("b_")) {
                        out.push(format!("nullable key {t}"));
                    }
                }
            }
            OperatorSpec::Exchange { input, partitions } => {
                if *partitions > 1 && matches!(input.spec, OperatorSpec::Join { .. }) {
                    out.push("exchange".into());
                }
            }
            _ => out.push(n.label().split('(').next().unwrap_or_default().to_string()),
        });
    }
    if case.knobs.batch_size == 1 {
        out.push("batch 1".into());
    }
    if case.knobs.threads > 1 && case.plan.fragments.len() > 1 {
        out.push("parallel fragments".into());
    }
    out
}

/// What the suite's cases must between them have answered — every flush
/// policy through an overflow, NULL keys of every column type, every
/// operator and scan form, batch size 1 and parallel fragments — or, for
/// `out_of_memory`, failed with.
const REQUIRED: &[&str] = &[
    "spilled HybridHash",
    "spilled GraceHash",
    "spilled IncrementalLeftFlush",
    "spilled IncrementalSymmetricFlush",
    "spilled FlushAllLeft",
    "out_of_memory",
    "nullable key k",
    "nullable key s",
    "nullable key d",
    "nullable key t",
    "table scan",
    "materialization scan",
    "wrapper timeout",
    "wrapper prefetch",
    "collector",
    "select",
    "project",
    "union",
    "exchange",
    "batch 1",
    "parallel fragments",
];

/// Seeds `0..CASES`: every case answers as the reference does or fails
/// typed, and together they reach every shape in [`REQUIRED`].
#[test]
fn generated_plans_answer_as_the_reference() {
    let mut failures = Vec::new();
    let mut seen = HashSet::new();
    let mut over_strict: HashMap<Vec<&str>, Vec<u32>> = HashMap::new();
    let mut rejected = 0;
    for seed in 0..CASES {
        let case = draw(seed);
        match check(&case) {
            Ok(Outcome::Answered { spilled }) => {
                let shapes = shapes(&case);
                for s in shapes.iter().filter_map(|s| s.strip_prefix("budgeted ")) {
                    if spilled > 0 {
                        seen.insert(format!("spilled {s}"));
                    }
                }
                seen.extend(shapes);
            }
            Ok(Outcome::Typed(kind)) => {
                seen.insert(kind.to_string());
            }
            Ok(Outcome::Rejected { codes, runs }) => {
                rejected += 1;
                if runs {
                    over_strict.entry(codes).or_default().push(seed);
                }
            }
            Err(why) => failures.push(failure(&case, &why)),
        }
    }
    println!("{rejected} of {CASES} drawn plans rejected by the analyzer");
    for (codes, seeds) in &over_strict {
        println!("over-strict {codes:?}: seeds {seeds:?}");
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
    let missing: Vec<&&str> = REQUIRED.iter().filter(|r| !seen.contains(**r)).collect();
    assert!(missing.is_empty(), "no case reached {missing:?}");
}

/// The seeds in [`PINNED`], alone.
#[test]
fn pinned_seeds() {
    for &seed in PINNED {
        let case = draw(seed);
        if let Err(why) = check(&case) {
            panic!("{}", failure(&case, &why));
        }
    }
}
