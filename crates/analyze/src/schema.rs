//! Pass 3: bottom-up schema/type inference (`TA02x`).
//!
//! Re-derives every operator's output schema the same way the execution
//! engine does at open time — wrapper schemas from the catalog, join
//! output as the concatenation of both sides, fragment materializations in
//! dependency order — and checks, per node:
//!
//! * every column reference resolves, unambiguously (TA020 / TA021) — this
//!   is what `validate_plan` never did, so a `project` referencing a column
//!   dropped by a child `project` used to survive to runtime;
//! * join keys and predicate comparisons are over comparable types
//!   (TA022 / TA023, mirroring `Value::sql_cmp`'s comparability);
//! * union inputs agree on arity and types (TA024 / TA025);
//! * no operator outputs the same qualified column twice (TA026).
//!
//! Where the schema is unknowable (no catalog, unknown materialization) the
//! inference degrades to [`Cols::Opaque`] and checks are suspended until a
//! `project` re-fixes the column set.

use std::collections::BTreeMap;

use tukwila_catalog::Catalog;
use tukwila_common::{DataType, FxHashMap, Value};
use tukwila_plan::diag::{codes, Diagnostic, Span};
use tukwila_plan::{FragmentId, OperatorNode, OperatorSpec, Predicate, QueryPlan};

use crate::typed::{Cols, Resolution, TCol};

/// Inferred output schemas, one per operator id (shared with the exchange
/// pass, which needs join-key nullability).
pub type SchemaMap = FxHashMap<u32, Cols>;

/// Run the pass. Returns the findings plus the per-operator schema map.
pub fn check(plan: &QueryPlan, catalog: Option<&Catalog>) -> (Vec<Diagnostic>, SchemaMap) {
    let mut ctx = Ctx {
        catalog,
        mats: BTreeMap::new(),
        schemas: SchemaMap::default(),
        diags: Vec::new(),
        fragment: FragmentId(0),
    };
    for f in fragment_order(plan) {
        ctx.fragment = f.id;
        let cols = ctx.infer(&f.root);
        ctx.mats.insert(f.materialize_as.clone(), cols);
    }
    (ctx.diags, ctx.schemas)
}

/// Fragments in dependency order (Kahn), so materialization schemas exist
/// before the scans that read them. On a cyclic or dangling dependency
/// graph (reported by the structure pass) the stragglers are appended in
/// plan order.
fn fragment_order(plan: &QueryPlan) -> Vec<&tukwila_plan::Fragment> {
    let mut done: Vec<FragmentId> = Vec::new();
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        for f in &plan.fragments {
            if done.contains(&f.id) {
                continue;
            }
            let ready = plan
                .dependencies
                .iter()
                .filter(|(_, after)| *after == f.id)
                .all(|(before, _)| done.contains(before));
            if ready {
                done.push(f.id);
                out.push(f);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for f in &plan.fragments {
        if !done.contains(&f.id) {
            out.push(f);
        }
    }
    out
}

/// Whether `sql_cmp` can order these two types (NULL/unknown compares with
/// anything — the comparison is just three-valued at runtime).
fn comparable(a: DataType, b: DataType) -> bool {
    use DataType::*;
    matches!(
        (a, b),
        (Int, Int)
            | (Double, Double)
            | (Int, Double)
            | (Double, Int)
            | (Str, Str)
            | (Date, Date)
            | (Null, _)
            | (_, Null)
    )
}

fn literal_type(v: &Value) -> Option<DataType> {
    match v {
        Value::Int(_) => Some(DataType::Int),
        Value::Double(_) => Some(DataType::Double),
        Value::Str(_) => Some(DataType::Str),
        Value::Date(_) => Some(DataType::Date),
        Value::Null => None,
    }
}

struct Ctx<'a> {
    catalog: Option<&'a Catalog>,
    /// Materialization name → producing fragment's inferred schema.
    mats: BTreeMap<String, Cols>,
    schemas: SchemaMap,
    diags: Vec<Diagnostic>,
    fragment: FragmentId,
}

impl Ctx<'_> {
    fn span(&self, node: &OperatorNode) -> Span {
        Span::Op {
            fragment: Some(self.fragment),
            op: node.id,
        }
    }

    fn source_cols(&self, name: &str) -> Cols {
        match self.catalog.and_then(|c| c.source(name).ok()) {
            Some(desc) => Cols::Known(
                desc.schema
                    .fields()
                    .iter()
                    .map(|f| TCol {
                        qualifier: f.qualifier.as_str().into(),
                        name: f.name.as_str().into(),
                        dtype: Some(f.data_type),
                        // catalog-backed sources never emit NULL
                        nullable: false,
                    })
                    .collect(),
            ),
            None => Cols::Opaque,
        }
    }

    /// Resolve a column reference, reporting TA020/TA021. Returns the
    /// resolved column, or None when unknown/ambiguous/opaque.
    fn resolve<'c>(
        &mut self,
        cols: &'c Cols,
        pattern: &str,
        node: &OperatorNode,
        what: &str,
    ) -> Option<&'c TCol> {
        match cols.resolve(pattern) {
            Resolution::Found(i) => match cols {
                Cols::Known(v) => Some(&v[i]),
                Cols::Opaque => None,
            },
            Resolution::Opaque => None,
            Resolution::Unknown => {
                self.diags.push(
                    Diagnostic::new(
                        codes::UNKNOWN_COLUMN,
                        self.span(node),
                        format!("{what} `{pattern}` does not resolve in the input schema"),
                    )
                    .with_note(format!("input columns: {}", cols.describe())),
                );
                None
            }
            Resolution::Ambiguous => {
                self.diags.push(
                    Diagnostic::new(
                        codes::AMBIGUOUS_COLUMN,
                        self.span(node),
                        format!("{what} `{pattern}` matches more than one input column"),
                    )
                    .with_note(format!("input columns: {}", cols.describe())),
                );
                None
            }
        }
    }

    fn check_predicate(&mut self, p: &Predicate, cols: &Cols, node: &OperatorNode) {
        match p {
            Predicate::True => {}
            Predicate::ColLit { col, op: _, value } => {
                let ct = self
                    .resolve(cols, col, node, "predicate column")
                    .and_then(|c| c.dtype);
                if let (Some(ct), Some(lt)) = (ct, literal_type(value)) {
                    if !comparable(ct, lt) {
                        self.diags.push(Diagnostic::new(
                            codes::PREDICATE_TYPE_MISMATCH,
                            self.span(node),
                            format!("predicate compares `{col}` ({ct}) with a {lt} literal"),
                        ));
                    }
                }
            }
            Predicate::ColCol { left, op: _, right } => {
                let lt = self
                    .resolve(cols, left, node, "predicate column")
                    .and_then(|c| c.dtype);
                let rt = self
                    .resolve(cols, right, node, "predicate column")
                    .and_then(|c| c.dtype);
                if let (Some(lt), Some(rt)) = (lt, rt) {
                    if !comparable(lt, rt) {
                        self.diags.push(Diagnostic::new(
                            codes::PREDICATE_TYPE_MISMATCH,
                            self.span(node),
                            format!("predicate compares `{left}` ({lt}) with `{right}` ({rt})"),
                        ));
                    }
                }
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    self.check_predicate(p, cols, node);
                }
            }
            Predicate::Not(inner) => self.check_predicate(inner, cols, node),
        }
    }

    /// Columns a predicate proves non-NULL when it passes: the columns
    /// compared in top-level conjuncts (3VL — a NULL comparand makes the
    /// comparison unknown and the row is dropped).
    fn filtered_columns<'p>(p: &'p Predicate, out: &mut Vec<&'p str>) {
        match p {
            Predicate::ColLit { col, .. } => out.push(col),
            Predicate::ColCol { left, right, .. } => {
                out.push(left);
                out.push(right);
            }
            Predicate::And(ps) => {
                for p in ps {
                    Self::filtered_columns(p, out);
                }
            }
            _ => {}
        }
    }

    /// Warn (TA026) when an operator's output repeats a qualified name.
    fn check_duplicate_output(&mut self, cols: &Cols, node: &OperatorNode) {
        if let Cols::Known(v) = cols {
            let mut seen = std::collections::BTreeSet::new();
            for c in v {
                if !seen.insert((c.qualifier.clone(), c.name.clone())) {
                    self.diags.push(Diagnostic::new(
                        codes::DUPLICATE_OUTPUT_COLUMN,
                        self.span(node),
                        format!("output schema repeats column `{}`", c.qualified_name()),
                    ));
                }
            }
        }
    }

    fn infer(&mut self, node: &OperatorNode) -> Cols {
        let cols = match &node.spec {
            OperatorSpec::TableScan { table } => {
                self.mats.get(table).cloned().unwrap_or(Cols::Opaque)
            }
            OperatorSpec::WrapperScan { source, .. } => self.source_cols(source),
            OperatorSpec::Select { input, predicate } => {
                let input_cols = self.infer(input);
                self.check_predicate(predicate, &input_cols, node);
                // narrow nullability for filtered columns
                match input_cols {
                    kc @ Cols::Known(_) => {
                        let mut filtered = Vec::new();
                        Self::filtered_columns(predicate, &mut filtered);
                        let hits: Vec<usize> = filtered
                            .iter()
                            .filter_map(|pattern| match kc.resolve(pattern) {
                                Resolution::Found(i) => Some(i),
                                _ => None,
                            })
                            .collect();
                        let Cols::Known(mut v) = kc else {
                            unreachable!()
                        };
                        for i in hits {
                            v[i].nullable = false;
                        }
                        Cols::Known(v)
                    }
                    Cols::Opaque => Cols::Opaque,
                }
            }
            OperatorSpec::Project { input, columns } => {
                let input_cols = self.infer(input);
                let mut out = Vec::with_capacity(columns.len());
                for pattern in columns {
                    match input_cols.resolve(pattern) {
                        Resolution::Found(i) => {
                            if let Cols::Known(v) = &input_cols {
                                out.push(v[i].clone());
                            }
                        }
                        // a project over an opaque input still *fixes* the
                        // output column set — downstream resolution checks
                        // resume from here
                        Resolution::Opaque => out.push(TCol::from_pattern(pattern)),
                        Resolution::Unknown | Resolution::Ambiguous => {
                            // report via resolve(), keep the named column so
                            // one bad reference doesn't cascade
                            self.resolve(&input_cols, pattern, node, "projected column");
                            out.push(TCol::from_pattern(pattern));
                        }
                    }
                }
                let cols = Cols::Known(out);
                self.check_duplicate_output(&cols, node);
                cols
            }
            OperatorSpec::Join {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                let l = self.infer(left);
                let r = self.infer(right);
                let lt = self
                    .resolve(&l, left_key, node, "join key")
                    .and_then(|c| c.dtype);
                let rt = self
                    .resolve(&r, right_key, node, "join key")
                    .and_then(|c| c.dtype);
                if let (Some(lt), Some(rt)) = (lt, rt) {
                    if !comparable(lt, rt) {
                        self.diags.push(Diagnostic::new(
                            codes::JOIN_KEY_TYPE_MISMATCH,
                            self.span(node),
                            format!(
                                "join keys `{left_key}` ({lt}) and `{right_key}` ({rt}) \
                                 have incomparable types"
                            ),
                        ));
                    }
                }
                match (l, r) {
                    (Cols::Known(mut lv), Cols::Known(rv)) => {
                        lv.extend(rv);
                        Cols::Known(lv)
                    }
                    _ => Cols::Opaque,
                }
            }
            OperatorSpec::Union { inputs } => {
                let all: Vec<Cols> = inputs.iter().map(|i| self.infer(i)).collect();
                self.check_branch_compat(&all, node, "union input");
                self.merge_branches(&all)
            }
            OperatorSpec::Exchange { input, .. } => self.infer(input),
            OperatorSpec::Collector { children, .. } => {
                let all: Vec<Cols> = children
                    .iter()
                    .map(|c| self.source_cols(&c.source))
                    .collect();
                self.check_branch_compat(&all, node, "collector child");
                self.merge_branches(&all)
            }
        };
        // Opaque entries carry no information for the exchange pass (a
        // missing entry means the same thing) — don't store them.
        if matches!(cols, Cols::Known(_)) {
            self.schemas.insert(node.id.0, cols.clone());
        }
        cols
    }

    /// TA024/TA025 over the branches of a union or collector.
    fn check_branch_compat(&mut self, all: &[Cols], node: &OperatorNode, what: &str) {
        let known: Vec<(usize, &Vec<TCol>)> = all
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c {
                Cols::Known(v) => Some((i, v)),
                Cols::Opaque => None,
            })
            .collect();
        let Some((first_idx, first)) = known.first() else {
            return;
        };
        for (i, v) in known.iter().skip(1) {
            if v.len() != first.len() {
                self.diags.push(Diagnostic::new(
                    codes::UNION_ARITY_MISMATCH,
                    self.span(node),
                    format!(
                        "{what} {i} has {} column(s) but {what} {first_idx} has {}",
                        v.len(),
                        first.len()
                    ),
                ));
                continue;
            }
            for (pos, (a, b)) in first.iter().zip(v.iter()).enumerate() {
                if let (Some(at), Some(bt)) = (a.dtype, b.dtype) {
                    if !comparable(at, bt) {
                        self.diags.push(Diagnostic::new(
                            codes::UNION_TYPE_MISMATCH,
                            self.span(node),
                            format!(
                                "{what}s disagree at column {pos}: `{}` is {at} but `{}` is {bt}",
                                a.qualified_name(),
                                b.qualified_name()
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// Output schema of a union/collector: the first known branch, with a
    /// column nullable when it is nullable in *any* branch.
    fn merge_branches(&self, all: &[Cols]) -> Cols {
        let mut known = all.iter().filter_map(|c| match c {
            Cols::Known(v) => Some(v),
            Cols::Opaque => None,
        });
        let Some(first) = known.next() else {
            return Cols::Opaque;
        };
        if all.iter().any(|c| matches!(c, Cols::Opaque)) {
            return Cols::Opaque;
        }
        let mut out = first.clone();
        for branch in known {
            if branch.len() != out.len() {
                continue; // arity mismatch already reported
            }
            for (c, b) in out.iter_mut().zip(branch.iter()) {
                c.nullable |= b.nullable;
                if c.dtype.is_none() {
                    c.dtype = b.dtype;
                }
            }
        }
        Cols::Known(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_catalog::SourceDesc;
    use tukwila_common::Schema;
    use tukwila_plan::parse_plan_unchecked;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_source(SourceDesc::new(
            "orders",
            "orders",
            Schema::of(
                "orders",
                &[("okey", DataType::Int), ("cust", DataType::Str)],
            ),
        ));
        c.add_source(SourceDesc::new(
            "customer",
            "customer",
            Schema::of(
                "customer",
                &[("ckey", DataType::Int), ("name", DataType::Str)],
            ),
        ));
        c.add_source(SourceDesc::new(
            "customer2",
            "customer",
            Schema::of(
                "customer",
                &[("ckey", DataType::Int), ("name", DataType::Str)],
            ),
        ));
        c
    }

    fn diags_for(text: &str) -> Vec<Diagnostic> {
        let plan = parse_plan_unchecked(text).unwrap();
        let cat = catalog();
        check(&plan, Some(&cat)).0
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_join_has_no_findings() {
        let d = diags_for(
            "(fragment f (join dpj okey = ckey (wrapper orders) (wrapper customer))) (output f)",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unknown_and_ambiguous_columns() {
        let d = diags_for(
            r#"
            (fragment f (select (lit ghost = 1)
                (join dpj okey = ckey (wrapper orders) (wrapper customer))))
            (output f)
            "#,
        );
        assert_eq!(codes_of(&d), vec!["TA020"]);

        // `ckey` is unambiguous, but joining customer with itself makes it
        // ambiguous for downstream references
        let d = diags_for(
            r#"
            (fragment f (project [ckey]
                (join hybrid customer.ckey = customer.ckey
                    (wrapper customer) (wrapper customer2))))
            (output f)
            "#,
        );
        assert!(codes_of(&d).contains(&"TA021"), "{d:?}");
    }

    #[test]
    fn project_dropping_column_then_referencing_it_rejected() {
        // The latent validate_plan gap: inner project drops `okey`, outer
        // project references it. validate_plan accepted this; the schema
        // pass must not.
        let d = diags_for(
            r#"
            (fragment f (project [okey] (project [cust] (wrapper orders))))
            (output f)
            "#,
        );
        assert_eq!(codes_of(&d), vec!["TA020"], "{d:?}");
        // …and the same must hold with no catalog at all: the inner
        // project still fixes the column set over an opaque wrapper.
        let plan = parse_plan_unchecked(
            "(fragment f (project [okey] (project [cust] (wrapper mystery)))) (output f)",
        )
        .unwrap();
        let (d, _) = check(&plan, None);
        assert_eq!(codes_of(&d), vec!["TA020"], "{d:?}");
    }

    #[test]
    fn join_key_and_predicate_type_mismatches() {
        let d = diags_for(
            "(fragment f (join dpj okey = name (wrapper orders) (wrapper customer))) (output f)",
        );
        assert_eq!(codes_of(&d), vec!["TA022"]);

        let d = diags_for(r#"(fragment f (select (lit cust = 42) (wrapper orders))) (output f)"#);
        assert_eq!(codes_of(&d), vec!["TA023"]);

        let d =
            diags_for(r#"(fragment f (select (cols okey = cust) (wrapper orders))) (output f)"#);
        assert_eq!(codes_of(&d), vec!["TA023"]);
    }

    #[test]
    fn union_arity_and_type_mismatches() {
        let d = diags_for(
            r#"
            (fragment f (union (wrapper orders) (project [ckey] (wrapper customer))))
            (output f)
            "#,
        );
        assert_eq!(codes_of(&d), vec!["TA024"]);

        let d = diags_for(
            r#"
            (fragment f (union
                (project [okey, cust] (wrapper orders))
                (project [name, ckey] (wrapper customer))))
            (output f)
            "#,
        );
        assert_eq!(codes_of(&d), vec!["TA025", "TA025"], "{d:?}");
    }

    #[test]
    fn duplicate_projected_column_warned() {
        let d = diags_for("(fragment f (project [okey, okey] (wrapper orders))) (output f)");
        assert_eq!(codes_of(&d), vec!["TA026"]);
    }

    #[test]
    fn materialization_schemas_flow_across_fragments() {
        // f0 projects `cust` away; f1 scans the materialization and
        // references it — must be TA020 even across the fragment boundary.
        let d = diags_for(
            r#"
            (fragment f0 (project [okey] (wrapper orders)))
            (fragment f1 (select (lit cust = "x") (scan mat_f0)))
            (after f0 f1)
            (output f1)
            "#,
        );
        assert_eq!(codes_of(&d), vec!["TA020"], "{d:?}");
    }

    #[test]
    fn select_narrows_nullability() {
        let plan = parse_plan_unchecked(
            "(fragment f (select (lit okey > 0) (project [okey, cust] (wrapper mystery)))) (output f)",
        )
        .unwrap();
        let (_, schemas) = check(&plan, None);
        // the select is the fragment root: its output `okey` is proven
        // non-null, `cust` stays nullable
        let root_id = plan.fragments[0].root.id.0;
        match schemas.get(&root_id).unwrap() {
            Cols::Known(v) => {
                assert!(!v[0].nullable, "{v:?}");
                assert!(v[1].nullable, "{v:?}");
            }
            Cols::Opaque => panic!("expected known schema"),
        }
    }
}
