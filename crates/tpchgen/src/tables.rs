//! The eight TPC-D/H tables and their generators.
//!
//! Keys follow TPC conventions: 1-based dense primary keys; `partsupp` links
//! each part to four suppliers spread across the supplier table; `lineitem`
//! has 1–7 lines per order with independent part/supplier FKs. One third of
//! customers place no orders (TPC-D's "positive ratio" rule), which gives
//! the customer⋈orders join a selectivity below 1 — useful for the
//! misestimation experiments (§6.4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tukwila_common::{ColumnBuilder, ColumnarBatch, DataType, Relation, Schema, Value};

use crate::text;

/// The eight tables of the TPC-D schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TpchTable {
    /// 5 rows, fixed.
    Region,
    /// 25 rows, fixed.
    Nation,
    /// SF × 10 000.
    Supplier,
    /// SF × 150 000.
    Customer,
    /// SF × 200 000.
    Part,
    /// SF × 800 000 (4 suppliers per part).
    Partsupp,
    /// SF × 1 500 000.
    Orders,
    /// ≈ SF × 6 000 000 (1–7 lines per order).
    Lineitem,
}

impl TpchTable {
    /// All tables, in FK-dependency order (parents first).
    pub const ALL: [TpchTable; 8] = [
        TpchTable::Region,
        TpchTable::Nation,
        TpchTable::Supplier,
        TpchTable::Customer,
        TpchTable::Part,
        TpchTable::Partsupp,
        TpchTable::Orders,
        TpchTable::Lineitem,
    ];

    /// Canonical lowercase name (matches the paper's usage: `lineitem`,
    /// `partsupp`, `order`…).
    pub fn name(&self) -> &'static str {
        match self {
            TpchTable::Region => "region",
            TpchTable::Nation => "nation",
            TpchTable::Supplier => "supplier",
            TpchTable::Customer => "customer",
            TpchTable::Part => "part",
            TpchTable::Partsupp => "partsupp",
            TpchTable::Orders => "orders",
            TpchTable::Lineitem => "lineitem",
        }
    }

    /// Look a table up by name.
    pub fn from_name(name: &str) -> Option<TpchTable> {
        TpchTable::ALL.iter().copied().find(|t| t.name() == name)
    }

    /// Base cardinality at SF 1.0 (lineitem is approximate: 4 lines per
    /// order on average).
    pub fn base_cardinality(&self) -> usize {
        match self {
            TpchTable::Region => text::REGION_COUNT,
            TpchTable::Nation => text::NATION_COUNT,
            TpchTable::Supplier => 10_000,
            TpchTable::Customer => 150_000,
            TpchTable::Part => 200_000,
            TpchTable::Partsupp => 800_000,
            TpchTable::Orders => 1_500_000,
            TpchTable::Lineitem => 6_000_000,
        }
    }

    /// Scaled cardinality: fixed tables ignore SF; others scale linearly
    /// with a floor of 1.
    pub fn cardinality(&self, scale: f64) -> usize {
        match self {
            TpchTable::Region | TpchTable::Nation => self.base_cardinality(),
            TpchTable::Lineitem => {
                // derived from orders; reported approximately
                (TpchTable::Orders.cardinality(scale) * 4).max(1)
            }
            _ => ((self.base_cardinality() as f64 * scale).round() as usize).max(1),
        }
    }
}

/// Schema of a table. Column subset chosen to keep tuples representative
/// (~60–140 bytes) while carrying every key used by the paper's joins.
pub fn table_schema(table: TpchTable) -> Schema {
    use DataType::*;
    match table {
        TpchTable::Region => Schema::of(
            "region",
            &[("r_regionkey", Int), ("r_name", Str), ("r_comment", Str)],
        ),
        TpchTable::Nation => Schema::of(
            "nation",
            &[
                ("n_nationkey", Int),
                ("n_name", Str),
                ("n_regionkey", Int),
                ("n_comment", Str),
            ],
        ),
        TpchTable::Supplier => Schema::of(
            "supplier",
            &[
                ("s_suppkey", Int),
                ("s_name", Str),
                ("s_nationkey", Int),
                ("s_acctbal", Double),
                ("s_comment", Str),
            ],
        ),
        TpchTable::Customer => Schema::of(
            "customer",
            &[
                ("c_custkey", Int),
                ("c_name", Str),
                ("c_nationkey", Int),
                ("c_acctbal", Double),
                ("c_mktsegment", Str),
            ],
        ),
        TpchTable::Part => Schema::of(
            "part",
            &[
                ("p_partkey", Int),
                ("p_name", Str),
                ("p_brand", Str),
                ("p_size", Int),
                ("p_retailprice", Double),
            ],
        ),
        TpchTable::Partsupp => Schema::of(
            "partsupp",
            &[
                ("ps_partkey", Int),
                ("ps_suppkey", Int),
                ("ps_availqty", Int),
                ("ps_supplycost", Double),
            ],
        ),
        TpchTable::Orders => Schema::of(
            "orders",
            &[
                ("o_orderkey", Int),
                ("o_custkey", Int),
                ("o_orderstatus", Str),
                ("o_totalprice", Double),
                ("o_orderdate", Date),
            ],
        ),
        TpchTable::Lineitem => Schema::of(
            "lineitem",
            &[
                ("l_orderkey", Int),
                ("l_partkey", Int),
                ("l_suppkey", Int),
                ("l_linenumber", Int),
                ("l_quantity", Int),
                ("l_extendedprice", Double),
                ("l_shipdate", Date),
            ],
        ),
    }
}

/// Deterministic generator for one database instance.
///
/// Every table is generated from an RNG seeded by `(seed, table tag)`, so
/// tables can be generated independently (the wrappers in the source
/// simulator generate them lazily) and the same instance is reproduced
/// regardless of generation order.
#[derive(Debug, Clone)]
pub struct TpchGenerator {
    scale: f64,
    seed: u64,
}

/// One table's typed columns, filled a row at a time in generation order.
struct TableBuilder {
    schema: Schema,
    cols: Vec<ColumnBuilder>,
    rows: usize,
}

impl TableBuilder {
    fn new(table: TpchTable) -> Self {
        let schema = table_schema(table);
        let cols = (schema.fields().iter())
            .map(|f| ColumnBuilder::for_type(f.data_type))
            .collect();
        TableBuilder {
            schema,
            cols,
            rows: 0,
        }
    }

    fn row<const N: usize>(&mut self, values: [Value; N]) {
        debug_assert_eq!(N, self.cols.len(), "row arity matches table_schema");
        for (col, v) in self.cols.iter_mut().zip(&values) {
            if let Err(e) = col.push(v) {
                panic!("generated value does not match table_schema: {e}");
            }
        }
        self.rows += 1;
    }

    fn finish(self) -> Relation {
        let cols = self.cols.into_iter().map(ColumnBuilder::finish).collect();
        match Relation::from_columnar(self.schema, ColumnarBatch::new(self.rows, cols)) {
            Ok(rel) => rel,
            Err(e) => panic!("generated columns do not match table_schema: {e}"),
        }
    }
}

impl TpchGenerator {
    /// A generator for scale factor `scale` with RNG seed `seed`.
    pub fn new(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0, "scale factor must be positive");
        TpchGenerator { scale, seed }
    }

    /// Scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    fn rng_for(&self, table: TpchTable) -> StdRng {
        let tag = table as u64;
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (tag << 32) ^ tag)
    }

    /// Generate one table.
    pub fn generate(&self, table: TpchTable) -> Relation {
        match table {
            TpchTable::Region => self.gen_region(),
            TpchTable::Nation => self.gen_nation(),
            TpchTable::Supplier => self.gen_supplier(),
            TpchTable::Customer => self.gen_customer(),
            TpchTable::Part => self.gen_part(),
            TpchTable::Partsupp => self.gen_partsupp(),
            TpchTable::Orders => self.gen_orders(),
            TpchTable::Lineitem => self.gen_lineitem(),
        }
    }

    fn gen_region(&self) -> Relation {
        let mut rng = self.rng_for(TpchTable::Region);
        let mut rel = TableBuilder::new(TpchTable::Region);
        for k in 0..text::REGION_COUNT {
            rel.row([
                Value::Int(k as i64),
                Value::str(text::region_name(k)),
                Value::str(text::sentence(&mut rng, 30)),
            ]);
        }
        rel.finish()
    }

    fn gen_nation(&self) -> Relation {
        let mut rng = self.rng_for(TpchTable::Nation);
        let mut rel = TableBuilder::new(TpchTable::Nation);
        for k in 0..text::NATION_COUNT {
            rel.row([
                Value::Int(k as i64),
                Value::str(text::nation_name(k)),
                Value::Int((k % text::REGION_COUNT) as i64),
                Value::str(text::sentence(&mut rng, 40)),
            ]);
        }
        rel.finish()
    }

    fn gen_supplier(&self) -> Relation {
        let mut rng = self.rng_for(TpchTable::Supplier);
        let n = TpchTable::Supplier.cardinality(self.scale);
        let mut rel = TableBuilder::new(TpchTable::Supplier);
        for k in 1..=n {
            rel.row([
                Value::Int(k as i64),
                Value::str(format!("Supplier#{k:09}")),
                Value::Int(rng.gen_range(0..text::NATION_COUNT) as i64),
                Value::Double((rng.gen_range(-99_999..999_999) as f64) / 100.0),
                Value::str(text::sentence(&mut rng, 35)),
            ]);
        }
        rel.finish()
    }

    fn gen_customer(&self) -> Relation {
        let mut rng = self.rng_for(TpchTable::Customer);
        let n = TpchTable::Customer.cardinality(self.scale);
        let mut rel = TableBuilder::new(TpchTable::Customer);
        for k in 1..=n {
            rel.row([
                Value::Int(k as i64),
                Value::str(format!("Customer#{k:09}")),
                Value::Int(rng.gen_range(0..text::NATION_COUNT) as i64),
                Value::Double((rng.gen_range(-99_999..999_999) as f64) / 100.0),
                Value::str(text::market_segment(&mut rng)),
            ]);
        }
        rel.finish()
    }

    fn gen_part(&self) -> Relation {
        let mut rng = self.rng_for(TpchTable::Part);
        let n = TpchTable::Part.cardinality(self.scale);
        let mut rel = TableBuilder::new(TpchTable::Part);
        for k in 1..=n {
            rel.row([
                Value::Int(k as i64),
                Value::str(text::word(&mut rng, 4)),
                Value::str(text::brand(&mut rng)),
                Value::Int(rng.gen_range(1..=50)),
                Value::Double(900.0 + (k % 1000) as f64 / 10.0),
            ]);
        }
        rel.finish()
    }

    fn gen_partsupp(&self) -> Relation {
        let mut rng = self.rng_for(TpchTable::Partsupp);
        let parts = TpchTable::Part.cardinality(self.scale);
        let suppliers = TpchTable::Supplier.cardinality(self.scale) as i64;
        let mut rel = TableBuilder::new(TpchTable::Partsupp);
        // TPC convention: each part supplied by 4 suppliers, spread across
        // the supplier table so every supplier supplies ~4 × parts/suppliers
        // parts.
        for p in 1..=parts as i64 {
            for i in 0..4i64 {
                let s = (p + i * (suppliers / 4).max(1)) % suppliers + 1;
                rel.row([
                    Value::Int(p),
                    Value::Int(s),
                    Value::Int(rng.gen_range(1..10_000)),
                    Value::Double((rng.gen_range(100..100_000) as f64) / 100.0),
                ]);
            }
        }
        rel.finish()
    }

    fn gen_orders(&self) -> Relation {
        let mut rng = self.rng_for(TpchTable::Orders);
        let n = TpchTable::Orders.cardinality(self.scale);
        let customers = TpchTable::Customer.cardinality(self.scale) as i64;
        // One third of customers never appear (TPC rule): draw custkeys from
        // the first 2/3 of the key space, remapped to even coverage.
        let active_customers = (customers * 2 / 3).max(1);
        let mut rel = TableBuilder::new(TpchTable::Orders);
        for k in 1..=n as i64 {
            let cust = rng.gen_range(0..active_customers) * 3 / 2 + 1;
            rel.row([
                Value::Int(k),
                Value::Int(cust.min(customers)),
                Value::str(if rng.gen_bool(0.5) { "F" } else { "O" }),
                Value::Double((rng.gen_range(1_000..500_000) as f64) / 100.0),
                Value::Date(rng.gen_range(8_400..10_957)), // 1993..1999
            ]);
        }
        rel.finish()
    }

    fn gen_lineitem(&self) -> Relation {
        let mut rng = self.rng_for(TpchTable::Lineitem);
        let orders = TpchTable::Orders.cardinality(self.scale) as i64;
        let parts = TpchTable::Part.cardinality(self.scale) as i64;
        let suppliers = TpchTable::Supplier.cardinality(self.scale) as i64;
        let mut rel = TableBuilder::new(TpchTable::Lineitem);
        for o in 1..=orders {
            let lines = rng.gen_range(1..=7);
            for ln in 1..=lines {
                let part = rng.gen_range(1..=parts);
                // supplier must actually supply the part: reuse the partsupp
                // formula so lineitem ⋈ partsupp on (partkey, suppkey) is
                // non-empty.
                let i = rng.gen_range(0..4i64);
                let supp = (part + i * (suppliers / 4).max(1)) % suppliers + 1;
                let qty = rng.gen_range(1..=50);
                rel.row([
                    Value::Int(o),
                    Value::Int(part),
                    Value::Int(supp),
                    Value::Int(ln),
                    Value::Int(qty),
                    Value::Double(qty as f64 * (900.0 + (part % 1000) as f64 / 10.0)),
                    Value::Date(rng.gen_range(8_400..11_100)),
                ]);
            }
        }
        rel.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> TpchGenerator {
        TpchGenerator::new(0.002, 42)
    }

    #[test]
    fn deterministic_across_instances() {
        let a = small().generate(TpchTable::Supplier);
        let b = TpchGenerator::new(0.002, 42).generate(TpchTable::Supplier);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small().generate(TpchTable::Orders);
        let b = TpchGenerator::new(0.002, 43).generate(TpchTable::Orders);
        assert_ne!(a, b);
    }

    #[test]
    fn fixed_tables_ignore_scale() {
        assert_eq!(TpchTable::Region.cardinality(0.001), 5);
        assert_eq!(TpchTable::Nation.cardinality(100.0), 25);
    }

    #[test]
    fn cardinality_ratios_hold() {
        let sf = 0.01;
        assert_eq!(TpchTable::Supplier.cardinality(sf), 100);
        assert_eq!(TpchTable::Customer.cardinality(sf), 1_500);
        assert_eq!(TpchTable::Part.cardinality(sf), 2_000);
        assert_eq!(TpchTable::Partsupp.cardinality(sf), 8_000);
        assert_eq!(TpchTable::Orders.cardinality(sf), 15_000);
    }

    #[test]
    fn partsupp_has_four_suppliers_per_part() {
        let ps = small().generate(TpchTable::Partsupp);
        let parts = TpchTable::Part.cardinality(0.002);
        assert_eq!(ps.len(), parts * 4);
        // the (partkey, suppkey) pairs are unique
        let mut seen = HashSet::new();
        for t in ps.to_rows() {
            assert!(seen.insert((t.value(0).clone(), t.value(1).clone())));
        }
    }

    #[test]
    fn primary_keys_dense_and_unique() {
        let sup = small().generate(TpchTable::Supplier);
        let keys: HashSet<i64> = sup
            .to_rows()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(keys.len(), sup.len());
        assert_eq!(*keys.iter().min().unwrap(), 1);
        assert_eq!(*keys.iter().max().unwrap(), sup.len() as i64);
    }

    #[test]
    fn foreign_keys_resolve() {
        let g = small();
        let nat = g.generate(TpchTable::Nation);
        let sup = g.generate(TpchTable::Supplier);
        let nkeys: HashSet<i64> = nat
            .to_rows()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        for s in sup.to_rows() {
            assert!(nkeys.contains(&s.value(2).as_int().unwrap()));
        }
    }

    #[test]
    fn orders_skip_a_third_of_customers() {
        let g = TpchGenerator::new(0.01, 7);
        let orders = g.generate(TpchTable::Orders);
        let customers = TpchTable::Customer.cardinality(0.01);
        let with_orders: HashSet<i64> = orders
            .to_rows()
            .iter()
            .map(|t| t.value(1).as_int().unwrap())
            .collect();
        // Roughly two thirds of customers have orders.
        let frac = with_orders.len() as f64 / customers as f64;
        assert!(
            (0.45..0.75).contains(&frac),
            "expected ≈2/3 of customers with orders, got {frac}"
        );
    }

    #[test]
    fn lineitem_suppliers_supply_their_parts() {
        let g = small();
        let li = g.generate(TpchTable::Lineitem);
        let ps = g.generate(TpchTable::Partsupp);
        let pairs: HashSet<(i64, i64)> = ps
            .to_rows()
            .iter()
            .map(|t| (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap()))
            .collect();
        for l in li.to_rows().iter().take(500) {
            let pair = (l.value(1).as_int().unwrap(), l.value(2).as_int().unwrap());
            assert!(pairs.contains(&pair), "lineitem FK pair {pair:?} missing");
        }
    }

    #[test]
    fn lineitem_lines_per_order_in_range() {
        let li = small().generate(TpchTable::Lineitem);
        let mut per_order: std::collections::HashMap<i64, usize> = Default::default();
        for t in li.to_rows() {
            *per_order.entry(t.value(0).as_int().unwrap()).or_default() += 1;
        }
        for (&o, &n) in &per_order {
            assert!((1..=7).contains(&n), "order {o} has {n} lines");
        }
    }

    #[test]
    fn schemas_match_generated_arity() {
        let g = small();
        for t in TpchTable::ALL {
            let rel = g.generate(t);
            assert_eq!(rel.schema(), &table_schema(t), "{}", t.name());
            assert!(!rel.is_empty());
        }
    }

    #[test]
    fn table_name_round_trip() {
        for t in TpchTable::ALL {
            assert_eq!(TpchTable::from_name(t.name()), Some(t));
        }
        assert_eq!(TpchTable::from_name("nope"), None);
    }
}
