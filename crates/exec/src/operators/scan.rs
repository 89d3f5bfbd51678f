//! Table scan over the local store (materialized fragment results, cached
//! data).

use std::sync::Arc;

use tukwila_common::{Relation, Result, Schema, TukwilaError, TupleBatch};

use crate::operator::Operator;
use crate::runtime::OpHarness;

/// Scans a named table in the local store.
pub struct TableScan {
    table: String,
    harness: OpHarness,
    relation: Option<Arc<Relation>>,
    schema: Schema,
    pos: usize,
}

impl TableScan {
    /// Build a scan of `table`.
    pub fn new(table: String, harness: OpHarness) -> Self {
        TableScan {
            table,
            harness,
            relation: None,
            schema: Schema::empty(),
            pos: 0,
        }
    }
}

impl Operator for TableScan {
    fn open(&mut self) -> Result<()> {
        let rel = self.harness.runtime().env().local.get(&self.table)?;
        self.schema = rel.schema().clone();
        self.relation = Some(rel);
        self.pos = 0;
        self.harness.opened();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        let rel = self
            .relation
            .as_ref()
            .ok_or_else(|| TukwilaError::Internal("TableScan::next_batch before open".into()))?;
        if !self.harness.is_active() {
            return Ok(None);
        }
        if self.pos >= rel.len() {
            return Ok(None);
        }
        let end = (self.pos + self.harness.batch_size()).min(rel.len());
        let batch = TupleBatch::from_columns(rel.columnar().slice(self.pos, end));
        self.pos = end;
        self.harness.produced(batch.len() as u64);
        Ok(Some(batch))
    }

    fn close(&mut self) -> Result<()> {
        if self.relation.take().is_some() {
            self.harness.closed();
        }
        Ok(())
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn name(&self) -> &'static str {
        "table_scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::drain;
    use crate::runtime::{ExecEnv, PlanRuntime};
    use tukwila_common::{tuple, DataType};
    use tukwila_plan::{PlanBuilder, SubjectRef};
    use tukwila_source::SourceRegistry;

    fn setup_bs(rows: i64, batch_size: usize) -> (OpHarness, tukwila_plan::OpId) {
        let mut b = PlanBuilder::new();
        let scan = b.table_scan("t");
        let id = scan.id;
        let f = b.fragment(scan, "out");
        let plan = b.build(f);
        let env = ExecEnv::new(SourceRegistry::new()).with_batch_size(batch_size);
        let schema = Schema::of("t", &[("a", DataType::Int)]);
        let mut rel = Vec::new();
        for i in 0..rows {
            rel.push(tuple![i]);
        }
        env.local.put("t", Relation::new(schema, rel).unwrap());
        let rt = PlanRuntime::for_plan(&plan, env);
        (OpHarness::new(rt, SubjectRef::Op(id)), id)
    }

    fn setup(rows: i64) -> (OpHarness, tukwila_plan::OpId) {
        setup_bs(rows, tukwila_common::DEFAULT_BATCH_CAPACITY)
    }

    #[test]
    fn scans_all_rows() {
        let (h, id) = setup(5);
        let rt = h.runtime().clone();
        let mut op = TableScan::new("t".into(), h);
        let out = drain(&mut op).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(rt.produced(SubjectRef::Op(id)), 5);
    }

    #[test]
    fn emits_batches_of_configured_size() {
        let (h, _) = setup_bs(25, 10);
        let mut op = TableScan::new("t".into(), h);
        let batches = crate::operator::drain_batches(&mut op).unwrap();
        let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![10, 10, 5]);
    }

    #[test]
    fn missing_table_errors_at_open() {
        let (h, _) = setup(1);
        let mut op = TableScan::new("nope".into(), h);
        assert!(op.open().is_err());
    }

    #[test]
    fn deactivated_scan_stops() {
        let (h, id) = setup_bs(100, 10);
        let rt = h.runtime().clone();
        let mut op = TableScan::new("t".into(), h);
        op.open().unwrap();
        assert_eq!(op.next_batch().unwrap().map(|b| b.len()), Some(10));
        rt.deactivate(SubjectRef::Op(id));
        assert!(op.next_batch().unwrap().is_none());
    }
}
