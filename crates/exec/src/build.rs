//! Instantiate operator trees from plan nodes.

use std::sync::Arc;

use tukwila_common::Result;
use tukwila_plan::{JoinKind, OperatorNode, OperatorSpec, SubjectRef};

use crate::operator::OperatorBox;
use crate::operators::{
    Collector, Exchange, Filter, HashJoin, Project, TableScan, UnionAll, WrapperScan,
};
use crate::runtime::{OpHarness, PlanRuntime};

/// The one `JoinKind → operator` mapping: a plan join built in place, an
/// in-process partition's instance and a worker's shard root all come
/// through here. Every kind is the one hash join, differing in schedule
/// and flush policy. `descendants` are the subjects below the join that a
/// double pipelined join deactivates on early close.
pub fn build_join(
    kind: JoinKind,
    left: OperatorBox,
    right: OperatorBox,
    left_key: String,
    right_key: String,
    harness: OpHarness,
    descendants: Vec<SubjectRef>,
) -> OperatorBox {
    Box::new(
        HashJoin::new(kind, left, right, left_key, right_key, harness)
            .with_descendants(descendants),
    )
}

/// Every subject below a join's two inputs.
pub(crate) fn join_descendants(left: &OperatorNode, right: &OperatorNode) -> Vec<SubjectRef> {
    (left.all_ids().into_iter())
        .chain(right.all_ids())
        .map(SubjectRef::Op)
        .collect()
}

/// Build the executable operator for a plan node (recursively building its
/// children). The operator is not yet opened.
pub fn build_operator(node: &OperatorNode, rt: &Arc<PlanRuntime>) -> Result<OperatorBox> {
    let harness = OpHarness::new(rt.clone(), SubjectRef::Op(node.id));
    Ok(match &node.spec {
        OperatorSpec::TableScan { table } => Box::new(TableScan::new(table.clone(), harness)),
        OperatorSpec::WrapperScan {
            source,
            timeout_ms,
            prefetch,
        } => Box::new(WrapperScan::new(
            source.clone(),
            *timeout_ms,
            *prefetch,
            harness,
        )),
        OperatorSpec::Select { input, predicate } => Box::new(Filter::new(
            build_operator(input, rt)?,
            predicate.clone(),
            harness,
        )),
        OperatorSpec::Project { input, columns } => Box::new(Project::new(
            build_operator(input, rt)?,
            columns.clone(),
            harness,
        )),
        OperatorSpec::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            overflow: _,
        } => build_join(
            *kind,
            build_operator(left, rt)?,
            build_operator(right, rt)?,
            left_key.clone(),
            right_key.clone(),
            harness,
            join_descendants(left, right),
        ),
        OperatorSpec::Union { inputs } => {
            let children = inputs
                .iter()
                .map(|i| build_operator(i, rt))
                .collect::<Result<Vec<_>>>()?;
            Box::new(UnionAll::new(children, harness))
        }
        OperatorSpec::Collector {
            children,
            quota,
            child_timeout_ms,
        } => Box::new(Collector::new(
            children.clone(),
            *quota,
            *child_timeout_ms,
            harness,
        )),
        // The installed transport says whether it runs this exchange as
        // separate pipelines (in process: at a degree above one; a worker
        // cluster: always). A non-join input, or a join the transport does
        // not split, is a transparent passthrough — the wrapper node stays
        // registered but idle.
        OperatorSpec::Exchange { input, partitions } => match &input.spec {
            OperatorSpec::Join { .. } if rt.env().transport.splits(*partitions) => {
                let join_harness = OpHarness::new(rt.clone(), SubjectRef::Op(input.id));
                Box::new(Exchange::new(
                    (**input).clone(),
                    *partitions,
                    harness,
                    join_harness,
                ))
            }
            _ => build_operator(input, rt)?,
        },
    })
}
