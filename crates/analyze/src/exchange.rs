//! Pass 4: exchange / parallelism discipline (`TA03x`).
//!
//! The partitioned exchange parallelizes joins only, and the engine
//! silently degrades any other input to a passthrough. This pass makes
//! those silent behaviors visible and rejects the one shape the runtime
//! cannot express at all (an exchange nested inside another exchange —
//! partition instances are fragment-local and do not re-partition):
//!
//! * TA030: exchange over an input that is not a join;
//! * TA031: partition count above the configured `max_parallelism`;
//! * TA032: an exchange *directly* wrapping another exchange (Error) —
//!   partition instances cannot re-partition their own output. An exchange
//!   deeper in a partitioned join's input subtree is fine: it runs as its
//!   own operator and feeds whole tuples to the outer partitioner;
//! * TA033: a partitioned join key that may be NULL — hash partitioning
//!   routes NULL keys to a partition where they can never match, so NULL
//!   rows are silently dropped from the join input;
//! * TA034: a single-partition exchange (pure passthrough overhead).

use tukwila_plan::diag::{codes, Diagnostic, Span};
use tukwila_plan::{FragmentId, OperatorNode, OperatorSpec, QueryPlan};

use crate::schema::SchemaMap;
use crate::typed::{Cols, Resolution};

/// Run the pass. `schemas` comes from the schema pass and supplies
/// join-key nullability for TA033.
pub fn check(
    plan: &QueryPlan,
    max_parallelism: Option<usize>,
    schemas: &SchemaMap,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &plan.fragments {
        walk(&f.root, f.id, max_parallelism, schemas, &mut diags);
    }
    diags
}

fn walk(
    node: &OperatorNode,
    fragment: FragmentId,
    max_parallelism: Option<usize>,
    schemas: &SchemaMap,
    diags: &mut Vec<Diagnostic>,
) {
    let span = || Span::Op {
        fragment: Some(fragment),
        op: node.id,
    };
    if let OperatorSpec::Exchange { input, partitions } = &node.spec {
        if matches!(&input.spec, OperatorSpec::Exchange { .. }) {
            diags.push(Diagnostic::new(
                codes::NESTED_EXCHANGE,
                span(),
                "exchange directly wraps another exchange; partition instances \
                 cannot re-partition",
            ));
        }
        if let Some(maxp) = max_parallelism {
            if *partitions > maxp {
                diags.push(Diagnostic::new(
                    codes::EXCHANGE_OVER_PARALLELISM,
                    span(),
                    format!(
                        "{partitions} partitions exceed the configured max parallelism of {maxp}"
                    ),
                ));
            }
        }
        match &input.spec {
            OperatorSpec::Join {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                if *partitions == 1 {
                    diags.push(Diagnostic::new(
                        codes::EXCHANGE_PASSTHROUGH,
                        span(),
                        "single-partition exchange is a passthrough",
                    ));
                }
                for (child, key) in [(left, left_key), (right, right_key)] {
                    if let Some(cols @ Cols::Known(v)) = schemas.get(&child.id.0) {
                        if let Resolution::Found(i) = cols.resolve(key) {
                            if v[i].nullable {
                                diags.push(
                                    Diagnostic::new(
                                        codes::NULLABLE_EXCHANGE_KEY,
                                        span(),
                                        format!(
                                            "partitioned join key `{key}` may be NULL; \
                                             NULL-keyed rows are dropped by hash partitioning"
                                        ),
                                    )
                                    .with_note(
                                        "filter the key non-NULL below the exchange, or \
                                         run the join unpartitioned",
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            _ => {
                diags.push(Diagnostic::new(
                    codes::EXCHANGE_OVER_NON_JOIN,
                    span(),
                    format!(
                        "exchange wraps `{}`, which is not a join; it will run as a passthrough",
                        input.label()
                    ),
                ));
            }
        }
        walk(input, fragment, max_parallelism, schemas, diags);
    } else {
        for c in node.children() {
            walk(c, fragment, max_parallelism, schemas, diags);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;
    use tukwila_plan::parse_plan_unchecked;

    fn run(text: &str, max_parallelism: Option<usize>) -> Vec<&'static str> {
        let plan = parse_plan_unchecked(text).unwrap();
        let (_, schemas) = schema::check(&plan, None);
        check(&plan, max_parallelism, &schemas)
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_exchange_is_clean() {
        let codes = run(
            "(fragment f (exchange 4 (join dpj k = k (wrapper A) (wrapper B)))) (output f)",
            Some(8),
        );
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn non_join_input_warned() {
        let codes = run("(fragment f (exchange 4 (wrapper A))) (output f)", None);
        assert_eq!(codes, vec!["TA030"]);
    }

    #[test]
    fn partition_count_bounded() {
        let codes = run(
            "(fragment f (exchange 16 (join dpj k = k (wrapper A) (wrapper B)))) (output f)",
            Some(4),
        );
        assert_eq!(codes, vec!["TA031"]);
    }

    #[test]
    fn nested_exchange_is_error() {
        let codes = run(
            "(fragment f (exchange 2 (exchange 2 (join dpj k = k (wrapper A) (wrapper B))))) \
             (output f)",
            None,
        );
        // outer exchange wraps a non-join (the inner exchange) → TA030;
        // inner exchange is nested → TA032
        assert!(codes.contains(&"TA032"), "{codes:?}");
    }

    #[test]
    fn single_partition_is_info() {
        let codes = run(
            "(fragment f (exchange 1 (join dpj k = k (wrapper A) (wrapper B)))) (output f)",
            None,
        );
        assert_eq!(codes, vec!["TA034"]);
    }

    #[test]
    fn nullable_key_warned_only_when_provably_nullable() {
        // oracle-less wrapper → opaque schema → no TA033
        let codes = run(
            "(fragment f (exchange 2 (join dpj k = k (wrapper A) (wrapper B)))) (output f)",
            None,
        );
        assert!(codes.is_empty(), "{codes:?}");
        // a project fixes the columns (untyped, nullable) → TA033 on both keys
        let codes = run(
            "(fragment f (exchange 2 (join dpj k = k
                (project [k] (wrapper A))
                (project [k] (wrapper B)))))
             (output f)",
            None,
        );
        assert_eq!(codes, vec!["TA033", "TA033"]);
        // …and a comparison filter under the exchange proves it non-NULL
        let codes = run(
            "(fragment f (exchange 2 (join dpj k = k
                (select (lit k > 0) (project [k] (wrapper A)))
                (select (lit k > 0) (project [k] (wrapper B))))))
             (output f)",
            None,
        );
        assert!(codes.is_empty(), "{codes:?}");
    }
}
