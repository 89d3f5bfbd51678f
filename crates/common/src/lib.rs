//! # tukwila-common
//!
//! The shared data model for the Tukwila adaptive query execution system:
//! [`Value`]s, [`Tuple`]s, [`Schema`]s, in-memory [`Relation`]s, and the
//! engine-wide [`TukwilaError`] type.
//!
//! Tukwila (Ives et al., SIGMOD 1999) processes relational data arriving
//! from autonomous network-bound sources. Everything above this crate —
//! wrappers, operators, the optimizer — traffics in the types defined here.
//!
//! Design notes (see DESIGN.md §2):
//! * [`TupleBatch`] is the unit of data flow between operators and across
//!   the wrapper boundary: a shared-schema block of tuples held as typed
//!   columns ([`ColumnarBatch`]), amortizing per-tuple dispatch and channel
//!   overhead on every hot path. It is the one form data moves and rests in.
//! * [`Tuple`] is a cheaply cloneable, immutable row (`Arc<[Value]>`): the
//!   reference oracle's and the tests' form, made on request by
//!   [`Relation::to_rows`].
//! * Every value and tuple knows its approximate in-memory size
//!   ([`Value::mem_size`], [`Tuple::mem_size`]) so the memory manager can
//!   enforce the per-operator budgets the paper's overflow experiments
//!   depend on (§4.2.3, Figure 4).

pub mod batch;
pub mod column;
pub mod error;
pub mod hash;
pub mod json;
pub mod key;
pub mod relation;
pub mod schema;
pub mod testing;
pub mod tuple;
pub mod value;

pub use batch::{OutputQueue, TupleBatch, DEFAULT_BATCH_CAPACITY};
pub use column::{Bitmap, Column, ColumnBuilder, ColumnarBatch, Selection, StrColumn};

/// The process-wide default operator batch capacity, read from the
/// `TUKWILA_BATCH` environment variable (minimum 1; unset or invalid means
/// [`DEFAULT_BATCH_CAPACITY`]). The CI matrix runs the tier-1 suite at 1
/// (singleton degradation) and 1024 alongside the default.
pub fn env_batch_size() -> usize {
    std::env::var("TUKWILA_BATCH")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(DEFAULT_BATCH_CAPACITY)
}

/// The process-wide default intra-query parallelism, read from the
/// `TUKWILA_THREADS` environment variable (minimum 1; unset or invalid
/// means sequential execution). Both the execution environment's fragment
/// scheduler budget and the optimizer's default exchange degree start from
/// this, so one knob flips the whole stack — the CI matrix runs the tier-1
/// suite at 1 and 4.
pub fn env_parallelism() -> usize {
    std::env::var("TUKWILA_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}
pub use error::{Result, TukwilaError};
pub use hash::{
    fold_hash, fx_hash, mix, FxBuildHasher, FxHashMap, FxHashSet, FxHasher, PrehashMap,
};
pub use json::JsonValue;
pub use key::KeyVector;
pub use relation::Relation;
pub use schema::{Field, Schema};
pub use tuple::Tuple;
pub use value::{DataType, Value};
