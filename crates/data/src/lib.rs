//! # tcam-data
//!
//! Data substrate for the TCAM reproduction: typed identifiers, the
//! sparse **rating cuboid** `C[u, t, v]` (Definition 3 of the paper),
//! time discretization, dataset statistics, the **item-weighting scheme**
//! of Section 3.3, train/test splitting with 5-fold cross validation as
//! used in Section 5.3.1, and synthetic social-media dataset generators
//! that stand in for the paper's Digg / MovieLens / Douban / Delicious
//! crawls (see `DESIGN.md` §3–4 for the substitution rationale).

// Lint policy: `!(x > 0.0)` is used deliberately throughout to treat
// NaN as invalid (a plain `x <= 0.0` would accept NaN); indexed loops in
// the EM/Gibbs kernels address several parallel arrays at once, where
// iterator zips hurt readability more than they help.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod context;
pub mod cuboid;
pub mod ids;
pub mod io;
pub mod split;
pub mod stats;
pub mod synth;
pub mod time;
pub mod weighting;

pub use context::TimeItemIndex;
pub use cuboid::{Rating, RatingCuboid};
pub use ids::{ItemId, TimeId, UserId};
pub use split::{train_test_split, CrossValidation, Split};
pub use stats::DatasetStats;
pub use synth::{SynthConfig, SynthDataset};
pub use time::TimeDiscretizer;
pub use weighting::{ItemWeighting, WeightingScheme};

/// Errors produced while constructing or manipulating datasets.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// An id was out of the declared range.
    IdOutOfRange {
        /// Which dimension ("user", "time", "item").
        kind: &'static str,
        /// The offending index.
        index: usize,
        /// The declared bound.
        bound: usize,
    },
    /// A rating value was invalid (negative, NaN, or infinite).
    InvalidRating {
        /// The offending value.
        value: f64,
    },
    /// A configuration value was out of range.
    InvalidConfig {
        /// Which field failed.
        field: &'static str,
        /// Description of the constraint violated.
        reason: &'static str,
    },
    /// Serialization or I/O failure.
    Io(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::IdOutOfRange { kind, index, bound } => {
                write!(f, "{kind} index {index} out of range (bound {bound})")
            }
            DataError::InvalidRating { value } => write!(f, "invalid rating value {value}"),
            DataError::InvalidConfig { field, reason } => {
                write!(f, "invalid config `{field}`: {reason}")
            }
            DataError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e.to_string())
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, DataError>;
