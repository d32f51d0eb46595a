//! # tcam-core
//!
//! The paper's primary contribution: the **Temporal Context-Aware
//! Mixture model (TCAM)** in both of its variants,
//!
//! * [`ItcamModel`] — *Item-based TCAM* (Section 3.2.1): the temporal
//!   context of interval `t` is a multinomial directly over items, and
//! * [`TtcamModel`] — *Topic-based TCAM* (Section 3.2.2): the temporal
//!   context is a multinomial over `K2` time-oriented topics, each of
//!   which is a multinomial over items,
//!
//! fitted by EM (Eqs. 4–11 and 13–16) over a [`tcam_data::RatingCuboid`],
//! with the per-user mixing weight `lambda_u` (Eq. 11) estimated jointly.
//! Training on a cuboid transformed by
//! [`tcam_data::ItemWeighting`] yields the paper's **W-ITCAM** /
//! **W-TTCAM** variants — the weighting is a data transform, not a
//! different model, exactly as in Section 3.3. Both variants are
//! aliases of one fitted type, [`Tcam`]: the interest side they share
//! plus the variant's temporal parameters.
//!
//! The E-step is embarrassingly parallel across ratings; [`FitConfig`]
//! selects a thread count and the engine runs a fixed, data-dependent
//! shard plan on scoped threads (`std::thread::scope`), merging reusable
//! per-shard sufficient statistics with a deterministic pairwise tree —
//! fits are bitwise identical for every `num_threads`.

// Lint policy: `!(x > 0.0)` is used deliberately throughout to treat
// NaN as invalid (a plain `x <= 0.0` would accept NaN); indexed loops in
// the EM/Gibbs kernels address several parallel arrays at once, where
// iterator zips hurt readability more than they help.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod config;
mod em;
pub mod foldin;
pub mod inspect;
pub mod itcam;
pub mod model;
pub mod parallel;
pub mod tcam;
pub mod ttcam;

pub use config::{FitConfig, FitResult, FitTrace};
pub use foldin::{FoldInRating, FoldScratch, FoldedUser};
pub use inspect::{top_items, TopicSummary};
pub use itcam::ItcamModel;
pub use tcam::{Tcam, TemporalParams};
pub use ttcam::TtcamModel;

/// Errors from model fitting and use.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Configuration parameter out of range.
    InvalidConfig {
        /// Which field failed.
        field: &'static str,
        /// Constraint violated.
        reason: &'static str,
    },
    /// The training cuboid is unusable (e.g., empty).
    BadData(&'static str),
    /// Serialization or I/O failure.
    Io(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InvalidConfig { field, reason } => {
                write!(f, "invalid fit config `{field}`: {reason}")
            }
            ModelError::BadData(msg) => write!(f, "bad training data: {msg}"),
            ModelError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e.to_string())
    }
}

/// Why a model's parameters cannot be served: what
/// [`TtcamModel::validate`] reports, and what a serving snapshot's
/// publish gate refuses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InvalidModel {
    /// A parameter's length disagrees with the dimensions the other
    /// parameters fix.
    Shape {
        /// Which parameter (`"theta"`, `"phi"`, `"lambda"`, ...).
        param: &'static str,
        /// The length the other parameters imply.
        expected: usize,
        /// The length found.
        found: usize,
    },
    /// A parameter holds a NaN or an infinity.
    NonFinite {
        /// Which parameter.
        param: &'static str,
        /// Flat index of the first offending value.
        index: usize,
    },
    /// A row that must be a distribution has a negative entry or does
    /// not sum to 1 (within `1e-9`).
    NotDistribution {
        /// Which parameter.
        param: &'static str,
        /// The offending row.
        row: usize,
        /// The row's sum.
        sum: f64,
    },
    /// A mixing weight (`lambda_u`, or the background weight) lies
    /// outside `[0, 1]`.
    LambdaOutOfRange {
        /// Which parameter (`"lambda"` or `"background_weight"`).
        param: &'static str,
        /// The user (0 for the background weight).
        index: usize,
        /// The offending weight.
        value: f64,
    },
}

impl std::fmt::Display for InvalidModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidModel::Shape { param, expected, found } => {
                write!(f, "`{param}` has length {found}, expected {expected}")
            }
            InvalidModel::NonFinite { param, index } => {
                write!(f, "`{param}` value {index} is not finite")
            }
            InvalidModel::NotDistribution { param, row, sum } => {
                write!(f, "`{param}` row {row} is not a distribution (sum {sum})")
            }
            InvalidModel::LambdaOutOfRange { param, index, value } => {
                write!(f, "`{param}` {index} is {value}, outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for InvalidModel {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;
