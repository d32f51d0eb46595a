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
//! different model, exactly as in Section 3.3.
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
pub mod ttcam;

pub use config::{FitConfig, FitResult, FitTrace};
pub use foldin::{FoldInRating, FoldScratch, FoldedUser};
pub use inspect::{top_items, TopicSummary};
pub use itcam::ItcamModel;
pub use ttcam::TtcamModel;

/// Errors from model fitting and use.
#[derive(Debug)]
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

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;
