//! # tcam-online
//!
//! Online rating ingestion and incremental snapshot refresh.
//!
//! TCAM's premise is that behavior is temporal: the serving query is
//! `q = (u, t)` and the bursty-degree term `B(v, t)` (paper Eq. 18) only
//! exists because new ratings keep arriving in new intervals. This crate
//! turns the batch pipeline (`RatingCuboid::from_ratings` →
//! `ItemWeighting::compute` → `TtcamModel::fit` → `ModelSnapshot`) into a
//! streaming one:
//!
//! * [`IngestLog`] validates and appends `(u, t, v)` ratings one at a
//!   time — typed [`OnlineError`]s for out-of-range ids, non-finite or
//!   negative values, and backwards time; a rejected rating leaves every
//!   piece of state untouched (the fault-injection tests fingerprint the
//!   log before and after to prove it). Its one state is the accepted
//!   stream and the cuboid cells it sums into; a refresh materializes
//!   the cuboid from them and, for W-TTCAM, computes the Section 3.3
//!   weights on it (`ItemWeighting::compute`).
//! * [`OnlineEngine`] owns the log, the latest fitted model, and a
//!   [`tcam_serve::ServeEngine`]; its [`RefreshPolicy`] (every N
//!   ratings and/or on interval rollover) warm-starts EM from the
//!   previous model's rows ([`tcam_core::TtcamModel::fit_warm`]),
//!   rebuilds the TA index with the existing parallel build, and
//!   hot-swaps the new epoch into serving with cache invalidation. A
//!   refit that fails, or a model the publish gate
//!   ([`tcam_serve::ModelSnapshot::try_new`]) refuses, leaves the
//!   previous epoch serving and is counted.
//!   Between refreshes, queries at not-yet-fitted intervals degrade
//!   through the serving engine's existing clamp/fold-in path.
//!
//! The correctness spine is the [`oracle`] module: replaying any prefix
//! of the accepted stream through the batch constructors must reproduce
//! the materialized cuboid **bitwise** — `f64` addition commutes but does
//! not associate, so both paths are pinned to the same arrival-order
//! summation (see `RatingCuboid::from_sorted_ratings`). The
//! `tests/online_equivalence.rs` harness replays arbitrary interleavings
//! of appends and rollovers against this oracle.

pub mod engine;
pub mod ingest;
pub mod oracle;

pub use engine::{IngestOutcome, OnlineConfig, OnlineEngine, RefreshPolicy, RefreshReport};
pub use ingest::IngestLog;

use tcam_core::{InvalidModel, ModelError};
use tcam_data::DataError;

/// Errors from online ingestion and refresh. Validation failures are
/// reported, never panicked on: a bad rating is an expected input in a
/// streaming system.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// An id was outside the stream's declared bounds.
    IdOutOfRange {
        /// Which dimension ("user", "time", "item").
        kind: &'static str,
        /// The offending index.
        index: usize,
        /// The declared bound.
        bound: usize,
    },
    /// A rating value was NaN, infinite, or negative.
    InvalidValue {
        /// The offending value.
        value: f64,
    },
    /// A rating arrived for an interval earlier than one already seen.
    /// Ingestion requires globally non-decreasing time: the bursty
    /// statistics of a closed interval are treated as final.
    TimeRegression {
        /// The interval the rating claims.
        time: usize,
        /// The latest interval already ingested.
        last: usize,
    },
    /// A refresh failed inside model fitting.
    Model(ModelError),
    /// A refresh failed inside dataset construction.
    Data(DataError),
    /// The publish gate refused a model; the previous epoch keeps
    /// serving.
    Refused(InvalidModel),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::IdOutOfRange { kind, index, bound } => {
                write!(f, "{kind} index {index} out of range (bound {bound})")
            }
            OnlineError::InvalidValue { value } => write!(f, "invalid rating value {value}"),
            OnlineError::TimeRegression { time, last } => {
                write!(f, "time regression: interval {time} after interval {last}")
            }
            OnlineError::Model(e) => write!(f, "refresh failed: {e}"),
            OnlineError::Data(e) => write!(f, "refresh failed: {e}"),
            OnlineError::Refused(e) => write!(f, "model refused: {e}"),
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::Model(e) => Some(e),
            OnlineError::Data(e) => Some(e),
            OnlineError::Refused(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for OnlineError {
    fn from(e: ModelError) -> Self {
        OnlineError::Model(e)
    }
}

impl From<InvalidModel> for OnlineError {
    fn from(e: InvalidModel) -> Self {
        OnlineError::Refused(e)
    }
}

impl From<DataError> for OnlineError {
    fn from(e: DataError) -> Self {
        OnlineError::Data(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, OnlineError>;
