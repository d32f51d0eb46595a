//! # tcam-rec
//!
//! Temporal top-k recommendation on top of the fitted models
//! (Section 4 of the paper):
//!
//! * [`TemporalScorer`] — the uniform query interface `(u, t) -> item
//!   scores` implemented by every model in the workspace;
//! * [`FactoredScorer`] — the additional structure TCAM models expose
//!   (Eqs. 21–22: a query is a sparse mixture over topic factors whose
//!   item weights are nonnegative), which makes the **Threshold
//!   Algorithm** applicable;
//! * [`FoldedScorer`] — the same factors for a user the model was not
//!   fitted on (a fold-in or the cold-start prior), so every query is
//!   one `vartheta_q` over one index;
//! * [`ta`] — the block-max query kernel, the paper's Algorithm 1 with
//!   early termination (Eq. 23), and the brute-force scan both are
//!   checked against;
//! * [`metrics`] — Precision@k, Recall@k, F1@k, NDCG@k, MAP, MRR,
//!   HitRate as used in Section 5.3.1;
//! * [`eval`] — the experiment harness: per-`(u, t)` queries over a
//!   train/test split, cross-validation averaging, and query timing.

// Lint policy: `!(x > 0.0)` is used deliberately throughout to treat
// NaN as invalid (a plain `x <= 0.0` would accept NaN); indexed loops in
// the EM/Gibbs kernels address several parallel arrays at once, where
// iterator zips hurt readability more than they help.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod eval;
pub mod metrics;
pub mod scorer;
pub mod ta;
pub mod timing;

pub use eval::{evaluate, EvalConfig, EvalReport, ExcludePolicy, MetricsAtK};
pub use metrics::{metrics_at_k, RankingMetrics};
pub use scorer::{score_all_factored, FactoredScorer, FoldedScorer, TemporalScorer};
pub use ta::{brute_force_top_k, QueryScratch, TaIndex, TaResult, TaStats, BLOCK};
