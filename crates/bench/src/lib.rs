//! # tcam-bench
//!
//! Shared infrastructure for the report binaries in `src/bin/` (one per
//! paper table/figure — see `DESIGN.md` §5): a model-suite builder that
//! fits all eight compared models on a training cuboid, lightweight CLI
//! argument parsing, and text table rendering.

// Lint policy: `!(x > 0.0)` is used deliberately throughout to treat
// NaN as invalid (a plain `x <= 0.0` would accept NaN); indexed loops in
// the EM/Gibbs kernels address several parallel arrays at once, where
// iterator zips hurt readability more than they help.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod accuracy;
pub mod args;
pub mod report;
pub mod suite;
pub mod topics;

pub use args::Args;
pub use suite::{fit_suite, SuiteConfig, SuiteModel};
