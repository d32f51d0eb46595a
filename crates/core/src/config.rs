//! Fit configuration and training diagnostics.

use crate::{ModelError, Result};
use serde::{Deserialize, Serialize};
#[cfg(test)]
use tcam_math::Pcg64;

/// Configuration for an EM fit of either TCAM variant.
///
/// The paper reports convergence "in a few iterations (e.g., 50)"
/// (Section 3.2.3); defaults match that with an additional relative
/// log-likelihood tolerance for early exit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitConfig {
    /// Number of user-oriented topics `K1`.
    pub num_user_topics: usize,
    /// Number of time-oriented topics `K2` (TTCAM only; ignored by ITCAM).
    pub num_time_topics: usize,
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Early-exit when the relative log-likelihood improvement falls
    /// below this threshold (0 disables early exit).
    pub tolerance: f64,
    /// RNG seed for the random initialization.
    pub seed: u64,
    /// Worker threads for the E-step (1 = serial).
    pub num_threads: usize,
    /// Initial mixing weight `lambda_u` before the first M-step.
    pub initial_lambda: f64,
    /// Weight `lambda_B` of a fixed background component (the empirical
    /// item distribution), mixed outside the interest/context mixture:
    /// `P(v|u,t) = lambda_B theta_B[v] + (1 - lambda_B) * Eq. 1`.
    ///
    /// 0 (the default) reproduces the paper's TCAM exactly. A small
    /// positive value implements the paper's future-work item 3
    /// ("incorporate a background distribution to filter the noise")
    /// and matches the smoothing the paper already grants the UT and
    /// TT baselines in Section 5.2.
    pub background_weight: f64,
    /// Pseudo-count strength shrinking each `lambda_u` toward the
    /// global mean during the M-step (empirical-Bayes MAP variant of
    /// Eq. 11). 0 (default) is the paper's exact ML update; positive
    /// values stabilize the per-user weight when users have few ratings
    /// — at the paper's data scale (hundreds of ratings per user) the
    /// two are indistinguishable.
    pub lambda_shrinkage: f64,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            num_user_topics: 20,
            num_time_topics: 10,
            max_iterations: 50,
            tolerance: 1e-5,
            seed: 0,
            num_threads: 1,
            initial_lambda: 0.5,
            background_weight: 0.0,
            lambda_shrinkage: 0.0,
        }
    }
}

impl FitConfig {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.num_user_topics == 0 {
            return Err(ModelError::InvalidConfig {
                field: "num_user_topics",
                reason: "must be positive",
            });
        }
        if self.num_time_topics == 0 {
            return Err(ModelError::InvalidConfig {
                field: "num_time_topics",
                reason: "must be positive",
            });
        }
        if self.max_iterations == 0 {
            return Err(ModelError::InvalidConfig {
                field: "max_iterations",
                reason: "must be positive",
            });
        }
        if !(self.tolerance >= 0.0) {
            return Err(ModelError::InvalidConfig {
                field: "tolerance",
                reason: "must be nonnegative",
            });
        }
        if self.num_threads == 0 {
            return Err(ModelError::InvalidConfig {
                field: "num_threads",
                reason: "must be positive",
            });
        }
        if !(self.initial_lambda > 0.0 && self.initial_lambda < 1.0) {
            return Err(ModelError::InvalidConfig {
                field: "initial_lambda",
                reason: "must be in (0, 1)",
            });
        }
        if !(0.0..1.0).contains(&self.background_weight) {
            return Err(ModelError::InvalidConfig {
                field: "background_weight",
                reason: "must be in [0, 1)",
            });
        }
        if !(self.lambda_shrinkage >= 0.0) {
            return Err(ModelError::InvalidConfig {
                field: "lambda_shrinkage",
                reason: "must be nonnegative",
            });
        }
        Ok(())
    }

    /// Builder-style setter for `num_user_topics`.
    pub fn with_user_topics(mut self, k1: usize) -> Self {
        self.num_user_topics = k1;
        self
    }

    /// Builder-style setter for `num_time_topics`.
    pub fn with_time_topics(mut self, k2: usize) -> Self {
        self.num_time_topics = k2;
        self
    }

    /// Builder-style setter for `max_iterations`.
    pub fn with_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Builder-style setter for `seed`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for `num_threads`.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builder-style setter for `background_weight`.
    pub fn with_background(mut self, lambda_b: f64) -> Self {
        self.background_weight = lambda_b;
        self
    }

    /// Builder-style setter for `lambda_shrinkage`.
    pub fn with_lambda_shrinkage(mut self, s: f64) -> Self {
        self.lambda_shrinkage = s;
        self
    }
}

/// One iteration's diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitTrace {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Data log-likelihood under the parameters *entering* the iteration.
    pub log_likelihood: f64,
}

/// Outcome of a fit: the model plus its convergence trace.
#[derive(Debug, Clone)]
pub struct FitResult<M> {
    /// The fitted model.
    pub model: M,
    /// Per-iteration log-likelihoods (monotone non-decreasing for EM).
    pub trace: Vec<FitTrace>,
    /// Whether the tolerance-based early exit fired.
    pub converged: bool,
}

impl<M> FitResult<M> {
    /// Final training log-likelihood.
    pub fn final_log_likelihood(&self) -> f64 {
        self.trace.last().map(|t| t.log_likelihood).unwrap_or(f64::NEG_INFINITY)
    }

    /// Number of EM iterations actually run.
    pub fn iterations(&self) -> usize {
        self.trace.len()
    }
}

/// Draws a random distribution (uniform + noise, normalized) — the
/// standard PLSA-style initialization that keeps every cell strictly
/// positive so EM's multiplicative updates never divide by zero.
///
/// The training kernels use the allocation-free
/// [`crate::em::random_rows`] instead; this reference form is kept for
/// the tests that pin the two to the same RNG stream.
#[cfg(test)]
pub(crate) fn random_distribution(len: usize, rng: &mut Pcg64) -> Vec<f64> {
    let mut d: Vec<f64> = (0..len).map(|_| 0.5 + rng.next_f64()).collect();
    tcam_math::vecops::normalize_in_place(&mut d);
    d
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        FitConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_fields() {
        assert!(FitConfig::default().with_user_topics(0).validate().is_err());
        assert!(FitConfig::default().with_time_topics(0).validate().is_err());
        assert!(FitConfig::default().with_iterations(0).validate().is_err());
        assert!(FitConfig::default().with_threads(0).validate().is_err());
        let mut c = FitConfig::default();
        c.initial_lambda = 1.0;
        assert!(c.validate().is_err());
        let mut c = FitConfig::default();
        c.tolerance = -1.0;
        assert!(c.validate().is_err());
        let mut c = FitConfig::default();
        c.background_weight = 1.0;
        assert!(c.validate().is_err());
        assert!(FitConfig::default().with_background(0.1).validate().is_ok());
    }

    #[test]
    fn random_distribution_normalized_and_positive() {
        let mut rng = Pcg64::new(1);
        let d = random_distribution(17, &mut rng);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(d.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn builders_chain() {
        let c = FitConfig::default()
            .with_user_topics(7)
            .with_time_topics(3)
            .with_iterations(9)
            .with_seed(4)
            .with_threads(2);
        assert_eq!(c.num_user_topics, 7);
        assert_eq!(c.num_time_topics, 3);
        assert_eq!(c.max_iterations, 9);
        assert_eq!(c.seed, 4);
        assert_eq!(c.num_threads, 2);
    }
}
