//! Item-based TCAM (Section 3.2.1 of the paper).
//!
//! Generative story for each rating `(u, t, v)`:
//!
//! 1. `s ~ Bernoulli(lambda_u)`
//! 2. if `s = 1`: `z ~ Multinomial(theta_u)`, `v ~ Multinomial(phi_z)`
//! 3. else: `v ~ Multinomial(theta'_t)` — the temporal context of
//!    interval `t` is a multinomial directly over items.
//!
//! The likelihood of a rating is Eq. 1 with `P(v|theta_u)` expanded by
//! Eq. 2, and the EM updates are Eqs. 4–11.
//!
//! The fit runs on the EM scaffold shared with TTCAM (`em::fit`,
//! DESIGN.md §11): allocation-free per iteration and bitwise
//! reproducible for any `num_threads`. ITCAM supplies only its
//! temporal context, whose one wrinkle is the `T x V` numerator
//! (Eq. 10): instead of giving every shard its own dense `T x V` copy
//! (which would dwarf the E-step work on sparse data), each entry
//! records its context posterior mass `c * post0` and a single
//! entry-order scatter pass builds the numerator afterwards. The fitted
//! model is the shared [`Tcam`] with [`ItemTime`] as its temporal side.

use crate::config::{FitConfig, FitResult};
use crate::em::{self, TemporalContext};
use crate::tcam::{Tcam, TemporalParams};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tcam_data::{RatingCuboid, TimeId};
use tcam_math::{Matrix, Pcg64};

/// A fitted item-based TCAM model.
pub type ItcamModel = Tcam<ItemTime>;

/// ITCAM's fitted temporal context.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ItemTime {
    /// `theta_t[t][v] = P(v | theta'_t)`, shape `T x V`.
    theta_t: Matrix,
}

impl TemporalParams for ItemTime {
    const NAME: &'static str = "ITCAM";

    fn theta_t(&self) -> &Matrix {
        &self.theta_t
    }

    /// One factor per interval: its item multinomial.
    fn factors(&self) -> &Matrix {
        &self.theta_t
    }

    fn factors_at(&self, time: TimeId) -> impl Iterator<Item = (usize, f64)> + '_ {
        std::iter::once((time.index(), 1.0))
    }
}

/// ITCAM's temporal context during EM: `theta'_t` and its Eq. 10
/// numerator, both `T x V`.
struct ItemContext {
    theta_t: Matrix,
    theta_t_num: Matrix,
}

impl TemporalContext for ItemContext {
    // tcam-lint: hot
    fn contexts<'a>(
        &'a self,
        cuboid: &'a RatingCuboid,
        entries: Range<usize>,
    ) -> impl Iterator<Item = f64> + 'a {
        let theta_t = &self.theta_t;
        cuboid.entries()[entries].iter().map(move |r| theta_t.get(r.time.index(), r.item.index()))
    }

    /// The entry's context posterior mass, `inv * p0`.
    #[inline]
    fn entry_weight(inv: f64, w0: f64, b: f64) -> f64 {
        inv * (w0 * b)
    }

    /// Entry-order scatter of the context posteriors into the Eq. 10
    /// numerator.
    // tcam-lint: hot
    fn rebuild(&mut self, cuboid: &RatingCuboid, weights: &[f64]) {
        self.theta_t_num.as_mut_slice().fill(0.0);
        for (r, &p) in cuboid.entries().iter().zip(weights) {
            self.theta_t_num.add_at(r.time.index(), r.item.index(), p);
        }
    }

    // tcam-lint: hot
    fn m_step(&mut self) {
        em::normalize_rows(&self.theta_t_num, &mut self.theta_t);
    }
}

impl ItcamModel {
    /// Fits ITCAM to a rating cuboid with EM.
    ///
    /// Fitting a cuboid pre-transformed by
    /// [`tcam_data::ItemWeighting::apply`] yields the paper's W-ITCAM.
    ///
    /// The shard plan, accumulation order, and merge tree depend only on
    /// the data — `config.num_threads` changes wall-clock, never the
    /// result: traces and parameters are bitwise identical across thread
    /// counts.
    pub fn fit(cuboid: &RatingCuboid, config: &FitConfig) -> Result<FitResult<Self>> {
        em::check_inputs(cuboid, config)?;
        let n = cuboid.num_users();
        let t_dim = cuboid.num_times();
        let v_dim = cuboid.num_items();
        let k1 = config.num_user_topics;

        let mut rng = Pcg64::new(config.seed);
        let mut theta = Matrix::zeros(n, k1);
        em::random_rows(&mut theta, &mut rng);
        let phi_item = em::init_item_major(v_dim, k1, &mut rng);
        let mut theta_t = Matrix::zeros(t_dim, v_dim);
        em::random_rows(&mut theta_t, &mut rng);
        let lambda = vec![config.initial_lambda; n];
        let temporal = ItemContext { theta_t, theta_t_num: Matrix::zeros(t_dim, v_dim) };
        let init = em::EmParams { theta, phi_item, lambda, temporal };
        Ok(Self::run_em(cuboid, config, init, |c| ItemTime { theta_t: c.theta_t }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;
    use tcam_data::{synth, UserId};

    fn fit_tiny(seed: u64, iters: usize) -> (tcam_data::SynthDataset, FitResult<ItcamModel>) {
        let data = synth::SynthDataset::generate(synth::tiny(seed)).unwrap();
        let config =
            FitConfig::default().with_user_topics(4).with_iterations(iters).with_seed(seed);
        let result = ItcamModel::fit(&data.cuboid, &config).unwrap();
        (data, result)
    }

    #[test]
    fn rejects_empty_cuboid() {
        let c = RatingCuboid::from_ratings(2, 2, 2, vec![]).unwrap();
        assert!(matches!(ItcamModel::fit(&c, &FitConfig::default()), Err(ModelError::BadData(_))));
    }

    #[test]
    fn log_likelihood_non_decreasing() {
        let (_, result) = fit_tiny(1, 30);
        for w in result.trace.windows(2) {
            assert!(
                w[1].log_likelihood >= w[0].log_likelihood - 1e-8,
                "EM log-likelihood decreased: {} -> {}",
                w[0].log_likelihood,
                w[1].log_likelihood
            );
        }
    }

    #[test]
    fn parameters_are_distributions() {
        let (data, result) = fit_tiny(2, 10);
        let m = &result.model;
        for u in 0..m.num_users() {
            let uid = UserId::from(u);
            assert!(
                tcam_math::vecops::is_distribution(m.user_interest(uid), 1e-8),
                "theta_u not normalized"
            );
            let lam = m.lambda(uid);
            assert!((0.0..=1.0).contains(&lam), "lambda out of range: {lam}");
        }
        for z in 0..m.num_user_topics() {
            assert!(tcam_math::vecops::is_distribution(m.user_topic(z), 1e-8));
        }
        for t in 0..m.num_times() {
            assert!(tcam_math::vecops::is_distribution(m.temporal_context(TimeId::from(t)), 1e-8));
        }
        drop(data);
    }

    #[test]
    fn predict_all_matches_predict() {
        let (_, result) = fit_tiny(3, 5);
        let m = &result.model;
        let mut scores = vec![0.0; m.num_items()];
        let u = UserId(1);
        let t = TimeId(2);
        m.predict_all(u, t, &mut scores);
        for (v, &s) in scores.iter().enumerate() {
            assert!((s - m.predict(u, t, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn predict_is_a_distribution_over_items() {
        let (_, result) = fit_tiny(4, 5);
        let m = &result.model;
        let mut scores = vec![0.0; m.num_items()];
        m.predict_all(UserId(0), TimeId(0), &mut scores);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn parallel_fit_is_bitwise_identical_to_serial() {
        // The shard plan and merge tree depend only on the data, so any
        // thread count must reproduce the serial fit *exactly* — full
        // log-likelihood trace, lambdas, and predictions, to the bit.
        let data = synth::SynthDataset::generate(synth::tiny(5)).unwrap();
        let base = FitConfig::default().with_user_topics(4).with_iterations(5).with_seed(9);
        let serial = ItcamModel::fit(&data.cuboid, &base).unwrap();
        for threads in [2usize, 4] {
            let par = ItcamModel::fit(&data.cuboid, &base.clone().with_threads(threads)).unwrap();
            assert_eq!(serial.trace, par.trace, "trace at {threads} threads");
            assert_eq!(serial.model.lambdas(), par.model.lambdas());
            let mut a = vec![0.0; serial.model.num_items()];
            let mut b = a.clone();
            for (u, t) in [(0u32, 0u32), (3, 2), (17, 7)] {
                serial.model.predict_all(UserId(u), TimeId(t), &mut a);
                par.model.predict_all(UserId(u), TimeId(t), &mut b);
                assert_eq!(a, b, "predictions at {threads} threads for u{u} t{t}");
            }
        }
    }

    #[test]
    fn log_likelihood_matches_per_entry_path() {
        // The grouped/transposed fast path must agree bit-for-bit with
        // the naive per-entry evaluation through `predict`.
        let (data, result) = fit_tiny(8, 8);
        let m = &result.model;
        let reference: f64 = data
            .cuboid
            .entries()
            .iter()
            .map(|r| {
                let p = m.predict(r.user, r.time, r.item.index());
                r.value * p.max(f64::MIN_POSITIVE).ln()
            })
            .sum();
        let fast = m.log_likelihood(&data.cuboid);
        assert_eq!(fast, reference, "fast {fast} vs per-entry {reference}");
    }

    #[test]
    fn converges_with_tolerance() {
        let data = synth::SynthDataset::generate(synth::tiny(6)).unwrap();
        let config = FitConfig {
            num_user_topics: 3,
            tolerance: 1e-3,
            max_iterations: 200,
            ..FitConfig::default()
        };
        let result = ItcamModel::fit(&data.cuboid, &config).unwrap();
        assert!(result.converged, "should converge well before 200 iterations");
        assert!(result.iterations() < 200);
    }

    #[test]
    fn heldout_likelihood_finite() {
        let (data, result) = fit_tiny(7, 10);
        let ll = result.model.log_likelihood(&data.cuboid);
        assert!(ll.is_finite());
        assert!(ll < 0.0);
    }
}
