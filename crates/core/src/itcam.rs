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
//! entry-order scatter pass builds the numerator afterwards.

use crate::config::{FitConfig, FitResult};
use crate::em::{self, TemporalContext};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tcam_data::{RatingCuboid, TimeId, UserId};
use tcam_math::{vecops, Matrix, Pcg64};

/// A fitted item-based TCAM model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ItcamModel {
    /// `theta[u][z] = P(z | theta_u)`, shape `N x K1`.
    theta: Matrix,
    /// `phi[z][v] = P(v | phi_z)`, shape `K1 x V`.
    phi: Matrix,
    /// `theta_t[t][v] = P(v | theta'_t)`, shape `T x V`.
    theta_t: Matrix,
    /// Per-user mixing weight `lambda_u` (Eq. 11).
    lambda: Vec<f64>,
    /// Fixed background item distribution `theta_B` (empirical item
    /// frequencies of the training cuboid).
    background: Vec<f64>,
    /// Background mixing weight `lambda_B` (0 = the paper's plain TCAM).
    background_weight: f64,
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
        let fit = em::fit(cuboid, config, em::EmParams { theta, phi_item, lambda, temporal });
        let (params, background) = fit.model;
        // Convert the work layout to the row-major topic layout used by
        // scoring and inspection.
        let model = ItcamModel {
            theta: params.theta,
            phi: params.phi_item.transpose(),
            theta_t: params.temporal.theta_t,
            lambda: params.lambda,
            background,
            background_weight: config.background_weight,
        };
        Ok(FitResult { model, trace: fit.trace, converged: fit.converged })
    }

    /// Number of users `N`.
    pub fn num_users(&self) -> usize {
        self.theta.rows()
    }

    /// Number of user-oriented topics `K1`.
    pub fn num_user_topics(&self) -> usize {
        self.theta.cols()
    }

    /// Number of time intervals `T`.
    pub fn num_times(&self) -> usize {
        self.theta_t.rows()
    }

    /// Number of items `V`.
    pub fn num_items(&self) -> usize {
        self.phi.cols()
    }

    /// The mixing weight `lambda_u` of one user.
    pub fn lambda(&self, user: UserId) -> f64 {
        self.lambda[user.index()]
    }

    /// All mixing weights.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambda
    }

    /// The fixed background item distribution `theta_B`.
    pub fn background(&self) -> &[f64] {
        &self.background
    }

    /// The background mixing weight `lambda_B`.
    pub fn background_weight(&self) -> f64 {
        self.background_weight
    }

    /// `P(z | theta_u)` — the user's interest distribution.
    pub fn user_interest(&self, user: UserId) -> &[f64] {
        self.theta.row(user.index())
    }

    /// `P(v | phi_z)` — a user-oriented topic's item distribution.
    pub fn user_topic(&self, z: usize) -> &[f64] {
        self.phi.row(z)
    }

    /// `P(v | theta'_t)` — the temporal context of interval `t`.
    pub fn temporal_context(&self, time: TimeId) -> &[f64] {
        self.theta_t.row(time.index())
    }

    /// The rating likelihood `P(v | u, t)` of Eq. 1.
    pub fn predict(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        let u = user.index();
        let lam = self.lambda[u];
        let theta_u = self.theta.row(u);
        let interest: f64 =
            (0..self.num_user_topics()).map(|z| theta_u[z] * self.phi.get(z, item)).sum();
        let lam_b = self.background_weight;
        lam_b * self.background[item]
            + (1.0 - lam_b) * (lam * interest + (1.0 - lam) * self.theta_t.get(time.index(), item))
    }

    /// Fills `scores[v] = P(v | u, t)` for all items (brute-force scan).
    pub fn predict_all(&self, user: UserId, time: TimeId, scores: &mut [f64]) {
        assert_eq!(scores.len(), self.num_items());
        let u = user.index();
        let lam = self.lambda[u];
        let theta_u = self.theta.row(u);
        scores.fill(0.0);
        for z in 0..self.num_user_topics() {
            let w = lam * theta_u[z];
            if w == 0.0 {
                continue;
            }
            vecops::scaled_add(scores, self.phi.row(z), w);
        }
        vecops::scaled_add(scores, self.theta_t.row(time.index()), 1.0 - lam);
        let lam_b = self.background_weight;
        if lam_b > 0.0 {
            for s in scores.iter_mut() {
                *s *= 1.0 - lam_b;
            }
            vecops::scaled_add(scores, &self.background, lam_b);
        }
    }

    /// Data log-likelihood of an arbitrary cuboid under this model
    /// (e.g., held-out perplexity). Cells the model assigns zero mass
    /// are floored at `f64::MIN_POSITIVE`.
    ///
    /// Streams entries grouped per user (entries are `(u, t, v)` sorted):
    /// `lambda_u`/`theta_u` are hoisted out of the inner loop and the
    /// interest dot reads contiguous rows of an item-major transposed
    /// copy of `phi`. Per-entry arithmetic order is identical to
    /// [`Self::predict`], so the result is bitwise equal to the naive
    /// per-entry evaluation (regression-tested).
    pub fn log_likelihood(&self, cuboid: &RatingCuboid) -> f64 {
        let phi_item = self.phi.transpose();
        let lam_b = self.background_weight;
        let mut ll = 0.0;
        for u in 0..cuboid.num_users() {
            let entries = cuboid.user_entries(UserId::from(u));
            if entries.is_empty() {
                continue;
            }
            let lam = self.lambda[u];
            let theta_u = self.theta.row(u);
            for r in entries {
                let v = r.item.index();
                let interest = vecops::dot(theta_u, phi_item.row(v));
                let p = lam_b * self.background[v]
                    + (1.0 - lam_b)
                        * (lam * interest + (1.0 - lam) * self.theta_t.get(r.time.index(), v));
                ll += r.value * p.max(f64::MIN_POSITIVE).ln();
            }
        }
        ll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;
    use tcam_data::synth;

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
