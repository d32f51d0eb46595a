//! Topic-based TCAM (Section 3.2.2 of the paper).
//!
//! TTCAM refines ITCAM's temporal context: instead of a flat multinomial
//! over items per interval, each interval `t` has a distribution
//! `theta'_t` over `K2` shared **time-oriented topics** `phi'_x`
//! (Eq. 12). This ties statistical strength across intervals — an event
//! spanning several intervals is one topic, not several independent
//! item distributions — and is the variant the paper finds consistently
//! stronger (Section 5.3.2, observation 2).
//!
//! EM updates are Eqs. 13–16 for the temporal side plus the shared
//! Eqs. 8, 9, 11 for the interest side and mixing weights.
//!
//! The fit runs on the EM scaffold shared with ITCAM (`em::fit`,
//! DESIGN.md §11); TTCAM supplies only its temporal context, which is
//! sparsity-aware: the context products `b[x] = theta'_t[x] * phi'_x[v]`
//! depend only on `(t, v)`, so their normalizer is computed once per
//! distinct pair of the cuboid's [`TimeItemIndex`] support into a
//! shared read-only table and looked up per rating.

use crate::config::{FitConfig, FitResult};
use crate::em::{self, TemporalContext};
use crate::{InvalidModel, ModelError, Result};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tcam_data::{RatingCuboid, TimeId, TimeItemIndex, UserId};
use tcam_math::{vecops, Matrix, Pcg64};

/// A fitted topic-based TCAM model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TtcamModel {
    /// `theta[u][z] = P(z | theta_u)`, shape `N x K1`.
    theta: Matrix,
    /// `phi[z][v] = P(v | phi_z)`, shape `K1 x V`.
    phi: Matrix,
    /// `theta_t[t][x] = P(x | theta'_t)`, shape `T x K2`.
    theta_t: Matrix,
    /// `phi_t[x][v] = P(v | phi'_x)`, shape `K2 x V`.
    phi_t: Matrix,
    /// Per-user mixing weight `lambda_u` (Eq. 11).
    lambda: Vec<f64>,
    /// Fixed background item distribution `theta_B` (empirical item
    /// frequencies of the training cuboid).
    background: Vec<f64>,
    /// Background mixing weight `lambda_B` (0 = the paper's plain TCAM).
    background_weight: f64,
}

/// TTCAM's temporal context during EM, with the buffers of its
/// numerator rebuild (all allocated once per fit).
///
/// The temporal numerators (Eqs. 15, 16) are not accumulated per
/// shard: each entry's context contribution is `weight * b_pair`, a
/// scalar times a pair-shared vector, so entries record only the scalar
/// and a sequential per-pair pass rebuilds both numerators afterwards —
/// `K2`-vector work per *distinct pair* instead of per rating.
struct TopicContext {
    /// `T x K2`.
    theta_t: Matrix,
    /// `V x K2` (item-major, column-stochastic).
    phi_t_item: Matrix,
    /// The cuboid's distinct `(t, v)` pairs.
    index: TimeItemIndex,
    /// The Eq. 12 normalizer `sum_x theta'_t[x] * phi'_x[v]` per pair.
    ctx_sum: Vec<f64>,
    /// The entries' context weights folded onto their pairs.
    pair_weight: Vec<f64>,
    /// `sum_v w * phi'_v` over one `t`-run of pairs.
    b: Vec<f64>,
    theta_t_num: Matrix,
    phi_t_item_num: Matrix,
    col_sums: Vec<f64>,
}

impl TopicContext {
    fn new(cuboid: &RatingCuboid, theta_t: Matrix, phi_t_item: Matrix) -> Self {
        let (t_dim, k2) = (theta_t.rows(), theta_t.cols());
        let index = TimeItemIndex::new(cuboid);
        TopicContext {
            ctx_sum: vec![0.0; index.num_pairs()],
            pair_weight: vec![0.0; index.num_pairs()],
            b: vec![0.0; k2],
            theta_t_num: Matrix::zeros(t_dim, k2),
            phi_t_item_num: Matrix::zeros(phi_t_item.rows(), k2),
            col_sums: vec![0.0; k2],
            theta_t,
            phi_t_item,
            index,
        }
    }
}

impl TemporalContext for TopicContext {
    /// Refreshes the shared `(t, v)` context cache: the Eq. 12
    /// normalizer is user-independent, so one evaluation per *distinct*
    /// pair serves every rating that shares it.
    // tcam-lint: hot
    fn refresh(&mut self) {
        for (p, &(t, v)) in self.index.pairs().iter().enumerate() {
            self.ctx_sum[p] =
                vecops::dot_unrolled(self.theta_t.row(t.index()), self.phi_t_item.row(v.index()));
        }
    }

    // tcam-lint: hot
    fn contexts<'a>(
        &'a self,
        _cuboid: &'a RatingCuboid,
        entries: Range<usize>,
    ) -> impl Iterator<Item = f64> + 'a {
        let ctx_sum = &self.ctx_sum;
        self.index.entry_pairs()[entries].iter().map(move |&pair| ctx_sum[pair as usize])
    }

    /// `c * post0 / b_sum`: the pair-shared vector `b_pair` is applied
    /// in [`Self::rebuild`].
    #[inline]
    fn entry_weight(inv: f64, w0: f64, b: f64) -> f64 {
        if b > 0.0 {
            inv * w0
        } else {
            0.0
        }
    }

    /// Rebuilds the temporal numerators (Eqs. 15, 16) from the
    /// per-entry context weights: fold the weights onto their pairs in
    /// entry order, then walk the pair list — which is sorted by
    /// `(t, v)` — one `t`-run at a time. Within a run the `phi'` row
    /// gets `w * (theta'_t ∘ phi'_v)` per pair, while the `theta'_t`
    /// contribution factors as `theta'_t ∘ (sum_v w * phi'_v)` and is
    /// added once per run.
    // tcam-lint: hot
    fn rebuild(&mut self, _cuboid: &RatingCuboid, weights: &[f64]) {
        let TopicContext {
            theta_t,
            phi_t_item,
            index,
            pair_weight,
            b,
            theta_t_num,
            phi_t_item_num,
            ..
        } = self;
        pair_weight.fill(0.0);
        for (e, &w) in weights.iter().enumerate() {
            pair_weight[index.pair_of(e)] += w;
        }
        theta_t_num.as_mut_slice().fill(0.0);
        phi_t_item_num.as_mut_slice().fill(0.0);
        let pairs = index.pairs();
        let mut p = 0;
        while p < pairs.len() {
            let t = pairs[p].0;
            let run_end = p + pairs[p..].iter().take_while(|&&(pt, _)| pt == t).count();
            let theta_t_row = theta_t.row(t.index());
            b.fill(0.0);
            let mut run_has_mass = false;
            for q in p..run_end {
                let w = pair_weight[q];
                if w == 0.0 {
                    continue;
                }
                run_has_mass = true;
                let v = pairs[q].1.index();
                vecops::scaled_add(b, phi_t_item.row(v), w);
                vecops::scaled_mul_add(
                    phi_t_item_num.row_mut(v),
                    theta_t_row,
                    phi_t_item.row(v),
                    w,
                );
            }
            if run_has_mass {
                vecops::scaled_mul_add(theta_t_num.row_mut(t.index()), theta_t_row, b, 1.0);
            }
            p = run_end;
        }
    }

    // tcam-lint: hot
    fn m_step(&mut self) {
        em::normalize_rows(&self.theta_t_num, &mut self.theta_t);
        em::column_normalize(&self.phi_t_item_num, &mut self.phi_t_item, &mut self.col_sums);
    }
}

impl TtcamModel {
    /// Fits TTCAM to a rating cuboid with EM.
    ///
    /// Fitting a cuboid pre-transformed by
    /// [`tcam_data::ItemWeighting::apply`] yields the paper's W-TTCAM.
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
        let k2 = config.num_time_topics;

        let mut rng = Pcg64::new(config.seed);
        let mut theta = Matrix::zeros(n, k1);
        em::random_rows(&mut theta, &mut rng);
        let phi_item = em::init_item_major(v_dim, k1, &mut rng);
        let mut theta_t = Matrix::zeros(t_dim, k2);
        em::random_rows(&mut theta_t, &mut rng);
        let phi_t_item = em::init_item_major(v_dim, k2, &mut rng);
        let lambda = vec![config.initial_lambda; n];
        let temporal = TopicContext::new(cuboid, theta_t, phi_t_item);
        Ok(Self::run_em(cuboid, config, em::EmParams { theta, phi_item, lambda, temporal }))
    }

    /// Fits TTCAM with EM **warm-started from a prior model's rows** —
    /// the continuous-refresh path of online ingestion (DESIGN.md §13):
    /// instead of re-randomizing, EM resumes from where the last fit
    /// converged, so a refresh over a slightly grown cuboid needs only a
    /// few iterations.
    ///
    /// The cuboid may have grown along the user and time dimensions
    /// since `prior` was fitted; new rows start from the neutral
    /// initialization (uniform `theta_u` / `theta'_t`, `lambda =
    /// config.initial_lambda`). The item catalog and both topic counts
    /// must match `prior`, or a typed error is returned.
    ///
    /// Warm-starting consumes no randomness: the result is a pure
    /// function of `(cuboid, config, prior)`, and — like [`Self::fit`] —
    /// bitwise identical for every `config.num_threads`.
    pub fn fit_warm(
        cuboid: &RatingCuboid,
        config: &FitConfig,
        prior: &TtcamModel,
    ) -> Result<FitResult<Self>> {
        em::check_inputs(cuboid, config)?;
        if cuboid.num_items() != prior.num_items() {
            return Err(ModelError::BadData("warm start requires the prior model's item catalog"));
        }
        if config.num_user_topics != prior.num_user_topics() {
            return Err(ModelError::InvalidConfig {
                field: "num_user_topics",
                reason: "must match the prior model for a warm start",
            });
        }
        if config.num_time_topics != prior.num_time_topics() {
            return Err(ModelError::InvalidConfig {
                field: "num_time_topics",
                reason: "must match the prior model for a warm start",
            });
        }
        if cuboid.num_users() < prior.num_users() || cuboid.num_times() < prior.num_times() {
            return Err(ModelError::BadData("warm-start cuboid dimensions may only grow"));
        }
        let n = cuboid.num_users();
        let t_dim = cuboid.num_times();
        let k1 = config.num_user_topics;
        let k2 = config.num_time_topics;

        let mut theta = Matrix::zeros(n, k1);
        for u in 0..n {
            let row = theta.row_mut(u);
            if u < prior.num_users() {
                row.copy_from_slice(prior.user_interest(UserId::from(u)));
            } else {
                row.fill(1.0 / k1 as f64);
            }
        }
        let mut theta_t = Matrix::zeros(t_dim, k2);
        for t in 0..t_dim {
            let row = theta_t.row_mut(t);
            if t < prior.num_times() {
                row.copy_from_slice(prior.temporal_context(TimeId::from(t)));
            } else {
                // Interval the prior never saw (rollover since the last
                // refresh): start neutral; EM reassigns it from data.
                row.fill(1.0 / k2 as f64);
            }
        }
        let mut lambda = vec![config.initial_lambda; n];
        lambda[..prior.num_users()].copy_from_slice(prior.lambdas());
        let temporal = TopicContext::new(cuboid, theta_t, prior.phi_t.transpose());
        let phi_item = prior.phi.transpose();
        Ok(Self::run_em(cuboid, config, em::EmParams { theta, phi_item, lambda, temporal }))
    }

    /// Runs the shared EM loop from `init`, then converts the work
    /// layout to the row-major topic layout used by scoring.
    fn run_em(
        cuboid: &RatingCuboid,
        config: &FitConfig,
        init: em::EmParams<TopicContext>,
    ) -> FitResult<Self> {
        let fit = em::fit(cuboid, config, init);
        let (params, background) = fit.model;
        let model = TtcamModel {
            theta: params.theta,
            phi: params.phi_item.transpose(),
            theta_t: params.temporal.theta_t,
            phi_t: params.temporal.phi_t_item.transpose(),
            lambda: params.lambda,
            background,
            background_weight: config.background_weight,
        };
        FitResult { model, trace: fit.trace, converged: fit.converged }
    }

    /// Number of users `N`.
    pub fn num_users(&self) -> usize {
        self.theta.rows()
    }

    /// Number of user-oriented topics `K1`.
    pub fn num_user_topics(&self) -> usize {
        self.theta.cols()
    }

    /// Number of time-oriented topics `K2`.
    pub fn num_time_topics(&self) -> usize {
        self.phi_t.rows()
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

    /// Checks that the parameters describe a servable model: every
    /// matrix's shape agrees with `N`, `K1`, `K2`, `T` and `V`; every
    /// value is finite; every row of `theta`, `phi`, `theta_t`, `phi_t`
    /// and the background is a distribution (nonnegative, summing to 1
    /// within `1e-9`); and every mixing weight lies in `[0, 1]`. A fit
    /// always passes; a model loaded from a file, or one a future
    /// numerical fault corrupts, may not.
    pub fn validate(&self) -> std::result::Result<(), InvalidModel> {
        let (n, k1, k2) = (self.num_users(), self.num_user_topics(), self.num_time_topics());
        let (t_dim, v_dim) = (self.num_times(), self.num_items());
        let matrices = [
            ("theta", &self.theta, n, k1),
            ("phi", &self.phi, k1, v_dim),
            ("theta_t", &self.theta_t, t_dim, k2),
            ("phi_t", &self.phi_t, k2, v_dim),
        ];
        let shape = |param, expected, found| {
            if expected == found {
                Ok(())
            } else {
                Err(InvalidModel::Shape { param, expected, found })
            }
        };
        for &(param, m, rows, cols) in &matrices {
            shape(param, rows, m.rows())?;
            shape(param, cols, m.cols())?;
            shape(param, rows.saturating_mul(cols), m.as_slice().len())?;
        }
        shape("lambda", n, self.lambda.len())?;
        shape("background", v_dim, self.background.len())?;

        let all = matrices.iter().map(|&(param, m, _, _)| (param, m.as_slice())).chain([
            ("lambda", &self.lambda[..]),
            ("background", &self.background[..]),
            ("background_weight", std::slice::from_ref(&self.background_weight)),
        ]);
        for (param, values) in all {
            if let Some(index) = values.iter().position(|x| !x.is_finite()) {
                return Err(InvalidModel::NonFinite { param, index });
            }
        }
        let in_range = |param, index, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(InvalidModel::LambdaOutOfRange { param, index, value })
            }
        };
        for (u, &value) in self.lambda.iter().enumerate() {
            in_range("lambda", u, value)?;
        }
        in_range("background_weight", 0, self.background_weight)?;

        let rows = matrices
            .iter()
            .flat_map(|&(param, m, rows, _)| (0..rows).map(move |r| (param, r, m.row(r))))
            .chain([("background", 0, &self.background[..])]);
        for (param, row, values) in rows {
            let sum: f64 = values.iter().sum();
            if values.iter().any(|&x| x < 0.0) || (sum - 1.0).abs() > 1e-9 {
                return Err(InvalidModel::NotDistribution { param, row, sum });
            }
        }
        Ok(())
    }

    /// `P(z | theta_u)` — the user's interest distribution.
    pub fn user_interest(&self, user: UserId) -> &[f64] {
        self.theta.row(user.index())
    }

    /// `P(v | phi_z)` — a user-oriented topic's item distribution.
    pub fn user_topic(&self, z: usize) -> &[f64] {
        self.phi.row(z)
    }

    /// `P(x | theta'_t)` — the temporal context over time-oriented topics.
    pub fn temporal_context(&self, time: TimeId) -> &[f64] {
        self.theta_t.row(time.index())
    }

    /// `P(v | phi'_x)` — a time-oriented topic's item distribution.
    pub fn time_topic(&self, x: usize) -> &[f64] {
        self.phi_t.row(x)
    }

    /// Temporal popularity profile of time-oriented topic `x`: the mass
    /// `P(x | theta'_t)` across intervals, peak-normalized. This is the
    /// curve plotted in the paper's Figure 2 for a bursty topic.
    pub fn time_topic_profile(&self, x: usize) -> Vec<f64> {
        let raw: Vec<f64> = (0..self.num_times()).map(|t| self.theta_t.get(t, x)).collect();
        let peak = raw.iter().cloned().fold(0.0, f64::max);
        if peak > 0.0 {
            raw.iter().map(|v| v / peak).collect()
        } else {
            raw
        }
    }

    /// The rating likelihood `P(v | u, t)` of Eq. 1 with Eq. 12.
    pub fn predict(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        let u = user.index();
        let t = time.index();
        let lam = self.lambda[u];
        let theta_u = self.theta.row(u);
        let interest: f64 =
            (0..self.num_user_topics()).map(|z| theta_u[z] * self.phi.get(z, item)).sum();
        let theta_t = self.theta_t.row(t);
        let context: f64 =
            (0..self.num_time_topics()).map(|x| theta_t[x] * self.phi_t.get(x, item)).sum();
        let lam_b = self.background_weight;
        lam_b * self.background[item] + (1.0 - lam_b) * (lam * interest + (1.0 - lam) * context)
    }

    /// Fills `scores[v] = P(v | u, t)` for all items (brute-force scan).
    pub fn predict_all(&self, user: UserId, time: TimeId, scores: &mut [f64]) {
        assert_eq!(scores.len(), self.num_items());
        let u = user.index();
        let t = time.index();
        let lam = self.lambda[u];
        scores.fill(0.0);
        let theta_u = self.theta.row(u);
        for z in 0..self.num_user_topics() {
            let w = lam * theta_u[z];
            if w == 0.0 {
                continue;
            }
            vecops::scaled_add(scores, self.phi.row(z), w);
        }
        let lam_b = self.background_weight;
        let theta_t = self.theta_t.row(t);
        for x in 0..self.num_time_topics() {
            let w = (1.0 - lam) * theta_t[x];
            if w == 0.0 {
                continue;
            }
            vecops::scaled_add(scores, self.phi_t.row(x), w);
        }
        if lam_b > 0.0 {
            for s in scores.iter_mut() {
                *s *= 1.0 - lam_b;
            }
            vecops::scaled_add(scores, &self.background, lam_b);
        }
    }

    /// Data log-likelihood of an arbitrary cuboid under this model.
    ///
    /// Streams entries grouped per `(u, t)` run (entries are `(u, t, v)`
    /// sorted): `lambda_u`/`theta_u` and the interval's context row are
    /// hoisted out of the inner loop, and both mixture dots read
    /// contiguous rows of item-major transposed copies instead of
    /// striding down the topic-major factors. Per-entry arithmetic order
    /// is identical to [`Self::predict`], so the result is bitwise equal
    /// to the naive per-entry evaluation (regression-tested).
    pub fn log_likelihood(&self, cuboid: &RatingCuboid) -> f64 {
        let phi_item = self.phi.transpose();
        let phi_t_item = self.phi_t.transpose();
        let lam_b = self.background_weight;
        let mut ll = 0.0;
        for u in 0..cuboid.num_users() {
            let entries = cuboid.user_entries(UserId::from(u));
            if entries.is_empty() {
                continue;
            }
            let lam = self.lambda[u];
            let theta_u = self.theta.row(u);
            let mut cur_t = usize::MAX;
            let mut theta_t_row: &[f64] = &[];
            for r in entries {
                let t = r.time.index();
                if t != cur_t {
                    cur_t = t;
                    theta_t_row = self.theta_t.row(t);
                }
                let v = r.item.index();
                let interest = vecops::dot(theta_u, phi_item.row(v));
                let context = vecops::dot(theta_t_row, phi_t_item.row(v));
                let p = lam_b * self.background[v]
                    + (1.0 - lam_b) * (lam * interest + (1.0 - lam) * context);
                ll += r.value * p.max(f64::MIN_POSITIVE).ln();
            }
        }
        ll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_data::synth;

    fn fit_tiny(seed: u64, iters: usize) -> (tcam_data::SynthDataset, FitResult<TtcamModel>) {
        let data = synth::SynthDataset::generate(synth::tiny(seed)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(iters)
            .with_seed(seed);
        let result = TtcamModel::fit(&data.cuboid, &config).unwrap();
        (data, result)
    }

    #[test]
    fn rejects_empty_cuboid() {
        let c = RatingCuboid::from_ratings(2, 2, 2, vec![]).unwrap();
        assert!(TtcamModel::fit(&c, &FitConfig::default()).is_err());
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
        let (_, result) = fit_tiny(2, 10);
        let m = &result.model;
        for u in 0..m.num_users() {
            assert!(vecops::is_distribution(m.user_interest(UserId::from(u)), 1e-8));
            let lam = m.lambda(UserId::from(u));
            assert!((0.0..=1.0).contains(&lam));
        }
        for z in 0..m.num_user_topics() {
            assert!(vecops::is_distribution(m.user_topic(z), 1e-8));
        }
        for t in 0..m.num_times() {
            assert!(vecops::is_distribution(m.temporal_context(TimeId::from(t)), 1e-8));
        }
        for x in 0..m.num_time_topics() {
            assert!(vecops::is_distribution(m.time_topic(x), 1e-8));
        }
    }

    #[test]
    fn predict_all_matches_predict() {
        let (_, result) = fit_tiny(3, 5);
        let m = &result.model;
        let mut scores = vec![0.0; m.num_items()];
        let u = UserId(2);
        let t = TimeId(1);
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
    }

    #[test]
    fn parallel_fit_is_bitwise_identical_to_serial() {
        // The shard plan and merge tree depend only on the data, so any
        // thread count must reproduce the serial fit *exactly* — full
        // log-likelihood trace, lambdas, and predictions, to the bit.
        let data = synth::SynthDataset::generate(synth::tiny(5)).unwrap();
        let base = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(5)
            .with_seed(9);
        let serial = TtcamModel::fit(&data.cuboid, &base).unwrap();
        for threads in [2usize, 4] {
            let par = TtcamModel::fit(&data.cuboid, &base.clone().with_threads(threads)).unwrap();
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
    fn warm_start_fit_is_bitwise_reproducible_across_threads() {
        // fit_warm rides the same data-dependent shard plan and merge
        // tree as fit, so seeding EM from a prior model's rows must be
        // bitwise identical at every thread count — the invariant the
        // online refresh equivalence harness builds on.
        let data = synth::SynthDataset::generate(synth::tiny(11)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(4)
            .with_seed(13);
        let prior = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let serial = TtcamModel::fit_warm(&data.cuboid, &config, &prior).unwrap();
        for threads in [2usize, 4] {
            let par =
                TtcamModel::fit_warm(&data.cuboid, &config.clone().with_threads(threads), &prior)
                    .unwrap();
            assert_eq!(serial.trace, par.trace, "warm trace at {threads} threads");
            assert_eq!(serial.model.lambdas(), par.model.lambdas());
            assert_eq!(serial.model.theta.as_slice(), par.model.theta.as_slice());
            assert_eq!(serial.model.phi.as_slice(), par.model.phi.as_slice());
            assert_eq!(serial.model.theta_t.as_slice(), par.model.theta_t.as_slice());
            assert_eq!(serial.model.phi_t.as_slice(), par.model.phi_t.as_slice());
        }
        // Warm-starting consumes no RNG: re-running reproduces itself.
        let again = TtcamModel::fit_warm(&data.cuboid, &config, &prior).unwrap();
        assert_eq!(serial.trace, again.trace);
        assert_eq!(serial.model.lambdas(), again.model.lambdas());
    }

    #[test]
    fn warm_start_improves_on_prior_likelihood() {
        let data = synth::SynthDataset::generate(synth::tiny(12)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(6)
            .with_seed(12);
        let prior = TtcamModel::fit(&data.cuboid, &config).unwrap();
        let warm = TtcamModel::fit_warm(&data.cuboid, &config, &prior.model).unwrap();
        // The warm trace starts where the prior converged to (its first
        // entry evaluates the prior parameters) and EM never decreases.
        assert!(warm.trace[0].log_likelihood >= prior.final_log_likelihood() - 1e-8);
        assert!(warm.final_log_likelihood() >= warm.trace[0].log_likelihood - 1e-8);
    }

    #[test]
    fn warm_start_extends_new_users_and_intervals() {
        // Grow both the user and time dimensions relative to the prior:
        // new rows start neutral and the fit must stay valid.
        let data = synth::SynthDataset::generate(synth::tiny(14)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(4)
            .with_seed(14);
        let prior = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let c = &data.cuboid;
        let grown = RatingCuboid::from_ratings(
            c.num_users() + 2,
            c.num_times() + 1,
            c.num_items(),
            c.entries()
                .iter()
                .copied()
                .chain(std::iter::once(tcam_data::Rating {
                    user: UserId::from(c.num_users()),
                    time: TimeId::from(c.num_times()),
                    item: tcam_data::ItemId(0),
                    value: 1.0,
                }))
                .collect(),
        )
        .unwrap();
        let warm = TtcamModel::fit_warm(&grown, &config, &prior).unwrap().model;
        assert_eq!(warm.num_users(), c.num_users() + 2);
        assert_eq!(warm.num_times(), c.num_times() + 1);
        for u in 0..warm.num_users() {
            assert!(vecops::is_distribution(warm.user_interest(UserId::from(u)), 1e-8));
        }
        for t in 0..warm.num_times() {
            assert!(vecops::is_distribution(warm.temporal_context(TimeId::from(t)), 1e-8));
        }
    }

    #[test]
    fn warm_start_rejects_mismatched_shapes() {
        let data = synth::SynthDataset::generate(synth::tiny(15)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(2)
            .with_seed(15);
        let prior = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        // Topic-count mismatches.
        let bad_k1 = config.clone().with_user_topics(5);
        assert!(TtcamModel::fit_warm(&data.cuboid, &bad_k1, &prior).is_err());
        let bad_k2 = config.clone().with_time_topics(4);
        assert!(TtcamModel::fit_warm(&data.cuboid, &bad_k2, &prior).is_err());
        // Shrunk user dimension.
        let c = &data.cuboid;
        let shrunk = RatingCuboid::from_ratings(
            1,
            c.num_times(),
            c.num_items(),
            c.entries().iter().copied().filter(|r| r.user.index() < 1).collect(),
        )
        .unwrap();
        assert!(TtcamModel::fit_warm(&shrunk, &config, &prior).is_err());
    }

    #[test]
    fn subnormal_prior_columns_keep_the_warm_fit_finite() {
        // Every rating of item `v` gets a subnormal mixture denominator,
        // and `c / denom` overflows to inf. Those cells must count as
        // zero-mass instead of turning lambda into NaN for every user.
        let data = synth::SynthDataset::generate(synth::tiny(16)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(3)
            .with_seed(16);
        let mut prior = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let v = data.cuboid.entries()[0].item.index();
        for z in 0..prior.num_user_topics() {
            prior.phi.set(z, v, 1e-310);
        }
        for x in 0..prior.num_time_topics() {
            prior.phi_t.set(x, v, 1e-310);
        }
        let warm = TtcamModel::fit_warm(&data.cuboid, &config, &prior).unwrap();
        assert_eq!(warm.trace.len(), 3);
        for step in &warm.trace {
            assert!(step.log_likelihood.is_finite(), "iteration {}", step.iteration);
        }
        assert!(warm.model.lambdas().iter().all(|l| l.is_finite()), "NaN lambda");
        assert!(warm.model.log_likelihood(&data.cuboid).is_finite());
    }

    #[test]
    fn log_likelihood_matches_per_entry_path() {
        // The grouped/transposed fast path must agree bit-for-bit with
        // the naive per-entry evaluation through `predict`.
        let (data, result) = fit_tiny(7, 8);
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
    fn time_topic_profile_peak_normalized() {
        let (_, result) = fit_tiny(6, 10);
        let m = &result.model;
        for x in 0..m.num_time_topics() {
            let profile = m.time_topic_profile(x);
            assert_eq!(profile.len(), m.num_times());
            let peak = profile.iter().cloned().fold(0.0, f64::max);
            assert!((peak - 1.0).abs() < 1e-12 || peak == 0.0);
        }
    }

    #[test]
    fn lambda_recovers_planted_direction() {
        // Strongly interest-driven data should produce clearly higher
        // mean lambda than strongly context-driven data.
        let mut interest_cfg = synth::tiny(21);
        interest_cfg.lambda_alpha = 9.0;
        interest_cfg.lambda_beta = 1.0;
        let interest = synth::SynthDataset::generate(interest_cfg).unwrap();

        let mut context_cfg = synth::tiny(22);
        context_cfg.lambda_alpha = 1.0;
        context_cfg.lambda_beta = 9.0;
        context_cfg.event_activity_boost = 3.0;
        let context = synth::SynthDataset::generate(context_cfg).unwrap();

        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(30)
            .with_seed(0);
        let m_interest = TtcamModel::fit(&interest.cuboid, &config).unwrap().model;
        let m_context = TtcamModel::fit(&context.cuboid, &config).unwrap().model;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let mi = mean(m_interest.lambdas());
        let mc = mean(m_context.lambdas());
        assert!(
            mi > mc + 0.1,
            "interest-driven lambda {mi:.3} should exceed context-driven {mc:.3}"
        );
    }
}
