//! The fitted TCAM model both variants share (DESIGN.md §11).
//!
//! ITCAM and TTCAM share Eq. 1's interest side (`theta_u`, `phi_z`,
//! `lambda_u`) and the background `theta_B`; they differ only in the
//! temporal context `theta'_t`, a multinomial over items in ITCAM
//! (§3.2.1) and over `K2` time topics in TTCAM (§3.2.2). So a fitted
//! model is one [`Tcam<C>`], shaped like the EM scaffold's parameters:
//! the shared side plus `temporal: C`, where `C` holds only the
//! variant's fitted temporal parameters and describes them to Eq. 1
//! through [`TemporalParams`].

use crate::config::{FitConfig, FitResult};
use crate::em::{self, EmParams, TemporalContext};
use serde::{Deserialize, Error, Serialize, Value};
use tcam_data::{RatingCuboid, TimeId, UserId};
use tcam_math::{vecops, Matrix};

/// The fitted temporal context of one TCAM variant, as Eq. 1 reads it:
/// interval `t`'s context `P(v | theta'_t)` is a weighted sum of
/// temporal *factor* rows, each an item distribution.
pub trait TemporalParams: Sync {
    /// The variant's report label (e.g., "TTCAM").
    const NAME: &'static str;

    /// `theta'_t`, one row per interval.
    fn theta_t(&self) -> &Matrix;

    /// The temporal factors, one item distribution per row: ITCAM's
    /// `T` interval multinomials, TTCAM's `K2` time topics `phi'_x`.
    fn factors(&self) -> &Matrix;

    /// Interval `t`'s `(factor, weight)` pairs, in factor order: ITCAM's
    /// own row with weight 1, or every time topic `x` with weight
    /// `theta'_t[x]`.
    fn factors_at(&self, time: TimeId) -> impl Iterator<Item = (usize, f64)> + '_;
}

/// A fitted TCAM model: the interest side both variants share, plus the
/// variant's temporal context `C`.
#[derive(Debug, Clone)]
pub struct Tcam<C> {
    /// `theta[u][z] = P(z | theta_u)`, shape `N x K1`.
    pub(crate) theta: Matrix,
    /// `phi[z][v] = P(v | phi_z)`, shape `K1 x V`.
    pub(crate) phi: Matrix,
    /// The variant's fitted temporal parameters.
    pub(crate) temporal: C,
    /// Per-user mixing weight `lambda_u` (Eq. 11).
    pub(crate) lambda: Vec<f64>,
    /// Fixed background item distribution `theta_B` (empirical item
    /// frequencies of the training cuboid).
    pub(crate) background: Vec<f64>,
    /// Background mixing weight `lambda_B` (0 = the paper's plain TCAM).
    pub(crate) background_weight: f64,
}

impl<C> Tcam<C> {
    /// Runs the shared EM loop from `init`, then converts the work
    /// layout to the row-major topic layout used by scoring; `fitted`
    /// does that for the temporal context.
    pub(crate) fn run_em<E: TemporalContext>(
        cuboid: &RatingCuboid,
        config: &FitConfig,
        init: EmParams<E>,
        fitted: impl FnOnce(E) -> C,
    ) -> FitResult<Self> {
        let fit = em::fit(cuboid, config, init);
        let (params, background) = fit.model;
        let model = Tcam {
            theta: params.theta,
            phi: params.phi_item.transpose(),
            temporal: fitted(params.temporal),
            lambda: params.lambda,
            background,
            background_weight: config.background_weight,
        };
        FitResult { model, trace: fit.trace, converged: fit.converged }
    }
}

impl<C: TemporalParams> Tcam<C> {
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
        self.temporal.theta_t().rows()
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

    /// `theta'_t` — the temporal context of interval `t`: over items
    /// (ITCAM) or over time-oriented topics (TTCAM).
    pub fn temporal_context(&self, time: TimeId) -> &[f64] {
        self.temporal.theta_t().row(time.index())
    }

    /// The variant's temporal parameters.
    pub fn temporal(&self) -> &C {
        &self.temporal
    }

    /// The rating likelihood `P(v | u, t)` of Eq. 1.
    pub fn predict(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        let u = user.index();
        let lam = self.lambda[u];
        let theta_u = self.theta.row(u);
        let interest: f64 =
            (0..self.num_user_topics()).map(|z| theta_u[z] * self.phi.get(z, item)).sum();
        let factors = self.temporal.factors();
        let context: f64 =
            self.temporal.factors_at(time).map(|(x, w)| w * factors.get(x, item)).sum();
        let lam_b = self.background_weight;
        lam_b * self.background[item] + (1.0 - lam_b) * (lam * interest + (1.0 - lam) * context)
    }

    /// Fills `scores[v] = P(v | u, t)` for all items (brute-force scan).
    pub fn predict_all(&self, user: UserId, time: TimeId, scores: &mut [f64]) {
        assert_eq!(scores.len(), self.num_items());
        let u = user.index();
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
        let factors = self.temporal.factors();
        for (x, w) in self.temporal.factors_at(time) {
            let w = (1.0 - lam) * w;
            if w == 0.0 {
                continue;
            }
            vecops::scaled_add(scores, factors.row(x), w);
        }
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
    /// Streams entries grouped per user (entries are `(u, t, v)`
    /// sorted): `lambda_u`/`theta_u` are hoisted out of the inner loop,
    /// and both mixture sums read contiguous rows of item-major
    /// transposed copies instead of striding down the topic-major
    /// factors. Per-entry arithmetic order is identical to
    /// [`Self::predict`], so the result is bitwise equal to the naive
    /// per-entry evaluation (regression-tested).
    pub fn log_likelihood(&self, cuboid: &RatingCuboid) -> f64 {
        let phi_item = self.phi.transpose();
        let factor_item = self.temporal.factors().transpose();
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
                let factor_v = factor_item.row(v);
                let context: f64 =
                    self.temporal.factors_at(r.time).map(|(x, w)| w * factor_v[x]).sum();
                let p = lam_b * self.background[v]
                    + (1.0 - lam_b) * (lam * interest + (1.0 - lam) * context);
                ll += r.value * p.max(f64::MIN_POSITIVE).ln();
            }
        }
        ll
    }
}

/// One flat object, `C`'s fields between `phi` and `lambda`: `theta,
/// phi, theta_t[, phi_t], lambda, background, background_weight`.
impl<C: Serialize> Serialize for Tcam<C> {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("theta".to_string(), self.theta.to_value()),
            ("phi".to_string(), self.phi.to_value()),
        ];
        // `C` is a struct with named fields, so it serializes as an
        // object whose fields join the model's.
        if let Value::Object(temporal) = self.temporal.to_value() {
            fields.extend(temporal);
        }
        fields.extend([
            ("lambda".to_string(), self.lambda.to_value()),
            ("background".to_string(), self.background.to_value()),
            ("background_weight".to_string(), self.background_weight.to_value()),
        ]);
        Value::Object(fields)
    }
}

/// Reads [`Tcam`]'s flat object; `C` picks its own fields out of it by
/// name.
impl<C: Deserialize> Deserialize for Tcam<C> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Tcam {
            theta: serde::field(v, "theta")?,
            phi: serde::field(v, "phi")?,
            temporal: C::from_value(v)?,
            lambda: serde::field(v, "lambda")?,
            background: serde::field(v, "background")?,
            background_weight: serde::field(v, "background_weight")?,
        })
    }
}
