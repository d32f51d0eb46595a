//! Scoring traits and their implementations for every model.

use tcam_baselines::{Bprmf, Bptf, MostPopular, TimePopular, TimeTopicModel, UserTopicModel};
use tcam_core::{FoldedUser, ItcamModel, TtcamModel};
use tcam_data::{TimeId, UserId};

/// A model that can rank all items for a temporal query `q = (u, t)`.
pub trait TemporalScorer: Sync {
    /// Display name used in reports (e.g., "W-TTCAM").
    fn name(&self) -> &str;

    /// Catalog size.
    fn num_items(&self) -> usize;

    /// Ranking score of one item.
    fn score(&self, user: UserId, time: TimeId, item: usize) -> f64;

    /// Fills ranking scores for all items (the brute-force path).
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]);
}

/// The factored structure of Section 4.1 (Eqs. 21–22): the query's score
/// is a sparse nonnegative mixture `S(u,t,v) = sum_z w_z * phi_z[v]`
/// over `K = K1 + K2` topic factors. This monotone form is exactly what
/// the Threshold Algorithm requires (the paper notes BPTF lacks it).
pub trait FactoredScorer: TemporalScorer {
    /// Total number of factors `K` (user-oriented first, then
    /// time-oriented).
    fn num_factors(&self) -> usize;

    /// The item weights `phi_z[v]` of one factor (all nonnegative).
    fn factor_items(&self, z: usize) -> &[f64];

    /// Writes the active `(factor, weight)` pairs of a query — the
    /// entries of `vartheta_q` (Eq. 21 expansion) — into `out`, clearing
    /// it first. The query kernels call this on their scratch, so the
    /// steady-state hot path allocates nothing.
    fn query_factors_into(&self, user: UserId, time: TimeId, out: &mut Vec<(usize, f64)>);
}

/// Dense factored scoring: `out[v] = sum_z w_z * phi_z[v]` accumulated
/// row-major over the active factors with the fused
/// [`tcam_math::vecops::scaled_add`] kernel (runtime-dispatched AVX2),
/// instead of a per-item K-way gather-dot. This is the brute-force /
/// dense-fallback path for any [`FactoredScorer`]; per item the
/// operation sequence is `s := fl(s + fl(w_z * phi_z[v]))` over the
/// active factors in order — exactly the arithmetic the block-max and
/// classic TA kernels use, so all three paths produce bitwise-identical
/// scores.
pub fn score_all_factored<S: FactoredScorer + ?Sized>(
    scorer: &S,
    active: &[(usize, f64)],
    out: &mut [f64],
) {
    out.fill(0.0);
    for &(z, w) in active {
        tcam_math::vecops::scaled_add(out, scorer.factor_items(z), w);
    }
}

/// A name wrapper so the same model type can appear under different
/// labels (e.g., `TTCAM` vs `W-TTCAM`, which differ only in training
/// data).
#[derive(Debug, Clone)]
pub struct Named<M> {
    name: String,
    model: M,
}

impl<M> Named<M> {
    /// Wraps a model with a report label.
    pub fn new(name: impl Into<String>, model: M) -> Self {
        Named { name: name.into(), model }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.model
    }
}

impl<M: TemporalScorer> TemporalScorer for Named<M> {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_items(&self) -> usize {
        self.model.num_items()
    }
    fn score(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        self.model.score(user, time, item)
    }
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]) {
        self.model.score_all(user, time, out)
    }
}

impl<M: FactoredScorer> FactoredScorer for Named<M> {
    fn num_factors(&self) -> usize {
        self.model.num_factors()
    }
    fn factor_items(&self, z: usize) -> &[f64] {
        self.model.factor_items(z)
    }
    fn query_factors_into(&self, user: UserId, time: TimeId, out: &mut Vec<(usize, f64)>) {
        self.model.query_factors_into(user, time, out)
    }
}

// ---------------------------------------------------------------------
// TCAM models
// ---------------------------------------------------------------------

impl TemporalScorer for ItcamModel {
    fn name(&self) -> &str {
        "ITCAM"
    }
    fn num_items(&self) -> usize {
        ItcamModel::num_items(self)
    }
    fn score(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        self.predict(user, time, item)
    }
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]) {
        self.predict_all(user, time, out);
    }
}

impl FactoredScorer for ItcamModel {
    /// ITCAM's expanded space: `K1` user topics, one factor per
    /// interval (the interval's item multinomial), plus the background.
    fn num_factors(&self) -> usize {
        self.num_user_topics() + self.num_times() + 1
    }
    fn factor_items(&self, z: usize) -> &[f64] {
        let k1 = self.num_user_topics();
        if z < k1 {
            self.user_topic(z)
        } else if z < k1 + self.num_times() {
            self.temporal_context(TimeId::from(z - k1))
        } else {
            self.background()
        }
    }
    fn query_factors_into(&self, user: UserId, time: TimeId, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let lam = self.lambda(user);
        let lam_b = self.background_weight();
        let k1 = self.num_user_topics();
        out.extend(
            self.user_interest(user)
                .iter()
                .enumerate()
                .filter(|(_, &w)| w > 0.0)
                .map(|(z, &w)| (z, (1.0 - lam_b) * lam * w)),
        );
        out.push((k1 + time.index(), (1.0 - lam_b) * (1.0 - lam)));
        if lam_b > 0.0 {
            out.push((k1 + self.num_times(), lam_b));
        }
    }
}

impl TemporalScorer for TtcamModel {
    fn name(&self) -> &str {
        "TTCAM"
    }
    fn num_items(&self) -> usize {
        TtcamModel::num_items(self)
    }
    fn score(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        self.predict(user, time, item)
    }
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]) {
        self.predict_all(user, time, out);
    }
}

impl FactoredScorer for TtcamModel {
    /// TTCAM's expanded space is Eq. 21 — `K1 + K2` topic factors —
    /// plus one background factor (weight 0 in the paper's plain TCAM).
    fn num_factors(&self) -> usize {
        self.num_user_topics() + self.num_time_topics() + 1
    }
    fn factor_items(&self, z: usize) -> &[f64] {
        let k1 = self.num_user_topics();
        if z < k1 {
            self.user_topic(z)
        } else if z < k1 + self.num_time_topics() {
            self.time_topic(z - k1)
        } else {
            self.background()
        }
    }
    fn query_factors_into(&self, user: UserId, time: TimeId, out: &mut Vec<(usize, f64)>) {
        ttcam_factors_into(self, self.user_interest(user), self.lambda(user), time, out);
    }
}

/// TTCAM's `vartheta_q` for a user with interest `theta_u` = `interest`
/// and mixing weight `lambda`, the one layout fitted and folded users
/// share: `(1 - lambda_B) * lambda * theta_u[z]` for each `theta_u[z] >
/// 0`, then `(1 - lambda_B) * (1 - lambda) * theta'_t[x]` for each
/// `theta'_t[x] > 0`, then `lambda_B` on the background list when
/// `lambda_B > 0`.
fn ttcam_factors_into(
    model: &TtcamModel,
    interest: &[f64],
    lambda: f64,
    time: TimeId,
    out: &mut Vec<(usize, f64)>,
) {
    out.clear();
    let lam_b = model.background_weight();
    let k1 = model.num_user_topics();
    let k2 = model.num_time_topics();
    out.extend(
        interest
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0.0)
            .map(|(z, &w)| (z, (1.0 - lam_b) * lambda * w)),
    );
    out.extend(
        model
            .temporal_context(time)
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0.0)
            .map(|(x, &w)| (k1 + x, (1.0 - lam_b) * (1.0 - lambda) * w)),
    );
    if lam_b > 0.0 {
        out.push((k1 + k2, lam_b));
    }
}

/// Scores items for a user the model was not fitted on: the Eq. 1/12
/// mixture with folded user-side parameters (`tcam_core::foldin`, or
/// the serving snapshot's context-only prior) in place of fitted ones.
/// The `UserId` argument is ignored — the folded parameters *are* the
/// user. Its factors are TTCAM's, so the block-max kernel ranks folded
/// users over the same index as fitted ones.
#[derive(Debug, Clone, Copy)]
pub struct FoldedScorer<'a> {
    /// The corpus-side parameters.
    pub model: &'a TtcamModel,
    /// The user-side parameters to score with.
    pub folded: &'a FoldedUser,
}

impl TemporalScorer for FoldedScorer<'_> {
    fn name(&self) -> &str {
        "TTCAM (folded)"
    }
    fn num_items(&self) -> usize {
        self.model.num_items()
    }
    // tcam-lint: allow-fn(no-panic) -- `item` is a catalog index < V by the
    // TemporalScorer contract, matching every factor row's length
    fn score(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        let mut active = Vec::new();
        self.query_factors_into(user, time, &mut active);
        active.iter().map(|&(z, w)| w * self.factor_items(z)[item]).sum()
    }
    /// A full scan of every item; like [`Self::score`], in the kernels'
    /// own arithmetic.
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]) {
        let mut active = Vec::new();
        self.query_factors_into(user, time, &mut active);
        score_all_factored(self, &active, out);
    }
}

impl FactoredScorer for FoldedScorer<'_> {
    fn num_factors(&self) -> usize {
        self.model.num_factors()
    }
    fn factor_items(&self, z: usize) -> &[f64] {
        self.model.factor_items(z)
    }
    fn query_factors_into(&self, _user: UserId, time: TimeId, out: &mut Vec<(usize, f64)>) {
        ttcam_factors_into(self.model, &self.folded.interest, self.folded.lambda, time, out);
    }
}

// ---------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------

impl TemporalScorer for UserTopicModel {
    fn name(&self) -> &str {
        "UT"
    }
    fn num_items(&self) -> usize {
        UserTopicModel::num_items(self)
    }
    fn score(&self, user: UserId, _time: TimeId, item: usize) -> f64 {
        self.predict(user, item)
    }
    fn score_all(&self, user: UserId, _time: TimeId, out: &mut [f64]) {
        self.predict_all(user, out);
    }
}

impl TemporalScorer for TimeTopicModel {
    fn name(&self) -> &str {
        "TT"
    }
    fn num_items(&self) -> usize {
        TimeTopicModel::num_items(self)
    }
    fn score(&self, _user: UserId, time: TimeId, item: usize) -> f64 {
        self.predict(time, item)
    }
    fn score_all(&self, _user: UserId, time: TimeId, out: &mut [f64]) {
        self.predict_all(time, out);
    }
}

impl TemporalScorer for Bprmf {
    fn name(&self) -> &str {
        "BPRMF"
    }
    fn num_items(&self) -> usize {
        Bprmf::num_items(self)
    }
    fn score(&self, user: UserId, _time: TimeId, item: usize) -> f64 {
        self.predict(user, item)
    }
    fn score_all(&self, user: UserId, _time: TimeId, out: &mut [f64]) {
        self.predict_all(user, out);
    }
}

impl TemporalScorer for Bptf {
    fn name(&self) -> &str {
        "BPTF"
    }
    fn num_items(&self) -> usize {
        Bptf::num_items(self)
    }
    fn score(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        self.predict(user, time, item)
    }
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]) {
        self.predict_all(user, time, out);
    }
}

/// BPTF scored the way the paper describes it in Section 5.3.5 — "the
/// inner product of three vectors" per item, with no per-query
/// precomputation of `U ∘ T`. This is the comparator Figure 8 times;
/// [`Bptf::predict_all`] itself uses the obvious precomputation and is
/// roughly `3/2` as fast, which would understate the gap the paper
/// reports.
pub struct NaiveBptf<'a>(pub &'a Bptf);

impl TemporalScorer for NaiveBptf<'_> {
    fn name(&self) -> &str {
        "BPTF (naive scoring)"
    }
    fn num_items(&self) -> usize {
        self.0.num_items()
    }
    fn score(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        self.0.predict(user, time, item)
    }
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]) {
        for (v, o) in out.iter_mut().enumerate() {
            *o = self.0.predict(user, time, v);
        }
    }
}

impl TemporalScorer for MostPopular {
    fn name(&self) -> &str {
        "MostPopular"
    }
    fn num_items(&self) -> usize {
        MostPopular::num_items(self)
    }
    fn score(&self, _user: UserId, _time: TimeId, item: usize) -> f64 {
        self.predict(item)
    }
    fn score_all(&self, _user: UserId, _time: TimeId, out: &mut [f64]) {
        self.predict_all(out);
    }
}

impl TemporalScorer for TimePopular {
    fn name(&self) -> &str {
        "TimePopular"
    }
    fn num_items(&self) -> usize {
        TimePopular::num_items(self)
    }
    fn score(&self, _user: UserId, time: TimeId, item: usize) -> f64 {
        self.predict(time, item)
    }
    fn score_all(&self, _user: UserId, time: TimeId, out: &mut [f64]) {
        self.predict_all(time, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::{FitConfig, FoldInRating};
    use tcam_data::synth;

    #[test]
    fn factored_score_matches_temporal_score() {
        // The factor decomposition (Eq. 22) must reproduce the mixture
        // likelihood (Eq. 1) exactly, for both TCAM variants.
        let data = synth::SynthDataset::generate(synth::tiny(80)).unwrap();
        let config =
            FitConfig::default().with_user_topics(4).with_time_topics(3).with_iterations(5);
        let ttcam = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let itcam = ItcamModel::fit(&data.cuboid, &config).unwrap().model;

        let u = UserId(3);
        let t = TimeId(2);
        for v in 0..data.cuboid.num_items() {
            for (direct, via_factors) in [
                (TemporalScorer::score(&ttcam, u, t, v), factored_score(&ttcam, u, t, v)),
                (TemporalScorer::score(&itcam, u, t, v), factored_score(&itcam, u, t, v)),
            ] {
                assert!(
                    (direct - via_factors).abs() < 1e-12,
                    "direct {direct} vs factored {via_factors}"
                );
            }
        }
    }

    fn factors<S: FactoredScorer>(s: &S, u: UserId, t: TimeId) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        s.query_factors_into(u, t, &mut out);
        out
    }

    fn factored_score<S: FactoredScorer>(s: &S, u: UserId, t: TimeId, v: usize) -> f64 {
        factors(s, u, t).iter().map(|&(z, w)| w * s.factor_items(z)[v]).sum()
    }

    #[test]
    fn query_factors_into_clears_stale_contents() {
        let data = synth::SynthDataset::generate(synth::tiny(83)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(5)
            .with_background(0.1);
        let ttcam = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let itcam = ItcamModel::fit(&data.cuboid, &config).unwrap().model;
        let mut buf = vec![(0usize, 0.0f64); 3]; // stale contents must be cleared
        for u in 0..4 {
            for t in 0..4 {
                let (user, time) = (UserId(u), TimeId(t));
                ttcam.query_factors_into(user, time, &mut buf);
                assert_eq!(buf, factors(&ttcam, user, time));
                itcam.query_factors_into(user, time, &mut buf);
                assert_eq!(buf, factors(&itcam, user, time));
            }
        }
    }

    #[test]
    fn score_all_factored_matches_per_item_expansion() {
        let data = synth::SynthDataset::generate(synth::tiny(84)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(5)
            .with_background(0.2);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let (user, time) = (UserId(2), TimeId(1));
        let active = factors(&model, user, time);
        let mut dense = vec![f64::NAN; model.num_items()];
        score_all_factored(&model, &active, &mut dense);
        for (v, &got) in dense.iter().enumerate() {
            let expected = factored_score(&model, user, time, v);
            assert!((got - expected).abs() < 1e-12, "item {v}: {got} vs {expected}");
            let direct = TemporalScorer::score(&model, user, time, v);
            assert!((got - direct).abs() < 1e-12, "item {v}: {got} vs direct {direct}");
        }
    }

    #[test]
    fn query_factor_weights_sum_to_one() {
        // vartheta_q is a distribution over the expanded topic space.
        let data = synth::SynthDataset::generate(synth::tiny(81)).unwrap();
        let config =
            FitConfig::default().with_user_topics(4).with_time_topics(3).with_iterations(5);
        let ttcam = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let total: f64 = factors(&ttcam, UserId(0), TimeId(0)).iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn folded_scores_form_distribution() {
        let data = synth::SynthDataset::generate(synth::tiny(200)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(20)
            .with_seed(200);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let history: Vec<FoldInRating> = data
            .cuboid
            .user_entries(UserId(1))
            .iter()
            .map(|r| FoldInRating { time: r.time, item: r.item.index(), value: r.value })
            .collect();
        let folded = model.fold_in_user(&history, 10, 5.0);
        let mut scores = vec![0.0; model.num_items()];
        FoldedScorer { model: &model, folded: &folded }.score_all(
            UserId(0),
            TimeId(2),
            &mut scores,
        );
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn named_wrapper_relabels() {
        let data = synth::SynthDataset::generate(synth::tiny(82)).unwrap();
        let config =
            FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(2);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let named = Named::new("W-TTCAM", model);
        assert_eq!(named.name(), "W-TTCAM");
        assert_eq!(
            TemporalScorer::score(&named, UserId(0), TimeId(0), 1),
            TemporalScorer::score(named.inner(), UserId(0), TimeId(0), 1)
        );
    }
}
