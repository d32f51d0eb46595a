//! New-user fold-in (an extension; DESIGN.md §8).
//!
//! A production recommender cannot refit TCAM every time a user signs
//! up. Folding in estimates just the *user-side* parameters — the
//! interest distribution `theta_u` and the mixing weight `lambda_u` —
//! for one new user by running the Eq. 4–8/11 EM updates with all
//! corpus-side parameters (`phi`, `theta'`, `phi'`, `theta_B`) frozen.
//! This is the classic PLSA fold-in, specialized to TCAM's two-source
//! mixture, and costs `O(iterations * |ratings| * (K1 + K2))`.

use crate::ttcam::TtcamModel;
use serde::{Deserialize, Serialize};
use tcam_data::TimeId;
use tcam_math::vecops;

/// One observed action of the user being folded in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FoldInRating {
    /// Interval of the action (must be within the model's timeline).
    pub time: TimeId,
    /// Item acted on.
    pub item: usize,
    /// Nonnegative weight (1.0 for a plain action).
    pub value: f64,
}

/// User-side parameters estimated by fold-in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldedUser {
    /// `P(z | theta_u)` over the model's K1 user-oriented topics.
    pub interest: Vec<f64>,
    /// The user's mixing weight `lambda_u`.
    pub lambda: f64,
}

impl TtcamModel {
    /// Estimates `theta_u` and `lambda_u` for a new user from their
    /// rating history, holding every corpus-side parameter fixed.
    ///
    /// `shrinkage` plays the same role as
    /// [`crate::FitConfig::lambda_shrinkage`] (pseudo-count toward the
    /// fitted population's mean lambda); pass 0 for the pure Eq. 11
    /// update. With no ratings the user gets the population's uniform
    /// prior (`theta_u` uniform, `lambda` = population mean).
    pub fn fold_in_user(
        &self,
        ratings: &[FoldInRating],
        iterations: usize,
        shrinkage: f64,
    ) -> FoldedUser {
        let k1 = self.num_user_topics();
        let k2 = self.num_time_topics();
        let population_lambda = if self.lambdas().is_empty() {
            0.5
        } else {
            self.lambdas().iter().sum::<f64>() / self.lambdas().len() as f64
        };
        let mut interest = vec![1.0 / k1 as f64; k1];
        let mut lambda = population_lambda;
        if ratings.is_empty() {
            return FoldedUser { interest, lambda };
        }

        // Context likelihoods P(v | theta'_t) are fixed; precompute one
        // per rating.
        let context: Vec<f64> = ratings
            .iter()
            .map(|r| {
                let theta_t = self.temporal_context(r.time);
                (0..k2).map(|x| theta_t[x] * self.time_topic(x)[r.item]).sum()
            })
            .collect();
        let lam_b = self.background_weight();
        let bg: Vec<f64> = ratings.iter().map(|r| self.background()[r.item]).collect();

        // Gather each rated item's K1-wide topic row once; the
        // corpus-side phi is frozen during fold-in, so every iteration
        // streams contiguous rows instead of striding across topics.
        let mut item_rows = vec![0.0; ratings.len() * k1];
        for (row, r) in item_rows.chunks_exact_mut(k1).zip(ratings.iter()) {
            for (z, slot) in row.iter_mut().enumerate() {
                *slot = self.user_topic(z)[r.item];
            }
        }

        let mut a = vec![0.0; k1];
        for _ in 0..iterations.max(1) {
            let mut theta_num = vec![0.0; k1];
            let mut lambda_num = 0.0;
            let mut mass = 0.0;
            // Same per-user hoisting and one-division cancellation as
            // the training E-step (`lambda` is constant within an
            // iteration).
            let w1 = (1.0 - lam_b) * lambda;
            let w0 = (1.0 - lam_b) * (1.0 - lambda);
            for ((i, r), row) in ratings.iter().enumerate().zip(item_rows.chunks_exact(k1)) {
                let a_sum = vecops::mul_store_sum(&mut a, &interest, row);
                let p1 = w1 * a_sum;
                let p0 = w0 * context[i];
                let denom = lam_b * bg[i] + p1 + p0;
                let Some(inv) = crate::em::responsibility(r.value, denom) else {
                    continue;
                };
                if a_sum > 0.0 {
                    vecops::scaled_add(&mut theta_num, &a, inv * w1);
                }
                lambda_num += inv * p1;
                mass += inv * (p1 + p0);
            }
            interest.copy_from_slice(&theta_num);
            vecops::normalize_in_place(&mut interest);
            if mass > 0.0 || shrinkage > 0.0 {
                lambda = (shrinkage * population_lambda + lambda_num) / (shrinkage + mass);
            }
        }
        FoldedUser { interest, lambda }
    }

    /// Scores all items for a folded-in user at interval `t` — the
    /// Eq. 1/12 likelihood with the folded user-side parameters.
    pub fn predict_all_folded(&self, user: &FoldedUser, time: TimeId, scores: &mut [f64]) {
        assert_eq!(scores.len(), self.num_items());
        scores.fill(0.0);
        for (z, &w) in user.interest.iter().enumerate() {
            let weight = user.lambda * w;
            if weight > 0.0 {
                vecops::scaled_add(scores, self.user_topic(z), weight);
            }
        }
        let theta_t = self.temporal_context(time);
        for x in 0..self.num_time_topics() {
            let weight = (1.0 - user.lambda) * theta_t[x];
            if weight > 0.0 {
                vecops::scaled_add(scores, self.time_topic(x), weight);
            }
        }
        let lam_b = self.background_weight();
        if lam_b > 0.0 {
            for s in scores.iter_mut() {
                *s *= 1.0 - lam_b;
            }
            vecops::scaled_add(scores, self.background(), lam_b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FitConfig;
    use tcam_data::{synth, UserId};

    fn fitted() -> (tcam_data::SynthDataset, TtcamModel) {
        let data = synth::SynthDataset::generate(synth::tiny(200)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(20)
            .with_seed(200);
        (data.clone(), TtcamModel::fit(&data.cuboid, &config).unwrap().model)
    }

    #[test]
    fn empty_history_gets_population_prior() {
        let (_, model) = fitted();
        let folded = model.fold_in_user(&[], 10, 0.0);
        assert!((folded.interest.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let population = model.lambdas().iter().sum::<f64>() / model.lambdas().len() as f64;
        assert!((folded.lambda - population).abs() < 1e-12);
    }

    #[test]
    fn fold_in_parameters_are_valid() {
        let (data, model) = fitted();
        let history: Vec<FoldInRating> = data
            .cuboid
            .user_entries(UserId(0))
            .iter()
            .map(|r| FoldInRating { time: r.time, item: r.item.index(), value: r.value })
            .collect();
        let folded = model.fold_in_user(&history, 15, 0.0);
        assert!(tcam_math::vecops::is_distribution(&folded.interest, 1e-9));
        assert!((0.0..=1.0).contains(&folded.lambda));
    }

    #[test]
    fn fold_in_approximates_joint_fit() {
        // Folding an *existing* user's history back in should land near
        // the jointly-fitted parameters for that user.
        let (data, model) = fitted();
        let mut agree = 0usize;
        let mut total = 0usize;
        for u in 0..20u32 {
            let uid = UserId(u);
            let history: Vec<FoldInRating> = data
                .cuboid
                .user_entries(uid)
                .iter()
                .map(|r| FoldInRating { time: r.time, item: r.item.index(), value: r.value })
                .collect();
            if history.is_empty() {
                continue;
            }
            let folded = model.fold_in_user(&history, 30, 0.0);
            let joint_top = tcam_math::vecops::argmax(model.user_interest(uid)).unwrap();
            let folded_top = tcam_math::vecops::argmax(&folded.interest).unwrap();
            if joint_top == folded_top {
                agree += 1;
            }
            total += 1;
        }
        assert!(
            agree * 3 >= total * 2,
            "folded dominant topic should match the joint fit for most users \
             ({agree}/{total})"
        );
    }

    #[test]
    fn folded_scores_form_distribution() {
        let (data, model) = fitted();
        let history: Vec<FoldInRating> = data
            .cuboid
            .user_entries(UserId(1))
            .iter()
            .map(|r| FoldInRating { time: r.time, item: r.item.index(), value: r.value })
            .collect();
        let folded = model.fold_in_user(&history, 10, 5.0);
        let mut scores = vec![0.0; model.num_items()];
        model.predict_all_folded(&folded, tcam_data::TimeId(2), &mut scores);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn fold_in_learns_interest_direction() {
        // A synthetic history drawn purely from one fitted topic should
        // fold to an interest distribution dominated by that topic.
        let (_, model) = fitted();
        let z_target = 1usize;
        let top = crate::inspect::top_items(model.user_topic(z_target), 5);
        let history: Vec<FoldInRating> = top
            .iter()
            .map(|(item, _)| FoldInRating {
                time: tcam_data::TimeId(0),
                item: item.index(),
                value: 3.0,
            })
            .collect();
        let folded = model.fold_in_user(&history, 30, 0.0);
        let top_topic = tcam_math::vecops::argmax(&folded.interest).unwrap();
        assert_eq!(
            top_topic, z_target,
            "interest should concentrate on the topic the history came from: {:?}",
            folded.interest
        );
    }
}
