//! New-user fold-in (an extension; DESIGN.md §8).
//!
//! A production recommender cannot refit TCAM every time a user signs
//! up. Folding in estimates just the *user-side* parameters — the
//! interest distribution `theta_u` and the mixing weight `lambda_u` —
//! for one new user by running the Eq. 4–8/11 EM updates with all
//! corpus-side parameters (`phi`, `theta'`, `phi'`, `theta_B`) frozen.
//! This is the classic PLSA fold-in, specialized to TCAM's two-source
//! mixture, and costs `O(iterations * |ratings| * (K1 + K2))`.

use crate::em::{next_lambda, user_e_step, Cell, Phi};
use crate::ttcam::TtcamModel;
use serde::{Deserialize, Serialize};
use tcam_data::TimeId;
use tcam_math::vecops;

/// One observed action of the user being folded in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FoldInRating {
    /// Interval of the action; intervals past the model's timeline
    /// clamp to its last one.
    pub time: TimeId,
    /// Item acted on; ids outside the catalog are skipped.
    pub item: usize,
    /// Nonnegative weight (1.0 for a plain action); negative or
    /// non-finite weights are skipped.
    pub value: f64,
}

/// User-side parameters estimated by fold-in.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FoldedUser {
    /// `P(z | theta_u)` over the model's K1 user-oriented topics.
    pub interest: Vec<f64>,
    /// The user's mixing weight `lambda_u`.
    pub lambda: f64,
}

/// Reusable buffers for [`TtcamModel::fold_in_user_into`]: the
/// sanitized session's E-step cells, their gathered `phi` rows and the
/// interest numerator, sized on first use.
#[derive(Debug, Clone, Default)]
pub struct FoldScratch {
    cells: Vec<Cell>,
    rows: Vec<f64>,
    theta_num: Vec<f64>,
}

impl TtcamModel {
    /// Estimates `theta_u` and `lambda_u` for a new user from their
    /// rating history, holding every corpus-side parameter fixed.
    ///
    /// `shrinkage` plays the same role as
    /// [`crate::FitConfig::lambda_shrinkage`] (pseudo-count toward the
    /// fitted population's mean lambda); pass 0 for the pure Eq. 11
    /// update. With no usable ratings the user gets the population's
    /// uniform prior (`theta_u` uniform, `lambda` = population mean).
    ///
    /// Session input comes from outside the program, so it is sanitized
    /// as documented on [`FoldInRating`]: the fold never panics and
    /// always returns `lambda` in [0, 1] (for `shrinkage >= 0`).
    pub fn fold_in_user(
        &self,
        ratings: &[FoldInRating],
        iterations: usize,
        shrinkage: f64,
    ) -> FoldedUser {
        let mut folded = FoldedUser::default();
        let mut scratch = FoldScratch::default();
        self.fold_in_user_into(ratings, iterations, shrinkage, &mut scratch, &mut folded);
        folded
    }

    /// [`Self::fold_in_user`] into buffers reused across calls, so a
    /// warm fold performs no heap allocation. Each iteration is the
    /// training E-step over the session with the corpus side frozen,
    /// then the user's Eq. 8 and Eq. 11 updates.
    // tcam-lint: hot
    pub fn fold_in_user_into(
        &self,
        ratings: &[FoldInRating],
        iterations: usize,
        shrinkage: f64,
        scratch: &mut FoldScratch,
        out: &mut FoldedUser,
    ) {
        let k1 = self.num_user_topics();
        let k2 = self.num_time_topics();
        let last = TimeId(self.num_times().saturating_sub(1) as u32);
        let FoldScratch { cells, rows, theta_num } = scratch;
        cells.clear();
        rows.clear();
        let usable =
            |r: &&FoldInRating| r.item < self.num_items() && r.value.is_finite() && r.value >= 0.0;
        for r in ratings.iter().filter(usable) {
            // Context likelihoods P(v | theta'_t) are fixed; compute one
            // per rating.
            let theta_t = self.temporal_context(r.time.min(last));
            let context = (0..k2).map(|x| theta_t[x] * self.time_topic(x)[r.item]).sum();
            let background = self.background()[r.item];
            cells.push(Cell { row: cells.len(), c: r.value, context, background });
            // Gather each rated item's K1-wide topic row once; the
            // corpus-side phi is frozen during fold-in, so every
            // iteration streams contiguous rows instead of striding
            // across topics.
            rows.extend((0..k1).map(|z| self.user_topic(z)[r.item]));
        }
        let population_lambda = if self.lambdas().is_empty() {
            0.5
        } else {
            self.lambdas().iter().sum::<f64>() / self.lambdas().len() as f64
        };
        out.interest.clear();
        out.interest.resize(k1, 1.0 / k1 as f64);
        out.lambda = population_lambda;
        if cells.is_empty() {
            return;
        }

        let lam_b = self.background_weight();
        for _ in 0..iterations.max(1) {
            theta_num.clear();
            theta_num.resize(k1, 0.0);
            let cells = cells.iter().copied();
            let phi = Phi::Frozen(rows);
            let (lambda_num, mass, _) =
                user_e_step(&out.interest, out.lambda, lam_b, cells, phi, theta_num, |_, _, _| {});
            out.interest.copy_from_slice(theta_num);
            vecops::normalize_in_place(&mut out.interest);
            out.lambda = next_lambda(out.lambda, shrinkage, population_lambda, lambda_num, mass);
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

    /// The sanitized-fold contract: `lambda` in [0, 1] and `interest` a
    /// distribution, at both shrinkage settings. Returns both folds.
    fn valid_folds(model: &TtcamModel, history: &[FoldInRating]) -> [FoldedUser; 2] {
        [0.0, 1.0].map(|shrinkage| {
            let folded = model.fold_in_user(history, 15, shrinkage);
            assert!((0.0..=1.0).contains(&folded.lambda), "lambda {}", folded.lambda);
            assert!(tcam_math::vecops::is_distribution(&folded.interest, 1e-9));
            folded
        })
    }

    fn rating(time: u32, item: usize, value: f64) -> FoldInRating {
        FoldInRating { time: TimeId(time), item, value }
    }

    #[test]
    fn out_of_catalog_items_are_skipped() {
        let (_, model) = fitted();
        let v = model.num_items();
        let kept = [rating(0, 1, 1.0)];
        let history = [kept[0], rating(0, v, 1.0), rating(1, usize::MAX, 2.0)];
        assert_eq!(valid_folds(&model, &history), valid_folds(&model, &kept));
        assert_eq!(valid_folds(&model, &history[1..]), valid_folds(&model, &[]));
    }

    #[test]
    fn future_times_clamp_to_the_last_interval() {
        let (_, model) = fitted();
        let t = model.num_times() as u32;
        let future = [rating(t, 2, 1.0), rating(u32::MAX, 3, 1.0)];
        let clamped = [rating(t - 1, 2, 1.0), rating(t - 1, 3, 1.0)];
        assert_eq!(valid_folds(&model, &future), valid_folds(&model, &clamped));
    }

    #[test]
    fn negative_and_non_finite_values_are_skipped() {
        let (_, model) = fitted();
        let kept = [rating(0, 0, 1.0)];
        // Unchecked, the negative weight folds to lambda = -29.06.
        let history = [kept[0], rating(1, 1, -0.9)];
        assert_eq!(valid_folds(&model, &history), valid_folds(&model, &kept));
        let history = [kept[0], rating(1, 1, f64::NAN), rating(1, 2, f64::INFINITY)];
        assert_eq!(valid_folds(&model, &history), valid_folds(&model, &kept));
    }

    #[test]
    fn huge_weights_keep_lambda_finite() {
        // Each responsibility is finite, but their sums overflow to inf.
        let (_, model) = fitted();
        let history = vec![rating(0, 0, 1e306); 2000];
        valid_folds(&model, &history);
    }

    #[test]
    fn reused_scratch_matches_fresh_folds_bitwise() {
        // One scratch and one output across sessions that shrink, empty
        // and turn unusable: any buffer content left over from an
        // earlier session would change a later fold.
        let (data, model) = fitted();
        let v = model.num_items();
        let long: Vec<FoldInRating> = data
            .cuboid
            .entries()
            .iter()
            .take(40)
            .map(|r| FoldInRating { time: r.time, item: r.item.index(), value: r.value })
            .collect();
        let skipped = [rating(0, v, 1.0), rating(1, usize::MAX, 2.0)];
        let sessions: [&[FoldInRating]; 5] = [&long, &long[..3], &[], &skipped, &long[5..9]];
        let bits = |f: &FoldedUser| {
            (f.interest.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), f.lambda.to_bits())
        };
        let mut scratch = FoldScratch::default();
        let mut out = FoldedUser::default();
        for shrinkage in [0.0, 1.0] {
            for session in sessions {
                model.fold_in_user_into(session, 15, shrinkage, &mut scratch, &mut out);
                let fresh = model.fold_in_user(session, 15, shrinkage);
                assert_eq!(bits(&out), bits(&fresh), "session of {} ratings", session.len());
            }
        }
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
