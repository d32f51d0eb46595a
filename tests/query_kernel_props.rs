//! Property tests for the query kernels.
//!
//! First against a *synthetic* factored scorer with adversarial weight
//! structure the fitted models rarely produce: heavy duplicate/tied
//! item weights, zero query weights, single-factor queries, and
//! catalogs that straddle block boundaries. Weights are drawn from the
//! dyadic grid {0, 1/8, ..., 1}, so every product and partial sum is
//! exactly representable in an f64 — scores that tie do so *exactly* in
//! every summation order, which makes outright item-id comparison
//! against brute force meaningful (the deterministic tie-break must
//! hold, not just score closeness).
//!
//! Then against a fitted TTCAM for every kind of query the serving
//! engine ranks: fitted users, and folded users (the cold-start prior,
//! pure-interest and random mixtures) through [`FoldedScorer`].

use std::sync::OnceLock;
use tcam::core::{FitConfig, FoldedUser, TtcamModel};
use tcam::data::{synth, SynthDataset, TimeId, UserId};
use tcam::math::topk::Scored;
use tcam::math::{vecops, Pcg64};
use tcam::rec::ta::{brute_force_top_k, QueryScratch, TaIndex};
use tcam::rec::{FactoredScorer, FoldedScorer, TaResult, TemporalScorer};

/// A factored scorer whose weights live on the dyadic grid; `user` and
/// `time` are ignored — one instance is one query.
struct GridScorer {
    num_items: usize,
    /// `factors[z][v]` on the grid `{0, 1/8, ..., 1}`.
    factors: Vec<Vec<f64>>,
    /// Query weights per factor, same grid (zeros included on purpose).
    query: Vec<f64>,
}

impl GridScorer {
    fn random(num_items: usize, num_factors: usize, seed: u64, zero_mask: u32) -> Self {
        let mut rng = Pcg64::new(seed);
        let grid = |rng: &mut Pcg64| (rng.gen_range(9) as f64) / 8.0;
        let factors =
            (0..num_factors).map(|_| (0..num_items).map(|_| grid(&mut rng)).collect()).collect();
        let query = (0..num_factors)
            .map(|z| if zero_mask & (1 << z) != 0 { 0.0 } else { grid(&mut rng) })
            .collect();
        GridScorer { num_items, factors, query }
    }
}

impl TemporalScorer for GridScorer {
    fn name(&self) -> &str {
        "grid"
    }
    fn num_items(&self) -> usize {
        self.num_items
    }
    fn score(&self, _user: UserId, _time: TimeId, item: usize) -> f64 {
        self.query.iter().zip(self.factors.iter()).map(|(&w, phi)| w * phi[item]).sum()
    }
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]) {
        // Deliberately a per-item gather-dot — a *different* summation
        // order than the kernels' factor-major accumulation. Exact on
        // the dyadic grid, so ids must still match outright.
        for (item, slot) in out.iter_mut().enumerate() {
            *slot = self.score(user, time, item);
        }
    }
}

impl FactoredScorer for GridScorer {
    fn num_factors(&self) -> usize {
        self.factors.len()
    }
    fn factor_items(&self, z: usize) -> &[f64] {
        &self.factors[z]
    }
    fn query_factors_into(&self, _user: UserId, _time: TimeId, out: &mut Vec<(usize, f64)>) {
        // Zero weights included: the kernels must tolerate them.
        out.clear();
        out.extend(self.query.iter().enumerate().map(|(z, &w)| (z, w)));
    }
}

/// Both pruned kernels on one shared scratch: `[block-max, classic]`.
fn both_kernels<S: FactoredScorer>(
    index: &TaIndex,
    scorer: &S,
    user: UserId,
    time: TimeId,
    k: usize,
    scratch: &mut QueryScratch,
) -> [TaResult; 2] {
    let (mut blockmax, mut classic) = (Vec::new(), Vec::new());
    let blockmax_work = index.top_k_into(scorer, user, time, k, scratch, &mut blockmax);
    let classic_work = index.top_k_classic_into(scorer, user, time, k, scratch, &mut classic);
    [blockmax_work.with_items(blockmax), classic_work.with_items(classic)]
}

/// A fitted TTCAM over a four-block catalog, without and with a
/// background weight, each with its index; fitted once for all cases.
fn fitted_models() -> &'static [(TtcamModel, TaIndex); 2] {
    static MODELS: OnceLock<[(TtcamModel, TaIndex); 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        let mut cfg = synth::tiny(61);
        cfg.num_items = 200;
        let data = SynthDataset::generate(cfg).unwrap();
        [0.0, 0.2].map(|lambda_b| {
            let config = FitConfig::default()
                .with_user_topics(4)
                .with_time_topics(3)
                .with_iterations(6)
                .with_background(lambda_b)
                .with_seed(61);
            let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
            let index = TaIndex::build(&model);
            (model, index)
        })
    })
}

fn bits(items: &[Scored]) -> Vec<(usize, u64)> {
    items.iter().map(|s| (s.index, s.score.to_bits())).collect()
}

fn assert_ids_and_scores_equal(kernel: &[Scored], bf: &[Scored], label: &str) {
    assert_eq!(kernel.len(), bf.len(), "{label}: size");
    for (rank, (a, b)) in kernel.iter().zip(bf.iter()).enumerate() {
        assert_eq!(a.index, b.index, "{label}: rank {rank} item {} vs {}", a.index, b.index);
        assert!(
            (a.score - b.score).abs() < 1e-10,
            "{label}: rank {rank} score {} vs {}",
            a.score,
            b.score
        );
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both kernels == brute force, item ids compared outright, across
    /// random dyadic weight matrices. `num_items` spans sub-block
    /// catalogs (< 64) through multi-block ones; `zero_mask` knocks out
    /// query weights (sometimes all of them); `num_factors = 1`
    /// exercises single-factor queries; large `k` relative to the
    /// catalog exercises the dense fallback.
    #[test]
    fn kernels_equal_brute_force_on_grid_weights(
        num_items in 1usize..300,
        num_factors in 1usize..6,
        k in 0usize..24,
        seed in 0u64..1_000_000,
        zero_mask in 0u32..64,
    ) {
        let scorer = GridScorer::random(num_items, num_factors, seed, zero_mask);
        let index = TaIndex::build(&scorer);
        let mut buffer = vec![0.0; num_items];
        let mut scratch = QueryScratch::new();
        let (user, time) = (UserId(0), TimeId(0));

        let bf = brute_force_top_k(&scorer, user, time, k, &mut buffer);
        let [blockmax, classic] = both_kernels(&index, &scorer, user, time, k, &mut scratch);
        assert_ids_and_scores_equal(&blockmax.items, &bf, "block-max");
        assert_ids_and_scores_equal(&classic.items, &bf, "classic TA");
        prop_assert!(blockmax.items_examined <= num_items);
        prop_assert!(blockmax.blocks_skipped <= index.num_blocks());
    }

    /// Tied weights en masse: a two-valued weight grid makes most items
    /// exact score duplicates, so any nondeterministic tie handling in
    /// either kernel (or the heap) shows up as an id mismatch.
    #[test]
    fn kernels_break_massive_ties_by_item_id(
        num_items in 2usize..200,
        k in 1usize..16,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Pcg64::new(seed);
        let factors: Vec<Vec<f64>> = vec![
            (0..num_items).map(|_| if rng.gen_range(2) == 0 { 0.5 } else { 1.0 }).collect(),
            vec![0.25; num_items],
        ];
        let scorer = GridScorer { num_items, factors, query: vec![1.0, 0.5] };
        let index = TaIndex::build(&scorer);
        let mut buffer = vec![0.0; num_items];
        let mut scratch = QueryScratch::new();
        let (user, time) = (UserId(0), TimeId(0));

        let bf = brute_force_top_k(&scorer, user, time, k, &mut buffer);
        // Ties resolve to the ascending-id prefix within each score class.
        for pair in bf.windows(2) {
            prop_assert!(
                pair[0].score > pair[1].score
                    || (pair[0].score == pair[1].score && pair[0].index < pair[1].index)
            );
        }
        let [blockmax, classic] = both_kernels(&index, &scorer, user, time, k, &mut scratch);
        assert_ids_and_scores_equal(&blockmax.items, &bf, "block-max/ties");
        assert_ids_and_scores_equal(&classic.items, &bf, "classic/ties");
    }

    /// Folded users rank through the kernels exactly as brute force
    /// does, item ids compared outright: `lambda` is 0 (the cold-start
    /// prior), 1 or random; the interest has zero entries; `k` runs
    /// from 0 through small values to the whole catalog and past it.
    /// `FoldedScorer::score_all` shares the kernels' arithmetic, so
    /// scores agree bitwise too.
    #[test]
    fn folded_users_equal_brute_force(
        background in 0usize..2,
        lambda_kind in 0usize..3,
        lambda_draw in 0.0f64..1.0,
        interest in prop::collection::vec(0usize..3, 4..5),
        time in 0usize..64,
        k_draw in 0usize..48,
    ) {
        let (model, index) = &fitted_models()[background];
        let lambda = [0.0, 1.0, lambda_draw][lambda_kind];
        let mut interest: Vec<f64> = interest.iter().map(|&w| w as f64).collect();
        vecops::normalize_in_place(&mut interest);
        let folded = FoldedUser { interest, lambda };
        let scorer = FoldedScorer { model, folded: &folded };
        let v = model.num_items();
        let k = if k_draw < 40 { k_draw } else { v + k_draw - 40 };
        let (user, time) = (UserId(0), TimeId::from(time % model.num_times()));

        let mut buffer = vec![0.0; v];
        let bf = brute_force_top_k(&scorer, user, time, k, &mut buffer);
        prop_assert_eq!(bf.len(), k.min(v));
        let mut scratch = QueryScratch::new();
        let [blockmax, classic] = both_kernels(index, &scorer, user, time, k, &mut scratch);
        prop_assert_eq!(bits(&blockmax.items), bits(&bf));
        prop_assert_eq!(bits(&classic.items), bits(&bf));
        prop_assert!(blockmax.items_examined <= v);
    }
}

/// A `FoldedUser` holding a fitted user's own `theta_u` and `lambda_u`
/// is that user: the same query factors and the same top-k, bit for
/// bit, as the fitted path.
#[test]
fn folded_copy_of_a_fitted_user_is_bitwise_the_fitted_path() {
    let factor_bits =
        |f: &[(usize, f64)]| f.iter().map(|&(z, w)| (z, w.to_bits())).collect::<Vec<_>>();
    for (model, index) in fitted_models() {
        let mut scratch = QueryScratch::new();
        let (mut fitted_factors, mut folded_factors) = (Vec::new(), Vec::new());
        let (mut fitted_top, mut folded_top) = (Vec::new(), Vec::new());
        for u in (0..model.num_users()).step_by(3) {
            let user = UserId::from(u);
            let folded = FoldedUser {
                interest: model.user_interest(user).to_vec(),
                lambda: model.lambda(user),
            };
            let scorer = FoldedScorer { model, folded: &folded };
            for t in 0..model.num_times() {
                let time = TimeId::from(t);
                model.query_factors_into(user, time, &mut fitted_factors);
                scorer.query_factors_into(user, time, &mut folded_factors);
                assert_eq!(factor_bits(&fitted_factors), factor_bits(&folded_factors));
                for k in [1, 10, model.num_items()] {
                    index.top_k_into(model, user, time, k, &mut scratch, &mut fitted_top);
                    index.top_k_into(&scorer, user, time, k, &mut scratch, &mut folded_top);
                    assert_eq!(bits(&fitted_top), bits(&folded_top), "u{u} t{t} k{k}");
                }
            }
        }
    }
}
