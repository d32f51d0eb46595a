//! The pruned query kernels (classic Threshold Algorithm and block-max)
//! must return *exactly* the brute-force top-k — same item ids at every
//! rank (ties are deterministic: ascending id) and same scores to
//! 1e-10 — for every query, every k, and both TCAM variants. This is
//! the correctness claim behind the paper's Section 4.2 efficiency
//! numbers.

use tcam::prelude::*;
use tcam::rec::brute_force_top_k;
use tcam::rec::ta::QueryScratch;
use tcam::rec::TaResult;

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

fn assert_exact_match(
    kernel: &[tcam::math::topk::Scored],
    bf: &[tcam::math::topk::Scored],
    label: &str,
    detail: &str,
) {
    assert_eq!(kernel.len(), bf.len(), "{label}: result size ({detail})");
    for (i, (a, b)) in kernel.iter().zip(bf.iter()).enumerate() {
        assert_eq!(
            a.index, b.index,
            "{label}: rank {i} item {} vs {} ({detail})",
            a.index, b.index
        );
        assert!(
            (a.score - b.score).abs() < 1e-10,
            "{label}: rank {i} score {} vs {} ({detail})",
            a.score,
            b.score
        );
    }
}

fn check_equivalence<S>(model: &S, num_users: usize, num_times: usize, label: &str)
where
    S: FactoredScorer,
{
    let index = TaIndex::build(model);
    let mut buffer = vec![0.0; model.num_items()];
    let mut scratch = QueryScratch::new();
    let mut total_examined = 0usize;
    let mut queries = 0usize;
    for u in (0..num_users).step_by(7) {
        for t in (0..num_times).step_by(3) {
            let (user, time) = (UserId::from(u), TimeId::from(t));
            for k in [1usize, 3, 5, 10, 50] {
                let detail = format!("u{u}, t{t}, k{k}");
                let bf = brute_force_top_k(model, user, time, k, &mut buffer);
                let [blockmax, classic] = both_kernels(&index, model, user, time, k, &mut scratch);
                assert_exact_match(&blockmax.items, &bf, label, &detail);
                assert_exact_match(&classic.items, &bf, label, &detail);
                total_examined += blockmax.items_examined;
                queries += 1;
            }
        }
    }
    let avg = total_examined as f64 / queries as f64;
    eprintln!(
        "{label}: avg items examined {avg:.0} of {} ({} queries)",
        model.num_items(),
        queries
    );
}

#[test]
fn ta_equals_brute_force_across_seeds_ttcam() {
    for seed in [1u64, 2, 3] {
        let data = SynthDataset::generate(tcam::data::synth::tiny(seed)).expect("gen");
        let config = FitConfig::default()
            .with_user_topics(5)
            .with_time_topics(4)
            .with_iterations(10)
            .with_seed(seed);
        let model = TtcamModel::fit(&data.cuboid, &config).expect("fit").model;
        check_equivalence(
            &model,
            data.cuboid.num_users(),
            data.cuboid.num_times(),
            &format!("TTCAM seed {seed}"),
        );
    }
}

#[test]
fn ta_equals_brute_force_across_seeds_itcam() {
    for seed in [4u64, 5] {
        let data = SynthDataset::generate(tcam::data::synth::tiny(seed)).expect("gen");
        let config = FitConfig::default().with_user_topics(5).with_iterations(10).with_seed(seed);
        let model = ItcamModel::fit(&data.cuboid, &config).expect("fit").model;
        check_equivalence(
            &model,
            data.cuboid.num_users(),
            data.cuboid.num_times(),
            &format!("ITCAM seed {seed}"),
        );
    }
}

#[test]
fn ta_equals_brute_force_on_weighted_model() {
    let data = SynthDataset::generate(tcam::data::synth::tiny(6)).expect("gen");
    let weighted = ItemWeighting::compute(&data.cuboid).apply(&data.cuboid);
    let config = FitConfig::default()
        .with_user_topics(5)
        .with_time_topics(4)
        .with_iterations(10)
        .with_seed(6);
    let model = TtcamModel::fit(&weighted, &config).expect("fit").model;
    check_equivalence(&model, data.cuboid.num_users(), data.cuboid.num_times(), "W-TTCAM");
}

#[test]
fn ta_saves_work_on_larger_catalog() {
    // The efficiency claim in miniature: on a douban-like catalog, the
    // block-max kernel must examine well under the full catalog on
    // average for small k, and actually skip blocks while doing it.
    let data = SynthDataset::generate(tcam::data::synth::douban_like(0.2, 7)).expect("gen");
    let config = FitConfig::default()
        .with_user_topics(10)
        .with_time_topics(6)
        .with_iterations(5)
        .with_threads(2)
        .with_seed(7);
    let model = TtcamModel::fit(&data.cuboid, &config).expect("fit").model;
    let index = TaIndex::build_with_threads(&model, 2);
    let (mut scratch, mut out) = (QueryScratch::new(), Vec::new());
    let mut total = 0usize;
    let mut skipped = 0usize;
    let n = 50;
    for i in 0..n {
        let user = UserId::from((i * 13) % data.cuboid.num_users());
        let time = TimeId::from(i % data.cuboid.num_times());
        let result = index.top_k_into(&model, user, time, 10, &mut scratch, &mut out);
        total += result.items_examined;
        skipped += result.blocks_skipped;
    }
    let avg = total as f64 / n as f64;
    let catalog = model.num_items() as f64;
    eprintln!("avg examined: {avg:.0} of {catalog:.0}; blocks skipped: {skipped}");
    assert!(
        avg < 0.5 * catalog,
        "block-max should examine < 50% of the catalog on average, got {avg:.0}/{catalog:.0}"
    );
    assert!(skipped > 0, "block-max should skip blocks at k=10 on {catalog:.0} items");
}

// ---------------------------------------------------------------------
// Property: the kernels ≡ brute force under the transforms the
// fixed-seed tests above do not randomize together — item weighting
// (the W-ITCAM / W-TTCAM training transform of Section 3.3) combined
// with a nonzero background weight lambda_B, which adds a dense factor
// to every query's expansion (Eq. 21) and is exactly the kind of change
// that could silently break the Eq. 23 threshold bound.
// ---------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ta_equals_brute_force_weighted_with_background(
        seed in 0u64..10_000,
        k in 1usize..12,
        lambda_b in 0.01f64..0.4,
    ) {
        let mut cfg = tcam::data::synth::tiny(seed);
        cfg.num_users = 30;
        cfg.num_items = 35;
        cfg.num_intervals = 4;
        let data = SynthDataset::generate(cfg).unwrap();
        let weighted = ItemWeighting::compute(&data.cuboid).apply(&data.cuboid);
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(6)
            .with_background(lambda_b)
            .with_seed(seed);

        let wttcam = TtcamModel::fit(&weighted, &config).unwrap().model;
        let witcam = ItcamModel::fit(&weighted, &config).unwrap().model;
        prop_assert!(wttcam.background_weight() > 0.0);

        let tt_index = TaIndex::build(&wttcam);
        let it_index = TaIndex::build(&witcam);
        let mut buffer = vec![0.0; weighted.num_items()];
        let mut scratch = QueryScratch::new();
        for u in (0..weighted.num_users()).step_by(5) {
            for t in 0..weighted.num_times() {
                let (user, time) = (UserId::from(u), TimeId::from(t));
                let bf = brute_force_top_k(&wttcam, user, time, k, &mut buffer);
                for result in both_kernels(&tt_index, &wttcam, user, time, k, &mut scratch) {
                    prop_assert_eq!(result.items.len(), bf.len());
                    for (a, b) in result.items.iter().zip(bf.iter()) {
                        prop_assert_eq!(a.index, b.index);
                        prop_assert!(
                            (a.score - b.score).abs() < 1e-10,
                            "W-TTCAM (lambda_B={}): {} vs {}", lambda_b, a.score, b.score
                        );
                    }
                }
                let bf = brute_force_top_k(&witcam, user, time, k, &mut buffer);
                for result in both_kernels(&it_index, &witcam, user, time, k, &mut scratch) {
                    prop_assert_eq!(result.items.len(), bf.len());
                    for (a, b) in result.items.iter().zip(bf.iter()) {
                        prop_assert_eq!(a.index, b.index);
                        prop_assert!(
                            (a.score - b.score).abs() < 1e-10,
                            "W-ITCAM (lambda_B={}): {} vs {}", lambda_b, a.score, b.score
                        );
                    }
                }
            }
        }
    }
}
