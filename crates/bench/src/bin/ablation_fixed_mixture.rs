//! **Ablation (DESIGN.md §8)**: a fixed global mixture of fitted UT and
//! TT scores, swept over the mixing weight. Shows (a) that mixing the
//! two signals beats either alone — TCAM's core premise — and (b) the
//! value of TCAM's *personalized* lambda over any fixed global weight.
//!
//! Usage: `cargo run --release -p tcam-bench --bin ablation_fixed_mixture
//!         [scale=0.2 seed=3]`

use tcam_baselines::{TimeTopicModel, TtConfig, UserTopicModel, UtConfig};
use tcam_bench::Args;
use tcam_data::{synth, train_test_split, TimeId, UserId};
use tcam_math::Pcg64;
use tcam_rec::{evaluate, EvalConfig, TemporalScorer};

struct Mix<'a> {
    ut: &'a UserTopicModel,
    tt: &'a TimeTopicModel,
    w: f64,
    label: String,
}

impl TemporalScorer for Mix<'_> {
    fn name(&self) -> &str {
        &self.label
    }
    fn num_items(&self) -> usize {
        self.ut.num_items()
    }
    fn score(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        self.w * self.ut.predict(user, item) + (1.0 - self.w) * self.tt.predict(time, item)
    }
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]) {
        let mut tmp = vec![0.0; out.len()];
        self.ut.predict_all(user, out);
        for o in out.iter_mut() {
            *o *= self.w;
        }
        self.tt.predict_all(time, &mut tmp);
        tcam_math::vecops::scaled_add(out, &tmp, 1.0 - self.w);
    }
}

fn main() {
    let args = Args::from_env();
    let scale = args.get_f64("scale", 0.2);
    let seed = args.get_u64("seed", 3);
    let data = tcam_data::SynthDataset::generate(synth::digg_like(scale, seed)).unwrap();
    let split = train_test_split(&data.cuboid, 0.2, &mut Pcg64::new(seed));
    let iters = 60;
    let ut = UserTopicModel::fit(
        &split.train,
        &UtConfig { num_topics: 12, max_iterations: iters, seed, ..UtConfig::default() },
    )
    .unwrap();
    let tt = TimeTopicModel::fit(
        &split.train,
        &TtConfig { num_topics: 15, max_iterations: iters, seed, ..TtConfig::default() },
    )
    .unwrap();
    let eval_cfg = EvalConfig { k_max: 5, num_threads: 8, ..EvalConfig::default() };
    for w in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0] {
        let mix = Mix { ut: &ut, tt: &tt, w, label: format!("mix-{w}") };
        let r = evaluate(&mix, &split, &eval_cfg);
        println!("w={w:<4} NDCG@5 {:.4}", r.per_k[4].ndcg);
    }
}
