//! Golden bits of the EM fits.
//!
//! Every fitted parameter's `to_bits()` and the log-likelihood trace
//! are folded into an FNV-1a hash and compared against a pinned value.
//! The thread-independence tests only compare a fit with itself; these
//! hashes pin the fits against the code that produced them, so a
//! restructuring of the EM loop that moves a single bit fails here.

use tcam_core::{FitConfig, FitResult, FoldInRating, ItcamModel, TtcamModel};
use tcam_data::{synth, ItemId, Rating, RatingCuboid, TimeId, UserId};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
    fn write_f64s(&mut self, xs: &[f64]) {
        self.write_u64(xs.len() as u64);
        for x in xs {
            self.write_u64(x.to_bits());
        }
    }
}

fn hash_trace<M>(h: &mut Fnv, fit: &FitResult<M>) {
    h.write_u64(u64::from(fit.converged));
    for step in &fit.trace {
        h.write_u64(step.iteration as u64);
        h.write_u64(step.log_likelihood.to_bits());
    }
}

fn hash_itcam(fit: &FitResult<ItcamModel>) -> u64 {
    let m = &fit.model;
    let mut h = Fnv::new();
    hash_trace(&mut h, fit);
    for u in 0..m.num_users() {
        h.write_f64s(m.user_interest(UserId::from(u)));
    }
    for z in 0..m.num_user_topics() {
        h.write_f64s(m.user_topic(z));
    }
    for t in 0..m.num_times() {
        h.write_f64s(m.temporal_context(TimeId::from(t)));
    }
    h.write_f64s(m.lambdas());
    h.write_f64s(m.background());
    h.write_u64(m.background_weight().to_bits());
    h.0
}

fn hash_ttcam(fit: &FitResult<TtcamModel>) -> u64 {
    let m = &fit.model;
    let mut h = Fnv::new();
    hash_trace(&mut h, fit);
    for u in 0..m.num_users() {
        h.write_f64s(m.user_interest(UserId::from(u)));
    }
    for z in 0..m.num_user_topics() {
        h.write_f64s(m.user_topic(z));
    }
    for t in 0..m.num_times() {
        h.write_f64s(m.temporal_context(TimeId::from(t)));
    }
    for x in 0..m.num_time_topics() {
        h.write_f64s(m.time_topic(x));
    }
    h.write_f64s(m.lambdas());
    h.write_f64s(m.background());
    h.write_u64(m.background_weight().to_bits());
    h.0
}

fn tiny(seed: u64) -> RatingCuboid {
    synth::SynthDataset::generate(synth::tiny(seed)).unwrap().cuboid
}

fn ttcam_config() -> FitConfig {
    FitConfig::default().with_user_topics(4).with_time_topics(3).with_iterations(10).with_seed(9)
}

fn assert_hash(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: fit bits changed (got {got:#018x}, pinned {want:#018x})");
}

#[test]
fn itcam_fit_bits_are_pinned() {
    // Early exit and lambda shrinkage are on, so the convergence test
    // and the shrunk Eq. 11 update are pinned too.
    let config = FitConfig {
        num_user_topics: 4,
        max_iterations: 200,
        tolerance: 1e-3,
        seed: 9,
        lambda_shrinkage: 1.0,
        ..FitConfig::default()
    };
    let fit = ItcamModel::fit(&tiny(5), &config).unwrap();
    assert!(fit.converged && fit.iterations() < 200, "the early exit must fire");
    assert_hash("ItcamModel::fit", hash_itcam(&fit), 0xae7f_13d1_e483_21fa);
}

#[test]
fn ttcam_fit_bits_are_pinned_at_1_and_4_threads() {
    let cuboid = tiny(5);
    for threads in [1usize, 4] {
        let fit = TtcamModel::fit(&cuboid, &ttcam_config().with_threads(threads)).unwrap();
        assert_hash(
            &format!("TtcamModel::fit at {threads} threads"),
            hash_ttcam(&fit),
            0x9d31_1e75_2924_be09,
        );
    }
}

#[test]
fn ttcam_background_fit_bits_are_pinned() {
    let fit = TtcamModel::fit(&tiny(5), &ttcam_config().with_background(0.1)).unwrap();
    assert_hash("TtcamModel::fit with a background", hash_ttcam(&fit), 0xe382_5e5f_76d5_c0da);
}

#[test]
fn ttcam_warm_fit_on_grown_cuboid_bits_are_pinned() {
    let c = tiny(14);
    let config = ttcam_config().with_iterations(4).with_seed(14);
    let prior = TtcamModel::fit(&c, &config).unwrap().model;
    // Two new users and one new interval, opened by a new user's rating.
    let grown = RatingCuboid::from_ratings(
        c.num_users() + 2,
        c.num_times() + 1,
        c.num_items(),
        c.entries()
            .iter()
            .copied()
            .chain([
                Rating {
                    user: UserId::from(c.num_users()),
                    time: TimeId::from(c.num_times()),
                    item: ItemId(0),
                    value: 1.0,
                },
                Rating {
                    user: UserId(0),
                    time: TimeId::from(c.num_times()),
                    item: ItemId(1),
                    value: 2.0,
                },
            ])
            .collect(),
    )
    .unwrap();
    let fit = TtcamModel::fit_warm(&grown, &config, &prior).unwrap();
    assert_hash(
        "TtcamModel::fit_warm onto a grown cuboid",
        hash_ttcam(&fit),
        0x646c_f130_cfea_6dc0,
    );
}

#[test]
fn fold_in_bits_are_pinned() {
    let c = tiny(5);
    let model = TtcamModel::fit(&c, &ttcam_config()).unwrap().model;
    let history: Vec<FoldInRating> = c
        .user_entries(UserId(0))
        .iter()
        .map(|r| FoldInRating { time: r.time, item: r.item.index(), value: r.value })
        .collect();
    let mut h = Fnv::new();
    for shrinkage in [0.0, 2.0] {
        let folded = model.fold_in_user(&history, 15, shrinkage);
        h.write_f64s(&folded.interest);
        h.write_u64(folded.lambda.to_bits());
    }
    assert_hash("TtcamModel::fold_in_user", h.0, 0x8dde_9bd0_0803_20f9);
}
