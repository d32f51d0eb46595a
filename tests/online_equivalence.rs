//! The differential harness for online ingestion (DESIGN.md §13).
//!
//! Two layers of exactness, mirroring the discipline the serving and
//! query-kernel suites already enforce:
//!
//! 1. **State equivalence, bitwise.** After *any* prefix of the
//!    accepted stream, the log's materialized cuboid must be
//!    bit-identical to `RatingCuboid::from_ratings` on that prefix.
//!    Replayed deterministically and under proptest with arbitrary
//!    interleavings of appends, duplicates, zero-valued ratings, and
//!    interval rollovers.
//! 2. **Refresh equivalence, 1e-10.** Every snapshot a refresh
//!    publishes must rank exactly like a cold pipeline that batch-
//!    rebuilds the training cuboid and warm-starts from the same prior
//!    — at 1 and at 4 fitting threads (warm starts are bitwise
//!    thread-independent, so one oracle serves both), raw and under
//!    every `WeightingScheme`.
//! 3. **Replay, bitwise.** Two engines fed the same stream under the
//!    same config publish bit-identical parameters at every epoch and
//!    answer every query with bit-identical responses.

use proptest::prelude::*;
use tcam::core::{FitConfig, FoldInRating, TtcamModel};
use tcam::data::{synth, ItemId, Rating, TimeId, UserId, WeightingScheme};
use tcam::online::{oracle, IngestLog, OnlineConfig, OnlineEngine, RefreshPolicy};
use tcam::rec::brute_force_top_k;
use tcam::serve::{Query, Response, Source};

fn rating(u: u32, t: u32, v: u32, value: f64) -> Rating {
    Rating { user: UserId(u), time: TimeId(t), item: ItemId(v), value }
}

/// A time-monotone stream built from a synthetic dataset: entries
/// re-emitted in interval order, with every third cell split into two
/// half-value arrivals so duplicate-cell summation order is exercised.
fn monotone_stream(seed: u64) -> (usize, usize, usize, Vec<Rating>) {
    let data = synth::SynthDataset::generate(synth::tiny(seed)).unwrap();
    let c = &data.cuboid;
    let mut sorted: Vec<Rating> = c.entries().to_vec();
    sorted.sort_by_key(|r| (r.time, r.user, r.item));
    let mut stream = Vec::with_capacity(sorted.len() * 2);
    for (i, r) in sorted.into_iter().enumerate() {
        if i % 3 == 0 {
            let half = Rating { value: r.value / 2.0, ..r };
            stream.push(half);
            stream.push(half);
        } else {
            stream.push(r);
        }
    }
    (c.num_users(), c.num_items(), c.num_times() + 4, stream)
}

#[test]
fn every_prefix_matches_batch_rebuild_bitwise() {
    let (n, v, maxt, stream) = monotone_stream(71);
    let mut log = IngestLog::new(n, v, maxt);
    for (i, &r) in stream.iter().enumerate() {
        log.append(r).unwrap();
        // Every prefix for the first 50 ratings (cheap), then every 7th
        // and the final one — check_equivalence is a full batch rebuild.
        if i < 50 || i % 7 == 0 || i == stream.len() - 1 {
            oracle::check_equivalence(&log).unwrap_or_else(|e| panic!("prefix {i}: {e}"));
        }
    }
    assert_eq!(log.len(), stream.len());
}

#[test]
fn zero_valued_ratings_and_empty_intervals_stay_equivalent() {
    // Pin the N_t = 0 / N(v) = 0 edge cases deterministically: item 7
    // only ever receives zero-valued ratings (N(v) = 0 while cells
    // exist), intervals 2 and 3 are skipped entirely (N_t = 0), and a
    // trailing rollover opens interval 5 with a single zero rating so
    // the last interval itself has N_t = 0.
    let mut log = IngestLog::new(4, 8, 10);
    for r in [
        rating(0, 0, 7, 0.0),
        rating(1, 0, 1, 1.0),
        rating(2, 1, 7, 0.0),
        rating(2, 1, 2, 2.5),
        rating(3, 4, 1, 0.5),
        rating(0, 4, 7, 0.0),
        rating(1, 5, 7, 0.0),
    ] {
        log.append(r).unwrap();
        oracle::check_equivalence(&log).unwrap();
    }
    let w = log.weighting();
    assert_eq!(w.item_user_count(ItemId(7)), 0, "zero-valued cells never count");
    assert_eq!(w.active_users(TimeId(2)), 0, "skipped interval");
    assert_eq!(w.active_users(TimeId(5)), 0, "rolled-over interval with only zero ratings");
    assert_eq!(log.num_times(), 6, "zero ratings still advance the timeline");
}

/// Strategy: an arbitrary interleaving of appends and rollovers.
/// `dt` deltas of 0 keep the interval, 1 rolls over, 2–3 skip whole
/// intervals; small raw values collapse to exactly 0.0 so zero-valued
/// ratings appear throughout.
fn stream_strategy(
    users: usize,
    items: usize,
    max_len: usize,
) -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec((0..users as u32, 0..4u32, 0..items as u32, 0.0f64..2.0), 1..max_len)
        .prop_map(|raw| {
            let mut t = 0u32;
            raw.into_iter()
                .map(|(u, dt, v, raw_value)| {
                    t += dt;
                    let value = if raw_value < 0.4 { 0.0 } else { raw_value };
                    rating(u, t, v, value)
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn arbitrary_interleavings_stay_equivalent(stream in stream_strategy(5, 6, 40)) {
        let max_t = stream.iter().map(|r| r.time.index()).max().unwrap_or(0);
        let mut log = IngestLog::new(5, 6, max_t + 1);
        for (i, &r) in stream.iter().enumerate() {
            log.append(r).unwrap();
            if let Err(e) = oracle::check_equivalence(&log) {
                prop_assert!(false, "prefix {}: {}", i, e);
            }
        }
        prop_assert_eq!(log.len(), stream.len());
        prop_assert_eq!(log.rejected(), 0);
    }
}

/// Runs the refresh-equivalence scenario at a given fitting thread
/// count: an [`OnlineEngine`] ingesting with a count-based policy must
/// publish snapshots that rank exactly like `oracle::cold_refit` (batch
/// rebuild + warm start from the same prior chain, always at 1 thread —
/// warm fits are bitwise thread-independent, proven in `tcam-core`).
fn refreshed_snapshots_match_cold_refits(threads: usize) {
    let (n, v, maxt, stream) = monotone_stream(72);
    let split = stream.len() * 3 / 4;
    let fit = FitConfig::default()
        .with_user_topics(4)
        .with_time_topics(3)
        .with_iterations(3)
        .with_seed(72)
        .with_threads(threads);
    let config = OnlineConfig {
        fit: fit.clone(),
        weighting: None,
        policy: RefreshPolicy { every_ratings: Some(9), on_rollover: true },
        serve: Default::default(),
    };
    let oracle_config = OnlineConfig { fit: fit.with_threads(1), ..config.clone() };

    let mut eng =
        OnlineEngine::bootstrap(n, v, maxt, stream[..split].to_vec(), config.clone()).unwrap();
    // The oracle tracks its own prior chain, starting from a cold fit on
    // the batch-rebuilt seed cuboid — which must equal the engine's
    // bootstrap model outright.
    let mut prior =
        TtcamModel::fit(&oracle::batch_cuboid(eng.log()), &oracle_config.fit).unwrap().model;
    assert_eq!(prior.lambdas(), eng.model().lambdas(), "bootstrap must equal cold fit");

    let mut refreshes = 0;
    let mut buffer = vec![0.0; v];
    for &r in &stream[split..] {
        let outcome = eng.ingest(r).unwrap();
        if outcome.refreshed.is_none() {
            continue;
        }
        refreshes += 1;
        let cold = oracle::cold_refit(eng.log(), &oracle_config, &prior).unwrap().model;
        let snap = eng.serve().snapshot();
        assert_eq!(snap.epoch(), eng.epoch());
        assert_eq!(snap.num_times(), cold.num_times());
        // Every published ranking equals the cold pipeline's to 1e-10.
        for u in (0..n as u32).step_by(3) {
            let t = TimeId(cold.num_times() as u32 - 1);
            let response = eng.query(Query { user: UserId(u), time: t, k: 8 });
            let expected = brute_force_top_k(&cold, UserId(u), t, 8, &mut buffer);
            assert_eq!(response.items.len(), expected.len());
            for (got, want) in response.items.iter().zip(expected.iter()) {
                assert_eq!(got.index, want.index, "item mismatch at refresh {refreshes}");
                assert!(
                    (got.score - want.score).abs() < 1e-10,
                    "score {} vs {} at refresh {refreshes}",
                    got.score,
                    want.score
                );
            }
        }
        prior = cold;
    }
    assert!(refreshes >= 2, "stream must drive at least two refreshes, got {refreshes}");
    assert_eq!(eng.epoch(), 1 + refreshes);
}

#[test]
fn refreshed_snapshots_match_cold_refits_serial() {
    refreshed_snapshots_match_cold_refits(1);
}

#[test]
fn refreshed_snapshots_match_cold_refits_4_threads() {
    refreshed_snapshots_match_cold_refits(4);
}

#[test]
fn weighted_refresh_matches_cold_refit() {
    // Same differential check with the Section 3.3 weighting in the
    // loop, under every scheme: a refresh weights the cuboid it just
    // materialized, the oracle weights its batch rebuild, and EM must
    // rank the two the same.
    let (n, v, maxt, stream) = monotone_stream(73);
    let split = stream.len() - 12;
    for scheme in [
        WeightingScheme::Full,
        WeightingScheme::IufOnly,
        WeightingScheme::BurstOnly,
        WeightingScheme::Damped,
    ] {
        let config = OnlineConfig {
            fit: FitConfig::default()
                .with_user_topics(3)
                .with_time_topics(2)
                .with_iterations(3)
                .with_seed(73),
            weighting: Some(scheme),
            policy: RefreshPolicy { every_ratings: Some(12), on_rollover: false },
            serve: Default::default(),
        };
        let mut eng =
            OnlineEngine::bootstrap(n, v, maxt, stream[..split].to_vec(), config.clone()).unwrap();
        let prior = eng.model().clone();
        let mut refreshed = false;
        for &r in &stream[split..] {
            refreshed |= eng.ingest(r).unwrap().refreshed.is_some();
        }
        assert!(refreshed, "{scheme:?}: 12 ratings at every_ratings=12 must refresh");
        let cold = oracle::cold_refit(eng.log(), &config, &prior).unwrap().model;
        let mut buffer = vec![0.0; v];
        for u in 0..4u32 {
            let t = TimeId(cold.num_times() as u32 - 1);
            let response = eng.query(Query { user: UserId(u), time: t, k: 6 });
            let expected = brute_force_top_k(&cold, UserId(u), t, 6, &mut buffer);
            for (got, want) in response.items.iter().zip(expected.iter()) {
                assert_eq!(got.index, want.index, "{scheme:?}");
                assert!((got.score - want.score).abs() < 1e-10, "{scheme:?}");
            }
        }
    }
}

/// Every fitted parameter of `m`, as bit patterns.
fn parameter_bits(m: &TtcamModel) -> Vec<u64> {
    let mut rows: Vec<&[f64]> = Vec::new();
    rows.extend((0..m.num_users()).map(|u| m.user_interest(UserId::from(u))));
    rows.extend((0..m.num_user_topics()).map(|z| m.user_topic(z)));
    rows.extend((0..m.num_times()).map(|t| m.temporal_context(TimeId::from(t))));
    rows.extend((0..m.num_time_topics()).map(|x| m.time_topic(x)));
    rows.push(m.lambdas());
    rows.push(m.background());
    let mut bits = vec![m.background_weight().to_bits()];
    for row in rows {
        bits.push(row.len() as u64);
        bits.extend(row.iter().map(|x| x.to_bits()));
    }
    bits
}

/// A response down to its bits: epoch, source, work done, and every
/// `(item, score)`.
fn response_bits(r: &Response) -> (u64, Source, usize, Vec<(usize, u64)>) {
    let items = r.items.iter().map(|s| (s.index, s.score.to_bits())).collect();
    (r.epoch, r.source, r.items_examined, items)
}

#[test]
fn replaying_the_same_stream_twice_is_bitwise_identical() {
    // The IufOnly-weighted pipeline, refreshing on rollover and every 10
    // ratings: two engines replaying one stream must agree bit for bit
    // at every epoch, in what they publish and in what they answer.
    let (n, v, maxt, stream) = monotone_stream(75);
    let split = stream.len() / 2;
    let config = OnlineConfig {
        fit: FitConfig::default()
            .with_user_topics(3)
            .with_time_topics(2)
            .with_iterations(3)
            .with_seed(75),
        weighting: Some(WeightingScheme::IufOnly),
        policy: RefreshPolicy { every_ratings: Some(10), on_rollover: true },
        serve: Default::default(),
    };
    let boot =
        || OnlineEngine::bootstrap(n, v, maxt, stream[..split].to_vec(), config.clone()).unwrap();
    let (mut a, mut b) = (boot(), boot());
    let history = [
        FoldInRating { time: TimeId(0), item: 1, value: 1.0 },
        FoldInRating { time: TimeId(1), item: 2, value: 2.0 },
    ];
    let same_bits = |a: &OnlineEngine, b: &OnlineEngine| {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.log().fingerprint(), b.log().fingerprint());
        assert_eq!(parameter_bits(a.model()), parameter_bits(b.model()), "epoch {}", a.epoch());
        let t = TimeId(a.model().num_times() as u32 - 1);
        // Fitted users, an unseen user past the fitted range, a repeat
        // (cache hit), and a history fold-in.
        for u in (0..n as u32).chain([n as u32, 0]) {
            let q = Query { user: UserId(u), time: t, k: 5 };
            assert_eq!(response_bits(&a.query(q)), response_bits(&b.query(q)), "user {u}");
        }
        let q = Query { user: UserId(0), time: t, k: 5 };
        assert_eq!(
            response_bits(&a.serve().query_with_history(q, &history)),
            response_bits(&b.serve().query_with_history(q, &history)),
        );
    };
    same_bits(&a, &b);
    for &r in &stream[split..] {
        let (ra, rb) = (a.ingest(r).unwrap(), b.ingest(r).unwrap());
        assert_eq!(ra, rb);
        if ra.refreshed.is_some() {
            same_bits(&a, &b);
        }
    }
    assert!(a.epoch() >= 3, "stream must drive at least two refreshes, got epoch {}", a.epoch());
}

#[test]
fn rollover_degrades_through_clamp_until_refresh() {
    // Between refreshes a query at a not-yet-fitted interval must be
    // answered by the existing clamp path against the *old* snapshot:
    // same ranking as the last fitted interval, same epoch.
    let (n, v, maxt, stream) = monotone_stream(74);
    let mut eng = OnlineEngine::bootstrap(
        n,
        v,
        maxt,
        stream.clone(),
        OnlineConfig {
            fit: FitConfig::default()
                .with_user_topics(3)
                .with_time_topics(2)
                .with_iterations(2)
                .with_seed(74),
            policy: RefreshPolicy::manual(),
            ..Default::default()
        },
    )
    .unwrap();
    let last_fitted = eng.model().num_times() as u32 - 1;
    let new_t = stream.last().unwrap().time.0 + 1;
    let outcome = eng.ingest(rating(0, new_t, 0, 1.0)).unwrap();
    assert!(outcome.rolled_over && outcome.refreshed.is_none());
    assert_eq!(eng.log().num_times(), new_t as usize + 1, "log sees the new interval");
    assert_eq!(eng.model().num_times() as u32, last_fitted + 1, "model does not yet");

    let at_new = eng.query(Query { user: UserId(1), time: TimeId(new_t), k: 5 });
    let clamped = eng.query(Query { user: UserId(1), time: TimeId(last_fitted), k: 5 });
    assert_eq!(at_new.epoch, 1);
    for (a, b) in at_new.items.iter().zip(clamped.items.iter()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "clamp must be exact");
    }

    // After a manual refresh the new interval is really fitted.
    let report = eng.refresh().unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(eng.model().num_times(), new_t as usize + 1);
    assert_eq!(eng.query(Query { user: UserId(1), time: TimeId(new_t), k: 5 }).epoch, 2);
}
