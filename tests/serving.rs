//! Serving-engine integration: every path through the engine — TA,
//! brute force, cache hit, fold-in backoff, batch — must return exactly
//! the scores of a direct `brute_force_top_k` scan (to 1e-10), and the
//! operational machinery (cache counters, snapshot swap, stats) must
//! reflect the traffic that was served.

use std::sync::Arc;
use tcam::core::FoldInRating;
use tcam::prelude::*;
use tcam::rec::brute_force_top_k;
use tcam::serve::{
    FoldedScorer, ModelSnapshot, Query, Response, ScoringMode, ServeConfig, ServeEngine, Source,
};

fn fitted_model(seed: u64) -> TtcamModel {
    let data = SynthDataset::generate(tcam::data::synth::tiny(seed)).unwrap();
    let config = FitConfig::default()
        .with_user_topics(4)
        .with_time_topics(3)
        .with_iterations(8)
        .with_seed(seed);
    TtcamModel::fit(&data.cuboid, &config).unwrap().model
}

fn assert_exact(response: &Response, expected: &[tcam::math::topk::Scored], label: &str) {
    assert_eq!(response.items.len(), expected.len(), "{label}: result size");
    for (i, (a, b)) in response.items.iter().zip(expected.iter()).enumerate() {
        assert!(
            (a.score - b.score).abs() < 1e-10,
            "{label}: rank {i} score {} vs brute force {}",
            a.score,
            b.score
        );
    }
}

#[test]
fn cached_and_uncached_answers_match_brute_force() {
    let model = fitted_model(500);
    let engine = ServeEngine::new(ModelSnapshot::new(model, 1), ServeConfig::default());
    let snap = engine.snapshot();
    let mut buffer = vec![0.0; snap.num_items()];

    for u in (0..snap.num_users()).step_by(5) {
        for t in (0..snap.num_times()).step_by(2) {
            for k in [1usize, 5, 10] {
                let q = Query { user: UserId::from(u), time: TimeId::from(t), k };
                let bf = brute_force_top_k(snap.model(), q.user, q.time, q.k, &mut buffer);

                let uncached = engine.query(q);
                assert_ne!(uncached.source, Source::CacheHit, "first sight of (u,t,k)");
                assert_exact(&uncached, &bf, "uncached");

                let cached = engine.query(q);
                assert_eq!(cached.source, Source::CacheHit, "second sight of (u,t,k)");
                assert_exact(&cached, &bf, "cached");
            }
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, stats.cache_misses, "each query asked twice");
    assert!(stats.cache_hit_rate > 0.49 && stats.cache_hit_rate < 0.51);
}

#[test]
fn brute_force_mode_is_exact_too() {
    let model = fitted_model(501);
    let engine = ServeEngine::new(
        ModelSnapshot::new(model, 1),
        ServeConfig { mode: ScoringMode::BruteForce, cache_capacity: 0, ..ServeConfig::default() },
    );
    let snap = engine.snapshot();
    let mut buffer = vec![0.0; snap.num_items()];
    for u in 0..8 {
        let q = Query { user: UserId(u), time: TimeId(u % 4), k: 7 };
        let bf = brute_force_top_k(snap.model(), q.user, q.time, q.k, &mut buffer);
        let response = engine.query(q);
        assert_eq!(response.source, Source::BruteForce);
        assert_eq!(response.items_examined, snap.num_items());
        assert_exact(&response, &bf, "brute-force mode");
    }
}

#[test]
fn unseen_users_get_exact_context_only_ranking() {
    let model = fitted_model(502);
    let engine = ServeEngine::new(ModelSnapshot::new(model, 1), ServeConfig::default());
    let snap = engine.snapshot();
    let mut buffer = vec![0.0; snap.num_items()];

    for offset in [0usize, 3, 100] {
        let user = UserId::from(snap.num_users() + offset);
        let q = Query { user, time: TimeId(2), k: 8 };
        let response = engine.query(q);
        assert_eq!(response.source, Source::FoldIn);
        let scorer = FoldedScorer { model: snap.model(), folded: snap.default_folded() };
        let bf = brute_force_top_k(&scorer, q.user, q.time, q.k, &mut buffer);
        assert_exact(&response, &bf, "fold-in backoff");
    }
    // The backoff ranking is user-independent: two different unseen ids
    // at the same (t, k) rank identically.
    let a = engine.query(Query { user: UserId::from(snap.num_users() + 1), time: TimeId(1), k: 5 });
    let b = engine.query(Query { user: UserId::from(snap.num_users() + 2), time: TimeId(1), k: 5 });
    for (x, y) in a.items.iter().zip(b.items.iter()) {
        assert!((x.score - y.score).abs() < 1e-15);
    }
}

#[test]
fn history_fold_in_is_exact_and_beats_backoff_for_that_user() {
    let model = fitted_model(503);
    let engine = ServeEngine::new(ModelSnapshot::new(model, 1), ServeConfig::default());
    let snap = engine.snapshot();
    let mut buffer = vec![0.0; snap.num_items()];

    // Session history concentrated on one fitted topic's top items.
    let topic_items = tcam::core::inspect::top_items(snap.model().user_topic(0), 4);
    let history: Vec<FoldInRating> = topic_items
        .iter()
        .map(|(item, _)| FoldInRating { time: TimeId(0), item: item.index(), value: 2.0 })
        .collect();

    let user = UserId::from(snap.num_users());
    let q = Query { user, time: TimeId(1), k: 10 };
    let response = engine.query_with_history(q, &history);
    assert_eq!(response.source, Source::FoldIn);

    let folded = snap.model().fold_in_user(
        &history,
        engine.config().foldin_iterations,
        engine.config().foldin_shrinkage,
    );
    assert!(folded.lambda > 0.0, "evidence turns the personal component on");
    let scorer = FoldedScorer { model: snap.model(), folded: &folded };
    let bf = brute_force_top_k(&scorer, q.user, q.time, q.k, &mut buffer);
    assert_exact(&response, &bf, "history fold-in");
}

#[test]
fn batch_is_exact_and_scales_across_workers() {
    let model = fitted_model(504);
    let engine = ServeEngine::new(ModelSnapshot::new(model, 1), ServeConfig::default());
    let snap = engine.snapshot();
    let mut buffer = vec![0.0; snap.num_items()];

    let queries: Vec<Query> = (0..120u32)
        .map(|i| Query {
            user: UserId(i % (snap.num_users() as u32 + 5)),
            time: TimeId(i % 6),
            k: 1 + (i as usize % 12),
        })
        .collect();

    for num_threads in [1usize, 4] {
        let fresh =
            ServeEngine::new(ModelSnapshot::new(snap.model().clone(), 1), ServeConfig::default());
        let responses = fresh.query_batch(&queries, num_threads);
        assert_eq!(responses.len(), queries.len());
        for (q, response) in queries.iter().zip(responses.iter()) {
            let expected: Vec<_> = if q.user.index() < snap.num_users() {
                brute_force_top_k(snap.model(), q.user, q.time, q.k, &mut buffer)
            } else {
                let scorer = FoldedScorer { model: snap.model(), folded: snap.default_folded() };
                brute_force_top_k(&scorer, q.user, q.time, q.k, &mut buffer)
            };
            assert_exact(response, &expected, "batch");
        }
        assert_eq!(fresh.stats().queries, queries.len() as u64);
    }
}

#[test]
fn snapshot_swap_serves_the_new_model_exactly() {
    let old_model = fitted_model(505);
    let new_model = fitted_model(506);
    let engine = ServeEngine::new(ModelSnapshot::new(old_model, 1), ServeConfig::default());
    let q = Query { user: UserId(0), time: TimeId(0), k: 6 };
    let before = engine.query(q);
    assert_eq!(before.epoch, 1);

    engine.swap_snapshot(Arc::new(ModelSnapshot::new(new_model.clone(), 2)));
    let after = engine.query(q);
    assert_eq!(after.epoch, 2);
    assert_ne!(after.source, Source::CacheHit, "swap invalidates cached answers");

    let mut buffer = vec![0.0; new_model.num_items()];
    let bf = brute_force_top_k(&new_model, q.user, q.time, q.k, &mut buffer);
    assert_exact(&after, &bf, "post-swap");
}

#[test]
fn concurrent_readers_never_observe_torn_or_stale_state() {
    // The refresh-loop race: reader threads hammer the engine while the
    // writer hot-swaps snapshots repeatedly. Three invariants:
    //
    // 1. Every response carries a published epoch.
    // 2. Every response's ranking matches `brute_force_top_k` against
    //    the model of the epoch *it claims* — a torn snapshot, or a
    //    cache entry surviving from a pre-swap epoch (computed against
    //    an old model but served under a new epoch), breaks this.
    // 3. After the last swap, fresh queries serve the final epoch.
    //
    // Distinct fit seeds make the per-epoch models rank differently, so
    // a cross-epoch mixup cannot pass by accident.
    use std::sync::atomic::{AtomicBool, Ordering};

    const EPOCHS: usize = 8;
    let models: Vec<TtcamModel> = (0..EPOCHS as u64).map(|i| fitted_model(520 + i)).collect();
    let engine = ServeEngine::new(
        ModelSnapshot::new(models[0].clone(), 1),
        // Small cache with real capacity so hits occur during swaps.
        ServeConfig { cache_capacity: 256, cache_shards: 4, ..ServeConfig::default() },
    );
    let num_users = models[0].num_users() as u32;
    let num_times = models[0].num_times() as u32;
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for reader in 0..3u32 {
            let (engine, done, models) = (&engine, &done, &models);
            readers.push(scope.spawn(move || {
                let mut buffer = vec![0.0; models[0].num_items()];
                let mut checked = 0u64;
                let mut i = 0u32;
                while !done.load(Ordering::Acquire) || i < 64 {
                    let q = Query {
                        user: UserId((reader * 7 + i) % num_users),
                        time: TimeId(i % num_times),
                        k: 1 + (i as usize % 6),
                    };
                    let response = engine.query(q);
                    let epoch = response.epoch as usize;
                    assert!((1..=EPOCHS).contains(&epoch), "unpublished epoch {epoch}");
                    let model = &models[epoch - 1];
                    let bf = brute_force_top_k(model, q.user, q.time, q.k, &mut buffer);
                    assert_exact(&response, &bf, "concurrent");
                    for (a, b) in response.items.iter().zip(bf.iter()) {
                        assert_eq!(a.index, b.index, "epoch {epoch} item ids must match");
                    }
                    checked += 1;
                    i += 1;
                }
                checked
            }));
        }
        // Writer: publish epochs 2..=EPOCHS while the readers run.
        for (i, model) in models.iter().enumerate().skip(1) {
            engine.swap_snapshot(Arc::new(ModelSnapshot::new(model.clone(), i as u64 + 1)));
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
        let total: u64 = readers.into_iter().map(|h| h.join().expect("reader panicked")).sum();
        assert!(total >= 3 * 64, "each reader validated a full post-swap pass");
    });

    // Steady state: the final epoch serves, and repeats hit its cache.
    let q = Query { user: UserId(0), time: TimeId(0), k: 4 };
    let last = engine.query(q);
    assert_eq!(last.epoch, EPOCHS as u64);
    let again = engine.query(q);
    assert_eq!(again.source, Source::CacheHit);
    let mut buffer = vec![0.0; models[EPOCHS - 1].num_items()];
    let bf = brute_force_top_k(&models[EPOCHS - 1], q.user, q.time, q.k, &mut buffer);
    assert_exact(&again, &bf, "final epoch cache hit");
}
