//! Hard zero-allocation guarantees under a counting global allocator.
//!
//! PR 3 argued "repeated queries don't reallocate scratch" with a
//! capacity/pointer fingerprint, which cannot see transient
//! allocations that grow and shrink between fingerprints. This harness
//! installs [`CountingAlloc`] as the test binary's
//! `#[global_allocator]` and asserts the real thing:
//!
//! - a steady-state pruned query (block-max, classic TA, and the dense
//!   fallback, for fitted users and for the cold-start prior of users
//!   the model has never seen) performs **zero** heap events once its
//!   scratch and output buffers are warm,
//! - so does a history query: a session folded in on a warm
//!   `FoldScratch`, then ranked with the block-max kernel,
//! - so does a `ServeEngine::query` answered from the response cache,
//!   snapshot read, lookup and stats included, and
//! - a warm EM iteration (serial `fit_warm` resuming from a converged
//!   model, the online-refresh path of DESIGN.md §13) allocates
//!   nothing after the training-loop buffers are built: fits differing
//!   only in iteration count have identical allocation counts.
//!
//! Counters are per-thread, so these assertions are immune to `cargo
//! test`'s default test-thread parallelism.

use tcam::core::{FoldInRating, FoldScratch, FoldedUser, ItcamModel};
use tcam::data::synth;
use tcam::prelude::*;
use tcam::rec::ta::QueryScratch;
use tcam::rec::FoldedScorer;
use tcam::serve::{ModelSnapshot, Query, ServeConfig, ServeEngine, Source};
use tcam_analysis::{allocation_events, deallocation_events, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn fitted_model() -> (SynthDataset, TtcamModel) {
    let data = synth::SynthDataset::generate(synth::douban_like(0.05, 41)).unwrap();
    let config = FitConfig::default()
        .with_user_topics(6)
        .with_time_topics(4)
        .with_iterations(3)
        .with_seed(41);
    let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
    (data, model)
}

/// The steady-state serving loop — warm [`QueryScratch`] plus a warm
/// caller-owned output buffer, queried through the `_into` kernels —
/// must not touch the heap at all, for fitted and cold users alike.
#[test]
fn steady_state_queries_are_allocation_free() {
    let (data, model) = fitted_model();
    let snap = ModelSnapshot::new(model, 1);
    let (model, index) = (snap.model(), snap.index());
    let cold = FoldedScorer { model, folded: snap.default_folded() };
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let dense_k = model.num_items();

    // Warm-up: size every buffer each kernel uses (block-max, classic,
    // and the dense fallback) at every k the measured loop will ask for.
    for u in 0..4u32 {
        for k in [5, 10, dense_k] {
            index.top_k_into(model, UserId(u), TimeId(0), k, &mut scratch, &mut out);
            index.top_k_classic_into(model, UserId(u), TimeId(0), k, &mut scratch, &mut out);
            index.top_k_into(&cold, UserId(u), TimeId(0), k, &mut scratch, &mut out);
        }
    }

    let allocs = allocation_events();
    let deallocs = deallocation_events();
    for round in 0..50u32 {
        let u = UserId(round % data.cuboid.num_users() as u32);
        let t = TimeId(round % data.cuboid.num_times() as u32);
        let stats = index.top_k_into(model, u, t, 5, &mut scratch, &mut out);
        assert!(out.len() <= 5);
        assert!(stats.items_examined <= model.num_items());
        index.top_k_classic_into(model, u, t, 10, &mut scratch, &mut out);
        assert!(out.len() <= 10);
        // k = V routes through the dense fallback path.
        index.top_k_into(model, u, t, dense_k, &mut scratch, &mut out);
        assert_eq!(out.len(), dense_k);
        // An unseen user: the cold-start prior through the same kernel.
        index.top_k_into(&cold, u, t, 10, &mut scratch, &mut out);
        assert_eq!(out.len(), 10);
    }
    assert_eq!(allocation_events() - allocs, 0, "steady-state queries allocated on a warm scratch");
    assert_eq!(
        deallocation_events() - deallocs,
        0,
        "steady-state queries freed heap memory on a warm scratch"
    );
}

/// A history query's steady state: folding a session in on a warm
/// [`FoldScratch`] and ranking the folded user with the block-max
/// kernel make zero heap events, whatever the session's length.
#[test]
fn warm_fold_in_and_history_ranking_are_allocation_free() {
    let (data, model) = fitted_model();
    let snap = ModelSnapshot::new(model, 1);
    let (model, index) = (snap.model(), snap.index());
    let longest: Vec<FoldInRating> = data
        .cuboid
        .entries()
        .iter()
        .take(60)
        .map(|r| FoldInRating { time: r.time, item: r.item.index(), value: r.value })
        .collect();
    let mut fold = FoldScratch::default();
    let mut folded = FoldedUser::default();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();

    // Warm-up: the longest session sizes the fold-in buffers, and its
    // folded user (every factor list active) sizes the kernel's.
    model.fold_in_user_into(&longest, 10, 1.0, &mut fold, &mut folded);
    index.top_k_into(
        &FoldedScorer { model, folded: &folded },
        UserId(0),
        TimeId(0),
        10,
        &mut scratch,
        &mut out,
    );

    let allocs = allocation_events();
    let deallocs = deallocation_events();
    for round in 0..50usize {
        let session = &longest[..(round * 7) % (longest.len() + 1)];
        model.fold_in_user_into(session, 10, 1.0, &mut fold, &mut folded);
        let t = TimeId((round % data.cuboid.num_times()) as u32);
        let scorer = FoldedScorer { model, folded: &folded };
        index.top_k_into(&scorer, UserId(0), t, 10, &mut scratch, &mut out);
        assert_eq!(out.len(), 10);
    }
    assert_eq!(allocation_events() - allocs, 0, "a warm fold-in and history query allocated");
    assert_eq!(
        deallocation_events() - deallocs,
        0,
        "a warm fold-in and history query freed heap memory"
    );
}

/// A cache hit through the engine's front door — snapshot `Arc`, key,
/// cache lookup, hit stats and the shared response — makes zero heap
/// events once the key is cached.
#[test]
fn engine_cache_hits_are_allocation_free() {
    let (data, model) = fitted_model();
    let engine = ServeEngine::new(ModelSnapshot::new(model, 1), ServeConfig::default());
    let users = data.cuboid.num_users() as u32;
    let queries: Vec<Query> =
        (0..8u32).map(|i| Query { user: UserId(i % users), time: TimeId(i % 3), k: 5 }).collect();
    for &q in &queries {
        engine.query(q);
    }

    let allocs = allocation_events();
    let deallocs = deallocation_events();
    for round in 0..50 {
        let response = engine.query(queries[round % queries.len()]);
        assert_eq!(response.source, Source::CacheHit);
    }
    assert_eq!(allocation_events() - allocs, 0, "a warm cache hit allocated");
    assert_eq!(deallocation_events() - deallocs, 0, "a warm cache hit freed heap memory");
    assert_eq!(engine.stats().cache_hits, 50);
}

/// Warm EM iterations allocate nothing: a serial `fit_warm` run with
/// ten extra iterations performs exactly as many heap events as a
/// one-iteration run. All constant setup costs (shard plan, context
/// cache, scratch, the `with_capacity(max_iterations)` trace) cancel
/// in the difference, so any surplus would be a per-iteration
/// allocation in the E-step/M-step — exactly what the serial dispatch
/// path and caller-scratch `column_normalize` eliminate.
#[test]
fn warm_ttcam_iterations_are_allocation_free() {
    let (data, model) = fitted_model();
    let mut config = FitConfig::default().with_user_topics(6).with_time_topics(4).with_seed(41);
    config.num_threads = 1;
    config.tolerance = 0.0; // run every requested iteration

    let mut short = config.clone();
    short.max_iterations = 1;
    let mut long = config;
    long.max_iterations = 11;

    let start = allocation_events();
    let a = TtcamModel::fit_warm(&data.cuboid, &short, &model).unwrap();
    let after_short = allocation_events();
    let b = TtcamModel::fit_warm(&data.cuboid, &long, &model).unwrap();
    let after_long = allocation_events();
    assert_eq!(a.trace.len(), 1);
    assert_eq!(b.trace.len(), 11);

    let one_iter = after_short - start;
    let eleven_iters = after_long - after_short;
    assert_eq!(
        one_iter,
        eleven_iters,
        "10 extra warm EM iterations performed {} heap allocations",
        eleven_iters as i64 - one_iter as i64
    );
}

/// The same differencing argument for ITCAM's serial EM loop.
#[test]
fn itcam_iterations_are_allocation_free() {
    let data = synth::SynthDataset::generate(synth::douban_like(0.05, 43)).unwrap();
    let mut config = FitConfig::default().with_user_topics(5).with_seed(43);
    config.num_threads = 1;
    config.tolerance = 0.0;

    let mut short = config.clone();
    short.max_iterations = 1;
    let mut long = config;
    long.max_iterations = 11;

    let start = allocation_events();
    let a = ItcamModel::fit(&data.cuboid, &short).unwrap();
    let after_short = allocation_events();
    let b = ItcamModel::fit(&data.cuboid, &long).unwrap();
    let after_long = allocation_events();
    assert_eq!(a.trace.len(), 1);
    assert_eq!(b.trace.len(), 11);

    assert_eq!(
        after_short - start,
        after_long - after_short,
        "10 extra ITCAM EM iterations allocated"
    );
}
