//! Minimal serving-engine walkthrough: fit a model, stand up a
//! [`ServeEngine`], answer point / batch / cold-user queries, then hot
//! swap a refreshed model.
//!
//! Run with `cargo run --release -p tcam --example serve_quickstart`.

use tcam::prelude::*;

fn fit(seed: u64) -> TtcamModel {
    let data = SynthDataset::generate(tcam::data::synth::tiny(seed)).unwrap();
    let config = FitConfig::default()
        .with_user_topics(4)
        .with_time_topics(3)
        .with_iterations(8)
        .with_seed(seed);
    TtcamModel::fit(&data.cuboid, &config).unwrap().model
}

fn main() {
    let engine = ServeEngine::new(ModelSnapshot::new(fit(7), 1), ServeConfig::default());
    let snap = engine.snapshot();
    println!(
        "serving epoch {} — {} users, {} items, {} intervals",
        snap.epoch(),
        snap.num_users(),
        snap.num_items(),
        snap.num_times()
    );

    // A point query for a fitted user.
    let q = Query { user: UserId(3), time: TimeId(2), k: 5 };
    let response = engine.query(q);
    println!("top-{} for user {} at t={} (source {:?}):", q.k, q.user.0, q.time.0, response.source);
    for (rank, scored) in response.items.iter().enumerate() {
        println!("  #{rank} item {:4}  score {:.6}", scored.index, scored.score);
    }

    // The same query again is a cache hit.
    println!("asked again: source {:?}", engine.query(q).source);

    // A user the model has never seen falls back to the
    // temporal-context-only mixture ("what is popular right now").
    let cold = Query { user: UserId::from(snap.num_users() + 100), time: TimeId(2), k: 3 };
    println!("cold user: source {:?}", engine.query(cold).source);

    // Batch across worker threads.
    let queries: Vec<Query> =
        (0..50).map(|i| Query { user: UserId(i % 20), time: TimeId(i % 6), k: 5 }).collect();
    let responses = engine.query_batch(&queries, 4);
    println!("batch answered {} queries", responses.len());

    // Hot swap to a refreshed model; the response cache is invalidated.
    engine.swap_snapshot(std::sync::Arc::new(ModelSnapshot::new(fit(8), 2)));
    let fresh = engine.query(q);
    println!("after swap: epoch {} source {:?}", fresh.epoch, fresh.source);

    let stats = engine.stats();
    println!(
        "stats: {} queries, hit rate {:.2}, mean latency {:.1}us",
        stats.queries, stats.cache_hit_rate, stats.mean_latency_us
    );
}
