//! The serving engine: cache → block-max kernel. Every query — a
//! fitted user, an unseen id, or a supplied history — is one
//! `vartheta_q` ranked by the snapshot's TA index.

use crate::batch::balanced_query_shards;
use crate::cache::{CacheKey, TopKCache};
use crate::scratch::ScratchPool;
use crate::snapshot::ModelSnapshot;
use crate::stats::{ServingStats, StatsRecorder};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use tcam_core::FoldInRating;
use tcam_data::{TimeId, UserId};
use tcam_math::topk::Scored;
use tcam_rec::{FoldedScorer, QueryScratch};

/// A temporal top-k query `q = (u, t, k)` (paper Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// The querying user; ids beyond the fitted population take the
    /// fold-in path.
    pub user: UserId,
    /// The query interval; ids beyond the model timeline clamp to the
    /// last fitted interval.
    pub time: TimeId,
    /// Number of items to return.
    pub k: usize,
}

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served from the LRU cache.
    CacheHit,
    /// A fitted user, ranked by the block-max kernel.
    TaIndex,
    /// No engine path produces this: every query goes through the
    /// block-max kernel. It stays only because the benchmark
    /// (`e2ebench`) matches on `Source` exhaustively; delete it together
    /// with that match.
    BruteForce,
    /// An unseen user or a supplied history, folded in and ranked by
    /// the block-max kernel.
    FoldIn,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total cached responses across all shards (0 disables caching).
    pub cache_capacity: usize,
    /// Number of independently locked cache segments.
    pub cache_shards: usize,
    /// EM iterations when folding in a supplied history.
    pub foldin_iterations: usize,
    /// Pseudo-count shrinkage toward the population lambda at fold-in.
    pub foldin_shrinkage: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 4096,
            cache_shards: 16,
            foldin_iterations: 20,
            foldin_shrinkage: 1.0,
        }
    }
}

/// An answered query.
#[derive(Debug, Clone)]
pub struct Response {
    /// Top items, best first (shared with the cache — cheap to clone).
    pub items: Arc<Vec<Scored>>,
    /// Distinct items whose full score was computed for this response
    /// (0 on a cache hit).
    pub items_examined: usize,
    /// How the response was produced.
    pub source: Source,
    /// Epoch of the snapshot that answered the query.
    pub epoch: u64,
}

/// Thread-safe query front end over an atomically swappable snapshot.
#[derive(Debug)]
pub struct ServeEngine {
    snapshot: RwLock<Arc<ModelSnapshot>>,
    cache: TopKCache,
    scratch: ScratchPool,
    stats: StatsRecorder,
    config: ServeConfig,
}

impl ServeEngine {
    /// Creates an engine serving `snapshot` under `config`.
    pub fn new(snapshot: ModelSnapshot, config: ServeConfig) -> Self {
        let cache = TopKCache::new(config.cache_capacity, config.cache_shards);
        ServeEngine {
            snapshot: RwLock::new(Arc::new(snapshot)),
            cache,
            scratch: ScratchPool::new(),
            stats: StatsRecorder::new(),
            config,
        }
    }

    /// The snapshot currently serving queries. Holding the returned
    /// `Arc` keeps that generation alive across a concurrent swap.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        // tcam-lint: allow(no-panic) -- a poisoned lock means a panic already happened
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// Atomically replaces the serving snapshot and drops every cached
    /// response (they were computed against the old parameters).
    /// In-flight queries finish against the snapshot they started with.
    pub fn swap_snapshot(&self, snapshot: Arc<ModelSnapshot>) {
        // tcam-lint: allow(no-panic) -- a poisoned lock means a panic already happened
        *self.snapshot.write().expect("snapshot lock poisoned") = snapshot;
        self.cache.clear();
    }

    /// Engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The response cache (for inspection; the query path manages it).
    pub fn cache(&self) -> &TopKCache {
        &self.cache
    }

    /// A point-in-time statistics report.
    pub fn stats(&self) -> ServingStats {
        self.stats.report(self.cache.hits(), self.cache.misses())
    }

    /// Answers one query.
    pub fn query(&self, q: Query) -> Response {
        let snap = self.snapshot();
        let mut scratch = self.scratch.checkout();
        self.answer(&snap, &mut scratch, q)
    }

    /// Answers one query scoring with `history` folded in instead of
    /// any fitted user parameters — online personalization for a user
    /// (new or known) whose session evidence should drive the ranking.
    /// Responses are not cached: the key `(u, t, k)` does not identify
    /// the history. On a warm scratch only the response allocates.
    pub fn query_with_history(&self, q: Query, history: &[FoldInRating]) -> Response {
        let snap = self.snapshot();
        let mut scratch = self.scratch.checkout();
        let start = Instant::now();
        let time = clamp_time(&snap, q.time);
        let (index, model) = (snap.index(), snap.model());
        let (iterations, shrinkage) = (self.config.foldin_iterations, self.config.foldin_shrinkage);
        let mut items = Vec::new();
        let work = scratch.with_fold(|scratch, fold, folded| {
            model.fold_in_user_into(history, iterations, shrinkage, fold, folded);
            let scorer = FoldedScorer { model, folded };
            index.top_k_into(&scorer, q.user, time, q.k, scratch, &mut items)
        });
        self.stats.record(work.items_examined, work.blocks_skipped, true, elapsed_nanos(start));
        Response {
            items: Arc::new(items),
            items_examined: work.items_examined,
            source: Source::FoldIn,
            epoch: snap.epoch(),
        }
    }

    /// Answers a batch across up to `num_threads` scoped workers.
    /// Queries are sharded into contiguous ranges balanced by `k` (the
    /// same discipline `tcam_core::parallel` applies to users), every
    /// worker reuses one scratch buffer for its whole shard, and
    /// responses come back in input order.
    pub fn query_batch(&self, queries: &[Query], num_threads: usize) -> Vec<Response> {
        let snap = self.snapshot();
        let shards = balanced_query_shards(queries, num_threads);
        if shards.len() == 1 {
            let mut scratch = self.scratch.checkout();
            return queries.iter().map(|&q| self.answer(&snap, &mut scratch, q)).collect();
        }
        let per_shard: Vec<Vec<Response>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|range| {
                    let snap = &snap;
                    scope.spawn(move || {
                        let mut scratch = self.scratch.checkout();
                        // tcam-lint: allow(no-panic) -- shard ranges partition 0..queries.len()
                        queries[range]
                            .iter()
                            .map(|&q| self.answer(snap, &mut scratch, q))
                            .collect::<Vec<Response>>()
                    })
                })
                .collect();
            // tcam-lint: allow(no-panic) -- re-raising a worker panic, not introducing one
            handles.into_iter().map(|h| h.join().expect("serve worker panicked")).collect()
        });
        per_shard.into_iter().flatten().collect()
    }

    /// The single-query hot path, shared by [`Self::query`] and the
    /// batch workers.
    fn answer(&self, snap: &ModelSnapshot, scratch: &mut QueryScratch, q: Query) -> Response {
        let start = Instant::now();
        let time = clamp_time(snap, q.time);
        let key: CacheKey = (q.user.0, time.0, q.k.min(u32::MAX as usize) as u32);

        if let Some(items) = self.cache.get(&key, snap.epoch()) {
            self.stats.record(0, 0, false, elapsed_nanos(start));
            return Response {
                items,
                items_examined: 0,
                source: Source::CacheHit,
                epoch: snap.epoch(),
            };
        }

        let (index, model) = (snap.index(), snap.model());
        let mut items = Vec::new();
        let (work, source) = if q.user.index() < snap.num_users() {
            (index.top_k_into(model, q.user, time, q.k, scratch, &mut items), Source::TaIndex)
        } else {
            // Unseen user, no history: the snapshot's precomputed
            // temporal-context-only prior.
            let scorer = FoldedScorer { model, folded: snap.default_folded() };
            (index.top_k_into(&scorer, q.user, time, q.k, scratch, &mut items), Source::FoldIn)
        };

        let items = Arc::new(items);
        self.cache.insert(key, snap.epoch(), Arc::clone(&items));
        let folded = source == Source::FoldIn;
        self.stats.record(work.items_examined, work.blocks_skipped, folded, elapsed_nanos(start));
        Response { items, items_examined: work.items_examined, source, epoch: snap.epoch() }
    }
}

fn clamp_time(snap: &ModelSnapshot, time: TimeId) -> TimeId {
    let last = snap.num_times().saturating_sub(1) as u32;
    TimeId(time.0.min(last))
}

fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::{FitConfig, TtcamModel};
    use tcam_data::synth;
    use tcam_rec::{brute_force_top_k, TemporalScorer};

    fn fitted(seed: u64) -> TtcamModel {
        let data = synth::SynthDataset::generate(synth::tiny(seed)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(4)
            .with_time_topics(3)
            .with_iterations(6)
            .with_seed(seed);
        TtcamModel::fit(&data.cuboid, &config).unwrap().model
    }

    fn engine(seed: u64, config: ServeConfig) -> ServeEngine {
        ServeEngine::new(ModelSnapshot::new(fitted(seed), 1), config)
    }

    fn assert_same_scores(a: &[Scored], b: &[Scored]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            // Ties are deterministic (ascending item id) on every path,
            // so ids must agree outright, not just scores.
            assert_eq!(x.index, y.index, "item mismatch: {} vs {}", x.index, y.index);
            assert!(
                (x.score - y.score).abs() < 1e-10,
                "score mismatch: {} vs {}",
                x.score,
                y.score
            );
        }
    }

    #[test]
    fn ta_path_matches_brute_force() {
        let eng = engine(400, ServeConfig::default());
        let snap = eng.snapshot();
        let mut buffer = vec![0.0; snap.num_items()];
        for u in 0..6u32 {
            let q = Query { user: UserId(u), time: TimeId(u % 4), k: 8 };
            let response = eng.query(q);
            assert_eq!(response.source, Source::TaIndex);
            let bf = brute_force_top_k(snap.model(), q.user, q.time, q.k, &mut buffer);
            assert_same_scores(&response.items, &bf);
        }
    }

    #[test]
    fn fold_in_responses_are_the_kernel_answer() {
        let eng = engine(401, ServeConfig::default());
        let snap = eng.snapshot();
        let unseen = UserId(snap.num_users() as u32 + 1);
        let q = Query { user: unseen, time: TimeId(1), k: 4 };
        let history = [FoldInRating { time: TimeId(0), item: 1, value: 1.0 }];
        let folded = snap.model().fold_in_user(
            &history,
            eng.config().foldin_iterations,
            eng.config().foldin_shrinkage,
        );
        for (response, folded) in
            [(eng.query(q), snap.default_folded()), (eng.query_with_history(q, &history), &folded)]
        {
            assert_eq!(response.source, Source::FoldIn);
            let scorer = FoldedScorer { model: snap.model(), folded };
            let direct = snap.index().top_k(&scorer, q.user, q.time, q.k);
            assert_same_scores(&response.items, &direct.items);
            assert_eq!(response.items_examined, direct.items_examined);
            assert!(response.items_examined <= snap.num_items());
        }
        assert_eq!(eng.stats().folded_queries, 2);
    }

    #[test]
    fn repeat_query_hits_cache() {
        let eng = engine(402, ServeConfig::default());
        let q = Query { user: UserId(1), time: TimeId(0), k: 5 };
        let first = eng.query(q);
        let second = eng.query(q);
        assert_ne!(first.source, Source::CacheHit);
        assert_eq!(second.source, Source::CacheHit);
        assert_eq!(second.items_examined, 0);
        assert_same_scores(&first.items, &second.items);
        let stats = eng.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn unseen_user_takes_context_only_fold_in() {
        let eng = engine(403, ServeConfig::default());
        let snap = eng.snapshot();
        let unseen = UserId(snap.num_users() as u32 + 10);
        let q = Query { user: unseen, time: TimeId(1), k: 6 };
        let response = eng.query(q);
        assert_eq!(response.source, Source::FoldIn);
        // The backoff is exactly the temporal-context-only mixture.
        assert_eq!(snap.default_folded().lambda, 0.0);
        let scorer = FoldedScorer { model: snap.model(), folded: snap.default_folded() };
        let mut buffer = vec![0.0; snap.num_items()];
        let bf = brute_force_top_k(&scorer, q.user, q.time, q.k, &mut buffer);
        assert_same_scores(&response.items, &bf);
        assert_eq!(eng.stats().folded_queries, 1);
    }

    #[test]
    fn history_query_personalizes_and_skips_cache() {
        let eng = engine(404, ServeConfig::default());
        let snap = eng.snapshot();
        let unseen = UserId(snap.num_users() as u32);
        let history = vec![
            FoldInRating { time: TimeId(0), item: 1, value: 2.0 },
            FoldInRating { time: TimeId(1), item: 3, value: 1.0 },
        ];
        let q = Query { user: unseen, time: TimeId(1), k: 6 };
        let response = eng.query_with_history(q, &history);
        assert_eq!(response.source, Source::FoldIn);
        assert_eq!(eng.cache().len(), 0, "history responses are not cached");
        // Exact against a direct fold-in + brute force.
        let folded = snap.model().fold_in_user(
            &history,
            eng.config().foldin_iterations,
            eng.config().foldin_shrinkage,
        );
        let scorer = FoldedScorer { model: snap.model(), folded: &folded };
        let mut buffer = vec![0.0; snap.num_items()];
        let bf = brute_force_top_k(&scorer, q.user, q.time, q.k, &mut buffer);
        assert_same_scores(&response.items, &bf);
    }

    #[test]
    fn folded_scorer_score_matches_score_all() {
        let model = fitted(405);
        let folded =
            model.fold_in_user(&[FoldInRating { time: TimeId(0), item: 2, value: 1.0 }], 10, 1.0);
        let scorer = FoldedScorer { model: &model, folded: &folded };
        let mut all = vec![0.0; model.num_items()];
        scorer.score_all(UserId(0), TimeId(2), &mut all);
        for (item, &expected) in all.iter().enumerate() {
            let single = scorer.score(UserId(0), TimeId(2), item);
            assert!((single - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_matches_sequential() {
        let eng = engine(406, ServeConfig::default());
        let snap = eng.snapshot();
        let queries: Vec<Query> = (0..40u32)
            .map(|i| Query {
                // Mix seen and unseen users and a spread of k.
                user: UserId(i % (snap.num_users() as u32 + 3)),
                time: TimeId(i % 5),
                k: 1 + (i as usize % 10),
            })
            .collect();
        let batch = eng.query_batch(&queries, 4);
        assert_eq!(batch.len(), queries.len());
        let reference = engine(406, ServeConfig::default());
        for (q, response) in queries.iter().zip(batch.iter()) {
            let expected = reference.query(*q);
            assert_same_scores(&response.items, &expected.items);
        }
        assert_eq!(eng.stats().queries, queries.len() as u64);
    }

    #[test]
    fn batch_single_thread_works() {
        let eng = engine(407, ServeConfig::default());
        let queries = vec![Query { user: UserId(0), time: TimeId(0), k: 3 }; 5];
        let responses = eng.query_batch(&queries, 1);
        assert_eq!(responses.len(), 5);
        // Same key five times: one miss then four cache hits.
        assert_eq!(eng.stats().cache_hits, 4);
    }

    #[test]
    fn swap_snapshot_clears_cache_and_bumps_epoch() {
        let eng = engine(408, ServeConfig::default());
        let q = Query { user: UserId(0), time: TimeId(0), k: 4 };
        assert_eq!(eng.query(q).epoch, 1);
        assert!(!eng.cache().is_empty());
        eng.swap_snapshot(Arc::new(ModelSnapshot::new(fitted(409), 2)));
        assert_eq!(eng.cache().len(), 0);
        let response = eng.query(q);
        assert_eq!(response.epoch, 2);
        assert_ne!(response.source, Source::CacheHit);
    }

    #[test]
    fn out_of_range_time_clamps_to_last_interval() {
        let eng = engine(410, ServeConfig::default());
        let snap = eng.snapshot();
        let last = TimeId(snap.num_times() as u32 - 1);
        let future = Query { user: UserId(0), time: TimeId(9999), k: 5 };
        let clamped = Query { user: UserId(0), time: last, k: 5 };
        let a = eng.query(future);
        let b = eng.query(clamped);
        assert_same_scores(&a.items, &b.items);
        assert_eq!(b.source, Source::CacheHit, "both map to one cache key");
    }

    #[test]
    fn stats_reflect_served_traffic() {
        let eng = engine(411, ServeConfig::default());
        for u in 0..5u32 {
            eng.query(Query { user: UserId(u), time: TimeId(0), k: 5 });
        }
        let stats = eng.stats();
        assert_eq!(stats.queries, 5);
        assert!(stats.items_examined > 0);
        assert!(stats.latency_p99_us > 0.0);
        assert!(stats.mean_latency_us > 0.0);
        // Every answered query lands in the kernel-work histograms.
        assert_eq!(stats.items_examined_log2.iter().sum::<u64>(), 5);
        assert_eq!(stats.blocks_skipped_log2.iter().sum::<u64>(), 5);
    }

    #[test]
    fn ta_queries_reuse_worker_scratch_without_reallocation() {
        let eng = engine(412, ServeConfig::default());
        let items = eng.snapshot().num_items();
        let session: Vec<FoldInRating> = (0..12u32)
            .map(|i| FoldInRating {
                time: TimeId(i % 4),
                item: (7 * i as usize) % items,
                value: 1.0,
            })
            .collect();
        // Warm the single sequential worker's scratch at the largest k
        // and the longest session the loop uses, then verify its kernel
        // and fold-in buffers stay put across many distinct queries,
        // history queries of every session length interleaved.
        let widest = Query { user: UserId(0), time: TimeId(0), k: 7 };
        eng.query(widest);
        eng.query_with_history(widest, &session);
        let fingerprint = {
            let guard = eng.scratch.checkout();
            guard.fingerprint()
        };
        assert_ne!(fingerprint[9], (0, 0), "history queries fold in on the pooled scratch");
        let created = eng.scratch.created();
        for u in 1..30u32 {
            let q = Query { user: UserId(u % 8), time: TimeId(u % 4), k: 1 + (u as usize % 7) };
            eng.query(q);
            eng.query_with_history(q, &session[..u as usize % session.len()]);
        }
        let after = {
            let guard = eng.scratch.checkout();
            guard.fingerprint()
        };
        assert_eq!(fingerprint, after, "steady-state TA and history paths must not reallocate");
        assert_eq!(eng.scratch.created(), created, "one worker, one scratch");
    }
}
