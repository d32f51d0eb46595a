//! The online refresh loop: ingest → (policy) → warm-start refit →
//! snapshot hot-swap.
//!
//! The state machine (DESIGN.md §13):
//!
//! ```text
//!            ┌──────────── serve (epoch e) ◄──────────┐
//!            │                                        │ swap + cache clear
//!  rating ──►│ IngestLog.append ──► cells ──► due?    ├── yes: fit_warm(prior)
//!            │        │ typed error                   │        epoch e+1
//!            └────────▼ (state untouched)             │
//!                   caller                            no: keep serving epoch e
//! ```
//!
//! Between refreshes the serving engine keeps answering from the last
//! published snapshot: queries at intervals the model has not been
//! fitted on clamp to the last fitted interval, and unseen users take
//! the fold-in backoff — both paths already exist in `tcam-serve` and
//! are exactly what "degrade until the next refresh" means.

use crate::ingest::IngestLog;
use crate::Result;
use std::sync::Arc;
use tcam_core::{FitConfig, TtcamModel};
use tcam_data::{ItemWeighting, Rating, RatingCuboid, WeightingScheme};
use tcam_serve::{ModelSnapshot, Query, Response, ServeConfig, ServeEngine};

/// When to rebuild the model and hot-swap the serving snapshot. Both
/// triggers may be armed at once; a refresh resets the rating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshPolicy {
    /// Refresh once this many ratings accumulate since the last refresh.
    pub every_ratings: Option<u64>,
    /// Refresh as soon as a rating opens a new time interval, so the
    /// bursty statistics of the new interval reach serving immediately.
    pub on_rollover: bool,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy { every_ratings: Some(1024), on_rollover: true }
    }
}

impl RefreshPolicy {
    /// Never refresh automatically; [`OnlineEngine::refresh`] only.
    pub fn manual() -> Self {
        RefreshPolicy { every_ratings: None, on_rollover: false }
    }

    fn due(&self, since_refresh: u64, rolled_over: bool) -> bool {
        (self.on_rollover && rolled_over) || self.every_ratings.is_some_and(|n| since_refresh >= n)
    }
}

/// Configuration of the whole online pipeline.
#[derive(Debug, Clone, Default)]
pub struct OnlineConfig {
    /// EM configuration for the bootstrap fit and every warm refit.
    pub fit: FitConfig,
    /// Train on the weighted cuboid (W-TTCAM) under this scheme, or on
    /// raw counts when `None`.
    pub weighting: Option<WeightingScheme>,
    /// Refresh triggers.
    pub policy: RefreshPolicy,
    /// Serving engine tuning.
    pub serve: ServeConfig,
}

/// What one refresh produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshReport {
    /// Epoch of the snapshot now serving.
    pub epoch: u64,
    /// Final training log-likelihood of the warm refit.
    pub log_likelihood: f64,
    /// EM iterations the warm refit ran.
    pub em_iterations: usize,
    /// Intervals covered by the refreshed model.
    pub num_times: usize,
    /// Nonzero cells in the training cuboid.
    pub nnz: usize,
}

/// Outcome of one accepted rating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestOutcome {
    /// Whether the rating opened a new time interval.
    pub rolled_over: bool,
    /// The refresh this rating triggered, if the policy fired.
    pub refreshed: Option<RefreshReport>,
}

/// Owns the ingest log, the published snapshot (whose model is the
/// warm-start prior of the next refresh), and the serving engine.
///
/// The serving side is an `Arc<ServeEngine>`: clone the handle from
/// [`Self::serve`] into reader threads and keep ingesting on the owner —
/// [`ServeEngine::swap_snapshot`] takes `&self`, so readers never block
/// refreshes and always see either the old or the new epoch, never a
/// torn state.
#[derive(Debug)]
pub struct OnlineEngine {
    log: IngestLog,
    config: OnlineConfig,
    serve: Arc<ServeEngine>,
    /// The latest published snapshot, shared with `serve`: its model is
    /// the one copy of the current epoch's parameters, and the next
    /// refresh warm-starts from its rows.
    snapshot: Arc<ModelSnapshot>,
    since_refresh: u64,
}

impl OnlineEngine {
    /// Seeds the log with `seed` ratings, cold-fits the first model on
    /// them, and publishes it as epoch 1.
    pub fn bootstrap(
        num_users: usize,
        num_items: usize,
        max_times: usize,
        seed: Vec<Rating>,
        config: OnlineConfig,
    ) -> Result<Self> {
        let mut log = IngestLog::new(num_users, num_items, max_times);
        log.append_all(seed)?;
        let train = training_cuboid(&log, &config);
        let model = TtcamModel::fit(&train, &config.fit)?.model;
        let serve = Arc::new(ServeEngine::new(ModelSnapshot::new(model, 1), config.serve.clone()));
        let snapshot = serve.snapshot();
        Ok(OnlineEngine { log, config, serve, snapshot, since_refresh: 0 })
    }

    /// Validates and ingests one rating, refreshing the snapshot if the
    /// policy fires. A rejected rating returns the typed error and
    /// leaves the log, model, and serving snapshot untouched.
    pub fn ingest(&mut self, r: Rating) -> Result<IngestOutcome> {
        let times_before = self.log.num_times();
        self.log.append(r)?;
        self.since_refresh += 1;
        let rolled_over = self.log.num_times() > times_before;
        let refreshed = if self.config.policy.due(self.since_refresh, rolled_over) {
            Some(self.refresh()?)
        } else {
            None
        };
        Ok(IngestOutcome { rolled_over, refreshed })
    }

    /// Rebuilds the training cuboid from the log's cells, warm
    /// starts EM from the current model's rows, and hot-swaps the new
    /// snapshot (epoch + 1) into serving, invalidating the cache.
    pub fn refresh(&mut self) -> Result<RefreshReport> {
        let train = training_cuboid(&self.log, &self.config);
        let fit = TtcamModel::fit_warm(&train, &self.config.fit, self.snapshot.model())?;
        let report = RefreshReport {
            epoch: self.epoch() + 1,
            log_likelihood: fit.final_log_likelihood(),
            em_iterations: fit.iterations(),
            num_times: train.num_times(),
            nnz: train.nnz(),
        };
        self.snapshot = Arc::new(ModelSnapshot::new(fit.model, report.epoch));
        self.serve.swap_snapshot(Arc::clone(&self.snapshot));
        self.since_refresh = 0;
        Ok(report)
    }

    /// Answers one query against the currently published snapshot.
    pub fn query(&self, q: Query) -> Response {
        self.serve.query(q)
    }

    /// The serving engine handle (clone the `Arc` into reader threads).
    pub fn serve(&self) -> &Arc<ServeEngine> {
        &self.serve
    }

    /// The ingest log (read-only; mutate through [`Self::ingest`]).
    pub fn log(&self) -> &IngestLog {
        &self.log
    }

    /// The latest fitted model — the warm-start prior of the next
    /// refresh.
    pub fn model(&self) -> &TtcamModel {
        self.snapshot.model()
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Ratings accepted since the last refresh.
    pub fn since_refresh(&self) -> u64 {
        self.since_refresh
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }
}

/// The cuboid EM trains on for the log's current prefix: materialized,
/// and item-weighted when the config asks for W-TTCAM, with weights
/// computed on the cuboid just materialized.
pub fn training_cuboid(log: &IngestLog, config: &OnlineConfig) -> RatingCuboid {
    let cuboid = log.materialize();
    match config.weighting {
        Some(scheme) => ItemWeighting::compute(&cuboid).apply_with(scheme, &cuboid),
        None => cuboid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_data::{synth, ItemId, TimeId, UserId};

    fn rating(u: u32, t: u32, v: u32, value: f64) -> Rating {
        Rating { user: UserId(u), time: TimeId(t), item: ItemId(v), value }
    }

    fn small_config(policy: RefreshPolicy) -> OnlineConfig {
        OnlineConfig {
            fit: FitConfig::default()
                .with_user_topics(3)
                .with_time_topics(2)
                .with_iterations(3)
                .with_seed(9),
            weighting: None,
            policy,
            serve: ServeConfig::default(),
        }
    }

    fn seed_stream(seed: u64) -> (usize, usize, usize, Vec<Rating>) {
        let data = synth::SynthDataset::generate(synth::tiny(seed)).unwrap();
        let c = &data.cuboid;
        // Re-emit the cuboid's cells in time order so the stream is
        // monotone, as a real feed would be.
        let mut ratings: Vec<Rating> = c.entries().to_vec();
        ratings.sort_by_key(|r| (r.time, r.user, r.item));
        (c.num_users(), c.num_items(), c.num_times() + 4, ratings)
    }

    #[test]
    fn bootstrap_serves_epoch_one() {
        let (n, v, maxt, ratings) = seed_stream(21);
        let eng =
            OnlineEngine::bootstrap(n, v, maxt, ratings, small_config(RefreshPolicy::manual()))
                .unwrap();
        assert_eq!(eng.epoch(), 1);
        let response = eng.query(Query { user: UserId(0), time: TimeId(0), k: 5 });
        assert_eq!(response.epoch, 1);
        assert_eq!(response.items.len(), 5);
    }

    #[test]
    fn count_policy_triggers_refresh_and_bumps_epoch() {
        let (n, v, maxt, ratings) = seed_stream(22);
        let split = ratings.len() - 6;
        let (seed, rest) = ratings.split_at(split);
        let policy = RefreshPolicy { every_ratings: Some(4), on_rollover: false };
        let mut eng =
            OnlineEngine::bootstrap(n, v, maxt, seed.to_vec(), small_config(policy)).unwrap();
        let mut refreshes = 0;
        for &r in rest {
            let outcome = eng.ingest(r).unwrap();
            if let Some(report) = outcome.refreshed {
                refreshes += 1;
                assert_eq!(report.epoch, eng.epoch());
                assert_eq!(eng.since_refresh(), 0);
            }
        }
        assert_eq!(refreshes, 1, "6 ratings, refresh every 4");
        assert_eq!(eng.epoch(), 2);
        assert_eq!(eng.serve().snapshot().epoch(), 2);
    }

    #[test]
    fn rollover_policy_refreshes_on_new_interval() {
        let (n, v, maxt, ratings) = seed_stream(23);
        let last_t = ratings.last().unwrap().time.0;
        let policy = RefreshPolicy { every_ratings: None, on_rollover: true };
        let mut eng = OnlineEngine::bootstrap(n, v, maxt, ratings, small_config(policy)).unwrap();
        let outcome = eng.ingest(rating(0, last_t + 1, 0, 1.0)).unwrap();
        assert!(outcome.rolled_over);
        let report = outcome.refreshed.expect("rollover must refresh");
        assert_eq!(report.num_times, last_t as usize + 2);
        assert_eq!(eng.model().num_times(), last_t as usize + 2);
        // Same interval again: no rollover, no refresh.
        let outcome = eng.ingest(rating(1, last_t + 1, 0, 1.0)).unwrap();
        assert!(!outcome.rolled_over);
        assert!(outcome.refreshed.is_none());
    }

    #[test]
    fn rejected_rating_leaves_engine_serving_untouched() {
        let (n, v, maxt, ratings) = seed_stream(24);
        let mut eng =
            OnlineEngine::bootstrap(n, v, maxt, ratings, small_config(RefreshPolicy::default()))
                .unwrap();
        let before = eng.log().fingerprint();
        let snap_before = eng.serve().snapshot();
        assert!(eng.ingest(rating(n as u32, 0, 0, 1.0)).is_err());
        assert_eq!(eng.log().fingerprint(), before);
        assert!(Arc::ptr_eq(&snap_before, &eng.serve().snapshot()));
        assert_eq!(eng.epoch(), 1);
    }
}
