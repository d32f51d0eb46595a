//! The online refresh loop: ingest → (policy) → warm-start refit →
//! snapshot hot-swap.
//!
//! The state machine (DESIGN.md §13):
//!
//! ```text
//!            ┌──────────── serve (epoch e) ◄──────────┐
//!            │                                        │ swap + cache clear
//!  rating ──►│ IngestLog.append ──► cells ──► due?    ├── yes: fit_warm(prior)
//!            │        │ typed error                   │        publish gate
//!            └────────▼ (state untouched)             │        epoch e+1
//!                   caller                            no / refused: keep serving epoch e
//! ```
//!
//! Between refreshes the serving engine keeps answering from the last
//! published snapshot: queries at intervals the model has not been
//! fitted on clamp to the last fitted interval, and unseen users take
//! the fold-in backoff — both paths already exist in `tcam-serve` and
//! are exactly what "degrade until the next refresh" means.

use crate::ingest::IngestLog;
use crate::{OnlineError, Result};
use std::sync::Arc;
use tcam_core::{FitConfig, InvalidModel, TtcamModel};
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
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOutcome {
    /// Whether the rating opened a new time interval.
    pub rolled_over: bool,
    /// The refresh this rating triggered, if the policy fired.
    pub refreshed: Option<RefreshReport>,
    /// Why the refresh this rating triggered published nothing: its
    /// refit failed or the publish gate refused the model. The rating
    /// is accepted either way, and the previous epoch keeps serving.
    pub refused: Option<OnlineError>,
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
    rejected_refreshes: u64,
}

impl OnlineEngine {
    /// Seeds the log with `seed` ratings, cold-fits the first model on
    /// them, and publishes it as epoch 1 (through the same publish gate
    /// as every refresh).
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
        let snapshot = ModelSnapshot::try_new(model, 1)?;
        let serve = Arc::new(ServeEngine::new(snapshot, config.serve.clone()));
        let snapshot = serve.snapshot();
        Ok(OnlineEngine { log, config, serve, snapshot, since_refresh: 0, rejected_refreshes: 0 })
    }

    /// Validates and ingests one rating, refreshing the snapshot if the
    /// policy fires. A rejected rating returns the typed error and
    /// leaves the log, model, and serving snapshot untouched. An
    /// accepted rating returns `Ok` even when the refresh it triggered
    /// publishes nothing; [`IngestOutcome::refused`] says why.
    pub fn ingest(&mut self, r: Rating) -> Result<IngestOutcome> {
        let times_before = self.log.num_times();
        self.log.append(r)?;
        self.since_refresh += 1;
        let rolled_over = self.log.num_times() > times_before;
        let (refreshed, refused) = if self.config.policy.due(self.since_refresh, rolled_over) {
            match self.refresh() {
                Ok(report) => (Some(report), None),
                Err(e) => (None, Some(e)),
            }
        } else {
            (None, None)
        };
        Ok(IngestOutcome { rolled_over, refreshed, refused })
    }

    /// Rebuilds the training cuboid from the log's cells, warm
    /// starts EM from the current model's rows, and publishes the
    /// result as epoch + 1 (see [`Self::publish`]). The rating counter
    /// restarts whether or not the refresh publishes, so a refused
    /// refresh is not retried on every following rating; a failed refit
    /// keeps the current epoch serving and counts as a rejected refresh.
    pub fn refresh(&mut self) -> Result<RefreshReport> {
        self.since_refresh = 0;
        let train = training_cuboid(&self.log, &self.config);
        let fit = match TtcamModel::fit_warm(&train, &self.config.fit, self.snapshot.model()) {
            Ok(fit) => fit,
            Err(e) => {
                self.rejected_refreshes += 1;
                return Err(e.into());
            }
        };
        let report = RefreshReport {
            epoch: self.epoch() + 1,
            log_likelihood: fit.final_log_likelihood(),
            em_iterations: fit.iterations(),
            num_times: train.num_times(),
            nnz: train.nnz(),
        };
        self.publish(fit.model)?;
        Ok(report)
    }

    /// Hot-swaps `model` into serving as epoch + 1, invalidating the
    /// cache, if it passes the publish gate: [`ModelSnapshot::try_new`],
    /// plus the shape every later warm refresh needs (this log's item
    /// catalog and at most its users and intervals, the configured
    /// topic counts). A refused model leaves the current epoch serving
    /// (the same `Arc`), counts as a rejected refresh, and comes back
    /// as [`OnlineError::Refused`]. Returns the published epoch.
    pub fn publish(&mut self, model: TtcamModel) -> Result<u64> {
        let epoch = self.epoch() + 1;
        let published =
            self.check_warm_prior(&model).and_then(|()| ModelSnapshot::try_new(model, epoch));
        match published {
            Ok(snapshot) => {
                self.snapshot = Arc::new(snapshot);
                self.serve.swap_snapshot(Arc::clone(&self.snapshot));
                Ok(epoch)
            }
            Err(e) => {
                self.rejected_refreshes += 1;
                Err(OnlineError::Refused(e))
            }
        }
    }

    /// Whether `model` can seed this engine's next `fit_warm`.
    fn check_warm_prior(&self, model: &TtcamModel) -> std::result::Result<(), InvalidModel> {
        let fit = &self.config.fit;
        let fixed = [
            ("items", self.log.num_items(), model.num_items()),
            ("user topics", fit.num_user_topics, model.num_user_topics()),
            ("time topics", fit.num_time_topics, model.num_time_topics()),
        ];
        let bounded = [
            ("users", self.log.num_users(), model.num_users()),
            ("times", self.log.num_times(), model.num_times()),
        ];
        let fixed = fixed.into_iter().filter(|&(_, expected, found)| found != expected);
        let bounded = bounded.into_iter().filter(|&(_, bound, found)| found > bound);
        match fixed.chain(bounded).next() {
            Some((param, expected, found)) => Err(InvalidModel::Shape { param, expected, found }),
            None => Ok(()),
        }
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

    /// Refreshes and publishes that left the previous epoch serving: a
    /// failed refit or a model the publish gate refused.
    pub fn rejected_refreshes(&self) -> u64 {
        self.rejected_refreshes
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
    fn failed_refit_keeps_the_epoch_serving_and_accepts_the_rating() {
        let (n, v, maxt, ratings) = seed_stream(25);
        let split = ratings.len() - 5;
        let (seed, rest) = ratings.split_at(split);
        let policy = RefreshPolicy { every_ratings: Some(2), on_rollover: false };
        let mut eng =
            OnlineEngine::bootstrap(n, v, maxt, seed.to_vec(), small_config(policy)).unwrap();
        let serving = eng.serve().snapshot();
        // A topic count that no longer matches the prior: `fit_warm`
        // returns a typed error on every refresh.
        eng.config.fit.num_user_topics += 1;
        let accepted = eng.log().len();
        eng.ingest(rest[0]).unwrap();
        let outcome = eng.ingest(rest[1]).expect("the rating was appended, so ingest is Ok");
        assert!(outcome.refreshed.is_none());
        assert!(matches!(outcome.refused, Some(OnlineError::Model(_))), "{outcome:?}");
        assert_eq!(eng.log().len(), accepted + 2);
        assert_eq!(eng.rejected_refreshes(), 1);
        assert_eq!(eng.since_refresh(), 0, "a refused refresh restarts the counter");
        assert!(Arc::ptr_eq(&serving, &eng.serve().snapshot()), "the previous epoch serves");
        assert_eq!(eng.epoch(), 1);
        // The next rating is not due, so it does not refit again.
        let outcome = eng.ingest(rest[2]).unwrap();
        assert!(outcome.refreshed.is_none() && outcome.refused.is_none());
        assert_eq!(eng.rejected_refreshes(), 1);
        // Restore the config: the next due refresh publishes epoch 2.
        eng.config.fit.num_user_topics -= 1;
        let outcome = eng.ingest(rest[3]).unwrap();
        assert_eq!(outcome.refreshed.map(|r| r.epoch), Some(2));
        assert_eq!(eng.epoch(), 2);
    }

    #[test]
    fn publish_refuses_a_prior_the_next_refresh_could_not_warm_start() {
        let (n, v, maxt, ratings) = seed_stream(26);
        let mut eng =
            OnlineEngine::bootstrap(n, v, maxt, ratings, small_config(RefreshPolicy::manual()))
                .unwrap();
        let other = small_config(RefreshPolicy::manual()).fit.with_user_topics(4);
        let train = training_cuboid(eng.log(), eng.config());
        let model = TtcamModel::fit(&train, &other).unwrap().model;
        let refused = eng.publish(model).unwrap_err();
        assert!(matches!(
            refused,
            OnlineError::Refused(InvalidModel::Shape {
                param: "user topics",
                expected: 3,
                found: 4
            })
        ));
        assert_eq!((eng.epoch(), eng.rejected_refreshes()), (1, 1));
        assert_eq!(eng.refresh().unwrap().epoch, 2, "refreshes still warm-start");
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
