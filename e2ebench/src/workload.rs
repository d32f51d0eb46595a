//! Workload definitions and seeded input generation.
//!
//! Everything a pass consumes — bootstrap ratings, the replayed rating
//! stream, impression and background queries, fold-in sessions, and the
//! injected invalid ratings — is generated here before any clock starts.
//! The synthetic dataset and its time-ordered stream are part of a
//! workload's definition (fixed [`DATA_SEED`]); `--seed` draws all of
//! the traffic and the injected invalid ratings, so the same seed
//! always gives the same inputs.

use tcam_core::{FitConfig, FoldInRating};
use tcam_data::{
    synth, ItemId, Rating, SynthConfig, SynthDataset, TimeId, UserId, WeightingScheme,
};
use tcam_math::dist::Zipf;
use tcam_math::Pcg64;
use tcam_online::{OnlineConfig, RefreshPolicy};
use tcam_serve::{Query, ServeConfig};

/// Seed of every synthetic dataset.
const DATA_SEED: u64 = 1;
/// Share of stream ratings preceded by one injected invalid rating.
const INVALID_SHARE: f64 = 0.005;
/// Share of background queries from ids the model has never seen.
const UNSEEN_SHARE: f64 = 0.05;
/// Zipf exponent of background user traffic.
const ZIPF_S: f64 = 1.1;
/// `k` of impression queries: the cut-off of `hit_rate_at_10`.
const IMPRESSION_K: usize = 10;
/// `catalog_serve`: `k` drawn uniformly from this list.
const CATALOG_KS: [usize; 5] = [5, 10, 10, 10, 50];
/// `catalog_serve`: share of queries answered with a fold-in session.
const HISTORY_SHARE: f64 = 0.01;
/// `catalog_serve`: ratings in one fold-in session.
const SESSION_LEN: usize = 8;
/// `catalog_serve`: trailing intervals held out of the cold fit and
/// streamed while serving.
const CATALOG_HELD_OUT: u32 = 3;
/// `catalog_serve`: response-cache capacity. Half the default, so fewer
/// than half of the queries hit the cache and the median query is a TA
/// or fold-in miss rather than a hit on the edge of the two modes.
const CATALOG_CACHE: usize = 2048;
/// `--smoke`: streamed ratings kept. Enough for a count refresh and a
/// rollover on the replays; the synthetic data at smaller scales hits
/// the known crash (README.md), so smoke mode shortens the stream rather
/// than shrinking the dataset.
const SMOKE_STREAM: usize = 3_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// News: many small count-and-rollover refreshes over an 800-item
    /// catalog, so warm EM dominates and the TA kernel is cheap.
    NewsReplay,
    /// Large catalog served from one fixed snapshot: the query path, the
    /// cache, and the fold-in scan do all the work.
    CatalogServe,
    /// Tagging: few, large rollover-only refreshes on the W-TTCAM
    /// (`IufOnly`) weighted cuboid.
    TaggingRollover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::NewsReplay, Workload::CatalogServe, Workload::TaggingRollover];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NewsReplay => "news_replay",
            Workload::CatalogServe => "catalog_serve",
            Workload::TaggingRollover => "tagging_rollover",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How an injected rating was made invalid, and so which typed
/// `OnlineError` it must come back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalid {
    /// User id past the declared population.
    User,
    /// Item id past the catalog.
    Item,
    /// NaN value.
    NaN,
    /// An interval earlier than the latest accepted one.
    TimeRegression,
}

/// One step of the closed loop.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// The query a user is shown just before rating: `(u, t, k = 10)`,
    /// with the item the user then rates.
    Impression(Query, ItemId),
    /// A valid rating to ingest.
    Rate(Rating),
    /// An invalid rating that must be rejected with a typed error.
    Reject(Rating, Invalid),
    /// A background query.
    Query(Query),
    /// A query answered with a fold-in session (an index into
    /// [`Inputs::sessions`]).
    History(Query, usize),
}

/// Everything one pass replays.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload these inputs belong to.
    pub workload: Workload,
    /// Pipeline configuration of the engine under test.
    pub config: OnlineConfig,
    /// Declared user population.
    pub num_users: usize,
    /// Catalog size.
    pub num_items: usize,
    /// Hard cap on interval ids.
    pub max_times: usize,
    /// Ratings the engine is bootstrapped (cold-fitted) on.
    pub bootstrap: Vec<Rating>,
    /// The closed-loop event stream.
    pub events: Vec<Event>,
    /// Fold-in sessions referenced by [`Event::History`].
    pub sessions: Vec<Vec<FoldInRating>>,
}

impl Inputs {
    /// Ratings in the replayed stream (valid ones only).
    pub fn stream_len(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, Event::Rate(_))).count()
    }

    /// Queries in the event stream, of every kind.
    pub fn query_count(&self) -> usize {
        self.events.iter().filter(|e| !matches!(e, Event::Rate(_) | Event::Reject(..))).count()
    }
}

/// The fit every workload uses: `K1 = 12`, `K2 = 10`, at most 10 EM
/// iterations for the cold fit and each warm refit, one fitting thread
/// (fits are bitwise identical at any thread count; the TA index build
/// uses every available core).
fn fit_config() -> FitConfig {
    FitConfig::default()
        .with_user_topics(12)
        .with_time_topics(10)
        .with_iterations(10)
        .with_seed(DATA_SEED)
        .with_threads(1)
}

/// Generates the inputs of `workload` for `seed`. `smoke` keeps only the
/// first [`SMOKE_STREAM`] streamed ratings (and a matching share of
/// catalog traffic), so the smoke test runs every code path in about a
/// second on the same, crash-free data.
pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Inputs {
    let mut serve = ServeConfig::default();
    let (data, bootstrap_below, policy, weighting) = match workload {
        Workload::NewsReplay => {
            (synth::digg_like(1.0, DATA_SEED), 20, RefreshPolicy::default(), None)
        }
        Workload::CatalogServe => {
            let config = synth::douban_like(1.0, DATA_SEED);
            let fitted = config.num_intervals as u32 - CATALOG_HELD_OUT;
            serve.cache_capacity = CATALOG_CACHE;
            (config, fitted, RefreshPolicy::manual(), None)
        }
        Workload::TaggingRollover => (
            synth::delicious_like(1.0, DATA_SEED),
            8,
            RefreshPolicy { every_ratings: None, on_rollover: true },
            Some(WeightingScheme::IufOnly),
        ),
    };
    let (num_users, num_items, max_times, stream) = time_ordered_stream(data, None);
    let split = stream.partition_point(|r| r.time.0 < bootstrap_below);
    let (bootstrap, replay) = stream.split_at(split);
    let replay = if smoke { &replay[..replay.len().min(SMOKE_STREAM)] } else { replay };

    let mut traffic = Traffic::new(seed, num_users, num_items);
    let mut sessions = Vec::new();
    let events = match workload {
        Workload::NewsReplay => traffic.replay(replay, bootstrap_below - 1, 3),
        Workload::TaggingRollover => traffic.replay(replay, bootstrap_below - 1, 1),
        Workload::CatalogServe => {
            let queries = if smoke { 10_000 } else { 100_000 };
            traffic.catalog(replay, bootstrap_below, queries, &mut sessions)
        }
    };
    Inputs {
        workload,
        config: OnlineConfig { fit: fit_config(), weighting, policy, serve },
        num_users,
        num_items,
        max_times,
        bootstrap: bootstrap.to_vec(),
        events,
        sessions,
    }
}

/// The dataset's ratings in `(time, user, item)` order, with its
/// dimensions. When `shuffle` is given, arrival order inside each
/// interval is shuffled by that seed.
///
/// The workloads replay the unshuffled order: which rating opens an
/// interval decides whether a rollover refresh publishes NaN parameters
/// (README.md, "Known crash"), and this order is verified crash-free.
pub fn time_ordered_stream(
    config: SynthConfig,
    shuffle: Option<u64>,
) -> (usize, usize, usize, Vec<Rating>) {
    let data = SynthDataset::generate(config).expect("preset synthetic configs are valid");
    let cuboid = &data.cuboid;
    let mut stream: Vec<Rating> = cuboid.entries().to_vec();
    stream.sort_by_key(|r| (r.time, r.user, r.item));
    if let Some(seed) = shuffle {
        let mut rng = Pcg64::with_stream(seed, 1);
        let mut start = 0;
        while start < stream.len() {
            let t = stream[start].time;
            let end = start + stream[start..].partition_point(|r| r.time == t);
            let group = &mut stream[start..end];
            for i in (1..group.len()).rev() {
                group.swap(i, rng.gen_range(i + 1));
            }
            start = end;
        }
    }
    (cuboid.num_users(), cuboid.num_items(), cuboid.num_times(), stream)
}

/// Seeded traffic generator.
struct Traffic {
    rng: Pcg64,
    zipf: Zipf,
    num_users: usize,
    num_items: usize,
    invalid_kinds: usize,
}

impl Traffic {
    fn new(seed: u64, num_users: usize, num_items: usize) -> Self {
        Traffic {
            rng: Pcg64::with_stream(seed, 2),
            zipf: Zipf::new(num_users, ZIPF_S).expect("non-empty population"),
            num_users,
            num_items,
            invalid_kinds: 0,
        }
    }

    /// A Zipf-popular user, or an id the model has never seen.
    fn user(&mut self) -> UserId {
        if self.rng.gen_bool(UNSEEN_SHARE) {
            UserId::from(self.num_users + self.rng.gen_range(self.num_users))
        } else {
            UserId::from(self.zipf.sample(&mut self.rng))
        }
    }

    /// Pushes, before `r`: sometimes one invalid rating, then the
    /// impression query; then `r` itself.
    fn rate(&mut self, events: &mut Vec<Event>, r: Rating, last_time: u32) {
        if self.rng.gen_bool(INVALID_SHARE) {
            let kind = [Invalid::User, Invalid::Item, Invalid::NaN, Invalid::TimeRegression]
                [self.invalid_kinds % 4];
            self.invalid_kinds += 1;
            let bad = match kind {
                Invalid::User => Rating { user: UserId::from(self.num_users), ..r },
                Invalid::Item => Rating { item: ItemId::from(self.num_items), ..r },
                Invalid::NaN => Rating { value: f64::NAN, ..r },
                Invalid::TimeRegression => Rating { time: TimeId(last_time - 1), ..r },
            };
            events.push(Event::Reject(bad, kind));
        }
        events
            .push(Event::Impression(Query { user: r.user, time: r.time, k: IMPRESSION_K }, r.item));
        events.push(Event::Rate(r));
    }

    /// Replay traffic: each rating is preceded by its impression query
    /// and followed by `background` Zipf queries at its interval.
    /// `last_time` is the latest bootstrap interval.
    fn replay(&mut self, stream: &[Rating], mut last_time: u32, background: usize) -> Vec<Event> {
        let mut events = Vec::with_capacity(stream.len() * (background + 2));
        for &r in stream {
            self.rate(&mut events, r, last_time);
            last_time = r.time.0;
            for _ in 0..background {
                let user = self.user();
                events.push(Event::Query(Query { user, time: r.time, k: IMPRESSION_K }));
            }
        }
        events
    }

    /// Catalog traffic: `queries` Zipf queries with `k` from
    /// [`CATALOG_KS`] at uniform intervals of the fitted timeline, 1% of
    /// them with a fold-in session, interleaved evenly with the
    /// held-out stream.
    fn catalog(
        &mut self,
        stream: &[Rating],
        fitted_times: u32,
        queries: usize,
        sessions: &mut Vec<Vec<FoldInRating>>,
    ) -> Vec<Event> {
        let gap = (queries / stream.len().max(1)).max(1);
        let mut events = Vec::with_capacity(queries + 3 * stream.len());
        let mut last_time = fitted_times - 1;
        for &r in stream {
            for _ in 0..gap {
                let user = self.user();
                let time = TimeId::from(self.rng.gen_range(fitted_times as usize));
                let k = CATALOG_KS[self.rng.gen_range(CATALOG_KS.len())];
                let q = Query { user, time, k };
                if self.rng.gen_bool(HISTORY_SHARE) {
                    let session = (0..SESSION_LEN)
                        .map(|_| FoldInRating {
                            time: TimeId::from(self.rng.gen_range(time.index() + 1)),
                            item: self.rng.gen_range(self.num_items),
                            value: 1.0,
                        })
                        .collect();
                    sessions.push(session);
                    events.push(Event::History(q, sessions.len() - 1));
                } else {
                    events.push(Event::Query(q));
                }
            }
            self.rate(&mut events, r, last_time);
            last_time = r.time.0;
        }
        events
    }
}
