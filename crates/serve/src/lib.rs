//! # tcam-serve
//!
//! Online serving for the TCAM reproduction: a multi-threaded query
//! engine answering temporal top-k queries `q = (u, t, k)` against an
//! immutable, atomically swappable model snapshot.
//!
//! The paper (Section 4.2) shows how to answer a single query fast —
//! the Threshold Algorithm over the factored score of Eq. 21–22. This
//! crate is the layer above: what a production deployment of that
//! algorithm looks like.
//!
//! * [`ModelSnapshot`] — a fitted [`tcam_core::TtcamModel`] together
//!   with its prebuilt [`tcam_rec::TaIndex`], shared immutably via
//!   [`std::sync::Arc`] so readers never block a model refresh.
//! * [`ServeEngine`] — the query front end. Per query it consults a
//!   bounded sharded LRU [`TopKCache`] keyed `(user, time, k)`, falls
//!   back to the TA index (or a zero-allocation brute-force scan using
//!   per-worker [`ScratchPool`] buffers), and degrades unseen users to
//!   the temporal-context-only mixture via the fold-in path of
//!   [`tcam_core::foldin`].
//! * [`ServeEngine::query_batch`] — answers a batch across scoped
//!   worker threads, sharded contiguously with the same balanced
//!   discipline as `tcam_core::parallel`.
//! * [`StatsRecorder`] / [`ServingStats`] — lock-free serving counters:
//!   a log-bucketed latency histogram, items examined, cache hit rate.

pub mod batch;
pub mod cache;
pub mod engine;
pub mod scratch;
pub mod snapshot;
pub mod stats;

pub use batch::balanced_query_shards;
pub use cache::{CacheKey, TopKCache};
pub use engine::{FoldedScorer, Query, Response, ScoringMode, ServeConfig, ServeEngine, Source};
pub use scratch::{Scratch, ScratchGuard, ScratchPool};
pub use snapshot::ModelSnapshot;
pub use stats::{Log2Histogram, ServingStats, StatsRecorder};
