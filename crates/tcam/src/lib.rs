//! # tcam
//!
//! Facade crate for the TCAM reproduction — a Rust implementation of
//! *"A Temporal Context-Aware Model for User Behavior Modeling in Social
//! Media Systems"* (Yin, Cui, Chen, Hu, Huang — SIGMOD 2014).
//!
//! Re-exports the full public API of the workspace:
//!
//! * [`math`] — linear algebra and probability distributions,
//! * [`data`] — the rating cuboid, item weighting, splits, and the
//!   synthetic dataset generators,
//! * [`core`] — the ITCAM / TTCAM mixture models with EM inference,
//! * [`baselines`] — UT, TT, BPRMF, BPTF, and popularity scorers,
//! * [`rec`] — temporal top-k recommendation (TA algorithm, metrics,
//!   evaluation harness),
//! * [`serve`] — the online serving engine (snapshot swap, sharded LRU
//!   response cache, batch queries, fold-in backoff, serving stats),
//! * [`online`] — streaming rating ingestion (validated append log
//!   with its cuboid cells, warm-start refresh with snapshot hot-swap,
//!   and the batch-equivalence oracle).
//!
//! ## Quickstart
//!
//! ```
//! use tcam::prelude::*;
//!
//! // Generate a small synthetic social-media dataset.
//! let data = SynthDataset::generate(tcam::data::synth::tiny(7)).unwrap();
//!
//! // Split per (user, interval) into 80% train / 20% test.
//! let split = train_test_split(&data.cuboid, 0.2, &mut Pcg64::new(7));
//!
//! // Fit W-TTCAM: item-weight the cuboid, then fit TTCAM on it.
//! let weighting = ItemWeighting::compute(&split.train);
//! let weighted = weighting.apply(&split.train);
//! let config = FitConfig::default()
//!     .with_user_topics(4)
//!     .with_time_topics(3)
//!     .with_iterations(10);
//! let model = TtcamModel::fit(&weighted, &config).unwrap().model;
//!
//! // Temporal top-k recommendation with the Threshold Algorithm.
//! let index = TaIndex::build(&model);
//! let top = index.top_k(&model, UserId(0), TimeId(1), 5);
//! assert_eq!(top.items.len(), 5);
//! ```

pub use tcam_baselines as baselines;
pub use tcam_core as core;
pub use tcam_data as data;
pub use tcam_math as math;
pub use tcam_online as online;
pub use tcam_rec as rec;
pub use tcam_serve as serve;

/// Everything most programs need, in one import.
pub mod prelude {
    pub use tcam_baselines::{
        Bprmf, BprmfConfig, Bptf, BptfConfig, MostPopular, TimePopular, TimeTopicModel, TtConfig,
        UserTopicModel, UtConfig,
    };
    pub use tcam_core::{FitConfig, FitResult, ItcamModel, TtcamModel};
    pub use tcam_data::{
        train_test_split, CrossValidation, DatasetStats, ItemId, ItemWeighting, Rating,
        RatingCuboid, Split, SynthConfig, SynthDataset, TimeDiscretizer, TimeId, UserId,
    };
    pub use tcam_math::Pcg64;
    pub use tcam_online::{IngestLog, OnlineConfig, OnlineEngine, RefreshPolicy};
    pub use tcam_rec::{
        brute_force_top_k, evaluate, EvalConfig, EvalReport, FactoredScorer, TaIndex,
        TemporalScorer,
    };
    pub use tcam_serve::{ModelSnapshot, Query, ServeConfig, ServeEngine};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_exposes_types() {
        use crate::prelude::*;
        let _ = FitConfig::default();
        let _ = EvalConfig::default();
        let _ = BprmfConfig::default();
        let _ = BptfConfig::default();
        let _ = UtConfig::default();
        let _ = TtConfig::default();
        let _: UserId = UserId(0);
    }
}
