//! Immutable serving snapshots.
//!
//! A snapshot bundles everything the query path needs — the fitted
//! model, its TA index, and the precomputed fold-in prior for users the
//! model has never seen — behind one `Arc`. The engine swaps the whole
//! bundle atomically on model refresh, so a query never observes a
//! model paired with a stale index.

use tcam_core::{FoldedUser, InvalidModel, TtcamModel};
use tcam_rec::TaIndex;

/// The fold-in backoff for a user with no evidence at all: the personal
/// component is unidentifiable, so serving drops it (`lambda = 0`) and
/// ranks purely by the temporal context `P(v | theta'_t)` plus the
/// background — "what is popular right now".
fn context_only_prior(model: &TtcamModel) -> FoldedUser {
    let k1 = model.num_user_topics().max(1);
    FoldedUser { interest: vec![1.0 / k1 as f64; k1], lambda: 0.0 }
}

/// One immutable generation of the serving state.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    model: TtcamModel,
    index: TaIndex,
    /// Precomputed temporal-context-only backoff (uniform interest,
    /// `lambda = 0`). Every unseen user without a supplied history
    /// scores with this, so it is built once per snapshot instead of
    /// once per cold query.
    default_folded: FoldedUser,
    epoch: u64,
}

impl ModelSnapshot {
    /// Builds a snapshot from a fitted model, paying the `O(K V log V)`
    /// TA index construction up front (parallelized across factor
    /// lists when cores are available).
    pub fn new(model: TtcamModel, epoch: u64) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let index = TaIndex::build_with_threads(&model, threads);
        let default_folded = context_only_prior(&model);
        ModelSnapshot { model, index, default_folded, epoch }
    }

    /// The publish gate: [`Self::new`] for a model that passes
    /// [`TtcamModel::validate`] (consistent shapes, finite values,
    /// distribution rows, mixing weights in `[0, 1]`), and the typed
    /// reason otherwise. The block-max kernel's bounds assume all of
    /// these, so a model that fails them must never reach serving.
    pub fn try_new(model: TtcamModel, epoch: u64) -> Result<Self, InvalidModel> {
        model.validate()?;
        Ok(Self::new(model, epoch))
    }

    /// The fitted model.
    pub fn model(&self) -> &TtcamModel {
        &self.model
    }

    /// The prebuilt Threshold Algorithm index for [`Self::model`].
    pub fn index(&self) -> &TaIndex {
        &self.index
    }

    /// The no-evidence backoff (temporal-context-only mixture).
    pub fn default_folded(&self) -> &FoldedUser {
        &self.default_folded
    }

    /// Monotonically increasing generation number, chosen by the caller
    /// at refresh time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Catalog size.
    pub fn num_items(&self) -> usize {
        self.model.num_items()
    }

    /// Number of users the model was fitted on; ids at or beyond this
    /// take the fold-in path.
    pub fn num_users(&self) -> usize {
        self.model.num_users()
    }

    /// Number of time intervals in the model's timeline.
    pub fn num_times(&self) -> usize {
        self.model.num_times()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::FitConfig;
    use tcam_data::synth;

    fn fitted() -> TtcamModel {
        let data = synth::SynthDataset::generate(synth::tiny(300)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(3)
            .with_time_topics(2)
            .with_iterations(4)
            .with_seed(300);
        TtcamModel::fit(&data.cuboid, &config).unwrap().model
    }

    #[test]
    fn snapshot_shapes_match_model() {
        let model = fitted();
        let (users, items, times) = (model.num_users(), model.num_items(), model.num_times());
        let snap = ModelSnapshot::new(model, 7);
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.num_users(), users);
        assert_eq!(snap.num_items(), items);
        assert_eq!(snap.num_times(), times);
        assert_eq!(snap.index().num_items(), items);
    }

    #[test]
    fn a_fitted_model_passes_the_publish_gate() {
        let snap = ModelSnapshot::try_new(fitted(), 3).expect("a fit is servable");
        assert_eq!(snap.epoch(), 3);
    }

    #[test]
    fn default_folded_is_context_only() {
        let model = fitted();
        let k1 = model.num_user_topics();
        let snap = ModelSnapshot::new(model, 0);
        let folded = snap.default_folded();
        assert_eq!(folded.lambda, 0.0, "no personal component without evidence");
        assert_eq!(folded.interest.len(), k1);
        assert!(folded.interest.iter().all(|&w| (w - 1.0 / k1 as f64).abs() < 1e-15));
    }
}
