//! The differential oracle: batch rebuilds the ingest state is checked
//! against.
//!
//! Every function here takes the [`IngestLog`]'s *accepted arrival-order
//! stream* and pushes it through the batch constructors the rest of the
//! workspace already trusts (`RatingCuboid::from_ratings`,
//! `ItemWeighting::compute`, `TtcamModel::fit_warm`). The equivalence
//! check then compares bit patterns, not approximate values: `f64`
//! addition is commutative but not associative, so "equal up to
//! reordering" would hide real divergence between the log's cells and
//! the batch path.

use crate::engine::OnlineConfig;
use crate::ingest::IngestLog;
use tcam_core::{FitResult, TtcamModel};
use tcam_data::{ItemWeighting, RatingCuboid};

/// Rebuilds the cuboid from scratch: `from_ratings` over the accepted
/// stream in arrival order, with the log's current dimensions.
pub fn batch_cuboid(log: &IngestLog) -> RatingCuboid {
    RatingCuboid::from_ratings(
        log.num_users(),
        log.num_times(),
        log.num_items(),
        log.ratings().to_vec(),
    )
    // tcam-lint: allow(no-panic) -- the log's accept path already ran this validation
    .expect("accepted ratings passed the same validation from_ratings applies")
}

/// Refits the model the way a cold pipeline would after the same
/// prefix: batch-rebuild the (optionally weighted) training cuboid and
/// warm-start from `prior` — the comparator for a refreshed snapshot.
pub fn cold_refit(
    log: &IngestLog,
    config: &OnlineConfig,
    prior: &TtcamModel,
) -> tcam_core::Result<FitResult<TtcamModel>> {
    let cuboid = batch_cuboid(log);
    let train = match config.weighting {
        Some(scheme) => ItemWeighting::compute(&cuboid).apply_with(scheme, &cuboid),
        None => cuboid,
    };
    TtcamModel::fit_warm(&train, &config.fit, prior)
}

/// Checks that [`IngestLog::materialize`] is bitwise equal to the batch
/// rebuild: same dimensions, same cells, and bit-identical cell values.
/// This is the per-prefix assertion the differential harness replays;
/// the weights need no check of their own, because a refresh and the
/// oracle both compute them from the cuboid this compares.
pub fn check_equivalence(log: &IngestLog) -> Result<(), String> {
    let materialized = log.materialize();
    let batch = batch_cuboid(log);
    if materialized != batch {
        return Err(format!(
            "cuboid mismatch after {} ratings: log {}x{}x{} nnz {}, batch {}x{}x{} nnz {}",
            log.len(),
            materialized.num_users(),
            materialized.num_times(),
            materialized.num_items(),
            materialized.nnz(),
            batch.num_users(),
            batch.num_times(),
            batch.num_items(),
            batch.nnz(),
        ));
    }
    // `PartialEq` on f64 is value equality; insist on bit equality too.
    for (i, (a, b)) in materialized.entries().iter().zip(batch.entries()).enumerate() {
        if a.value.to_bits() != b.value.to_bits() {
            return Err(format!(
                "cell {i} ({:?}, {:?}, {:?}): log {} vs batch {} differ in bits",
                a.user, a.time, a.item, a.value, b.value,
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_data::{ItemId, Rating, TimeId, UserId};

    fn rating(u: u32, t: u32, v: u32, value: f64) -> Rating {
        Rating { user: UserId(u), time: TimeId(t), item: ItemId(v), value }
    }

    #[test]
    fn equivalence_holds_on_a_small_stream_with_duplicates() {
        let mut log = IngestLog::new(4, 5, 8);
        for r in [
            rating(3, 0, 4, 0.1),
            rating(3, 0, 4, 0.2),
            rating(3, 0, 4, 0.3),
            rating(0, 1, 1, 1.0),
            rating(1, 1, 1, 0.0),
            rating(1, 1, 1, 2.0),
            rating(2, 5, 0, 1.5),
        ] {
            log.append(r).unwrap();
            check_equivalence(&log).unwrap();
        }
        // The triple-duplicate cell must equal the arrival-order sum.
        let cuboid = log.materialize();
        assert_eq!(
            cuboid.get(UserId(3), TimeId(0), ItemId(4)).to_bits(),
            ((0.1f64 + 0.2) + 0.3).to_bits()
        );
    }

    #[test]
    fn empty_log_is_equivalent() {
        let log = IngestLog::new(3, 3, 3);
        check_equivalence(&log).unwrap();
    }
}
