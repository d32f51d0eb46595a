//! Timing helpers for the efficiency studies (Fig. 8 and Table 4).

use crate::scorer::{FactoredScorer, TemporalScorer};
use crate::ta::{QueryScratch, TaIndex};
use std::time::{Duration, Instant};
use tcam_data::{TimeId, UserId};

/// Times an arbitrary closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Mean brute-force top-k latency over a set of queries.
pub fn time_brute_force<S: TemporalScorer + ?Sized>(
    scorer: &S,
    queries: &[(UserId, TimeId)],
    k: usize,
) -> Duration {
    let mut buffer = vec![0.0; scorer.num_items()];
    let start = Instant::now();
    for &(u, t) in queries {
        let top = crate::ta::brute_force_top_k(scorer, u, t, k, &mut buffer);
        std::hint::black_box(top);
    }
    start.elapsed() / queries.len().max(1) as u32
}

/// Mean block-max top-k latency over a set of queries (index prebuilt,
/// as in the paper's online setting; one scratch reused throughout, as
/// the serving engine does).
pub fn time_ta<S: FactoredScorer>(
    scorer: &S,
    index: &TaIndex,
    queries: &[(UserId, TimeId)],
    k: usize,
) -> Duration {
    let mut scratch = QueryScratch::new();
    let start = Instant::now();
    for &(u, t) in queries {
        let mut top = Vec::new();
        index.top_k_into(scorer, u, t, k, &mut scratch, &mut top);
        std::hint::black_box(top);
    }
    start.elapsed() / queries.len().max(1) as u32
}

/// Mean classic-TA (Algorithm 1) top-k latency over a set of queries.
pub fn time_ta_classic<S: FactoredScorer>(
    scorer: &S,
    index: &TaIndex,
    queries: &[(UserId, TimeId)],
    k: usize,
) -> Duration {
    let mut scratch = QueryScratch::new();
    let start = Instant::now();
    for &(u, t) in queries {
        let mut top = Vec::new();
        index.top_k_classic_into(scorer, u, t, k, &mut scratch, &mut top);
        std::hint::black_box(top);
    }
    start.elapsed() / queries.len().max(1) as u32
}

/// Mean `(items examined, blocks skipped)` of the block-max kernel over
/// a set of queries.
pub fn mean_query_work<S: FactoredScorer>(
    scorer: &S,
    index: &TaIndex,
    queries: &[(UserId, TimeId)],
    k: usize,
) -> (f64, f64) {
    if queries.is_empty() {
        return (0.0, 0.0);
    }
    let (mut scratch, mut out) = (QueryScratch::new(), Vec::new());
    let (mut examined, mut skipped) = (0usize, 0usize);
    for &(u, t) in queries {
        let work = index.top_k_into(scorer, u, t, k, &mut scratch, &mut out);
        examined += work.items_examined;
        skipped += work.blocks_skipped;
    }
    let n = queries.len() as f64;
    (examined as f64 / n, skipped as f64 / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::{FitConfig, TtcamModel};
    use tcam_data::synth;

    #[test]
    fn timed_measures_and_returns() {
        let (value, elapsed) = timed(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(value, 42);
        assert!(elapsed >= Duration::from_millis(4));
    }

    #[test]
    fn timing_helpers_run() {
        let data = synth::SynthDataset::generate(synth::tiny(100)).unwrap();
        let config =
            FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(3);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        let queries: Vec<(UserId, TimeId)> = (0..5).map(|u| (UserId(u), TimeId(0))).collect();
        let bf = time_brute_force(&model, &queries, 5);
        let ta = time_ta(&model, &index, &queries, 5);
        let classic = time_ta_classic(&model, &index, &queries, 5);
        assert!(bf > Duration::ZERO || ta >= Duration::ZERO || classic >= Duration::ZERO);
        let (examined, skipped) = mean_query_work(&model, &index, &queries, 5);
        assert!(examined > 0.0);
        assert!(examined <= model.num_items() as f64);
        assert!(skipped <= index.num_blocks() as f64);
        assert_eq!(mean_query_work(&model, &index, &queries, 5), (examined, skipped));
    }

    #[test]
    fn empty_queries_are_safe() {
        let data = synth::SynthDataset::generate(synth::tiny(101)).unwrap();
        let config =
            FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(2);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        assert_eq!(mean_query_work(&model, &index, &[], 5), (0.0, 0.0));
        let _ = time_brute_force(&model, &[], 5);
    }
}
