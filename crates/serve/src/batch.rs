//! Batch sharding: contiguous ranges balanced by estimated per-query
//! cost rather than query count, through the same cut as the EM shard
//! plan (`tcam_core::parallel::balanced_cut`). The cost proxy is `k` —
//! a larger result heap means more TA rounds — so a batch mixing `k=1`
//! probes with `k=100` exports still splits evenly.

use crate::engine::Query;
use std::ops::Range;
use tcam_core::parallel::balanced_cut;

/// Splits `0..queries.len()` into at most `num_threads` contiguous
/// ranges with approximately equal total `k`.
pub fn balanced_query_shards(queries: &[Query], num_threads: usize) -> Vec<Range<usize>> {
    balanced_cut(queries.iter().map(|q| q.k.max(1)), num_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_data::{TimeId, UserId};

    fn queries_with_ks(ks: &[usize]) -> Vec<Query> {
        ks.iter().map(|&k| Query { user: UserId(0), time: TimeId(0), k }).collect()
    }

    #[test]
    fn shards_cover_batch_in_order() {
        let qs = queries_with_ks(&[5, 1, 1, 1, 8, 2, 2]);
        for threads in 1..=5 {
            let shards = balanced_query_shards(&qs, threads);
            assert!(shards.len() <= threads);
            assert_eq!(shards.first().unwrap().start, 0);
            assert_eq!(shards.last().unwrap().end, 7);
            for w in shards.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn shards_balance_by_k() {
        // One expensive k=90 query and nine k=1 probes: the whale must
        // sit alone in the first shard.
        let mut ks = vec![90usize];
        ks.extend(std::iter::repeat(1).take(9));
        let shards = balanced_query_shards(&queries_with_ks(&ks), 2);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0], 0..1);
    }

    #[test]
    fn empty_batch_one_empty_shard() {
        assert_eq!(balanced_query_shards(&[], 4), vec![0..0]);
    }

    #[test]
    fn zero_k_queries_still_covered() {
        let shards = balanced_query_shards(&queries_with_ks(&[0, 0, 0, 0]), 2);
        assert_eq!(shards.last().unwrap().end, 4);
    }
}
