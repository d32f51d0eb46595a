//! Parallel E-step scaffolding.
//!
//! The E-step factorizes over ratings, so we shard *users* (whose entry
//! runs are contiguous in the cuboid) across scoped threads and merge
//! per-thread sufficient statistics. Sharding is balanced by entry
//! count, not user count — social-media activity is heavy-tailed and a
//! per-user split would leave one thread holding the whales.

use std::ops::Range;
use tcam_data::{RatingCuboid, UserId};

/// Splits `0..cuboid.num_users()` into at most `num_threads` contiguous
/// ranges with approximately equal total entry counts.
pub fn balanced_user_shards(cuboid: &RatingCuboid, num_threads: usize) -> Vec<Range<usize>> {
    let costs = (0..cuboid.num_users()).map(|u| cuboid.user_nnz(UserId::from(u)));
    balanced_cut(costs, num_threads)
}

/// Splits `0..costs.len()` into at most `num_parts` contiguous ranges
/// with approximately equal total cost: a range closes once its cost
/// reaches `ceil(total / num_parts)`, and the last takes the rest. The
/// one cut behind the EM shard plan and the serve batch split.
pub fn balanced_cut<I>(costs: I, num_parts: usize) -> Vec<Range<usize>>
where
    I: ExactSizeIterator<Item = usize> + Clone,
{
    let n = costs.len();
    let total: usize = costs.clone().sum();
    let num_parts = num_parts.max(1);
    if num_parts == 1 || total == 0 || n == 0 {
        #[allow(clippy::single_range_in_vec_init)] // one part covering everything
        return vec![0..n];
    }
    let target = total.div_ceil(num_parts);
    let mut parts = Vec::with_capacity(num_parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, cost) in costs.enumerate() {
        acc += cost;
        if acc >= target && parts.len() + 1 < num_parts {
            parts.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n || parts.is_empty() {
        parts.push(start..n);
    }
    parts
}

/// Runs a fixed list of pre-built shard tasks on up to `num_threads`
/// scoped threads, each task exactly once.
///
/// The *tasks* (not the partition) are chosen by the caller — the EM
/// kernel builds one task per fixed shard carrying
/// that shard's `&mut` scratch, so the work done per shard is identical
/// for every thread count; threads only change which tasks run
/// concurrently. Tasks are distributed as contiguous chunks (they are
/// already entry-balanced). With one thread everything runs on the
/// caller's thread, spawn-free.
pub fn run_tasks<T, F>(num_threads: usize, mut tasks: Vec<T>, work: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let num_threads = num_threads.max(1).min(tasks.len().max(1));
    if num_threads <= 1 {
        for task in tasks {
            work(task);
        }
        return;
    }
    let chunk = tasks.len().div_ceil(num_threads);
    std::thread::scope(|scope| {
        while !tasks.is_empty() {
            let take = chunk.min(tasks.len());
            let group: Vec<T> = tasks.drain(..take).collect();
            let work = &work;
            scope.spawn(move || {
                for task in group {
                    work(task);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_data::{ItemId, Rating, TimeId};

    fn cuboid_with_counts(counts: &[usize]) -> RatingCuboid {
        let mut ratings = Vec::new();
        for (u, &n) in counts.iter().enumerate() {
            for i in 0..n {
                ratings.push(Rating {
                    user: UserId::from(u),
                    time: TimeId(0),
                    item: ItemId::from(i),
                    value: 1.0,
                });
            }
        }
        let items = counts.iter().copied().max().unwrap_or(1).max(1);
        RatingCuboid::from_ratings(counts.len(), 1, items, ratings).unwrap()
    }

    #[test]
    fn shards_cover_all_users_in_order() {
        let c = cuboid_with_counts(&[5, 1, 1, 1, 8, 2, 2]);
        for threads in 1..=5 {
            let shards = balanced_user_shards(&c, threads);
            assert!(shards.len() <= threads);
            assert_eq!(shards.first().unwrap().start, 0);
            assert_eq!(shards.last().unwrap().end, 7);
            for w in shards.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn shards_balance_heavy_tail() {
        // One whale user with 90 entries and nine minnows with 1 each.
        let mut counts = vec![90usize];
        counts.extend(std::iter::repeat(1).take(9));
        let c = cuboid_with_counts(&counts);
        let shards = balanced_user_shards(&c, 2);
        assert_eq!(shards.len(), 2);
        // The whale must sit alone in the first shard.
        assert_eq!(shards[0], 0..1);
    }

    #[test]
    fn single_thread_single_shard() {
        let c = cuboid_with_counts(&[1, 2, 3]);
        assert_eq!(balanced_user_shards(&c, 1), vec![0..3]);
    }

    #[test]
    fn run_tasks_runs_every_task_once_at_any_thread_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1usize, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
            let tasks: Vec<usize> = (0..5).collect();
            run_tasks(threads, tasks, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn run_tasks_passes_mutable_state_through() {
        let mut buffers = [vec![0.0f64; 4], vec![0.0; 4], vec![0.0; 4]];
        let tasks: Vec<(usize, &mut Vec<f64>)> = buffers.iter_mut().enumerate().collect();
        run_tasks(2, tasks, |(i, buf)| buf[0] = i as f64 + 1.0);
        assert_eq!([buffers[0][0], buffers[1][0], buffers[2][0]], [1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_cuboid_one_shard() {
        let c = RatingCuboid::from_ratings(3, 1, 1, vec![]).unwrap();
        assert_eq!(balanced_user_shards(&c, 4), vec![0..3]);
    }
}
