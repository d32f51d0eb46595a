//! Lock-free serving statistics.
//!
//! Workers record into shared atomics on every query — no mutex on the
//! hot path — and [`StatsRecorder::report`] folds the counters into a
//! serializable [`ServingStats`] for dashboards and the load-generator
//! report. A cache hit examines nothing and skips nothing, so it is
//! recorded in three atomics ([`StatsRecorder::record_hit`]) and the
//! report adds it to the query count and to bucket 0 of the kernel-work
//! histograms. Latencies — and, since the block-max kernel landed, per-query
//! items-examined and blocks-skipped counts — go into log2-bucketed
//! histograms: quantiles are read as the upper edge of the containing
//! bucket, so they are exact to within a factor of two, which is plenty
//! for serving dashboards.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets; bucket `i` holds values in
/// `[2^(i-1), 2^i)`, with bucket 0 holding `0..1`.
const BUCKETS: usize = 64;

/// A fixed-size log2-bucketed histogram over `u64` observations
/// (nanosecond latencies, items examined, blocks skipped).
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    // tcam-lint: allow-fn(no-panic) -- the bucket index is clamped to BUCKETS - 1
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Bucket counts with trailing empty buckets trimmed — `result[i]`
    /// counts observations in `[2^(i-1), 2^i)` (`[0, 1)` for `i = 0`).
    /// This is what the JSON reports embed.
    pub fn snapshot(&self) -> Vec<u64> {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let trimmed = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        // tcam-lint: allow(no-panic) -- rposition yields i < len, so trimmed <= len
        counts[..trimmed].to_vec()
    }

    /// The `q`-quantile, reported as the upper edge of the containing
    /// bucket (within 2x of the true value). Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return 2f64.powi(i as i32);
            }
        }
        2f64.powi((BUCKETS - 1) as i32)
    }
}

/// Shared counters the engine's query path records into.
#[derive(Debug, Default)]
pub struct StatsRecorder {
    /// Queries recorded through [`Self::record`].
    queries: AtomicU64,
    /// Cache hits recorded through [`Self::record_hit`].
    hits: AtomicU64,
    folded_queries: AtomicU64,
    items_examined: AtomicU64,
    blocks_skipped: AtomicU64,
    total_nanos: AtomicU64,
    latency: Log2Histogram,
    items_hist: Log2Histogram,
    blocks_hist: Log2Histogram,
}

impl StatsRecorder {
    /// Creates a zeroed recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query the kernel answered.
    pub fn record(&self, items_examined: usize, blocks_skipped: usize, folded: bool, nanos: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if folded {
            self.folded_queries.fetch_add(1, Ordering::Relaxed);
        }
        if items_examined > 0 {
            self.items_examined.fetch_add(items_examined as u64, Ordering::Relaxed);
        }
        if blocks_skipped > 0 {
            self.blocks_skipped.fetch_add(blocks_skipped as u64, Ordering::Relaxed);
        }
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.latency.record(nanos);
        self.items_hist.record(items_examined as u64);
        self.blocks_hist.record(blocks_skipped as u64);
    }

    /// Records one query answered from the cache: the same report as
    /// `record(0, 0, false, nanos)`, in three atomics instead of seven.
    // tcam-lint: hot
    pub fn record_hit(&self, nanos: u64) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.latency.record(nanos);
    }

    /// Queries recorded so far, cache hits included.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed) + self.hits.load(Ordering::Relaxed)
    }

    /// The latency histogram.
    pub fn latency(&self) -> &Log2Histogram {
        &self.latency
    }

    /// Per-query items-examined histogram of the queries recorded
    /// through [`Self::record`] (cache hits join bucket 0 in
    /// [`Self::report`]).
    pub fn items_examined_histogram(&self) -> &Log2Histogram {
        &self.items_hist
    }

    /// Per-query blocks-skipped histogram, like
    /// [`Self::items_examined_histogram`].
    pub fn blocks_skipped_histogram(&self) -> &Log2Histogram {
        &self.blocks_hist
    }

    /// Folds the counters (plus the cache's hit/miss counts, which live
    /// with the cache) into a serializable report.
    pub fn report(&self, cache_hits: u64, cache_misses: u64) -> ServingStats {
        let hits = self.hits.load(Ordering::Relaxed);
        let queries = self.queries.load(Ordering::Relaxed) + hits;
        let items = self.items_examined.load(Ordering::Relaxed);
        let blocks = self.blocks_skipped.load(Ordering::Relaxed);
        let nanos = self.total_nanos.load(Ordering::Relaxed);
        let lookups = cache_hits + cache_misses;
        ServingStats {
            queries,
            cache_hits,
            cache_misses,
            cache_hit_rate: if lookups == 0 { 0.0 } else { cache_hits as f64 / lookups as f64 },
            folded_queries: self.folded_queries.load(Ordering::Relaxed),
            items_examined: items,
            mean_items_examined: if queries == 0 { 0.0 } else { items as f64 / queries as f64 },
            blocks_skipped: blocks,
            mean_blocks_skipped: if queries == 0 { 0.0 } else { blocks as f64 / queries as f64 },
            items_examined_log2: with_zeros(self.items_hist.snapshot(), hits),
            blocks_skipped_log2: with_zeros(self.blocks_hist.snapshot(), hits),
            latency_p50_us: self.latency.quantile(0.50) / 1_000.0,
            latency_p90_us: self.latency.quantile(0.90) / 1_000.0,
            latency_p99_us: self.latency.quantile(0.99) / 1_000.0,
            mean_latency_us: if queries == 0 {
                0.0
            } else {
                nanos as f64 / queries as f64 / 1_000.0
            },
            total_query_time_s: nanos as f64 / 1e9,
        }
    }
}

/// Adds `zeros` observations of 0 to a trimmed log2 snapshot.
fn with_zeros(mut buckets: Vec<u64>, zeros: u64) -> Vec<u64> {
    if zeros > 0 {
        match buckets.first_mut() {
            Some(first) => *first += zeros,
            None => buckets.push(zeros),
        }
    }
    buckets
}

/// A point-in-time summary of serving behavior. `total_query_time_s`
/// sums per-query latencies across all workers, so it exceeds wall time
/// under concurrency; throughput should be computed from wall time by
/// the caller (as the load generator does).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServingStats {
    /// Queries answered.
    pub queries: u64,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 before any lookup.
    pub cache_hit_rate: f64,
    /// Queries answered via the fold-in path (unseen users).
    pub folded_queries: u64,
    /// Total items whose full score was computed.
    pub items_examined: u64,
    /// `items_examined / queries`.
    pub mean_items_examined: f64,
    /// Total blocks the block-max kernel pruned without scoring.
    pub blocks_skipped: u64,
    /// `blocks_skipped / queries`.
    pub mean_blocks_skipped: f64,
    /// Log2-bucket histogram of per-query items examined; entry `i`
    /// counts queries examining `[2^(i-1), 2^i)` items (trailing empty
    /// buckets trimmed).
    pub items_examined_log2: Vec<u64>,
    /// Log2-bucket histogram of per-query blocks skipped (same bucket
    /// convention).
    pub blocks_skipped_log2: Vec<u64>,
    /// Median latency, microseconds (log2-bucket upper edge).
    pub latency_p50_us: f64,
    /// 90th-percentile latency, microseconds.
    pub latency_p90_us: f64,
    /// 99th-percentile latency, microseconds.
    pub latency_p99_us: f64,
    /// Mean latency, microseconds (exact, from the nanosecond sum).
    pub mean_latency_us: f64,
    /// Sum of per-query latencies, seconds.
    pub total_query_time_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        h.record(1023);
        h.record(1024);
        assert_eq!(h.count(), 4);
        // All mass below 1024 -> p50 is at most 1024ns.
        assert!(h.quantile(0.5) <= 1024.0);
        assert!(h.quantile(1.0) >= 1024.0);
    }

    #[test]
    fn quantiles_are_monotone_and_within_2x() {
        let h = Log2Histogram::new();
        for nanos in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800] {
            h.record(nanos);
        }
        let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");
        // True p99 is ~12.8us; the bucketed answer is within a factor 2.
        assert!((12800.0..=2.0 * 12800.0).contains(&p99));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn snapshot_trims_trailing_buckets() {
        let h = Log2Histogram::new();
        h.record(0); // bucket 0
        h.record(5); // [4, 8) -> bucket 3
        let snap = h.snapshot();
        assert_eq!(snap.len(), 4, "trimmed after the last non-empty bucket");
        assert_eq!(snap[0], 1);
        assert_eq!(snap[3], 1);
        assert_eq!(snap.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn recorder_aggregates() {
        let r = StatsRecorder::new();
        r.record(100, 12, false, 1_000);
        r.record(50, 0, true, 3_000);
        let stats = r.report(3, 1);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.folded_queries, 1);
        assert_eq!(stats.items_examined, 150);
        assert!((stats.mean_items_examined - 75.0).abs() < 1e-12);
        assert_eq!(stats.blocks_skipped, 12);
        assert!((stats.mean_blocks_skipped - 6.0).abs() < 1e-12);
        assert_eq!(stats.items_examined_log2.iter().sum::<u64>(), 2);
        assert_eq!(stats.blocks_skipped_log2.iter().sum::<u64>(), 2);
        assert!((stats.cache_hit_rate - 0.75).abs() < 1e-12);
        assert!((stats.mean_latency_us - 2.0).abs() < 1e-12);
        assert!((stats.total_query_time_s - 4e-6).abs() < 1e-18);
    }

    #[test]
    fn a_hit_reports_like_a_zero_work_record() {
        let (hit, zero) = (StatsRecorder::new(), StatsRecorder::new());
        for r in [&hit, &zero] {
            r.record(100, 12, false, 1_000);
            r.record(0, 3, true, 2_500);
        }
        hit.record_hit(700);
        hit.record_hit(900);
        zero.record(0, 0, false, 700);
        zero.record(0, 0, false, 900);
        assert_eq!(hit.report(2, 2), zero.report(2, 2));
        assert_eq!(hit.queries(), 4);
        assert_eq!(hit.latency().count(), 4);

        // Hits alone still fill bucket 0 of the kernel-work histograms.
        let only = StatsRecorder::new();
        only.record_hit(10);
        let stats = only.report(1, 0);
        assert_eq!(stats.items_examined_log2, vec![1]);
        assert_eq!(stats.blocks_skipped_log2, vec![1]);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn recorder_is_thread_safe() {
        let r = StatsRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        r.record(10, 3, false, 500);
                    }
                });
            }
        });
        assert_eq!(r.queries(), 4000);
        assert_eq!(r.latency().count(), 4000);
        assert_eq!(r.items_examined_histogram().count(), 4000);
        assert_eq!(r.blocks_skipped_histogram().count(), 4000);
    }

    #[test]
    fn stats_serialize_to_json_object() {
        let r = StatsRecorder::new();
        r.record(10, 2, false, 1_000);
        let stats = r.report(1, 1);
        let value = serde::Serialize::to_value(&stats);
        let obj = value.as_object().expect("object");
        assert!(obj.iter().any(|(k, _)| k == "cache_hit_rate"));
        assert!(obj.iter().any(|(k, _)| k == "latency_p99_us"));
        assert!(obj.iter().any(|(k, _)| k == "mean_blocks_skipped"));
        assert!(obj.iter().any(|(k, _)| k == "items_examined_log2"));
    }
}
