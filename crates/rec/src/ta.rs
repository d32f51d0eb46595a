//! Top-k retrieval: the block-max pruned query kernel, the Threshold
//! Algorithm of Section 4.2 (Algorithm 1), and the brute-force scan
//! both are evaluated against (TCAM-BF).
//!
//! Offline, [`TaIndex::build`] materializes two complementary views of
//! the factor weights `phi_z`:
//!
//! * **Packed postings** — per factor, item ids and weights co-sorted by
//!   weight descending in contiguous arrays, so the TA traversal reads
//!   list-head weights sequentially instead of gathering
//!   `phi_z[items[cursor]]` at random;
//! * **Block maxes** — the item-id axis cut into fixed
//!   [`BLOCK`]-sized blocks with `blockmax_z[b] = max_{v in block b}
//!   phi_z[v]` precomputed per factor.
//!
//! The index depends only on the item lists, never on the user, so
//! every query is a `vartheta_q` over it: a fitted user's, the
//! cold-start prior of an unseen id, or a folded-in session
//! ([`crate::FoldedScorer`]).
//!
//! At query time the default kernel ([`TaIndex::top_k_into`]) runs a
//! best-first TA traversal with a **block-max bound** layered over
//! Eq. 23: the per-block upper bound `bound[b] = sum_z vartheta_q[z] *
//! blockmax_z[b]` dominates every score inside block `b` (monotone FP
//! arithmetic, see DESIGN.md §12), so
//!
//! * each list cursor *skips over* items that are already seen or whose
//!   block is dominated (`kth > bound[b]`) without computing their
//!   score — once the k-th best score passes a block's bound, that
//!   block's items cost a stamp check instead of a K-way gather-dot;
//! * the query terminates once the best bound among blocks that still
//!   hold unseen items falls below the k-th score — a much tighter stop
//!   than the Eq. 23 head sum, because the head sum adds up per-factor
//!   maxima that live on *different* items while a block bound is
//!   anchored to [`BLOCK`] specific ones.
//!
//! "Items examined" counts full-score evaluations (K-way gather-dots),
//! the unit of query work both pruned kernels spend. The block-max
//! kernel computes a full score exactly once per live item, when a
//! cursor first lands on it.
//!
//! [`TaIndex::top_k_classic_into`] keeps the paper's Algorithm 1
//! (per-posting consumption, Eq. 23 head-sum threshold only) on the
//! packed postings, as the comparator the paper's Figure 8 measures.
//! It scores one posting per sorted access, so an item reachable
//! through several factor lists is re-scored each time a list surfaces
//! it — work the block-max kernel's seen-stamp skip avoids.
//!
//! Both kernels are *exactly* equivalent to brute force: same item ids
//! (ties broken by ascending item id) and scores within 1e-10 of the
//! model's `score_all`. Both write into a caller-owned result buffer
//! and keep all per-query state in a reusable [`QueryScratch`], so a
//! warm steady-state query performs no heap allocation at all;
//! [`TaIndex::top_k`] wraps the block-max kernel with fresh buffers
//! for one-off callers.

use crate::scorer::{score_all_factored, FactoredScorer, TemporalScorer};
use std::collections::BinaryHeap;
use tcam_core::{FoldScratch, FoldedUser};
use tcam_data::{TimeId, UserId};
use tcam_math::topk::{Scored, TopK};
use tcam_math::vecops;

/// Items per block-max block: small enough that a handful of hot blocks
/// pin the termination cap close to the true k-th score, large enough
/// that the per-factor block-max rows stay tiny (`V/64` doubles each).
pub const BLOCK: usize = 64;

/// When `k` is this fraction of the catalog (or more), pruning cannot
/// pay for its bound computation and the kernel falls back to dense
/// scoring of every item (bitwise-identical scores, see module docs).
const DENSE_FALLBACK_FACTOR: usize = 4;

/// Precomputed per-factor postings and block maxes.
#[derive(Debug, Clone)]
pub struct TaIndex {
    num_items: usize,
    num_factors: usize,
    num_blocks: usize,
    /// `sorted_ids[z * V ..][..V]` = item ids ordered by `phi_z`
    /// descending (ties by ascending id).
    sorted_ids: Vec<u32>,
    /// Co-sorted weights: `sorted_weights[z * V + i] =
    /// phi_z[sorted_ids[z * V + i]]` — the list-head weight is a
    /// sequential read, never a gather.
    sorted_weights: Vec<f64>,
    /// `block_max[z * num_blocks + b]` = max `phi_z` over item-id block
    /// `b` (`[b * BLOCK, (b + 1) * BLOCK)`).
    block_max: Vec<f64>,
}

impl TaIndex {
    /// Builds the index with one worker thread.
    pub fn build<S: FactoredScorer>(scorer: &S) -> Self {
        Self::build_with_threads(scorer, 1)
    }

    /// Builds the index sorting factor lists on up to `num_threads`
    /// scoped workers (`O(K V log V)` total work; each factor is an
    /// independent task, so the result is identical at any thread
    /// count).
    // tcam-lint: allow-fn(no-panic) -- every index into `row` is an item id < V by
    // construction, and factor weights are finite probabilities so partial_cmp is Some
    pub fn build_with_threads<S: FactoredScorer>(scorer: &S, num_threads: usize) -> Self {
        let num_items = scorer.num_items();
        let num_factors = scorer.num_factors();
        let num_blocks = num_items.div_ceil(BLOCK);
        let mut sorted_ids = vec![0u32; num_factors * num_items];
        let mut sorted_weights = vec![0f64; num_factors * num_items];
        let mut block_max = vec![0f64; num_factors * num_blocks];
        if num_items > 0 && num_factors > 0 {
            // One task per factor list: (z, its ids, weights, block maxes).
            type ListTask<'a> = (usize, &'a mut [u32], &'a mut [f64], &'a mut [f64]);
            let tasks: Vec<ListTask> = sorted_ids
                .chunks_mut(num_items)
                .zip(sorted_weights.chunks_mut(num_items))
                .zip(block_max.chunks_mut(num_blocks))
                .enumerate()
                .map(|(z, ((ids, weights), maxes))| (z, ids, weights, maxes))
                .collect();
            tcam_core::parallel::run_tasks(num_threads, tasks, |(z, ids, weights, maxes)| {
                let row = scorer.factor_items(z);
                for (i, id) in ids.iter_mut().enumerate() {
                    *id = i as u32;
                }
                ids.sort_unstable_by(|&a, &b| {
                    row[b as usize]
                        .partial_cmp(&row[a as usize])
                        .expect("factor weights are finite")
                        .then(a.cmp(&b))
                });
                for (slot, &id) in weights.iter_mut().zip(ids.iter()) {
                    *slot = row[id as usize];
                }
                for (b, slot) in maxes.iter_mut().enumerate() {
                    let start = b * BLOCK;
                    let end = (start + BLOCK).min(row.len());
                    *slot = row[start..end].iter().fold(f64::NEG_INFINITY, |m, &w| m.max(w));
                }
            });
        }
        TaIndex { num_items, num_factors, num_blocks, sorted_ids, sorted_weights, block_max }
    }

    /// Number of factor lists.
    pub fn num_lists(&self) -> usize {
        self.num_factors
    }

    /// Catalog size.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of id-aligned block-max blocks per factor.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    fn block_len(&self, b: usize) -> usize {
        (self.num_items - b * BLOCK).min(BLOCK)
    }

    /// Answers a temporal top-k query with the block-max kernel on
    /// fresh buffers (for examples and one-off callers; hot paths reuse
    /// a scratch and result buffer via [`Self::top_k_into`]).
    pub fn top_k<S: FactoredScorer>(
        &self,
        scorer: &S,
        user: UserId,
        time: TimeId,
        k: usize,
    ) -> TaResult {
        let mut items = Vec::new();
        let stats = self.top_k_into(scorer, user, time, k, &mut QueryScratch::new(), &mut items);
        stats.with_items(items)
    }

    /// The block-max pruned TA kernel: the ranked items land in
    /// caller-owned `out` (cleared first) and all per-query state lives
    /// in `scratch`. With a warm `scratch` and `out`, repeated queries
    /// perform **zero** heap allocations — asserted under a counting
    /// global allocator by `tests/zero_alloc.rs`.
    // tcam-lint: hot
    // tcam-lint: allow-fn(no-panic) -- indices are cursor/block walks bounded by the
    // packed-postings layout; each access is covered by the construction
    // invariants the kernel's debug_asserts pin down.
    pub fn top_k_into<S: FactoredScorer>(
        &self,
        scorer: &S,
        user: UserId,
        time: TimeId,
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Scored>,
    ) -> TaStats {
        debug_assert_eq!(self.num_factors, scorer.num_factors());
        debug_assert_eq!(self.num_items, scorer.num_items());
        let v = self.num_items;
        let k = k.min(v);
        if k == 0 {
            out.clear();
            return TaStats { items_examined: 0, blocks_skipped: 0 };
        }
        scorer.query_factors_into(user, time, &mut scratch.active);
        scratch.topk.reset(k);
        if k * DENSE_FALLBACK_FACTOR >= v {
            return self.dense_top_k_into(scorer, scratch, out);
        }
        // Zero-weight factors contribute fl(0 * phi) = +0 to every score
        // and every bound, so dropping their lists changes nothing;
        // all-zero queries score everything at 0 via the dense path.
        scratch.active.retain(|&(_, w)| w != 0.0);
        if scratch.active.is_empty() {
            return self.dense_top_k_into(scorer, scratch, out);
        }
        scratch.begin_seen_epoch(v);
        let nb = self.num_blocks;
        let QueryScratch {
            active,
            topk,
            heap,
            cursors,
            head_contrib,
            bounds,
            blocks,
            stamps,
            epoch,
            ..
        } = scratch;
        let epoch = *epoch;

        // Per-block upper bounds: bounds[b] = sum_z w_z * blockmax_z[b],
        // one fused scaled_add over the contiguous block-max row per
        // active factor. The bound accumulates factors in the same order
        // as an item's score below, so FP monotonicity gives
        // score(v) <= bounds[block(v)] in computed arithmetic, not just
        // in exact reals.
        if bounds.len() != nb {
            bounds.clear();
            bounds.resize(nb, 0.0);
        }
        bounds.fill(0.0);
        for &(z, w) in active.iter() {
            vecops::scaled_add(bounds, &self.block_max[z * nb..(z + 1) * nb], w);
        }
        // Blocks in descending-bound order (ties by ascending block id):
        // the termination cap walks this order as blocks exhaust.
        blocks.clear();
        blocks.extend(0..nb as u32);
        blocks.resize(2 * nb, 0);
        let (order, block_seen) = blocks.split_at_mut(nb);
        order.sort_unstable_by(|&a, &b| {
            bounds[b as usize]
                .partial_cmp(&bounds[a as usize])
                .expect("block bounds are finite")
                .then(a.cmp(&b))
        });

        // Advances list `li` from `cursors[li]` to its next *live* item
        // — unstamped and in a non-dominated block — skipping dead
        // positions with a stamp check instead of a K-way gather. The
        // live item is scored exactly once (pushed into both `topk` and
        // the traversal heap); the Eq. 23 contribution tracks the final
        // cursor position, which is admissible because every unstamped
        // item sits at or below every cursor in its lists.
        #[allow(clippy::too_many_arguments)]
        fn scan_to_live<S: FactoredScorer>(
            li: usize,
            w: f64,
            scorer: &S,
            active: &[(usize, f64)],
            ids: &[u32],
            weights: &[f64],
            bounds: &[f64],
            stamps: &mut [u32],
            epoch: u32,
            block_seen: &mut [u32],
            cursor: &mut usize,
            head_contrib: &mut f64,
            threshold: &mut f64,
            topk: &mut TopK,
            heap: &mut BinaryHeap<Scored>,
            examined: &mut usize,
        ) {
            let mut c = *cursor;
            loop {
                if c >= ids.len() {
                    *threshold -= *head_contrib;
                    *head_contrib = 0.0;
                    break;
                }
                let contrib = w * weights[c];
                *threshold += contrib - *head_contrib;
                *head_contrib = contrib;
                let item = ids[c] as usize;
                if stamps[item] != epoch {
                    stamps[item] = epoch;
                    let b = item / BLOCK;
                    block_seen[b] += 1;
                    // Block-max pruning: once the k-th best strictly
                    // beats a block's bound, nothing in that block can
                    // reach — or tie — the top k, so its items are
                    // stamped past without scoring.
                    let killed = topk.threshold().is_some_and(|kth| kth > bounds[b]);
                    if !killed {
                        let score: f64 =
                            active.iter().map(|&(az, aw)| aw * scorer.factor_items(az)[item]).sum();
                        *examined += 1;
                        topk.push(item, score);
                        heap.push(Scored { index: li, score });
                        break;
                    }
                }
                c += 1;
            }
            *cursor = c;
        }

        cursors.clear();
        cursors.resize(active.len(), 0);
        head_contrib.clear();
        for &(z, w) in active.iter() {
            head_contrib.push(w * self.sorted_weights[z * v]);
        }
        // Eq. 23 head-sum bound, maintained incrementally; a trip is
        // confirmed against an exact re-sum below, so FP drift can only
        // delay termination, never break exactness.
        let mut threshold: f64 = head_contrib.iter().sum();
        let mut examined = 0usize;
        heap.clear();
        // Activation: every list's head is scanned to its first live
        // item and scored, seeding the traversal heap and anchoring the
        // k-th best score before the descent begins (kill checks are
        // already live during activation once k items are in hand).
        for (li, &(z, w)) in active.iter().enumerate() {
            let base = z * v;
            scan_to_live(
                li,
                w,
                scorer,
                active,
                &self.sorted_ids[base..base + v],
                &self.sorted_weights[base..base + v],
                bounds,
                stamps,
                epoch,
                block_seen,
                &mut cursors[li],
                &mut head_contrib[li],
                &mut threshold,
                topk,
                heap,
                &mut examined,
            );
        }
        // Position in `order` of the first block that may still hold an
        // unseen item; every earlier block is fully seen.
        let mut cap = 0usize;

        // Best-first traversal: consume the heap's best scored head,
        // advance that list to its next live item, re-check termination.
        while let Some(best) = heap.pop() {
            let li = best.index;
            let (z, w) = active[li];
            let base = z * v;
            cursors[li] += 1;
            scan_to_live(
                li,
                w,
                scorer,
                active,
                &self.sorted_ids[base..base + v],
                &self.sorted_weights[base..base + v],
                bounds,
                stamps,
                epoch,
                block_seen,
                &mut cursors[li],
                &mut head_contrib[li],
                &mut threshold,
                topk,
                heap,
                &mut examined,
            );

            if let Some(kth) = topk.threshold() {
                // Termination 1 (Eq. 23): the head sum bounds every
                // unseen item; strict comparison keeps tied unseen items
                // with lower ids reachable.
                if kth > threshold {
                    threshold = head_contrib.iter().sum();
                    if kth > threshold {
                        break;
                    }
                }
                // Termination 2 (block-max cap): every unseen item lives
                // in a not-fully-seen block, and `order` is descending —
                // once the best not-fully-seen block is dominated, every
                // unseen item everywhere is.
                while cap < nb
                    && block_seen[order[cap] as usize] as usize
                        == self.block_len(order[cap] as usize)
                {
                    cap += 1;
                }
                if cap == nb || kth > bounds[order[cap] as usize] {
                    break;
                }
            }
        }
        let blocks_skipped = match topk.threshold() {
            Some(kth) => bounds.iter().filter(|&&bd| kth > bd).count(),
            None => 0,
        };
        topk.drain_sorted_into(out);
        TaStats { items_examined: examined, blocks_skipped }
    }

    /// Answers a temporal top-k query with the paper's Algorithm 1 on
    /// the packed postings: consume the most promising list head,
    /// maintain the Eq. 23 threshold `S_TA = sum_z vartheta_q[z] *
    /// head_z`, stop once the k-th best strictly exceeds it. Kept as the
    /// measured comparator for the block-max kernel (Figure 8's
    /// "TCAM-TA" line); buffers as in [`Self::top_k_into`].
    // tcam-lint: hot
    // tcam-lint: allow-fn(no-panic) -- cursor walks are bounded by list length `v`
    // and active-list indices come from enumerate(); see the kernel's
    // debug_asserts.
    pub fn top_k_classic_into<S: FactoredScorer>(
        &self,
        scorer: &S,
        user: UserId,
        time: TimeId,
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Scored>,
    ) -> TaStats {
        debug_assert_eq!(self.num_factors, scorer.num_factors());
        debug_assert_eq!(self.num_items, scorer.num_items());
        let v = self.num_items;
        let k = k.min(v);
        if k == 0 {
            out.clear();
            return TaStats { items_examined: 0, blocks_skipped: 0 };
        }
        scorer.query_factors_into(user, time, &mut scratch.active);
        scratch.topk.reset(k);
        scratch.active.retain(|&(_, w)| w != 0.0);
        if scratch.active.is_empty() {
            return self.dense_top_k_into(scorer, scratch, out);
        }
        scratch.begin_seen_epoch(v);
        let QueryScratch { active, topk, heap, cursors, head_contrib, stamps, epoch, .. } = scratch;
        let epoch = *epoch;
        let full_score = |item: usize| -> f64 {
            active.iter().map(|&(z, w)| w * scorer.factor_items(z)[item]).sum()
        };

        cursors.clear();
        cursors.resize(active.len(), 0);
        head_contrib.clear();
        heap.clear();
        let mut examined = 0usize;
        for (li, &(z, w)) in active.iter().enumerate() {
            let contrib = w * self.sorted_weights[z * v];
            head_contrib.push(contrib);
            let head = self.sorted_ids[z * v] as usize;
            examined += 1;
            heap.push(Scored { index: li, score: full_score(head) });
        }
        let mut threshold: f64 = head_contrib.iter().sum();

        // Best-first sorted access: the heap keeps every list's current
        // head fully scored, so each pop consumes the globally most
        // promising posting. This is the traversal the paper's
        // Algorithm 1 performs, at one gather-dot per sorted access —
        // an item reachable through several lists is re-scored each
        // time a list surfaces it, which is exactly the work the
        // block-max kernel's seen-stamp skip avoids.
        while let Some(best) = heap.pop() {
            let li = best.index;
            let (z, w) = active[li];
            let base = z * v;
            let cursor = cursors[li];
            let item = self.sorted_ids[base + cursor] as usize;
            cursors[li] = cursor + 1;

            if stamps[item] != epoch {
                stamps[item] = epoch;
                topk.push(item, best.score);
            }

            // Advance this list's threshold contribution and re-enqueue
            // its next head (Algorithm 1's sorted access).
            let old = head_contrib[li];
            let next = cursor + 1;
            if next < v {
                let contrib = w * self.sorted_weights[base + next];
                head_contrib[li] = contrib;
                threshold += contrib - old;
                let head = self.sorted_ids[base + next] as usize;
                examined += 1;
                heap.push(Scored { index: li, score: full_score(head) });
            } else {
                head_contrib[li] = 0.0;
                threshold -= old;
            }

            // Early termination (Eq. 23). The incrementally maintained
            // threshold can drift, so a trip is confirmed by an exact
            // re-sum: drift delays termination but never breaks
            // exactness. Strict comparison keeps unseen items that could
            // exactly tie the k-th score (forcing a different tie-break
            // id) reachable.
            if let Some(kth) = topk.threshold() {
                if kth > threshold {
                    threshold = head_contrib.iter().sum();
                    if kth > threshold {
                        break;
                    }
                }
            }
        }
        topk.drain_sorted_into(out);
        TaStats { items_examined: examined, blocks_skipped: 0 }
    }

    /// Dense fallback: score every item with the vectorized row-major
    /// accumulator and keep the top k — bitwise identical, per item, to
    /// the pruned kernels' gather arithmetic (`scaled_add` is
    /// elementwise and accumulates factors in the same order).
    // tcam-lint: hot
    fn dense_top_k_into<S: FactoredScorer>(
        &self,
        scorer: &S,
        scratch: &mut QueryScratch,
        out: &mut Vec<Scored>,
    ) -> TaStats {
        let v = self.num_items;
        let QueryScratch { active, topk, dense, .. } = scratch;
        if dense.len() != v {
            dense.clear();
            dense.resize(v, 0.0);
        }
        score_all_factored(scorer, active, dense);
        for (i, &s) in dense.iter().enumerate() {
            topk.push(i, s);
        }
        topk.drain_sorted_into(out);
        TaStats { items_examined: v, blocks_skipped: 0 }
    }
}

/// Reusable per-worker query state: every buffer the kernels and a
/// history query's fold-in touch.
/// Sized lazily against the index on first use and stable thereafter —
/// repeated queries against the same catalog perform zero heap
/// allocations (asserted by test via [`Self::fingerprint`]).
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Active `(factor, weight)` pairs of the current query.
    active: Vec<(usize, f64)>,
    /// Epoch-stamped seen-set: `stamps[v] == epoch` means item `v` was
    /// already popped by the current query. Bumping the epoch
    /// invalidates the whole set in O(1) — no per-query zeroing of a
    /// V-sized bitmap.
    stamps: Vec<u32>,
    epoch: u32,
    /// List-head priority queue (`index` = active-list position,
    /// `score` = that list's `w_z * head_weight` contribution).
    heap: BinaryHeap<Scored>,
    /// Per-active-list cursor into the packed postings.
    cursors: Vec<usize>,
    /// Per-active-list Eq. 23 threshold contribution.
    head_contrib: Vec<f64>,
    /// Block-max kernel: per-block score upper bounds.
    bounds: Vec<f64>,
    /// Block-max kernel: block ids by descending bound, then each
    /// block's items seen so far (for the termination cap's walk), in
    /// one buffer. The serving pool moves the whole scratch on every
    /// checkout, and only a cache miss checks one out; at 256 bytes or
    /// less that move is inline copies rather than a `memcpy` call.
    blocks: Vec<u32>,
    /// Dense fallback: full catalog scores.
    dense: Vec<f64>,
    /// Bounded result collector, reset (not reallocated) per query.
    topk: TopK,
    /// A history query's fold-in buffers and the user it folds in (see
    /// [`Self::with_fold`]), boxed on first use so that they add one
    /// pointer to the scratch a checkout moves (see `blocks`).
    fold: Option<Box<(FoldScratch, FoldedUser)>>,
}

impl QueryScratch {
    /// Creates an empty scratch; buffers are sized on first query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new seen-set epoch for a catalog of `num_items`,
    /// zeroing the stamp array only on first use, catalog change, or
    /// `u32` wrap-around (once every 2^32 - 1 queries).
    fn begin_seen_epoch(&mut self, num_items: usize) {
        if self.stamps.len() != num_items {
            self.stamps.clear();
            self.stamps.resize(num_items, 0);
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Lends `f` this scratch with its pooled fold-in buffers, so a
    /// history query can fold its session in and rank the folded user
    /// on one scratch. Only the first call allocates.
    pub fn with_fold<R>(
        &mut self,
        f: impl FnOnce(&mut Self, &mut FoldScratch, &mut FoldedUser) -> R,
    ) -> R {
        let mut fold = self.fold.take().unwrap_or_default();
        let (scratch, folded) = &mut *fold;
        let result = f(self, scratch, folded);
        self.fold = Some(fold);
        result
    }

    /// `(pointer, capacity)` of every internal buffer — equal across
    /// two calls iff no buffer was reallocated in between. The
    /// zero-allocation tests compare fingerprints across repeated
    /// queries; heap-backed buffers expose `(0, capacity)` and the
    /// fold-in box `(address, 0)`.
    pub fn fingerprint(&self) -> [(usize, usize); 10] {
        let fold = self.fold.as_deref().map_or(0, |fold| fold as *const _ as usize);
        [
            (self.active.as_ptr() as usize, self.active.capacity()),
            (self.stamps.as_ptr() as usize, self.stamps.capacity()),
            (0, self.heap.capacity()),
            (self.cursors.as_ptr() as usize, self.cursors.capacity()),
            (self.head_contrib.as_ptr() as usize, self.head_contrib.capacity()),
            (self.bounds.as_ptr() as usize, self.bounds.capacity()),
            (self.blocks.as_ptr() as usize, self.blocks.capacity()),
            (self.dense.as_ptr() as usize, self.dense.capacity()),
            (0, self.topk.capacity()),
            (fold, 0),
        ]
    }
}

/// Work counters of a top-k query whose items went to a caller-owned
/// buffer (the `_into` kernel entry points).
#[derive(Debug, Clone, Copy)]
pub struct TaStats {
    /// Full-score evaluations performed (see [`TaResult::items_examined`]).
    pub items_examined: usize,
    /// Blocks pruned outright (see [`TaResult::blocks_skipped`]).
    pub blocks_skipped: usize,
}

impl TaStats {
    /// Packages counters and a ranked-item buffer as a [`TaResult`].
    pub fn with_items(self, items: Vec<Scored>) -> TaResult {
        TaResult { items, items_examined: self.items_examined, blocks_skipped: self.blocks_skipped }
    }
}

/// Result of a top-k query.
#[derive(Debug, Clone)]
pub struct TaResult {
    /// Top items, best first; equal scores ordered by ascending item id.
    pub items: Vec<Scored>,
    /// Full-score evaluations performed (K-way gather-dots) — the
    /// quantity the pruned kernels minimize relative to the `V` of a
    /// brute-force scan. The block-max kernel scores each live item at
    /// most once; the classic kernel scores one posting per sorted
    /// access, so re-surfaced items count again.
    pub items_examined: usize,
    /// Blocks whose bound the final k-th score strictly dominates —
    /// their remaining items were pruned without scoring (0 for the
    /// classic and dense paths).
    pub blocks_skipped: usize,
}

/// Brute-force top-k (TCAM-BF / the only option for BPTF): score every
/// item and keep the best `k`. For factored scorers it is the oracle the
/// kernels are tested and benchmarked against, not a serving path.
/// `buffer` must have length `num_items` and is reused across queries to
/// avoid per-query allocation.
///
/// # Panics
///
/// Panics if `buffer.len() != scorer.num_items()`. A short buffer would
/// silently rank only a prefix of the catalog (and an oversized one
/// would rank garbage tail slots), so the mismatch is rejected up front
/// rather than left to each scorer's `score_all`.
pub fn brute_force_top_k<S: TemporalScorer + ?Sized>(
    scorer: &S,
    user: UserId,
    time: TimeId,
    k: usize,
    buffer: &mut [f64],
) -> Vec<Scored> {
    assert_eq!(
        buffer.len(),
        scorer.num_items(),
        "brute_force_top_k: buffer length must equal the catalog size \
         ({} items) — got {}",
        scorer.num_items(),
        buffer.len()
    );
    scorer.score_all(user, time, buffer);
    tcam_math::topk::top_k_of_slice(buffer, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::{FitConfig, ItcamModel, TtcamModel};
    use tcam_data::synth;

    /// Both kernels must return the brute-force result exactly: same
    /// item ids at every rank (ties are deterministic on both sides —
    /// ascending id) and scores within floating tolerance of the
    /// model's own `score_all` arithmetic.
    fn assert_topk_equivalent(ta: &[Scored], bf: &[Scored]) {
        assert_eq!(ta.len(), bf.len());
        for (rank, (a, b)) in ta.iter().zip(bf.iter()).enumerate() {
            assert_eq!(
                a.index, b.index,
                "rank {rank}: item {} vs brute-force item {} (scores {} vs {})",
                a.index, b.index, a.score, b.score
            );
            assert!(
                (a.score - b.score).abs() < 1e-10,
                "rank {rank} score mismatch: {} vs {}",
                a.score,
                b.score
            );
        }
    }

    /// The classic kernel with a fresh result buffer.
    fn classic<S: FactoredScorer>(
        index: &TaIndex,
        scorer: &S,
        user: UserId,
        time: TimeId,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> TaResult {
        let mut items = Vec::new();
        index.top_k_classic_into(scorer, user, time, k, scratch, &mut items).with_items(items)
    }

    fn check_all_kernels<S: FactoredScorer>(
        index: &TaIndex,
        scorer: &S,
        scratch: &mut QueryScratch,
        buffer: &mut [f64],
        user: UserId,
        time: TimeId,
        k: usize,
    ) {
        let bf = brute_force_top_k(scorer, user, time, k, buffer);
        let mut items = Vec::new();
        let blockmax =
            index.top_k_into(scorer, user, time, k, scratch, &mut items).with_items(items);
        assert_topk_equivalent(&blockmax.items, &bf);
        let classic = classic(index, scorer, user, time, k, scratch);
        assert_topk_equivalent(&classic.items, &bf);
        // The two pruned kernels share one arithmetic: bitwise equal.
        assert_eq!(blockmax.items.len(), classic.items.len());
        for (a, b) in blockmax.items.iter().zip(classic.items.iter()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "kernels must agree bitwise");
        }
    }

    #[test]
    fn kernels_match_brute_force_ttcam() {
        let data = synth::SynthDataset::generate(synth::tiny(90)).unwrap();
        let config =
            FitConfig::default().with_user_topics(4).with_time_topics(3).with_iterations(8);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        let mut buffer = vec![0.0; model.num_items()];
        let mut scratch = QueryScratch::new();
        for u in 0..10 {
            for t in 0..4 {
                let (user, time) = (UserId(u), TimeId(t));
                for k in [1, 5, 10] {
                    check_all_kernels(&index, &model, &mut scratch, &mut buffer, user, time, k);
                }
            }
        }
    }

    #[test]
    fn kernels_match_brute_force_itcam() {
        let data = synth::SynthDataset::generate(synth::tiny(91)).unwrap();
        let config = FitConfig::default().with_user_topics(4).with_iterations(8);
        let model = ItcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        let mut buffer = vec![0.0; model.num_items()];
        let mut scratch = QueryScratch::new();
        for u in 0..10 {
            let (user, time) = (UserId(u), TimeId(u % 8));
            check_all_kernels(&index, &model, &mut scratch, &mut buffer, user, time, 5);
        }
    }

    #[test]
    fn blockmax_skips_blocks_and_examines_less_on_larger_catalog() {
        let data = synth::SynthDataset::generate(synth::douban_like(0.1, 92)).unwrap();
        let config = FitConfig::default()
            .with_user_topics(8)
            .with_time_topics(4)
            .with_iterations(4)
            .with_seed(92);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        let mut scratch = QueryScratch::new();
        let mut skipped = 0usize;
        let (mut blockmax_examined, mut classic_examined) = (0usize, 0usize);
        let queries = 20usize;
        // k = 20 so termination is bound-driven rather than dominated by
        // the per-list initialization floor both kernels share; this is
        // where the block-max bound's tightness (and the seen-stamp's
        // dedup of re-surfaced items) separates the kernels.
        for u in 0..queries {
            let user = UserId(u as u32);
            let time = TimeId((u % data.cuboid.num_times()) as u32);
            let result = index.top_k(&model, user, time, 20);
            skipped += result.blocks_skipped;
            blockmax_examined += result.items_examined;
            classic_examined +=
                classic(&index, &model, user, time, 20, &mut scratch).items_examined;
        }
        let avg = blockmax_examined as f64 / queries as f64;
        assert!(
            avg < model.num_items() as f64,
            "block-max should not examine the full catalog on average (avg {avg})"
        );
        assert!(
            blockmax_examined <= classic_examined,
            "block-max ({blockmax_examined}) must not examine more than classic \
             ({classic_examined})"
        );
        assert!(
            skipped > 0,
            "block-max should skip blocks on a {}-item catalog",
            model.num_items()
        );
    }

    #[test]
    fn classic_examines_fewer_items_than_catalog() {
        let data = synth::SynthDataset::generate(synth::tiny(92)).unwrap();
        let config =
            FitConfig::default().with_user_topics(4).with_time_topics(3).with_iterations(8);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        let mut scratch = QueryScratch::new();
        let mut total_examined = 0usize;
        let mut queries = 0usize;
        for u in 0..20 {
            let result = classic(&index, &model, UserId(u), TimeId(1), 5, &mut scratch);
            total_examined += result.items_examined;
            queries += 1;
        }
        let avg = total_examined as f64 / queries as f64;
        assert!(
            avg < model.num_items() as f64,
            "TA should not examine the full catalog on average (avg {avg})"
        );
    }

    #[test]
    fn k_larger_than_catalog() {
        let data = synth::SynthDataset::generate(synth::tiny(93)).unwrap();
        let config =
            FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(3);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        let mut scratch = QueryScratch::new();
        let result = index.top_k(&model, UserId(0), TimeId(0), 10_000);
        assert_eq!(result.items.len(), model.num_items());
        let classic = classic(&index, &model, UserId(0), TimeId(0), 10_000, &mut scratch);
        assert_eq!(classic.items.len(), model.num_items());
    }

    #[test]
    fn k_zero_returns_empty() {
        let data = synth::SynthDataset::generate(synth::tiny(94)).unwrap();
        let config =
            FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(3);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        let mut scratch = QueryScratch::new();
        assert!(index.top_k(&model, UserId(0), TimeId(0), 0).items.is_empty());
        assert!(classic(&index, &model, UserId(0), TimeId(0), 0, &mut scratch).items.is_empty());
    }

    #[test]
    fn parallel_build_matches_serial() {
        let data = synth::SynthDataset::generate(synth::tiny(98)).unwrap();
        let config =
            FitConfig::default().with_user_topics(4).with_time_topics(3).with_iterations(4);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let serial = TaIndex::build_with_threads(&model, 1);
        let parallel = TaIndex::build_with_threads(&model, 4);
        assert_eq!(serial.sorted_ids, parallel.sorted_ids);
        assert_eq!(serial.sorted_weights, parallel.sorted_weights);
        assert_eq!(serial.block_max, parallel.block_max);
        assert_eq!(serial.num_blocks, parallel.num_blocks);
    }

    #[test]
    fn postings_are_sorted_and_blockmax_dominates() {
        let data = synth::SynthDataset::generate(synth::tiny(99)).unwrap();
        let config =
            FitConfig::default().with_user_topics(4).with_time_topics(3).with_iterations(4);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        let v = index.num_items();
        for z in 0..index.num_lists() {
            let weights = &index.sorted_weights[z * v..(z + 1) * v];
            assert!(weights.windows(2).all(|w| w[0] >= w[1]), "factor {z} not sorted");
            let row = model.factor_items(z);
            for (i, &id) in index.sorted_ids[z * v..(z + 1) * v].iter().enumerate() {
                assert_eq!(weights[i], row[id as usize], "co-sorted weight mismatch");
            }
            for b in 0..index.num_blocks() {
                let start = b * BLOCK;
                let end = (start + BLOCK).min(v);
                let max = index.block_max[z * index.num_blocks() + b];
                assert!(row[start..end].iter().all(|&w| w <= max), "block max must dominate");
            }
        }
    }

    // The PR-3 "repeated queries do not reallocate scratch" fingerprint
    // test graduated to `tests/zero_alloc.rs`, which asserts a hard
    // zero-allocation steady state under a counting global allocator
    // instead of comparing buffer pointers/capacities.

    #[test]
    #[should_panic(expected = "buffer length must equal the catalog size")]
    fn brute_force_rejects_short_buffer() {
        let data = synth::SynthDataset::generate(synth::tiny(96)).unwrap();
        let config =
            FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(2);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let mut short = vec![0.0; model.num_items() - 1];
        brute_force_top_k(&model, UserId(0), TimeId(0), 5, &mut short);
    }

    #[test]
    #[should_panic(expected = "buffer length must equal the catalog size")]
    fn brute_force_rejects_oversized_buffer() {
        let data = synth::SynthDataset::generate(synth::tiny(97)).unwrap();
        let config =
            FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(2);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let mut long = vec![0.0; model.num_items() + 1];
        brute_force_top_k(&model, UserId(0), TimeId(0), 5, &mut long);
    }

    #[test]
    fn index_shape_matches_model() {
        let data = synth::SynthDataset::generate(synth::tiny(95)).unwrap();
        let config =
            FitConfig::default().with_user_topics(3).with_time_topics(2).with_iterations(2);
        let model = TtcamModel::fit(&data.cuboid, &config).unwrap().model;
        let index = TaIndex::build(&model);
        assert_eq!(index.num_lists(), 6, "K1 + K2 + background");
        assert_eq!(index.num_items(), model.num_items());
        assert_eq!(index.num_blocks(), model.num_items().div_ceil(BLOCK));
    }
}
