//! The item-weighting scheme of Section 3.3 (Eqs. 17–20).
//!
//! Plain TCAM, like any multinomial topic model, over-weights popular
//! items: they accumulate generation probability in every topic and crowd
//! out both the *salient* items that actually characterize a user's
//! interest and the *bursty* items that characterize an event. The paper
//! counters this by reweighting every cuboid cell:
//!
//! * **inverse user frequency** `iuf(v) = log(N / N(v))` (Eq. 17) demotes
//!   items rated by many distinct users, and
//! * **bursty degree** `B(v, t) = (N_t(v) / N_t) · (N / N(v))` (Eq. 18)
//!   promotes items whose interval-t audience share exceeds their overall
//!   audience share,
//!
//! combined as `w(v, t) = iuf(v) · B(v, t)` (Eq. 19) and applied
//! cell-wise: `C̄[u,t,v] = C[u,t,v] · w(v,t)` (Eq. 20). Training ITCAM /
//! TTCAM on `C̄` yields the paper's W-ITCAM / W-TTCAM variants.

use crate::cuboid::RatingCuboid;
use crate::ids::{ItemId, TimeId};
use serde::{Deserialize, Serialize};

/// Which weighting formula to apply (for ablation of the two factors of
/// Eq. 19 and for a variance-damped variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightingScheme {
    /// The paper's Eq. 19: `w = iuf(v) * B(v, t)`.
    Full,
    /// Inverse user frequency only: `w = iuf(v)`.
    IufOnly,
    /// Bursty degree only: `w = B(v, t)`.
    BurstOnly,
    /// Log-damped full weight: `w = ln(1 + iuf(v) * B(v, t))`.
    ///
    /// Eq. 19 is unbounded — a once-ever item at a sparse interval gets
    /// weight `~ log(N) * N / N_t`, and at laptop scale a handful of
    /// such cells can dominate the EM objective. Damping preserves the
    /// ordering (demote popular, promote bursty) while bounding the
    /// dynamic range; the ablation bench compares all four variants.
    Damped,
}

/// Precomputed weighting statistics for one cuboid.
///
/// `PartialEq` compares the raw counts; since every derived quantity
/// (iuf, bursty degree, every [`WeightingScheme`]) is a pure function of
/// them, equal statistics produce bitwise-equal weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemWeighting {
    /// `N`: the number of active users (users with >= 1 rating). The
    /// paper says "total number of users in the data set"; we use active
    /// users so registered-but-silent accounts cannot inflate every
    /// item's iuf by a constant that never affects ranking anyway.
    n_users: usize,
    /// `N(v)`: distinct users who rated item v across all intervals.
    item_users: Vec<u32>,
    /// `N_t`: distinct active users in interval t.
    active_users_per_t: Vec<u32>,
    /// Per interval: `(item, N_t(v))` pairs sorted by item for lookup.
    burst_counts: Vec<Vec<(u32, u32)>>,
}

impl ItemWeighting {
    /// Computes all statistics in two linear passes over the cells: one
    /// in `(user, time, item)` order for `N`, `N(v)` and `N_t`, one per
    /// interval for `N_t(v)`.
    pub fn compute(cuboid: &RatingCuboid) -> Self {
        let num_items = cuboid.num_items();
        let mut n_users = 0;
        let mut item_users = vec![0u32; num_items];
        let mut active_users_per_t = vec![0u32; cuboid.num_times()];
        // Entries are sorted by (user, time, item), so each user's cells
        // are contiguous, and within them each interval's: a new user
        // counts once in `N`, a new (user, time) once in `N_t`.
        // `last_user[v]` is the last user counted in `N(v)`.
        let mut last_user = vec![u32::MAX; num_items];
        let mut last: Option<(u32, u32)> = None;
        for r in cuboid.entries() {
            let (u, t, v) = (r.user.0, r.time.0, r.item.index());
            if last.map(|(lu, _)| lu) != Some(u) {
                n_users += 1;
            }
            if last != Some((u, t)) {
                active_users_per_t[t as usize] += 1;
            }
            last = Some((u, t));
            if last_user[v] != u {
                last_user[v] = u;
                item_users[v] += 1;
            }
        }

        // N_t(v): each (u, t, v) cell is unique, so N_t(v) is the number
        // of cells of (t, v). Count each interval into a dense row, then
        // emit its distinct items in order, clearing the row behind.
        let mut count = vec![0u32; num_items];
        let mut items: Vec<u32> = Vec::new();
        let burst_counts = (0..cuboid.num_times())
            .map(|t| {
                items.clear();
                for r in cuboid.time_entries(TimeId::from(t)) {
                    let c = &mut count[r.item.index()];
                    if *c == 0 {
                        items.push(r.item.0);
                    }
                    *c += 1;
                }
                items.sort_unstable();
                items.iter().map(|&v| (v, std::mem::take(&mut count[v as usize]))).collect()
            })
            .collect();

        ItemWeighting { n_users, item_users, active_users_per_t, burst_counts }
    }

    /// `N`: active user count used as the population size.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// `N(v)`: distinct users who rated `v`.
    pub fn item_user_count(&self, item: ItemId) -> u32 {
        self.item_users[item.index()]
    }

    /// `N_t`: distinct active users in interval `t`.
    pub fn active_users(&self, time: TimeId) -> u32 {
        self.active_users_per_t[time.index()]
    }

    /// `N_t(v)`: distinct users who rated `v` during `t`.
    pub fn item_user_count_at(&self, item: ItemId, time: TimeId) -> u32 {
        let counts = &self.burst_counts[time.index()];
        counts.binary_search_by_key(&item.0, |&(v, _)| v).map(|i| counts[i].1).unwrap_or(0)
    }

    /// Inverse user frequency `iuf(v) = log(N / N(v))` (Eq. 17).
    ///
    /// Eq. 17 divides by `N(v)`, which is zero for an item no user ever
    /// rated. The convention here: an unrated item is treated as rated
    /// by one hypothetical user, giving the *maximum* iuf `log N`
    /// (maximally salient) instead of `+inf`. Likewise an empty cuboid
    /// (`N = 0`) yields `log(1/1) = 0` rather than `log 0 = -inf`. The
    /// result is always finite; combined with the zero bursty degree of
    /// an unrated item (see [`Self::bursty_degree`]) the full Eq. 19
    /// weight of such cells is a well-defined 0.
    pub fn iuf(&self, item: ItemId) -> f64 {
        let nv = self.item_users[item.index()].max(1) as f64;
        ((self.n_users.max(1) as f64) / nv).ln()
    }

    /// Bursty degree `B(v, t) = (N_t(v)/N_t) · (N/N(v))` (Eq. 18).
    ///
    /// Values above 1 mean `v`'s share of interval-t attention exceeds
    /// its overall attention share — the signature of a burst.
    ///
    /// Eq. 18 divides by both `N_t` and `N(v)`, which are zero for an
    /// interval with no activity and for an unrated item respectively.
    /// Both denominators are floored to 1, pinning the numerators'
    /// zeros: an empty interval has `N_t(v) = 0` for every item and an
    /// unrated item has `N_t(v) = 0` at every interval, so either case
    /// yields a well-defined `B = 0` ("no burst where there is no
    /// activity") instead of `0/0 = NaN`.
    pub fn bursty_degree(&self, item: ItemId, time: TimeId) -> f64 {
        let ntv = self.item_user_count_at(item, time) as f64;
        let nt = self.active_users_per_t[time.index()].max(1) as f64;
        let nv = self.item_users[item.index()].max(1) as f64;
        (ntv / nt) * (self.n_users.max(1) as f64 / nv)
    }

    /// Combined weight `w(v, t) = iuf(v) · B(v, t)` (Eq. 19).
    ///
    /// Finite for every `(v, t)`, including the degenerate cells Eq. 19
    /// leaves undefined: an empty interval or an unrated item gives
    /// `w = 0` (via `B = 0`), and an item rated by every user gives
    /// `w = 0` (via `iuf = 0`).
    pub fn weight(&self, item: ItemId, time: TimeId) -> f64 {
        self.iuf(item) * self.bursty_degree(item, time)
    }

    /// Weight under a chosen [`WeightingScheme`].
    pub fn weight_with(&self, scheme: WeightingScheme, item: ItemId, time: TimeId) -> f64 {
        match scheme {
            WeightingScheme::Full => self.weight(item, time),
            WeightingScheme::IufOnly => self.iuf(item),
            WeightingScheme::BurstOnly => self.bursty_degree(item, time),
            WeightingScheme::Damped => self.weight(item, time).ln_1p(),
        }
    }

    /// Applies Eq. 20: returns the weighted cuboid `C̄[u,t,v] = C·w`.
    ///
    /// Cells whose weight collapses to zero (items rated by every user,
    /// so `iuf = 0`) are floored to a tiny positive value inside
    /// [`RatingCuboid::map_values`] to preserve the sparsity pattern.
    pub fn apply(&self, cuboid: &RatingCuboid) -> RatingCuboid {
        self.apply_with(WeightingScheme::Full, cuboid)
    }

    /// Applies Eq. 20 under a chosen scheme.
    pub fn apply_with(&self, scheme: WeightingScheme, cuboid: &RatingCuboid) -> RatingCuboid {
        cuboid.map_values(|_, t, v, value| value * self.weight_with(scheme, v, t))
    }

    /// Normalized temporal frequency profile of one item: the fraction
    /// of each interval's active users who rated it, scaled so the peak
    /// is 1. This regenerates the curves of the paper's Figures 2 and 5.
    pub fn temporal_profile(&self, item: ItemId) -> Vec<f64> {
        let raw: Vec<f64> = (0..self.active_users_per_t.len())
            .map(|t| {
                let tid = TimeId::from(t);
                let nt = self.active_users(tid).max(1) as f64;
                self.item_user_count_at(item, tid) as f64 / nt
            })
            .collect();
        let peak = raw.iter().cloned().fold(0.0, f64::max);
        if peak > 0.0 {
            raw.iter().map(|x| x / peak).collect()
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuboid::Rating;
    use crate::ids::UserId;

    fn r(u: u32, t: u32, v: u32) -> Rating {
        Rating { user: UserId(u), time: TimeId(t), item: ItemId(v), value: 1.0 }
    }

    /// 4 users, 2 intervals, 3 items.
    /// item 0: rated by everyone in both intervals (popular, non-bursty)
    /// item 1: rated by users 0,1 only in interval 1 (bursty, salient)
    /// item 2: rated by user 3 in interval 0 (salient, mildly bursty)
    fn fixture() -> RatingCuboid {
        RatingCuboid::from_ratings(
            4,
            2,
            3,
            vec![
                r(0, 0, 0),
                r(1, 0, 0),
                r(2, 0, 0),
                r(3, 0, 0),
                r(0, 1, 0),
                r(1, 1, 0),
                r(2, 1, 0),
                r(3, 1, 0),
                r(0, 1, 1),
                r(1, 1, 1),
                r(3, 0, 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_match_hand_computation() {
        let w = ItemWeighting::compute(&fixture());
        assert_eq!(w.n_users(), 4);
        assert_eq!(w.item_user_count(ItemId(0)), 4);
        assert_eq!(w.item_user_count(ItemId(1)), 2);
        assert_eq!(w.item_user_count(ItemId(2)), 1);
        assert_eq!(w.active_users(TimeId(0)), 4);
        assert_eq!(w.active_users(TimeId(1)), 4);
        assert_eq!(w.item_user_count_at(ItemId(1), TimeId(0)), 0);
        assert_eq!(w.item_user_count_at(ItemId(1), TimeId(1)), 2);
    }

    #[test]
    fn iuf_matches_eq17() {
        let w = ItemWeighting::compute(&fixture());
        // iuf(v) = log(N / N(v))
        assert!((w.iuf(ItemId(0)) - (4.0_f64 / 4.0).ln()).abs() < 1e-12);
        assert!((w.iuf(ItemId(1)) - (4.0_f64 / 2.0).ln()).abs() < 1e-12);
        assert!((w.iuf(ItemId(2)) - (4.0_f64 / 1.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn bursty_degree_matches_eq18() {
        let w = ItemWeighting::compute(&fixture());
        // item 1 at t=1: N_t(v)=2, N_t=4, N=4, N(v)=2 -> (2/4)*(4/2) = 1.0
        assert!((w.bursty_degree(ItemId(1), TimeId(1)) - 1.0).abs() < 1e-12);
        // item 1 at t=0: burst 0.
        assert_eq!(w.bursty_degree(ItemId(1), TimeId(0)), 0.0);
        // item 0 at t=0: (4/4)*(4/4) = 1.0 — popular but not bursty.
        assert!((w.bursty_degree(ItemId(0), TimeId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weight_demotes_popular_promotes_bursty() {
        let w = ItemWeighting::compute(&fixture());
        // Popular item 0 has iuf 0 -> weight 0 regardless of interval.
        assert_eq!(w.weight(ItemId(0), TimeId(0)), 0.0);
        // Bursty salient item 1 at its burst time has positive weight.
        assert!(w.weight(ItemId(1), TimeId(1)) > 0.0);
        assert!(w.weight(ItemId(1), TimeId(1)) > w.weight(ItemId(0), TimeId(1)));
    }

    #[test]
    fn apply_preserves_structure() {
        let c = fixture();
        let w = ItemWeighting::compute(&c);
        let weighted = w.apply(&c);
        assert_eq!(weighted.nnz(), c.nnz());
        assert_eq!(weighted.num_users(), c.num_users());
        // Item-1 cells outweigh item-0 cells after weighting.
        let v1 = weighted.get(UserId(0), TimeId(1), ItemId(1));
        let v0 = weighted.get(UserId(0), TimeId(1), ItemId(0));
        assert!(v1 > v0);
    }

    #[test]
    fn temporal_profile_peaks_at_burst() {
        let w = ItemWeighting::compute(&fixture());
        let profile = w.temporal_profile(ItemId(1));
        assert_eq!(profile, vec![0.0, 1.0]);
        let flat = w.temporal_profile(ItemId(0));
        assert_eq!(flat, vec![1.0, 1.0]);
    }

    #[test]
    fn unrated_item_has_zero_profile() {
        let c = RatingCuboid::from_ratings(2, 2, 3, vec![r(0, 0, 0), r(1, 1, 0)]).unwrap();
        let w = ItemWeighting::compute(&c);
        let profile = w.temporal_profile(ItemId(2));
        assert!(profile.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn counts_match_their_definitions() {
        // Every count straight from its definition, as a set of distinct
        // users, against the two linear passes of `compute`: on a
        // synthetic cuboid, and on one where each user's cells start in
        // the interval the previous user's end in.
        let synthetic = crate::synth::SynthDataset::generate(crate::synth::tiny(5)).unwrap();
        let boundaries = RatingCuboid::from_ratings(
            3,
            3,
            2,
            vec![r(0, 1, 0), r(1, 1, 1), r(2, 1, 0), r(2, 2, 1)],
        )
        .unwrap();
        for c in [&synthetic.cuboid, &boundaries] {
            let w = ItemWeighting::compute(c);
            let users = |keep: &dyn Fn(&Rating) -> bool| {
                let set: std::collections::BTreeSet<UserId> =
                    c.entries().iter().filter(|r| keep(r)).map(|r| r.user).collect();
                set.len() as u32
            };
            assert_eq!(w.n_users() as u32, users(&|_| true));
            for t in 0..c.num_times() {
                let time = TimeId::from(t);
                assert_eq!(w.active_users(time), users(&|r| r.time == time), "N_t, t={t}");
            }
            for v in 0..c.num_items() {
                let item = ItemId::from(v);
                assert_eq!(w.item_user_count(item), users(&|r| r.item == item), "N(v), v={v}");
                for t in 0..c.num_times() {
                    let time = TimeId::from(t);
                    let want = users(&|r| r.item == item && r.time == time);
                    assert_eq!(w.item_user_count_at(item, time), want, "N_t(v), v={v} t={t}");
                }
            }
        }
    }

    // --- Regression tests for the Eq. 17/18 division edge cases. ---

    #[test]
    fn empty_interval_has_zero_burst_not_nan() {
        // Interval 1 of 3 has no activity at all: N_1 = 0, and Eq. 18's
        // N_t(v)/N_t would be 0/0 for every item.
        let c = RatingCuboid::from_ratings(3, 3, 2, vec![r(0, 0, 0), r(1, 2, 1)]).unwrap();
        let w = ItemWeighting::compute(&c);
        assert_eq!(w.active_users(TimeId(1)), 0);
        for v in 0..2 {
            let b = w.bursty_degree(ItemId(v), TimeId(1));
            assert_eq!(b, 0.0, "empty interval must give B = 0, got {b}");
            assert_eq!(w.weight(ItemId(v), TimeId(1)), 0.0);
        }
    }

    #[test]
    fn unrated_item_has_max_iuf_and_zero_weight() {
        // Item 2 exists in the catalog but no one rated it: N(v) = 0,
        // and both Eq. 17's N/N(v) and Eq. 18's N/N(v) would divide by
        // zero.
        let c = RatingCuboid::from_ratings(2, 2, 3, vec![r(0, 0, 0), r(1, 1, 1)]).unwrap();
        let w = ItemWeighting::compute(&c);
        assert_eq!(w.item_user_count(ItemId(2)), 0);
        let iuf = w.iuf(ItemId(2));
        assert!(iuf.is_finite());
        assert!((iuf - 2.0_f64.ln()).abs() < 1e-12, "unrated item gets log N");
        for t in 0..2 {
            assert_eq!(w.bursty_degree(ItemId(2), TimeId(t)), 0.0);
            assert_eq!(w.weight(ItemId(2), TimeId(t)), 0.0);
        }
    }

    #[test]
    fn empty_cuboid_weights_are_all_zero() {
        // No ratings at all: N = 0, N_t = 0, N(v) = 0 everywhere.
        let c = RatingCuboid::from_ratings(2, 2, 2, vec![]).unwrap();
        let w = ItemWeighting::compute(&c);
        assert_eq!(w.n_users(), 0);
        for t in 0..2 {
            for v in 0..2 {
                assert_eq!(w.weight(ItemId(v), TimeId(t)), 0.0);
            }
        }
    }

    #[test]
    fn all_weights_finite_on_degenerate_cuboids() {
        // Every scheme, every cell, across fixtures that exercise each
        // zero denominator: no NaN or infinity may escape.
        let fixtures = vec![
            RatingCuboid::from_ratings(2, 2, 2, vec![]).unwrap(),
            RatingCuboid::from_ratings(3, 3, 2, vec![r(0, 0, 0), r(1, 2, 1)]).unwrap(),
            RatingCuboid::from_ratings(2, 2, 3, vec![r(0, 0, 0), r(1, 1, 1)]).unwrap(),
            fixture(),
        ];
        for c in &fixtures {
            let w = ItemWeighting::compute(c);
            for scheme in [
                WeightingScheme::Full,
                WeightingScheme::IufOnly,
                WeightingScheme::BurstOnly,
                WeightingScheme::Damped,
            ] {
                for t in 0..c.num_times() {
                    for v in 0..c.num_items() {
                        let x = w.weight_with(scheme, ItemId(v as u32), TimeId(t as u32));
                        assert!(x.is_finite(), "{scheme:?} weight(v{v}, t{t}) = {x} is not finite");
                    }
                }
            }
        }
    }
}
