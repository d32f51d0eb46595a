//! The validated append log: the one piece of ingest state.
//!
//! [`IngestLog`] keeps two views of the accepted stream and nothing
//! else: the ratings themselves, in arrival order, and the cuboid cells
//! they sum into, keyed `(u, t, v)`. Everything a refresh trains on is
//! derived from the cells when the refresh runs: [`IngestLog::materialize`]
//! builds the [`RatingCuboid`] in O(nnz), and the Section 3.3 weights are
//! [`ItemWeighting::compute`] on that cuboid, a pure function of it.
//!
//! The equivalence contract, enforced by `tests/online_equivalence.rs`:
//! after any prefix of accepted ratings, [`IngestLog::materialize`] is
//! **bitwise** equal to [`RatingCuboid::from_ratings`] on the same
//! prefix. It holds because both paths sum a cell's contributions in
//! arrival order: `from_ratings` stable-sorts before merging, and
//! [`IngestLog::append`] adds to the cell as ratings arrive.

use crate::{OnlineError, Result};
use std::collections::btree_map::{BTreeMap, Entry};
use tcam_data::{ItemId, ItemWeighting, Rating, RatingCuboid, TimeId, UserId};

/// The validated append log: the single entry point ratings stream
/// through. Every accepted rating is retained in arrival order (the
/// oracle replays it through the batch constructors) and summed into
/// its cell; every rejected rating returns a typed [`OnlineError`] and
/// provably mutates nothing.
#[derive(Debug, Clone)]
pub struct IngestLog {
    num_users: usize,
    num_items: usize,
    max_times: usize,
    last_time: Option<u32>,
    ratings: Vec<Rating>,
    /// `(u, t, v) ->` running cell value, in arrival-order summation.
    cells: BTreeMap<(u32, u32, u32), f64>,
    rejected: u64,
}

impl IngestLog {
    /// An empty log for a stream over `num_users` users, `num_items`
    /// items, and at most `max_times` intervals.
    pub fn new(num_users: usize, num_items: usize, max_times: usize) -> Self {
        IngestLog {
            num_users,
            num_items,
            max_times,
            last_time: None,
            ratings: Vec::new(),
            cells: BTreeMap::new(),
            rejected: 0,
        }
    }

    /// Validates and appends one rating.
    ///
    /// Checks, in order: user id, item id, and time id against the
    /// declared bounds; the value for NaN / infinity / negativity; and
    /// global time monotonicity (a rating for an interval earlier than
    /// the latest seen is a [`OnlineError::TimeRegression`] — closed
    /// intervals are final). On any failure the ratings and the cells
    /// are untouched (verified by fingerprint in
    /// `tests/failure_injection.rs`).
    ///
    /// An accepted rating's cell mirrors the duplicate merge of
    /// [`RatingCuboid::from_ratings`]: the first contribution is stored
    /// as-is, later ones are added left to right.
    pub fn append(&mut self, r: Rating) -> Result<()> {
        let check = self.validate(&r);
        if let Err(e) = check {
            self.rejected += 1;
            return Err(e);
        }
        self.last_time = Some(r.time.0);
        self.ratings.push(r);
        match self.cells.entry((r.user.0, r.time.0, r.item.0)) {
            Entry::Vacant(e) => {
                e.insert(r.value);
            }
            Entry::Occupied(mut e) => *e.get_mut() += r.value,
        }
        Ok(())
    }

    fn validate(&self, r: &Rating) -> Result<()> {
        if r.user.index() >= self.num_users {
            return Err(OnlineError::IdOutOfRange {
                kind: "user",
                index: r.user.index(),
                bound: self.num_users,
            });
        }
        if r.item.index() >= self.num_items {
            return Err(OnlineError::IdOutOfRange {
                kind: "item",
                index: r.item.index(),
                bound: self.num_items,
            });
        }
        if r.time.index() >= self.max_times {
            return Err(OnlineError::IdOutOfRange {
                kind: "time",
                index: r.time.index(),
                bound: self.max_times,
            });
        }
        if !r.value.is_finite() || r.value < 0.0 {
            return Err(OnlineError::InvalidValue { value: r.value });
        }
        if let Some(last) = self.last_time {
            if r.time.0 < last {
                return Err(OnlineError::TimeRegression {
                    time: r.time.index(),
                    last: last as usize,
                });
            }
        }
        Ok(())
    }

    /// Appends every rating, stopping at (and returning) the first
    /// rejection. Returns how many were accepted.
    pub fn append_all<I: IntoIterator<Item = Rating>>(&mut self, ratings: I) -> Result<usize> {
        let mut accepted = 0;
        for r in ratings {
            self.append(r)?;
            accepted += 1;
        }
        Ok(accepted)
    }

    /// Declared user-dimension size.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Declared item-catalog size.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Hard cap on interval ids.
    pub fn max_times(&self) -> usize {
        self.max_times
    }

    /// Current timeline length: one past the latest accepted interval
    /// (time never regresses, so that is also the latest cell's).
    pub fn num_times(&self) -> usize {
        self.last_time.map_or(0, |t| t as usize + 1)
    }

    /// Latest accepted interval, if any.
    pub fn last_time(&self) -> Option<u32> {
        self.last_time
    }

    /// Accepted ratings in arrival order.
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }

    /// Number of accepted ratings.
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// Whether no rating has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// Number of rejected ratings.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Materializes the immutable cuboid for the current prefix
    /// (bitwise equal to `from_ratings` on [`Self::ratings`]).
    /// Zero-valued cells are dropped, exactly as `from_ratings` drops
    /// them after merging.
    pub fn materialize(&self) -> RatingCuboid {
        let cells: Vec<Rating> = self
            .cells
            .iter()
            .filter(|&(_, &value)| value > 0.0)
            .map(|(&(u, t, v), &value)| Rating {
                user: UserId(u),
                time: TimeId(t),
                item: ItemId(v),
                value,
            })
            .collect();
        // The map key IS (u, t, v) in sorted order and the filter keeps
        // only positive cells, so the contract holds by construction.
        RatingCuboid::from_sorted_ratings(self.num_users, self.num_times(), self.num_items, cells)
            // tcam-lint: allow(no-panic) -- infallible by the construction argument above
            .expect("ingest cells satisfy the sorted-cells contract")
    }

    /// The Section 3.3 weighting statistics for the current prefix:
    /// [`ItemWeighting::compute`] on a fresh [`Self::materialize`]. A
    /// caller that already holds the materialized cuboid should call
    /// `ItemWeighting::compute` on it directly, as a refresh does.
    pub fn weighting(&self) -> ItemWeighting {
        ItemWeighting::compute(&self.materialize())
    }

    /// A deterministic fingerprint of every piece of state that affects
    /// downstream results — the declared bounds, the accepted log, and
    /// the cell values (bit patterns, not just values). Used to prove
    /// rejected ratings mutate nothing. The rejection counter is
    /// deliberately excluded: it is observability only and by design
    /// the one thing a rejection *does* move.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_usize(self.num_users);
        h.write_usize(self.num_items);
        h.write_usize(self.max_times);
        match self.last_time {
            None => h.write_u32(u32::MAX),
            Some(t) => {
                h.write_u32(1);
                h.write_u32(t);
            }
        }
        h.write_usize(self.ratings.len());
        for r in &self.ratings {
            h.write_u32(r.user.0);
            h.write_u32(r.time.0);
            h.write_u32(r.item.0);
            h.write_u64(r.value.to_bits());
        }
        for (&(u, t, v), &value) in &self.cells {
            h.write_u32(u);
            h.write_u32(t);
            h.write_u32(v);
            h.write_u64(value.to_bits());
        }
        h.finish()
    }
}

/// Minimal FNV-1a accumulator (deterministic across runs, unlike the
/// std `DefaultHasher` which is randomly keyed per process).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rating(u: u32, t: u32, v: u32, value: f64) -> Rating {
        Rating { user: UserId(u), time: TimeId(t), item: ItemId(v), value }
    }

    #[test]
    fn materialize_drops_zero_cells_and_grows_time() {
        let mut log = IngestLog::new(3, 3, 8);
        log.append(rating(0, 0, 0, 0.0)).unwrap();
        log.append(rating(2, 4, 1, 1.5)).unwrap();
        assert_eq!(log.num_times(), 5);
        let cuboid = log.materialize();
        assert_eq!(cuboid.num_times(), 5);
        assert_eq!(cuboid.nnz(), 1, "zero cell dropped");
        assert_eq!(cuboid.get(UserId(2), TimeId(4), ItemId(1)), 1.5);
    }

    #[test]
    fn log_validates_in_typed_errors() {
        let mut log = IngestLog::new(2, 3, 4);
        assert!(matches!(
            log.append(rating(2, 0, 0, 1.0)),
            Err(OnlineError::IdOutOfRange { kind: "user", index: 2, bound: 2 })
        ));
        assert!(matches!(
            log.append(rating(0, 0, 3, 1.0)),
            Err(OnlineError::IdOutOfRange { kind: "item", index: 3, bound: 3 })
        ));
        assert!(matches!(
            log.append(rating(0, 4, 0, 1.0)),
            Err(OnlineError::IdOutOfRange { kind: "time", index: 4, bound: 4 })
        ));
        assert!(matches!(
            log.append(rating(0, 0, 0, f64::NAN)),
            Err(OnlineError::InvalidValue { .. })
        ));
        assert!(matches!(
            log.append(rating(0, 0, 0, f64::INFINITY)),
            Err(OnlineError::InvalidValue { .. })
        ));
        assert!(matches!(
            log.append(rating(0, 0, 0, -1.0)),
            Err(OnlineError::InvalidValue { value }) if value == -1.0
        ));
        log.append(rating(0, 2, 0, 1.0)).unwrap();
        assert!(matches!(
            log.append(rating(1, 1, 0, 1.0)),
            Err(OnlineError::TimeRegression { time: 1, last: 2 })
        ));
        assert_eq!(log.len(), 1);
        assert_eq!(log.rejected(), 7);
    }

    #[test]
    fn fingerprint_tracks_accepts_and_ignores_nothing() {
        let mut log = IngestLog::new(4, 4, 8);
        let empty = log.fingerprint();
        log.append(rating(1, 0, 2, 1.0)).unwrap();
        let one = log.fingerprint();
        assert_ne!(empty, one);
        // Same cell again: the cell value doubles, so the fingerprint
        // must change.
        log.append(rating(1, 0, 2, 1.0)).unwrap();
        assert_ne!(one, log.fingerprint());
    }
}
