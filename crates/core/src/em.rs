//! The one EM scaffold both TCAM variants run on (DESIGN.md §11).
//!
//! ITCAM and TTCAM differ only in their temporal context, so [`fit`]
//! owns everything else: the shared interest side (Eqs. 4–9, 11), the
//! shard dispatch, the merge, the convergence test, and the buffers.
//! A variant plugs in its context through [`TemporalContext`]. The
//! per-user E-step, [`user_e_step`], is fold-in's too (`foldin.rs`),
//! run there with the corpus side frozen. Every iteration is (a)
//! allocation-free and (b) bitwise reproducible across thread counts.
//! The key ideas:
//!
//! * **Fixed shard plan.** The user partition is a function of the
//!   *data* (entry count), never of `num_threads`. Threads only pick up
//!   shards; the per-shard accumulation and the merge order are
//!   identical whether 1 or 16 threads run them, so the log-likelihood
//!   trace is bitwise identical across thread counts.
//! * **Disjoint per-user and per-entry windows.** `theta_num`,
//!   `lambda_num`, and `mass` are indexed by user, and shards own
//!   contiguous user ranges — so shards write disjoint windows of one
//!   shared buffer ([`UserStats::for_each_view`]) and those statistics
//!   need no merge at all. The same holds for the one scalar per entry
//!   the temporal side records ([`for_each_shard`]).
//! * **Deterministic pairwise merge tree.** The shared item-major
//!   matrices are accumulated per shard into reusable scratch (zeroed,
//!   not reallocated, between iterations) and merged with a fixed
//!   stride-doubling tree ([`merge_tree`]): `s[i] += s[i + gap]` for
//!   `gap = 1, 2, 4, ...`. The tree's shape depends only on the shard
//!   count, and each level's merges are independent (parallelizable).

use crate::config::{FitConfig, FitResult, FitTrace};
use crate::parallel::run_tasks;
use crate::{ModelError, Result};
use std::ops::Range;
use tcam_data::{RatingCuboid, UserId};
use tcam_math::{vecops, Matrix, Pcg64};

/// Upper bound on EM shards. Bounds per-shard scratch memory (each
/// shard holds its own copies of the shared item-major numerators) and
/// therefore the zero+merge overhead of tiny datasets; it also caps the
/// useful E-step parallelism. Raise it when real multi-core hardware and
/// larger cuboids arrive — any fixed value preserves reproducibility.
const MAX_EM_SHARDS: usize = 8;

/// Entries a shard should hold before another shard pays for itself.
/// Below this, zeroing and merging the extra scratch costs more than the
/// E-step work it parallelizes.
const MIN_ENTRIES_PER_SHARD: usize = 2048;

/// The fixed user partition for a cuboid: contiguous, entry-balanced,
/// and — critically — independent of the fit's `num_threads`, so every
/// thread count accumulates and merges in exactly the same order. At
/// least 2 shards whenever the data allows, so the merge tree is
/// exercised (and its determinism tested) even on small datasets.
fn em_shard_plan(cuboid: &RatingCuboid) -> Vec<Range<usize>> {
    let by_size = cuboid.nnz() / MIN_ENTRIES_PER_SHARD;
    let want = by_size.clamp(2, MAX_EM_SHARDS);
    crate::parallel::balanced_user_shards(cuboid, want)
}

/// The checks every fit starts with, before any parameter is built.
pub(crate) fn check_inputs(cuboid: &RatingCuboid, config: &FitConfig) -> Result<()> {
    config.validate()?;
    if cuboid.nnz() == 0 {
        return Err(ModelError::BadData("cuboid has no ratings"));
    }
    Ok(())
}

/// The temporal side of one TCAM variant: everything [`fit`] leaves to
/// the model. ITCAM's context is one item multinomial per interval
/// (Eq. 10); TTCAM's mixes time-oriented topics (Eqs. 12–16).
///
/// The E-step records one scalar per entry (see [`Self::entry_weight`])
/// and [`Self::rebuild`] turns those into the temporal numerators in
/// entry order, so the result is thread-count independent.
pub(crate) trait TemporalContext: Sync {
    /// Runs before each E-step (TTCAM refreshes its `(t, v)` cache).
    fn refresh(&mut self) {}

    /// The context likelihood `P(v | theta'_t)` of each of the cuboid's
    /// `entries`, in entry order.
    fn contexts<'a>(
        &'a self,
        cuboid: &'a RatingCuboid,
        entries: Range<usize>,
    ) -> impl Iterator<Item = f64> + 'a;

    /// What an entry records for [`Self::rebuild`], from `inv = c /
    /// denom`, the user's context weight `w0`, and the entry's context
    /// likelihood `b` (so its context mass is `p0 = w0 * b`).
    fn entry_weight(inv: f64, w0: f64, b: f64) -> f64;

    /// Rebuilds the temporal numerators from every entry's recorded
    /// weight, sequentially in a fixed order.
    fn rebuild(&mut self, cuboid: &RatingCuboid, weights: &[f64]);

    /// The temporal M-step: normalizes the numerators into parameters.
    fn m_step(&mut self);
}

/// The parameters one EM run updates, in the work layout: the interest
/// side both variants share plus the variant's temporal context.
pub(crate) struct EmParams<C> {
    /// `theta[u][z]`, `N x K1`.
    pub theta: Matrix,
    /// `phi_item[v][z]`, `V x K1`: item-major (column-stochastic) so the
    /// per-entry inner loop reads one contiguous row per rating.
    pub phi_item: Matrix,
    /// Per-user mixing weights `lambda_u`.
    pub lambda: Vec<f64>,
    /// The variant's temporal context.
    pub temporal: C,
}

/// Runs EM from `params` to convergence or `config.max_iterations`.
/// Returns the fitted parameters with the background distribution
/// `theta_B` (the cuboid's empirical item frequencies).
///
/// The shard plan, accumulation order, and merge tree depend only on
/// the data — `config.num_threads` changes wall-clock, never the result.
pub(crate) fn fit<C: TemporalContext>(
    cuboid: &RatingCuboid,
    config: &FitConfig,
    mut params: EmParams<C>,
) -> FitResult<(EmParams<C>, Vec<f64>)> {
    let v_dim = cuboid.num_items();
    let k1 = config.num_user_topics;
    let lam_b = config.background_weight;
    let mut background = vec![0.0; v_dim];
    for r in cuboid.entries() {
        background[r.item.index()] += r.value;
    }
    vecops::normalize_in_place(&mut background);

    // All training-loop buffers are allocated here, once.
    let shards = em_shard_plan(cuboid);
    let mut user_stats = UserStats::zeros(cuboid.num_users(), k1);
    let mut scratch: Vec<EmScratch> = shards.iter().map(|_| EmScratch::new(v_dim, k1)).collect();
    let mut weights = vec![0.0; cuboid.nnz()];
    let mut col_sums = vec![0.0; k1];
    let mut trace: Vec<FitTrace> = Vec::with_capacity(config.max_iterations);
    let mut converged = false;

    for iteration in 0..config.max_iterations {
        params.temporal.refresh();
        user_stats.reset();
        for s in scratch.iter_mut() {
            s.reset();
        }
        {
            let (params, background) = (&params, &background[..]);
            let e_step = |mut shard: Shard<'_>| {
                for u in shard.users.clone() {
                    e_step_user(cuboid, u, params, background, lam_b, &mut shard);
                }
            };
            let (stats, weights, scratch) = (&mut user_stats, &mut weights, &mut scratch);
            if config.num_threads <= 1 {
                // Serial: run each shard as it is carved, without a task
                // list — warm iterations stay allocation-free (asserted
                // by `tests/zero_alloc.rs`).
                for_each_shard(cuboid, &shards, stats, weights, scratch, e_step);
            } else {
                let mut tasks = Vec::with_capacity(shards.len());
                for_each_shard(cuboid, &shards, stats, weights, scratch, |s| tasks.push(s));
                run_tasks(config.num_threads, tasks, e_step);
            }
        }
        merge_tree(&mut scratch);
        let log_likelihood = scratch[0].log_likelihood;
        params.temporal.rebuild(cuboid, &weights);

        trace.push(FitTrace { iteration, log_likelihood });
        if iteration > 0 {
            let prev = trace[iteration - 1].log_likelihood;
            let rel = (log_likelihood - prev).abs() / prev.abs().max(f64::MIN_POSITIVE);
            if config.tolerance > 0.0 && rel < config.tolerance {
                converged = true;
                break;
            }
        }

        // M-step (Eqs. 8, 9, 11 plus the variant's temporal side).
        normalize_rows(&user_stats.theta_num, &mut params.theta);
        column_normalize(&scratch[0].phi_item_num, &mut params.phi_item, &mut col_sums);
        params.temporal.m_step();
        let UserStats { lambda_num, mass, .. } = &user_stats;
        let total_mass: f64 = mass.iter().sum();
        let global =
            if total_mass > 0.0 { lambda_num.iter().sum::<f64>() / total_mass } else { 0.5 };
        for ((lam, &num), &m) in params.lambda.iter_mut().zip(lambda_num).zip(mass) {
            *lam = next_lambda(*lam, config.lambda_shrinkage, global, num, m);
        }
    }
    FitResult { model: (params, background), trace, converged }
}

/// Reusable per-shard E-step scratch: this shard's copy of the shared
/// item-major interest numerator (Eq. 9) and its log-likelihood.
/// Allocated once per fit and zeroed — never reallocated — between
/// iterations.
struct EmScratch {
    /// `V x K1` numerators for Eq. 9.
    phi_item_num: Matrix,
    log_likelihood: f64,
}

impl EmScratch {
    fn new(v_dim: usize, k1: usize) -> Self {
        EmScratch { phi_item_num: Matrix::zeros(v_dim, k1), log_likelihood: 0.0 }
    }

    fn reset(&mut self) {
        self.phi_item_num.as_mut_slice().fill(0.0);
        self.log_likelihood = 0.0;
    }
}

impl MergeStats for EmScratch {
    fn merge_from(&mut self, other: &Self) {
        self.phi_item_num.add_assign(&other.phi_item_num).expect("equal shapes");
        self.log_likelihood += other.log_likelihood;
    }
}

/// One shard's E-step work: its users, and its disjoint windows of the
/// per-user statistics and the per-entry weights (the latter rebased at
/// `entry_base`), plus its own merge scratch.
struct Shard<'a> {
    users: Range<usize>,
    entry_base: usize,
    stats: UserStatsView<'a>,
    weights: &'a mut [f64],
    scratch: &'a mut EmScratch,
}

/// Carves every shard's windows of `user_stats` and `weights`, pairs
/// each with its `scratch`, and visits them in shard order. The serial
/// E-step runs each shard as it is visited; the threaded one collects
/// them into tasks.
// tcam-lint: hot
fn for_each_shard<'a>(
    cuboid: &RatingCuboid,
    shards: &[Range<usize>],
    user_stats: &'a mut UserStats,
    weights: &'a mut [f64],
    scratch: &'a mut [EmScratch],
    mut visit: impl FnMut(Shard<'a>),
) {
    let mut rest = weights;
    let mut scratch = scratch.iter_mut();
    user_stats.for_each_view(shards, |users, stats| {
        let entries = cuboid.entry_range(users.clone());
        let (weights, tail) = std::mem::take(&mut rest).split_at_mut(entries.len());
        rest = tail;
        let scratch = scratch.next().expect("one scratch per shard");
        visit(Shard { users, entry_base: entries.start, stats, weights, scratch });
    });
}

/// E-step contributions of one user's entries (Eqs. 4–6, 13, 14).
///
/// Per-user statistics go into the shard's disjoint [`UserStatsView`]
/// window (no merge needed); the item-major interest numerator
/// accumulates in the shard's [`EmScratch`]; the temporal side records
/// one scalar per entry into the shard's window of the weights, for
/// the variant's [`TemporalContext::rebuild`].
// tcam-lint: hot
fn e_step_user<C: TemporalContext>(
    cuboid: &RatingCuboid,
    u: usize,
    params: &EmParams<C>,
    background: &[f64],
    lam_b: f64,
    shard: &mut Shard<'_>,
) {
    let range = cuboid.user_entry_range(UserId::from(u));
    let entries = &cuboid.entries()[range.clone()];
    let mut weights = shard.weights[range.start - shard.entry_base..][..entries.len()].iter_mut();
    let cells = entries.iter().zip(params.temporal.contexts(cuboid, range)).map(|(r, context)| {
        let v = r.item.index();
        Cell { row: v, c: r.value, context, background: background[v] }
    });
    let phi = Phi::Scatter(&params.phi_item, &mut shard.scratch.phi_item_num);
    let record = |inv: Option<f64>, w0, context| {
        if let Some(w) = weights.next() {
            *w = inv.map_or(0.0, |inv| C::entry_weight(inv, w0, context));
        }
    };
    let theta_u = params.theta.row(u);
    let theta_num = shard.stats.theta_row_mut(u);
    let (lambda_num, mass, ll) =
        user_e_step(theta_u, params.lambda[u], lam_b, cells, phi, theta_num, record);
    shard.scratch.log_likelihood += ll;
    shard.stats.lambda_mass_add(u, lambda_num, mass);
}

/// One cell of a user's E-step: its `phi` row (training: the item;
/// fold-in: the cell's gathered row), rating weight `c`, context
/// likelihood `P(v | theta'_t)` and background `theta_B[v]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    pub row: usize,
    pub c: f64,
    pub context: f64,
    pub background: f64,
}

/// The `phi` rows a user's E-step reads, and what it does with each
/// cell's interest responsibilities besides adding them to `theta_num`.
pub(crate) enum Phi<'a> {
    /// Training: `(phi, num)`, item-major; the responsibilities are
    /// scattered into the shard's `phi` numerator `num` too.
    Scatter(&'a Matrix, &'a mut Matrix),
    /// Fold-in: `phi` is frozen; cell rows are `K1`-wide slices of this.
    Frozen(&'a [f64]),
}

/// The per-user E-step (Eqs. 4–6, 11) that training and fold-in both
/// run: the responsibilities of every cell under `theta_u` and
/// `lambda`, accumulated into `theta_num` and as `phi` says. `record`
/// sees each cell's `inv` (`None` when zero-mass), `w0` and context
/// likelihood, in order. Returns the Eq. 11 numerator and mass and the
/// log-likelihood.
///
/// The per-user mixture weights are hoisted out of the cell loop. With
/// them the responsibilities collapse to one division per cell:
/// `scale = c*post1/a_sum` and `c*post0/b` both cancel their normalizer
/// (`post1 = w1*a_sum/denom`), leaving `inv * w1` and `inv * w0` with
/// `inv = c/denom`.
// tcam-lint: hot
#[inline]
pub(crate) fn user_e_step(
    theta_u: &[f64],
    lambda: f64,
    lam_b: f64,
    cells: impl Iterator<Item = Cell>,
    mut phi: Phi<'_>,
    theta_num: &mut [f64],
    mut record: impl FnMut(Option<f64>, f64, f64),
) -> (f64, f64, f64) {
    let w1 = (1.0 - lam_b) * lambda;
    let w0 = (1.0 - lam_b) * (1.0 - lambda);
    let mut lambda_num = 0.0;
    let mut mass = 0.0;
    let mut ll = LogLikelihoodAcc::new();
    for cell in cells {
        let mut kept = None;
        let mut scale_of = |a_sum: f64| {
            let p1 = w1 * a_sum;
            let p0 = w0 * cell.context;
            let denom = lam_b * cell.background + p1 + p0;
            let Some(inv) = responsibility(cell.c, denom) else {
                ll.add_floor(cell.c);
                return 0.0;
            };
            ll.add(cell.c, denom);
            lambda_num += inv * p1;
            mass += inv * (p1 + p0);
            kept = Some(inv);
            inv * w1
        };
        match &mut phi {
            Phi::Scatter(phi, num) => {
                let (phi_v, num_v) = (phi.row(cell.row), num.row_mut(cell.row));
                vecops::dot_dual_update(theta_num, num_v, theta_u, phi_v, scale_of);
            }
            Phi::Frozen(rows) => {
                let phi_v = &rows[cell.row * theta_u.len()..][..theta_u.len()];
                let k = scale_of(vecops::dot_unrolled(theta_u, phi_v));
                if k != 0.0 {
                    vecops::scaled_mul_add(theta_num, theta_u, phi_v, k);
                }
            }
        }
        record(kept, w0, cell.context);
    }
    (lambda_num, mass, ll.finish())
}

/// The E-step's one division, `inv = c / denom`, or `None` when the
/// model gives the cell no usable mass and it must contribute nothing
/// (its log-likelihood is floored). That is `denom <= 0`, which only
/// degenerate inputs reach, but also a subnormal `denom` whose quotient
/// overflows to `inf` — the M-step would turn that into NaN `lambda`
/// for every user.
#[inline]
fn responsibility(c: f64, denom: f64) -> Option<f64> {
    let inv = c / denom;
    (denom > 0.0 && inv.is_finite()).then_some(inv)
}

/// Eq. 11 for one user, shrunk toward `prior` by `shrinkage`:
/// `(s * prior + num) / (s + mass)`. Keeps `lambda` when there is
/// nothing to update from and when the update is not finite (weights
/// near `f64::MAX` can overflow both sums to inf).
#[inline]
pub(crate) fn next_lambda(lambda: f64, shrinkage: f64, prior: f64, num: f64, mass: f64) -> f64 {
    if mass > 0.0 || shrinkage > 0.0 {
        let next = (shrinkage * prior + num) / (shrinkage + mass);
        if next.is_finite() {
            return next;
        }
    }
    lambda
}

/// Per-user sufficient statistics (M-step numerators for `theta_u` and
/// `lambda_u`). Allocated once per fit; zeroed in place each iteration.
struct UserStats {
    /// `N x K1` numerators for Eq. 8.
    theta_num: Matrix,
    /// Eq. 11 numerators.
    lambda_num: Vec<f64>,
    /// Eq. 11 denominators.
    mass: Vec<f64>,
}

impl UserStats {
    fn zeros(n: usize, k1: usize) -> Self {
        UserStats { theta_num: Matrix::zeros(n, k1), lambda_num: vec![0.0; n], mass: vec![0.0; n] }
    }

    fn reset(&mut self) {
        self.theta_num.as_mut_slice().fill(0.0);
        self.lambda_num.fill(0.0);
        self.mass.fill(0.0);
    }

    /// Splits the buffers into disjoint per-shard windows and visits
    /// them in shard order. `shards` must be contiguous ranges covering
    /// `0..n` in order (which [`em_shard_plan`] guarantees); each window
    /// is handed to exactly one shard, so no synchronization or merging
    /// is needed. Nothing is allocated: the serial E-step's warm
    /// iterations must not allocate (asserted by `tests/zero_alloc.rs`).
    // tcam-lint: hot
    fn for_each_view<'a>(
        &'a mut self,
        shards: &[Range<usize>],
        mut visit: impl FnMut(Range<usize>, UserStatsView<'a>),
    ) {
        let k1 = self.theta_num.cols();
        let mut theta_rest = self.theta_num.as_mut_slice();
        let mut lambda_rest = self.lambda_num.as_mut_slice();
        let mut mass_rest = self.mass.as_mut_slice();
        let mut next_base = 0usize;
        for r in shards {
            debug_assert_eq!(r.start, next_base);
            next_base = r.end;
            let users = r.end - r.start;
            let (theta, tr) = theta_rest.split_at_mut(users * k1);
            let (lambda_num, lr) = lambda_rest.split_at_mut(users);
            let (mass, mr) = mass_rest.split_at_mut(users);
            theta_rest = tr;
            lambda_rest = lr;
            mass_rest = mr;
            visit(r.clone(), UserStatsView { base: r.start, k1, theta, lambda_num, mass });
        }
    }
}

/// One shard's disjoint window into [`UserStats`]. Indexed by *global*
/// user id; the view rebases internally.
struct UserStatsView<'a> {
    base: usize,
    k1: usize,
    theta: &'a mut [f64],
    lambda_num: &'a mut [f64],
    mass: &'a mut [f64],
}

impl UserStatsView<'_> {
    /// The `theta_num` row of global user `u` (must be in the window).
    #[inline]
    fn theta_row_mut(&mut self, u: usize) -> &mut [f64] {
        let i = (u - self.base) * self.k1;
        &mut self.theta[i..i + self.k1]
    }

    /// Adds to the Eq. 11 accumulators of global user `u`.
    #[inline]
    fn lambda_mass_add(&mut self, u: usize, lambda_num: f64, mass: f64) {
        let i = u - self.base;
        self.lambda_num[i] += lambda_num;
        self.mass[i] += mass;
    }
}

/// Shard statistics that participate in the deterministic merge tree.
trait MergeStats {
    /// `self += other` element-wise.
    fn merge_from(&mut self, other: &Self);
}

/// Folds all shard statistics into `states[0]` with a fixed
/// stride-doubling pairwise tree: gap 1 merges (0,1), (2,3), ...; gap 2
/// merges (0,2), (4,6), ...; and so on. The order depends only on
/// `states.len()`, so the result is bitwise reproducible for any thread
/// count — and the merges within one level are independent, should a
/// future PR want to run the tree itself on threads.
// tcam-lint: hot
fn merge_tree<S: MergeStats>(states: &mut [S]) {
    let n = states.len();
    let mut gap = 1;
    while gap < n {
        let mut i = 0;
        while i + gap < n {
            let (left, right) = states.split_at_mut(i + gap);
            left[i].merge_from(&right[0]);
            i += 2 * gap;
        }
        gap *= 2;
    }
}

/// Batched accumulator for `sum c * ln(denom)` over one user's entries.
///
/// `ln` is by far the most expensive scalar in the E-step. For the
/// overwhelmingly common unweighted rating (`c == 1`) with a
/// non-degenerate probability, `ln(d1) + ... + ln(d8) = ln(d1*...*d8)`,
/// so the accumulator multiplies up to 8 denominators and takes one
/// `ln`. Denominators are mixture probabilities (at most 1), and the
/// batch path requires `denom > 1e-30`, so a batch product is in
/// `[1e-240, 1]` — no under- or overflow. Weighted or degenerate
/// entries fall back to a direct `c * ln(denom)`.
///
/// Batching happens per user, so the result is independent of shard
/// layout and thread count (bitwise).
struct LogLikelihoodAcc {
    total: f64,
    prod: f64,
    pending: u32,
}

impl LogLikelihoodAcc {
    fn new() -> Self {
        LogLikelihoodAcc { total: 0.0, prod: 1.0, pending: 0 }
    }

    /// Adds `c * ln(denom)`.
    #[inline]
    fn add(&mut self, c: f64, denom: f64) {
        if c == 1.0 && denom > 1e-30 {
            self.prod *= denom;
            self.pending += 1;
            if self.pending == 8 {
                self.total += self.prod.ln();
                self.prod = 1.0;
                self.pending = 0;
            }
        } else {
            self.total += c * denom.ln();
        }
    }

    /// Adds the floor contribution of a cell the model assigns zero
    /// mass: `c * ln(f64::MIN_POSITIVE)`.
    #[inline]
    fn add_floor(&mut self, c: f64) {
        self.total += c * f64::MIN_POSITIVE.ln();
    }

    /// Flushes any partial batch and returns the accumulated total.
    #[inline]
    fn finish(mut self) -> f64 {
        if self.pending > 0 {
            self.total += self.prod.ln();
        }
        self.total
    }
}

/// Fills every row of `m` with a random distribution. Draws and values
/// are identical to copying `config::random_distribution` into each row
/// (same RNG stream), without the per-row allocation.
pub(crate) fn random_rows(m: &mut Matrix, rng: &mut Pcg64) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        for cell in row.iter_mut() {
            *cell = 0.5 + rng.next_f64();
        }
        tcam_math::vecops::normalize_in_place(row);
    }
}

/// Random item-major `M[v][k]`, column-normalized so each of the `k`
/// topics is a distribution over items. Shared by both models' inits.
pub(crate) fn init_item_major(v_dim: usize, k: usize, rng: &mut Pcg64) -> Matrix {
    let mut m = Matrix::zeros(v_dim, k);
    let mut col_sums = vec![0.0; k];
    for v in 0..v_dim {
        for (z, cell) in m.row_mut(v).iter_mut().enumerate() {
            *cell = 0.5 + rng.next_f64();
            col_sums[z] += *cell;
        }
    }
    for v in 0..v_dim {
        for (z, cell) in m.row_mut(v).iter_mut().enumerate() {
            *cell /= col_sums[z];
        }
    }
    m
}

/// M-step row normalization: `dst[r] = normalize(src[r])` for every row
/// (uniform fallback for empty rows, as in `normalize_in_place`).
// tcam-lint: hot
pub(crate) fn normalize_rows(src: &Matrix, dst: &mut Matrix) {
    debug_assert_eq!(src.rows(), dst.rows());
    for r in 0..src.rows() {
        let out = dst.row_mut(r);
        out.copy_from_slice(src.row(r));
        tcam_math::vecops::normalize_in_place(out);
    }
}

/// M-step column normalization of item-major numerators into `dst` so
/// every topic is a distribution over items (uniform fallback for empty
/// topics). Shared by Eq. 9 (`phi_z`) and Eq. 16 (`phi'_x`).
///
/// `col_sums` is caller-owned scratch (sized lazily, so warm iterations
/// reuse its capacity and this runs allocation-free after the first
/// call at a given width).
// tcam-lint: hot
pub(crate) fn column_normalize(src: &Matrix, dst: &mut Matrix, col_sums: &mut Vec<f64>) {
    let v_dim = src.rows();
    let k = src.cols();
    col_sums.clear();
    col_sums.resize(k, 0.0);
    for v in 0..v_dim {
        tcam_math::vecops::scaled_add(col_sums, src.row(v), 1.0);
    }
    for v in 0..v_dim {
        let src_row = src.row(v);
        let dst_row = dst.row_mut(v);
        for z in 0..k {
            dst_row[z] =
                if col_sums[z] > 0.0 { src_row[z] / col_sums[z] } else { 1.0 / v_dim as f64 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_data::{ItemId, Rating, TimeId, UserId};

    #[derive(Clone)]
    struct Tag(Vec<usize>);
    impl MergeStats for Tag {
        fn merge_from(&mut self, other: &Self) {
            self.0.extend_from_slice(&other.0);
        }
    }

    #[test]
    fn random_rows_matches_reference_distribution_stream() {
        let mut rng_rows = Pcg64::new(42);
        let mut rng_ref = Pcg64::new(42);
        let mut m = Matrix::zeros(5, 7);
        random_rows(&mut m, &mut rng_rows);
        for r in 0..5 {
            let want = crate::config::random_distribution(7, &mut rng_ref);
            assert_eq!(m.row(r), &want[..], "row {r}");
        }
    }

    #[test]
    fn merge_tree_order_is_fixed() {
        for n in 1..=9 {
            let mut states: Vec<Tag> = (0..n).map(|i| Tag(vec![i])).collect();
            merge_tree(&mut states);
            let mut all = states[0].0.clone();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "n={n} covers every shard once");
            // The order is a pure function of n: re-running reproduces it.
            let mut again: Vec<Tag> = (0..n).map(|i| Tag(vec![i])).collect();
            merge_tree(&mut again);
            assert_eq!(states[0].0, again[0].0);
        }
    }

    #[test]
    fn shard_plan_ignores_thread_count_and_covers_users() {
        let ratings: Vec<Rating> = (0..200u32)
            .flat_map(|u| {
                (0..30u32).map(move |i| Rating {
                    user: UserId(u),
                    time: TimeId(i % 5),
                    item: ItemId(i),
                    value: 1.0,
                })
            })
            .collect();
        let c = RatingCuboid::from_ratings(200, 5, 30, ratings).unwrap();
        let plan = em_shard_plan(&c);
        assert!(plan.len() >= 2);
        assert!(plan.len() <= MAX_EM_SHARDS);
        assert_eq!(plan.first().unwrap().start, 0);
        assert_eq!(plan.last().unwrap().end, 200);
        for w in plan.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn user_stats_split_windows_are_disjoint_and_complete() {
        let mut stats = UserStats::zeros(7, 3);
        let shards = vec![0..2, 2..5, 5..7];
        {
            let mut views = Vec::new();
            stats.for_each_view(&shards, |r, view| views.push((r, view)));
            for (r, view) in views.iter_mut() {
                for u in r.clone() {
                    view.theta_row_mut(u)[0] = u as f64;
                    view.lambda_mass_add(u, u as f64, 1.0);
                }
            }
        }
        for u in 0..7 {
            assert_eq!(stats.theta_num.get(u, 0), u as f64);
            assert_eq!(stats.lambda_num[u], u as f64);
            assert_eq!(stats.mass[u], 1.0);
        }
        stats.reset();
        assert!(stats.theta_num.as_slice().iter().all(|&x| x == 0.0));
        assert!(stats.mass.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn log_likelihood_acc_matches_direct_sum() {
        // Mix of batchable (c == 1), weighted, tiny, and floored terms.
        let terms: Vec<(f64, f64)> = (0..37)
            .map(|i| {
                let c = if i % 5 == 0 { 0.25 + i as f64 * 0.1 } else { 1.0 };
                let d = if i % 11 == 0 { 1e-35 } else { 1e-4 + (i as f64) * 1e-3 };
                (c, d)
            })
            .collect();
        let mut acc = LogLikelihoodAcc::new();
        let mut direct = 0.0;
        for &(c, d) in &terms {
            acc.add(c, d);
            direct += c * d.ln();
        }
        let batched = acc.finish();
        assert!(
            (batched - direct).abs() <= 1e-9 * direct.abs(),
            "batched {batched} vs direct {direct}"
        );
        // Floors are weighted too.
        let mut acc = LogLikelihoodAcc::new();
        acc.add_floor(2.0);
        assert_eq!(acc.finish(), 2.0 * f64::MIN_POSITIVE.ln());
    }

    #[test]
    fn column_normalize_matches_rowwise_definition() {
        let src = Matrix::from_vec(3, 2, vec![1.0, 0.0, 2.0, 0.0, 1.0, 0.0]).unwrap();
        let mut dst = Matrix::zeros(3, 2);
        let mut col_sums = Vec::new();
        column_normalize(&src, &mut dst, &mut col_sums);
        assert!((dst.get(0, 0) - 0.25).abs() < 1e-15);
        assert!((dst.get(1, 0) - 0.5).abs() < 1e-15);
        // Empty column falls back to uniform over items.
        for v in 0..3 {
            assert!((dst.get(v, 1) - 1.0 / 3.0).abs() < 1e-15);
        }
    }
}
