//! Small vector utilities used by the inference code.
//!
//! The EM hot-path kernels ([`dot_unrolled`], [`scaled_add`],
//! [`scaled_mul_add`], [`dual_scaled_mul_add`], [`dot_dual_update`])
//! dispatch at runtime to AVX2 implementations on x86-64 CPUs that
//! support them. The AVX2 bodies are *lane-exact* transcriptions of the
//! portable 4-wide unrolled loops: same per-lane IEEE multiplies and
//! adds in the same order, no FMA contraction, and the same
//! `(s0 + s1) + (s2 + s3)` accumulator reduction — so every kernel
//! returns bitwise-identical results on either path and reproducibility
//! does not depend on the host CPU's feature set.

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Dot product with four independent accumulators over
/// `chunks_exact(4)`.
///
/// Latency-optimized companion to [`dot`]: the sequential fold in
/// [`dot`] is a single addition dependency chain, while this variant
/// keeps four partial sums in flight. Its value can differ from [`dot`]
/// by floating-point reassociation — use [`dot`] where a result must
/// bitwise match a left-to-right sum (e.g. the scoring paths), and this
/// in throughput-bound kernels.
#[inline]
pub fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: AVX2 support was just checked at runtime.
        return unsafe { avx::dot_unrolled(a, b) };
    }
    dot_unrolled_generic(a, b)
}

#[inline]
fn dot_unrolled_generic(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut a_chunks = a.chunks_exact(4);
    let mut b_chunks = b.chunks_exact(4);
    for (x, y) in (&mut a_chunks).zip(&mut b_chunks) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let tail = n - n % 4;
    for i in tail..n {
        s0 += a[i] * b[i];
    }
    (s0 + s1) + (s2 + s3)
}

/// `out += k * x`, in place, 4-wide unrolled.
///
/// The unroll breaks the load/store dependency chain so the compiler can
/// keep four independent FMA lanes in flight; since every lane is an
/// independent elementwise update, the result is bitwise identical to
/// the naive loop for any slice length.
#[inline]
pub fn scaled_add(out: &mut [f64], x: &[f64], k: f64) {
    debug_assert_eq!(out.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: AVX2 support was just checked at runtime.
        unsafe { avx::scaled_add(out, x, k) };
        return;
    }
    scaled_add_generic(out, x, k)
}

#[inline]
fn scaled_add_generic(out: &mut [f64], x: &[f64], k: f64) {
    let n = out.len();
    let mut out_chunks = out.chunks_exact_mut(4);
    let mut x_chunks = x.chunks_exact(4);
    for (o, v) in (&mut out_chunks).zip(&mut x_chunks) {
        o[0] += k * v[0];
        o[1] += k * v[1];
        o[2] += k * v[2];
        o[3] += k * v[3];
    }
    let tail = n - n % 4;
    for (o, &v) in out[tail..].iter_mut().zip(x[tail..].iter()) {
        *o += k * v;
    }
}

/// Fused dual responsibility update: `out1[i] += k * a[i] * b[i]` and
/// `out2[i] += k * a[i] * b[i]`, 4-wide unrolled.
///
/// The E-step spreads each rating's interest posterior over the same
/// products `a[z] * b[z]` (= `theta_u[z] * phi_v[z]`) into two numerator
/// rows. Fusing both updates recomputes the product once per lane and
/// never materializes the responsibility vector. Each lane is an
/// independent elementwise update, so the stored results are bitwise
/// identical to two naive loops.
#[inline]
pub fn dual_scaled_mul_add(out1: &mut [f64], out2: &mut [f64], a: &[f64], b: &[f64], k: f64) {
    debug_assert_eq!(out1.len(), out2.len());
    debug_assert_eq!(out1.len(), a.len());
    debug_assert_eq!(out1.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: AVX2 support was just checked at runtime.
        unsafe { avx::dual_scaled_mul_add(out1, out2, a, b, k) };
        return;
    }
    dual_scaled_mul_add_generic(out1, out2, a, b, k)
}

#[inline]
fn dual_scaled_mul_add_generic(out1: &mut [f64], out2: &mut [f64], a: &[f64], b: &[f64], k: f64) {
    let n = out1.len();
    let mut o1_chunks = out1.chunks_exact_mut(4);
    let mut o2_chunks = out2.chunks_exact_mut(4);
    let mut a_chunks = a.chunks_exact(4);
    let mut b_chunks = b.chunks_exact(4);
    for (((o1, o2), x), y) in
        (&mut o1_chunks).zip(&mut o2_chunks).zip(&mut a_chunks).zip(&mut b_chunks)
    {
        let p0 = k * (x[0] * y[0]);
        let p1 = k * (x[1] * y[1]);
        let p2 = k * (x[2] * y[2]);
        let p3 = k * (x[3] * y[3]);
        o1[0] += p0;
        o1[1] += p1;
        o1[2] += p2;
        o1[3] += p3;
        o2[0] += p0;
        o2[1] += p1;
        o2[2] += p2;
        o2[3] += p3;
    }
    let tail = n - n % 4;
    for i in tail..n {
        let p = k * (a[i] * b[i]);
        out1[i] += p;
        out2[i] += p;
    }
}

/// `out[i] += k * (a[i] * b[i])`, 4-wide unrolled.
///
/// Single-output sibling of [`dual_scaled_mul_add`], used by the
/// context post-pass (`phi'` numerator rows get `w * (theta'_t[x] *
/// phi'_x[v])` per distinct pair) and by fold-in, whose E-step spreads
/// each rating's interest posterior over `theta_u ∘ phi_v` into the
/// `theta` numerator alone. Each lane is an independent elementwise
/// update, so the result is bitwise identical to the naive loop;
/// `k = 1.0` degenerates to an exact `out += a ∘ b`.
#[inline]
pub fn scaled_mul_add(out: &mut [f64], a: &[f64], b: &[f64], k: f64) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: AVX2 support was just checked at runtime.
        unsafe { avx::scaled_mul_add(out, a, b, k) };
        return;
    }
    scaled_mul_add_generic(out, a, b, k)
}

#[inline]
fn scaled_mul_add_generic(out: &mut [f64], a: &[f64], b: &[f64], k: f64) {
    let n = out.len();
    let mut out_chunks = out.chunks_exact_mut(4);
    let mut a_chunks = a.chunks_exact(4);
    let mut b_chunks = b.chunks_exact(4);
    for ((o, x), y) in (&mut out_chunks).zip(&mut a_chunks).zip(&mut b_chunks) {
        o[0] += k * (x[0] * y[0]);
        o[1] += k * (x[1] * y[1]);
        o[2] += k * (x[2] * y[2]);
        o[3] += k * (x[3] * y[3]);
    }
    let tail = n - n % 4;
    for i in tail..n {
        out[i] += k * (a[i] * b[i]);
    }
}

/// Fused E-step rating kernel: one dot product, one posterior, one
/// dual numerator update — without reloading or recomputing the
/// elementwise products in between.
///
/// Computes `a_sum = dot(a, b)` with [`dot_unrolled`]'s accumulator
/// order, passes it to `scale_of` (which owns the posterior arithmetic
/// and any side effects — log-likelihood accumulation, weight stores),
/// and, when the returned scale `k` is nonzero, applies
/// [`dual_scaled_mul_add`]`(out1, out2, a, b, k)`. Results are bitwise
/// identical to calling those two kernels separately; on AVX2 the
/// `len == 12` case (the default K1) keeps all three product vectors
/// in registers across the `scale_of` call.
#[inline]
pub fn dot_dual_update(
    out1: &mut [f64],
    out2: &mut [f64],
    a: &[f64],
    b: &[f64],
    scale_of: impl FnOnce(f64) -> f64,
) {
    debug_assert_eq!(out1.len(), out2.len());
    debug_assert_eq!(out1.len(), a.len());
    debug_assert_eq!(out1.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if a.len() == 12 && avx::available() {
        // SAFETY: AVX2 support was just checked at runtime; length 12
        // was just checked.
        unsafe { avx::dot12_dual_update(out1, out2, a, b, scale_of) };
        return;
    }
    let a_sum = dot_unrolled(a, b);
    let k = scale_of(a_sum);
    if k != 0.0 {
        dual_scaled_mul_add(out1, out2, a, b, k);
    }
}

/// AVX2 bodies for the EM hot-path kernels.
///
/// Every function here is a lane-exact transcription of its
/// `*_generic` twin: the same IEEE multiplies and adds happen in the
/// same order per lane (256-bit `mul_pd`/`add_pd`, never FMA), vector
/// accumulator lane `j` holds exactly the scalar accumulator `s{j}`,
/// and the final reduction is the identical `(s0 + s1) + (s2 + s3)`.
/// The `avx_kernels_bitwise_match_generic` test pins this equivalence
/// on hardware that has AVX2.
#[cfg(target_arch = "x86_64")]
mod avx {
    use core::arch::x86_64::*;

    /// Cached runtime check (the macro amortizes detection into one
    /// atomic load after the first call).
    #[inline(always)]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let chunks = n / 4;
        let mut acc = _mm256_setzero_pd();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        for i in 0..chunks {
            let x = _mm256_loadu_pd(ap.add(4 * i));
            let y = _mm256_loadu_pd(bp.add(4 * i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(x, y));
        }
        let mut s = [0.0f64; 4];
        _mm256_storeu_pd(s.as_mut_ptr(), acc);
        for i in (4 * chunks)..n {
            s[0] += *ap.add(i) * *bp.add(i);
        }
        (s[0] + s[1]) + (s[2] + s[3])
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and `out.len() == x.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scaled_add(out: &mut [f64], x: &[f64], k: f64) {
        let n = out.len();
        let chunks = n / 4;
        let kv = _mm256_set1_pd(k);
        let (op, xp) = (out.as_mut_ptr(), x.as_ptr());
        for i in 0..chunks {
            let o = _mm256_loadu_pd(op.add(4 * i));
            let v = _mm256_loadu_pd(xp.add(4 * i));
            _mm256_storeu_pd(op.add(4 * i), _mm256_add_pd(o, _mm256_mul_pd(kv, v)));
        }
        for i in (4 * chunks)..n {
            *op.add(i) += k * *xp.add(i);
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and all slices share a length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scaled_mul_add(out: &mut [f64], a: &[f64], b: &[f64], k: f64) {
        let n = out.len();
        let chunks = n / 4;
        let kv = _mm256_set1_pd(k);
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        for i in 0..chunks {
            let x = _mm256_loadu_pd(ap.add(4 * i));
            let y = _mm256_loadu_pd(bp.add(4 * i));
            let o = _mm256_loadu_pd(op.add(4 * i));
            let p = _mm256_mul_pd(kv, _mm256_mul_pd(x, y));
            _mm256_storeu_pd(op.add(4 * i), _mm256_add_pd(o, p));
        }
        for i in (4 * chunks)..n {
            *op.add(i) += k * (*ap.add(i) * *bp.add(i));
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and all slices have length 12.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot12_dual_update(
        out1: &mut [f64],
        out2: &mut [f64],
        a: &[f64],
        b: &[f64],
        scale_of: impl FnOnce(f64) -> f64,
    ) {
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let p0 = _mm256_mul_pd(_mm256_loadu_pd(ap), _mm256_loadu_pd(bp));
        let p1 = _mm256_mul_pd(_mm256_loadu_pd(ap.add(4)), _mm256_loadu_pd(bp.add(4)));
        let p2 = _mm256_mul_pd(_mm256_loadu_pd(ap.add(8)), _mm256_loadu_pd(bp.add(8)));
        // Accumulate in the scalar kernel's order: s starts at zero and
        // absorbs one product chunk at a time, then reduces as
        // (s0 + s1) + (s2 + s3).
        let acc = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(_mm256_setzero_pd(), p0), p1), p2);
        let mut s = [0.0f64; 4];
        _mm256_storeu_pd(s.as_mut_ptr(), acc);
        let k = scale_of((s[0] + s[1]) + (s[2] + s[3]));
        if k != 0.0 {
            let kv = _mm256_set1_pd(k);
            let (q0, q1, q2) =
                (_mm256_mul_pd(kv, p0), _mm256_mul_pd(kv, p1), _mm256_mul_pd(kv, p2));
            let (o1p, o2p) = (out1.as_mut_ptr(), out2.as_mut_ptr());
            _mm256_storeu_pd(o1p, _mm256_add_pd(_mm256_loadu_pd(o1p), q0));
            _mm256_storeu_pd(o1p.add(4), _mm256_add_pd(_mm256_loadu_pd(o1p.add(4)), q1));
            _mm256_storeu_pd(o1p.add(8), _mm256_add_pd(_mm256_loadu_pd(o1p.add(8)), q2));
            _mm256_storeu_pd(o2p, _mm256_add_pd(_mm256_loadu_pd(o2p), q0));
            _mm256_storeu_pd(o2p.add(4), _mm256_add_pd(_mm256_loadu_pd(o2p.add(4)), q1));
            _mm256_storeu_pd(o2p.add(8), _mm256_add_pd(_mm256_loadu_pd(o2p.add(8)), q2));
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and all slices share a length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dual_scaled_mul_add(
        out1: &mut [f64],
        out2: &mut [f64],
        a: &[f64],
        b: &[f64],
        k: f64,
    ) {
        let n = out1.len();
        let chunks = n / 4;
        let kv = _mm256_set1_pd(k);
        let (o1p, o2p) = (out1.as_mut_ptr(), out2.as_mut_ptr());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        for i in 0..chunks {
            let x = _mm256_loadu_pd(ap.add(4 * i));
            let y = _mm256_loadu_pd(bp.add(4 * i));
            let p = _mm256_mul_pd(kv, _mm256_mul_pd(x, y));
            let o1 = _mm256_loadu_pd(o1p.add(4 * i));
            let o2 = _mm256_loadu_pd(o2p.add(4 * i));
            _mm256_storeu_pd(o1p.add(4 * i), _mm256_add_pd(o1, p));
            _mm256_storeu_pd(o2p.add(4 * i), _mm256_add_pd(o2, p));
        }
        for i in (4 * chunks)..n {
            let p = k * (*ap.add(i) * *bp.add(i));
            *o1p.add(i) += p;
            *o2p.add(i) += p;
        }
    }
}

/// Sum of a slice.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Normalizes a nonnegative slice in place to sum to one.
///
/// If the total mass is zero (or not finite), falls back to the uniform
/// distribution — the standard guard in EM implementations so an empty
/// sufficient-statistics row cannot poison the next iteration with NaNs.
pub fn normalize_in_place(xs: &mut [f64]) {
    if xs.is_empty() {
        return;
    }
    let total: f64 = xs.iter().sum();
    if total > 0.0 && total.is_finite() {
        for x in xs.iter_mut() {
            *x /= total;
        }
    } else {
        let u = 1.0 / xs.len() as f64;
        for x in xs.iter_mut() {
            *x = u;
        }
    }
}

/// Returns a normalized copy of a nonnegative slice.
pub fn normalized(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    normalize_in_place(&mut out);
    out
}

/// True when the slice is a probability distribution within `tol`.
pub fn is_distribution(xs: &[f64], tol: f64) -> bool {
    if xs.iter().any(|&x| x < -tol || !x.is_finite()) {
        return false;
    }
    (xs.iter().sum::<f64>() - 1.0).abs() <= tol
}

/// Index of the maximum element (first on ties); `None` when empty.
///
/// Contract: NaN elements are *ignored* — they never win and never
/// poison the scan. Returns `None` only when the slice is empty or every
/// element is NaN. (The previous `bv >= v` fold let a single NaN capture
/// the running best and then lose every later comparison, silently
/// returning an arbitrary index.)
pub fn argmax(xs: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in xs.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns `None` when either sample has zero variance or fewer than two
/// points.
pub fn pearson(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len() as f64;
    let ma = sum(a) / n;
    let mb = sum(b) / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return None;
    }
    Some(cov / (va.sqrt() * vb.sqrt()))
}

/// Empirical cumulative distribution function evaluated on a grid.
///
/// Returns `(grid, cdf)` where `cdf[i]` is the fraction of samples
/// `<= grid[i]`. Used for the paper's Figures 10 and 11 (lambda CDFs).
pub fn empirical_cdf(samples: &[f64], grid_points: usize) -> (Vec<f64>, Vec<f64>) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in CDF input"));
    let n = sorted.len();
    let mut grid = Vec::with_capacity(grid_points);
    let mut cdf = Vec::with_capacity(grid_points);
    for i in 0..grid_points {
        let x = i as f64 / (grid_points - 1).max(1) as f64;
        let count = sorted.partition_point(|&v| v <= x);
        grid.push(x);
        cdf.push(if n == 0 { 0.0 } else { count as f64 / n as f64 });
    }
    (grid, cdf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn normalize_sums_to_one() {
        let mut xs = vec![2.0, 2.0, 4.0];
        normalize_in_place(&mut xs);
        assert_eq!(xs, vec![0.25, 0.25, 0.5]);
    }

    #[test]
    fn normalize_zero_mass_falls_back_to_uniform() {
        let mut xs = vec![0.0, 0.0];
        normalize_in_place(&mut xs);
        assert_eq!(xs, vec![0.5, 0.5]);
    }

    #[test]
    fn normalize_empty_is_noop() {
        let mut xs: Vec<f64> = vec![];
        normalize_in_place(&mut xs);
        assert!(xs.is_empty());
    }

    #[test]
    fn is_distribution_checks() {
        assert!(is_distribution(&[0.5, 0.5], 1e-9));
        assert!(!is_distribution(&[0.5, 0.6], 1e-9));
        assert!(!is_distribution(&[1.5, -0.5], 1e-9));
    }

    #[test]
    fn argmax_first_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_ignores_nan() {
        assert_eq!(argmax(&[f64::NAN, 1.0, 2.0]), Some(2));
        assert_eq!(argmax(&[1.0, f64::NAN, 0.5]), Some(0));
        assert_eq!(argmax(&[2.0, f64::NAN]), Some(0));
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), None);
        assert_eq!(argmax(&[f64::NEG_INFINITY, f64::NAN]), Some(0));
    }

    #[test]
    fn scaled_add_matches_naive_all_lengths() {
        for n in 0..13 {
            let x: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 + 0.3).collect();
            let mut fast: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut naive = fast.clone();
            scaled_add(&mut fast, &x, 1.7);
            for (o, &v) in naive.iter_mut().zip(x.iter()) {
                *o += 1.7 * v;
            }
            assert_eq!(fast, naive, "n={n}");
        }
    }

    #[test]
    fn dual_scaled_mul_add_matches_two_naive_loops() {
        for n in 0..13 {
            let a: Vec<f64> = (0..n).map(|i| 0.2 * i as f64 + 0.1).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 3.0)).collect();
            let mut o1: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut o2: Vec<f64> = (0..n).map(|i| -(i as f64)).collect();
            let (mut n1, mut n2) = (o1.clone(), o2.clone());
            dual_scaled_mul_add(&mut o1, &mut o2, &a, &b, 2.5);
            for i in 0..n {
                n1[i] += 2.5 * (a[i] * b[i]);
                n2[i] += 2.5 * (a[i] * b[i]);
            }
            assert_eq!(o1, n1, "n={n}");
            assert_eq!(o2, n2, "n={n}");
        }
    }

    #[test]
    fn scaled_mul_add_matches_naive_all_lengths() {
        for n in 0..13 {
            let a: Vec<f64> = (0..n).map(|i| 0.2 * i as f64 + 0.4).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 2.5)).collect();
            let mut fast: Vec<f64> = (0..n).map(|i| i as f64 * 0.3).collect();
            let mut naive = fast.clone();
            scaled_mul_add(&mut fast, &a, &b, 1.9);
            for i in 0..n {
                naive[i] += 1.9 * (a[i] * b[i]);
            }
            assert_eq!(fast, naive, "n={n}");
        }
    }

    #[test]
    fn dot_dual_update_matches_separate_kernels() {
        // Bitwise agreement with the unfused dot + dual sequence, for
        // the AVX2-specialized length 12 and for lengths around it.
        for n in [0usize, 3, 8, 10, 12, 16, 19] {
            let a: Vec<f64> = (0..n).map(|i| 0.15 * i as f64 + 0.2).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.25)).collect();
            for skip in [false, true] {
                let mut f1: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let mut f2: Vec<f64> = (0..n).map(|i| 1.5 - i as f64).collect();
                let (mut s1, mut s2) = (f1.clone(), f2.clone());
                let mut seen_fused = f64::NAN;
                dot_dual_update(&mut f1, &mut f2, &a, &b, |a_sum| {
                    seen_fused = a_sum;
                    if skip {
                        0.0
                    } else {
                        2.0 * a_sum
                    }
                });
                let a_sum = dot_unrolled(&a, &b);
                assert_eq!(seen_fused, a_sum, "n={n} a_sum");
                let k = if skip { 0.0 } else { 2.0 * a_sum };
                if k != 0.0 {
                    dual_scaled_mul_add(&mut s1, &mut s2, &a, &b, k);
                }
                assert_eq!(f1, s1, "n={n} skip={skip} out1");
                assert_eq!(f2, s2, "n={n} skip={skip} out2");
            }
        }
    }

    #[test]
    fn dot_unrolled_close_to_sequential() {
        for n in 0..13 {
            let a: Vec<f64> = (0..n).map(|i| 0.3 * i as f64 + 0.2).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.5)).collect();
            let seq = dot(&a, &b);
            let fast = dot_unrolled(&a, &b);
            assert!((seq - fast).abs() <= 1e-12 * seq.abs().max(1.0), "n={n}: {seq} vs {fast}");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx_kernels_bitwise_match_generic() {
        if !avx::available() {
            return;
        }
        for n in 0..35 {
            let a: Vec<f64> = (0..n).map(|i| (0.37 * i as f64 + 0.11).sin().abs() + 0.01).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + (0.53 * i as f64).cos().abs())).collect();
            let k = 0.731_f64;
            // SAFETY: AVX2 availability checked above; slices share lengths.
            unsafe {
                assert_eq!(avx::dot_unrolled(&a, &b), dot_unrolled_generic(&a, &b), "dot n={n}");

                let mut fast: Vec<f64> = (0..n).map(|i| 0.2 * i as f64 - 1.0).collect();
                let mut slow = fast.clone();
                avx::scaled_add(&mut fast, &a, k);
                scaled_add_generic(&mut slow, &a, k);
                assert_eq!(fast, slow, "scaled_add n={n}");

                let mut f1: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
                let mut f2: Vec<f64> = (0..n).map(|i| 2.0 - i as f64).collect();
                let (mut s1, mut s2) = (f1.clone(), f2.clone());
                avx::dual_scaled_mul_add(&mut f1, &mut f2, &a, &b, k);
                dual_scaled_mul_add_generic(&mut s1, &mut s2, &a, &b, k);
                assert_eq!(f1, s1, "dual out1 n={n}");
                assert_eq!(f2, s2, "dual out2 n={n}");

                let mut fast: Vec<f64> = (0..n).map(|i| 0.7 * i as f64).collect();
                let mut slow = fast.clone();
                avx::scaled_mul_add(&mut fast, &a, &b, k);
                scaled_mul_add_generic(&mut slow, &a, &b, k);
                assert_eq!(fast, slow, "scaled_mul_add n={n}");

                if n == 12 {
                    let mut f1: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
                    let mut f2: Vec<f64> = (0..n).map(|i| 3.0 - i as f64).collect();
                    let (mut s1, mut s2) = (f1.clone(), f2.clone());
                    let mut a_fast = f64::NAN;
                    avx::dot12_dual_update(&mut f1, &mut f2, &a, &b, |s| {
                        a_fast = s;
                        0.5 * s
                    });
                    let a_slow = dot_unrolled_generic(&a, &b);
                    assert_eq!(a_fast, a_slow, "dot12 a_sum");
                    dual_scaled_mul_add_generic(&mut s1, &mut s2, &a, &b, 0.5 * a_slow);
                    assert_eq!(f1, s1, "dot12 out1");
                    assert_eq!(f2, s2, "dot12 out2");
                }
            }
        }
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let r = pearson(&a, &b).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_anti_correlation() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        let r = pearson(&a, &b).unwrap();
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_is_none() {
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
        assert_eq!(pearson(&[1.0], &[1.0]), None);
    }

    #[test]
    fn empirical_cdf_monotone_and_bounded() {
        let samples = [0.1, 0.2, 0.2, 0.9];
        let (grid, cdf) = empirical_cdf(&samples, 11);
        assert_eq!(grid.len(), 11);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(*cdf.last().unwrap(), 1.0);
    }
}
