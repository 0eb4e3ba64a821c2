//! The Boys function F_m(T) = ∫₀¹ t^{2m} exp(−T t²) dt, the radial kernel of
//! every Coulomb-type Gaussian integral.
//!
//! Evaluation strategy (standard in integral codes):
//! * tiny T — Taylor limit F_m(0) = 1/(2m+1);
//! * small/moderate T — convergent series for F_{m_max} followed by stable
//!   downward recursion F_m = (2T·F_{m+1} + e^{−T}) / (2m+1);
//! * large T — asymptotic F_0 = ½√(π/T) with upward recursion
//!   F_{m+1} = ((2m+1)·F_m − e^{−T}) / (2T), stable because e^{−T} ≈ 0.
//!
//! [`boys`] (above strategy) is the reference, and what the reference ERI
//! kernel `EriEngine::quartet_ref` calls; the series loop runs O(T)
//! iterations, which dominates deep-contraction ERI classes. [`boys_fast`]
//! (one argument: the one-electron integrals) and [`boys_fast_batch`] (a
//! lane array: the batched ERI kernel) share one row evaluator that
//! replaces the small/moderate branch with a precomputed grid (spacing
//! 1/16) and an 8-term Taylor expansion
//! F_m(T₀+δ) = Σ_k F_{m+k}(T₀)(−δ)^k/k! — error ≤ (Δ/2)⁸/8! ≈ 2e-17,
//! far below the 1e-12 per-integral agreement the ERI paths guarantee.

/// Threshold above which the asymptotic branch is used.
const T_LARGE: f64 = 35.0;
const T_TINY: f64 = 1e-13;

/// Fill `out[0..=m_max]` with F_m(t). `out` must have length `m_max + 1`.
pub fn boys(m_max: usize, t: f64, out: &mut [f64]) {
    assert!(out.len() > m_max, "output buffer too small");
    assert!(t >= 0.0, "Boys argument must be non-negative");
    if t < T_TINY {
        for (m, o) in out.iter_mut().enumerate().take(m_max + 1) {
            *o = 1.0 / (2 * m + 1) as f64;
        }
        return;
    }
    let emt = (-t).exp();
    if t > T_LARGE {
        out[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
        for m in 0..m_max {
            out[m + 1] = ((2 * m + 1) as f64 * out[m] - emt) / (2.0 * t);
        }
        return;
    }
    // Series at the top order: F_m(t) = e^{-t} Σ_i (2t)^i (2m-1)!!/(2m+2i+1)!!.
    let mut term = 1.0 / (2 * m_max + 1) as f64;
    let mut sum = term;
    let mut i = 0usize;
    loop {
        term *= 2.0 * t / (2 * m_max + 2 * i + 3) as f64;
        sum += term;
        i += 1;
        if term < sum * 1e-17 || i > 300 {
            break;
        }
    }
    out[m_max] = emt * sum;
    for m in (0..m_max).rev() {
        out[m] = (2.0 * t * out[m + 1] + emt) / (2 * m + 1) as f64;
    }
}

/// Single-order convenience wrapper (used by tests and the cost model).
pub fn boys_single(m: usize, t: f64) -> f64 {
    let mut buf = vec![0.0; m + 1];
    boys(m, t, &mut buf);
    buf[m]
}

/// Grid spacing of the tabulated fast path (a power of two, so grid
/// points and offsets are exact in binary floating point).
const STEP: f64 = 1.0 / 16.0;
/// Grid points cover [0, T_LARGE] inclusive (δ never exceeds STEP/2).
const NGRID: usize = (35.0 / STEP) as usize + 1;
/// Taylor terms kept: error ≤ (STEP/2)^8 / 8! ≈ 2.3e-17.
const NTERMS: usize = 8;
/// Highest order servable from the table (dddd quartets need m = 8).
pub const BOYS_TABLE_MAX_M: usize = 8;
/// Orders stored per grid point: m + k reaches BOYS_TABLE_MAX_M + NTERMS − 1.
const NORDERS: usize = BOYS_TABLE_MAX_M + NTERMS;

/// 1/k for k = 1..NTERMS−1: the nested Taylor form below multiplies the
/// offset by these once per argument.
const INV_K: [f64; NTERMS - 1] = [
    1.0,
    1.0 / 2.0,
    1.0 / 3.0,
    1.0 / 4.0,
    1.0 / 5.0,
    1.0 / 6.0,
    1.0 / 7.0,
];

fn boys_table() -> &'static [f64] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        // Seed every grid point with the reference series evaluation.
        let mut table = vec![0.0; NGRID * NORDERS];
        let mut buf = vec![0.0; NORDERS];
        for (i, row) in table.chunks_exact_mut(NORDERS).enumerate() {
            boys(NORDERS - 1, i as f64 * STEP, &mut buf);
            row.copy_from_slice(&buf);
        }
        table
    })
}

/// Tabulated Boys evaluation — same contract as [`boys`]. Falls back to
/// the reference for orders beyond the table and shares the reference's
/// asymptotic branch verbatim above T_LARGE.
pub fn boys_fast(m_max: usize, t: f64, out: &mut [f64]) {
    if m_max > BOYS_TABLE_MAX_M {
        return boys(m_max, t, out);
    }
    // Same hard contract as `boys`: a negative T would otherwise saturate
    // the grid-index cast below to 0 in release builds and silently return
    // F_m(≈0) — the reference panics, so the fast path must too.
    assert!(out.len() > m_max, "output buffer too small");
    assert!(t >= 0.0, "Boys argument must be non-negative");
    boys_fast_row(boys_table(), t, &mut out[..=m_max]);
}

/// F_0..F_{row.len()−1}(t) for a checked t ≥ 0 and at most
/// BOYS_TABLE_MAX_M + 1 orders.
#[inline(always)]
fn boys_fast_row(table: &[f64], t: f64, out: &mut [f64]) {
    if t > T_LARGE {
        let emt = (-t).exp();
        out[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
        for m in 0..out.len() - 1 {
            out[m + 1] = ((2 * m + 1) as f64 * out[m] - emt) / (2.0 * t);
        }
        return;
    }
    let i = (t * (1.0 / STEP) + 0.5) as usize;
    let x = (i as f64 * STEP) - t; // −δ, |δ| ≤ STEP/2
    let row = &table[i * NORDERS..(i + 1) * NORDERS];
    // Σ_k F_{m+k}(T₀)·x^k/k! nested as F_m + x/1·(F_{m+1} + x/2·(F_{m+2} + …)):
    // the scaled offsets x/k are shared by every order.
    let xk: [f64; NTERMS - 1] = std::array::from_fn(|k| x * INV_K[k]);
    for (m, o) in out.iter_mut().enumerate() {
        let taylor = &row[m..m + NTERMS];
        let mut s = taylor[NTERMS - 1];
        for k in (0..NTERMS - 1).rev() {
            s = s * xk[k] + taylor[k];
        }
        *o = s;
    }
}

/// Batched [`boys_fast`]: fill `out[lane·(m_max+1) .. (lane+1)·(m_max+1)]`
/// with `F_0..F_{m_max}(ts[lane])` for every lane. The batched ERI kernels
/// gather each class chunk's T arguments into one contiguous array
/// (SoA pass 1) and evaluate them here in a single sweep, so the table
/// rows stream through cache instead of being re-fetched per primitive
/// quartet deep inside the contraction loops. Same contract as
/// [`boys_fast`], checked once for the whole array.
pub fn boys_fast_batch(m_max: usize, ts: &[f64], out: &mut [f64]) {
    let stride = m_max + 1;
    assert!(out.len() >= ts.len() * stride, "output buffer too small");
    if m_max > BOYS_TABLE_MAX_M {
        for (row, &t) in out.chunks_exact_mut(stride).zip(ts) {
            boys(m_max, t, row);
        }
        return;
    }
    assert!(
        ts.iter().all(|&t| t >= 0.0),
        "Boys argument must be non-negative"
    );
    let table = boys_table();
    for (row, &t) in out.chunks_exact_mut(stride).zip(ts) {
        boys_fast_row(table, t, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference by adaptive Simpson quadrature of the defining integral.
    fn boys_quadrature(m: usize, t: f64) -> f64 {
        let f = |x: f64| x.powi(2 * m as i32) * (-t * x * x).exp();
        let n = 20_000;
        let h = 1.0 / n as f64;
        let mut s = f(0.0) + f(1.0);
        for i in 1..n {
            let x = i as f64 * h;
            s += if i % 2 == 1 { 4.0 * f(x) } else { 2.0 * f(x) };
        }
        s * h / 3.0
    }

    #[test]
    fn f0_closed_form() {
        // F_0(t) = sqrt(pi/t)/2 * erf(sqrt(t)); spot check vs quadrature.
        for &t in &[0.1, 0.5, 1.0, 5.0, 20.0, 34.9, 35.1, 100.0] {
            let got = boys_single(0, t);
            let want = boys_quadrature(0, t);
            assert!((got - want).abs() < 1e-10, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn higher_orders_match_quadrature() {
        for &t in &[0.0, 1e-14, 0.2, 2.0, 12.0, 30.0, 40.0, 80.0] {
            for m in 0..=8 {
                let got = boys_single(m, t);
                let want = boys_quadrature(m, t);
                assert!(
                    (got - want).abs() < 1e-9 * want.max(1e-3),
                    "m={m} t={t}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn zero_argument_limit() {
        let mut out = [0.0; 5];
        boys(4, 0.0, &mut out);
        for (m, &v) in out.iter().enumerate() {
            assert!((v - 1.0 / (2 * m + 1) as f64).abs() < 1e-15);
        }
    }

    #[test]
    fn recurrence_holds_across_branches() {
        // F_{m+1} must satisfy 2t F_{m+1} = (2m+1) F_m - e^{-t} everywhere,
        // including at the branch switch point.
        for &t in &[0.5, 10.0, 34.999, 35.001, 60.0] {
            let mut out = [0.0; 9];
            boys(8, t, &mut out);
            for m in 0..8 {
                let lhs = 2.0 * t * out[m + 1];
                let rhs = (2 * m + 1) as f64 * out[m] - (-t).exp();
                assert!((lhs - rhs).abs() < 1e-12 * (1.0 + lhs.abs()), "m={m} t={t}");
            }
        }
    }

    #[test]
    fn monotone_decreasing_in_m_and_t() {
        let mut lo = [0.0; 7];
        let mut hi = [0.0; 7];
        boys(6, 3.0, &mut lo);
        boys(6, 4.0, &mut hi);
        for m in 0..6 {
            assert!(lo[m + 1] < lo[m], "decreasing in m");
            assert!(hi[m] < lo[m], "decreasing in t");
        }
    }

    #[test]
    fn fast_path_matches_reference_everywhere() {
        // Dense sweep over the table range plus the asymptotic branch and
        // both sides of every interesting boundary.
        let mut tref = [0.0; BOYS_TABLE_MAX_M + 1];
        let mut tfast = [0.0; BOYS_TABLE_MAX_M + 1];
        let mut worst = 0.0f64;
        let mut sweep = |t: f64| {
            boys(BOYS_TABLE_MAX_M, t, &mut tref);
            boys_fast(BOYS_TABLE_MAX_M, t, &mut tfast);
            for m in 0..=BOYS_TABLE_MAX_M {
                let d = (tref[m] - tfast[m]).abs() / tref[m].max(1e-300);
                worst = worst.max(d);
                assert!(d < 1e-13, "m={m} t={t}: {} vs {}", tref[m], tfast[m]);
            }
        };
        let mut t = 0.0;
        while t < 40.0 {
            sweep(t);
            t += 0.0137;
        }
        for t in [0.0, 1e-14, 1.0 / 32.0, 34.999, 35.0, 35.001, 500.0] {
            sweep(t);
        }
        assert!(worst < 1e-13, "worst rel diff {worst:e}");
    }

    #[test]
    fn tabulated_edges_grid_boundaries_and_switchover() {
        // The tabulated path has two kinds of edges: (a) the rounding
        // boundary between adjacent grid cells, where T sits exactly
        // halfway (δ = ±STEP/2, the Taylor remainder's maximum) or exactly
        // on a grid point (δ = 0), and (b) the T_LARGE switchover to the
        // asymptotic branch. Sweep T across both against the reference
        // series with the tightest tolerance the 8-term expansion admits.
        let mut tref = [0.0; BOYS_TABLE_MAX_M + 1];
        let mut tfast = [0.0; BOYS_TABLE_MAX_M + 1];
        let mut ts: Vec<f64> = Vec::new();
        // Every grid point in [0, T_LARGE], its cell midpoints, and
        // one-ulp-scale nudges off each — the rounding in boys_fast must
        // pick a cell whose |δ| ≤ STEP/2 for all of them.
        for i in 0..NGRID {
            let t0 = i as f64 * STEP;
            for d in [
                0.0,
                1e-12,
                -1e-12,
                STEP / 2.0 - 1e-12,
                -(STEP / 2.0 - 1e-12),
            ] {
                let t = t0 + d;
                if (0.0..=T_LARGE).contains(&t) {
                    ts.push(t);
                }
            }
        }
        // The large-T switchover, from both sides and beyond.
        for t in [
            T_LARGE - STEP,
            T_LARGE - 1e-9,
            T_LARGE,
            T_LARGE + 1e-9,
            T_LARGE + STEP,
            50.0,
            100.0,
            1e4,
        ] {
            ts.push(t);
        }
        let mut worst = 0.0f64;
        for &t in &ts {
            boys(BOYS_TABLE_MAX_M, t, &mut tref);
            boys_fast(BOYS_TABLE_MAX_M, t, &mut tfast);
            for m in 0..=BOYS_TABLE_MAX_M {
                let d = (tref[m] - tfast[m]).abs() / tref[m].max(1e-300);
                worst = worst.max(d);
                assert!(d < 1e-13, "m={m} t={t:.17e}: {} vs {}", tref[m], tfast[m]);
            }
        }
        assert!(worst < 1e-13, "worst rel diff {worst:e}");
    }

    #[test]
    fn batch_matches_scalar_fast_path() {
        let ts: Vec<f64> = (0..200)
            .map(|k| 0.017 * (k as f64) * (k as f64) % 60.0)
            .collect();
        let m_max = 6;
        let mut batched = vec![0.0; ts.len() * (m_max + 1)];
        boys_fast_batch(m_max, &ts, &mut batched);
        let mut row = vec![0.0; m_max + 1];
        for (lane, &t) in ts.iter().enumerate() {
            boys_fast(m_max, t, &mut row);
            assert_eq!(
                &batched[lane * (m_max + 1)..(lane + 1) * (m_max + 1)],
                &row[..]
            );
        }
    }

    #[test]
    fn fast_path_beyond_table_falls_back() {
        let mut a = [0.0; 14];
        let mut b = [0.0; 14];
        boys(13, 7.3, &mut a);
        boys_fast(13, 7.3, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "Boys argument must be non-negative")]
    fn reference_rejects_negative_argument() {
        let mut out = [0.0; 3];
        boys(2, -1.0e-3, &mut out);
    }

    #[test]
    #[should_panic(expected = "Boys argument must be non-negative")]
    fn fast_path_rejects_negative_argument() {
        // Regression: the fast path used to debug_assert only, so in release
        // a negative T hit the grid-index cast (saturating to 0) and
        // returned F_m(≈0) silently instead of matching `boys`'s panic.
        let mut out = [0.0; 3];
        boys_fast(2, -1.0e-3, &mut out);
    }

    #[test]
    #[should_panic(expected = "Boys argument must be non-negative")]
    fn fast_path_fallback_rejects_negative_argument() {
        // Orders beyond the table route through the reference; the contract
        // must be identical on that branch too.
        let mut out = [0.0; BOYS_TABLE_MAX_M + 2];
        boys_fast(BOYS_TABLE_MAX_M + 1, -0.5, &mut out);
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn fast_path_rejects_short_buffer() {
        let mut out = [0.0; 2];
        boys_fast(2, 1.0, &mut out);
    }

    #[test]
    fn all_values_positive() {
        for &t in &[0.0, 1.0, 34.0, 36.0, 500.0] {
            let mut out = [0.0; 13];
            boys(12, t, &mut out);
            assert!(out.iter().all(|&v| v > 0.0), "t={t}: {out:?}");
        }
    }
}
