//! Diagonalization-free density-matrix construction by purification.
//!
//! The paper (Section IV-E, Table IX) replaces the eigensolve of
//! Algorithm 1 with *canonical purification* [Palser & Manolopoulos 1998]:
//! an iteration of matrix multiplies and traces that converges to the
//! spectral projector onto the lowest `nocc` eigenvectors of the
//! (orthogonalized) Fock matrix. Each iteration costs two matrix multiplies
//! — exactly the cost profile the paper times with SUMMA.
//!
//! All matrices here live in the *orthonormal* basis: the caller passes
//! F' = Xᵀ F X and receives D' with D = X D' Xᵀ (idempotent, trace nocc;
//! the physical density is 2D for closed shells).

use crate::gemm::gemm;
use crate::matrix::Mat;

/// Result of a purification run.
pub struct Purification {
    /// The idempotent projector (trace = nocc) in the orthonormal basis.
    pub density: Mat,
    /// Iterations taken.
    pub iterations: usize,
    /// Final idempotency error ‖D² − D‖_max.
    pub idempotency_error: f64,
}

/// Canonical (trace-preserving) purification of Palser–Manolopoulos.
///
/// `f_ortho` — Fock matrix in an orthonormal basis; `nocc` — number of
/// occupied orbitals; `tol` — convergence threshold on tr(D − D²);
/// `max_iter` — iteration cap (the paper observed ≈45 iterations on its
/// test case).
///
/// In exact arithmetic tr(D − D²) = Σ λ(1−λ) falls at every step until D is
/// idempotent, but it is computed as the difference of two traces of size
/// `nocc` and so cannot resolve below ~`n`·`nocc`·ε. A `tol` near that
/// floor (the SCF driver's 1e-14) is met or missed by rounding alone, and
/// past the floor c is a ratio of two rounding errors. The iteration
/// therefore also stops as soon as the measured error fails to decrease:
/// that can only be the floor.
pub fn purify_canonical(f_ortho: &Mat, nocc: usize, tol: f64, max_iter: usize) -> Purification {
    let n = f_ortho.nrows();
    assert_eq!(n, f_ortho.ncols());
    assert!(nocc > 0 && nocc <= n, "nocc {nocc} out of range for n={n}");

    // Gershgorin bounds on the spectrum of F'.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let mut radius = 0.0;
        for j in 0..n {
            if i != j {
                radius += f_ortho[(i, j)].abs();
            }
        }
        lo = lo.min(f_ortho[(i, i)] - radius);
        hi = hi.max(f_ortho[(i, i)] + radius);
    }
    let ne = nocc as f64;
    let nf = n as f64;
    let mu = f_ortho.trace() / nf;
    // Initial guess: D0 = (λ/n)(μI − F) + (ne/n) I, with λ chosen so the
    // spectrum of D0 lies in [0, 1] while tr(D0) = ne.
    let lambda = if (hi - mu).abs() < 1e-300 || (mu - lo).abs() < 1e-300 {
        1.0
    } else {
        (ne / (hi - mu)).min((nf - ne) / (mu - lo))
    };
    let mut d = Mat::identity(n);
    d.scale(ne / nf + lambda * mu / nf);
    d.axpy(-lambda / nf, f_ortho);

    let mut iterations = 0;
    let mut prev_err = f64::INFINITY;
    for _ in 0..max_iter {
        iterations += 1;
        let d2 = gemm(1.0, &d, &d, 0.0, None);
        let d3 = gemm(1.0, &d2, &d, 0.0, None);
        let tr_d_d2 = d.trace() - d2.trace();
        let tr_d2_d3 = d2.trace() - d3.trace();
        let err = tr_d_d2.abs();
        if err < tol || err >= prev_err {
            break;
        }
        prev_err = err;
        let c = tr_d2_d3 / tr_d_d2;
        let mut next;
        if c >= 0.5 {
            // D ← ((1+c) D² − D³) / c
            next = d2.clone();
            next.scale(1.0 + c);
            next.axpy(-1.0, &d3);
            next.scale(1.0 / c);
        } else {
            // D ← ((1−2c) D + (1+c) D² − D³) / (1−c)
            next = d.clone();
            next.scale(1.0 - 2.0 * c);
            let mut t = d2.clone();
            t.scale(1.0 + c);
            next.axpy(1.0, &t);
            next.axpy(-1.0, &d3);
            next.scale(1.0 / (1.0 - c));
        }
        d = next;
    }
    let d2 = gemm(1.0, &d, &d, 0.0, None);
    let idem = d2.max_abs_diff(&d);
    Purification {
        density: d,
        iterations,
        idempotency_error: idem,
    }
}

/// SP2 purification [Niklasson 2002]: trace-correcting second-order
/// spectral projection. Each iteration costs *one* matrix multiply
/// (vs. two for canonical purification): D ← D² when the trace is above
/// nocc, D ← 2D − D² when below. Converges to the same projector; used
/// as the purification ablation in the Table IX experiment.
pub fn purify_sp2(f_ortho: &Mat, nocc: usize, tol: f64, max_iter: usize) -> Purification {
    let n = f_ortho.nrows();
    assert_eq!(n, f_ortho.ncols());
    assert!(nocc > 0 && nocc <= n, "nocc {nocc} out of range for n={n}");

    // Gershgorin bounds, then the linear map D0 = (hi·I − F)/(hi − lo)
    // placing the spectrum in [0, 1] with occupied states near 1.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let mut radius = 0.0;
        for j in 0..n {
            if i != j {
                radius += f_ortho[(i, j)].abs();
            }
        }
        lo = lo.min(f_ortho[(i, i)] - radius);
        hi = hi.max(f_ortho[(i, i)] + radius);
    }
    let span = (hi - lo).max(1e-300);
    let mut d = Mat::identity(n);
    d.scale(hi / span);
    d.axpy(-1.0 / span, f_ortho);

    let ne = nocc as f64;
    let mut iterations = 0;
    for _ in 0..max_iter {
        iterations += 1;
        let d2 = gemm(1.0, &d, &d, 0.0, None);
        let tr_err = d.trace() - d2.trace(); // = tr(D − D²) ≥ 0
        if tr_err.abs() < tol {
            break;
        }
        if d.trace() - ne > 0.0 {
            // Too many electrons: D² shrinks every eigenvalue below 1.
            d = d2;
        } else {
            // Too few: 2D − D² grows eigenvalues toward 1.
            let mut next = d.clone();
            next.scale(2.0);
            next.axpy(-1.0, &d2);
            d = next;
        }
    }
    let d2 = gemm(1.0, &d, &d, 0.0, None);
    let idem = d2.max_abs_diff(&d);
    Purification {
        density: d,
        iterations,
        idempotency_error: idem,
    }
}

/// One McWeeny refinement step: D ← 3D² − 2D³. Contracts idempotency error
/// quadratically for a nearly idempotent D.
pub fn mcweeny_step(d: &Mat) -> Mat {
    let d2 = gemm(1.0, d, d, 0.0, None);
    let d3 = gemm(1.0, &d2, d, 0.0, None);
    let mut out = d2;
    out.scale(3.0);
    out.axpy(-2.0, &d3);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::sym_eig;
    use crate::gemm::gemm_nt;

    fn random_sym(n: usize, seed: u64) -> Mat {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// Reference projector from the eigendecomposition.
    fn projector(f: &Mat, nocc: usize) -> Mat {
        let e = sym_eig(f);
        let n = f.nrows();
        let mut occ = Mat::zeros(n, nocc);
        for j in 0..nocc {
            for i in 0..n {
                occ[(i, j)] = e.vectors[(i, j)];
            }
        }
        gemm_nt(&occ, &occ)
    }

    #[test]
    fn converges_to_spectral_projector() {
        for (n, nocc, seed) in [(8usize, 3usize, 1u64), (15, 7, 2), (20, 5, 3)] {
            let f = random_sym(n, seed);
            let p = purify_canonical(&f, nocc, 1e-13, 200);
            let want = projector(&f, nocc);
            assert!(
                p.density.max_abs_diff(&want) < 1e-6,
                "n={n} nocc={nocc}: diff {}",
                p.density.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn trace_equals_nocc() {
        let f = random_sym(12, 5);
        let p = purify_canonical(&f, 4, 1e-12, 200);
        assert!(
            (p.density.trace() - 4.0).abs() < 1e-8,
            "trace {}",
            p.density.trace()
        );
    }

    #[test]
    fn idempotent_at_convergence() {
        let f = random_sym(10, 6);
        let p = purify_canonical(&f, 3, 1e-13, 300);
        assert!(
            p.idempotency_error < 1e-6,
            "idempotency {}",
            p.idempotency_error
        );
    }

    #[test]
    fn commutes_with_fock() {
        // [D, F] = 0 at convergence.
        let f = random_sym(9, 8);
        let p = purify_canonical(&f, 4, 1e-13, 300);
        let df = gemm(1.0, &p.density, &f, 0.0, None);
        let fd = gemm(1.0, &f, &p.density, 0.0, None);
        assert!(df.max_abs_diff(&fd) < 1e-6);
    }

    #[test]
    fn sp2_matches_canonical_projector() {
        for (n, nocc, seed) in [(8usize, 3usize, 11u64), (14, 6, 12)] {
            let f = random_sym(n, seed);
            let sp2 = purify_sp2(&f, nocc, 1e-13, 400);
            let want = projector(&f, nocc);
            assert!(
                sp2.density.max_abs_diff(&want) < 1e-5,
                "n={n}: diff {}",
                sp2.density.max_abs_diff(&want)
            );
            assert!((sp2.density.trace() - nocc as f64).abs() < 1e-5);
        }
    }

    #[test]
    fn sp2_trace_converges_from_both_sides() {
        // Whatever the initial trace error sign, SP2 must land on nocc.
        let f = random_sym(10, 21);
        for nocc in [2usize, 5, 8] {
            let p = purify_sp2(&f, nocc, 1e-13, 400);
            assert!(
                (p.density.trace() - nocc as f64).abs() < 1e-5,
                "nocc={nocc}: trace {}",
                p.density.trace()
            );
        }
    }

    #[test]
    fn mcweeny_contracts_error() {
        let f = random_sym(10, 9);
        let p = purify_canonical(&f, 4, 1e-4, 100); // deliberately loose
        let refined = mcweeny_step(&p.density);
        let d2 = gemm(1.0, &refined, &refined, 0.0, None);
        assert!(d2.max_abs_diff(&refined) <= p.idempotency_error);
    }

    #[test]
    fn tolerance_at_the_rounding_floor_stops_by_stagnation() {
        // Regression: with tol = 1e-14 (the SCF driver's) the stopping test
        // sat on the rounding floor of tr(D) − tr(D²); inputs agreeing to
        // 1e-12 took anything from ~20 iterations to the cap. (n, nocc, seed)
        // are cases that ran to 200 before the stagnation stop.
        for (n, nocc, seed) in [
            (41usize, 11usize, 3u64),
            (62, 20, 6),
            (58, 15, 14),
            (78, 26, 34),
        ] {
            let f = random_sym(n, seed);
            let mut g = f.clone();
            for i in 0..n {
                for j in 0..n {
                    g[(i, j)] += 1e-12 * f[(j, i)] * f[(i, j)];
                }
            }
            let (pf, pg) = (
                purify_canonical(&f, nocc, 1e-14, 200),
                purify_canonical(&g, nocc, 1e-14, 200),
            );
            assert!(
                pf.iterations.abs_diff(pg.iterations) <= 2,
                "n={n}: {} vs {} iterations",
                pf.iterations,
                pg.iterations
            );
            for p in [&pf, &pg] {
                assert!(p.iterations < 200, "n={n}: hit the cap");
                assert!(
                    p.idempotency_error < 1e-10,
                    "n={n}: {}",
                    p.idempotency_error
                );
                assert!((p.density.trace() - nocc as f64).abs() < 1e-10);
            }
            assert!(pf.density.max_abs_diff(&projector(&f, nocc)) < 1e-8);
        }
    }

    #[test]
    fn iteration_count_reported() {
        let f = random_sym(10, 10);
        let p = purify_canonical(&f, 5, 1e-12, 200);
        assert!(p.iterations > 1 && p.iterations <= 200);
    }
}
