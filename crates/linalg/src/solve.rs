//! Dense linear solves — LU with partial pivoting (used by the DIIS
//! extrapolation in the SCF driver) and a blocked, threaded Cholesky
//! factorization whose trailing updates run on the [`gemm_acc`] kernel,
//! with forward substitution (used for the density-fitting metric
//! solve).

use crate::gemm::{gemm_acc, MR};
use crate::matrix::Mat;
use std::sync::Mutex;

/// Solve A·x = b by LU decomposition with partial pivoting.
/// Returns `None` if A is (numerically) singular.
pub fn solve(a: &Mat, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "solve requires a square matrix");
    assert_eq!(b.len(), n, "rhs length mismatch");
    let mut lu = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();

    for col in 0..n {
        // Pivot search.
        let (piv, mag) = (col..n)
            .map(|r| (r, lu[(r, col)].abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())?;
        if mag < 1e-13 {
            return None;
        }
        if piv != col {
            for j in 0..n {
                let t = lu[(col, j)];
                lu[(col, j)] = lu[(piv, j)];
                lu[(piv, j)] = t;
            }
            x.swap(col, piv);
            perm.swap(col, piv);
        }
        for r in (col + 1)..n {
            let f = lu[(r, col)] / lu[(col, col)];
            lu[(r, col)] = f;
            for j in (col + 1)..n {
                let v = f * lu[(col, j)];
                lu[(r, j)] -= v;
            }
            x[r] -= f * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        x[col] /= lu[(col, col)];
        for r in 0..col {
            let v = lu[(r, col)] * x[col];
            x[r] -= v;
        }
    }
    Some(x)
}

/// Columns of each Cholesky panel.
const PANEL: usize = 64;

/// Trailing updates with fewer multiply-adds than this run on the
/// caller's thread: below it, spawning a thread costs more than it saves.
const PAR_MIN_WORK: usize = 1 << 21;

/// Cholesky factorization `a = L·Lᵀ` of a symmetric positive-definite
/// matrix; returns the lower-triangular factor `L` (strict upper triangle
/// zeroed), or `None` if a pivot drops below `1e-13·max_diag` — the matrix
/// is not numerically SPD (e.g. a near-linearly-dependent DF metric), and
/// the caller should fall back to an eigendecomposition route. Only the
/// lower triangle of `a` is read. Runs on the host's cores.
///
/// Right-looking and blocked on `U = Lᵀ`, row-major, in one copy of `a`
/// that turns into `L` panel by panel, with no other heap scratch. Each
/// panel of [`PANEL`] rows of U is factored with row axpys and copied
/// below the diagonal as L's columns; the trailing rows then take the
/// panel's rank-[`PANEL`] update through [`gemm_acc`] with `alpha = −1`
/// on the upper triangle, in 4-row blocks claimed by scoped threads.
/// Every entry is still `a_ij` minus the terms `l_ik·l_jk` in ascending
/// k, then one division or square root (`c + (−x)·y` rounds exactly like
/// `c − x·y`), so `L` is bitwise the textbook triple loop's on any
/// thread count, and the first failing pivot is the same.
pub fn cholesky(a: &Mat) -> Option<Mat> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    cholesky_on(a.clone(), threads)
}

/// [`cholesky`] of `a`, in `a`'s own storage, on up to `threads` threads
/// (the calling thread included).
pub(crate) fn cholesky_on(mut a: Mat, threads: usize) -> Option<Mat> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "cholesky requires a square matrix");
    let max_diag = (0..n).map(|i| a[(i, i)].abs()).fold(0.0, f64::max);
    let tol = 1e-13 * max_diag.max(1e-300);
    let u = a.as_mut_slice();
    // U starts as the lower triangle mirrored up: u[j·n + i] = a_ij, j ≤ i.
    for i in 0..n {
        for j in 0..i {
            u[j * n + i] = u[i * n + j];
        }
    }
    for p0 in (0..n).step_by(PANEL) {
        let p1 = (p0 + PANEL).min(n);
        let nb = p1 - p0;
        let (done, trailing) = u.split_at_mut(p1 * n);
        let panel = &mut done[p0 * n..];
        for r in 0..nb {
            let i = p0 + r;
            let (above, row) = panel.split_at_mut(r * n);
            let row = &mut row[i..n];
            for urow in above.chunks_exact(n) {
                let f = urow[i];
                for (x, &y) in row.iter_mut().zip(&urow[i..]) {
                    *x -= y * f;
                }
            }
            if row[0] <= tol {
                return None;
            }
            let pivot = row[0].sqrt();
            row[0] = pivot;
            for x in &mut row[1..] {
                *x /= pivot;
            }
        }
        // The panel's columns of L below it: the trailing update's A
        // operand, and already L's final values.
        for (t, lrow) in trailing.chunks_exact_mut(n).enumerate() {
            for (x, urow) in lrow[p0..p1].iter_mut().zip(panel.chunks_exact(n)) {
                *x = urow[p1 + t];
            }
        }
        let panel: &[f64] = panel;
        let m = n - p1;
        let blocks = Mutex::new(trailing.chunks_mut(MR * n).enumerate());
        let worker = || loop {
            // let-else, not while-let: the guard must drop before the work.
            let Some((blk, c)) = blocks.lock().unwrap().next() else {
                break;
            };
            // The block's own L columns, copied out of the rows it updates.
            let mut a_blk = [0.0; MR * PANEL];
            for (dst, row) in a_blk.chunks_exact_mut(nb).zip(c.chunks_exact(n)) {
                dst.copy_from_slice(&row[p0..p1]);
            }
            let rows = c.len() / n;
            gemm_acc(
                -1.0,
                &a_blk[..rows * nb],
                panel,
                c,
                nb,
                n,
                Some(p1 + blk * MR),
            );
        };
        let spawn = if m * (m + 1) / 2 * nb < PAR_MIN_WORK {
            0
        } else {
            threads.saturating_sub(1).min(m.div_ceil(MR) - 1)
        };
        std::thread::scope(|s| {
            let helpers: Vec<_> = (0..spawn).map(|_| s.spawn(worker)).collect();
            worker();
            // Joined, not left to the scope, which detaches its threads:
            // the next panel's spawn then finds this thread's stack cached
            // instead of mapping a new one, whose TLS bookkeeping glibc
            // puts on the heap between the large buffers.
            for h in helpers {
                h.join().unwrap();
            }
        });
        // The panel's rows of U are spent: move their in-panel part below
        // the diagonal and zero the rest.
        let panel = &mut done[p0 * n..];
        for r in 0..nb {
            let (above, row) = panel.split_at_mut(r * n);
            for (k, urow) in above.chunks_exact_mut(n).enumerate() {
                row[p0 + k] = std::mem::take(&mut urow[p0 + r]);
            }
            row[p1..n].fill(0.0);
        }
    }
    Some(a)
}

/// Solve `L·X = B` in place for lower-triangular `L` (as from
/// [`cholesky`]), where `B` is `n × m` — forward substitution applied
/// across all `m` right-hand sides at once, row-major friendly. With
/// `J = L·Lᵀ` and `B = L⁻¹·A`, the Gram product `Bᵀ·B = Aᵀ·J⁻¹·A` — the
/// whitened form the DF J/K contractions consume.
pub fn forward_substitute(l: &Mat, b: &mut Mat) {
    let n = l.nrows();
    assert_eq!(n, l.ncols(), "forward_substitute needs square L");
    assert_eq!(b.nrows(), n, "rhs row count mismatch");
    let m = b.ncols();
    for i in 0..n {
        let (above, row_i) = b.as_mut_slice().split_at_mut(i * m);
        let row_i = &mut row_i[..m];
        for k in 0..i {
            let lik = l[(i, k)];
            if lik == 0.0 {
                continue;
            }
            let row_k = &above[k * m..(k + 1) * m];
            for (x, &bk) in row_i.iter_mut().zip(row_k) {
                *x -= lik * bk;
            }
        }
        let inv = 1.0 / l[(i, i)];
        for x in row_i.iter_mut() {
            *x *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;

    fn random(n: usize, seed: u64) -> Mat {
        let mut s = seed.wrapping_add(3);
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        Mat::from_vec(n, n, (0..n * n).map(|_| next()).collect())
    }

    #[test]
    fn solves_identity() {
        let b = vec![1.0, -2.0, 3.5];
        let x = solve(&Mat::identity(3), &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn residual_small_random() {
        for seed in 0..5u64 {
            let n = 8;
            let mut a = random(n, seed);
            // Diagonally dominate to guarantee non-singularity.
            for i in 0..n {
                a[(i, i)] += 5.0;
            }
            let b: Vec<f64> = (0..n).map(|i| (i as f64) - 2.0).collect();
            let x = solve(&a, &b).unwrap();
            let ax = gemm(1.0, &a, &Mat::from_vec(n, 1, x), 0.0, None);
            for i in 0..n {
                assert!((ax[(i, 0)] - b[i]).abs() < 1e-10, "seed {seed} row {i}");
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_returns_none() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(solve(&a, &[1.0, 1.0]).is_none());
    }

    fn random_spd(n: usize, seed: u64) -> Mat {
        let b = random(n, seed);
        let mut a = crate::gemm::gemm_tn(&b, &b);
        for i in 0..n {
            a[(i, i)] += 0.5;
        }
        a
    }

    #[test]
    fn cholesky_reconstructs_spd_matrix() {
        for seed in 0..4u64 {
            let n = 9;
            let a = random_spd(n, seed);
            let l = cholesky(&a).expect("SPD must factor");
            // Strict upper triangle is zero.
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(l[(i, j)], 0.0);
                }
            }
            let llt = gemm(1.0, &l, &l.transpose(), 0.0, None);
            assert!(llt.max_abs_diff(&a) < 1e-11, "seed {seed}");
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = Mat::identity(3);
        a[(2, 2)] = -1.0;
        assert!(cholesky(&a).is_none());
        // Rank-deficient (positive semi-definite) also fails.
        let b = Mat::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        assert!(cholesky(&b).is_none());
    }

    /// The textbook triple loop: each entry is `a_ij` minus the terms
    /// `l_ik·l_jk` in ascending k, then one square root or division.
    fn cholesky_reference(a: &Mat) -> Option<Mat> {
        let n = a.nrows();
        let max_diag = (0..n).map(|i| a[(i, i)].abs()).fold(0.0, f64::max);
        let tol = 1e-13 * max_diag.max(1e-300);
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= tol {
                        return None;
                    }
                    l[(i, i)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    #[test]
    fn blocked_cholesky_is_bitwise_the_triple_loop() {
        // Inside one panel, at its edge, one past it, and several panels
        // with a short last one; at 400 the first trailing updates reach
        // PAR_MIN_WORK and go threaded.
        for n in [1, 3, 63, PANEL, PANEL + 1, 2 * PANEL + 1, 300, 400] {
            let a = random_spd(n, n as u64);
            let want = cholesky_reference(&a).expect("SPD must factor");
            for threads in [1, 2, 3] {
                let got = cholesky_on(a.clone(), threads).expect("SPD must factor");
                assert_eq!(got.as_slice(), want.as_slice(), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn blocked_cholesky_fails_at_a_pivot_in_the_second_panel() {
        // A Gram matrix of 150 vectors in which vector 100 repeats vector
        // 10: the leading 100 × 100 block is SPD, pivot 100 is ~0.
        let n = 150;
        let mut v = random(n, 11);
        for k in 0..n {
            v[(k, 100)] = v[(k, 10)];
        }
        let a = crate::gemm::gemm_tn(&v, &v);
        let lead = |m: usize| {
            let mut out = Mat::zeros(m, m);
            for i in 0..m {
                for j in 0..m {
                    out[(i, j)] = a[(i, j)];
                }
            }
            out
        };
        assert!(cholesky_reference(&lead(100)).is_some());
        assert!(cholesky_reference(&lead(101)).is_none());
        for threads in [1, 2, 3] {
            assert!(
                cholesky_on(a.clone(), threads).is_none(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn forward_substitution_whitens() {
        // B = L⁻¹·A  ⇒  L·B = A, and Bᵀ·B = Aᵀ·J⁻¹·A.
        let n = 7;
        let m = 11;
        let j = random_spd(n, 5);
        let a = {
            let full = random(n.max(m), 8);
            let mut out = Mat::zeros(n, m);
            for i in 0..n {
                for k in 0..m {
                    out[(i, k)] = full[(i, k)];
                }
            }
            out
        };
        let l = cholesky(&j).unwrap();
        let mut b = a.clone();
        forward_substitute(&l, &mut b);
        let lb = gemm(1.0, &l, &b, 0.0, None);
        assert!(lb.max_abs_diff(&a) < 1e-12);
        // Gram identity against an explicit J⁻¹ via the LU solver.
        let mut jinv_a = Mat::zeros(n, m);
        for k in 0..m {
            let col: Vec<f64> = (0..n).map(|i| a[(i, k)]).collect();
            let x = solve(&j, &col).unwrap();
            for i in 0..n {
                jinv_a[(i, k)] = x[i];
            }
        }
        let gram = crate::gemm::gemm_tn(&b, &b);
        let want = crate::gemm::gemm_tn(&a, &jinv_a);
        assert!(gram.max_abs_diff(&want) < 1e-10);
    }
}
