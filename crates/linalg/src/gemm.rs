//! Dense matrix multiply: one serial, register-blocked kernel
//! ([`gemm_acc`]) and the `Mat`-level [`gemm`] that runs it over
//! rayon-parallel row blocks.

use crate::matrix::Mat;
use rayon::prelude::*;

/// Rows of C the kernel updates per pass over B's rows.
pub(crate) const MR: usize = 4;
/// Columns of C held in registers per tile.
const NR: usize = 4;

/// C = alpha·A·B + beta·C. When `c` is `None`, a zero matrix is used
/// (and `beta` ignored). Returns the result.
///
/// Rows of C are split into [`gemm_acc`] blocks of four, parallelized
/// across the rayon pool; each element is summed in ascending k.
pub fn gemm(alpha: f64, a: &Mat, b: &Mat, beta: f64, c: Option<&Mat>) -> Mat {
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    let mut out = match c {
        Some(c0) => {
            assert_eq!((c0.nrows(), c0.ncols()), (m, n), "C shape mismatch");
            let mut o = c0.clone();
            o.scale(beta);
            o
        }
        None => Mat::zeros(m, n),
    };
    if m == 0 || n == 0 {
        return out;
    }
    let (as_, bs) = (a.as_slice(), b.as_slice());
    out.as_mut_slice()
        .par_chunks_mut(MR * n)
        .enumerate()
        .for_each(|(blk, cblk)| {
            let rows = &as_[blk * MR * k..blk * MR * k + cblk.len() / n * k];
            gemm_acc(alpha, rows, bs, cblk, k, n, None);
        });
    out
}

/// The serial kernel: `c += alpha·a·b` for row-major `a` (m × k),
/// `b` (k × n) and `c` (m × n), with m = `c.len() / n`. Every element is
/// its value in `c` plus the terms `(alpha·a_ik)·b_kj` added in ascending
/// k, so the result does not depend on the blocking.
///
/// C is formed in 4 × 4 register tiles: each pass over B's rows feeds
/// four rows of C. With `upper = Some(d)`, only the tiles at or right of
/// column `i0 + d` are formed for the row block starting at row `i0`:
/// the upper triangle of a symmetric product whose C starts at row `d`
/// of the full matrix, plus a few entries below the diagonal that the
/// caller ignores or overwrites when it mirrors.
pub fn gemm_acc(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    k: usize,
    n: usize,
    upper: Option<usize>,
) {
    assert_eq!(b.len(), k * n, "B shape mismatch");
    if n == 0 {
        return;
    }
    let m = c.len() / n;
    assert_eq!(c.len(), m * n, "C shape mismatch");
    assert_eq!(a.len(), m * k, "A shape mismatch");
    for (blk, cblk) in c.chunks_mut(MR * n).enumerate() {
        let i0 = blk * MR;
        let rows = cblk.len() / n;
        // A short last block re-reads its last row of A for the missing
        // rows; those rows of the tile are never stored.
        let arow = |r: usize| {
            let i = i0 + r.min(rows - 1);
            &a[i * k..(i + 1) * k]
        };
        let ablk = [arow(0), arow(1), arow(2), arow(3)];
        let mut j0 = upper.map_or(0, |d| (i0 + d).min(n));
        while j0 + NR <= n {
            tile::<NR>(alpha, &ablk, b, cblk, n, j0, rows);
            j0 += NR;
        }
        match n - j0 {
            1 => tile::<1>(alpha, &ablk, b, cblk, n, j0, rows),
            2 => tile::<2>(alpha, &ablk, b, cblk, n, j0, rows),
            3 => tile::<3>(alpha, &ablk, b, cblk, n, j0, rows),
            _ => {}
        }
    }
}

/// One `MR × W` tile of C at column `j0`, held in registers across the
/// whole k loop. `c` holds the block's `rows` rows.
#[inline(always)]
fn tile<const W: usize>(
    alpha: f64,
    a: &[&[f64]; MR],
    b: &[f64],
    c: &mut [f64],
    n: usize,
    j0: usize,
    rows: usize,
) {
    let mut acc = [[0.0; W]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
        acc_r.copy_from_slice(&c[r * n + j0..r * n + j0 + W]);
    }
    let steps = b.chunks_exact(n).zip(a[0]).zip(a[1]).zip(a[2]).zip(a[3]);
    for ((((brow, &a0), &a1), &a2), &a3) in steps {
        let bv: &[f64; W] = brow[j0..j0 + W].try_into().unwrap();
        for (acc_r, ar) in acc.iter_mut().zip([a0, a1, a2, a3]) {
            let v = alpha * ar;
            for (x, &bj) in acc_r.iter_mut().zip(bv) {
                *x += v * bj;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(rows) {
        c[r * n + j0..r * n + j0 + W].copy_from_slice(acc_r);
    }
}

/// Convenience: Aᵀ·B.
pub fn gemm_tn(a: &Mat, b: &Mat) -> Mat {
    gemm(1.0, &a.transpose(), b, 0.0, None)
}

/// Convenience: A·Bᵀ.
pub fn gemm_nt(a: &Mat, b: &Mat) -> Mat {
    gemm(1.0, a, &b.transpose(), 0.0, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Mat, b: &Mat) -> Mat {
        let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
        let mut c = Mat::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[(i, kk)] * b[(kk, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn random(m: usize, n: usize, seed: u64) -> Mat {
        // Tiny deterministic LCG; no rand dependency needed here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        Mat::from_vec(m, n, (0..m * n).map(|_| next()).collect())
    }

    #[test]
    fn matches_naive() {
        let a = random(17, 9, 1);
        let b = random(9, 23, 2);
        let got = gemm(1.0, &a, &b, 0.0, None);
        assert!(got.max_abs_diff(&naive(&a, &b)) < 1e-12);
    }

    #[test]
    fn unit_alpha_is_bitwise_the_ascending_k_sum() {
        // Shapes that leave short row blocks and short column tiles.
        for (m, k, n) in [(1, 1, 1), (5, 3, 7), (7, 13, 5), (13, 6, 13), (4, 0, 9)] {
            let a = random(m, k, m as u64);
            let b = random(k, n, n as u64 + 50);
            let got = gemm(1.0, &a, &b, 0.0, None);
            assert_eq!(got.as_slice(), naive(&a, &b).as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn upper_tiles_match_the_full_product_on_and_above_the_diagonal() {
        for n in [1, 5, 7, 13] {
            let a = random(n, n, 60 + n as u64);
            let b = random(n, n, 70 + n as u64);
            let full = gemm(1.0, &a, &b, 0.0, None);
            let mut upper = vec![0.0; n * n];
            gemm_acc(1.0, a.as_slice(), b.as_slice(), &mut upper, n, n, Some(0));
            for i in 0..n {
                for j in i..n {
                    assert_eq!(upper[i * n + j], full[(i, j)], "n={n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = random(6, 6, 3);
        let b = random(6, 6, 4);
        let c = random(6, 6, 5);
        let got = gemm(2.0, &a, &b, 0.5, Some(&c));
        let mut want = naive(&a, &b);
        want.scale(2.0);
        let mut c2 = c.clone();
        c2.scale(0.5);
        want.axpy(1.0, &c2);
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let a = random(8, 8, 7);
        let i = Mat::identity(8);
        assert!(gemm(1.0, &a, &i, 0.0, None).max_abs_diff(&a) < 1e-14);
        assert!(gemm(1.0, &i, &a, 0.0, None).max_abs_diff(&a) < 1e-14);
    }

    #[test]
    fn transposed_helpers() {
        let a = random(5, 7, 8);
        let b = random(5, 6, 9);
        let got = gemm_tn(&a, &b);
        assert!(got.max_abs_diff(&naive(&a.transpose(), &b)) < 1e-12);
        let c = random(6, 7, 10);
        let got2 = gemm_nt(&a, &c);
        assert!(got2.max_abs_diff(&naive(&a, &c.transpose())) < 1e-12);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        gemm(1.0, &a, &b, 0.0, None);
    }
}
