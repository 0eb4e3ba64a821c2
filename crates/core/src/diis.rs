//! DIIS (direct inversion in the iterative subspace, Pulay 1980)
//! convergence acceleration for the SCF loop.
//!
//! Plain Roothaan iteration — what Algorithm 1 of the paper writes down —
//! converges slowly or oscillates on many systems; every production HF
//! code (including NWChem, the paper's comparator) wraps the iteration in
//! DIIS. The error vector is the commutator e = F·D·S − S·D·F (zero at
//! convergence), and the extrapolated Fock matrix is the least-squares
//! combination Σ cᵢ·Fᵢ with Σ cᵢ = 1 minimizing ‖Σ cᵢ eᵢ‖.

use linalg::gemm::gemm;
use linalg::solve::solve;
use linalg::Mat;
use std::collections::VecDeque;

/// DIIS state: a sliding window of (Fock, error) pairs.
pub struct Diis {
    max_vecs: usize,
    focks: VecDeque<Mat>,
    errors: VecDeque<Mat>,
}

impl Diis {
    /// `max_vecs` — subspace size (6–8 is customary).
    pub fn new(max_vecs: usize) -> Diis {
        assert!(max_vecs >= 2, "DIIS needs at least two vectors");
        Diis {
            max_vecs,
            focks: VecDeque::new(),
            errors: VecDeque::new(),
        }
    }

    /// The SCF error vector e = F·D·S − S·D·F.
    pub fn error_vector(f: &Mat, d: &Mat, s: &Mat) -> Mat {
        let fds = gemm(1.0, &gemm(1.0, f, d, 0.0, None), s, 0.0, None);
        let sdf = gemm(1.0, &gemm(1.0, s, d, 0.0, None), f, 0.0, None);
        let mut e = fds;
        e.axpy(-1.0, &sdf);
        e
    }

    /// Current residual norm (max |e| of the latest error vector).
    pub fn residual(&self) -> f64 {
        self.errors
            .back()
            .map(|e| e.as_slice().iter().fold(0.0f64, |m, &v| m.max(v.abs())))
            .unwrap_or(f64::INFINITY)
    }

    /// Push the iteration's Fock matrix and return the extrapolated one.
    /// Falls back to the raw F while the subspace is too small or the
    /// DIIS system is singular.
    pub fn extrapolate(&mut self, f: &Mat, d: &Mat, s: &Mat) -> Mat {
        let e = Self::error_vector(f, d, s);
        self.focks.push_back(f.clone());
        self.errors.push_back(e);
        if self.focks.len() > self.max_vecs {
            self.focks.pop_front();
            self.errors.pop_front();
        }
        let k = self.focks.len();
        if k < 2 {
            return f.clone();
        }

        // B c = rhs with B_ij = <e_i, e_j>, bordered by the Σc = 1
        // constraint.
        let mut b = Mat::zeros(k + 1, k + 1);
        for i in 0..k {
            for j in 0..k {
                let dot: f64 = self.errors[i]
                    .as_slice()
                    .iter()
                    .zip(self.errors[j].as_slice())
                    .map(|(x, y)| x * y)
                    .sum();
                b[(i, j)] = dot;
            }
            b[(i, k)] = -1.0;
            b[(k, i)] = -1.0;
        }
        let mut rhs = vec![0.0; k + 1];
        rhs[k] = -1.0;

        match solve(&b, &rhs) {
            Some(c) => {
                let nbf = f.nrows();
                let mut out = Mat::zeros(nbf, f.ncols());
                for (ci, fi) in c.iter().take(k).zip(self.focks.iter()) {
                    out.axpy(*ci, fi);
                }
                out
            }
            None => f.clone(), // singular subspace: drop extrapolation
        }
    }

    /// Forget all stored vectors (e.g. after a level shift change).
    pub fn reset(&mut self) {
        self.focks.clear();
        self.errors.clear();
    }

    pub fn len(&self) -> usize {
        self.focks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.focks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_vector_zero_when_commuting() {
        // F = D = S = I trivially commute.
        let i = Mat::identity(4);
        let e = Diis::error_vector(&i, &i, &i);
        assert_eq!(e.frobenius_norm(), 0.0);
    }

    #[test]
    fn extrapolation_is_affine_combination() {
        // With two stored Focks the result must satisfy Σc = 1: check that
        // extrapolating two identical matrices returns the same matrix.
        let s = Mat::identity(3);
        let mut f = Mat::identity(3);
        f[(0, 1)] = 0.3;
        f[(1, 0)] = 0.3;
        let mut d = Mat::identity(3);
        d[(2, 2)] = 0.0;
        let mut diis = Diis::new(4);
        let _ = diis.extrapolate(&f, &d, &s);
        let out = diis.extrapolate(&f, &d, &s);
        assert!(out.max_abs_diff(&f) < 1e-10);
    }

    #[test]
    fn window_is_bounded() {
        let s = Mat::identity(2);
        let d = Mat::identity(2);
        let mut diis = Diis::new(3);
        for k in 0..10 {
            let mut f = Mat::identity(2);
            f[(0, 1)] = k as f64 * 0.1;
            f[(1, 0)] = k as f64 * 0.1;
            let _ = diis.extrapolate(&f, &d, &s);
            assert!(diis.len() <= 3);
        }
    }

    #[test]
    fn residual_tracks_latest_error() {
        let s = Mat::identity(2);
        let d = Mat::from_vec(2, 2, vec![1.0, 0.0, 0.0, 0.0]);
        let mut diis = Diis::new(4);
        assert_eq!(diis.residual(), f64::INFINITY);
        let mut f = Mat::identity(2);
        f[(0, 1)] = 0.5;
        f[(1, 0)] = 0.5;
        let _ = diis.extrapolate(&f, &d, &s);
        // e = FDS - SDF has magnitude |0.5| in the off-diagonals here.
        assert!((diis.residual() - 0.5).abs() < 1e-12);
    }
}
