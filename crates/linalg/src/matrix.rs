//! Minimal dense row-major matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of f64.
#[derive(Clone, PartialEq)]
pub struct Mat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Mat {
    pub fn zeros(nrows: usize, ncols: usize) -> Mat {
        Mat {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    pub fn identity(n: usize) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Mat {
        assert_eq!(data.len(), nrows * ncols, "buffer size mismatch");
        Mat { nrows, ncols, data }
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    pub fn trace(&self) -> f64 {
        assert_eq!(self.nrows, self.ncols, "trace of non-square matrix");
        (0..self.nrows).map(|i| self[(i, i)]).sum()
    }

    /// self += alpha * other.
    pub fn axpy(&mut self, alpha: f64, other: &Mat) {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
    }

    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max |A - Aᵀ| — zero for symmetric matrices.
    pub fn asymmetry(&self) -> f64 {
        assert_eq!(self.nrows, self.ncols);
        let mut worst = 0.0f64;
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:10.5} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.ncols > 8 { "…" } else { "" })?;
        }
        if self.nrows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Mat::zeros(2, 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
    }

    #[test]
    fn identity_trace() {
        assert_eq!(Mat::identity(5).trace(), 5.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Mat::identity(2);
        let b = Mat::identity(2);
        a.axpy(2.0, &b);
        a.scale(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn asymmetry_detects() {
        let mut m = Mat::identity(3);
        assert_eq!(m.asymmetry(), 0.0);
        m[(0, 1)] = 0.25;
        assert_eq!(m.asymmetry(), 0.25);
    }

    #[test]
    fn norms() {
        let m = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-15);
        let z = Mat::from_vec(1, 2, vec![3.0, 4.5]);
        assert!((m.max_abs_diff(&z) - 0.5).abs() < 1e-15);
    }
}
