//! Dense linear algebra for the SCF driver and the purification step.
//!
//! * [`matrix`] — a minimal row-major dense matrix,
//! * [`eig`] — cyclic Jacobi eigensolver for symmetric matrices (used for
//!   S → X = S^{−1/2} and Fock diagonalization, Algorithm 1 lines 3 and 8),
//! * [`gemm`] — one serial register-blocked kernel, and the matrix
//!   multiply that fans it out over row blocks,
//! * [`purify`] — diagonalization-free density construction
//!   (canonical Palser–Manolopoulos purification),
//!   the method the paper times in Table IX,
//! * [`solve`] — LU with partial pivoting, and a blocked, threaded
//!   Cholesky factorization bitwise equal to the textbook triple loop,
//! * [`df`] — density-fitting J/K assembly in one streamed, threaded pass
//!   over the whitened fitted 3-center tensor; the metric solve lives in
//!   [`solve`] (Cholesky) and [`eig`] (pseudo-inverse square root),
//! * [`par`] — the workspace's one data-parallel fan-out: scoped threads
//!   claiming items from a shared iterator.

pub mod df;
pub mod eig;
pub mod gemm;
pub mod matrix;
pub mod par;
pub mod purify;
pub mod solve;

pub use eig::sym_eig;
pub use matrix::Mat;
