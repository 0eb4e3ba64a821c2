//! Density-fitting J/K assembly in one streamed pass over the fitted
//! tensor.
//!
//! Input is the *whitened* fitted tensor `B` (row-major `[Q][μ][ν]`,
//! `naux·nbf²` doubles) satisfying `(μν|λσ) ≈ Σ_Q B_{Q,μν} B_{Q,λσ}` —
//! produced either from a Cholesky factor of the metric (`B = L⁻¹·A`) or
//! from the eigendecomposition route (`B = J^{−1/2}·A`). Every per-block
//! symmetry of the 4-center tensor survives the fit: each `B_Q` is a
//! symmetric `nbf × nbf` matrix.
//!
//! The irregular quartet loop of the exact-exchange paths becomes, for
//! each Q block in turn,
//!
//! * `γ_Q = ⟨B_Q, D⟩` and `J += γ_Q·B_Q`,
//! * `W = B_Q·D` and `K += W·B_Q` (the upper triangle only; `B_Q` is
//!   symmetric, so `W·B_Q = B_Q·D·B_Qᵀ`),
//!
//! with both products run through the register-blocked
//! [`gemm_acc`] kernel. `B` is borrowed, never copied: the Q range splits
//! into fixed spans of [`SPAN`] blocks, scoped threads claim spans one at
//! a time, and each span's J/K partials (`nbf²` each, thread-private) are
//! folded into the result in span order. The scratch is
//! `O(threads·nbf²)`, and J and K are bitwise the same on any thread
//! count.

use crate::gemm::gemm_acc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Q blocks per span: the unit of work a thread claims and the unit of
/// the ordered fold.
const SPAN: usize = 16;

/// Coulomb and exchange matrices from the whitened DF tensor:
/// `J_μν = Σ_Q B_{Q,μν}·γ_Q` with `γ_Q = Σ_λσ B_{Q,λσ} D_λσ`, and
/// `K_μν = Σ_Q (B_Q·D·B_Q)_μν`. `b` is `naux·nbf²` (layout `[Q][μ][ν]`,
/// each block symmetric), `d` is the symmetric `nbf²` density; both
/// returned matrices are `nbf²` dense, and K is exactly symmetric (formed
/// on the upper triangle and mirrored). Runs on the host's cores.
pub fn df_jk(b: &[f64], d: &[f64], naux: usize, nbf: usize) -> (Vec<f64>, Vec<f64>) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    df_jk_on(b, d, naux, nbf, threads)
}

/// The J/K and the span index the next fold must come from.
struct Fold {
    next: usize,
    j: Vec<f64>,
    k: Vec<f64>,
}

/// [`df_jk`] on `threads` threads (the calling thread included).
pub(crate) fn df_jk_on(
    b: &[f64],
    d: &[f64],
    naux: usize,
    nbf: usize,
    threads: usize,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(b.len(), naux * nbf * nbf, "B tensor shape mismatch");
    assert_eq!(d.len(), nbf * nbf, "density shape mismatch");
    let nn = nbf * nbf;
    let nspans = naux.div_ceil(SPAN);
    let fold = Mutex::new(Fold {
        next: 0,
        j: vec![0.0; nn],
        k: vec![0.0; nn],
    });
    let turn = Condvar::new();
    let claim = AtomicUsize::new(0);
    let worker = || {
        let (mut jp, mut kp, mut w) = (vec![0.0; nn], vec![0.0; nn], vec![0.0; nn]);
        loop {
            let span = claim.fetch_add(1, Ordering::Relaxed);
            if span >= nspans {
                break;
            }
            jp.fill(0.0);
            kp.fill(0.0);
            let qs = span * SPAN..((span + 1) * SPAN).min(naux);
            for bq in b[qs.start * nn..qs.end * nn].chunks_exact(nn) {
                let gamma: f64 = bq.iter().zip(d).map(|(x, y)| x * y).sum();
                for (jv, &bv) in jp.iter_mut().zip(bq) {
                    *jv += gamma * bv;
                }
                w.fill(0.0);
                gemm_acc(1.0, bq, d, &mut w, nbf, nbf, None);
                gemm_acc(1.0, &w, bq, &mut kp, nbf, nbf, Some(0));
            }
            let mut f = turn
                .wait_while(fold.lock().unwrap(), |f| f.next != span)
                .unwrap();
            for (x, y) in f.j.iter_mut().zip(&jp) {
                *x += y;
            }
            for (x, y) in f.k.iter_mut().zip(&kp) {
                *x += y;
            }
            f.next += 1;
            drop(f);
            turn.notify_all();
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads.min(nspans) {
            s.spawn(worker);
        }
        worker();
    });
    let Fold { j, mut k, .. } = fold.into_inner().unwrap();
    for mu in 0..nbf {
        for nu in 0..mu {
            k[mu * nbf + nu] = k[nu * nbf + mu];
        }
    }
    (j, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_add(17);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    /// Symmetric B blocks and density, as the DF layer produces.
    fn symmetric_problem(naux: usize, nbf: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut b = random_vec(naux * nbf * nbf, seed);
        for q in 0..naux {
            for i in 0..nbf {
                for j in 0..i {
                    let v = b[q * nbf * nbf + i * nbf + j];
                    b[q * nbf * nbf + j * nbf + i] = v;
                }
            }
        }
        let mut d = random_vec(nbf * nbf, seed ^ 0x9e37);
        for i in 0..nbf {
            for j in 0..i {
                d[j * nbf + i] = d[i * nbf + j];
            }
        }
        (b, d)
    }

    /// Reference loop nests straight off the definitions.
    fn reference_jk(b: &[f64], d: &[f64], naux: usize, nbf: usize) -> (Vec<f64>, Vec<f64>) {
        let mut j = vec![0.0; nbf * nbf];
        let mut k = vec![0.0; nbf * nbf];
        for q in 0..naux {
            let bq = &b[q * nbf * nbf..(q + 1) * nbf * nbf];
            let gamma: f64 = bq.iter().zip(d).map(|(x, y)| x * y).sum();
            for (jv, &bv) in j.iter_mut().zip(bq) {
                *jv += bv * gamma;
            }
            for mu in 0..nbf {
                for nu in 0..nbf {
                    let mut acc = 0.0;
                    for lam in 0..nbf {
                        for sig in 0..nbf {
                            acc += bq[mu * nbf + lam] * d[lam * nbf + sig] * bq[nu * nbf + sig];
                        }
                    }
                    k[mu * nbf + nu] += acc;
                }
            }
        }
        (j, k)
    }

    #[test]
    fn streamed_pass_matches_loop_nest_at_awkward_shapes() {
        // naux 37 leaves a short last span; nbf 5, 7, 13 leave short row
        // blocks and column tiles.
        for (naux, nbf) in [(3, 1), (37, 5), (SPAN + 1, 7), (37, 13)] {
            let (b, d) = symmetric_problem(naux, nbf, nbf as u64);
            let (j, k) = df_jk(&b, &d, naux, nbf);
            let (jr, kr) = reference_jk(&b, &d, naux, nbf);
            for i in 0..nbf * nbf {
                assert!((j[i] - jr[i]).abs() < 1e-12, "J at {i} ({naux}, {nbf})");
                assert!((k[i] - kr[i]).abs() < 1e-12, "K at {i} ({naux}, {nbf})");
            }
            for mu in 0..nbf {
                for nu in 0..nbf {
                    assert_eq!(k[mu * nbf + nu], k[nu * nbf + mu], "K symmetry");
                }
            }
        }
    }

    #[test]
    fn result_is_bitwise_independent_of_thread_count() {
        let (naux, nbf) = (5 * SPAN + 3, 9);
        let (b, d) = symmetric_problem(naux, nbf, 11);
        let one = df_jk_on(&b, &d, naux, nbf, 1);
        for threads in [2, 3] {
            assert_eq!(
                df_jk_on(&b, &d, naux, nbf, threads),
                one,
                "{threads} threads"
            );
        }
    }
}
