//! The batched class-kernel build path vs the reference kernel under full
//! production screening: `build_g_seq` (which routes every surviving
//! quartet through `ClassBatcher`/`BatchKernel`) must match a manual
//! scalar loop that evaluates exactly the same screened quartet stream
//! with `EriEngine::quartet_ref` (no pair data, no primitive pruning,
//! series Boys) and applies the same six-block update and symmetrization.

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::{generators, BasisSetKind};
use fock_repro::core::seq::build_g_seq;
use fock_repro::core::tasks::FockProblem;
use fock_repro::core::{apply_quartet, symmetrize, DenseSink};
use fock_repro::eri::{DensityNorms, EriEngine};

fn density(nbf: usize) -> Vec<f64> {
    let mut d = vec![0.0; nbf * nbf];
    for i in 0..nbf {
        for j in 0..nbf {
            d[i * nbf + j] = 0.35 / (1.0 + (i as f64 - j as f64).powi(2));
        }
    }
    d
}

/// The scalar build: same task enumeration, same Schwarz + density-weighted
/// screening as `do_task`, quartet-at-a-time through `quartet_ref`.
fn build_g_scalar(prob: &FockProblem, d: &[f64]) -> (Vec<f64>, u64) {
    let nbf = prob.nbf();
    let dn = DensityNorms::compute(&prob.basis, d);
    let mut f = vec![0.0; nbf * nbf];
    let mut eng = EriEngine::new();
    let mut block = Vec::new();
    let sh = &prob.basis.shells;
    let n = prob.nshells();
    let mut quartets = 0;
    let mut sink = DenseSink { nbf, d, f: &mut f };
    for m in 0..n {
        for nn in 0..n {
            for &p in prob.phi(m) {
                let p = p as usize;
                for &q in prob.phi(nn) {
                    let q = q as usize;
                    if !prob.quartet_selected(m, p, nn, q)
                        || !prob.quartet_selected_weighted(&dn, m, p, nn, q)
                    {
                        continue;
                    }
                    eng.quartet_ref(&sh[m], &sh[p], &sh[nn], &sh[q], &mut block);
                    apply_quartet(&mut sink, prob, [m, p, nn, q], &block);
                    quartets += 1;
                }
            }
        }
    }
    symmetrize(&mut f, nbf);
    (f, quartets)
}

fn check(prob: &FockProblem) {
    let d = density(prob.nbf());
    let (scalar, q_scalar) = build_g_scalar(prob, &d);
    let (batched, q_batched) = build_g_seq(prob, &d);
    assert!(q_scalar > 0);
    assert_eq!(
        q_scalar, q_batched,
        "batched path must evaluate exactly the screened quartet stream"
    );
    let max = scalar
        .iter()
        .zip(&batched)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    // Same quartets, per-quartet blocks equal to 1e-12 (the kernels share
    // no contraction code); F-accumulation order within a task differs
    // too. 1e-10 is generous.
    assert!(max < 1e-10, "G mismatch between batched and scalar: {max}");
}

#[test]
fn batched_build_matches_scalar_sto3g() {
    let prob = FockProblem::new(
        generators::linear_alkane(3),
        BasisSetKind::Sto3g,
        1e-10,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    check(&prob);
}

#[test]
fn batched_build_matches_scalar_ccpvdz_with_d_shells() {
    let prob = FockProblem::new(
        generators::water(),
        BasisSetKind::CcPvdz,
        1e-10,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    check(&prob);
}
