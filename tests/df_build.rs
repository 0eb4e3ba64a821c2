//! Density-fitting integration tests across crates: J/K parity of the
//! GEMM assembly against an explicit 3-center reference contraction, and
//! converged DF-SCF energies against the exact-exchange sequential build.

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::shells::BasisInstance;
use fock_repro::chem::{generators, BasisSetKind};
use fock_repro::core::df::df_builder;
use fock_repro::core::scf::{run_scf, ScfConfig};
use fock_repro::eri::df::{aux_schwarz, three_center, two_center};
use fock_repro::eri::{AuxBasis, AuxSpec, Screening, ShellPairData};
use fock_repro::linalg::solve::{cholesky, forward_substitute, solve};
use fock_repro::linalg::Mat;

fn symmetric_density(nbf: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut d = vec![0.0; nbf * nbf];
    for i in 0..nbf {
        for j in i..nbf {
            let v = next() * 0.4;
            d[i * nbf + j] = v;
            d[j * nbf + i] = v;
        }
    }
    d
}

/// Explicit loop-nest contraction of the whitened 3-center tensor —
/// the definitional reference for the GEMM assembly:
/// `J_μν = Σ_Q B_{Q,μν} γ_Q`, `K = Σ_Q B_Q·D·B_Q`.
fn explicit_contraction(b: &[f64], d: &[f64], naux: usize, nbf: usize) -> (Vec<f64>, Vec<f64>) {
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

/// The fitted J/K with `J⁻¹` applied through the (independent) LU
/// solver: `J_μν = Σ_PQ A_{P,μν} (J⁻¹)_{PQ} γ_Q` and
/// `K = Σ_PQ (J⁻¹)_{PQ} A_P·D·A_Q` (each `A_P` symmetric).
fn lu_route_jk(
    a: &[f64],
    metric: &Mat,
    d: &[f64],
    naux: usize,
    nbf: usize,
) -> (Vec<f64>, Vec<f64>) {
    // J⁻¹ column by column, with one step of iterative refinement — the
    // even-tempered metric is ill-conditioned enough that a single LU
    // solve loses a digit against the whitened pipeline.
    let mut jinv = vec![0.0; naux * naux];
    for q in 0..naux {
        let mut e = vec![0.0; naux];
        e[q] = 1.0;
        let mut col = solve(metric, &e).expect("metric must be invertible");
        let mut r = e.clone();
        for p in 0..naux {
            let mut acc = 0.0;
            for s in 0..naux {
                acc += metric[(p, s)] * col[s];
            }
            r[p] -= acc;
        }
        let dx = solve(metric, &r).expect("metric must be invertible");
        for p in 0..naux {
            col[p] += dx[p];
            jinv[p * naux + q] = col[p];
        }
    }
    let block = |p: usize| &a[p * nbf * nbf..(p + 1) * nbf * nbf];
    // γ_Q = Σ_λσ A_{Q,λσ} D_λσ, then c = J⁻¹·γ, then J = Σ_P A_P c_P.
    let gamma: Vec<f64> = (0..naux)
        .map(|q| block(q).iter().zip(d).map(|(x, y)| x * y).sum())
        .collect();
    let c: Vec<f64> = (0..naux)
        .map(|p| (0..naux).map(|q| jinv[p * naux + q] * gamma[q]).sum())
        .collect();
    let mut j = vec![0.0; nbf * nbf];
    for (p, &cp) in c.iter().enumerate() {
        for (jv, &av) in j.iter_mut().zip(block(p)) {
            *jv += av * cp;
        }
    }
    // M_Q = D·A_Q, T_P = Σ_Q (J⁻¹)_PQ M_Q, K = Σ_P A_P·T_P.
    let mut m = vec![0.0; naux * nbf * nbf];
    for q in 0..naux {
        let aq = block(q);
        let mq = &mut m[q * nbf * nbf..(q + 1) * nbf * nbf];
        for i in 0..nbf {
            for jj in 0..nbf {
                let mut acc = 0.0;
                for l in 0..nbf {
                    acc += d[i * nbf + l] * aq[l * nbf + jj];
                }
                mq[i * nbf + jj] = acc;
            }
        }
    }
    let mut k = vec![0.0; nbf * nbf];
    for p in 0..naux {
        let ap = block(p);
        let mut tp = vec![0.0; nbf * nbf];
        for q in 0..naux {
            let w = jinv[p * naux + q];
            if w == 0.0 {
                continue;
            }
            for (t, &mv) in tp.iter_mut().zip(&m[q * nbf * nbf..(q + 1) * nbf * nbf]) {
                *t += w * mv;
            }
        }
        for mu in 0..nbf {
            for nu in 0..nbf {
                let mut acc = 0.0;
                for l in 0..nbf {
                    acc += ap[mu * nbf + l] * tp[l * nbf + nu];
                }
                k[mu * nbf + nu] += acc;
            }
        }
    }
    (j, k)
}

#[test]
fn gemm_jk_matches_explicit_three_center_contraction() {
    for (mol, kind) in [
        (generators::water(), BasisSetKind::Sto3g),
        (generators::methane(), BasisSetKind::Sto3g),
    ] {
        let basis = BasisInstance::new(mol, kind).unwrap();
        let screening = Screening::compute(&basis, 1e-12);
        let pairs = ShellPairData::build(&basis, &screening);
        let aux = AuxBasis::generate(&basis, &AuxSpec::default());
        let (naux, nbf) = (aux.naux, basis.nbf);
        let metric = two_center(&aux);
        let q = aux_schwarz(&aux, &metric);
        let tc = three_center(&basis, &pairs, &screening, &aux, &q, 1e-12);
        let d = symmetric_density(nbf, 11);

        // Whitened pipeline (what DfBuild runs).
        let metric_mat = Mat::from_vec(naux, naux, metric);
        let l = cholesky(&metric_mat).expect("auto-generated metric should be SPD here");
        let mut b = Mat::from_vec(naux, nbf * nbf, tc.a.clone());
        forward_substitute(&l, &mut b);
        let (j, k) = fock_repro::linalg::df::df_jk(b.as_slice(), &d, naux, nbf);

        // Definitional reference: explicit contraction of the same
        // whitened tensor (real integrals, no GEMM machinery).
        let (jr, kr) = explicit_contraction(b.as_slice(), &d, naux, nbf);
        let mut worst = 0.0f64;
        for i in 0..nbf * nbf {
            worst = worst.max((j[i] - jr[i]).abs()).max((k[i] - kr[i]).abs());
        }
        assert!(
            worst < 1e-10,
            "J/K parity {worst:e} (naux={naux}, nbf={nbf})"
        );

        // Independent route: raw 3-center tensor through the LU-solved
        // J⁻¹. Both sides carry O(cond(J)·ε) — allow one more digit.
        let (jl, kl) = lu_route_jk(&tc.a, &metric_mat, &d, naux, nbf);
        let mut cross = 0.0f64;
        for i in 0..nbf * nbf {
            cross = cross.max((j[i] - jl[i]).abs()).max((k[i] - kl[i]).abs());
        }
        assert!(
            cross < 1e-9,
            "Cholesky vs LU route {cross:e} (naux={naux}, nbf={nbf})"
        );
    }
}

#[test]
fn converged_df_scf_tracks_exact_exchange_energy() {
    // The DF energy differs from the exact build only by the fitting
    // error of the auto-generated even-tempered auxiliary basis; both
    // loops must converge and land within that expected window.
    for (name, mol, tol) in [
        ("water", generators::water(), 2e-3),
        ("methane", generators::methane(), 2e-3),
    ] {
        let cfg = || {
            ScfConfig::builder()
                .diis(true)
                .tau(1e-12)
                .e_tol(1e-10)
                .d_tol(1e-8)
                .max_iter(80)
                .ordering(ShellOrdering::Natural)
        };
        let exact = run_scf(mol.clone(), BasisSetKind::Sto3g, cfg().build()).unwrap();
        let df = run_scf(
            mol,
            BasisSetKind::Sto3g,
            cfg().fock_builder(df_builder(AuxSpec::default())).build(),
        )
        .unwrap();
        assert!(exact.converged, "{name}: exact SCF did not converge");
        assert!(df.converged, "{name}: DF SCF did not converge");
        let diff = (df.energy - exact.energy).abs();
        assert!(
            diff < tol,
            "{name}: |E_df − E_exact| = {diff:e} (df {:.10}, exact {:.10})",
            df.energy,
            exact.energy
        );
    }
}
