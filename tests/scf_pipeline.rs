//! End-to-end SCF integration across crates: energies against literature
//! values, parallel-builder equivalence inside a full SCF loop, and
//! purification-vs-diagonalization agreement.

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::{generators, BasisSetKind};
use fock_repro::core::build::{gtfock_builder, nwchem_builder};
use fock_repro::core::gtfock::GtfockConfig;
use fock_repro::core::nwchem::NwchemConfig;
use fock_repro::core::scf::{run_scf, DensityMethod, ScfConfig};
use fock_repro::distrt::ProcessGrid;

#[test]
fn converged_energies_match_pre_pairdata_kernel() {
    // References captured with the direct (pre-shell-pair-data) ERI kernel
    // at these exact settings; the pair-data path (precomputed Hermite
    // coefficients, tabulated Boys, primitive screening) must reproduce them to 1e-10 Ha.
    for (name, mol, kind, want) in [
        (
            "water/sto3g",
            generators::water(),
            BasisSetKind::Sto3g,
            -74.96292827088706,
        ),
        (
            "methane/sto3g",
            generators::methane(),
            BasisSetKind::Sto3g,
            -39.72670004948836,
        ),
        (
            "water/ccpvdz",
            generators::water(),
            BasisSetKind::CcPvdz,
            -76.02679869744802,
        ),
    ] {
        let r = run_scf(
            mol,
            kind,
            ScfConfig::builder()
                .diis(true)
                .tau(1e-13)
                .e_tol(1e-11)
                .d_tol(1e-9)
                .max_iter(60)
                .ordering(ShellOrdering::Natural)
                .build(),
        )
        .unwrap();
        assert!(r.converged, "{name} did not converge");
        assert!(
            (r.energy - want).abs() < 1e-10,
            "{name}: E = {:.14}, want {want:.14} (diff {:.1e})",
            r.energy,
            (r.energy - want).abs()
        );
    }
}

#[test]
fn methane_sto3g_reference_energy() {
    // RHF/STO-3G methane at r(CH) = 1.09 Å ≈ −39.72 Ha.
    let r = run_scf(
        generators::methane(),
        BasisSetKind::Sto3g,
        ScfConfig::default(),
    )
    .unwrap();
    assert!(r.converged, "not converged in {} iterations", r.iterations);
    assert!((r.energy - (-39.72)).abs() < 5e-2, "E = {}", r.energy);
}

#[test]
fn water_full_pipeline_gtfock_builder() {
    let cfg = ScfConfig::builder()
        .fock_builder(gtfock_builder(GtfockConfig {
            grid: ProcessGrid::new(2, 2),
            steal: true.into(),
            fault: None,
        }))
        .ordering(ShellOrdering::cells_default())
        .build();
    let par = run_scf(generators::water(), BasisSetKind::Sto3g, cfg).unwrap();
    let seq = run_scf(
        generators::water(),
        BasisSetKind::Sto3g,
        ScfConfig::default(),
    )
    .unwrap();
    assert!(par.converged && seq.converged);
    assert!(
        (par.energy - seq.energy).abs() < 1e-9,
        "{} vs {}",
        par.energy,
        seq.energy
    );
}

#[test]
fn water_full_pipeline_nwchem_builder_with_purification() {
    let cfg = ScfConfig::builder()
        .fock_builder(nwchem_builder(NwchemConfig {
            nprocs: 3,
            chunk: 4,
        }))
        .density(DensityMethod::Purification)
        .build();
    let r = run_scf(generators::water(), BasisSetKind::Sto3g, cfg).unwrap();
    assert!(r.converged);
    assert!((r.energy - (-74.96)).abs() < 2e-2, "E = {}", r.energy);
}

#[test]
fn hydrogen_dissociation_curve_is_sane() {
    // E(R) should have a minimum near R ≈ 1.35–1.45 a0 for STO-3G H2.
    let energies: Vec<f64> = [1.0, 1.4, 2.5]
        .iter()
        .map(|&r| {
            run_scf(
                generators::hydrogen(r),
                BasisSetKind::Sto3g,
                ScfConfig::default(),
            )
            .unwrap()
            .energy
        })
        .collect();
    assert!(
        energies[1] < energies[0],
        "1.4 should beat 1.0: {energies:?}"
    );
    assert!(
        energies[1] < energies[2],
        "1.4 should beat 2.5: {energies:?}"
    );
}

#[test]
fn density_idempotency_in_overlap_metric() {
    // Final SCF density must satisfy D S D = D (projector in S metric).
    use fock_repro::eri::oneints::overlap_matrix;
    use fock_repro::linalg::gemm::gemm;
    use fock_repro::linalg::Mat;
    let r = run_scf(
        generators::water(),
        BasisSetKind::Sto3g,
        ScfConfig::default(),
    )
    .unwrap();
    let nbf = r.problem.nbf();
    let s = Mat::from_vec(nbf, nbf, overlap_matrix(&r.problem.basis));
    let dsd = gemm(
        1.0,
        &gemm(1.0, &r.density, &s, 0.0, None),
        &r.density,
        0.0,
        None,
    );
    assert!(
        dsd.max_abs_diff(&r.density) < 1e-6,
        "DSD != D: {}",
        dsd.max_abs_diff(&r.density)
    );
    // Trace of D·S = number of occupied orbitals.
    let ds = gemm(1.0, &r.density, &s, 0.0, None);
    assert!((ds.trace() - 5.0).abs() < 1e-8, "tr(DS) = {}", ds.trace());
}
