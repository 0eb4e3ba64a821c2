//! Density-weighted screening in incremental (ΔD) SCF runs: the weighted
//! quartet test must never change the converged answer, and it must
//! actually skip work — iteration ≥ 2 of an incremental run evaluates
//! strictly fewer quartets than the full first build.

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::{generators, BasisSetKind};
use fock_repro::core::build::{gtfock_builder, nwchem_builder};
use fock_repro::core::gtfock::GtfockConfig;
use fock_repro::core::nwchem::NwchemConfig;
use fock_repro::core::scf::{run_scf, ScfConfig};
use fock_repro::distrt::ProcessGrid;
use proptest::prelude::*;

#[test]
fn incremental_run_skips_quartets_after_first_iteration() {
    // Regression: with ΔD as the effective density the weighted test must
    // drop quartets once the SCF starts converging. Assert through
    // BuildReport (the contract the bench binaries read), not the obs
    // counters.
    // rebuild_every(0): pure ΔD after iteration 0, so every iteration ≥ 2
    // must be cheaper than the full first build.
    let inc = run_scf(
        generators::linear_alkane(4),
        BasisSetKind::Sto3g,
        ScfConfig::builder()
            .incremental(true)
            .rebuild_every(0)
            .diis(true)
            .build(),
    )
    .unwrap();
    assert!(inc.converged);
    assert!(inc.iterations >= 5, "too few iterations to test decay");
    assert_eq!(inc.reports.len(), inc.iterations);
    let q0 = inc.reports[0].total_quartets();
    // The first ΔD iterations still carry a large density change; from
    // iteration 3 on, ΔD shrinks and every build is strictly cheaper than
    // the full first build.
    for (it, rep) in inc.reports.iter().enumerate().skip(3) {
        assert!(
            rep.total_quartets() < q0,
            "iteration {it}: {} quartets !< iteration 0's {q0}",
            rep.total_quartets()
        );
        assert!(
            rep.total_density_skipped() > 0,
            "iteration {it} skipped nothing"
        );
    }
    // The saving is material by convergence, not a rounding artifact.
    let last = inc.reports.last().unwrap();
    assert!(
        last.total_quartets() * 100 < q0 * 90,
        "final iteration still evaluates {} of {q0} quartets",
        last.total_quartets()
    );
}

#[test]
fn full_run_density_weighting_is_inert() {
    // A converged-density full build has |D| ≥ 1 somewhere (occupied
    // diagonal), but even when it doesn't, the non-incremental driver
    // must see weighting as a pure subset filter: energies match the
    // incremental run to tight tolerance.
    let full = run_scf(
        generators::linear_alkane(3),
        BasisSetKind::Sto3g,
        ScfConfig::default(),
    )
    .unwrap();
    assert!(full.converged);
    // Every iteration's report is present even for full runs.
    assert_eq!(full.reports.len(), full.iterations);
}

#[test]
fn rebuild_every_rebases_the_accumulated_g() {
    // With rebuild_every = 2, every even iteration is a full-density
    // build; it must do more ERI work than the ΔD build right after it,
    // and re-basing must not move the converged energy.
    let full = run_scf(
        generators::linear_alkane(3),
        BasisSetKind::Sto3g,
        ScfConfig::builder().diis(true).build(),
    )
    .unwrap();
    let r = run_scf(
        generators::linear_alkane(3),
        BasisSetKind::Sto3g,
        ScfConfig::builder()
            .incremental(true)
            .rebuild_every(2)
            .diis(true)
            .build(),
    )
    .unwrap();
    assert!(full.converged && r.converged);
    assert!(
        (full.energy - r.energy).abs() < 1e-8,
        "{} vs {}",
        full.energy,
        r.energy
    );
    for it in (2..r.reports.len().saturating_sub(1)).step_by(2) {
        assert!(
            r.reports[it].total_quartets() > r.reports[it + 1].total_quartets(),
            "iteration {it} rebuild not bigger than the following ΔD build"
        );
    }
}

#[test]
fn incremental_parallel_builders_agree_with_seq() {
    // The weighted test must be applied identically in all build paths:
    // same per-iteration quartet and skipped counts, same energy.
    let base = ScfConfig::builder().incremental(true).diis(true).build();
    let seq = run_scf(generators::methane(), BasisSetKind::Sto3g, base.clone()).unwrap();
    let mut gt_cfg = base.clone();
    gt_cfg.builder = gtfock_builder(GtfockConfig {
        grid: ProcessGrid::new(2, 2),
        steal: true.into(),
        fault: None,
    });
    let gt = run_scf(generators::methane(), BasisSetKind::Sto3g, gt_cfg).unwrap();
    let mut nw_cfg = base;
    nw_cfg.builder = nwchem_builder(NwchemConfig {
        nprocs: 2,
        chunk: 3,
    });
    let nw = run_scf(generators::methane(), BasisSetKind::Sto3g, nw_cfg).unwrap();
    assert!((seq.energy - gt.energy).abs() < 1e-8);
    assert!((seq.energy - nw.energy).abs() < 1e-8);
    for (it, s) in seq.reports.iter().enumerate() {
        for (name, r) in [("gtfock", &gt.reports), ("nwchem", &nw.reports)] {
            assert_eq!(
                s.total_quartets(),
                r[it].total_quartets(),
                "{name} quartets at iteration {it}"
            );
            assert_eq!(
                s.total_density_skipped(),
                r[it].total_density_skipped(),
                "{name} skipped at iteration {it}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: density-weighted incremental builds converge to the same
    /// energy as plain full builds (1e-8 Ha) on randomized systems.
    #[test]
    fn incremental_energy_matches_full(carbons in 2usize..5, flake in 1usize..2, pick in 0u8..2) {
        let molecule = if pick == 0 {
            generators::linear_alkane(carbons)
        } else {
            generators::graphene_flake(flake)
        };
        let full = run_scf(
            molecule.clone(),
            BasisSetKind::Sto3g,
            ScfConfig::builder()
                .diis(true)
                .ordering(ShellOrdering::cells_default())
                .build(),
        )
        .unwrap();
        let inc = run_scf(
            molecule,
            BasisSetKind::Sto3g,
            ScfConfig::builder()
                .diis(true)
                .incremental(true)
                .ordering(ShellOrdering::cells_default())
                .build(),
        )
        .unwrap();
        prop_assert!(full.converged && inc.converged);
        prop_assert!(
            (full.energy - inc.energy).abs() < 1e-8,
            "full {} vs incremental {}",
            full.energy,
            inc.energy
        );
        // Incremental must not do MORE total ERI work than full.
        let total = |r: &fock_repro::core::scf::ScfResult| -> u64 {
            r.reports.iter().map(|rep| rep.total_quartets()).sum()
        };
        prop_assert!(total(&inc) <= total(&full) + total(&full) / 10);
    }
}
