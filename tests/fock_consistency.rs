//! Cross-crate integration: every Fock-build path — sequential reference,
//! GTFock on assorted grids (with and without stealing), and the
//! NWChem-style baseline at assorted process counts — must produce the
//! same G(D) matrix on the same problem.

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::{generators, BasisSetKind};
use fock_repro::core::gtfock::{build_fock_gtfock, GtfockConfig};
use fock_repro::core::nwchem::{build_fock_nwchem, NwchemConfig};
use fock_repro::core::seq::build_g_seq;
use fock_repro::core::tasks::FockProblem;
use fock_repro::distrt::ProcessGrid;

fn density(nbf: usize) -> Vec<f64> {
    let mut d = vec![0.0; nbf * nbf];
    for i in 0..nbf {
        for j in 0..nbf {
            d[i * nbf + j] = 0.4 / (1.0 + (i as f64 - j as f64).powi(2));
        }
    }
    d
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn all_builders_agree_on_benzene() {
    let prob = FockProblem::new(
        generators::graphene_flake(1),
        BasisSetKind::Sto3g,
        1e-10,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    let d = density(prob.nbf());
    let (reference, ref_quartets) = build_g_seq(&prob, &d);
    assert!(ref_quartets > 0);

    for grid in [
        ProcessGrid::new(1, 1),
        ProcessGrid::new(2, 3),
        ProcessGrid::new(4, 2),
    ] {
        for steal in [false, true] {
            let (g, rep) = build_fock_gtfock(
                &prob,
                &d,
                GtfockConfig {
                    grid,
                    steal: steal.into(),
                    fault: None,
                },
            );
            assert_eq!(
                rep.total_quartets(),
                ref_quartets,
                "grid {grid:?} steal {steal}"
            );
            let diff = max_diff(&reference, &g);
            assert!(
                diff < 1e-10,
                "gtfock grid {grid:?} steal {steal}: diff {diff}"
            );
        }
    }
    for nprocs in [1usize, 3, 6] {
        let (g, rep) = build_fock_nwchem(&prob, &d, NwchemConfig { nprocs, chunk: 5 });
        assert_eq!(rep.total_quartets(), ref_quartets, "nwchem p={nprocs}");
        let diff = max_diff(&reference, &g);
        assert!(diff < 1e-10, "nwchem p={nprocs}: diff {diff}");
    }
}

#[test]
fn builders_agree_with_heavy_screening() {
    // A chain molecule at loose tolerance: screening actually removes
    // work, and all paths must drop exactly the same quartets.
    let prob = FockProblem::new(
        generators::linear_alkane(6),
        BasisSetKind::Sto3g,
        1e-7,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    let d = density(prob.nbf());
    let (reference, ref_quartets) = build_g_seq(&prob, &d);
    let (g1, r1) = build_fock_gtfock(
        &prob,
        &d,
        GtfockConfig {
            grid: ProcessGrid::new(3, 3),
            steal: true.into(),
            fault: None,
        },
    );
    let (g2, r2) = build_fock_nwchem(
        &prob,
        &d,
        NwchemConfig {
            nprocs: 4,
            chunk: 3,
        },
    );
    assert_eq!(r1.total_quartets(), ref_quartets);
    assert_eq!(r2.total_quartets(), ref_quartets);
    assert!(max_diff(&reference, &g1) < 1e-10);
    assert!(max_diff(&reference, &g2) < 1e-10);
}

#[test]
fn g_scales_linearly_in_density() {
    // G(αD) = αG(D): catches any accidental D-dependence in screening or
    // update weights.
    let prob = FockProblem::new(
        generators::water(),
        BasisSetKind::Sto3g,
        1e-11,
        ShellOrdering::Natural,
    )
    .unwrap();
    let d = density(prob.nbf());
    let d2: Vec<f64> = d.iter().map(|x| 2.5 * x).collect();
    let (g, _) = build_g_seq(&prob, &d);
    let (g2, _) = build_g_seq(&prob, &d2);
    for (a, b) in g.iter().zip(&g2) {
        assert!((2.5 * a - b).abs() < 1e-10);
    }
}
