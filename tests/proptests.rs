//! Property-based tests (proptest) on the core invariants the system
//! relies on: Boys-function recurrences, screening soundness, quartet
//! uniqueness, distribution tiling, GA round-trips, eigensolver and
//! purification properties, and ERI permutational symmetry on randomized
//! shells.

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::shells::{BasisInstance, Shell};
use fock_repro::chem::{generators, BasisSetKind, Vec3};
use fock_repro::core::sim_exec::{GtfockSimModel, StealConfig};
use fock_repro::core::tasks::{symmetry_check, unique_quartet};
use fock_repro::core::{FockProblem, StaticPartition};
use fock_repro::distrt::{block_range, FaultPlan, GlobalArray, MachineParams, ProcessGrid};
use fock_repro::eri::boys::boys;
use fock_repro::eri::{EriEngine, Screening, ShellPairData};
use fock_repro::linalg::eig::sym_eig;
use fock_repro::linalg::gemm::gemm;
use fock_repro::linalg::purify::purify_canonical;
use fock_repro::linalg::Mat;
use proptest::prelude::*;
use std::sync::OnceLock;

fn normalized_s_shell(center: (f64, f64, f64), exp: f64) -> Shell {
    let n = (2.0 * exp / std::f64::consts::PI).powf(0.75);
    Shell {
        atom: 0,
        l: 0,
        center: Vec3::new(center.0, center.1, center.2),
        exps: vec![exp].into(),
        coefs: vec![n].into(),
        bf_offset: 0,
    }
}

/// Real bases (s/p/d shells, contraction depths 1–9) for the pair-data
/// equivalence property, with shared pair tables — built once.
fn pair_test_bases() -> &'static Vec<(BasisInstance, ShellPairData)> {
    static BASES: OnceLock<Vec<(BasisInstance, ShellPairData)>> = OnceLock::new();
    BASES.get_or_init(|| {
        let mut out = Vec::new();
        for kind in [BasisSetKind::Sto3g, BasisSetKind::CcPvdz] {
            for mol in [
                generators::water(),
                generators::methane(),
                generators::linear_alkane(4),
            ] {
                let b = BasisInstance::new(mol, kind).unwrap();
                let s = Screening::compute(&b, 1e-14);
                let pd = ShellPairData::build(&b, &s);
                out.push((b, pd));
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn boys_recurrence_everywhere(t in 0.0f64..120.0) {
        // 2t·F_{m+1}(t) = (2m+1)·F_m(t) − e^{−t} for all m.
        let mut f = [0.0; 7];
        boys(6, t, &mut f);
        for m in 0..6 {
            let lhs = 2.0 * t * f[m + 1];
            let rhs = (2 * m + 1) as f64 * f[m] - (-t).exp();
            prop_assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()));
        }
        // Bounds: 0 < F_m(t) <= 1/(2m+1).
        for (m, &v) in f.iter().enumerate() {
            prop_assert!(v > 0.0 && v <= 1.0 / (2 * m + 1) as f64 + 1e-15);
        }
    }

    #[test]
    fn symmetry_check_total_order(m in 0usize..200, n in 0usize..200) {
        if m == n {
            prop_assert!(symmetry_check(m, n));
        } else {
            prop_assert!(symmetry_check(m, n) != symmetry_check(n, m));
        }
    }

    #[test]
    fn unique_quartet_exactly_once_random(seed in 0u64..1000) {
        // Random quadruple from a medium index range: exactly one member
        // of its 8-image orbit may be selected.
        let mut s = seed;
        let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1); (s >> 33) as usize % 17 };
        let (m, p, n, q) = (next(), next(), next(), next());
        let orbit = [
            (m, p, n, q), (p, m, n, q), (m, p, q, n), (p, m, q, n),
            (n, q, m, p), (q, n, m, p), (n, q, p, m), (q, n, p, m),
        ];
        let mut distinct: Vec<(usize, usize, usize, usize)> = Vec::new();
        for t in orbit {
            if !distinct.contains(&t) {
                distinct.push(t);
            }
        }
        let selected = distinct.iter().filter(|&&(a, b, c, d)| unique_quartet(a, b, c, d)).count();
        prop_assert_eq!(selected, 1, "orbit of {:?}", (m, p, n, q));
    }

    #[test]
    fn block_ranges_tile(n in 1usize..500, parts in 1usize..40) {
        let mut covered = 0usize;
        for k in 0..parts {
            let r = block_range(n, parts, k);
            prop_assert_eq!(r.start, covered);
            covered = r.end;
        }
        prop_assert_eq!(covered, n);
    }

    #[test]
    fn ga_put_get_roundtrip(
        n in 2usize..24,
        pr in 1usize..4,
        pc in 1usize..4,
        r0 in 0usize..10,
        c0 in 0usize..10,
    ) {
        let grid = ProcessGrid::new(pr, pc);
        let ga = GlobalArray::zeros(grid, n, n);
        let rows = r0.min(n - 1)..n;
        let cols = c0.min(n - 1)..n;
        let patch: Vec<f64> = (0..rows.len() * cols.len()).map(|k| k as f64 * 0.5 + 1.0).collect();
        ga.put(0, rows.clone(), cols.clone(), &patch);
        let mut out = vec![0.0; patch.len()];
        ga.get(grid.nprocs() - 1, rows, cols, &mut out);
        prop_assert_eq!(out, patch);
    }

    #[test]
    fn jacobi_reconstructs_random_symmetric(seed in 0u64..500, n in 2usize..12) {
        let mut s = seed.wrapping_add(1);
        let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0 };
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let e = sym_eig(&a);
        // Av = λv for every eigenpair.
        let av = gemm(1.0, &a, &e.vectors, 0.0, None);
        for j in 0..n {
            for i in 0..n {
                let want = e.values[j] * e.vectors[(i, j)];
                prop_assert!((av[(i, j)] - want).abs() < 1e-9, "pair {}", j);
            }
        }
    }

    #[test]
    fn purification_trace_and_spectrum(seed in 0u64..200, n in 3usize..10) {
        let mut s = seed.wrapping_add(7);
        let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0 };
        let mut f = Mat::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                f[(i, j)] = v;
                f[(j, i)] = v;
            }
        }
        let nocc = 1 + (seed as usize % (n - 1));
        let p = purify_canonical(&f, nocc, 1e-12, 300);
        prop_assert!((p.density.trace() - nocc as f64).abs() < 1e-6);
        // Eigenvalues of the projector are in [−ε, 1+ε].
        let e = sym_eig(&p.density);
        for &w in &e.values {
            prop_assert!(w > -1e-6 && w < 1.0 + 1e-6, "eigenvalue {w}");
        }
    }

    #[test]
    fn eri_eightfold_symmetry_random_s_shells(
        ax in -2.0f64..2.0, ay in -2.0f64..2.0, az in -2.0f64..2.0,
        bx in -2.0f64..2.0, cy in -2.0f64..2.0, dz in -2.0f64..2.0,
        ea in 0.1f64..5.0, eb in 0.1f64..5.0, ec in 0.1f64..5.0, ed in 0.1f64..5.0,
    ) {
        let a = normalized_s_shell((ax, ay, az), ea);
        let b = normalized_s_shell((bx, 0.3, -0.4), eb);
        let c = normalized_s_shell((0.9, cy, 0.2), ec);
        let d = normalized_s_shell((-0.3, 0.8, dz), ed);
        let mut eng = EriEngine::new();
        let mut out = Vec::new();
        let mut val = |p: [&Shell; 4]| {
            eng.quartet(p[0], p[1], p[2], p[3], &mut out);
            out[0]
        };
        let v = val([&a, &b, &c, &d]);
        let perms = [
            val([&b, &a, &c, &d]),
            val([&a, &b, &d, &c]),
            val([&b, &a, &d, &c]),
            val([&c, &d, &a, &b]),
            val([&d, &c, &a, &b]),
            val([&c, &d, &b, &a]),
            val([&d, &c, &b, &a]),
        ];
        for (k, &p) in perms.iter().enumerate() {
            prop_assert!((v - p).abs() < 1e-12 * (1.0 + v.abs()), "perm {k}: {v} vs {p}");
        }
        // Schwarz positivity: (ab|ab) >= 0.
        let diag = val([&a, &b, &a, &b]);
        prop_assert!(diag >= -1e-14);
    }

    #[test]
    fn pair_data_path_matches_direct_kernel(
        which in 0usize..6,
        s1 in 0u32..1_000_000,
        s2 in 0u32..1_000_000,
        s3 in 0u32..1_000_000,
        s4 in 0u32..1_000_000,
    ) {
        // Every integral of every quartet (random shells from real
        // molecules, d shells and deep contractions included) must agree
        // between the reference kernel and both one-item routes into the
        // production kernel to 1e-12.
        let (basis, pd) = &pair_test_bases()[which];
        let sh = &basis.shells;
        let n = sh.len();
        let (m, p, nn, q) = (
            s1 as usize % n,
            s2 as usize % n,
            s3 as usize % n,
            s4 as usize % n,
        );
        let mut eng = EriEngine::new();
        let (mut oref, mut opair) = (Vec::new(), Vec::new());
        let nref = eng.quartet_ref(&sh[m], &sh[p], &sh[nn], &sh[q], &mut oref);

        // Shell-based wrapper (rebuilds pair scratch inside the engine).
        let nwrap = eng.quartet(&sh[m], &sh[p], &sh[nn], &sh[q], &mut opair);
        prop_assert_eq!(nref, nwrap);
        for (k, (&r, &w)) in oref.iter().zip(opair.iter()).enumerate() {
            prop_assert!(
                (r - w).abs() < 1e-12 * (1.0 + r.abs()),
                "wrapper integral {k}: {r} vs {w}"
            );
        }

        // Shared-table path, exercising stored/swapped orientations.
        if let (Some(bra), Some(ket)) = (pd.view(m, p), pd.view(nn, q)) {
            let npair = eng.quartet_views(&bra, &ket, &mut opair);
            prop_assert_eq!(nref, npair);
            for (k, (&r, &w)) in oref.iter().zip(opair.iter()).enumerate() {
                prop_assert!(
                    (r - w).abs() < 1e-12 * (1.0 + r.abs()),
                    "pair-table integral {k}: {r} vs {w}"
                );
            }
        }
    }
}

/// Shared water fixture for the fault-recovery property: problem + cost
/// model, built once (calibration dominates the per-case cost otherwise).
fn fault_fixture() -> &'static (FockProblem, fock_repro::eri::CostModel) {
    static FIX: OnceLock<(FockProblem, fock_repro::eri::CostModel)> = OnceLock::new();
    FIX.get_or_init(|| {
        let prob = FockProblem::new(
            generators::water(),
            BasisSetKind::Sto3g,
            1e-12,
            ShellOrdering::Natural,
        )
        .unwrap();
        let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let cost = fock_repro::eri::CostModel::calibrate(&basis, 1);
        (prob, cost)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fault plans on a 2×2 grid — up to three of the four ranks
    /// killed part-way through their static block, plus an optional
    /// straggler — keep the DES's recovery exactly-once, with stealing on
    /// and off: every task id completes exactly once on a surviving rank,
    /// the executed-task surplus over n² is exactly what the killed ranks
    /// ran before dying, dead ranks adopt nothing, and the same plan
    /// requeues identically.
    #[test]
    fn random_fault_plans_keep_every_task_exactly_once(
        kills in prop::collection::vec((0usize..4, 0.0f64..1.0), 0..4),
        straggler in (0usize..5, 1.0f64..3.0),
    ) {
        let (prob, cost) = fault_fixture();
        let n = prob.nshells();
        let total = (n * n) as u64;
        let part = StaticPartition::new(ProcessGrid::new(2, 2), n);
        // Each killed rank dies before its own block runs dry, the regime
        // in which the lost-task set is deterministic.
        let mut plan = FaultPlan::new(11);
        let mut killed: Vec<(usize, u64)> = Vec::new();
        for (rank, frac) in kills {
            if killed.iter().any(|&(r, _)| r == rank) {
                continue;
            }
            let after = (frac * part.tasks_of(rank).count() as f64) as u64;
            plan = plan.kill(rank, after);
            killed.push((rank, after));
        }
        if straggler.0 < 4 {
            plan = plan.straggle(straggler.0, straggler.1);
        }
        let surplus: u64 = killed.iter().map(|&(_, after)| after).sum();
        let model = GtfockSimModel::new(prob, cost);
        // 48 Lonestar cores = 4 twelve-core nodes = the 2×2 grid.
        let machine = MachineParams::lonestar();
        for steal in [StealConfig::disabled(), StealConfig::paper()] {
            let rec = fock_repro::obs::Recorder::enabled();
            let r = model.simulate_faulty(machine, 48, steal, Some(&plan), &rec);
            prop_assert_eq!(r.nprocs, 4);
            let tasks: u64 = r.per_process.iter().map(|p| p.tasks).sum();
            prop_assert_eq!(tasks, total + surplus, "surplus != tasks the dead ran");
            for &(rank, after) in &killed {
                prop_assert_eq!(r.per_process[rank].tasks, after, "rank {} died late", rank);
                prop_assert_eq!(r.per_process[rank].requeued, 0, "dead rank {} adopted", rank);
            }
            // Every task id completes exactly once on a surviving rank.
            let recording = rec.recording().expect("enabled recorder");
            let mut done = vec![0u32; n * n];
            for rank in (0..4).filter(|r| !killed.iter().any(|&(k, _)| k == *r)) {
                for e in recording.events(rank) {
                    if let fock_repro::obs::EventKind::TaskEnd { m, n: nn, .. } = e.kind {
                        done[m as usize * n + nn as usize] += 1;
                    }
                }
            }
            prop_assert!(done.iter().all(|&c| c == 1), "task not exactly once: {:?}", done);
            // Same plan, same requeues.
            let again = model.simulate_faulty(
                machine,
                48,
                steal,
                Some(&plan),
                &fock_repro::obs::Recorder::disabled(),
            );
            let requeued = |s: &fock_repro::core::sim_exec::SimResult| -> Vec<u64> {
                s.per_process.iter().map(|p| p.requeued).collect()
            };
            prop_assert_eq!(requeued(&again), requeued(&r));
        }
    }
}
