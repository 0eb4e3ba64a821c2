//! Fault-injection matrix: the full SCF pipeline must survive rank
//! death, stragglers, and dropped one-sided ops with *bit-level sane*
//! results — the converged energy of every faulty run agrees with the
//! fault-free one to ≤1e-10 Ha, and recovery is deterministic (same seed
//! → same requeue counts).

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::shells::BasisInstance;
use fock_repro::chem::{generators, BasisSetKind};
use fock_repro::core::scf::{run_scf, ScfConfig, ScfResult};
use fock_repro::core::sim_exec::{GtfockSimModel, StealConfig};
use fock_repro::core::{gtfock_builder, FockProblem, SchedulerOpts};
use fock_repro::distrt::{FaultPlan, MachineParams, ProcessGrid};
use fock_repro::eri::CostModel;
use fock_repro::obs::Recorder;
use std::sync::Arc;
use std::time::Duration;

fn scf_with(grid: ProcessGrid, fault: Option<Arc<FaultPlan>>) -> ScfResult {
    let mut opts = SchedulerOpts::with_grid(grid);
    if let Some(p) = fault {
        opts = opts.fault(p);
    }
    let cfg = ScfConfig::builder()
        .fock_builder(gtfock_builder(opts.gtfock()))
        .ordering(ShellOrdering::cells_default())
        .diis(true)
        .e_tol(1e-10)
        .build();
    run_scf(generators::water(), BasisSetKind::Sto3g, cfg).expect("scf run")
}

fn total_requeued(r: &ScfResult) -> u64 {
    r.reports.iter().map(|rep| rep.total_requeued()).sum()
}

#[test]
fn fault_matrix_preserves_scf_energy() {
    for grid in [ProcessGrid::new(2, 2), ProcessGrid::new(4, 2)] {
        let p = grid.nprocs();
        let clean = scf_with(grid, None);
        assert!(clean.converged, "fault-free run must converge (p={p})");
        assert_eq!(total_requeued(&clean), 0);

        // One rank killed after its first task, in every build.
        let killed = scf_with(grid, Some(Arc::new(FaultPlan::new(42).kill(1, 1))));
        assert!(killed.converged, "p={p}: run with dead rank must converge");
        assert!(
            total_requeued(&killed) > 0,
            "p={p}: dead rank produced no requeues"
        );
        assert!(killed.reports.iter().all(|r| r.ranks_died == 1), "p={p}");
        assert!(
            (killed.energy - clean.energy).abs() <= 1e-10,
            "p={p}: dead-rank energy off by {:e}",
            (killed.energy - clean.energy).abs()
        );

        // A 30% straggler only slows things down.
        let slow = scf_with(
            grid,
            Some(Arc::new(FaultPlan::new(42).straggle(p - 1, 1.3))),
        );
        assert!(slow.converged);
        assert!(
            (slow.energy - clean.energy).abs() <= 1e-10,
            "p={p}: straggler energy off by {:e}",
            (slow.energy - clean.energy).abs()
        );

        // 1% of one-sided ops dropped: retries make every acc land
        // exactly once.
        let dropped = scf_with(
            grid,
            Some(Arc::new(
                FaultPlan::new(42)
                    .drop_ops(0.01)
                    .retries(16, Duration::ZERO),
            )),
        );
        assert!(dropped.converged);
        assert!(
            (dropped.energy - clean.energy).abs() <= 1e-10,
            "p={p}: dropped-acc energy off by {:e}",
            (dropped.energy - clean.energy).abs()
        );
        let retries: u64 = dropped.reports.iter().map(|rep| rep.ga_retries()).sum();
        assert!(retries > 0, "p={p}: 1% drops over a full SCF never fired");
    }
}

#[test]
fn requeue_counts_are_deterministic() {
    let grid = ProcessGrid::new(2, 2);
    let run = |seed: u64| {
        let r = scf_with(grid, Some(Arc::new(FaultPlan::new(seed).kill(2, 1))));
        total_requeued(&r)
    };
    let a = run(7);
    assert!(a > 0);
    assert_eq!(run(7), a, "identical seeds must requeue identically");
}

#[test]
fn des_survives_rank_death_at_cluster_scale() {
    let prob = FockProblem::new(
        generators::graphene_flake(1),
        BasisSetKind::Sto3g,
        1e-10,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    let basis = BasisInstance::new(generators::graphene_flake(1), BasisSetKind::Sto3g).unwrap();
    let cost = CostModel::calibrate(&basis, 1);
    let model = GtfockSimModel::new(&prob, &cost);
    let machine = MachineParams::lonestar();
    let plan = FaultPlan::new(3).kill(2, 5);
    let r = model.simulate_faulty(
        machine,
        96,
        StealConfig::paper(),
        Some(&plan),
        &Recorder::disabled(),
    );
    let tasks: u64 = r.per_process.iter().map(|p| p.tasks).sum();
    let total = (prob.nshells() * prob.nshells()) as u64;
    // All work completes; the 5 executed-but-lost tasks run twice.
    assert_eq!(tasks, total + 5);
    assert!(r.tasks_requeued() > 0);
    assert!(r.t_fock_max() > 0.0);
}
