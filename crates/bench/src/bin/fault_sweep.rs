//! Fault sweep: what rank death costs, and what it may never cost.
//!
//! Two sweeps over the deterministic [`FaultPlan`] runtime:
//!
//! * **Threaded** — full SCF on water/STO-3G over a 4×2 grid, killing
//!   k = 0..p-1 ranks (each after its first task) in *every* Fock build.
//!   The converged energy must match the fault-free run to ≤1e-10 Ha —
//!   recovery is exactly-once, so resilience costs time, never accuracy.
//! * **DES** — cluster-scale discrete-event replay on a graphene flake,
//!   sweeping the fraction of dead ranks and reporting how the critical
//!   path (`t_fock`) stretches as survivors re-run the lost tasks after
//!   the join (the same recovery assignment as the threaded builder).
//!
//! `--full` grows both sweeps (benzene SCF, larger flake). Both run
//! STO-3G; `--tau <v>` sets the screening tolerance of both (defaults:
//! `ScfConfig`'s 1e-11 for the threaded SCF, 1e-10 for the DES). Each
//! table is headed by the molecule, basis and τ it ran.

use bench::{flag_full, opt_str, opt_tau, sweep_json, SweepRow};
use chem::reorder::ShellOrdering;
use chem::shells::BasisInstance;
use chem::{generators, BasisSetKind, Molecule};
use distrt::{FaultPlan, MachineParams, ProcessGrid};
use eri::CostModel;
use fock_core::build::gtfock_builder;
use fock_core::build::SchedulerOpts;
use fock_core::scf::{run_scf, ScfConfig, ScfResult};
use fock_core::sim_exec::{GtfockSimModel, StealConfig};
use fock_core::tasks::FockProblem;
use obs::Recorder;
use std::sync::Arc;
use std::time::Instant;

fn scf(
    molecule: Molecule,
    tau: f64,
    grid: ProcessGrid,
    fault: Option<Arc<FaultPlan>>,
) -> ScfResult {
    let mut opts = SchedulerOpts::with_grid(grid);
    if let Some(p) = fault {
        opts = opts.fault(p);
    }
    run_scf(
        molecule,
        BasisSetKind::Sto3g,
        ScfConfig::builder()
            .fock_builder(gtfock_builder(opts.gtfock()))
            .ordering(ShellOrdering::cells_default())
            .diis(true)
            .e_tol(1e-10)
            .tau(tau)
            .build(),
    )
    .expect("scf")
}

fn main() {
    let full = flag_full();
    let scf_tau = opt_tau(ScfConfig::default().tau);
    let des_tau = opt_tau(1e-10);
    println!("== Fault sweep: rank death vs energy, requeues, and time ==");
    println!(
        "{}",
        if full {
            "paper-scale set (--full)"
        } else {
            "scaled-down set (pass --full for benzene and a larger flake)"
        }
    );
    println!();
    let molecule = if full {
        generators::acene(1) // benzene
    } else {
        generators::water()
    };
    let grid = ProcessGrid::new(4, 2);
    let p = grid.nprocs();

    println!(
        "threaded sweep: {}/STO-3G, τ = {scf_tau:.0e}, SCF on a {p}-rank grid, k ranks killed after 1 task per build",
        molecule.formula()
    );
    println!(
        "{:>8} {:>16} {:>12} {:>12} {:>10}",
        "killed", "energy (Ha)", "|dE| vs k=0", "requeued", "time (s)"
    );
    let mut e0 = 0.0;
    for k in 0..p {
        let plan = (1..=k).fold(FaultPlan::new(42), |pl, r| pl.kill(r, 1));
        let fault = (k > 0).then(|| Arc::new(plan));
        let t = Instant::now();
        let r = scf(molecule.clone(), scf_tau, grid, fault);
        let dt = t.elapsed().as_secs_f64();
        if k == 0 {
            e0 = r.energy;
        }
        let requeued: u64 = r.reports.iter().map(|x| x.total_requeued()).sum();
        println!(
            "{k:>8} {:>16.10} {:>12.1e} {:>12} {:>9.2}s",
            r.energy,
            (r.energy - e0).abs(),
            requeued,
            dt
        );
        assert!(
            (r.energy - e0).abs() <= 1e-10,
            "recovery changed the converged energy"
        );
    }
    println!();

    let flake = generators::graphene_flake(if full { 2 } else { 1 });
    let flake_name = flake.formula();
    let prob = FockProblem::new(
        flake.clone(),
        BasisSetKind::Sto3g,
        des_tau,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    let basis = BasisInstance::new(flake, BasisSetKind::Sto3g).unwrap();
    let cost = CostModel::calibrate(&basis, 1);
    let model = GtfockSimModel::new(&prob, &cost);
    let machine = MachineParams::lonestar();
    let ncores = if full { 384 } else { 192 };

    println!(
        "DES sweep: {flake_name}/STO-3G, τ = {des_tau:.0e}, {ncores} cores, dead ranks each lose 3 executed tasks"
    );
    println!(
        "{:>10} {:>8} {:>14} {:>12} {:>12}",
        "dead", "ranks", "t_fock (s)", "stretch", "requeued"
    );
    let mut base = 0.0;
    let mut rows = Vec::new();
    let nranks = model
        .simulate_faulty(
            machine,
            ncores,
            StealConfig::paper(),
            None,
            &Recorder::disabled(),
        )
        .per_process
        .len();
    for dead in [0, 1, nranks / 8, nranks / 4] {
        let plan = (1..=dead).fold(FaultPlan::new(3), |pl, r| pl.kill(r, 3));
        let r = model.simulate_faulty(
            machine,
            ncores,
            StealConfig::paper(),
            (dead > 0).then_some(&plan),
            &Recorder::disabled(),
        );
        if dead == 0 {
            base = r.t_fock_max();
        }
        println!(
            "{:>9.1}% {:>8} {:>14.4} {:>11.2}x {:>12}",
            100.0 * dead as f64 / nranks as f64,
            nranks,
            r.t_fock_max(),
            r.t_fock_max() / base,
            r.tasks_requeued()
        );
        rows.push(SweepRow {
            config: format!("dead={dead}/{nranks}"),
            t_fock: r.t_fock_max(),
            load_balance: r.load_balance(),
            mbytes_per_proc: r.avg_mbytes(),
        });
    }

    if let Some(path) = opt_str("--json") {
        std::fs::write(&path, sweep_json("fault_sweep", &flake_name, ncores, &rows))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
