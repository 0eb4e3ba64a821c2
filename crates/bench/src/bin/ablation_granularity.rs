//! Ablation: task granularity of the centralized baseline.
//!
//! The paper argues NWChem's 5-atom-quartet tasks are a compromise: finer
//! tasks balance better but hammer the centralized queue and re-fetch D
//! blocks more often; coarser tasks starve large machines. This sweep
//! varies the chunk size (atom quartets per task) and reports time,
//! balance, queue accesses, and communication. `--json <path>` writes the
//! config → time/volume rows machine-readably (see `bench::sweep_json`).

use bench::{
    banner, flag_full, granularity_sweep_chunks, opt_str, opt_tau, prepare, sweep_json,
    test_molecules, SweepRow,
};
use distrt::MachineParams;
use fock_core::sim_exec::NwchemSimModel;

fn main() {
    let full = flag_full();
    let tau = opt_tau(1e-10);
    banner(
        "Ablation: baseline task granularity (atom quartets per task)",
        full,
        tau,
    );
    let machine = MachineParams::lonestar();
    let cores = if full { 1728 } else { 192 };
    let molecule = test_molecules(full).remove(2); // the long alkane
    eprintln!("preparing {} …", molecule.formula());
    let w = prepare(molecule, tau);
    let model = NwchemSimModel::new(&w.prob, &w.cost);

    println!("molecule {}, {} cores", w.name, cores);
    println!(
        "{:>7} {:>12} {:>8} {:>12} {:>12} {:>12}",
        "chunk", "T_fock(s)", "l", "tasks", "MB/proc", "calls/proc"
    );
    let mut rows = Vec::new();
    for chunk in granularity_sweep_chunks() {
        let r = model.simulate(machine, cores, chunk);
        println!(
            "{:>7} {:>12.3} {:>8.3} {:>12} {:>12.1} {:>12.0}",
            chunk,
            r.t_fock_max(),
            r.load_balance(),
            model.total_tasks(chunk),
            r.avg_mbytes(),
            r.avg_calls()
        );
        rows.push(SweepRow {
            config: format!("chunk={chunk}"),
            t_fock: r.t_fock_max(),
            load_balance: r.load_balance(),
            mbytes_per_proc: r.avg_mbytes(),
        });
    }
    if let Some(path) = opt_str("--json") {
        std::fs::write(
            &path,
            sweep_json("ablation_granularity", &w.name, cores, &rows),
        )
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
    println!();
    println!("expected: small chunks → more queue traffic (serialized GetTask) but better");
    println!("balance; large chunks → fewer tasks than keeps all processes busy.");
}
