//! Ablation: victim-selection policy and steal granularity of the
//! work-stealing scheduler (the paper's §V names "smart distributed
//! dynamic scheduling algorithms" as future work).
//!
//! Compares the paper's row-scan/steal-half against random victims,
//! omniscient max-queue victims, and different steal fractions, on the
//! workload with the most irregular task costs (the long alkane).
//! `--json <path>` additionally writes the config → time/volume rows as a
//! machine-readable document (see `bench::sweep_json`).

use bench::{
    banner, flag_full, opt_str, opt_tau, prepare, scheduler_sweep_configs, sweep_json,
    test_molecules, SweepRow,
};
use distrt::MachineParams;
use fock_core::sim_exec::GtfockSimModel;

fn main() {
    let full = flag_full();
    let tau = opt_tau(1e-10);
    banner(
        "Ablation: work-stealing victim policy and granularity",
        full,
        tau,
    );
    let machine = MachineParams::lonestar();
    let cores = if full { 3888 } else { 384 };
    let molecule = test_molecules(full).remove(3); // longest alkane
    eprintln!("preparing {} …", molecule.formula());
    let w = prepare(molecule, tau);
    let model = GtfockSimModel::new(&w.prob, &w.cost);

    println!("molecule {}, {} cores\n", w.name, cores);
    println!(
        "{:<22} {:>10} {:>12} {:>8} {:>10} {:>10}",
        "policy", "fraction", "T_fock(s)", "l", "steals", "MB/proc"
    );
    let mut rows = Vec::new();
    for (name, cfg) in scheduler_sweep_configs() {
        let r = model.simulate(machine, cores, cfg);
        let steals: u64 = r.per_process.iter().map(|p| p.steals).sum();
        println!(
            "{:<22} {:>10} {:>12.3} {:>8.3} {:>10} {:>10.1}",
            name,
            if cfg.enabled {
                format!("{:.2}", cfg.fraction)
            } else {
                "—".into()
            },
            r.t_fock_max(),
            r.load_balance(),
            steals,
            r.avg_mbytes()
        );
        rows.push(SweepRow {
            config: name,
            t_fock: r.t_fock_max(),
            load_balance: r.load_balance(),
            mbytes_per_proc: r.avg_mbytes(),
        });
    }
    if let Some(path) = opt_str("--json") {
        std::fs::write(
            &path,
            sweep_json("ablation_scheduler", &w.name, cores, &rows),
        )
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
    println!();
    println!("expected: any stealing beats none; victim policy matters little when the");
    println!("static partition is already near-balanced (the paper's premise); stealing");
    println!("everything (fraction 1.0) causes re-steals; half is a good default.");
}
