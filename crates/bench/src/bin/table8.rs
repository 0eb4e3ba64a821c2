//! Table VIII: load-balance ratio l = T_fock,max / T_fock,avg for the four
//! test molecules across core counts (GTFock with work stealing).
//! A value of 1.000 is perfect balance; the paper reports ≤ ~1.1
//! everywhere.

use bench::{banner, core_counts, flag_full, opt_tau, opt_trace, prepare_all};
use distrt::MachineParams;
use fock_core::sim_exec::{GtfockSimModel, StealConfig};
use obs::Recorder;

fn main() {
    let full = flag_full();
    let tau = opt_tau();
    let trace = opt_trace();
    banner(
        "Table VIII: load balance ratio l = T_fock,max / T_fock,avg",
        full,
    );
    let machine = MachineParams::lonestar();
    let cores = core_counts(full);
    let workloads = prepare_all(full, tau);

    print!("{:>6}", "Cores");
    for w in &workloads {
        print!(" {:>10}", w.name);
    }
    println!();
    let models: Vec<GtfockSimModel> = workloads
        .iter()
        .map(|w| GtfockSimModel::new(&w.prob, &w.cost))
        .collect();
    for &c in &cores {
        print!("{c:>6}");
        for m in &models {
            print!(" {:>10.3}", m.simulate(machine, c, true).load_balance());
        }
        println!();
    }
    println!();
    println!("expected shape (paper): all entries close to 1.0 — the static partition plus");
    println!("work stealing keeps the computation well balanced at every scale.");

    if let Some(path) = trace {
        // Re-run the first workload at 48 cores with telemetry on and dump
        // the full per-process timeline (task, steal, prefetch/flush
        // events with simulated timestamps) as version-1 obs JSON.
        let rec = Recorder::enabled();
        let cores = 48;
        models[0].simulate_faulty(machine, cores, StealConfig::paper(), None, &rec);
        let recording = rec.recording().expect("recorder was enabled");
        if let Err(e) = std::fs::write(&path, recording.to_json()) {
            eprintln!("error: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!();
        println!(
            "trace: {} events across {} processes ({} @ {cores} cores) -> {path}",
            recording.total_events(),
            recording.nworkers(),
            workloads[0].name
        );
    }
}
