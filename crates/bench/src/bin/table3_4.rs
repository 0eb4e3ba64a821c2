//! Tables III and IV: Fock-matrix construction time and speedup versus
//! core count, GTFock vs the NWChem-style baseline, on the four test
//! molecules (simulated cluster execution with calibrated ERI costs).
//!
//! Table IV's speedup convention: both codes are normalized by the fastest
//! 12-core time (which, as in the paper, is usually the baseline's,
//! because its single-node path has no prefetch overhead), scaled so that
//! value is 12.

use bench::{banner, core_counts, flag_full, opt_tau, opt_trace, prepare_all};
use distrt::MachineParams;
use fock_core::sim_exec::{GtfockSimModel, NwchemSimModel, StealConfig};
use obs::Recorder;

fn main() {
    let full = flag_full();
    let tau = opt_tau();
    let trace = opt_trace();
    banner("Tables III & IV: Fock construction time and speedup", full);
    let machine = MachineParams::lonestar();
    let cores = core_counts(full);
    let workloads = prepare_all(full, tau);

    let mut rows: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for w in &workloads {
        eprintln!("simulating {} …", w.name);
        let gt = GtfockSimModel::new(&w.prob, &w.cost);
        let nw = NwchemSimModel::new(&w.prob, &w.cost);
        let times: Vec<(f64, f64)> = cores
            .iter()
            .map(|&c| {
                let g = gt.simulate(machine, c, true);
                let n = nw.simulate(machine, c, 5);
                (g.t_fock_max(), n.t_fock_max())
            })
            .collect();
        rows.push((w.name.clone(), times));
    }

    println!("Table III: Fock matrix construction time (seconds)");
    print!("{:>6}", "Cores");
    for (name, _) in &rows {
        print!(" {:>11} {:>11}", format!("{name}-GT"), format!("{name}-NW"));
    }
    println!();
    for (ci, &c) in cores.iter().enumerate() {
        print!("{c:>6}");
        for (_, times) in &rows {
            print!(" {:>11.2} {:>11.2}", times[ci].0, times[ci].1);
        }
        println!();
    }

    println!();
    println!("Table IV: Speedup (normalized to the fastest 12-core time = 12)");
    print!("{:>6}", "Cores");
    for (name, _) in &rows {
        print!(" {:>11} {:>11}", format!("{name}-GT"), format!("{name}-NW"));
    }
    println!();
    for (ci, &c) in cores.iter().enumerate() {
        print!("{c:>6}");
        for (_, times) in &rows {
            let base = times[0].0.min(times[0].1);
            print!(
                " {:>11.1} {:>11.1}",
                12.0 * base / times[ci].0,
                12.0 * base / times[ci].1
            );
        }
        println!();
    }
    println!();
    println!("expected shape (paper): the baseline is competitive or faster at small core");
    println!("counts; GTFock scales further and wins at the largest core counts.");

    if let Some(path) = trace {
        // Re-run the first workload's GTFock model at 48 cores with
        // telemetry on and dump the per-process timeline as version-1 obs
        // JSON (same plumbing as table8).
        let rec = Recorder::enabled();
        let cores = 48;
        let w = &workloads[0];
        let gt = GtfockSimModel::new(&w.prob, &w.cost);
        gt.simulate_faulty(machine, cores, StealConfig::paper(), None, &rec);
        let recording = rec.recording().expect("recorder was enabled");
        if let Err(e) = std::fs::write(&path, recording.to_json()) {
            eprintln!("error: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!();
        println!(
            "trace: {} events across {} processes ({} GTFock @ {cores} cores) -> {path}",
            recording.total_events(),
            recording.nworkers(),
            w.name
        );
    }
}
