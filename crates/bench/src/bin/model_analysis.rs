//! Section III-G analysis: evaluate the performance model (equations
//! 6–12) on a flake workload — L(p) = T_comm/T_comp, the isoefficiency
//! relation n_shells = O(√p), and the paper's "integral computation must
//! get ≈50× faster before communication can dominate" headroom estimate.

use bench::{banner, flag_full, opt_tau, prepare, test_molecules};
use distrt::MachineParams;
use fock_core::model::ModelParams;
use fock_core::sim_exec::GtfockSimModel;

fn main() {
    let full = flag_full();
    let tau = opt_tau(1e-10);
    banner("Section III-G: performance model analysis", full, tau);
    let machine = MachineParams::lonestar();
    let molecule = test_molecules(full).remove(0); // C96H24 (or scaled C24H12)
    let name = molecule.formula();
    eprintln!("preparing {name} …");
    let w = prepare(molecule, tau);
    let gt = GtfockSimModel::new(&w.prob, &w.cost);

    // Measure s (avg steal victims) at the paper's reference point.
    let ref_cores = if full { 3888 } else { 768 };
    let sim = gt.simulate(machine, ref_cores, true);
    let s = sim.avg_victims();
    // t_int over this workload: total calibrated seconds divided by the
    // ERI count (quartets × A⁴ functions per average quartet).
    let a = w.prob.nbf() as f64 / w.prob.nshells() as f64;
    let t_int = gt.total_cost() / (gt.total_quartets() as f64 * a.powi(4));
    let params = ModelParams::from_problem(&w.prob, t_int, machine.bandwidth, s);

    println!("{name}: model parameters");
    println!(
        "  t_int = {:.3} µs   A = {:.2}   B = {:.1}   q = {:.1}   s = {:.2}",
        params.t_int * 1e6,
        params.a_funcs,
        params.b_phi,
        params.q_overlap,
        params.s_steals
    );
    println!();
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "p(nodes)", "T_comp(s)", "T_comm(s)", "L(p)"
    );
    for &p in &[1.0f64, 4.0, 16.0, 64.0, 324.0, 1024.0, 4096.0] {
        println!(
            "{:>8} {:>14.3} {:>14.4} {:>10.4}",
            p,
            params.t_comp(p),
            params.t_comm(p),
            params.l_ratio(p)
        );
    }
    println!();
    println!(
        "L at maximum parallelism (p = n² = {:.0}): {:.3}",
        params.nshells * params.nshells,
        params.l_max_parallelism()
    );
    println!(
        "⇒ integral computation could be ≈{:.0}× faster before communication dominates",
        params.tint_headroom()
    );
    // Sensitivity: the headroom scales as 1/(1+s). Our literal row-scan
    // scheduler churns through more victims than the paper measured
    // (s = 3.8); with the improved max-queue policy (the paper's "smarter
    // scheduling" future work) the simulator lands on the paper's s.
    let smart = gt.simulate(
        machine,
        ref_cores,
        fock_core::sim_exec::StealConfig {
            enabled: true,
            policy: fock_core::sim_exec::VictimPolicy::MaxQueue,
            fraction: 0.5,
        },
    );
    let mut p2 = params;
    p2.s_steals = smart.avg_victims();
    println!(
        "   with the improved steal policy (s = {:.1}): ≈{:.0}× headroom",
        p2.s_steals,
        p2.tint_headroom()
    );
    println!("(paper's estimate for C96H24 on Lonestar, s = 3.8: ≈50×)");
    println!();
    println!("isoefficiency check: holding L constant requires n_shells ∝ √p:");
    let p0 = 64.0;
    for &p in &[256.0, 1024.0, 4096.0] {
        println!(
            "  p {p:>6.0}: n_shells must grow to {:.0} (from {:.0} at p = {p0:.0})",
            params.isoefficiency_shells(p0, p),
            params.nshells
        );
    }
}
