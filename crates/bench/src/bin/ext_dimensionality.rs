//! Extension experiment: how molecular *dimensionality* drives the
//! computation/communication balance.
//!
//! The paper contrasts 1-D alkanes with 2-D graphene flakes and predicts
//! (§III-G, eq. 12) that denser molecules — larger significant sets B —
//! are more computation-dominated. We extend the sweep with a quasi-1-D
//! aromatic family (acenes) and a genuinely 3-D family (H-terminated
//! diamondoids), at comparable shell counts, and report: screening
//! survival, B and q, t_int-weighted work, simulated Fock time at the
//! paper's largest scale, the model's L(p), and the t_int headroom.

use bench::{banner, flag_full, opt_tau, prepare};
use chem::generators;
use distrt::MachineParams;
use fock_core::model::ModelParams;
use fock_core::sim_exec::GtfockSimModel;

fn main() {
    let full = flag_full();
    let tau = opt_tau(1e-10);
    banner(
        "Extension: dimensionality sweep (1-D chain → 3-D cluster)",
        full,
        tau,
    );
    let machine = MachineParams::lonestar();
    let cores = if full { 3888 } else { 768 };

    // Four families, sized for comparable shell counts.
    let molecules = if full {
        vec![
            ("1-D alkane", generators::linear_alkane(100)),
            ("quasi-1-D acene", generators::acene(75)),
            ("2-D flake", generators::graphene_flake(4)),
            ("3-D diamondoid", generators::diamondoid(9.0)),
        ]
    } else {
        vec![
            ("1-D alkane", generators::linear_alkane(25)),
            ("quasi-1-D acene", generators::acene(18)),
            ("2-D flake", generators::graphene_flake(2)),
            ("3-D diamondoid", generators::diamondoid(5.2)),
        ]
    };

    println!(
        "{:<18} {:<10} {:>7} {:>8} {:>8} {:>9} {:>11} {:>8} {:>9}",
        "family", "formula", "shells", "B", "B/n", "quartets", "T_fock(s)", "L(p)", "headroom"
    );
    for (family, molecule) in molecules {
        let name = molecule.formula();
        eprintln!("preparing {name} …");
        let w = prepare(molecule, tau);
        let model = GtfockSimModel::new(&w.prob, &w.cost);
        let r = model.simulate(machine, cores, true);
        let b = w.prob.screening.avg_phi();
        let a = w.prob.nbf() as f64 / w.prob.nshells() as f64;
        let t_int = model.total_cost() / (model.total_quartets() as f64 * a.powi(4));
        let params = ModelParams::from_problem(&w.prob, t_int, machine.bandwidth, r.avg_victims());
        let nodes = (cores / machine.cores_per_node).max(1) as f64;
        println!(
            "{:<18} {:<10} {:>7} {:>8.1} {:>8.3} {:>9.2e} {:>11.2} {:>8.4} {:>8.0}×",
            family,
            name,
            w.prob.nshells(),
            b,
            b / w.prob.nshells() as f64,
            model.total_quartets() as f64,
            r.t_fock_max(),
            params.l_ratio(nodes),
            params.tint_headroom()
        );
    }
    println!();
    println!("expected: B/n (screening survival) and the t_int headroom rise monotonically");
    println!("with dimensionality — denser electronic structure keeps the computation");
    println!("dominant, exactly the trend eq. (12) of the paper predicts.");
}
