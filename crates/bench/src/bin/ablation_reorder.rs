//! Ablation: the spatial shell reordering (Section III-D).
//!
//! Compares GTFock's simulated communication volume, one-sided call count
//! and Fock time with the paper's cell ordering versus a
//! locality-destroying interleaved ordering, at a fixed core count.
//! The reordering's benefit is fewer/larger GA transfers (contiguous Φ
//! runs) and more region overlap within a task block.

use bench::{banner, flag_full, opt_tau, test_molecules};
use chem::reorder::{shell_permutation, ShellOrdering};
use chem::shells::BasisInstance;
use chem::BasisSetKind;
use distrt::MachineParams;
use eri::{CostModel, Screening};
use fock_core::sim_exec::GtfockSimModel;
use fock_core::tasks::FockProblem;

fn main() {
    let full = flag_full();
    let tau = opt_tau(1e-10);
    banner("Ablation: spatial shell reordering on vs off", full, tau);
    let machine = MachineParams::lonestar();
    let cores = if full { 768 } else { 192 };

    println!(
        "{:<10} {:<14} {:>12} {:>12} {:>12} {:>8}",
        "Molecule", "ordering", "T_fock(s)", "MB/proc", "calls/proc", "l"
    );
    for molecule in test_molecules(full) {
        let name = molecule.formula();
        eprintln!("preparing {name} …");
        let basis = BasisInstance::new(molecule.clone(), BasisSetKind::CcPvdz).unwrap();
        let cost = CostModel::calibrate(&basis, 3);

        let mk = |ord: ShellOrdering| {
            FockProblem::new(molecule.clone(), BasisSetKind::CcPvdz, tau, ord).unwrap()
        };
        for (label, prob) in [
            ("natural", mk(ShellOrdering::Natural)),
            ("cells (paper)", mk(ShellOrdering::cells_default())),
            ("morton", mk(ShellOrdering::morton_default())),
            ("hilbert", mk(ShellOrdering::hilbert_default())),
            ("interleave", interleaved_problem(&molecule, tau)),
        ] {
            let model = GtfockSimModel::new(&prob, &cost);
            let r = model.simulate(machine, cores, true);
            println!(
                "{:<10} {:<14} {:>12.3} {:>12.1} {:>12.0} {:>8.3}",
                name,
                label,
                r.t_fock_max(),
                r.avg_mbytes(),
                r.avg_calls(),
                r.load_balance()
            );
        }
    }
    println!();
    println!("expected: the cell ordering needs fewer one-sided calls (contiguous runs)");
    println!("and less volume (overlapping Φ sets within a block) than the interleave.");
}

/// A problem whose shells are deliberately scattered: take the cell
/// ordering and interleave the first and second halves, so spatially
/// adjacent shells land far apart in index space.
fn interleaved_problem(molecule: &chem::Molecule, tau: f64) -> FockProblem {
    let basis = BasisInstance::new(molecule.clone(), BasisSetKind::CcPvdz).unwrap();
    let cells = shell_permutation(&basis, ShellOrdering::cells_default());
    let n = cells.len();
    let mut perm = Vec::with_capacity(n);
    for i in 0..n / 2 {
        perm.push(cells[i]);
        perm.push(cells[n / 2 + i]);
    }
    if n % 2 == 1 {
        perm.push(cells[n - 1]);
    }
    let permuted = basis.permuted(&perm);
    let screening = Screening::compute(&permuted, tau);
    FockProblem::from_parts(permuted, screening, tau)
}
