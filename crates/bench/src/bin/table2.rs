//! Table II: the test molecules — atoms, shells, basis functions, and
//! unique significant shell quartets after Cauchy–Schwarz screening at
//! τ = 10⁻¹⁰ with cc-pVDZ.
//!
//! With `--full`, the shell and function counts must match the paper
//! exactly (e.g. C100H202 → 1206 shells / 2410 functions); quartet counts
//! depend on the generated geometries and should match to within a few
//! percent.

use bench::{banner, flag_full, opt_tau, prepare, test_molecules};

fn main() {
    let full = flag_full();
    let tau = opt_tau(1e-10);
    banner("Table II: Test molecules", full, tau);

    println!(
        "{:<12} {:>7} {:>8} {:>10} {:>22}",
        "Molecule", "Atoms", "Shells", "Functions", "Unique Shell Quartets"
    );
    for molecule in test_molecules(full) {
        let atoms = molecule.natoms();
        let w = prepare(molecule, tau);
        println!(
            "{:<12} {:>7} {:>8} {:>10} {:>22}",
            w.name,
            atoms,
            w.prob.nshells(),
            w.prob.nbf(),
            w.prob.screening.unique_significant_quartets()
        );
    }
    if full {
        println!();
        println!("paper reference (shells/functions): C96H24 648/1464, C150H30 990/2250,");
        println!("                                     C100H202 1206/2410, C144H290 1734/3466");
    }
}
