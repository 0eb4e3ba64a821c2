//! Table V: average time per ERI (t_int), measured with the real Rust
//! McMurchie–Davidson engine on the paper's two representative molecules
//! (C24H12 — flake family, C10H22 — alkane family).
//!
//! Substitution note: the paper compares the ERD Fortran package against
//! NWChem's integral package; we have one engine, so we report (a) its
//! measured t_int over the screened workload — the path the builds run:
//! shared pair data, quartets grouped by class and flushed through the
//! batched kernel — and (b) the calibrated cost model's prediction — the
//! pair whose agreement the simulator relies on.
//! The paper's observation that alkanes have cheaper average ERIs (deep
//! s-contractions screened away, more primitive sparsity) should hold in
//! sign here too.

use bench::{banner, flag_full, opt_tau};
use chem::reorder::ShellOrdering;
use chem::shells::BasisInstance;
use chem::{generators, BasisSetKind};
use eri::{ClassBatcher, CostModel, EriEngine, QuartetClass};
use fock_core::tasks::FockProblem;
use std::time::Instant;

fn main() {
    let full = flag_full();
    let tau = opt_tau(1e-10);
    banner("Table V: average time per ERI (t_int)", full, tau);

    println!(
        "{:<10} {:>18} {:>16} {:>14} {:>14}",
        "Molecule", "Atoms/Shells/Funcs", "ERIs computed", "t_int meas.", "t_int model"
    );
    for molecule in [generators::graphene_flake(2), generators::linear_alkane(10)] {
        let name = molecule.formula();
        let natoms = molecule.natoms();
        let basis = BasisInstance::new(molecule.clone(), BasisSetKind::CcPvdz).unwrap();
        let cost = CostModel::calibrate(&basis, 3);
        let prob = FockProblem::new(
            molecule,
            BasisSetKind::CcPvdz,
            tau,
            ShellOrdering::cells_default(),
        )
        .unwrap();

        // Time a deterministic systematic sample of the unique significant
        // quartets (computing all ~10⁸ of them serially would take hours;
        // a stride-sampled 10⁵ subset estimates the mean to ≪1%): queue the
        // sample into the class planner, then time one flush — kernel time
        // only, chunked per class as in a build.
        let total_quartets = prob.screening.unique_significant_quartets();
        let target_sample = 100_000u64;
        let stride = (total_quartets / target_sample).max(1);
        let mut eng = EriEngine::new();
        let mut batcher = ClassBatcher::new();
        let n = prob.nshells();
        let sh = &prob.basis.shells;
        let mut model_secs = 0.0f64;
        let mut index = 0u64;
        for m in 0..n {
            for nn in 0..n {
                for &p in prob.phi(m) {
                    for &q in prob.phi(nn) {
                        let (p, q) = (p as usize, q as usize);
                        if !prob.quartet_selected(m, p, nn, q) {
                            continue;
                        }
                        index += 1;
                        if !index.is_multiple_of(stride) {
                            continue;
                        }
                        batcher.push(
                            QuartetClass::try_of(sh[m].l, sh[p].l, sh[nn].l, sh[q].l),
                            [m as u32, p as u32, nn as u32, q as u32],
                        );
                        model_secs += cost.quartet_cost(m, p, nn, q);
                    }
                }
            }
        }
        let mut eris = 0u64;
        let start = Instant::now();
        batcher.flush(&mut eng, prob.pairs(), |_, block| {
            eris += block.len() as u64
        });
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:<10} {:>18} {:>16} {:>11.3} µs {:>11.3} µs",
            name,
            format!("{}/{}/{}", natoms, prob.nshells(), prob.nbf()),
            eris,
            secs / eris as f64 * 1e6,
            model_secs / eris as f64 * 1e6,
        );
        println!(
            "           (sampled {} of {} unique significant quartets)",
            index / stride,
            total_quartets
        );
    }
    println!();
    println!("paper reference: ERD 4.76/3.46 µs, NWChem 5.13/1.78 µs (C24H12/C10H22 order);");
    println!("absolute values differ (different hardware & engine), the flake-vs-alkane");
    println!("ordering and the measured-vs-model agreement are the reproduced observables.");
}
