//! Density-weighted screening demo: incremental (ΔD) SCF vs plain full
//! builds on a linear alkane chain.
//!
//! Every iteration after the first computes G(ΔD) under the weighted
//! quartet test `Q_MN·Q_PQ·min(1, max|ΔD-block|) > τ`, so per-build ERI
//! work decays as the SCF converges while the converged energy stays
//! identical (well under 1e-8 Ha). Both runs start from the generalized
//! Wolfsberg–Helmholz guess — starting near the converged density keeps
//! ΔD small from the first incremental iteration, which is where the
//! weighted test earns its keep. Per-iteration quartet counts come
//! straight from [`ScfResult::reports`] — the same `BuildReport` contract
//! pinned by `tests/incremental_screening.rs`.
//!
//! Defaults to C14H30 (~13 min on one core); `--full` uses the C20H42
//! chain. `--tau <v>` overrides the screening tolerance (default 1e-13
//! here, tighter than the paper's 1e-10: each ΔD build may drop quartets
//! worth up to ~τ, and those errors accumulate across the run, so τ must
//! sit well below the 1e-10 convergence thresholds for the cheap late-ΔD
//! tail to be reachable at all). The savings grow with the chain —
//! longer chains carry relatively more near-threshold quartets for the
//! weighted test to drop: measured C6 ≈ 1.6×, C10 ≈ 1.9×, C14 ≈ 2.1×,
//! C20 ≳ 2×.

use bench::{banner, flag_full, opt_tau};
use chem::reorder::ShellOrdering;
use chem::{generators, BasisSetKind};
use fock_core::build::DENSITY_SKIPPED_COUNTER;
use fock_core::scf::{run_scf, ScfConfig, ScfGuess, ScfResult};
use obs::Recorder;
use std::time::Instant;

fn run(carbons: usize, tau: f64, incremental: bool, rec: &Recorder) -> ScfResult {
    let t0 = Instant::now();
    let r = run_scf(
        generators::linear_alkane(carbons),
        BasisSetKind::Sto3g,
        ScfConfig::builder()
            .incremental(incremental)
            .rebuild_every(0)
            .diis(true)
            .guess(ScfGuess::Gwh)
            .tau(tau)
            .e_tol(1e-10)
            .d_tol(1e-10)
            .max_iter(30)
            .ordering(ShellOrdering::cells_default())
            .recorder(rec.clone())
            .build(),
    )
    .expect("scf");
    eprintln!(
        "  {} run: E = {:.10} Ha, {} iterations (converged: {}) in {:.1}s",
        if incremental {
            "incremental"
        } else {
            "full       "
        },
        r.energy,
        r.iterations,
        r.converged,
        t0.elapsed().as_secs_f64()
    );
    r
}

/// Total quartets over iterations 2..converged (iterations 0/1 still
/// carry a near-full effective density in the incremental run).
fn tail_quartets(r: &ScfResult) -> u64 {
    r.reports.iter().skip(2).map(|x| x.total_quartets()).sum()
}

fn main() {
    let full = flag_full();
    let tau = opt_tau(1e-13);
    let carbons = if full { 20 } else { 14 };
    banner(
        "Incremental (ΔD) builds: density-weighted screening",
        full,
        tau,
    );
    println!(
        "molecule: C{}H{} (linear alkane), basis STO-3G, GWH guess, τ = {tau:.0e}",
        carbons,
        2 * carbons + 2
    );
    println!();

    let rec = Recorder::enabled();
    let base = run(carbons, tau, false, &Recorder::disabled());
    let inc = run(carbons, tau, true, &rec);
    println!();

    assert!(
        (base.energy - inc.energy).abs() < 1e-8,
        "incremental energy drifted: {} vs {}",
        base.energy,
        inc.energy
    );

    println!(
        "{:>4} {:>14} {:>14} {:>16} {:>10}",
        "iter", "full quartets", "ΔD quartets", "density-skipped", "ΔD/full"
    );
    for (it, rep) in inc.reports.iter().enumerate() {
        let fq = base
            .reports
            .get(it)
            .or_else(|| base.reports.last())
            .map(|x| x.total_quartets())
            .unwrap_or(0);
        println!(
            "{it:>4} {fq:>14} {:>14} {:>16} {:>9.1}%",
            rep.total_quartets(),
            rep.total_density_skipped(),
            100.0 * rep.total_quartets() as f64 / fq.max(1) as f64
        );
    }
    println!();

    let full_tail = tail_quartets(&base);
    let inc_tail = tail_quartets(&inc);
    println!(
        "iterations 2..converged: full driver {full_tail} quartets, incremental {inc_tail} quartets"
    );
    println!(
        "incremental evaluates {:.2}x fewer quartets at identical energy (|ΔE| = {:.1e} Ha)",
        full_tail as f64 / inc_tail as f64,
        (base.energy - inc.energy).abs()
    );
    println!(
        "recorder: {DENSITY_SKIPPED_COUNTER} = {}",
        rec.recording()
            .unwrap()
            .metrics()
            .counter(DENSITY_SKIPPED_COUNTER)
    );
}
