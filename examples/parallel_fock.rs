//! Parallel Fock construction on a graphene flake: the paper's algorithm
//! (static partitioning + prefetched buffers + work stealing) against the
//! NWChem-style centralized-queue baseline, on real threads.
//!
//! Both produce the identical Fock matrix; the point of this example is
//! the *bookkeeping* the paper measures — communication volume, one-sided
//! call counts, steals, and load balance.
//!
//! Run with: `cargo run --release --example parallel_fock [flake_size]`

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::{generators, BasisSetKind};
use fock_repro::core::gtfock::{build_fock_gtfock, GtfockConfig};
use fock_repro::core::nwchem::{build_fock_nwchem, NwchemConfig};
use fock_repro::core::tasks::FockProblem;
use fock_repro::distrt::ProcessGrid;

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let molecule = generators::graphene_flake(size);
    println!("molecule: {molecule} (hexagonal graphene flake, n={size})");
    let prob = FockProblem::new(
        molecule,
        BasisSetKind::Sto3g,
        1e-10,
        ShellOrdering::cells_default(),
    )
    .expect("problem setup");
    println!(
        "shells: {}   functions: {}   unique significant quartets: {}\n",
        prob.nshells(),
        prob.nbf(),
        prob.screening.unique_significant_quartets()
    );

    // A superposition-of-atomic-densities-like guess: decaying off-diagonal.
    let nbf = prob.nbf();
    let mut d = vec![0.0; nbf * nbf];
    for i in 0..nbf {
        for j in 0..nbf {
            d[i * nbf + j] = 0.5 / (1.0 + (i as f64 - j as f64).powi(2));
        }
    }

    let grid = ProcessGrid::new(2, 2);
    println!(
        "== GTFock (grid {}x{}, work stealing on) ==",
        grid.prow, grid.pcol
    );
    let t0 = std::time::Instant::now();
    let (g1, rep) = build_fock_gtfock(
        &prob,
        &d,
        GtfockConfig {
            grid,
            steal: true.into(),
            ..GtfockConfig::default()
        },
    );
    println!("wall time: {:.3} s", t0.elapsed().as_secs_f64());
    println!("quartets computed: {}", rep.total_quartets());
    println!("load balance l = {:.3}", rep.load_balance());
    for rank in 0..grid.nprocs() {
        println!(
            "  p{rank}: T_fock {:.3}s  T_comp {:.3}s  steals {}  victims {}  comm {:.2} MB / {} calls",
            rep.t_fock[rank],
            rep.t_comp[rank],
            rep.steals[rank],
            rep.victims[rank],
            rep.comm[rank].total_bytes() as f64 / 1e6,
            rep.comm[rank].total_calls(),
        );
    }

    println!("\n== NWChem-style baseline (4 processes, centralized queue) ==");
    let t0 = std::time::Instant::now();
    let (g2, rep2) = build_fock_nwchem(
        &prob,
        &d,
        NwchemConfig {
            nprocs: 4,
            chunk: 5,
        },
    );
    println!("wall time: {:.3} s", t0.elapsed().as_secs_f64());
    println!("quartets computed: {}", rep2.total_quartets());
    println!("queue accesses: {}", rep2.queue_accesses);
    for rank in 0..4 {
        println!(
            "  p{rank}: T_fock {:.3}s  T_comp {:.3}s  comm {:.2} MB / {} calls",
            rep2.t_fock[rank],
            rep2.t_comp[rank],
            rep2.comm[rank].total_bytes() as f64 / 1e6,
            rep2.comm[rank].total_calls(),
        );
    }

    let max_diff = g1
        .iter()
        .zip(&g2)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nmax |F_gtfock − F_nwchem| = {max_diff:.3e}  (identical algorithms output)");
    assert!(max_diff < 1e-9, "algorithms disagree!");
}
