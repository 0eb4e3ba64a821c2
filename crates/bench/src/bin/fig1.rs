//! Figure 1: map of the density-matrix elements required by (a) the single
//! task (300,:|600,:) and (b) the 50×50 task block
//! (300:350,:|600:650,:) for the C100H202 / cc-pVDZ problem.
//!
//! The paper's point: the block of 2500 tasks needs only ≈80× the elements
//! of one task — massive overlap between neighbouring tasks' regions after
//! the spatial reordering, which is why per-process bulk prefetch is cheap.
//!
//! Prints the element counts and an ASCII density map of the touched
//! region. With `--full` the exact paper indices are used; the default
//! scales molecule and indices down proportionally.

use bench::{banner, flag_full, opt_tau};
use chem::reorder::ShellOrdering;
use chem::{generators, BasisSetKind};
use fock_core::tasks::FockProblem;

/// Count D *elements* (basis-function pairs) touched by the task block
/// (rows, cols), and optionally render the shell-pair map.
///
/// `strips_only` counts just the (M,Φ(M)) and (N,Φ(N)) strips — the parts
/// the paper's Figure 1 plots; the full region additionally includes the
/// (Φ(rows),Φ(cols)) cross blocks the exchange updates touch.
fn region_elements(
    prob: &FockProblem,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    render: bool,
    strips_only: bool,
) -> u64 {
    let n = prob.nshells();
    let funcs: Vec<u64> = prob
        .basis
        .shells
        .iter()
        .map(|s| s.nfuncs() as u64)
        .collect();
    let mut marked = vec![false; n * n];
    let mark = |a: usize, b: usize, marked: &mut Vec<bool>| {
        marked[a * n + b] = true;
    };
    for m in rows.clone() {
        for &p in prob.phi(m) {
            mark(m, p as usize, &mut marked);
        }
    }
    for nn in cols.clone() {
        for &q in prob.phi(nn) {
            mark(nn, q as usize, &mut marked);
        }
    }
    if !strips_only {
        let phi_rows: Vec<usize> = {
            let mut seen = vec![false; n];
            for m in rows {
                for &p in prob.phi(m) {
                    seen[p as usize] = true;
                }
            }
            (0..n).filter(|&i| seen[i]).collect()
        };
        let phi_cols: Vec<usize> = {
            let mut seen = vec![false; n];
            for c in cols {
                for &q in prob.phi(c) {
                    seen[q as usize] = true;
                }
            }
            (0..n).filter(|&i| seen[i]).collect()
        };
        for &a in &phi_rows {
            for &b in &phi_cols {
                mark(a, b, &mut marked);
            }
        }
    }
    let mut elems = 0u64;
    for a in 0..n {
        for b in 0..n {
            if marked[a * n + b] {
                elems += funcs[a] * funcs[b];
            }
        }
    }
    if render {
        let cell = n.div_ceil(64);
        let dim = n.div_ceil(cell);
        for r in 0..dim {
            let line: String = (0..dim)
                .map(|c| {
                    let any = (r * cell..((r + 1) * cell).min(n))
                        .any(|a| (c * cell..((c + 1) * cell).min(n)).any(|b| marked[a * n + b]));
                    if any {
                        '#'
                    } else {
                        '·'
                    }
                })
                .collect();
            println!("{line}");
        }
    }
    elems
}

fn main() {
    let full = flag_full();
    let tau = opt_tau(1e-10);
    banner(
        "Figure 1: D elements required by one task vs a 50×50 task block",
        full,
        tau,
    );
    let molecule = if full {
        generators::linear_alkane(100)
    } else {
        generators::linear_alkane(20)
    };
    eprintln!("preparing {} …", molecule.formula());
    let prob = FockProblem::new(
        molecule,
        BasisSetKind::CcPvdz,
        tau,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    let n = prob.nshells();
    // Paper indices (shell 300, 600, block +50) scaled to the problem size.
    let scale = n as f64 / 1206.0;
    let (m0, n0) = ((300.0 * scale) as usize, (600.0 * scale) as usize);
    let blk = ((50.0 * scale) as usize).max(2);

    println!("(a) single task ({m0},:|{n0},:) — (M,Φ(M))∪(N,Φ(N)) strips, as the paper plots");
    let single = region_elements(&prob, m0..m0 + 1, n0..n0 + 1, true, true);
    println!("nz = {single}   (paper, full scale: 1055)\n");

    println!(
        "(b) task block ({m0}:{},:|{n0}:{},:)  — {} tasks",
        m0 + blk,
        n0 + blk,
        blk * blk
    );
    let block = region_elements(&prob, m0..m0 + blk, n0..n0 + blk, true, true);
    println!("nz = {block}\n");

    println!(
        "strip ratio: the {}-task block needs only {:.0}× the strip elements of one task",
        blk * blk,
        block as f64 / single as f64
    );
    let single_full = region_elements(&prob, m0..m0 + 1, n0..n0 + 1, false, false);
    let block_full = region_elements(&prob, m0..m0 + blk, n0..n0 + blk, false, false);
    println!(
        "full-region ratio (incl. exchange cross blocks): {:.1}× ({} → {})",
        block_full as f64 / single_full as f64,
        single_full,
        block_full
    );
    println!("(paper, full scale: 2500 tasks → ≈80×; perfect overlap would give 1×,");
    println!(" no overlap would give {}×)", blk * blk);
}
