//! Tables III and IV: Fock-matrix construction time and speedup versus
//! core count, GTFock vs the NWChem-style baseline, on the four test
//! molecules (simulated cluster execution with calibrated ERI costs).
//!
//! Table IV's speedup convention: both codes are normalized by the fastest
//! 12-core time (which, as in the paper, is usually the baseline's,
//! because its single-node path has no prefetch overhead), scaled so that
//! value is 12. `--trace <path>` dumps the first molecule's GTFock
//! timeline at 48 cores.

use bench::{PaperSweep, Run};

fn main() {
    let s = PaperSweep::run(
        "Tables III & IV: Fock construction time and speedup",
        &[Run::Gtfock, Run::Nwchem],
        Some((Run::Gtfock, " GTFock")),
    );
    println!("Table III: Fock matrix construction time (seconds)");
    s.grid(11, 2, |m, r, ci| m.at(r, ci).t_fock_max());
    println!();
    println!("Table IV: Speedup (normalized to the fastest 12-core time = 12)");
    s.grid(11, 1, |m, r, ci| {
        let t12 = |r| m.at(r, 0).t_fock_max();
        12.0 * t12(Run::Gtfock).min(t12(Run::Nwchem)) / m.at(r, ci).t_fock_max()
    });
    println!();
    println!("expected shape (paper): the baseline is competitive or faster at small core");
    println!("counts; GTFock scales further and wins at the largest core counts.");
    s.write_trace();
}
