//! Table VIII: load-balance ratio l = T_fock,max / T_fock,avg for the four
//! test molecules across core counts (GTFock with work stealing).
//! A value of 1.000 is perfect balance; the paper reports ≤ ~1.1
//! everywhere. `--trace <path>` dumps the first molecule's timeline at 48
//! cores (task, steal, prefetch/flush events in simulated time).

use bench::{PaperSweep, Run};

fn main() {
    let s = PaperSweep::run(
        "Table VIII: load balance ratio l = T_fock,max / T_fock,avg",
        &[Run::Gtfock],
        Some((Run::Gtfock, "")),
    );
    s.grid(10, 3, |m, r, ci| m.at(r, ci).load_balance());
    println!();
    println!("expected shape (paper): all entries close to 1.0 — the static partition plus");
    println!("work stealing keeps the computation well balanced at every scale.");
    s.write_trace();
}
