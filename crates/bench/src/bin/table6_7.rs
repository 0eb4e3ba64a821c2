//! Tables VI and VII: average Global-Arrays communication volume (MB) and
//! number of one-sided calls per process, GTFock vs the NWChem-style
//! baseline, across core counts (simulated execution; volumes include
//! local transfers, as in the paper's methodology).

use bench::{PaperSweep, Run};

fn main() {
    let s = PaperSweep::run(
        "Tables VI & VII: communication volume and call counts",
        &[Run::Gtfock, Run::Nwchem],
        None,
    );
    println!("Table VI: average communication volume (MB) per process");
    s.grid(11, 1, |m, r, ci| m.at(r, ci).avg_mbytes());
    println!();
    println!("Table VII: average number of one-sided calls per process");
    s.grid(11, 0, |m, r, ci| m.at(r, ci).avg_calls());
    println!();
    println!("expected shape (paper): GTFock moves less data in far fewer calls at every");
    println!("core count — bulk prefetch versus per-atom-quartet block traffic.");
}
