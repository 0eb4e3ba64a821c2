//! Ablation: the work-stealing scheduler (Section III-F).
//!
//! Simulates GTFock with stealing enabled vs disabled (static partition
//! only) across core counts, reporting T_fock and the load-balance ratio.
//! The static partition alone is "reasonably" balanced (the paper's
//! premise); stealing removes the residual imbalance, most visibly on the
//! alkanes where screening makes task costs uneven.

use bench::{PaperSweep, Run};

fn main() {
    let runs = [Run::Gtfock, Run::GtfockStatic];
    let s = PaperSweep::run("Ablation: work stealing on vs off", &runs, None);
    for m in &s.series {
        println!("# {}", m.name);
        println!(" cores   T_fock steal        l  T_fock static        l       gain");
        for (ci, c) in s.cores.iter().enumerate() {
            let (on, off) = (m.at(Run::Gtfock, ci), m.at(Run::GtfockStatic, ci));
            let (t_on, t_off) = (on.t_fock_max(), off.t_fock_max());
            let (l_on, l_off) = (on.load_balance(), off.load_balance());
            let gain = 100.0 * (t_off - t_on) / t_off;
            println!("{c:>6} {t_on:>14.3} {l_on:>8.3} {t_off:>14.3} {l_off:>8.3} {gain:>9.1}%");
        }
        println!();
    }
    println!("expected: stealing keeps l ≈ 1 at every scale; the static-only variant's");
    println!("imbalance (and T_fock) grows with core count, especially for the alkanes.");
}
