//! Figure 2: average computation time T_comp and average parallel overhead
//! T_ov = T_fock − T_comp versus core count, for GTFock and the
//! NWChem-style baseline on all four test molecules.
//!
//! Emits one series block per molecule (plain columns, ready to plot).
//! The paper's headline: T_comp is comparable between the codes, but
//! GTFock's overhead is roughly an order of magnitude lower, and the
//! baseline's overhead overtakes its computation time at large core
//! counts on the lighter problems. The figure's story is the baseline's
//! overhead, so `--trace <path>` dumps its timeline at 48 cores.

use bench::{PaperSweep, Run};

fn main() {
    let runs = [Run::Gtfock, Run::Nwchem];
    let trace = Some((Run::Nwchem, " NWChem-style"));
    let s = PaperSweep::run("Figure 2: T_comp vs parallel overhead T_ov", &runs, trace);
    for m in &s.series {
        println!("# {}", m.name);
        println!(" cores    GT-Tcomp(s)      GT-Tov(s)    NW-Tcomp(s)      NW-Tov(s)");
        let mut ratio = 0.0; // NW/GT overhead at the last (largest) core count
        for (ci, c) in s.cores.iter().enumerate() {
            let (g, n) = (m.at(Run::Gtfock, ci), m.at(Run::Nwchem, ci));
            let (gc, go, nc, no) = (g.t_comp_avg(), g.t_ov_avg(), n.t_comp_avg(), n.t_ov_avg());
            println!("{c:>6} {gc:>14.3} {go:>14.4} {nc:>14.3} {no:>14.4}");
            ratio = if go > 0.0 { no / go } else { f64::INFINITY };
        }
        let at = s.cores[s.cores.len() - 1];
        println!("# overhead ratio NW/GT at {at} cores: {ratio:.1}×\n");
    }
    println!("expected shape (paper): comparable T_comp; GTFock's T_ov about an order of");
    println!("magnitude lower; baseline overhead approaches/exceeds its T_comp at scale on");
    println!("the alkanes and the smaller flake.");
    s.write_trace();
}
