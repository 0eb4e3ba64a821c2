//! Per-quartet ERI cost model, calibrated by timing the real engine.
//!
//! The cluster-scale experiments (Tables III–VIII, Figure 2) are executed in
//! a discrete-event simulation, which needs the cost of each shell quartet
//! without computing billions of integrals inline. Quartet cost depends on
//! the *class* of the four shells — their angular momenta and contraction
//! depths — so we time one representative quartet per class with the real
//! McMurchie–Davidson engine and tabulate seconds per class.

use crate::batch::{BatchKernel, QuartetClass};
use crate::pairdata::ShellPair;
use chem::shells::{BasisInstance, Shell};
use std::time::Instant;

/// Identical quartets timed per calibration sample — matches the batched
/// production path's amortization of per-call overhead.
const CAL_BATCH: usize = 8;

/// A shell type: (angular momentum, number of primitives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShellType {
    pub l: u8,
    pub nprim: usize,
}

impl ShellType {
    fn nfuncs(self) -> usize {
        2 * self.l as usize + 1
    }
}

/// Calibrated cost table over quartets of shell types.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Distinct shell types appearing in the basis.
    pub types: Vec<ShellType>,
    /// Shell index → type index.
    pub type_of_shell: Vec<u16>,
    ntypes: usize,
    /// Seconds per quartet, dense [ntypes⁴].
    cost: Vec<f64>,
    /// Workload-average seconds per ERI (simple mean over classes weighted
    /// by integral count — recomputed against a real workload by Table V).
    pub t_int: f64,
}

impl CostModel {
    /// Calibrate against the shell types present in `basis`, timing each
    /// distinct class `reps` times (3 is plenty; timer noise averages out
    /// over the millions of quartets the simulator aggregates).
    pub fn calibrate(basis: &BasisInstance, reps: usize) -> CostModel {
        assert!(reps > 0);
        let mut types: Vec<ShellType> = Vec::new();
        let mut rep_shell: Vec<Shell> = Vec::new();
        let mut type_of_shell = Vec::with_capacity(basis.nshells());
        for sh in &basis.shells {
            let ty = ShellType {
                l: sh.l,
                nprim: sh.nprim(),
            };
            let idx = match types.iter().position(|&t| t == ty) {
                Some(i) => i,
                None => {
                    types.push(ty);
                    // Re-centre the representative near the origin so the
                    // calibration quartets are "live" (no screening decay —
                    // cost is geometry-independent in this engine anyway).
                    let mut s = sh.clone();
                    s.center = chem::Vec3::new(0.1 * types.len() as f64, 0.05, -0.02);
                    rep_shell.push(s);
                    types.len() - 1
                }
            };
            type_of_shell.push(idx as u16);
        }
        let nt = types.len();
        let mut cost = vec![0.0f64; nt * nt * nt * nt];
        let mut nints = vec![0u64; nt * nt * nt * nt];
        let mut kernel = BatchKernel::new();
        let mut out = Vec::new();
        for a in 0..nt {
            for b in a..nt {
                for c in 0..nt {
                    for d in c..nt {
                        if (c, d) < (a, b) {
                            continue; // fill by bra/ket symmetry below
                        }
                        // Time the production path — pair data prebuilt and
                        // quartets evaluated through the class-batched
                        // kernel, as the builders run it (a small batch of
                        // identical quartets, so the per-chunk overhead
                        // amortizes the way real tasks do). Warm once, then
                        // take the minimum over repetitions — the estimator
                        // least sensitive to scheduler noise.
                        let bra = ShellPair::new(&rep_shell[a], &rep_shell[b]);
                        let ket = ShellPair::new(&rep_shell[c], &rep_shell[d]);
                        let class = QuartetClass::of(
                            rep_shell[a].l,
                            rep_shell[b].l,
                            rep_shell[c].l,
                            rep_shell[d].l,
                        );
                        let items = vec![(bra.view(false), ket.view(false)); CAL_BATCH];
                        kernel.eval(class, &items, &mut out);
                        let mut secs = f64::INFINITY;
                        for _ in 0..reps {
                            let start = Instant::now();
                            kernel.eval(class, &items, &mut out);
                            secs = secs.min(start.elapsed().as_secs_f64() / CAL_BATCH as f64);
                        }
                        let n = (types[a].nfuncs()
                            * types[b].nfuncs()
                            * types[c].nfuncs()
                            * types[d].nfuncs()) as u64;
                        for &(w, x, y, z) in &[
                            (a, b, c, d),
                            (b, a, c, d),
                            (a, b, d, c),
                            (b, a, d, c),
                            (c, d, a, b),
                            (d, c, a, b),
                            (c, d, b, a),
                            (d, c, b, a),
                        ] {
                            let k = ((w * nt + x) * nt + y) * nt + z;
                            cost[k] = secs;
                            nints[k] = n;
                        }
                    }
                }
            }
        }
        let t_int = weighted_tint(&cost, &nints);
        CostModel {
            types,
            type_of_shell,
            ntypes: nt,
            cost,
            t_int,
        }
    }

    /// Seconds to compute the quartet of the four given shells (by index).
    #[inline]
    pub fn quartet_cost(&self, a: usize, b: usize, c: usize, d: usize) -> f64 {
        self.cost[self.key(a, b, c, d)]
    }

    /// Seconds per quartet for explicit type indices (used by the
    /// class-bucketed prefix sums in the simulator).
    #[inline]
    pub fn cost_by_types(&self, ta: u16, tb: u16, tc: u16, td: u16) -> f64 {
        let nt = self.ntypes;
        self.cost[(((ta as usize) * nt + tb as usize) * nt + tc as usize) * nt + td as usize]
    }

    #[inline]
    fn key(&self, a: usize, b: usize, c: usize, d: usize) -> usize {
        let nt = self.ntypes;
        let (ta, tb, tc, td) = (
            self.type_of_shell[a] as usize,
            self.type_of_shell[b] as usize,
            self.type_of_shell[c] as usize,
            self.type_of_shell[d] as usize,
        );
        ((ta * nt + tb) * nt + tc) * nt + td
    }

    pub fn ntypes(&self) -> usize {
        self.ntypes
    }
}

/// Integral-count-weighted mean seconds/ERI over classes.
fn weighted_tint(cost: &[f64], nints: &[u64]) -> f64 {
    let total_ints: u64 = nints.iter().sum();
    if total_ints == 0 {
        return 0.0;
    }
    let total_secs: f64 = cost.iter().sum();
    total_secs / total_ints as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::basis::BasisSetKind;
    use chem::generators;

    #[test]
    fn calibration_covers_all_shells() {
        let b = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let m = CostModel::calibrate(&b, 1);
        assert_eq!(m.type_of_shell.len(), b.nshells());
        // STO-3G water: types (s,3) and (p,3) only.
        assert_eq!(m.ntypes(), 2);
        for a in 0..b.nshells() {
            assert!(m.quartet_cost(a, a, a, a) > 0.0);
        }
    }

    #[test]
    fn costs_respect_quartet_symmetry() {
        let b = BasisInstance::new(generators::methane(), BasisSetKind::CcPvdz).unwrap();
        let m = CostModel::calibrate(&b, 1);
        let n = b.nshells();
        for (a, bb, c, d) in [(0usize, 1, 2, 3), (n - 1, 0, 2, 1)] {
            let x = m.quartet_cost(a, bb, c, d);
            assert_eq!(x, m.quartet_cost(bb, a, c, d));
            assert_eq!(x, m.quartet_cost(a, bb, d, c));
            assert_eq!(x, m.quartet_cost(c, d, a, bb));
        }
    }

    #[test]
    fn deeper_contractions_cost_more() {
        let b = BasisInstance::new(generators::methane(), BasisSetKind::CcPvdz).unwrap();
        let m = CostModel::calibrate(&b, 3);
        // Find a (s,9) shell (carbon core) and an (s,1) shell.
        let deep = b
            .shells
            .iter()
            .position(|s| s.l == 0 && s.nprim() == 9)
            .unwrap();
        let shallow = b
            .shells
            .iter()
            .position(|s| s.l == 0 && s.nprim() == 1)
            .unwrap();
        assert!(
            m.quartet_cost(deep, deep, deep, deep)
                > m.quartet_cost(shallow, shallow, shallow, shallow),
            "9-primitive quartets should dominate single-primitive ones"
        );
    }

    #[test]
    fn tint_positive() {
        let b = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let m = CostModel::calibrate(&b, 1);
        assert!(m.t_int > 0.0 && m.t_int < 1.0);
    }
}
