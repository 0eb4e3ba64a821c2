//! A basis set instantiated on a molecule: the normalized shell list that
//! the integral engine and the Fock-build algorithms consume.
//!
//! Normalization convention: each stored contraction coefficient already
//! includes the primitive normalization constant of the `(l,0,0)` Cartesian
//! component, and the contraction is scaled so the contracted `(l,0,0)`
//! function has unit self-overlap. Integral routines then apply the
//! per-component factor √((2l−1)!! / ((2lx−1)!!(2ly−1)!!(2lz−1)!!)) to other
//! Cartesian components.

use crate::basis::BasisSetKind;
use crate::geom::Vec3;
use crate::molecule::Molecule;
use std::ops::Range;

/// Double factorial (2n−1)!! with the convention (−1)!! = 1.
pub fn odd_double_factorial(l: i64) -> f64 {
    let n = 2 * l - 1;
    let mut r = 1.0;
    let mut k = n;
    while k > 1 {
        r *= k as f64;
        k -= 2;
    }
    r
}

/// One contracted, normalized shell centred on an atom.
#[derive(Debug, Clone, PartialEq)]
pub struct Shell {
    /// Index of the atom this shell sits on (into `BasisInstance::molecule`).
    pub atom: usize,
    /// Angular momentum (0 = s, 1 = p, 2 = d).
    pub l: u8,
    /// Shell centre in bohr (equals the atom position).
    pub center: Vec3,
    /// Primitive exponents.
    pub exps: Box<[f64]>,
    /// Normalized contraction coefficients (see module docs).
    pub coefs: Box<[f64]>,
    /// Index of this shell's first (spherical) basis function.
    pub bf_offset: usize,
}

impl Shell {
    /// Number of spherical basis functions (2l+1).
    #[inline]
    pub fn nfuncs(&self) -> usize {
        2 * self.l as usize + 1
    }

    /// Number of Cartesian components ((l+1)(l+2)/2).
    #[inline]
    pub fn ncart(&self) -> usize {
        let l = self.l as usize;
        (l + 1) * (l + 2) / 2
    }

    /// Number of primitives in the contraction.
    #[inline]
    pub fn nprim(&self) -> usize {
        self.exps.len()
    }

    /// Range of (spherical) basis-function indices carried by this shell.
    #[inline]
    pub fn bf_range(&self) -> Range<usize> {
        self.bf_offset..self.bf_offset + self.nfuncs()
    }

    /// Smallest primitive exponent — controls the spatial extent.
    pub fn min_exp(&self) -> f64 {
        self.exps.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// A basis set instantiated on a molecule.
#[derive(Debug, Clone)]
pub struct BasisInstance {
    pub molecule: Molecule,
    pub kind: BasisSetKind,
    pub shells: Vec<Shell>,
    /// Total number of (spherical) basis functions.
    pub nbf: usize,
}

impl BasisInstance {
    /// Place `kind` on every atom of `molecule`, normalizing every shell.
    /// Shells are laid out atom-by-atom in molecule order; use
    /// [`crate::reorder`] to obtain the paper's spatial ordering.
    pub fn new(molecule: Molecule, kind: BasisSetKind) -> Result<Self, String> {
        let mut shells = Vec::new();
        let mut offset = 0usize;
        for (ai, atom) in molecule.atoms.iter().enumerate() {
            for spec in kind.shells_for(atom.z)? {
                let coefs = normalize_contraction(spec.l, &spec.exps, &spec.coefs);
                let nfuncs = spec.nfuncs();
                shells.push(Shell {
                    atom: ai,
                    l: spec.l,
                    center: atom.pos,
                    exps: spec.exps.into_boxed_slice(),
                    coefs: coefs.into_boxed_slice(),
                    bf_offset: offset,
                });
                offset += nfuncs;
            }
        }
        Ok(BasisInstance {
            molecule,
            kind,
            shells,
            nbf: offset,
        })
    }

    #[inline]
    pub fn nshells(&self) -> usize {
        self.shells.len()
    }

    /// Largest angular momentum appearing in the basis.
    pub fn max_l(&self) -> u8 {
        self.shells.iter().map(|s| s.l).max().unwrap_or(0)
    }

    /// Reorder the shells by `perm` (new index `i` takes old shell
    /// `perm[i]`), recomputing basis-function offsets. Returns the new
    /// instance; `perm` must be a permutation of `0..nshells`.
    pub fn permuted(&self, perm: &[usize]) -> BasisInstance {
        assert_eq!(perm.len(), self.nshells(), "permutation length");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(!seen[p], "not a permutation");
            seen[p] = true;
        }
        let mut shells = Vec::with_capacity(perm.len());
        let mut offset = 0usize;
        for &old in perm {
            let mut s = self.shells[old].clone();
            s.bf_offset = offset;
            offset += s.nfuncs();
            shells.push(s);
        }
        BasisInstance {
            molecule: self.molecule.clone(),
            kind: self.kind,
            shells,
            nbf: offset,
        }
    }
}

/// Fold primitive (l,0,0) norms into the coefficients and scale the
/// contraction to unit self-overlap.
fn normalize_contraction(l: u8, exps: &[f64], coefs: &[f64]) -> Vec<f64> {
    let l = l as i64;
    let dfl = odd_double_factorial(l);
    let prim_norm = |a: f64| -> f64 {
        (2.0 * a / std::f64::consts::PI).powf(0.75) * (4.0 * a).powi(l as i32).sqrt() / dfl.sqrt()
    };
    let cn: Vec<f64> = exps
        .iter()
        .zip(coefs)
        .map(|(&a, &c)| c * prim_norm(a))
        .collect();
    // Contracted self-overlap of the (l,0,0) component.
    let mut s = 0.0;
    for (&ai, &ci) in exps.iter().zip(&cn) {
        for (&aj, &cj) in exps.iter().zip(&cn) {
            let p = ai + aj;
            let ov = dfl / (2.0 * p).powi(l as i32) * (std::f64::consts::PI / p).powf(1.5);
            s += ci * cj * ov;
        }
    }
    let scale = 1.0 / s.sqrt();
    cn.into_iter().map(|c| c * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn double_factorials() {
        assert_eq!(odd_double_factorial(0), 1.0); // (-1)!!
        assert_eq!(odd_double_factorial(1), 1.0); // 1!!
        assert_eq!(odd_double_factorial(2), 3.0); // 3!!
        assert_eq!(odd_double_factorial(3), 15.0); // 5!!
    }

    #[test]
    fn water_sto3g_layout() {
        let b = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        // O: s,s,p  H: s each → 5 shells, 7 functions.
        assert_eq!(b.nshells(), 5);
        assert_eq!(b.nbf, 7);
        assert_eq!(b.max_l(), 1);
    }

    #[test]
    fn alkane_ccpvdz_counts_match_table2() {
        let b = BasisInstance::new(generators::linear_alkane(100), BasisSetKind::CcPvdz).unwrap();
        assert_eq!(b.nshells(), 1206);
        assert_eq!(b.nbf, 2410);
        let b2 = BasisInstance::new(generators::graphene_flake(4), BasisSetKind::CcPvdz).unwrap();
        assert_eq!(b2.nshells(), 96 * 6 + 24 * 3);
        assert_eq!(b2.nbf, 96 * 14 + 24 * 5);
    }

    #[test]
    fn normalization_unit_self_overlap() {
        // For every shell, recompute the (l,0,0) contracted self-overlap
        // from the stored (already normalized) coefficients: must be 1.
        let b = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        for sh in &b.shells {
            let l = sh.l as i64;
            let dfl = odd_double_factorial(l);
            let mut s = 0.0;
            for (&ai, &ci) in sh.exps.iter().zip(sh.coefs.iter()) {
                for (&aj, &cj) in sh.exps.iter().zip(sh.coefs.iter()) {
                    let p = ai + aj;
                    let ov = dfl / (2.0 * p).powi(l as i32) * (std::f64::consts::PI / p).powf(1.5);
                    s += ci * cj * ov;
                }
            }
            assert!((s - 1.0).abs() < 1e-12, "self overlap {s}");
        }
    }

    #[test]
    fn permutation_preserves_functions() {
        let b = BasisInstance::new(generators::methane(), BasisSetKind::Sto3g).unwrap();
        let n = b.nshells();
        let perm: Vec<usize> = (0..n).rev().collect();
        let p = b.permuted(&perm);
        assert_eq!(p.nbf, b.nbf);
        // Offsets must tile 0..nbf exactly.
        let mut covered = vec![false; p.nbf];
        for s in &p.shells {
            for i in s.bf_range() {
                assert!(!covered[i]);
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    #[should_panic]
    fn bad_permutation_panics() {
        let b = BasisInstance::new(generators::methane(), BasisSetKind::Sto3g).unwrap();
        let n = b.nshells();
        b.permuted(&vec![0usize; n]);
    }
}
