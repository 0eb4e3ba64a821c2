//! Molecules as collections of point nuclei (coordinates in bohr).

use crate::element;
use crate::geom::Vec3;
use std::collections::BTreeMap;
use std::fmt;

/// One nucleus: an atomic number and a position in bohr.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    pub z: u32,
    pub pos: Vec3,
}

/// A molecule: an ordered list of atoms.
///
/// Ordering matters downstream — basis shells are laid out atom-by-atom — but
/// any ordering is chemically valid; the shell [`crate::reorder`] module
/// re-sorts shells spatially without touching the molecule itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Molecule {
    pub atoms: Vec<Atom>,
}

impl Molecule {
    pub fn new(atoms: Vec<Atom>) -> Self {
        Molecule { atoms }
    }

    pub fn natoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total electron count of the neutral molecule.
    pub fn nelectrons(&self) -> usize {
        self.atoms.iter().map(|a| a.z as usize).sum()
    }

    /// Number of doubly occupied orbitals for a closed-shell molecule.
    /// Panics if the electron count is odd (the paper, like us, treats only
    /// closed shells).
    pub fn nocc(&self) -> usize {
        let ne = self.nelectrons();
        assert!(
            ne.is_multiple_of(2),
            "closed-shell molecule required (got {ne} electrons)"
        );
        ne / 2
    }

    /// Nuclear repulsion energy in hartree: Σ_{A<B} Z_A Z_B / R_AB.
    pub fn nuclear_repulsion(&self) -> f64 {
        let mut e = 0.0;
        for (i, a) in self.atoms.iter().enumerate() {
            for b in &self.atoms[i + 1..] {
                e += (a.z as f64) * (b.z as f64) / a.pos.dist(b.pos);
            }
        }
        e
    }

    /// Hill-system molecular formula, e.g. `C96H24`.
    pub fn formula(&self) -> String {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for a in &self.atoms {
            *counts.entry(a.z).or_insert(0) += 1;
        }
        let mut out = String::new();
        let push = |z: u32, n: usize, out: &mut String| {
            out.push_str(element::symbol(z).unwrap_or("?"));
            if n > 1 {
                out.push_str(&n.to_string());
            }
        };
        // Hill system: C first, H second, then alphabetical.
        if let Some(&n) = counts.get(&element::C) {
            push(element::C, n, &mut out);
        }
        if let Some(&n) = counts.get(&element::H) {
            push(element::H, n, &mut out);
        }
        let mut rest: Vec<(u32, usize)> = counts
            .iter()
            .filter(|(z, _)| **z != element::C && **z != element::H)
            .map(|(z, n)| (*z, *n))
            .collect();
        rest.sort_by_key(|(z, _)| element::symbol(*z).unwrap_or("?"));
        for (z, n) in rest {
            push(z, n, &mut out);
        }
        out
    }

    /// Axis-aligned bounding box over nuclei, `(min, max)` in bohr.
    pub fn bounding_box(&self) -> (Vec3, Vec3) {
        assert!(!self.atoms.is_empty(), "bounding box of empty molecule");
        let mut lo = self.atoms[0].pos;
        let mut hi = lo;
        for a in &self.atoms {
            lo.x = lo.x.min(a.pos.x);
            lo.y = lo.y.min(a.pos.y);
            lo.z = lo.z.min(a.pos.z);
            hi.x = hi.x.max(a.pos.x);
            hi.y = hi.y.max(a.pos.y);
            hi.z = hi.z.max(a.pos.z);
        }
        (lo, hi)
    }
}

impl fmt::Display for Molecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} atoms)", self.formula(), self.natoms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h2() -> Molecule {
        Molecule::new(vec![
            Atom {
                z: 1,
                pos: Vec3::ZERO,
            },
            Atom {
                z: 1,
                pos: Vec3::new(0.0, 0.0, 1.4),
            },
        ])
    }

    #[test]
    fn electron_counting() {
        let m = h2();
        assert_eq!(m.nelectrons(), 2);
        assert_eq!(m.nocc(), 1);
    }

    #[test]
    fn nuclear_repulsion_h2() {
        // Two protons at 1.4 bohr: E_nn = 1/1.4.
        assert!((h2().nuclear_repulsion() - 1.0 / 1.4).abs() < 1e-14);
    }

    #[test]
    fn formula_hill_system() {
        let m = Molecule::new(vec![
            Atom {
                z: 8,
                pos: Vec3::ZERO,
            },
            Atom {
                z: 1,
                pos: Vec3::new(1.0, 0.0, 0.0),
            },
            Atom {
                z: 1,
                pos: Vec3::new(0.0, 1.0, 0.0),
            },
            Atom {
                z: 6,
                pos: Vec3::new(0.0, 0.0, 1.0),
            },
        ]);
        assert_eq!(m.formula(), "CH2O");
    }

    #[test]
    fn bounding_box() {
        let m = h2();
        let (lo, hi) = m.bounding_box();
        assert_eq!(lo, Vec3::ZERO);
        assert_eq!(hi, Vec3::new(0.0, 0.0, 1.4));
    }

    #[test]
    #[should_panic]
    fn odd_electrons_panic_on_nocc() {
        let m = Molecule::new(vec![Atom {
            z: 1,
            pos: Vec3::ZERO,
        }]);
        m.nocc();
    }
}
