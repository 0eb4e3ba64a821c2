//! Generators for the paper's test-molecule families.
//!
//! The evaluation in the paper uses two structural families (Table II):
//!
//! * **hexagonal graphene flakes** `C_{6n²}H_{6n}` — C24H12 (coronene, n=2),
//!   C96H24 (n=4), C150H30 (n=5): dense 2-D planar structures where most
//!   shell pairs survive screening;
//! * **linear alkanes** `C_kH_{2k+2}` — C10H22, C100H202, C144H290: 1-D
//!   chains where screening removes most quartets.
//!
//! The exact geometries used in the paper were not published; we construct
//! them from standard bond lengths (C–C aromatic 1.42 Å, C–C single 1.54 Å,
//! C–H 1.09 Å), which reproduces the same shell counts and screening
//! structure.

use crate::angstrom_to_bohr;
use crate::element::{C, H, HE, O};
use crate::geom::Vec3;
use crate::molecule::{Atom, Molecule};

const CC_AROMATIC: f64 = 1.42; // angstrom
const CC_SINGLE: f64 = 1.54;
const CH: f64 = 1.09;
/// Tetrahedral angle in radians.
const TETRA: f64 = 1.910_633_236_249_019; // acos(-1/3)

/// Hexagonal graphene flake of the coronene family: `C_{6n²}H_{6n}`.
///
/// `n = 1` is benzene, `n = 2` coronene (C24H12), `n = 4` C96H24,
/// `n = 5` C150H30 — exactly the flakes in the paper's Table II.
pub fn graphene_flake(n: usize) -> Molecule {
    assert!(n >= 1, "flake size must be >= 1");
    let m = n as i64 - 1;
    let mut rings = Vec::new();
    for i in -m..=m {
        for j in -m..=m {
            // Axial hex distance.
            let dist = (i.abs() + j.abs() + (i + j).abs()) / 2;
            if dist <= m {
                rings.push((i, j));
            }
        }
    }
    let mol = fused_ring_molecule(&rings);
    debug_assert_eq!(
        mol.atoms.iter().filter(|a| a.z == C).count(),
        6 * n * n,
        "flake carbon count"
    );
    debug_assert_eq!(
        mol.atoms.iter().filter(|a| a.z == H).count(),
        6 * n,
        "flake hydrogen count"
    );
    mol
}

/// Linear acene (fused benzene rings): `C_{4n+2}H_{2n+4}` — naphthalene
/// (n=2), anthracene (n=3), … A quasi-1-D *aromatic* family that sits
/// between the paper's alkanes (1-D, strong screening) and flakes (2-D,
/// weak screening); used by the dimensionality-extension experiment.
pub fn acene(n: usize) -> Molecule {
    assert!(n >= 1, "acene needs at least one ring");
    let rings: Vec<(i64, i64)> = (0..n as i64).map(|i| (i, 0)).collect();
    let mol = fused_ring_molecule(&rings);
    debug_assert_eq!(mol.atoms.iter().filter(|a| a.z == C).count(), 4 * n + 2);
    debug_assert_eq!(mol.atoms.iter().filter(|a| a.z == H).count(), 2 * n + 4);
    mol
}

/// Union of the vertices of fused hexagonal rings at the given triangular-
/// lattice ring centres, with every 2-coordinated carbon H-terminated.
fn fused_ring_molecule(ring_centers: &[(i64, i64)]) -> Molecule {
    let d = CC_AROMATIC;
    // Ring centres form a triangular lattice with spacing √3·d; rings at
    // adjacent lattice sites share an edge.
    let a1 = (3f64.sqrt() * d, 0.0);
    let a2 = (3f64.sqrt() * d * 0.5, 1.5 * d);
    let mut carbons: Vec<Vec3> = Vec::new();
    let key = |p: Vec3| ((p.x * 1e4).round() as i64, (p.y * 1e4).round() as i64);
    let mut seen = std::collections::HashSet::new();
    for &(i, j) in ring_centers {
        let cx = i as f64 * a1.0 + j as f64 * a2.0;
        let cy = i as f64 * a1.1 + j as f64 * a2.1;
        for k in 0..6 {
            let ang = std::f64::consts::FRAC_PI_3 * k as f64 + std::f64::consts::FRAC_PI_6;
            let v = Vec3::new(cx + d * ang.cos(), cy + d * ang.sin(), 0.0);
            if seen.insert(key(v)) {
                carbons.push(v);
            }
        }
    }

    // Terminate every edge carbon (exactly two carbon neighbours) with one H
    // pointing away from the average neighbour direction.
    let bond2 = (d * 1.1) * (d * 1.1);
    let mut atoms: Vec<Atom> = carbons
        .iter()
        .map(|&p| Atom {
            z: C,
            pos: p * angstrom_to_bohr(1.0),
        })
        .collect();
    let mut hydrogens = Vec::new();
    for (ci, &c) in carbons.iter().enumerate() {
        let mut nb = Vec3::ZERO;
        let mut deg = 0;
        for (cj, &o) in carbons.iter().enumerate() {
            if ci != cj && c.dist2(o) < bond2 {
                nb += o - c;
                deg += 1;
            }
        }
        if deg == 2 {
            let dir = (-nb).normalized();
            hydrogens.push(Atom {
                z: H,
                pos: (c + dir * CH) * angstrom_to_bohr(1.0),
            });
        }
    }
    atoms.extend(hydrogens);
    Molecule::new(atoms)
}

/// A hydrogen-terminated diamond-lattice carbon cluster (diamondoid) —
/// a genuinely 3-D CH family extending the paper's 1-D/2-D study.
///
/// Carbons are the diamond-cubic lattice sites within `radius` (Å) of a
/// bond midpoint; sites with fewer than two carbon neighbours are pruned,
/// and every remaining dangling tetrahedral direction is capped with H.
/// `diamondoid(2.3)` is adamantane, C10H16.
pub fn diamondoid(radius: f64) -> Molecule {
    assert!(radius > 1.0, "radius too small for any carbon");
    let a = 3.567; // diamond cubic lattice constant, angstrom
                   // Sublattice A at FCC points, sublattice B offset by (¼,¼,¼)·a.
                   // Centre the cluster on a bond midpoint (⅛,⅛,⅛)·a so it grows
                   // symmetrically.
    let center = Vec3::new(a / 2.0, a / 2.0, a / 2.0);
    let fcc = [
        (0.0, 0.0, 0.0),
        (0.0, 0.5, 0.5),
        (0.5, 0.0, 0.5),
        (0.5, 0.5, 0.0),
    ];
    let span = (radius / a).ceil() as i64 + 1;
    let mut carbons: Vec<(Vec3, bool)> = Vec::new(); // (position, sublattice A?)
    for ix in -span..=span {
        for iy in -span..=span {
            for iz in -span..=span {
                for &(fx, fy, fz) in &fcc {
                    let base = Vec3::new(
                        (ix as f64 + fx) * a,
                        (iy as f64 + fy) * a,
                        (iz as f64 + fz) * a,
                    );
                    for (off, is_a) in [(0.0, true), (0.25, false)] {
                        let p = base + Vec3::new(off * a, off * a, off * a);
                        if p.dist(center) <= radius {
                            carbons.push((p, is_a));
                        }
                    }
                }
            }
        }
    }
    // Prune under-coordinated carbons (CH3/CH2 tips are fine; lone or
    // singly-bonded sites are not chemically sensible here).
    let bond = a * 3f64.sqrt() / 4.0;
    let bond2 = (bond * 1.1) * (bond * 1.1);
    loop {
        let degrees: Vec<usize> = carbons
            .iter()
            .map(|&(p, _)| {
                carbons
                    .iter()
                    .filter(|&&(q, _)| q != p && p.dist2(q) < bond2)
                    .count()
            })
            .collect();
        let before = carbons.len();
        let kept: Vec<(Vec3, bool)> = carbons
            .iter()
            .zip(&degrees)
            .filter(|(_, &deg)| deg >= 2)
            .map(|(&c, _)| c)
            .collect();
        carbons = kept;
        if carbons.len() == before {
            break;
        }
    }
    assert!(
        !carbons.is_empty(),
        "radius {radius} Å leaves no carbon cluster"
    );

    // Heal surface vacancies: a missing lattice site bonded to two or more
    // selected carbons would make their capping hydrogens collide — such a
    // site chemically belongs to the cluster, so fill it with carbon and
    // repeat until stable.
    let s3 = 1.0 / 3f64.sqrt();
    let tet = [(s3, s3, s3), (s3, -s3, -s3), (-s3, s3, -s3), (-s3, -s3, s3)];
    loop {
        let mut wanted: Vec<(Vec3, bool, usize)> = Vec::new(); // (site, sublattice, #wanting)
        for &(p, is_a) in &carbons {
            for &(dx, dy, dz) in &tet {
                let sign = if is_a { 1.0 } else { -1.0 };
                let site = p + Vec3::new(sign * dx, sign * dy, sign * dz) * bond;
                if carbons.iter().any(|&(q, _)| q.dist2(site) < 0.01) {
                    continue;
                }
                match wanted.iter_mut().find(|(w, _, _)| w.dist2(site) < 0.01) {
                    Some(e) => e.2 += 1,
                    None => wanted.push((site, !is_a, 1)),
                }
            }
        }
        let fill: Vec<(Vec3, bool)> = wanted
            .iter()
            .filter(|(_, _, n)| *n >= 2)
            .map(|&(p, sa, _)| (p, sa))
            .collect();
        if fill.is_empty() {
            break;
        }
        carbons.extend(fill);
    }

    // Cap dangling tetrahedral directions with H.
    let s = 1.0 / 3f64.sqrt();
    let dirs_a = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)];
    let mut atoms: Vec<Atom> = carbons
        .iter()
        .map(|&(p, _)| Atom {
            z: C,
            pos: p * angstrom_to_bohr(1.0),
        })
        .collect();
    let mut hydrogens = Vec::new();
    for &(p, is_a) in &carbons {
        for &(dx, dy, dz) in &dirs_a {
            let sign = if is_a { 1.0 } else { -1.0 };
            let dir = Vec3::new(sign * dx, sign * dy, sign * dz);
            let neighbour = p + dir * bond;
            let occupied = carbons.iter().any(|&(q, _)| q.dist2(neighbour) < 0.01);
            if !occupied {
                hydrogens.push(Atom {
                    z: H,
                    pos: (p + dir * CH) * angstrom_to_bohr(1.0),
                });
            }
        }
    }
    atoms.extend(hydrogens);
    Molecule::new(atoms)
}

/// Linear (all-anti) alkane `C_kH_{2k+2}` with a zig-zag backbone in the
/// xz-plane and tetrahedral hydrogens.
pub fn linear_alkane(k: usize) -> Molecule {
    assert!(k >= 1, "alkane needs at least one carbon");
    let half = TETRA / 2.0;
    let dx = CC_SINGLE * half.sin();
    let dz = CC_SINGLE * half.cos();
    let carbons: Vec<Vec3> = (0..k)
        .map(|i| Vec3::new(i as f64 * dx, 0.0, if i % 2 == 0 { 0.0 } else { dz }))
        .collect();

    let mut atoms: Vec<Atom> = carbons
        .iter()
        .map(|&p| Atom {
            z: C,
            pos: p * angstrom_to_bohr(1.0),
        })
        .collect();

    let mut hydrogens: Vec<Atom> = Vec::new();
    let mut push_h = |pos: Vec3| {
        hydrogens.push(Atom {
            z: H,
            pos: pos * angstrom_to_bohr(1.0),
        });
    };
    for (i, &c) in carbons.iter().enumerate() {
        let prev = (i > 0).then(|| (carbons[i - 1] - c).normalized());
        let next = (i + 1 < k).then(|| (carbons[i + 1] - c).normalized());
        match (prev, next) {
            (Some(u1), Some(u2)) => {
                // Interior carbon: two H in the plane perpendicular to the
                // backbone plane, bisecting away from both neighbours.
                let w = (-(u1 + u2)).normalized();
                let y = Vec3::new(0.0, 1.0, 0.0);
                let (s, cth) = (half.sin(), half.cos());
                push_h(c + (w * cth + y * s) * CH);
                push_h(c + (w * cth - y * s) * CH);
            }
            (None, Some(u)) | (Some(u), None) => {
                // Terminal carbon: tripod of three H opposite the single C
                // neighbour, each at the tetrahedral angle from it.
                let e1 = pick_perp(u);
                let e2 = u.cross(e1).normalized();
                let (ct, st) = (TETRA.cos(), TETRA.sin());
                for t in 0..3 {
                    let phi = 2.0 * std::f64::consts::PI * t as f64 / 3.0;
                    let dir = u * ct + (e1 * phi.cos() + e2 * phi.sin()) * st;
                    push_h(c + dir * CH);
                }
            }
            (None, None) => {
                // Methane: regular tetrahedron.
                let s = CH / 3f64.sqrt();
                for &(sx, sy, sz) in &[
                    (1.0, 1.0, 1.0),
                    (1.0, -1.0, -1.0),
                    (-1.0, 1.0, -1.0),
                    (-1.0, -1.0, 1.0),
                ] {
                    push_h(c + Vec3::new(sx, sy, sz) * s);
                }
            }
        }
    }
    assert_eq!(hydrogens.len(), 2 * k + 2, "alkane hydrogen count");
    atoms.extend(hydrogens);
    Molecule::new(atoms)
}

/// Any unit vector perpendicular to `u`.
fn pick_perp(u: Vec3) -> Vec3 {
    let trial = if u.x.abs() < 0.9 {
        Vec3::new(1.0, 0.0, 0.0)
    } else {
        Vec3::new(0.0, 1.0, 0.0)
    };
    u.cross(trial).normalized()
}

/// H₂ at the given internuclear distance (bohr). `hydrogen(1.4)` is the
/// Szabo–Ostlund textbook geometry.
pub fn hydrogen(r_bohr: f64) -> Molecule {
    Molecule::new(vec![
        Atom {
            z: H,
            pos: Vec3::ZERO,
        },
        Atom {
            z: H,
            pos: Vec3::new(0.0, 0.0, r_bohr),
        },
    ])
}

/// A single helium atom (closed shell; used for absolute-energy tests).
pub fn helium() -> Molecule {
    Molecule::new(vec![Atom {
        z: HE,
        pos: Vec3::ZERO,
    }])
}

/// Water at the near-experimental geometry (r(OH)=0.9572 Å, ∠HOH=104.52°).
pub fn water() -> Molecule {
    let r = angstrom_to_bohr(0.9572);
    let half = (104.52f64 / 2.0).to_radians();
    Molecule::new(vec![
        Atom {
            z: O,
            pos: Vec3::ZERO,
        },
        Atom {
            z: H,
            pos: Vec3::new(r * half.sin(), 0.0, r * half.cos()),
        },
        Atom {
            z: H,
            pos: Vec3::new(-r * half.sin(), 0.0, r * half.cos()),
        },
    ])
}

/// Methane (CH₄) with standard bond length.
pub fn methane() -> Molecule {
    linear_alkane(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flake_formulas_match_paper() {
        assert_eq!(graphene_flake(1).formula(), "C6H6");
        assert_eq!(graphene_flake(2).formula(), "C24H12");
        assert_eq!(graphene_flake(4).formula(), "C96H24");
        assert_eq!(graphene_flake(5).formula(), "C150H30");
    }

    #[test]
    fn alkane_formulas_match_paper() {
        assert_eq!(linear_alkane(1).formula(), "CH4");
        assert_eq!(linear_alkane(10).formula(), "C10H22");
        assert_eq!(linear_alkane(100).formula(), "C100H202");
        assert_eq!(linear_alkane(144).formula(), "C144H290");
    }

    #[test]
    fn flake_bond_lengths_sane() {
        let m = graphene_flake(2);
        let cc = angstrom_to_bohr(CC_AROMATIC);
        // Every carbon has 2 or 3 carbon neighbours at the aromatic distance.
        for (i, a) in m.atoms.iter().enumerate().filter(|(_, a)| a.z == C) {
            let deg = m
                .atoms
                .iter()
                .enumerate()
                .filter(|(j, b)| *j != i && b.z == C && (a.pos.dist(b.pos) - cc).abs() < 0.01)
                .count();
            assert!(deg == 2 || deg == 3, "carbon {i} has degree {deg}");
        }
    }

    #[test]
    fn alkane_is_one_dimensional() {
        let m = linear_alkane(20);
        let (lo, hi) = m.bounding_box();
        let ext = hi - lo;
        assert!(
            ext.x > 5.0 * ext.y && ext.x > 5.0 * ext.z,
            "chain should extend along x"
        );
    }

    #[test]
    fn flake_is_planar() {
        let m = graphene_flake(3);
        assert_eq!(m.formula(), "C54H18");
        for a in &m.atoms {
            assert!(a.pos.z.abs() < 1e-10);
        }
    }

    #[test]
    fn alkane_ch_bond_lengths() {
        let m = linear_alkane(3);
        let ch = angstrom_to_bohr(CH);
        for hatom in m.atoms.iter().filter(|a| a.z == H) {
            let nearest = m
                .atoms
                .iter()
                .filter(|b| b.z == C)
                .map(|b| b.pos.dist(hatom.pos))
                .fold(f64::INFINITY, f64::min);
            assert!((nearest - ch).abs() < 1e-8, "C-H length {nearest}");
        }
    }

    #[test]
    fn no_atom_collisions() {
        for m in [graphene_flake(4), linear_alkane(30)] {
            for (i, a) in m.atoms.iter().enumerate() {
                for b in &m.atoms[i + 1..] {
                    assert!(
                        a.pos.dist(b.pos) > 1.0,
                        "atoms too close in {}",
                        m.formula()
                    );
                }
            }
        }
    }

    #[test]
    fn acene_formulas() {
        assert_eq!(acene(1).formula(), "C6H6");
        assert_eq!(acene(2).formula(), "C10H8"); // naphthalene
        assert_eq!(acene(3).formula(), "C14H10"); // anthracene
        assert_eq!(acene(10).formula(), "C42H24");
    }

    #[test]
    fn acene_is_quasi_one_dimensional() {
        let m = acene(8);
        let (lo, hi) = m.bounding_box();
        let ext = hi - lo;
        assert!(ext.x > 3.0 * ext.y, "should extend along x: {ext:?}");
        for a in &m.atoms {
            assert!(a.pos.z.abs() < 1e-10, "planar");
        }
    }

    #[test]
    fn diamondoid_adamantane() {
        let m = diamondoid(2.3);
        assert_eq!(m.formula(), "C10H16", "adamantane radius");
    }

    #[test]
    fn diamondoid_is_three_dimensional_and_saturated() {
        let m = diamondoid(4.0);
        let (lo, hi) = m.bounding_box();
        let ext = hi - lo;
        // Extent comparable in all three directions.
        let (mn, mx) = (ext.x.min(ext.y).min(ext.z), ext.x.max(ext.y).max(ext.z));
        assert!(mx < 2.0 * mn, "not 3-D: {ext:?}");
        // Every carbon has exactly 4 bonds (C or H) at sane lengths.
        let cc = angstrom_to_bohr(3.567 * 3f64.sqrt() / 4.0);
        let ch = angstrom_to_bohr(CH);
        for (i, a) in m.atoms.iter().enumerate().filter(|(_, a)| a.z == C) {
            let mut bonds = 0;
            for (j, b) in m.atoms.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d = a.pos.dist(b.pos);
                if (b.z == C && (d - cc).abs() < 0.1) || (b.z == H && (d - ch).abs() < 0.1) {
                    bonds += 1;
                }
            }
            assert_eq!(bonds, 4, "carbon {i} has {bonds} bonds");
        }
        // Even electron count (closed shell usable).
        assert!(m.nelectrons().is_multiple_of(2));
    }

    #[test]
    fn diamondoid_hydrogens_do_not_collide() {
        let m = diamondoid(4.0);
        for (i, a) in m.atoms.iter().enumerate() {
            for b in &m.atoms[i + 1..] {
                assert!(a.pos.dist(b.pos) > 1.5, "atoms too close");
            }
        }
    }

    #[test]
    fn water_geometry() {
        let w = water();
        assert_eq!(w.formula(), "H2O");
        let r = angstrom_to_bohr(0.9572);
        assert!((w.atoms[0].pos.dist(w.atoms[1].pos) - r).abs() < 1e-12);
        assert!((w.atoms[0].pos.dist(w.atoms[2].pos) - r).abs() < 1e-12);
    }
}
