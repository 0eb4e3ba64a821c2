//! One-electron integrals: overlap S, kinetic T, and nuclear attraction V.
//! These form the core Hamiltonian H_core = T + V and the overlap matrix of
//! Algorithm 1 (precomputed once before the SCF loop).

use crate::boys::boys_fast;
use crate::hermite::{cart_components, hermite_r, E1d, RScratch};
use crate::spherical::{ncart, transform_pair};
use chem::shells::{BasisInstance, Shell};
use chem::Molecule;

/// Shell-pair overlap block `[na][nb]` (spherical):
/// S_ab = E₀^x E₀^y E₀^z (π/p)^{3/2}, contracted over primitives.
pub fn overlap_pair(a: &Shell, b: &Shell) -> Vec<f64> {
    let (la, lb) = (a.l as usize, b.l as usize);
    let comps_a = cart_components(a.l);
    let comps_b = cart_components(b.l);
    let ab = a.center - b.center;
    let mut cart = vec![0.0; ncart(a.l) * ncart(b.l)];
    for (&ea, &ca) in a.exps.iter().zip(a.coefs.iter()) {
        for (&eb, &cb) in b.exps.iter().zip(b.coefs.iter()) {
            let p = ea + eb;
            let s = (std::f64::consts::PI / p).powf(1.5);
            let e: [E1d; 3] = [
                E1d::new(la, lb, ea, eb, ab.x),
                E1d::new(la, lb, ea, eb, ab.y),
                E1d::new(la, lb, ea, eb, ab.z),
            ];
            let w = ca * cb * s;
            for (ka, &(ax, ay, az)) in comps_a.iter().enumerate() {
                for (kb, &(bx, by, bz)) in comps_b.iter().enumerate() {
                    cart[ka * comps_b.len() + kb] += w
                        * e[0].get(ax as usize, bx as usize, 0)
                        * e[1].get(ay as usize, by as usize, 0)
                        * e[2].get(az as usize, bz as usize, 0);
                }
            }
        }
    }
    transform_pair(cart, a.l, b.l)
}

/// Shell-pair kinetic-energy block `[na][nb]` (spherical).
pub fn kinetic_pair(a: &Shell, b: &Shell) -> Vec<f64> {
    // 1-D kinetic: t_ij = -2b² S_{i,j+2} + b(2j+1) S_{ij} − ½ j(j−1) S_{i,j−2};
    // T = t_x S_y S_z + S_x t_y S_z + S_x S_y t_z. The E tables are built
    // with lb+2 so the j+2 terms are available.
    let (la, lb) = (a.l as usize, b.l as usize);
    let comps_a = cart_components(a.l);
    let comps_b = cart_components(b.l);
    let ab = a.center - b.center;
    let mut cart = vec![0.0; ncart(a.l) * ncart(b.l)];
    for (&ea, &ca) in a.exps.iter().zip(a.coefs.iter()) {
        for (&eb, &cb) in b.exps.iter().zip(b.coefs.iter()) {
            let p = ea + eb;
            let sq = (std::f64::consts::PI / p).sqrt();
            let e: [E1d; 3] = [
                E1d::new(la, lb + 2, ea, eb, ab.x),
                E1d::new(la, lb + 2, ea, eb, ab.y),
                E1d::new(la, lb + 2, ea, eb, ab.z),
            ];
            let s1 = |axis: usize, i: usize, j: usize| sq * e[axis].get(i, j, 0);
            let t1 = |axis: usize, i: usize, j: usize| {
                let mut t =
                    -2.0 * eb * eb * s1(axis, i, j + 2) + eb * (2 * j + 1) as f64 * s1(axis, i, j);
                if j >= 2 {
                    t -= 0.5 * (j * (j - 1)) as f64 * s1(axis, i, j - 2);
                }
                t
            };
            let w = ca * cb;
            for (ka, &(ax, ay, az)) in comps_a.iter().enumerate() {
                for (kb, &(bx, by, bz)) in comps_b.iter().enumerate() {
                    let (ax, ay, az) = (ax as usize, ay as usize, az as usize);
                    let (bx, by, bz) = (bx as usize, by as usize, bz as usize);
                    let v = t1(0, ax, bx) * s1(1, ay, by) * s1(2, az, bz)
                        + s1(0, ax, bx) * t1(1, ay, by) * s1(2, az, bz)
                        + s1(0, ax, bx) * s1(1, ay, by) * t1(2, az, bz);
                    cart[ka * comps_b.len() + kb] += w * v;
                }
            }
        }
    }
    transform_pair(cart, a.l, b.l)
}

/// Shell-pair nuclear-attraction block `[na][nb]` (spherical):
/// V_ab = −Σ_C Z_C (2π/p) Σ_tuv E_tuv R_tuv(p, P−C).
pub fn nuclear_pair(a: &Shell, b: &Shell, molecule: &Molecule) -> Vec<f64> {
    let (la, lb) = (a.l as usize, b.l as usize);
    let l_total = la + lb;
    let comps_a = cart_components(a.l);
    let comps_b = cart_components(b.l);
    let ab = a.center - b.center;
    let mut cart = vec![0.0; ncart(a.l) * ncart(b.l)];
    let mut boys_buf = vec![0.0; l_total + 1];
    let mut r_scratch = RScratch::default();
    for (&ea, &ca) in a.exps.iter().zip(a.coefs.iter()) {
        for (&eb, &cb) in b.exps.iter().zip(b.coefs.iter()) {
            let p = ea + eb;
            let pc = (a.center * ea + b.center * eb) / p;
            let e: [E1d; 3] = [
                E1d::new(la, lb, ea, eb, ab.x),
                E1d::new(la, lb, ea, eb, ab.y),
                E1d::new(la, lb, ea, eb, ab.z),
            ];
            let pref = 2.0 * std::f64::consts::PI / p * ca * cb;
            for atom in &molecule.atoms {
                let pc_c = pc - atom.pos;
                boys_fast(l_total, p * pc_c.norm2(), &mut boys_buf);
                let r = hermite_r(l_total, p, pc_c, &boys_buf, &mut r_scratch);
                let z = atom.z as f64;
                for (ka, &(ax, ay, az)) in comps_a.iter().enumerate() {
                    for (kb, &(bx, by, bz)) in comps_b.iter().enumerate() {
                        let mut sum = 0.0;
                        for t in 0..=(ax + bx) as usize {
                            let ex = e[0].get(ax as usize, bx as usize, t);
                            if ex == 0.0 {
                                continue;
                            }
                            for u in 0..=(ay + by) as usize {
                                let exy = ex * e[1].get(ay as usize, by as usize, u);
                                if exy == 0.0 {
                                    continue;
                                }
                                for v in 0..=(az + bz) as usize {
                                    let e3 = exy * e[2].get(az as usize, bz as usize, v);
                                    if e3 != 0.0 {
                                        sum += e3 * r.get(t, u, v);
                                    }
                                }
                            }
                        }
                        cart[ka * comps_b.len() + kb] -= pref * z * sum;
                    }
                }
            }
        }
    }
    transform_pair(cart, a.l, b.l)
}

/// Assemble a full nbf × nbf matrix from a shell-pair kernel.
fn assemble<F>(basis: &BasisInstance, mut pair: F) -> Vec<f64>
where
    F: FnMut(&Shell, &Shell) -> Vec<f64>,
{
    let n = basis.nbf;
    let mut m = vec![0.0; n * n];
    for (si, a) in basis.shells.iter().enumerate() {
        for b in basis.shells.iter().skip(si) {
            let block = pair(a, b);
            let (na, nb) = (a.nfuncs(), b.nfuncs());
            for i in 0..na {
                for j in 0..nb {
                    let (gi, gj) = (a.bf_offset + i, b.bf_offset + j);
                    m[gi * n + gj] = block[i * nb + j];
                    m[gj * n + gi] = block[i * nb + j];
                }
            }
        }
    }
    m
}

/// Full overlap matrix (row-major, nbf × nbf).
pub fn overlap_matrix(basis: &BasisInstance) -> Vec<f64> {
    assemble(basis, overlap_pair)
}

/// Full kinetic-energy matrix (the reference the combined pass is
/// tested against).
#[cfg(test)]
fn kinetic_matrix(basis: &BasisInstance) -> Vec<f64> {
    assemble(basis, kinetic_pair)
}

/// Full nuclear-attraction matrix (test reference, like [`kinetic_matrix`]).
#[cfg(test)]
fn nuclear_matrix(basis: &BasisInstance) -> Vec<f64> {
    let mol = basis.molecule.clone();
    assemble(basis, |a, b| nuclear_pair(a, b, &mol))
}

/// Core Hamiltonian H_core = T + V, assembled one term at a time (test
/// reference for [`one_electron_matrices`]).
#[cfg(test)]
fn core_hamiltonian(basis: &BasisInstance) -> Vec<f64> {
    let t = kinetic_matrix(basis);
    let mut v = nuclear_matrix(basis);
    for (x, y) in v.iter_mut().zip(&t) {
        *x += y;
    }
    v
}

/// Overlap and core Hamiltonian in one shell-pair sweep: `(S, H)`.
///
/// The shared-setup path (one [`chem::BasisInstance`] serving many SCF
/// jobs) computes both matrices exactly once per cached problem, so they
/// are assembled together — one pass over the pair list instead of one
/// per term (S, T and V).
pub fn one_electron_matrices(basis: &BasisInstance) -> (Vec<f64>, Vec<f64>) {
    let mol = basis.molecule.clone();
    let n = basis.nbf;
    let mut s = vec![0.0; n * n];
    let mut h = vec![0.0; n * n];
    for (si, a) in basis.shells.iter().enumerate() {
        for b in basis.shells.iter().skip(si) {
            let sb = overlap_pair(a, b);
            let mut hb = kinetic_pair(a, b);
            for (x, y) in hb.iter_mut().zip(nuclear_pair(a, b, &mol)) {
                *x += y;
            }
            let (na, nb) = (a.nfuncs(), b.nfuncs());
            for i in 0..na {
                for j in 0..nb {
                    let (gi, gj) = (a.bf_offset + i, b.bf_offset + j);
                    s[gi * n + gj] = sb[i * nb + j];
                    s[gj * n + gi] = sb[i * nb + j];
                    h[gi * n + gj] = hb[i * nb + j];
                    h[gj * n + gi] = hb[i * nb + j];
                }
            }
        }
    }
    (s, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::basis::BasisSetKind;
    use chem::generators;

    #[test]
    fn overlap_diagonal_is_one_all_shell_types() {
        // Validates contraction normalization, component norms, and the
        // spherical transform in one shot (includes d shells via cc-pVDZ C).
        let basis = BasisInstance::new(generators::methane(), BasisSetKind::CcPvdz).unwrap();
        let s = overlap_matrix(&basis);
        let n = basis.nbf;
        for i in 0..n {
            assert!(
                (s[i * n + i] - 1.0).abs() < 1e-10,
                "S[{i}][{i}] = {}",
                s[i * n + i]
            );
        }
    }

    #[test]
    fn overlap_symmetric_and_bounded() {
        let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let s = overlap_matrix(&basis);
        let n = basis.nbf;
        for i in 0..n {
            for j in 0..n {
                assert!((s[i * n + j] - s[j * n + i]).abs() < 1e-13);
                assert!(s[i * n + j].abs() <= 1.0 + 1e-10, "Cauchy-Schwarz violated");
            }
        }
    }

    #[test]
    fn h2_sto3g_matches_szabo() {
        // Szabo & Ostlund Table 3.5-ish values for H2 at R = 1.4 a0, STO-3G:
        // S12 ≈ 0.6593, T11 ≈ 0.7600, V11 (both nuclei) ≈ -1.8804.
        let basis = BasisInstance::new(generators::hydrogen(1.4), BasisSetKind::Sto3g).unwrap();
        let s = overlap_matrix(&basis);
        let t = kinetic_matrix(&basis);
        let v = nuclear_matrix(&basis);
        assert!((s[1] - 0.6593).abs() < 1e-3, "S12 = {}", s[1]);
        assert!((t[0] - 0.7600).abs() < 1e-3, "T11 = {}", t[0]);
        assert!((v[0] - (-1.8804)).abs() < 2e-3, "V11 = {}", v[0]);
    }

    #[test]
    fn kinetic_positive_diagonal() {
        let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let t = kinetic_matrix(&basis);
        let n = basis.nbf;
        for i in 0..n {
            assert!(t[i * n + i] > 0.0);
        }
    }

    #[test]
    fn nuclear_attraction_is_negative_on_diagonal() {
        let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let v = nuclear_matrix(&basis);
        let n = basis.nbf;
        for i in 0..n {
            assert!(v[i * n + i] < 0.0);
        }
    }

    #[test]
    fn distant_shells_have_tiny_overlap() {
        let basis = BasisInstance::new(generators::linear_alkane(10), BasisSetKind::Sto3g).unwrap();
        // First and last shells are ~30 bohr apart.
        let first = &basis.shells[0];
        let last = basis.shells.last().unwrap();
        let block = overlap_pair(first, last);
        assert!(block.iter().all(|&x| x.abs() < 1e-8));
    }

    #[test]
    fn combined_one_electron_pass_matches_separate_assemblies() {
        let basis = BasisInstance::new(generators::water(), BasisSetKind::CcPvdz).unwrap();
        let (s, h) = one_electron_matrices(&basis);
        assert_eq!(s, overlap_matrix(&basis));
        assert_eq!(h, core_hamiltonian(&basis));
    }
}
