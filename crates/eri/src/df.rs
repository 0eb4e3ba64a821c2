//! Density-fitting (RI) integral layer: auto-generated auxiliary bases,
//! 3-center `(P|μν)` and 2-center `(P|Q)` Coulomb integrals, and
//! Schwarz-style screening of aux×pair blocks.
//!
//! Both integral classes reuse the 4-center machinery unchanged through
//! the *dummy-shell trick*: a fictitious s shell δ with a single zero
//! exponent and unit coefficient is an exact representation of "nothing"
//! inside the McMurchie–Davidson recursions (its Gaussian-product
//! prefactor is exp(0) = 1, the combined exponent is the partner's own,
//! and the product centre is the partner's centre), so
//! `(P|μν) = (Pδ|μν)` and `(P|Q) = (Pδ|Qδ)` fall out of the production
//! kernel ([`crate::batch`], reached one quartet at a time through
//! [`EriEngine::quartet_views`] / [`EriEngine::quartet`]) with no new
//! kernels. The bra `(P,δ)` pair is an ordinary [`ShellPair`] (component
//! coefficients built once per aux shell), and the ket side streams the
//! problem's existing [`ShellPairData`] views, so screening and
//! primitive-pair pruning behave exactly as in the exact-exchange paths.

use crate::pairdata::{ShellPair, ShellPairData};
use crate::screening::Screening;
use crate::teints::EriEngine;
use chem::shells::{odd_double_factorial, BasisInstance, Shell};
use chem::Vec3;
use linalg::par;

/// Parameters of the auto-generated even-tempered auxiliary basis.
///
/// The fitting basis is built per atom from the orbital basis actually
/// instantiated on it: products of two primitives with exponents in
/// `[a_min, a_max]` have total exponents in `[2a_min, 2a_max]`, so for
/// each angular momentum the auxiliary exponents form a geometric ladder
/// with ratio `beta` covering exactly that range. Identity is bit-exact
/// (see [`AuxSpec::key_bits`]) so a spec can join cache keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuxSpec {
    /// Highest auxiliary angular momentum; capped at 2 (spherical d is
    /// the engine's maximum).
    pub max_l: u8,
    /// Even-tempered ratio between adjacent exponents on the ladder.
    pub beta: f64,
}

impl Default for AuxSpec {
    fn default() -> Self {
        AuxSpec {
            max_l: 2,
            beta: 2.0,
        }
    }
}

impl AuxSpec {
    /// Bit-exact identity of this spec, for cache keys.
    pub fn key_bits(&self) -> (u8, u64) {
        (self.max_l, self.beta.to_bits())
    }
}

/// An auxiliary basis instantiated on a molecule: normalized
/// single-primitive shells with their own spherical function offsets.
pub struct AuxBasis {
    pub shells: Vec<Shell>,
    /// Total auxiliary (spherical) function count.
    pub naux: usize,
}

/// Normalized contraction coefficient of a single primitive of angular
/// momentum `l` and exponent `a` under the shell normalization convention
/// (unit self-overlap of the `(l,0,0)` component).
fn normalized_single(l: u8, a: f64) -> f64 {
    let p = 2.0 * a;
    let ov = odd_double_factorial(l as i64) / (2.0 * p).powi(l as i32)
        * (std::f64::consts::PI / p).powf(1.5);
    1.0 / ov.sqrt()
}

impl AuxBasis {
    /// Generate the even-tempered auxiliary basis for `basis` under `spec`.
    ///
    /// Per atom: the primitive-exponent range `[a_min, a_max]` of its
    /// orbital shells maps to the product range `[2a_min, 2a_max]`; a
    /// geometric ladder with ratio `spec.beta` covers it. The s ladder is
    /// kept whole; each higher l drops one exponent off the steep
    /// (core-like) end, matching how product angular momenta arise from
    /// ever-more-diffuse combinations. Aux l runs to
    /// `min(spec.max_l, 2·l_atom + 1, 2)` where `l_atom` is the atom's
    /// highest orbital angular momentum — an s-only atom (H) still gets p
    /// fitting functions for its off-center products.
    pub fn generate(basis: &BasisInstance, spec: &AuxSpec) -> AuxBasis {
        let beta = spec.beta.max(1.2);
        let mut shells = Vec::new();
        let mut offset = 0usize;
        for (iatom, atom) in basis.molecule.atoms.iter().enumerate() {
            let mut a_min = f64::INFINITY;
            let mut a_max = 0.0f64;
            let mut l_atom = 0u8;
            for sh in basis.shells.iter().filter(|s| s.atom == iatom) {
                for &e in sh.exps.iter() {
                    a_min = a_min.min(e);
                    a_max = a_max.max(e);
                }
                l_atom = l_atom.max(sh.l);
            }
            if !a_min.is_finite() {
                continue; // no orbital shells on this atom
            }
            // Geometric ladder over the product-exponent range, steepest first.
            let (lo, hi) = (2.0 * a_min, 2.0 * a_max);
            let mut ladder = vec![hi];
            while *ladder.last().unwrap() > lo * beta {
                ladder.push(ladder.last().unwrap() / beta);
            }
            if ladder.len() > 1 || (hi - lo).abs() > 1e-12 {
                ladder.push(lo);
            }
            let l_top = spec.max_l.min(2 * l_atom + 1).min(2);
            for l in 0..=l_top {
                for &a in ladder.iter().skip(l as usize) {
                    shells.push(Shell {
                        atom: iatom,
                        l,
                        center: atom.pos,
                        exps: Box::new([a]),
                        coefs: Box::new([normalized_single(l, a)]),
                        bf_offset: offset,
                    });
                    offset += 2 * l as usize + 1;
                }
            }
        }
        AuxBasis {
            shells,
            naux: offset,
        }
    }

    pub fn nshells(&self) -> usize {
        self.shells.len()
    }
}

/// The zero-exponent dummy s shell: an exact no-op partner inside the
/// Gaussian product theorem (K_ab = 1, combined exponent = partner's,
/// product centre = partner's centre).
fn dummy_shell(center: Vec3, atom: usize) -> Shell {
    Shell {
        atom,
        l: 0,
        center,
        exps: Box::new([0.0]),
        coefs: Box::new([1.0]),
        bf_offset: 0,
    }
}

/// The 2-center Coulomb metric `J_PQ = (P|Q)`, dense row-major
/// `naux × naux`, exactly symmetric. Parallel over aux shells:
/// [`par::claim`] workers take shells `P` one at a time, and each writes
/// the blocks `(P|Q)`, `Q ≥ P`, into its own rows' upper triangle; the
/// lower triangle is mirrored after the join.
pub fn two_center(aux: &AuxBasis) -> Vec<f64> {
    let naux = aux.naux;
    let mut j = vec![0.0; naux * naux];
    // Each shell's rows, split off lazily rather than collected: no heap
    // block lands between the metric and the buffers allocated after it.
    let slabs = aux.shells.iter().scan(j.as_mut_slice(), |rest, p| {
        let (slab, tail) = std::mem::take(rest).split_at_mut(p.nfuncs() * naux);
        *rest = tail;
        Some(slab)
    });
    let scratch = || (EriEngine::new(), Vec::new());
    par::claim(
        par::threads(),
        slabs.enumerate(),
        scratch,
        |(eng, buf), (pi, slab)| {
            let p = &aux.shells[pi];
            let dp = dummy_shell(p.center, p.atom);
            for q in aux.shells.iter().skip(pi) {
                let dq = dummy_shell(q.center, q.atom);
                let nq = q.nfuncs();
                let len = eng.quartet(p, &dp, q, &dq, buf);
                // buf is [np][1][nq][1] row-major.
                for (a, vals) in buf[..len].chunks_exact(nq).enumerate() {
                    slab[a * naux + q.bf_offset..][..nq].copy_from_slice(vals);
                }
            }
        },
    );
    for r in 0..naux {
        for c in 0..r {
            j[r * naux + c] = j[c * naux + r];
        }
    }
    j
}

/// Per-aux-shell Schwarz factors `q_P = max_p √(P_p|P_p)` read off the
/// metric diagonal, for screening aux×pair blocks of the 3-center tensor:
/// `|(P|μν)| ≤ q_P · q_{μν}`.
pub fn aux_schwarz(aux: &AuxBasis, metric: &[f64]) -> Vec<f64> {
    let naux = aux.naux;
    aux.shells
        .iter()
        .map(|p| {
            (0..p.nfuncs())
                .map(|a| {
                    let i = p.bf_offset + a;
                    metric[i * naux + i].max(0.0).sqrt()
                })
                .fold(0.0f64, f64::max)
        })
        .collect()
}

/// The screened 3-center tensor `(P|μν)` plus block-screening counters.
pub struct ThreeCenter {
    /// Row-major `[P][μ][ν]`, both μν triangles filled; screened-out
    /// blocks stay zero.
    pub a: Vec<f64>,
    pub naux: usize,
    pub nbf: usize,
    /// Aux-shell × shell-pair blocks actually computed.
    pub blocks_computed: u64,
    /// Blocks skipped by the Schwarz test `q_P · q_{μν} ≤ tau` (on top of
    /// pairs already absent from the significant-pair list).
    pub blocks_skipped: u64,
}

/// Compute the 3-center tensor `(P|μν)` over the significant shell pairs
/// of `pairs`/`screening`, skipping aux×pair blocks failing the Schwarz
/// test against `tau`. `aux_q` comes from [`aux_schwarz`]. Parallel over
/// aux shells: [`par::claim`] workers take shells one at a time, and each
/// shell writes its rows straight into its own disjoint slice of the
/// output.
pub fn three_center(
    basis: &BasisInstance,
    pairs: &ShellPairData,
    screening: &Screening,
    aux: &AuxBasis,
    aux_q: &[f64],
    tau: f64,
) -> ThreeCenter {
    let naux = aux.naux;
    let nbf = basis.nbf;
    let nshells = basis.shells.len();
    let mut a = vec![0.0; naux * nbf * nbf];
    let mut slabs = Vec::with_capacity(aux.nshells());
    let mut rest = a.as_mut_slice();
    for p in &aux.shells {
        let (slab, tail) = rest.split_at_mut(p.nfuncs() * nbf * nbf);
        slabs.push(slab);
        rest = tail;
    }
    // Per worker: engine, buffer, blocks computed, blocks skipped.
    let scratch = || (EriEngine::new(), Vec::new(), 0u64, 0u64);
    let states = par::claim(
        par::threads(),
        slabs.into_iter().enumerate(),
        scratch,
        |(eng, buf, computed, skipped), (pi, slab)| {
            let p = &aux.shells[pi];
            let np = p.nfuncs();
            let bra_pair = ShellPair::new(p, &dummy_shell(p.center, p.atom));
            let bra = bra_pair.view(false);
            for m in 0..nshells {
                for n in m..nshells {
                    let Some(ket) = pairs.view(m, n) else {
                        continue;
                    };
                    if aux_q[pi] * screening.pair(m, n) <= tau {
                        *skipped += 1;
                        continue;
                    }
                    *computed += 1;
                    eng.quartet_views(&bra, &ket, buf);
                    let (nm, nn) = (basis.shells[m].nfuncs(), basis.shells[n].nfuncs());
                    let (om, on) = (basis.shells[m].bf_offset, basis.shells[n].bf_offset);
                    // buf is [np][1][nm][nn]; scatter both μν triangles.
                    for fa in 0..np {
                        for fm in 0..nm {
                            for fn_ in 0..nn {
                                let v = buf[(fa * nm + fm) * nn + fn_];
                                let (i, j) = (om + fm, on + fn_);
                                slab[fa * nbf * nbf + i * nbf + j] = v;
                                slab[fa * nbf * nbf + j * nbf + i] = v;
                            }
                        }
                    }
                }
            }
        },
    );
    let (blocks_computed, blocks_skipped) =
        states.iter().fold((0, 0), |(c, k), s| (c + s.2, k + s.3));
    ThreeCenter {
        a,
        naux,
        nbf,
        blocks_computed,
        blocks_skipped,
    }
}

/// Largest diagonal fitting residual `max_{μν} |(μν|μν) − Σ_P B²_{P,μν}|`
/// over the significant shell pairs — the standard robust estimate of the
/// DF expansion error (the Schwarz inequality makes the diagonal the
/// worst case). `b` is the fitted tensor, row-major `[P][μ][ν]` with
/// `naux·nbf²` entries. [`par::claim`] workers take shell pairs one at a
/// time; the maximum does not depend on which worker saw which pair.
pub fn max_diag_residual(
    basis: &BasisInstance,
    pairs: &ShellPairData,
    b: &[f64],
    naux: usize,
) -> f64 {
    let nbf = basis.nbf;
    let nshells = basis.shells.len();
    let shell_pairs = (0..nshells).flat_map(|m| (m..nshells).map(move |n| (m, n)));
    // Per worker: engine, buffer, largest residual seen.
    let scratch = || (EriEngine::new(), Vec::new(), 0.0f64);
    let states = par::claim(
        par::threads(),
        shell_pairs,
        scratch,
        |(eng, buf, worst), (m, n)| {
            let Some(view) = pairs.view(m, n) else {
                return;
            };
            eng.quartet_views(&view, &view, buf);
            let (nm, nn) = (basis.shells[m].nfuncs(), basis.shells[n].nfuncs());
            let (om, on) = (basis.shells[m].bf_offset, basis.shells[n].bf_offset);
            for fm in 0..nm {
                for fn_ in 0..nn {
                    // (μν|μν) from the [nm][nn][nm][nn] block.
                    let exact = buf[((fm * nn + fn_) * nm + fm) * nn + fn_];
                    let (i, j) = (om + fm, on + fn_);
                    let fitted: f64 = (0..naux)
                        .map(|p| {
                            let v = b[p * nbf * nbf + i * nbf + j];
                            v * v
                        })
                        .sum();
                    *worst = worst.max((exact - fitted).abs());
                }
            }
        },
    );
    states.iter().fold(0.0, |w, s| s.2.max(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::{generators, BasisSetKind};

    fn setup(mol: chem::Molecule, kind: BasisSetKind) -> (BasisInstance, Screening, ShellPairData) {
        let basis = BasisInstance::new(mol, kind).unwrap();
        let screening = Screening::compute(&basis, 1e-11);
        let pairs = ShellPairData::build(&basis, &screening);
        (basis, screening, pairs)
    }

    #[test]
    fn aux_basis_covers_every_atom_with_offsets_consistent() {
        let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let aux = AuxBasis::generate(&basis, &AuxSpec::default());
        assert!(aux.naux > basis.nbf, "fitting basis should be larger");
        let mut seen_atoms = [false; 3];
        let mut offset = 0usize;
        for sh in &aux.shells {
            assert_eq!(sh.bf_offset, offset);
            assert_eq!(sh.nprim(), 1);
            offset += sh.nfuncs();
            seen_atoms[sh.atom] = true;
            assert!(sh.l <= 2);
        }
        assert_eq!(offset, aux.naux);
        assert!(seen_atoms.iter().all(|&s| s));
        // H is s-only but still gets p fitting functions.
        assert!(aux.shells.iter().any(|s| s.atom == 1
            && s.l == 1
            && basis.shells.iter().all(|o| o.atom != 1 || o.l == 0)));
    }

    #[test]
    fn aux_shells_are_unit_normalized() {
        // ⟨P|P⟩ = 1 for the (l,0,0) component under the shell convention:
        // check via the self-overlap formula the coefficient was built from.
        for l in 0..=2u8 {
            for &a in &[0.3, 1.7, 24.0] {
                let c = normalized_single(l, a);
                let p = 2.0 * a;
                let ov = odd_double_factorial(l as i64) / (2.0 * p).powi(l as i32)
                    * (std::f64::consts::PI / p).powf(1.5);
                assert!((c * c * ov - 1.0).abs() < 1e-13, "l={l} a={a}");
            }
        }
    }

    #[test]
    fn dummy_shell_reproduces_true_two_center_integral() {
        // (P|Q) for two unit-normalized s Gaussians has the closed form
        // 2π^{5/2} / (pq√(p+q)) · N_p N_q  (all E tables collapse to 1).
        let p_exp = 0.8;
        let q_exp = 1.9;
        let r = Vec3::new(0.0, 0.0, 1.3);
        let origin = Vec3::ZERO;
        let mk = |a: f64, c: Vec3| Shell {
            atom: 0,
            l: 0,
            center: c,
            exps: Box::new([a]),
            coefs: Box::new([normalized_single(0, a)]),
            bf_offset: 0,
        };
        let (sp, sq) = (mk(p_exp, origin), mk(q_exp, r));
        let mut eng = EriEngine::new();
        let mut buf = Vec::new();
        eng.quartet(
            &sp,
            &dummy_shell(origin, 0),
            &sq,
            &dummy_shell(r, 0),
            &mut buf,
        );
        let t = p_exp * q_exp / (p_exp + q_exp) * r.norm2();
        let want = 34.986_836_655_249_725 / (p_exp * q_exp * (p_exp + q_exp).sqrt())
            * crate::boys::boys_single(0, t)
            * normalized_single(0, p_exp)
            * normalized_single(0, q_exp);
        assert!(
            (buf[0] - want).abs() < 1e-12 * want.abs(),
            "{} vs {}",
            buf[0],
            want
        );
    }

    /// The serial metric loop: every pair of shells `P ≤ Q` writes its
    /// block into both triangles, later writes winning.
    fn two_center_serial(aux: &AuxBasis) -> Vec<f64> {
        let naux = aux.naux;
        let mut j = vec![0.0; naux * naux];
        let mut eng = EriEngine::new();
        let mut buf = Vec::new();
        for (pi, p) in aux.shells.iter().enumerate() {
            let dp = dummy_shell(p.center, p.atom);
            let np = p.nfuncs();
            for q in aux.shells.iter().skip(pi) {
                let dq = dummy_shell(q.center, q.atom);
                let nq = q.nfuncs();
                eng.quartet(p, &dp, q, &dq, &mut buf);
                for a in 0..np {
                    for b in 0..nq {
                        let v = buf[a * nq + b];
                        j[(p.bf_offset + a) * naux + (q.bf_offset + b)] = v;
                        j[(q.bf_offset + b) * naux + (p.bf_offset + a)] = v;
                    }
                }
            }
        }
        j
    }

    #[test]
    fn threaded_metric_is_bitwise_the_serial_loop() {
        for mol in [generators::water(), generators::methane()] {
            let basis = BasisInstance::new(mol, BasisSetKind::Sto3g).unwrap();
            let aux = AuxBasis::generate(&basis, &AuxSpec::default());
            let j = two_center(&aux);
            assert_eq!(j, two_center_serial(&aux));
            let n = aux.naux;
            for p in 0..n {
                for q in 0..p {
                    assert_eq!(j[p * n + q], j[q * n + p], "asymmetry at ({p},{q})");
                }
            }
        }
    }

    #[test]
    fn metric_is_symmetric_positive_diagonal() {
        let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let aux = AuxBasis::generate(&basis, &AuxSpec::default());
        let j = two_center(&aux);
        let n = aux.naux;
        for p in 0..n {
            assert!(j[p * n + p] > 0.0, "diagonal {p}");
            for q in 0..n {
                assert!(
                    (j[p * n + q] - j[q * n + p]).abs() < 1e-12,
                    "asymmetry at ({p},{q})"
                );
            }
        }
    }

    #[test]
    fn three_center_matches_direct_dummy_quartets() {
        // The screened, pair-data-driven 3c builder must agree with naive
        // per-quartet evaluation through the public Shell API.
        let (basis, screening, pairs) = setup(generators::water(), BasisSetKind::Sto3g);
        let aux = AuxBasis::generate(&basis, &AuxSpec::default());
        let metric = two_center(&aux);
        let q = aux_schwarz(&aux, &metric);
        let tc = three_center(&basis, &pairs, &screening, &aux, &q, 1e-11);
        assert!(tc.blocks_computed > 0);

        let mut eng = EriEngine::new();
        let mut buf = Vec::new();
        let nbf = basis.nbf;
        let mut worst = 0.0f64;
        for p in &aux.shells {
            let dp = dummy_shell(p.center, p.atom);
            for m in &basis.shells {
                for n in &basis.shells {
                    eng.quartet(p, &dp, m, n, &mut buf);
                    for fa in 0..p.nfuncs() {
                        for fm in 0..m.nfuncs() {
                            for fn_ in 0..n.nfuncs() {
                                let direct = buf[(fa * m.nfuncs() + fm) * n.nfuncs() + fn_];
                                let got = tc.a[(p.bf_offset + fa) * nbf * nbf
                                    + (m.bf_offset + fm) * nbf
                                    + (n.bf_offset + fn_)];
                                worst = worst.max((direct - got).abs());
                            }
                        }
                    }
                }
            }
        }
        assert!(worst < 1e-10, "worst |direct − pairdata| = {worst:e}");
    }

    #[test]
    fn aggressive_tau_screens_blocks_out() {
        let (basis, screening, pairs) = setup(generators::water(), BasisSetKind::Sto3g);
        let aux = AuxBasis::generate(&basis, &AuxSpec::default());
        let metric = two_center(&aux);
        let q = aux_schwarz(&aux, &metric);
        let loose = three_center(&basis, &pairs, &screening, &aux, &q, 1e-11);
        let tight = three_center(&basis, &pairs, &screening, &aux, &q, 1e3);
        assert_eq!(
            loose.blocks_skipped + loose.blocks_computed,
            tight.blocks_skipped
        );
        assert_eq!(tight.blocks_computed, 0);
        assert!(tight.a.iter().all(|&v| v == 0.0));
    }
}
