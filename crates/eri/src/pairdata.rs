//! Precomputed shell-pair data for the ERI hot path.
//!
//! Every quartet (MN|PQ) the McMurchie–Davidson kernel evaluates needs,
//! for each primitive pair of each side: the combined exponent p = α_a+α_b,
//! the Gaussian product centre P, the contraction-coefficient product, and
//! the 3-D product of the 1-D Hermite expansion coefficients E_t^{ij} for
//! every Cartesian component pair. None of these depend on the partner
//! pair, yet a direct kernel (`EriEngine::quartet_ref`) recomputes them per
//! quartet — and rebuilds the *ket* tables inside the bra primitive loops,
//! an O(K_a·K_b·K_c·K_d) redundancy in `E1d` constructions. The Hartree–
//! Fock literature (e.g. Mironov et al., arXiv:1708.00033) treats
//! precomputed pair data as the baseline optimization for MD/OS kernels.
//!
//! [`ShellPair`] packs that data for one (shell, shell) pair;
//! [`ShellPairData`] holds one `ShellPair` per *significant* pair of a
//! basis — the same survivor list Cauchy–Schwarz screening produces — built
//! once per basis (in parallel) and then shared read-only across worker
//! threads. A quartet is served by two [`PairView`]s, which also handle the
//! (N,M) orientation of a stored (M,N) pair via the E-table transposition
//! symmetry E_t^{ij}(α_a, α_b, AB) = E_t^{ji}(α_b, α_a, BA) — a row
//! permutation of the coefficient matrix — so each pair is stored exactly
//! once.
//!
//! Memory model: per primitive pair one [`PrimPair`] plus the structurally
//! non-zero component coefficients ([`CoefPattern`]) — the one pair-data
//! format, read by `eri::batch`. The K_ab Gaussian overlap prefactor
//! exp(−μ·AB²) stays folded into the E(0,0,0) seed exactly as in
//! [`E1d::new`], so the kernel reproduces the direct path to floating-point
//! reassociation (≪ 1e-12 per integral).

use crate::hermite::{cart_components_static, hermite_triples, E1d};
use crate::screening::Screening;
use chem::shells::{BasisInstance, Shell};
use chem::Vec3;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Per-primitive-pair quantities shared by every quartet the pair enters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrimPair {
    /// Combined exponent p = α_a + α_b.
    pub p: f64,
    /// Gaussian product centre P = (α_a·A + α_b·B) / p.
    pub center: Vec3,
    /// c_a·c_b / p, the contraction-coefficient product over the combined
    /// exponent (the K_ab overlap prefactor lives in the component
    /// coefficients): with it the lane prefactor
    /// 2π^{5/2}·(c_ab/p)·(c_cd/q)/√(p+q) costs one division and one square
    /// root per primitive quartet.
    pub coef_over_p: f64,
}

/// The structural non-zeros of an (l_a, l_b) pair's component-coefficient
/// matrix `B[(ka·ncart(lb) + kb)][h] = Ex(ax,bx,t)·Ey(ay,by,u)·Ez(az,bz,v)`
/// (rows: Cartesian component pairs; columns: the canonical Hermite
/// triples of la+lb). E_t^{ij} = 0 for t > i+j, so row (a, b) is non-zero
/// only where t ≤ ax+bx, u ≤ ay+by and v ≤ az+bz — 3.7 of 10 columns on
/// average for a pp pair, ≈ 10 of 35 for dd. The pattern depends on the
/// angular momenta alone; every primitive pair stores its coefficients
/// compacted to it, in CSR order.
#[derive(Debug)]
pub struct CoefPattern {
    /// Row `r`'s non-zeros are entries `ptr[r]..ptr[r + 1]` of [`Self::col`]
    /// and of every [`PairView::coefs`] block.
    pub ptr: Vec<usize>,
    /// Hermite-triple index of each non-zero.
    pub col: Vec<usize>,
    /// Stored row → row as the caller orders the pair: the identity, and
    /// (ka, kb) → kb·ncart(la) + ka for the reversed view.
    rows: [Vec<usize>; 2],
}

/// The [`CoefPattern`] of an (la, lb) pair, la, lb ≤ 2.
pub fn coef_pattern(la: usize, lb: usize) -> &'static CoefPattern {
    assert!(la <= 2 && lb <= 2, "angular momentum beyond s/p/d");
    static PATTERNS: OnceLock<[CoefPattern; 9]> = OnceLock::new();
    let all = PATTERNS.get_or_init(|| {
        std::array::from_fn(|i| {
            let (la, lb) = (i / 3, i % 3);
            let comps_a = cart_components_static(la as u8);
            let comps_b = cart_components_static(lb as u8);
            let mut pat = CoefPattern {
                ptr: vec![0],
                col: Vec::new(),
                rows: [Vec::new(), Vec::new()],
            };
            for (ka, &(ax, ay, az)) in comps_a.iter().enumerate() {
                for (kb, &(bx, by, bz)) in comps_b.iter().enumerate() {
                    for (h, &(t, u, v)) in hermite_triples(la + lb).iter().enumerate() {
                        if t <= ax + bx && u <= ay + by && v <= az + bz {
                            pat.col.push(h);
                        }
                    }
                    pat.ptr.push(pat.col.len());
                    pat.rows[0].push(ka * comps_b.len() + kb);
                    pat.rows[1].push(kb * comps_a.len() + ka);
                }
            }
            pat
        })
    });
    &all[la * 3 + lb]
}

/// Precomputed data for one ordered shell pair (A, B): one [`PrimPair`]
/// plus the component coefficients per *significant* primitive pair
/// (see [`PRIM_TAU_REL`]), in (a-major, b-minor) primitive order.
#[derive(Debug, Clone, Default)]
pub struct ShellPair {
    la: usize,
    lb: usize,
    prims: Vec<PrimPair>,
    /// Component coefficients for the batched class kernels: per primitive
    /// pair the non-zeros of the matrix [`CoefPattern`] describes — the
    /// full 3-D E product hoisted to pair-build time, so a batched quartet
    /// reduces to sparse axpys against the R cube.
    ctab: Vec<f64>,
    /// Doubles per primitive pair in `ctab`: the pattern's non-zero count.
    cstride: usize,
}

/// Primitive pairs whose significance |c_a·c_b|·exp(−μ·AB²) falls below
/// this fraction of the pair's largest are dropped at build time. For
/// cross-atom pairs of deeply contracted shells the tight–tight primitive
/// combinations carry K_ab ~ e^{−10³} — utterly negligible yet a large
/// share of the K_a·K_b quadratic primitive-pair count. The distribution
/// is strongly bimodal (K ≈ O(1) or K ≈ e^{−huge}), so the exact cutoff
/// barely matters: sweeping it from 1e-18 to 1e-13 leaves the measured
/// max per-integral |direct − pair| difference unchanged at ~4e-16 over
/// a full C4H10/cc-pVDZ quartet stream (pure reassociation noise), far
/// inside the 1e-12 agreement the pair path guarantees. Same-centre
/// pairs (AB = 0, K ≡ 1) always keep every primitive pair.
const PRIM_TAU_REL: f64 = 1e-14;

impl ShellPair {
    /// Build the pair data for shells `a`, `b`.
    pub fn new(a: &Shell, b: &Shell) -> ShellPair {
        let mut sp = ShellPair::default();
        sp.rebuild(a, b);
        sp
    }

    /// Recompute in place, reusing the existing allocations — the engine's
    /// `Shell`-based entry points call this per quartet without allocating
    /// after warm-up.
    pub fn rebuild(&mut self, a: &Shell, b: &Shell) {
        let (la, lb) = (a.l as usize, b.l as usize);
        self.la = la;
        self.lb = lb;
        let pattern = coef_pattern(la, lb);
        self.cstride = pattern.col.len();
        self.prims.clear();
        self.ctab.clear();
        let comps_a = cart_components_static(a.l);
        let comps_b = cart_components_static(b.l);
        let triples = hermite_triples(la + lb);
        let ab = a.center - b.center;
        let ab2 = ab.norm2();
        // Pass 1: each primitive pair's significance, and the pair maximum.
        let signif = |ea: f64, ca: f64, eb: f64, cb: f64| {
            (ca * cb).abs() * (-ea * eb / (ea + eb) * ab2).exp()
        };
        let mut vmax = 0.0f64;
        for (&ea, &ca) in a.exps.iter().zip(a.coefs.iter()) {
            for (&eb, &cb) in b.exps.iter().zip(b.coefs.iter()) {
                vmax = vmax.max(signif(ea, ca, eb, cb));
            }
        }
        // Pass 2: build coefficients for the survivors only.
        let cut = vmax * PRIM_TAU_REL;
        for (&ea, &ca) in a.exps.iter().zip(a.coefs.iter()) {
            for (&eb, &cb) in b.exps.iter().zip(b.coefs.iter()) {
                if signif(ea, ca, eb, cb) < cut {
                    continue;
                }
                let p = ea + eb;
                self.prims.push(PrimPair {
                    p,
                    center: (a.center * ea + b.center * eb) / p,
                    coef_over_p: ca * cb / p,
                });
                let ex = E1d::new(la, lb, ea, eb, ab.x);
                let ey = E1d::new(la, lb, ea, eb, ab.y);
                let ez = E1d::new(la, lb, ea, eb, ab.z);
                let mut row = 0;
                for &(ax, ay, az) in comps_a {
                    for &(bx, by, bz) in comps_b {
                        for &h in &pattern.col[pattern.ptr[row]..pattern.ptr[row + 1]] {
                            let (t, u, v) = triples[h];
                            self.ctab.push(
                                ex.get(ax as usize, bx as usize, t as usize)
                                    * ey.get(ay as usize, by as usize, u as usize)
                                    * ez.get(az as usize, bz as usize, v as usize),
                            );
                        }
                        row += 1;
                    }
                }
            }
        }
    }

    /// View in stored (A, B) order (`swapped = false`) or as the reversed
    /// pair (B, A) (`swapped = true`), served from the same coefficients via
    /// E_t^{ij}(α_a, α_b, AB) = E_t^{ji}(α_b, α_a, BA).
    #[inline]
    pub fn view(&self, swapped: bool) -> PairView<'_> {
        let (la, lb) = if swapped {
            (self.lb, self.la)
        } else {
            (self.la, self.lb)
        };
        PairView {
            la,
            lb,
            swapped,
            pair: self,
        }
    }

    /// Heap bytes held by this pair's tables.
    pub fn bytes(&self) -> usize {
        self.prims.capacity() * std::mem::size_of::<PrimPair>()
            + self.ctab.capacity() * std::mem::size_of::<f64>()
    }
}

/// A read-only view of a [`ShellPair`] in either orientation. `la`/`lb`
/// are the angular momenta as the *caller* orders the pair.
#[derive(Debug, Clone, Copy)]
pub struct PairView<'a> {
    pub la: usize,
    pub lb: usize,
    swapped: bool,
    pair: &'a ShellPair,
}

impl<'a> PairView<'a> {
    /// Number of primitive pairs.
    #[inline]
    pub fn nprim_pairs(&self) -> usize {
        self.pair.prims.len()
    }

    /// Every primitive pair's quantities, in storage order.
    #[inline]
    pub fn prims(&self) -> &'a [PrimPair] {
        &self.pair.prims
    }

    /// The non-zero pattern of this pair's component-coefficient matrix,
    /// in *stored* row order (see [`Self::row_order`]).
    #[inline]
    pub fn pattern(&self) -> &'static CoefPattern {
        coef_pattern(self.pair.la, self.pair.lb)
    }

    /// Stored row → row `ia·ncart(self.lb) + ib` in the caller's
    /// orientation. The swapped orientation is a pure row permutation — by
    /// the E transposition symmetry the matrix entries are identical.
    #[inline]
    pub fn row_order(&self) -> &'static [usize] {
        &self.pattern().rows[usize::from(self.swapped)]
    }

    /// The non-zero component coefficients of primitive pair `k`, laid out
    /// as [`Self::pattern`] describes.
    #[inline]
    pub fn coefs(&self, k: usize) -> &'a [f64] {
        let n = self.pair.cstride;
        &self.pair.ctab[k * n..(k + 1) * n]
    }
}

/// Pair data for every significant shell pair of a basis — built once
/// (rows in parallel), shared read-only by all build paths.
pub struct ShellPairData {
    n: usize,
    /// Canonical pair (min(m,n), max(m,n)) → slot in `pairs`;
    /// `u32::MAX` marks screened-out pairs.
    index: Vec<u32>,
    pairs: Vec<ShellPair>,
}

const ABSENT: u32 = u32::MAX;

impl ShellPairData {
    /// Build pair data for every pair on `screening`'s survivor list
    /// ((MN) ≥ τ/max(MN) — the same Φ-set membership every build path's
    /// quartet enumeration draws from).
    pub fn build(basis: &BasisInstance, screening: &Screening) -> ShellPairData {
        let n = basis.nshells();
        let shells = &basis.shells;
        let rows: Vec<Vec<(usize, ShellPair)>> = (0..n)
            .into_par_iter()
            .map(|m| {
                (m..n)
                    .filter(|&p| screening.significant(m, p))
                    .map(|p| (p, ShellPair::new(&shells[m], &shells[p])))
                    .collect()
            })
            .collect();
        let mut index = vec![ABSENT; n * n];
        let mut pairs = Vec::new();
        for (m, row) in rows.into_iter().enumerate() {
            for (p, sp) in row {
                let slot = pairs.len() as u32;
                index[m * n + p] = slot;
                index[p * n + m] = slot;
                pairs.push(sp);
            }
        }
        ShellPairData { n, index, pairs }
    }

    /// View of pair (m, n) in the caller's order; `None` if the pair was
    /// screened out. Pairs drawn from Φ sets or any surviving Schwarz
    /// product are always present.
    #[inline]
    pub fn view(&self, m: usize, n: usize) -> Option<PairView<'_>> {
        let slot = self.index[m * self.n + n];
        if slot == ABSENT {
            None
        } else {
            Some(self.pairs[slot as usize].view(m > n))
        }
    }

    /// Number of stored (canonical) pairs.
    pub fn npairs(&self) -> usize {
        self.pairs.len()
    }

    /// Total heap footprint: pair tables plus the n×n index.
    pub fn bytes(&self) -> usize {
        self.pairs.iter().map(ShellPair::bytes).sum::<usize>()
            + self.index.capacity() * std::mem::size_of::<u32>()
            + self.pairs.capacity() * std::mem::size_of::<ShellPair>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::generators;
    use chem::BasisSetKind;

    #[test]
    fn compacted_coefficients_match_e_products() {
        // The compacted block must hold the per-component 3-D product of
        // the 1-D E tables at every pattern position, everything off the
        // pattern must be a structural zero, and the swapped view must be
        // exactly the row permutation (ia, ib) → (ib, ia) of the same
        // matrix — for a same-centre pair (AB = 0: exact zeros beyond the
        // structural ones) and a two-centre pair.
        let b = BasisInstance::new(generators::methane(), BasisSetKind::CcPvdz).unwrap();
        let d = b.shells.iter().find(|s| s.l == 2).unwrap();
        let mut ps = b.shells.iter().filter(|s| s.l == 1);
        let (p_same, p_far) = (ps.next().unwrap(), ps.next_back().unwrap());
        assert_eq!(p_same.atom, d.atom);
        assert_ne!(p_far.atom, d.atom);
        let triples = hermite_triples(3);
        for p in [p_same, p_far] {
            let sp = ShellPair::new(d, p);
            let fwd = sp.view(false);
            let rev = sp.view(true);
            assert_eq!((fwd.la, fwd.lb), (2, 1));
            assert_eq!((rev.la, rev.lb), (1, 2));
            let pat = fwd.pattern();
            assert_eq!(pat.ptr.len(), 6 * 3 + 1);
            assert!(pat.col.len() < 6 * 3 * triples.len() / 2, "mostly zeros");
            // Neither pair is pruned, so primitive pair k is (a-major,
            // b-minor) over the shells' own primitives.
            assert_eq!(fwd.nprim_pairs(), d.nprim() * p.nprim());
            let ab = d.center - p.center;
            let mut k = 0;
            for &ea in d.exps.iter() {
                for &eb in p.exps.iter() {
                    let e = [ab.x, ab.y, ab.z].map(|x| E1d::new(2, 1, ea, eb, x));
                    let coefs = fwd.coefs(k);
                    assert_eq!(coefs, rev.coefs(k), "one stored block serves both views");
                    for (ia, &(ax, ay, az)) in cart_components_static(2).iter().enumerate() {
                        for (ib, &(bx, by, bz)) in cart_components_static(1).iter().enumerate() {
                            let row = ia * 3 + ib;
                            assert_eq!(fwd.row_order()[row], row);
                            assert_eq!(rev.row_order()[row], ib * 6 + ia);
                            let nz = &pat.col[pat.ptr[row]..pat.ptr[row + 1]];
                            for (h, &(t, u, v)) in triples.iter().enumerate() {
                                let want = e[0].get(ax as usize, bx as usize, t as usize)
                                    * e[1].get(ay as usize, by as usize, u as usize)
                                    * e[2].get(az as usize, bz as usize, v as usize);
                                match nz.iter().position(|&c| c == h) {
                                    Some(j) => assert_eq!(coefs[pat.ptr[row] + j], want),
                                    None => assert_eq!(want, 0.0, "k={k} ia={ia} ib={ib} h={h}"),
                                }
                            }
                        }
                    }
                    k += 1;
                }
            }
        }
    }

    #[test]
    fn pairdata_covers_phi_sets() {
        let b = BasisInstance::new(generators::linear_alkane(6), BasisSetKind::Sto3g).unwrap();
        let s = Screening::compute(&b, 1e-8);
        let pd = ShellPairData::build(&b, &s);
        assert!(pd.npairs() > 0 && pd.bytes() > 0);
        for m in 0..b.nshells() {
            for &p in s.phi(m) {
                assert!(pd.view(m, p as usize).is_some(), "Φ({m}) pair {p} missing");
            }
        }
        // Screened-out pairs are absent.
        let mut absent = 0;
        for m in 0..b.nshells() {
            for p in 0..b.nshells() {
                if !s.significant(m, p) {
                    assert!(pd.view(m, p).is_none());
                    absent += 1;
                }
            }
        }
        assert!(absent > 0, "alkane at loose tau must screen some pairs");
    }

    #[test]
    fn primitive_screening_drops_cross_atom_pairs() {
        let b = BasisInstance::new(generators::linear_alkane(4), BasisSetKind::CcPvdz).unwrap();
        // Two deeply contracted s shells on different carbons: the
        // tight–tight primitive combinations are negligible cross-atom.
        let deep: Vec<&Shell> = b
            .shells
            .iter()
            .filter(|s| s.l == 0 && s.nprim() >= 8)
            .collect();
        let (s1, s2) = (deep[0], {
            *deep
                .iter()
                .find(|s| (s.center - deep[0].center).norm2() > 1.0)
                .unwrap()
        });
        let full = s1.nprim() * s2.nprim();
        let cross = ShellPair::new(s1, s2);
        assert!(
            cross.view(false).nprim_pairs() < full,
            "expected drops: {} of {full}",
            cross.view(false).nprim_pairs()
        );
        assert!(cross.view(false).nprim_pairs() > 0);
        // Same centre ⇒ K ≡ 1 ⇒ nothing drops.
        let same = ShellPair::new(s1, s1);
        assert_eq!(same.view(false).nprim_pairs(), s1.nprim() * s1.nprim());
    }

    #[test]
    fn rebuild_reuses_allocations() {
        let b = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let mut sp = ShellPair::new(&b.shells[0], &b.shells[1]);
        let bytes = sp.bytes();
        sp.rebuild(&b.shells[2], &b.shells[3]);
        assert!(sp.bytes() >= bytes || sp.bytes() > 0);
    }
}
