//! Two-electron repulsion integrals (ERIs) over contracted Gaussian shells,
//! computed by the McMurchie–Davidson scheme in shell-quartet batches —
//! the minimal units of work of the paper's task model.
//!
//! There is one production kernel, [`crate::batch`]'s class-batched
//! contraction, and [`EriEngine`] owns the per-thread instance of it: the
//! builders' [`crate::batch::ClassBatcher`] evaluates its chunks through the
//! engine it is handed, and every single-quartet caller (Schwarz set-up,
//! the DF 2-/3-centre integrals, tests) reaches the same kernel as a
//! one-item batch — [`EriEngine::quartet_views`] from precomputed
//! [`PairView`]s, [`EriEngine::quartet`] from four `Shell`s (pair data
//! rebuilt into engine scratch per call, allocation-free after warm-up).
//!
//! [`EriEngine::quartet_ref`] is the one reference: the direct kernel that
//! rebuilds every E table per primitive quartet, prunes no primitive pair
//! and evaluates the Boys function by its series. It shares no contraction
//! code with the production kernel, so parity tests, the brute-force Fock
//! oracle and `bench/src/bin/eri_throughput.rs` compare against it.

use crate::batch::{BatchKernel, QuartetClass};
use crate::boys::boys;
use crate::hermite::{cart_components_static, hermite_r, E1d, RScratch};
use crate::pairdata::{PairView, ShellPair};
use crate::spherical::{ncart, transform_quartet};
use chem::shells::{odd_double_factorial, Shell};

pub(crate) const TWO_PI_POW_2_5: f64 = 34.986_836_655_249_725; // 2 * pi^{5/2}

/// Reusable ERI evaluator. Holds the batched kernel and scratch buffers so
/// repeated quartet evaluations don't allocate; create one per thread.
#[derive(Default)]
pub struct EriEngine {
    /// The production kernel; [`crate::batch::ClassBatcher::flush`] drives
    /// it with whole class chunks.
    pub(crate) kernel: BatchKernel,
    /// Scratch pair tables and block for the `Shell`-based entry points.
    pair_bra: ShellPair,
    pair_ket: ShellPair,
    block: Vec<f64>,
    /// Scratch of [`Self::quartet_ref`].
    boys_buf: Vec<f64>,
    cart_buf: Vec<f64>,
    half_buf: Vec<f64>,
    r_scratch: RScratch,
}

impl EriEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Compute the shell quartet (ab|cd) into `out` as a row-major
    /// `[na][nb][nc][nd]` block of *spherical* integrals
    /// (chemists' notation: (ab|cd) = ∫∫ a(1)b(1) r₁₂⁻¹ c(2)d(2)).
    ///
    /// Rebuilds the two pair tables into engine scratch (no allocation
    /// after warm-up) and evaluates them through [`Self::quartet_views`].
    /// Returns the number of integrals written.
    pub fn quartet(
        &mut self,
        a: &Shell,
        b: &Shell,
        c: &Shell,
        d: &Shell,
        out: &mut Vec<f64>,
    ) -> usize {
        let mut bra = std::mem::take(&mut self.pair_bra);
        let mut ket = std::mem::take(&mut self.pair_ket);
        bra.rebuild(a, b);
        ket.rebuild(c, d);
        let n = self.quartet_views(&bra.view(false), &ket.view(false), out);
        self.pair_bra = bra;
        self.pair_ket = ket;
        n
    }

    /// The quartet (ab|cd) from precomputed pair data, as a one-item batch
    /// of the production kernel. Identical contract to [`Self::quartet`].
    pub fn quartet_views(&mut self, bra: &PairView, ket: &PairView, out: &mut Vec<f64>) -> usize {
        let class = QuartetClass::of(bra.la as u8, bra.lb as u8, ket.la as u8, ket.lb as u8);
        self.kernel.eval(class, &[(*bra, *ket)], out)
    }

    /// The direct kernel, kept as the numerical reference: every bra/ket E
    /// table is rebuilt per primitive pair — the ket ones inside the bra
    /// loops, the O(K_a·K_b·K_c·K_d) redundancy the pair-data layer
    /// removes — no primitive pair is pruned and the Boys function is the
    /// reference series. Same contract as [`Self::quartet`]; allocates.
    #[allow(clippy::needless_range_loop)] // index used across two buffers
    pub fn quartet_ref(
        &mut self,
        a: &Shell,
        b: &Shell,
        c: &Shell,
        d: &Shell,
        out: &mut Vec<f64>,
    ) -> usize {
        let (la, lb, lc, ld) = (a.l as usize, b.l as usize, c.l as usize, d.l as usize);
        let l_total = la + lb + lc + ld;
        let (nca, ncb, ncc, ncd) = (ncart(a.l), ncart(b.l), ncart(c.l), ncart(d.l));
        let ncart_total = nca * ncb * ncc * ncd;

        self.cart_buf.clear();
        self.cart_buf.resize(ncart_total, 0.0);

        let ab = a.center - b.center;
        let cd = c.center - d.center;
        let comps_a = cart_components_static(a.l);
        let comps_b = cart_components_static(b.l);
        let comps_c = cart_components_static(c.l);
        let comps_d = cart_components_static(d.l);

        // Dimensions of the Hermite index space of the bra and ket.
        let tb = la + lb + 1; // bra t,u,v each < tb
                              // g[cd_comp][t][u][v]: ket side contracted with R.
        self.half_buf.clear();
        self.half_buf.resize(ncc * ncd * tb * tb * tb, 0.0);

        let mut bra_sum = vec![0.0f64; ncc * ncd];
        self.boys_buf.clear();
        self.boys_buf.resize(l_total + 1, 0.0);

        for (&ea, &ca) in a.exps.iter().zip(a.coefs.iter()) {
            for (&eb, &cb) in b.exps.iter().zip(b.coefs.iter()) {
                let p = ea + eb;
                let pc = (a.center * ea + b.center * eb) / p;
                let eab_x = E1d::new(la, lb, ea, eb, ab.x);
                let eab_y = E1d::new(la, lb, ea, eb, ab.y);
                let eab_z = E1d::new(la, lb, ea, eb, ab.z);
                for (&ec, &cc) in c.exps.iter().zip(c.coefs.iter()) {
                    for (&ed, &cdc) in d.exps.iter().zip(d.coefs.iter()) {
                        let q = ec + ed;
                        let qc = (c.center * ec + d.center * ed) / q;
                        let ecd_x = E1d::new(lc, ld, ec, ed, cd.x);
                        let ecd_y = E1d::new(lc, ld, ec, ed, cd.y);
                        let ecd_z = E1d::new(lc, ld, ec, ed, cd.z);
                        let alpha = p * q / (p + q);
                        let pq = pc - qc;
                        boys(l_total, alpha * pq.norm2(), &mut self.boys_buf);
                        let r = hermite_r(l_total, alpha, pq, &self.boys_buf, &mut self.r_scratch);
                        let pref = TWO_PI_POW_2_5 / (p * q * (p + q).sqrt()) * ca * cb * cc * cdc;

                        // Ket half-contraction.
                        let g = &mut self.half_buf;
                        g.iter_mut().for_each(|x| *x = 0.0);
                        for (kc, &(cx, cy, cz)) in comps_c.iter().enumerate() {
                            for (kd, &(dx, dy, dz)) in comps_d.iter().enumerate() {
                                let base = (kc * ncd + kd) * tb * tb * tb;
                                for tau in 0..=(cx + dx) as usize {
                                    let ex = ecd_x.get(cx as usize, dx as usize, tau);
                                    if ex == 0.0 {
                                        continue;
                                    }
                                    for nu in 0..=(cy + dy) as usize {
                                        let exy = ex * ecd_y.get(cy as usize, dy as usize, nu);
                                        if exy == 0.0 {
                                            continue;
                                        }
                                        for phi in 0..=(cz + dz) as usize {
                                            let e3 = exy * ecd_z.get(cz as usize, dz as usize, phi);
                                            if e3 == 0.0 {
                                                continue;
                                            }
                                            let sign =
                                                if (tau + nu + phi) % 2 == 1 { -1.0 } else { 1.0 };
                                            let w = sign * e3;
                                            for t in 0..tb {
                                                for u in 0..tb {
                                                    for v in 0..tb {
                                                        if t + u + v > la + lb {
                                                            continue;
                                                        }
                                                        g[base + (t * tb + u) * tb + v] +=
                                                            w * r.get(t + tau, u + nu, v + phi);
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }

                        // Bra contraction into the cartesian output block.
                        for (ka, &(ax, ay, az)) in comps_a.iter().enumerate() {
                            for (kb, &(bx, by, bz)) in comps_b.iter().enumerate() {
                                bra_sum.iter_mut().for_each(|x| *x = 0.0);
                                for t in 0..=(ax + bx) as usize {
                                    let ex = eab_x.get(ax as usize, bx as usize, t);
                                    if ex == 0.0 {
                                        continue;
                                    }
                                    for u in 0..=(ay + by) as usize {
                                        let exy = ex * eab_y.get(ay as usize, by as usize, u);
                                        if exy == 0.0 {
                                            continue;
                                        }
                                        for v in 0..=(az + bz) as usize {
                                            let e3 = exy * eab_z.get(az as usize, bz as usize, v);
                                            if e3 == 0.0 {
                                                continue;
                                            }
                                            let off = (t * tb + u) * tb + v;
                                            for kcd in 0..ncc * ncd {
                                                bra_sum[kcd] +=
                                                    e3 * self.half_buf[kcd * tb * tb * tb + off];
                                            }
                                        }
                                    }
                                }
                                let out_base = (ka * ncb + kb) * ncc * ncd;
                                for (kcd, &s) in bra_sum.iter().enumerate() {
                                    self.cart_buf[out_base + kcd] += pref * s;
                                }
                            }
                        }
                    }
                }
            }
        }

        // Spherical transform (includes per-component normalization).
        let sph = transform_quartet(std::mem::take(&mut self.cart_buf), [a.l, b.l, c.l, d.l]);
        out.clear();
        out.extend_from_slice(&sph);
        self.cart_buf = sph; // reuse allocation next call
        out.len()
    }

    /// The Cauchy–Schwarz pair value of the paper's Section II-D:
    /// (MN) = max over functions in the pair of √|(mn|mn)|. Builds the
    /// pair tables once (the bra and ket of (mn|mn) are the same pair) and
    /// routes the block through engine scratch — this runs O(n²) times at
    /// screening setup.
    pub fn schwarz_pair_value(&mut self, m: &Shell, n: &Shell) -> f64 {
        let mut pair = std::mem::take(&mut self.pair_bra);
        pair.rebuild(m, n);
        let mut buf = std::mem::take(&mut self.block);
        self.quartet_views(&pair.view(false), &pair.view(false), &mut buf);
        let (nm, nn) = (m.nfuncs(), n.nfuncs());
        let mut best = 0.0f64;
        for i in 0..nm {
            for j in 0..nn {
                // (ij|ij): indices [i][j][i][j].
                let idx = ((i * nn + j) * nm + i) * nn + j;
                best = best.max(buf[idx].abs());
            }
        }
        self.block = buf;
        self.pair_bra = pair;
        best.sqrt()
    }
}

/// Per-component Cartesian normalization factor for component (lx,ly,lz)
/// of a shell with total angular momentum l (1.0 for s and p shells).
/// Exposed for tests; the spherical transform matrices already include it.
pub fn component_norm(l: u8, lx: u8, ly: u8, lz: u8) -> f64 {
    (odd_double_factorial(l as i64)
        / (odd_double_factorial(lx as i64)
            * odd_double_factorial(ly as i64)
            * odd_double_factorial(lz as i64)))
    .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boys::boys_single;
    use chem::basis::BasisSetKind;
    use chem::generators;
    use chem::shells::BasisInstance;
    use chem::Vec3;

    fn s_shell(center: Vec3, exp: f64) -> Shell {
        // Single normalized s primitive.
        let n = (2.0 * exp / std::f64::consts::PI).powf(0.75);
        Shell {
            atom: 0,
            l: 0,
            center,
            exps: vec![exp].into(),
            coefs: vec![n].into(),
            bf_offset: 0,
        }
    }

    #[test]
    fn ssss_matches_closed_form() {
        // (ab|cd) for four s primitives has the closed form
        // 2π^{5/2}/(pq√(p+q)) exp(−μ_ab·AB²) exp(−μ_cd·CD²) F₀(α·PQ²) ×
        // the four normalization constants.
        let a = s_shell(Vec3::new(0.0, 0.0, 0.0), 0.8);
        let b = s_shell(Vec3::new(0.0, 0.0, 1.2), 1.1);
        let c = s_shell(Vec3::new(0.5, 0.3, -0.4), 0.5);
        let d = s_shell(Vec3::new(-0.2, 0.9, 0.1), 1.7);
        let mut eng = EriEngine::new();
        let mut out = Vec::new();
        eng.quartet(&a, &b, &c, &d, &mut out);
        assert_eq!(out.len(), 1);

        let (ea, eb, ec, ed) = (0.8, 1.1, 0.5, 1.7);
        let p = ea + eb;
        let q = ec + ed;
        let pc = (a.center * ea + b.center * eb) / p;
        let qc = (c.center * ec + d.center * ed) / q;
        let alpha = p * q / (p + q);
        let norm: f64 = [ea, eb, ec, ed]
            .iter()
            .map(|&e| (2.0 * e / std::f64::consts::PI).powf(0.75))
            .product();
        let want = TWO_PI_POW_2_5 / (p * q * (p + q).sqrt())
            * (-(ea * eb / p) * a.center.dist2(b.center)).exp()
            * (-(ec * ed / q) * c.center.dist2(d.center)).exp()
            * boys_single(0, alpha * pc.dist2(qc))
            * norm;
        assert!(
            (out[0] - want).abs() < 1e-12 * want.abs().max(1.0),
            "{} vs {want}",
            out[0]
        );
    }

    #[test]
    fn permutational_symmetry() {
        // (ij|kl) = (ji|kl) = (ij|lk) = (kl|ij) on real shells with l>0.
        let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let shells = &basis.shells;
        let mut eng = EriEngine::new();
        let (a, b, c, d) = (&shells[0], &shells[2], &shells[3], &shells[2]);
        let get = |eng: &mut EriEngine, s: [&Shell; 4]| {
            let mut v = Vec::new();
            eng.quartet(s[0], s[1], s[2], s[3], &mut v);
            v
        };
        let abcd = get(&mut eng, [a, b, c, d]);
        let bacd = get(&mut eng, [b, a, c, d]);
        let abdc = get(&mut eng, [a, b, d, c]);
        let cdab = get(&mut eng, [c, d, a, b]);
        let (na, nb, nc, nd) = (a.nfuncs(), b.nfuncs(), c.nfuncs(), d.nfuncs());
        for i in 0..na {
            for j in 0..nb {
                for k in 0..nc {
                    for l in 0..nd {
                        let v = abcd[((i * nb + j) * nc + k) * nd + l];
                        let t1 = bacd[((j * na + i) * nc + k) * nd + l];
                        let t2 = abdc[((i * nb + j) * nd + l) * nc + k];
                        let t3 = cdab[((k * nd + l) * na + i) * nb + j];
                        assert!((v - t1).abs() < 1e-12, "ji|kl");
                        assert!((v - t2).abs() < 1e-12, "ij|lk");
                        assert!((v - t3).abs() < 1e-12, "kl|ij");
                    }
                }
            }
        }
    }

    #[test]
    fn translation_invariance() {
        let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let mut eng = EriEngine::new();
        let shift = Vec3::new(3.0, -1.0, 2.0);
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        let s = &basis.shells;
        eng.quartet(&s[0], &s[2], &s[4], &s[3], &mut out1);
        let moved: Vec<Shell> = [0usize, 2, 4, 3]
            .iter()
            .map(|&i| {
                let mut sh = s[i].clone();
                sh.center += shift;
                sh
            })
            .collect();
        eng.quartet(&moved[0], &moved[1], &moved[2], &moved[3], &mut out2);
        for (x, y) in out1.iter().zip(&out2) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn schwarz_bound_holds() {
        // |(ab|cd)| <= Q_ab * Q_cd for every element of several quartets.
        let basis = BasisInstance::new(generators::methane(), BasisSetKind::Sto3g).unwrap();
        let s = &basis.shells;
        let mut eng = EriEngine::new();
        let mut out = Vec::new();
        for &(a, b, c, d) in &[(0usize, 1, 2, 3), (1, 4, 0, 2), (3, 3, 2, 2)] {
            let qab = eng.schwarz_pair_value(&s[a], &s[b]);
            let qcd = eng.schwarz_pair_value(&s[c], &s[d]);
            eng.quartet(&s[a], &s[b], &s[c], &s[d], &mut out);
            let max = out.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert!(max <= qab * qcd * (1.0 + 1e-10), "{max} > {}", qab * qcd);
        }
    }

    #[test]
    fn d_shell_quartet_shape() {
        let basis = BasisInstance::new(generators::methane(), BasisSetKind::CcPvdz).unwrap();
        let dshell = basis.shells.iter().find(|s| s.l == 2).unwrap();
        let sshell = basis.shells.iter().find(|s| s.l == 0).unwrap();
        let mut eng = EriEngine::new();
        let mut out = Vec::new();
        let n = eng.quartet(dshell, sshell, dshell, sshell, &mut out);
        assert_eq!(n, 5 * 5); // na·nb·nc·nd = 5·1·5·1
                              // Diagonal (ii|ii) entries must be positive (Schwarz).
        for i in 0..5 {
            let idx = i * 5 + i;
            assert!(out[idx] > 0.0);
        }
    }

    #[test]
    fn shell_entry_point_matches_reference_kernel() {
        // `quartet` (pair data rebuilt, one-item batch) vs the direct
        // reference kernel on several shell-quartet shapes of a d-bearing
        // basis.
        let basis = BasisInstance::new(generators::methane(), BasisSetKind::CcPvdz).unwrap();
        let s = &basis.shells;
        let mut eng = EriEngine::new();
        let mut got = Vec::new();
        let mut ref_out = Vec::new();
        let picks = [
            (0usize, 1usize, 2usize, 3usize),
            (3, 2, 1, 0),
            (4, 4, 4, 4),
            (1, 0, 5, 2),
        ];
        for &(a, b, c, d) in &picks {
            eng.quartet(&s[a], &s[b], &s[c], &s[d], &mut got);
            eng.quartet_ref(&s[a], &s[b], &s[c], &s[d], &mut ref_out);
            assert_eq!(got.len(), ref_out.len());
            for (x, y) in got.iter().zip(&ref_out) {
                assert!((x - y).abs() < 1e-12, "({a}{b}|{c}{d}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn swapped_view_matches_rebuilt_pair() {
        // Serving (b,a) from the stored (a,b) tables must equal rebuilding
        // the (b,a) pair outright, and both must equal the reference.
        let basis = BasisInstance::new(generators::methane(), BasisSetKind::CcPvdz).unwrap();
        let s = &basis.shells;
        let d = s.iter().position(|x| x.l == 2).unwrap();
        let p = s.iter().position(|x| x.l == 1).unwrap();
        let mut eng = EriEngine::new();
        let stored = ShellPair::new(&s[d], &s[p]);
        let rebuilt = ShellPair::new(&s[p], &s[d]);
        let ket = ShellPair::new(&s[0], &s[1]);
        let (mut via_swap, mut via_rebuild, mut want) = (Vec::new(), Vec::new(), Vec::new());
        eng.quartet_views(&stored.view(true), &ket.view(false), &mut via_swap);
        eng.quartet_views(&rebuilt.view(false), &ket.view(false), &mut via_rebuild);
        eng.quartet_ref(&s[p], &s[d], &s[0], &s[1], &mut want);
        assert_eq!(via_swap.len(), want.len());
        assert_eq!(via_rebuild.len(), want.len());
        for ((x, y), w) in via_swap.iter().zip(&via_rebuild).zip(&want) {
            assert!((x - w).abs() < 1e-12, "swapped {x} vs reference {w}");
            assert!((y - w).abs() < 1e-12, "rebuilt {y} vs reference {w}");
        }
    }

    #[test]
    fn component_norms() {
        assert_eq!(component_norm(0, 0, 0, 0), 1.0);
        assert_eq!(component_norm(1, 1, 0, 0), 1.0);
        assert!((component_norm(2, 1, 1, 0) - 3f64.sqrt()).abs() < 1e-15);
        assert_eq!(component_norm(2, 2, 0, 0), 1.0);
    }
}
