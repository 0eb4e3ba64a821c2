//! McMurchie–Davidson Hermite machinery.
//!
//! * [`E1d`] — the 1-D Hermite expansion coefficients E_t^{ij} that express a
//!   product of two Cartesian Gaussians as a sum of Hermite Gaussians;
//! * [`hermite_r`] — the auxiliary integrals R⁰_{tuv} over Hermite Gaussians
//!   built from the Boys function, as a table (one-electron integrals and
//!   the reference ERI kernel); [`r_cube_low`] / [`r_cube_planned`] build the
//!   same values as a dense cube for the batched ERI kernels.

use chem::Vec3;

/// Largest left angular momentum (d shells).
pub const E1D_MAX_I: usize = 2;
/// Largest right angular momentum (d + 2 for the kinetic-energy shift).
pub const E1D_MAX_J: usize = 4;
const E1D_CAP: usize = (E1D_MAX_I + 1) * (E1D_MAX_J + 1) * (E1D_MAX_I + E1D_MAX_J + 1);

/// Table of E_t^{ij} for one Cartesian direction, 0 ≤ i ≤ la, 0 ≤ j ≤ lb,
/// 0 ≤ t ≤ i+j. Stored inline (no heap allocation — this is constructed
/// once per primitive pair in the innermost integral loops).
#[derive(Debug, Clone)]
pub struct E1d {
    la: usize,
    lb: usize,
    data: [f64; E1D_CAP],
}

impl E1d {
    /// Build the table for primitive exponents `a`, `b` with centre
    /// separation `xab = A − B` along this axis, where `xpa = P − A`,
    /// `xpb = P − B` and P is the Gaussian product centre.
    pub fn new(la: usize, lb: usize, a: f64, b: f64, xab: f64) -> E1d {
        debug_assert!(
            la <= E1D_MAX_I && lb <= E1D_MAX_J,
            "angular momentum beyond s/p/d"
        );
        let p = a + b;
        let mu = a * b / p;
        let xpa = -b * xab / p; // P - A = -(b/p)(A-B)
        let xpb = a * xab / p; // P - B =  (a/p)(A-B)
        let mut e = E1d {
            la,
            lb,
            data: [0.0; E1D_CAP],
        };
        e.set(0, 0, 0, (-mu * xab * xab).exp());
        let inv2p = 0.5 / p;
        // Raise i first (j = 0), then raise j for every i.
        for i in 0..la {
            for t in 0..=(i + 1) {
                let mut v = xpa * e.get(i, 0, t);
                if t > 0 {
                    v += inv2p * e.get(i, 0, t - 1);
                }
                if t < i {
                    v += (t + 1) as f64 * e.get(i, 0, t + 1);
                }
                e.set(i + 1, 0, t, v);
            }
        }
        for i in 0..=la {
            for j in 0..lb {
                for t in 0..=(i + j + 1) {
                    let mut v = xpb * e.get(i, j, t);
                    if t > 0 {
                        v += inv2p * e.get(i, j, t - 1);
                    }
                    if t < i + j {
                        v += (t + 1) as f64 * e.get(i, j, t + 1);
                    }
                    e.set(i, j + 1, t, v);
                }
            }
        }
        e
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, t: usize) -> usize {
        (i * (self.lb + 1) + j) * (self.la + self.lb + 1) + t
    }

    /// E_t^{ij}; zero outside 0 ≤ t ≤ i+j.
    #[inline]
    pub fn get(&self, i: usize, j: usize, t: usize) -> f64 {
        if t > i + j {
            0.0
        } else {
            self.data[self.idx(i, j, t)]
        }
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, t: usize, v: f64) {
        let k = self.idx(i, j, t);
        self.data[k] = v;
    }
}

/// Reusable workspace for [`hermite_r`] (avoids per-primitive-quartet heap
/// allocation in the innermost loops).
#[derive(Debug, Clone, Default)]
pub struct RScratch {
    work: Vec<f64>,
}

/// A view of the Hermite auxiliary integrals R⁰_{tuv} (t+u+v ≤ l) living
/// in an [`RScratch`].
///
/// R⁰_{000} = F_0(T) with T = alpha·|pq|²; the values satisfy the
/// McMurchie–Davidson recurrences and the caller multiplies by the
/// appropriate prefactor.
#[derive(Debug)]
pub struct RTable<'a> {
    dim: usize,
    data: &'a [f64],
}

impl<'a> RTable<'a> {
    #[inline]
    pub fn get(&self, t: usize, u: usize, v: usize) -> f64 {
        self.data[(t * self.dim + u) * self.dim + v]
    }
}

/// Number of Hermite triples (t, u, v) with t+u+v ≤ l: C(l+3, 3).
#[inline]
pub fn nherm(l: usize) -> usize {
    (l + 1) * (l + 2) * (l + 3) / 6
}

/// Canonical enumeration of the Hermite triples (t, u, v) with t+u+v ≤ l,
/// ordered by total degree then lexicographically in (t, u) descending —
/// the shared column order of the pair-data component-coefficient tables
/// ([`crate::pairdata::CoefPattern`]) and the batched kernels'
/// per-class index maps. Supports l up to the dddd total (8).
pub fn hermite_triples(l: usize) -> &'static [(u8, u8, u8)] {
    use std::sync::OnceLock;
    const L_MAX: usize = 8;
    static TRIPLES: OnceLock<Vec<Vec<(u8, u8, u8)>>> = OnceLock::new();
    let all = TRIPLES.get_or_init(|| {
        (0..=L_MAX)
            .map(|l| {
                let mut v = Vec::with_capacity(nherm(l));
                for total in 0..=l {
                    for t in (0..=total).rev() {
                        for u in (0..=(total - t)).rev() {
                            v.push((t as u8, u as u8, (total - t - u) as u8));
                        }
                    }
                }
                v
            })
            .collect()
    });
    &all[l]
}

/// One entry of the R recursion, flattened: `work[dst] = pq[axis] ·
/// work[src] + fac · work[src2]`, all three offsets absolute into the
/// (l+1) stacked cubes of [`RScratch`] (`src`, `src2` in table n+1 when
/// `dst` is in table n). `fac` is t−1 (u−1, v−1) along the lowered axis;
/// where that is 0 the entry has no second term and `src2` repeats `src`,
/// so the product is an exact zero.
struct RStep {
    dst: u32,
    src: u32,
    src2: u32,
    axis: u32,
    fac: f64,
}

/// The steps that build R⁰_{tuv}, t+u+v ≤ l, in dependency order — what
/// [`hermite_r`] decides per entry with its three-way
/// `t > 0 / u > 0 / else` branch, decided once per l.
fn r_plan(l: usize) -> &'static [RStep] {
    use std::sync::OnceLock;
    const L_MAX: usize = 8;
    static PLANS: OnceLock<Vec<Vec<RStep>>> = OnceLock::new();
    let all = PLANS.get_or_init(|| {
        (0..=L_MAX)
            .map(|l| {
                let dim = l + 1;
                let size = dim * dim * dim;
                let idx = |n: usize, t: usize, u: usize, v: usize| {
                    (n * size + (t * dim + u) * dim + v) as u32
                };
                let mut steps = Vec::new();
                for total in 1..=l {
                    for n in 0..=(l - total) {
                        for t in 0..=total {
                            for u in 0..=(total - t) {
                                let v = total - t - u;
                                // Lower the first non-zero index.
                                let (axis, k, low) = if t > 0 {
                                    (0, t, [1, 0, 0])
                                } else if u > 0 {
                                    (1, u, [0, 1, 0])
                                } else {
                                    (2, v, [0, 0, 1])
                                };
                                let at = |m: usize| {
                                    idx(n + 1, t - m * low[0], u - m * low[1], v - m * low[2])
                                };
                                steps.push(RStep {
                                    dst: idx(n, t, u, v),
                                    src: at(1),
                                    src2: at(if k > 1 { 2 } else { 1 }),
                                    axis,
                                    fac: (k - 1) as f64,
                                });
                            }
                        }
                    }
                }
                steps
            })
            .collect()
    });
    &all[l]
}

/// The dense (l+1)³ cube of `scale`·R⁰_{tuv} (t+u+v ≤ l), addressed as
/// `(t·dim + u)·dim + v`, over *precomputed* Boys values `fs[0..=l]` — the
/// batched kernels evaluate the Boys function over a whole lane array first
/// ([`crate::boys::boys_fast_batch`]) and then build each lane's cube here,
/// folding the lane prefactor into the l+1 seeds. Same recursion and
/// grow-only scratch as [`hermite_r`], driven from the recursion plan of
/// order `l`.
pub fn r_cube_planned<'a>(
    l: usize,
    alpha: f64,
    pq: Vec3,
    scale: f64,
    fs: &[f64],
    scratch: &'a mut RScratch,
) -> &'a [f64] {
    let dim = l + 1;
    let size = dim * dim * dim;
    if scratch.work.len() < (l + 1) * size {
        scratch.work.resize((l + 1) * size, 0.0);
    }
    let r = &mut scratch.work[..(l + 1) * size];
    let mut pref = scale;
    for n in 0..=l {
        r[n * size] = pref * fs[n];
        pref *= -2.0 * alpha;
    }
    let x = [pq.x, pq.y, pq.z];
    for s in r_plan(l) {
        r[s.dst as usize] = x[s.axis as usize] * r[s.src as usize] + s.fac * r[s.src2 as usize];
    }
    &r[..size]
}

/// Build R⁰_{tuv} (t+u+v ≤ l) into `scratch` from the Boys values
/// `fs[0..=l]` at T = alpha·|pq|², returning a view of the n = 0 table.
/// The caller picks the Boys evaluator: the tabulated one for the
/// one-electron integrals, the reference series for `quartet_ref`.
pub fn hermite_r<'a>(
    l: usize,
    alpha: f64,
    pq: Vec3,
    fs: &[f64],
    scratch: &'a mut RScratch,
) -> RTable<'a> {
    let dim = l + 1;
    // scratch.work[n·size ..] holds R^n_{tuv} for t+u+v ≤ l − n.
    let size = dim * dim * dim;
    if scratch.work.len() < (l + 1) * size {
        // Grow only. Every triangle entry (t+u+v ≤ l−n, the only positions
        // the recursion and all callers read) is rewritten below, so stale
        // off-triangle values from a previous, larger call are harmless.
        scratch.work.resize((l + 1) * size, 0.0);
    }
    let r = &mut scratch.work;
    let idx = |t: usize, u: usize, v: usize| (t * dim + u) * dim + v;
    let mut pref = 1.0;
    for n in 0..=l {
        r[n * size] = pref * fs[n];
        pref *= -2.0 * alpha;
    }
    for total in 1..=l {
        for n in 0..=(l - total) {
            // Split so we can read table n+1 while writing table n.
            let (head, tail) = r.split_at_mut((n + 1) * size);
            let rn = &mut head[n * size..];
            let rn1 = &tail[..size];
            for t in 0..=total {
                for u in 0..=(total - t) {
                    let v = total - t - u;
                    let val = if t > 0 {
                        let mut x = pq.x * rn1[idx(t - 1, u, v)];
                        if t > 1 {
                            x += (t - 1) as f64 * rn1[idx(t - 2, u, v)];
                        }
                        x
                    } else if u > 0 {
                        let mut x = pq.y * rn1[idx(t, u - 1, v)];
                        if u > 1 {
                            x += (u - 1) as f64 * rn1[idx(t, u - 2, v)];
                        }
                        x
                    } else {
                        let mut x = pq.z * rn1[idx(t, u, v - 1)];
                        if v > 1 {
                            x += (v - 1) as f64 * rn1[idx(t, u, v - 2)];
                        }
                        x
                    };
                    rn[idx(t, u, v)] = val;
                }
            }
        }
    }
    RTable {
        dim,
        data: &scratch.work[..size],
    }
}

/// Fully unrolled R⁰ builders for the low total angular momenta that
/// dominate quartet streams — the closed forms of the MD recursion
/// (c₁ = −2α·F₁, c₂ = (−2α)²·F₂):
///   R₀₀₀ = F₀;  R₁₀₀ = x·c₁;  R₂₀₀ = x²·c₂ + c₁;  R₁₁₀ = x·y·c₂.
/// Writes the dense (l+1)³ cube of `scale`·R⁰ into `cube` (triangle
/// entries only — the per-class index maps of the batched kernels never
/// read off-triangle).
#[inline(always)]
pub fn r_cube_low(l: usize, alpha: f64, pq: Vec3, scale: f64, fs: &[f64], cube: &mut [f64]) {
    let m2a = -2.0 * alpha;
    match l {
        0 => cube[0] = scale * fs[0],
        1 => {
            // dim = 2: idx(t,u,v) = (t·2 + u)·2 + v.
            let c1 = scale * m2a * fs[1];
            cube[0] = scale * fs[0];
            cube[4] = pq.x * c1;
            cube[2] = pq.y * c1;
            cube[1] = pq.z * c1;
        }
        2 => {
            // dim = 3: idx(t,u,v) = (t·3 + u)·3 + v.
            let c1 = scale * m2a * fs[1];
            let c2 = scale * m2a * m2a * fs[2];
            let (x, y, z) = (pq.x, pq.y, pq.z);
            cube[0] = scale * fs[0];
            cube[9] = x * c1;
            cube[3] = y * c1;
            cube[1] = z * c1;
            cube[18] = x * x * c2 + c1;
            cube[6] = y * y * c2 + c1;
            cube[2] = z * z * c2 + c1;
            cube[12] = x * y * c2;
            cube[10] = x * z * c2;
            cube[4] = y * z * c2;
        }
        _ => unreachable!("r_cube_low supports l ≤ 2 only"),
    }
}

/// Largest total angular momentum served by [`r_cube_low`].
pub const R_CUBE_LOW_MAX_L: usize = 2;

/// [`cart_components`] for the supported momenta as static slices — the
/// ERI kernel's per-quartet lookups must not allocate.
pub fn cart_components_static(l: u8) -> &'static [(u8, u8, u8)] {
    const S: [(u8, u8, u8); 1] = [(0, 0, 0)];
    const P: [(u8, u8, u8); 3] = [(1, 0, 0), (0, 1, 0), (0, 0, 1)];
    const D: [(u8, u8, u8); 6] = [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ];
    match l {
        0 => &S,
        1 => &P,
        2 => &D,
        _ => panic!("angular momentum l={l} not supported (s, p, d only)"),
    }
}

/// Cartesian component exponents (lx, ly, lz) of a shell with angular
/// momentum `l`, in canonical (CCA) order — for l=2:
/// xx, xy, xz, yy, yz, zz.
pub fn cart_components(l: u8) -> Vec<(u8, u8, u8)> {
    let l = l as i16;
    let mut out = Vec::with_capacity(((l + 1) * (l + 2) / 2) as usize);
    for lx in (0..=l).rev() {
        for ly in (0..=(l - lx)).rev() {
            out.push((lx as u8, ly as u8, (l - lx - ly) as u8));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e_table_s_s_is_gaussian_prefactor() {
        let (a, b, xab) = (0.7, 1.3, 0.9);
        let e = E1d::new(0, 0, a, b, xab);
        let mu = a * b / (a + b);
        assert!((e.get(0, 0, 0) - (-mu * xab * xab).exp()).abs() < 1e-15);
    }

    #[test]
    fn e_table_sums_to_overlap() {
        // 1-D overlap: S_ij = E_0^{ij} sqrt(pi/p). Check i=j=1 against the
        // analytic 1-D integral ∫ (x-A)(x-B) exp(-a(x-A)² - b(x-B)²) dx.
        let (a, b) = (0.9, 0.4);
        let (xa, xb) = (0.0, 1.1);
        let xab = xa - xb;
        let p = a + b;
        let e = E1d::new(1, 1, a, b, xab);
        let s11 = e.get(1, 1, 0) * (std::f64::consts::PI / p).sqrt();
        // Analytic: with P=(a xa + b xb)/p, overlap = exp(-mu xab²) sqrt(pi/p)
        // [ (P-xa)(P-xb) + 1/(2p) ].
        let mu = a * b / p;
        let pc = (a * xa + b * xb) / p;
        let want = (-mu * xab * xab).exp()
            * (std::f64::consts::PI / p).sqrt()
            * ((pc - xa) * (pc - xb) + 0.5 / p);
        assert!((s11 - want).abs() < 1e-14, "{s11} vs {want}");
    }

    #[test]
    fn e_out_of_range_is_zero() {
        let e = E1d::new(2, 1, 1.0, 1.0, 0.5);
        assert_eq!(e.get(1, 1, 3), 0.0);
        assert_eq!(e.get(0, 0, 1), 0.0);
    }

    #[test]
    fn r_table_zero_order_is_boys() {
        let mut scr = RScratch::default();
        let t = 0.8 * (0.09 + 0.04 + 0.81);
        let mut fs = [0.0; 5];
        crate::boys::boys_fast(4, t, &mut fs);
        let r = hermite_r(4, 0.8, Vec3::new(0.3, -0.2, 0.9), &fs, &mut scr);
        let f0 = crate::boys::boys_single(0, t);
        assert!((r.get(0, 0, 0) - f0).abs() < 1e-14);
    }

    #[test]
    fn r_table_gradient_relation() {
        // R_{100} = x_pq * (-2 alpha) F_1(T) — direct from the recurrence with
        // n=1 base case; verify numerically via finite differences of F_0
        // with respect to the x component.
        let alpha = 0.65;
        let pq = Vec3::new(0.4, 0.1, -0.7);
        let mut scr = RScratch::default();
        let mut fs = [0.0; 3];
        crate::boys::boys_fast(2, alpha * pq.norm2(), &mut fs);
        let r = hermite_r(2, alpha, pq, &fs, &mut scr);
        let h = 1e-6;
        let f0 = |x: f64| {
            let t = alpha * (x * x + pq.y * pq.y + pq.z * pq.z);
            crate::boys::boys_single(0, t)
        };
        let want = (f0(pq.x + h) - f0(pq.x - h)) / (2.0 * h);
        assert!(
            (r.get(1, 0, 0) - want).abs() < 1e-8,
            "{} vs {want}",
            r.get(1, 0, 0)
        );
    }

    #[test]
    fn triple_tables_canonical() {
        for l in 0..=8usize {
            let tr = hermite_triples(l);
            assert_eq!(tr.len(), nherm(l), "l={l}");
            // Every (t,u,v) with t+u+v ≤ l appears exactly once, ordered by
            // total degree.
            let mut seen = std::collections::HashSet::new();
            let mut last_total = 0u8;
            for &(t, u, v) in tr {
                assert!((t + u + v) as usize <= l);
                assert!(t + u + v >= last_total, "ordered by total degree");
                last_total = t + u + v;
                assert!(seen.insert((t, u, v)), "duplicate triple");
            }
        }
        assert_eq!(
            hermite_triples(1),
            &[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        );
    }

    #[test]
    fn low_l_cube_matches_recursive_builder() {
        let alpha = 0.73;
        let pq = Vec3::new(0.4, -1.1, 0.25);
        let mut scr = RScratch::default();
        for l in 0..=R_CUBE_LOW_MAX_L {
            let mut fs = vec![0.0; l + 1];
            crate::boys::boys_fast(l, alpha * pq.norm2(), &mut fs);
            let want: Vec<f64> = {
                let r = hermite_r(l, alpha, pq, &fs, &mut scr);
                hermite_triples(l)
                    .iter()
                    .map(|&(t, u, v)| r.get(t as usize, u as usize, v as usize))
                    .collect()
            };
            let dim = l + 1;
            let mut cube = vec![0.0; dim * dim * dim];
            r_cube_low(l, alpha, pq, 1.0, &fs, &mut cube);
            for (k, &(t, u, v)) in hermite_triples(l).iter().enumerate() {
                let got = cube[((t as usize) * dim + u as usize) * dim + v as usize];
                assert!(
                    (got - want[k]).abs() < 1e-15 * (1.0 + want[k].abs()),
                    "l={l} ({t}{u}{v}): {got} vs {}",
                    want[k]
                );
            }
        }
    }

    #[test]
    fn planned_cube_matches_hermite_r() {
        let alpha = 1.21;
        let pq = Vec3::new(-0.3, 0.8, 0.55);
        let mut scr1 = RScratch::default();
        let mut scr2 = RScratch::default();
        // Descending l: the grow-only scratch then holds stale values from
        // the larger call, which no triangle entry may read.
        for l in (0..=8usize).rev() {
            let mut fs = vec![0.0; l + 1];
            crate::boys::boys_fast(l, alpha * pq.norm2(), &mut fs);
            let want: Vec<f64> = {
                let r = hermite_r(l, alpha, pq, &fs, &mut scr1);
                hermite_triples(l)
                    .iter()
                    .map(|&(t, u, v)| r.get(t as usize, u as usize, v as usize))
                    .collect()
            };
            let dim = l + 1;
            let at = |t: u8, u: u8, v: u8| (t as usize * dim + u as usize) * dim + v as usize;
            let cube = r_cube_planned(l, alpha, pq, 1.0, &fs, &mut scr2);
            for (k, &(t, u, v)) in hermite_triples(l).iter().enumerate() {
                assert_eq!(cube[at(t, u, v)], want[k], "l={l} ({t}{u}{v})");
            }
            // A power-of-two scale commutes with every rounding.
            let cube = r_cube_planned(l, alpha, pq, 0.25, &fs, &mut scr2);
            for (k, &(t, u, v)) in hermite_triples(l).iter().enumerate() {
                assert_eq!(cube[at(t, u, v)], 0.25 * want[k], "l={l} ({t}{u}{v})");
            }
        }
    }

    #[test]
    fn static_components_match_dynamic() {
        for l in 0..=2u8 {
            assert_eq!(cart_components_static(l), cart_components(l).as_slice());
        }
    }

    #[test]
    fn cart_component_order() {
        assert_eq!(cart_components(0), vec![(0, 0, 0)]);
        assert_eq!(cart_components(1), vec![(1, 0, 0), (0, 1, 0), (0, 0, 1)]);
        assert_eq!(
            cart_components(2),
            vec![
                (2, 0, 0),
                (1, 1, 0),
                (1, 0, 1),
                (0, 2, 0),
                (0, 1, 1),
                (0, 0, 2)
            ]
        );
    }
}
