//! Class-specialized, batched ERI kernels.
//!
//! Every quartet the builders evaluate belongs to an angular-momentum
//! *class* — the signature (l_a, l_b | l_c, l_d), e.g. (ss|ss), (ps|ss),
//! (pp|ps). Quartets of one class share every loop bound and index map of
//! the McMurchie–Davidson contraction, so evaluating them together lets
//! the Boys function run over a contiguous lane array and the Hermite
//! contractions run as unit-stride axpys of class-constant length (the
//! Xeon Phi HF literature's batching playbook, arXiv:1708.00033).
//!
//! The pipeline per class chunk:
//!
//! 1. **Lane geometry pass** — walk every primitive pair × primitive pair
//!    "lane" of the chunk and fill pre-sized arrays of T = α|PQ|², α, PQ,
//!    and the 2π^{5/2}/(pq√(p+q))·c_ab·c_cd prefactor (one division and
//!    one square root per lane).
//! 2. **Batched Boys** — one [`boys_fast_batch`] sweep over the whole
//!    T array fills F_0..F_l for every lane.
//! 3. **Hermite contraction** — per lane, build the prefactor-scaled R
//!    cube (fully unrolled closed forms for l ≤ 2, the planned recursion
//!    above) and transform it with the *inner* pair's component
//!    coefficients only; the *outer* pair's transform runs once per outer
//!    primitive pair. Both visit just the structurally non-zero
//!    coefficients ([`crate::pairdata::CoefPattern`]) — see
//!    `contract_items`.
//!
//! [`BatchKernel::eval`] is the batched evaluator and the crate's only
//! production contraction: the 16 all-s/p classes dispatch to
//! monomorphized instantiations of the shared contraction body (literal
//! dimensions), the d-bearing classes run the same body with runtime
//! dimensions. Each [`EriEngine`] owns one kernel; single-quartet callers
//! reach it as a one-item batch (`EriEngine::quartet_views`). Angular
//! momenta beyond l ≤ 2 have no class and no kernel.
//!
//! [`ClassBatcher`] is the batch planner the build paths drive at
//! shell-pair-task granularity: quartets surviving (density-weighted)
//! screening are pushed into per-class buckets and flushed through the
//! engine's kernel in lane-budgeted chunks, with per-class quartet counts
//! and wall time accumulated in [`ClassStats`] for the `eri.class.*`
//! metrics.

use crate::boys::boys_fast_batch;
use crate::hermite::{
    hermite_triples, nherm, r_cube_low, r_cube_planned, RScratch, R_CUBE_LOW_MAX_L,
};
use crate::pairdata::{PairView, ShellPairData};
use crate::spherical::{ncart, nsph, transform_axis_into};
use crate::teints::{EriEngine, TWO_PI_POW_2_5};
use chem::Vec3;
use std::sync::OnceLock;
use std::time::Instant;

/// Highest per-shell angular momentum the class taxonomy covers (d).
pub const CLASS_MAX_L: u8 = 2;
/// Number of classes: (CLASS_MAX_L+1)⁴.
pub const NCLASSES: usize = 81;

/// An angular-momentum class signature (l_a l_b | l_c l_d), packed base-3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuartetClass(u8);

impl QuartetClass {
    /// Classify by the four shells' angular momenta; `None` beyond the
    /// supported l ≤ 2 (no kernel evaluates those).
    #[inline]
    pub fn try_of(la: u8, lb: u8, lc: u8, ld: u8) -> Option<QuartetClass> {
        if la > CLASS_MAX_L || lb > CLASS_MAX_L || lc > CLASS_MAX_L || ld > CLASS_MAX_L {
            return None;
        }
        Some(QuartetClass(((la * 3 + lb) * 3 + lc) * 3 + ld))
    }

    /// Like [`Self::try_of`] but panics beyond the taxonomy.
    pub fn of(la: u8, lb: u8, lc: u8, ld: u8) -> QuartetClass {
        Self::try_of(la, lb, lc, ld).expect("angular momentum beyond s/p/d")
    }

    /// Dense index in 0..NCLASSES.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Self::index`].
    #[inline]
    pub fn from_index(i: usize) -> QuartetClass {
        assert!(i < NCLASSES);
        QuartetClass(i as u8)
    }

    /// The four angular momenta (l_a, l_b, l_c, l_d).
    #[inline]
    pub fn momenta(self) -> (u8, u8, u8, u8) {
        let v = self.0;
        (v / 27, (v / 9) % 3, (v / 3) % 3, v % 3)
    }

    /// Compact code, e.g. `psss` — used in metric names and JSON keys.
    pub fn code(self) -> String {
        const LETTER: [char; 3] = ['s', 'p', 'd'];
        let (a, b, c, d) = self.momenta();
        [a, b, c, d].iter().map(|&l| LETTER[l as usize]).collect()
    }

    /// Display name, e.g. `(ps|ss)`.
    pub fn name(self) -> String {
        let code = self.code();
        let (ab, cd) = code.split_at(2);
        format!("({ab}|{cd})")
    }
}

/// Per-class quartet counts and wall time, accumulated by
/// [`ClassBatcher::flush`].
#[derive(Debug, Clone)]
pub struct ClassStats {
    quartets: [u64; NCLASSES],
    ns: [u64; NCLASSES],
}

/// One class's totals, resolved for reporting.
#[derive(Debug, Clone)]
pub struct ClassStatEntry {
    /// `psss`-style code.
    pub code: String,
    /// `(ps|ss)`-style display name.
    pub name: String,
    pub quartets: u64,
    pub ns: u64,
}

impl Default for ClassStats {
    fn default() -> Self {
        ClassStats {
            quartets: [0; NCLASSES],
            ns: [0; NCLASSES],
        }
    }
}

impl ClassStats {
    #[inline]
    fn add(&mut self, slot: usize, quartets: u64, ns: u64) {
        self.quartets[slot] += quartets;
        self.ns[slot] += ns;
    }

    /// Fold another accumulator in (per-worker stats → build totals).
    pub fn merge(&mut self, other: &ClassStats) {
        for i in 0..NCLASSES {
            self.quartets[i] += other.quartets[i];
            self.ns[i] += other.ns[i];
        }
    }

    /// Totals for every class that saw at least one quartet.
    pub fn entries(&self) -> Vec<ClassStatEntry> {
        (0..NCLASSES)
            .filter(|&i| self.quartets[i] > 0)
            .map(|i| {
                let c = QuartetClass::from_index(i);
                ClassStatEntry {
                    code: c.code(),
                    name: c.name(),
                    quartets: self.quartets[i],
                    ns: self.ns[i],
                }
            })
            .collect()
    }

    /// Total quartets across all classes.
    pub fn total_quartets(&self) -> u64 {
        self.quartets.iter().sum()
    }
}

/// Precomputed per-class index maps shared by every batch of the class.
///
/// The kernel evaluates each quartet as (outer|inner), the *outer* pair
/// being the one with the longer Hermite axis (the bra on ties): every
/// inner loop then runs unit-stride over the outer pair's nherm entries.
/// (ab|cd) = (cd|ab), so a class whose ket is outer — (ss|pp), (ss|dp), … —
/// is evaluated as (cd|ab) and each block transposed on the way out.
struct ClassPlan {
    /// Spherical integrals per quartet.
    nper: usize,
    /// The ket is the outer pair.
    ket_outer: bool,
    /// Momenta in evaluation order: outer pair, then inner pair.
    ls: [u8; 4],
    /// Dense-cube offset `(t·dim + u)·dim + v` of every outer Hermite
    /// triple. The offset is linear in (t, u, v), so the R entry of
    /// (outer triple h ⊕ inner triple k) sits at `oidx[h] + iidx[k]`.
    oidx: Vec<usize>,
    /// `[nhi]` the same for the inner triples…
    iidx: Vec<usize>,
    /// …and their (−1)^{τ+ν+φ} parities.
    isign: Vec<f64>,
}

fn plan_for(class: QuartetClass) -> &'static ClassPlan {
    static PLANS: OnceLock<[OnceLock<ClassPlan>; NCLASSES]> = OnceLock::new();
    let plans = PLANS.get_or_init(|| std::array::from_fn(|_| OnceLock::new()));
    plans[class.index()].get_or_init(|| {
        let (la, lb, lc, ld) = class.momenta();
        let ket_outer = lc + ld > la + lb;
        let ls = if ket_outer {
            [lc, ld, la, lb]
        } else {
            [la, lb, lc, ld]
        };
        let dim = (la + lb + lc + ld) as usize + 1;
        let offsets = |l: u8| -> Vec<usize> {
            hermite_triples(l as usize)
                .iter()
                .map(|&(t, u, v)| (t as usize * dim + u as usize) * dim + v as usize)
                .collect()
        };
        ClassPlan {
            nper: nsph(la) * nsph(lb) * nsph(lc) * nsph(ld),
            ket_outer,
            ls,
            oidx: offsets(ls[0] + ls[1]),
            iidx: offsets(ls[2] + ls[3]),
            isign: hermite_triples((ls[2] + ls[3]) as usize)
                .iter()
                .map(|&(t, u, v)| if (t + u + v) % 2 == 1 { -1.0 } else { 1.0 })
                .collect(),
        }
    })
}

/// Per-lane (primitive-quartet) geometry written by pass 1.
#[derive(Clone, Copy, Default)]
struct Lane {
    /// α = pq/(p+q).
    alpha: f64,
    /// P_outer − P_inner.
    pq: Vec3,
    /// 2π^{5/2}/(pq√(p+q))·c_outer·c_inner.
    pref: f64,
}

/// The batched class evaluator: reusable lane arrays plus contraction
/// scratch. One per thread — every [`EriEngine`] owns one.
#[derive(Default)]
pub struct BatchKernel {
    t: Vec<f64>,
    lanes: Vec<Lane>,
    fs: Vec<f64>,
    rm: Vec<f64>,
    g: Vec<f64>,
    gt: Vec<f64>,
    cart: Vec<f64>,
    cube: Vec<f64>,
    tmp: Vec<f64>,
    r_scratch: RScratch,
}

/// The `i`-th quartet of a chunk as (bra, ket) views.
type ItemFn<'a, 'p> = &'a dyn Fn(usize) -> (PairView<'p>, PairView<'p>);

/// Borrowed state the monomorphized contraction bodies operate on.
struct Ctx<'a, 'p> {
    nitems: usize,
    item: ItemFn<'a, 'p>,
    plan: &'a ClassPlan,
    fs: &'a [f64],
    lanes: &'a [Lane],
    rm: &'a mut Vec<f64>,
    g: &'a mut Vec<f64>,
    gt: &'a mut Vec<f64>,
    cart: &'a mut Vec<f64>,
    cube: &'a mut Vec<f64>,
    tmp: &'a mut Vec<f64>,
    r_scratch: &'a mut RScratch,
    out: &'a mut [f64],
}

/// Quartet `i` as (outer, inner) views.
#[inline]
fn oriented<'p>(item: ItemFn<'_, 'p>, ket_outer: bool, i: usize) -> (PairView<'p>, PairView<'p>) {
    let (bra, ket) = item(i);
    if ket_outer {
        (ket, bra)
    } else {
        (bra, ket)
    }
}

impl BatchKernel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate a batch of same-class quartets, writing each quartet's
    /// spherical block consecutively into `out` (`nper` doubles per item,
    /// returned). Every item's `(bra, ket)` angular momenta must match
    /// `class`.
    pub fn eval<'p>(
        &mut self,
        class: QuartetClass,
        items: &[(PairView<'p>, PairView<'p>)],
        out: &mut Vec<f64>,
    ) -> usize {
        self.eval_with(class, items.len(), &|i| items[i], out)
    }

    /// [`Self::eval`] over quartets produced on demand — [`ClassBatcher`]
    /// resolves its queued shell indices through this, so a flush
    /// materialises no view list.
    fn eval_with<'p>(
        &mut self,
        class: QuartetClass,
        nitems: usize,
        item: ItemFn<'_, 'p>,
        out: &mut Vec<f64>,
    ) -> usize {
        let plan = plan_for(class);
        let [lo1, lo2, li1, li2] = plan.ls.map(usize::from);
        let l = lo1 + lo2 + li1 + li2;
        let dim = l + 1;

        // Pass 1: lane geometry over every primitive pair × pair, outer
        // primitive major, into arrays sized up front.
        let nlanes: usize = (0..nitems)
            .map(|i| {
                let (bra, ket) = item(i);
                debug_assert_eq!(
                    QuartetClass::of(bra.la as u8, bra.lb as u8, ket.la as u8, ket.lb as u8),
                    class
                );
                bra.nprim_pairs() * ket.nprim_pairs()
            })
            .sum();
        self.t.clear();
        self.t.resize(nlanes, 0.0);
        self.lanes.clear();
        self.lanes.resize(nlanes, Lane::default());
        let mut base = 0;
        for i in 0..nitems {
            let (outer, inner) = oriented(item, plan.ket_outer, i);
            let inner = inner.prims();
            for op in outer.prims() {
                let ts = &mut self.t[base..base + inner.len()];
                let lanes = &mut self.lanes[base..base + inner.len()];
                base += inner.len();
                for ((t, lane), ip) in ts.iter_mut().zip(lanes).zip(inner) {
                    let (p, q) = (op.p, ip.p);
                    let inv = 1.0 / (p + q);
                    let alpha = p * q * inv;
                    let pq = op.center - ip.center;
                    *t = alpha * pq.norm2();
                    *lane = Lane {
                        alpha,
                        pq,
                        pref: TWO_PI_POW_2_5 * inv.sqrt() * op.coef_over_p * ip.coef_over_p,
                    };
                }
            }
        }

        // Pass 2: batched Boys over the contiguous T array.
        self.fs.clear();
        self.fs.resize(nlanes * dim, 0.0);
        boys_fast_batch(l, &self.t, &mut self.fs);

        // Pass 3: per-lane R cube + sparse Hermite contractions, dispatched
        // so the all-s/p classes get literal dimensions.
        let nper = plan.nper;
        out.clear();
        out.resize(nitems * nper, 0.0);
        let mut ctx = Ctx {
            nitems,
            item,
            plan,
            fs: &self.fs,
            lanes: &self.lanes,
            rm: &mut self.rm,
            g: &mut self.g,
            gt: &mut self.gt,
            cart: &mut self.cart,
            cube: &mut self.cube,
            tmp: &mut self.tmp,
            r_scratch: &mut self.r_scratch,
            out,
        };
        // The body depends on a pair only through its total momentum and
        // Cartesian component count, so the 16 all-s/p classes share six
        // instantiations (ss, sp/ps and pp pairs, outer ≥ inner) and the
        // d-bearing classes two: an ss inner pair, or any other.
        let (lo, li) = (lo1 + lo2, li1 + li2);
        let (nco, nci) = (
            ncart(lo1 as u8) * ncart(lo2 as u8),
            ncart(li1 as u8) * ncart(li2 as u8),
        );
        macro_rules! sp_dispatch {
            ($(($lo:literal, $nco:literal, $li:literal, $nci:literal)),+ $(,)?) => {
                match (lo, nco, li, nci) {
                    $( ($lo, $nco, $li, $nci) => contract_items(&mut ctx, $lo, $nco, $li, $nci), )+
                    _ if li == 0 => contract_items(&mut ctx, lo, nco, 0, 1),
                    _ => contract_items(&mut ctx, lo, nco, li, nci),
                }
            };
        }
        sp_dispatch!(
            (0, 1, 0, 1),
            (1, 3, 0, 1),
            (1, 3, 1, 3),
            (2, 9, 0, 1),
            (2, 9, 1, 3),
            (2, 9, 2, 9),
        );
        nper
    }
}

/// The shared contraction body, classic McMurchie–Davidson ordering.
/// With B and C the outer and inner pairs' component coefficients
/// ([`PairView::coefs`]) and R̃[k][h] = pref·sgn_k·R[h ⊕ k]:
///
/// * per lane, only the inner transform g[ic][·] += C[ic][k]·R̃[k][·],
///   accumulated over the inner primitives;
/// * per outer primitive pair, once, cart[io][·] += B[io][h]·gᵀ[h][·].
///
/// Both are axpys over a contiguous axis that visit only the structurally
/// non-zero coefficients. Called with literal dimensions from the s/p
/// dispatch arms (`#[inline(always)]` + constant propagation fix every
/// axpy length) and with runtime dimensions for the d-bearing classes.
/// `lo`/`li` are the pairs' total momenta, `nco`/`nci` their Cartesian
/// component counts.
#[inline(always)]
fn contract_items(ctx: &mut Ctx<'_, '_>, lo: usize, nco: usize, li: usize, nci: usize) {
    let l = lo + li;
    let dim = l + 1;
    let size = dim * dim * dim;
    let (nho, nhi) = (nherm(lo), nherm(li));
    let plan = ctx.plan;
    let (oidx, iidx, isign) = (&plan.oidx[..nho], &plan.iidx[..nhi], &plan.isign[..nhi]);
    let nper = plan.nper;

    for (buf, len) in [
        (&mut *ctx.rm, nhi * nho),
        (&mut *ctx.g, nci * nho),
        (&mut *ctx.gt, nho * nci),
        (&mut *ctx.cube, size),
    ] {
        buf.clear();
        buf.resize(len, 0.0);
    }

    let mut lane = 0usize;
    for qi in 0..ctx.nitems {
        let (outer, inner) = oriented(ctx.item, plan.ket_outer, qi);
        let (opat, ipat) = (outer.pattern(), inner.pattern());
        let (orows, irows) = (&outer.row_order()[..nco], &inner.row_order()[..nci]);
        ctx.cart.clear();
        ctx.cart.resize(nco * nci, 0.0);
        for ko in 0..outer.nprim_pairs() {
            let g = &mut ctx.g[..nci * nho];
            g.fill(0.0);
            for ki in 0..inner.nprim_pairs() {
                let fs = &ctx.fs[lane * dim..lane * dim + dim];
                let Lane { alpha, pq, pref } = ctx.lanes[lane];
                lane += 1;

                // pref·R cube: unrolled closed form for low L, the planned
                // recursion above.
                let cube: &[f64] = if l <= R_CUBE_LOW_MAX_L {
                    r_cube_low(l, alpha, pq, pref, fs, ctx.cube);
                    &ctx.cube[..size]
                } else {
                    r_cube_planned(l, alpha, pq, pref, fs, ctx.r_scratch)
                };

                if li == 0 {
                    // An ss inner pair: one coefficient, no signs, R̃ = cube.
                    let c = inner.coefs(ki)[0];
                    for (gv, &h) in g.iter_mut().zip(oidx) {
                        *gv += c * cube[h];
                    }
                } else {
                    // Gather the signed R values once per lane, the outer axis
                    // contiguous.
                    let rm = &mut ctx.rm[..nhi * nho];
                    for ((row, &base), &sgn) in rm.chunks_exact_mut(nho).zip(iidx).zip(isign) {
                        for (r, &h) in row.iter_mut().zip(oidx) {
                            *r = sgn * cube[base + h];
                        }
                    }

                    // g[ic][·] += C[ic][k] · R̃[k][·] over the non-zero C[ic][k].
                    let coefs = inner.coefs(ki);
                    for (r, &ic) in irows.iter().enumerate() {
                        let grow = &mut g[ic * nho..(ic + 1) * nho];
                        let nz = ipat.ptr[r]..ipat.ptr[r + 1];
                        for (&c, &k) in coefs[nz.clone()].iter().zip(&ipat.col[nz]) {
                            let rrow = &rm[k * nho..(k + 1) * nho];
                            for (gv, &rv) in grow.iter_mut().zip(rrow) {
                                *gv += c * rv;
                            }
                        }
                    }
                }
            }

            // cart[io][·] += B[io][h] · gᵀ[h][·] over the non-zero B[io][h],
            // once per outer primitive pair.
            let gt = &mut ctx.gt[..nho * nci];
            for (ic, grow) in g.chunks_exact(nho).enumerate() {
                for (h, &v) in grow.iter().enumerate() {
                    gt[h * nci + ic] = v;
                }
            }
            let coefs = outer.coefs(ko);
            for (r, &io) in orows.iter().enumerate() {
                let crow = &mut ctx.cart[io * nci..(io + 1) * nci];
                let nz = opat.ptr[r]..opat.ptr[r + 1];
                for (&c, &h) in coefs[nz.clone()].iter().zip(&opat.col[nz]) {
                    let grow = &gt[h * nci..(h + 1) * nci];
                    for (cv, &gv) in crow.iter_mut().zip(grow) {
                        *cv += c * gv;
                    }
                }
            }
        }

        // Spherical transform in evaluation order (identity for s and p
        // axes), last axis first so earlier strides stay valid.
        let ls = plan.ls;
        let (mut ahead, mut behind) = (nco * nci, 1);
        for &lx in ls.iter().rev() {
            ahead /= ncart(lx);
            if lx >= 2 {
                transform_axis_into(ctx.cart, ahead, behind, lx, ctx.tmp);
                std::mem::swap(ctx.cart, ctx.tmp);
            }
            behind *= nsph(lx);
        }
        let dst = &mut ctx.out[qi * nper..(qi + 1) * nper];
        if plan.ket_outer {
            // The block is (cd|ab): transpose to [ab][cd].
            let nab = nsph(ls[2]) * nsph(ls[3]);
            for (icd, row) in ctx.cart[..nper].chunks_exact(nab).enumerate() {
                for (iab, &v) in row.iter().enumerate() {
                    dst[iab * (nper / nab) + icd] = v;
                }
            }
        } else {
            dst.copy_from_slice(&ctx.cart[..nper]);
        }
    }
}

/// Flush chunks stop growing past this many quartets…
const MAX_CHUNK: usize = 64;
/// …or this many primitive-quartet lanes, whichever comes first (bounds
/// the SoA scratch for deeply contracted classes).
const LANE_BUDGET: usize = 8192;

/// The batch planner one build-path worker drives per shell-pair task:
/// push every quartet that survives screening, then [`Self::flush`] once
/// per task to evaluate all buckets class-by-class and hand each
/// quartet's spherical block to the sink callback.
pub struct ClassBatcher {
    buckets: Vec<Vec<[u32; 4]>>,
    stats: ClassStats,
    out: Vec<f64>,
}

impl Default for ClassBatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassBatcher {
    pub fn new() -> Self {
        ClassBatcher {
            buckets: (0..NCLASSES).map(|_| Vec::new()).collect(),
            stats: ClassStats::default(),
            out: Vec::new(),
        }
    }

    /// Queue one quartet (shell indices `[m, p, n, q]` as the sink's
    /// `apply_quartet` expects them). `class` is
    /// `QuartetClass::try_of(...)` over the four shells' momenta; `None`
    /// (a shell beyond d) panics — no kernel evaluates such a quartet.
    #[inline]
    pub fn push(&mut self, class: Option<QuartetClass>, quartet: [u32; 4]) {
        let class = class.expect("angular momentum beyond s/p/d");
        self.buckets[class.index()].push(quartet);
    }

    /// Evaluate everything queued since the last flush through `eng`'s
    /// kernel, invoking `apply(quartet, spherical_block)` once per quartet.
    /// Deterministic order: class index, then insertion order. Per-class
    /// wall time and counts accumulate into [`Self::stats`].
    pub fn flush<F>(&mut self, eng: &mut EriEngine, pairs: &ShellPairData, mut apply: F)
    where
        F: FnMut([u32; 4], &[f64]),
    {
        let views = |q: [u32; 4]| {
            (
                pairs
                    .view(q[0] as usize, q[1] as usize)
                    .expect("queued bra pair present"),
                pairs
                    .view(q[2] as usize, q[3] as usize)
                    .expect("queued ket pair present"),
            )
        };
        for idx in 0..NCLASSES {
            if self.buckets[idx].is_empty() {
                continue;
            }
            let class = QuartetClass::from_index(idx);
            let bucket = std::mem::take(&mut self.buckets[idx]);
            let t0 = Instant::now();
            let mut rest = &bucket[..];
            while !rest.is_empty() {
                let mut lanes = 0usize;
                let mut n = 0;
                while n < rest.len() && n < MAX_CHUNK && lanes < LANE_BUDGET {
                    let (bra, ket) = views(rest[n]);
                    lanes += bra.nprim_pairs() * ket.nprim_pairs();
                    n += 1;
                }
                let (chunk, tail) = rest.split_at(n);
                let nper = eng
                    .kernel
                    .eval_with(class, n, &|i| views(chunk[i]), &mut self.out);
                for (&q, block) in chunk.iter().zip(self.out.chunks_exact(nper)) {
                    apply(q, block);
                }
                rest = tail;
            }
            self.stats
                .add(idx, bucket.len() as u64, t0.elapsed().as_nanos() as u64);
            self.buckets[idx] = bucket;
            self.buckets[idx].clear();
        }
    }

    /// Accumulated per-class totals (across all flushes so far).
    pub fn stats(&self) -> &ClassStats {
        &self.stats
    }

    /// Drain the accumulated stats, resetting the batcher's counters —
    /// how a long-lived per-worker batcher reports one build's totals.
    pub fn take_stats(&mut self) -> ClassStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairdata::ShellPair;
    use crate::screening::Screening;
    use chem::generators;
    use chem::shells::BasisInstance;
    use chem::BasisSetKind;

    #[test]
    fn class_codes_and_roundtrip() {
        assert_eq!(QuartetClass::of(0, 0, 0, 0).code(), "ssss");
        assert_eq!(QuartetClass::of(1, 0, 0, 0).name(), "(ps|ss)");
        assert_eq!(QuartetClass::of(2, 1, 0, 2).name(), "(dp|sd)");
        assert!(QuartetClass::try_of(3, 0, 0, 0).is_none());
        for i in 0..NCLASSES {
            let c = QuartetClass::from_index(i);
            assert_eq!(c.index(), i);
            let (a, b, cc, d) = c.momenta();
            assert_eq!(QuartetClass::of(a, b, cc, d), c);
        }
    }

    #[test]
    fn batched_matches_reference_kernel_per_class() {
        // Every class constructible from a d-bearing basis: batch three
        // copies of a quartet and compare each block to quartet_ref.
        let basis = BasisInstance::new(generators::methane(), BasisSetKind::CcPvdz).unwrap();
        let s = &basis.shells;
        let mut eng = EriEngine::new();
        let mut kernel = BatchKernel::new();
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut want = Vec::new();
        for a in 0..s.len() {
            for b in 0..s.len() {
                for c in 0..s.len() {
                    for d in 0..s.len() {
                        let class = QuartetClass::of(s[a].l, s[b].l, s[c].l, s[d].l);
                        if !seen.insert(class) {
                            continue;
                        }
                        let bra = ShellPair::new(&s[a], &s[b]);
                        let ket = ShellPair::new(&s[c], &s[d]);
                        let items = vec![(bra.view(false), ket.view(false)); 3];
                        let nper = kernel.eval(class, &items, &mut out);
                        eng.quartet_ref(&s[a], &s[b], &s[c], &s[d], &mut want);
                        assert_eq!(nper, want.len(), "{}", class.name());
                        for copy in 0..3 {
                            for (i, &w) in want.iter().enumerate() {
                                let got = out[copy * nper + i];
                                assert!(
                                    (got - w).abs() < 1e-12 * (1.0 + w.abs()),
                                    "{} [{i}]: {got} vs {w}",
                                    class.name()
                                );
                            }
                        }
                    }
                }
            }
        }
        // methane/cc-pVDZ has s, p and d shells: all 81 classes occur.
        assert_eq!(seen.len(), NCLASSES);
    }

    #[test]
    fn heterogeneous_chunks_match_reference_per_class() {
        // One chunk per class mixing what a real bucket mixes: quartets of
        // different contraction depths (lane counts), pairs served in
        // either stored orientation, and same-centre pairs, whose E
        // coefficients carry exact zeros beyond the structural ones. A lane
        // offset or orientation slip between items lands on another
        // quartet's lanes and cannot survive the comparison.
        let basis = BasisInstance::new(generators::linear_alkane(2), BasisSetKind::CcPvdz).unwrap();
        let by_l: Vec<Vec<&chem::shells::Shell>> = (0..=CLASS_MAX_L)
            .map(|l| basis.shells.iter().filter(|s| s.l == l).collect())
            .collect();
        let mut eng = EriEngine::new();
        let mut kernel = BatchKernel::new();
        let (mut out, mut want) = (Vec::new(), Vec::new());
        let mut mixed_depth = 0;
        for idx in 0..NCLASSES {
            let class = QuartetClass::from_index(idx);
            let (la, lb, lc, ld) = class.momenta();
            let pick = |l: u8, j: usize| by_l[l as usize][j % by_l[l as usize].len()];
            const NITEMS: usize = 7;
            let shells: Vec<[&chem::shells::Shell; 4]> = (0..NITEMS)
                .map(|j| {
                    [
                        pick(la, j),
                        pick(lb, j / 2),
                        pick(lc, 3 * j + 1),
                        pick(ld, 5 * j + 2),
                    ]
                })
                .collect();
            // Odd items: the pair is stored reversed and viewed swapped.
            let stored: Vec<(ShellPair, ShellPair)> = shells
                .iter()
                .enumerate()
                .map(|(j, &[a, b, c, d])| {
                    if j % 2 == 1 {
                        (ShellPair::new(b, a), ShellPair::new(d, c))
                    } else {
                        (ShellPair::new(a, b), ShellPair::new(c, d))
                    }
                })
                .collect();
            let items: Vec<_> = stored
                .iter()
                .enumerate()
                .map(|(j, (bra, ket))| (bra.view(j % 2 == 1), ket.view(j % 2 == 1)))
                .collect();
            let depths: std::collections::HashSet<usize> = items
                .iter()
                .map(|(b, k)| b.nprim_pairs() * k.nprim_pairs())
                .collect();
            mixed_depth += usize::from(depths.len() > 1);
            assert!(
                shells.iter().any(|s| s[0].atom == s[1].atom)
                    && shells.iter().any(|s| s[0].atom != s[1].atom),
                "{}: same-centre and two-centre bras",
                class.name()
            );
            let nper = kernel.eval(class, &items, &mut out);
            for (j, &[a, b, c, d]) in shells.iter().enumerate() {
                eng.quartet_ref(a, b, c, d, &mut want);
                assert_eq!(nper, want.len());
                for (i, (&got, &w)) in out[j * nper..].iter().zip(&want).enumerate() {
                    assert!(
                        (got - w).abs() < 1e-12 * (1.0 + w.abs()),
                        "{} item {j} [{i}]: {got} vs {w}",
                        class.name()
                    );
                }
            }
        }
        // cc-pVDZ d shells are single primitives; every class with an s or
        // p shell mixes depths.
        assert_eq!(mixed_depth, NCLASSES - 1);
    }

    #[test]
    fn batcher_flush_matches_direct_evaluation() {
        let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let scr = Screening::compute(&basis, 1e-10);
        let pairs = ShellPairData::build(&basis, &scr);
        let n = basis.nshells();
        let mut batcher = ClassBatcher::new();
        let mut eng = EriEngine::new();
        let sh = &basis.shells;
        let mut queued = Vec::new();
        for m in 0..n {
            for p in 0..n {
                for q in 0..n {
                    if pairs.view(m, p).is_none() || pairs.view(0, q).is_none() {
                        continue;
                    }
                    let quartet = [m as u32, p as u32, 0, q as u32];
                    batcher.push(
                        QuartetClass::try_of(sh[m].l, sh[p].l, sh[0].l, sh[q].l),
                        quartet,
                    );
                    queued.push(quartet);
                }
            }
        }
        let mut got = std::collections::HashMap::new();
        batcher.flush(&mut eng, &pairs, |q, block| {
            got.insert(q, block.to_vec());
        });
        assert_eq!(got.len(), queued.len());
        assert_eq!(batcher.stats().total_quartets(), queued.len() as u64);
        // Shell indices above and below the diagonal: the flush serves both
        // stored orientations of a pair.
        assert!(queued.iter().any(|q| q[0] > q[1]) && queued.iter().any(|q| q[0] < q[1]));
        let mut want = Vec::new();
        for q in queued {
            let [a, b, c, d] = q.map(|i| &sh[i as usize]);
            eng.quartet_ref(a, b, c, d, &mut want);
            let block = &got[&q];
            assert_eq!(block.len(), want.len());
            for (x, y) in block.iter().zip(&want) {
                assert!((x - y).abs() < 1e-12 * (1.0 + y.abs()), "{q:?}: {x} vs {y}");
            }
        }
        let entries = batcher.stats().entries();
        assert!(!entries.is_empty());
        assert!(entries.iter().all(|e| e.quartets > 0));
    }

    #[test]
    #[should_panic(expected = "angular momentum beyond s/p/d")]
    fn pushing_an_unclassified_quartet_panics() {
        ClassBatcher::new().push(QuartetClass::try_of(3, 0, 0, 0), [0; 4]);
    }
}
