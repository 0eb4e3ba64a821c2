//! Applying a computed shell quartet to the Fock matrix.
//!
//! For a closed-shell system, F = H_core + G(D) with
//! G_ab = Σ_cd D_cd [2(ab|cd) − (ac|bd)]. Each symmetry-unique quartet
//! (MP|NQ) updates, as in the paper's Algorithm 3, the six F blocks F_MP,
//! F_NQ, F_MN, F_PQ, F_MQ, F_PN from the matching D blocks; per integral
//! v = (ij|kl), i ∈ M, j ∈ P, k ∈ N, l ∈ Q:
//!
//! ```text
//! F′[i][j] += deg · D[k][l] · v      F′[k][l] += deg · D[i][j] · v
//! F′[i][k] −= deg/4 · D[j][l] · v    F′[j][l] −= deg/4 · D[i][k] · v
//! F′[i][l] −= deg/4 · D[j][k] · v    F′[j][k] −= deg/4 · D[i][l] · v
//! ```
//!
//! `deg` = 8 / |stabiliser| = (M≠P ? 2 : 1)·(N≠Q ? 2 : 1)·({M,P}≠{N,Q} ?
//! 2 : 1) counts the quartet's distinct ordered shell-tuple images. Each
//! image of the full enumeration adds one Coulomb update to (ij) or (kl)
//! and one exchange update to one of the four cross pairs, in either
//! orientation — hence the ¼. Every builder ends with [`symmetrize`],
//! ½(F′ + F′ᵀ), which folds the orientations together: the result is the
//! full enumeration, exactly symmetric, as the brute-force oracle
//! ([`crate::seq::build_g_bruteforce`]) checks.
//!
//! A sink says where shell pair (a, b) lives ([`BlockView`]), a pair held
//! only as (b, a) being served with swapped strides; [`apply_quartet`]
//! resolves the six views once per quartet.

use crate::tasks::FockProblem;
use chem::Shell;
use eri::{ClassBatcher, DensityNorms, EriEngine, QuartetClass};

/// Where the block of a shell pair (a, b) lives in a sink's D and F
/// slices: element (r, c), r in shell a and c in shell b, is at
/// `off + r·row + c·col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockView {
    pub off: usize,
    pub row: usize,
    pub col: usize,
}

impl BlockView {
    /// A block stored row-major at `off` with `ncols` elements per row.
    #[inline]
    pub fn row_major(off: usize, ncols: usize) -> Self {
        BlockView {
            off,
            row: ncols,
            col: 1,
        }
    }

    /// The same storage read as the transposed pair.
    #[inline]
    pub fn transposed(self) -> Self {
        BlockView {
            row: self.col,
            col: self.row,
            ..self
        }
    }

    /// Index of element (r, c).
    #[inline]
    pub fn at(self, r: usize, c: usize) -> usize {
        self.off + r * self.row + c * self.col
    }
}

/// Where quartet updates land. Implementations: dense matrices
/// ([`DenseSink`]), prefetched process-local buffers
/// ([`crate::localbuf::LocalBuffers`]) and the NWChem baseline's per-atom-
/// quartet pair cache. Its D must be symmetric: the six-block update reads
/// each D block in one orientation only.
pub trait FockSink {
    /// The view of shell pair (a, b); `shells` is the problem's shell list.
    fn block(&self, shells: &[Shell], a: usize, b: usize) -> BlockView;
    /// The D slice the views read and the F slice they accumulate into.
    fn slices(&mut self) -> (&[f64], &mut [f64]);
}

/// Dense full-matrix sink (sequential reference, tests, small systems).
pub struct DenseSink<'a> {
    pub nbf: usize,
    pub d: &'a [f64],
    pub f: &'a mut [f64],
}

impl FockSink for DenseSink<'_> {
    #[inline]
    fn block(&self, shells: &[Shell], a: usize, b: usize) -> BlockView {
        let off = shells[a].bf_offset * self.nbf + shells[b].bf_offset;
        BlockView::row_major(off, self.nbf)
    }

    #[inline]
    fn slices(&mut self) -> (&[f64], &mut [f64]) {
        (self.d, self.f)
    }
}

/// `deg` of the quartet (MP|NQ), `shells = [m, p, n, q]`: 8 over the size
/// of its shell-level stabiliser.
pub(crate) fn degeneracy([m, p, n, q]: [usize; 4]) -> f64 {
    let two_if = |distinct: bool| if distinct { 2.0 } else { 1.0 };
    two_if(m != p) * two_if(n != q) * two_if((m, p) != (n, q) && (m, p) != (q, n))
}

/// Apply one computed quartet block to the sink: the six block updates of
/// the module docs.
///
/// `shells = [m, p, n, q]` — the quartet is (MP|NQ) as the tasks compute
/// it; `block` is the row-major `[nm][np][nn][nq]` spherical block from
/// [`EriEngine::quartet`] called as `quartet(M, P, N, Q)`. The sink's D
/// must be symmetric.
pub fn apply_quartet<S: FockSink>(
    sink: &mut S,
    prob: &FockProblem,
    shells: [usize; 4],
    block: &[f64],
) {
    let sh = &prob.basis.shells;
    let [m, p, n, q] = shells;
    let [_, dp, dn, dq] = shells.map(|s| sh[s].nfuncs());
    debug_assert_eq!(block.len(), sh[m].nfuncs() * dp * dn * dq);
    let [mp, nq, mn, pq, mq, pn] =
        [(m, p), (n, q), (m, n), (p, q), (m, q), (p, n)].map(|(a, b)| sink.block(sh, a, b));
    let (d, f) = sink.slices();
    let coul = degeneracy(shells);
    let exch = -0.25 * coul;

    for (i, rows) in block.chunks_exact(dp * dn * dq).enumerate() {
        for (j, rows) in rows.chunks_exact(dn * dq).enumerate() {
            let ij = mp.at(i, j);
            let d_ij = coul * d[ij];
            let mut f_ij = 0.0;
            for (k, row) in rows.chunks_exact(dq).enumerate() {
                let (ik, jk) = (mn.at(i, k), pn.at(j, k));
                let (d_ik, d_jk) = (exch * d[ik], exch * d[jk]);
                let (mut f_ik, mut f_jk) = (0.0, 0.0);
                for (l, &v) in row.iter().enumerate() {
                    let (kl, jl, il) = (nq.at(k, l), pq.at(j, l), mq.at(i, l));
                    f_ij += d[kl] * v;
                    f[kl] += d_ij * v;
                    f_ik += d[jl] * v;
                    f[jl] += d_ik * v;
                    f_jk += d[il] * v;
                    f[il] += d_jk * v;
                }
                f[ik] += exch * f_ik;
                f[jk] += exch * f_jk;
            }
            f[ij] += coul * f_ij;
        }
    }
}

/// G ← ½(G + Gᵀ) for a row-major n×n G: the one assembly step of every
/// quartet builder, after every F block landed.
pub fn symmetrize(g: &mut [f64], n: usize) {
    assert_eq!(g.len(), n * n);
    for i in 0..n {
        for j in 0..i {
            let v = 0.5 * (g[i * n + j] + g[j * n + i]);
            g[i * n + j] = v;
            g[j * n + i] = v;
        }
    }
}

/// What one task's quartet loop did: ERIs evaluated, and quartets that
/// plain Schwarz screening would have kept but the density-weighted test
/// dropped (the incremental-build saving the obs counters surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounts {
    pub computed: u64,
    pub skipped_density: u64,
}

/// Compute and apply every quartet of one task (M,:|N,:) — Algorithm 3
/// with the density-weighted quartet test. Returns the task's counts.
///
/// Quartets surviving both screening tests are queued into the caller's
/// [`ClassBatcher`] (grouped by angular-momentum class) and evaluated
/// through `eng`'s batched class kernel in one flush at task end. The
/// batcher's [`ClassStats`](eri::ClassStats) accumulate across tasks —
/// builders drain them once per build for the `eri.class.*` metrics.
pub fn do_task<S: FockSink>(
    sink: &mut S,
    prob: &FockProblem,
    eng: &mut EriEngine,
    batcher: &mut ClassBatcher,
    dn: &DensityNorms,
    m: usize,
    n: usize,
) -> TaskCounts {
    let mut counts = TaskCounts::default();
    let sh = &prob.basis.shells;
    for &p in prob.phi(m) {
        let p = p as usize;
        for &q in prob.phi(n) {
            let q = q as usize;
            if !prob.quartet_selected(m, p, n, q) {
                continue;
            }
            if !prob.quartet_selected_weighted(dn, m, p, n, q) {
                counts.skipped_density += 1;
                continue;
            }
            batcher.push(
                QuartetClass::try_of(sh[m].l, sh[p].l, sh[n].l, sh[q].l),
                [m as u32, p as u32, n as u32, q as u32],
            );
            counts.computed += 1;
        }
    }
    // Φ membership implies every queued (M,P)/(N,Q) pair survived
    // screening, so the pair views the flush takes are always present.
    batcher.flush(eng, prob.pairs(), |quartet, block| {
        apply_quartet(sink, prob, quartet.map(|s| s as usize), block);
    });
    counts
}
