//! Applying a computed shell quartet to the Fock matrix.
//!
//! For a closed-shell system, F = H_core + G(D) with
//! G_ab = Σ_cd D_cd [2(ab|cd) − (ac|bd)]. Enumerating *all* ordered
//! quadruples, each quartet value v = (ab|cd) contributes
//!
//! ```text
//! F[a][b] += 2 · D[c][d] · v        (Coulomb)
//! F[a][c] −=     D[b][d] · v        (exchange)
//! ```
//!
//! The build algorithms compute each symmetry-unique quartet once; this
//! module expands it to its distinct ordered shell-tuple images and applies
//! the two updates per image, which is exactly equivalent to full
//! enumeration — no fractional weights, no special cases for coincident
//! indices. Correctness is checked against brute-force full enumeration.
//!
//! The parallel builders hold each F block in one orientation and
//! accumulate it once, so the global F′ holds every ordered update at
//! (i, j) or at (j, i); [`symmetrize`] turns it into ½(F′ + F′ᵀ), the
//! ordered-update sum, exactly symmetric.

use crate::tasks::FockProblem;
use eri::{ClassBatcher, DensityNorms, EriEngine, QuartetClass};

/// Where quartet updates land. Implementations: dense matrices
/// ([`DenseSink`]), prefetched process-local buffers
/// ([`crate::localbuf::LocalBuffers`]).
pub trait FockSink {
    /// Read D at global basis-function indices (i, j).
    fn d(&self, i: usize, j: usize) -> f64;
    /// Accumulate into F at global basis-function indices (i, j).
    fn f_add(&mut self, i: usize, j: usize, v: f64);
}

/// Dense full-matrix sink (sequential reference, tests, small systems).
pub struct DenseSink<'a> {
    pub nbf: usize,
    pub d: &'a [f64],
    pub f: &'a mut [f64],
}

impl FockSink for DenseSink<'_> {
    #[inline]
    fn d(&self, i: usize, j: usize) -> f64 {
        self.d[i * self.nbf + j]
    }

    #[inline]
    fn f_add(&mut self, i: usize, j: usize, v: f64) {
        self.f[i * self.nbf + j] += v;
    }
}

/// The 8 symmetry permutations of a quartet (slots a,b,c,d of (ab|cd)):
/// bra swap, ket swap, bra↔ket swap, and their compositions. Each entry
/// maps image slot → original slot.
pub const QUARTET_PERMS: [[usize; 4]; 8] = [
    [0, 1, 2, 3],
    [1, 0, 2, 3],
    [0, 1, 3, 2],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 0, 1],
    [2, 3, 1, 0],
    [3, 2, 1, 0],
];

/// The subset of [`QUARTET_PERMS`] producing *distinct* ordered shell
/// tuples for the quartet `(shells[0] shells[1] | shells[2] shells[3])`.
pub fn distinct_images(shells: [usize; 4]) -> Vec<[usize; 4]> {
    let mut tuples: Vec<[usize; 4]> = Vec::with_capacity(8);
    let mut perms = Vec::with_capacity(8);
    for perm in QUARTET_PERMS {
        let t = [
            shells[perm[0]],
            shells[perm[1]],
            shells[perm[2]],
            shells[perm[3]],
        ];
        if !tuples.contains(&t) {
            tuples.push(t);
            perms.push(perm);
        }
    }
    perms
}

/// Apply one computed quartet block to the sink.
///
/// `shells = [m, p, n, q]` — the quartet is (MP|NQ) as the tasks compute
/// it; `block` is the row-major `[nm][np][nn][nq]` spherical block from
/// [`EriEngine::quartet`] called as `quartet(M, P, N, Q)`.
pub fn apply_quartet<S: FockSink>(
    sink: &mut S,
    prob: &FockProblem,
    shells: [usize; 4],
    block: &[f64],
) {
    let sh = &prob.basis.shells;
    let dims = [
        sh[shells[0]].nfuncs(),
        sh[shells[1]].nfuncs(),
        sh[shells[2]].nfuncs(),
        sh[shells[3]].nfuncs(),
    ];
    let offs = [
        sh[shells[0]].bf_offset,
        sh[shells[1]].bf_offset,
        sh[shells[2]].bf_offset,
        sh[shells[3]].bf_offset,
    ];
    debug_assert_eq!(block.len(), dims.iter().product::<usize>());

    for perm in distinct_images(shells) {
        // Iterate the block in original order; map each element's four
        // indices through the permutation to image slots (a,b,c,d).
        let mut flat = 0usize;
        for i0 in 0..dims[0] {
            for i1 in 0..dims[1] {
                for i2 in 0..dims[2] {
                    for i3 in 0..dims[3] {
                        let v = block[flat];
                        flat += 1;
                        if v == 0.0 {
                            continue;
                        }
                        let idx = [i0, i1, i2, i3];
                        let a = offs[perm[0]] + idx[perm[0]];
                        let b = offs[perm[1]] + idx[perm[1]];
                        let c = offs[perm[2]] + idx[perm[2]];
                        let d = offs[perm[3]] + idx[perm[3]];
                        sink.f_add(a, b, 2.0 * sink.d(c, d) * v);
                        sink.f_add(a, c, -sink.d(b, d) * v);
                    }
                }
            }
        }
    }
}

/// G ← ½(G + Gᵀ) for a row-major n×n G: the one assembly step of the
/// parallel builders, after every F block landed.
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
        let [m, p, n, q] = quartet;
        apply_quartet(
            sink,
            prob,
            [m as usize, p as usize, n as usize, q as usize],
            block,
        );
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perms_are_the_symmetry_group() {
        // Applying any perm twice with its inverse recovers the identity,
        // and the set is closed under composition.
        let compose = |p: [usize; 4], q: [usize; 4]| [p[q[0]], p[q[1]], p[q[2]], p[q[3]]];
        for p in QUARTET_PERMS {
            for q in QUARTET_PERMS {
                let c = compose(p, q);
                assert!(
                    QUARTET_PERMS.contains(&c),
                    "{p:?} ∘ {q:?} = {c:?} not in group"
                );
            }
        }
    }

    #[test]
    fn distinct_images_counts() {
        // All-distinct shells → 8 images.
        assert_eq!(distinct_images([1, 2, 3, 4]).len(), 8);
        // (MM|MM) → 1.
        assert_eq!(distinct_images([5, 5, 5, 5]).len(), 1);
        // (MP|MP) (a=c, b=d) → identity, braswap+ketswap+exchange... 4 distinct.
        assert_eq!(distinct_images([1, 2, 1, 2]).len(), 4);
        // (MM|PQ) → 4 distinct.
        assert_eq!(distinct_images([3, 3, 1, 2]).len(), 4);
        // (MP|NQ) with one repeat across: [1,2,1,3].
        assert_eq!(distinct_images([1, 2, 1, 3]).len(), 8);
    }

    #[test]
    fn images_always_include_identity_first() {
        for shells in [[1usize, 2, 3, 4], [1, 1, 2, 2], [0, 0, 0, 0]] {
            assert_eq!(distinct_images(shells)[0], [0, 1, 2, 3]);
        }
    }
}
