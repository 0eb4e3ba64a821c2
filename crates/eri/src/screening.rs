//! Cauchy–Schwarz screening (Section II-D of the paper).
//!
//! For every shell pair we store the pair value (MN) = max √|(mn|mn)|; a
//! quartet (MN|PQ) is skipped when (MN)·(PQ) < τ, and a pair MN is
//! *significant* when (MN) ≥ τ/m with m = max (MN). The per-shell
//! significant sets Φ(M) define the paper's task volume
//! |(M,:|N,:)| = |Φ(M)|·|Φ(N)|.
//!
//! On top of the static pair values, [`DensityNorms`] captures the
//! per-shell-pair block norms of the density a build is contracted
//! against. A quartet's contribution to F is bounded by
//! max|D-block|·(MN)·(PQ), so screening on that product — refreshed per
//! build from the *effective* density (full D on a rebuild, ΔD on an
//! incremental iteration) — shrinks the evaluated quartet set as the SCF
//! converges. This is the direct-SCF optimization that makes incremental
//! builds actually skip ERI work.

use crate::teints::EriEngine;
use chem::shells::BasisInstance;
use linalg::par;

/// Precomputed screening data for one basis instance.
#[derive(Debug, Clone)]
pub struct Screening {
    /// Screening (drop) tolerance τ.
    pub tau: f64,
    /// Number of shells.
    pub n: usize,
    /// Pair values, row-major n×n (symmetric).
    q: Vec<f64>,
    /// m = max over pairs of (MN).
    pub max_q: f64,
    /// Φ(M) for every shell, ascending shell indices.
    sig: Vec<Vec<u32>>,
}

impl Screening {
    /// Compute pair values and significant sets. Work is parallelized over
    /// shell rows; spatially distant pairs are pre-filtered with a
    /// conservative Gaussian-overlap bound before any ERI is evaluated.
    pub fn compute(basis: &BasisInstance, tau: f64) -> Screening {
        assert!(tau > 0.0, "screening tolerance must be positive");
        let n = basis.nshells();
        let shells = &basis.shells;
        // exp(-mu R^2) < 1e-30 can never survive any practical tau once
        // multiplied by bounded prefactors.
        const LOG_CUT: f64 = 69.0;

        let rows: Vec<Vec<f64>> = par::map(par::threads(), n, |m| {
            let mut eng = EriEngine::new();
            let mut row = vec![0.0; n];
            let sm = &shells[m];
            let am = sm.min_exp();
            for (p, sp) in shells.iter().enumerate() {
                if p < m {
                    continue; // filled by symmetry
                }
                let ap = sp.min_exp();
                let mu = am * ap / (am + ap);
                if mu * sm.center.dist2(sp.center) > LOG_CUT {
                    continue;
                }
                row[p] = eng.schwarz_pair_value(sm, sp);
            }
            row
        });

        let mut q = vec![0.0; n * n];
        for (m, row) in rows.iter().enumerate() {
            for p in m..n {
                q[m * n + p] = row[p];
                q[p * n + m] = row[p];
            }
        }
        let max_q = q.iter().copied().fold(0.0f64, f64::max);
        let thresh = tau / max_q;
        let sig: Vec<Vec<u32>> = (0..n)
            .map(|m| {
                (0..n)
                    .filter(|&p| q[m * n + p] >= thresh)
                    .map(|p| p as u32)
                    .collect()
            })
            .collect();
        Screening {
            tau,
            n,
            q,
            max_q,
            sig,
        }
    }

    /// Pair value (MN).
    #[inline]
    pub fn pair(&self, m: usize, p: usize) -> f64 {
        self.q[m * self.n + p]
    }

    /// Is the pair MN significant ((MN) ≥ τ/m)?
    #[inline]
    pub fn significant(&self, m: usize, p: usize) -> bool {
        self.pair(m, p) >= self.tau / self.max_q
    }

    /// Φ(M), ascending.
    #[inline]
    pub fn phi(&self, m: usize) -> &[u32] {
        &self.sig[m]
    }

    /// Number of significant canonical pairs (M ≤ N).
    pub fn sig_pair_count(&self) -> usize {
        let thresh = self.tau / self.max_q;
        let mut c = 0;
        for m in 0..self.n {
            for p in m..self.n {
                if self.q[m * self.n + p] >= thresh {
                    c += 1;
                }
            }
        }
        c
    }

    /// Number of *unique* significant shell quartets — the paper's Table II
    /// column. Unique = unordered pairs {(MN),(PQ)} of canonical (M ≤ N)
    /// pairs with (MN)(PQ) > τ. Counted in O(P log P) by sorting pair
    /// values, never enumerating quartets.
    pub fn unique_significant_quartets(&self) -> u64 {
        let mut vals: Vec<f64> = Vec::new();
        for m in 0..self.n {
            for p in m..self.n {
                let v = self.q[m * self.n + p];
                if v > 0.0 {
                    vals.push(v);
                }
            }
        }
        vals.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        let mut count = 0u64;
        for (i, &v) in vals.iter().enumerate() {
            // j >= i with vals[j] > tau / v ; vals sorted descending.
            let need = self.tau / v;
            if v * v <= self.tau {
                break; // no j >= i can qualify anymore
            }
            // Binary search for first index with vals[idx] <= need.
            let hi = vals.partition_point(|&x| x > need);
            if hi > i {
                count += (hi - i) as u64;
            }
        }
        count
    }

    /// B of the performance model: average |Φ(M)|.
    pub fn avg_phi(&self) -> f64 {
        self.sig.iter().map(|s| s.len()).sum::<usize>() as f64 / self.n as f64
    }

    /// q of the performance model: average |Φ(M) ∩ Φ(M+1)|.
    pub fn avg_phi_overlap(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut total = 0usize;
        for m in 0..self.n - 1 {
            let (a, b) = (&self.sig[m], &self.sig[m + 1]);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        total += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        total as f64 / (self.n - 1) as f64
    }
}

/// Per-shell-pair block norms of one density matrix: `pair(m, p)` is
/// max |D_ij| over the basis-function block of shell pair (M, P) *and its
/// transpose* — the Fock update contracts both orientations, and the
/// symmetrized norm is what makes [`Self::quartet_dmax`] invariant under
/// the quartet symmetry group even for non-symmetric D. Recomputed per
/// Fock build from the effective density (O(nbf²) — noise next to any ERI
/// work), then combined with the static Schwarz pair values in the
/// density-weighted quartet test.
#[derive(Debug, Clone)]
pub struct DensityNorms {
    /// Number of shells.
    pub n: usize,
    /// Block norms, row-major n×n (symmetric for symmetric D).
    norms: Vec<f64>,
    /// Global max |D| over all blocks.
    pub max: f64,
}

impl DensityNorms {
    /// Compute block norms of `d` (row-major nbf×nbf in the ordering of
    /// `basis`).
    pub fn compute(basis: &BasisInstance, d: &[f64]) -> DensityNorms {
        let n = basis.nshells();
        let nbf = basis.nbf;
        assert_eq!(d.len(), nbf * nbf, "density shape mismatch");
        let shells = &basis.shells;
        let mut norms = vec![0.0f64; n * n];
        for (m, sm) in shells.iter().enumerate() {
            for (p, sp) in shells.iter().enumerate() {
                let mut mx = 0.0f64;
                for i in sm.bf_offset..sm.bf_offset + sm.nfuncs() {
                    for j in sp.bf_offset..sp.bf_offset + sp.nfuncs() {
                        mx = mx.max(d[i * nbf + j].abs());
                    }
                }
                norms[m * n + p] = mx;
            }
        }
        // Symmetrize: both orientations of a block feed the J/K updates.
        for m in 0..n {
            for p in m + 1..n {
                let v = norms[m * n + p].max(norms[p * n + m]);
                norms[m * n + p] = v;
                norms[p * n + m] = v;
            }
        }
        let max = norms.iter().copied().fold(0.0f64, f64::max);
        DensityNorms { n, norms, max }
    }

    /// Block norm max |D| of shell pair (M, P).
    #[inline]
    pub fn pair(&self, m: usize, p: usize) -> f64 {
        self.norms[m * self.n + p]
    }

    /// Max block norm over the six density blocks quartet (MP|NQ) can
    /// contract against in the J/K updates: (M,P), (N,Q), (M,N), (M,Q),
    /// (P,N), (P,Q). Invariant under the quartet's 8-fold symmetry group
    /// (the set of unordered pairs is), so every build path sees the same
    /// bound regardless of which representative it visits.
    #[inline]
    pub fn quartet_dmax(&self, m: usize, p: usize, n: usize, q: usize) -> f64 {
        let v = self.pair(m, p).max(self.pair(n, q));
        let v = v.max(self.pair(m, n)).max(self.pair(m, q));
        v.max(self.pair(p, n)).max(self.pair(p, q))
    }

    /// The factor the density weighting multiplies onto a Schwarz product
    /// before comparing against τ, capped at 1 so the weighted quartet set
    /// is always a *subset* of the plain Schwarz set (pair significance
    /// sets, prefetch regions, and task enumeration stay valid as-is).
    #[inline]
    pub fn quartet_weight(&self, m: usize, p: usize, n: usize, q: usize) -> f64 {
        self.quartet_dmax(m, p, n, q).min(1.0)
    }

    /// Conservative cap on [`Self::quartet_weight`] over *all* quartets —
    /// for atom-level and pair-level early-outs that must never skip a
    /// quartet the per-quartet test would keep.
    #[inline]
    pub fn weight_cap(&self) -> f64 {
        self.max.min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::basis::BasisSetKind;
    use chem::generators;

    fn screening(molgen: fn() -> chem::Molecule, tau: f64) -> (BasisInstance, Screening) {
        let b = BasisInstance::new(molgen(), BasisSetKind::Sto3g).unwrap();
        let s = Screening::compute(&b, tau);
        (b, s)
    }

    #[test]
    fn pair_values_symmetric_nonnegative() {
        let (b, s) = screening(generators::water, 1e-10);
        for m in 0..b.nshells() {
            for p in 0..b.nshells() {
                assert!(s.pair(m, p) >= 0.0);
                assert_eq!(s.pair(m, p), s.pair(p, m));
            }
        }
    }

    #[test]
    fn diagonal_pairs_are_significant() {
        // (MM) can never be screened out relative to max for these systems.
        let (b, s) = screening(generators::water, 1e-10);
        for m in 0..b.nshells() {
            assert!(s.significant(m, m));
        }
    }

    #[test]
    fn screening_bound_is_sound() {
        // Every quartet that screening drops really is below tau.
        let tau = 1e-6;
        let (b, s) = screening(generators::methane, tau);
        let mut eng = EriEngine::new();
        let mut out = Vec::new();
        let n = b.nshells();
        for m in 0..n {
            for nn in 0..n {
                for p in 0..n {
                    for q in 0..n {
                        if s.pair(m, nn) * s.pair(p, q) <= tau {
                            eng.quartet(
                                &b.shells[m],
                                &b.shells[nn],
                                &b.shells[p],
                                &b.shells[q],
                                &mut out,
                            );
                            let mx = out.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
                            assert!(mx <= tau * (1.0 + 1e-9), "dropped quartet above tau: {mx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn alkane_screens_more_than_flake() {
        // 1-D chains lose far more quartets than dense 2-D flakes of a
        // comparable shell count — the paper's central workload contrast.
        let tau = 1e-10;
        let balk = BasisInstance::new(generators::linear_alkane(12), BasisSetKind::Sto3g).unwrap();
        let bflk = BasisInstance::new(generators::graphene_flake(2), BasisSetKind::Sto3g).unwrap();
        let salk = Screening::compute(&balk, tau);
        let sflk = Screening::compute(&bflk, tau);
        let frac = |s: &Screening| s.avg_phi() / s.n as f64;
        assert!(
            frac(&salk) < frac(&sflk),
            "alkane Φ fraction {} vs flake {}",
            frac(&salk),
            frac(&sflk)
        );
    }

    #[test]
    fn unique_quartets_matches_bruteforce() {
        let tau = 1e-8;
        let (b, s) = screening(generators::water, tau);
        let n = b.nshells();
        let mut brute = 0u64;
        // Unordered pairs of canonical pairs.
        let mut pairs = Vec::new();
        for m in 0..n {
            for p in m..n {
                if s.pair(m, p) > 0.0 {
                    pairs.push(s.pair(m, p));
                }
            }
        }
        for i in 0..pairs.len() {
            for j in i..pairs.len() {
                if pairs[i] * pairs[j] > tau {
                    brute += 1;
                }
            }
        }
        assert_eq!(s.unique_significant_quartets(), brute);
    }

    #[test]
    fn phi_sets_sorted_and_consistent() {
        let (b, s) = screening(generators::methane, 1e-10);
        for m in 0..b.nshells() {
            let phi = s.phi(m);
            assert!(phi.windows(2).all(|w| w[0] < w[1]));
            for &p in phi {
                assert!(s.significant(m, p as usize));
            }
        }
    }

    #[test]
    fn tighter_tau_means_more_quartets() {
        let (_, loose) = screening(generators::methane, 1e-4);
        let (_, tight) = screening(generators::methane, 1e-12);
        assert!(tight.unique_significant_quartets() >= loose.unique_significant_quartets());
    }

    #[test]
    fn density_norms_are_block_maxima() {
        let b = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let nbf = b.nbf;
        let d: Vec<f64> = (0..nbf * nbf)
            .map(|k| ((k % 7) as f64 - 3.0) * 0.1)
            .collect();
        let dn = DensityNorms::compute(&b, &d);
        // Brute-force the symmetrized block maxima.
        for (m, sm) in b.shells.iter().enumerate() {
            for (p, sp) in b.shells.iter().enumerate() {
                let mut mx = 0.0f64;
                for i in sm.bf_offset..sm.bf_offset + sm.nfuncs() {
                    for j in sp.bf_offset..sp.bf_offset + sp.nfuncs() {
                        mx = mx.max(d[i * nbf + j].abs()).max(d[j * nbf + i].abs());
                    }
                }
                assert_eq!(dn.pair(m, p), mx, "block ({m},{p})");
                assert_eq!(dn.pair(m, p), dn.pair(p, m), "block ({m},{p}) asym");
                assert!(dn.pair(m, p) <= dn.max);
            }
        }
    }

    #[test]
    fn quartet_dmax_is_permutation_invariant() {
        let b = BasisInstance::new(generators::methane(), BasisSetKind::Sto3g).unwrap();
        let nbf = b.nbf;
        let d: Vec<f64> = (0..nbf * nbf).map(|k| (k as f64).sin()).collect();
        let dn = DensityNorms::compute(&b, &d);
        let n = b.nshells();
        // The 8 symmetry images of (MP|NQ): bra swap, ket swap, bra↔ket.
        for (m, p, nn, q) in [(0usize, 1, 2, 3), (1, 1, 4, 2), (3, 3, 3, 3), (0, 2, 0, 2)] {
            assert!(m < n && p < n && nn < n && q < n);
            let want = dn.quartet_dmax(m, p, nn, q);
            for (a, bb, c, dd) in [
                (p, m, nn, q),
                (m, p, q, nn),
                (p, m, q, nn),
                (nn, q, m, p),
                (q, nn, m, p),
                (nn, q, p, m),
                (q, nn, p, m),
            ] {
                assert_eq!(dn.quartet_dmax(a, bb, c, dd), want);
            }
        }
    }

    #[test]
    fn zero_density_weights_everything_out() {
        let b = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let d = vec![0.0; b.nbf * b.nbf];
        let dn = DensityNorms::compute(&b, &d);
        assert_eq!(dn.max, 0.0);
        assert_eq!(dn.quartet_weight(0, 0, 0, 0), 0.0);
        assert_eq!(dn.weight_cap(), 0.0);
    }

    #[test]
    fn large_density_weight_caps_at_one() {
        let b = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let d = vec![5.0; b.nbf * b.nbf];
        let dn = DensityNorms::compute(&b, &d);
        assert_eq!(dn.max, 5.0);
        // Capped: the weighted quartet set can never exceed the Schwarz set.
        assert_eq!(dn.quartet_weight(0, 1, 2, 3), 1.0);
        assert_eq!(dn.weight_cap(), 1.0);
    }
}
