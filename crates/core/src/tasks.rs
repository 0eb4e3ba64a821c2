//! The paper's task model (Section III-B).
//!
//! A task `(M,:|N,:)` computes all significant, symmetry-unique shell
//! quartets `(MP|NQ)` with `P ∈ Φ(M)`, `Q ∈ Φ(N)` and updates the
//! corresponding Fock blocks. The maximum number of tasks is n_shells² —
//! the fine granularity that lets the algorithm balance load at large
//! process counts.

use chem::molecule::Molecule;
use chem::reorder::{reorder, ShellOrdering};
use chem::shells::BasisInstance;
use chem::BasisSetKind;
use eri::{oneints, DensityNorms, Screening, ShellPairData};
use linalg::eig::inverse_sqrt;
use linalg::Mat;
use std::sync::OnceLock;

/// The one-electron part of a problem's setup: overlap S, core Hamiltonian
/// H = T + V, and the orthogonalizer X = S^{−1/2}. Built once per
/// [`FockProblem`] (see [`FockProblem::one_electron`]) and shared by every
/// SCF run over that problem — under the shared-setup service API many
/// concurrent jobs on the same (molecule, basis) reuse one copy.
#[derive(Debug, Clone)]
pub struct OneElectron {
    pub s: Mat,
    pub h: Mat,
    pub x: Mat,
}

/// The paper's SymmetryCheck predicate: for M ≠ N exactly one of
/// `symmetry_check(M, N)`, `symmetry_check(N, M)` holds (chosen by index
/// order and parity so that accepted pairs spread evenly over the task
/// grid); diagonal pairs are always accepted.
#[inline]
pub fn symmetry_check(m: usize, n: usize) -> bool {
    m == n || (m > n && (m + n).is_multiple_of(2)) || (m < n && (m + n) % 2 == 1)
}

/// Is the quartet with bra pair (M, P) and ket pair (N, Q) the canonical
/// representative of its 8-fold symmetry class?
///
/// This is Algorithm 3's triple SymmetryCheck with one refinement: when the
/// two pair-leaders coincide (M == N) the bra↔ket order is decided on the
/// second indices (`P == Q || symmetry_check(P, Q)`), which the plain
/// triple check cannot disambiguate. With that tie-break every unique
/// quartet is selected exactly once (see the exhaustive unit test below).
#[inline]
pub fn unique_quartet(m: usize, p: usize, n: usize, q: usize) -> bool {
    symmetry_check(m, p)
        && symmetry_check(n, q)
        && if m != n {
            symmetry_check(m, n)
        } else {
            p == q || symmetry_check(p, q)
        }
}

/// A Fock-construction problem: molecule + basis + screening data, with
/// shells in the ordering the algorithm will use.
pub struct FockProblem {
    pub basis: BasisInstance,
    pub screening: Screening,
    /// Screening tolerance τ used to build `screening`.
    pub tau: f64,
    /// Precomputed per-pair ERI data (combined exponents, product centres,
    /// Hermite component coefficients) for every significant pair — built
    /// lazily on first use, then shared read-only by all builders and
    /// iterations.
    pairs: OnceLock<ShellPairData>,
    /// Memoized one-electron matrices (S, H, X) — lazily built, then
    /// shared by every SCF run over this problem.
    oneel: OnceLock<OneElectron>,
    /// Memoized GWH guess Fock matrix (see [`crate::scf::ScfGuess::Gwh`]).
    gwh: OnceLock<Mat>,
}

impl FockProblem {
    /// Instantiate `kind` on `molecule`, apply `ordering` (the paper uses
    /// the spatial cell ordering, Section III-D), and compute screening
    /// data at tolerance `tau`.
    pub fn new(
        molecule: Molecule,
        kind: BasisSetKind,
        tau: f64,
        ordering: ShellOrdering,
    ) -> Result<FockProblem, String> {
        let basis = BasisInstance::new(molecule, kind)?;
        let basis = reorder(&basis, ordering);
        let screening = Screening::compute(&basis, tau);
        Ok(FockProblem::from_parts(basis, screening, tau))
    }

    /// Assemble a problem from an already-built basis and screening (the
    /// ablation drivers construct screenings with non-standard orderings).
    pub fn from_parts(basis: BasisInstance, screening: Screening, tau: f64) -> FockProblem {
        FockProblem {
            basis,
            screening,
            tau,
            pairs: OnceLock::new(),
            oneel: OnceLock::new(),
            gwh: OnceLock::new(),
        }
    }

    /// The shared pair-data table, built on first call (rows in parallel)
    /// and cached for the lifetime of the problem — every SCF iteration and
    /// every builder reuses the same tables.
    pub fn pairs(&self) -> &ShellPairData {
        self.pairs
            .get_or_init(|| ShellPairData::build(&self.basis, &self.screening))
    }

    /// The one-electron setup (S, H, X = S^{−1/2}), built on first call in
    /// one shell-pair sweep and cached for the lifetime of the problem —
    /// every SCF run over a shared problem reuses the same matrices.
    pub fn one_electron(&self) -> &OneElectron {
        self.oneel.get_or_init(|| {
            let nbf = self.nbf();
            let (s, h) = oneints::one_electron_matrices(&self.basis);
            let s = Mat::from_vec(nbf, nbf, s);
            let h = Mat::from_vec(nbf, nbf, h);
            let x = inverse_sqrt(&s, 1e-10);
            OneElectron { s, h, x }
        })
    }

    /// The memoized Generalized Wolfsberg–Helmholz guess Fock matrix:
    /// F⁰_ij = ½·1.75·(H_ii + H_jj)·S_ij off the diagonal, H_ii on it.
    /// Depends only on the problem, so concurrent jobs sharing a cached
    /// problem all start from this one copy.
    pub fn gwh_guess(&self) -> &Mat {
        self.gwh.get_or_init(|| {
            let one = self.one_electron();
            let nbf = self.nbf();
            let mut f = Mat::zeros(nbf, nbf);
            for i in 0..nbf {
                for j in 0..nbf {
                    f[(i, j)] = if i == j {
                        one.h[(i, i)]
                    } else {
                        0.5 * 1.75 * (one.h[(i, i)] + one.h[(j, j)]) * one.s[(i, j)]
                    };
                }
            }
            f
        })
    }

    #[inline]
    pub fn nshells(&self) -> usize {
        self.basis.nshells()
    }

    #[inline]
    pub fn nbf(&self) -> usize {
        self.basis.nbf
    }

    /// Significant set Φ(M).
    #[inline]
    pub fn phi(&self, m: usize) -> &[u32] {
        self.screening.phi(m)
    }

    /// Should quartet (MP|NQ) be computed inside task (M,:|N,:)?
    /// Combines the uniqueness predicate with Cauchy–Schwarz screening.
    #[inline]
    pub fn quartet_selected(&self, m: usize, p: usize, n: usize, q: usize) -> bool {
        unique_quartet(m, p, n, q)
            && self.screening.pair(m, p) * self.screening.pair(n, q) > self.tau
    }

    /// Density-weighted form of [`Self::quartet_selected`]: the quartet is
    /// computed only when max|D-block|·Q_MP·Q_NQ exceeds τ (with the block
    /// max capped at 1, so the weighted set is a subset of the Schwarz
    /// set). With ΔD as the effective density this is what makes
    /// incremental builds skip ever more ERI work as the SCF converges.
    #[inline]
    pub fn quartet_selected_weighted(
        &self,
        dn: &DensityNorms,
        m: usize,
        p: usize,
        n: usize,
        q: usize,
    ) -> bool {
        unique_quartet(m, p, n, q)
            && self.screening.pair(m, p) * self.screening.pair(n, q) * dn.quartet_weight(m, p, n, q)
                > self.tau
    }

    /// Number of shell quartets task (M,:|N,:) will actually compute (the
    /// tests' reference count).
    #[cfg(test)]
    fn task_quartet_count(&self, m: usize, n: usize) -> u64 {
        let mut count = 0;
        for &p in self.phi(m) {
            for &q in self.phi(n) {
                if self.quartet_selected(m, p as usize, n, q as usize) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Number of shell quartets task (M,:|N,:) will compute against the
    /// density described by `dn` — the count the weighted builders and the
    /// DES task-cost estimates agree on.
    pub fn task_quartet_count_weighted(&self, dn: &DensityNorms, m: usize, n: usize) -> u64 {
        let mut count = 0;
        for &p in self.phi(m) {
            for &q in self.phi(n) {
                if self.quartet_selected_weighted(dn, m, p as usize, n, q as usize) {
                    count += 1;
                }
            }
        }
        count
    }
}

/// Shared per-task completion bitmap — the exactly-once ledger for fault
/// recovery.
///
/// A task's bit is set when its Fock contribution has been **flushed** into
/// the distributed F (not merely computed: a dead rank may have computed
/// tasks whose buffered updates it never flushed — those are lost and must
/// be re-executed). Workers mark their tasks' bits after a successful
/// flush; the recovery phase re-executes every task whose bit is still
/// clear, claiming each via an atomic test-and-set first, so no task's
/// contribution can reach F twice.
pub struct CompletionBoard {
    bits: Vec<std::sync::atomic::AtomicU64>,
    ntasks: usize,
}

impl CompletionBoard {
    pub fn new(ntasks: usize) -> Self {
        let words = ntasks.div_ceil(64);
        CompletionBoard {
            bits: (0..words)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
            ntasks,
        }
    }

    pub fn ntasks(&self) -> usize {
        self.ntasks
    }

    /// Atomically set `task`'s bit; returns true if this call set it (the
    /// caller owns the task's flush), false if it was already set.
    pub fn mark(&self, task: usize) -> bool {
        assert!(task < self.ntasks);
        let (w, b) = (task / 64, task % 64);
        let prev = self.bits[w].fetch_or(1 << b, std::sync::atomic::Ordering::AcqRel);
        prev & (1 << b) == 0
    }

    pub fn is_done(&self, task: usize) -> bool {
        assert!(task < self.ntasks);
        let (w, b) = (task / 64, task % 64);
        self.bits[w].load(std::sync::atomic::Ordering::Acquire) & (1 << b) != 0
    }

    /// Tasks whose contribution has not been flushed. Call after workers
    /// have joined (quiescent), e.g. to drive recovery.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.ntasks).filter(|&t| !self.is_done(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::generators;

    #[test]
    fn symmetry_check_selects_one_order() {
        for m in 0..30 {
            for n in 0..30 {
                if m == n {
                    assert!(symmetry_check(m, n));
                } else {
                    assert_ne!(symmetry_check(m, n), symmetry_check(n, m), "m={m} n={n}");
                }
            }
        }
    }

    /// Canonical class key of quartet with bra {a,b}, ket {c,d}.
    fn class_key(a: usize, b: usize, c: usize, d: usize) -> (usize, usize, usize, usize) {
        let bra = (a.max(b), a.min(b));
        let ket = (c.max(d), c.min(d));
        let (hi, lo) = if bra >= ket { (bra, ket) } else { (ket, bra) };
        (hi.0, hi.1, lo.0, lo.1)
    }

    #[test]
    fn unique_quartet_is_exactly_once() {
        // Exhaustively: over all ordered (m,p,n,q) in an n-shell system,
        // each 8-fold symmetry class must be selected exactly once.
        let n = 9;
        let mut seen = std::collections::HashMap::new();
        for m in 0..n {
            for p in 0..n {
                for nn in 0..n {
                    for q in 0..n {
                        if unique_quartet(m, p, nn, q) {
                            *seen.entry(class_key(m, p, nn, q)).or_insert(0u32) += 1;
                        }
                    }
                }
            }
        }
        // Every class present exactly once.
        let total_classes: usize = {
            let mut s = std::collections::HashSet::new();
            for a in 0..n {
                for b in 0..n {
                    for c in 0..n {
                        for d in 0..n {
                            s.insert(class_key(a, b, c, d));
                        }
                    }
                }
            }
            s.len()
        };
        assert_eq!(seen.len(), total_classes, "some classes never selected");
        for (k, count) in &seen {
            assert_eq!(*count, 1, "class {k:?} selected {count} times");
        }
    }

    #[test]
    fn unique_quartet_covers_coincidence_patterns() {
        // Spot-check the tricky degenerate patterns directly.
        // (MM|MM): only itself.
        assert!(unique_quartet(3, 3, 3, 3));
        // (MP|MQ) with P≠Q and M leading both pairs (symmetry_check(M,P)
        // and symmetry_check(M,Q) both true): exactly one of the two
        // bra/ket orders — the case the paper's plain triple check cannot
        // disambiguate. For M=3, valid partners are {1, 4, 6, …}.
        for p in [1usize, 4, 6] {
            for q in [1usize, 4, 6] {
                if p == q {
                    continue;
                }
                assert!(symmetry_check(3, p) && symmetry_check(3, q));
                let a = unique_quartet(3, p, 3, q);
                let b = unique_quartet(3, q, 3, p);
                assert_ne!(a, b, "p={p} q={q}");
            }
        }
        // (MP|PM): never selected in the mixed orientation...
        let m = 2;
        let p = 5;
        assert!(!(unique_quartet(m, p, p, m) && unique_quartet(p, m, m, p)));
        // ...its class is represented by (MP|MP)-style tuples instead.
        let reps = [
            unique_quartet(m, p, m, p),
            unique_quartet(p, m, p, m),
            unique_quartet(m, p, p, m),
            unique_quartet(p, m, m, p),
        ];
        assert_eq!(reps.iter().filter(|&&x| x).count(), 1);
    }

    #[test]
    fn problem_construction_and_counts() {
        let prob = FockProblem::new(
            generators::water(),
            BasisSetKind::Sto3g,
            1e-10,
            ShellOrdering::cells_default(),
        )
        .unwrap();
        assert_eq!(prob.nshells(), 5);
        assert_eq!(prob.nbf(), 7);
        // Sum of per-task quartet counts over all (M,N) must equal the
        // total number of selected quartets, which for tiny water is every
        // unique class (nothing screens out at tau=1e-10).
        let n = prob.nshells();
        let total: u64 = (0..n)
            .flat_map(|m| (0..n).map(move |nn| (m, nn)))
            .map(|(m, nn)| prob.task_quartet_count(m, nn))
            .sum();
        assert_eq!(total, prob.screening.unique_significant_quartets());
    }

    #[test]
    fn screened_problem_has_fewer_quartets() {
        let mk = |tau| {
            FockProblem::new(
                generators::linear_alkane(6),
                BasisSetKind::Sto3g,
                tau,
                ShellOrdering::Natural,
            )
            .unwrap()
        };
        let tight = mk(1e-14);
        let loose = mk(1e-5);
        let count = |p: &FockProblem| -> u64 {
            let n = p.nshells();
            (0..n)
                .flat_map(|m| (0..n).map(move |nn| (m, nn)))
                .map(|(m, nn)| p.task_quartet_count(m, nn))
                .sum()
        };
        assert!(count(&loose) < count(&tight));
    }

    #[test]
    fn completion_board_marks_exactly_once() {
        let board = CompletionBoard::new(130);
        assert_eq!(board.missing().len(), 130);
        assert!(board.mark(0));
        assert!(!board.mark(0), "second mark must lose the claim");
        assert!(board.mark(129));
        assert!(board.is_done(0));
        assert!(!board.is_done(64));
        let missing = board.missing();
        assert_eq!(missing.len(), 128);
        assert!(!missing.contains(&0) && !missing.contains(&129));
    }

    #[test]
    fn completion_board_concurrent_claims_are_exclusive() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let board = CompletionBoard::new(1000);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let board = &board;
                let wins = &wins;
                s.spawn(move || {
                    for t in 0..1000 {
                        if board.mark(t) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // Every task claimed by exactly one thread.
        assert_eq!(wins.load(Ordering::Relaxed), 1000);
        assert!(board.missing().is_empty());
    }
}
