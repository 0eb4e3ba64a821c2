//! The NWChem-style baseline Fock build (Algorithm 2, Section II-F).
//!
//! D and F are distributed block-row over the processes. Work is divided
//! into tasks of 5 atom quartets `(I J | K, L..L+4)`; a centralized
//! dynamic scheduler (a shared atomic counter standing in for NWChem's
//! `nxtval`) hands tasks to processes. Every process replays the task
//! stream of [`atom_tasks`], counting task ids, and executes the ids the
//! scheduler assigns to it: exactly the structure of Algorithm 2.
//!
//! Each process is the crate-private `lane` module's NWChem executor, one
//! per thread: claim, the L-chunk loop, screen, fetch, compute and flush
//! are written there once, and the simulator
//! ([`crate::sim_exec::NwchemSimModel`]) runs the same executor over a
//! virtual clock. This module supplies its threaded backend: `nxtval`, the
//! screening loop and batched kernel, and GA transfers. An atom quartet
//! with a surviving shell quartet gets the D block of each distinct atom
//! pair and accumulates each F block once — the per-quartet communication
//! the paper contrasts with GTFock's bulk prefetch; one with none moves
//! nothing. G is symmetrized once after the join.

use crate::build::{
    record_class_stats, record_dmax, record_pairdata, BuildReport, DENSITY_SKIPPED_COUNTER,
    QUARTETS_COUNTER,
};
use crate::lane::{on_threads, AtomBackend, AtomLane, AtomPair};
use crate::sink::{apply_quartet, symmetrize, BlockView, FockSink, TaskCounts};
use crate::tasks::FockProblem;
use chem::Shell;
use distrt::{GlobalArray, ProcessGrid};
use eri::{ClassBatcher, DensityNorms, EriEngine, QuartetClass};
use obs::{EventKind, Recorder, WorkerRec};
use std::iter::Enumerate;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Configuration of the baseline build.
#[derive(Debug, Clone)]
pub struct NwchemConfig {
    /// Number of processes (threads); D/F are distributed block-row.
    pub nprocs: usize,
    /// Atom quartets per task (the paper's choice is 5).
    pub chunk: usize,
}

impl Default for NwchemConfig {
    fn default() -> Self {
        NwchemConfig {
            nprocs: 1,
            chunk: 5,
        }
    }
}

/// Per-process measurements of one baseline build. Since the unified-API
/// refactor this is the shared [`BuildReport`]; `steals`/`victims` stay
/// zero and `queue_accesses` counts the centralized-queue traffic
/// (Section IV-C compares it against GTFock's per-node queue operations).
pub type NwchemReport = BuildReport;

/// Atom metadata derived from a [`FockProblem`]: contiguous shell ranges
/// and Schwarz atom-pair values.
pub struct AtomMap {
    /// Shell range of each atom (shells of one atom stay contiguous under
    /// both Natural and cell ordering).
    pub shells: Vec<Range<usize>>,
    /// Basis-function range of each atom.
    pub bfs: Vec<Range<usize>>,
    /// Atom-pair Schwarz value (max over contained shell pairs).
    pub pair: Vec<f64>,
    pub natoms: usize,
}

impl AtomMap {
    pub fn new(prob: &FockProblem) -> AtomMap {
        let shells = &prob.basis.shells;
        let mut ranges: Vec<Range<usize>> = Vec::new();
        let mut atom_ids: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < shells.len() {
            let a = shells[i].atom;
            let start = i;
            while i < shells.len() && shells[i].atom == a {
                i += 1;
            }
            assert!(
                !atom_ids.contains(&a),
                "shells of atom {a} are not contiguous; NWChem-style atom blocking requires it"
            );
            atom_ids.push(a);
            ranges.push(start..i);
        }
        let natoms = ranges.len();
        let bfs: Vec<Range<usize>> = ranges
            .iter()
            .map(|r| {
                shells[r.start].bf_offset..shells[r.end - 1].bf_offset + shells[r.end - 1].nfuncs()
            })
            .collect();
        let mut pair = vec![0.0; natoms * natoms];
        for ai in 0..natoms {
            for aj in 0..natoms {
                let mut q: f64 = 0.0;
                for m in ranges[ai].clone() {
                    for n in ranges[aj].clone() {
                        q = q.max(prob.screening.pair(m, n));
                    }
                }
                pair[ai * natoms + aj] = q;
            }
        }
        AtomMap {
            shells: ranges,
            bfs,
            pair,
            natoms,
        }
    }

    #[inline]
    pub fn pair_value(&self, i: usize, j: usize) -> f64 {
        self.pair[i * self.natoms + j]
    }
}

/// One task of Algorithm 2: atom quartets `(I J | K, L)` for
/// `L ∈ l_lo ..= l_hi`, as `(I, J, K, l_lo, l_hi)`.
pub type AtomTask = (usize, usize, usize, usize, usize);

/// Algorithm 2's task list — the canonical atom-quartet loop skeleton
/// ("unique triplets + L-range") cut into L-chunks of `chunk` — as a
/// stream (no O(#tasks) memory). A task id is its position in the stream.
/// Pairs (I J) below `tau / max_q` are skipped (Algorithm 2 line 5), and
/// so are chunks with no surviving atom quartet: NWChem's measured
/// queue-access counts (e.g. 137,993 for C100H202 at 3888 cores) show the
/// real code never enqueues work-free blocks. The threaded baseline and
/// both simulator users iterate this one generator.
pub fn atom_tasks(
    atoms: &AtomMap,
    tau: f64,
    max_q: f64,
    chunk: usize,
) -> impl Iterator<Item = AtomTask> + '_ {
    assert!(chunk > 0);
    let thresh = tau / max_q;
    (0..atoms.natoms)
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .filter(move |&(i, j)| atoms.pair_value(i, j) >= thresh)
        .flat_map(move |(i, j)| {
            (0..=i).flat_map(move |k| {
                let l_hi = if k == i { j } else { k };
                (0..=l_hi)
                    .step_by(chunk)
                    .map(move |l_lo| (i, j, k, l_lo, (l_lo + chunk - 1).min(l_hi)))
            })
        })
        .filter(move |&(i, j, k, l_lo, l_hi)| {
            let qij = atoms.pair_value(i, j);
            (l_lo..=l_hi).any(|l| qij * atoms.pair_value(k, l) > tau)
        })
}

/// The 8 symmetry permutations of a quartet (slots a,b,c,d of (ab|cd)):
/// bra swap, ket swap, bra↔ket swap, and their compositions. Each entry
/// maps image slot → original slot.
const QUARTET_PERMS: [[usize; 4]; 8] = [
    [0, 1, 2, 3],
    [1, 0, 2, 3],
    [0, 1, 3, 2],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 0, 1],
    [2, 3, 1, 0],
    [3, 2, 1, 0],
];

/// Is (m,n,p,q) the representative of its quartet class *within* the
/// visited atom quartet (I,J,K,L)? Representative = lexicographically
/// smallest orbit member whose atom signature equals (I,J,K,L).
#[inline]
fn class_rep_within(atom_of_shell: &[u32], shells: [usize; 4], atoms: [u32; 4]) -> bool {
    QUARTET_PERMS
        .map(|perm| perm.map(|slot| shells[slot]))
        .into_iter()
        .filter(|t| t.map(|s| atom_of_shell[s]) == atoms)
        .min()
        == Some(shells)
}

/// The D and F blocks of one atom quartet's distinct atom pairs, each held
/// in the orientation [`crate::lane::atom_pairs`] gives it; the transposed
/// pair is served from the same block. Reused across atom quartets.
struct PairCache<'a> {
    bfs: &'a [Range<usize>],
    atom_of_shell: &'a [u32],
    /// (a, b, offset into `d` and `f`) per held pair.
    slots: Vec<(u32, u32, usize)>,
    d: Vec<f64>,
    f: Vec<f64>,
}

impl PairCache<'_> {
    /// Get the D blocks of `pairs` and zero their F blocks.
    fn load(&mut self, ga_d: &GlobalArray, rank: usize, pairs: &[AtomPair]) {
        self.slots.clear();
        let mut len = 0;
        for &(a, b) in pairs {
            self.slots.push((a as u32, b as u32, len));
            len += self.bfs[a].len() * self.bfs[b].len();
        }
        self.d.resize(len, 0.0);
        self.f.clear();
        self.f.resize(len, 0.0);
        for &(a, b, off) in &self.slots {
            let (ra, rb) = (self.bfs[a as usize].clone(), self.bfs[b as usize].clone());
            let end = off + ra.len() * rb.len();
            ga_d.get(rank, ra, rb, &mut self.d[off..end]);
        }
    }

    /// Accumulate each held F block into `ga_f` once.
    fn flush(&self, ga_f: &GlobalArray, rank: usize) {
        for &(a, b, off) in &self.slots {
            let (ra, rb) = (self.bfs[a as usize].clone(), self.bfs[b as usize].clone());
            let end = off + ra.len() * rb.len();
            ga_f.acc(rank, ra, rb, &self.f[off..end], 1.0);
        }
    }
}

impl FockSink for PairCache<'_> {
    /// The sub-block of shells (a, b) inside the held block of their
    /// atoms' pair, read transposed when that pair is held as (B, A).
    #[inline]
    fn block(&self, shells: &[Shell], a: usize, b: usize) -> BlockView {
        let (aa, ab) = (self.atom_of_shell[a], self.atom_of_shell[b]);
        let (ra, rb) = (&self.bfs[aa as usize], &self.bfs[ab as usize]);
        let (ia, ib) = (
            shells[a].bf_offset - ra.start,
            shells[b].bf_offset - rb.start,
        );
        for &(x, y, off) in &self.slots {
            if (x, y) == (aa, ab) {
                return BlockView::row_major(off + ia * rb.len() + ib, rb.len());
            }
            if (x, y) == (ab, aa) {
                return BlockView::row_major(off + ib * ra.len() + ia, ra.len()).transposed();
            }
        }
        unreachable!("atom pair ({aa}, {ab}) not fetched")
    }

    #[inline]
    fn slices(&mut self) -> (&[f64], &mut [f64]) {
        (&self.d, &mut self.f)
    }
}

/// Build G(D) with the NWChem-style algorithm. Semantics identical to
/// [`crate::gtfock::build_fock_gtfock`]; only the parallel structure and
/// communication pattern differ.
pub fn build_fock_nwchem(
    prob: &FockProblem,
    d_dense: &[f64],
    cfg: NwchemConfig,
) -> (Vec<f64>, NwchemReport) {
    build_fock_nwchem_rec(prob, d_dense, cfg, &Recorder::disabled())
}

/// [`build_fock_nwchem`] with telemetry. Each process records a
/// [`EventKind::QueueAccess`] per `nxtval` call, start/end events per
/// executed task (the quartet payload sums over the task's L-chunk), and
/// per-call comm events via the global arrays' attached recorder.
pub fn build_fock_nwchem_rec(
    prob: &FockProblem,
    d_dense: &[f64],
    cfg: NwchemConfig,
    rec: &Recorder,
) -> (Vec<f64>, NwchemReport) {
    assert!(cfg.nprocs > 0 && cfg.chunk > 0);
    let nbf = prob.nbf();
    assert_eq!(d_dense.len(), nbf * nbf);
    let sh = Shared::new(prob, d_dense, cfg.nprocs, rec);
    let sh = &sh;
    let outs = on_threads((0..cfg.nprocs).collect(), |rank| {
        let tasks = atom_tasks(&sh.atoms, prob.tau, prob.screening.max_q, cfg.chunk);
        let lane = AtomLane::new(&sh.atoms, prob.tau, Process::new(sh, rank, tasks)).run();
        let mut p = lane.backend;
        rec.counter(QUARTETS_COUNTER).add(p.counts.computed);
        rec.counter(DENSITY_SKIPPED_COUNTER)
            .add(p.counts.skipped_density);
        record_class_stats(rec, &p.batcher.take_stats());
        Out {
            rank,
            claims: lane.claims,
            t_fock: p.start.elapsed().as_secs_f64(),
            t_comp: p.comp,
            counts: p.counts,
            end_t: p.w.now(),
        }
    });

    let mut report = BuildReport::zeros(cfg.nprocs);
    let t_last = outs.iter().map(|o| o.end_t).fold(0.0, f64::max);
    for o in outs {
        report.queue_accesses += o.claims;
        report.t_fock[o.rank] = o.t_fock;
        report.t_comp[o.rank] = o.t_comp;
        report.quartets[o.rank] = o.counts.computed;
        report.density_skipped[o.rank] = o.counts.skipped_density;
        report.comm[o.rank] = sh.ga_d.stats(o.rank);
        report.comm[o.rank].merge(&sh.ga_f.stats(o.rank));
        let seconds = t_last - o.end_t;
        rec.side_event_at(o.rank, o.end_t, EventKind::BarrierWait { seconds });
    }
    let mut g = sh.ga_f.to_dense();
    symmetrize(&mut g, nbf);
    (g, report)
}

/// What every process of one build shares.
struct Shared<'a> {
    prob: &'a FockProblem,
    rec: &'a Recorder,
    atoms: AtomMap,
    atom_of_shell: Vec<u32>,
    /// Effective-density block norms — the same weighted quartet test as
    /// the sequential and GTFock paths, so all builders agree
    /// quartet-for-quartet.
    dn: DensityNorms,
    ga_d: GlobalArray,
    ga_f: GlobalArray,
    /// `nxtval`: the next task id the shared counter hands out.
    next_task: AtomicU64,
}

impl<'a> Shared<'a> {
    fn new(prob: &'a FockProblem, d_dense: &[f64], nprocs: usize, rec: &'a Recorder) -> Self {
        let atoms = AtomMap::new(prob);
        let dn = DensityNorms::compute(&prob.basis, d_dense);
        record_dmax(rec, dn.max);
        // Force the shared pair table before the workers race to it.
        record_pairdata(rec, prob.pairs());
        let nbf = prob.nbf();
        let mut atom_of_shell = vec![0u32; prob.nshells()];
        for (a, shells) in atoms.shells.iter().enumerate() {
            atom_of_shell[shells.clone()].fill(a as u32);
        }
        // Block-row distribution, as NWChem does (Section II-F).
        let grid = ProcessGrid::new(nprocs, 1);
        let mut ga_d = GlobalArray::from_dense(grid, nbf, nbf, d_dense);
        let mut ga_f = GlobalArray::zeros(grid, nbf, nbf);
        ga_d.attach_recorder(rec);
        ga_f.attach_recorder(rec);
        Shared {
            prob,
            rec,
            atom_of_shell,
            atoms,
            dn,
            ga_d,
            ga_f,
            next_task: AtomicU64::new(0),
        }
    }
}

/// The threaded [`AtomBackend`]: `nxtval` over this process's replay of
/// the task stream, the screening loop and the batched kernel, GA get/acc
/// through a [`PairCache`], real time.
struct Process<'a, I> {
    sh: &'a Shared<'a>,
    rank: usize,
    w: WorkerRec,
    /// This process's replay of [`atom_tasks`], with task ids.
    tasks: Enumerate<I>,
    eng: EriEngine,
    batcher: ClassBatcher,
    cache: PairCache<'a>,
    start: Instant,
    comp: f64,
    counts: TaskCounts,
}

impl<'a, I: Iterator> Process<'a, I> {
    fn new(sh: &'a Shared<'a>, rank: usize, tasks: I) -> Self {
        Process {
            sh,
            rank,
            w: sh.rec.worker(rank),
            tasks: tasks.enumerate(),
            eng: EriEngine::new(),
            batcher: ClassBatcher::new(),
            cache: PairCache {
                bfs: &sh.atoms.bfs,
                atom_of_shell: &sh.atom_of_shell,
                slots: Vec::with_capacity(6),
                d: Vec::new(),
                f: Vec::new(),
            },
            start: Instant::now(),
            comp: 0.0,
            counts: TaskCounts::default(),
        }
    }
}

impl<I: Iterator<Item = AtomTask>> AtomBackend for Process<'_, I> {
    fn event(&mut self, kind: EventKind) {
        self.w.event(kind);
    }

    /// `nxtval`: one shared-counter access, then replay the stream up to
    /// the id it handed out.
    fn claim(&mut self) -> Option<AtomTask> {
        let id = self.sh.next_task.fetch_add(1, Ordering::Relaxed) as usize;
        self.tasks.find(|&(k, _)| k == id).map(|(_, task)| task)
    }

    /// Queue the selected shell quartets into the batcher. The atom- and
    /// pair-level early-outs stay Schwarz-only (conservative), so the
    /// per-quartet weighted test sees exactly the Schwarz-passing set —
    /// the computed and skipped counts match the sequential reference.
    fn screen(&mut self, [i, j, k, l]: [usize; 4]) -> u64 {
        let t0 = Instant::now();
        let (prob, atoms) = (self.sh.prob, &self.sh.atoms);
        let (sc, tau, sh) = (&prob.screening, prob.tau, &prob.basis.shells);
        let at = [i as u32, j as u32, k as u32, l as u32];
        let mut c = TaskCounts::default();
        for m in atoms.shells[i].clone() {
            for n in atoms.shells[j].clone() {
                // (MN) > τ/max_q ⇒ the pair is on the screening survivor
                // list, so every quartet queued below has its pair data.
                if sc.pair(m, n) * sc.max_q <= tau {
                    continue;
                }
                for p in atoms.shells[k].clone() {
                    for q in atoms.shells[l].clone() {
                        let schwarz = sc.pair(m, n) * sc.pair(p, q);
                        if schwarz <= tau
                            || !class_rep_within(&self.sh.atom_of_shell, [m, n, p, q], at)
                        {
                            continue;
                        }
                        if schwarz * self.sh.dn.quartet_weight(m, n, p, q) <= tau {
                            c.skipped_density += 1;
                            continue;
                        }
                        let class = QuartetClass::try_of(sh[m].l, sh[n].l, sh[p].l, sh[q].l);
                        self.batcher
                            .push(class, [m as u32, n as u32, p as u32, q as u32]);
                        c.computed += 1;
                    }
                }
            }
        }
        self.counts.computed += c.computed;
        self.counts.skipped_density += c.skipped_density;
        self.comp += t0.elapsed().as_secs_f64();
        c.computed
    }

    fn fetch(&mut self, pairs: &[AtomPair]) {
        self.cache.load(&self.sh.ga_d, self.rank, pairs);
    }

    fn compute(&mut self) {
        let t0 = Instant::now();
        let prob = self.sh.prob;
        let cache = &mut self.cache;
        self.batcher
            .flush(&mut self.eng, prob.pairs(), |quartet, block| {
                apply_quartet(cache, prob, quartet.map(|s| s as usize), block);
            });
        self.comp += t0.elapsed().as_secs_f64();
    }

    fn flush(&mut self) {
        self.cache.flush(&self.sh.ga_f, self.rank);
    }
}

/// A process's totals once the queue ran dry.
struct Out {
    rank: usize,
    claims: u64,
    t_fock: f64,
    t_comp: f64,
    counts: TaskCounts,
    /// Recorder timestamp at the end (join wait = latest end minus this).
    end_t: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::build_g_seq;
    use crate::testutil::{banded_density, max_diff};
    use chem::generators;
    use chem::reorder::ShellOrdering;
    use chem::BasisSetKind;

    fn problem() -> FockProblem {
        FockProblem::new(
            generators::water(),
            BasisSetKind::Sto3g,
            1e-12,
            ShellOrdering::Natural,
        )
        .unwrap()
    }

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
    fn degeneracy_is_the_orbit_size() {
        use crate::sink::degeneracy;
        // Every coincidence pattern of four shells: the update weight is the
        // number of distinct tuples the perms produce.
        for code in 0..256usize {
            let shells = [code % 4, code / 4 % 4, code / 16 % 4, code / 64];
            let mut orbit = QUARTET_PERMS.map(|perm| perm.map(|slot| shells[slot]));
            orbit.sort();
            let distinct = 1 + orbit.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(degeneracy(shells), distinct as f64, "{shells:?}");
        }
        // Spot checks: all distinct; (MM|MM); (MP|MP), fixed by the
        // bra↔ket swap; (MM|PQ), fixed by the bra swap; one repeat across.
        assert_eq!(degeneracy([1, 2, 3, 4]), 8.0);
        assert_eq!(degeneracy([5, 5, 5, 5]), 1.0);
        assert_eq!(degeneracy([1, 2, 1, 2]), 4.0);
        assert_eq!(degeneracy([3, 3, 1, 2]), 4.0);
        assert_eq!(degeneracy([1, 2, 1, 3]), 8.0);
    }

    #[test]
    fn atom_map_structure() {
        let prob = problem();
        let atoms = AtomMap::new(&prob);
        assert_eq!(atoms.natoms, 3);
        // O has 3 shells, H 1 each.
        assert_eq!(atoms.shells[0].len(), 3);
        assert_eq!(atoms.shells[1].len(), 1);
        // bf ranges tile 0..nbf.
        let mut covered = 0;
        for r in &atoms.bfs {
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, prob.nbf());
    }

    #[test]
    fn matches_sequential_single_proc() {
        let prob = problem();
        let d = banded_density(prob.nbf(), 0.25);
        let (want, wq) = build_g_seq(&prob, &d);
        let (got, rep) = build_fock_nwchem(&prob, &d, NwchemConfig::default());
        assert_eq!(rep.total_quartets(), wq, "quartet count");
        assert!(
            max_diff(&want, &got) < 1e-11,
            "diff {}",
            max_diff(&want, &got)
        );
    }

    #[test]
    fn matches_sequential_multi_proc() {
        let prob = problem();
        let d = banded_density(prob.nbf(), 0.25);
        let (want, _) = build_g_seq(&prob, &d);
        for nprocs in [2usize, 3, 5] {
            let (got, _) = build_fock_nwchem(&prob, &d, NwchemConfig { nprocs, chunk: 2 });
            assert!(
                max_diff(&want, &got) < 1e-11,
                "nprocs={nprocs}: diff {}",
                max_diff(&want, &got)
            );
        }
    }

    #[test]
    fn chunk_size_does_not_change_result() {
        let prob = problem();
        let d = banded_density(prob.nbf(), 0.25);
        let (a, _) = build_fock_nwchem(
            &prob,
            &d,
            NwchemConfig {
                nprocs: 2,
                chunk: 1,
            },
        );
        let (b, _) = build_fock_nwchem(
            &prob,
            &d,
            NwchemConfig {
                nprocs: 2,
                chunk: 7,
            },
        );
        assert!(max_diff(&a, &b) < 1e-11);
    }

    #[test]
    fn queue_access_counting() {
        let prob = problem();
        let d = banded_density(prob.nbf(), 0.25);
        let (_, rep) = build_fock_nwchem(
            &prob,
            &d,
            NwchemConfig {
                nprocs: 2,
                chunk: 5,
            },
        );
        // One access per task plus one empty poll per process — the count
        // the simulator charges for the same task stream.
        let basis =
            chem::shells::BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
        let cost = eri::CostModel::calibrate(&basis, 1);
        let des = crate::sim_exec::NwchemSimModel::new(&prob, &cost);
        assert_eq!(rep.queue_accesses, des.total_tasks(5) + 2);
    }

    #[test]
    fn task_stream_covers_canonical_quartets() {
        let prob = problem();
        let atoms = AtomMap::new(&prob);
        // With chunk = 1 each task is exactly one atom quartet; the union
        // of (i,j,k,l) must be the canonical enumeration (with sig(I,J)).
        let mut seen = std::collections::HashSet::new();
        for (i, j, k, l_lo, l_hi) in atom_tasks(&atoms, prob.tau, prob.screening.max_q, 1) {
            assert_eq!(l_lo, l_hi);
            assert!(j <= i && k <= i);
            assert!(l_lo <= if k == i { j } else { k });
            assert!(
                seen.insert((i, j, k, l_lo)),
                "duplicate {:?}",
                (i, j, k, l_lo)
            );
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn alkane_with_screening_matches_gtfock() {
        let prob = FockProblem::new(
            generators::linear_alkane(4),
            BasisSetKind::Sto3g,
            1e-9,
            ShellOrdering::Natural,
        )
        .unwrap();
        let d = banded_density(prob.nbf(), 0.25);
        let (a, _) = build_fock_nwchem(
            &prob,
            &d,
            NwchemConfig {
                nprocs: 3,
                chunk: 5,
            },
        );
        let (b, _) = crate::gtfock::build_fock_gtfock(
            &prob,
            &d,
            crate::gtfock::GtfockConfig {
                grid: distrt::ProcessGrid::new(2, 2),
                ..Default::default()
            },
        );
        assert!(max_diff(&a, &b) < 1e-10, "diff {}", max_diff(&a, &b));
    }
}
