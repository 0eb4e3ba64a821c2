//! The NWChem-style baseline Fock build (Algorithm 2, Section II-F).
//!
//! D and F are distributed block-row over the processes. Work is divided
//! into tasks of 5 atom quartets `(I J | K, L..L+4)`; a centralized
//! dynamic scheduler (a shared atomic counter standing in for NWChem's
//! `nxtval`) hands tasks to processes. Every process replays the task
//! stream of [`atom_tasks`], counting task ids, and executes the ids the
//! scheduler assigns to it: exactly the structure of Algorithm 2. The
//! simulator ([`crate::sim_exec::NwchemSimModel`]) walks the same stream.
//! D blocks are fetched per atom quartet and F blocks accumulated per atom
//! quartet — the per-quartet communication the paper contrasts with
//! GTFock's bulk prefetch.

use crate::build::{
    record_class_stats, record_dmax, record_pairdata, BuildReport, DENSITY_SKIPPED_COUNTER,
    QUARTETS_COUNTER,
};
use crate::sink::{apply_quartet, FockSink, TaskCounts, QUARTET_PERMS};
use crate::tasks::FockProblem;
use distrt::{GlobalArray, ProcessGrid};
use eri::{ClassBatcher, DensityNorms, EriEngine, QuartetClass};
use obs::{EventKind, Recorder, WorkerRec};
use std::collections::HashMap;
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

    /// Atom of a shell index.
    pub fn atom_of_shell(&self, prob: &FockProblem) -> Vec<u32> {
        let mut v = vec![0u32; prob.nshells()];
        for (a, r) in self.shells.iter().enumerate() {
            for s in r.clone() {
                v[s] = a as u32;
            }
        }
        v
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

/// Is (m,n,p,q) the representative of its quartet class *within* the
/// visited atom quartet (I,J,K,L)? Representative = lexicographically
/// smallest orbit member whose atom signature equals (I,J,K,L).
#[inline]
fn class_rep_within(atom_of_shell: &[u32], shells: [usize; 4], atoms: [u32; 4]) -> bool {
    let mut best: Option<[usize; 4]> = None;
    for perm in QUARTET_PERMS {
        let t = [
            shells[perm[0]],
            shells[perm[1]],
            shells[perm[2]],
            shells[perm[3]],
        ];
        let ta = [
            atom_of_shell[t[0]],
            atom_of_shell[t[1]],
            atom_of_shell[t[2]],
            atom_of_shell[t[3]],
        ];
        if ta == atoms {
            best = Some(match best {
                None => t,
                Some(b) if t < b => t,
                Some(b) => b,
            });
        }
    }
    best == Some(shells)
}

/// Per-task cache of fetched D / accumulated F atom-pair blocks.
struct PairCache {
    nbf_of: Vec<usize>,
    bf0_of: Vec<usize>,
    d: HashMap<(u32, u32), Vec<f64>>,
    f: HashMap<(u32, u32), Vec<f64>>,
    atom_of_bf: Vec<u32>,
}

impl PairCache {
    fn locate(&self, i: usize, j: usize) -> ((u32, u32), bool) {
        let (ai, aj) = (self.atom_of_bf[i], self.atom_of_bf[j]);
        if self.d.contains_key(&(ai, aj)) {
            ((ai, aj), false)
        } else {
            debug_assert!(
                self.d.contains_key(&(aj, ai)),
                "pair ({ai},{aj}) not fetched"
            );
            ((aj, ai), true)
        }
    }

    #[inline]
    fn elem(&self, key: (u32, u32), i: usize, j: usize, transposed: bool) -> usize {
        let (a, b) = (key.0 as usize, key.1 as usize);
        let (bi, bj) = (self.bf0_of[a], self.bf0_of[b]);
        let (na, nb) = (self.nbf_of[a], self.nbf_of[b]);
        let _ = na;
        if !transposed {
            (i - bi) * nb + (j - bj)
        } else {
            (j - bi) * nb + (i - bj)
        }
    }
}

impl FockSink for PairCache {
    #[inline]
    fn d(&self, i: usize, j: usize) -> f64 {
        let (key, t) = self.locate(i, j);
        let e = self.elem(key, i, j, t);
        self.d[&key][e]
    }

    #[inline]
    fn f_add(&mut self, i: usize, j: usize, v: f64) {
        let (key, t) = self.locate(i, j);
        let e = self.elem(key, i, j, t);
        self.f.get_mut(&key).expect("F block missing")[e] += v;
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
    let atoms = AtomMap::new(prob);
    let atom_of_shell = atoms.atom_of_shell(prob);
    // Effective-density block norms — same weighted quartet test as the
    // sequential and GTFock paths, so all builders agree quartet-for-quartet.
    let dn = DensityNorms::compute(&prob.basis, d_dense);
    record_dmax(rec, dn.max);
    // Force the shared pair table before the workers race to it.
    record_pairdata(rec, prob.pairs());
    let mut atom_of_bf = vec![0u32; nbf];
    for (a, r) in atoms.bfs.iter().enumerate() {
        for i in r.clone() {
            atom_of_bf[i] = a as u32;
        }
    }

    // Block-row distribution, as NWChem does (Section II-F).
    let grid = ProcessGrid::new(cfg.nprocs, 1);
    let mut ga_d = GlobalArray::from_dense(grid, nbf, nbf, d_dense);
    let mut ga_f = GlobalArray::zeros(grid, nbf, nbf);
    ga_d.attach_recorder(rec);
    ga_f.attach_recorder(rec);
    let (ga_d, ga_f) = (ga_d, ga_f);
    let next_task = AtomicU64::new(0);
    let queue_accesses = AtomicU64::new(0);

    struct Out {
        rank: usize,
        t_fock: f64,
        t_comp: f64,
        quartets: u64,
        density_skipped: u64,
        end_t: f64,
    }

    let outs: Vec<Out> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for rank in 0..cfg.nprocs {
            let (ga_d, ga_f) = (&ga_d, &ga_f);
            let (next_task, queue_accesses) = (&next_task, &queue_accesses);
            let (atoms, atom_of_shell, atom_of_bf) = (&atoms, &atom_of_shell, &atom_of_bf);
            let dn = &dn;
            handles.push(scope.spawn(move || {
                let mut w = rec.worker(rank);
                w.event(EventKind::WorkerStart);
                let start = Instant::now();
                let mut comp = 0.0;
                let mut quartets = 0u64;
                let mut density_skipped = 0u64;
                let mut eng = EriEngine::new();
                let mut batcher = ClassBatcher::new();
                // nxtval: one shared-counter access per claim.
                let claim = |w: &mut WorkerRec| {
                    queue_accesses.fetch_add(1, Ordering::Relaxed);
                    w.event(EventKind::QueueAccess);
                    next_task.fetch_add(1, Ordering::Relaxed)
                };
                let mut my_task = claim(&mut w);
                let tasks = atom_tasks(atoms, prob.tau, prob.screening.max_q, cfg.chunk);
                for (id, (i, j, k, l_lo, l_hi)) in tasks.enumerate() {
                    if id as u64 != my_task {
                        continue;
                    }
                    w.task_start(i, j);
                    let mut task_q = 0u64;
                    for l in l_lo..=l_hi {
                        if atoms.pair_value(i, j) * atoms.pair_value(k, l) > prob.tau {
                            let c = do_atom_quartet(
                                prob,
                                atoms,
                                atom_of_shell,
                                atom_of_bf,
                                ga_d,
                                ga_f,
                                rank,
                                &mut eng,
                                &mut batcher,
                                dn,
                                [i, j, k, l],
                                &mut comp,
                            );
                            task_q += c.computed;
                            density_skipped += c.skipped_density;
                        }
                    }
                    w.task_end(i, j, task_q);
                    quartets += task_q;
                    my_task = claim(&mut w);
                }
                w.event(EventKind::WorkerEnd);
                let end_t = w.now();
                rec.counter(QUARTETS_COUNTER).add(quartets);
                rec.counter(DENSITY_SKIPPED_COUNTER).add(density_skipped);
                record_class_stats(rec, &batcher.take_stats());
                Out {
                    rank,
                    t_fock: start.elapsed().as_secs_f64(),
                    t_comp: comp,
                    quartets,
                    density_skipped,
                    end_t,
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut report = BuildReport::zeros(cfg.nprocs);
    report.queue_accesses = queue_accesses.load(Ordering::Relaxed);
    let t_last = outs.iter().map(|o| o.end_t).fold(0.0, f64::max);
    for o in outs {
        report.t_fock[o.rank] = o.t_fock;
        report.t_comp[o.rank] = o.t_comp;
        report.quartets[o.rank] = o.quartets;
        report.density_skipped[o.rank] = o.density_skipped;
        let mut c = ga_d.stats(o.rank);
        c.merge(&ga_f.stats(o.rank));
        report.comm[o.rank] = c;
        if rec.is_enabled() {
            rec.side_event_at(
                o.rank,
                o.end_t,
                EventKind::BarrierWait {
                    seconds: t_last - o.end_t,
                },
            );
        }
    }
    (ga_f.to_dense(), report)
}

/// Execute one atom quartet: fetch its 6 D atom-pair blocks, compute the
/// selected shell quartets, accumulate its F blocks. Returns the quartet
/// counts (computed + density-skipped). `comp` accrues pure compute time.
#[allow(clippy::too_many_arguments)]
fn do_atom_quartet(
    prob: &FockProblem,
    atoms: &AtomMap,
    atom_of_shell: &[u32],
    atom_of_bf: &[u32],
    ga_d: &GlobalArray,
    ga_f: &GlobalArray,
    rank: usize,
    eng: &mut EriEngine,
    batcher: &mut ClassBatcher,
    dn: &DensityNorms,
    quartet: [usize; 4],
    comp: &mut f64,
) -> TaskCounts {
    let [i, j, k, l] = quartet;
    // The six unordered atom pairs this quartet touches.
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(6);
    for &(a, b) in &[(i, j), (k, l), (i, k), (i, l), (j, k), (j, l)] {
        let key = (a as u32, b as u32);
        let rkey = (b as u32, a as u32);
        if !pairs.contains(&key) && !pairs.contains(&rkey) {
            pairs.push(key);
        }
    }
    let nbf_of: Vec<usize> = atoms.bfs.iter().map(|r| r.len()).collect();
    let bf0_of: Vec<usize> = atoms.bfs.iter().map(|r| r.start).collect();
    let mut cache = PairCache {
        nbf_of,
        bf0_of,
        d: HashMap::new(),
        f: HashMap::new(),
        atom_of_bf: atom_of_bf.to_vec(),
    };
    for &(a, b) in &pairs {
        let (ra, rb) = (atoms.bfs[a as usize].clone(), atoms.bfs[b as usize].clone());
        let mut blk = vec![0.0; ra.len() * rb.len()];
        ga_d.get(rank, ra, rb, &mut blk);
        cache.d.insert((a, b), blk);
        cache.f.insert(
            (a, b),
            vec![0.0; atoms.bfs[a as usize].len() * atoms.bfs[b as usize].len()],
        );
    }

    // Compute the selected shell quartets. The atom- and pair-level
    // early-outs stay Schwarz-only (conservative), so the per-quartet
    // weighted test below sees exactly the Schwarz-passing set — the
    // computed and skipped counts match the sequential reference exactly.
    let t0 = Instant::now();
    let mut counts = TaskCounts::default();
    let at = [i as u32, j as u32, k as u32, l as u32];
    let pd = prob.pairs();
    let sh = &prob.basis.shells;
    for m in atoms.shells[i].clone() {
        for n in atoms.shells[j].clone() {
            if prob.screening.pair(m, n) * prob.screening.max_q <= prob.tau {
                continue;
            }
            // (MN) > τ/max_q ⇒ the pair is on the screening survivor list,
            // so every quartet queued below has its pair data.
            for p in atoms.shells[k].clone() {
                for q in atoms.shells[l].clone() {
                    if prob.screening.pair(m, n) * prob.screening.pair(p, q) <= prob.tau {
                        continue;
                    }
                    if !class_rep_within(atom_of_shell, [m, n, p, q], at) {
                        continue;
                    }
                    if prob.screening.pair(m, n)
                        * prob.screening.pair(p, q)
                        * dn.quartet_weight(m, n, p, q)
                        <= prob.tau
                    {
                        counts.skipped_density += 1;
                        continue;
                    }
                    batcher.push(
                        QuartetClass::try_of(sh[m].l, sh[n].l, sh[p].l, sh[q].l),
                        [m as u32, n as u32, p as u32, q as u32],
                    );
                    counts.computed += 1;
                }
            }
        }
    }
    batcher.flush(eng, pd, |quartet, block| {
        let [m, n, p, q] = quartet;
        apply_quartet(
            &mut cache,
            prob,
            [m as usize, n as usize, p as usize, q as usize],
            block,
        );
    });
    *comp += t0.elapsed().as_secs_f64();

    // Flush the F blocks (½ + ½ᵀ — see localbuf docs).
    let mut tbuf: Vec<f64> = Vec::new();
    for (&(a, b), blk) in &cache.f {
        let (ra, rb) = (atoms.bfs[a as usize].clone(), atoms.bfs[b as usize].clone());
        let (na, nb) = (ra.len(), rb.len());
        tbuf.clear();
        tbuf.extend(blk.iter().map(|&v| 0.5 * v));
        ga_f.acc(rank, ra.clone(), rb.clone(), &tbuf, 1.0);
        tbuf.clear();
        tbuf.resize(na * nb, 0.0);
        for ii in 0..na {
            for jj in 0..nb {
                tbuf[jj * na + ii] = 0.5 * blk[ii * nb + jj];
            }
        }
        ga_f.acc(rank, rb, ra, &tbuf, 1.0);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::build_g_seq;
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

    fn density(nbf: usize) -> Vec<f64> {
        let mut d = vec![0.0; nbf * nbf];
        for i in 0..nbf {
            for j in 0..nbf {
                d[i * nbf + j] = 0.25 / (1.0 + (i as f64 - j as f64).abs());
            }
        }
        d
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
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
        let d = density(prob.nbf());
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
        let d = density(prob.nbf());
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
        let d = density(prob.nbf());
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
        let d = density(prob.nbf());
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
        let d = density(prob.nbf());
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
