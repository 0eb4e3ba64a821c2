//! The shared worker pool: many concurrent Fock builds, one set of
//! threads, multiplexed at the paper's task granularity.
//!
//! A job-at-a-time service would give each SCF job its own builder and let
//! the OS time-slice whole builds; a small molecule queued behind a big
//! one would then wait for the big build's entire iteration. This pool
//! instead schedules at shell-pair-task granularity — the `(M,:|N,:)`
//! tasks of Section III-B — claiming small batches of tasks round-robin
//! across *every* in-flight build. A build over a 7-basis-function water
//! molecule interleaves with a 100-carbon alkane at ~batch-size latency,
//! which is what keeps p99 latency of small jobs bounded under load.
//!
//! Each build still produces exactly the G the sequential reference
//! produces (to floating-point summation order): workers accumulate task
//! batches into private buffers and merge them into the job's accumulator
//! under its lock, so no update is lost or double-applied; the merged F′
//! is symmetrized once after the last batch lands.

use crate::error::Error;
use eri::{ClassBatcher, ClassStats, DensityNorms, EriEngine};
use fock_core::{
    do_task, record_class_stats, symmetrize, BuildError, BuildOutcome, BuildReport, DenseSink,
    FockBuild, FockProblem, DENSITY_SKIPPED_COUNTER, DMAX_HISTOGRAM, QUARTETS_COUNTER,
};
use obs::Recorder;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One in-flight Fock build, shared between the submitting thread and the
/// pool workers.
struct BuildJob {
    prob: Arc<FockProblem>,
    /// The density, copied at submission so the job owns `'static` data.
    d: Vec<f64>,
    dn: DensityNorms,
    nshells: usize,
    /// Next linear task index (m * nshells + n) to claim.
    cursor: AtomicUsize,
    /// Result accumulator + completion flag; `done_cv` signals the
    /// submitter when the last task batch merges.
    accum: Mutex<JobAccum>,
    done_cv: Condvar,
}

struct JobAccum {
    f: Vec<f64>,
    quartets: u64,
    skipped_density: u64,
    /// Per-class batched-kernel totals, merged from each worker's batcher.
    class_stats: ClassStats,
    /// Tasks merged so far; the job is done when this reaches nshells².
    tasks_done: usize,
    done: bool,
}

impl BuildJob {
    fn total_tasks(&self) -> usize {
        self.nshells * self.nshells
    }
}

/// Scheduler state: the in-flight job list and the round-robin cursor.
struct Sched {
    jobs: Vec<Arc<BuildJob>>,
    rr: usize,
}

struct PoolInner {
    sched: Mutex<Sched>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// Tasks claimed per scheduling quantum.
    batch: usize,
}

impl PoolInner {
    /// Claim the next batch of tasks, round-robin over in-flight jobs.
    /// Returns `None` when there is no work and the pool is shutting down.
    fn claim(&self) -> Option<(Arc<BuildJob>, usize, usize)> {
        let mut sched = self.sched.lock().unwrap();
        loop {
            while let Some(job) = {
                let n = sched.jobs.len();
                if n == 0 {
                    None
                } else {
                    let i = sched.rr % n;
                    sched.rr = sched.rr.wrapping_add(1);
                    Some(Arc::clone(&sched.jobs[i]))
                }
            } {
                let start = job.cursor.fetch_add(self.batch, Ordering::Relaxed);
                let total = job.total_tasks();
                if start < total {
                    let end = (start + self.batch).min(total);
                    return Some((job, start, end));
                }
                // Exhausted: retire it from the round-robin list (another
                // worker may have already done so).
                sched.jobs.retain(|j| !Arc::ptr_eq(j, &job));
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            sched = self.work_cv.wait(sched).unwrap();
        }
    }

    /// Execute tasks [start, end) of `job` into a private buffer, then
    /// merge. `fbuf` is the worker's reusable accumulation buffer.
    fn run_batch(
        job: &BuildJob,
        start: usize,
        end: usize,
        eng: &mut EriEngine,
        batcher: &mut ClassBatcher,
        fbuf: &mut Vec<f64>,
    ) {
        let nbf = job.prob.nbf();
        fbuf.clear();
        fbuf.resize(nbf * nbf, 0.0);
        let mut quartets = 0;
        let mut skipped = 0;
        {
            let mut sink = DenseSink {
                nbf,
                d: &job.d,
                f: fbuf,
            };
            for idx in start..end {
                let (m, n) = (idx / job.nshells, idx % job.nshells);
                let c = do_task(&mut sink, &job.prob, eng, batcher, &job.dn, m, n);
                quartets += c.computed;
                skipped += c.skipped_density;
            }
        }
        let mut acc = job.accum.lock().unwrap();
        for (a, b) in acc.f.iter_mut().zip(fbuf.iter()) {
            *a += b;
        }
        acc.quartets += quartets;
        acc.skipped_density += skipped;
        acc.class_stats.merge(&batcher.take_stats());
        acc.tasks_done += end - start;
        if acc.tasks_done == job.total_tasks() {
            acc.done = true;
            job.done_cv.notify_all();
        }
    }

    fn worker_loop(&self) {
        let mut eng = EriEngine::new();
        let mut batcher = ClassBatcher::new();
        let mut fbuf = Vec::new();
        while let Some((job, start, end)) = self.claim() {
            Self::run_batch(&job, start, end, &mut eng, &mut batcher, &mut fbuf);
        }
    }

    /// Run one full build through the pool and block until it completes.
    /// If the pool has already shut down, the build runs inline on the
    /// calling thread instead of deadlocking on absent workers.
    fn run_build(&self, prob: Arc<FockProblem>, d: &[f64], rec: &Recorder) -> BuildOutcome {
        let nbf = prob.nbf();
        assert_eq!(d.len(), nbf * nbf);
        let start = Instant::now();
        let dn = DensityNorms::compute(&prob.basis, d);
        rec.histogram(DMAX_HISTOGRAM)
            .record((dn.max.max(0.0) * 1e9) as u64);
        let nshells = prob.nshells();
        let job = Arc::new(BuildJob {
            prob,
            d: d.to_vec(),
            dn,
            nshells,
            cursor: AtomicUsize::new(0),
            accum: Mutex::new(JobAccum {
                f: vec![0.0; nbf * nbf],
                quartets: 0,
                skipped_density: 0,
                class_stats: ClassStats::default(),
                tasks_done: 0,
                done: nshells == 0,
            }),
            done_cv: Condvar::new(),
        });

        if self.shutdown.load(Ordering::Acquire) {
            let mut eng = EriEngine::new();
            let mut batcher = ClassBatcher::new();
            let mut fbuf = Vec::new();
            Self::run_batch(
                &job,
                0,
                job.total_tasks(),
                &mut eng,
                &mut batcher,
                &mut fbuf,
            );
        } else {
            {
                let mut sched = self.sched.lock().unwrap();
                sched.jobs.push(Arc::clone(&job));
            }
            self.work_cv.notify_all();
            let mut acc = job.accum.lock().unwrap();
            while !acc.done {
                acc = job.done_cv.wait(acc).unwrap();
            }
            drop(acc);
        }

        let mut acc = job.accum.lock().unwrap();
        let mut g = std::mem::take(&mut acc.f);
        symmetrize(&mut g, nbf);
        let t_fock = start.elapsed().as_secs_f64();
        rec.counter(QUARTETS_COUNTER).add(acc.quartets);
        rec.counter(DENSITY_SKIPPED_COUNTER)
            .add(acc.skipped_density);
        record_class_stats(rec, &acc.class_stats);
        let report = BuildReport::zeros(1)
            .with_t_fock(vec![t_fock])
            .with_t_comp(vec![t_fock])
            .with_quartets(vec![acc.quartets])
            .with_density_skipped(vec![acc.skipped_density]);
        BuildOutcome { g, report }
    }
}

/// A fixed set of worker threads executing every in-flight build's tasks,
/// round-robin at batch granularity. Create one per service (or process)
/// and mint per-problem builders with [`SharedPool::builder_for`].
pub struct SharedPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

impl SharedPool {
    /// Spawn `workers` threads; each scheduling quantum claims up to
    /// `batch` shell-pair tasks from one build before rotating to the
    /// next. Smaller batches interleave more fairly; larger ones amortize
    /// scheduling overhead. Both must be ≥ 1.
    pub fn new(workers: usize, batch: usize) -> SharedPool {
        assert!(workers >= 1, "pool needs at least one worker");
        assert!(batch >= 1, "batch must be at least one task");
        let inner = Arc::new(PoolInner {
            sched: Mutex::new(Sched {
                jobs: Vec::new(),
                rr: 0,
            }),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            batch,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fock-pool-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        SharedPool {
            inner,
            workers: handles,
        }
    }

    /// A [`FockBuild`] that routes builds for `prob` through this pool.
    /// The builder carries its own `Arc` to the problem; `build` asserts
    /// it is called with that same problem (the `FockBuild` signature
    /// passes the problem by reference, and routing a *different*
    /// problem's density through this builder would be a logic error).
    pub fn builder_for(&self, prob: Arc<FockProblem>) -> Arc<dyn FockBuild + Send + Sync> {
        Arc::new(PoolBuild {
            inner: Arc::clone(&self.inner),
            prob,
        })
    }

    /// Run one build directly (no SCF loop) — blocks until complete.
    pub fn build_g(
        &self,
        prob: &Arc<FockProblem>,
        d: &[f64],
        rec: &Recorder,
    ) -> Result<BuildOutcome, Error> {
        Ok(self.inner.run_build(Arc::clone(prob), d, rec))
    }

    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// [`FockBuild`] adapter: routes one problem's builds through the shared
/// pool, so `run_scf_on` (and anything else speaking the builder trait)
/// multiplexes transparently with every other in-flight job.
struct PoolBuild {
    inner: Arc<PoolInner>,
    prob: Arc<FockProblem>,
}

impl FockBuild for PoolBuild {
    fn name(&self) -> &'static str {
        "pool"
    }

    fn build(
        &self,
        prob: &FockProblem,
        d: &[f64],
        rec: &Recorder,
    ) -> Result<BuildOutcome, BuildError> {
        assert!(
            std::ptr::eq(prob, self.prob.as_ref()),
            "pool builder invoked with a different problem than it was minted for"
        );
        Ok(self.inner.run_build(Arc::clone(&self.prob), d, rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::generators;
    use chem::reorder::ShellOrdering;
    use chem::BasisSetKind;
    use fock_core::build_g_seq;

    fn problem(moly: chem::molecule::Molecule) -> Arc<FockProblem> {
        Arc::new(
            FockProblem::new(moly, BasisSetKind::Sto3g, 1e-12, ShellOrdering::Natural).unwrap(),
        )
    }

    fn gwh_density(prob: &Arc<FockProblem>) -> Vec<f64> {
        // Any symmetric matrix works as a test density; the memoized GWH
        // guess is convenient and physically shaped.
        let g = prob.gwh_guess();
        let nbf = prob.nbf();
        let mut d = vec![0.0; nbf * nbf];
        for i in 0..nbf {
            for j in 0..nbf {
                d[i * nbf + j] = 0.1 * g[(i, j)] / (1.0 + (g[(i, i)] * g[(j, j)]).abs().sqrt());
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
    fn pool_build_matches_sequential_reference() {
        let pool = SharedPool::new(3, 2);
        let prob = problem(generators::water());
        let d = gwh_density(&prob);
        let (g_seq, q_seq) = build_g_seq(&prob, &d);
        let out = pool.build_g(&prob, &d, &Recorder::disabled()).unwrap();
        assert_eq!(out.report.total_quartets(), q_seq);
        assert!(
            max_diff(&g_seq, &out.g) < 1e-10,
            "pool G diverges: {}",
            max_diff(&g_seq, &out.g)
        );
        let n = prob.nbf();
        assert!(
            (0..n).all(|i| (0..i).all(|j| out.g[i * n + j] == out.g[j * n + i])),
            "pool G is not exactly symmetric"
        );
    }

    #[test]
    fn concurrent_heterogeneous_builds_all_match() {
        // Several different molecules in flight at once, batch size 1 for
        // maximal interleaving — every G must still match its reference.
        let pool = Arc::new(SharedPool::new(4, 1));
        let probs = [
            problem(generators::water()),
            problem(generators::hydrogen(1.4)),
            problem(generators::methane()),
        ];
        let handles: Vec<_> = probs
            .iter()
            .map(|prob| {
                let pool = Arc::clone(&pool);
                let prob = Arc::clone(prob);
                std::thread::spawn(move || {
                    let d = gwh_density(&prob);
                    let out = pool.build_g(&prob, &d, &Recorder::disabled()).unwrap();
                    (prob, d, out)
                })
            })
            .collect();
        for h in handles {
            let (prob, d, out) = h.join().unwrap();
            let (g_seq, _) = build_g_seq(&prob, &d);
            assert!(max_diff(&g_seq, &out.g) < 1e-10);
        }
        assert!(pool.inner.sched.lock().unwrap().jobs.is_empty());
    }

    #[test]
    fn builder_trait_roundtrip() {
        let pool = SharedPool::new(2, 4);
        let prob = problem(generators::hydrogen(1.4));
        let builder = pool.builder_for(Arc::clone(&prob));
        assert_eq!(builder.name(), "pool");
        let d = gwh_density(&prob);
        let out = builder.build(&prob, &d, &Recorder::disabled()).unwrap();
        let (g_seq, _) = build_g_seq(&prob, &d);
        assert!(max_diff(&g_seq, &out.g) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "different problem")]
    fn builder_rejects_foreign_problem() {
        let pool = SharedPool::new(1, 4);
        let a = problem(generators::water());
        let b = problem(generators::hydrogen(1.4));
        let builder = pool.builder_for(a);
        let d = vec![0.0; b.nbf() * b.nbf()];
        let _ = builder.build(&b, &d, &Recorder::disabled());
    }

    #[test]
    fn build_after_shutdown_falls_back_inline() {
        let prob = problem(generators::hydrogen(1.4));
        let d = gwh_density(&prob);
        let builder = {
            let pool = SharedPool::new(2, 4);
            pool.builder_for(Arc::clone(&prob))
            // pool dropped here: workers joined, shutdown flagged
        };
        let out = builder.build(&prob, &d, &Recorder::disabled()).unwrap();
        let (g_seq, _) = build_g_seq(&prob, &d);
        assert!(max_diff(&g_seq, &out.g) < 1e-10);
    }

    #[test]
    fn pool_records_quartet_counter() {
        let pool = SharedPool::new(2, 2);
        let prob = problem(generators::water());
        let d = gwh_density(&prob);
        let rec = Recorder::enabled();
        let out = pool.build_g(&prob, &d, &rec).unwrap();
        let snap = rec.metrics_snapshot();
        let counted = snap.counter(QUARTETS_COUNTER);
        assert_eq!(counted, out.report.total_quartets());
        assert!(counted > 0);
    }
}
