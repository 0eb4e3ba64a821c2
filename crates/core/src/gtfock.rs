//! The paper's algorithm, executed on real threads (Algorithm 4).
//!
//! One thread plays one process of the virtual grid. Each process:
//!
//! 1. prefetches the D blocks of its static-partition tasks into a local
//!    buffer,
//! 2. asks the shared [`Scheduler`] for its next task until it answers
//!    idle — own queue first, then steals (victim choice, steal size and
//!    fencing as configured by [`StealConfig`], Section III-F), fetching a
//!    victim's D region and accumulating into a per-victim F buffer,
//! 3. flushes every local F buffer into the distributed F.
//!
//! The discrete-event simulator ([`crate::sim_exec`]) drives the same
//! [`Scheduler`], so both executors make the same scheduling decisions.
//! The result is *identical* (to floating-point reordering) to the
//! sequential reference for any grid shape and any stealing schedule —
//! the correctness tests exercise exactly that.
//!
//! # Fault tolerance
//!
//! With a [`FaultPlan`] attached the build survives rank death, straggler
//! slowdown, and dropped one-sided ops while keeping **exactly-once**
//! accumulation into F:
//!
//! * A [`CompletionBoard`] bit is set per task when its contribution has
//!   been *flushed* (not merely computed). A rank that dies skips its
//!   flush entirely, so everything it computed-but-never-flushed and
//!   everything left in its queue stays unmarked.
//! * The scheduler never lets a thief take from a rank the plan dooms
//!   (fencing), so the lost-task set — and the requeue count — is
//!   deterministic: the dead rank's static partition, whenever
//!   `after_tasks` is below its size.
//! * After the join, [`recovery_assignment`] deals the unmarked tasks over
//!   the surviving ranks (disjoint, and checked against the board before
//!   execution); each recomputes its share through the same per-task
//!   routine as the first phase into fresh buffers and flushes those once
//!   — so no task's contribution can reach F twice.
//! * Dropped GA ops retry with backoff inside the GA layer; the drop
//!   decision precedes any memory write, so retries never double-count.
//!   A get that fails past its budget just abandons that worker's loop
//!   (the board recovers its tasks); an acc that fails mid-flush tears F
//!   and surfaces as [`BuildError::Comm`] — the SCF driver rebuilds.

use crate::build::{
    record_class_stats, record_dmax, record_pairdata, BuildError, BuildReport,
    DENSITY_SKIPPED_COUNTER, QUARTETS_COUNTER,
};
use crate::localbuf::{LocalBuffers, LocalSink, ShellDims};
use crate::partition::StaticPartition;
use crate::sched::{recovery_assignment, Next, Scheduler, StealConfig};
use crate::sink::do_task;
use crate::tasks::{CompletionBoard, FockProblem};
use distrt::{FaultPlan, GaError, GlobalArray, ProcessGrid};
use eri::{ClassBatcher, DensityNorms, EriEngine};
use obs::{fault_code, EventKind, Recorder, WorkerRec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a threaded GTFock build.
#[derive(Debug, Clone)]
pub struct GtfockConfig {
    /// Virtual process grid (one thread per process).
    pub grid: ProcessGrid,
    /// Work-stealing scheduler settings ([`StealConfig::disabled`] for
    /// the static-partition ablation).
    pub steal: StealConfig,
    /// Deterministic fault plan injected into this build (None, the
    /// default, is the fault-free fast path).
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for GtfockConfig {
    fn default() -> Self {
        GtfockConfig {
            grid: ProcessGrid::new(1, 1),
            steal: StealConfig::paper(),
            fault: None,
        }
    }
}

/// Per-process measurements of one build. The historical name survives as
/// an alias of the unified [`BuildReport`] all builders share.
pub type GtfockReport = BuildReport;

/// Build G(D) = 2J − K with the GTFock algorithm. `d_dense` is the
/// (symmetric) density matrix in the problem's shell ordering; the dense
/// G and the per-process report are returned. Panics on a fault-injected
/// unrecoverable failure — use [`try_build_fock_gtfock_rec`] in
/// fault-aware code.
pub fn build_fock_gtfock(
    prob: &FockProblem,
    d_dense: &[f64],
    cfg: GtfockConfig,
) -> (Vec<f64>, GtfockReport) {
    build_fock_gtfock_rec(prob, d_dense, cfg, &Recorder::disabled())
}

/// [`build_fock_gtfock`] with telemetry. Each virtual process checks out
/// its worker lane and records task start/end, steals (with victim rank),
/// bulk D-prefetch and F-flush transfers, and its join-barrier wait; the
/// attached GA emits per-call comm events into the same timeline.
pub fn build_fock_gtfock_rec(
    prob: &FockProblem,
    d_dense: &[f64],
    cfg: GtfockConfig,
    rec: &Recorder,
) -> (Vec<f64>, BuildReport) {
    try_build_fock_gtfock_rec(prob, d_dense, cfg, rec).expect("GTFock build failed")
}

/// What every worker of one build shares.
struct Shared<'a> {
    prob: &'a FockProblem,
    part: StaticPartition,
    dims: ShellDims,
    /// Block norms of the effective density: the weighted quartet test
    /// drops work ΔD cannot reach.
    dn: DensityNorms,
    ga_d: GlobalArray,
    ga_f: GlobalArray,
    /// Exactly-once ledger, kept only when a fault plan can lose tasks.
    board: Option<CompletionBoard>,
    fault: Option<&'a FaultPlan>,
    rec: &'a Recorder,
}

/// One rank's executor state for one phase: ERI engine, the D/F buffers
/// keyed by the rank whose region they cover with the task ids run into
/// each, and compute tallies. Phase 1 and recovery run every task through
/// [`Lane::run`].
struct Lane<'a> {
    sh: &'a Shared<'a>,
    rank: usize,
    w: WorkerRec,
    start: Instant,
    eng: EriEngine,
    batcher: ClassBatcher,
    bufs: HashMap<usize, (LocalBuffers, Vec<u32>)>,
    comp: f64,
    quartets: u64,
    density_skipped: u64,
}

/// A lane's totals once its phase ends.
struct LaneOut {
    rank: usize,
    t_fock: f64,
    t_comp: f64,
    quartets: u64,
    density_skipped: u64,
    /// Distinct regions other than its own it buffered (the model's `s`).
    victims: u64,
    /// Tasks whose contribution this lane flushed, or the acc that failed
    /// past its retry budget mid-flush (F is torn).
    flushed: Result<u64, GaError>,
    /// Recorder timestamp when the lane finished (join wait = latest
    /// finisher minus this).
    end_t: f64,
}

impl<'a> Lane<'a> {
    fn new(sh: &'a Shared<'a>, rank: usize) -> Self {
        Lane {
            sh,
            rank,
            w: sh.rec.worker(rank),
            start: Instant::now(),
            eng: EriEngine::new(),
            batcher: ClassBatcher::new(),
            bufs: HashMap::new(),
            comp: 0.0,
            quartets: 0,
            density_skipped: 0,
        }
    }

    /// Prefetch `owner`'s D region unless already buffered. False when the
    /// get failed past its retry budget.
    fn fetch(&mut self, owner: usize) -> bool {
        if self.bufs.contains_key(&owner) {
            return true;
        }
        let sh = self.sh;
        let mut b = LocalBuffers::for_process(sh.prob, &sh.part, owner);
        let pre = sh.ga_d.stats(self.rank);
        if b.try_fetch_d(sh.prob, &sh.ga_d, self.rank).is_err() {
            return false;
        }
        if self.w.is_enabled() {
            let post = sh.ga_d.stats(self.rank);
            self.w.event(EventKind::DPrefetch {
                bytes: post.get_bytes - pre.get_bytes,
                calls: post.get_calls - pre.get_calls,
            });
        }
        self.bufs.insert(owner, (b, Vec::new()));
        true
    }

    /// Compute task `t` into the buffer of its owner's region. False when
    /// that region's D could not be fetched (the task stays unflushed, so
    /// recovery catches it).
    fn run(&mut self, t: u32) -> bool {
        let sh = self.sh;
        let n = sh.part.nshells;
        let (m, nn) = (t as usize / n, t as usize % n);
        let owner = sh.part.owner_of_task(m, nn);
        if !self.fetch(owner) {
            return false;
        }
        let (buf, ran) = self.bufs.get_mut(&owner).expect("buffer just fetched");
        self.w.task_start(m, nn);
        let t0 = Instant::now();
        let mut sink = LocalSink {
            buf,
            dims: &sh.dims,
        };
        let c = do_task(
            &mut sink,
            sh.prob,
            &mut self.eng,
            &mut self.batcher,
            &sh.dn,
            m,
            nn,
        );
        let dt = t0.elapsed();
        self.comp += dt.as_secs_f64();
        let slowdown = sh.fault.map_or(1.0, |p| p.slowdown(self.rank));
        if slowdown > 1.0 {
            std::thread::sleep(dt.mul_f64(slowdown - 1.0));
        }
        self.w.task_end(m, nn, c.computed);
        self.quartets += c.computed;
        self.density_skipped += c.skipped_density;
        ran.push(t);
        true
    }

    /// Flush every buffer; returns the number of tasks flushed.
    fn flush_all(&mut self) -> Result<u64, GaError> {
        let sh = self.sh;
        let mut flushed = 0;
        for (buf, ran) in std::mem::take(&mut self.bufs).into_values() {
            buf.try_flush_f(sh.prob, &sh.ga_f, self.rank)?;
            // Flushed ⇒ these tasks' contributions are in F exactly once.
            if let Some(board) = &sh.board {
                for &t in &ran {
                    board.mark(t as usize);
                }
            }
            flushed += ran.len() as u64;
        }
        Ok(flushed)
    }

    /// End the phase: flush every buffer (skipped for a dead rank, whose
    /// updates are lost), marking the flushed tasks on the board.
    fn finish(mut self, flush: bool) -> LaneOut {
        let (sh, rank) = (self.sh, self.rank);
        record_class_stats(sh.rec, &self.batcher.take_stats());
        sh.rec.counter(QUARTETS_COUNTER).add(self.quartets);
        sh.rec
            .counter(DENSITY_SKIPPED_COUNTER)
            .add(self.density_skipped);
        let victims = self.bufs.keys().filter(|&&o| o != rank).count() as u64;
        let pre = sh.ga_f.stats(rank);
        let flushed = if flush { self.flush_all() } else { Ok(0) };
        if self.w.is_enabled() {
            let post = sh.ga_f.stats(rank);
            self.w.event(EventKind::FFlush {
                bytes: post.acc_bytes - pre.acc_bytes,
                calls: post.acc_calls - pre.acc_calls,
            });
        }
        self.w.event(EventKind::WorkerEnd);
        LaneOut {
            rank,
            t_fock: self.start.elapsed().as_secs_f64(),
            t_comp: self.comp,
            quartets: self.quartets,
            density_skipped: self.density_skipped,
            victims,
            flushed,
            end_t: self.w.now(),
        }
    }
}

/// Run `f` on one scoped thread per item; results in item order.
fn on_threads<I: Send, T: Send>(items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Phase 1 on `rank`: prefetch its own D region, then run whatever the
/// scheduler hands out until it answers idle or death. Returns the lane's
/// totals and whether the rank died.
fn drain(sh: &Shared, sched: &Scheduler, rank: usize) -> (LaneOut, bool) {
    let rec = sh.rec;
    let mut lane = Lane::new(sh, rank);
    lane.w.event(EventKind::WorkerStart);
    let steal_ns = rec.histogram(obs::analyze::STEAL_NS_HISTOGRAM);
    let slowdown = sh.fault.map_or(1.0, |p| p.slowdown(rank));
    if slowdown > 1.0 {
        rec.counter(obs::names::FAULT_INJECTED).add(1);
        lane.w.event(EventKind::Fault {
            code: fault_code::STRAGGLER,
            detail: (slowdown * 1000.0) as u32,
        });
    }
    // A failed own prefetch is retried by the first own task.
    lane.fetch(rank);
    loop {
        let scan = Instant::now();
        let task = match sched.next(rank) {
            Next::Task(t) => t,
            Next::Stolen {
                victim,
                task,
                moved,
            } => {
                lane.w.steal_attempt(victim);
                lane.w.steal_success(victim, moved);
                steal_ns.record_secs(scan.elapsed().as_secs_f64());
                task
            }
            Next::Died => {
                // The worker vanishes without flushing, losing its
                // buffered F updates and its remaining queue.
                rec.counter(obs::names::FAULT_INJECTED).add(1);
                lane.w.event(EventKind::Fault {
                    code: fault_code::RANK_DEATH,
                    detail: sched.executed(rank) as u32,
                });
                return (lane.finish(false), true);
            }
            Next::Idle => break,
        };
        if !lane.run(task) {
            break; // prefetch lost; recovery re-runs the task
        }
    }
    (lane.finish(true), false)
}

/// Fallible [`build_fock_gtfock_rec`]: under fault injection the build
/// recovers lost tasks (rank death, abandoned prefetches) exactly once,
/// and returns `Err` only when recovery itself fails or a flush tore F.
/// Fault-free configurations never return `Err`.
pub fn try_build_fock_gtfock_rec(
    prob: &FockProblem,
    d_dense: &[f64],
    cfg: GtfockConfig,
    rec: &Recorder,
) -> Result<(Vec<f64>, BuildReport), BuildError> {
    let nbf = prob.nbf();
    assert_eq!(d_dense.len(), nbf * nbf);
    let nprocs = cfg.grid.nprocs();
    let part = StaticPartition::new(cfg.grid, prob.nshells());
    let dn = DensityNorms::compute(&prob.basis, d_dense);
    record_dmax(rec, dn.max);
    // Force the shared pair table before the workers race to it.
    record_pairdata(rec, prob.pairs());

    let fault: Option<&FaultPlan> = cfg.fault.as_deref().filter(|p| p.is_active());
    let mut ga_d = GlobalArray::from_dense(cfg.grid, nbf, nbf, d_dense);
    let mut ga_f = GlobalArray::zeros(cfg.grid, nbf, nbf);
    ga_d.attach_recorder(rec);
    ga_f.attach_recorder(rec);
    if fault.is_some() {
        let plan = cfg.fault.clone().expect("fault plan present");
        ga_d.inject_faults(plan.clone());
        ga_f.inject_faults(plan);
    }
    let sh = Shared {
        prob,
        part,
        dims: ShellDims::new(prob),
        dn,
        ga_d,
        ga_f,
        board: fault.map(|_| CompletionBoard::new(part.ntasks())),
        fault,
        rec,
    };
    let sched = Scheduler::new(&part, cfg.steal, fault);

    // Phase 1: every rank drains its queue and steals until idle.
    let (sh, sched) = (&sh, &sched);
    let outs = on_threads((0..nprocs).collect(), |rank| drain(sh, sched, rank));

    let mut report = BuildReport::zeros(nprocs);
    report.ranks_died = outs.iter().filter(|(_, died)| *died).count() as u64;
    let live: Vec<usize> = outs
        .iter()
        .filter(|(_, died)| !died)
        .map(|(o, _)| o.rank)
        .collect();
    let t_last = outs.iter().map(|(o, _)| o.end_t).fold(0.0, f64::max);
    for (o, _) in &outs {
        report.steals[o.rank] = sched.steals(o.rank);
        report.victims[o.rank] = o.victims;
        // Join wait: time between this worker finishing and the slowest
        // one — the implicit barrier at the end of the build.
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
    let mut lanes: Vec<LaneOut> = outs.into_iter().map(|(o, _)| o).collect();
    // A torn flush leaves an unknown prefix of one buffer in F: the whole
    // build result is untrustworthy, recovery cannot help.
    let torn = |lanes: &[LaneOut]| lanes.iter().find_map(|o| o.flushed.err());
    if let Some(e) = torn(&lanes) {
        return Err(BuildError::Comm(e));
    }

    // Phase 2, recovery: re-execute every task whose contribution never
    // reached F on the surviving ranks.
    if let Some(board) = &sh.board {
        let missing = board.missing();
        if !missing.is_empty() {
            if live.is_empty() {
                return Err(BuildError::Incomplete {
                    tasks_lost: missing.len() as u64,
                    tasks_requeued: 0,
                });
            }
            rec.counter(obs::names::TASK_REQUEUED)
                .add(missing.len() as u64);
            let recovered = on_threads(recovery_assignment(&missing, &live), |(rank, tasks)| {
                let mut lane = Lane::new(sh, rank);
                lane.w.event(EventKind::Fault {
                    code: fault_code::TASK_REQUEUE,
                    detail: tasks.len() as u32,
                });
                for t in tasks {
                    // Assignments are disjoint; the board check additionally
                    // refuses any task that somehow already flushed.
                    if !board.is_done(t) {
                        lane.run(t as u32);
                    }
                }
                lane.finish(true)
            });
            if let Some(e) = torn(&recovered) {
                return Err(BuildError::Comm(e));
            }
            for r in &recovered {
                report.tasks_requeued[r.rank] = r.flushed.unwrap_or(0);
            }
            let lost = board.missing().len() as u64;
            if lost > 0 {
                return Err(BuildError::Incomplete {
                    tasks_lost: lost,
                    tasks_requeued: report.total_requeued(),
                });
            }
            lanes.extend(recovered);
        }
    }

    for o in &lanes {
        report.t_fock[o.rank] += o.t_fock;
        report.t_comp[o.rank] += o.t_comp;
        report.quartets[o.rank] += o.quartets;
        report.density_skipped[o.rank] += o.density_skipped;
    }
    for (rank, c) in report.comm.iter_mut().enumerate() {
        *c = sh.ga_d.stats(rank);
        c.merge(&sh.ga_f.stats(rank));
    }
    Ok((sh.ga_f.to_dense(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::build_g_seq;
    use chem::generators;
    use chem::reorder::ShellOrdering;
    use chem::BasisSetKind;

    fn problem(ordering: ShellOrdering) -> FockProblem {
        FockProblem::new(generators::water(), BasisSetKind::Sto3g, 1e-12, ordering).unwrap()
    }

    fn density(nbf: usize) -> Vec<f64> {
        let mut d = vec![0.0; nbf * nbf];
        for i in 0..nbf {
            for j in 0..nbf {
                let v = 0.3 / (1.0 + (i as f64 - j as f64).abs());
                d[i * nbf + j] = v;
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

    fn cfg(grid: ProcessGrid, steal: bool) -> GtfockConfig {
        GtfockConfig {
            grid,
            steal: steal.into(),
            ..GtfockConfig::default()
        }
    }

    #[test]
    fn matches_sequential_on_1x1() {
        let prob = problem(ShellOrdering::Natural);
        let d = density(prob.nbf());
        let (want, wq) = build_g_seq(&prob, &d);
        let (got, rep) = build_fock_gtfock(&prob, &d, GtfockConfig::default());
        assert_eq!(rep.total_quartets(), wq);
        assert!(
            max_diff(&want, &got) < 1e-11,
            "diff {}",
            max_diff(&want, &got)
        );
    }

    #[test]
    fn matches_sequential_on_grids() {
        let prob = problem(ShellOrdering::cells_default());
        let d = density(prob.nbf());
        let (want, wq) = build_g_seq(&prob, &d);
        for grid in [
            ProcessGrid::new(2, 2),
            ProcessGrid::new(1, 3),
            ProcessGrid::new(3, 2),
        ] {
            let (got, rep) = build_fock_gtfock(&prob, &d, cfg(grid, true));
            assert_eq!(rep.total_quartets(), wq, "grid {grid:?}");
            assert!(
                max_diff(&want, &got) < 1e-11,
                "grid {grid:?}: diff {}",
                max_diff(&want, &got)
            );
        }
    }

    #[test]
    fn stealing_off_still_correct() {
        let prob = problem(ShellOrdering::Natural);
        let d = density(prob.nbf());
        let (want, _) = build_g_seq(&prob, &d);
        let (got, rep) = build_fock_gtfock(&prob, &d, cfg(ProcessGrid::new(2, 2), false));
        assert!(rep.steals.iter().all(|&s| s == 0));
        assert!(max_diff(&want, &got) < 1e-11);
    }

    #[test]
    fn larger_molecule_with_d_shells() {
        // Methane/cc-pVDZ has d shells; 2x2 grid with stealing.
        let prob = FockProblem::new(
            generators::methane(),
            BasisSetKind::CcPvdz,
            1e-11,
            ShellOrdering::cells_default(),
        )
        .unwrap();
        let d = density(prob.nbf());
        let (want, _) = build_g_seq(&prob, &d);
        let (got, _) = build_fock_gtfock(&prob, &d, cfg(ProcessGrid::new(2, 2), true));
        assert!(
            max_diff(&want, &got) < 1e-10,
            "diff {}",
            max_diff(&want, &got)
        );
    }

    #[test]
    fn report_shapes_and_comm() {
        let prob = problem(ShellOrdering::Natural);
        let d = density(prob.nbf());
        let grid = ProcessGrid::new(2, 2);
        let (_, rep) = build_fock_gtfock(&prob, &d, cfg(grid, true));
        assert_eq!(rep.t_fock.len(), 4);
        assert!(rep.load_balance() >= 1.0);
        assert_eq!(rep.total_requeued(), 0);
        assert_eq!(rep.ranks_died, 0);
        // Everyone prefetched D and flushed F → nonzero comm.
        for c in &rep.comm {
            assert!(c.total_calls() > 0);
            assert!(c.total_bytes() > 0);
        }
    }

    #[test]
    fn rank_death_recovers_exactly_once() {
        let prob = problem(ShellOrdering::cells_default());
        let d = density(prob.nbf());
        let (want, _) = build_g_seq(&prob, &d);
        for killed in 0..4 {
            let plan = Arc::new(FaultPlan::new(11).kill(killed, 1));
            let (got, rep) = try_build_fock_gtfock_rec(
                &prob,
                &d,
                GtfockConfig {
                    grid: ProcessGrid::new(2, 2),
                    steal: StealConfig::paper(),
                    fault: Some(plan),
                },
                &Recorder::disabled(),
            )
            .expect("build must survive one dead rank");
            assert_eq!(rep.ranks_died, 1, "rank {killed}");
            assert!(rep.total_requeued() > 0, "rank {killed}");
            assert!(
                max_diff(&want, &got) < 1e-11,
                "rank {killed}: diff {}",
                max_diff(&want, &got)
            );
        }
    }

    #[test]
    fn requeue_count_is_deterministic() {
        let prob = problem(ShellOrdering::Natural);
        let d = density(prob.nbf());
        let run = || {
            let plan = Arc::new(FaultPlan::new(3).kill(2, 1));
            let (_, rep) = try_build_fock_gtfock_rec(
                &prob,
                &d,
                GtfockConfig {
                    grid: ProcessGrid::new(2, 2),
                    steal: StealConfig::paper(),
                    fault: Some(plan),
                },
                &Recorder::disabled(),
            )
            .expect("build");
            rep.total_requeued()
        };
        let a = run();
        assert!(a > 0);
        for _ in 0..3 {
            assert_eq!(run(), a);
        }
    }

    #[test]
    fn straggler_and_dropped_ops_stay_correct() {
        let prob = problem(ShellOrdering::Natural);
        let d = density(prob.nbf());
        let (want, _) = build_g_seq(&prob, &d);
        let plan = Arc::new(
            FaultPlan::new(17)
                .straggle(1, 1.3)
                .drop_ops(0.01)
                .retries(16, std::time::Duration::ZERO),
        );
        let (got, rep) = try_build_fock_gtfock_rec(
            &prob,
            &d,
            GtfockConfig {
                grid: ProcessGrid::new(2, 2),
                steal: StealConfig::paper(),
                fault: Some(plan),
            },
            &Recorder::disabled(),
        )
        .expect("build");
        assert!(max_diff(&want, &got) < 1e-11);
        assert_eq!(rep.ranks_died, 0);
        assert!(rep.ga_retries() > 0, "1% drops over many ops should fire");
    }
}
