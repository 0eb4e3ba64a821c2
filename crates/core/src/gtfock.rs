//! The paper's algorithm, executed on real threads (Algorithm 4).
//!
//! One thread plays one process of the virtual grid. Each process:
//!
//! 1. prefetches the D blocks of its static-partition tasks into a local
//!    buffer,
//! 2. asks the shared [`Scheduler`] for its next task until it answers
//!    idle — own queue first, then steals (victim choice, steal size and
//!    fencing as configured by [`StealConfig`], Section III-F) — and runs
//!    each task in the buffer of the task owner's region, fetching that
//!    region's D on the first task that needs it,
//! 3. flushes every local F buffer into the distributed F, each block once;
//!    after the join (and recovery) G is symmetrized once
//!    ([`crate::sink::symmetrize`]).
//!
//! Steps 1–3, death and recovery are the per-rank executor of the
//! crate-private `lane` module, one lane per thread; this module supplies
//! its backend (GA transfers, the ERI kernel, real time). The
//! discrete-event simulator ([`crate::sim_exec`]) drives the same lane
//! over a virtual clock, so both executors make the same scheduling and
//! region decisions. The result is *identical* (to floating-point
//! reordering) to the sequential reference for any grid shape and any
//! stealing schedule — the correctness tests exercise exactly that.
//!
//! # Fault tolerance
//!
//! With a [`FaultPlan`] attached the build survives rank death, straggler
//! slowdown, and dropped one-sided ops while keeping **exactly-once**
//! accumulation into F:
//!
//! * A [`CompletionBoard`](crate::tasks::CompletionBoard) bit is set per
//!   task when its contribution has been *flushed* (not merely computed).
//!   A rank that dies skips its flush entirely, so everything it
//!   computed-but-never-flushed and everything left in its queue stays
//!   unmarked.
//! * The scheduler never lets a thief take from a rank the plan dooms
//!   (fencing), so the lost-task set — and the requeue count — is
//!   deterministic: the dead rank's static partition, whenever
//!   `after_tasks` is below its size.
//! * After the join, the unmarked tasks are dealt over the surviving ranks
//!   (disjoint, and checked against the board before execution); each
//!   recomputes its share through the same per-task routine as the first
//!   phase into fresh buffers and flushes those once — so no task's
//!   contribution can reach F twice.
//! * Dropped GA ops retry with backoff inside the GA layer; the drop
//!   decision precedes any memory write, so retries never double-count.
//!   A get that fails past its budget just abandons that worker's loop
//!   (the board recovers its tasks); an acc that fails mid-flush tears F
//!   and surfaces as [`BuildError::Comm`] — the SCF driver rebuilds.

use crate::build::{
    record_class_stats, record_dmax, record_pairdata, BuildError, BuildReport,
    DENSITY_SKIPPED_COUNTER, QUARTETS_COUNTER,
};
use crate::lane::{on_threads, recovery_shares, Backend, Ctx, Lane, LaneEnd, Traffic};
use crate::localbuf::LocalBuffers;
use crate::partition::StaticPartition;
use crate::sched::{Scheduler, StealConfig};
use crate::sink::{do_task, symmetrize, TaskCounts};
use crate::tasks::FockProblem;
use distrt::{FaultPlan, GaError, GlobalArray, ProcessGrid};
use eri::{ClassBatcher, DensityNorms, EriEngine};
use obs::{EventKind, Recorder, WorkerRec};
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
    ctx: Ctx<'a>,
    prob: &'a FockProblem,
    /// Block norms of the effective density: the weighted quartet test
    /// drops work ΔD cannot reach.
    dn: DensityNorms,
    ga_d: GlobalArray,
    ga_f: GlobalArray,
}

/// The threaded [`Backend`]: a region is a [`LocalBuffers`] filled and
/// flushed through the GA, a task runs the ERI kernel, the clock is real
/// time.
struct Real<'a> {
    sh: &'a Shared<'a>,
    rank: usize,
    w: WorkerRec,
    start: Instant,
    eng: EriEngine,
    batcher: ClassBatcher,
    comp: f64,
    counts: TaskCounts,
}

impl<'a> Real<'a> {
    fn new(sh: &'a Shared<'a>, rank: usize) -> Self {
        Real {
            sh,
            rank,
            w: sh.ctx.rec.worker(rank),
            start: Instant::now(),
            eng: EriEngine::new(),
            batcher: ClassBatcher::new(),
            comp: 0.0,
            counts: TaskCounts::default(),
        }
    }
}

impl Backend for Real<'_> {
    type Region = LocalBuffers;

    fn event(&mut self, kind: EventKind) {
        self.w.event(kind);
    }

    fn fetch(&mut self, owner: usize) -> Option<(LocalBuffers, Traffic)> {
        let (sh, rank) = (self.sh, self.rank);
        let mut b = LocalBuffers::for_process(sh.prob, &sh.ctx.part, owner);
        let (got, t) = traffic(&sh.ga_d, rank, || b.try_fetch_d(sh.prob, &sh.ga_d, rank));
        got.ok().map(|()| (b, t))
    }

    fn run(&mut self, t: u32, buf: &mut LocalBuffers, slowdown: f64) -> u64 {
        let sh = self.sh;
        let (m, n) = (
            t as usize / sh.prob.nshells(),
            t as usize % sh.prob.nshells(),
        );
        let t0 = Instant::now();
        let c = do_task(buf, sh.prob, &mut self.eng, &mut self.batcher, &sh.dn, m, n);
        let dt = t0.elapsed();
        self.comp += dt.as_secs_f64();
        if slowdown > 1.0 {
            std::thread::sleep(dt.mul_f64(slowdown - 1.0));
        }
        self.counts.computed += c.computed;
        self.counts.skipped_density += c.skipped_density;
        c.computed
    }

    fn flush(&mut self, buf: LocalBuffers) -> Result<Traffic, GaError> {
        let (sh, rank) = (self.sh, self.rank);
        let (done, t) = traffic(&sh.ga_f, rank, || buf.try_flush_f(sh.prob, &sh.ga_f, rank));
        done.map(|()| t)
    }

    /// The queue update is the scheduler's lock, already paid.
    fn steal(&mut self) {}
}

/// Run `op` and return what `rank` moved through `ga` meanwhile (a rank
/// only gets from D and only accumulates into F).
fn traffic<T>(ga: &GlobalArray, rank: usize, op: impl FnOnce() -> T) -> (T, Traffic) {
    let pre = ga.stats(rank);
    let out = op();
    let post = ga.stats(rank);
    let bytes = post.total_bytes() - pre.total_bytes();
    let calls = post.total_calls() - pre.total_calls();
    (out, Traffic { bytes, calls })
}

/// A lane's totals once its phase ends.
struct LaneOut {
    rank: usize,
    died: bool,
    t_fock: f64,
    t_comp: f64,
    counts: TaskCounts,
    victims: u64,
    flushed: Result<u64, GaError>,
    /// Recorder timestamp when the lane finished (join wait = latest
    /// finisher minus this).
    end_t: f64,
}

impl LaneOut {
    /// Record the lane's counters and take its totals.
    fn new(end: LaneEnd<Real>) -> Self {
        let mut b = end.backend;
        let rec = b.sh.ctx.rec;
        record_class_stats(rec, &b.batcher.take_stats());
        rec.counter(QUARTETS_COUNTER).add(b.counts.computed);
        rec.counter(DENSITY_SKIPPED_COUNTER)
            .add(b.counts.skipped_density);
        LaneOut {
            rank: b.rank,
            died: end.died,
            t_fock: b.start.elapsed().as_secs_f64(),
            t_comp: b.comp,
            counts: b.counts,
            victims: end.victims,
            flushed: end.flushed,
            end_t: b.w.now(),
        }
    }
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
        ctx: Ctx::new(part, fault, rec),
        prob,
        dn,
        ga_d,
        ga_f,
    };
    let sched = Scheduler::new(&part, cfg.steal, fault);

    // Phase 1: every rank drains its queue and steals until idle.
    let (sh, sched) = (&sh, &sched);
    let mut lanes = on_threads((0..nprocs).collect(), |rank| {
        let mut lane = Lane::new(&sh.ctx, rank, Real::new(sh, rank)).start();
        while lane.step(sched) {}
        LaneOut::new(lane.finish())
    });

    let mut report = BuildReport::zeros(nprocs);
    report.ranks_died = lanes.iter().filter(|o| o.died).count() as u64;
    let live: Vec<usize> = lanes.iter().filter(|o| !o.died).map(|o| o.rank).collect();
    let t_last = lanes.iter().map(|o| o.end_t).fold(0.0, f64::max);
    for o in &lanes {
        report.steals[o.rank] = sched.steals(o.rank);
        report.victims[o.rank] = o.victims;
        // Join wait: time between this worker finishing and the slowest
        // one — the implicit barrier at the end of the build.
        let seconds = t_last - o.end_t;
        rec.side_event_at(o.rank, o.end_t, EventKind::BarrierWait { seconds });
    }
    // A torn flush leaves an unknown prefix of one buffer in F: the whole
    // build result is untrustworthy, recovery cannot help.
    let torn = |lanes: &[LaneOut]| lanes.iter().find_map(|o| o.flushed.err());
    if let Some(e) = torn(&lanes) {
        return Err(BuildError::Comm(e));
    }

    // Phase 2, recovery: re-execute every task whose contribution never
    // reached F on the surviving ranks.
    let recovered = on_threads(recovery_shares(&sh.ctx, &live), |(rank, tasks)| {
        LaneOut::new(Lane::new(&sh.ctx, rank, Real::new(sh, rank)).recover(&tasks))
    });
    if let Some(e) = torn(&recovered) {
        return Err(BuildError::Comm(e));
    }
    for r in &recovered {
        report.tasks_requeued[r.rank] = r.flushed.unwrap_or(0);
    }
    let lost = sh.ctx.board.as_ref().map_or(0, |b| b.missing().len()) as u64;
    if lost > 0 {
        return Err(BuildError::Incomplete {
            tasks_lost: lost,
            tasks_requeued: report.total_requeued(),
        });
    }
    lanes.extend(recovered);

    for o in &lanes {
        report.t_fock[o.rank] += o.t_fock;
        report.t_comp[o.rank] += o.t_comp;
        report.quartets[o.rank] += o.counts.computed;
        report.density_skipped[o.rank] += o.counts.skipped_density;
    }
    for (rank, c) in report.comm.iter_mut().enumerate() {
        *c = sh.ga_d.stats(rank);
        c.merge(&sh.ga_f.stats(rank));
    }
    let mut g = sh.ga_f.to_dense();
    symmetrize(&mut g, nbf);
    Ok((g, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::build_g_seq;
    use crate::testutil::{banded_density, max_diff};
    use chem::generators;
    use chem::reorder::ShellOrdering;
    use chem::BasisSetKind;

    fn problem(ordering: ShellOrdering) -> FockProblem {
        FockProblem::new(generators::water(), BasisSetKind::Sto3g, 1e-12, ordering).unwrap()
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
        let d = banded_density(prob.nbf(), 0.3);
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
        let d = banded_density(prob.nbf(), 0.3);
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
        let d = banded_density(prob.nbf(), 0.3);
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
        let d = banded_density(prob.nbf(), 0.3);
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
        let d = banded_density(prob.nbf(), 0.3);
        let grid = ProcessGrid::new(2, 2);
        let (_, rep) = build_fock_gtfock(&prob, &d, cfg(grid, true));
        assert_eq!(rep.t_fock.len(), 4);
        assert!(rep.load_balance() >= 1.0);
        assert_eq!(rep.total_requeued(), 0);
        assert_eq!(rep.ranks_died, 0);
        // Everyone prefetched D and flushed F → nonzero comm, and each
        // rank accumulates every F block it fetched as D once.
        for c in &rep.comm {
            assert!(c.total_calls() > 0);
            assert!(c.total_bytes() > 0);
            assert_eq!(c.get_calls, c.acc_calls);
            assert_eq!(c.get_bytes, c.acc_bytes);
        }
    }

    #[test]
    fn rank_death_recovers_exactly_once() {
        let prob = problem(ShellOrdering::cells_default());
        let d = banded_density(prob.nbf(), 0.3);
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
        let d = banded_density(prob.nbf(), 0.3);
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
        let d = banded_density(prob.nbf(), 0.3);
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
