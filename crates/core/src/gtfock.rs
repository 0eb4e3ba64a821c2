//! The paper's algorithm, executed on real threads (Algorithm 4).
//!
//! One thread plays one process of the virtual grid. Each process:
//!
//! 1. populates its task queue from the static partition,
//! 2. prefetches all D blocks its tasks need into a local buffer,
//! 3. drains its queue, computing quartets into a local F buffer,
//! 4. when empty, steals blocks of tasks from other processes' queues
//!    (scanning ranks row-wise, Section III-F), fetching the victim's D
//!    region and accumulating into a per-victim F buffer,
//! 5. flushes every local F buffer into the distributed F.
//!
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
//! * Thieves never steal from a rank the plan dooms (fencing), so the
//!   lost-task set — and the requeue count — is deterministic: the dead
//!   rank's static partition, whenever `after_tasks` is below its size.
//! * After the join, a recovery phase partitions the unmarked tasks over
//!   the surviving ranks (disjoint assignment, checked against the board
//!   before execution), recomputes them into fresh buffers and flushes
//!   those once — so no task's contribution can reach F twice.
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
use crate::sink::do_task;
use crate::tasks::{CompletionBoard, FockProblem};
use crossbeam_deque::{Steal, Stealer, Worker};
use distrt::{FaultPlan, GaError, GlobalArray, ProcessGrid};
use eri::{ClassBatcher, DensityNorms, EriEngine};
use obs::{fault_code, EventKind, Recorder};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a threaded GTFock build.
#[derive(Debug, Clone)]
pub struct GtfockConfig {
    /// Virtual process grid (one thread per process).
    pub grid: ProcessGrid,
    /// Enable the work-stealing scheduler (disable for the ablation).
    pub steal: bool,
    /// Deterministic fault plan injected into this build (None, the
    /// default, is the fault-free fast path).
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for GtfockConfig {
    fn default() -> Self {
        GtfockConfig {
            grid: ProcessGrid::new(1, 1),
            steal: true,
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
/// its worker lane and records task start/end, steal attempts/successes
/// (with victim rank), bulk D-prefetch and F-flush transfers, and its
/// join-barrier wait; the attached GA emits per-call comm events into the
/// same timeline.
pub fn build_fock_gtfock_rec(
    prob: &FockProblem,
    d_dense: &[f64],
    cfg: GtfockConfig,
    rec: &Recorder,
) -> (Vec<f64>, BuildReport) {
    try_build_fock_gtfock_rec(prob, d_dense, cfg, rec).expect("GTFock build failed")
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
    let nshells = prob.nshells();
    let part = StaticPartition::new(cfg.grid, prob.nshells());
    let dims = ShellDims::new(prob);
    // Block norms of the effective density, shared read-only by every
    // worker: the weighted quartet test drops work ΔD cannot reach.
    let dn = DensityNorms::compute(&prob.basis, d_dense);
    record_dmax(rec, dn.max);
    // Force the shared pair table before the workers race to it.
    record_pairdata(rec, prob.pairs());

    let fault: Option<&FaultPlan> = cfg.fault.as_deref().filter(|p| p.is_active());
    // Exactly-once ledger, maintained only when a fault plan can lose
    // tasks the static partition assigned.
    let board = fault.map(|_| CompletionBoard::new(nshells * nshells));

    let mut ga_d = GlobalArray::from_dense(cfg.grid, nbf, nbf, d_dense);
    let mut ga_f = GlobalArray::zeros(cfg.grid, nbf, nbf);
    ga_d.attach_recorder(rec);
    ga_f.attach_recorder(rec);
    if fault.is_some() {
        let plan = cfg.fault.clone().expect("fault plan present");
        ga_d.inject_faults(plan.clone());
        ga_f.inject_faults(plan);
    }
    let (ga_d, ga_f) = (ga_d, ga_f);

    // Task deques: one per process, pre-populated from the static
    // partition.
    let workers: Vec<Worker<(u32, u32)>> = (0..nprocs).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<(u32, u32)>> = workers.iter().map(|w| w.stealer()).collect();
    for (rank, w) in workers.iter().enumerate() {
        for (m, n) in part.tasks_of(rank) {
            w.push((m as u32, n as u32));
        }
    }

    struct ThreadOut {
        rank: usize,
        t_fock: f64,
        t_comp: f64,
        quartets: u64,
        density_skipped: u64,
        steals: u64,
        victims: u64,
        /// Recorder timestamp when this worker finished (join wait =
        /// latest finisher minus this).
        end_t: f64,
        /// The fault plan killed this rank mid-build (nothing flushed).
        died: bool,
        /// A flush acc failed past its retry budget — F is torn.
        flush_err: Option<GaError>,
    }

    let board_ref = board.as_ref();
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank, worker) in workers.into_iter().enumerate() {
            let stealers = &stealers;
            let ga_d = &ga_d;
            let ga_f = &ga_f;
            let dims = &dims;
            let part = &part;
            let dn = &dn;
            handles.push(scope.spawn(move || {
                let mut w = rec.worker(rank);
                let steal_ns = rec.histogram(obs::analyze::STEAL_NS_HISTOGRAM);
                w.event(EventKind::WorkerStart);
                let start = Instant::now();
                let mut comp = 0.0f64;
                let mut quartets = 0u64;
                let mut density_skipped = 0u64;
                let mut steals = 0u64;
                let mut eng = EriEngine::new();
                let mut batcher = ClassBatcher::new();

                let death_after = fault.and_then(|p| p.death_after(rank));
                let slowdown = fault.map_or(1.0, |p| p.slowdown(rank));
                if slowdown > 1.0 {
                    rec.counter(obs::names::FAULT_INJECTED).add(1);
                    w.event(EventKind::Fault {
                        code: fault_code::STRAGGLER,
                        detail: (slowdown * 1000.0) as u32,
                    });
                }
                let mut executed_count = 0u64;
                let mut died = false;
                // Task ids executed per owner region, marked complete only
                // once that owner buffer flushes.
                let mut executed: HashMap<usize, Vec<u32>> = HashMap::new();

                // Buffers keyed by the rank whose region they cover.
                let mut bufs: HashMap<usize, LocalBuffers> = HashMap::new();
                let mut own = LocalBuffers::for_process(prob, part, rank);
                let pre = ga_d.stats(rank);
                let own_ok = own.try_fetch_d(prob, ga_d, rank).is_ok();
                if w.is_enabled() {
                    let post = ga_d.stats(rank);
                    w.event(EventKind::DPrefetch {
                        bytes: post.get_bytes - pre.get_bytes,
                        calls: post.get_calls - pre.get_calls,
                    });
                }
                if own_ok {
                    bufs.insert(rank, own);
                }

                loop {
                    // Scheduled death fires between tasks: the worker
                    // vanishes without flushing, losing its buffered F
                    // updates and its remaining queue.
                    if death_after == Some(executed_count) {
                        died = true;
                        rec.counter(obs::names::FAULT_INJECTED).add(1);
                        w.event(EventKind::Fault {
                            code: fault_code::RANK_DEATH,
                            detail: executed_count as u32,
                        });
                        break;
                    }
                    let task = match worker.pop() {
                        Some(t) => Some(t),
                        None => {
                            let mut got = None;
                            if cfg.steal {
                                // Row-wise victim scan (Section III-F).
                                let scan_start = Instant::now();
                                for v in cfg.grid.steal_order(rank) {
                                    // Fence: never steal from a rank the
                                    // plan will kill (its queue dies with
                                    // it), keeping the lost task set
                                    // deterministic.
                                    if fault.is_some_and(|p| p.is_doomed(v)) {
                                        continue;
                                    }
                                    w.steal_attempt(v);
                                    match stealers[v].steal_batch_and_pop(&worker) {
                                        Steal::Success(t) => {
                                            steals += 1;
                                            // The batch moved len() tasks
                                            // into our deque plus the
                                            // popped one.
                                            w.steal_success(v, worker.len() + 1);
                                            steal_ns
                                                .record_secs(scan_start.elapsed().as_secs_f64());
                                            got = Some(t);
                                            break;
                                        }
                                        Steal::Empty | Steal::Retry => continue,
                                    }
                                }
                            }
                            got
                        }
                    };
                    let Some((m, n)) = task else { break };
                    let (m, n) = (m as usize, n as usize);
                    let owner = part.owner_of_task(m, n);
                    if let Entry::Vacant(slot) = bufs.entry(owner) {
                        let mut b = LocalBuffers::for_process(prob, part, owner);
                        let pre = ga_d.stats(rank);
                        if b.try_fetch_d(prob, ga_d, rank).is_err() {
                            // Prefetch lost past its retry budget: abandon
                            // the loop; this task's bit stays clear and
                            // recovery re-executes it.
                            break;
                        }
                        if rec.is_enabled() {
                            let post = ga_d.stats(rank);
                            rec.side_event(
                                rank,
                                EventKind::DPrefetch {
                                    bytes: post.get_bytes - pre.get_bytes,
                                    calls: post.get_calls - pre.get_calls,
                                },
                            );
                        }
                        slot.insert(b);
                    }
                    let buf = bufs.get_mut(&owner).expect("buffer just inserted");
                    w.task_start(m, n);
                    let t0 = Instant::now();
                    let mut sink = LocalSink { buf, dims };
                    let c = do_task(&mut sink, prob, &mut eng, &mut batcher, dn, m, n);
                    let dt = t0.elapsed();
                    comp += dt.as_secs_f64();
                    if slowdown > 1.0 {
                        std::thread::sleep(dt.mul_f64(slowdown - 1.0));
                    }
                    w.task_end(m, n, c.computed);
                    quartets += c.computed;
                    density_skipped += c.skipped_density;
                    executed_count += 1;
                    if board_ref.is_some() {
                        executed
                            .entry(owner)
                            .or_default()
                            .push((m * nshells + n) as u32);
                    }
                }

                record_class_stats(rec, &batcher.take_stats());
                let victims = (bufs.len() as u64).saturating_sub(1);
                let pre = ga_f.stats(rank);
                let mut flush_err = None;
                if !died {
                    for (owner, buf) in bufs {
                        match buf.try_flush_f(prob, ga_f, rank) {
                            Ok(()) => {
                                // Flushed ⇒ these tasks' contributions are
                                // in F exactly once: set their bits.
                                if let Some(board) = board_ref {
                                    for t in executed.remove(&owner).unwrap_or_default() {
                                        board.mark(t as usize);
                                    }
                                }
                            }
                            Err(e) => {
                                flush_err = Some(e);
                                break;
                            }
                        }
                    }
                }
                if w.is_enabled() {
                    let post = ga_f.stats(rank);
                    w.event(EventKind::FFlush {
                        bytes: post.acc_bytes - pre.acc_bytes,
                        calls: post.acc_calls - pre.acc_calls,
                    });
                }
                w.event(EventKind::WorkerEnd);
                let end_t = w.now();
                rec.counter(QUARTETS_COUNTER).add(quartets);
                rec.counter(DENSITY_SKIPPED_COUNTER).add(density_skipped);
                ThreadOut {
                    rank,
                    t_fock: start.elapsed().as_secs_f64(),
                    t_comp: comp,
                    quartets,
                    density_skipped,
                    steals,
                    victims,
                    end_t,
                    died,
                    flush_err,
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    // A torn flush leaves an unknown prefix of one buffer in F: the whole
    // build result is untrustworthy, recovery cannot help.
    if let Some(e) = outs.iter().find_map(|o| o.flush_err) {
        return Err(BuildError::Comm(e));
    }

    let mut report = BuildReport::zeros(nprocs);
    report.ranks_died = outs.iter().filter(|o| o.died).count() as u64;

    // Recovery: re-execute every task whose contribution never reached F,
    // on the surviving ranks. Disjoint round-robin assignment plus the
    // board check make each lost task's flush happen exactly once.
    if let Some(board) = &board {
        let missing = board.missing();
        if !missing.is_empty() {
            let live: Vec<usize> = outs.iter().filter(|o| !o.died).map(|o| o.rank).collect();
            if live.is_empty() {
                return Err(BuildError::Incomplete {
                    tasks_lost: missing.len() as u64,
                    tasks_requeued: 0,
                });
            }
            rec.counter(obs::names::TASK_REQUEUED)
                .add(missing.len() as u64);
            let mut assign: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
            for (i, &t) in missing.iter().enumerate() {
                assign[i % live.len()].push(t);
            }

            struct RecovOut {
                rank: usize,
                requeued: u64,
                quartets: u64,
                density_skipped: u64,
                t_comp: f64,
                t_wall: f64,
                flush_err: Option<GaError>,
            }

            let recov: Vec<RecovOut> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (slot, &rank) in live.iter().enumerate() {
                    let tasks = std::mem::take(&mut assign[slot]);
                    if tasks.is_empty() {
                        continue;
                    }
                    let ga_d = &ga_d;
                    let ga_f = &ga_f;
                    let dims = &dims;
                    let part = &part;
                    let dn = &dn;
                    handles.push(scope.spawn(move || {
                        let mut w = rec.worker(rank);
                        let start = Instant::now();
                        w.event(EventKind::Fault {
                            code: fault_code::TASK_REQUEUE,
                            detail: tasks.len() as u32,
                        });
                        let mut comp = 0.0f64;
                        let mut quartets = 0u64;
                        let mut density_skipped = 0u64;
                        let mut eng = EriEngine::new();
                        let mut batcher = ClassBatcher::new();
                        let mut bufs: HashMap<usize, (LocalBuffers, Vec<u32>)> = HashMap::new();
                        let mut flush_err = None;
                        let mut requeued = 0u64;
                        for &t in &tasks {
                            // Assignments are disjoint; the board check
                            // additionally refuses any task that somehow
                            // already flushed.
                            if board_ref.is_some_and(|b| b.is_done(t)) {
                                continue;
                            }
                            let (m, n) = (t / nshells, t % nshells);
                            let owner = part.owner_of_task(m, n);
                            if let Entry::Vacant(slot) = bufs.entry(owner) {
                                let mut b = LocalBuffers::for_process(prob, part, owner);
                                if b.try_fetch_d(prob, ga_d, rank).is_err() {
                                    continue; // stays lost; caught below
                                }
                                slot.insert((b, Vec::new()));
                            }
                            let (buf, ex) = bufs.get_mut(&owner).expect("buffer just inserted");
                            w.task_start(m, n);
                            let t0 = Instant::now();
                            let mut sink = LocalSink { buf, dims };
                            let c = do_task(&mut sink, prob, &mut eng, &mut batcher, dn, m, n);
                            comp += t0.elapsed().as_secs_f64();
                            w.task_end(m, n, c.computed);
                            quartets += c.computed;
                            density_skipped += c.skipped_density;
                            ex.push(t as u32);
                        }
                        for (_, (buf, ex)) in bufs {
                            match buf.try_flush_f(prob, ga_f, rank) {
                                Ok(()) => {
                                    for t in ex {
                                        if let Some(board) = board_ref {
                                            board.mark(t as usize);
                                        }
                                        requeued += 1;
                                    }
                                }
                                Err(e) => {
                                    flush_err = Some(e);
                                    break;
                                }
                            }
                        }
                        rec.counter(QUARTETS_COUNTER).add(quartets);
                        rec.counter(DENSITY_SKIPPED_COUNTER).add(density_skipped);
                        record_class_stats(rec, &batcher.take_stats());
                        RecovOut {
                            rank,
                            requeued,
                            quartets,
                            density_skipped,
                            t_comp: comp,
                            t_wall: start.elapsed().as_secs_f64(),
                            flush_err,
                        }
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("recovery thread panicked"))
                    .collect()
            });

            if let Some(e) = recov.iter().find_map(|r| r.flush_err) {
                return Err(BuildError::Comm(e));
            }
            for r in recov {
                report.tasks_requeued[r.rank] = r.requeued;
                report.t_fock[r.rank] += r.t_wall;
                report.t_comp[r.rank] += r.t_comp;
                report.quartets[r.rank] += r.quartets;
                report.density_skipped[r.rank] += r.density_skipped;
            }
            let lost = board.missing().len() as u64;
            if lost > 0 {
                return Err(BuildError::Incomplete {
                    tasks_lost: lost,
                    tasks_requeued: missing.len() as u64 - lost,
                });
            }
        }
    }

    let t_last = outs.iter().map(|o| o.end_t).fold(0.0, f64::max);
    for o in outs {
        report.t_fock[o.rank] += o.t_fock;
        report.t_comp[o.rank] += o.t_comp;
        report.quartets[o.rank] += o.quartets;
        report.density_skipped[o.rank] += o.density_skipped;
        report.steals[o.rank] = o.steals;
        report.victims[o.rank] = o.victims;
        let mut c = ga_d.stats(o.rank);
        c.merge(&ga_f.stats(o.rank));
        report.comm[o.rank] = c;
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
    Ok((ga_f.to_dense(), report))
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
            steal,
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
                    steal: true,
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
                    steal: true,
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
                steal: true,
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
