//! The per-process executors of both build families, each written once for
//! real threads and the discrete-event simulator.
//!
//! GTFock: a [`Lane`] reacts to each [`Scheduler`] answer: it runs a task
//! in the D region of the task's *owner* (the rank whose static block holds
//! it), fetched on the first task that needs it; a steal pays one queue
//! update; a death stops the lane unflushed. At its end a lane flushes every
//! region once and marks the flushed tasks on the [`CompletionBoard`];
//! after the join, [`recovery_shares`] deals the unflushed tasks to fresh
//! lanes. A [`Backend`] supplies the rest: the clock, fetch/run/flush, a
//! steal's cost and event stamping — GA, kernel and real time in
//! [`crate::gtfock`], cost table, comm model and a virtual clock in
//! [`crate::sim_exec`].
//!
//! NWChem: an [`AtomLane`] is one process of Algorithm 2. It claims tasks
//! from the central queue until the empty poll and walks each task's
//! L-chunk; an atom quartet that passes the atom-level Schwarz test is
//! screened, and only if a shell quartet survives does the process get the
//! D blocks of its distinct atom pairs ([`atom_pairs`]), compute, and
//! accumulate each F block once. An [`AtomBackend`] supplies the queue,
//! screening, transfers and clock — `nxtval`, the kernel and the GA in
//! [`crate::nwchem`], the serialized queue, cost table and comm model in
//! [`crate::sim_exec`] — so both clocks move the same blocks.

use crate::nwchem::{AtomMap, AtomTask};
use crate::partition::StaticPartition;
use crate::sched::{recovery_assignment, Next, Scheduler};
use crate::tasks::CompletionBoard;
use distrt::{FaultPlan, GaError};
use obs::{fault_code, EventKind, Recorder};

/// Bytes and one-sided calls of one region transfer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Traffic {
    pub bytes: u64,
    pub calls: u64,
}

/// What differs between the threaded and the simulated executor.
pub(crate) trait Backend {
    /// A fetched D region with its F accumulator.
    type Region;
    /// Record `kind` on this rank's stream, stamped with the backend's
    /// clock.
    fn event(&mut self, kind: EventKind);
    /// Fetch `owner`'s D region. `None` when a get failed past its retry
    /// budget.
    fn fetch(&mut self, owner: usize) -> Option<(Self::Region, Traffic)>;
    /// Run task `t` = m·nshells + n into `region`; a straggler's wall time
    /// stretches by `slowdown`. Returns the quartets computed.
    fn run(&mut self, t: u32, region: &mut Self::Region, slowdown: f64) -> u64;
    /// Accumulate `region`'s F into the global F. On `Err` an unknown
    /// prefix already landed: F is torn.
    fn flush(&mut self, region: Self::Region) -> Result<Traffic, GaError>;
    /// Charge a steal's queue update.
    fn steal(&mut self);
}

/// What every lane of one build shares.
pub(crate) struct Ctx<'a> {
    pub part: StaticPartition,
    /// Exactly-once ledger, kept only when a fault plan can lose tasks.
    pub board: Option<CompletionBoard>,
    pub fault: Option<&'a FaultPlan>,
    pub rec: &'a Recorder,
}

impl<'a> Ctx<'a> {
    pub fn new(part: StaticPartition, fault: Option<&'a FaultPlan>, rec: &'a Recorder) -> Self {
        Ctx {
            part,
            board: fault.map(|_| CompletionBoard::new(part.ntasks())),
            fault,
            rec,
        }
    }
}

/// A D region the lane holds, with the ids of the tasks run into it.
struct Held<R> {
    owner: usize,
    region: R,
    ran: Vec<u32>,
}

/// One rank's executor state for one phase (the first pass, or one
/// recovery share).
pub(crate) struct Lane<'a, B: Backend> {
    ctx: &'a Ctx<'a>,
    rank: usize,
    pub backend: B,
    slowdown: f64,
    /// Regions in fetch order.
    held: Vec<Held<B::Region>>,
    died: bool,
}

/// A lane once its phase ended.
pub(crate) struct LaneEnd<B> {
    pub backend: B,
    pub died: bool,
    /// Regions other than its own it held (the model's `s`).
    pub victims: u64,
    /// Tasks whose contribution this lane flushed, or the acc that failed
    /// past its retry budget mid-flush (F is torn).
    pub flushed: Result<u64, GaError>,
}

impl<'a, B: Backend> Lane<'a, B> {
    pub fn new(ctx: &'a Ctx<'a>, rank: usize, backend: B) -> Self {
        Lane {
            ctx,
            rank,
            backend,
            slowdown: ctx.fault.map_or(1.0, |p| p.slowdown(rank)),
            held: Vec::new(),
            died: false,
        }
    }

    /// Open the first pass: stream start, the straggler fault, and the
    /// prefetch of the rank's own region (a failed one is retried by the
    /// first own task).
    pub fn start(mut self) -> Self {
        self.backend.event(EventKind::WorkerStart);
        if self.slowdown > 1.0 {
            self.injected(fault_code::STRAGGLER, (self.slowdown * 1000.0) as u32);
        }
        self.region(self.rank);
        self
    }

    /// React to the scheduler's next answer. False once the lane stops:
    /// idle, dead, or a D region it could not fetch (recovery re-runs
    /// that task).
    pub fn step(&mut self, sched: &Scheduler) -> bool {
        let task = match sched.next(self.rank) {
            Next::Task(t) => t,
            Next::Stolen {
                victim,
                task,
                moved,
            } => {
                let (victim, tasks) = (victim as u32, moved as u32);
                self.backend.event(EventKind::StealAttempt { victim });
                self.backend
                    .event(EventKind::StealSuccess { victim, tasks });
                self.backend.steal();
                task
            }
            Next::Died => {
                // The rank vanishes without flushing, losing its F updates
                // and its fenced queue until recovery.
                self.died = true;
                self.injected(fault_code::RANK_DEATH, sched.executed(self.rank) as u32);
                return false;
            }
            Next::Idle => return false,
        };
        self.run(task)
    }

    /// Run one recovery share, skipping any task the board already holds,
    /// and end the phase.
    pub fn recover(mut self, tasks: &[usize]) -> LaneEnd<B> {
        let board = self.ctx.board.as_ref().expect("recovery needs the board");
        let detail = tasks.len() as u32;
        let code = fault_code::TASK_REQUEUE;
        self.backend.event(EventKind::Fault { code, detail });
        for &t in tasks {
            if !board.is_done(t) {
                self.run(t as u32);
            }
        }
        self.finish()
    }

    /// End the phase: flush every held region (skipped for a dead rank,
    /// whose updates are lost) and mark the flushed tasks on the board.
    pub fn finish(mut self) -> LaneEnd<B> {
        let victims = self.held.iter().filter(|h| h.owner != self.rank).count() as u64;
        let flushed = if self.died { Ok(0) } else { self.flush() };
        self.backend.event(EventKind::WorkerEnd);
        LaneEnd {
            backend: self.backend,
            died: self.died,
            victims,
            flushed,
        }
    }

    /// Compute task `t` in its owner's region. False when that region
    /// could not be fetched (the task stays unflushed).
    fn run(&mut self, t: u32) -> bool {
        let nshells = self.ctx.part.nshells as u32;
        let (m, n) = (t / nshells, t % nshells);
        let owner = self.ctx.part.owner_of_task(m as usize, n as usize);
        let Some(i) = self.region(owner) else {
            return false;
        };
        self.backend.event(EventKind::TaskStart { m, n });
        let held = &mut self.held[i];
        let quartets = self.backend.run(t, &mut held.region, self.slowdown);
        held.ran.push(t);
        let quartets = quartets as u32;
        self.backend.event(EventKind::TaskEnd { m, n, quartets });
        true
    }

    /// An injected fault: counted, and recorded on the stream.
    fn injected(&mut self, code: u32, detail: u32) {
        self.ctx.rec.counter(obs::names::FAULT_INJECTED).add(1);
        self.backend.event(EventKind::Fault { code, detail });
    }

    /// Index of `owner`'s region, fetched now unless already held.
    fn region(&mut self, owner: usize) -> Option<usize> {
        if let Some(i) = self.held.iter().position(|h| h.owner == owner) {
            return Some(i);
        }
        let (region, Traffic { bytes, calls }) = self.backend.fetch(owner)?;
        self.backend.event(EventKind::DPrefetch { bytes, calls });
        let ran = Vec::new();
        self.held.push(Held { owner, region, ran });
        Some(self.held.len() - 1)
    }

    /// Flush every held region; returns the number of tasks flushed.
    fn flush(&mut self) -> Result<u64, GaError> {
        let (mut bytes, mut calls, mut flushed) = (0, 0, 0);
        for h in std::mem::take(&mut self.held) {
            let t = self.backend.flush(h.region)?;
            bytes += t.bytes;
            calls += t.calls;
            // Flushed ⇒ these tasks' contributions are in F exactly once.
            if let Some(board) = &self.ctx.board {
                for &t in &h.ran {
                    board.mark(t as usize);
                }
            }
            flushed += h.ran.len() as u64;
        }
        self.backend.event(EventKind::FFlush { bytes, calls });
        Ok(flushed)
    }
}

/// After the join, deal the tasks no lane flushed over the `live` ranks
/// ([`recovery_assignment`]: both executors deal alike, so a fault plan
/// gives the same per-rank requeue counts on threads and in the
/// simulator). Empty without a board or without a live rank.
pub(crate) fn recovery_shares(ctx: &Ctx, live: &[usize]) -> Vec<(usize, Vec<usize>)> {
    let Some(board) = &ctx.board else {
        return Vec::new();
    };
    let shares = recovery_assignment(&board.missing(), live);
    let dealt: usize = shares.iter().map(|(_, tasks)| tasks.len()).sum();
    ctx.rec.counter(obs::names::TASK_REQUEUED).add(dealt as u64);
    shares
}

/// Run `f` on one scoped thread per item; results in item order.
pub(crate) fn on_threads<I: Send, T: Send>(items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
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

/// An unordered atom pair as (larger, smaller) atom index.
pub(crate) type AtomPair = (usize, usize);

/// The distinct atom pairs of atom quartet (IJ|KL) — the D blocks it reads
/// and the F blocks it updates — in first-seen order over (IJ), (KL), (IK),
/// (IL), (JK), (JL). Returns the list and its length (at most six).
pub(crate) fn atom_pairs([i, j, k, l]: [usize; 4]) -> ([AtomPair; 6], usize) {
    let mut pairs = [(0, 0); 6];
    let mut len = 0;
    for (a, b) in [(i, j), (k, l), (i, k), (i, l), (j, k), (j, l)] {
        let pair = (a.max(b), a.min(b));
        if !pairs[..len].contains(&pair) {
            pairs[len] = pair;
            len += 1;
        }
    }
    (pairs, len)
}

/// What differs between the threaded and the simulated NWChem process.
pub(crate) trait AtomBackend {
    /// Record `kind` on this process's stream, stamped with the backend's
    /// clock.
    fn event(&mut self, kind: EventKind);
    /// One access to the central queue: the task it hands this process, or
    /// `None` once the stream is exhausted.
    fn claim(&mut self) -> Option<AtomTask>;
    /// Screen the shell quartets of atom quartet `q`; returns how many
    /// survive (they are what [`Self::compute`] computes).
    fn screen(&mut self, q: [usize; 4]) -> u64;
    /// Get the D blocks of `pairs`.
    fn fetch(&mut self, pairs: &[AtomPair]);
    /// Compute the quartets the last screen kept into the fetched blocks.
    fn compute(&mut self);
    /// Accumulate the F block of each fetched pair into F, once.
    fn flush(&mut self);
}

/// One NWChem process: Algorithm 2's claim loop over an [`AtomBackend`].
pub(crate) struct AtomLane<'a, B> {
    atoms: &'a AtomMap,
    tau: f64,
    pub backend: B,
    /// Queue accesses, the final empty poll included.
    pub claims: u64,
}

impl<'a, B: AtomBackend> AtomLane<'a, B> {
    pub fn new(atoms: &'a AtomMap, tau: f64, mut backend: B) -> Self {
        backend.event(EventKind::WorkerStart);
        AtomLane {
            atoms,
            tau,
            backend,
            claims: 0,
        }
    }

    /// Claim until the queue runs dry.
    pub fn run(mut self) -> Self {
        while self.step() {}
        self
    }

    /// Claim one task and run its L-chunk. False after the empty poll,
    /// which ends the process.
    pub fn step(&mut self) -> bool {
        let task = self.backend.claim();
        self.claims += 1;
        self.backend.event(EventKind::QueueAccess);
        let Some((i, j, k, l_lo, l_hi)) = task else {
            self.backend.event(EventKind::WorkerEnd);
            return false;
        };
        let (m, n) = (i as u32, j as u32);
        self.backend.event(EventKind::TaskStart { m, n });
        let quartets = (l_lo..=l_hi)
            .map(|l| self.atom_quartet([i, j, k, l]))
            .sum::<u64>() as u32;
        self.backend.event(EventKind::TaskEnd { m, n, quartets });
        true
    }

    /// One atom quartet of Algorithm 2: the atom-level Schwarz test, then
    /// screen; only with a surviving quartet get D, compute and accumulate
    /// F. Returns the quartets computed.
    fn atom_quartet(&mut self, q: [usize; 4]) -> u64 {
        let [i, j, k, l] = q;
        if self.atoms.pair_value(i, j) * self.atoms.pair_value(k, l) <= self.tau {
            return 0;
        }
        let survivors = self.backend.screen(q);
        if survivors > 0 {
            let (pairs, len) = atom_pairs(q);
            self.backend.fetch(&pairs[..len]);
            self.backend.compute();
            self.backend.flush();
        }
        survivors
    }
}
