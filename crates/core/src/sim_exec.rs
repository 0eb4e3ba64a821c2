//! Discrete-event cluster-scale execution of both Fock-build algorithms.
//!
//! The paper's scaling experiments run on up to 3888 cores; this host has
//! one. The simulator executes the *exact same task structures* — GTFock's
//! statically partitioned `(M,:|N,:)` tasks with work stealing, and
//! NWChem's centralized queue of 5-atom-quartet tasks — against the
//! calibrated per-quartet ERI cost model and the α–β communication model
//! of [`MachineParams`]. Outputs are the paper's observables: per-process
//! T_fock / T_comp / T_ov (Tables III–IV, Figure 2), communication volume
//! and call counts (Tables VI–VII), and the load-balance ratio
//! (Table VIII).
//!
//! Each simulated process, of either family, is the per-process executor
//! of the crate-private `lane` module that the threaded builder runs, over
//! a virtual clock: GTFock's `Lane`, with [`crate::sched`] deciding what
//! runs next, and NWChem's `AtomLane`, claiming from the one
//! [`crate::nwchem::atom_tasks`] stream. This module supplies their
//! backends: cost table, comm model, the serialized central queue and
//! simulated time.
//!
//! Approximations (documented in DESIGN.md): steal victims are located
//! with the scheduler's global view of queue states (no probe messages
//! are charged); NWChem per-atom-quartet compute cost uses exact screened
//! quartet *counts* but an atom-type-averaged cost per quartet, and one
//! call per atom-pair block and direction (the real GA splits a block at
//! block-row owners).

use crate::lane::{recovery_shares, AtomBackend, AtomLane, AtomPair, Backend, Ctx, Lane, Traffic};
use crate::nwchem::{atom_tasks, AtomMap, AtomTask};
use crate::partition::StaticPartition;
use crate::sched::Scheduler;
pub use crate::sched::{StealConfig, VictimPolicy};
use crate::tasks::{symmetry_check, FockProblem};
use distrt::{FaultPlan, GaError, MachineParams, ProcessGrid, Sim};
use eri::{CostModel, DensityNorms};
use obs::{fault_code, EventKind, Recorder};
use rayon::prelude::*;
use std::cell::{Cell, RefCell};

/// Per-virtual-process outcome of a simulated build.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessOutcome {
    /// Wall-clock completion of this process's Fock work (seconds).
    pub t_fock: f64,
    /// Pure computation time (quartets / node threads).
    pub t_comp: f64,
    /// Communication time (prefetch + per-task transfers + flush + steals).
    pub t_comm: f64,
    /// Time spent waiting on / accessing the task queue (NWChem) .
    pub t_queue: f64,
    /// One-sided bytes moved by this process.
    pub bytes: u64,
    /// One-sided calls issued by this process.
    pub calls: u64,
    /// Successful steal operations (GTFock).
    pub steals: u64,
    /// Regions other than its own this process copied: the distinct
    /// owners of the tasks it stole (the model's `s`).
    pub victims: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Tasks lost with a dead rank that this process re-ran in the
    /// post-join recovery (GTFock fault injection).
    pub requeued: u64,
}

/// Result of one simulated build.
#[derive(Debug, Clone)]
pub struct SimResult {
    pub ncores: usize,
    pub nprocs: usize,
    pub per_process: Vec<ProcessOutcome>,
}

impl SimResult {
    pub fn t_fock_max(&self) -> f64 {
        self.per_process
            .iter()
            .map(|p| p.t_fock)
            .fold(0.0, f64::max)
    }

    pub fn t_fock_avg(&self) -> f64 {
        self.per_process.iter().map(|p| p.t_fock).sum::<f64>() / self.nprocs as f64
    }

    pub fn t_comp_avg(&self) -> f64 {
        self.per_process.iter().map(|p| p.t_comp).sum::<f64>() / self.nprocs as f64
    }

    /// Average parallel overhead T_ov = T_fock − T_comp (Figure 2).
    pub fn t_ov_avg(&self) -> f64 {
        (self.t_fock_avg() - self.t_comp_avg()).max(0.0)
    }

    /// Load balance ratio l = T_fock,max / T_fock,avg (Table VIII).
    pub fn load_balance(&self) -> f64 {
        let avg = self.t_fock_avg();
        if avg == 0.0 {
            1.0
        } else {
            self.t_fock_max() / avg
        }
    }

    /// Average MB per process (Table VI).
    pub fn avg_mbytes(&self) -> f64 {
        self.per_process.iter().map(|p| p.bytes).sum::<u64>() as f64 / self.nprocs as f64 / 1.0e6
    }

    /// Average one-sided calls per process (Table VII).
    pub fn avg_calls(&self) -> f64 {
        self.per_process.iter().map(|p| p.calls).sum::<u64>() as f64 / self.nprocs as f64
    }

    /// Average steal victims (the model's `s`).
    pub fn avg_victims(&self) -> f64 {
        self.per_process.iter().map(|p| p.victims).sum::<u64>() as f64 / self.nprocs as f64
    }

    /// Total tasks re-executed after a rank death (0 in fault-free runs).
    pub fn tasks_requeued(&self) -> u64 {
        self.per_process.iter().map(|p| p.requeued).sum()
    }
}

// ---------------------------------------------------------------------------
// GTFock simulation
// ---------------------------------------------------------------------------

/// Cost of one Schwarz screening test inside the task loops (a lookup,
/// a multiply, a compare — Algorithm 3 runs |Φ(M)|·|Φ(N)| of these per
/// task whether or not any quartet survives, so no task is free).
const T_SCREEN: f64 = 1.5e-9;

/// Precomputed task costs and region geometry for simulating GTFock on any
/// core count. Building this is the expensive step (it aggregates the cost
/// of every significant quartet); `simulate` is then cheap per sweep point.
pub struct GtfockSimModel<'a> {
    prob: &'a FockProblem,
    /// Cost (seconds of one core) of task (m, n), row-major n_shells².
    task_cost: Vec<f32>,
    /// Quartets per task.
    task_quartets: Vec<u32>,
    /// Per-shell basis-function counts.
    funcs: Vec<u32>,
}

impl<'a> GtfockSimModel<'a> {
    pub fn new(prob: &'a FockProblem, cost: &CostModel) -> Self {
        Self::with_density(prob, cost, None)
    }

    /// [`Self::new`] with density-weighted task costs: quartet counts and
    /// per-task costs apply the same weighted test as the builders, so the
    /// §III-G model and the DES see the reduced incremental-build work.
    #[allow(clippy::needless_range_loop)] // type-bucket indices are used symbolically
    pub fn with_density(
        prob: &'a FockProblem,
        cost: &CostModel,
        dn: Option<&DensityNorms>,
    ) -> Self {
        let n = prob.nshells();
        let ntypes = cost.ntypes();
        // Φsym(m) bucketed by shell type, q descending.
        let mut by_type: Vec<Vec<Vec<(f64, u32)>>> = vec![vec![Vec::new(); ntypes]; n];
        for m in 0..n {
            for &p in prob.phi(m) {
                let p = p as usize;
                if symmetry_check(m, p) {
                    let t = cost.type_of_shell[p] as usize;
                    by_type[m][t].push((prob.screening.pair(m, p), p as u32));
                }
            }
            for list in &mut by_type[m] {
                list.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            }
        }
        let tau = prob.tau;
        // With no density every weight is 1 and the weighted tests below
        // reduce to plain Schwarz.
        let wcap = dn.map_or(1.0, |d| d.weight_cap());
        let type_of = &cost.type_of_shell;

        let rows: Vec<(Vec<f32>, Vec<u32>)> = (0..n)
            .into_par_iter()
            .map(|m| {
                let tm = type_of[m];
                let mut costs = vec![0.0f32; n];
                let mut quartets = vec![0u32; n];
                for nn in 0..n {
                    if m != nn && !symmetry_check(m, nn) {
                        continue;
                    }
                    let tn = type_of[nn];
                    if m == nn {
                        // Diagonal tasks need the pairwise tie-break; do it
                        // directly over Φsym(m)².
                        let mut c = 0.0f64;
                        let mut qn = 0u32;
                        for tp in 0..ntypes {
                            for &(qp, p) in &by_type[m][tp] {
                                for tq in 0..ntypes {
                                    let cq = cost.cost_by_types(tm, tp as u16, tn, tq as u16);
                                    for &(qq, q) in &by_type[m][tq] {
                                        if qp * qq * wcap <= tau {
                                            break; // sorted descending
                                        }
                                        let (p, q) = (p as usize, q as usize);
                                        if (p == q || symmetry_check(p, q))
                                            && dn.is_none_or(|d| {
                                                qp * qq * d.quartet_weight(m, p, nn, q) > tau
                                            })
                                        {
                                            c += cq;
                                            qn += 1;
                                        }
                                    }
                                }
                            }
                        }
                        costs[nn] = c as f32;
                        quartets[nn] = qn;
                    } else {
                        let mut c = 0.0f64;
                        let mut qn = 0u64;
                        for (tp, a) in by_type[m].iter().enumerate() {
                            for (tq, b) in by_type[nn].iter().enumerate() {
                                let cnt = surviving_pairs(a, b, tau, false, dn, |p, q| {
                                    [m, p as usize, nn, q as usize]
                                });
                                c += cost.cost_by_types(tm, tp as u16, tn, tq as u16) * cnt as f64;
                                qn += cnt;
                            }
                        }
                        costs[nn] = c as f32;
                        quartets[nn] = qn as u32;
                    }
                }
                (costs, quartets)
            })
            .collect();

        let mut task_cost = Vec::with_capacity(n * n);
        let mut task_quartets = Vec::with_capacity(n * n);
        for (c, q) in rows {
            task_cost.extend(c);
            task_quartets.extend(q);
        }
        // Screening-loop overhead: every task pays |Φ(M)|·|Φ(N)| tests.
        for m in 0..n {
            let pm = prob.phi(m).len() as f64;
            for nn in 0..n {
                let tests = pm * prob.phi(nn).len() as f64;
                task_cost[m * n + nn] += (tests * T_SCREEN) as f32;
            }
        }
        let funcs = prob
            .basis
            .shells
            .iter()
            .map(|s| s.nfuncs() as u32)
            .collect();
        GtfockSimModel {
            prob,
            task_cost,
            task_quartets,
            funcs,
        }
    }

    /// Total single-core compute seconds over all tasks.
    pub fn total_cost(&self) -> f64 {
        self.task_cost.iter().map(|&c| c as f64).sum()
    }

    /// Total quartets over all tasks (equals the unique significant
    /// quartet count of the screening data).
    pub fn total_quartets(&self) -> u64 {
        self.task_quartets.iter().map(|&q| q as u64).sum()
    }

    /// Communication geometry of `rank`'s region: bytes and calls for one
    /// direction (D prefetch; F flush is the same again).
    fn region_comm(&self, part: &StaticPartition, rank: usize) -> Traffic {
        let (rows, cols) = part.task_block(rank);
        let n = self.prob.nshells();
        let mut bytes = 0u64;
        let mut calls = 0u64;
        let mut mark_r = vec![false; n];
        let mut mark_c = vec![false; n];
        for m in rows {
            let phi = self.prob.phi(m);
            let f: u64 = phi.iter().map(|&p| self.funcs[p as usize] as u64).sum();
            bytes += self.funcs[m] as u64 * f * 8;
            calls += runs(phi);
            for &p in phi {
                mark_r[p as usize] = true;
            }
        }
        for nn in cols {
            let phi = self.prob.phi(nn);
            let f: u64 = phi.iter().map(|&q| self.funcs[q as usize] as u64).sum();
            bytes += self.funcs[nn] as u64 * f * 8;
            calls += runs(phi);
            for &q in phi {
                mark_c[q as usize] = true;
            }
        }
        let (fr, rr) = mask_stats(&mark_r, &self.funcs);
        let (fc, rc) = mask_stats(&mark_c, &self.funcs);
        bytes += fr * fc * 8;
        calls += rr * rc;
        Traffic { bytes, calls }
    }

    /// Run the discrete-event simulation for `ncores` total cores with the
    /// given work-stealing configuration (`true` is the paper's scheduler,
    /// `false` static partitioning only). GTFock runs one process per node
    /// (`machine.cores_per_node` threads).
    pub fn simulate(
        &self,
        machine: MachineParams,
        ncores: usize,
        steal: impl Into<StealConfig>,
    ) -> SimResult {
        self.simulate_faulty(machine, ncores, steal.into(), None, &Recorder::disabled())
    }

    /// [`Self::simulate`] with telemetry and an optional fault plan. Each
    /// process is the lane the threaded builder runs, over a virtual
    /// clock: the loop pops the earliest rank, lets its lane take one
    /// scheduler answer and reschedules it at the lane's clock. With an
    /// enabled recorder every process gets a per-rank event stream (task
    /// start/end, steal attempt/success with victim rank, D-prefetch,
    /// F-flush) stamped with *simulated* time via
    /// [`Recorder::side_event_at`]. Faults follow the threaded builder's
    /// semantics:
    ///
    /// * A rank dies after `after_tasks` tasks without flushing. After the
    ///   last survivor finishes (the join), the unflushed tasks are dealt
    ///   over the survivors, each of which copies the regions of its
    ///   tasks' owners, runs its share and flushes those regions.
    /// * A straggler's task *wall* time stretches by the slowdown factor;
    ///   `t_comp` stays unscaled (the cycles were always there — the
    ///   slowdown is interference).
    /// * Dropped one-sided ops charge `retries × machine.op_timeout` of
    ///   extra communication time at each comm point, driven by the same
    ///   deterministic per-(rank, op) coin as the real GA layer.
    pub fn simulate_faulty(
        &self,
        machine: MachineParams,
        ncores: usize,
        steal: StealConfig,
        fault: Option<&FaultPlan>,
        rec: &Recorder,
    ) -> SimResult {
        let fault = fault.filter(|p| p.is_active());
        let nodes = (ncores / machine.cores_per_node).max(1);
        let grid = ProcessGrid::squarest(nodes);
        let nprocs = grid.nprocs();
        let part = StaticPartition::new(grid, self.prob.nshells());
        let sched = Scheduler::new(&part, steal, fault);
        let ctx = Ctx::new(part, fault, rec);
        let region: Vec<Traffic> = (0..nprocs).map(|r| self.region_comm(&part, r)).collect();
        let rank0 = Virtual {
            model: self,
            ctx: &ctx,
            machine,
            threads: machine.cores_per_node.min(ncores),
            region: &region,
            rank: 0,
            clock: 0.0,
            ops: 0,
            out: ProcessOutcome::default(),
        };

        let mut lanes: Vec<_> = (0..nprocs)
            .map(|rank| Lane::new(&ctx, rank, Virtual { rank, ..rank0 }).start())
            .collect();
        let mut sim: Sim<usize> = Sim::new();
        for lane in &lanes {
            sim.schedule(lane.backend.clock, lane.backend.rank);
        }
        let mut events = 0u64;
        while let Some((now, rank)) = sim.pop() {
            events += 1;
            if events > 10_000_000 {
                panic!("DES runaway: {} events, rank {}, now {}", events, rank, now);
            }
            if lanes[rank].step(&sched) {
                sim.schedule(lanes[rank].backend.clock, rank);
            }
        }
        let (mut ranks, mut live) = (Vec::with_capacity(nprocs), Vec::new());
        for (rank, end) in lanes.into_iter().map(Lane::finish).enumerate() {
            if !end.died {
                live.push(rank);
            }
            ranks.push(end.backend);
            ranks[rank].out.victims = end.victims;
        }

        // Recovery after the join, dealt exactly as the threaded builder
        // deals it.
        let join = ranks.iter().map(|b| b.clock).fold(0.0, f64::max);
        for (rank, tasks) in recovery_shares(&ctx, &live) {
            ranks[rank].clock = join;
            let end = Lane::new(&ctx, rank, ranks[rank]).recover(&tasks);
            ranks[rank] = end.backend;
            ranks[rank].out.requeued += end.flushed.expect("a simulated flush cannot fail");
        }

        SimResult {
            ncores,
            nprocs,
            per_process: ranks
                .iter()
                .map(|b| ProcessOutcome {
                    t_fock: b.clock,
                    ..b.out
                })
                .collect(),
        }
    }
}

/// The simulator's [`Backend`]: a region is its (bytes, calls) geometry,
/// a task costs its cost-table entry, transfers cost
/// [`MachineParams::comm_time`] plus dropped-op retries, and the clock is
/// this rank's simulated time.
#[derive(Clone, Copy)]
struct Virtual<'a> {
    model: &'a GtfockSimModel<'a>,
    ctx: &'a Ctx<'a>,
    machine: MachineParams,
    /// Cores per process: a task's cost divides over them.
    threads: usize,
    /// Each rank's region geometry, one direction.
    region: &'a [Traffic],
    rank: usize,
    /// Simulated seconds.
    clock: f64,
    /// One-sided ops issued so far: the drop coin's index.
    ops: u64,
    out: ProcessOutcome,
}

impl Virtual<'_> {
    /// Advance the clock over one comm point moving `traffic`; `None` is
    /// a steal's queue update only.
    fn comm(&mut self, traffic: Option<Traffic>) {
        let base = match traffic {
            Some(t) => {
                self.out.bytes += t.bytes;
                self.out.calls += t.calls;
                self.machine.comm_time(t.calls, t.bytes)
            }
            None => self.machine.latency,
        };
        let t = base + self.drop_surcharge();
        self.out.t_comm += t;
        self.clock += t;
    }

    /// Extra communication time a comm point pays for fault-injected lost
    /// one-sided ops: each dropped attempt costs one `op_timeout` before
    /// the retry fires. Advances the rank's deterministic op counter — the
    /// same coin the real GA layer flips — and records the drops.
    fn drop_surcharge(&mut self) -> f64 {
        let Some(p) = self.ctx.fault else { return 0.0 };
        let r = p.retries_for(self.rank, self.ops);
        self.ops += r as u64 + 1;
        if r == 0 {
            return 0.0;
        }
        let rec = self.ctx.rec;
        rec.counter(obs::names::FAULT_INJECTED).add(r as u64);
        rec.counter(obs::names::GA_RETRIES).add(r as u64);
        let (code, detail) = (fault_code::OP_DROP, r);
        self.event(EventKind::Fault { code, detail });
        r as f64 * self.machine.op_timeout
    }
}

impl Backend for Virtual<'_> {
    type Region = Traffic;

    fn event(&mut self, kind: EventKind) {
        self.ctx.rec.side_event_at(self.rank, self.clock, kind);
    }

    fn fetch(&mut self, owner: usize) -> Option<(Traffic, Traffic)> {
        let geometry = self.region[owner];
        self.comm(Some(geometry));
        Some((geometry, geometry))
    }

    fn run(&mut self, task: u32, _: &mut Traffic, slowdown: f64) -> u64 {
        let task = task as usize;
        let cost = self.model.task_cost[task] as f64 / self.threads as f64;
        self.out.t_comp += cost;
        self.out.tasks += 1;
        self.clock += cost * slowdown;
        self.model.task_quartets[task] as u64
    }

    fn flush(&mut self, geometry: Traffic) -> Result<Traffic, GaError> {
        self.comm(Some(geometry));
        Ok(geometry)
    }

    fn steal(&mut self) {
        self.out.steals += 1;
        self.comm(None);
    }
}

/// Surviving pairs (x, y) ∈ a × b of two Schwarz lists sorted by q
/// descending: q_x·q_y·w > τ, with w the density weight of the quartet
/// `quartet(x, y)` names (1 without a density). Without a density this is
/// a two-pointer count; with one, an exact count that breaks early at the
/// capped weight. `same`: a and b are one list whose (x, y) and (y, x) are
/// one quartet, so only positions x ≤ y count.
fn surviving_pairs<T: Copy>(
    a: &[(f64, T)],
    b: &[(f64, T)],
    tau: f64,
    same: bool,
    dn: Option<&DensityNorms>,
    quartet: impl Fn(T, T) -> [usize; 4],
) -> u64 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let Some(d) = dn else {
        // As q_x decreases, the admissible prefix of b shrinks
        // monotonically.
        let (mut k, mut cnt, mut diag) = (b.len(), 0u64, 0u64);
        for &(qa, _) in a {
            while k > 0 && qa * b[k - 1].0 <= tau {
                k -= 1;
            }
            if k == 0 {
                break;
            }
            cnt += k as u64;
            diag += u64::from(qa * qa > tau);
        }
        // Ordered pairs of one list are 2·off-diagonal + diagonal.
        return if same { (cnt + diag) / 2 } else { cnt };
    };
    let wcap = d.weight_cap();
    let mut cnt = 0u64;
    for (ia, &(qa, x)) in a.iter().enumerate() {
        if qa * b[0].0 * wcap <= tau {
            break;
        }
        for &(qb, y) in &b[if same { ia } else { 0 }..] {
            if qa * qb * wcap <= tau {
                break;
            }
            let [m, n, p, q] = quartet(x, y);
            if qa * qb * d.quartet_weight(m, n, p, q) > tau {
                cnt += 1;
            }
        }
    }
    cnt
}

/// Contiguous runs in a sorted index list — the number of rectangular GA
/// calls needed to fetch those rows/cols after the spatial reordering.
fn runs(sorted: &[u32]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let mut r = 1;
    for w in sorted.windows(2) {
        if w[1] != w[0] + 1 {
            r += 1;
        }
    }
    r
}

/// Total functions and runs of a shell mask.
fn mask_stats(mask: &[bool], funcs: &[u32]) -> (u64, u64) {
    let mut f = 0u64;
    let mut r = 0u64;
    let mut prev = false;
    for (i, &m) in mask.iter().enumerate() {
        if m {
            f += funcs[i] as u64;
            if !prev {
                r += 1;
            }
        }
        prev = m;
    }
    (f, r)
}

// ---------------------------------------------------------------------------
// NWChem simulation
// ---------------------------------------------------------------------------

/// Precomputed per-atom-pair data for the NWChem simulation.
pub struct NwchemSimModel<'a> {
    prob: &'a FockProblem,
    atoms: AtomMap,
    /// Per atom pair (i*nat+j, canonical pairs only populated for i>=j …
    /// but stored for all (i,j)): (Schwarz value, [shell m, shell n])
    /// sorted by value descending. Shell ids feed the density-weighted
    /// test.
    pair_q: Vec<Vec<(f64, [u32; 2])>>,
    /// Average quartet cost c̄(apt1, apt2) between atom-type pairs
    /// (indexed by atom-pair type id), seconds.
    avg_cost: Vec<f64>,
    /// Atom-pair type id per atom pair.
    pair_type: Vec<usize>,
    /// Effective-density block norms for weighted quartet counting (None →
    /// plain Schwarz).
    dn: Option<DensityNorms>,
}

impl<'a> NwchemSimModel<'a> {
    pub fn new(prob: &'a FockProblem, cost: &CostModel) -> Self {
        Self::with_density(prob, cost, None)
    }

    /// [`Self::new`] with density-weighted quartet counts, matching the
    /// weighted test the threaded NWChem builder applies per quartet.
    pub fn with_density(
        prob: &'a FockProblem,
        cost: &CostModel,
        dn: Option<&DensityNorms>,
    ) -> Self {
        let atoms = AtomMap::new(prob);
        let nat = atoms.natoms;
        // Atom type = multiset of shell types (C vs H etc.); identify by
        // the type ids of the atom's shells, numbered in first-seen order.
        let mut atom_types: Vec<Vec<u16>> = Vec::new();
        let atom_type: Vec<usize> = (0..nat)
            .map(|a| {
                let mut sig: Vec<u16> = atoms.shells[a]
                    .clone()
                    .map(|s| cost.type_of_shell[s])
                    .collect();
                sig.sort_unstable();
                atom_types
                    .iter()
                    .position(|t| *t == sig)
                    .unwrap_or_else(|| {
                        atom_types.push(sig);
                        atom_types.len() - 1
                    })
            })
            .collect();
        let ntypes_at = atom_types.len();
        // Atom-pair type = (type(i), type(j)) collapsed.
        let pair_type: Vec<usize> = (0..nat * nat)
            .map(|k| {
                let (i, j) = (k / nat, k % nat);
                atom_type[i] * ntypes_at + atom_type[j]
            })
            .collect();
        let nptypes = ntypes_at * ntypes_at;

        // Shell-pair q lists per atom pair (canonical shell pairs within).
        let mut pair_q: Vec<Vec<(f64, [u32; 2])>> = vec![Vec::new(); nat * nat];
        let thresh = prob.tau / prob.screening.max_q;
        for i in 0..nat {
            for j in 0..nat {
                let mut v = Vec::new();
                for m in atoms.shells[i].clone() {
                    for nsh in atoms.shells[j].clone() {
                        if i == j && nsh > m {
                            continue; // canonical within same atom
                        }
                        let q = prob.screening.pair(m, nsh);
                        if q >= thresh {
                            v.push((q, [m as u32, nsh as u32]));
                        }
                    }
                }
                v.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
                pair_q[i * nat + j] = v;
            }
        }

        // Average quartet cost between two atom-pair types: mean of
        // c(tm,tn,tp,tq) over the shell-type products of representative
        // atom pairs.
        let mut avg_cost = vec![0.0f64; nptypes * nptypes];
        let mut rep_of_ptype: Vec<Option<(usize, usize)>> = vec![None; nptypes];
        for (k, &pt) in pair_type.iter().enumerate() {
            rep_of_ptype[pt].get_or_insert((k / nat, k % nat));
        }
        for (pt1, r1) in rep_of_ptype.iter().enumerate() {
            let Some((i1, j1)) = r1 else { continue };
            for (pt2, r2) in rep_of_ptype.iter().enumerate() {
                let Some((i2, j2)) = r2 else { continue };
                let mut total = 0.0;
                let mut count = 0u64;
                for m in atoms.shells[*i1].clone() {
                    for nsh in atoms.shells[*j1].clone() {
                        for p in atoms.shells[*i2].clone() {
                            for q in atoms.shells[*j2].clone() {
                                total += cost.cost_by_types(
                                    cost.type_of_shell[m],
                                    cost.type_of_shell[nsh],
                                    cost.type_of_shell[p],
                                    cost.type_of_shell[q],
                                );
                                count += 1;
                            }
                        }
                    }
                }
                avg_cost[pt1 * nptypes + pt2] = total / count as f64;
            }
        }

        NwchemSimModel {
            prob,
            atoms,
            pair_q,
            avg_cost,
            pair_type,
            dn: dn.cloned(),
        }
    }

    /// Cost + screened quartet count of one atom quartet (I,J,K,L). When
    /// (IJ) = (KL) the two pair lists are one, and (MN|PQ) and (PQ|MN)
    /// are one quartet: only pairs at list positions a ≤ b count.
    #[inline]
    fn quartet_cost(&self, i: usize, j: usize, k: usize, l: usize) -> (f64, u64) {
        let nat = self.atoms.natoms;
        let (a, b) = (&self.pair_q[i * nat + j], &self.pair_q[k * nat + l]);
        let same = (i, j) == (k, l);
        let cnt = surviving_pairs(a, b, self.prob.tau, same, self.dn.as_ref(), |x, y| {
            [x[0], x[1], y[0], y[1]].map(|s| s as usize)
        });
        let nptypes = (self.avg_cost.len() as f64).sqrt() as usize;
        let c = self.avg_cost[self.pair_type[i * nat + j] * nptypes + self.pair_type[k * nat + l]];
        (c * cnt as f64, cnt)
    }

    /// Run the discrete-event simulation: one process per core, block-row
    /// distribution, centralized dynamic scheduler.
    ///
    /// Because the baseline runs `cores_per_node` single-threaded MPI
    /// processes per node (the paper's NWChem configuration), the node's
    /// interconnect bandwidth is shared among them; GTFock's one
    /// multithreaded process per node gets the full NIC.
    pub fn simulate(&self, machine: MachineParams, ncores: usize, chunk: usize) -> SimResult {
        self.simulate_rec(machine, ncores, chunk, &Recorder::disabled())
    }

    /// [`Self::simulate`] with telemetry: queue accesses, task start/end,
    /// and per-atom-quartet block traffic recorded per simulated process
    /// with simulated timestamps. Each process is the NWChem executor the
    /// threaded baseline runs, over a virtual clock: the loop pops the
    /// earliest process, lets it claim and run one task and reschedules it
    /// at its clock.
    pub fn simulate_rec(
        &self,
        machine: MachineParams,
        ncores: usize,
        chunk: usize,
        rec: &Recorder,
    ) -> SimResult {
        let nprocs = ncores.max(1);
        let central = Central::new(self, machine, chunk, rec);
        let mut lanes: Vec<_> = (0..nprocs)
            .map(|rank| {
                let process = VirtualProcess::new(&central, rank);
                AtomLane::new(&self.atoms, self.prob.tau, process)
            })
            .collect();
        let mut sim: Sim<usize> = Sim::new();
        for rank in 0..nprocs {
            sim.schedule(0.0, rank);
        }
        while let Some((_, rank)) = sim.pop() {
            if lanes[rank].step() {
                sim.schedule(lanes[rank].backend.clock(), rank);
            }
        }
        let per_process = lanes
            .iter()
            .map(|l| ProcessOutcome {
                t_fock: l.backend.clock(),
                ..l.backend.out
            })
            .collect();
        SimResult {
            ncores,
            nprocs,
            per_process,
        }
    }

    /// Algorithm 2's task list, from the one generator the threaded
    /// baseline also claims from.
    fn tasks(&self, chunk: usize) -> impl Iterator<Item = AtomTask> + '_ {
        atom_tasks(&self.atoms, self.prob.tau, self.prob.screening.max_q, chunk)
    }

    /// Tasks in a run; queue accesses are this plus one empty poll per
    /// process — the Section IV-C scheduler-overhead comparison.
    pub fn total_tasks(&self, chunk: usize) -> u64 {
        self.tasks(chunk).count() as u64
    }

    /// Total single-core compute seconds over all atom quartets.
    pub fn total_cost(&self, chunk: usize) -> f64 {
        let mut total = 0.0;
        for (i, j, k, l_lo, l_hi) in self.tasks(chunk) {
            for l in l_lo..=l_hi {
                if self.atoms.pair_value(i, j) * self.atoms.pair_value(k, l) > self.prob.tau {
                    total += self.quartet_cost(i, j, k, l).0;
                }
            }
        }
        total
    }
}

/// What every simulated NWChem process shares: the model, the machine
/// (with the node's NIC shared by its processes) and the central queue —
/// the one task stream, served one access at a time.
struct Central<'a> {
    model: &'a NwchemSimModel<'a>,
    machine: MachineParams,
    rec: &'a Recorder,
    tasks: RefCell<Box<dyn Iterator<Item = AtomTask> + 'a>>,
    /// When the queue finishes its current access.
    free_at: Cell<f64>,
}

impl<'a> Central<'a> {
    fn new(
        model: &'a NwchemSimModel<'a>,
        machine: MachineParams,
        chunk: usize,
        rec: &'a Recorder,
    ) -> Self {
        let bandwidth = machine.bandwidth / machine.cores_per_node.max(1) as f64;
        Central {
            model,
            machine: MachineParams {
                bandwidth,
                ..machine
            },
            rec,
            tasks: RefCell::new(Box::new(model.tasks(chunk))),
            free_at: Cell::new(0.0),
        }
    }
}

/// The NWChem simulator's [`AtomBackend`]: the serialized central queue,
/// the model's quartet counts and costs, one call per atom-pair block
/// priced by [`MachineParams::comm_time`], and this process's simulated
/// clock.
struct VirtualProcess<'c, 'a> {
    central: &'c Central<'a>,
    rank: usize,
    /// The clock is `since + elapsed`: `since` is when the current task's
    /// queue access began, `elapsed` the simulated seconds since then.
    since: f64,
    elapsed: f64,
    /// The atom quartet in flight: its compute cost and its gets.
    cost: f64,
    got: Traffic,
    out: ProcessOutcome,
}

impl<'c, 'a> VirtualProcess<'c, 'a> {
    fn new(central: &'c Central<'a>, rank: usize) -> Self {
        VirtualProcess {
            central,
            rank,
            since: 0.0,
            elapsed: 0.0,
            cost: 0.0,
            got: Traffic::default(),
            out: ProcessOutcome::default(),
        }
    }

    fn clock(&self) -> f64 {
        self.since + self.elapsed
    }
}

impl AtomBackend for VirtualProcess<'_, '_> {
    fn event(&mut self, kind: EventKind) {
        let t = self.clock();
        self.central.rec.side_event_at(self.rank, t, kind);
    }

    /// One access to the central queue, after any access in progress.
    fn claim(&mut self) -> Option<AtomTask> {
        let (c, now) = (self.central, self.clock());
        let begin = c.free_at.get().max(now);
        let service = c.machine.atomic_op + c.machine.latency;
        c.free_at.set(begin + service);
        let queue_t = (begin - now) + service;
        self.out.t_queue += queue_t;
        (self.since, self.elapsed) = (now, queue_t);
        let task = c.tasks.borrow_mut().next();
        self.out.tasks += u64::from(task.is_some());
        task
    }

    fn screen(&mut self, [i, j, k, l]: [usize; 4]) -> u64 {
        let (cost, quartets) = self.central.model.quartet_cost(i, j, k, l);
        self.cost = cost;
        quartets
    }

    fn fetch(&mut self, pairs: &[AtomPair]) {
        let bfs = &self.central.model.atoms.bfs;
        let bytes = pairs
            .iter()
            .map(|&(a, b)| (bfs[a].len() * bfs[b].len() * 8) as u64)
            .sum();
        self.got = Traffic {
            bytes,
            calls: pairs.len() as u64,
        };
        self.out.bytes += bytes;
        self.out.calls += self.got.calls;
        self.event(EventKind::CommGet { bytes });
    }

    fn compute(&mut self) {
        self.out.t_comp += self.cost;
    }

    /// The accs mirror the gets. The clock moves once per atom quartet, by
    /// its compute cost plus the comm time of its gets and accs together.
    fn flush(&mut self) {
        let Traffic { bytes, calls } = self.got;
        self.out.bytes += bytes;
        self.out.calls += calls;
        let comm_t = self.central.machine.comm_time(2 * calls, 2 * bytes);
        self.out.t_comm += comm_t;
        self.elapsed += self.cost + comm_t;
        self.event(EventKind::CommAcc { bytes });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::generators;
    use chem::reorder::ShellOrdering;
    use chem::shells::BasisInstance;
    use chem::BasisSetKind;

    fn setup() -> (FockProblem, CostModel) {
        let prob = FockProblem::new(
            generators::graphene_flake(1), // benzene
            BasisSetKind::Sto3g,
            1e-10,
            ShellOrdering::cells_default(),
        )
        .unwrap();
        let basis = BasisInstance::new(generators::graphene_flake(1), BasisSetKind::Sto3g).unwrap();
        let cost = CostModel::calibrate(&basis, 1);
        (prob, cost)
    }

    #[test]
    fn gtfock_model_quartets_match_screening() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        assert_eq!(
            model.total_quartets(),
            prob.screening.unique_significant_quartets()
        );
        assert!(model.total_cost() > 0.0);
    }

    #[test]
    fn gtfock_sim_conserves_work() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        for &cores in &[12usize, 48, 192] {
            let r = model.simulate(machine, cores, true);
            let total_tasks: u64 = r.per_process.iter().map(|p| p.tasks).sum();
            assert_eq!(
                total_tasks as usize,
                prob.nshells() * prob.nshells(),
                "cores={cores}"
            );
            // All compute time accounted: sum of t_comp * threads == total.
            let threads = machine.cores_per_node.min(cores) as f64;
            let comp: f64 = r.per_process.iter().map(|p| p.t_comp).sum::<f64>() * threads;
            assert!((comp - model.total_cost()).abs() < 1e-6 * model.total_cost().max(1e-12));
        }
    }

    #[test]
    fn gtfock_sim_scales_down_time() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let t12 = model.simulate(machine, 12, true).t_fock_max();
        let t48 = model.simulate(machine, 48, true).t_fock_max();
        assert!(t48 < t12, "no speedup: {t48} !< {t12}");
    }

    #[test]
    fn stealing_improves_balance() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let with = model.simulate(machine, 108, true);
        let without = model.simulate(machine, 108, false);
        assert!(
            with.load_balance() <= without.load_balance() + 1e-9,
            "stealing worsened balance: {} vs {}",
            with.load_balance(),
            without.load_balance()
        );
    }

    #[test]
    fn steal_policies_all_complete_all_work() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let total = prob.nshells() * prob.nshells();
        for policy in [
            VictimPolicy::RowScan,
            VictimPolicy::Random { seed: 7 },
            VictimPolicy::MaxQueue,
        ] {
            for fraction in [0.25, 0.5, 1.0] {
                let r = model.simulate(
                    machine,
                    96,
                    StealConfig {
                        enabled: true,
                        policy,
                        fraction,
                    },
                );
                let tasks: u64 = r.per_process.iter().map(|p| p.tasks).sum();
                assert_eq!(tasks as usize, total, "{policy:?} f={fraction}");
                assert!(r.t_fock_max() > 0.0);
            }
        }
    }

    #[test]
    fn max_queue_policy_not_worse_than_rowscan() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let scan = model.simulate(machine, 192, StealConfig::paper());
        let maxq = model.simulate(
            machine,
            192,
            StealConfig {
                enabled: true,
                policy: VictimPolicy::MaxQueue,
                fraction: 0.5,
            },
        );
        // Omniscient victim choice should not lose by much.
        assert!(maxq.t_fock_max() <= scan.t_fock_max() * 1.2);
    }

    #[test]
    fn des_rank_death_requeues_and_completes() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let plan = FaultPlan::new(5).kill(1, 3);
        let run = || {
            model.simulate_faulty(
                machine,
                48,
                StealConfig::paper(),
                Some(&plan),
                &Recorder::disabled(),
            )
        };
        let r = run();
        let total = (prob.nshells() * prob.nshells()) as u64;
        let tasks: u64 = r.per_process.iter().map(|p| p.tasks).sum();
        assert!(r.tasks_requeued() > 0);
        // Every task completes; the dead rank's 3 executed-but-lost tasks
        // are the only ones that run twice.
        assert_eq!(tasks, total + 3);
        assert_eq!(r.per_process[1].requeued, 0, "dead rank adopts nothing");
        // Determinism: the same plan yields the same requeue count.
        assert_eq!(run().tasks_requeued(), r.tasks_requeued());
    }

    #[test]
    fn des_straggler_stretches_wall_clock_not_compute() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let base = model.simulate(machine, 48, StealConfig::paper());
        let plan = FaultPlan::new(1).straggle(0, 2.0);
        let slow = model.simulate_faulty(
            machine,
            48,
            StealConfig::paper(),
            Some(&plan),
            &Recorder::disabled(),
        );
        assert!(
            slow.t_fock_max() > base.t_fock_max(),
            "{} !> {}",
            slow.t_fock_max(),
            base.t_fock_max()
        );
        // The cycles were always there: total compute is conserved.
        let c0: f64 = base.per_process.iter().map(|p| p.t_comp).sum();
        let c1: f64 = slow.per_process.iter().map(|p| p.t_comp).sum();
        assert!((c0 - c1).abs() < 1e-9 * c0.max(1e-12));
        assert_eq!(slow.tasks_requeued(), 0);
    }

    #[test]
    fn des_dropped_ops_add_comm_time() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let base = model.simulate(machine, 48, StealConfig::paper());
        let plan = FaultPlan::new(9).drop_ops(0.2);
        let faulty = model.simulate_faulty(
            machine,
            48,
            StealConfig::paper(),
            Some(&plan),
            &Recorder::disabled(),
        );
        let t0: f64 = base.per_process.iter().map(|p| p.t_comm).sum();
        let t1: f64 = faulty.per_process.iter().map(|p| p.t_comm).sum();
        assert!(t1 > t0, "retries added no comm time: {t1} !> {t0}");
        // Drops delay but never lose work.
        let tasks: u64 = faulty.per_process.iter().map(|p| p.tasks).sum();
        assert_eq!(tasks as usize, prob.nshells() * prob.nshells());
        assert_eq!(faulty.tasks_requeued(), 0);
    }

    #[test]
    fn nwchem_sim_runs_and_scales() {
        let (prob, cost) = setup();
        let model = NwchemSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let r12 = model.simulate(machine, 12, 5);
        let r48 = model.simulate(machine, 48, 5);
        assert!(r12.t_fock_max() > 0.0);
        assert!(r48.t_fock_max() < r12.t_fock_max());
        let tasks: u64 = r12.per_process.iter().map(|p| p.tasks).sum();
        assert_eq!(tasks, model.total_tasks(5));
    }

    #[test]
    fn nwchem_comm_exceeds_gtfock_comm() {
        // The paper's Tables VI/VII: per-quartet block traffic of the
        // baseline far exceeds GTFock's bulk prefetch at equal core count.
        let (prob, cost) = setup();
        let gt = GtfockSimModel::new(&prob, &cost);
        let nw = NwchemSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let g = gt.simulate(machine, 48, true);
        let w = nw.simulate(machine, 48, 5);
        assert!(
            w.avg_calls() > g.avg_calls(),
            "nwchem calls {} !> gtfock {}",
            w.avg_calls(),
            g.avg_calls()
        );
    }

    #[test]
    fn gtfock_sim_recording_matches_outcomes() {
        let (prob, cost) = setup();
        let model = GtfockSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let rec = Recorder::enabled();
        let r = model.simulate_faulty(machine, 48, StealConfig::paper(), None, &rec);
        let recording = rec.recording().unwrap();
        assert_eq!(recording.nworkers(), r.nprocs);
        let totals = recording.worker_totals();
        for (p, t) in r.per_process.iter().zip(&totals) {
            assert_eq!(t.tasks, p.tasks, "rank {}", t.rank);
            assert_eq!(t.steals, p.steals, "rank {}", t.rank);
        }
        let q: u64 = totals.iter().map(|t| t.quartets).sum();
        assert_eq!(q, model.total_quartets());
        assert!(totals.iter().any(|t| t.steals > 0), "no steal to check");
        // Owner-region rule: a rank fetches its own region once, plus the
        // region of every other owner whose task it ran; those owners are
        // its victims.
        let part = StaticPartition::new(ProcessGrid::squarest(r.nprocs), prob.nshells());
        for (rank, p) in r.per_process.iter().enumerate() {
            let mut owners = std::collections::BTreeSet::new();
            let mut prefetches = 0;
            for e in recording.events(rank) {
                match e.kind {
                    EventKind::TaskEnd { m, n, .. } => {
                        owners.insert(part.owner_of_task(m as usize, n as usize));
                    }
                    EventKind::DPrefetch { .. } => prefetches += 1,
                    _ => {}
                }
            }
            owners.remove(&rank);
            assert_eq!(prefetches, 1 + owners.len(), "rank {rank}");
            assert_eq!(p.victims, owners.len() as u64, "rank {rank}");
        }
        // Simulated timestamps are monotone per worker and end at t_fock.
        for (rank, p) in r.per_process.iter().enumerate() {
            let ev = recording.events(rank);
            assert!(ev.windows(2).all(|w| w[0].t <= w[1].t));
            let last = ev.last().unwrap();
            assert!((last.t - p.t_fock).abs() < 1e-9);
        }
    }

    #[test]
    fn nwchem_sim_recording_counts_queue_accesses() {
        let (prob, cost) = setup();
        let model = NwchemSimModel::new(&prob, &cost);
        let machine = MachineParams::lonestar();
        let rec = Recorder::enabled();
        let r = model.simulate_rec(machine, 12, 5, &rec);
        let recording = rec.recording().unwrap();
        let totals = recording.worker_totals();
        let tasks: u64 = totals.iter().map(|t| t.tasks).sum();
        assert_eq!(tasks, model.total_tasks(5));
        // One queue access per task plus the final empty poll per process.
        let accesses: u64 = totals.iter().map(|t| t.queue_accesses).sum();
        assert_eq!(accesses, tasks + r.nprocs as u64);
    }

    fn weak_density(nbf: usize, scale: f64) -> Vec<f64> {
        let mut d = vec![0.0; nbf * nbf];
        for i in 0..nbf {
            for j in 0..nbf {
                d[i * nbf + j] = scale / (1.0 + (i as f64 - j as f64).powi(2));
            }
        }
        d
    }

    #[test]
    fn weighted_gtfock_model_matches_task_counts() {
        let (prob, cost) = setup();
        let d = weak_density(prob.nbf(), 0.05);
        let dn = DensityNorms::compute(&prob.basis, &d);
        let model = GtfockSimModel::with_density(&prob, &cost, Some(&dn));
        let n = prob.nshells();
        let want: u64 = (0..n)
            .flat_map(|m| (0..n).map(move |nn| (m, nn)))
            .map(|(m, nn)| prob.task_quartet_count_weighted(&dn, m, nn))
            .sum();
        assert_eq!(model.total_quartets(), want);
        let plain = GtfockSimModel::new(&prob, &cost);
        assert!(model.total_quartets() <= plain.total_quartets());
    }

    #[test]
    fn weighted_models_shrink_with_the_density() {
        // A near-converged ΔD (tiny entries) must strictly reduce the
        // modeled work in both simulators.
        let (prob, cost) = setup();
        let d = weak_density(prob.nbf(), 1e-6);
        let dn = DensityNorms::compute(&prob.basis, &d);
        let gt_w = GtfockSimModel::with_density(&prob, &cost, Some(&dn));
        let gt = GtfockSimModel::new(&prob, &cost);
        assert!(gt_w.total_quartets() < gt.total_quartets());
        assert!(gt_w.total_cost() < gt.total_cost());
        let nw_w = NwchemSimModel::with_density(&prob, &cost, Some(&dn));
        let nw = NwchemSimModel::new(&prob, &cost);
        assert!(nw_w.total_cost(5) < nw.total_cost(5));
    }
}
