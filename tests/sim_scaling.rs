//! Integration tests of the cluster-scale simulation: the qualitative
//! claims of the paper's evaluation must hold on small workloads —
//! strong scaling, GTFock's communication advantage, near-perfect load
//! balance, and the alkane-vs-flake screening contrast. The equality
//! harness at the end checks that the threaded builders and the DES make
//! the same scheduling decisions.

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::shells::BasisInstance;
use fock_repro::chem::{generators, BasisSetKind};
use fock_repro::core::sim_exec::{GtfockSimModel, NwchemSimModel, StealConfig};
use fock_repro::core::tasks::FockProblem;
use fock_repro::core::{
    build_fock_nwchem, try_build_fock_gtfock_rec, NwchemConfig, SchedulerOpts, StaticPartition,
};
use fock_repro::distrt::{FaultPlan, MachineParams, ProcessGrid};
use fock_repro::eri::{CostModel, DensityNorms};
use fock_repro::obs::{EventKind, Recorder, Recording};
use std::collections::BTreeSet;
use std::sync::Arc;

fn workload(mol: fock_repro::chem::Molecule) -> (FockProblem, CostModel) {
    workload_at(mol, 1e-10)
}

fn workload_at(mol: fock_repro::chem::Molecule, tau: f64) -> (FockProblem, CostModel) {
    let basis = BasisInstance::new(mol.clone(), BasisSetKind::Sto3g).unwrap();
    let cost = CostModel::calibrate(&basis, 1);
    let prob = FockProblem::new(
        mol,
        BasisSetKind::Sto3g,
        tau,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    (prob, cost)
}

#[test]
fn strong_scaling_monotone_for_both_algorithms() {
    let (prob, cost) = workload(generators::graphene_flake(2));
    let machine = MachineParams::lonestar();
    let gt = GtfockSimModel::new(&prob, &cost);
    let nw = NwchemSimModel::new(&prob, &cost);
    let mut prev_gt = f64::INFINITY;
    let mut prev_nw = f64::INFINITY;
    for cores in [12usize, 48, 192, 768] {
        let g = gt.simulate(machine, cores, true).t_fock_max();
        let n = nw.simulate(machine, cores, 5).t_fock_max();
        assert!(
            g < prev_gt,
            "GTFock no speedup at {cores}: {g} !< {prev_gt}"
        );
        assert!(
            n < prev_nw * 1.05,
            "NWChem regressed at {cores}: {n} vs {prev_nw}"
        );
        prev_gt = g;
        prev_nw = n;
    }
}

#[test]
fn gtfock_overhead_lower_at_scale() {
    // Figure 2's headline: GTFock's parallel overhead is well below the
    // baseline's at large core counts.
    let (prob, cost) = workload(generators::linear_alkane(10));
    let machine = MachineParams::lonestar();
    let gt = GtfockSimModel::new(&prob, &cost);
    let nw = NwchemSimModel::new(&prob, &cost);
    let g = gt.simulate(machine, 768, true);
    let n = nw.simulate(machine, 768, 5);
    assert!(
        g.t_ov_avg() < n.t_ov_avg(),
        "GTFock overhead {} !< baseline {}",
        g.t_ov_avg(),
        n.t_ov_avg()
    );
}

#[test]
fn gtfock_fewer_calls_and_bytes() {
    let (prob, cost) = workload(generators::graphene_flake(2));
    let machine = MachineParams::lonestar();
    let g = GtfockSimModel::new(&prob, &cost).simulate(machine, 192, true);
    let n = NwchemSimModel::new(&prob, &cost).simulate(machine, 192, 5);
    assert!(
        g.avg_calls() < n.avg_calls(),
        "calls {} !< {}",
        g.avg_calls(),
        n.avg_calls()
    );
}

#[test]
fn load_balance_near_one_with_stealing() {
    let (prob, cost) = workload(generators::linear_alkane(12));
    let machine = MachineParams::lonestar();
    let model = GtfockSimModel::new(&prob, &cost);
    for cores in [48usize, 192] {
        let l = model.simulate(machine, cores, true).load_balance();
        assert!(l < 1.3, "poor balance at {cores} cores: l = {l}");
    }
}

#[test]
fn alkane_screens_far_more_than_flake() {
    // Table II's structural contrast, via the simulation models' quartet
    // totals per shell⁴ volume.
    let (flake, fc) = workload(generators::graphene_flake(2));
    let (chain, cc) = workload(generators::linear_alkane(14));
    let qf =
        GtfockSimModel::new(&flake, &fc).total_quartets() as f64 / (flake.nshells() as f64).powi(4);
    let qc =
        GtfockSimModel::new(&chain, &cc).total_quartets() as f64 / (chain.nshells() as f64).powi(4);
    assert!(qc < qf, "chain fraction {qc} !< flake fraction {qf}");
}

#[test]
fn work_conserved_across_core_counts() {
    let (prob, cost) = workload(generators::graphene_flake(1));
    let machine = MachineParams::lonestar();
    let model = GtfockSimModel::new(&prob, &cost);
    let totals: Vec<f64> = [12usize, 96, 384]
        .iter()
        .map(|&c| {
            let r = model.simulate(machine, c, true);
            let threads = machine.cores_per_node.min(c) as f64;
            r.per_process.iter().map(|p| p.t_comp).sum::<f64>() * threads
        })
        .collect();
    for w in totals.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-9 * w[0].max(1e-12),
            "work not conserved: {totals:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Threads-vs-DES equality harness (scheduling half). Both executors run
// `fock_core::sched`; a DES machine with one core per node gets the same
// `ProcessGrid::squarest(p)` grid as the threaded builder, so the
// scheduling observables must agree exactly. GTFock GA call and byte
// counts are not compared: the DES charges contiguous-run calls per region,
// threads issue one get per shell block. NWChem's are: both executors move
// one D get and one F acc per distinct atom-pair block of each atom
// quartet with a surviving shell quartet.
// ---------------------------------------------------------------------------

struct Case {
    prob: FockProblem,
    cost: CostModel,
    d: Vec<f64>,
    dn: DensityNorms,
}

fn case(mol: fock_repro::chem::Molecule, tau: f64) -> Case {
    let (prob, cost) = workload_at(mol, tau);
    let nbf = prob.nbf();
    let d: Vec<f64> = (0..nbf * nbf)
        .map(|k| 0.3 / (1.0 + (k / nbf).abs_diff(k % nbf) as f64))
        .collect();
    let dn = DensityNorms::compute(&prob.basis, &d);
    Case { prob, cost, d, dn }
}

fn benzene() -> Case {
    case(generators::graphene_flake(1), 1e-10)
}

/// Butane at a loose τ: screening empties many NWChem L-chunks and
/// GTFock tasks, and a build costs a quarter of a benzene build in debug.
fn alkane() -> Case {
    case(generators::linear_alkane(4), 1e-3)
}

/// One core per node: `p` cores are `p` single-threaded DES ranks.
fn one_core_nodes() -> MachineParams {
    MachineParams {
        cores_per_node: 1,
        ..MachineParams::lonestar()
    }
}

/// Per-rank (tasks, quartets) from a recording's TaskEnd events.
fn per_rank(recording: &Recording, p: usize) -> Vec<(u64, u64)> {
    let totals = recording.worker_totals();
    (0..p)
        .map(|r| totals.get(r).map_or((0, 0), |t| (t.tasks, t.quartets)))
        .collect()
}

/// Owner-region rule, alike on both executors: rank r fetches its own D
/// region once plus the region of every other owner among the (m, n) of
/// its TaskEnd events, and those owners are its victims.
fn assert_owner_regions(recording: &Recording, prob: &FockProblem, victims: &[u64]) {
    let p = victims.len();
    let part = StaticPartition::new(ProcessGrid::squarest(p), prob.nshells());
    for (rank, &v) in victims.iter().enumerate() {
        let mut owners = BTreeSet::new();
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
        assert_eq!(prefetches, 1 + owners.len(), "p={p} rank {rank}");
        assert_eq!(v, owners.len() as u64, "p={p} rank {rank}");
    }
}

/// Threaded GTFock build: report plus the TaskEnd-derived recording.
fn threaded(c: &Case, opts: SchedulerOpts) -> (fock_repro::core::BuildReport, Recording) {
    let rec = Recorder::enabled();
    let (_, rep) = try_build_fock_gtfock_rec(&c.prob, &c.d, opts.gtfock(), &rec).expect("build");
    (rep, rec.recording().expect("enabled"))
}

/// The DES model of a case, with the same density-weighted task costs.
fn des_model(c: &Case) -> GtfockSimModel<'_> {
    GtfockSimModel::with_density(&c.prob, &c.cost, Some(&c.dn))
}

fn des(
    model: &GtfockSimModel,
    p: usize,
    steal: StealConfig,
    fault: Option<&FaultPlan>,
) -> (fock_repro::core::sim_exec::SimResult, Recording) {
    let rec = Recorder::enabled();
    let r = model.simulate_faulty(one_core_nodes(), p, steal, fault, &rec);
    assert_eq!(r.nprocs, p);
    (r, rec.recording().expect("enabled"))
}

#[test]
fn threads_and_des_agree_per_rank_without_stealing() {
    let c = alkane();
    let model = des_model(&c);
    for p in [1usize, 4, 6, 9, 16] {
        let (_, t) = threaded(&c, SchedulerOpts::with_nprocs(p).steal(false));
        let (_, s) = des(&model, p, StealConfig::disabled(), None);
        assert_eq!(per_rank(&t, p), per_rank(&s, p), "p={p}");
    }
}

#[test]
fn threads_and_des_agree_on_totals_with_stealing() {
    for (c, ps) in [(benzene(), vec![9]), (alkane(), vec![4, 9])] {
        let model = des_model(&c);
        let n = c.prob.nshells();
        for p in ps {
            let (rep, t) = threaded(&c, SchedulerOpts::with_nprocs(p));
            let mut ends = vec![0u32; n * n];
            for rank in 0..p {
                for e in t.events(rank) {
                    if let EventKind::TaskEnd { m, n: nn, .. } = e.kind {
                        ends[m as usize * n + nn as usize] += 1;
                    }
                }
            }
            assert!(
                ends.iter().all(|&k| k == 1),
                "p={p}: a task ended twice or never"
            );
            assert_owner_regions(&t, &c.prob, &rep.victims);
            let (r, s) = des(&model, p, StealConfig::paper(), None);
            let des_q: u64 = per_rank(&s, p).iter().map(|&(_, q)| q).sum();
            assert_eq!(rep.total_quartets(), des_q, "p={p}");
            let des_victims: Vec<u64> = r.per_process.iter().map(|o| o.victims).collect();
            assert_owner_regions(&s, &c.prob, &des_victims);
        }
    }
}

#[test]
fn threads_and_des_requeue_identically_per_rank() {
    // Rank 1's 11×11 block does not divide over the 3 survivors, so the
    // order the lost ids are dealt in shows.
    let c = alkane();
    let plan = FaultPlan::new(5).kill(1, 3);
    let (rep, _) = threaded(
        &c,
        SchedulerOpts::with_nprocs(4).fault(Arc::new(plan.clone())),
    );
    let (r, _) = des(&des_model(&c), 4, StealConfig::paper(), Some(&plan));
    let des_requeued: Vec<u64> = r.per_process.iter().map(|o| o.requeued).collect();
    assert!(rep.total_requeued() > 0);
    assert_eq!(rep.tasks_requeued, des_requeued);
}

#[test]
fn threaded_nwchem_claims_the_des_task_stream() {
    let c = alkane();
    let model = NwchemSimModel::with_density(&c.prob, &c.cost, Some(&c.dn));
    let quartets = des_model(&c).total_quartets();
    for p in [1usize, 2, 4, 8] {
        let (_, rep) = build_fock_nwchem(
            &c.prob,
            &c.d,
            NwchemConfig {
                nprocs: p,
                chunk: 5,
            },
        );
        assert_eq!(rep.queue_accesses, model.total_tasks(5) + p as u64, "p={p}");
        assert_eq!(rep.total_quartets(), quartets, "p={p}");
        let rec = Recorder::enabled();
        let r = model.simulate_rec(one_core_nodes(), p, 5, &rec);
        let des_q: u64 = per_rank(&rec.recording().expect("enabled"), p)
            .iter()
            .map(|&(_, q)| q)
            .sum();
        assert_eq!(rep.total_quartets(), des_q, "p={p}");
        // The threads move the bytes the DES charges. Calls agree at p = 1
        // only: above that the GA splits a block at block-row owners.
        let bytes: u64 = rep.comm.iter().map(|c| c.total_bytes()).sum();
        let des_bytes: u64 = r.per_process.iter().map(|o| o.bytes).sum();
        assert_eq!(bytes, des_bytes, "p={p}");
        if p == 1 {
            let des_calls: u64 = r.per_process.iter().map(|o| o.calls).sum();
            assert_eq!(rep.comm[0].total_calls(), des_calls);
        }
        // Every D block a process gets, it accumulates into F once.
        for (rank, c) in rep.comm.iter().enumerate() {
            assert_eq!(c.get_calls, c.acc_calls, "p={p} rank {rank}");
            assert_eq!(c.get_bytes, c.acc_bytes, "p={p} rank {rank}");
        }
    }
}
