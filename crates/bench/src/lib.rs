//! Shared support for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation (Section IV).
//!
//! Every harness binary accepts:
//!
//! * `--full` — use the paper's exact molecules (C96H24, C150H30, C100H202,
//!   C144H290 with cc-pVDZ). Without it, proportionally scaled-down members
//!   of the same families are used so a run finishes in minutes on one
//!   core. The scaled molecules preserve the structural contrast (dense
//!   2-D flakes vs screened 1-D chains) that drives every observable.
//! * `--tau <v>` — screening tolerance (default 1e-10, the paper's value).

use chem::molecule::Molecule;
use chem::reorder::ShellOrdering;
use chem::shells::BasisInstance;
use chem::{generators, BasisSetKind};
use eri::CostModel;
use fock_core::sim_exec::{StealConfig, VictimPolicy};
use fock_core::tasks::FockProblem;
use obs::{json_escape, json_f64};

/// A prepared workload: problem + calibrated cost model.
pub struct Workload {
    pub name: String,
    pub prob: FockProblem,
    pub cost: CostModel,
}

/// The paper's four Fock-construction test molecules (Table II), or their
/// scaled-down counterparts.
pub fn test_molecules(full: bool) -> Vec<Molecule> {
    if full {
        vec![
            generators::graphene_flake(4),  // C96H24
            generators::graphene_flake(5),  // C150H30
            generators::linear_alkane(100), // C100H202
            generators::linear_alkane(144), // C144H290
        ]
    } else {
        vec![
            generators::graphene_flake(2), // C24H12
            generators::graphene_flake(3), // C54H18
            generators::linear_alkane(20), // C20H42
            generators::linear_alkane(30), // C30H62
        ]
    }
}

/// Prepare a workload: cell-reordered shells, screening at `tau`,
/// calibrated cost model.
pub fn prepare(molecule: Molecule, tau: f64) -> Workload {
    let name = molecule.formula();
    let basis = BasisInstance::new(molecule.clone(), BasisSetKind::CcPvdz)
        .unwrap_or_else(|e| panic!("basis setup for {name}: {e}"));
    let cost = CostModel::calibrate(&basis, 3);
    let prob = FockProblem::new(
        molecule,
        BasisSetKind::CcPvdz,
        tau,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    Workload { name, prob, cost }
}

/// Prepare all four test workloads.
pub fn prepare_all(full: bool, tau: f64) -> Vec<Workload> {
    test_molecules(full)
        .into_iter()
        .map(|m| {
            eprintln!("preparing {} …", m.formula());
            prepare(m, tau)
        })
        .collect()
}

/// The paper's core counts (Tables III–VIII). The centralized scheduler's
/// saturation point sits in the paper's top decade (p ≈ 3000–4000), so the
/// scaled default keeps the upper counts.
pub fn core_counts(_full: bool) -> Vec<usize> {
    vec![12, 48, 192, 768, 1728, 3888]
}

/// The static configurations of the `ablation_scheduler` sweep.
pub fn scheduler_sweep_configs() -> Vec<(String, StealConfig)> {
    let cfg = |policy, fraction| StealConfig {
        enabled: true,
        policy,
        fraction,
    };
    vec![
        ("disabled".to_string(), StealConfig::disabled()),
        ("row-scan (paper)".to_string(), StealConfig::paper()),
        (
            "row-scan f=0.25".to_string(),
            cfg(VictimPolicy::RowScan, 0.25),
        ),
        (
            "row-scan f=1.00".to_string(),
            cfg(VictimPolicy::RowScan, 1.0),
        ),
        (
            "random f=0.50".to_string(),
            cfg(VictimPolicy::Random { seed: 42 }, 0.5),
        ),
        (
            "max-queue f=0.50".to_string(),
            cfg(VictimPolicy::MaxQueue, 0.5),
        ),
    ]
}

/// The chunk sizes of the `ablation_granularity` sweep (atom quartets per
/// task).
pub fn granularity_sweep_chunks() -> Vec<usize> {
    vec![1, 2, 5, 20, 100]
}

/// One config → measurement row of a sweep, for machine-readable output.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Configuration label ("row-scan f=0.25", "chunk=5", …).
    pub config: String,
    /// Simulated build time, seconds.
    pub t_fock: f64,
    /// Load balance l = T_max / T_avg.
    pub load_balance: f64,
    /// Average communication volume per process, MB.
    pub mbytes_per_proc: f64,
}

/// Serialize a sweep as a JSON document:
/// `{"bench":…,"molecule":…,"cores":…,"rows":[{config,t_fock,…},…]}`.
pub fn sweep_json(bench: &str, molecule: &str, cores: usize, rows: &[SweepRow]) -> String {
    let mut out = format!(
        "{{\"bench\":\"{}\",\"molecule\":\"{}\",\"cores\":{},\"rows\":[",
        json_escape(bench),
        json_escape(molecule),
        cores
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"config\":\"{}\",\"t_fock\":{},\"load_balance\":{},\"mbytes_per_proc\":{}}}",
            json_escape(&r.config),
            json_f64(r.t_fock),
            json_f64(r.load_balance),
            json_f64(r.mbytes_per_proc)
        ));
    }
    out.push_str("]}");
    out
}

/// `--json <path>` option: where sweep bins write their machine-readable
/// rows. `None` when absent.
pub fn opt_json() -> Option<String> {
    opt_str("--json")
}

/// `--full` flag.
pub fn flag_full() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Generic boolean flag, e.g. `flag("--smoke")`.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Generic `--name <value>` string option; exits with an error when the
/// flag is present without a value.
pub fn opt_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(p) if !p.starts_with("--") => Some(p.clone()),
        _ => {
            eprintln!("error: {name} requires a value argument");
            std::process::exit(2);
        }
    }
}

/// `--trace <path>` option: where to write a version-1 `obs` JSON
/// timeline (per-process task/steal/comm events). `None` when absent;
/// exits with an error when the flag is given without a path.
pub fn opt_trace() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--trace")?;
    match args.get(i + 1) {
        Some(p) if !p.starts_with("--") => Some(p.clone()),
        _ => {
            eprintln!("error: --trace requires a path argument");
            std::process::exit(2);
        }
    }
}

/// `--tau <v>` option (default 1e-10, the paper's tolerance).
pub fn opt_tau() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--tau")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1e-10)
}

/// Standard header naming the reproduction context.
pub fn banner(what: &str, full: bool) {
    println!("== {what} ==");
    println!(
        "molecules: {} | basis: cc-pVDZ | τ = {:.0e} | machine model: Lonestar (Table I)",
        if full {
            "paper set (--full)"
        } else {
            "scaled-down set (pass --full for the paper's)"
        },
        opt_tau()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_molecules_preserve_families() {
        let ms = test_molecules(false);
        assert_eq!(ms.len(), 4);
        // Two flakes (planar) and two alkanes (chains).
        assert!(ms[0].formula().starts_with('C'));
        assert_eq!(ms[0].formula(), "C24H12");
        assert_eq!(ms[3].formula(), "C30H62");
    }

    #[test]
    fn full_molecules_match_table2() {
        let names: Vec<String> = test_molecules(true).iter().map(|m| m.formula()).collect();
        assert_eq!(names, ["C96H24", "C150H30", "C100H202", "C144H290"]);
    }

    #[test]
    fn sweep_definitions_and_json_shape() {
        let s = scheduler_sweep_configs();
        assert_eq!(s.len(), 6);
        assert!(!s[0].1.enabled);
        assert_eq!(granularity_sweep_chunks(), vec![1, 2, 5, 20, 100]);
        let rows = vec![SweepRow {
            config: "chunk=5".to_string(),
            t_fock: 1.25,
            load_balance: 1.0,
            mbytes_per_proc: 3.5,
        }];
        let j = sweep_json("ablation_granularity", "C20H42", 192, &rows);
        assert!(j.starts_with("{\"bench\":\"ablation_granularity\""));
        assert!(j.contains("\"cores\":192"));
        assert!(j.contains("\"config\":\"chunk=5\""));
        assert!(j.contains("\"t_fock\":1.25"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn prepare_small_workload() {
        let w = prepare(generators::graphene_flake(1), 1e-10);
        assert_eq!(w.name, "C6H6");
        assert!(w.prob.nshells() > 0);
        assert!(w.cost.t_int > 0.0);
    }
}
