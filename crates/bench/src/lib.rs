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
//!
//! Tables III/IV, VI/VII, VIII, Fig. 2 and the stealing ablation are views
//! of one experiment, [`PaperSweep`]: the four molecules × [`core_counts`],
//! GTFock vs the NWChem-style baseline, simulated once.

use chem::molecule::Molecule;
use chem::reorder::ShellOrdering;
use chem::shells::BasisInstance;
use chem::{generators, BasisSetKind};
use distrt::MachineParams;
use eri::CostModel;
use fock_core::sim_exec::{GtfockSimModel, NwchemSimModel, SimResult, StealConfig, VictimPolicy};
use fock_core::tasks::FockProblem;
use obs::{json_escape, json_f64, Recorder, Recording};

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

/// The paper's core counts (Tables III–VIII). The centralized scheduler's
/// saturation point sits in the paper's top decade (p ≈ 3000–4000), so the
/// scaled set keeps the upper counts.
pub fn core_counts() -> Vec<usize> {
    vec![12, 48, 192, 768, 1728, 3888]
}

/// One simulation of the paper-table sweep, per molecule and core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// GTFock with the paper's work stealing.
    Gtfock,
    /// GTFock on its static partition alone.
    GtfockStatic,
    /// The NWChem-style baseline.
    Nwchem,
}

/// Atom quartets per task of the NWChem-style baseline.
const NWCHEM_CHUNK: usize = 5;

/// Core count of the `--trace` timeline.
const TRACE_CORES: usize = 48;

/// One molecule of a [`PaperSweep`].
pub struct Series {
    pub name: String,
    /// Indexed by `Run as usize`: its result at each core count (empty
    /// when the run was not swept).
    results: [Vec<SimResult>; 3],
}

impl Series {
    /// The result of `run` at the `ci`-th core count.
    pub fn at(&self, run: Run, ci: usize) -> &SimResult {
        &self.results[run as usize][ci]
    }
}

/// The paper's experiment: each molecule prepared once, each family's DES
/// model built once per molecule, and every run simulated once per core
/// count.
pub struct PaperSweep {
    pub cores: Vec<usize>,
    pub series: Vec<Series>,
    runs: Vec<Run>,
    /// The traced run on the first molecule at [`TRACE_CORES`].
    trace: Option<Recording>,
    /// `--trace` path and the summary line's label of the traced run.
    trace_to: Option<(String, &'static str)>,
}

impl PaperSweep {
    /// Parse `--full`/`--tau`, print the banner, prepare the test molecules
    /// and simulate `runs`. With `trace` = (run, label) the bin accepts
    /// `--trace <path>`: that run's timeline, for [`Self::write_trace`].
    pub fn run(title: &str, runs: &[Run], trace: Option<(Run, &'static str)>) -> PaperSweep {
        let full = flag_full();
        let tau = opt_tau(1e-10);
        let trace_to = trace.and_then(|(run, label)| Some((run, opt_str("--trace")?, label)));
        banner(title, full, tau);
        let workloads: Vec<Workload> = test_molecules(full)
            .into_iter()
            .map(|m| {
                eprintln!("preparing {} …", m.formula());
                prepare(m, tau)
            })
            .collect();
        let traced = trace_to.as_ref().map(|t| t.0);
        let mut sweep = PaperSweep::over(&workloads, core_counts(), runs, traced);
        sweep.trace_to = trace_to.map(|(_, path, label)| (path, label));
        sweep
    }

    /// Simulate `runs` on `workloads` at every core count; with `trace`,
    /// also record that run on the first workload at [`TRACE_CORES`].
    fn over(
        workloads: &[Workload],
        cores: Vec<usize>,
        runs: &[Run],
        trace: Option<Run>,
    ) -> PaperSweep {
        const BUILT: &str = "a model is built for every swept or traced run";
        let machine = MachineParams::lonestar();
        let uses_nw = runs.iter().chain(&trace).any(|&r| r == Run::Nwchem);
        let uses_gt = runs.iter().chain(&trace).any(|&r| r != Run::Nwchem);
        let mut sweep = PaperSweep {
            cores,
            series: Vec::new(),
            runs: runs.to_vec(),
            trace: None,
            trace_to: None,
        };
        for w in workloads {
            eprintln!("simulating {} …", w.name);
            let gt = uses_gt.then(|| GtfockSimModel::new(&w.prob, &w.cost));
            let nw = uses_nw.then(|| NwchemSimModel::new(&w.prob, &w.cost));
            let (gt, nw) = (gt.as_ref(), nw.as_ref());
            let sim = |run: Run, c: usize, rec: &Recorder| match run {
                Run::Nwchem => nw.expect(BUILT).simulate_rec(machine, c, NWCHEM_CHUNK, rec),
                _ => {
                    let steal = StealConfig::from(run == Run::Gtfock);
                    gt.expect(BUILT)
                        .simulate_faulty(machine, c, steal, None, rec)
                }
            };
            if let (Some(run), true) = (trace, sweep.series.is_empty()) {
                let rec = Recorder::enabled();
                sim(run, TRACE_CORES, &rec);
                sweep.trace = rec.recording();
            }
            let off = Recorder::disabled();
            let results = [Run::Gtfock, Run::GtfockStatic, Run::Nwchem].map(|r| {
                let swept = runs.contains(&r);
                sweep
                    .cores
                    .iter()
                    .filter(|_| swept)
                    .map(|&c| sim(r, c, &off))
                    .collect()
            });
            sweep.series.push(Series {
                name: w.name.clone(),
                results,
            });
        }
        sweep
    }

    /// Print a `Cores × <molecule><run suffix>` table: a column per molecule
    /// and run (no suffix when the sweep has one run), `width` wide with
    /// `prec` decimals.
    pub fn grid(&self, width: usize, prec: usize, value: impl Fn(&Series, Run, usize) -> f64) {
        let suffix = |r| match r {
            _ if self.runs.len() == 1 => "",
            Run::Gtfock => "-GT",
            Run::GtfockStatic => "-ST",
            Run::Nwchem => "-NW",
        };
        print!("{:>6}", "Cores");
        for m in &self.series {
            for &r in &self.runs {
                print!(" {:>width$}", format!("{}{}", m.name, suffix(r)));
            }
        }
        println!();
        for (ci, c) in self.cores.iter().enumerate() {
            print!("{c:>6}");
            for m in &self.series {
                for &r in &self.runs {
                    print!(" {:>width$.prec$}", value(m, r, ci));
                }
            }
            println!();
        }
    }

    /// With `--trace <path>`, write the traced run's per-process timeline
    /// (task, steal, comm events in simulated time) as version-1 obs JSON
    /// and print a summary line.
    pub fn write_trace(&self) {
        let (Some((path, label)), Some(recording)) = (&self.trace_to, &self.trace) else {
            return;
        };
        if let Err(e) = std::fs::write(path, recording.to_json()) {
            eprintln!("error: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!();
        println!(
            "trace: {} events across {} processes ({}{label} @ {TRACE_CORES} cores) -> {path}",
            recording.total_events(),
            recording.nworkers(),
            self.series[0].name
        );
    }
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

/// `--full` flag.
pub fn flag_full() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Generic boolean flag, e.g. `flag("--smoke")`.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The value after `name` in `args`: `Ok(None)` when the flag is absent,
/// an error when it has no value.
fn arg_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("{name} requires a value argument")),
    }
}

/// `--tau <v>` in `args`, `default` when absent; an error unless `v` is a
/// finite non-negative number.
fn tau_arg(args: &[String], default: f64) -> Result<f64, String> {
    let Some(v) = arg_value(args, "--tau")? else {
        return Ok(default);
    };
    match v.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
        _ => Err(format!("--tau {v}: not a non-negative number")),
    }
}

/// Unwrap a command-line parse, or print the error and exit with status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Generic `--name <value>` string option, e.g. `opt_str("--json")`;
/// exits with an error when the flag is present without a value.
pub fn opt_str(name: &str) -> Option<String> {
    or_exit(arg_value(&std::env::args().collect::<Vec<_>>(), name))
}

/// `--tau <v>` screening tolerance, `default` when absent; exits with an
/// error on a missing or malformed value.
pub fn opt_tau(default: f64) -> f64 {
    or_exit(tau_arg(&std::env::args().collect::<Vec<_>>(), default))
}

/// Standard header naming the reproduction context at tolerance `tau`.
pub fn banner(what: &str, full: bool, tau: f64) {
    println!("== {what} ==");
    println!(
        "molecules: {} | basis: cc-pVDZ | τ = {:.0e} | machine model: Lonestar (Table I)",
        if full {
            "paper set (--full)"
        } else {
            "scaled-down set (pass --full for the paper's)"
        },
        tau
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
    fn tau_parser_defaults_and_rejects_bad_values() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(tau_arg(&args(&["bin"]), 1e-13), Ok(1e-13));
        assert_eq!(tau_arg(&args(&["bin", "--tau", "1e-8"]), 1e-10), Ok(1e-8));
        assert_eq!(
            tau_arg(&args(&["bin", "--full", "--tau", "0"]), 1e-10),
            Ok(0.0)
        );
        for bad in [
            &["bin", "--tau"][..],
            &["bin", "--tau", "--full"],
            &["bin", "--tau", "1e-8x"],
        ] {
            assert!(tau_arg(&args(bad), 1e-10).is_err(), "{bad:?}");
        }
        for bad in ["-1e-10", "nan", "inf"] {
            assert!(
                tau_arg(&args(&["bin", "--tau", bad]), 1e-10).is_err(),
                "{bad}"
            );
        }
        assert_eq!(
            arg_value(&args(&["bin", "--trace", "t.json"]), "--trace"),
            Ok(Some("t.json".into()))
        );
        assert_eq!(arg_value(&args(&["bin"]), "--trace"), Ok(None));
    }

    #[test]
    fn sweep_cells_equal_direct_model_calls() {
        let w = prepare(generators::graphene_flake(1), 1e-10);
        let cores = vec![12, 48];
        let runs = [Run::Gtfock, Run::GtfockStatic, Run::Nwchem];
        let sweep = PaperSweep::over(
            std::slice::from_ref(&w),
            cores.clone(),
            &runs,
            Some(Run::Nwchem),
        );
        let machine = MachineParams::lonestar();
        let (gt, nw) = (
            GtfockSimModel::new(&w.prob, &w.cost),
            NwchemSimModel::new(&w.prob, &w.cost),
        );
        let m = &sweep.series[0];
        assert_eq!(m.name, "C6H6");
        for (ci, &c) in cores.iter().enumerate() {
            let direct = [
                gt.simulate(machine, c, true),
                gt.simulate(machine, c, false),
                nw.simulate(machine, c, 5),
            ];
            for (run, d) in runs.iter().zip(&direct) {
                assert_eq!(
                    format!("{:?}", m.at(*run, ci)),
                    format!("{d:?}"),
                    "{run:?} @ {c}"
                );
            }
        }
        let rec = sweep.trace.as_ref().expect("traced run recorded");
        assert_eq!(rec.nworkers(), TRACE_CORES);
    }

    #[test]
    fn prepare_small_workload() {
        let w = prepare(generators::graphene_flake(1), 1e-10);
        assert_eq!(w.name, "C6H6");
        assert!(w.prob.nshells() > 0);
        assert!(w.cost.t_int > 0.0);
    }
}
