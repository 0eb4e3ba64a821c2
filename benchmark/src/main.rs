//! `perf` — the repo's benchmark: end-to-end SCF metrics and per-layer
//! metrics on six named workloads. See `benchmark/README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one measured run
//! perf --all [--seeds k] [--seed n] [--seconds s] [--out file]    every workload, one child process each
//! perf --compare <a.json> <b.json>                                two run sets against the bounds
//! perf --smoke                                                    small stand-ins of every workload
//! perf --manifest | --print-pins                                  regenerate BENCHMARK.json / pins.json
//! ```

mod json;
mod metrics;
mod probes;
mod scf_run;
mod service_run;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::{obj, Value};
use metrics::{Metric, END_TO_END, PER_LAYER};
use scf_run::{RunOpts, RunResult};
use std::process::ExitCode;
use workloads::Family;

/// Run one workload in this process.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<RunResult, String> {
    let spec = workloads::spec(name, opts.smoke).ok_or_else(|| {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    Ok(match spec.family {
        Family::Service => service_run::run(&spec, opts),
        _ => scf_run::run(&spec, opts),
    })
}

pub fn table_for(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &RunResult, trace: bool) -> String {
    obj([
        (
            "correct",
            Value::Bool(r.failures.is_empty() && r.attempted > 0),
        ),
        ("attempted", Value::Num(r.attempted.max(1) as f64)),
        ("failed", Value::Num(r.failed() as f64)),
        ("metrics", r.metrics.result_object(table_for(trace), !trace)),
    ])
    .to_json()
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, n: usize) -> Option<&[String]> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1..i + 1 + n)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(default),
            Some(i) => self
                .0
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} needs a valid value")),
        }
    }
}

fn run_single(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let seconds: f64 = args.parsed("--seconds", f64::from(metrics::RUN_SECONDS))?;
    let trace: u8 = args.parsed("--trace", 0)?;
    if !(seconds > 0.0 && seconds <= 60.0) || trace > 1 {
        return Err("--seconds must be in (0, 60] and --trace 0 or 1".into());
    }
    let opts = RunOpts {
        seed: args.parsed("--seed", 1)?,
        seconds,
        trace: trace == 1,
        smoke: false,
    };
    let r = run_workload(workload, &opts)?;
    for why in &r.failures {
        eprintln!("FAILED CHECK: {why}");
    }
    if r.metrics.is_empty() {
        // Nothing was measured; there is no result to print.
        return Ok(ExitCode::FAILURE);
    }
    for m in table_for(opts.trace) {
        println!(
            "{workload} {} = {} {}",
            m.name,
            r.metrics.get(m.name).unwrap_or(0.0),
            m.unit
        );
    }
    println!("{}", result_line(&r, opts.trace));
    Ok(if r.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if args.flag("--manifest") {
        print!("{}", metrics::manifest().to_pretty());
        Ok(ExitCode::SUCCESS)
    } else if args.flag("--print-pins") {
        suite::print_pins()
    } else if let Some([a, b]) = args.values("--compare", 2) {
        suite::compare(a, b)
    } else if args.flag("--smoke") {
        suite::smoke()
    } else if args.flag("--all") {
        suite::all(
            args.parsed("--seed", 1)?,
            args.parsed("--seeds", 1)?,
            args.parsed("--seconds", f64::from(metrics::RUN_SECONDS))?,
            &args.parsed("--out", "benchmark/out/run.json".to_string())?,
        )
    } else if let Some([w]) = args.values("--workload", 1) {
        run_single(args, w)
    } else {
        Err("nothing to do; see the usage at the top of benchmark/src/main.rs".into())
    }
}

fn main() -> ExitCode {
    match dispatch(&Args(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
