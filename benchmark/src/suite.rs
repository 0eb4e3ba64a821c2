//! Whole-benchmark modes: `--all` (every workload, each in its own child
//! process, collected into one run set), `--compare` (two run sets
//! against the bounds), `--smoke` and `--print-pins`.

use crate::json::{self, obj, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::scf_run::{self, RunOpts};
use crate::stats::{iqr_spread, median};
use crate::workloads::{self, Family};
use crate::{result_line, run_workload};
use std::process::{Command, ExitCode};
use std::time::Instant;

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload in a child process of this same binary and parse the
/// result line it prints last. The child is waited for before returning.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} (trace {}) printed no result", u8::from(trace)))?;
    json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric_values(result: &Value) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect()
}

/// `--all`: the one command that runs all six workloads, prints every
/// metric by name with its unit, writes the traces and the run set, and
/// exits non-zero on any failed output check.
pub fn all(first_seed: u64, seeds: u64, seconds: f64, out_path: &str) -> Result<ExitCode, String> {
    let seeds: Vec<u64> = (first_seed..first_seed + seeds.max(1)).collect();
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut sets = Vec::new();
    for w in WORKLOADS {
        let t = Instant::now();
        let mut tally = |r: &Value| {
            attempted += r.get("attempted").and_then(Value::as_f64).unwrap_or(1.0);
            // A run that printed no usable counts is itself a failed op.
            failed += r.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
        };
        // End-to-end metrics: tracing off, one run per seed.
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for &seed in &seeds {
            let r = child_run(w.name, seed, seconds, false)?;
            tally(&r);
            let values = metric_values(&r);
            for (slot, m) in samples.iter_mut().zip(END_TO_END) {
                match values.iter().find(|(k, _)| k == m.name) {
                    Some((_, v)) => slot.push(*v),
                    None => return Err(format!("{}: {} missing", w.name, m.name)),
                }
            }
        }
        let e2e = END_TO_END.iter().zip(&samples).map(|(m, vals)| {
            let med = median(vals);
            let spread = if vals.len() >= 2 {
                iqr_spread(vals)
            } else {
                0.0
            };
            println!(
                "{} {} = {med} {} (n={}, spread {spread:.4})",
                w.name,
                m.name,
                m.unit,
                vals.len()
            );
            (
                m.name.to_string(),
                obj([
                    ("unit", Value::Str(m.unit.into())),
                    ("median", Value::Num(med)),
                    ("spread", Value::Num(spread)),
                    (
                        "values",
                        Value::Arr(vals.iter().map(|&v| Value::Num(v)).collect()),
                    ),
                ]),
            )
        });
        let e2e = Value::Obj(e2e.collect());
        // Per-layer metrics: one traced run.
        let r = child_run(w.name, seeds[0], seconds, true)?;
        tally(&r);
        let values = metric_values(&r);
        let layers = PER_LAYER.iter().map(|m| {
            let v = values
                .iter()
                .find(|(k, _)| k == m.name)
                .map_or(0.0, |p| p.1);
            println!("{} {} = {v} {}", w.name, m.name, m.unit);
            (
                m.name.to_string(),
                obj([
                    ("unit", Value::Str(m.unit.into())),
                    ("value", Value::Num(v)),
                ]),
            )
        });
        sets.push((
            w.name.to_string(),
            obj([
                ("end_to_end", e2e),
                ("per_layer", Value::Obj(layers.collect())),
            ]),
        ));
        eprintln!("{} done in {:.0} s", w.name, t.elapsed().as_secs_f64());
    }
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs() as f64);
    let doc = obj([
        ("host", Value::Str(host())),
        ("nproc", Value::Num(nproc() as f64)),
        ("unix_time", Value::Num(unix_time)),
        ("seconds", Value::Num(seconds)),
        (
            "seeds",
            Value::Arr(seeds.iter().map(|&s| Value::Num(s as f64)).collect()),
        ),
        ("ops_attempted", Value::Num(attempted)),
        ("ops_failed", Value::Num(failed)),
        ("workloads", Value::Obj(sets)),
    ]);
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(out_path, doc.to_pretty()).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "ops_attempted = {attempted} count, ops_failed = {failed} count; run set in {out_path}"
    );
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// A spread wider than the bound cannot resolve a difference of the
/// bound's size either way; otherwise the medians decide.
fn verdict(rel: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if rel > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// `--compare a.json b.json`: per metric × workload, the relative
/// difference of the medians against the metric's bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let field = |doc: &Value, w: &str, m: &str, f: &str| {
        doc.get("workloads")?
            .get(w)?
            .get("end_to_end")?
            .get(m)?
            .get(f)?
            .as_f64()
    };
    println!(
        "{:<13} {:<15} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "spread", "bound"
    );
    let mut regressions = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let get = |doc, f| {
                field(doc, w.name, m.name, f)
                    .ok_or_else(|| format!("{}.{}.{f} missing from a run set", w.name, m.name))
            };
            let (ma, mb) = (get(&a, "median")?, get(&b, "median")?);
            let spread = get(&a, "spread")?.max(get(&b, "spread")?);
            let rel = worsening(m.better, ma, mb);
            let v = verdict(rel, spread, m.bound);
            regressions += usize::from(v == Verdict::Regression);
            println!(
                "{:<13} {:<15} {:>13.6} {:>13.6} {:>+7.2}% {:>7.2}% {:>5.0}%  {}",
                w.name,
                m.name,
                ma,
                mb,
                rel * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--smoke`: every workload at H2O/C2H6 size, both trace modes, in this
/// process — the harness exercised end to end in seconds.
pub fn smoke() -> Result<ExitCode, String> {
    let t = Instant::now();
    let mut failed = 0;
    for w in WORKLOADS {
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 1,
                seconds: 0.3,
                trace,
                smoke: true,
            };
            let r = run_workload(w.name, &opts)?;
            for why in &r.failures {
                eprintln!("FAILED CHECK: {why}");
            }
            failed += r.failed();
            println!(
                "{} trace={} {}",
                w.name,
                u8::from(trace),
                result_line(&r, trace)
            );
        }
    }
    println!(
        "smoke: {failed} failed checks in {:.1} s",
        t.elapsed().as_secs_f64()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--print-pins`: converge every SCF workload once at both sizes and
/// print `pins.json`. Only for a change that is meant to move an answer.
pub fn print_pins() -> Result<ExitCode, String> {
    let mut sizes = Vec::new();
    for (size, smoke) in [("full", false), ("smoke", true)] {
        let mut pins = Vec::new();
        for w in WORKLOADS {
            let spec = workloads::spec(w.name, smoke).expect("named workload");
            if spec.family == Family::Service {
                continue;
            }
            let (energy, iters) = scf_run::converge_once(&spec)?;
            pins.push((
                w.name.to_string(),
                obj([
                    ("energy_ha", Value::Num(energy)),
                    ("scf_iters", Value::Num(iters as f64)),
                ]),
            ));
        }
        sizes.push((size.to_string(), Value::Obj(pins)));
    }
    print!("{}", Value::Obj(sizes).to_pretty());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(verdict(0.01, 0.02, 0.05), Verdict::Ok);
        assert_eq!(verdict(0.06, 0.02, 0.05), Verdict::Regression);
        assert_eq!(verdict(0.06, 0.08, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(-0.30, 0.08, 0.05), Verdict::Unresolved);
        // Exact counts: no spread, any worsening within the bound is ok.
        assert_eq!(verdict(0.0, 0.0, 0.02), Verdict::Ok);
    }
}
