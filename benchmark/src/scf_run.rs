//! One measured run of an SCF workload: repeated set-up, a parity build,
//! then `run_scf_on` on the warmed problem for `--seconds`, every answer
//! checked against its pin. `--trace 1` interleaves traced repetitions
//! and adds the layer probes.

use crate::metrics::MetricSet;
use crate::probes::{self, ProbeInput};
use crate::stats::{mean, median};
use crate::trace::{layer_self_times, SpanId, Tracer};
use crate::workloads::{
    pin, scf_config_for, Builder, Family, Pin, Spec, ENERGY_TOL, PARITY_TOL, TAU,
};
use fock_core::scf::{density_from_fock, DensityMethod};
use fock_core::{
    run_scf_on, BuildError, BuildOutcome, BuildReport, DfBuild, FockBuild, FockProblem,
};
use linalg::Mat;
use obs::Recorder;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one run hands back: the counted operations, the metrics of the
/// requested kind, and a line per failed check.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub metrics: MetricSet,
    pub failures: Vec<String>,
}

impl RunResult {
    /// Count one operation; `problem` says why it failed, if it did.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        self.failures.extend(problem);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timing adapter around the workload's builder: the SCF driver sees
/// an ordinary `FockBuild`, the benchmark gets the wall time of every
/// `build` call and, in the traced run, a span per call.
struct TimedBuild {
    inner: Builder,
    walls: Mutex<Vec<f64>>,
    tracer: Arc<Tracer>,
    parent: Option<SpanId>,
}

impl FockBuild for TimedBuild {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(
        &self,
        prob: &FockProblem,
        d: &[f64],
        rec: &Recorder,
    ) -> Result<BuildOutcome, BuildError> {
        let (out, secs) = self
            .tracer
            .timed("core.build", self.parent, || self.inner.build(prob, d, rec));
        self.walls.lock().expect("build log poisoned").push(secs);
        out
    }

    fn aux_key(&self) -> Option<(u8, u64)> {
        self.inner.aux_key()
    }
}

/// A problem with everything an SCF run needs already built.
pub struct Warm {
    pub prob: Arc<FockProblem>,
    pub builder: Builder,
    pub df: Option<Arc<DfBuild>>,
}

/// One full set-up, as a user's first run pays it: problem construction
/// (basis, ordering, Schwarz), pair data, one-electron matrices, the GWH
/// guess and, for DF, the fitted tensor.
pub fn set_up(spec: &Spec, tracer: &Tracer) -> Result<(Warm, f64), String> {
    let root = tracer.begin("core.setup", None);
    let t = Instant::now();
    let (prob, _) = tracer.timed("core.problem_new", Some(root), || {
        FockProblem::new(spec.molecule.clone(), spec.basis, TAU, spec.ordering())
    });
    let prob = Arc::new(prob?);
    tracer.timed("eri.pairdata", Some(root), || {
        prob.pairs();
    });
    tracer.timed("core.one_electron", Some(root), || {
        prob.one_electron();
        prob.gwh_guess();
    });
    let (builder, df) = spec.builder();
    if let Some(df) = &df {
        tracer.timed("core.df_fit", Some(root), || {
            df.data(&prob, &Recorder::disabled());
        });
    }
    let secs = t.elapsed().as_secs_f64();
    tracer.end(root);
    Ok((Warm { prob, builder, df }, secs))
}

/// Set up `reps` times, keeping only the last problem alive, and report
/// the median.
pub fn set_up_repeated(spec: &Spec, tracer: &Tracer, reps: usize) -> Result<(Warm, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut warm = None;
    for _ in 0..reps {
        drop(warm.take());
        let (w, secs) = set_up(spec, tracer)?;
        times.push(secs);
        warm = Some(w);
    }
    Ok((warm.expect("at least one set-up"), median(&times)))
}

/// The density the SCF starts from (GWH guess → D).
pub fn initial_density(prob: &FockProblem) -> Mat {
    let nocc = prob.basis.molecule.nocc();
    density_from_fock(
        prob.gwh_guess(),
        &prob.one_electron().x,
        nocc,
        DensityMethod::Diagonalize,
    )
}

pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn asymmetry(g: &[f64], n: usize) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..i {
            worst = worst.max((g[i * n + j] - g[j * n + i]).abs());
        }
    }
    worst
}

/// One SCF to convergence on the warmed problem.
struct Rep {
    wall: f64,
    iters: usize,
    energy: f64,
    builds: Vec<f64>,
    reports: Vec<BuildReport>,
    fock: Mat,
    density: Mat,
}

fn run_rep(spec: &Spec, warm: &Warm, rec: Recorder, tracer: &Arc<Tracer>) -> Result<Rep, String> {
    let root = tracer.begin("core.scf", None);
    let timed = Arc::new(TimedBuild {
        inner: warm.builder.clone(),
        walls: Mutex::new(Vec::new()),
        tracer: tracer.clone(),
        parent: Some(root),
    });
    let cfg = scf_config_for(spec, timed.clone(), rec);
    let t = Instant::now();
    let result = run_scf_on(warm.prob.clone(), cfg);
    let wall = t.elapsed().as_secs_f64();
    tracer.end(root);
    let r = result.map_err(|e| format!("{}: {e}", spec.name))?;
    let builds = std::mem::take(&mut *timed.walls.lock().expect("build log poisoned"));
    Ok(Rep {
        wall,
        iters: r.iterations,
        energy: r.energy,
        builds,
        reports: r.reports,
        fock: r.fock,
        density: r.density,
    })
}

fn check_rep(spec: &Spec, rep: &Rep, pin: &Pin) -> Option<String> {
    let err = (rep.energy - pin.energy).abs();
    if err > ENERGY_TOL {
        return Some(format!(
            "{}: E = {:.10} Ha is {err:.2e} from the pinned {:.10}",
            spec.name, rep.energy, pin.energy
        ));
    }
    (rep.iters != pin.iters).then(|| {
        format!(
            "{}: converged in {} iterations, pinned {}",
            spec.name, rep.iters, pin.iters
        )
    })
}

pub fn run(spec: &Spec, opts: &RunOpts) -> RunResult {
    let mut out = RunResult::default();
    let tracer = Arc::new(Tracer::new(opts.trace, spec.name));
    let pin = match pin(spec.name, opts.smoke) {
        Ok(p) => p,
        Err(e) => {
            out.op(Some(e));
            return out;
        }
    };

    // Set-up several times: one sample of a 20 ms set-up is mostly noise.
    let reps = if spec.family == Family::Df { 3 } else { 5 };
    let (warm, setup_s) = match set_up_repeated(spec, &tracer, reps) {
        Ok(w) => w,
        Err(e) => {
            out.op(Some(format!("{}: set-up failed: {e}", spec.name)));
            return out;
        }
    };
    let prob = &warm.prob;
    let nbf = prob.nbf();

    // One build of the workload's builder against the sequential
    // reference on the same density. Doubles as the warm-up that fills
    // the lazily built kernel tables before anything is timed.
    let d0 = initial_density(prob);
    let first = warm
        .builder
        .build(prob, d0.as_slice(), &Recorder::disabled());
    let mut parity = 0.0;
    let mut seq_build_s = 0.0;
    match first {
        Err(e) => out.op(Some(format!("{}: parity build failed: {e}", spec.name))),
        Ok(b) => {
            let asym = asymmetry(&b.g, nbf);
            let mut problem = (asym > PARITY_TOL)
                .then(|| format!("{}: G is asymmetric by {asym:.2e}", spec.name));
            if spec.is_exact() || opts.trace {
                let (g_seq, secs) = probes::seq_build(&tracer, prob, &d0);
                seq_build_s = secs;
                if spec.is_exact() {
                    parity = max_abs_diff(&b.g, &g_seq);
                    if parity > PARITY_TOL {
                        problem = Some(format!(
                            "{}: build differs from build_g_seq by {parity:.2e}",
                            spec.name
                        ));
                    }
                }
            }
            out.op(problem);
        }
    }

    // The timed phase. Untraced repetitions carry every reported time;
    // the traced run interleaves traced ones to price the recorder.
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut last_recorder = Recorder::disabled();
    // Spans only around the traced repetitions.
    let no_spans = Arc::new(Tracer::new(false, spec.name));
    let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let t0 = Instant::now();
    loop {
        for &with_obs in modes {
            let (rec, rep_tracer) = if with_obs {
                (Recorder::enabled(), &tracer)
            } else {
                (Recorder::disabled(), &no_spans)
            };
            match run_rep(spec, &warm, rec.clone(), rep_tracer) {
                Ok(rep) => {
                    out.op(check_rep(spec, &rep, &pin));
                    if with_obs {
                        last_recorder = rec;
                        traced.push(rep);
                    } else {
                        plain.push(rep);
                    }
                }
                Err(e) => out.op(Some(e)),
            }
        }
        if t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let timed_wall = t0.elapsed().as_secs_f64();
    if plain.is_empty() {
        return out;
    }

    let walls: Vec<f64> = plain.iter().map(|r| r.wall).collect();
    let scf_wall_s = median(&walls);
    let all_builds: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.builds.iter().copied())
        .collect();
    let build_median_s = median(&all_builds);
    let m = &mut out.metrics;
    if !opts.trace {
        m.set("setup_s", setup_s);
        m.set("scf_wall_s", scf_wall_s);
        m.set("build_median_s", build_median_s);
        m.set("jobs_per_s", plain.len() as f64 / timed_wall);
        m.set(
            "scf_iters",
            mean(&plain.iter().map(|r| r.iters as f64).collect::<Vec<_>>()),
        );
        m.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    // --- per-layer metrics -------------------------------------------------
    let last = plain.last().expect("non-empty");
    probes::run_all(
        &ProbeInput {
            spec,
            prob,
            d0: &d0,
            fock: &last.fock,
            density: &last.density,
            df: warm.df.as_ref(),
            seq_build_s,
            seed: opts.seed,
        },
        &tracer,
        m,
    );

    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let build_total_s = per_rep(&|r| r.builds.iter().sum());
    let build_first_s = per_rep(&|r| r.builds.first().copied().unwrap_or(0.0));
    m.set("core.build_total_s", build_total_s);
    m.set("core.build_first_s", build_first_s);
    m.set(
        "core.build_last_s",
        per_rep(&|r| r.builds.last().copied().unwrap_or(0.0)),
    );
    m.set("core.builds_sampled", all_builds.len() as f64);
    set_report_metrics(m, plain.iter().flat_map(|r| r.reports.iter()), &all_builds);
    if build_first_s > 0.0 {
        // Both are full builds on the initial density.
        m.set(
            "core.parallel_eff",
            seq_build_s / (spec.nprocs() as f64 * build_first_s),
        );
    }
    m.set("core.scf_other_s", (scf_wall_s - build_total_s).max(0.0));
    // What the measured pieces do not explain of one SCF: builds (timed in
    // place) plus the density and DIIS steps (probed one call at a time;
    // one extra density step turns the guess into the first D).
    let iters = per_rep(&|r| r.iters as f64);
    let explained = build_total_s
        + (iters + 1.0) * m.get("core.density_step_s").unwrap_or(0.0)
        + iters * m.get("core.diis_s").unwrap_or(0.0);
    let unaccounted = (scf_wall_s - explained).abs() / scf_wall_s;
    m.set("core.unaccounted_frac", unaccounted);

    // obs: what the enabled recorder costs and produces.
    let traced_wall = median(&traced.iter().map(|r| r.wall).collect::<Vec<_>>());
    m.set("obs.traced_wall_s", traced_wall);
    m.set("obs.overhead_frac", (traced_wall - scf_wall_s) / scf_wall_s);
    set_export_metrics(m, &tracer, &last_recorder);

    m.set(
        "check.energy_err_ha",
        plain
            .iter()
            .chain(&traced)
            .map(|r| (r.energy - pin.energy).abs())
            .fold(0.0, f64::max),
    );
    m.set("check.parity_max_abs", parity);
    set_trace_metrics(m, &tracer);
    // Smoke sizes converge in milliseconds, where timer noise alone is
    // more than 5 %; the reconciliation is a check of the full sizes.
    out.op((unaccounted >= 0.05 && !opts.smoke).then(|| {
        format!(
            "{}: {:.1} % of scf_wall_s is unaccounted for",
            spec.name,
            unaccounted * 100.0
        )
    }));
    if let Err(e) = write_trace(&tracer, spec.name) {
        out.op(Some(format!(
            "{}: writing the trace failed: {e}",
            spec.name
        )));
    }
    out
}

/// Averages over the `BuildReport`s the program returned, per build.
pub fn set_report_metrics<'a>(
    m: &mut MetricSet,
    reports: impl Iterator<Item = &'a BuildReport>,
    build_walls: &[f64],
) {
    let reports: Vec<&BuildReport> = reports.collect();
    if reports.is_empty() {
        return;
    }
    let avg =
        |f: &dyn Fn(&BuildReport) -> f64| mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>());
    m.set("core.t_comp_s", avg(&|r| mean(&r.t_comp)));
    m.set("core.t_ov_s", avg(&|r| r.t_ov_avg()));
    m.set("core.load_balance", avg(&|r| r.load_balance()));
    m.set(
        "core.quartets_per_build",
        avg(&|r| r.total_quartets() as f64),
    );
    m.set(
        "core.density_skipped_per_build",
        avg(&|r| r.total_density_skipped() as f64),
    );
    m.set("core.steals_per_build", avg(&|r| r.total_steals() as f64));
    m.set(
        "core.queue_accesses_per_build",
        avg(&|r| r.queue_accesses as f64),
    );
    let wall: f64 = build_walls.iter().sum();
    if wall > 0.0 {
        let quartets: u64 = reports.iter().map(|r| r.total_quartets()).sum();
        m.set("core.quartets_per_s", quartets as f64 / wall);
    }
    m.set(
        "distrt.ga_calls_per_build",
        avg(&|r| r.comm_total().total_calls() as f64),
    );
    m.set(
        "distrt.ga_bytes_per_build",
        avg(&|r| r.comm_total().total_bytes() as f64),
    );
    m.set(
        "distrt.ga_remote_bytes_per_build",
        avg(&|r| r.comm_total().remote_bytes() as f64),
    );
    m.set(
        "distrt.ga_retries",
        reports.iter().map(|r| r.ga_retries()).sum::<u64>() as f64,
    );
}

/// What the enabled recorder holds after the traced run, and what
/// exporting it costs.
pub fn set_export_metrics(m: &mut MetricSet, tracer: &Tracer, rec: &Recorder) {
    if let Some(recording) = rec.recording() {
        m.set("obs.events", recording.total_events() as f64);
        let (json, secs) = tracer.timed("obs.export", None, || recording.to_json());
        m.set("obs.export_s", secs);
        m.set("obs.export_bytes", json.len() as f64);
    }
}

/// Self time per layer over the traced run's spans.
pub fn set_trace_metrics(m: &mut MetricSet, tracer: &Tracer) {
    let spans = tracer.spans();
    m.set("trace.spans", spans.len() as f64);
    for (layer, secs) in layer_self_times(&spans) {
        m.set(&format!("trace.{layer}_self_s"), secs);
    }
}

/// Spans go to `benchmark/out/<workload>.trace.json` under the working
/// directory (the checkout root), which `.gitignore` keeps untracked.
pub fn write_trace(tracer: &Tracer, workload: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{workload}.trace.json")),
        tracer.chrome_trace(),
    )
}

/// Set up `spec` and converge it once with its own builder: the answer
/// `--print-pins` writes down.
pub fn converge_once(spec: &Spec) -> Result<(f64, usize), String> {
    let tracer = Arc::new(Tracer::new(false, spec.name));
    let (warm, _) = set_up(spec, &tracer)?;
    let rep = run_rep(spec, &warm, Recorder::disabled(), &tracer)?;
    Ok((rep.energy, rep.iters))
}
