//! The `service_mix` workload: a closed loop of two clients driving
//! `ScfService` with a seeded stream of STO-3G jobs. Each client submits
//! its next job only after the previous one completed, so a slower
//! service receives less load. Repeated molecules hit the `ProblemCache`;
//! H2 at a seeded bond length is a new problem every time and misses.

use crate::metrics::MetricSet;
use crate::probes::{self, ProbeInput};
use crate::scf_run::{
    initial_density, max_abs_diff, peak_rss_mb, set_export_metrics, set_report_metrics,
    set_trace_metrics, set_up, write_trace, RunOpts, RunResult,
};
use crate::stats::{mean, median, percentile, sorted, tail_percentile};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{scf_config, scf_config_for, Rng, Spec, NPROCS, PARITY_TOL, TAU};
use chem::molecule::Molecule;
use chem::{generators, BasisSetKind};
use fock_core::{run_scf, run_scf_on, BuildReport, FockProblem};
use fock_service::{JobSpec, ScfService, ServiceConfig, SharedPool};
use obs::Recorder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CLIENTS: usize = 2;
const BASIS: BasisSetKind = BasisSetKind::Sto3g;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// H2 at a seeded bond length: always a cache miss.
    H2,
    /// Index into [`repeat_molecules`]: a cache hit after warm-up.
    Repeat(usize),
}

/// The molecules that recur in the stream, smallest first.
fn repeat_molecules(smoke: bool) -> Vec<Molecule> {
    let mut v = vec![
        generators::water(),
        generators::methane(),
        generators::linear_alkane(2),
    ];
    if !smoke {
        v.push(generators::linear_alkane(4));
    }
    v
}

/// One block of the stream: 16 jobs whose make-up never changes, only
/// their order. The counts put the median build (a C2H6 build: 35 of a
/// block's 91) well inside one molecule's cluster, so `build_median_s`
/// does not flip between clusters from run to run.
fn block(smoke: bool) -> Vec<Kind> {
    let counts: &[(Kind, usize)] = if smoke {
        &[
            (Kind::H2, 4),
            (Kind::Repeat(0), 4),
            (Kind::Repeat(1), 4),
            (Kind::Repeat(2), 4),
        ]
    } else {
        &[
            (Kind::H2, 4),
            (Kind::Repeat(0), 2),
            (Kind::Repeat(1), 3),
            (Kind::Repeat(2), 5),
            (Kind::Repeat(3), 2),
        ]
    };
    counts
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect()
}

struct Job {
    kind: Kind,
    molecule: Molecule,
}

/// The seeded job stream: `blocks` blocks, each a seeded shuffle of
/// [`block`], H2 bond lengths uniform in [1.0, 2.5) bohr.
fn stream(seed: u64, smoke: bool, blocks: usize) -> Vec<Job> {
    let repeats = repeat_molecules(smoke);
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::with_capacity(blocks * 16);
    for _ in 0..blocks {
        let mut b = block(smoke);
        for i in (1..b.len()).rev() {
            b.swap(i, rng.below(i + 1));
        }
        for kind in b {
            let molecule = match kind {
                Kind::H2 => generators::hydrogen(1.0 + 1.5 * rng.next_f64()),
                Kind::Repeat(i) => repeats[i].clone(),
            };
            jobs.push(Job { kind, molecule });
        }
    }
    jobs
}

fn job_spec(molecule: &Molecule) -> JobSpec {
    JobSpec::new(molecule.clone(), BASIS, scf_config().build())
}

fn standalone_energy(molecule: &Molecule) -> Result<f64, String> {
    run_scf(molecule.clone(), BASIS, scf_config().build())
        .map(|r| r.energy)
        .map_err(|e| e.to_string())
}

/// A completed job, as the client saw it.
struct Done {
    index: usize,
    energy: f64,
    iters: usize,
    queue_wait: f64,
    exec: f64,
    total: f64,
    /// Tracer time at submission.
    submitted: f64,
    reports: Vec<BuildReport>,
}

#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    errors: Vec<String>,
    rejected: u64,
    wall: f64,
    hits: u64,
    misses: u64,
}

fn new_service(rec: Recorder) -> ScfService {
    ScfService::new(
        ServiceConfig::default()
            .with_runners(CLIENTS)
            .with_workers(NPROCS)
            .with_queue_depth(64)
            .with_recorder(rec),
    )
}

/// One service lifetime: construct, warm the cache with one job of each
/// repeated molecule (untimed), then the closed loop for `seconds`,
/// ending at the first block boundary after that so every phase runs
/// whole blocks and its counts are exact.
fn run_phase(jobs: &[Job], smoke: bool, seconds: f64, rec: Recorder, tracer: &Tracer) -> Phase {
    let svc = new_service(rec);
    let mut phase = Phase::default();
    for m in repeat_molecules(smoke) {
        if let Err(e) = svc.run(job_spec(&m)) {
            phase.errors.push(format!("warm-up {}: {e}", m.formula()));
        }
    }
    let before = svc.cache_stats();

    let span = tracer.begin("service.phase", None);
    let next = AtomicUsize::new(0);
    let stop_at = AtomicUsize::new(usize::MAX);
    let results: Mutex<(Vec<Done>, Vec<String>, u64)> = Mutex::default();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i.is_multiple_of(16) && t0.elapsed().as_secs_f64() >= seconds {
                    stop_at.fetch_min(i, Ordering::SeqCst);
                }
                if i >= stop_at.load(Ordering::SeqCst) {
                    break;
                }
                let job = &jobs[i % jobs.len()];
                let submitted = tracer.now();
                let outcome = match svc.submit(job_spec(&job.molecule)) {
                    Ok(handle) => handle.wait().map_err(|e| e.to_string()),
                    Err(rejection) => {
                        results.lock().expect("results poisoned").2 += 1;
                        Err(rejection.to_string())
                    }
                };
                let mut r = results.lock().expect("results poisoned");
                match outcome {
                    Ok(o) => r.0.push(Done {
                        index: i,
                        energy: o.result.energy,
                        iters: o.result.iterations,
                        queue_wait: o.queue_wait_secs,
                        exec: o.exec_secs,
                        total: o.total_secs,
                        submitted,
                        reports: o.result.reports,
                    }),
                    Err(e) => r.1.push(format!("job {i} ({:?}): {e}", job.kind)),
                }
            });
        }
    });
    phase.wall = t0.elapsed().as_secs_f64();
    tracer.end(span);
    let after = svc.cache_stats();
    phase.hits = after.hits - before.hits;
    phase.misses = after.misses - before.misses;
    let (done, errors, rejected) = results.into_inner().expect("results poisoned");
    phase.done = done;
    phase.errors.extend(errors);
    phase.rejected = rejected;
    record_job_spans(tracer, span, &phase.done);
    phase
}

/// A span per job with its queue wait and execution as children, from
/// the latency split the service returned.
fn record_job_spans(tracer: &Tracer, parent: SpanId, done: &[Done]) {
    for d in done {
        let start = d.submitted;
        let job = tracer.record("service.job", start, start + d.total, Some(parent));
        tracer.record("service.queue_wait", start, start + d.queue_wait, Some(job));
        tracer.record(
            "core.scf",
            start + d.queue_wait,
            start + d.queue_wait + d.exec,
            Some(job),
        );
    }
}

/// Wall time of a build as its report states it: the slowest process.
fn report_wall(r: &BuildReport) -> f64 {
    r.t_fock.iter().copied().fold(0.0, f64::max)
}

/// Every completed job against a standalone `run_scf` of the same
/// molecule, to 1e-10 Ha; failures and rejections count as failed ops.
fn check_phase(out: &mut RunResult, jobs: &[Job], refs: &[f64], phase: &Phase) -> f64 {
    let mut worst = 0.0f64;
    for d in &phase.done {
        let job = &jobs[d.index % jobs.len()];
        let reference = match job.kind {
            Kind::Repeat(i) => Ok(refs[i]),
            Kind::H2 => standalone_energy(&job.molecule),
        };
        out.op(match reference {
            Err(e) => Some(format!(
                "service_mix: reference for job {} failed: {e}",
                d.index
            )),
            Ok(e_ref) => {
                let err = (d.energy - e_ref).abs();
                worst = worst.max(err);
                (err > PARITY_TOL).then(|| {
                    format!(
                        "service_mix: job {} ({:?}) is {err:.2e} Ha from its standalone reference",
                        d.index, job.kind
                    )
                })
            }
        });
    }
    for e in &phase.errors {
        out.op(Some(format!("service_mix: {e}")));
    }
    worst
}

/// Set-up as the service's users pay it: constructing the service and
/// building, once, each problem the cache will then hold.
fn set_up_service(smoke: bool, spec: &Spec) -> f64 {
    let t = Instant::now();
    let svc = new_service(Recorder::disabled());
    for m in repeat_molecules(smoke) {
        let prob = FockProblem::new(m, BASIS, TAU, spec.ordering()).expect("service problem");
        prob.pairs();
        prob.one_electron();
        prob.gwh_guess();
    }
    let secs = t.elapsed().as_secs_f64();
    drop(svc);
    secs
}

pub fn run(spec: &Spec, opts: &RunOpts) -> RunResult {
    let mut out = RunResult::default();
    let tracer = Arc::new(Tracer::new(opts.trace, spec.name));
    let setup_s = median(
        &(0..5)
            .map(|_| set_up_service(opts.smoke, spec))
            .collect::<Vec<_>>(),
    );

    // Standalone references (untimed): the answers the service must give.
    let mut refs = Vec::new();
    for m in repeat_molecules(opts.smoke) {
        match standalone_energy(&m) {
            Ok(e) => refs.push(e),
            Err(e) => {
                out.op(Some(format!("service_mix: reference {}: {e}", m.formula())));
                return out;
            }
        }
    }
    let jobs = stream(opts.seed, opts.smoke, 256);

    let phase = run_phase(
        &jobs,
        opts.smoke,
        opts.seconds,
        Recorder::disabled(),
        &Tracer::new(false, spec.name),
    );
    let worst = check_phase(&mut out, &jobs, &refs, &phase);
    if phase.done.is_empty() {
        return out;
    }

    let latencies = sorted(&phase.done.iter().map(|d| d.total).collect::<Vec<_>>());
    let build_walls: Vec<f64> = phase
        .done
        .iter()
        .flat_map(|d| d.reports.iter().map(report_wall))
        .collect();
    let jobs_per_s = phase.done.len() as f64 / phase.wall;
    let m = &mut out.metrics;
    if !opts.trace {
        m.set("setup_s", setup_s);
        // The mean, not the median: the job mix smears latencies over two
        // decades, so at n ≈ 140 the median's own sampling error is ~15 %
        // of it. p50 and the tail are per-layer metrics, without a bound.
        m.set("scf_wall_s", mean(&latencies));
        m.set("build_median_s", median(&build_walls));
        m.set("jobs_per_s", jobs_per_s);
        m.set(
            "scf_iters",
            mean(
                &phase
                    .done
                    .iter()
                    .map(|d| d.iters as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        m.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    // --- per-layer metrics -------------------------------------------------
    let n = phase.done.len();
    m.set("service.jobs", n as f64);
    m.set("service.job_latency_p50_s", percentile(&latencies, 50.0));
    if let Some(p) = tail_percentile(n).map(|p| p.min(90.0)) {
        m.set("service.job_latency_p90_s", percentile(&latencies, p));
        m.set("service.job_latency_tail_pct", p);
    }
    let col = |f: &dyn Fn(&Done) -> f64| median(&phase.done.iter().map(f).collect::<Vec<_>>());
    m.set("service.queue_wait_p50_s", col(&|d| d.queue_wait));
    m.set("service.exec_p50_s", col(&|d| d.exec));
    m.set("service.cache_hits", phase.hits as f64);
    m.set("service.cache_misses", phase.misses as f64);
    m.set(
        "service.cache_hit_ratio",
        phase.hits as f64 / (phase.hits + phase.misses).max(1) as f64,
    );
    m.set("service.rejected", phase.rejected as f64);
    m.set("core.build_total_s", build_walls.iter().sum());
    m.set("core.builds_sampled", build_walls.len() as f64);
    set_report_metrics(
        m,
        phase.done.iter().flat_map(|d| d.reports.iter()),
        &build_walls,
    );
    m.set("check.energy_err_ha", worst);

    // The same load with the service's recorder enabled, for half as long:
    // the untraced phase needs the full time for its tail percentile.
    let rec = Recorder::enabled();
    let traced = run_phase(&jobs, opts.smoke, opts.seconds / 2.0, rec.clone(), &tracer);
    let traced_worst = check_phase(&mut out, &jobs, &refs, &traced);
    let m = &mut out.metrics;
    m.set("check.energy_err_ha", worst.max(traced_worst));
    if !traced.done.is_empty() {
        let per_job = |p: &Phase| p.wall / p.done.len() as f64;
        m.set("obs.traced_wall_s", traced.wall);
        m.set(
            "obs.overhead_frac",
            (per_job(&traced) - per_job(&phase)) / per_job(&phase),
        );
    }
    set_export_metrics(m, &tracer, &rec);

    // Layer probes on the largest molecule of the mix.
    match layer_probes(spec, opts, &tracer, m) {
        Ok(parity) => {
            m.set("check.parity_max_abs", parity);
            out.op((parity > PARITY_TOL).then(|| {
                format!("service_mix: pool build differs from build_g_seq by {parity:.2e}")
            }));
        }
        Err(e) => out.op(Some(format!("service_mix: probes failed: {e}"))),
    }
    set_trace_metrics(&mut out.metrics, &tracer);
    if let Err(e) = write_trace(&tracer, spec.name) {
        out.op(Some(format!("service_mix: writing the trace failed: {e}")));
    }
    out
}

/// Probes on `spec`'s problem: the generic layer probes, plus one build
/// through a `SharedPool` against the same build under gtfock 1×2 and
/// against the sequential reference. Returns the pool's parity error.
fn layer_probes(
    spec: &Spec,
    opts: &RunOpts,
    tracer: &Arc<Tracer>,
    m: &mut MetricSet,
) -> Result<f64, String> {
    let (warm, _) = set_up(spec, tracer)?;
    let prob = &warm.prob;
    let d0 = initial_density(prob);
    let off = Recorder::disabled();
    let converged = run_scf_on(
        prob.clone(),
        scf_config_for(spec, warm.builder.clone(), off.clone()),
    )
    .map_err(|e| e.to_string())?;
    let (g_seq, seq_s) = probes::seq_build(tracer, prob, &d0);
    probes::run_all(
        &ProbeInput {
            spec,
            prob,
            d0: &d0,
            fock: &converged.fock,
            density: &converged.density,
            df: None,
            seq_build_s: seq_s,
            seed: opts.seed,
        },
        tracer,
        m,
    );

    let pool = SharedPool::new(NPROCS, 8);
    let mut pool_g = Vec::new();
    let mut pool_times = Vec::new();
    let mut gtfock_times = Vec::new();
    for _ in 0..3 {
        let (g, secs) = tracer.timed("service.pool_build", None, || {
            pool.build_g(prob, d0.as_slice(), &off)
        });
        pool_g = g.map_err(|e| e.to_string())?.g;
        pool_times.push(secs);
        let (g, secs) = tracer.timed("core.build", None, || {
            warm.builder.build(prob, d0.as_slice(), &off)
        });
        g.map_err(|e| e.to_string())?;
        gtfock_times.push(secs);
    }
    let (pool_s, gtfock_s) = (median(&pool_times), median(&gtfock_times));
    m.set("service.pool_build_s", pool_s);
    m.set("service.pool_vs_gtfock", pool_s / gtfock_s);
    m.set("core.build_first_s", gtfock_s);
    m.set("core.parallel_eff", seq_s / (NPROCS as f64 * gtfock_s));
    Ok(max_abs_diff(&pool_g, &g_seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_every_block_has_the_same_make_up() {
        let a = stream(3, false, 4);
        let b = stream(3, false, 4);
        let c = stream(4, false, 4);
        let kinds = |s: &[Job]| s.iter().map(|j| j.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&a), kinds(&b));
        assert_ne!(kinds(&a), kinds(&c));
        for chunk in a.chunks(16) {
            let mut k = kinds(chunk);
            let mut want = block(false);
            let key = |k: &Kind| match k {
                Kind::H2 => 0,
                Kind::Repeat(i) => i + 1,
            };
            k.sort_by_key(key);
            want.sort_by_key(key);
            assert_eq!(k, want);
        }
        assert_eq!(block(false).len(), 16);
        assert_eq!(block(true).len(), 16);
        // H2 bond lengths differ job to job: each one is a new problem.
        let bonds: Vec<f64> = a
            .iter()
            .filter(|j| j.kind == Kind::H2)
            .map(|j| j.molecule.atoms[1].pos.norm())
            .collect();
        for (i, x) in bonds.iter().enumerate() {
            assert!((1.0..2.5).contains(x));
            assert!(bonds[..i].iter().all(|y| y != x));
        }
    }
}
