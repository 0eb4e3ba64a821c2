//! Bench-side probes: each layer timed from outside, through its public
//! functions, on the workload's own problem and densities. Every probe
//! runs under a span named `<layer>.<what>` so the traced run's self
//! times per layer come out of the same calls.

use crate::metrics::MetricSet;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workloads::{Family, Rng, Spec, NPROCS};
use chem::reorder::reorder;
use chem::shells::BasisInstance;
use distrt::{GlobalArray, ProcessGrid};
use eri::{oneints, AuxBasis, AuxSpec, ClassBatcher, DensityNorms, EriEngine, QuartetClass};
use eri::{Screening, ShellPairData};
use fock_core::diis::Diis;
use fock_core::scf::{density_from_fock, DensityMethod};
use fock_core::{build_g_seq, DfBuild, FockProblem};
use linalg::eig::{inverse_sqrt, sym_eig};
use linalg::gemm::{gemm, gemm_tn};
use linalg::purify::purify_canonical;
use linalg::solve::cholesky;
use linalg::Mat;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub struct ProbeInput<'a> {
    pub spec: &'a Spec,
    pub prob: &'a Arc<FockProblem>,
    /// The initial (GWH) density: what the first, always full, build of
    /// every SCF sees. The stream replay and the sequential baseline use
    /// it so they describe the same build as `core.build_first_s`.
    pub d0: &'a Mat,
    /// Converged Fock and density matrices of the workload's SCF.
    pub fock: &'a Mat,
    pub density: &'a Mat,
    pub df: Option<&'a Arc<DfBuild>>,
    /// Wall of [`seq_build`] on `d0`.
    pub seq_build_s: f64,
    pub seed: u64,
}

/// Median wall seconds of `reps` calls of `f`, all under one span.
fn timed_median<T>(tracer: &Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let id = tracer.begin(name, None);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    tracer.end(id);
    median(&times)
}

/// The sequential reference build on `d0`: the plain single-thread
/// baseline (`core.seq_build_s`) and the oracle of the parity check.
pub fn seq_build(tracer: &Tracer, prob: &FockProblem, d0: &Mat) -> (Vec<f64>, f64) {
    let ((g, _quartets), secs) =
        tracer.timed("core.seq_build", None, || build_g_seq(prob, d0.as_slice()));
    (g, secs)
}

pub fn run_all(inp: &ProbeInput, tracer: &Tracer, m: &mut MetricSet) {
    chem_and_eri_setup(inp, tracer, m);
    let stream_s = eri_kernels(inp, tracer, m);
    m.set("core.seq_build_s", inp.seq_build_s);
    // The sequential build minus its kernels: screen + gather + scatter.
    m.set("core.sink_s", (inp.seq_build_s - stream_s).max(0.0));
    eri_df(inp, tracer, m);
    linalg_probes(inp, tracer, m);
    ga_micro(inp, tracer, m);
    core_steps(inp, tracer, m);
}

fn chem_and_eri_setup(inp: &ProbeInput, tracer: &Tracer, m: &mut MetricSet) {
    let spec = inp.spec;
    let make_basis = || {
        let b = BasisInstance::new(spec.molecule.clone(), spec.basis).expect("basis");
        reorder(&b, spec.ordering())
    };
    m.set(
        "chem.basis_s",
        timed_median(tracer, "chem.basis", 5, make_basis),
    );
    let basis = make_basis();
    m.set("chem.nshells", basis.nshells() as f64);
    m.set("chem.nbf", basis.nbf as f64);

    let tau = inp.prob.tau;
    m.set(
        "eri.schwarz_s",
        timed_median(tracer, "eri.schwarz", 3, || Screening::compute(&basis, tau)),
    );
    let screening = Screening::compute(&basis, tau);
    m.set("eri.sig_pairs", screening.sig_pair_count() as f64);
    m.set(
        "eri.unique_sig_quartets",
        screening.unique_significant_quartets() as f64,
    );
    m.set(
        "eri.pairdata_s",
        timed_median(tracer, "eri.pairdata", 3, || {
            ShellPairData::build(&basis, &screening)
        }),
    );
    m.set("eri.pairdata_bytes", inp.prob.pairs().bytes() as f64);
    m.set(
        "eri.oneints_s",
        timed_median(tracer, "eri.oneints", 3, || {
            oneints::one_electron_matrices(&basis)
        }),
    );
}

#[derive(Clone, Copy, PartialEq)]
enum Stratum {
    S,
    Sp,
    D,
}

const STRATA: [(Stratum, &str); 3] = [
    (Stratum::S, "eri.s.ns_per_primquartet"),
    (Stratum::Sp, "eri.sp.ns_per_primquartet"),
    (Stratum::D, "eri.d.ns_per_primquartet"),
];

fn stratum_of_momenta(ls: [u8; 4]) -> Stratum {
    match ls.into_iter().max().unwrap_or(0) {
        0 => Stratum::S,
        1 => Stratum::Sp,
        _ => Stratum::D,
    }
}

/// Stratum of a `psss`-style class code; `None` for the scalar fallback.
fn stratum_of_code(code: &str) -> Option<Stratum> {
    let l = |c: char| "spd".find(c).map(|i| i as u8);
    let ls: Vec<u8> = code.chars().map_while(l).collect();
    (ls.len() == 4 && code.len() == 4).then(|| stratum_of_momenta([ls[0], ls[1], ls[2], ls[3]]))
}

/// Replay one full build's surviving quartet stream, single-threaded,
/// through `ClassBatcher::flush` with a no-op sink: the kernels alone,
/// without screening tests, gathers into D or scatters into F. Normalised
/// by primitive quartets (Σ nprim_pairs(bra)·nprim_pairs(ket)) so classes
/// of different contraction depth compare.
/// Returns `eri.stream_s`.
fn eri_kernels(inp: &ProbeInput, tracer: &Tracer, m: &mut MetricSet) -> f64 {
    let prob = inp.prob.as_ref();
    let pairs = prob.pairs();
    let sh = &prob.basis.shells;
    let dn = DensityNorms::compute(&prob.basis, inp.d0.as_slice());
    let n = prob.nshells();

    // The stream, task by task, exactly as `do_task` selects it.
    let mut tasks: Vec<Vec<(Option<QuartetClass>, [u32; 4])>> = Vec::with_capacity(n * n);
    let mut prim = [0u64; 3];
    let (mut quartets, mut fallback) = (0u64, 0u64);
    for a in 0..n {
        for b in 0..n {
            let mut list = Vec::new();
            for &p in prob.phi(a) {
                for &q in prob.phi(b) {
                    let (p, q) = (p as usize, q as usize);
                    if !prob.quartet_selected_weighted(&dn, a, p, b, q) {
                        continue;
                    }
                    let ls = [sh[a].l, sh[p].l, sh[b].l, sh[q].l];
                    let class = QuartetClass::try_of(ls[0], ls[1], ls[2], ls[3]);
                    fallback += u64::from(class.is_none());
                    let np = |i, j| pairs.view(i, j).expect("significant pair").nprim_pairs();
                    prim[stratum_of_momenta(ls) as usize] += (np(a, p) * np(b, q)) as u64;
                    quartets += 1;
                    list.push((class, [a as u32, p as u32, b as u32, q as u32]));
                }
            }
            tasks.push(list);
        }
    }

    let mut eng = EriEngine::new();
    let mut batcher = ClassBatcher::new();
    let ((), stream_s) = tracer.timed("eri.stream", None, || {
        for list in &tasks {
            for &(class, quartet) in list {
                batcher.push(class, quartet);
            }
            batcher.flush(&mut eng, pairs, |_, block| {
                black_box(block);
            });
        }
    });
    let mut ns = [0u64; 3];
    for e in batcher.take_stats().entries() {
        if let Some(s) = stratum_of_code(&e.code) {
            ns[s as usize] += e.ns;
        }
    }
    let prim_total: u64 = prim.iter().sum();
    m.set("eri.stream_s", stream_s);
    m.set("eri.stream_quartets_per_s", quartets as f64 / stream_s);
    m.set(
        "eri.stream_ns_per_primquartet",
        stream_s * 1e9 / prim_total.max(1) as f64,
    );
    for (s, name) in STRATA {
        let i = s as usize;
        if prim[i] > 0 {
            m.set(name, ns[i] as f64 / prim[i] as f64);
        }
    }
    m.set("eri.fallback_quartets", fallback as f64);

    // Boys function on a seeded argument array: the regime mix of a real
    // build (tabulated range and the asymptotic tail).
    const NT: usize = 1 << 16;
    const M_MAX: usize = 4;
    let mut rng = Rng::new(inp.seed);
    let ts: Vec<f64> = (0..NT).map(|_| rng.next_f64() * 45.0).collect();
    let mut out = vec![0.0; NT * (M_MAX + 1)];
    let boys_s = timed_median(tracer, "eri.boys", 5, || {
        eri::boys::boys_fast_batch(M_MAX, &ts, &mut out);
        out[NT]
    });
    m.set("eri.boys_ns_per_eval", boys_s * 1e9 / NT as f64);

    m.set(
        "eri.dnorms_s",
        timed_median(tracer, "eri.dnorms", 5, || {
            DensityNorms::compute(&prob.basis, inp.density.as_slice())
        }),
    );
    stream_s
}

fn eri_df(inp: &ProbeInput, tracer: &Tracer, m: &mut MetricSet) {
    let Some(df) = inp.df else { return };
    let prob = inp.prob.as_ref();
    // The fitted tensor is cached from set-up; its report carries the
    // 3-centre build time the program measured itself.
    let data = df.data(prob, &obs::Recorder::disabled());
    m.set("eri.df_naux", data.naux as f64);
    m.set("eri.df_3c_s", data.t_3c);
    let aux = AuxBasis::generate(&prob.basis, &AuxSpec::default());
    let (metric, metric_s) = tracer.timed("eri.df_metric", None, || eri::df::two_center(&aux));
    m.set("eri.df_metric_s", metric_s);
    let metric = Mat::from_vec(aux.naux, aux.naux, metric);
    let (l, chol_s) = tracer.timed("linalg.cholesky", None, || cholesky(&metric));
    black_box(l);
    m.set("linalg.cholesky_s", chol_s);
    let nbf = prob.nbf();
    m.set(
        "linalg.df_jk_s",
        timed_median(tracer, "linalg.df_jk", 3, || {
            linalg::df::df_jk(&data.b, inp.density.as_slice(), data.naux, nbf)
        }),
    );
}

fn linalg_probes(inp: &ProbeInput, tracer: &Tracer, m: &mut MetricSet) {
    let one = inp.prob.one_electron();
    let nbf = inp.prob.nbf();
    let nocc = inp.prob.basis.molecule.nocc();
    let f_ortho = gemm(1.0, &gemm_tn(&one.x, inp.fock), &one.x, 0.0, None);
    m.set(
        "linalg.eig_s",
        timed_median(tracer, "linalg.eig", 3, || sym_eig(&f_ortho)),
    );
    let gemm_s = timed_median(tracer, "linalg.gemm", 5, || {
        gemm(1.0, inp.fock, inp.density, 0.0, None)
    });
    m.set("linalg.gemm_s", gemm_s);
    m.set(
        "linalg.gemm_gflops",
        2.0 * (nbf as f64).powi(3) / gemm_s / 1e9,
    );
    m.set(
        "linalg.inv_sqrt_s",
        timed_median(tracer, "linalg.inv_sqrt", 3, || inverse_sqrt(&one.s, 1e-10)),
    );
    let (pur, purify_s) = tracer.timed("linalg.purify", None, || {
        purify_canonical(&f_ortho, nocc, 1e-14, 200)
    });
    m.set("linalg.purify_s", purify_s);
    m.set("linalg.purify_iters", pur.iterations as f64);
    if inp.df.is_none() {
        // Exact workloads have no aux metric; the overlap is their SPD matrix.
        m.set(
            "linalg.cholesky_s",
            timed_median(tracer, "linalg.cholesky", 3, || cholesky(&one.s)),
        );
    }
}

/// Two callers hammering one `GlobalArray` with gets and accumulates of
/// patches the size the builders move (a few shells' worth of basis
/// functions), half of them remote.
fn ga_micro(inp: &ProbeInput, tracer: &Tracer, m: &mut MetricSet) {
    if inp.spec.family == Family::Df {
        return;
    }
    const CALLS: usize = 20_000;
    let nbf = inp.prob.nbf();
    let side = (nbf / 4).clamp(1, 32);
    let ga = GlobalArray::zeros(ProcessGrid::new(1, NPROCS), nbf, nbf);
    let id = tracer.begin("distrt.ga_micro", None);
    let per_caller: Vec<(f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NPROCS)
            .map(|caller| {
                let ga = &ga;
                let mut rng = Rng::new(inp.seed ^ (caller as u64 + 1));
                s.spawn(move || {
                    let spots: Vec<(usize, usize)> = (0..CALLS)
                        .map(|_| (rng.below(nbf - side + 1), rng.below(nbf - side + 1)))
                        .collect();
                    let mut buf = vec![1e-3; side * side];
                    let t = Instant::now();
                    for &(r, c) in &spots {
                        ga.get(caller, r..r + side, c..c + side, &mut buf);
                    }
                    let get_s = t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    for &(r, c) in &spots {
                        ga.acc(caller, r..r + side, c..c + side, &buf, 1.0);
                    }
                    (get_s, t.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("GA caller panicked"))
            .collect()
    });
    tracer.end(id);
    let get_s = mean(&per_caller.iter().map(|p| p.0).collect::<Vec<_>>());
    let acc: Vec<f64> = per_caller.iter().map(|p| p.1).collect();
    m.set("distrt.ga_get_ns_per_call", get_s * 1e9 / CALLS as f64);
    m.set("distrt.ga_acc_ns_per_call", mean(&acc) * 1e9 / CALLS as f64);
    let bytes = (NPROCS * CALLS * side * side * 8) as f64;
    let slowest = acc.iter().copied().fold(0.0, f64::max);
    m.set("distrt.ga_acc_mb_per_s", bytes / 1e6 / slowest);
}

/// The SCF loop's non-build steps, one call each at a time.
fn core_steps(inp: &ProbeInput, tracer: &Tracer, m: &mut MetricSet) {
    let one = inp.prob.one_electron();
    let nocc = inp.prob.basis.molecule.nocc();
    m.set(
        "core.density_step_s",
        timed_median(tracer, "core.density_step", 5, || {
            density_from_fock(inp.fock, &one.x, nocc, DensityMethod::Diagonalize)
        }),
    );
    // Eight calls fill the subspace, as a converging SCF does.
    let mut diis = Diis::new(8);
    let id = tracer.begin("core.diis", None);
    let t = Instant::now();
    for _ in 0..8 {
        black_box(diis.extrapolate(inp.fock, inp.density, &one.s));
    }
    m.set("core.diis_s", t.elapsed().as_secs_f64() / 8.0);
    tracer.end(id);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_follow_the_highest_momentum() {
        assert!(stratum_of_code("ssss") == Some(Stratum::S));
        assert!(stratum_of_code("psss") == Some(Stratum::Sp));
        assert!(stratum_of_code("ppds") == Some(Stratum::D));
        assert!(stratum_of_code("fallback").is_none());
        assert!(stratum_of_momenta([0, 0, 0, 0]) == Stratum::S);
        assert!(stratum_of_momenta([1, 0, 1, 0]) == Stratum::Sp);
        assert!(stratum_of_momenta([0, 2, 0, 0]) == Stratum::D);
    }
}
