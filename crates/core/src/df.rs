//! Density-fitting (RI-JK) Fock builder — the third algorithm family
//! behind [`FockBuild`], next to the exact-exchange quartet loops.
//!
//! Instead of the O(n⁴) quartet enumeration, G(D) = 2J − K is assembled
//! from a once-per-problem *fitted* 3-index tensor:
//!
//! 1. generate an even-tempered auxiliary basis ([`eri::AuxBasis`]),
//! 2. compute the 2-center metric `J_PQ = (P|Q)` and the screened
//!    3-center tensor `A_{P,μν} = (P|μν)` via the dummy-shell trick,
//! 3. whiten: `B = L⁻¹·A` from the Cholesky factor `J = L·Lᵀ`, falling
//!    back to the eigendecomposition pseudo-inverse square root
//!    `B = J^{−1/2}·A` when the auto-generated auxiliary basis is
//!    near-linearly-dependent,
//! 4. per SCF iteration, J and K come from one streamed pass over `B`,
//!    two small register-blocked products per auxiliary block
//!    ([`linalg::df::df_jk`]).
//!
//! The setup (steps 1–3) is cached inside the builder behind a problem
//! fingerprint, so an SCF loop pays for the integrals once; the cache
//! also survives the service layer's shared `Arc<dyn FockBuild>` reuse
//! across jobs on the same problem. Telemetry mirrors the exact paths:
//! [`DF_3C_NS_COUNTER`], [`DF_METRIC_NS_COUNTER`], [`DF_GEMM_NS_COUNTER`]
//! and the [`DF_FIT_ERROR_HISTOGRAM`] fitting-quality probe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::build::{BuildError, BuildOutcome, BuildReport, FockBuild};
use crate::tasks::FockProblem;
use eri::{AuxBasis, AuxSpec};
use linalg::eig::pseudo_inverse_sqrt;
use linalg::gemm::gemm;
use linalg::solve::{cholesky, forward_substitute};
use linalg::Mat;
use obs::Recorder;

/// Counter: nanoseconds spent building the screened 3-center tensor.
pub const DF_3C_NS_COUNTER: &str = "df.3c_ns";

/// Counter: nanoseconds spent on the 2-center metric — integrals plus the
/// Cholesky (or eigendecomposition) solve that whitens the 3-center
/// tensor.
pub const DF_METRIC_NS_COUNTER: &str = "df.metric_ns";

/// Counter: nanoseconds spent in the per-iteration J/K GEMM assembly.
pub const DF_GEMM_NS_COUNTER: &str = "df.gemm_ns";

/// Histogram: the setup's max diagonal fitting residual
/// `max|(μν|μν) − Σ_P B²_{P,μν}|` in pico-units (`(err · 1e12) as u64`),
/// recorded once per fitted setup.
pub const DF_FIT_ERROR_HISTOGRAM: &str = "df.fit_error";

/// Relative eigenvalue drop tolerance for the pseudo-inverse fallback.
const METRIC_DROP_TOL: f64 = 1e-10;

/// One problem's fitted setup: the whitened tensor plus provenance. Built
/// once per (problem, spec) and shared by every iteration.
pub struct DfData {
    pub naux: usize,
    pub nbf: usize,
    /// Whitened tensor `B`, row-major `[Q][μ][ν]`, `naux·nbf²` doubles,
    /// satisfying `(μν|λσ) ≈ Σ_Q B_{Q,μν} B_{Q,λσ}`.
    pub b: Vec<f64>,
    /// Max diagonal fitting residual over significant pairs.
    pub fit_error: f64,
    /// Whether the Cholesky route succeeded (false ⇒ eigendecomposition
    /// fallback was used).
    pub used_cholesky: bool,
    /// Auxiliary directions kept by the fallback (== naux on the Cholesky
    /// route).
    pub aux_kept: usize,
    /// Aux-shell × shell-pair blocks of the 3-center tensor computed /
    /// Schwarz-skipped.
    pub blocks_computed: u64,
    pub blocks_skipped: u64,
    /// Setup wall times (seconds): 3-center build and metric+whitening.
    pub t_3c: f64,
    pub t_metric: f64,
}

/// FNV-1a over everything that determines the fitted setup: the full
/// shell list (centres, exponents, coefficients, offsets), the screening
/// tolerance, and the auxiliary spec. Two problems agreeing on all of it
/// produce bit-identical tensors, so the cached setup is safe to share.
fn fingerprint(prob: &FockProblem, spec: &AuxSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    put(prob.tau.to_bits());
    let (max_l, beta_bits) = spec.key_bits();
    put(max_l as u64);
    put(beta_bits);
    put(prob.basis.shells.len() as u64);
    for sh in &prob.basis.shells {
        put(sh.atom as u64);
        put(sh.l as u64);
        put(sh.bf_offset as u64);
        put(sh.center.x.to_bits());
        put(sh.center.y.to_bits());
        put(sh.center.z.to_bits());
        for &e in sh.exps.iter() {
            put(e.to_bits());
        }
        for &c in sh.coefs.iter() {
            put(c.to_bits());
        }
    }
    h
}

/// Columns of `A` one whitening panel solves at a time.
const WHITEN_PANEL: usize = 32;

/// `B = L⁻¹·A` in place on the `naux × nbf²` tensor `a`, solving only the
/// `nbf(nbf+1)/2` columns with μ ≥ ν and mirroring each into its νμ
/// twin. `A` is bitwise symmetric in μν, and [`forward_substitute`]
/// treats every column alike, so the result is bitwise the full-width
/// solve. Scoped threads claim panels of [`WHITEN_PANEL`] columns: each
/// copies its columns out, solves them in a cache-sized buffer and writes
/// them back, touching the shared tensor only under its lock.
fn whiten_unique_columns(l: &Mat, a: &mut [f64], nbf: usize) {
    let naux = l.nrows();
    let nn = nbf * nbf;
    let unique: Vec<(usize, usize)> = (0..nbf)
        .flat_map(|mu| (0..=mu).map(move |nu| (mu, nu)))
        .collect();
    let panels: Vec<&[(usize, usize)]> = unique.chunks(WHITEN_PANEL).collect();
    let next = AtomicUsize::new(0);
    let tensor = Mutex::new(a);
    let worker = || {
        while let Some(cols) = panels.get(next.fetch_add(1, Ordering::Relaxed)) {
            let mut panel = {
                let a = tensor.lock().unwrap();
                let gathered = (0..naux)
                    .flat_map(|q| cols.iter().map(move |&(mu, nu)| q * nn + mu * nbf + nu))
                    .map(|i| a[i])
                    .collect();
                Mat::from_vec(naux, cols.len(), gathered)
            };
            forward_substitute(l, &mut panel);
            let mut a = tensor.lock().unwrap();
            for (q, row) in panel.as_slice().chunks_exact(cols.len()).enumerate() {
                for (&v, &(mu, nu)) in row.iter().zip(*cols) {
                    a[q * nn + mu * nbf + nu] = v;
                    a[q * nn + nu * nbf + mu] = v;
                }
            }
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 1..threads.min(panels.len()) {
            s.spawn(worker);
        }
        worker();
    });
}

/// Run the full fitting pipeline for `prob` under `spec`, recording the
/// setup telemetry into `rec`.
fn fit(prob: &FockProblem, spec: &AuxSpec, rec: &Recorder) -> Arc<DfData> {
    let nbf = prob.nbf();
    let t_metric_start = Instant::now();
    let aux = AuxBasis::generate(&prob.basis, spec);
    let naux = aux.naux;
    let metric = eri::df::two_center(&aux);
    let aux_q = eri::df::aux_schwarz(&aux, &metric);
    // Factor the metric before the 3-center tensor exists, so the two
    // never share the memory peak: Cholesky when numerically SPD, else
    // the canonical-orthogonalization pseudo-inverse square root.
    let metric = Mat::from_vec(naux, naux, metric);
    let factor = cholesky(&metric).ok_or_else(|| pseudo_inverse_sqrt(&metric, METRIC_DROP_TOL));
    drop(metric);
    let t_metric_factor = t_metric_start.elapsed().as_secs_f64();

    let t_3c_start = Instant::now();
    let tc = eri::df::three_center(
        &prob.basis,
        prob.pairs(),
        &prob.screening,
        &aux,
        &aux_q,
        prob.tau,
    );
    let t_3c = t_3c_start.elapsed().as_secs_f64();

    let t_solve_start = Instant::now();
    let (b, used_cholesky, aux_kept) = match factor {
        Ok(l) => {
            let mut b = tc.a;
            whiten_unique_columns(&l, &mut b, nbf);
            (b, true, naux)
        }
        Err((x, kept)) => {
            let am = Mat::from_vec(naux, nbf * nbf, tc.a);
            (gemm(1.0, &x, &am, 0.0, None).into_vec(), false, kept)
        }
    };
    let t_metric = t_metric_factor + t_solve_start.elapsed().as_secs_f64();

    let fit_error = eri::df::max_diag_residual(&prob.basis, prob.pairs(), &b, naux);
    rec.counter(DF_3C_NS_COUNTER).add((t_3c * 1e9) as u64);
    rec.counter(DF_METRIC_NS_COUNTER)
        .add((t_metric * 1e9) as u64);
    rec.histogram(DF_FIT_ERROR_HISTOGRAM)
        .record((fit_error.max(0.0) * 1e12) as u64);

    Arc::new(DfData {
        naux,
        nbf,
        b,
        fit_error,
        used_cholesky,
        aux_kept,
        blocks_computed: tc.blocks_computed,
        blocks_skipped: tc.blocks_skipped,
        t_3c,
        t_metric,
    })
}

/// The density-fitting builder. Cheap to construct; all heavy state lives
/// in the per-problem cache, keyed by [`fingerprint`] so one shared
/// `Arc<DfBuild>` can serve consecutive problems without stale reuse.
pub struct DfBuild {
    pub spec: AuxSpec,
    cache: Mutex<Option<(u64, Arc<DfData>)>>,
}

impl DfBuild {
    pub fn new(spec: AuxSpec) -> DfBuild {
        DfBuild {
            spec,
            cache: Mutex::new(None),
        }
    }

    /// The fitted setup for `prob`, computing and caching it on first use.
    /// The lock is held across the fit so concurrent callers on the same
    /// problem do the integrals once.
    pub fn data(&self, prob: &FockProblem, rec: &Recorder) -> Arc<DfData> {
        let fp = fingerprint(prob, &self.spec);
        let mut guard = self.cache.lock().unwrap();
        if let Some((key, data)) = guard.as_ref() {
            if *key == fp {
                return data.clone();
            }
        }
        let data = fit(prob, &self.spec, rec);
        *guard = Some((fp, data.clone()));
        data
    }
}

impl Default for DfBuild {
    fn default() -> Self {
        DfBuild::new(AuxSpec::default())
    }
}

impl FockBuild for DfBuild {
    fn name(&self) -> &'static str {
        "df"
    }

    fn build(
        &self,
        prob: &FockProblem,
        d: &[f64],
        rec: &Recorder,
    ) -> Result<BuildOutcome, BuildError> {
        let nbf = prob.nbf();
        assert_eq!(d.len(), nbf * nbf, "density shape mismatch");
        let start = Instant::now();
        let data = self.data(prob, rec);
        let gemm_start = Instant::now();
        let (j, k) = linalg::df::df_jk(&data.b, d, data.naux, nbf);
        let g: Vec<f64> = j.iter().zip(&k).map(|(jv, kv)| 2.0 * jv - kv).collect();
        rec.counter(DF_GEMM_NS_COUNTER)
            .add(gemm_start.elapsed().as_nanos() as u64);
        let t_fock = start.elapsed().as_secs_f64();
        let report = BuildReport::zeros(1)
            .with_t_fock(vec![t_fock])
            .with_t_comp(vec![t_fock]);
        Ok(BuildOutcome { g, report })
    }

    fn aux_key(&self) -> Option<(u8, u64)> {
        Some(self.spec.key_bits())
    }
}

/// Convenience constructor in the shared-pointer form the SCF
/// configuration stores.
pub fn df_builder(spec: AuxSpec) -> Arc<dyn FockBuild + Send + Sync> {
    Arc::new(DfBuild::new(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::reorder::ShellOrdering;
    use chem::{generators, BasisSetKind};
    use obs::Recorder;

    fn water_problem() -> FockProblem {
        FockProblem::new(
            generators::water(),
            BasisSetKind::Sto3g,
            1e-11,
            ShellOrdering::Natural,
        )
        .unwrap()
    }

    fn test_density(nbf: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut d = vec![0.0; nbf * nbf];
        for i in 0..nbf {
            for j in i..nbf {
                let v = next() * 0.3;
                d[i * nbf + j] = v;
                d[j * nbf + i] = v;
            }
        }
        d
    }

    #[test]
    fn setup_is_cached_per_problem_and_invalidated_on_change() {
        let build = DfBuild::new(AuxSpec::default());
        let prob = water_problem();
        let rec = Recorder::disabled();
        let d1 = build.data(&prob, &rec);
        let d2 = build.data(&prob, &rec);
        assert!(Arc::ptr_eq(&d1, &d2), "same problem must hit the cache");
        // A different molecule evicts and refits.
        let other = FockProblem::new(
            generators::methane(),
            BasisSetKind::Sto3g,
            1e-11,
            ShellOrdering::Natural,
        )
        .unwrap();
        let d3 = build.data(&other, &rec);
        assert!(!Arc::ptr_eq(&d1, &d3));
        assert_eq!(d3.nbf, other.nbf());
    }

    #[test]
    fn build_is_2j_minus_k_over_the_fitted_tensor() {
        let build = DfBuild::default();
        let prob = water_problem();
        let rec = Recorder::disabled();
        let nbf = prob.nbf();
        let d = test_density(nbf, 17);
        let out = build.build(&prob, &d, &rec).unwrap();
        let data = build.data(&prob, &rec);
        let (j, k) = linalg::df::df_jk(&data.b, &d, data.naux, nbf);
        for i in 0..nbf * nbf {
            let want = 2.0 * j[i] - k[i];
            assert!((out.g[i] - want).abs() < 1e-12, "at {i}");
        }
        // G inherits symmetry from symmetric B blocks and D.
        for i in 0..nbf {
            for jj in 0..nbf {
                assert!((out.g[i * nbf + jj] - out.g[jj * nbf + i]).abs() < 1e-10);
            }
        }
        assert_eq!(out.report.nprocs(), 1);
        assert!(out.report.t_fock[0] >= 0.0);
    }

    #[test]
    fn unique_column_whitening_is_bitwise_the_full_width_solve() {
        for mol in [generators::water(), generators::methane()] {
            let prob =
                FockProblem::new(mol, BasisSetKind::Sto3g, 1e-11, ShellOrdering::Natural).unwrap();
            let spec = AuxSpec::default();
            let data = fit(&prob, &spec, &Recorder::disabled());
            assert!(data.used_cholesky);
            let aux = AuxBasis::generate(&prob.basis, &spec);
            let metric = eri::df::two_center(&aux);
            let aux_q = eri::df::aux_schwarz(&aux, &metric);
            let tc = eri::df::three_center(
                &prob.basis,
                prob.pairs(),
                &prob.screening,
                &aux,
                &aux_q,
                prob.tau,
            );
            let l = cholesky(&Mat::from_vec(aux.naux, aux.naux, metric)).unwrap();
            let mut full = Mat::from_vec(aux.naux, prob.nbf() * prob.nbf(), tc.a);
            forward_substitute(&l, &mut full);
            assert_eq!(data.b, full.into_vec());
        }
    }

    #[test]
    fn fit_quality_and_telemetry_are_recorded() {
        let build = DfBuild::default();
        let prob = water_problem();
        let rec = Recorder::enabled();
        let data = build.data(&prob, &rec);
        assert!(data.naux > prob.nbf());
        assert!(data.blocks_computed > 0);
        assert!(
            data.fit_error < 1e-2,
            "even-tempered fit too poor: {:e}",
            data.fit_error
        );
        assert!(data.used_cholesky || data.aux_kept < data.naux);
        let snap = rec.metrics_snapshot();
        assert!(snap.counter(DF_METRIC_NS_COUNTER) > 0);
        assert!(snap.histograms.contains_key(DF_FIT_ERROR_HISTOGRAM));
    }

    #[test]
    fn df_builder_identity() {
        let b = df_builder(AuxSpec {
            max_l: 1,
            beta: 2.5,
        });
        assert_eq!(b.name(), "df");
        assert_eq!(b.aux_key(), Some((1, 2.5f64.to_bits())));
        // Exact builders stay aux-free.
        assert_eq!(crate::build::seq_builder().aux_key(), None);
    }
}
