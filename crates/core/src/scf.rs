//! The Hartree-Fock SCF driver (Algorithm 1 of the paper).
//!
//! Precomputes S, H_core and X = S^{−1/2}; then iterates Fock construction
//! (any of the parallel builds) and density construction (eigensolve or
//! canonical purification — the paper's Table IX choice) to convergence.
//!
//! Density convention: D = C_occ · C_occᵀ; the G build computes
//! G(D) = 2J(D) − K(D) so that F = H_core + G and
//! E_elec = Σ_ij D_ij (H_ij + F_ij).

use crate::build::{seq_builder, BuildError, BuildReport, FockBuild};
use crate::tasks::FockProblem;
use chem::molecule::Molecule;
use chem::reorder::ShellOrdering;
use chem::BasisSetKind;
use eri::oneints;
use linalg::eig::sym_eig;
use linalg::gemm::{gemm, gemm_nt, gemm_tn};
use linalg::purify::purify_canonical;
use linalg::Mat;
use obs::{EventKind, Recorder};
use std::sync::Arc;

/// How the density is obtained from F each iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DensityMethod {
    /// Diagonalize F' (Algorithm 1 lines 8–10).
    Diagonalize,
    /// Canonical purification (Section IV-E).
    Purification,
}

/// Initial-density guess for the SCF loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScfGuess {
    /// Diagonalize the bare core Hamiltonian (no electron repulsion).
    Core,
    /// Generalized Wolfsberg–Helmholz: F⁰_ij = ½·K·(H_ii + H_jj)·S_ij
    /// (K = 1.75, diagonal kept at H_ii). The overlap-weighted average
    /// mimics the missing two-electron repulsion well enough to start
    /// much closer to the converged density than the bare core guess —
    /// which also makes ΔD small from the first incremental iteration.
    Gwh,
}

/// Why an SCF run failed.
#[derive(Debug, Clone)]
pub enum ScfError {
    /// Problem setup failed (molecule/basis construction, screening tables).
    Setup(String),
    /// More occupied orbitals than basis functions: the closed-shell
    /// determinant cannot be represented in this basis.
    TooManyElectrons { nocc: usize, nbf: usize },
    /// The Fock builder failed unrecoverably (fault injection exhausted
    /// retries or recovery), and no checkpoint was available to re-base.
    Build(BuildError),
    /// `require_convergence` was set and the loop ran out of iterations.
    /// The partial energy history is preserved for diagnosis.
    NotConverged {
        iterations: usize,
        energy: f64,
        history: Vec<f64>,
    },
}

impl std::fmt::Display for ScfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScfError::Setup(msg) => write!(f, "SCF setup failed: {msg}"),
            ScfError::TooManyElectrons { nocc, nbf } => {
                write!(f, "{nocc} occupied orbitals exceed {nbf} basis functions")
            }
            ScfError::Build(e) => write!(f, "Fock build failed: {e}"),
            ScfError::NotConverged {
                iterations, energy, ..
            } => write!(
                f,
                "SCF not converged after {iterations} iterations (E = {energy})"
            ),
        }
    }
}

impl std::error::Error for ScfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScfError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for ScfError {
    fn from(e: BuildError) -> Self {
        ScfError::Build(e)
    }
}

/// Everything needed to resume the SCF loop mid-run: the densities and
/// accumulated G of the incremental scheme, the energy history, and the
/// DIIS subspace. Taken every [`ScfConfig::checkpoint_every`] iterations;
/// the degraded-mode recovery path falls back to the last one when a Fock
/// build fails unrecoverably.
#[derive(Clone)]
pub struct ScfCheckpoint {
    /// Next iteration to run when resuming from this checkpoint.
    pub iter: usize,
    pub d: Mat,
    pub g_prev: Mat,
    pub d_prev: Mat,
    pub fock: Mat,
    pub e_prev: f64,
    pub history: Vec<f64>,
    pub diis: crate::diis::Diis,
}

impl std::fmt::Debug for ScfCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScfCheckpoint")
            .field("iter", &self.iter)
            .field("e_prev", &self.e_prev)
            .field("history_len", &self.history.len())
            .finish()
    }
}

/// SCF configuration. Construct fluently with [`ScfConfig::builder`]
/// (preferred — the struct is `#[non_exhaustive]`, so downstream crates
/// cannot use struct-update syntax, and new service knobs never break
/// existing call sites). Within this crate, [`ScfConfig::default`] plus
/// struct update still works.
#[derive(Clone)]
#[non_exhaustive]
pub struct ScfConfig {
    pub max_iter: usize,
    /// Accelerate convergence with DIIS (Pulay) extrapolation.
    pub use_diis: bool,
    /// Incremental (ΔD) Fock builds: after the first iteration, build
    /// G(D_k − D_{k−1}) and add it to the previous G. As the SCF converges
    /// ΔD shrinks, so Cauchy–Schwarz screening on the effective density
    /// drops ever more quartets — the classic direct-SCF optimization that
    /// makes fast screening (the paper's §II-D machinery) pay off inside
    /// the loop. Changes only the work done, not the converged result.
    pub incremental: bool,
    /// Full-rebuild period for incremental runs: every `rebuild_every`
    /// iterations G is rebuilt from the full density instead of ΔD,
    /// re-basing the accumulated G. Each ΔD build drops quartets worth up
    /// to ~τ each, and those errors *sum* across iterations in the
    /// accumulated G; periodic re-basing bounds the drift to one rebuild
    /// period's worth. 0 disables re-basing entirely — after the initial
    /// full build of iteration 0, every later iteration uses ΔD. Ignored
    /// when `incremental` is off.
    pub rebuild_every: usize,
    /// Convergence threshold on |ΔE| (hartree).
    pub e_tol: f64,
    /// Convergence threshold on max |ΔD|.
    pub d_tol: f64,
    /// Screening tolerance τ, used when [`run_scf`] constructs the
    /// [`FockProblem`]. A problem passed directly to [`run_scf_on`] keeps
    /// the τ it was built with; this field is then ignored.
    pub tau: f64,
    /// Shell ordering, used when [`run_scf`] constructs the
    /// [`FockProblem`]; like `tau`, ignored by [`run_scf_on`], whose
    /// problem is already ordered.
    pub ordering: ShellOrdering,
    /// Initial-density guess; defaults to the core Hamiltonian.
    pub guess: ScfGuess,
    /// The Fock builder the loop calls each iteration. Any
    /// [`FockBuild`] implementation; defaults to the sequential
    /// reference.
    pub builder: Arc<dyn FockBuild + Send + Sync>,
    pub density: DensityMethod,
    /// Telemetry sink threaded into every Fock build; iteration
    /// boundaries are recorded as side events. Disabled by default.
    pub recorder: Recorder,
    /// Treat running out of iterations as an error
    /// ([`ScfError::NotConverged`]) instead of returning an unconverged
    /// [`ScfResult`]. Off by default for backwards compatibility.
    pub require_convergence: bool,
    /// Snapshot an [`ScfCheckpoint`] every k iterations (0 = never). The
    /// last checkpoint is returned in [`ScfResult::checkpoint`] and is the
    /// fallback state for degraded-mode recovery after a failed build.
    pub checkpoint_every: usize,
    /// Resume a previous run: start from this checkpoint's state instead
    /// of the initial guess.
    pub resume: Option<ScfCheckpoint>,
}

impl std::fmt::Debug for ScfConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScfConfig")
            .field("max_iter", &self.max_iter)
            .field("use_diis", &self.use_diis)
            .field("incremental", &self.incremental)
            .field("rebuild_every", &self.rebuild_every)
            .field("e_tol", &self.e_tol)
            .field("d_tol", &self.d_tol)
            .field("tau", &self.tau)
            .field("guess", &self.guess)
            .field("builder", &self.builder.name())
            .field("density", &self.density)
            .field("recording", &self.recorder.is_enabled())
            .field("require_convergence", &self.require_convergence)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("resume", &self.resume.is_some())
            .finish()
    }
}

impl Default for ScfConfig {
    fn default() -> Self {
        ScfConfig {
            max_iter: 50,
            use_diis: false,
            incremental: false,
            rebuild_every: 8,
            e_tol: 1e-8,
            d_tol: 1e-6,
            tau: 1e-11,
            ordering: ShellOrdering::Natural,
            guess: ScfGuess::Core,
            builder: seq_builder(),
            density: DensityMethod::Diagonalize,
            recorder: Recorder::disabled(),
            require_convergence: false,
            checkpoint_every: 0,
            resume: None,
        }
    }
}

impl ScfConfig {
    /// Fluent construction: `ScfConfig::builder().max_iter(30).diis(true).build()`.
    pub fn builder() -> ScfConfigBuilder {
        ScfConfigBuilder {
            cfg: ScfConfig::default(),
        }
    }
}

/// Builder for [`ScfConfig`]. Starts from the defaults, so callers set
/// only what they need and new fields never break existing call sites.
#[derive(Debug, Clone, Default)]
pub struct ScfConfigBuilder {
    cfg: ScfConfig,
}

impl ScfConfigBuilder {
    pub fn max_iter(mut self, n: usize) -> Self {
        self.cfg.max_iter = n;
        self
    }

    pub fn diis(mut self, on: bool) -> Self {
        self.cfg.use_diis = on;
        self
    }

    pub fn incremental(mut self, on: bool) -> Self {
        self.cfg.incremental = on;
        self
    }

    pub fn rebuild_every(mut self, period: usize) -> Self {
        self.cfg.rebuild_every = period;
        self
    }

    pub fn e_tol(mut self, tol: f64) -> Self {
        self.cfg.e_tol = tol;
        self
    }

    pub fn d_tol(mut self, tol: f64) -> Self {
        self.cfg.d_tol = tol;
        self
    }

    pub fn tau(mut self, tau: f64) -> Self {
        self.cfg.tau = tau;
        self
    }

    pub fn guess(mut self, guess: ScfGuess) -> Self {
        self.cfg.guess = guess;
        self
    }

    pub fn ordering(mut self, ordering: ShellOrdering) -> Self {
        self.cfg.ordering = ordering;
        self
    }

    pub fn fock_builder(mut self, b: Arc<dyn FockBuild + Send + Sync>) -> Self {
        self.cfg.builder = b;
        self
    }

    pub fn density(mut self, method: DensityMethod) -> Self {
        self.cfg.density = method;
        self
    }

    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.cfg.recorder = rec;
        self
    }

    pub fn require_convergence(mut self, on: bool) -> Self {
        self.cfg.require_convergence = on;
        self
    }

    pub fn checkpoint_every(mut self, k: usize) -> Self {
        self.cfg.checkpoint_every = k;
        self
    }

    pub fn resume(mut self, cp: ScfCheckpoint) -> Self {
        self.cfg.resume = Some(cp);
        self
    }

    pub fn build(self) -> ScfConfig {
        self.cfg
    }
}

/// Result of an SCF run.
pub struct ScfResult {
    /// Total energy (electronic + nuclear repulsion), hartree.
    pub energy: f64,
    pub converged: bool,
    pub iterations: usize,
    /// Energy after each iteration.
    pub history: Vec<f64>,
    /// Final Fock matrix (problem ordering).
    pub fock: Mat,
    /// Final density matrix D = C_occ C_occᵀ.
    pub density: Mat,
    /// Per-iteration build reports from the Fock builder — quartet and
    /// density-skipped counts expose the iteration-over-iteration work
    /// decay of incremental runs.
    pub reports: Vec<BuildReport>,
    /// The problem (basis + screening + memoized setup) the run used —
    /// shared, so a cached problem serving many jobs is not duplicated.
    pub problem: Arc<FockProblem>,
    /// The last checkpoint taken (None unless `checkpoint_every > 0`).
    /// Feed it back through [`ScfConfig::resume`] to continue the run.
    pub checkpoint: Option<ScfCheckpoint>,
}

impl ScfResult {
    /// Total electric dipole moment about the origin, in atomic units:
    /// μ = Σ_A Z_A R_A − 2 Σ_ij D_ij ⟨i|r|j⟩ (closed shell; D = C_occ C_occᵀ).
    pub fn dipole_moment(&self) -> chem::Vec3 {
        let dm = oneints::dipole_matrices(&self.problem.basis, chem::Vec3::ZERO);
        let mut mu = chem::Vec3::ZERO;
        for atom in &self.problem.basis.molecule.atoms {
            mu += atom.pos * atom.z as f64;
        }
        let d = self.density.as_slice();
        let mut e = [0.0f64; 3];
        for (axis, m) in dm.iter().enumerate() {
            e[axis] = d.iter().zip(m).map(|(x, y)| x * y).sum::<f64>();
        }
        mu + chem::Vec3::new(-2.0 * e[0], -2.0 * e[1], -2.0 * e[2])
    }
}

/// Run restricted Hartree-Fock for a closed-shell molecule.
///
/// Under fault injection a build can fail unrecoverably; the loop then
/// degrades gracefully — an incremental (ΔD) failure re-bases with a full
/// rebuild, a full-build failure restores the last [`ScfCheckpoint`]
/// (once) and continues with incremental builds disabled — before finally
/// surfacing [`ScfError::Build`].
pub fn run_scf(
    molecule: Molecule,
    kind: BasisSetKind,
    cfg: ScfConfig,
) -> Result<ScfResult, ScfError> {
    let prob = FockProblem::new(molecule, kind, cfg.tau, cfg.ordering).map_err(ScfError::Setup)?;
    run_scf_on(Arc::new(prob), cfg)
}

/// Run restricted Hartree-Fock on an already-constructed, shareable
/// problem.
///
/// This is the shared-setup entry point the multi-tenant service layer
/// uses: the expensive per-(molecule, basis) setup — screening tables,
/// shell-pair data, one-electron matrices, the GWH guess — lives in the
/// `Arc<FockProblem>` and is built at most once no matter how many
/// concurrent jobs run over it. [`run_scf`] is a thin wrapper that
/// constructs a fresh problem from `cfg.tau` / `cfg.ordering` and
/// delegates here; a problem passed directly keeps its own τ and
/// ordering (those two config fields are ignored).
pub fn run_scf_on(prob: Arc<FockProblem>, cfg: ScfConfig) -> Result<ScfResult, ScfError> {
    let nocc = prob.basis.molecule.nocc();
    let e_nuc = prob.basis.molecule.nuclear_repulsion();
    let nbf = prob.nbf();
    if nocc > nbf {
        return Err(ScfError::TooManyElectrons { nocc, nbf });
    }

    let one = prob.one_electron();
    let (s, h, x) = (&one.s, &one.h, &one.x);
    let mut diis = crate::diis::Diis::new(8);

    let mut fock = h.clone();
    let mut g_prev = Mat::zeros(nbf, nbf);
    let mut d_prev = Mat::zeros(nbf, nbf);
    let mut e_prev = f64::INFINITY;
    let mut history = Vec::new();
    let mut start_iter = 0;
    let mut d = if let Some(cp) = &cfg.resume {
        g_prev = cp.g_prev.clone();
        d_prev = cp.d_prev.clone();
        fock = cp.fock.clone();
        e_prev = cp.e_prev;
        history = cp.history.clone();
        diis = cp.diis.clone();
        start_iter = cp.iter;
        cp.d.clone()
    } else {
        let f0 = match cfg.guess {
            ScfGuess::Core => h,
            ScfGuess::Gwh => prob.gwh_guess(),
        };
        density_from_fock(f0, x, nocc, cfg.density)
    };
    let mut converged = false;
    let mut iterations = 0;
    let mut reports = Vec::new();
    let mut last_checkpoint: Option<ScfCheckpoint> = None;
    // Degraded mode: after a checkpoint restore, stay on full builds (the
    // accumulated G of the incremental scheme is no longer trusted) and
    // never restore a second time.
    let mut restored_once = false;
    let mut forced_full = false;

    for it in start_iter..start_iter + cfg.max_iter {
        iterations = it - start_iter + 1;
        if cfg.recorder.is_enabled() {
            cfg.recorder
                .side_event(0, EventKind::IterStart { iter: it as u32 });
        }
        // Periodic full rebuilds re-base the accumulated G so per-ΔD-build
        // screening errors cannot pile up across the whole run.
        let full_build = forced_full
            || !cfg.incremental
            || it == start_iter
            || (cfg.rebuild_every > 0 && it.is_multiple_of(cfg.rebuild_every));
        let g_result: Result<Mat, BuildError> = if full_build {
            build_g(&prob, &d, &cfg).map(|(g, report)| {
                reports.push(report);
                g
            })
        } else {
            // G(D) = G(D_prev) + G(D - D_prev).
            let mut delta = d.clone();
            delta.axpy(-1.0, &d_prev);
            match build_g(&prob, &delta, &cfg) {
                Ok((mut g, report)) => {
                    reports.push(report);
                    g.axpy(1.0, &g_prev);
                    Ok(g)
                }
                // The ΔD contribution was lost mid-flight: re-base by
                // rebuilding from the full density instead.
                Err(_) => build_g(&prob, &d, &cfg).map(|(g, report)| {
                    reports.push(report);
                    g
                }),
            }
        };
        let g = match g_result {
            Ok(g) => g,
            Err(e) => match last_checkpoint.clone() {
                Some(cp) if !restored_once => {
                    restored_once = true;
                    forced_full = true;
                    d = cp.d;
                    g_prev = cp.g_prev;
                    d_prev = cp.d_prev;
                    fock = cp.fock;
                    e_prev = cp.e_prev;
                    history = cp.history;
                    diis = cp.diis;
                    continue;
                }
                _ => return Err(ScfError::Build(e)),
            },
        };
        if cfg.incremental {
            g_prev = g.clone();
            d_prev = d.clone();
        }
        fock = h.clone();
        fock.axpy(1.0, &g);

        // E_elec = Σ D (H + F).
        let mut e_elec = 0.0;
        for (dij, (hij, fij)) in d
            .as_slice()
            .iter()
            .zip(h.as_slice().iter().zip(fock.as_slice()))
        {
            e_elec += dij * (hij + fij);
        }
        let energy = e_elec + e_nuc;
        history.push(energy);

        let d_new = if cfg.use_diis {
            density_from_fock(&diis.extrapolate(&fock, &d, s), x, nocc, cfg.density)
        } else {
            density_from_fock(&fock, x, nocc, cfg.density)
        };
        let d_change = d_new.max_abs_diff(&d);
        let e_change = (energy - e_prev).abs();
        d = d_new;
        e_prev = energy;
        if cfg.checkpoint_every > 0 && iterations.is_multiple_of(cfg.checkpoint_every) {
            last_checkpoint = Some(ScfCheckpoint {
                iter: it + 1,
                d: d.clone(),
                g_prev: g_prev.clone(),
                d_prev: d_prev.clone(),
                fock: fock.clone(),
                e_prev,
                history: history.clone(),
                diis: diis.clone(),
            });
        }
        if cfg.recorder.is_enabled() {
            cfg.recorder
                .side_event(0, EventKind::IterEnd { iter: it as u32 });
        }
        if e_change < cfg.e_tol && d_change < cfg.d_tol {
            converged = true;
            break;
        }
    }

    if !converged && cfg.require_convergence {
        return Err(ScfError::NotConverged {
            iterations,
            energy: e_prev,
            history,
        });
    }
    Ok(ScfResult {
        energy: e_prev,
        converged,
        iterations,
        history,
        fock,
        density: d,
        reports,
        problem: prob,
        checkpoint: last_checkpoint,
    })
}

/// One density step: F' = XᵀFX → D' (eig or purification) → D = X D' Xᵀ.
pub fn density_from_fock(f: &Mat, x: &Mat, nocc: usize, method: DensityMethod) -> Mat {
    let f_ortho = gemm(1.0, &gemm_tn(x, f), x, 0.0, None);
    let d_ortho = match method {
        DensityMethod::Diagonalize => {
            let e = sym_eig(&f_ortho);
            let n = f.nrows();
            let mut occ = Mat::zeros(n, nocc);
            for j in 0..nocc {
                for i in 0..n {
                    occ[(i, j)] = e.vectors[(i, j)];
                }
            }
            gemm_nt(&occ, &occ)
        }
        DensityMethod::Purification => purify_canonical(&f_ortho, nocc, 1e-14, 200).density,
    };
    gemm(
        1.0,
        &gemm(1.0, x, &d_ortho, 0.0, None),
        &x.transpose(),
        0.0,
        None,
    )
}

fn build_g(prob: &FockProblem, d: &Mat, cfg: &ScfConfig) -> Result<(Mat, BuildReport), BuildError> {
    let nbf = prob.nbf();
    let out = cfg.builder.build(prob, d.as_slice(), &cfg.recorder)?;
    Ok((Mat::from_vec(nbf, nbf, out.g), out.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::generators;
    use distrt::ProcessGrid;

    #[test]
    fn h2_sto3g_energy_matches_szabo() {
        // Szabo & Ostlund: RHF/STO-3G for H2 at R = 1.4 a0 → E ≈ −1.1167 Ha.
        let r = run_scf(
            generators::hydrogen(1.4),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        assert!(r.converged, "SCF did not converge");
        assert!((r.energy - (-1.1167)).abs() < 2e-3, "E = {}", r.energy);
    }

    #[test]
    fn helium_sto3g_energy() {
        // Known RHF/STO-3G He atom energy: −2.807784 Ha.
        let r = run_scf(
            generators::helium(),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        assert!(r.converged);
        assert!((r.energy - (-2.807784)).abs() < 1e-4, "E = {}", r.energy);
    }

    #[test]
    fn water_sto3g_energy() {
        // RHF/STO-3G water at the near-experimental geometry ≈ −74.96 Ha.
        let r = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        assert!(r.converged, "did not converge in {} iters", r.iterations);
        assert!((r.energy - (-74.96)).abs() < 2e-2, "E = {}", r.energy);
    }

    #[test]
    fn h2_ccpvdz_lower_than_sto3g() {
        // The variational principle: a bigger basis gives a lower energy.
        let small = run_scf(
            generators::hydrogen(1.4),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        let big = run_scf(
            generators::hydrogen(1.4),
            BasisSetKind::CcPvdz,
            ScfConfig::default(),
        )
        .unwrap();
        assert!(big.converged);
        assert!(
            big.energy < small.energy,
            "{} !< {}",
            big.energy,
            small.energy
        );
    }

    #[test]
    fn purification_agrees_with_diagonalization() {
        let base = ScfConfig::default();
        let diag = run_scf(generators::water(), BasisSetKind::Sto3g, base.clone()).unwrap();
        let pur = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig {
                density: DensityMethod::Purification,
                ..base
            },
        )
        .unwrap();
        assert!(pur.converged);
        assert!(
            (diag.energy - pur.energy).abs() < 1e-6,
            "{} vs {}",
            diag.energy,
            pur.energy
        );
    }

    #[test]
    fn parallel_builders_agree_with_seq() {
        use crate::build::{gtfock_builder, nwchem_builder};
        use crate::gtfock::GtfockConfig;
        use crate::nwchem::NwchemConfig;
        let base = ScfConfig {
            max_iter: 12,
            ..ScfConfig::default()
        };
        let seq = run_scf(generators::water(), BasisSetKind::Sto3g, base.clone()).unwrap();
        let gt = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig {
                builder: gtfock_builder(GtfockConfig {
                    grid: ProcessGrid::new(2, 2),
                    steal: true.into(),
                    fault: None,
                }),
                ordering: ShellOrdering::cells_default(),
                ..base.clone()
            },
        )
        .unwrap();
        let nw = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig {
                builder: nwchem_builder(NwchemConfig {
                    nprocs: 2,
                    chunk: 5,
                }),
                ..base
            },
        )
        .unwrap();
        assert!(
            (seq.energy - gt.energy).abs() < 1e-8,
            "gtfock {} vs {}",
            gt.energy,
            seq.energy
        );
        assert!(
            (seq.energy - nw.energy).abs() < 1e-8,
            "nwchem {} vs {}",
            nw.energy,
            seq.energy
        );
    }

    #[test]
    fn builder_pattern_matches_struct_literal() {
        let fluent = ScfConfig::builder()
            .max_iter(30)
            .diis(true)
            .rebuild_every(4)
            .tau(1e-10)
            .build();
        assert_eq!(fluent.max_iter, 30);
        assert!(fluent.use_diis);
        assert_eq!(fluent.rebuild_every, 4);
        assert_eq!(fluent.tau, 1e-10);
        // Untouched fields keep the defaults.
        let def = ScfConfig::default();
        assert_eq!(fluent.e_tol, def.e_tol);
        assert_eq!(fluent.builder.name(), "seq");
    }

    #[test]
    fn scf_records_iteration_events() {
        let rec = Recorder::enabled();
        let cfg = ScfConfig::builder().recorder(rec.clone()).build();
        let r = run_scf(generators::hydrogen(1.4), BasisSetKind::Sto3g, cfg).unwrap();
        assert!(r.converged);
        let recording = rec.recording().unwrap();
        let iters = recording
            .all_events()
            .iter()
            .flatten()
            .filter(|e| matches!(e.kind, EventKind::IterStart { .. }))
            .count();
        assert_eq!(iters, r.iterations);
        // The seq builder ran inside: task events must be present.
        let tasks: u64 = recording.worker_totals().iter().map(|t| t.tasks).sum();
        assert!(tasks > 0);
    }

    #[test]
    fn diis_reaches_same_energy_at_least_as_fast() {
        let plain = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        let accel = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig {
                use_diis: true,
                ..ScfConfig::default()
            },
        )
        .unwrap();
        assert!(accel.converged);
        assert!(
            (plain.energy - accel.energy).abs() < 1e-7,
            "{} vs {}",
            plain.energy,
            accel.energy
        );
        assert!(
            accel.iterations <= plain.iterations + 2,
            "DIIS took {} vs plain {}",
            accel.iterations,
            plain.iterations
        );
    }

    #[test]
    fn water_631g_below_sto3g() {
        // 6-31G is variationally better than STO-3G for water.
        let small = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        let mid = run_scf(
            generators::water(),
            BasisSetKind::SixThirtyOneG,
            ScfConfig {
                use_diis: true,
                ..ScfConfig::default()
            },
        )
        .unwrap();
        assert!(mid.converged);
        assert!(
            mid.energy < small.energy,
            "{} !< {}",
            mid.energy,
            small.energy
        );
        // Literature RHF/6-31G water ≈ −75.98 Ha at near-experimental geometry.
        assert!((mid.energy - (-75.98)).abs() < 5e-2, "E = {}", mid.energy);
    }

    #[test]
    fn incremental_build_converges_to_same_energy() {
        let plain = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        let inc = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig {
                incremental: true,
                ..ScfConfig::default()
            },
        )
        .unwrap();
        assert!(inc.converged);
        assert!(
            (plain.energy - inc.energy).abs() < 1e-7,
            "{} vs {}",
            plain.energy,
            inc.energy
        );
    }

    #[test]
    fn gwh_guess_converges_to_same_energy_at_least_as_fast() {
        let core = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        let gwh = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig {
                guess: ScfGuess::Gwh,
                ..ScfConfig::default()
            },
        )
        .unwrap();
        assert!(gwh.converged);
        assert!(
            (core.energy - gwh.energy).abs() < 1e-7,
            "{} vs {}",
            core.energy,
            gwh.energy
        );
        // The guess only changes the starting point, never the answer —
        // and the overlap-weighted start should not converge slower.
        assert!(gwh.iterations <= core.iterations + 1);
    }

    #[test]
    fn require_convergence_surfaces_not_converged() {
        let cfg = ScfConfig::builder()
            .max_iter(2)
            .require_convergence(true)
            .build();
        let err = match run_scf(generators::water(), BasisSetKind::Sto3g, cfg) {
            Err(e) => e,
            Ok(_) => panic!("2 iterations must not converge water"),
        };
        match err {
            ScfError::NotConverged {
                iterations,
                history,
                ..
            } => {
                assert_eq!(iterations, 2);
                assert_eq!(history.len(), 2);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_resume_reaches_same_energy() {
        let full = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::builder().diis(true).build(),
        )
        .unwrap();
        // Stop early with checkpointing on, then resume from the snapshot.
        let first = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::builder()
                .diis(true)
                .max_iter(4)
                .checkpoint_every(2)
                .build(),
        )
        .unwrap();
        assert!(!first.converged);
        let cp = first.checkpoint.expect("checkpoint taken");
        assert_eq!(cp.iter, 4);
        let resumed = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::builder().diis(true).resume(cp).build(),
        )
        .unwrap();
        assert!(resumed.converged);
        assert!(
            (resumed.energy - full.energy).abs() < 1e-8,
            "{} vs {}",
            resumed.energy,
            full.energy
        );
        // Resuming skips the iterations already paid for.
        assert!(resumed.iterations + 4 <= full.iterations + 2);
    }

    #[test]
    fn scf_error_display_and_source() {
        let e = ScfError::TooManyElectrons { nocc: 5, nbf: 3 };
        assert!(e.to_string().contains("5 occupied"));
        let b: ScfError = BuildError::Incomplete {
            tasks_lost: 2,
            tasks_requeued: 7,
        }
        .into();
        assert!(std::error::Error::source(&b).is_some());
    }

    #[test]
    fn water_dipole_moment_sto3g() {
        // RHF/STO-3G water dipole ≈ 0.60–0.70 a.u. (1.5–1.8 D), directed
        // along the C₂ᵥ symmetry axis (z in our geometry).
        let r = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        let mu = r.dipole_moment();
        assert!(mu.x.abs() < 1e-6, "x component {:.2e}", mu.x);
        assert!(mu.y.abs() < 1e-6, "y component {:.2e}", mu.y);
        assert!((0.5..0.8).contains(&mu.z.abs()), "mu_z = {}", mu.z);
    }

    #[test]
    fn homonuclear_dipole_vanishes() {
        let r = run_scf(
            generators::hydrogen(1.4),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        let mu = r.dipole_moment();
        // H2 centred off-origin still has zero dipole: electronic and
        // nuclear parts cancel exactly by symmetry.
        assert!(mu.norm() < 1e-8, "mu = {mu:?}");
    }

    #[test]
    fn energy_monotone_after_first_iters() {
        // Roothaan iterations on these small closed-shell systems descend.
        let r = run_scf(
            generators::water(),
            BasisSetKind::Sto3g,
            ScfConfig::default(),
        )
        .unwrap();
        for w in r.history.windows(2).skip(1) {
            assert!(w[1] <= w[0] + 1e-6, "energy rose: {} -> {}", w[0], w[1]);
        }
    }
}
