//! The unified Fock-builder API.
//!
//! Every way of computing G(D) = 2J − K — the sequential reference, the
//! paper's GTFock algorithm, the NWChem-style baseline — implements one
//! trait, [`FockBuild`], producing a [`BuildOutcome`]: the dense G plus a
//! [`BuildReport`] of per-process measurements. The SCF driver and the
//! benchmark harness dispatch through `dyn FockBuild`, so adding a builder
//! never touches the driver again.
//!
//! Telemetry: `build` takes an [`obs::Recorder`]. A disabled recorder
//! (the default everywhere) costs the builders one branch per would-be
//! event; an enabled one captures the full per-worker event timeline the
//! report numbers are views over.

use std::sync::Arc;

use crate::gtfock::{try_build_fock_gtfock_rec, GtfockConfig};
use crate::nwchem::{build_fock_nwchem_rec, NwchemConfig};
use crate::sched::StealConfig;
use crate::seq::build_g_seq_rec;
use crate::tasks::FockProblem;
use distrt::{CommStats, FaultPlan, GaError, ProcessGrid};
use obs::Recorder;

/// Name of the metrics counter every builder bumps with its computed
/// quartet count — the conformance proptest checks it equals the report's
/// [`BuildReport::total_quartets`].
pub const QUARTETS_COUNTER: &str = "fock.quartets";

/// Counter of quartets that passed plain Schwarz screening but were
/// dropped by the density-weighted test `max|D|·Q_MN·Q_PQ ≤ τ` — the ERI
/// work an incremental (ΔD) build saves. Mirrors
/// [`BuildReport::total_density_skipped`].
pub const DENSITY_SKIPPED_COUNTER: &str = "screen.skipped_density";

/// Histogram of the effective density's global block-norm max, recorded
/// once per build in nano-units (`(max|D| · 1e9) as u64` — same fixed
/// scaling `Histogram::record_secs` uses). Across an incremental SCF the
/// bucket indices march down as ΔD shrinks, making the per-iteration
/// screening saving visible in a trace.
pub const DMAX_HISTOGRAM: &str = "screen.dmax";

/// Record one build's effective-density norm into [`DMAX_HISTOGRAM`].
pub(crate) fn record_dmax(rec: &Recorder, dmax: f64) {
    rec.histogram(DMAX_HISTOGRAM)
        .record((dmax.max(0.0) * 1e9) as u64);
}

/// Counter of heap bytes held by the shared [`eri::ShellPairData`] table
/// (pair tables + index), recorded once when a builder first touches it.
pub const PAIRDATA_BYTES_COUNTER: &str = "eri.pairdata_bytes";

/// Prefix of the per-class batched-kernel metrics: each class present in
/// a build gets `eri.class.<code>.quartets` (count) and
/// `eri.class.<code>.ns` (summed kernel wall time) counters, `<code>`
/// being the `psss`-style signature.
pub const CLASS_METRIC_PREFIX: &str = "eri.class";

/// Emit one worker's drained [`eri::ClassStats`] under
/// [`CLASS_METRIC_PREFIX`]. Counters are shared per name, so concurrent
/// workers of one build sum into the same per-class totals.
pub fn record_class_stats(rec: &Recorder, stats: &eri::ClassStats) {
    if !rec.is_enabled() {
        return;
    }
    for e in stats.entries() {
        rec.counter(&format!("{CLASS_METRIC_PREFIX}.{}.quartets", e.code))
            .add(e.quartets);
        rec.counter(&format!("{CLASS_METRIC_PREFIX}.{}.ns", e.code))
            .add(e.ns);
    }
}

/// Record the pair table's size into [`PAIRDATA_BYTES_COUNTER`]. The
/// counter is monotonic, so only the first call per recorder registers
/// (the table is built once per problem and reused across iterations).
pub(crate) fn record_pairdata(rec: &Recorder, pairs: &eri::ShellPairData) {
    if rec.is_enabled() {
        let c = rec.counter(PAIRDATA_BYTES_COUNTER);
        if c.get() == 0 {
            c.add(pairs.bytes() as u64);
        }
    }
}

/// Per-process measurements of one Fock build, shared by all builders.
/// Fields irrelevant to a given algorithm stay zero (e.g. `steals` for the
/// centralized baseline, `queue_accesses` for GTFock).
///
/// `#[non_exhaustive]`: downstream crates construct reports with
/// [`BuildReport::zeros`] plus the `with_*` setters (every field has one),
/// so future measurement fields never break them.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct BuildReport {
    /// Wall time of each process's task loop (T_fock).
    pub t_fock: Vec<f64>,
    /// Time each process spent computing quartets + updates (T_comp).
    pub t_comp: Vec<f64>,
    /// Quartets each process computed.
    pub quartets: Vec<u64>,
    /// Quartets each process dropped via the density-weighted screen that
    /// plain Schwarz would have computed (0 everywhere when the effective
    /// density has block norms ≥ 1, as in a fresh full build).
    pub density_skipped: Vec<u64>,
    /// Successful steal operations per process (work-stealing builders).
    pub steals: Vec<u64>,
    /// Regions other than its own each process copied: the distinct
    /// owners of the tasks it stole (the model's `s`).
    pub victims: Vec<u64>,
    /// Accesses to a centralized task queue (NWChem's `nxtval`); 0 for
    /// distributed-queue builders.
    pub queue_accesses: u64,
    /// Per-process one-sided communication.
    pub comm: Vec<CommStats>,
    /// Tasks each process re-executed in fault recovery (lost to a dead
    /// rank or an unflushed buffer); all zero in fault-free builds.
    pub tasks_requeued: Vec<u64>,
    /// Ranks the fault plan killed during this build.
    pub ranks_died: u64,
}

impl BuildReport {
    /// An all-zero report for `nprocs` processes.
    pub fn zeros(nprocs: usize) -> Self {
        BuildReport {
            t_fock: vec![0.0; nprocs],
            t_comp: vec![0.0; nprocs],
            quartets: vec![0; nprocs],
            density_skipped: vec![0; nprocs],
            steals: vec![0; nprocs],
            victims: vec![0; nprocs],
            queue_accesses: 0,
            comm: vec![CommStats::default(); nprocs],
            tasks_requeued: vec![0; nprocs],
            ranks_died: 0,
        }
    }

    pub fn nprocs(&self) -> usize {
        self.t_fock.len()
    }

    // Chainable setters — the construction path for code outside this
    // crate (the struct is `#[non_exhaustive]`): start from
    // [`BuildReport::zeros`] and set what was measured.

    pub fn with_t_fock(mut self, v: Vec<f64>) -> Self {
        self.t_fock = v;
        self
    }

    pub fn with_t_comp(mut self, v: Vec<f64>) -> Self {
        self.t_comp = v;
        self
    }

    pub fn with_quartets(mut self, v: Vec<u64>) -> Self {
        self.quartets = v;
        self
    }

    pub fn with_density_skipped(mut self, v: Vec<u64>) -> Self {
        self.density_skipped = v;
        self
    }

    /// Load balance ratio l = T_fock,max / T_fock,avg (Table VIII).
    /// Degenerate inputs — no processes, or all-zero times (trivial
    /// problems where the clock resolution rounds to 0) — report perfect
    /// balance rather than NaN.
    pub fn load_balance(&self) -> f64 {
        if self.t_fock.is_empty() {
            return 1.0;
        }
        let max = self.t_fock.iter().copied().fold(0.0, f64::max);
        let avg = self.t_fock.iter().sum::<f64>() / self.t_fock.len() as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }

    /// Average parallel overhead T_ov = T_fock − T_comp (Figure 2);
    /// 0.0 for an empty report rather than NaN.
    pub fn t_ov_avg(&self) -> f64 {
        if self.t_fock.is_empty() {
            return 0.0;
        }
        self.t_fock
            .iter()
            .zip(&self.t_comp)
            .map(|(f, c)| (f - c).max(0.0))
            .sum::<f64>()
            / self.t_fock.len() as f64
    }

    pub fn total_quartets(&self) -> u64 {
        self.quartets.iter().sum()
    }

    /// Quartets the density-weighted screen dropped beyond plain Schwarz.
    pub fn total_density_skipped(&self) -> u64 {
        self.density_skipped.iter().sum()
    }

    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }

    /// Tasks re-executed by fault recovery across all processes.
    pub fn total_requeued(&self) -> u64 {
        self.tasks_requeued.iter().sum()
    }

    /// One-sided op attempts repeated after injected drops (from the
    /// per-process comm accounting).
    pub fn ga_retries(&self) -> u64 {
        self.comm.iter().map(|c| c.retry_calls).sum()
    }

    /// Aggregate communication over all processes.
    pub fn comm_total(&self) -> CommStats {
        let mut t = CommStats::default();
        for c in &self.comm {
            t.merge(c);
        }
        t
    }
}

/// What a Fock build returns: the dense G matrix (problem ordering,
/// row-major nbf×nbf) and the per-process report.
pub struct BuildOutcome {
    pub g: Vec<f64>,
    pub report: BuildReport,
}

/// A Fock build that could not produce a trustworthy G. Only fault
/// injection can surface these; fault-free builds never fail.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Recovery could not re-execute every lost task — the exactly-once
    /// ledger still has unflushed tasks, so G is incomplete.
    Incomplete {
        tasks_lost: u64,
        tasks_requeued: u64,
    },
    /// A one-sided op failed past its retry budget mid-flush; an unknown
    /// prefix of that buffer landed, so G may be torn.
    Comm(GaError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Incomplete {
                tasks_lost,
                tasks_requeued,
            } => write!(
                f,
                "build incomplete: {tasks_lost} tasks lost ({tasks_requeued} requeued)"
            ),
            BuildError::Comm(e) => write!(f, "build communication failure: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<GaError> for BuildError {
    fn from(e: GaError) -> Self {
        BuildError::Comm(e)
    }
}

/// A Fock-matrix construction algorithm. All implementations compute the
/// same G(D) = 2J − K to floating-point reordering; they differ in
/// parallel structure and communication pattern.
pub trait FockBuild {
    /// Short stable identifier ("seq", "gtfock", "nwchem") for tables and
    /// trace labels.
    fn name(&self) -> &'static str;

    /// Build G for density `d` (row-major nbf×nbf in the problem's shell
    /// ordering; symmetric — a builder may read D_ji for D_ij). Events and metrics go to `rec`; pass
    /// `&Recorder::disabled()` when telemetry is not wanted. `Err` is only
    /// possible under fault injection (lost tasks / torn flushes); the SCF
    /// driver retries a failed ΔD build as a full build and returns a
    /// failed full build as [`crate::ScfError::Build`].
    fn build(
        &self,
        prob: &FockProblem,
        d: &[f64],
        rec: &Recorder,
    ) -> Result<BuildOutcome, BuildError>;

    /// Bit-exact identity of the auxiliary (fitting) basis this builder
    /// carries, if any, so problem caches can key on it — two jobs whose
    /// builders fit against different auxiliary bases must not share a
    /// cached setup. Exact-exchange builders are aux-free (`None`, the
    /// default); the density-fitting builder returns its
    /// [`eri::AuxSpec::key_bits`].
    fn aux_key(&self) -> Option<(u8, u64)> {
        None
    }
}

/// The sequential reference ([`crate::seq::build_g_seq`]) as a builder.
/// Reports a single "process" whose T_comp equals its T_fock.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqBuild;

impl FockBuild for SeqBuild {
    fn name(&self) -> &'static str {
        "seq"
    }

    fn build(
        &self,
        prob: &FockProblem,
        d: &[f64],
        rec: &Recorder,
    ) -> Result<BuildOutcome, BuildError> {
        Ok(build_g_seq_rec(prob, d, rec))
    }
}

/// The paper's algorithm on a thread-backed virtual grid
/// ([`crate::gtfock::build_fock_gtfock`]).
#[derive(Debug, Clone, Default)]
pub struct GtfockBuild(pub GtfockConfig);

impl FockBuild for GtfockBuild {
    fn name(&self) -> &'static str {
        "gtfock"
    }

    fn build(
        &self,
        prob: &FockProblem,
        d: &[f64],
        rec: &Recorder,
    ) -> Result<BuildOutcome, BuildError> {
        let (g, report) = try_build_fock_gtfock_rec(prob, d, self.0.clone(), rec)?;
        Ok(BuildOutcome { g, report })
    }
}

/// The NWChem-style centralized-scheduler baseline
/// ([`crate::nwchem::build_fock_nwchem`]).
#[derive(Debug, Clone, Default)]
pub struct NwchemBuild(pub NwchemConfig);

impl FockBuild for NwchemBuild {
    fn name(&self) -> &'static str {
        "nwchem"
    }

    fn build(
        &self,
        prob: &FockProblem,
        d: &[f64],
        rec: &Recorder,
    ) -> Result<BuildOutcome, BuildError> {
        let (g, report) = build_fock_nwchem_rec(prob, d, self.0.clone(), rec);
        Ok(BuildOutcome { g, report })
    }
}

/// Scheduler options common to the parallel builders — real-thread *and*
/// discrete-event simulated — with one source of truth for the paper's
/// defaults. Convert with [`SchedulerOpts::gtfock`] /
/// [`SchedulerOpts::nwchem`] (or the `From` impls) instead of spelling out
/// config field literals at every call site; the simulator takes
/// [`SchedulerOpts::steal`] as is.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerOpts {
    /// Virtual process grid. GTFock uses the 2-D shape directly; the
    /// baseline flattens it to `grid.nprocs()` block-row processes.
    pub grid: ProcessGrid,
    /// Work stealing: on/off, victim policy and steal fraction (GTFock,
    /// threaded and simulated alike; ignored by the centralized baseline).
    pub steal: StealConfig,
    /// Atom quartets per task (baseline; the paper's choice is 5.
    /// Ignored by GTFock, whose task size is fixed by the shell pair).
    pub chunk: usize,
    /// Fault-injection plan for GTFock builds, if any. Ignored by the
    /// baseline: [`SchedulerOpts::nwchem`] drops it and the NWChem build
    /// always runs fault-free.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for SchedulerOpts {
    fn default() -> Self {
        SchedulerOpts {
            grid: ProcessGrid::new(1, 1),
            steal: StealConfig::paper(),
            chunk: 5,
            fault: None,
        }
    }
}

impl SchedulerOpts {
    pub fn with_grid(grid: ProcessGrid) -> Self {
        SchedulerOpts {
            grid,
            ..SchedulerOpts::default()
        }
    }

    /// The squarest grid over `nprocs` processes.
    pub fn with_nprocs(nprocs: usize) -> Self {
        SchedulerOpts::with_grid(ProcessGrid::squarest(nprocs))
    }

    /// Turn work stealing on or off, keeping policy and fraction.
    pub fn steal(mut self, steal: bool) -> Self {
        self.steal.enabled = steal;
        self
    }

    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    pub fn fault(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// View as a GTFock configuration.
    pub fn gtfock(&self) -> GtfockConfig {
        GtfockConfig {
            grid: self.grid,
            steal: self.steal,
            fault: self.fault.clone(),
        }
    }

    /// View as a baseline configuration (grid flattened to a process
    /// count; the fault plan is dropped — the baseline runs fault-free).
    pub fn nwchem(&self) -> NwchemConfig {
        NwchemConfig {
            nprocs: self.grid.nprocs(),
            chunk: self.chunk,
        }
    }
}

impl From<SchedulerOpts> for GtfockConfig {
    fn from(o: SchedulerOpts) -> Self {
        o.gtfock()
    }
}

impl From<SchedulerOpts> for NwchemConfig {
    fn from(o: SchedulerOpts) -> Self {
        o.nwchem()
    }
}

/// Convenience constructors producing the shared-pointer form the SCF
/// configuration stores.
pub fn seq_builder() -> Arc<dyn FockBuild + Send + Sync> {
    Arc::new(SeqBuild)
}

pub fn gtfock_builder(cfg: GtfockConfig) -> Arc<dyn FockBuild + Send + Sync> {
    Arc::new(GtfockBuild(cfg))
}

pub fn nwchem_builder(cfg: NwchemConfig) -> Arc<dyn FockBuild + Send + Sync> {
    Arc::new(NwchemBuild(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_balance_empty_report() {
        let r = BuildReport::default();
        assert_eq!(r.load_balance(), 1.0);
        assert_eq!(r.t_ov_avg(), 0.0);
        assert_eq!(r.total_quartets(), 0);
        assert_eq!(r.nprocs(), 0);
    }

    #[test]
    fn load_balance_all_zero_times() {
        // Trivial problems can finish below clock resolution on every
        // process — balance must read as perfect, not NaN.
        let r = BuildReport::zeros(4);
        assert_eq!(r.load_balance(), 1.0);
        assert_eq!(r.t_ov_avg(), 0.0);
        assert!(r.load_balance().is_finite());
    }

    #[test]
    fn load_balance_regular_case() {
        let r = BuildReport {
            t_fock: vec![2.0, 1.0, 1.0],
            t_comp: vec![1.0, 1.0, 0.5],
            ..BuildReport::zeros(3)
        };
        let avg = 4.0 / 3.0;
        assert!((r.load_balance() - 2.0 / avg).abs() < 1e-12);
        // overheads: 1.0, 0.0, 0.5 → avg 0.5
        assert!((r.t_ov_avg() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn t_ov_clamps_negative_overhead() {
        // Measured t_comp can exceed t_fock by clock jitter; per-process
        // overhead is clamped at zero.
        let r = BuildReport {
            t_fock: vec![1.0, 1.0],
            t_comp: vec![1.5, 0.5],
            ..BuildReport::zeros(2)
        };
        assert!((r.t_ov_avg() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn scheduler_opts_conversions() {
        use crate::sched::VictimPolicy;
        let steal = StealConfig {
            enabled: true,
            policy: VictimPolicy::MaxQueue,
            fraction: 0.25,
        };
        let o = SchedulerOpts {
            steal,
            ..SchedulerOpts::with_grid(ProcessGrid::new(2, 3))
        }
        .steal(false)
        .chunk(7);
        let g: GtfockConfig = o.clone().into();
        assert_eq!(g.grid.nprocs(), 6);
        // `.steal(false)` switches stealing off and keeps the rest.
        assert_eq!(
            g.steal,
            StealConfig {
                enabled: false,
                ..steal
            }
        );
        assert!(g.fault.is_none());
        let n: NwchemConfig = o.into();
        assert_eq!(n.nprocs, 6);
        assert_eq!(n.chunk, 7);
        // Defaults match the papers' choices.
        let d = SchedulerOpts::default();
        assert_eq!(d.steal, StealConfig::paper());
        assert_eq!(d.chunk, 5);
        assert!(d.fault.is_none());
    }

    #[test]
    fn scheduler_opts_carry_fault_plan_into_gtfock() {
        let plan = Arc::new(FaultPlan::new(5).kill(1, 0));
        let o = SchedulerOpts::with_nprocs(4).fault(plan.clone());
        let g = o.gtfock();
        assert_eq!(g.fault.as_deref(), Some(plan.as_ref()));
    }

    #[test]
    fn build_error_display() {
        let e = BuildError::Incomplete {
            tasks_lost: 3,
            tasks_requeued: 9,
        };
        assert!(e.to_string().contains("3 tasks lost"));
        let c: BuildError = GaError {
            op: "get",
            caller: 0,
            attempts: 2,
        }
        .into();
        assert!(c.to_string().contains("get"));
    }

    #[test]
    fn builder_names_distinct() {
        let names = [
            seq_builder().name(),
            gtfock_builder(GtfockConfig::default()).name(),
            nwchem_builder(NwchemConfig::default()).name(),
        ];
        assert_eq!(names, ["seq", "gtfock", "nwchem"]);
    }
}
