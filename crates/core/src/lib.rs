//! GTFock reproduction: scalable parallel Fock matrix construction.
//!
//! This crate implements the paper's contribution and its baseline:
//!
//! * [`tasks`] — the `(M,:|N,:)` task model, significant sets Φ(M), and the
//!   symmetry predicate that makes every unique shell quartet computed
//!   exactly once (Section III-B, Algorithm 3),
//! * [`sink`] — quartet → Fock-matrix update machinery shared by every
//!   build variant,
//! * [`partition`] — the initial static 2-D partitioning of the task space
//!   (Section III-C),
//! * [`localbuf`] — prefetched per-process D/F buffers (Section III-E),
//! * [`build`] — the unified [`build::FockBuild`] trait, shared
//!   [`build::BuildReport`], and [`build::SchedulerOpts`] every builder
//!   configuration derives from,
//! * [`seq`] — sequential reference builds (ground truth for tests),
//! * [`df`] — the density-fitting (RI-JK) builder: cached fitted-tensor
//!   setup, per-iteration J/K as GEMMs,
//! * [`sched`] — the work-stealing scheduler of Section III-F (queues,
//!   victim choice, steal size, fencing, death, recovery assignment),
//!   written once for the threaded builder and the simulator,
//! * `lane` (crate-private) — the per-process executors, each behind a
//!   real and a virtual clock: GTFock's (owner-region fetch/flush,
//!   exactly-once marking, death, recovery) and NWChem's (claim, screen,
//!   per-atom-pair fetch, compute, flush),
//! * [`gtfock`] — the paper's algorithm on threads: static partition +
//!   prefetch + the [`sched`] scheduler (Algorithms 3 and 4),
//! * [`nwchem`] — the NWChem-style baseline: block-row distribution,
//!   5-atom-quartet tasks, centralized dynamic scheduler (Algorithm 2),
//! * [`scf`] — the Hartree-Fock SCF driver (Algorithm 1) with
//!   diagonalization or purification,
//! * [`model`] — the performance model of Section III-G (equations 6–12),
//! * [`sim_exec`] — discrete-event cluster-scale execution of both
//!   algorithms, producing the timing/communication/load-balance data of
//!   Tables III–VIII and Figure 2.

pub mod build;
pub mod df;
pub mod diis;
pub mod gtfock;
mod lane;
pub mod localbuf;
pub mod model;
pub mod nwchem;
pub mod partition;
pub mod scf;
pub mod sched;
pub mod seq;
pub mod sim_exec;
pub mod sink;
pub mod tasks;
#[cfg(test)]
mod testutil;

pub use build::{
    gtfock_builder, nwchem_builder, record_class_stats, seq_builder, BuildError, BuildOutcome,
    BuildReport, FockBuild, SchedulerOpts, CLASS_METRIC_PREFIX, DENSITY_SKIPPED_COUNTER,
    DMAX_HISTOGRAM, PAIRDATA_BYTES_COUNTER, QUARTETS_COUNTER,
};
pub use df::{
    df_builder, DfBuild, DfData, DF_3C_NS_COUNTER, DF_FIT_ERROR_HISTOGRAM, DF_GEMM_NS_COUNTER,
    DF_METRIC_NS_COUNTER,
};
pub use gtfock::{
    build_fock_gtfock, build_fock_gtfock_rec, try_build_fock_gtfock_rec, GtfockConfig, GtfockReport,
};
pub use model::ModelParams;
pub use nwchem::{build_fock_nwchem, build_fock_nwchem_rec, NwchemConfig, NwchemReport};
pub use partition::StaticPartition;
pub use scf::{run_scf, run_scf_on, ScfConfig, ScfConfigBuilder, ScfError, ScfResult};
pub use seq::{build_g_seq, build_g_seq_rec};
pub use sink::{apply_quartet, do_task, symmetrize, BlockView, DenseSink, FockSink, TaskCounts};
pub use tasks::{CompletionBoard, FockProblem, OneElectron};
