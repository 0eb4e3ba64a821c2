//! Simulated distributed runtime.
//!
//! The paper runs on an MPI + Global Arrays cluster (TACC Lonestar). This
//! crate substitutes that substrate with:
//!
//! * [`grid`] — virtual 2-D process grids and block distributions,
//! * [`ga`] — a Global-Arrays-like distributed 2-D array with one-sided
//!   `get`/`put`/`acc` and per-process communication accounting (call
//!   counts and byte volumes — the quantities of the paper's Tables VI and
//!   VII),
//! * [`machine`] — machine parameter sets (bandwidth, latency, cores per
//!   node) including the paper's Lonestar configuration (Table I),
//! * [`sim`] — a small discrete-event simulation engine used to model
//!   cluster-scale executions on a single host,
//! * [`fault`] — deterministic, seed-driven fault injection (rank death,
//!   stragglers, dropped one-sided ops) shared by the GA layer and
//!   both schedulers.
//!
//! The GA layer is backed by shared memory (which is also how real Global
//! Arrays behaves within a node); "remote" accesses differ only in the
//! accounting, exactly the distinction the paper measures.

pub mod fault;
pub mod ga;
pub mod grid;
pub mod machine;
pub mod sim;
pub mod stats;

pub use fault::{FaultPlan, GaError, RankDeath, Straggler};
pub use ga::GlobalArray;
pub use grid::{block_range, ProcessGrid};
pub use machine::MachineParams;
pub use sim::Sim;
pub use stats::CommStats;
