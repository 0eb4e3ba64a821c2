//! Structured telemetry for parallel Fock-matrix construction.
//!
//! The paper's entire evaluation (Tables III–VIII, Figure 2) is about
//! *observing* parallel behaviour: per-process T_fock / T_comp, steal
//! counts and victims, communication volume and call counts, load-balance
//! ratios. This crate is the first-class observability layer those
//! measurements hang off:
//!
//! * [`event`] — the event vocabulary: task start/end, steal
//!   attempt/success with victim rank, D-prefetch, F-flush, barrier waits,
//!   one-sided communication ops — each stamped with a monotonic time,
//! * [`recorder`] — a per-worker event recorder. Each worker checks out an
//!   exclusive lane and appends events with plain (lock-free) pushes; a
//!   disabled [`Recorder`] is a `None` handle, so instrumented hot loops
//!   pay a single branch,
//! * [`metrics`] — a registry of named counters and log₂-bucket histograms
//!   (quartet counts, comm bytes/calls, steal latencies),
//! * [`timeline`] — per-process timeline assembly ([`Recording`]) with
//!   derived per-worker aggregates ([`WorkerTotals`]) that the Fock
//!   builders' reports are views over,
//! * [`export`] — dependency-free JSON and CSV serialization consumed by
//!   the bench binaries (`table8 --trace trace.json`), plus the inverse
//!   parser ([`Recording::from_json`]) tools use to read traces back,
//! * [`analyze`] — trace digestion: a [`TraceProfile`] summarizing a
//!   recording (per-worker busy/idle/steal breakdowns, task-cost
//!   distributions, comm tallies) that the trace-diff tool compares.
//!
//! The design rule: *events are ground truth*. Reports and tables are
//! derived views over the recorded stream (plus always-on cheap totals
//! when recording is disabled), never hand-maintained parallel vectors.

pub mod analyze;
pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod timeline;

/// Well-known metric names shared across crates, so producers (the GA
/// layer, the schedulers) and consumers (reports, bench binaries) agree on
/// spelling.
pub mod names {
    /// Counter: faults the injection layer actually fired (deaths,
    /// straggles, op drops).
    pub const FAULT_INJECTED: &str = "fault.injected";
    /// Counter: tasks requeued after being lost to a dead rank or a failed
    /// flush.
    pub const TASK_REQUEUED: &str = "task.requeued";
    /// Counter: one-sided op attempts repeated after an injected drop.
    pub const GA_RETRIES: &str = "ga.retries";
}

pub use analyze::{Dist, TraceProfile, WorkerBreakdown};
pub use event::{fault_code, Event, EventKind};
pub use export::{json_escape, json_f64};
pub use metrics::{Counter, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use recorder::{Recorder, WorkerRec};
pub use timeline::{Recording, WorkerTotals};
