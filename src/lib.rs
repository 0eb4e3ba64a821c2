//! # fock-repro
//!
//! A full-system reproduction of *"A New Scalable Parallel Algorithm for
//! Fock Matrix Construction"* (Liu, Patel, Chow — IPDPS 2014, the GTFock
//! paper), built from scratch in Rust:
//!
//! * [`chem`] — molecules, the paper's test-molecule generators (graphene
//!   flakes, linear alkanes), and Gaussian basis sets (STO-3G, cc-pVDZ);
//! * [`eri`] — a pure-Rust McMurchie–Davidson integral engine with
//!   Cauchy–Schwarz screening and a calibrated per-quartet cost model;
//! * [`linalg`] — Jacobi eigensolver, GEMM, canonical purification,
//!   Cholesky and density-fitting J/K;
//! * [`distrt`] — the simulated distributed runtime: process grids, a
//!   Global-Arrays-like one-sided layer with communication accounting, and
//!   a discrete-event cluster simulator;
//! * [`obs`] — the structured telemetry subsystem: lock-free per-worker
//!   event recording, a metrics registry, timeline assembly, and JSON
//!   export, threaded through every builder behind a zero-cost-when-
//!   disabled [`obs::Recorder`];
//! * [`core`] (crate `fock-core`) — the paper's algorithm (static
//!   partitioning + prefetch + work stealing), the NWChem-style baseline,
//!   the SCF driver, the Section III-G performance model, and cluster-scale
//!   simulated executions;
//! * [`service`] (crate `fock-service`) — the multi-tenant SCF service:
//!   a concurrent job queue with admission control, a shared-setup
//!   problem cache, a worker pool multiplexing builds at shell-pair-task
//!   granularity, and per-job latency accounting.
//!
//! ## Quickstart
//!
//! ```
//! use fock_repro::core::scf::{run_scf, ScfConfig};
//! use fock_repro::chem::{generators, BasisSetKind};
//!
//! let result = run_scf(generators::hydrogen(1.4), BasisSetKind::Sto3g,
//!                      ScfConfig::default()).unwrap();
//! assert!(result.converged);
//! assert!((result.energy - (-1.1167)).abs() < 2e-3);
//! ```
//!
//! See `examples/` for runnable demonstrations and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

pub use chem;
pub use distrt;
pub use eri;
pub use fock_core as core;
pub use fock_service as service;
pub use linalg;
pub use obs;
