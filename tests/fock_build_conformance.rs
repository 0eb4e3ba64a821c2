//! Conformance suite for the unified [`FockBuild`] trait: every builder
//! must produce the same G(D) as the sequential reference on the same
//! problem, report consistent per-process totals, and — when telemetry is
//! on — record event streams whose derived aggregates agree with the
//! report numbers and the `fock.quartets` metrics counter.

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::chem::{generators, BasisSetKind};
use fock_repro::core::build::{
    gtfock_builder, nwchem_builder, seq_builder, FockBuild, SchedulerOpts, QUARTETS_COUNTER,
};
use fock_repro::core::seq::build_g_seq;
use fock_repro::core::tasks::FockProblem;
use fock_repro::distrt::ProcessGrid;
use fock_repro::obs::{EventKind, Recorder};
use proptest::prelude::*;
use std::sync::Arc;

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
            let v = 0.4 * next();
            d[i * nbf + j] = v;
            d[j * nbf + i] = v;
        }
    }
    d
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Every builder variant the suite runs, over a representative spread of
/// process counts / grids.
fn all_builders() -> Vec<Arc<dyn FockBuild + Send + Sync>> {
    vec![
        seq_builder(),
        gtfock_builder(SchedulerOpts::with_grid(ProcessGrid::new(1, 1)).gtfock()),
        gtfock_builder(SchedulerOpts::with_grid(ProcessGrid::new(2, 2)).gtfock()),
        gtfock_builder(
            SchedulerOpts::with_grid(ProcessGrid::new(2, 3))
                .steal(false)
                .gtfock(),
        ),
        nwchem_builder(SchedulerOpts::with_nprocs(1).nwchem()),
        nwchem_builder(SchedulerOpts::with_nprocs(3).chunk(2).nwchem()),
    ]
}

fn conformance_on(prob: &FockProblem, seed: u64) {
    let d = test_density(prob.nbf(), seed);
    let (want, want_q) = build_g_seq(prob, &d);
    for b in all_builders() {
        let out = b.build(prob, &d, &Recorder::disabled()).expect("build");
        let diff = max_diff(&want, &out.g);
        assert!(diff < 1e-10, "{}: G differs from seq by {diff}", b.name());
        let n = prob.nbf();
        assert!(
            (0..n).all(|i| (0..i).all(|j| out.g[i * n + j] == out.g[j * n + i])),
            "{}: G is not exactly symmetric",
            b.name()
        );
        assert_eq!(
            out.report.total_quartets(),
            want_q,
            "{}: quartet count mismatch",
            b.name()
        );
        assert!(out.report.nprocs() > 0, "{}: empty report", b.name());
        assert!(out.report.load_balance() >= 1.0 - 1e-12, "{}", b.name());
        assert!(out.report.t_ov_avg() >= 0.0, "{}", b.name());
    }
}

#[test]
fn all_builders_match_seq_water_sto3g() {
    let prob = FockProblem::new(
        generators::water(),
        BasisSetKind::Sto3g,
        1e-12,
        ShellOrdering::Natural,
    )
    .unwrap();
    conformance_on(&prob, 11);
}

#[test]
fn all_builders_match_seq_methane_ccpvdz() {
    let prob = FockProblem::new(
        generators::methane(),
        BasisSetKind::CcPvdz,
        1e-11,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    conformance_on(&prob, 23);
}

/// With telemetry enabled, the event streams are a faithful decomposition
/// of the report: per-worker TaskEnd quartet payloads sum to the report's
/// quartet totals, and every builder bumps the shared metrics counter by
/// exactly its quartet count.
#[test]
fn recorded_events_are_views_over_reports() {
    let prob = FockProblem::new(
        generators::water(),
        BasisSetKind::Sto3g,
        1e-12,
        ShellOrdering::Natural,
    )
    .unwrap();
    let d = test_density(prob.nbf(), 7);
    for b in all_builders() {
        let rec = Recorder::enabled();
        let out = b.build(&prob, &d, &rec).expect("build");
        let recording = rec.recording().unwrap();
        let totals = recording.worker_totals();
        let recorded_q: u64 = totals.iter().map(|t| t.quartets).sum();
        assert_eq!(recorded_q, out.report.total_quartets(), "{}", b.name());
        assert_eq!(
            recording.metrics().counter(QUARTETS_COUNTER),
            out.report.total_quartets(),
            "{}",
            b.name()
        );
        let recorded_steals: u64 = totals.iter().map(|t| t.steals).sum();
        assert_eq!(recorded_steals, out.report.total_steals(), "{}", b.name());
        let recorded_queue: u64 = totals.iter().map(|t| t.queue_accesses).sum();
        assert_eq!(recorded_queue, out.report.queue_accesses, "{}", b.name());
        // Comm events mirror the CommStats accounting exactly.
        let comm = out.report.comm_total();
        let get_calls: u64 = totals.iter().map(|t| t.get_calls).sum();
        let acc_calls: u64 = totals.iter().map(|t| t.acc_calls).sum();
        assert_eq!(get_calls, comm.get_calls, "{}", b.name());
        assert_eq!(acc_calls, comm.acc_calls, "{}", b.name());
        // Every worker stream begins with WorkerStart and is time-sorted.
        for rank in 0..recording.nworkers() {
            let ev = recording.events(rank);
            if ev.is_empty() {
                continue;
            }
            assert!(matches!(ev[0].kind, EventKind::WorkerStart), "{}", b.name());
            assert!(ev.windows(2).all(|w| w[0].t <= w[1].t), "{}", b.name());
        }
        // The JSON export round-trips the headline numbers.
        let json = recording.to_json();
        assert!(json.contains("\"version\":1"));
        assert!(json.contains("task_end"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random densities and grids, the recorded quartet counter equals
    /// the report total — on every builder.
    #[test]
    fn recorded_quartets_equal_report_totals(seed in 0u64..10_000, rows in 1usize..3, cols in 1usize..3) {
        let prob = FockProblem::new(
            generators::hydrogen(1.4),
            BasisSetKind::CcPvdz,
            1e-12,
            ShellOrdering::Natural,
        )
        .unwrap();
        let d = test_density(prob.nbf(), seed);
        let builders: Vec<Arc<dyn FockBuild + Send + Sync>> = vec![
            seq_builder(),
            gtfock_builder(SchedulerOpts::with_grid(ProcessGrid::new(rows, cols)).gtfock()),
            nwchem_builder(SchedulerOpts::with_nprocs(rows * cols).nwchem()),
        ];
        for b in builders {
            let rec = Recorder::enabled();
            let out = b.build(&prob, &d, &rec).expect("build");
            let counter = rec.metrics_snapshot().counter(QUARTETS_COUNTER);
            prop_assert_eq!(counter, out.report.total_quartets(), "{}", b.name());
        }
    }
}
