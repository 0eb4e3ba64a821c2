//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is generated from these tables (`perf --manifest`) and a unit
//! test keeps the two identical.

use crate::json::{obj, Value};
use std::collections::BTreeMap;

/// Seconds one run measures (`run_seconds` of the manifest).
pub const RUN_SECONDS: u32 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dense_dz",
        why: "C2H6/cc-pVDZ, gtfock 1x2: nothing is screened and quartets are deep-contracted p/d classes, so eri::batch/Boys/Hermite do almost all the work",
    },
    Workload {
        name: "chain_full",
        why: "C8H18/STO-3G chain, gtfock 1x2 full builds: a third of the quartet space is Schwarz-screened and quartets are cheap s/p, so core per-quartet overheads and distrt GA traffic weigh most",
    },
    Workload {
        name: "chain_incr",
        why: "same chain and builder with incremental dD builds (rebuild every 8): density-weighted screening path; a full-build gain that costs skip rate or iterations shows here only",
    },
    Workload {
        name: "chain_nwchem",
        why: "C6H14/STO-3G, nwchem 2 procs chunk 5: the paper's comparator, centralised queue and many more GA calls; distrt::ga and the claim loop do most of their work here",
    },
    Workload {
        name: "chain_df",
        why: "C8H18/STO-3G density fitting: linalg gemm/df_jk/cholesky and eri::df do all the work, quartet kernels none; the tensor build lands in setup_s",
    },
    Workload {
        name: "service_mix",
        why: "ScfService (2 runners, 2 pool workers), closed loop of 2 clients over seeded STO-3G jobs: repeats hit the ProblemCache, H2 at seeded bond lengths always misses",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// them and none is ever 0; definitions per workload are in
/// `benchmark/README.md`. The timing bounds are twice the widest shift
/// between two run sets of the same code on the 2-core reference host,
/// whose speed drifts by 5–9 % over tens of minutes (`benchmark/runs/`);
/// `peak_rss_mb` is loose because an 8 MB
/// process's resident set varies by ±0.5 MB with thread-stack and
/// allocator-arena placement.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("scf_wall_s", "s", Lower, 0.20),
    e2e("build_median_s", "s", Lower, 0.20),
    e2e("jobs_per_s", "1/s", Higher, 0.20),
    e2e("scf_iters", "count", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single-layer measurements from the traced run and the bench-side
/// probes. A metric a workload's layer does no work for reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // chem
    layer("chem.basis_s", "s", Lower),
    layer("chem.nshells", "count", Lower),
    layer("chem.nbf", "count", Lower),
    // eri, set-up
    layer("eri.schwarz_s", "s", Lower),
    layer("eri.sig_pairs", "count", Lower),
    layer("eri.unique_sig_quartets", "count", Lower),
    layer("eri.pairdata_s", "s", Lower),
    layer("eri.pairdata_bytes", "B", Lower),
    layer("eri.oneints_s", "s", Lower),
    // eri, kernels: single-thread replay of one full build's quartet stream
    layer("eri.stream_s", "s", Lower),
    layer("eri.stream_quartets_per_s", "1/s", Higher),
    layer("eri.stream_ns_per_primquartet", "ns", Lower),
    layer("eri.s.ns_per_primquartet", "ns", Lower),
    layer("eri.sp.ns_per_primquartet", "ns", Lower),
    layer("eri.d.ns_per_primquartet", "ns", Lower),
    layer("eri.fallback_quartets", "count", Lower),
    layer("eri.boys_ns_per_eval", "ns", Lower),
    layer("eri.dnorms_s", "s", Lower),
    // eri::df
    layer("eri.df_naux", "count", Lower),
    layer("eri.df_metric_s", "s", Lower),
    layer("eri.df_3c_s", "s", Lower),
    // linalg
    layer("linalg.eig_s", "s", Lower),
    layer("linalg.gemm_s", "s", Lower),
    layer("linalg.gemm_gflops", "GF/s", Higher),
    layer("linalg.inv_sqrt_s", "s", Lower),
    layer("linalg.purify_s", "s", Lower),
    layer("linalg.purify_iters", "count", Lower),
    layer("linalg.cholesky_s", "s", Lower),
    layer("linalg.df_jk_s", "s", Lower),
    // distrt
    layer("distrt.ga_calls_per_build", "count", Lower),
    layer("distrt.ga_bytes_per_build", "B", Lower),
    layer("distrt.ga_remote_bytes_per_build", "B", Lower),
    layer("distrt.ga_retries", "count", Lower),
    layer("distrt.ga_get_ns_per_call", "ns", Lower),
    layer("distrt.ga_acc_ns_per_call", "ns", Lower),
    layer("distrt.ga_acc_mb_per_s", "MB/s", Higher),
    // core
    layer("core.build_total_s", "s", Lower),
    layer("core.build_first_s", "s", Lower),
    layer("core.build_last_s", "s", Lower),
    layer("core.builds_sampled", "count", Higher),
    layer("core.t_comp_s", "s", Lower),
    layer("core.t_ov_s", "s", Lower),
    layer("core.load_balance", "ratio", Lower),
    layer("core.quartets_per_build", "count", Lower),
    layer("core.quartets_per_s", "1/s", Higher),
    layer("core.density_skipped_per_build", "count", Higher),
    layer("core.steals_per_build", "count", Lower),
    layer("core.queue_accesses_per_build", "count", Lower),
    layer("core.seq_build_s", "s", Lower),
    layer("core.parallel_eff", "ratio", Higher),
    layer("core.sink_s", "s", Lower),
    layer("core.density_step_s", "s", Lower),
    layer("core.diis_s", "s", Lower),
    layer("core.scf_other_s", "s", Lower),
    layer("core.unaccounted_frac", "ratio", Lower),
    // obs
    layer("obs.traced_wall_s", "s", Lower),
    layer("obs.overhead_frac", "ratio", Lower),
    layer("obs.events", "count", Lower),
    layer("obs.export_s", "s", Lower),
    layer("obs.export_bytes", "B", Lower),
    // service
    layer("service.jobs", "count", Higher),
    layer("service.job_latency_p50_s", "s", Lower),
    layer("service.job_latency_p90_s", "s", Lower),
    layer("service.job_latency_tail_pct", "%", Higher),
    layer("service.queue_wait_p50_s", "s", Lower),
    layer("service.exec_p50_s", "s", Lower),
    layer("service.cache_hits", "count", Higher),
    layer("service.cache_misses", "count", Lower),
    layer("service.cache_hit_ratio", "ratio", Higher),
    layer("service.rejected", "count", Lower),
    layer("service.pool_build_s", "s", Lower),
    layer("service.pool_vs_gtfock", "ratio", Lower),
    // output checks, as numbers
    layer("check.energy_err_ha", "Ha", Lower),
    layer("check.parity_max_abs", "Ha", Lower),
    // the traced run's spans: self time per layer
    layer("trace.spans", "count", Lower),
    layer("trace.chem_self_s", "s", Lower),
    layer("trace.eri_self_s", "s", Lower),
    layer("trace.linalg_self_s", "s", Lower),
    layer("trace.distrt_self_s", "s", Lower),
    layer("trace.core_self_s", "s", Lower),
    layer("trace.obs_self_s", "s", Lower),
    layer("trace.service_self_s", "s", Lower),
];

/// The metrics of one run, by name. Setting a name that is in neither
/// table is a harness bug and panics.
#[derive(Default, Debug, Clone)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(known.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `metrics` object of the result line: every metric of `table`
    /// with its unit. End-to-end metrics must all be present and non-zero;
    /// a per-layer metric nobody set reads 0 (the layer did no work).
    pub fn result_object(&self, table: &[Metric], require_all: bool) -> Value {
        Value::Obj(
            table
                .iter()
                .map(|m| {
                    let v = match self.get(m.name) {
                        Some(v) => v,
                        None if require_all => panic!("end-to-end metric {} not measured", m.name),
                        None => 0.0,
                    };
                    assert!(
                        !(require_all && v == 0.0),
                        "end-to-end metric {} is 0",
                        m.name
                    );
                    (
                        m.name.to_string(),
                        obj([
                            ("value", Value::Num(v)),
                            ("unit", Value::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// `BENCHMARK.json`, generated.
pub fn manifest() -> Value {
    let s = |t: &str| Value::Str(t.to_string());
    obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--quiet",
                    "--release",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|a| s(a))
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!(valid_name("eri.s.ns_per_primquartet"));
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn table_sizes_and_bounds_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            // set-up gets the largest bound
            assert!(m.bound <= setup.bound);
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            crate::json::parse(&text).unwrap(),
            manifest(),
            "regenerate with `perf --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_object_fills_unset_layer_metrics_with_zero() {
        let mut m = MetricSet::default();
        m.set("chem.nbf", 58.0);
        let o = m.result_object(PER_LAYER, false);
        assert_eq!(o.as_obj().unwrap().len(), PER_LAYER.len());
        let nbf = o.get("chem.nbf").unwrap();
        assert_eq!(nbf.get("value").unwrap().as_f64(), Some(58.0));
        assert_eq!(nbf.get("unit").unwrap().as_str(), Some("count"));
        let none = o.get("eri.df_naux").unwrap();
        assert_eq!(none.get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's tables")]
    fn unknown_metric_names_are_refused() {
        MetricSet::default().set("core.typo_s", 1.0);
    }
}
