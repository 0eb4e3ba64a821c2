//! ERI kernel throughput: the reference kernel vs the production
//! class-batched kernel.
//!
//! Enumerates exactly the screened, symmetry-unique quartet stream a
//! sequential Fock build walks (all (M,:|N,:) tasks, Φ-set partners,
//! `quartet_selected`) and times two passes over it:
//!
//! * **ref** — [`EriEngine::quartet_ref`], the direct kernel that rebuilds
//!   every Hermite E table per primitive quartet;
//! * **batch** — [`ClassBatcher`] grouping each task's surviving quartets
//!   by angular-momentum class and evaluating them through the batched
//!   class kernels ([`eri::BatchKernel`]) over the shared
//!   [`eri::ShellPairData`] tables (built once, timed separately) — the
//!   production configuration.
//!
//! The ref pass is timed per quartet and attributed to its class; the
//! batch pass reports the planner's own [`eri::ClassStats`], the fastest
//! of [`BATCH_REPS`] identical passes per class.
//! A class keys on angular momenta only, so its quartets span contraction
//! depths of 1 to thousands of primitive quartets: every class row also
//! carries its primitive-quartet count, and the batched cost is reported
//! (and gated) per primitive quartet. A stratified per-class parity sample
//! compares batched blocks against `quartet_ref` element-wise. Results land
//! in `BENCH_eri.json` in the working directory.
//!
//! Molecules: one alkane and one graphene flake, each in STO-3G and
//! cc-pVDZ. Default uses C4H10/C6H6 (seconds); `--full` uses C14H30/C24H12.
//!
//! Usage: `eri_throughput [--full | --smoke] [--tau <v>] [--gate <baseline.json>]`
//!
//! * `--smoke` — tiny molecules (C2H6/C6H6 STO-3G only), no JSON written:
//!   the CI fast lane, still enforcing every parity gate.
//! * `--gate <baseline.json>` — compare per-class batched ns per primitive
//!   quartet against a previous `BENCH_eri.json`; exit non-zero if any
//!   class regressed by more than 20%. Parity gates (1e-12) are always
//!   enforced.

use bench::{flag, flag_full, opt_str, opt_tau};
use chem::reorder::ShellOrdering;
use chem::{generators, BasisSetKind};
use eri::batch::NCLASSES;
use eri::{BatchKernel, ClassBatcher, EriEngine, QuartetClass};
use fock_core::tasks::FockProblem;
use std::fmt::Write as _;
use std::time::Instant;

/// Quartets sampled per class for the element-wise batch-vs-ref check.
const PARITY_SAMPLES: usize = 32;
/// Identical batch passes per molecule; each class keeps its fastest.
/// Interference only ever slows a pass down, and the passes do the same
/// work, so the minimum is the reproducible figure.
const BATCH_REPS: usize = 3;
/// A class's batched ns per primitive quartet, divided by the whole row's
/// drift vs baseline, may rise to this multiple of its baseline value
/// (>20% regression fails). Normalizing by the row cancels machine and
/// load differences between the baseline capture and the gated run while
/// still catching a single class regressing against its peers.
const GATE_TOLERANCE: f64 = 1.2;
/// Classes with fewer quartets than this run for well under a millisecond
/// per pass — too short to time; they are reported but not gated.
const GATE_MIN_QUARTETS: u64 = 2000;
/// Element-wise and whole-stream parity bound.
const PARITY_BOUND: f64 = 1e-12;

#[derive(Clone, Default)]
struct ClassRow {
    quartets: u64,
    /// Primitive quartets (bra primitive pairs × ket primitive pairs,
    /// after primitive screening) summed over the class's quartets.
    prim_quartets: u64,
    ref_ns: u64,
    /// Fastest of the [`BATCH_REPS`] passes.
    batch_ns: u64,
    max_abs_diff: f64,
}

impl ClassRow {
    fn batch_ns_per_primquartet(&self) -> f64 {
        self.batch_ns as f64 / self.prim_quartets.max(1) as f64
    }
}

struct Row {
    molecule: String,
    basis: &'static str,
    nshells: usize,
    nbf: usize,
    quartets: u64,
    ref_secs: f64,
    /// Fastest of the [`BATCH_REPS`] passes.
    batch_secs: f64,
    pair_build_secs: f64,
    pair_bytes: usize,
    npairs: usize,
    stream_rel_diff: f64,
    /// Per-class totals, indexed by `QuartetClass::index()`.
    classes: Vec<ClassRow>,
}

impl Row {
    fn batch_ns_per_primquartet(&self) -> f64 {
        let prim: u64 = self.classes.iter().map(|c| c.prim_quartets).sum();
        self.batch_secs * 1e9 / prim.max(1) as f64
    }
}

/// Run every selected quartet of `prob` through `f`, returning the count.
fn for_each_quartet(prob: &FockProblem, mut f: impl FnMut(usize, usize, usize, usize)) -> u64 {
    let n = prob.nshells();
    let mut count = 0;
    for m in 0..n {
        for nn in 0..n {
            for &p in prob.phi(m) {
                for &q in prob.phi(nn) {
                    let (p, q) = (p as usize, q as usize);
                    if prob.quartet_selected(m, p, nn, q) {
                        f(m, p, nn, q);
                        count += 1;
                    }
                }
            }
        }
    }
    count
}

fn run(molecule: chem::Molecule, kind: BasisSetKind, basis_name: &'static str, tau: f64) -> Row {
    let name = molecule.formula();
    eprintln!("  {name}/{basis_name} …");
    let prob = FockProblem::new(molecule, kind, tau, ShellOrdering::cells_default()).unwrap();
    let sh = &prob.basis.shells;
    let mut eng = EriEngine::new();
    let mut out = Vec::new();
    let mut classes = vec![ClassRow::default(); NCLASSES];
    let class_of = |m: usize, p: usize, n: usize, q: usize| {
        QuartetClass::of(sh[m].l, sh[p].l, sh[n].l, sh[q].l).index()
    };

    // Warm scratch buffers and instruction caches on a fraction of the
    // stream, then time full passes.
    let mut warm = 0;
    for_each_quartet(&prob, |m, p, n, q| {
        if warm < 2000 {
            eng.quartet_ref(&sh[m], &sh[p], &sh[n], &sh[q], &mut out);
            warm += 1;
        }
    });

    let t0 = Instant::now();
    let mut sink = 0.0f64;
    let quartets = for_each_quartet(&prob, |m, p, n, q| {
        let tq = Instant::now();
        eng.quartet_ref(&sh[m], &sh[p], &sh[n], &sh[q], &mut out);
        let ns = tq.elapsed().as_nanos() as u64;
        let c = &mut classes[class_of(m, p, n, q)];
        c.ref_ns += ns;
        c.quartets += 1;
        sink += out[0];
    });
    let ref_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let pairs = prob.pairs();
    let pair_build_secs = t1.elapsed().as_secs_f64();
    for_each_quartet(&prob, |m, p, n, q| {
        let nprim = |a, b| pairs.view(a, b).expect("phi pair present").nprim_pairs();
        classes[class_of(m, p, n, q)].prim_quartets += (nprim(m, p) * nprim(n, q)) as u64;
    });

    // Batch pass: the production configuration — per (M,:|N,:) task, push
    // surviving quartets into the class planner and flush.
    let n = prob.nshells();
    let mut batcher = ClassBatcher::new();
    let mut sink3 = 0.0f64;
    let mut batch_secs = f64::INFINITY;
    for rep in 0..BATCH_REPS {
        sink3 = 0.0;
        let t3 = Instant::now();
        for m in 0..n {
            for nn in 0..n {
                for &p in prob.phi(m) {
                    for &q in prob.phi(nn) {
                        let (p, q) = (p as usize, q as usize);
                        if prob.quartet_selected(m, p, nn, q) {
                            batcher.push(
                                QuartetClass::try_of(sh[m].l, sh[p].l, sh[nn].l, sh[q].l),
                                [m as u32, p as u32, nn as u32, q as u32],
                            );
                        }
                    }
                }
                batcher.flush(&mut eng, pairs, |_, block| sink3 += block[0]);
            }
        }
        batch_secs = batch_secs.min(t3.elapsed().as_secs_f64());
        for e in batcher.take_stats().entries() {
            // Re-key the planner's stats onto the class index.
            if let Some(idx) = (0..NCLASSES).find(|&i| QuartetClass::from_index(i).code() == e.code)
            {
                let c = &mut classes[idx];
                c.batch_ns = if rep == 0 { e.ns } else { c.batch_ns.min(e.ns) };
                assert_eq!(c.quartets, e.quartets, "class {} ({idx}) count", e.code);
            }
        }
    }

    // Stratified parity sample: batched blocks vs quartet_ref per element.
    let mut samples: Vec<Vec<[usize; 4]>> = vec![Vec::new(); NCLASSES];
    for_each_quartet(&prob, |m, p, nn, q| {
        let s = &mut samples[class_of(m, p, nn, q)];
        if s.len() < PARITY_SAMPLES {
            s.push([m, p, nn, q]);
        }
    });
    let mut kernel = BatchKernel::new();
    let mut batch_out = Vec::new();
    let mut ref_out = Vec::new();
    for (idx, sample) in samples.iter().enumerate() {
        if sample.is_empty() {
            continue;
        }
        let class = QuartetClass::from_index(idx);
        let items: Vec<_> = sample
            .iter()
            .map(|&[m, p, nn, q]| {
                (
                    pairs.view(m, p).expect("phi pair present"),
                    pairs.view(nn, q).expect("phi pair present"),
                )
            })
            .collect();
        let nper = kernel.eval(class, &items, &mut batch_out);
        for (i, &[m, p, nn, q]) in sample.iter().enumerate() {
            eng.quartet_ref(&sh[m], &sh[p], &sh[nn], &sh[q], &mut ref_out);
            for (j, &want) in ref_out.iter().enumerate() {
                let got = batch_out[i * nper + j];
                let d = (got - want).abs() / want.abs().max(1.0);
                if d > classes[idx].max_abs_diff {
                    classes[idx].max_abs_diff = d;
                }
            }
        }
    }

    // The passes walk identical streams; their first-element sums agree to
    // reassociation error (batch reorders the stream per class) — a cheap
    // whole-stream numerical check.
    let stream_rel_diff = (sink - sink3).abs() / sink.abs().max(1.0);

    Row {
        molecule: name,
        basis: basis_name,
        nshells: prob.nshells(),
        nbf: prob.nbf(),
        quartets,
        ref_secs,
        batch_secs,
        pair_build_secs,
        pair_bytes: pairs.bytes(),
        npairs: pairs.npairs(),
        stream_rel_diff,
        classes,
    }
}

/// Extract `"key": value` (string or number) from a JSON line.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let rest = line[at..].trim_start();
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A previous `BENCH_eri.json`: batched ns per primitive quartet, per row
/// overall and per (molecule, basis, class). The file this binary writes
/// is a regular line-oriented format, so a full JSON parser is unnecessary.
#[derive(Default)]
struct Baseline {
    /// (molecule, basis) → overall `batch_ns_per_primquartet`.
    rows: Vec<(String, String, f64)>,
    /// (molecule, basis, class) → the class's `batch_ns_per_primquartet`.
    classes: Vec<(String, String, String, f64)>,
}

fn parse_baseline(text: &str) -> Baseline {
    let mut out = Baseline::default();
    let (mut molecule, mut basis) = (String::new(), String::new());
    for line in text.lines() {
        if let Some(v) = json_field(line, "molecule") {
            molecule = v.to_string();
        }
        if let Some(v) = json_field(line, "basis") {
            basis = v.to_string();
        }
        let Some(npq) =
            json_field(line, "batch_ns_per_primquartet").and_then(|s| s.parse::<f64>().ok())
        else {
            continue;
        };
        match json_field(line, "class") {
            Some(class) => {
                out.classes
                    .push((molecule.clone(), basis.clone(), class.to_string(), npq))
            }
            None => out.rows.push((molecule.clone(), basis.clone(), npq)),
        }
    }
    out
}

fn main() {
    let full = flag_full();
    let smoke = flag("--smoke");
    let gate = opt_str("--gate");
    let tau = opt_tau(1e-10);
    println!("== ERI throughput: reference kernel vs batched class kernels ==");
    println!(
        "molecules: {} | τ = {tau:.0e}",
        if smoke {
            "C2H6 + C6H6, STO-3G (--smoke)"
        } else if full {
            "C14H30 + C24H12 (--full)"
        } else {
            "C4H10 + C6H6 (pass --full for the acceptance set)"
        }
    );
    println!();

    let (alkane, flake) = if full { (14, 2) } else { (4, 1) };
    let mut rows = Vec::new();
    if smoke {
        rows.push(run(
            generators::linear_alkane(2),
            BasisSetKind::Sto3g,
            "STO-3G",
            tau,
        ));
        rows.push(run(
            generators::graphene_flake(1),
            BasisSetKind::Sto3g,
            "STO-3G",
            tau,
        ));
    } else {
        for kind in [BasisSetKind::Sto3g, BasisSetKind::CcPvdz] {
            let bname = match kind {
                BasisSetKind::Sto3g => "STO-3G",
                BasisSetKind::CcPvdz => "cc-pVDZ",
                _ => unreachable!("bench set is STO-3G + cc-pVDZ"),
            };
            rows.push(run(generators::linear_alkane(alkane), kind, bname, tau));
            rows.push(run(generators::graphene_flake(flake), kind, bname, tau));
        }
    }

    println!(
        "{:<10} {:>8} {:>6} {:>5} {:>10} {:>11} {:>11} {:>8}",
        "molecule", "basis", "shells", "nbf", "quartets", "ref q/s", "batch q/s", "batch ×"
    );
    for r in &rows {
        println!(
            "{:<10} {:>8} {:>6} {:>5} {:>10} {:>11.0} {:>11.0} {:>7.2}x",
            r.molecule,
            r.basis,
            r.nshells,
            r.nbf,
            r.quartets,
            r.quartets as f64 / r.ref_secs,
            r.quartets as f64 / r.batch_secs,
            r.ref_secs / r.batch_secs,
        );
    }
    println!();
    println!("per-class (batch; ns/pq = batched ns per primitive quartet):");
    println!(
        "  {:<10} {:>8} {:<8} {:>10} {:>11} {:>9} {:>9} {:>8} {:>8} {:>11}",
        "molecule",
        "basis",
        "class",
        "quartets",
        "prim q",
        "ref ns",
        "batch ns",
        "speedup",
        "ns/pq",
        "parity"
    );
    for r in &rows {
        for (idx, c) in r.classes.iter().enumerate() {
            if c.quartets == 0 {
                continue;
            }
            println!(
                "  {:<10} {:>8} {:<8} {:>10} {:>11} {:>9.0} {:>9.0} {:>7.2}x {:>8.1} {:>11.1e}",
                r.molecule,
                r.basis,
                QuartetClass::from_index(idx).name(),
                c.quartets,
                c.prim_quartets,
                c.ref_ns as f64 / c.quartets as f64,
                c.batch_ns as f64 / c.quartets as f64,
                c.ref_ns as f64 / c.batch_ns.max(1) as f64,
                c.batch_ns_per_primquartet(),
                c.max_abs_diff,
            );
        }
    }

    // Parity gates — always enforced.
    let mut failures = Vec::new();
    for r in &rows {
        if r.stream_rel_diff > PARITY_BOUND {
            failures.push(format!(
                "{}/{}: stream_rel_diff {:e} > {PARITY_BOUND:e}",
                r.molecule, r.basis, r.stream_rel_diff
            ));
        }
        for (idx, c) in r.classes.iter().enumerate() {
            if c.quartets > 0 && c.max_abs_diff > PARITY_BOUND {
                failures.push(format!(
                    "{}/{} class {}: parity {:e} > {PARITY_BOUND:e}",
                    r.molecule,
                    r.basis,
                    QuartetClass::from_index(idx).code(),
                    c.max_abs_diff
                ));
            }
        }
    }

    // Throughput regression gate vs a baseline BENCH_eri.json, on batched
    // ns per primitive quartet: unlike ns per quartet it does not move with
    // the mix of contraction depths inside a class, and unlike a speedup
    // over `quartet_ref` it measures the production kernel alone. Each
    // class's drift is divided by its row's overall drift so a uniformly
    // slow/fast run (different machine, background load) cancels and only a
    // class regressing *against its peers* by more than 20% fails.
    if let Some(path) = gate {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let baseline = parse_baseline(&text);
                let (mut compared, mut skipped) = (0u32, 0u32);
                for (mol, bas, class_code, base_npq) in &baseline.classes {
                    let Some(r) = rows.iter().find(|r| r.molecule == *mol && r.basis == *bas)
                    else {
                        continue;
                    };
                    let Some(idx) =
                        (0..NCLASSES).find(|&i| QuartetClass::from_index(i).code() == *class_code)
                    else {
                        continue;
                    };
                    let row_drift = baseline
                        .rows
                        .iter()
                        .find(|(m, b, _)| m == mol && b == bas)
                        .map_or(1.0, |&(_, _, base_row)| {
                            r.batch_ns_per_primquartet() / base_row
                        });
                    let c = &r.classes[idx];
                    if c.quartets == 0 || *base_npq <= 0.0 {
                        continue;
                    }
                    if c.quartets < GATE_MIN_QUARTETS {
                        skipped += 1;
                        continue;
                    }
                    compared += 1;
                    let npq = c.batch_ns_per_primquartet();
                    if npq > GATE_TOLERANCE * base_npq * row_drift {
                        failures.push(format!(
                            "{mol}/{bas} class {class_code}: {npq:.1} ns per primitive quartet > \
                             {GATE_TOLERANCE}×baseline {base_npq:.1} (row drift {row_drift:.2})"
                        ));
                    }
                }
                println!(
                    "\ngate: compared {compared} per-class entries against {path} \
                     ({skipped} below the {GATE_MIN_QUARTETS}-quartet timing-noise floor)"
                );
                if compared == 0 {
                    println!(
                        "gate: no overlapping (molecule, basis, class) rows with a \
                         batch_ns_per_primquartet — nothing enforced"
                    );
                }
            }
            Err(e) => {
                eprintln!("error reading gate baseline {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("\nGATE FAILURES:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nall parity/throughput gates passed");

    if smoke {
        println!("(--smoke: BENCH_eri.json not rewritten)");
        return;
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"eri_throughput\",");
    let _ = writeln!(json, "  \"tau\": {tau:e},");
    let _ = writeln!(json, "  \"full\": {full},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"molecule\": \"{}\",", r.molecule);
        let _ = writeln!(json, "      \"basis\": \"{}\",", r.basis);
        let _ = writeln!(json, "      \"nshells\": {},", r.nshells);
        let _ = writeln!(json, "      \"nbf\": {},", r.nbf);
        let _ = writeln!(json, "      \"quartets\": {},", r.quartets);
        let _ = writeln!(
            json,
            "      \"prim_quartets\": {},",
            r.classes.iter().map(|c| c.prim_quartets).sum::<u64>()
        );
        let _ = writeln!(
            json,
            "      \"batch_ns_per_primquartet\": {:.2},",
            r.batch_ns_per_primquartet()
        );
        let _ = writeln!(json, "      \"ref_secs\": {:.6},", r.ref_secs);
        let _ = writeln!(json, "      \"batch_secs\": {:.6},", r.batch_secs);
        let _ = writeln!(
            json,
            "      \"ref_quartets_per_sec\": {:.0},",
            r.quartets as f64 / r.ref_secs
        );
        let _ = writeln!(
            json,
            "      \"batch_quartets_per_sec\": {:.0},",
            r.quartets as f64 / r.batch_secs
        );
        let _ = writeln!(
            json,
            "      \"speedup_batch\": {:.3},",
            r.ref_secs / r.batch_secs
        );
        let _ = writeln!(
            json,
            "      \"pairdata_build_secs\": {:.6},",
            r.pair_build_secs
        );
        let _ = writeln!(json, "      \"pairdata_bytes\": {},", r.pair_bytes);
        let _ = writeln!(json, "      \"pairdata_npairs\": {},", r.npairs);
        let _ = writeln!(json, "      \"stream_rel_diff\": {:e},", r.stream_rel_diff);
        let _ = writeln!(json, "      \"classes\": [");
        let present: Vec<usize> = (0..NCLASSES)
            .filter(|&k| r.classes[k].quartets > 0)
            .collect();
        for (j, &idx) in present.iter().enumerate() {
            let c = &r.classes[idx];
            let _ = writeln!(
                json,
                "        {{\"class\": \"{}\", \"quartets\": {}, \"prim_quartets\": {}, \"ref_ns_per_quartet\": {:.1}, \"batch_ns_per_quartet\": {:.1}, \"batch_ns_per_primquartet\": {:.2}, \"speedup\": {:.3}, \"max_abs_diff\": {:e}}}{}",
                QuartetClass::from_index(idx).code(),
                c.quartets,
                c.prim_quartets,
                c.ref_ns as f64 / c.quartets as f64,
                c.batch_ns as f64 / c.quartets as f64,
                c.batch_ns_per_primquartet(),
                c.ref_ns as f64 / c.batch_ns.max(1) as f64,
                c.max_abs_diff,
                if j + 1 < present.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let path = "BENCH_eri.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        }
    }
}
