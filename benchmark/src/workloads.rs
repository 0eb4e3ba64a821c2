//! The six workloads as data: which molecule, basis and builder each one
//! runs, at full size and at `--smoke` size, plus the pinned answers.

use crate::json::{self, Value};
use chem::molecule::Molecule;
use chem::reorder::ShellOrdering;
use chem::{generators, BasisSetKind};
use distrt::ProcessGrid;
use eri::AuxSpec;
use fock_core::scf::ScfGuess;
use fock_core::{
    gtfock_builder, nwchem_builder, DfBuild, FockBuild, ScfConfig, ScfConfigBuilder, SchedulerOpts,
};
use obs::Recorder;
use std::sync::Arc;

/// Compute threads every workload is sized to: the host's `nproc`.
pub const NPROCS: usize = 2;

/// Screening tolerance τ of every workload.
pub const TAU: f64 = 1e-10;

/// Energies must match their pin / reference to this many hartree.
pub const ENERGY_TOL: f64 = 1e-8;

/// One build must match `build_g_seq`, and every service job its
/// standalone reference, to this.
pub const PARITY_TOL: f64 = 1e-10;

pub type Builder = Arc<dyn FockBuild + Send + Sync>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// The paper's algorithm, grid 1×2, stealing on.
    Gtfock,
    /// The NWChem-style comparator, 2 procs, chunk 5.
    Nwchem,
    /// Density fitting with `AuxSpec::default()`.
    Df,
    /// `ScfService` with the shared pool (service_mix).
    Service,
}

pub struct Spec {
    pub name: &'static str,
    pub molecule: Molecule,
    pub basis: BasisSetKind,
    pub family: Family,
    pub incremental: bool,
}

/// The workload called `name`, or its H2O/C2H6-sized stand-in.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    use BasisSetKind::{CcPvdz, Sto3g};
    let alkane = |full: usize| generators::linear_alkane(if smoke { 2 } else { full });
    let (name, molecule, basis, family, incremental) = match name {
        "dense_dz" => (
            "dense_dz",
            if smoke {
                generators::water()
            } else {
                alkane(2)
            },
            CcPvdz,
            Family::Gtfock,
            false,
        ),
        "chain_full" => ("chain_full", alkane(8), Sto3g, Family::Gtfock, false),
        "chain_incr" => ("chain_incr", alkane(8), Sto3g, Family::Gtfock, true),
        "chain_nwchem" => ("chain_nwchem", alkane(6), Sto3g, Family::Nwchem, false),
        "chain_df" => ("chain_df", alkane(8), Sto3g, Family::Df, false),
        // The largest molecule of the job mix is the problem the layer
        // probes run on.
        "service_mix" => ("service_mix", alkane(4), Sto3g, Family::Service, false),
        _ => return None,
    };
    Some(Spec {
        name,
        molecule,
        basis,
        family,
        incremental,
    })
}

impl Spec {
    pub fn ordering(&self) -> ShellOrdering {
        ShellOrdering::cells_default()
    }

    /// A fresh builder of the workload's family. DF builders cache their
    /// fitted tensor per problem, so set-up repetitions need a new one
    /// each time.
    pub fn builder(&self) -> (Builder, Option<Arc<DfBuild>>) {
        match self.family {
            // service_mix probes compare the pool against gtfock 1×2.
            Family::Gtfock | Family::Service => (
                gtfock_builder(SchedulerOpts::with_grid(ProcessGrid::new(1, NPROCS)).gtfock()),
                None,
            ),
            Family::Nwchem => (
                nwchem_builder(SchedulerOpts::with_nprocs(NPROCS).chunk(5).nwchem()),
                None,
            ),
            Family::Df => {
                let df = Arc::new(DfBuild::new(AuxSpec::default()));
                (df.clone(), Some(df))
            }
        }
    }

    pub fn is_exact(&self) -> bool {
        self.family != Family::Df
    }

    /// Compute threads one build of this workload uses.
    pub fn nprocs(&self) -> usize {
        match self.family {
            Family::Df => 1,
            _ => NPROCS,
        }
    }
}

/// The SCF settings every workload and every service job uses.
/// Time-to-solution is measured to this stated accuracy.
pub fn scf_config() -> ScfConfigBuilder {
    ScfConfig::builder()
        .tau(TAU)
        .ordering(ShellOrdering::cells_default())
        .diis(true)
        .guess(ScfGuess::Gwh)
        .e_tol(1e-8)
        .d_tol(1e-6)
        .max_iter(60)
        .require_convergence(true)
}

pub fn scf_config_for(spec: &Spec, builder: Builder, rec: Recorder) -> ScfConfig {
    scf_config()
        .incremental(spec.incremental)
        .rebuild_every(8)
        .fock_builder(builder)
        .recorder(rec)
        .build()
}

/// A pinned converged answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pin {
    pub energy: f64,
    pub iters: usize,
}

/// Look `workload` up in `benchmark/pins.json` (compiled in, so the
/// result does not depend on the working directory).
pub fn pin(workload: &str, smoke: bool) -> Result<Pin, String> {
    let doc = json::parse(include_str!("../pins.json")).map_err(|e| format!("pins.json: {e}"))?;
    pin_in(&doc, workload, smoke)
}

fn pin_in(doc: &Value, workload: &str, smoke: bool) -> Result<Pin, String> {
    let size = if smoke { "smoke" } else { "full" };
    let entry = doc
        .get(size)
        .and_then(|s| s.get(workload))
        .ok_or_else(|| format!("pins.json has no {size}.{workload}"))?;
    let num = |k: &str| {
        entry
            .get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("pins.json {size}.{workload}.{k} missing"))
    };
    Ok(Pin {
        energy: num("energy_ha")?,
        iters: num("scf_iters")? as usize,
    })
}

/// Deterministic generator for everything drawn from `--seed`
/// (SplitMix64): the service job order, H2 bond lengths, probe inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn every_named_workload_has_a_spec_and_pins_at_both_sizes() {
        for w in WORKLOADS {
            for smoke in [false, true] {
                let s = spec(w.name, smoke).unwrap_or_else(|| panic!("no spec for {}", w.name));
                assert_eq!(s.name, w.name);
                if s.family != Family::Service {
                    let p = pin(w.name, smoke).unwrap();
                    assert!(p.energy < 0.0 && p.iters > 1, "{} {p:?}", w.name);
                }
            }
        }
        assert!(spec("nope", false).is_none());
    }

    #[test]
    fn pins_lookup_reports_what_is_missing() {
        let doc = json::parse(r#"{"full":{"a":{"energy_ha":-1.5}}}"#).unwrap();
        assert!(pin_in(&doc, "a", false).unwrap_err().contains("scf_iters"));
        assert!(pin_in(&doc, "a", true).unwrap_err().contains("smoke.a"));
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        let (a, b, c) = (draw(7), draw(7), draw(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(r.below(16) < 16);
        }
    }
}
