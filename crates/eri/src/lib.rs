//! Pure-Rust Gaussian integral engine (McMurchie–Davidson scheme).
//!
//! This crate substitutes the ERD Fortran library the paper links against:
//! it computes electron-repulsion integrals in shell-quartet batches — the
//! minimal work units of the paper's task model — plus the one-electron
//! integrals needed by the SCF driver, Cauchy–Schwarz screening data, and a
//! calibrated per-quartet cost model that drives the cluster-scale
//! discrete-event simulations.
//!
//! Supported angular momenta: s, p, d (spherical d), which covers STO-3G
//! and cc-pVDZ — the paper's basis sets.
//!
//! ERIs have one production kernel — [`batch`]'s class-batched contraction
//! over [`pairdata`], owned by each [`EriEngine`] and reached by builders
//! in chunks ([`ClassBatcher`]) and by everything else one quartet at a
//! time — and one reference, [`EriEngine::quartet_ref`].
//!
//! ```
//! use chem::{generators, BasisInstance, BasisSetKind};
//! use eri::teints::EriEngine;
//!
//! let basis = BasisInstance::new(generators::water(), BasisSetKind::Sto3g).unwrap();
//! let mut eng = EriEngine::new();
//! let mut block = Vec::new();
//! let s = &basis.shells;
//! let n = eng.quartet(&s[0], &s[1], &s[2], &s[3], &mut block);
//! assert_eq!(n, s[0].nfuncs() * s[1].nfuncs() * s[2].nfuncs() * s[3].nfuncs());
//! ```

pub mod batch;
pub mod boys;
pub mod cost;
pub mod df;
pub mod hermite;
pub mod oneints;
pub mod pairdata;
pub mod screening;
pub mod spherical;
pub mod teints;

pub use batch::{BatchKernel, ClassBatcher, ClassStatEntry, ClassStats, QuartetClass, NCLASSES};
pub use cost::CostModel;
pub use df::{AuxBasis, AuxSpec, ThreeCenter};
pub use pairdata::{PairView, PrimPair, ShellPair, ShellPairData};
pub use screening::{DensityNorms, Screening};
pub use teints::EriEngine;
