//! `clara-core`: automated SmartNIC offloading insights for network
//! functions — a Rust reproduction of Clara (SOSP 2021).
//!
//! Clara analyzes a *legacy, unported* NF and produces **offloading
//! insights**: predictions of its ported performance parameters and
//! concrete porting strategies that improve performance. The six insight
//! types of the paper map to the modules of this crate:
//!
//! | Paper section | Insight | Module |
//! |---|---|---|
//! | §3.1 | Program preparation (IR, CFG, classification) | [`prepare`] |
//! | §3.2–3.3 | Cross-platform instruction/memory prediction | [`predict`] |
//! | §4.1 | Accelerator algorithm identification | [`algid`] |
//! | §4.2 | Multicore scale-out analysis | [`scaleout`] |
//! | §4.3 | NF state placement (ILP) | [`placement`] |
//! | §4.4 | Memory access coalescing (K-means) | [`coalesce`] |
//! | §4.5 | NF colocation ranking (LambdaMART) | [`coloc`] |
//! | §6 (extension) | Partial offloading across PCIe | [`partial`] |
//!
//! The [`Clara`] facade ties them together: train once on synthesized
//! corpora, then [`Clara::analyze`] any NF to get an [`Insights`] bundle,
//! and [`Insights::port_config`] to turn the insights into a concrete
//! port for the simulator.
//!
//! # Examples
//!
//! ```no_run
//! use clara_core::{Clara, ClaraConfig, ClaraError};
//! use trafgen::{Trace, WorkloadSpec};
//!
//! # fn main() -> Result<(), ClaraError> {
//! let clara = Clara::train(&ClaraConfig::fast(1))?;
//! let nf = click_model::elements::cmsketch();
//! let trace = Trace::generate(&WorkloadSpec::large_flows(), 500, 7);
//! let insights = clara.analyze(&nf.module, &trace)?;
//! println!("predicted compute/pkt: {}", insights.predicted_compute);
//! println!("suggested cores: {}", insights.suggested_cores);
//! # Ok(())
//! # }
//! ```
//!
//! # Observability
//!
//! With the `CLARA_REPORT` environment variable set (or a bench binary's
//! `--report` flag), [`Clara::train`] and [`Clara::analyze`] record a
//! [`clara_obs`] span tree plus engine/compiler/simulator/ML counters and
//! write a JSON run report when they finish. Without a sink the
//! instrumentation is atomics-only and does not perturb results.

pub mod algid;
pub mod clara;
pub mod coalesce;
pub mod coloc;
pub mod difftest;
mod diskcache;
pub mod engine;
pub mod error;
pub mod faults;
pub mod partial;
pub mod placement;
pub mod predict;
pub mod prepare;
pub mod quantcheck;
pub mod scaleout;

pub use clara::{
    Clara, ClaraConfig, ClaraConfigBuilder, Insights, Prediction, MODEL_FORMAT_VERSION,
};
pub use coloc::{pair_interference, representative_profile, PairInterference};
pub use difftest::{DifftestConfig, DifftestReport, Divergence, DivergenceKind};
pub use engine::Engine;
pub use error::{ClaraError, PlacementFailure};
pub use faults::{FaultKind, FaultPlan};
pub use nic_sim::{NicConfig, PortConfig, WorkloadProfile};
pub use placement::plan::{
    Objective, PlacementPlan, PlacementRequest, PlacementRequestBuilder, ReplaySummary,
};
pub use predict::{BlockSample, InstructionPredictor, PredictorKind};
pub use prepare::{prepare_module, PreparedBlock, PreparedModule};
pub use quantcheck::{
    QuantcheckConfig, QuantcheckReport, QUANT_ABS_TOLERANCE, QUANT_REL_TOLERANCE,
};
pub use tinyml::quant::Precision;
