//! # olsq2
//!
//! The core crate of the OLSQ2 reproduction: *Scalable Optimal Layout
//! Synthesis for NISQ Quantum Processors* (Lin, Kimko, Tan, Bjørner, Cong —
//! DAC 2023).
//!
//! Quantum layout synthesis maps program qubits onto a device's physical
//! qubits and schedules gates, inserting SWAPs where the coupling graph
//! demands. This crate implements:
//!
//! * the paper's succinct SMT formulation ([`FlatModel`], no space
//!   variables) lowered to SAT through the `olsq2-encode` crate and solved
//!   by the in-repo CDCL solver `olsq2-sat`;
//! * the original OLSQ baseline formulation
//!   ([`ModelStyle::OlsqBaseline`]) for the speedup comparisons;
//! * depth optimization and iterative-descent SWAP optimization
//!   ([`Olsq2Synthesizer`], §III-B), incremental via activation literals;
//! * the transition-based TB-OLSQ2 ([`TbOlsq2Synthesizer`], §III-D).
//!
//! ## Quickstart
//!
//! ```
//! use olsq2::{Olsq2Synthesizer, SynthesisConfig};
//! use olsq2_arch::ibm_qx2;
//! use olsq2_circuit::generators::toffoli_circuit;
//! use olsq2_layout::verify;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = toffoli_circuit();
//! let device = ibm_qx2();
//! let synth = Olsq2Synthesizer::new(SynthesisConfig::with_swap_duration(3));
//! let outcome = synth.optimize_depth(&circuit, &device)?;
//! assert!(outcome.proven_optimal);
//! assert_eq!(verify(&circuit, &device, &outcome.result), Ok(()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod config;
pub mod cube;
pub mod incumbent;
pub mod model;
pub mod optimize;
pub mod portfolio;
pub mod sharing;
pub mod transition;
pub mod vars;

pub use bounds::{
    BoundDepthOutcome, BoundProbeStats, BoundRaceConfig, BoundScheduler, BoundSwapOutcome,
};
pub use config::{
    EncodingConfig, MappingEncoding, SolverDiversification, SynthesisConfig, TimeEncoding,
};
pub use cube::{CubeModel, CubeOutcome, CubeParams, CubeSynthesizer};
// Re-exported so downstream users can enable tracing without naming the
// obs crate explicitly.
pub use incumbent::IncumbentSlot;
pub use model::{FlatModel, ModelError, ModelSeed, ModelStyle, OverlapForm, SnapshotSlot};
pub use olsq2_obs::{Probe, Recorder};
// Re-exported so portfolio users can tune sharing without naming the sat
// crate explicitly.
pub use olsq2_sat::{ClauseExchange, ExchangeFilter, SolverFeatures};
pub use optimize::{Olsq2Synthesizer, SwapOptimizationOutcome, SynthesisError, SynthesisOutcome};
pub use portfolio::{
    MemberOutcome, MemberStrategy, PortfolioConfig, PortfolioReport, PortfolioSynthesizer,
};
pub use sharing::{CohortEndpoint, SharedClausePool, SharingStats};
pub use transition::{TbOlsq2Synthesizer, TbOutcome};
