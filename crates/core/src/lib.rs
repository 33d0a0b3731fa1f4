//! # selcache-core
//!
//! The integrated selective hardware/compiler cache-optimization framework
//! of Memik et al. (DATE 2003): machine configurations (Table 1 and the
//! sensitivity variants), the four simulated versions of Section 4.3
//! (pure hardware, pure software, combined, selective), the job engine,
//! and paper-style report formatting for Table 2, Table 3, and
//! Figures 4–9.
//!
//! ## Configuring experiments
//!
//! [`ExperimentBuilder`] is the primary entry point: every knob defaults
//! sensibly (base machine, no assist, compiler config derived from the
//! machine's L1, all available cores), so callers state only what they
//! vary. [`Experiment::new`] remains as a shorthand on top of it.
//!
//! ```
//! use selcache_core::{ExperimentBuilder, MachineConfig, Version};
//! use selcache_mem::AssistKind;
//! use selcache_workloads::{Benchmark, Scale};
//!
//! let exp = ExperimentBuilder::new()
//!     .machine(MachineConfig::base())
//!     .assist(AssistKind::Bypass)
//!     .build();
//! let base = exp.run(Benchmark::Vpenta, Scale::Tiny, Version::Base);
//! let selective = exp.run(Benchmark::Vpenta, Scale::Tiny, Version::Selective);
//! // The selective scheme improves on the base machine.
//! assert!(selective.improvement_over(&base) > 0.0);
//! ```
//!
//! ## Running job sets
//!
//! Whole tables and figures are job *sets*: independent simulations the
//! [`JobEngine`] deduplicates and runs in parallel, returning results in
//! submission order (bit-identical for every thread count). The suite and
//! table entry points ([`SuiteResult::run`], [`table2`], [`table3_rows`])
//! are declarative constructors over it; build custom studies from
//! [`SimJob`] directly.
//!
//! ## Design-space sweeps
//!
//! [`SweepSpec`] declares a parameter grid over one benchmark and runs it
//! either exactly (every point simulated) or analytically — one
//! reuse-profiling trace pass per program version and line size, run in
//! parallel, evaluates the whole `(size, associativity, line)` grid, with
//! a sampled exact cross-check bounding the model error. See the
//! [`sweep`](crate::SweepSpec) types.
//!
//! ## Persistent results
//!
//! Every job has a stable 128-bit [`JobId`] — the hash of its canonical
//! execution-identity serialization ([`identity`]) — and a
//! [`JobEngine::with_store`] engine persists results to a
//! content-addressed [`Store`] keyed by it, so warm reruns of any table,
//! figure, or sweep execute zero simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod executor;
pub mod identity;
pub mod json;
mod profile;
mod report;
mod runner;
mod sampled;
pub mod store;
mod sweep;

pub use config::{ConfigVariant, MachineConfig};
pub use engine::{EngineStats, JobEngine, SimJob};
pub use executor::Executor;
pub use identity::JobId;
pub use profile::{RegionProfile, RegionProfileProbe, RegionStats};
pub use report::{
    format_region_report, format_table3, table2, table3_csv, table3_rows, BenchmarkRow,
    SuiteResult, Table3Row,
};
pub use runner::{Experiment, ExperimentBuilder, SimResult, Version};
pub use sampled::{SampledInfo, SimMode};
pub use store::{GcReport, Store, StoreStats};
pub use sweep::{
    CheckSummary, PointCheck, PointData, Sweep, SweepAxis, SweepError, SweepMode, SweepPoint,
    SweepSpec, SweepWork, VersionedMiss,
};

// Re-export the pieces callers need to parameterize experiments.
pub use selcache_mem::{AssistChoice, AssistKind, ControllerConfig};
pub use selcache_workloads::{Benchmark, Category, Scale};
