//! # selcache
//!
//! Facade crate for the *selcache* framework — a full reproduction of
//! Memik, Kandemir, Choudhary, Kadayif, *"An Integrated Approach for
//! Improving Cache Behavior"* (DATE 2003).
//!
//! The paper's idea: a compiler partitions a program into *uniform regions*
//! (regular vs. irregular memory access), statically optimizes the regular
//! regions with loop and data transformations, and brackets the rest with
//! `activate`/`deactivate` instructions that switch a hardware cache assist
//! (MAT-based cache bypassing or a victim cache) on only where it helps.
//!
//! This facade re-exports the subsystem crates:
//!
//! - [`ir`] — loop-nest IR and trace generation
//! - [`mem`] — cache hierarchy, victim cache, MAT/SLDT bypassing
//! - [`cpu`] — out-of-order processor model
//! - [`compiler`] — region detection, ON/OFF insertion, locality transforms
//! - [`workloads`] — the 13 synthetic benchmarks
//! - [`core`] — the integrated framework, experiment runner, and reports
//! - [`analysis`] — reuse distances, miss-ratio models, and sampling intervals
//!
//! ## Quickstart
//!
//! ```
//! use selcache::core::{AssistKind, Experiment, MachineConfig, Version};
//! use selcache::workloads::{Benchmark, Scale};
//!
//! let exp = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
//! let result = exp.run(Benchmark::TpcDQ6, Scale::Tiny, Version::Selective);
//! assert!(result.cycles > 0);
//! ```

pub use selcache_analysis as analysis;
pub use selcache_compiler as compiler;
pub use selcache_core as core;
pub use selcache_cpu as cpu;
pub use selcache_ir as ir;
pub use selcache_mem as mem;
pub use selcache_workloads as workloads;
