//! # selcache-cpu
//!
//! Trace-driven out-of-order processor model (SimpleScalar-like) for the
//! *selcache* framework. The pipeline consumes the committed-path
//! instruction stream produced by [`selcache_ir::Interp`], modelling issue
//! width, a register update unit (RUU), a load/store queue, memory ports, a
//! bimodal branch predictor with mispredict recovery, instruction-cache
//! stalls, and the latency of every data access through a
//! [`selcache_mem::MemoryHierarchy`].
//!
//! ## Example
//!
//! ```
//! use selcache_cpu::{CpuConfig, Pipeline};
//! use selcache_ir::{ProgramBuilder, Subscript, Interp};
//! use selcache_mem::{AssistKind, HierarchyConfig, MemoryHierarchy};
//!
//! let mut b = ProgramBuilder::new("sum");
//! let a = b.array("A", &[1024], 8);
//! b.loop_(1024, |b, i| {
//!     b.stmt(|s| { s.read(a, vec![Subscript::var(i)]).fp(1); });
//! });
//! let program = b.finish()?;
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
//! let stats = Pipeline::new(CpuConfig::paper_base()).run(Interp::new(&program), &mut mem);
//! assert_eq!(stats.loads, 1024);
//! # Ok::<(), selcache_ir::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod pipeline;
mod predictor;
mod stats;

pub use config::{CpuConfig, CpuModel};
pub use pipeline::Pipeline;
pub use predictor::Bimodal;
pub use stats::{CpuStats, CpuStatsProbe};
