//! # selcache-mem
//!
//! Memory-hierarchy simulator for the *selcache* framework: set-associative
//! caches with three-C miss classification, TLBs, and the two hardware
//! locality assists evaluated by the paper — MAT/SLDT cache bypassing
//! (Johnson & Hwu) and victim caches (Jouppi) — behind a run-time enable
//! flag driven by the compiler-inserted ON/OFF instructions.
//!
//! ## Example
//!
//! ```
//! use selcache_mem::{AssistKind, HierarchyConfig, MemoryHierarchy};
//! use selcache_ir::Addr;
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::Victim));
//! let cold = mem.data_access(Addr(0x1000_0000), false, 0);
//! let warm = mem.data_access(Addr(0x1000_0000), false, 1000);
//! assert!(cold > warm);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapt;
mod bypass;
mod cache;
mod hierarchy;
mod lru;
mod mat;
mod probe;
mod sldt;
mod stats;
mod stream;
mod table;
mod tlb;
mod victim;

pub use adapt::{AdaptController, AssistChoice, ControllerConfig, Decision, WayDuel};
pub use bypass::{BufferEviction, BypassConfig, BypassEngine, FillDecision};
pub use cache::{Cache, CacheConfig, Eviction, Lookup};
pub use hierarchy::{AssistKind, HierarchyConfig, MemoryHierarchy};
pub use lru::LruSet;
pub use mat::{Mat, MatConfig};
pub use probe::{AssistEvent, CacheLevel, HierarchyStatsProbe, NullProbe, Probe, Site};
pub use sldt::{Sldt, SldtConfig};
pub use stats::{AssistStats, CacheStats, HierarchyStats, MissClass};
pub use stream::{StreamBuffers, StreamConfig};
pub use tlb::{Tlb, TlbConfig};
pub use victim::VictimCache;
