//! # selcache-analysis
//!
//! Locality analysis over selcache traces:
//!
//! - [`ReuseProfiler`] — exact LRU reuse distances in O(N log F) time
//!   and O(F) memory for N accesses over a footprint of F blocks, and
//!   Mattson miss-ratio curves (one pass, every cache size).
//! - [`ReuseSpectrum`] / [`CacheModel`] — exact distance spectra and the
//!   binomial fully-associative → set-associative projection, evaluating
//!   arbitrary `(sets, assoc)` grids from one profile.
//! - [`PhaseDetector`] — working-set phase detection, quantifying the
//!   "phase-by-phase nature" the paper's selective scheme exploits.
//! - [`TraceProfile`] — per-array traffic, read/write mix, and
//!   sequentiality of a trace.
//!
//! ## Example
//!
//! ```
//! use selcache_analysis::ReuseProfiler;
//! use selcache_ir::{Interp, ProgramBuilder, Subscript};
//!
//! let mut b = ProgramBuilder::new("sweep");
//! let a = b.array("A", &[4096], 8);
//! b.loop_(4096, |b, i| {
//!     b.stmt(|s| { s.read(a, vec![Subscript::var(i)]); });
//! });
//! let p = b.finish()?;
//! let mut prof = ReuseProfiler::new(32);
//! for op in Interp::new(&p) {
//!     if let Some(addr) = op.kind.addr() {
//!         prof.record(addr);
//!     }
//! }
//! // A single streaming pass never reuses a block (beyond intra-block hits).
//! let curve = prof.miss_ratio_curve(&[32 * 1024]);
//! assert!(curve[0].1 > 0.2);
//! # Ok::<(), selcache_ir::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fenwick;
mod interval;
mod model;
mod phase;
mod profile;
mod reuse;

pub use fenwick::Fenwick;
pub use interval::{select, IntervalConfig, IntervalFingerprint, IntervalProfiler, Representative};
pub use model::{hit_probability, CacheModel, ReuseSpectrum};
pub use phase::{Phase, PhaseConfig, PhaseDetector};
pub use profile::{ArrayProfile, RegionProfiles, TraceProfile};
pub use reuse::{Distance, Histogram, ReuseProfiler};
