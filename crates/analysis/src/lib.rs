//! # selcache-analysis
//!
//! Locality analysis over selcache traces:
//!
//! - [`ReuseProfiler`] — exact LRU reuse distances in O(N log F) time
//!   and O(F) memory for N accesses over a footprint of F blocks.
//! - [`ReuseSpectrum`] / [`CacheModel`] — exact distance spectra, whose
//!   Mattson curve gives the fully-associative miss ratio of every cache
//!   size from one pass, and the binomial fully-associative →
//!   set-associative projection, evaluating arbitrary `(sets, assoc)`
//!   grids from one profile.
//! - [`IntervalProfiler`] / [`select`] — interval fingerprints and
//!   representative selection for sampled simulation.
//!
//! ## Example
//!
//! ```
//! use selcache_analysis::{ReuseProfiler, ReuseSpectrum};
//! use selcache_ir::{Interp, ProgramBuilder, Subscript};
//!
//! let mut b = ProgramBuilder::new("sweep");
//! let a = b.array("A", &[4096], 8);
//! b.loop_(4096, |b, i| {
//!     b.stmt(|s| { s.read(a, vec![Subscript::var(i)]); });
//! });
//! let p = b.finish()?;
//! let mut prof = ReuseProfiler::new(32);
//! let mut spec = ReuseSpectrum::new();
//! for op in Interp::new(&p) {
//!     if let Some(addr) = op.kind.addr() {
//!         spec.record(prof.record(addr));
//!     }
//! }
//! // A single streaming pass never reuses a block (beyond intra-block hits).
//! assert!(spec.fa_miss_ratio(32 * 1024 / 32) > 0.2);
//! # Ok::<(), selcache_ir::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fenwick;
mod interval;
mod model;
mod reuse;

pub use fenwick::Fenwick;
pub use interval::{select, IntervalConfig, IntervalFingerprint, IntervalProfiler, Representative};
pub use model::{hit_probability, CacheModel, ReuseSpectrum};
pub use reuse::{Distance, ReuseProfiler};
