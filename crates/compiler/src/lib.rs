//! # selcache-compiler
//!
//! The compiler half of the *selcache* framework (Memik et al., DATE 2003):
//!
//! - **Reference classification** ([`classify`]) — analyzable (scalar,
//!   affine) vs. non-analyzable (non-affine, indexed, pointer, struct)
//!   references, and the threshold-based per-loop method selection of
//!   Section 2.3.
//! - **Region detection** ([`region`]) — the innermost-out algorithm of
//!   Section 2.2 that partitions a program into uniform regions and marks
//!   each with activate/deactivate (ON/OFF) instructions.
//! - **Redundant-marker elimination** ([`redundant`]) — the dataflow pass
//!   that turns Figure 2(b) into Figure 2(c).
//! - **Locality optimization** ([`passes`]) — inter-array padding
//!   ([`padding`]), loop interchange ([`interchange`]), data-layout
//!   selection ([`layout`]), iteration-space tiling ([`tiling`]), scalar
//!   replacement ([`scalar`]) and, as an extension off by default, loop
//!   fusion ([`fusion`]); legality checked by dependence analysis
//!   ([`depend`]) and driven by a reuse cost model ([`reuse`]).
//!
//! On the 13 benchmarks, at every scale and threshold, padding changes
//! every program, interchange Adi, Chaos, Mgrid, Swim and Vpenta, layout
//! the four TPC ones, and fusion Vpenta (plus TPC-D Q1/Q3 at thresholds up
//! to 0.3). Tiling and scalar replacement change none; they stay as the
//! paper's §3.2 passes.
//!
//! ## Example
//!
//! ```
//! use selcache_compiler::{optimize, selective, OptConfig};
//! use selcache_ir::{ProgramBuilder, Subscript};
//!
//! let mut b = ProgramBuilder::new("demo");
//! let a = b.array("A", &[256, 256], 8);
//! // Column-order sweep: the optimizer interchanges it.
//! b.nest2(256, 256, |b, i, j| {
//!     b.stmt(|s| { s.read(a, vec![Subscript::var(j), Subscript::var(i)]).fp(1); });
//! });
//! let p = b.finish()?;
//! let optimized = optimize(&p, &OptConfig::default());
//! let marked = selective(&p, &OptConfig::default());
//! assert!(optimized.validate().is_ok());
//! assert!(marked.validate().is_ok());
//! # Ok::<(), selcache_ir::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod depend;
pub mod fusion;
pub mod interchange;
pub mod layout;
pub mod nest;
pub mod padding;
pub mod passes;
pub mod redundant;
pub mod region;
pub mod reuse;
pub mod scalar;
pub mod tiling;

pub use classify::{loop_counts, Preference, RefCounts};
pub use depend::{band_fully_permutable, nest_dependences, permutation_legal, Dependence, Dist};
pub use fusion::{fuse_loops, FusionStats};
pub use interchange::interchange_nest;
pub use layout::select_layouts;
pub use nest::{NestLevel, PerfectNest};
pub use padding::pad_arrays;
pub use passes::{apply_to_software_loops, insert_markers, optimize, selective, OptConfig};
pub use redundant::eliminate_redundant_markers;
pub use region::{analyze_loop, detect_and_mark, region_partition, AssistPolicy, RegionClass};
pub use reuse::{innermost_cost, preferred_permutation, ref_stride};
pub use scalar::scalar_replace;
pub use tiling::{tile_nest, IdAlloc};
