//! # selcache-ir
//!
//! Loop-nest intermediate representation for the *selcache* framework, a
//! reproduction of Memik et al., *"An Integrated Approach for Improving
//! Cache Behavior"* (DATE 2003).
//!
//! The IR models the program shapes the paper's compiler analysis
//! distinguishes: counted loop nests containing statements whose memory
//! references are *analyzable* (scalars, affine array references) or
//! *non-analyzable* (non-affine subscripts, indexed/subscripted arrays,
//! pointer chases, struct fields). A streaming interpreter ([`Interp`])
//! lowers a program to its dynamic instruction trace — loads/stores with
//! concrete addresses, ALU ops, branches with resolved directions, and the
//! `AssistOn`/`AssistOff` marker instructions the selective scheme inserts.
//!
//! ## Example
//!
//! ```
//! use selcache_ir::{Interp, OpKind, ProgramBuilder, Subscript};
//!
//! // for i in 0..64 { A[i] = A[i] * c }
//! let mut b = ProgramBuilder::new("scale");
//! let a = b.array("A", &[64], 8);
//! b.loop_(64, |b, i| {
//!     b.stmt(|s| {
//!         s.read(a, vec![Subscript::var(i)])
//!          .fp(1)
//!          .write(a, vec![Subscript::var(i)]);
//!     });
//! });
//! let program = b.finish()?;
//! let stores = Interp::new(&program)
//!     .filter(|op| matches!(op.kind, OpKind::Store(_)))
//!     .count();
//! assert_eq!(stores, 64);
//! # Ok::<(), selcache_ir::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod expr;
mod ids;
mod interp;
mod plan;
mod pretty;
mod program;
mod region;
mod trace;

pub use builder::{ProgramBuilder, StmtBuilder};
pub use expr::{AffineExpr, Subscript};
pub use ids::{Addr, ArrayId, LoopId, RegionId, ScalarId, VarId};
pub use interp::{trace_len, Interp, InterpCheckpoint};
pub use plan::Plan;
pub use pretty::pretty;
pub use program::{
    AddressMap, ArrayDecl, Item, Layout, Loop, Marker, Program, ProgramError, Ref, RefPattern,
    Stmt, Trip,
};
pub use region::{site_count, RegionMap, RegionMapBuilder};
pub use trace::{site_index, OpKind, TraceOp, SITE_BYTES, TEXT_BASE};
