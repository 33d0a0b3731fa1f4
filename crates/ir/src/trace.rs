//! Dynamic-trace representation: the instruction stream consumed by the
//! processor model.

use crate::ids::{Addr, RegionId};
use std::fmt;

/// Base virtual address of the synthetic text segment.
pub const TEXT_BASE: u64 = 0x0040_0000;

/// Bytes reserved per static statement / loop-latch site in the synthetic
/// text segment (16 four-byte instruction slots).
pub const SITE_BYTES: u64 = 64;

/// The static-site index of a program counter, or `None` for PCs below the
/// text segment. Sites are numbered in the deterministic pre-order walk the
/// interpreter uses to assign PCs, so `site_index` is the key that joins a
/// dynamic event back to its static statement (and, through
/// [`crate::RegionMap`], to its region).
#[inline]
pub fn site_index(pc: u64) -> Option<usize> {
    pc.checked_sub(TEXT_BASE).map(|off| (off / SITE_BYTES) as usize)
}

/// The operation class of one dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Integer ALU operation (1-cycle latency class).
    IntAlu,
    /// Floating-point operation (multi-cycle latency class).
    FpAlu,
    /// Load from the given data address.
    Load(Addr),
    /// Store to the given data address.
    Store(Addr),
    /// Conditional branch with its resolved direction.
    Branch {
        /// True if the branch is taken.
        taken: bool,
    },
    /// Activate the hardware cache assist (the paper's ON instruction).
    AssistOn,
    /// Deactivate the hardware cache assist (the paper's OFF instruction).
    AssistOff,
}

impl OpKind {
    /// True for loads and stores.
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(self, OpKind::Load(_) | OpKind::Store(_))
    }

    /// The data address, for memory operations.
    #[inline]
    pub fn addr(&self) -> Option<Addr> {
        match self {
            OpKind::Load(a) | OpKind::Store(a) => Some(*a),
            _ => None,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::IntAlu => write!(f, "alu"),
            OpKind::FpAlu => write!(f, "fpu"),
            OpKind::Load(a) => write!(f, "ld {a}"),
            OpKind::Store(a) => write!(f, "st {a}"),
            OpKind::Branch { taken } => write!(f, "br {}", if *taken { "T" } else { "N" }),
            OpKind::AssistOn => write!(f, "assist-on"),
            OpKind::AssistOff => write!(f, "assist-off"),
        }
    }
}

/// One dynamic instruction on the committed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceOp {
    /// Synthetic program counter (stable across executions of the same static
    /// site, so branch predictors and instruction caches behave naturally).
    pub pc: u64,
    /// Operation class.
    pub kind: OpKind,
    /// Dependence distance: this op reads the result of the op emitted `dep`
    /// positions earlier (0 = no register dependence).
    pub dep: u16,
    /// Uniform region that issued this op ([`RegionId::NONE`] when the trace
    /// was produced without a region map).
    pub region: RegionId,
}

impl TraceOp {
    /// Creates an op with no dependence.
    pub fn new(pc: u64, kind: OpKind) -> Self {
        TraceOp { pc, kind, dep: 0, region: RegionId::NONE }
    }

    /// Creates an op depending on the op `dep` positions earlier.
    pub fn with_dep(pc: u64, kind: OpKind, dep: u16) -> Self {
        TraceOp { pc, kind, dep, region: RegionId::NONE }
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}: {}", self.pc, self.kind)?;
        if self.dep != 0 {
            write!(f, " (dep -{})", self.dep)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_classification() {
        assert!(OpKind::Load(Addr(0)).is_mem());
        assert!(OpKind::Store(Addr(4)).is_mem());
        assert!(!OpKind::IntAlu.is_mem());
        assert_eq!(OpKind::Store(Addr(4)).addr(), Some(Addr(4)));
        assert_eq!(OpKind::Branch { taken: true }.addr(), None);
    }

    #[test]
    fn display() {
        let op = TraceOp::with_dep(0x400000, OpKind::Load(Addr(0x1000)), 2);
        assert_eq!(op.to_string(), "0x400000: ld 0x1000 (dep -2)");
        assert_eq!(TraceOp::new(4, OpKind::Branch { taken: false }).to_string(), "0x4: br N");
        // Ops built outside a partitioned run fall in the default region.
        assert!(TraceOp::new(TEXT_BASE, OpKind::IntAlu).region.is_none());
        assert!(op.region.is_none());
    }

    #[test]
    fn site_index_maps_text_segment() {
        assert_eq!(site_index(TEXT_BASE), Some(0));
        assert_eq!(site_index(TEXT_BASE + SITE_BYTES - 1), Some(0));
        assert_eq!(site_index(TEXT_BASE + 3 * SITE_BYTES + 8), Some(3));
        assert_eq!(site_index(0), None);
    }
}
