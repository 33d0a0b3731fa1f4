//! Typed identifiers and the [`Addr`] newtype used across the framework.

use std::fmt;

/// A byte address in the simulated address space.
///
/// Addresses are produced by the IR interpreter ([`crate::Interp`]) and
/// consumed by the memory-hierarchy simulator. The newtype keeps raw `u64`
/// arithmetic out of API signatures.
///
/// ```
/// use selcache_ir::Addr;
/// let a = Addr(0x1000);
/// assert_eq!(a.block(32), 0x1000 / 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Block number for a given block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block_size` is zero.
    #[inline]
    pub fn block(self, block_size: u64) -> u64 {
        debug_assert!(block_size > 0);
        self.0 / block_size
    }

    /// The address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The underlying index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", stringify!($name).chars().next().unwrap().to_ascii_lowercase(), self.0)
            }
        }
    };
}

id_type! {
    /// Identifies an array declared in a [`crate::Program`].
    ArrayId
}

id_type! {
    /// Identifies a loop induction variable.
    ///
    /// Variables are numbered densely per program; see
    /// [`crate::Program::num_vars`].
    VarId
}

id_type! {
    /// Identifies a named scalar variable (stack slot).
    ScalarId
}

id_type! {
    /// Identifies a loop in the program tree (dense, assigned by the builder).
    LoopId
}

id_type! {
    /// Identifies a uniform region of the program (dense, assigned by the
    /// region partition in [`crate::RegionMap`] order).
    RegionId
}

impl RegionId {
    /// Sentinel for "no region": trace ops outside any partitioned region
    /// (or produced without a region map) carry this value.
    pub const NONE: RegionId = RegionId(u32::MAX);

    /// True if this is the [`RegionId::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_block_math() {
        let a = Addr(100);
        assert_eq!(a.block(32), 3);
        assert_eq!(a.offset(28).0, 128);
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(format!("{:x}", Addr(255)), "ff");
    }

    #[test]
    fn addr_conversions_roundtrip() {
        let a: Addr = 42u64.into();
        let v: u64 = a.into();
        assert_eq!(v, 42);
    }

    #[test]
    fn id_display() {
        assert_eq!(ArrayId(3).to_string(), "a3");
        assert_eq!(VarId(0).to_string(), "v0");
        assert_eq!(ScalarId(7).to_string(), "s7");
        assert_eq!(LoopId(2).to_string(), "l2");
        assert_eq!(RegionId(1).to_string(), "r1");
    }

    #[test]
    fn region_none_sentinel() {
        assert!(RegionId::NONE.is_none());
        assert!(!RegionId(0).is_none());
    }

    #[test]
    fn id_index() {
        assert_eq!(ArrayId(9).index(), 9);
    }

    #[test]
    fn addr_ordering() {
        assert!(Addr(1) < Addr(2));
        assert_eq!(Addr::default(), Addr(0));
    }
}
