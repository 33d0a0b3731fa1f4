//! Spatial Locality Detection Table (Johnson, Merten & Hwu, MICRO 1997).
//!
//! Each entry tracks accesses within one macro-block and maintains a
//! saturating *spatial counter*: sequential block-to-block movement
//! (a spatial hit) increments it, jumps within the region decrement it.
//! When the counter is high, misses in that region fetch a larger unit
//! (the missing block plus its neighbor).

use selcache_ir::Addr;

/// SLDT geometry and thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SldtConfig {
    /// Number of table entries; a power of two.
    pub entries: usize,
    /// Macro-block (region) size in bytes; matches the MAT's macro-blocks.
    pub macro_block: u64,
    /// Cache block size used to detect block-to-block movement.
    pub block_size: u64,
    /// Counter value at or above which large fetches are requested.
    pub threshold: i32,
    /// Counter saturation bounds.
    pub max: i32,
    /// Lower saturation bound (negative).
    pub min: i32,
}

impl Default for SldtConfig {
    fn default() -> Self {
        SldtConfig { entries: 64, macro_block: 1024, block_size: 32, threshold: 2, max: 7, min: -8 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    last_block: u64,
    counter: i32,
    valid: bool,
}

/// The Spatial Locality Detection Table.
#[derive(Debug, Clone)]
pub struct Sldt {
    cfg: SldtConfig,
    entries: Vec<Entry>,
    /// `log2(macro_block)` and `log2(block_size)`.
    macro_shift: u32,
    block_shift: u32,
}

impl Sldt {
    /// Creates an empty SLDT.
    ///
    /// # Panics
    ///
    /// Panics if `entries`, `macro_block` or `block_size` is not a power
    /// of two.
    pub fn new(cfg: SldtConfig) -> Self {
        assert!(cfg.entries.is_power_of_two(), "SLDT entries must be a power of two");
        assert!(cfg.macro_block.is_power_of_two(), "macro-block must be a power of two");
        assert!(cfg.block_size.is_power_of_two(), "block size must be a power of two");
        Sldt {
            cfg,
            entries: vec![Entry { tag: 0, last_block: 0, counter: 0, valid: false }; cfg.entries],
            macro_shift: cfg.macro_block.trailing_zeros(),
            block_shift: cfg.block_size.trailing_zeros(),
        }
    }

    /// Table index of `addr`'s macro-block, and the macro-block as its tag.
    fn slot(&self, addr: Addr) -> (usize, u64) {
        let mb = addr.0 >> self.macro_shift;
        ((mb & (self.cfg.entries as u64 - 1)) as usize, mb)
    }

    /// Records an access, updating the region's spatial counter.
    pub fn record(&mut self, addr: Addr) {
        let (i, tag) = self.slot(addr);
        let block = addr.0 >> self.block_shift;
        let e = &mut self.entries[i];
        if e.valid && e.tag == tag {
            if block == e.last_block + 1 || (e.last_block > 0 && block == e.last_block - 1) {
                e.counter = (e.counter + 1).min(self.cfg.max);
            } else if block != e.last_block {
                e.counter = (e.counter - 1).max(self.cfg.min);
            }
            e.last_block = block;
        } else {
            *e = Entry { tag, last_block: block, counter: 0, valid: true };
        }
    }

    /// True when the region containing `addr` has shown enough spatial
    /// locality that a miss should fetch the adjacent block too.
    pub fn wants_large_fetch(&self, addr: Addr) -> bool {
        let (i, tag) = self.slot(addr);
        let e = &self.entries[i];
        e.valid && e.tag == tag && e.counter >= self.cfg.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sldt() -> Sldt {
        Sldt::new(SldtConfig::default())
    }

    #[test]
    fn sequential_walk_raises_counter() {
        let mut s = sldt();
        for b in 0..8u64 {
            s.record(Addr(b * 32));
        }
        assert!(s.wants_large_fetch(Addr(0)));
    }

    #[test]
    fn same_block_reuse_is_neutral() {
        let mut s = sldt();
        for _ in 0..10 {
            s.record(Addr(0));
        }
        assert!(!s.wants_large_fetch(Addr(0)));
    }

    #[test]
    fn random_jumps_lower_counter() {
        let mut s = sldt();
        // Two sequential steps to raise the counter to the threshold...
        s.record(Addr(0));
        s.record(Addr(32));
        s.record(Addr(64));
        assert!(s.wants_large_fetch(Addr(0)));
        // ...then jumps within the region pull it back down.
        s.record(Addr(512));
        s.record(Addr(128));
        assert!(!s.wants_large_fetch(Addr(0)));
    }

    #[test]
    fn retag_resets_entry() {
        let cfg = SldtConfig { entries: 2, ..SldtConfig::default() };
        let mut s = Sldt::new(cfg);
        s.record(Addr(0));
        s.record(Addr(32));
        s.record(Addr(64));
        assert!(s.wants_large_fetch(Addr(0)));
        // Macro-block 2 collides with macro-block 0 (2 entries).
        s.record(Addr(2 * 1024));
        assert!(!s.wants_large_fetch(Addr(0)));
    }

    #[test]
    #[should_panic(expected = "SLDT entries must be a power of two")]
    fn non_power_of_two_entries_panic() {
        Sldt::new(SldtConfig { entries: 48, ..SldtConfig::default() });
    }

    #[test]
    fn backward_walk_also_counts() {
        let mut s = sldt();
        s.record(Addr(96));
        s.record(Addr(64));
        s.record(Addr(32));
        assert!(s.wants_large_fetch(Addr(32)));
    }
}
