//! Translation lookaside buffer model.

use crate::cache::{Cache, CacheConfig};
use selcache_ir::Addr;

/// TLB geometry and miss penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub assoc: u32,
    /// Page size in bytes (power of two).
    pub page_size: u64,
    /// Extra cycles charged on a TLB miss (software/hardware page walk).
    pub miss_penalty: u64,
}

impl TlbConfig {
    /// The paper's data-TLB configuration interpretation: 4-way, 4 KiB pages.
    pub fn data() -> Self {
        TlbConfig { entries: 128, assoc: 4, page_size: 4096, miss_penalty: 30 }
    }

    /// Instruction-TLB configuration.
    pub fn inst() -> Self {
        TlbConfig { entries: 64, assoc: 4, page_size: 4096, miss_penalty: 30 }
    }
}

/// A TLB: a small set-associative cache of page numbers.
#[derive(Debug, Clone)]
pub struct Tlb {
    cache: Cache,
    cfg: TlbConfig,
    /// `log2(page_size)`; pages are powers of two, so page numbers shift.
    page_shift: u32,
}

impl Tlb {
    /// Creates a TLB.
    ///
    /// # Panics
    ///
    /// Panics if the page size is not a power of two, entries is zero, or
    /// entries is not a multiple of the associativity.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0, "TLB must have entries");
        let cache_cfg = CacheConfig {
            size: cfg.entries as u64 * cfg.page_size,
            assoc: cfg.assoc,
            block_size: cfg.page_size,
        };
        Tlb { cache: Cache::new(cache_cfg), page_shift: cfg.page_size.trailing_zeros(), cfg }
    }

    /// Translates `addr`, returning the extra latency (0 on a hit, the miss
    /// penalty on a miss). The missing translation is installed.
    pub fn access(&mut self, addr: Addr) -> u64 {
        let page = addr.0 >> self.page_shift;
        if self.cache.access(page, false).is_hit() {
            0
        } else {
            self.cache.fill(page, false);
            self.cfg.miss_penalty
        }
    }

    /// Total misses so far (the page cache's own miss count).
    pub fn misses(&self) -> u64 {
        self.cache.stats().misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut t = Tlb::new(TlbConfig::data());
        assert_eq!(t.access(Addr(0x1000)), 30);
        assert_eq!(t.access(Addr(0x1FF8)), 0); // same page
        assert_eq!(t.access(Addr(0x2000)), 30); // next page
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn capacity_pressure_evicts() {
        let cfg = TlbConfig { entries: 4, assoc: 4, page_size: 4096, miss_penalty: 10 };
        let mut t = Tlb::new(cfg);
        for p in 0..5u64 {
            t.access(Addr(p * 4096));
        }
        // Page 0 was LRU-evicted by page 4.
        assert_eq!(t.access(Addr(0)), 10);
    }
}
