//! The cache-bypassing assist: MAT-guided selective caching with a small
//! fully-associative bypass buffer and SLDT-guided variable-size fetches
//! (Johnson & Hwu [8], Johnson, Merten & Hwu [9]).

use crate::lru::LruSet;
use crate::mat::{Mat, MatConfig};
use crate::sldt::{Sldt, SldtConfig};
use selcache_ir::Addr;

/// Configuration of the bypassing assist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BypassConfig {
    /// Bypass-buffer capacity in bytes (64 double words = 512 B in the
    /// paper).
    pub buffer_bytes: u64,
    /// L1 block size (the buffer stores L1-sized blocks).
    pub block_size: u64,
    /// Memory Access Table configuration.
    pub mat: MatConfig,
    /// Spatial Locality Detection Table configuration.
    pub sldt: SldtConfig,
}

impl BypassConfig {
    /// The paper's configuration for a given L1 block size.
    pub fn paper(block_size: u64) -> Self {
        BypassConfig {
            buffer_bytes: 64 * 8,
            block_size,
            mat: MatConfig::default(),
            sldt: SldtConfig { block_size, ..SldtConfig::default() },
        }
    }
}

/// What to do with a block fetched after an L1 miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillDecision {
    /// Route the block around the L1 into the bypass buffer.
    Bypass,
    /// Allocate into the L1 normally; `prefetch_next` requests the adjacent
    /// block as well (SLDT advice).
    Allocate {
        /// Fetch the next sequential block too.
        prefetch_next: bool,
    },
}

/// The bypassing engine attached to the L1 data cache.
#[derive(Debug, Clone)]
pub struct BypassEngine {
    buffer: LruSet,
    mat: Mat,
    sldt: Sldt,
    buffer_hits: u64,
    bypassed: u64,
    l2_bypassed: u64,
}

/// A dirty block pushed out of the bypass buffer (needs a write-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferEviction {
    /// Evicted block number.
    pub block: u64,
    /// True if the block held modified data.
    pub dirty: bool,
}

impl BypassEngine {
    /// Creates the engine.
    ///
    /// # Panics
    ///
    /// Panics if the buffer holds fewer than one block.
    pub fn new(cfg: BypassConfig) -> Self {
        let blocks = (cfg.buffer_bytes / cfg.block_size).max(1) as usize;
        BypassEngine {
            buffer: LruSet::new(blocks),
            mat: Mat::new(cfg.mat),
            sldt: Sldt::new(cfg.sldt),
            buffer_hits: 0,
            bypassed: 0,
            l2_bypassed: 0,
        }
    }

    /// Records an access in the MAT and SLDT (called on every assisted L1
    /// data access).
    pub fn observe(&mut self, addr: Addr) {
        self.mat.record(addr);
        self.sldt.record(addr);
    }

    /// Probes the bypass buffer on an L1 miss; a hit refreshes recency (and
    /// marks the block dirty on a write).
    pub fn probe_buffer(&mut self, block: u64, write: bool) -> bool {
        if self.buffer.contains(block) {
            self.buffer.insert(block, write);
            self.buffer_hits += 1;
            true
        } else {
            false
        }
    }

    /// Decides the fill policy for a block fetched after an L1 miss, given
    /// the address of the line the L1 would evict (None if the set has room).
    /// Regions with detected spatial locality are never bypassed — the SLDT
    /// exists to recognize streams whose neighbors will be used (\[9\]).
    pub fn decide(&mut self, incoming: Addr, l1_victim: Option<Addr>) -> FillDecision {
        let spatial = self.sldt.wants_large_fetch(incoming);
        if !spatial {
            if let Some(victim) = l1_victim {
                if self.mat.should_bypass(incoming, victim) {
                    self.bypassed += 1;
                    return FillDecision::Bypass;
                }
            }
        }
        FillDecision::Allocate { prefetch_next: spatial }
    }

    /// Inserts a bypassed block into the buffer, returning any dirty block
    /// pushed out (clean overflows are dropped silently).
    pub fn insert_buffer(&mut self, block: u64, dirty: bool) -> Option<BufferEviction> {
        self.buffer
            .insert(block, dirty)
            .map(|(b, d)| BufferEviction { block: b, dirty: d })
            .filter(|e| e.dirty)
    }

    /// L2 fill decision (the scheme of \[8\] manages both levels): true when
    /// the incoming region is colder than the region of the L2 line it
    /// would replace — the block then goes straight to the L1/bypass buffer
    /// without polluting the L2.
    pub fn decide_l2_bypass(&mut self, incoming: Addr, l2_victim: Option<Addr>) -> bool {
        if let Some(victim) = l2_victim {
            if self.mat.should_bypass_conservative(incoming, victim) {
                self.l2_bypassed += 1;
                return true;
            }
        }
        false
    }

    /// Blocks routed around the L2.
    pub fn l2_bypassed(&self) -> u64 {
        self.l2_bypassed
    }

    /// Misses served by the bypass buffer.
    pub fn buffer_hits(&self) -> u64 {
        self.buffer_hits
    }

    /// Blocks routed around the L1.
    pub fn bypassed(&self) -> u64 {
        self.bypassed
    }

    /// Read access to the MAT.
    pub fn mat(&self) -> &Mat {
        &self.mat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> BypassEngine {
        BypassEngine::new(BypassConfig::paper(32))
    }

    #[test]
    fn buffer_capacity_from_bytes() {
        // 512 B / 32 B = 16 blocks: the 17th distinct block evicts the first.
        let mut e = engine();
        for b in 0..16 {
            assert_eq!(e.insert_buffer(b, true), None);
        }
        assert_eq!(e.insert_buffer(16, true), Some(BufferEviction { block: 0, dirty: true }));
    }

    #[test]
    fn cold_region_bypasses_against_hot_victim() {
        let mut e = engine();
        let hot = Addr(0);
        let cold = Addr(1024 * 1024);
        for _ in 0..50 {
            e.observe(hot);
        }
        e.observe(cold);
        assert_eq!(e.decide(cold, Some(hot)), FillDecision::Bypass);
        assert_eq!(e.bypassed(), 1);
    }

    #[test]
    fn hot_region_allocates() {
        let mut e = engine();
        let hot = Addr(0);
        let cold = Addr(1024 * 1024);
        for _ in 0..50 {
            e.observe(hot);
        }
        e.observe(cold);
        assert!(matches!(e.decide(hot, Some(cold)), FillDecision::Allocate { .. }));
    }

    #[test]
    fn no_victim_means_allocate() {
        let mut e = engine();
        assert!(matches!(e.decide(Addr(0), None), FillDecision::Allocate { .. }));
    }

    #[test]
    fn sequential_region_requests_prefetch() {
        let mut e = engine();
        for b in 0..8u64 {
            e.observe(Addr(b * 32));
        }
        // Observing raised this region's own MAT count, so allocate wins,
        // and the SLDT advises a large fetch.
        match e.decide(Addr(8 * 32), None) {
            FillDecision::Allocate { prefetch_next } => assert!(prefetch_next),
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn buffer_probe_and_dirty_eviction() {
        let mut e = engine();
        assert!(!e.probe_buffer(5, false));
        e.insert_buffer(5, true);
        assert!(e.probe_buffer(5, false));
        assert_eq!(e.buffer_hits(), 1);
        // Fill the buffer; the dirty block 5 eventually falls out.
        let mut dirty_evictions = 0;
        for b in 100..120 {
            if e.insert_buffer(b, false).is_some() {
                dirty_evictions += 1;
            }
        }
        assert_eq!(dirty_evictions, 1);
    }
}
