//! Statistics collected by the memory hierarchy.

use std::fmt;

/// Miss classification following the three-C model; conflict misses are
/// identified with a fully-associative LRU shadow cache of equal capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First touch of the block.
    Compulsory,
    /// Would also miss in a fully-associative cache of the same capacity.
    Capacity,
    /// Hits in the fully-associative shadow: caused by limited associativity.
    Conflict,
}

/// Per-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (reads + writes).
    pub accesses: u64,
    /// Hits in the cache proper.
    pub hits: u64,
    /// Misses (including those later served by an assist).
    pub misses: u64,
    /// Compulsory misses.
    pub compulsory: u64,
    /// Capacity misses.
    pub capacity: u64,
    /// Conflict misses.
    pub conflict: u64,
    /// Dirty blocks written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Counter deltas accumulated since `earlier` (a baseline snapshot of
    /// the same cache). Saturating, so a rewound counter yields 0 rather
    /// than wrapping.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses.saturating_sub(earlier.accesses),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            compulsory: self.compulsory.saturating_sub(earlier.compulsory),
            capacity: self.capacity.saturating_sub(earlier.capacity),
            conflict: self.conflict.saturating_sub(earlier.conflict),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
        }
    }

    pub(crate) fn record_miss(&mut self, class: MissClass) {
        self.misses += 1;
        match class {
            MissClass::Compulsory => self.compulsory += 1,
            MissClass::Capacity => self.capacity += 1,
            MissClass::Conflict => self.conflict += 1,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc={} hit={} miss={} ({:.2}%) [comp={} cap={} conf={}] wb={}",
            self.accesses,
            self.hits,
            self.misses,
            self.miss_rate() * 100.0,
            self.compulsory,
            self.capacity,
            self.conflict,
            self.writebacks
        )
    }
}

/// Counters for the hardware assists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssistStats {
    /// L1 misses served by the bypass buffer.
    pub bypass_buffer_hits: u64,
    /// Blocks routed around the L1 into the bypass buffer.
    pub bypassed_fills: u64,
    /// Blocks routed around the L2 (filled upward only).
    pub l2_bypassed_fills: u64,
    /// Adjacent blocks prefetched on SLDT advice.
    pub spatial_prefetches: u64,
    /// L1 misses served by the L1 victim cache.
    pub l1_victim_hits: u64,
    /// L2 misses served by the L2 victim cache.
    pub l2_victim_hits: u64,
    /// L1 misses served by a stream buffer.
    pub stream_hits: u64,
    /// Accesses executed while the assist was enabled.
    pub assisted_accesses: u64,
    /// Policy switches applied by the adaptive controller (0 for static runs).
    pub adapt_switches: u64,
}

impl AssistStats {
    /// Counter deltas accumulated since `earlier` (saturating).
    pub fn since(&self, earlier: &AssistStats) -> AssistStats {
        AssistStats {
            bypass_buffer_hits: self.bypass_buffer_hits.saturating_sub(earlier.bypass_buffer_hits),
            bypassed_fills: self.bypassed_fills.saturating_sub(earlier.bypassed_fills),
            l2_bypassed_fills: self.l2_bypassed_fills.saturating_sub(earlier.l2_bypassed_fills),
            spatial_prefetches: self.spatial_prefetches.saturating_sub(earlier.spatial_prefetches),
            l1_victim_hits: self.l1_victim_hits.saturating_sub(earlier.l1_victim_hits),
            l2_victim_hits: self.l2_victim_hits.saturating_sub(earlier.l2_victim_hits),
            stream_hits: self.stream_hits.saturating_sub(earlier.stream_hits),
            assisted_accesses: self.assisted_accesses.saturating_sub(earlier.assisted_accesses),
            adapt_switches: self.adapt_switches.saturating_sub(earlier.adapt_switches),
        }
    }
}

/// All hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data cache.
    pub l1d: CacheStats,
    /// L1 instruction cache.
    pub l1i: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
    /// Data TLB misses.
    pub dtlb_misses: u64,
    /// Instruction TLB misses.
    pub itlb_misses: u64,
    /// Assist counters.
    pub assist: AssistStats,
}

impl HierarchyStats {
    /// Counter deltas accumulated since `earlier` — the measurement
    /// primitive of the sampled execution mode: snapshot the stats after
    /// warmup, run the measured interval, and difference to isolate the
    /// interval's own misses.
    pub fn since(&self, earlier: &HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            l1d: self.l1d.since(&earlier.l1d),
            l1i: self.l1i.since(&earlier.l1i),
            l2: self.l2.since(&earlier.l2),
            dtlb_misses: self.dtlb_misses.saturating_sub(earlier.dtlb_misses),
            itlb_misses: self.itlb_misses.saturating_sub(earlier.itlb_misses),
            assist: self.assist.since(&earlier.assist),
        }
    }

    /// Field-wise sum of `self` and `other` scaled by `w` (weighted
    /// extrapolation of per-interval stats; fractional counts round to
    /// nearest).
    pub fn add_scaled(&mut self, other: &HierarchyStats, w: f64) {
        let s = |x: u64| (x as f64 * w).round().max(0.0) as u64;
        let add_cache = |dst: &mut CacheStats, src: &CacheStats| {
            dst.accesses += s(src.accesses);
            dst.hits += s(src.hits);
            dst.misses += s(src.misses);
            dst.compulsory += s(src.compulsory);
            dst.capacity += s(src.capacity);
            dst.conflict += s(src.conflict);
            dst.writebacks += s(src.writebacks);
        };
        add_cache(&mut self.l1d, &other.l1d);
        add_cache(&mut self.l1i, &other.l1i);
        add_cache(&mut self.l2, &other.l2);
        self.dtlb_misses += s(other.dtlb_misses);
        self.itlb_misses += s(other.itlb_misses);
        self.assist.bypass_buffer_hits += s(other.assist.bypass_buffer_hits);
        self.assist.bypassed_fills += s(other.assist.bypassed_fills);
        self.assist.l2_bypassed_fills += s(other.assist.l2_bypassed_fills);
        self.assist.spatial_prefetches += s(other.assist.spatial_prefetches);
        self.assist.l1_victim_hits += s(other.assist.l1_victim_hits);
        self.assist.l2_victim_hits += s(other.assist.l2_victim_hits);
        self.assist.stream_hits += s(other.assist.stream_hits);
        self.assist.assisted_accesses += s(other.assist.assisted_accesses);
        self.assist.adapt_switches += s(other.assist.adapt_switches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let mut s = CacheStats { accesses: 100, hits: 90, ..Default::default() };
        s.record_miss(MissClass::Conflict);
        s.record_miss(MissClass::Capacity);
        for _ in 0..8 {
            s.record_miss(MissClass::Compulsory);
        }
        assert_eq!(s.misses, 10);
        assert!((s.miss_rate() - 0.10).abs() < 1e-12);
        assert_eq!((s.compulsory, s.capacity, s.conflict), (8, 1, 1));
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn display_contains_counts() {
        let s = CacheStats { accesses: 4, hits: 3, misses: 1, ..Default::default() };
        let t = s.to_string();
        assert!(t.contains("acc=4"));
        assert!(t.contains("25.00%"));
    }
}
