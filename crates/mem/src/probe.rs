//! Composable instrumentation: the [`Probe`] observer trait.
//!
//! Every statistic the simulator produces flows through a probe as a typed
//! event carrying its static [`Site`] (PC + region), so observers can slice
//! behaviour any way they like — whole-run aggregates, per-region tables,
//! per-array bypass counts — without the simulator hard-wiring any of them.
//!
//! The hot paths are generic over `P: Probe` and every default method is an
//! empty `#[inline]` body, so the [`NullProbe`] fast path monomorphizes to
//! exactly the uninstrumented code. Probes compose: `(A, B)` fans every
//! event out to both halves, and `&mut P` forwards, so call sites can stack
//! an always-on stats probe with a caller-supplied one.

use crate::adapt::AssistChoice;
use crate::cache::Lookup;
use crate::stats::HierarchyStats;
use selcache_ir::{Addr, OpKind, RegionId};

/// Static-site provenance attached to every event: the synthetic PC of the
/// instruction that caused it and the region owning that PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Synthetic program counter of the causing instruction.
    pub pc: u64,
    /// Region owning the site ([`RegionId::NONE`] when untracked).
    pub region: RegionId,
}

impl Site {
    /// A site with no provenance (legacy entry points, warm-up traffic).
    pub const UNKNOWN: Site = Site { pc: 0, region: RegionId::NONE };

    /// Creates a site.
    #[inline]
    pub fn new(pc: u64, region: RegionId) -> Self {
        Site { pc, region }
    }
}

/// Which cache a [`Probe::cache_access`] / [`Probe::writeback`] event refers
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    /// L1 data cache.
    L1d,
    /// L1 instruction cache.
    L1i,
    /// Unified L2.
    L2,
}

/// An assist-mechanism event (see [`crate::AssistKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssistEvent {
    /// A data access was observed while the assist was active (MAT/SLDT
    /// training, coverage accounting).
    Observed,
    /// An L1 miss was served by the bypass buffer.
    BufferHit,
    /// The bypass engine chose not to allocate the block in L1.
    BypassFill,
    /// The bypass engine skipped the L2 fill for a cold region.
    L2BypassFill,
    /// The bypass engine chose a normal L1 allocation.
    Allocate {
        /// True when the SLDT requested an adjacent-block prefetch.
        prefetch: bool,
    },
    /// An adjacent block was actually prefetched from L2 into L1.
    SpatialPrefetch,
    /// An L1 miss was served by the L1 victim cache (swap).
    L1VictimHit,
    /// An L2 miss was served by the L2 victim cache.
    L2VictimHit,
    /// An L1 miss was served by a stream buffer.
    StreamHit,
}

/// Observer of simulation events.
///
/// All methods default to empty `#[inline]` bodies: a probe implements only
/// the events it cares about, and unimplemented events cost nothing.
#[allow(unused_variables)]
pub trait Probe {
    /// `n` simulated cycles elapsed, attributed to the region of the oldest
    /// in-flight instruction (the commit bottleneck). The pipeline reports
    /// a busy cycle as `n = 1` and a span of idle cycles as one call.
    #[inline]
    fn cycles(&mut self, region: RegionId, n: u64) {}

    /// An instruction committed.
    #[inline]
    fn commit(&mut self, site: Site, kind: OpKind) {}

    /// A cache was looked up (hit or classified miss).
    #[inline]
    fn cache_access(
        &mut self,
        level: CacheLevel,
        site: Site,
        addr: Addr,
        write: bool,
        lookup: Lookup,
    ) {
    }

    /// A dirty line was written back out of the given cache.
    #[inline]
    fn writeback(&mut self, level: CacheLevel) {}

    /// A TLB miss (`inst` distinguishes the instruction TLB).
    #[inline]
    fn tlb_miss(&mut self, site: Site, inst: bool) {}

    /// An assist mechanism acted on a data access.
    #[inline]
    fn assist(&mut self, site: Site, addr: Addr, event: AssistEvent) {}

    /// The run-time assist flag was toggled (an ON/OFF marker dispatched).
    #[inline]
    fn assist_toggle(&mut self, site: Site, on: bool) {}

    /// The adaptive controller reached an interval boundary for the
    /// region of `site` and settled on `choice` (`switched` is true when
    /// that changed the previously applied policy).
    #[inline]
    fn adapt_decision(&mut self, site: Site, choice: AssistChoice, switched: bool) {}

    /// The adaptive way duel re-balanced the L1: the irregular side now
    /// holds `irregular_ways` ways per set.
    #[inline]
    fn adapt_partition(&mut self, irregular_ways: u32) {}

    /// A branch mispredicted.
    #[inline]
    fn mispredict(&mut self, site: Site) {}

    /// `n` cycles in which fetch was blocked (misprediction redirect or
    /// icache stall).
    #[inline]
    fn fetch_stalls(&mut self, n: u64) {}

    /// `n` cycles in which instructions were in flight but none could issue.
    #[inline]
    fn issue_stalls(&mut self, n: u64) {}
}

/// The zero-cost probe: every event is a no-op, monomorphizing the
/// simulation paths back to uninstrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn cycles(&mut self, region: RegionId, n: u64) {
        (**self).cycles(region, n);
    }
    #[inline]
    fn commit(&mut self, site: Site, kind: OpKind) {
        (**self).commit(site, kind);
    }
    #[inline]
    fn cache_access(
        &mut self,
        level: CacheLevel,
        site: Site,
        addr: Addr,
        write: bool,
        lookup: Lookup,
    ) {
        (**self).cache_access(level, site, addr, write, lookup);
    }
    #[inline]
    fn writeback(&mut self, level: CacheLevel) {
        (**self).writeback(level);
    }
    #[inline]
    fn tlb_miss(&mut self, site: Site, inst: bool) {
        (**self).tlb_miss(site, inst);
    }
    #[inline]
    fn assist(&mut self, site: Site, addr: Addr, event: AssistEvent) {
        (**self).assist(site, addr, event);
    }
    #[inline]
    fn assist_toggle(&mut self, site: Site, on: bool) {
        (**self).assist_toggle(site, on);
    }
    #[inline]
    fn adapt_decision(&mut self, site: Site, choice: AssistChoice, switched: bool) {
        (**self).adapt_decision(site, choice, switched);
    }
    #[inline]
    fn adapt_partition(&mut self, irregular_ways: u32) {
        (**self).adapt_partition(irregular_ways);
    }
    #[inline]
    fn mispredict(&mut self, site: Site) {
        (**self).mispredict(site);
    }
    #[inline]
    fn fetch_stalls(&mut self, n: u64) {
        (**self).fetch_stalls(n);
    }
    #[inline]
    fn issue_stalls(&mut self, n: u64) {
        (**self).issue_stalls(n);
    }
}

/// Fan-out: every event goes to both probes, letting an always-on default
/// probe stack with a caller-supplied observer.
impl<A: Probe, B: Probe> Probe for (A, B) {
    #[inline]
    fn cycles(&mut self, region: RegionId, n: u64) {
        self.0.cycles(region, n);
        self.1.cycles(region, n);
    }
    #[inline]
    fn commit(&mut self, site: Site, kind: OpKind) {
        self.0.commit(site, kind);
        self.1.commit(site, kind);
    }
    #[inline]
    fn cache_access(
        &mut self,
        level: CacheLevel,
        site: Site,
        addr: Addr,
        write: bool,
        lookup: Lookup,
    ) {
        self.0.cache_access(level, site, addr, write, lookup);
        self.1.cache_access(level, site, addr, write, lookup);
    }
    #[inline]
    fn writeback(&mut self, level: CacheLevel) {
        self.0.writeback(level);
        self.1.writeback(level);
    }
    #[inline]
    fn tlb_miss(&mut self, site: Site, inst: bool) {
        self.0.tlb_miss(site, inst);
        self.1.tlb_miss(site, inst);
    }
    #[inline]
    fn assist(&mut self, site: Site, addr: Addr, event: AssistEvent) {
        self.0.assist(site, addr, event);
        self.1.assist(site, addr, event);
    }
    #[inline]
    fn assist_toggle(&mut self, site: Site, on: bool) {
        self.0.assist_toggle(site, on);
        self.1.assist_toggle(site, on);
    }
    #[inline]
    fn adapt_decision(&mut self, site: Site, choice: AssistChoice, switched: bool) {
        self.0.adapt_decision(site, choice, switched);
        self.1.adapt_decision(site, choice, switched);
    }
    #[inline]
    fn adapt_partition(&mut self, irregular_ways: u32) {
        self.0.adapt_partition(irregular_ways);
        self.1.adapt_partition(irregular_ways);
    }
    #[inline]
    fn mispredict(&mut self, site: Site) {
        self.0.mispredict(site);
        self.1.mispredict(site);
    }
    #[inline]
    fn fetch_stalls(&mut self, n: u64) {
        self.0.fetch_stalls(n);
        self.1.fetch_stalls(n);
    }
    #[inline]
    fn issue_stalls(&mut self, n: u64) {
        self.0.issue_stalls(n);
        self.1.issue_stalls(n);
    }
}

/// Reconstructs a [`HierarchyStats`] purely from probe events.
///
/// [`crate::MemoryHierarchy::stats`] remains the source of truth (its
/// counters live in the components); this probe exists to prove the event
/// stream is *complete* — tests assert the two are byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStatsProbe {
    stats: HierarchyStats,
}

impl HierarchyStatsProbe {
    /// Creates an empty reconstruction probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reconstructed statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }
}

impl Probe for HierarchyStatsProbe {
    fn cache_access(
        &mut self,
        level: CacheLevel,
        _site: Site,
        _addr: Addr,
        _write: bool,
        lookup: Lookup,
    ) {
        let c = match level {
            CacheLevel::L1d => &mut self.stats.l1d,
            CacheLevel::L1i => &mut self.stats.l1i,
            CacheLevel::L2 => &mut self.stats.l2,
        };
        c.accesses += 1;
        match lookup {
            Lookup::Hit => c.hits += 1,
            Lookup::Miss(class) => c.record_miss(class),
        }
    }

    fn writeback(&mut self, level: CacheLevel) {
        match level {
            CacheLevel::L1d => self.stats.l1d.writebacks += 1,
            CacheLevel::L1i => self.stats.l1i.writebacks += 1,
            CacheLevel::L2 => self.stats.l2.writebacks += 1,
        }
    }

    fn tlb_miss(&mut self, _site: Site, inst: bool) {
        if inst {
            self.stats.itlb_misses += 1;
        } else {
            self.stats.dtlb_misses += 1;
        }
    }

    fn adapt_decision(&mut self, _site: Site, _choice: AssistChoice, switched: bool) {
        self.stats.assist.adapt_switches += u64::from(switched);
    }

    fn assist(&mut self, _site: Site, _addr: Addr, event: AssistEvent) {
        let a = &mut self.stats.assist;
        match event {
            AssistEvent::Observed => a.assisted_accesses += 1,
            AssistEvent::BufferHit => a.bypass_buffer_hits += 1,
            AssistEvent::BypassFill => a.bypassed_fills += 1,
            AssistEvent::L2BypassFill => a.l2_bypassed_fills += 1,
            AssistEvent::Allocate { .. } => {}
            AssistEvent::SpatialPrefetch => a.spatial_prefetches += 1,
            AssistEvent::L1VictimHit => a.l1_victim_hits += 1,
            AssistEvent::L2VictimHit => a.l2_victim_hits += 1,
            AssistEvent::StreamHit => a.stream_hits += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MissClass;

    #[derive(Default)]
    struct Counter {
        cycles: u64,
        accesses: u64,
    }

    impl Probe for Counter {
        fn cycles(&mut self, _region: RegionId, n: u64) {
            self.cycles += n;
        }
        fn cache_access(&mut self, _l: CacheLevel, _s: Site, _a: Addr, _w: bool, _lk: Lookup) {
            self.accesses += 1;
        }
    }

    #[test]
    fn pair_probe_fans_out() {
        let mut pair = (Counter::default(), Counter::default());
        pair.cycles(RegionId(0), 3);
        pair.cache_access(CacheLevel::L1d, Site::UNKNOWN, Addr(0), false, Lookup::Hit);
        assert_eq!((pair.0.cycles, pair.1.cycles), (3, 3));
        assert_eq!((pair.0.accesses, pair.1.accesses), (1, 1));
    }

    #[test]
    fn mut_ref_forwards() {
        fn tick<P: Probe>(mut p: P) {
            p.cycles(RegionId::NONE, 1);
        }
        let mut c = Counter::default();
        tick(&mut c);
        assert_eq!(c.cycles, 1);
    }

    #[test]
    fn stats_probe_reconstructs_counters() {
        let mut p = HierarchyStatsProbe::new();
        p.cache_access(CacheLevel::L1d, Site::UNKNOWN, Addr(0), false, Lookup::Hit);
        p.cache_access(
            CacheLevel::L1d,
            Site::UNKNOWN,
            Addr(32),
            true,
            Lookup::Miss(MissClass::Compulsory),
        );
        p.cache_access(
            CacheLevel::L2,
            Site::UNKNOWN,
            Addr(32),
            false,
            Lookup::Miss(MissClass::Conflict),
        );
        p.writeback(CacheLevel::L2);
        p.tlb_miss(Site::UNKNOWN, false);
        p.assist(Site::UNKNOWN, Addr(0), AssistEvent::Observed);
        p.assist(Site::UNKNOWN, Addr(0), AssistEvent::BufferHit);
        let s = p.stats();
        assert_eq!((s.l1d.accesses, s.l1d.hits, s.l1d.misses, s.l1d.compulsory), (2, 1, 1, 1));
        assert_eq!((s.l2.accesses, s.l2.conflict, s.l2.writebacks), (1, 1, 1));
        assert_eq!(s.dtlb_misses, 1);
        assert_eq!((s.assist.assisted_accesses, s.assist.bypass_buffer_hits), (1, 1));
    }
}
