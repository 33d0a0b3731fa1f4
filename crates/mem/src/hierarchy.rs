//! The composed two-level memory hierarchy with pluggable hardware assists.
//!
//! Latency model (base configuration = Table 1 of the paper): L1 access
//! 2 cycles, L2 access 10 cycles, memory 100 cycles plus block transfer over
//! an 8-byte bus. Assist hits (bypass buffer, victim cache) cost one cycle on
//! top of the L1 latency. The assist is gated by the run-time flag toggled by
//! the `AssistOn`/`AssistOff` instructions: while the flag is off the assist
//! structures are neither probed nor updated ("we simply ignore the
//! mechanism"), so stale training state persists across phases — the effect
//! the selective scheme exploits.

use crate::adapt::{AdaptController, AssistChoice, ControllerConfig, WayDuel};
use crate::bypass::{BypassConfig, BypassEngine, FillDecision};
use crate::cache::{Cache, CacheConfig, Eviction};
use crate::probe::{AssistEvent, CacheLevel, NullProbe, Probe, Site};
use crate::stats::{AssistStats, HierarchyStats};
use crate::tlb::{Tlb, TlbConfig};
use crate::victim::VictimCache;
use selcache_ir::Addr;

/// Which hardware locality-optimization mechanism is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AssistKind {
    /// No assist (the base machine).
    #[default]
    None,
    /// MAT/SLDT cache bypassing with a bypass buffer (Section 3.1, \[8,9\]).
    Bypass,
    /// Victim caches on L1 and L2 (\[10\]).
    Victim,
    /// Sequential stream-buffer prefetching (\[10\]; the related-work
    /// "hardware prefetching" entry — an extension assist).
    Stream,
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// L1 access latency in cycles.
    pub l1_latency: u64,
    /// L2 access latency in cycles.
    pub l2_latency: u64,
    /// Main-memory access latency in cycles.
    pub mem_latency: u64,
    /// Memory bus width in bytes (block transfer time = block/bus).
    pub bus_bytes: u64,
    /// Cycles each L2 access occupies the L2 port (an L1 block transfer
    /// over the on-chip bus). Back-to-back L1 misses queue on this.
    pub l2_occupancy: u64,
    /// DRAM row-buffer (page) size in bytes: a memory access to the same
    /// page as the previous one pays [`HierarchyConfig::dram_hit_latency`]
    /// instead of the full `mem_latency`.
    pub dram_page_bytes: u64,
    /// Memory latency for a DRAM row-buffer hit.
    pub dram_hit_latency: u64,
    /// DRAM banks: page-miss accesses occupy the memory system for
    /// `mem_latency / dram_banks` cycles, bounding random-access throughput
    /// (page hits stream at bus speed).
    pub dram_banks: u64,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Attached assist.
    pub assist: AssistKind,
    /// Bypass-assist parameters (used when `assist == Bypass`).
    pub bypass: BypassConfig,
    /// L1 victim-cache entries (used when `assist == Victim`).
    pub l1_victim_entries: usize,
    /// L2 victim-cache entries (used when `assist == Victim`).
    pub l2_victim_entries: usize,
    /// Stream-buffer parameters (used when `assist == Stream` and no
    /// controller is attached).
    pub stream: crate::stream::StreamConfig,
    /// Online per-region assist controller. When set, both the bypass and
    /// victim structures are built and the controller picks among
    /// {off, bypass, victim} per region at run time; no stream buffers are
    /// built, whatever the [`AssistKind`] field says. When `None`, assist
    /// selection is fully static.
    pub controller: Option<ControllerConfig>,
}

impl HierarchyConfig {
    /// The paper's base machine (Table 1) with the given assist: 32 KiB
    /// 4-way 32 B-block L1s, 512 KiB 4-way 128 B-block L2, 2/10/100-cycle
    /// latencies, 8-byte memory bus, 64/512-entry victim caches.
    pub fn paper_base(assist: AssistKind) -> Self {
        HierarchyConfig {
            l1d: CacheConfig::kib(32, 4, 32),
            l1i: CacheConfig::kib(32, 4, 32),
            l2: CacheConfig::kib(512, 4, 128),
            l1_latency: 2,
            l2_latency: 10,
            mem_latency: 100,
            bus_bytes: 8,
            l2_occupancy: 4,
            dram_page_bytes: 4096,
            dram_hit_latency: 25,
            dram_banks: 8,
            dtlb: TlbConfig::data(),
            itlb: TlbConfig::inst(),
            assist,
            bypass: BypassConfig::paper(32),
            l1_victim_entries: 64,
            l2_victim_entries: 512,
            stream: crate::stream::StreamConfig::default(),
            controller: None,
        }
    }
}

/// The simulated memory hierarchy.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    dtlb: Tlb,
    itlb: Tlb,
    bypass: Option<BypassEngine>,
    victim_l1: Option<VictimCache>,
    victim_l2: Option<VictimCache>,
    stream: Option<crate::stream::StreamBuffers>,
    adapt: Option<AdaptController>,
    duel: Option<WayDuel>,
    /// Assist policy resolved for the in-flight data access: `Some` only
    /// while a controller is attached and the assist flag is on (`None` on
    /// the static path and during instruction fetches).
    cur_choice: Option<AssistChoice>,
    enabled: bool,
    assisted_accesses: u64,
    spatial_prefetches: u64,
    /// Cycle until which the L2 port is busy (bandwidth contention).
    l2_busy_until: u64,
    /// Cycle until which the memory bus is busy.
    mem_busy_until: u64,
    /// Open DRAM row (page number) per bank, for the row-buffer hit model.
    open_dram_rows: Vec<u64>,
}

impl MemoryHierarchy {
    /// Builds a hierarchy; the assist starts *enabled* (matching the pure
    /// hardware and combined versions; the selective version toggles it).
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if `bus_bytes` is zero: every block
    /// transfer over the memory bus divides by it.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(cfg.bus_bytes > 0, "HierarchyConfig::bus_bytes must be at least 1");
        // A controller arbitrates between bypassing and victim caching at
        // run time, so it needs both structures built regardless of the
        // static assist selection; it never picks stream buffers.
        let dynamic = cfg.controller.is_some();
        let bypass =
            (cfg.assist == AssistKind::Bypass || dynamic).then(|| BypassEngine::new(cfg.bypass));
        let victim_l1 = (cfg.assist == AssistKind::Victim || dynamic)
            .then(|| VictimCache::new(cfg.l1_victim_entries));
        let victim_l2 = (cfg.assist == AssistKind::Victim || dynamic)
            .then(|| VictimCache::new(cfg.l2_victim_entries));
        let stream = (cfg.assist == AssistKind::Stream && !dynamic)
            .then(|| crate::stream::StreamBuffers::new(cfg.stream));
        let adapt = cfg.controller.map(AdaptController::new);
        let duel =
            cfg.controller.map(|ctl| WayDuel::new(cfg.l1d.assoc, ctl.min_ways, ctl.duel_accesses));
        MemoryHierarchy {
            l1d: Cache::with_classification(cfg.l1d),
            l1i: Cache::new(cfg.l1i),
            l2: Cache::with_classification(cfg.l2),
            dtlb: Tlb::new(cfg.dtlb),
            itlb: Tlb::new(cfg.itlb),
            bypass,
            victim_l1,
            victim_l2,
            stream,
            adapt,
            duel,
            cur_choice: None,
            enabled: true,
            assisted_accesses: 0,
            spatial_prefetches: 0,
            l2_busy_until: 0,
            mem_busy_until: 0,
            open_dram_rows: vec![u64::MAX; cfg.dram_banks.max(1) as usize],
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Sets the run-time assist flag (the ON/OFF instructions).
    pub fn set_assist_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Current state of the assist flag.
    pub fn assist_enabled(&self) -> bool {
        self.enabled
    }

    /// True when an assist is attached *and* currently enabled.
    fn assist_active(&self) -> bool {
        self.enabled && self.cfg.assist != AssistKind::None
    }

    /// Performs a data access issued at cycle `now`, returning its total
    /// latency in cycles. Latency includes queueing on the L2 port and the
    /// memory bus: bursts of misses serialize on bandwidth, so reducing the
    /// miss *count* matters even when individual misses could overlap.
    pub fn data_access(&mut self, addr: Addr, write: bool, now: u64) -> u64 {
        self.data_access_probed(addr, write, now, Site::UNKNOWN, &mut NullProbe)
    }

    /// [`MemoryHierarchy::data_access`] with event instrumentation: every
    /// cache lookup, writeback, TLB miss and assist action is reported to
    /// `probe`, attributed to `site`. The [`NullProbe`] instantiation
    /// monomorphizes back to the uninstrumented path.
    pub fn data_access_probed<P: Probe>(
        &mut self,
        addr: Addr,
        write: bool,
        now: u64,
        site: Site,
        probe: &mut P,
    ) -> u64 {
        // Resolve the access's assist policy up front: the controller's
        // current choice for the region when one is attached and the
        // run-time flag is on, `None` (static gating) otherwise. While the
        // flag is off a controller is frozen exactly like a static assist:
        // no probes, no updates, no interval accounting.
        self.cur_choice = match (&self.adapt, self.enabled) {
            (Some(ctl), true) => Some(ctl.policy(site.region)),
            _ => None,
        };
        let (latency, effective_miss) = self.data_access_inner(addr, write, now, site, probe);
        if let Some(choice) = self.cur_choice {
            let irregular = choice != AssistChoice::Off;
            if let Some(ctl) = &mut self.adapt {
                if let Some(d) = ctl.record_access(site.region, effective_miss) {
                    probe.adapt_decision(site, d.choice, d.switched);
                }
            }
            if let Some(duel) = &mut self.duel {
                if let Some(ways) = duel.record(irregular, effective_miss) {
                    probe.adapt_partition(ways);
                }
            }
        }
        latency
    }

    /// The data-access path proper; returns `(latency, effective_miss)`
    /// where the flag is true when the access left the L1 level — missed
    /// the L1 proper and was not served by an assist short path. That flag
    /// is the controller's per-access feedback signal: assist hits count
    /// as (near-)hits, so a trial's score reflects the latency the choice
    /// actually delivers.
    fn data_access_inner<P: Probe>(
        &mut self,
        addr: Addr,
        write: bool,
        now: u64,
        site: Site,
        probe: &mut P,
    ) -> (u64, bool) {
        let tlb_lat = self.dtlb.access(addr);
        if tlb_lat > 0 {
            probe.tlb_miss(site, false);
        }
        let mut t = now + self.cfg.l1_latency + tlb_lat;
        let b1 = self.l1d.block_of(addr);
        let (use_bypass, use_victim, use_stream, observed) = match self.cur_choice {
            Some(c) => (
                c == AssistChoice::Bypass,
                c == AssistChoice::Victim,
                false,
                c != AssistChoice::Off,
            ),
            None => {
                let act = self.assist_active();
                (act, act, act, act)
            }
        };
        if observed {
            self.assisted_accesses += 1;
            probe.assist(site, addr, AssistEvent::Observed);
        }
        // The MAT/SLDT trains on every access the mechanism can see: all
        // assisted accesses in the static scheme and — under a controller —
        // every access while the flag is on, so a bypass trial starts from
        // a trained table rather than a cold one.
        if observed || self.cur_choice.is_some() {
            if let Some(engine) = &mut self.bypass {
                engine.observe(addr);
            }
        }
        let lookup = self.l1d.access(b1, write);
        probe.cache_access(CacheLevel::L1d, site, addr, write, lookup);
        if lookup.is_hit() {
            return (t - now, false);
        }
        // L1 miss: assist short paths (no L2 port traffic). A bypass-buffer
        // hit costs two extra cycles (miss detection + buffer access) — the
        // overhead that makes bypassing costlier than a victim swap.
        if use_bypass {
            if let Some(engine) = &mut self.bypass {
                if engine.probe_buffer(b1, write) {
                    probe.assist(site, addr, AssistEvent::BufferHit);
                    return (t + 2 - now, false);
                }
            }
        }
        if use_victim {
            if let Some(victim) = &mut self.victim_l1 {
                if let Some(dirty) = victim.probe_remove(b1) {
                    // Swap: block returns to L1, the displaced line moves to
                    // the victim cache.
                    probe.assist(site, addr, AssistEvent::L1VictimHit);
                    self.fill_l1_with_victim(b1, dirty || write, probe);
                    return (t + 1 - now, false);
                }
            }
        }
        if use_stream {
            if let Some(stream) = &mut self.stream {
                if stream.probe(b1).is_some() {
                    // Supplied by a stream buffer; the replacement prefetch
                    // consumes L2 bandwidth in the background.
                    probe.assist(site, addr, AssistEvent::StreamHit);
                    self.l2_busy_until = self.l2_busy_until.max(t) + self.cfg.l2_occupancy;
                    self.fill_l1(b1, write, probe);
                    return (t + 1 - now, false);
                }
            }
        }
        // Access L2, queueing on the L2 port.
        let start = t.max(self.l2_busy_until);
        self.l2_busy_until = start + self.cfg.l2_occupancy;
        t = start + self.cfg.l2_latency;
        let b2 = self.l2.block_of(addr);
        let l2_lookup = self.l2.access(b2, false);
        probe.cache_access(CacheLevel::L2, site, addr, false, l2_lookup);
        if !l2_lookup.is_hit() {
            let mut served = false;
            if use_victim {
                if let Some(victim) = &mut self.victim_l2 {
                    if let Some(dirty) = victim.probe_remove(b2) {
                        probe.assist(site, addr, AssistEvent::L2VictimHit);
                        self.fill_l2_with_victim(b2, dirty, probe);
                        served = true;
                        t += 1;
                    }
                }
            }
            if !served {
                t = self.memory_access(addr, t);
                // L2-level bypass ([8] manages both levels): cold regions
                // skip the L2 fill entirely.
                let skip_l2 = if use_bypass {
                    let victim =
                        self.l2.victim_for(b2).map(|e| Addr(e.block * self.cfg.l2.block_size));
                    self.bypass.as_mut().is_some_and(|engine| engine.decide_l2_bypass(addr, victim))
                } else {
                    false
                };
                if skip_l2 {
                    probe.assist(site, addr, AssistEvent::L2BypassFill);
                } else {
                    self.fill_l2(b2, false, probe);
                }
            }
        }
        // L1 fill policy.
        if use_bypass && self.bypass.is_some() {
            let victim_addr =
                self.l1d.victim_for(b1).map(|e| Addr(e.block * self.cfg.l1d.block_size));
            let engine = self.bypass.as_mut().expect("bypass engine present");
            match engine.decide(addr, victim_addr) {
                FillDecision::Bypass => {
                    probe.assist(site, addr, AssistEvent::BypassFill);
                    let evicted = engine.insert_buffer(b1, write);
                    if let Some(ev) = evicted {
                        self.writeback_to_l2(ev.block, probe);
                    }
                }
                FillDecision::Allocate { prefetch_next } => {
                    probe.assist(site, addr, AssistEvent::Allocate { prefetch: prefetch_next });
                    self.fill_l1(b1, write, probe);
                    if prefetch_next {
                        t += self.prefetch_adjacent(b1 + 1, site, probe);
                    }
                }
            }
        } else if use_victim && self.victim_l1.is_some() {
            self.fill_l1_with_victim(b1, write, probe);
        } else {
            self.fill_l1(b1, write, probe);
        }
        (t - now, true)
    }

    /// Performs an instruction fetch for the block containing `pc` at cycle
    /// `now`, returning the *stall* latency (0 on an L1I hit — fetch is
    /// pipelined).
    pub fn inst_fetch(&mut self, pc: u64, now: u64) -> u64 {
        self.inst_fetch_probed(pc, now, Site::UNKNOWN, &mut NullProbe)
    }

    /// [`MemoryHierarchy::inst_fetch`] with event instrumentation.
    pub fn inst_fetch_probed<P: Probe>(
        &mut self,
        pc: u64,
        now: u64,
        site: Site,
        probe: &mut P,
    ) -> u64 {
        // Instruction fetches are never assist-managed by a controller;
        // clear the per-access choice so fills they trigger use the static
        // gating.
        self.cur_choice = None;
        let addr = Addr(pc);
        let tlb_lat = self.itlb.access(addr);
        if tlb_lat > 0 {
            probe.tlb_miss(site, true);
        }
        let mut t = now + tlb_lat;
        let bi = self.l1i.block_of(addr);
        let lookup = self.l1i.access(bi, false);
        probe.cache_access(CacheLevel::L1i, site, addr, false, lookup);
        if lookup.is_hit() {
            return t - now;
        }
        let start = t.max(self.l2_busy_until);
        self.l2_busy_until = start + self.cfg.l2_occupancy;
        t = start + self.cfg.l2_latency;
        let b2 = self.l2.block_of(addr);
        let l2_lookup = self.l2.access(b2, false);
        probe.cache_access(CacheLevel::L2, site, addr, false, l2_lookup);
        if !l2_lookup.is_hit() {
            t = self.memory_access(addr, t);
            self.fill_l2(b2, false, probe);
        }
        if let Some(ev) = self.l1i.fill(bi, false) {
            debug_assert!(!ev.dirty, "instruction lines are never dirty");
        }
        t - now
    }

    /// Main-memory timing: queue on the memory bus for the block transfer,
    /// with a DRAM row-buffer model — an access to the open row pays the
    /// reduced hit latency, any other access pays the full latency and
    /// opens its row.
    fn memory_access(&mut self, addr: Addr, ready: u64) -> u64 {
        let transfer = self.cfg.l2.block_size / self.cfg.bus_bytes;
        let mstart = ready.max(self.mem_busy_until);
        let row = addr.block(self.cfg.dram_page_bytes.max(1));
        // XOR-hashed bank index (standard practice): decorrelates lockstep
        // streams whose pages advance together.
        let bank = ((row ^ (row >> 3) ^ (row >> 6)) % self.cfg.dram_banks.max(1)) as usize;
        let (latency, occupancy) = if row == self.open_dram_rows[bank] {
            // Row-buffer hit: cheap, and streams at bus speed.
            (self.cfg.dram_hit_latency, transfer)
        } else {
            // Row miss: full latency, and the banks bound how many random
            // accesses the memory system can overlap.
            self.open_dram_rows[bank] = row;
            let bank_occupancy = self.cfg.mem_latency / self.cfg.dram_banks.max(1);
            (self.cfg.mem_latency, transfer.max(bank_occupancy))
        };
        self.mem_busy_until = mstart + occupancy;
        mstart + latency + transfer
    }

    fn l1_block_to_l2(&self, b1: u64) -> u64 {
        b1 * self.cfg.l1d.block_size / self.cfg.l2.block_size
    }

    fn writeback_to_l2<P: Probe>(&mut self, b1: u64, probe: &mut P) {
        let b2 = self.l1_block_to_l2(b1);
        self.fill_l2(b2, true, probe);
    }

    /// Whether L2 evictions are captured by the L2 victim cache for the
    /// current access: the static flag under static gating, the region's
    /// choice under a controller.
    fn victim_capture_on(&self) -> bool {
        match self.cur_choice {
            Some(c) => c == AssistChoice::Victim,
            None => self.assist_active(),
        }
    }

    fn fill_l2<P: Probe>(&mut self, b2: u64, dirty: bool, probe: &mut P) {
        if let Some(ev) = self.l2.fill(b2, dirty) {
            if ev.dirty {
                probe.writeback(CacheLevel::L2);
            }
            if self.victim_capture_on() {
                if let Some(victim) = &mut self.victim_l2 {
                    // Dirty overflow from the L2 victim cache goes to memory;
                    // no further state to update.
                    let _ = victim.insert(ev.block, ev.dirty);
                }
            }
        }
    }

    fn fill_l2_with_victim<P: Probe>(&mut self, b2: u64, dirty: bool, probe: &mut P) {
        if let Some(ev) = self.l2.fill(b2, dirty) {
            if ev.dirty {
                probe.writeback(CacheLevel::L2);
            }
            if let Some(victim) = &mut self.victim_l2 {
                let _ = victim.insert(ev.block, ev.dirty);
            }
        }
    }

    /// L1d allocation: partition-aware under an active way duel (the line
    /// is charged to the access's side and replacement stays inside that
    /// side's quota), plain LRU/PLRU otherwise.
    fn l1d_fill(&mut self, b1: u64, dirty: bool) -> Option<Eviction> {
        match (&self.duel, self.cur_choice) {
            (Some(duel), Some(choice)) => {
                let irregular = choice != AssistChoice::Off;
                let quota = duel.side_quota(irregular);
                self.l1d.fill_partitioned(b1, dirty, irregular, quota)
            }
            _ => self.l1d.fill(b1, dirty),
        }
    }

    fn fill_l1<P: Probe>(&mut self, b1: u64, dirty: bool, probe: &mut P) {
        if let Some(ev) = self.l1d_fill(b1, dirty) {
            if ev.dirty {
                probe.writeback(CacheLevel::L1d);
                self.writeback_to_l2(ev.block, probe);
            }
        }
    }

    fn fill_l1_with_victim<P: Probe>(&mut self, b1: u64, dirty: bool, probe: &mut P) {
        if let Some(ev) = self.l1d_fill(b1, dirty) {
            if ev.dirty {
                probe.writeback(CacheLevel::L1d);
            }
            if let Some(victim) = &mut self.victim_l1 {
                if let Some((spilled, spilled_dirty)) = victim.insert(ev.block, ev.dirty) {
                    if spilled_dirty {
                        self.writeback_to_l2(spilled, probe);
                    }
                }
            }
        }
    }

    /// Prefetches the adjacent block from L2 into L1 (SLDT large fetch).
    /// Charges only the extra bus occupancy; skipped when L2 does not hold
    /// the block. Returns the extra latency.
    fn prefetch_adjacent<P: Probe>(&mut self, b1: u64, site: Site, probe: &mut P) -> u64 {
        if self.l1d.probe(b1) {
            return 0;
        }
        let b2 = self.l1_block_to_l2(b1);
        if !self.l2.probe(b2) {
            return 0;
        }
        self.spatial_prefetches += 1;
        probe.assist(site, Addr(b1 * self.cfg.l1d.block_size), AssistEvent::SpatialPrefetch);
        self.fill_l1(b1, false, probe);
        // Extra transfer slot for the second block.
        self.cfg.l1d.block_size / self.cfg.bus_bytes / 2
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: *self.l1d.stats(),
            l1i: *self.l1i.stats(),
            l2: *self.l2.stats(),
            dtlb_misses: self.dtlb.misses(),
            itlb_misses: self.itlb.misses(),
            assist: AssistStats {
                bypass_buffer_hits: self.bypass.as_ref().map_or(0, |b| b.buffer_hits()),
                bypassed_fills: self.bypass.as_ref().map_or(0, |b| b.bypassed()),
                l2_bypassed_fills: self.bypass.as_ref().map_or(0, |b| b.l2_bypassed()),
                spatial_prefetches: self.spatial_prefetches,
                l1_victim_hits: self.victim_l1.as_ref().map_or(0, |v| v.hits()),
                l2_victim_hits: self.victim_l2.as_ref().map_or(0, |v| v.hits()),
                stream_hits: self.stream.as_ref().map_or(0, |s| s.hits()),
                assisted_accesses: self.assisted_accesses,
                adapt_switches: self.adapt.as_ref().map_or(0, |a| a.switches()),
            },
        }
    }

    /// Applies a data access *functionally*: cache, TLB, and assist state
    /// advance exactly as under [`MemoryHierarchy::data_access`], but the
    /// computed latency is discarded. Timing never feeds back into which
    /// blocks are allocated or evicted, so functional warmup through this
    /// path reproduces the timed path's state transitions bit-for-bit at a
    /// fraction of a detailed pipeline's cost. Call
    /// [`MemoryHierarchy::reset_timing`] before timed simulation resumes.
    pub fn warm_access(&mut self, addr: Addr, write: bool) {
        let _ = self.data_access(addr, write, 0);
    }

    /// [`MemoryHierarchy::warm_access`] for an instruction fetch.
    pub fn warm_fetch(&mut self, pc: u64) {
        let _ = self.inst_fetch(pc, 0);
    }

    /// Clears the timing-only state (L2 port and memory-bus occupancy, open
    /// DRAM rows) so timed simulation can start from an idle memory system
    /// after a functional-warmup pass.
    pub fn reset_timing(&mut self) {
        self.l2_busy_until = 0;
        self.mem_busy_until = 0;
        for row in &mut self.open_dram_rows {
            *row = u64::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test driver that spaces accesses far apart in time so port queueing
    /// never affects individual latency assertions.
    struct Driver {
        h: MemoryHierarchy,
        now: u64,
    }

    impl Driver {
        fn new(assist: AssistKind) -> Driver {
            Driver { h: MemoryHierarchy::new(HierarchyConfig::paper_base(assist)), now: 0 }
        }

        fn data(&mut self, addr: Addr, write: bool) -> u64 {
            self.now += 10_000;
            self.h.data_access(addr, write, self.now)
        }

        fn fetch(&mut self, pc: u64) -> u64 {
            self.now += 10_000;
            self.h.inst_fetch(pc, self.now)
        }
    }

    #[test]
    fn hit_latency_is_l1() {
        let mut p = Driver::new(AssistKind::None);
        let a = Addr(0x1000_0000);
        let first = p.data(a, false);
        // Cold: TLB miss (30) + L1 (2) + L2 (10) + mem (100) + transfer (16).
        assert_eq!(first, 30 + 2 + 10 + 100 + 16);
        let second = p.data(a, false);
        assert_eq!(second, 2);
    }

    #[test]
    fn l2_hit_latency() {
        let mut p = Driver::new(AssistKind::None);
        let a = Addr(0x1000_0000);
        p.data(a, false);
        // Evict from L1 by touching 4 conflicting blocks (4-way, 8 KiB apart).
        for k in 1..=4u64 {
            p.data(Addr(a.0 + k * 8192), false);
        }
        let lat = p.data(a, false);
        // L1 (2) + L2 (10); TLB hit; same L2 block still resident.
        assert_eq!(lat, 12);
    }

    #[test]
    fn back_to_back_misses_queue_on_l2_port() {
        // Two simultaneous L1 misses to warm L2 blocks: the second queues
        // behind the first's port occupancy.
        let mut p = Driver::new(AssistKind::None);
        let a = Addr(0x1000_0000);
        let b = Addr(0x1000_2000);
        p.data(a, false);
        p.data(b, false);
        // Evict both from L1.
        for k in 2..=5u64 {
            p.data(Addr(a.0 + k * 8192), false);
        }
        // Issue both at the same cycle.
        let now = p.now + 10_000;
        let la = p.h.data_access(a, false, now);
        let lb = p.h.data_access(b, false, now);
        assert_eq!(la, 12);
        let occ = p.h.config().l2_occupancy;
        assert_eq!(lb, 12 + occ, "second miss queues behind the first");
    }

    #[test]
    fn memory_bus_serializes_cold_misses() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
        // Warm the TLB pages (and open the first page's DRAM row).
        h.data_access(Addr(0x1000_0000), false, 0);
        h.data_access(Addr(0x1002_1000), false, 1_000_000);
        let now = 2_000_000;
        // Same DRAM page as the first warm access: a row-buffer hit.
        let la = h.data_access(Addr(0x1000_0200), false, now);
        assert_eq!(la, 2 + 10 + 25 + 16);
        // A closed page, issued in the same cycle: full latency plus
        // queueing behind the first transfer.
        let lb = h.data_access(Addr(0x1003_1200), false, now);
        assert!(lb >= 2 + 10 + 100 + 16, "cold page miss too cheap: {lb}");
        assert!(lb > la + 50, "second miss should queue and pay full latency: {lb} vs {la}");
    }

    #[test]
    fn dram_row_hits_are_cheaper_than_row_misses() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
        // Two accesses in the same 4 KiB page, both L2-missing (distinct L2
        // blocks), spaced far apart in time. Warm the TLB first.
        h.data_access(Addr(0x1000_0f00), false, 0);
        let miss = h.data_access(Addr(0x1002_0000), false, 10_000);
        h.data_access(Addr(0x1002_0000), false, 15_000); // reopen page 0x10020's row
        let hit = h.data_access(Addr(0x1002_0080), false, 20_000);
        assert!(hit < miss, "row hit {hit} should beat row miss {miss}");
        // First touch of the page pays the TLB walk (30) and the full DRAM
        // latency; the second access hits both the TLB and the open row.
        assert_eq!(miss - hit, (100 - 25) + 30);
    }

    #[test]
    fn miss_rates_accumulate() {
        let mut p = Driver::new(AssistKind::None);
        for i in 0..1000u64 {
            p.data(Addr(0x1000_0000 + i * 8), false);
        }
        let s = p.h.stats();
        assert_eq!(s.l1d.accesses, 1000);
        // 8-byte stride over 32-byte blocks: 1 miss per 4 accesses.
        assert_eq!(s.l1d.misses, 250);
        // 128-byte L2 blocks: 1 miss per 16 accesses.
        assert_eq!(s.l2.misses, 1000 / 16 + 1);
    }

    #[test]
    fn victim_cache_catches_conflict_evictions() {
        let mut p = Driver::new(AssistKind::Victim);
        let a = Addr(0x1000_0000);
        p.data(a, false);
        // Evict `a` from L1 via 4 conflicting fills.
        for k in 1..=4u64 {
            p.data(Addr(a.0 + k * 8192), false);
        }
        let lat = p.data(a, false);
        assert_eq!(lat, 3); // L1 latency + 1 for the victim swap
        assert_eq!(p.h.stats().assist.l1_victim_hits, 1);
    }

    #[test]
    fn victim_ignored_when_disabled() {
        let mut p = Driver::new(AssistKind::Victim);
        let a = Addr(0x1000_0000);
        p.data(a, false);
        for k in 1..=4u64 {
            p.data(Addr(a.0 + k * 8192), false);
        }
        p.h.set_assist_enabled(false);
        let lat = p.data(a, false);
        assert_eq!(lat, 12); // straight to L2, no swap
        assert_eq!(p.h.stats().assist.l1_victim_hits, 0);
    }

    #[test]
    fn bypass_keeps_hot_block_resident() {
        let mut p = Driver::new(AssistKind::Bypass);
        let hot = Addr(0x1000_0000);
        // Train the MAT: the hot region becomes frequent.
        for _ in 0..64 {
            p.data(hot, false);
        }
        // A cold streaming pass through conflicting addresses.
        for k in 1..=16u64 {
            p.data(Addr(hot.0 + k * 8192 + 4 * 1024 * 1024), false);
        }
        let s = p.h.stats();
        assert!(s.assist.bypassed_fills > 0, "cold stream should be bypassed");
        // Hot block still hits in L1.
        let lat = p.data(hot, false);
        assert_eq!(lat, 2);
    }

    #[test]
    fn bypass_buffer_serves_repeat_access() {
        let mut p = Driver::new(AssistKind::Bypass);
        let hot = Addr(0x1000_0000);
        for _ in 0..64 {
            p.data(hot, false);
        }
        // Fill the hot block's set so every newcomer sees a hot victim.
        let cold = Addr(hot.0 + 4 * 1024 * 1024);
        p.data(cold, false); // bypassed or allocated
        let before = p.h.stats().assist.bypass_buffer_hits;
        p.data(cold, false); // short repeat: bypass-buffer hit if bypassed
        let after = p.h.stats().assist.bypass_buffer_hits;
        let s = p.h.stats();
        if s.assist.bypassed_fills > 0 {
            assert_eq!(after - before, 1);
        }
    }

    #[test]
    fn assist_state_persists_across_disable() {
        let mut p = Driver::new(AssistKind::Bypass);
        let hot = Addr(0x1000_0000);
        for _ in 0..64 {
            p.data(hot, false);
        }
        let count_before = p.h.bypass.as_ref().unwrap().mat().count(hot);
        p.h.set_assist_enabled(false);
        for _ in 0..64 {
            p.data(Addr(0x2000_0000), false);
        }
        // MAT was not updated while off.
        assert_eq!(p.h.bypass.as_ref().unwrap().mat().count(hot), count_before);
        assert_eq!(p.h.bypass.as_ref().unwrap().mat().count(Addr(0x2000_0000)), 0);
    }

    #[test]
    fn stream_buffers_accelerate_sequential_misses() {
        let mut p = Driver::new(AssistKind::Stream);
        // Sequential block stream: first miss allocates, the rest hit the
        // stream buffer at L1+1 cycles.
        let mut cheap = 0;
        for k in 0..32u64 {
            let lat = p.data(Addr(0x1000_0000 + k * 32), false);
            if lat <= 3 {
                cheap += 1;
            }
        }
        assert!(cheap >= 30, "stream should serve the tail: {cheap}");
        assert!(p.h.stats().assist.stream_hits >= 30);
        // Disabled: no stream service.
        p.h.set_assist_enabled(false);
        let lat = p.data(Addr(0x2000_0000), false);
        assert!(lat > 3);
        let lat = p.data(Addr(0x2000_0020), false);
        assert!(lat > 3, "stream must be ignored when off: {lat}");
    }

    #[test]
    fn inst_fetch_hits_after_fill() {
        let mut p = Driver::new(AssistKind::None);
        let pc = 0x40_0000;
        let cold = p.fetch(pc);
        assert!(cold > 0);
        assert_eq!(p.fetch(pc), 0);
        assert_eq!(p.fetch(pc + 4), 0); // same block
        let s = p.h.stats();
        assert_eq!(s.l1i.accesses, 3);
        assert_eq!(s.l1i.misses, 1);
    }

    #[test]
    fn dirty_writeback_reaches_l2() {
        let mut p = Driver::new(AssistKind::None);
        let a = Addr(0x1000_0000);
        p.data(a, true); // dirty in L1
        for k in 1..=4u64 {
            p.data(Addr(a.0 + k * 8192), false);
        }
        let s = p.h.stats();
        assert_eq!(s.l1d.writebacks, 1);
    }

    #[test]
    fn conflict_misses_classified() {
        let mut p = Driver::new(AssistKind::None);
        let a = Addr(0x1000_0000);
        p.data(a, false);
        for k in 1..=4u64 {
            p.data(Addr(a.0 + k * 8192), false);
        }
        p.data(a, false); // conflict miss: fits in FA cache easily
        let s = p.h.stats();
        assert_eq!(s.l1d.conflict, 1);
        assert_eq!(s.l1d.compulsory, 5);
    }

    /// The event stream is complete: replaying every probed access into a
    /// [`HierarchyStatsProbe`] reconstructs the hierarchy's own counters
    /// byte-for-byte, for every assist kind, including disabled phases.
    #[test]
    fn stats_probe_matches_component_counters() {
        for assist in [AssistKind::None, AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream]
        {
            let mut h = MemoryHierarchy::new(HierarchyConfig::paper_base(assist));
            let mut probe = crate::probe::HierarchyStatsProbe::new();
            let mut now = 0;
            for i in 0..4000u64 {
                now += 50;
                // A mix of streaming, conflicting, and dirty traffic, with an
                // assist-off window in the middle.
                if i == 1500 {
                    h.set_assist_enabled(false);
                }
                if i == 2500 {
                    h.set_assist_enabled(true);
                }
                let addr = match i % 5 {
                    0 | 1 => Addr(0x1000_0000 + i * 8),
                    2 => Addr(0x2000_0000 + (i % 7) * 8192),
                    3 => Addr(0x1000_0000 + (i % 11) * 4096),
                    _ => Addr(0x3000_0000 + (i % 3) * 16384),
                };
                h.data_access_probed(addr, i % 4 == 0, now, Site::UNKNOWN, &mut probe);
                if i % 3 == 0 {
                    h.inst_fetch_probed(0x40_0000 + (i % 64) * 64, now, Site::UNKNOWN, &mut probe);
                }
            }
            assert_eq!(probe.stats(), h.stats(), "event stream incomplete for {assist:?}");
        }
    }

    /// Address mix exercising L1/L2/victim/bypass/stream state.
    fn mixed_addr(i: u64) -> Addr {
        match i % 5 {
            0 | 1 => Addr(0x1000_0000 + i * 8),
            2 => Addr(0x2000_0000 + (i % 7) * 8192),
            3 => Addr(0x1000_0000 + (i % 11) * 4096),
            _ => Addr(0x3000_0000 + (i % 3) * 16384),
        }
    }

    #[test]
    fn warm_access_matches_timed_state() {
        // Functional warmup (warm_access/warm_fetch at now=0) must leave the
        // hierarchy in the same functional state as the timed path: after
        // reset_timing, both produce identical miss deltas on a probe run.
        for assist in [AssistKind::None, AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream]
        {
            let mut timed = MemoryHierarchy::new(HierarchyConfig::paper_base(assist));
            let mut warm = MemoryHierarchy::new(HierarchyConfig::paper_base(assist));
            let mut now = 0;
            for i in 0..3000u64 {
                now += 37;
                let addr = mixed_addr(i);
                timed.data_access(addr, i % 4 == 0, now);
                warm.warm_access(addr, i % 4 == 0);
                if i % 3 == 0 {
                    timed.inst_fetch(0x40_0000 + (i % 64) * 64, now);
                    warm.warm_fetch(0x40_0000 + (i % 64) * 64);
                }
            }
            timed.reset_timing();
            warm.reset_timing();
            let (bt, bw) = (timed.stats(), warm.stats());
            let mut t = 0;
            for i in 3000..4000u64 {
                t += 37;
                let a = timed.data_access(mixed_addr(i), i % 4 == 0, t);
                let b = warm.data_access(mixed_addr(i), i % 4 == 0, t);
                assert_eq!(a, b, "latency diverged at op {i} for {assist:?}");
            }
            assert_eq!(timed.stats().since(&bt), warm.stats().since(&bw), "{assist:?}");
        }
    }

    use selcache_ir::RegionId;

    /// Base machine plus the online controller, with short intervals so
    /// tests converge quickly.
    fn dynamic_cfg() -> HierarchyConfig {
        HierarchyConfig {
            controller: Some(ControllerConfig {
                interval_accesses: 64,
                duel_accesses: 256,
                ..ControllerConfig::default()
            }),
            ..HierarchyConfig::paper_base(AssistKind::None)
        }
    }

    /// Five blocks cycling through one 4-way set: pure LRU thrashes (100%
    /// miss), while a victim cache (or bypass buffer) catches every
    /// eviction.
    fn conflict_addr(i: u64) -> Addr {
        Addr(0x1000_0000 + (i % 5) * 8192)
    }

    #[test]
    fn controller_beats_assist_off_on_conflict_traffic() {
        let mut dynamic = MemoryHierarchy::new(dynamic_cfg());
        let mut plain = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
        let site = Site::new(0x400, RegionId(0));
        let (mut td, mut tp) = (0u64, 0u64);
        let mut now = 0;
        for i in 0..40_000u64 {
            now += 100;
            td += dynamic.data_access_probed(conflict_addr(i), false, now, site, &mut NullProbe);
            tp += plain.data_access_probed(conflict_addr(i), false, now, site, &mut NullProbe);
        }
        assert!(td < tp, "dynamic ({td}) should beat assist-off ({tp}) on conflict traffic");
        let ctl = dynamic.adapt.as_ref().expect("controller attached");
        assert_ne!(ctl.policy(RegionId(0)), AssistChoice::Off, "an assist should be locked in");
        let s = dynamic.stats();
        assert!(s.assist.adapt_switches > 0, "explore rotations are switches");
        assert_eq!(s.assist.adapt_switches, ctl.switches());
    }

    #[test]
    fn controller_frozen_while_assist_flag_is_off() {
        let mut h = MemoryHierarchy::new(dynamic_cfg());
        let site = Site::new(0x400, RegionId(1));
        h.set_assist_enabled(false);
        let mut now = 0;
        for i in 0..10_000u64 {
            now += 100;
            h.data_access_probed(conflict_addr(i), false, now, site, &mut NullProbe);
        }
        let s = h.stats();
        assert_eq!(s.assist.adapt_switches, 0, "controller must not act while off");
        assert_eq!(s.assist.assisted_accesses, 0);
        assert_eq!(s.assist.l1_victim_hits + s.assist.bypass_buffer_hits, 0);
        assert_eq!(h.adapt.as_ref().unwrap().policy(RegionId(1)), AssistChoice::Off);
        // Re-enabling thaws it: the controller resumes from its initial
        // explore state and starts rotating candidates again.
        h.set_assist_enabled(true);
        for i in 0..10_000u64 {
            now += 100;
            h.data_access_probed(conflict_addr(i), false, now, site, &mut NullProbe);
        }
        assert!(h.stats().assist.adapt_switches > 0);
    }

    #[test]
    fn dynamic_stats_probe_matches_component_counters() {
        // The event-stream completeness invariant extends to the dynamic
        // controller: adapt decisions and assist events replayed into a
        // `HierarchyStatsProbe` reconstruct the counters byte-for-byte,
        // including an assist-off window and multi-region traffic.
        let mut h = MemoryHierarchy::new(dynamic_cfg());
        let mut probe = crate::probe::HierarchyStatsProbe::new();
        let mut now = 0;
        for i in 0..6000u64 {
            now += 50;
            if i == 2500 {
                h.set_assist_enabled(false);
            }
            if i == 3500 {
                h.set_assist_enabled(true);
            }
            let site = Site::new(0x400 + i % 7, RegionId((i % 3) as u32));
            h.data_access_probed(mixed_addr(i), i % 4 == 0, now, site, &mut probe);
            if i % 3 == 0 {
                h.inst_fetch_probed(0x40_0000 + (i % 64) * 64, now, site, &mut probe);
            }
        }
        assert_eq!(probe.stats(), h.stats(), "event stream incomplete for the controller");
    }

    #[test]
    fn way_duel_rebalances_under_one_sided_pressure() {
        // Pure streaming traffic misses identically under every assist, so
        // the controller locks in Off (ties prefer it) and all pressure
        // lands on the *regular* side — the duel should shift ways toward
        // it, shrinking the irregular quota, and never break the assoc sum.
        let mut h = MemoryHierarchy::new(dynamic_cfg());
        let site = Site::new(0x400, RegionId(0));
        let assoc = h.config().l1d.assoc;
        let start = h.duel.as_ref().unwrap().side_quota(true);
        let mut now = 0;
        for i in 0..40_000u64 {
            now += 100;
            // A wide streaming pattern that misses regardless of assist.
            h.data_access_probed(Addr(0x2000_0000 + i * 64), false, now, site, &mut NullProbe);
        }
        let duel = h.duel.as_ref().unwrap();
        assert!(duel.adjustments() > 0, "one-sided pressure should move ways");
        assert!(duel.side_quota(true) <= start);
        assert_eq!(duel.side_quota(true) + duel.side_quota(false), assoc);
    }

    #[test]
    #[should_panic(expected = "bus_bytes")]
    fn zero_bus_width_is_rejected() {
        let mut cfg = HierarchyConfig::paper_base(AssistKind::None);
        cfg.bus_bytes = 0;
        MemoryHierarchy::new(cfg);
    }
}
