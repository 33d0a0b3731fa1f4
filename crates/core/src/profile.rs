//! Per-region attribution of simulation statistics.
//!
//! The probe layer ([`selcache_mem::Probe`]) delivers every event with the
//! static *site* that issued it, and the interpreter stamps each trace op
//! with the compiler's region partition
//! ([`selcache_compiler::region_partition`]). A [`RegionProfileProbe`]
//! folds that event stream into one [`RegionStats`] bucket per region —
//! cycles, commits, cache traffic, and assist coverage — so a single run
//! answers "which loop nest pays for these misses, and is the assist on
//! there?".
//!
//! Events whose site carries no region (library glue, markers before the
//! first region opens) land in a trailing *(outside)* bucket, so the
//! per-region columns always sum exactly to the aggregate
//! [`SimResult`](crate::SimResult) counters.

use selcache_ir::{RegionId, RegionMap};
use selcache_mem::{AssistChoice, AssistEvent, CacheLevel, Lookup, Probe, Site};
use std::fmt::Write as _;

/// Counters attributed to one uniform region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionStats {
    /// The region's label from the compiler partition (e.g. `"L3:hw"`).
    pub label: String,
    /// Cycles during which this region's op headed the RUU (held over
    /// across empty-RUU gaps, so cycles sum to the run's total).
    pub cycles: u64,
    /// Committed instructions issued from this region.
    pub committed: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// L1 data-cache accesses issued from this region.
    pub l1d_accesses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L2 accesses (data refills and instruction-fetch refills alike).
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Data accesses observed while the assist was active.
    pub assisted_accesses: u64,
    /// Accesses the assist answered (buffer, victim, or stream hits).
    pub assist_hits: u64,
    /// Assist ON/OFF instructions committed from this region.
    pub toggles: u64,
    /// Adaptive-controller policy switches applied in this region (0 for
    /// static runs).
    pub policy_switches: u64,
    /// The controller's last decision for this region (`"off"`,
    /// `"bypass"`, or `"victim"`; `"static"` when no controller ran).
    pub final_policy: String,
}

impl RegionStats {
    /// Fraction of this region's L1d accesses observed under an active
    /// assist, in percent (0 when the region made no accesses).
    pub fn assist_coverage_pct(&self) -> f64 {
        if self.l1d_accesses == 0 {
            0.0
        } else {
            self.assisted_accesses as f64 / self.l1d_accesses as f64 * 100.0
        }
    }

    fn add(&mut self, other: &RegionStats) {
        self.cycles += other.cycles;
        self.committed += other.committed;
        self.loads += other.loads;
        self.stores += other.stores;
        self.l1d_accesses += other.l1d_accesses;
        self.l1d_misses += other.l1d_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.assisted_accesses += other.assisted_accesses;
        self.assist_hits += other.assist_hits;
        self.toggles += other.toggles;
        self.policy_switches += other.policy_switches;
    }
}

/// Statistics of one run broken down by the compiler's region partition.
///
/// One bucket per region in partition order, plus a trailing *(outside)*
/// bucket for events with no region attribution; the buckets partition the
/// aggregate counters exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionProfile {
    regions: Vec<RegionStats>,
}

impl RegionProfile {
    /// Reassembles a profile from its buckets (used by the result store
    /// when deserializing a profiled entry; the buckets must be in the
    /// order [`RegionProfile::regions`] reported them).
    pub fn from_regions(regions: Vec<RegionStats>) -> RegionProfile {
        RegionProfile { regions }
    }

    /// The per-region buckets (the last entry is the *(outside)* bucket).
    pub fn regions(&self) -> &[RegionStats] {
        &self.regions
    }

    /// Sum of every bucket — equals the run's aggregate counters.
    pub fn total(&self) -> RegionStats {
        let mut t = RegionStats { label: "TOTAL".into(), ..RegionStats::default() };
        for r in &self.regions {
            t.add(r);
        }
        t
    }

    /// Renders the profile as an aligned table with a TOTAL row.
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>10} {:>8} {:>8} {:>8}",
            "Region", "Cycles", "Insts", "L1dAcc", "L1dMiss", "L2Miss", "Assist%"
        );
        for r in self.regions.iter().chain(std::iter::once(&self.total())) {
            let _ = writeln!(
                out,
                "{:<14} {:>12} {:>12} {:>10} {:>8} {:>8} {:>7.1}%",
                r.label,
                r.cycles,
                r.committed,
                r.l1d_accesses,
                r.l1d_misses,
                r.l2_misses,
                r.assist_coverage_pct()
            );
        }
        out
    }
}

/// A [`Probe`] that attributes every event to the region of its issuing
/// site.
///
/// ```
/// use selcache_compiler::{region_partition, selective, OptConfig};
/// use selcache_core::RegionProfileProbe;
/// use selcache_cpu::{CpuConfig, Pipeline};
/// use selcache_ir::Interp;
/// use selcache_mem::{AssistKind, HierarchyConfig, MemoryHierarchy};
/// use selcache_workloads::{Benchmark, Scale};
///
/// let opt = OptConfig::default();
/// let program = selective(&Benchmark::Vpenta.build(Scale::Tiny), &opt);
/// let map = region_partition(&program, opt.threshold);
/// let mut probe = RegionProfileProbe::new(&map);
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::Bypass));
/// mem.set_assist_enabled(false);
/// let stats = Pipeline::new(CpuConfig::paper_base()).run_probed(
///     Interp::with_regions(&program, &map),
///     &mut mem,
///     &mut probe,
/// );
/// let profile = probe.finish();
/// assert_eq!(profile.total().committed, stats.committed);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegionProfileProbe {
    regions: Vec<RegionStats>,
}

impl RegionProfileProbe {
    /// A probe with one empty bucket per region of `map`, plus the
    /// *(outside)* bucket.
    pub fn new(map: &RegionMap) -> RegionProfileProbe {
        let fresh = |label: &str| RegionStats {
            label: label.into(),
            final_policy: "static".into(),
            ..RegionStats::default()
        };
        let mut regions: Vec<RegionStats> = map.labels().iter().map(|l| fresh(l)).collect();
        regions.push(fresh("(outside)"));
        RegionProfileProbe { regions }
    }

    fn bucket(&mut self, region: RegionId) -> &mut RegionStats {
        let outside = self.regions.len() - 1;
        let k = if region.is_none() { outside } else { region.index().min(outside) };
        &mut self.regions[k]
    }

    /// Consumes the probe, yielding the accumulated profile.
    pub fn finish(self) -> RegionProfile {
        RegionProfile { regions: self.regions }
    }
}

impl Probe for RegionProfileProbe {
    fn cycles(&mut self, region: RegionId, n: u64) {
        self.bucket(region).cycles += n;
    }

    fn commit(&mut self, site: Site, kind: selcache_ir::OpKind) {
        let b = self.bucket(site.region);
        b.committed += 1;
        match kind {
            selcache_ir::OpKind::Load(_) => b.loads += 1,
            selcache_ir::OpKind::Store(_) => b.stores += 1,
            _ => {}
        }
    }

    fn cache_access(
        &mut self,
        level: CacheLevel,
        site: Site,
        _addr: selcache_ir::Addr,
        _write: bool,
        lookup: Lookup,
    ) {
        let b = self.bucket(site.region);
        match level {
            CacheLevel::L1d => {
                b.l1d_accesses += 1;
                if matches!(lookup, Lookup::Miss(_)) {
                    b.l1d_misses += 1;
                }
            }
            CacheLevel::L2 => {
                b.l2_accesses += 1;
                if matches!(lookup, Lookup::Miss(_)) {
                    b.l2_misses += 1;
                }
            }
            CacheLevel::L1i => {}
        }
    }

    fn assist(&mut self, site: Site, _addr: selcache_ir::Addr, event: AssistEvent) {
        let b = self.bucket(site.region);
        match event {
            AssistEvent::Observed => b.assisted_accesses += 1,
            AssistEvent::BufferHit
            | AssistEvent::L1VictimHit
            | AssistEvent::L2VictimHit
            | AssistEvent::StreamHit => b.assist_hits += 1,
            _ => {}
        }
    }

    fn assist_toggle(&mut self, site: Site, _on: bool) {
        self.bucket(site.region).toggles += 1;
    }

    fn adapt_decision(&mut self, site: Site, choice: AssistChoice, switched: bool) {
        let b = self.bucket(site.region);
        b.policy_switches += u64::from(switched);
        b.final_policy = choice.name().into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{Addr, OpKind, RegionMapBuilder};
    use selcache_mem::MissClass;

    fn two_region_map() -> RegionMap {
        let mut b = RegionMapBuilder::new();
        b.open("alpha");
        b.sites(2);
        b.open("beta");
        b.sites(2);
        b.finish()
    }

    #[test]
    fn events_land_in_their_region() {
        let map = two_region_map();
        let mut p = RegionProfileProbe::new(&map);
        let alpha = Site::new(0, RegionId(0));
        let beta = Site::new(0, RegionId(1));
        p.cycles(RegionId(0), 1);
        p.commit(alpha, OpKind::Load(Addr(0)));
        p.cache_access(CacheLevel::L1d, alpha, Addr(0), false, Lookup::Miss(MissClass::Compulsory));
        p.cache_access(CacheLevel::L2, beta, Addr(0), false, Lookup::Hit);
        p.assist(beta, Addr(0), AssistEvent::Observed);
        p.assist(beta, Addr(0), AssistEvent::BufferHit);
        p.assist_toggle(Site::UNKNOWN, true);
        let prof = p.finish();
        let [a, b, outside] = prof.regions() else { panic!("3 buckets") };
        assert_eq!((a.cycles, a.committed, a.loads, a.l1d_accesses, a.l1d_misses), (1, 1, 1, 1, 1));
        assert_eq!((b.l2_accesses, b.l2_misses, b.assisted_accesses, b.assist_hits), (1, 0, 1, 1));
        assert_eq!(outside.toggles, 1);
        assert_eq!(prof.total().committed, 1);
    }

    #[test]
    fn controller_decisions_attribute_per_region() {
        let map = two_region_map();
        let mut p = RegionProfileProbe::new(&map);
        let alpha = Site::new(0, RegionId(0));
        p.adapt_decision(alpha, AssistChoice::Bypass, true);
        p.adapt_decision(alpha, AssistChoice::Victim, true);
        p.adapt_decision(alpha, AssistChoice::Victim, false);
        let prof = p.finish();
        let a = &prof.regions()[0];
        assert_eq!(a.policy_switches, 2, "only actual switches count");
        assert_eq!(a.final_policy, "victim");
        assert_eq!(prof.regions()[1].final_policy, "static", "untouched regions stay static");
        assert_eq!(prof.total().policy_switches, 2);
    }

    #[test]
    fn rate_helpers_guard_zero_denominators() {
        let empty = RegionStats::default();
        assert_eq!(empty.assist_coverage_pct(), 0.0);
    }

    #[test]
    fn table_has_total_row() {
        let map = two_region_map();
        let text = RegionProfileProbe::new(&map).finish().format_table();
        assert!(text.contains("alpha"));
        assert!(text.contains("(outside)"));
        assert!(text.contains("TOTAL"));
    }
}
