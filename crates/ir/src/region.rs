//! Region attribution: maps static sites back to the uniform regions a
//! region partition assigned them.
//!
//! The interpreter assigns one PC range ([`SITE_BYTES`] wide) per static
//! site — loop header/latch, statement, marker — in a deterministic
//! pre-order walk of the program tree. A [`RegionMap`] records, for each
//! site in that same walk order, which region owns it; [`crate::Interp`]
//! consults the map to stamp every [`crate::TraceOp`] it emits with a
//! [`RegionId`], and downstream probes bucket dynamic events by that id.
//!
//! Maps are produced by the compiler's region partition, which mirrors the
//! marker-insertion granularity of the paper's Section 2.2 algorithm (see
//! `selcache-compiler`), through a [`RegionMapBuilder`].

use crate::ids::RegionId;
use crate::program::Item;
use crate::trace::site_index;

/// Per-site region assignment plus human-readable region labels.
///
/// Site order is the interpreter's PC-assignment walk: a loop contributes
/// one site (header/latch share it) followed by its body, a block one site
/// per statement, a marker one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    site_regions: Vec<RegionId>,
    labels: Vec<String>,
}

impl RegionMap {
    /// Number of regions (labels).
    pub fn num_regions(&self) -> usize {
        self.labels.len()
    }

    /// Number of static sites covered.
    pub fn num_sites(&self) -> usize {
        self.site_regions.len()
    }

    /// Label of a region, or `"(outside)"` for [`RegionId::NONE`] / out of
    /// range ids.
    pub fn label(&self, region: RegionId) -> &str {
        self.labels.get(region.index()).map_or("(outside)", String::as_str)
    }

    /// All labels in region-id order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Region owning the given site index ([`RegionId::NONE`] if uncovered).
    pub fn region_of_site(&self, site: usize) -> RegionId {
        self.site_regions.get(site).copied().unwrap_or(RegionId::NONE)
    }

    /// Region owning the site containing the given PC.
    #[inline]
    pub fn region_of_pc(&self, pc: u64) -> RegionId {
        site_index(pc).map_or(RegionId::NONE, |s| self.region_of_site(s))
    }
}

/// Incremental [`RegionMap`] construction in site-walk order.
///
/// `open` starts a new region; subsequent `site`/`sites` calls assign sites
/// to it. `pending_site` records a site (typically an ON/OFF marker) that
/// belongs to the *next* region opened — the paper places markers
/// immediately before the region they control — falling back to the current
/// region if none follows.
#[derive(Debug, Default)]
pub struct RegionMapBuilder {
    site_regions: Vec<RegionId>,
    labels: Vec<String>,
    pending: Vec<usize>,
}

impl RegionMapBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new region with the given label and returns its id. Pending
    /// marker sites recorded since the last region are attributed to it.
    pub fn open(&mut self, label: impl Into<String>) -> RegionId {
        let id = RegionId(u32::try_from(self.labels.len()).expect("region count fits u32"));
        self.labels.push(label.into());
        for site in self.pending.drain(..) {
            self.site_regions[site] = id;
        }
        id
    }

    /// Assigns the next site in walk order to the current region.
    ///
    /// # Panics
    ///
    /// Panics if no region has been opened yet.
    pub fn site(&mut self) {
        assert!(!self.labels.is_empty(), "site() before any open()");
        let cur = RegionId(u32::try_from(self.labels.len() - 1).expect("region count fits u32"));
        self.site_regions.push(cur);
    }

    /// Assigns the next `n` sites to the current region.
    pub fn sites(&mut self, n: usize) {
        for _ in 0..n {
            self.site();
        }
    }

    /// Records the next site as pending: it is attributed to the next region
    /// opened (or to the current region at `finish` if none follows).
    pub fn pending_site(&mut self) {
        self.pending.push(self.site_regions.len());
        self.site_regions.push(RegionId::NONE);
    }

    /// Finishes the map. Trailing pending sites join the last opened region;
    /// if no region was ever opened they stay [`RegionId::NONE`].
    pub fn finish(mut self) -> RegionMap {
        if let Some(last) = self.labels.len().checked_sub(1) {
            let id = RegionId(u32::try_from(last).expect("region count fits u32"));
            for site in self.pending.drain(..) {
                self.site_regions[site] = id;
            }
        }
        RegionMap { site_regions: self.site_regions, labels: self.labels }
    }
}

/// Number of static sites a subtree occupies, mirroring the interpreter's
/// PC-assignment walk exactly: loop = 1 + body, block = one per statement,
/// marker = 1.
pub fn site_count(items: &[Item]) -> usize {
    let mut n = 0;
    for item in items {
        match item {
            Item::Loop(l) => n += 1 + site_count(&l.body),
            Item::Block(stmts) => n += stmts.len(),
            Item::Marker(_) => n += 1,
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::Subscript;
    use crate::program::{Marker, Program};
    use crate::trace::TEXT_BASE;

    fn two_loop_program() -> Program {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[8], 8);
        b.marker(Marker::Off);
        b.loop_(8, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i)]).fp(1);
            });
        });
        b.marker(Marker::On);
        b.loop_(8, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i)]).int(1);
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn site_count_mirrors_pc_walk() {
        let p = two_loop_program();
        // marker, loop, stmt, marker, loop, stmt = 6 sites.
        assert_eq!(site_count(&p.items), 6);
    }

    #[test]
    fn builder_attributes_pending_markers_forward() {
        let mut b = RegionMapBuilder::new();
        b.pending_site(); // marker before first region
        let r0 = b.open("first");
        b.sites(2);
        b.pending_site(); // marker before second region
        let r1 = b.open("second");
        b.sites(2);
        let map = b.finish();
        assert_eq!(map.num_sites(), 6);
        assert_eq!(map.region_of_site(0), r0);
        assert_eq!(map.region_of_site(3), r1);
        assert_eq!(map.region_of_pc(TEXT_BASE + 64), r0);
        assert_eq!(map.label(r1), "second");
        assert_eq!(map.label(RegionId::NONE), "(outside)");
    }

    #[test]
    fn trailing_pending_site_joins_last_region() {
        let mut b = RegionMapBuilder::new();
        let r0 = b.open("only");
        b.site();
        b.pending_site();
        let map = b.finish();
        assert_eq!(map.region_of_site(1), r0);
    }

    #[test]
    fn out_of_range_site_is_none() {
        let mut b = RegionMapBuilder::new();
        b.open("only");
        b.sites(8);
        let map = b.finish();
        assert_eq!(map.region_of_site(1000), RegionId::NONE);
        assert_eq!(map.region_of_pc(0), RegionId::NONE);
    }
}
