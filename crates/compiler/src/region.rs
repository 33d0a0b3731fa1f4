//! Region detection and ON/OFF instruction insertion (Section 2.2).
//!
//! The algorithm walks each loop nest from the innermost loop outward. An
//! innermost loop's method comes from its analyzable-reference ratio
//! ([`crate::classify`]); a loop whose nested loops all agree inherits their
//! method (statements outside the children inherit it too); a loop whose
//! children disagree is *mixed* — the scheme switches methods at the child
//! boundaries, and statements between children are classified by their own
//! references as if in an imaginary single-iteration loop.
//!
//! The naive pass marks every region header with an activate (ON) or
//! deactivate (OFF) instruction, exactly as in Figure 2(b), its polarity
//! chosen from the region's preference by an [`AssistPolicy`]; the
//! redundancy elimination of [`crate::redundant`] then produces
//! Figure 2(c).

use crate::classify::{items_counts, stmt_counts, Preference, RefCounts};
use selcache_ir::{site_count, Item, Loop, Marker, Program, RegionMap, RegionMapBuilder};

/// Classification of a loop region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionClass {
    /// The whole subtree prefers one method.
    Uniform(Preference),
    /// Nested loops disagree; methods switch inside this loop.
    Mixed,
}

/// Analyzes a loop bottom-up, returning its region class.
pub fn analyze_loop(l: &Loop, threshold: f64) -> RegionClass {
    let child_loops: Vec<&Loop> = l
        .body
        .iter()
        .filter_map(|i| match i {
            Item::Loop(inner) => Some(inner),
            _ => None,
        })
        .collect();
    if child_loops.is_empty() {
        return RegionClass::Uniform(items_counts(&l.body).preference(threshold));
    }
    let mut prefs = Vec::new();
    for c in &child_loops {
        match analyze_loop(c, threshold) {
            RegionClass::Uniform(p) => prefs.push(p),
            RegionClass::Mixed => return RegionClass::Mixed,
        }
    }
    if prefs.windows(2).all(|w| w[0] == w[1]) {
        // All children agree: propagate to the whole loop (including any
        // statements outside the child nests).
        RegionClass::Uniform(prefs[0])
    } else {
        RegionClass::Mixed
    }
}

/// Which program regions an assist benefits: the policy that picks each
/// region's ON/OFF marker from its hardware/software preference.
///
/// The paper's rule enables the assist on irregular regions, the right
/// policy for conflict-reduction assists (MAT bypassing, victim caches),
/// whose value lies in protecting hot data from irregular traffic. For a
/// prefetching assist the mapping inverts: stream buffers help exactly the
/// regions with sequential miss streams, i.e. the regular ones (see
/// EXPERIMENTS.md, "Extension experiments").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssistPolicy {
    /// Conflict-reduction mechanisms (bypassing, victim caches): enable on
    /// irregular regions — the paper's rule.
    IrregularRegions,
    /// Prefetching mechanisms (stream buffers): enable on regular regions,
    /// whose miss streams are sequential.
    RegularRegions,
    /// Enable everywhere (equivalent to the combined version, expressed as
    /// markers). A run with the online assist controller attached is
    /// prepared this way: every region is ON, so the controller sees all of
    /// them and picks the assist per region at run time.
    Always,
}

impl AssistPolicy {
    /// The marker a region with the given (paper-rule) preference receives
    /// under this policy.
    pub fn marker_for(&self, preference: Preference) -> Marker {
        let on = match self {
            AssistPolicy::IrregularRegions => preference == Preference::Hardware,
            AssistPolicy::RegularRegions => preference == Preference::Software,
            AssistPolicy::Always => true,
        };
        if on {
            Marker::On
        } else {
            Marker::Off
        }
    }
}

/// What Section 2.2 makes of one item: the one decision that both the
/// marking and the partition walk follow.
enum ItemRegion<'a> {
    /// A loop nest whose loops all agree: one region with one method.
    Nest { l: &'a Loop, pref: Preference },
    /// A mixed loop: its children are regions of their own, and its header
    /// and latch are control overhead outside them.
    Mixed(&'a Loop),
    /// Statements sandwiched between nests: an imaginary loop that
    /// iterates once, classified by its own references.
    Stmts { count: usize, pref: Preference },
    /// A marker already in the program.
    Marker,
}

fn item_region(item: &Item, threshold: f64) -> ItemRegion<'_> {
    match item {
        Item::Loop(l) => match analyze_loop(l, threshold) {
            RegionClass::Uniform(pref) => ItemRegion::Nest { l, pref },
            RegionClass::Mixed => ItemRegion::Mixed(l),
        },
        Item::Block(stmts) => {
            let c = stmts.iter().fold(RefCounts::default(), |acc, s| acc.merge(stmt_counts(s)));
            ItemRegion::Stmts { count: stmts.len(), pref: c.preference(threshold) }
        }
        Item::Marker(_) => ItemRegion::Marker,
    }
}

fn mark_items(items: &[Item], threshold: f64, policy: AssistPolicy, out: &mut Vec<Item>) {
    for item in items {
        match item_region(item, threshold) {
            ItemRegion::Nest { pref, .. } | ItemRegion::Stmts { pref, .. } => {
                out.push(Item::Marker(policy.marker_for(pref)));
                out.push(item.clone());
            }
            ItemRegion::Mixed(l) => {
                // Children get their own markers.
                let mut body = Vec::new();
                mark_items(&l.body, threshold, policy, &mut body);
                out.push(Item::Loop(Loop { id: l.id, var: l.var, trip: l.trip, body }));
            }
            ItemRegion::Marker => out.push(item.clone()),
        }
    }
}

/// Runs region detection and inserts the naive (per-region-header) ON/OFF
/// markers, each region's polarity chosen from its preference by `policy`,
/// returning a new program. Use
/// [`crate::redundant::eliminate_redundant_markers`] afterwards, or call
/// [`crate::insert_markers`] which does both.
pub fn detect_and_mark(program: &Program, threshold: f64, policy: AssistPolicy) -> Program {
    let mut items = Vec::new();
    mark_items(&program.items, threshold, policy, &mut items);
    Program { items, ..program.clone() }
}

fn pref_tag(p: Preference) -> &'static str {
    match p {
        Preference::Hardware => "hw",
        Preference::Software => "sw",
    }
}

fn partition_items(items: &[Item], threshold: f64, b: &mut RegionMapBuilder) {
    for item in items {
        match item_region(item, threshold) {
            ItemRegion::Nest { l, pref } => {
                b.open(format!("L{}:{}", l.id.0, pref_tag(pref)));
                b.sites(site_count(std::slice::from_ref(item)));
            }
            ItemRegion::Mixed(l) => {
                b.open(format!("L{}:ctl", l.id.0));
                b.site();
                partition_items(&l.body, threshold, b);
            }
            ItemRegion::Stmts { count, pref } => {
                b.open(format!("stmts:{}", pref_tag(pref)));
                b.sites(count);
            }
            ItemRegion::Marker => b.pending_site(),
        }
    }
}

/// Partitions a program into the uniform regions the Section 2.2 algorithm
/// distinguishes, returning a site-indexed [`RegionMap`] for trace
/// attribution.
///
/// The partition mirrors [`detect_and_mark`]'s marker granularity exactly —
/// a uniform loop nest is one region, a mixed loop contributes a control
/// region for its header/latch and recurses — so per-region statistics
/// line up with the ON/OFF brackets the selective scheme inserts. Marker
/// items already in the program attach to the region that follows them
/// (the paper places markers immediately before the region they control).
pub fn region_partition(program: &Program, threshold: f64) -> RegionMap {
    let mut b = RegionMapBuilder::new();
    partition_items(&program.items, threshold, &mut b);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert_markers;
    use selcache_ir::{AffineExpr, Interp, OpKind, ProgramBuilder, Subscript};

    /// A program shaped like Figure 2(a): one outer loop with three level-2
    /// nests — hardware, software, hardware.
    fn figure2_like() -> Program {
        let mut b = ProgramBuilder::new("fig2");
        let a = b.array("A", &[32, 32], 8);
        let x = b.array("X", &[1024], 8);
        let ip = b.data_array("IP", (0..1024).rev().collect(), 4);
        b.loop_(4, |b, _t| {
            // Nest 1 (levels 2-4): irregular gathers -> hardware.
            b.loop_(8, |b, _i| {
                b.loop_(8, |b, _j| {
                    b.loop_(8, |b, k| {
                        b.stmt(|s| {
                            s.gather(x, ip, AffineExpr::var(k), 0).int(1);
                        });
                    });
                });
            });
            // Nest 2 (level 2): affine -> software.
            b.loop_(32, |b, i| {
                b.stmt(|s| {
                    s.read(a, vec![Subscript::var(i), Subscript::constant(0)]).fp(1);
                });
            });
            // Nest 3 (levels 2-3): irregular -> hardware.
            b.loop_(8, |b, _i| {
                b.loop_(8, |b, k| {
                    b.stmt(|s| {
                        s.gather(x, ip, AffineExpr::var(k), 2).int(1);
                    });
                });
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn outer_loop_is_mixed() {
        let p = figure2_like();
        let l = p.items[0].as_loop().unwrap();
        assert_eq!(analyze_loop(l, 0.5), RegionClass::Mixed);
    }

    #[test]
    fn inner_nests_classify_and_propagate() {
        let p = figure2_like();
        let outer = p.items[0].as_loop().unwrap();
        let nests: Vec<&Loop> = outer.body.iter().filter_map(|i| i.as_loop()).collect();
        assert_eq!(nests.len(), 3);
        assert_eq!(analyze_loop(nests[0], 0.5), RegionClass::Uniform(Preference::Hardware));
        assert_eq!(analyze_loop(nests[1], 0.5), RegionClass::Uniform(Preference::Software));
        assert_eq!(analyze_loop(nests[2], 0.5), RegionClass::Uniform(Preference::Hardware));
    }

    #[test]
    fn naive_marking_brackets_each_region() {
        let p = figure2_like();
        let marked = detect_and_mark(&p, 0.5, AssistPolicy::IrregularRegions);
        let outer = marked.items[0].as_loop().unwrap();
        // ON nest1 OFF nest2 ON nest3 — one marker before each child nest.
        let kinds: Vec<_> = outer
            .body
            .iter()
            .filter_map(|i| match i {
                Item::Marker(m) => Some(*m),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![Marker::On, Marker::Off, Marker::On]);
        assert_eq!(marked.marker_count(), 3);
    }

    #[test]
    fn uniform_program_gets_single_header_marker() {
        let mut b = ProgramBuilder::new("u");
        let a = b.array("A", &[16, 16], 8);
        b.nest2(16, 16, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)]);
            });
        });
        let p = b.finish().unwrap();
        let marked = detect_and_mark(&p, 0.5, AssistPolicy::IrregularRegions);
        assert_eq!(marked.marker_count(), 1);
        assert!(matches!(marked.items[0], Item::Marker(Marker::Off)));
    }

    #[test]
    fn sandwiched_statements_use_own_refs() {
        let mut b = ProgramBuilder::new("s");
        let h = b.array("H", &[512], 16);
        let n = b.data_array("N", (0..512).collect(), 8);
        let a = b.array("A", &[512], 8);
        b.loop_(4, |b, _| {
            b.loop_(512, |b, i| {
                b.stmt(|s| {
                    s.read(a, vec![Subscript::var(i)]);
                });
            });
            // Pointer-chasing statements between the two nests.
            b.stmt(|s| {
                s.chase(h, n, 0);
            });
            b.loop_(512, |b, _| {
                b.stmt(|s| {
                    s.chase(h, n, 8);
                });
            });
        });
        let p = b.finish().unwrap();
        let marked = detect_and_mark(&p, 0.5, AssistPolicy::IrregularRegions);
        let outer = marked.items[0].as_loop().unwrap();
        let kinds: Vec<_> = outer
            .body
            .iter()
            .filter_map(|i| match i {
                Item::Marker(m) => Some(*m),
                _ => None,
            })
            .collect();
        // Software nest, hardware statements, hardware nest.
        assert_eq!(kinds, vec![Marker::Off, Marker::On, Marker::On]);
    }

    #[test]
    fn validated_after_marking() {
        let marked = detect_and_mark(&figure2_like(), 0.5, AssistPolicy::IrregularRegions);
        assert!(marked.validate().is_ok());
    }

    #[test]
    fn partition_covers_every_site() {
        let p = figure2_like();
        let map = region_partition(&p, 0.5);
        assert_eq!(map.num_sites(), site_count(&p.items));
        for site in 0..map.num_sites() {
            assert!(!map.region_of_site(site).is_none(), "site {site} uncovered");
        }
    }

    #[test]
    fn partition_mirrors_marker_granularity() {
        // The marked figure-2 program: outer ctl region + three child-nest
        // regions (hw, sw, hw), each owning its preceding marker site.
        let marked = detect_and_mark(&figure2_like(), 0.5, AssistPolicy::IrregularRegions);
        let map = region_partition(&marked, 0.5);
        assert_eq!(map.num_sites(), site_count(&marked.items));
        let labels = map.labels();
        assert!(labels[0].ends_with(":ctl"), "outer loop is control: {labels:?}");
        let tags: Vec<&str> = labels[1..].iter().map(|l| l.rsplit(':').next().unwrap()).collect();
        assert_eq!(tags, vec!["hw", "sw", "hw"]);
    }

    #[test]
    fn partition_attributes_markers_to_following_region() {
        let marked = detect_and_mark(&figure2_like(), 0.5, AssistPolicy::IrregularRegions);
        let map = region_partition(&marked, 0.5);
        // Site walk: outer loop (ctl), then [marker, nest...] x3. The first
        // marker site (index 1) belongs to the first child region, not ctl.
        assert_eq!(map.region_of_site(0), map.region_of_site(0));
        assert_ne!(map.region_of_site(1), map.region_of_site(0));
        assert_eq!(map.region_of_site(1), map.region_of_site(2));
    }

    #[test]
    fn every_traced_op_lands_in_a_region() {
        use selcache_ir::Interp;
        let marked = detect_and_mark(&figure2_like(), 0.5, AssistPolicy::IrregularRegions);
        let map = region_partition(&marked, 0.5);
        let mut per_region = vec![0u64; map.num_regions()];
        for op in Interp::with_regions(&marked, &map) {
            assert!(!op.region.is_none(), "op at {:#x} outside all regions", op.pc);
            per_region[op.region.index()] += 1;
        }
        assert!(per_region.iter().all(|&n| n > 0), "empty region: {per_region:?}");
    }

    /// A regular loop followed by an irregular gather loop.
    fn mixed() -> Program {
        let mut b = ProgramBuilder::new("m");
        let a = b.array("A", &[2048], 8);
        let x = b.array("X", &[2048], 8);
        let ip = b.data_array("IP", (0..2048).rev().collect(), 4);
        b.loop_(2048, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i)]).fp(1);
            });
        });
        b.loop_(2048, |b, i| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(i), 0);
            });
        });
        b.finish().unwrap()
    }

    fn dynamic_markers(p: &Program) -> Vec<OpKind> {
        Interp::new(p)
            .filter(|o| matches!(o.kind, OpKind::AssistOn | OpKind::AssistOff))
            .map(|o| o.kind)
            .collect()
    }

    #[test]
    fn irregular_policy_matches_paper_rule() {
        let p = mixed();
        let a = insert_markers(&p, 0.5, AssistPolicy::IrregularRegions);
        // ON before the gather loop only.
        assert_eq!(dynamic_markers(&a), vec![OpKind::AssistOn]);
    }

    #[test]
    fn regular_policy_inverts() {
        let p = mixed();
        let m = insert_markers(&p, 0.5, AssistPolicy::RegularRegions);
        // The regular loop is first: ON for it, then OFF before the gather.
        assert_eq!(dynamic_markers(&m), vec![OpKind::AssistOn, OpKind::AssistOff]);
    }

    #[test]
    fn always_policy_single_on() {
        let p = mixed();
        let m = insert_markers(&p, 0.5, AssistPolicy::Always);
        assert_eq!(dynamic_markers(&m), vec![OpKind::AssistOn]);
    }

    #[test]
    fn policies_preserve_work() {
        let p = mixed();
        let loads =
            |p: &Program| Interp::new(p).filter(|o| matches!(o.kind, OpKind::Load(_))).count();
        for policy in
            [AssistPolicy::IrregularRegions, AssistPolicy::RegularRegions, AssistPolicy::Always]
        {
            let m = insert_markers(&p, 0.5, policy);
            assert_eq!(loads(&p), loads(&m), "{policy:?}");
            assert!(m.validate().is_ok());
        }
    }

    #[test]
    fn marker_mapping_table() {
        use AssistPolicy::*;
        assert_eq!(IrregularRegions.marker_for(Preference::Hardware), Marker::On);
        assert_eq!(IrregularRegions.marker_for(Preference::Software), Marker::Off);
        assert_eq!(RegularRegions.marker_for(Preference::Hardware), Marker::Off);
        assert_eq!(RegularRegions.marker_for(Preference::Software), Marker::On);
        assert_eq!(Always.marker_for(Preference::Software), Marker::On);
    }
}
