//! Dynamic ON/OFF semantics: after redundant-marker elimination, every
//! executed marker must actually change the assist state, and preparation
//! must never alter the program's computational work.

use selcache::compiler::{
    detect_and_mark, optimize, region_partition, selective, AssistPolicy, OptConfig, Preference,
};
use selcache::ir::{AffineExpr, Interp, Item, Marker, OpKind, Program, ProgramBuilder, Subscript};
use selcache::workloads::{Benchmark, Scale};

/// After elimination, the dynamic marker stream is non-redundant: starting
/// from OFF, every AssistOn fires with the flag off and every AssistOff
/// with the flag on.
#[test]
fn dynamic_marker_stream_is_non_redundant() {
    let opt = OptConfig::default();
    for bm in Benchmark::ALL {
        let prepared = selective(&bm.build(Scale::Tiny), &opt);
        let mut state = false;
        let mut toggles = 0u64;
        for op in Interp::new(&prepared) {
            match op.kind {
                OpKind::AssistOn => {
                    assert!(!state, "{bm}: redundant ON executed");
                    state = true;
                    toggles += 1;
                }
                OpKind::AssistOff => {
                    assert!(state, "{bm}: redundant OFF executed");
                    state = false;
                    toggles += 1;
                }
                _ => {}
            }
        }
        // Irregular and mixed codes must actually use the assist.
        if bm.category() != selcache::workloads::Category::Regular {
            assert!(toggles > 0, "{bm}: no toggles executed");
        }
    }
}

/// The selective preparation preserves the benchmark's floating-point work
/// (nothing is lost or duplicated by marking).
#[test]
fn preparation_preserves_fp_work() {
    let opt = OptConfig::default();
    for bm in [Benchmark::Chaos, Benchmark::TpcDQ1, Benchmark::Swim] {
        let base = bm.build(Scale::Tiny);
        let prepared = selective(&base, &opt);
        let fp =
            |p: &selcache::ir::Program| Interp::new(p).filter(|o| o.kind == OpKind::FpAlu).count();
        assert_eq!(fp(&base), fp(&prepared), "{bm}: fp work changed");
    }
}

/// Markers are the only instruction-count difference between the pure
/// software and selective binaries.
#[test]
fn markers_are_the_only_selective_overhead() {
    use selcache::compiler::optimize;
    let opt = OptConfig::default();
    for bm in [Benchmark::Chaos, Benchmark::TpcC] {
        let base = bm.build(Scale::Tiny);
        let sw = optimize(&base, &opt);
        let sel = selective(&base, &opt);
        let count = |p: &selcache::ir::Program, markers: bool| {
            Interp::new(p)
                .filter(|o| matches!(o.kind, OpKind::AssistOn | OpKind::AssistOff) == markers)
                .count()
        };
        let sw_non_marker = count(&sw, false);
        let sel_non_marker = count(&sel, false);
        assert_eq!(sw_non_marker, sel_non_marker, "{bm}: non-marker work differs");
        assert_eq!(count(&sw, true), 0, "{bm}: software code must carry no markers");
        assert!(count(&sel, true) > 0, "{bm}: selective code must carry markers");
    }
}

/// Site of every marker, numbered as the interpreter assigns PCs: a loop
/// header is one site before its body, a block one site per statement.
fn marker_sites(items: &[Item], next: &mut usize, out: &mut Vec<(usize, Marker)>) {
    for item in items {
        match item {
            Item::Loop(l) => {
                *next += 1;
                marker_sites(&l.body, next, out);
            }
            Item::Block(stmts) => *next += stmts.len(),
            Item::Marker(m) => {
                out.push((*next, *m));
                *next += 1;
            }
        }
    }
}

/// The region shapes no benchmark has at Tiny: a mixed loop with
/// statements between its child nests, and a mixed loop whose two child
/// nests run only 4 iterations each.
fn mixed_loop_shapes() -> Program {
    let mut b = ProgramBuilder::new("mixed-shapes");
    let a = b.array("A", &[512], 8);
    let x = b.array("X", &[512], 8);
    let h = b.array("H", &[512], 16);
    let n = b.data_array("N", (0..512).collect(), 8);
    let ip = b.data_array("IP", (0..512).rev().collect(), 4);
    b.loop_(4, |b, _| {
        b.loop_(512, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i)]);
            });
        });
        b.stmt(|s| {
            s.chase(h, n, 0);
        });
        b.loop_(512, |b, i| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(i), 0);
            });
        });
    });
    b.loop_(64, |b, _| {
        b.loop_(4, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i)]).fp(1);
            });
        });
        b.loop_(4, |b, i| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(i), 0);
            });
        });
    });
    b.finish().expect("valid program")
}

/// Marking and partition decide each item's region once: every marker of
/// the naive marking opens the region that follows it, and its polarity is
/// the policy's marker for that region's hardware/software tag.
#[test]
fn naive_markers_open_the_region_they_control() {
    let opt = OptConfig::default();
    let shapes = mixed_loop_shapes();
    let labels = region_partition(&shapes, opt.threshold).labels().join(" ");
    assert!(labels.contains("stmts:"), "{labels}");
    // However few iterations its children run, a mixed loop is control
    // overhead, and each child is a region with a marker of its own.
    assert!(labels.ends_with("L3:ctl L4:sw L5:hw"), "{labels}");
    let naive = detect_and_mark(&shapes, opt.threshold, AssistPolicy::IrregularRegions);
    let small = naive.items.last().and_then(Item::as_loop).expect("the 64-iteration loop");
    assert_eq!(small.trip.max(), 64);
    let body: Vec<_> = small
        .body
        .iter()
        .map(|it| match it {
            Item::Marker(m) => Some(*m),
            _ => None,
        })
        .collect();
    assert_eq!(body, [Some(Marker::Off), None, Some(Marker::On), None]);
    let mut programs = vec![("mixed shapes".to_string(), shapes)];
    for bm in Benchmark::ALL {
        let raw = bm.build(Scale::Tiny);
        programs.push((format!("{bm} optimized"), optimize(&raw, &opt)));
        programs.push((format!("{bm} raw"), raw));
    }
    let policies =
        [AssistPolicy::IrregularRegions, AssistPolicy::RegularRegions, AssistPolicy::Always];
    for (name, program) in &programs {
        for policy in policies {
            let marked = detect_and_mark(program, opt.threshold, policy);
            let map = region_partition(&marked, opt.threshold);
            let mut markers = Vec::new();
            marker_sites(&marked.items, &mut 0, &mut markers);
            assert!(!markers.is_empty(), "{name}: no markers");
            for (site, marker) in markers {
                let what = format!("{name} {policy:?}, marker at site {site}");
                let region = map.region_of_site(site);
                assert_eq!(map.region_of_site(site + 1), region, "{what}");
                assert!(
                    site == 0 || map.region_of_site(site - 1) != region,
                    "{what}: region opens before its marker"
                );
                let label = map.label(region);
                let pref = match label.rsplit(':').next() {
                    Some("hw") => Preference::Hardware,
                    Some("sw") => Preference::Software,
                    _ => panic!("{what}: region {label:?} has no hw/sw tag"),
                };
                assert_eq!(marker, policy.marker_for(pref), "{what}: region {label:?}");
            }
        }
    }
}
