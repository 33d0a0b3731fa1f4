//! Whole-compiler integration tests: the paper's Figure 1 flow on
//! realistic program shapes.

use selcache_compiler::{
    analyze_loop, detect_and_mark, eliminate_redundant_markers, fuse_loops, insert_markers,
    optimize, selective, AssistPolicy, OptConfig, Preference, RegionClass,
};
use selcache_ir::{
    trace_len, AffineExpr, Interp, Item, Marker, OpKind, Program, ProgramBuilder, Subscript,
};

/// A program with every reference class the paper lists in §2.3.
fn kitchen_sink() -> Program {
    let mut b = ProgramBuilder::new("sink");
    let a = b.array("A", &[512, 16], 8);
    let d = b.array("D", &[64, 16], 8);
    let e = b.array("E", &[64], 8);
    let f = b.array("F", &[3, 64], 8);
    let g = b.array("G", &[1024], 8);
    let ip = b.data_array("IP", (0..1024).map(|i| (i * 13) % 1024).collect(), 4);
    let heap = b.array("H", &[256], 16);
    let next = b.data_array("N", (0..256).map(|i| (i * 7 + 1) % 256).collect(), 8);
    let structs = b.array("J", &[128], 32);
    let sc = b.scalar();

    // Regular nest: scalars + affine refs.
    b.nest2(512, 16, |b, i, j| {
        b.stmt(|s| {
            s.read(a, vec![Subscript::var(i), Subscript::var(j)])
                .read_scalar(sc)
                .fp(1)
                .write(a, vec![Subscript::var(i), Subscript::var(j)]);
        });
    });
    // Irregular nest: every non-analyzable shape.
    b.nest2(64, 16, |b, i, j| {
        b.stmt(|s| {
            s.read(d, vec![Subscript::Square(i), Subscript::var(j)]) // D[i²][j]
                .read(e, vec![Subscript::Quotient(i, j)]) // E[i/j]
                .read(f, vec![Subscript::constant(2), Subscript::Product(i, j)]) // F[3][i*j]
                .gather(g, ip, AffineExpr::var(j), 2) // G[IP[j]+2]
                .chase(heap, next, 8) // *H
                .field(structs, AffineExpr::var(i), 16) // J.field
                .int(4);
        });
    });
    b.finish().unwrap()
}

#[test]
fn classification_matches_paper_section_2_3() {
    let p = kitchen_sink();
    let regular = p.items[0].as_loop().unwrap();
    let irregular = p.items[1].as_loop().unwrap();
    assert_eq!(analyze_loop(regular, 0.5), RegionClass::Uniform(Preference::Software));
    assert_eq!(analyze_loop(irregular, 0.5), RegionClass::Uniform(Preference::Hardware));
}

#[test]
fn full_flow_produces_single_on_marker() {
    let p = kitchen_sink();
    let s = selective(&p, &OptConfig::default());
    assert!(s.validate().is_ok());
    // SW nest first (no marker after elimination: initial state is off),
    // then one ON before the irregular nest.
    assert_eq!(s.marker_count(), 1);
    let markers: Vec<_> = Interp::new(&s)
        .filter(|o| matches!(o.kind, OpKind::AssistOn | OpKind::AssistOff))
        .collect();
    assert_eq!(markers.len(), 1);
    assert_eq!(markers[0].kind, OpKind::AssistOn);
}

#[test]
fn hardware_regions_are_never_transformed() {
    let p = kitchen_sink();
    let o = optimize(&p, &OptConfig::default());
    // The irregular nest must be byte-identical (modulo nothing: same item).
    assert_eq!(p.items[1], o.items[1], "hardware region was modified");
}

#[test]
fn markers_bracket_exactly_the_hardware_work() {
    let p = kitchen_sink();
    let s = selective(&p, &OptConfig::default());
    // Simulate the flag over the trace: every gather/chase/struct access
    // must execute with the assist on; every access to array A with it off.
    let map = s.address_map();
    let a_base = map.array_base(selcache_ir::ArrayId(0)).0;
    let a_end = a_base + s.arrays[0].size_bytes();
    let g_base = map.array_base(selcache_ir::ArrayId(4)).0;
    let g_end = g_base + s.arrays[4].size_bytes();
    let mut on = false;
    for op in Interp::new(&s) {
        match op.kind {
            OpKind::AssistOn => on = true,
            OpKind::AssistOff => on = false,
            OpKind::Load(addr) | OpKind::Store(addr) => {
                if addr.0 >= a_base && addr.0 < a_end {
                    assert!(!on, "regular array accessed with assist on");
                }
                if addr.0 >= g_base && addr.0 < g_end {
                    assert!(on, "gather target accessed with assist off");
                }
            }
            _ => {}
        }
    }
}

#[test]
fn naive_vs_eliminated_markers_agree_dynamically() {
    let p = kitchen_sink();
    let o = optimize(&p, &OptConfig::default());
    let naive = detect_and_mark(&o, 0.5, AssistPolicy::IrregularRegions);
    let clean = eliminate_redundant_markers(&naive);
    // The flag state before every memory access must be identical.
    let states = |prog: &Program| -> Vec<bool> {
        let mut on = false;
        let mut v = Vec::new();
        for op in Interp::new(prog) {
            match op.kind {
                OpKind::AssistOn => on = true,
                OpKind::AssistOff => on = false,
                OpKind::Load(_) | OpKind::Store(_) => v.push(on),
                _ => {}
            }
        }
        v
    };
    assert_eq!(states(&naive), states(&clean));
}

#[test]
fn fusion_then_selective_is_consistent() {
    let mut b = ProgramBuilder::new("fuse");
    let a = b.array("A", &[2048], 8);
    let c = b.array("C", &[2048], 8);
    let g = b.array("G", &[2048], 8);
    let ip = b.data_array("IP", (0..2048).rev().collect(), 4);
    b.loop_(2048, |b, i| {
        b.stmt(|s| {
            s.fp(1).write(a, vec![Subscript::var(i)]);
        });
    });
    b.loop_(2048, |b, i| {
        b.stmt(|s| {
            s.read(a, vec![Subscript::var(i)]).fp(1).write(c, vec![Subscript::var(i)]);
        });
    });
    b.loop_(2048, |b, i| {
        b.stmt(|s| {
            s.gather(g, ip, AffineExpr::var(i), 0);
        });
    });
    let mut p = b.finish().unwrap();
    let before_ops = trace_len(&p);
    let stats = fuse_loops(&mut p, 0.5);
    assert_eq!(stats.fused, 1, "the two software loops fuse; the gather loop does not");
    assert!(trace_len(&p) < before_ops);
    let marked = insert_markers(&p, 0.5, AssistPolicy::IrregularRegions);
    assert_eq!(marked.marker_count(), 1); // single ON before the gather loop
    assert!(matches!(
        marked.items.last(),
        Some(Item::Loop(_)) // gather loop last, preceded by its marker
    ));
    let has_on = marked.items.iter().any(|i| matches!(i, Item::Marker(Marker::On)));
    assert!(has_on);
}

#[test]
fn optimizer_is_idempotent_on_its_own_output() {
    let p = kitchen_sink();
    let cfg = OptConfig::default();
    let once = optimize(&p, &cfg);
    let twice = optimize(&once, &cfg);
    // Second run may re-pad (cursor already staggered: no change) but must
    // not change the code structure.
    assert_eq!(once.items, twice.items);
    assert_eq!(
        trace_len(&once),
        trace_len(&twice),
        "second optimization changed the dynamic shape"
    );
}
