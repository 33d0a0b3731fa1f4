//! The interpreter's general references against their definitions: every
//! array access lands where [`ArrayDecl::linearize`] puts it, for any
//! layout, mix of subscript kinds and subscript count; and a checkpoint
//! taken at any trace position resumes exactly the uninterrupted tail.
//!
//! [`ArrayDecl::linearize`]: selcache_ir::ArrayDecl::linearize

use proptest::prelude::*;
use selcache_ir::{
    Addr, AffineExpr, Interp, Layout, Marker, OpKind, Program, ProgramBuilder, Subscript, VarId,
};

/// One subscript of the reference under test, over the loop variables
/// `i` and `j` (`v[0]`, `v[1]`).
#[derive(Debug, Clone)]
enum Sub {
    /// `ci*i + cj*j + c`, negative and out-of-range values included.
    Affine(i64, i64, i64),
    /// `IDX[ci*i + cj*j + c] + offset`.
    Indexed(i64, i64, i64, i64),
    /// `v[a] mod m`.
    Modulo(usize, i64),
    /// `v[a] * v[b]`.
    Product(usize, usize),
}

fn arb_sub() -> impl Strategy<Value = Sub> {
    prop_oneof![
        (-3i64..=3, -3i64..=3, -8i64..=8).prop_map(|(ci, cj, c)| Sub::Affine(ci, cj, c)),
        (-2i64..=2, -2i64..=2, -4i64..=4, -3i64..=3)
            .prop_map(|(ci, cj, c, off)| Sub::Indexed(ci, cj, c, off)),
        (0usize..2, 1i64..=5).prop_map(|(a, m)| Sub::Modulo(a, m)),
        (0usize..2, 0usize..2).prop_map(|(a, b)| Sub::Product(a, b)),
    ]
}

/// The array's layout: row-major, column-major, or the permutation that
/// stores the dimensions in the order of their sort keys.
fn layout(kind: u8, keys: &[u64], ndims: usize) -> Layout {
    match kind {
        0 => Layout::RowMajor,
        1 => Layout::ColMajor,
        _ => {
            let mut order: Vec<usize> = (0..ndims).collect();
            order.sort_by_key(|&k| keys[k]);
            let mut perm = vec![0; ndims];
            for (pos, &src) in order.iter().enumerate() {
                perm[src] = pos;
            }
            Layout::Permuted(perm)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A random reference `A[s_0]..[s_k]` in a two-deep nest, with an
    /// array of 1–4 dimensions that may have more or fewer dimensions than
    /// the reference has subscripts. Each index load reads `IDX` at the
    /// wrapped position, and each final access is `base(A) +
    /// linearize(coords) * elem_size`, with `coords` evaluated here.
    #[test]
    fn general_array_accesses_match_linearize(
        dims in prop::collection::vec(1i64..=6, 1..=4),
        shape in (0u8..3, prop::collection::vec(any::<u64>(), 4..=4), 0usize..4),
        subs in prop::collection::vec(arb_sub(), 1..=5),
        index_data in prop::collection::vec(-10i64..=10, 1..=8),
        write in any::<bool>(),
        trips in (1i64..=4, 1i64..=4),
    ) {
        let (layout_kind, keys, elem_kind) = shape;
        let elem_size = [1u64, 4, 8, 16][elem_kind];
        let mut b = ProgramBuilder::new("addr");
        // Declared with one extent per subscript so the program validates;
        // the real shape replaces it below.
        let a = b.array("A", &vec![4; subs.len()], elem_size);
        let idx = b.data_array("IDX", index_data.clone(), 4);
        let affine = |v: &[VarId; 2], ci: i64, cj: i64, c: i64| {
            AffineExpr::from_terms([(v[0], ci), (v[1], cj)], c)
        };
        b.nest2(trips.0, trips.1, |b, i, j| {
            let v = [i, j];
            let subscripts: Vec<Subscript> = subs
                .iter()
                .map(|s| match *s {
                    Sub::Affine(ci, cj, c) => Subscript::Affine(affine(&v, ci, cj, c)),
                    Sub::Indexed(ci, cj, c, offset) => Subscript::Indexed {
                        index_array: idx,
                        index: affine(&v, ci, cj, c),
                        offset,
                    },
                    Sub::Modulo(x, m) => Subscript::Modulo(v[x], m),
                    Sub::Product(x, y) => Subscript::Product(v[x], v[y]),
                })
                .collect();
            b.stmt(|s| {
                if write {
                    s.write(a, subscripts);
                } else {
                    s.read(a, subscripts);
                }
            });
        });
        let mut p = b.finish().expect("valid program");
        let decl = &mut p.arrays[a.index()];
        decl.layout = layout(layout_kind, &keys, dims.len());
        decl.dims = dims;
        let amap = p.address_map();
        let (a_base, idx_base) = (amap.array_base(a).0, amap.array_base(idx).0);
        let decl = &p.arrays[a.index()];

        let mem: Vec<OpKind> = Interp::new(&p).map(|o| o.kind).filter(OpKind::is_mem).collect();
        let per_iter = subs.iter().filter(|s| matches!(s, Sub::Indexed(..))).count() + 1;
        prop_assert_eq!(mem.len() as i64, trips.0 * trips.1 * per_iter as i64);
        let mut ops = mem.chunks(per_iter);
        for i in 0..trips.0 {
            for j in 0..trips.1 {
                let env = [i, j];
                let chunk = ops.next().expect("one chunk per iteration");
                let mut index_loads = chunk[..per_iter - 1].iter();
                let coords: Vec<i64> = subs
                    .iter()
                    .map(|s| match *s {
                        Sub::Affine(ci, cj, c) => ci * i + cj * j + c,
                        Sub::Indexed(ci, cj, c, offset) => {
                            let pos = (ci * i + cj * j + c).rem_euclid(index_data.len() as i64);
                            let load = index_loads.next().expect("index load");
                            prop_assert_eq!(
                                *load,
                                OpKind::Load(Addr(idx_base + pos as u64 * 4))
                            );
                            index_data[pos as usize] + offset
                        }
                        Sub::Modulo(x, m) => env[x].rem_euclid(m),
                        Sub::Product(x, y) => env[x] * env[y],
                    })
                    .collect();
                let addr = Addr(a_base + decl.linearize(&coords) as u64 * elem_size);
                let want = if write { OpKind::Store(addr) } else { OpKind::Load(addr) };
                prop_assert_eq!(
                    chunk[per_iter - 1],
                    want,
                    "i={} j={} coords={:?} dims={:?} layout={:?}",
                    i,
                    j,
                    coords,
                    decl.dims,
                    decl.layout
                );
            }
        }
    }
}

/// A short program whose statements resolve at run time: a gather, a
/// pointer chase, a struct field, a non-affine 2-D store, a scatter, and
/// assist markers, in a two-deep nest.
fn irregular_program() -> Program {
    let mut b = ProgramBuilder::new("irregular");
    let x = b.array("X", &[16], 8);
    let grid = b.array("G", &[5, 7], 8);
    let ip = b.data_array("IP", vec![5, 3, 9, 1, 14, 0, 7], 4);
    let heap = b.array("H", &[6], 32);
    let next = b.data_array("N", vec![2, 4, 1, 5, 0, 3], 8);
    let recs = b.array("R", &[9], 24);
    b.marker(Marker::On);
    b.loop_(5, |b, i| {
        b.stmt(|s| {
            s.gather(x, ip, AffineExpr::linear(i, 2, 1), -1)
                .chase(heap, next, 8)
                .field(recs, AffineExpr::linear(i, 3, 1), 16)
                .fp(2)
                .write(grid, vec![Subscript::Product(i, i), Subscript::Modulo(i, 3)]);
        });
        b.loop_(3, |b, j| {
            b.stmt(|s| {
                s.chase_write(heap, next, 0).int(1).scatter(x, ip, AffineExpr::var(j), 2);
            });
        });
    });
    b.marker(Marker::Off);
    b.finish().expect("valid program")
}

#[test]
fn checkpoint_at_every_position_resumes_the_tail() {
    let p = irregular_program();
    let full: Vec<_> = Interp::new(&p).collect();
    assert!(full.len() > 100, "a trace long enough to cut mid-statement: {}", full.len());
    let mut interp = Interp::new(&p);
    for pos in 0..=full.len() {
        let ck = interp.checkpoint();
        assert_eq!(ck.position(), pos as u64);
        let mut fresh = Interp::new(&p);
        fresh.restore(&ck);
        assert_eq!(fresh.emitted(), pos as u64);
        let tail: Vec<_> = fresh.collect();
        assert_eq!(tail, full[pos..], "restored at position {pos}");
        assert_eq!(interp.next(), full.get(pos).copied(), "the original runs on at {pos}");
    }
}
