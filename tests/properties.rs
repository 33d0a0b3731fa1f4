//! Property-based tests over randomly generated programs: the optimizer
//! must preserve semantics, the interpreter must stay within the address
//! map, and marker insertion must produce non-redundant dynamic toggles.

use proptest::prelude::*;
use selcache::compiler::{insert_markers, optimize, AssistPolicy, OptConfig};
use selcache::ir::{AffineExpr, Interp, OpKind, Program, ProgramBuilder, Subscript, VarId};

/// Recipe for one random reference.
#[derive(Debug, Clone)]
struct RefRecipe {
    array: usize,
    write: bool,
    /// Per-dimension (coeff on each live var, constant).
    coeffs: Vec<(i64, i64)>,
    /// Use an indexed (irregular) subscript for dimension 0.
    indexed: bool,
}

/// Recipe for one random program.
#[derive(Debug, Clone)]
struct ProgramRecipe {
    /// Array extents: 1-D or 2-D.
    arrays: Vec<Vec<i64>>,
    /// Nests: (depth, trips, statements of refs).
    nests: Vec<(Vec<i64>, Vec<Vec<RefRecipe>>)>,
}

fn arb_ref(num_arrays: usize) -> impl Strategy<Value = RefRecipe> {
    (
        0..num_arrays,
        any::<bool>(),
        prop::collection::vec((-2i64..=2, 0i64..3), 1..=2),
        prop::bool::weighted(0.25),
    )
        .prop_map(|(array, write, coeffs, indexed)| RefRecipe {
            array,
            write,
            coeffs,
            indexed,
        })
}

fn arb_program() -> impl Strategy<Value = ProgramRecipe> {
    let arrays = prop::collection::vec(
        prop_oneof![
            (4i64..24).prop_map(|n| vec![n]),
            ((4i64..12), (4i64..12)).prop_map(|(a, b)| vec![a, b]),
        ],
        1..=3,
    );
    arrays.prop_flat_map(|arrays| {
        let n = arrays.len();
        let nests = prop::collection::vec(
            (
                prop::collection::vec(2i64..6, 1..=3),
                prop::collection::vec(prop::collection::vec(arb_ref(n), 1..=3), 1..=2),
            ),
            1..=2,
        );
        (Just(arrays), nests).prop_map(|(arrays, nests)| ProgramRecipe { arrays, nests })
    })
}

fn build(recipe: &ProgramRecipe) -> Program {
    let mut b = ProgramBuilder::new("random");
    let arrays: Vec<_> = recipe
        .arrays
        .iter()
        .enumerate()
        .map(|(k, dims)| b.array(format!("A{k}"), dims, 8))
        .collect();
    // One index table for irregular refs.
    let max_extent = recipe.arrays.iter().flat_map(|d| d.iter()).copied().max().unwrap_or(4);
    let index = b.data_array("IDX", (0..64).map(|i| (i * 7) % max_extent).collect(), 4);

    fn subscripts(
        recipe: &RefRecipe,
        dims: &[i64],
        vars: &[VarId],
        index: selcache::ir::ArrayId,
    ) -> Vec<Subscript> {
        (0..dims.len())
            .map(|d| {
                if d == 0 && recipe.indexed {
                    Subscript::Indexed {
                        index_array: index,
                        index: AffineExpr::var(vars[0]),
                        offset: 0,
                    }
                } else {
                    let (c, k) = recipe.coeffs[d.min(recipe.coeffs.len() - 1)];
                    let v = vars[d % vars.len()];
                    Subscript::Affine(AffineExpr::linear(v, c, k))
                }
            })
            .collect()
    }

    for (trips, stmts) in &recipe.nests {
        // Open the nest.
        fn nest(
            b: &mut ProgramBuilder,
            trips: &[i64],
            vars: &mut Vec<VarId>,
            stmts: &Vec<Vec<RefRecipe>>,
            arrays: &[selcache::ir::ArrayId],
            dims: &[Vec<i64>],
            index: selcache::ir::ArrayId,
        ) {
            if let Some((&t, rest)) = trips.split_first() {
                b.loop_(t, |b, v| {
                    vars.push(v);
                    nest(b, rest, vars, stmts, arrays, dims, index);
                    vars.pop();
                });
            } else {
                for stmt in stmts {
                    b.stmt(|s| {
                        for r in stmt {
                            let subs = subscripts(r, &dims[r.array], vars, index);
                            if r.write {
                                s.write(arrays[r.array], subs);
                            } else {
                                s.read(arrays[r.array], subs);
                            }
                        }
                        s.fp(1);
                    });
                }
            }
        }
        let mut vars = Vec::new();
        nest(&mut b, trips, &mut vars, stmts, &arrays, &recipe.arrays, index);
    }
    b.finish().expect("recipe produces a valid program")
}

fn op_counts(p: &Program) -> (usize, usize, usize) {
    let mut loads = 0;
    let mut stores = 0;
    let mut fp = 0;
    for op in Interp::new(p) {
        match op.kind {
            OpKind::Load(_) => loads += 1,
            OpKind::Store(_) => stores += 1,
            OpKind::FpAlu => fp += 1,
            _ => {}
        }
    }
    (loads, stores, fp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interchange + tiling are pure reorderings: the multiset of data
    /// addresses is exactly preserved.
    #[test]
    fn reordering_passes_preserve_address_multiset(recipe in arb_program()) {
        let p = build(&recipe);
        let cfg = OptConfig {
            pad: false,
            layout: false,
            scalar_replacement: false,
            ..OptConfig::default()
        };
        let o = optimize(&p, &cfg);
        prop_assert!(o.validate().is_ok());
        let mut before: Vec<u64> = Interp::new(&p).filter_map(|op| op.kind.addr().map(|a| a.0)).collect();
        let mut after: Vec<u64> = Interp::new(&o).filter_map(|op| op.kind.addr().map(|a| a.0)).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }

    /// The full pipeline preserves floating-point work and never increases
    /// store traffic.
    #[test]
    fn full_pipeline_preserves_fp_work(recipe in arb_program()) {
        let p = build(&recipe);
        let o = optimize(&p, &OptConfig::default());
        prop_assert!(o.validate().is_ok());
        let (_, st_b, fp_b) = op_counts(&p);
        let (_, st_a, fp_a) = op_counts(&o);
        prop_assert_eq!(fp_b, fp_a);
        prop_assert!(st_a <= st_b, "stores grew: {} -> {}", st_b, st_a);
    }

    /// Every generated data address lies inside the program's address map.
    #[test]
    fn interpreter_stays_inside_address_map(recipe in arb_program()) {
        let p = build(&recipe);
        let map = p.address_map();
        for op in Interp::new(&p) {
            if let Some(a) = op.kind.addr() {
                prop_assert!(a.0 >= selcache::ir::AddressMap::BASE);
                prop_assert!(a.0 < map.end().0, "address {a} beyond map end {}", map.end());
            }
        }
    }

    /// Marker insertion yields a dynamically non-redundant toggle stream on
    /// arbitrary programs.
    #[test]
    fn marker_stream_never_redundant(recipe in arb_program()) {
        let p = build(&recipe);
        let marked = insert_markers(&p, 0.5, AssistPolicy::IrregularRegions);
        prop_assert!(marked.validate().is_ok());
        let mut state = false;
        for op in Interp::new(&marked) {
            match op.kind {
                OpKind::AssistOn => {
                    prop_assert!(!state, "redundant dynamic ON");
                    state = true;
                }
                OpKind::AssistOff => {
                    prop_assert!(state, "redundant dynamic OFF");
                    state = false;
                }
                _ => {}
            }
        }
    }

    /// Trace generation is deterministic.
    #[test]
    fn traces_deterministic(recipe in arb_program()) {
        let p = build(&recipe);
        let a: Vec<_> = Interp::new(&p).take(5_000).collect();
        let b: Vec<_> = Interp::new(&p).take(5_000).collect();
        prop_assert_eq!(a, b);
    }
}
