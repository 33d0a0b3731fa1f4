//! Pass orchestration: the full software-optimization pipeline and the
//! selective ON/OFF preparation (Figure 1 of the paper).

use crate::classify::Preference;
use crate::interchange::interchange_nest;
use crate::layout::select_layouts;
use crate::padding::{pad_arrays, PaddingConfig};
use crate::redundant::eliminate_redundant_markers;
use crate::region::{analyze_loop, detect_and_mark, AssistPolicy, RegionClass};
use crate::scalar::scalar_replace;
use crate::tiling::{tile_nest, IdAlloc, TilingConfig};
use selcache_ir::{ArrayDecl, Item, Loop, Program};

/// Configuration of the locality-optimizing compiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptConfig {
    /// Analyzable-reference ratio above which a loop is compiler-optimized
    /// (0.5 in the paper).
    pub threshold: f64,
    /// L1 block size used by the reuse cost model.
    pub block_bytes: u64,
    /// Tiling parameters.
    pub tiling: TilingConfig,
    /// Array-padding parameters.
    pub padding: PaddingConfig,
    /// Enable loop interchange.
    pub interchange: bool,
    /// Enable iteration-space tiling.
    pub tile: bool,
    /// Enable data-layout selection.
    pub layout: bool,
    /// Enable scalar replacement.
    pub scalar_replacement: bool,
    /// Enable inter-array padding.
    pub pad: bool,
    /// Enable loop fusion of adjacent compatible nests (extension; off by
    /// default to match the paper's pass list).
    pub fusion: bool,
    /// Enable loop distribution of multi-statement nests (extension; off by
    /// default).
    pub distribute: bool,
    /// Enable unroll-and-jam (the paper's §3.2 register step; off by
    /// default here because scalar replacement already captures most of the
    /// register reuse — measured in the ablations).
    pub unroll_jam: bool,
    /// Unroll-and-jam parameters.
    pub unroll: crate::unroll::UnrollConfig,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            threshold: 0.5,
            block_bytes: 32,
            tiling: TilingConfig::default(),
            padding: PaddingConfig::default(),
            interchange: true,
            tile: true,
            layout: true,
            scalar_replacement: true,
            pad: true,
            fusion: false,
            distribute: false,
            unroll_jam: false,
            unroll: crate::unroll::UnrollConfig::default(),
        }
    }
}

type LoopTransform<'f> = dyn FnMut(&[ArrayDecl], &mut IdAlloc<'_>, &Loop) -> Option<Loop> + 'f;

fn walk(
    items: &mut [Item],
    arrays: &[ArrayDecl],
    threshold: f64,
    num_vars: &mut u32,
    num_loops: &mut u32,
    assume_software: bool,
    f: &mut LoopTransform<'_>,
) -> usize {
    let mut applied = 0;
    for item in items.iter_mut() {
        if let Item::Loop(l) = item {
            let class = if assume_software {
                RegionClass::Uniform(Preference::Software)
            } else {
                analyze_loop(l, threshold)
            };
            match class {
                RegionClass::Uniform(Preference::Software) => {
                    let mut ids = IdAlloc { num_vars, num_loops };
                    if let Some(new) = f(arrays, &mut ids, l) {
                        *l = new;
                        applied += 1;
                    } else {
                        // The transform does not apply at this level (e.g.
                        // an imperfectly-nested time loop): descend to the
                        // inner nests, which inherit the software class.
                        applied +=
                            walk(&mut l.body, arrays, threshold, num_vars, num_loops, true, f);
                    }
                }
                RegionClass::Mixed => {
                    applied += walk(&mut l.body, arrays, threshold, num_vars, num_loops, false, f);
                }
                RegionClass::Uniform(Preference::Hardware) => {}
            }
        }
    }
    applied
}

/// Applies a loop transformation to every software-classified region,
/// descending through imperfect outer loops (e.g. time loops) to the
/// transformable nests inside. Returns how many loops changed.
pub fn apply_to_software_loops(
    program: &mut Program,
    threshold: f64,
    f: &mut LoopTransform<'_>,
) -> usize {
    let mut items = std::mem::take(&mut program.items);
    let mut nv = program.num_vars;
    let mut nl = program.num_loops;
    let n = walk(&mut items, &program.arrays, threshold, &mut nv, &mut nl, false, f);
    program.items = items;
    program.num_vars = nv;
    program.num_loops = nl;
    n
}

/// Runs the full software locality optimization (Section 3.2): interchange,
/// data-layout selection (then interchange again under the new layouts),
/// tiling, and scalar replacement — on software-classified regions only.
pub fn optimize(program: &Program, cfg: &OptConfig) -> Program {
    let mut p = program.clone();
    if cfg.pad {
        pad_arrays(&mut p, &cfg.padding);
    }
    if cfg.fusion {
        crate::fusion::fuse_loops(&mut p, cfg.threshold);
    }
    if cfg.distribute {
        crate::distribution::distribute_loops(&mut p, cfg.threshold);
    }
    if cfg.interchange {
        apply_to_software_loops(&mut p, cfg.threshold, &mut |arrays, _ids, l| {
            interchange_nest(arrays, l, cfg.block_bytes)
        });
    }
    if cfg.layout {
        let changed = select_layouts(&mut p, cfg.threshold);
        if changed > 0 && cfg.interchange {
            apply_to_software_loops(&mut p, cfg.threshold, &mut |arrays, _ids, l| {
                interchange_nest(arrays, l, cfg.block_bytes)
            });
        }
    }
    if cfg.tile {
        let tcfg = cfg.tiling;
        apply_to_software_loops(&mut p, cfg.threshold, &mut |arrays, ids, l| {
            tile_nest(ids, arrays, l, &tcfg)
        });
    }
    if cfg.unroll_jam {
        let ucfg = cfg.unroll;
        apply_to_software_loops(&mut p, cfg.threshold, &mut |_arrays, _ids, l| {
            crate::unroll::unroll_and_jam(l, &ucfg)
        });
    }
    if cfg.scalar_replacement {
        apply_to_software_loops(&mut p, cfg.threshold, &mut |arrays, _ids, l| {
            scalar_replace(arrays, l)
        });
    }
    debug_assert!(p.validate().is_ok(), "optimizer produced invalid program");
    p
}

/// Runs region detection, inserts ON/OFF markers chosen by `policy`, and
/// eliminates the redundant ones (the selective scheme's compile-time
/// half).
pub fn insert_markers(program: &Program, threshold: f64, policy: AssistPolicy) -> Program {
    eliminate_redundant_markers(&detect_and_mark(program, threshold, policy))
}

/// Produces the *selective* binary: software-optimized code plus ON/OFF
/// markers around the hardware regions (the paper's rule,
/// [`AssistPolicy::IrregularRegions`]).
pub fn selective(program: &Program, cfg: &OptConfig) -> Program {
    insert_markers(&optimize(program, cfg), cfg.threshold, AssistPolicy::IrregularRegions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{AffineExpr, Interp, OpKind, ProgramBuilder, Subscript};

    /// Mixed program: a big regular reduction nest plus an irregular gather
    /// loop.
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new("mixed");
        let u = b.array("U", &[128], 8);
        let v = b.array("V", &[128, 128], 8);
        let w = b.array("W", &[128, 128], 8);
        let x = b.array("X", &[4096], 8);
        let ip = b.data_array("IP", (0..4096).map(|i| (i * 7) % 4096).collect(), 4);
        // Regular: the paper's Section 3.2 example,
        // for i { for j { U[j] += V[i][j] * W[j][i] } }: interchange puts i
        // innermost, then U[j] becomes innermost-invariant and is promoted.
        b.nest2(128, 128, |b, i, j| {
            b.stmt(|s| {
                s.read(u, vec![Subscript::var(j)])
                    .read(v, vec![Subscript::var(i), Subscript::var(j)])
                    .read(w, vec![Subscript::var(j), Subscript::var(i)])
                    .fp(2)
                    .write(u, vec![Subscript::var(j)]);
            });
        });
        // Irregular: gathers.
        b.loop_(4096, |b, k| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(k), 0).int(1);
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn optimize_keeps_program_valid_and_semantics_sized() {
        let p = mixed_program();
        let o = optimize(&p, &OptConfig::default());
        assert!(o.validate().is_ok());
        // The irregular loop is untouched: same gather count.
        let gathers =
            |p: &Program| Interp::new(p).filter(|o| matches!(o.kind, OpKind::Load(_))).count();
        // FP work unchanged (reductions all performed).
        let fp = |p: &Program| Interp::new(p).filter(|o| o.kind == OpKind::FpAlu).count();
        assert_eq!(fp(&p), fp(&o));
        let _ = gathers(&o); // loads may shrink via scalar replacement
    }

    #[test]
    fn optimize_reduces_memory_traffic() {
        let p = mixed_program();
        let o = optimize(&p, &OptConfig::default());
        let mem_ops = |p: &Program| Interp::new(p).filter(|op| op.kind.is_mem()).count();
        assert!(mem_ops(&o) < mem_ops(&p), "optimized {} >= base {}", mem_ops(&o), mem_ops(&p));
    }

    #[test]
    fn selective_adds_markers_only_around_hardware() {
        let p = mixed_program();
        let s = selective(&p, &OptConfig::default());
        assert!(s.validate().is_ok());
        // One ON before the gather loop; the leading OFF (initial state) is
        // eliminated.
        assert_eq!(s.marker_count(), 1);
        let kinds: Vec<_> = Interp::new(&s)
            .filter(|o| matches!(o.kind, OpKind::AssistOn | OpKind::AssistOff))
            .map(|o| o.kind)
            .collect();
        assert_eq!(kinds, vec![OpKind::AssistOn]);
    }

    #[test]
    fn markers_alternate_in_alternating_program() {
        let mut b = ProgramBuilder::new("alt");
        let a = b.array("A", &[256], 8);
        let x = b.array("X", &[4096], 8);
        let ip = b.data_array("IP", (0..4096).rev().collect(), 4);
        for _ in 0..2 {
            b.loop_(256, |b, i| {
                b.stmt(|s| {
                    s.read(a, vec![Subscript::var(i)]).fp(1);
                });
            });
            b.loop_(512, |b, k| {
                b.stmt(|s| {
                    s.gather(x, ip, AffineExpr::var(k), 0);
                });
            });
        }
        let p = b.finish().unwrap();
        let s = insert_markers(&p, 0.5, AssistPolicy::IrregularRegions);
        // ON (hw1) OFF (sw2) ON (hw2); leading OFF eliminated.
        assert_eq!(s.marker_count(), 3);
    }

    #[test]
    fn disabled_passes_do_nothing() {
        let p = mixed_program();
        let cfg = OptConfig {
            interchange: false,
            tile: false,
            layout: false,
            scalar_replacement: false,
            pad: false,
            fusion: false,
            ..OptConfig::default()
        };
        let o = optimize(&p, &cfg);
        assert_eq!(p, o);
    }

    #[test]
    fn apply_counts_transformed_loops() {
        let mut p = mixed_program();
        // Interchange first (puts i innermost), then promotion applies to
        // exactly the regular nest.
        let ni = apply_to_software_loops(&mut p, 0.5, &mut |arrays, _ids, l| {
            crate::interchange::interchange_nest(arrays, l, 32)
        });
        assert_eq!(ni, 1);
        let n =
            apply_to_software_loops(&mut p, 0.5, &mut |arrays, _ids, l| scalar_replace(arrays, l));
        assert_eq!(n, 1); // only the regular nest
    }
}
