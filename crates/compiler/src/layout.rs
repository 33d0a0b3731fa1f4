//! Data-layout selection (after O'Boyle & Knijnenburg and the framework of
//! reference \[5\] in the paper).
//!
//! For each multi-dimensional array we choose the storage order that gives
//! the innermost loops unit stride: every affine reference in a software
//! region votes (weighted by its nest's iteration volume) for the source
//! dimension it traverses with the innermost loop variable; the winning
//! dimension is stored last.

use crate::classify::Preference;
use crate::nest::PerfectNest;
use crate::region::{analyze_loop, RegionClass};
use selcache_ir::{Item, Layout, Program, RefPattern};

/// One array's accumulated votes: weight per source dimension.
type Votes = Vec<f64>;

fn collect_votes(items: &[Item], threshold: f64, votes: &mut Vec<Votes>) {
    for item in items {
        match item {
            Item::Loop(l) => match analyze_loop(l, threshold) {
                RegionClass::Uniform(Preference::Software) => {
                    let nest = PerfectNest::extract(l);
                    let inner = nest.levels.last().expect("nest has level").var;
                    let volume = nest.volume();
                    for s in nest.stmts() {
                        for r in &s.refs {
                            let RefPattern::Array { array, subscripts } = &r.pattern else {
                                continue;
                            };
                            if subscripts.len() < 2 {
                                continue;
                            }
                            // The dimension traversed by the innermost var
                            // with the smallest non-zero |coeff| wants to be
                            // stored last.
                            let mut best: Option<(usize, i64)> = None;
                            for (d, sub) in subscripts.iter().enumerate() {
                                let Some(e) = sub.as_affine() else { continue };
                                let c = e.coeff(inner).abs();
                                if c != 0 && best.is_none_or(|(_, bc)| c < bc) {
                                    best = Some((d, c));
                                }
                            }
                            if let Some((d, _)) = best {
                                votes[array.index()][d] += volume;
                            }
                        }
                    }
                    // Recurse into the innermost body in case of inner
                    // (imperfect) nests.
                    if !nest.is_flat() {
                        collect_votes(&nest.body, threshold, votes);
                    }
                }
                RegionClass::Mixed => collect_votes(&l.body, threshold, votes),
                RegionClass::Uniform(Preference::Hardware) => {}
            },
            Item::Block(_) | Item::Marker(_) => {}
        }
    }
}

/// Chooses and applies per-array layouts; returns how many arrays changed.
pub fn select_layouts(program: &mut Program, threshold: f64) -> usize {
    let mut votes: Vec<Votes> = program.arrays.iter().map(|a| vec![0.0; a.dims.len()]).collect();
    let items = std::mem::take(&mut program.items);
    collect_votes(&items, threshold, &mut votes);
    program.items = items;

    let mut changed = 0;
    for (a, v) in program.arrays.iter_mut().zip(&votes) {
        if a.dims.len() < 2 || v.iter().all(|&x| x == 0.0) {
            continue;
        }
        let (win, _) = v
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("non-empty dims");
        // Storage order: all dims in source order except the winner, which
        // goes last (perm[k] = storage position of source dim k).
        let nd = a.dims.len();
        let mut perm = vec![0usize; nd];
        let mut pos = 0;
        for (k, p) in perm.iter_mut().enumerate() {
            if k != win {
                *p = pos;
                pos += 1;
            }
        }
        perm[win] = nd - 1;
        let new_layout = if perm.iter().enumerate().all(|(k, &p)| k == p) {
            Layout::RowMajor
        } else {
            Layout::Permuted(perm)
        };
        if a.layout != new_layout {
            a.layout = new_layout;
            changed += 1;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{ProgramBuilder, Subscript};

    #[test]
    fn column_accessed_array_becomes_col_major() {
        let mut b = ProgramBuilder::new("t");
        let w = b.array("W", &[64, 64], 8);
        // for i { for j { ... W[j][i] ... } }: innermost j traverses dim 0.
        b.nest2(64, 64, |b, _i, j| {
            b.stmt(|s| {
                s.read(w, vec![Subscript::var(j), Subscript::constant(0)]).fp(1);
            });
        });
        let mut p = b.finish().unwrap();
        // dim 0 uses j -> wants dim 0 last -> Permuted([1, 0]) == col-major.
        let changed = select_layouts(&mut p, 0.5);
        assert_eq!(changed, 1);
        assert_eq!(p.arrays[0].layout, Layout::Permuted(vec![1, 0]));
        // Unit stride achieved.
        assert_eq!(p.arrays[0].layout.order(2), vec![1, 0]);
    }

    #[test]
    fn row_accessed_array_stays_row_major() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[64, 64], 8);
        b.nest2(64, 64, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)]).fp(1);
            });
        });
        let mut p = b.finish().unwrap();
        assert_eq!(select_layouts(&mut p, 0.5), 0);
        assert_eq!(p.arrays[0].layout, Layout::RowMajor);
    }

    #[test]
    fn conflicting_nests_resolved_by_volume() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[64, 64], 8);
        // Small nest accesses row-wise, big nest column-wise: column wins.
        b.nest2(8, 8, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)]).fp(1);
            });
        });
        b.nest2(64, 64, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(j), Subscript::var(i)]).fp(1);
            });
        });
        let mut p = b.finish().unwrap();
        assert_eq!(select_layouts(&mut p, 0.5), 1);
        assert_eq!(p.arrays[0].layout, Layout::Permuted(vec![1, 0]));
    }

    #[test]
    fn hardware_regions_do_not_vote() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[64, 64], 8);
        let x = b.array("X", &[4096], 8);
        let ip = b.data_array("IP", (0..4096).rev().collect(), 4);
        // Irregular nest that happens to touch A column-wise.
        b.nest2(64, 64, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(j), Subscript::var(i)]);
                s.gather(x, ip, selcache_ir::AffineExpr::var(j), 0);
                s.gather(x, ip, selcache_ir::AffineExpr::var(i), 1);
                s.gather(x, ip, selcache_ir::AffineExpr::var(i), 2);
            });
        });
        let mut p = b.finish().unwrap();
        // Ratio 1/4 analyzable -> hardware region -> no votes -> unchanged.
        assert_eq!(select_layouts(&mut p, 0.5), 0);
        assert_eq!(p.arrays[0].layout, Layout::RowMajor);
    }

    #[test]
    fn one_dimensional_arrays_ignored() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[4096], 8);
        b.loop_(4096, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i)]);
            });
        });
        let mut p = b.finish().unwrap();
        assert_eq!(select_layouts(&mut p, 0.5), 0);
    }
}
