//! Loop fusion.
//!
//! Adjacent software-classified nests with identical trip structure are
//! merged when legal, turning producer→consumer array traffic into
//! same-iteration reuse (the integrated loop/data framework of the paper's
//! reference \[5\] includes fusion among its enabling transformations).
//!
//! Legality: all of the first nest runs before any of the second in the
//! original program, so after fusion every dependence from nest 1 to
//! nest 2 must flow forward — for each pair of references to the same array
//! (at least one a write), every solution of `subs₁(i⃗₁) = subs₂(i⃗₂)` must
//! satisfy `i⃗₁ ≤ i⃗₂` (component-wise, conservatively). Anything the
//! analysis cannot prove is rejected.

use crate::classify::Preference;
use crate::nest::PerfectNest;
use crate::region::{analyze_loop, RegionClass};
use selcache_ir::{Item, Loop, Program, Ref, RefPattern, Stmt, Subscript, VarId};

/// Result statistics of a fusion pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Pairs of nests merged.
    pub fused: usize,
    /// Candidate pairs rejected for legality.
    pub rejected: usize,
}

fn rename_stmt(stmt: &Stmt, from: &[VarId], to: &[VarId]) -> Stmt {
    let mut s = stmt.clone();
    for r in &mut s.refs {
        match &mut r.pattern {
            RefPattern::Array { subscripts, .. } => {
                for sub in subscripts.iter_mut() {
                    for (f, t) in from.iter().zip(to) {
                        *sub = sub.rename(*f, *t);
                    }
                }
            }
            RefPattern::StructField { index, .. } => {
                for (f, t) in from.iter().zip(to) {
                    *index = index.rename(*f, *t);
                }
            }
            RefPattern::Scalar(_) | RefPattern::Pointer { .. } => {}
        }
    }
    s
}

fn rename_items(items: &[Item], from: &[VarId], to: &[VarId]) -> Vec<Item> {
    items
        .iter()
        .map(|item| match item {
            Item::Block(stmts) => {
                Item::Block(stmts.iter().map(|s| rename_stmt(s, from, to)).collect())
            }
            Item::Marker(m) => Item::Marker(*m),
            Item::Loop(l) => Item::Loop(Loop {
                id: l.id,
                var: l.var,
                trip: l.trip,
                body: rename_items(&l.body, from, to),
            }),
        })
        .collect()
}

/// Per-dimension source-minus-sink iteration offset, if determinable.
fn dim_offset(vars: &[VarId], s1: &Subscript, s2: &Subscript) -> Option<Vec<Option<i64>>> {
    let (Subscript::Affine(e1), Subscript::Affine(e2)) = (s1, s2) else {
        return None; // non-affine: cannot reason
    };
    // Require single-variable or constant expressions with matching
    // coefficient structure; anything else is unprovable here.
    let mut offsets = vec![None; vars.len()];
    let t1 = e1.terms();
    let t2 = e2.terms();
    if t1.len() != t2.len() || t1.len() > 1 {
        return (t1.is_empty() && t2.is_empty() && e1.constant_term() == e2.constant_term())
            .then(|| offsets.clone())
            .or(if t1.is_empty() && t2.is_empty() {
                // Distinct constants: no dependence at all — signalled by the
                // caller treating None as "unknown", so return a sentinel of
                // all-None with a marker... use empty vec to mean "no overlap".
                Some(Vec::new())
            } else {
                None
            });
    }
    if t1.is_empty() {
        return if e1.constant_term() == e2.constant_term() {
            Some(offsets)
        } else {
            Some(Vec::new()) // provably disjoint
        };
    }
    let (v1, c1) = t1[0];
    let (v2, c2) = t2[0];
    if v1 != v2 || c1 != c2 {
        return None;
    }
    let k = vars.iter().position(|&v| v == v1)?;
    let delta = e2.constant_term() - e1.constant_term();
    if delta % c1 != 0 {
        return Some(Vec::new()); // never equal
    }
    // subs1(i1) = subs2(i2)  =>  c·i1 + k1 = c·i2 + k2  =>  i1 - i2 = delta/c.
    offsets[k] = Some(delta / c1);
    Some(offsets)
}

/// True if every dependence from a ref of nest 1 to a ref of nest 2 flows
/// forward after fusion (`i1 <= i2` provable, or provably no overlap).
fn pair_fusable(vars: &[VarId], r1: &Ref, r2: &Ref) -> bool {
    if !r1.write && !r2.write {
        return true;
    }
    let (a1, s1) = match &r1.pattern {
        RefPattern::Array { array, subscripts } => (*array, subscripts),
        RefPattern::Scalar(_) => return true, // scalars are registers
        _ => return false,                    // pointer/struct: cannot prove
    };
    let (a2, s2) = match &r2.pattern {
        RefPattern::Array { array, subscripts } => (*array, subscripts),
        RefPattern::Scalar(_) => return true,
        _ => return false,
    };
    if a1 != a2 {
        return true;
    }
    // Combine per-dimension constraints; all determined offsets must be <= 0.
    let mut combined: Vec<Option<i64>> = vec![None; vars.len()];
    for (d1, d2) in s1.iter().zip(s2.iter()) {
        match dim_offset(vars, d1, d2) {
            None => return false,                   // unprovable
            Some(v) if v.is_empty() => return true, // provably disjoint
            Some(offsets) => {
                for (c, o) in combined.iter_mut().zip(offsets) {
                    match (&c, o) {
                        (_, None) => {}
                        (None, Some(x)) => *c = Some(x),
                        (Some(prev), Some(x)) if *prev != x => return true, // inconsistent: no solution
                        _ => {}
                    }
                }
            }
        }
    }
    // Vars with no constraint can take any offset — including positive ones
    // — *if* the array subscript actually uses them; unconstrained here
    // means neither subscript uses the var, so the offset is irrelevant.
    combined.into_iter().flatten().all(|o| o <= 0)
}

fn nests_fusable(n1: &PerfectNest, n2: &PerfectNest) -> bool {
    if n1.levels.len() != n2.levels.len() || !n1.is_flat() || !n2.is_flat() {
        return false;
    }
    if !n1.levels.iter().zip(&n2.levels).all(|(a, b)| a.trip == b.trip) {
        return false;
    }
    let vars = n1.vars();
    let from = n2.vars();
    let stmts2: Vec<Stmt> = n2.stmts().iter().map(|s| rename_stmt(s, &from, &vars)).collect();
    for s1 in n1.stmts() {
        for r1 in &s1.refs {
            for s2 in &stmts2 {
                for r2 in &s2.refs {
                    if !pair_fusable(&vars, r1, r2) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

fn fuse_pair(first: &Loop, second: &Loop) -> Loop {
    let n1 = PerfectNest::extract(first);
    let n2 = PerfectNest::extract(second);
    let body2 = rename_items(&n2.body, &n2.vars(), &n1.vars());
    let mut body = n1.body.clone();
    body.extend(body2);
    PerfectNest { levels: n1.levels, body }.rebuild()
}

fn fuse_in_items(items: &mut Vec<Item>, threshold: f64, stats: &mut FusionStats) {
    let mut i = 0;
    while i < items.len() {
        // Recurse first.
        if let Item::Loop(l) = &mut items[i] {
            if analyze_loop(l, threshold) == RegionClass::Mixed {
                fuse_in_items(&mut l.body, threshold, stats);
            }
        }
        // Try to fuse items[i] with items[i+1].
        let fusable = match (items.get(i), items.get(i + 1)) {
            (Some(Item::Loop(a)), Some(Item::Loop(b))) => {
                let both_sw = analyze_loop(a, threshold)
                    == RegionClass::Uniform(Preference::Software)
                    && analyze_loop(b, threshold) == RegionClass::Uniform(Preference::Software);
                if both_sw {
                    let (na, nb) = (PerfectNest::extract(a), PerfectNest::extract(b));
                    if nests_fusable(&na, &nb) {
                        true
                    } else {
                        stats.rejected += 1;
                        false
                    }
                } else {
                    false
                }
            }
            _ => false,
        };
        if fusable {
            let (Item::Loop(a), Item::Loop(b)) = (items[i].clone(), items[i + 1].clone()) else {
                unreachable!("checked above");
            };
            items[i] = Item::Loop(fuse_pair(&a, &b));
            items.remove(i + 1);
            stats.fused += 1;
            // Retry the same position: the fused loop may merge with the
            // next one too.
        } else {
            i += 1;
        }
    }
}

/// Fuses adjacent fusable software nests throughout the program.
pub fn fuse_loops(program: &mut Program, threshold: f64) -> FusionStats {
    let mut stats = FusionStats::default();
    let mut items = std::mem::take(&mut program.items);
    fuse_in_items(&mut items, threshold, &mut stats);
    program.items = items;
    debug_assert!(program.validate().is_ok(), "fusion produced invalid program");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{trace_len, AffineExpr, Interp, OpKind, ProgramBuilder};

    fn sub_at(v: VarId) -> Subscript {
        Subscript::var(v)
    }

    /// for i { A[i] = B[i] } ; for i { C[i] = A[i] }  — fusable (distance 0).
    fn producer_consumer(offset: i64) -> Program {
        let mut b = ProgramBuilder::new("pc");
        let a = b.array("A", &[64], 8);
        let bb = b.array("B", &[64], 8);
        let c = b.array("C", &[64], 8);
        b.loop_(64, |b, i| {
            b.stmt(|s| {
                s.read(bb, vec![sub_at(i)]).fp(1).write(a, vec![sub_at(i)]);
            });
        });
        b.loop_(64, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::linear(i, 1, offset)]).fp(1).write(c, vec![sub_at(i)]);
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn same_iteration_producer_consumer_fuses() {
        let mut p = producer_consumer(0);
        let stats = fuse_loops(&mut p, 0.5);
        assert_eq!(stats.fused, 1);
        assert_eq!(p.loop_count(), 1);
        // Work preserved.
        let fp = Interp::new(&p).filter(|o| o.kind == OpKind::FpAlu).count();
        assert_eq!(fp, 128);
    }

    #[test]
    fn backward_offset_fuses() {
        // Consumer reads A[i-1]: produced in an earlier iteration — legal.
        let mut p = producer_consumer(-1);
        let stats = fuse_loops(&mut p, 0.5);
        assert_eq!(stats.fused, 1);
    }

    #[test]
    fn forward_offset_rejected() {
        // Consumer reads A[i+1]: produced in a *later* iteration — fusing
        // would read a stale value.
        let mut p = producer_consumer(1);
        let stats = fuse_loops(&mut p, 0.5);
        assert_eq!(stats.fused, 0);
        assert_eq!(stats.rejected, 1);
        assert_eq!(p.loop_count(), 2);
    }

    #[test]
    fn different_trips_not_fused() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[64], 8);
        b.loop_(64, |b, i| {
            b.stmt(|s| {
                s.write(a, vec![sub_at(i)]);
            });
        });
        b.loop_(32, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![sub_at(i)]);
            });
        });
        let mut p = b.finish().unwrap();
        assert_eq!(fuse_loops(&mut p, 0.5).fused, 0);
    }

    #[test]
    fn chain_of_three_fuses_fully() {
        let mut b = ProgramBuilder::new("t");
        let arrays: Vec<_> = (0..4).map(|k| b.array(format!("A{k}"), &[64], 8)).collect();
        for w in arrays.windows(2) {
            let (src, dst) = (w[0], w[1]);
            b.loop_(64, |b, i| {
                b.stmt(|s| {
                    s.read(src, vec![sub_at(i)]).fp(1).write(dst, vec![sub_at(i)]);
                });
            });
        }
        let mut p = b.finish().unwrap();
        let before = trace_len(&p);
        let stats = fuse_loops(&mut p, 0.5);
        assert_eq!(stats.fused, 2);
        assert_eq!(p.loop_count(), 1);
        // Fewer latch instructions, same real work.
        assert!(trace_len(&p) < before);
    }

    #[test]
    fn two_deep_nests_fuse() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[16, 16], 8);
        let c = b.array("C", &[16, 16], 8);
        b.nest2(16, 16, |b, i, j| {
            b.stmt(|s| {
                s.fp(1).write(a, vec![sub_at(i), sub_at(j)]);
            });
        });
        b.nest2(16, 16, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![sub_at(i), sub_at(j)]).fp(1).write(c, vec![sub_at(i), sub_at(j)]);
            });
        });
        let mut p = b.finish().unwrap();
        let stats = fuse_loops(&mut p, 0.5);
        assert_eq!(stats.fused, 1);
        assert!(p.validate().is_ok());
        // Reuse is now same-iteration: A's value is still L1-resident.
        let fp = Interp::new(&p).filter(|o| o.kind == OpKind::FpAlu).count();
        assert_eq!(fp, 512);
    }

    #[test]
    fn irregular_neighbors_not_fused() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[512], 8);
        let x = b.array("X", &[512], 8);
        let ip = b.data_array("IP", (0..512).rev().collect(), 4);
        b.loop_(512, |b, i| {
            b.stmt(|s| {
                s.write(a, vec![sub_at(i)]);
            });
        });
        b.loop_(512, |b, i| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(i), 0);
            });
        });
        let mut p = b.finish().unwrap();
        // Second loop is hardware-classified: never fused.
        assert_eq!(fuse_loops(&mut p, 0.5).fused, 0);
    }
}
