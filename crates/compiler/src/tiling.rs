//! Iteration-space tiling.
//!
//! A fully permutable perfect nest whose data footprint exceeds the cache
//! and whose body carries outer-loop temporal reuse is strip-mined and
//! permuted: every tiled loop `for v in 0..N` becomes a controller
//! `for u in 0..ceil(N/T)` plus an intra-tile loop of `min(T, N-u*T)`
//! iterations, with `v := T*u + v'` substituted into all subscripts. The
//! controllers run outermost, turning outer reuse into in-cache reuse.

use crate::depend::{band_fully_permutable, nest_dependences};
use crate::nest::{NestLevel, PerfectNest};
use crate::reuse::{has_outer_temporal_reuse, nest_footprint};
use selcache_ir::{AffineExpr, ArrayDecl, Item, Loop, LoopId, RefPattern, Stmt, Trip, VarId};

/// Fresh-id allocator handed to transformations that create loops/vars.
#[derive(Debug)]
pub struct IdAlloc<'a> {
    /// Program variable counter.
    pub num_vars: &'a mut u32,
    /// Program loop counter.
    pub num_loops: &'a mut u32,
}

impl IdAlloc<'_> {
    fn fresh_var(&mut self) -> VarId {
        *self.num_vars += 1;
        VarId(*self.num_vars - 1)
    }

    fn fresh_loop(&mut self) -> LoopId {
        *self.num_loops += 1;
        LoopId(*self.num_loops - 1)
    }
}

/// Tile size in iterations.
pub const TILE_SIZE: i64 = 32;

/// Only loops with at least this many iterations are tiled.
pub const MIN_TRIP: i64 = 64;

fn substitute_stmt(stmt: &Stmt, v: VarId, repl: &AffineExpr) -> Stmt {
    let mut s = stmt.clone();
    for r in &mut s.refs {
        match &mut r.pattern {
            RefPattern::Array { subscripts, .. } => {
                for sub in subscripts.iter_mut() {
                    *sub = sub.substitute_affine(v, repl);
                }
            }
            RefPattern::StructField { index, .. } => {
                *index = index.substitute(v, repl);
            }
            RefPattern::Scalar(_) | RefPattern::Pointer { .. } => {}
        }
    }
    s
}

fn substitute_items(items: &[Item], v: VarId, repl: &AffineExpr) -> Vec<Item> {
    items
        .iter()
        .map(|item| match item {
            Item::Block(stmts) => {
                Item::Block(stmts.iter().map(|s| substitute_stmt(s, v, repl)).collect())
            }
            Item::Marker(m) => Item::Marker(*m),
            Item::Loop(l) => Item::Loop(Loop {
                id: l.id,
                var: l.var,
                trip: l.trip,
                body: substitute_items(&l.body, v, repl),
            }),
        })
        .collect()
}

/// Attempts to tile the perfect nest rooted at `l` for a cache of
/// `cache_bytes`. Returns the transformed loop, or `None` when tiling does
/// not apply (imperfect or shallow nest, dynamic trips, no outer reuse,
/// footprint fits in cache, dependences prevent it, or no loop is long
/// enough to tile).
pub fn tile_nest(
    ids: &mut IdAlloc<'_>,
    arrays: &[ArrayDecl],
    l: &Loop,
    cache_bytes: u64,
) -> Option<Loop> {
    let nest = PerfectNest::extract(l);
    if nest.levels.len() < 2 || !nest.is_flat() || !nest.all_const_trips() {
        return None;
    }
    let stmts = nest.stmts();
    if !has_outer_temporal_reuse(arrays, &nest.vars(), &stmts) {
        return None;
    }
    if nest_footprint(arrays, &stmts) <= cache_bytes {
        return None;
    }
    let deps = nest_dependences(&nest.vars(), &stmts);
    if !band_fully_permutable(&deps, 0..nest.levels.len()) {
        return None;
    }

    // Strip-mine every sufficiently long loop.
    let mut controllers: Vec<NestLevel> = Vec::new();
    let mut inner: Vec<NestLevel> = Vec::new();
    let mut body = nest.body.clone();
    for lv in &nest.levels {
        let n = match lv.trip {
            Trip::Const(n) => n,
            Trip::TileTail { .. } => unreachable!("checked all_const_trips"),
        };
        if n >= MIN_TRIP {
            let u = ids.fresh_var();
            let cid = ids.fresh_loop();
            controllers.push(NestLevel {
                id: cid,
                var: u,
                trip: Trip::Const((n + TILE_SIZE - 1) / TILE_SIZE),
            });
            inner.push(NestLevel {
                id: lv.id,
                var: lv.var,
                trip: Trip::TileTail { total: n, tile: TILE_SIZE, outer: u },
            });
            // v := tile*u + v
            let repl = AffineExpr::from_terms([(u, TILE_SIZE), (lv.var, 1)], 0);
            body = substitute_items(&body, lv.var, &repl);
        } else {
            inner.push(*lv);
        }
    }
    if controllers.is_empty() {
        return None;
    }
    controllers.extend(inner);
    Some(PerfectNest { levels: controllers, body }.rebuild())
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{trace_len, Interp, OpKind, Program, ProgramBuilder, Subscript};

    /// for i in 0..N { for j in 0..N { C[i] += A[i][j]*B[j][i]... } } with a
    /// B access pattern that carries outer reuse (B row reused across i).
    fn big_nest(n: i64) -> Program {
        let mut b = ProgramBuilder::new("mm");
        let a = b.array("A", &[n, n], 8);
        let c = b.array("C", &[n], 8);
        b.nest2(n, n, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)])
                    .read(c, vec![Subscript::var(j)]) // reused across i
                    .fp(2)
                    .write(c, vec![Subscript::var(j)]);
            });
        });
        b.finish().unwrap()
    }

    fn tile(p: &mut Program, cache_bytes: u64) -> Option<Loop> {
        let l = match &p.items[0] {
            Item::Loop(l) => l.clone(),
            _ => panic!("expected loop"),
        };
        let mut nv = p.num_vars;
        let mut nl = p.num_loops;
        let out = {
            let mut ids = IdAlloc { num_vars: &mut nv, num_loops: &mut nl };
            tile_nest(&mut ids, &p.arrays, &l, cache_bytes)
        };
        p.num_vars = nv;
        p.num_loops = nl;
        out
    }

    #[test]
    fn tiling_preserves_iteration_count_and_addresses() {
        let mut p = big_nest(100);
        let base_ops: Vec<_> = Interp::new(&p).filter_map(|o| o.kind.addr()).collect();
        let tiled = tile(&mut p, 1024).expect("tiles");
        p.items[0] = Item::Loop(tiled);
        assert!(p.validate().is_ok());
        let mut tiled_addrs: Vec<_> = Interp::new(&p).filter_map(|o| o.kind.addr()).collect();
        let mut base_sorted = base_ops.clone();
        base_sorted.sort();
        tiled_addrs.sort();
        // Same multiset of data addresses, different order.
        assert_eq!(base_sorted, tiled_addrs);
    }

    #[test]
    fn tiling_changes_access_order() {
        let mut p = big_nest(100);
        let base: Vec<_> = Interp::new(&p)
            .filter_map(|o| match o.kind {
                OpKind::Load(a) => Some(a),
                _ => None,
            })
            .take(200)
            .collect();
        let tiled = tile(&mut p, 1024).expect("tiles");
        p.items[0] = Item::Loop(tiled);
        let after: Vec<_> = Interp::new(&p)
            .filter_map(|o| match o.kind {
                OpKind::Load(a) => Some(a),
                _ => None,
            })
            .take(200)
            .collect();
        assert_ne!(base, after);
    }

    #[test]
    fn small_footprint_not_tiled() {
        let mut p = big_nest(100);
        assert!(tile(&mut p, 1 << 30).is_none());
    }

    #[test]
    fn short_loops_not_tiled() {
        // Footprint and reuse call for tiling, but no loop reaches MIN_TRIP.
        let mut p = big_nest(MIN_TRIP - 1);
        assert!(tile(&mut p, 1024).is_none());
    }

    #[test]
    fn no_outer_reuse_not_tiled() {
        let mut b = ProgramBuilder::new("stream");
        let a = b.array("A", &[256, 256], 8);
        b.nest2(256, 256, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)]).fp(1);
            });
        });
        let mut p = b.finish().unwrap();
        assert!(tile(&mut p, 32 * 1024).is_none());
    }

    #[test]
    fn tile_structure_has_controllers() {
        let mut p = big_nest(128);
        let tiled = tile(&mut p, 1024).expect("tiles");
        let nest = PerfectNest::extract(&tiled);
        assert_eq!(nest.levels.len(), 4); // 2 controllers + 2 tile loops
        assert!(matches!(nest.levels[0].trip, Trip::Const(4)));
        assert!(matches!(nest.levels[2].trip, Trip::TileTail { tile: 32, .. }));
    }

    #[test]
    fn non_divisible_extent_keeps_total_trips() {
        // 100 iterations, tile 32 -> 4 tiles, last of 4.
        let mut p = big_nest(100);
        let tiled = tile(&mut p, 1024).expect("tiles");
        p.items[0] = Item::Loop(tiled);
        // fp ops count = iterations * 2.
        let fp = Interp::new(&p).filter(|o| o.kind == OpKind::FpAlu).count();
        assert_eq!(fp, 100 * 100 * 2);
        let _ = trace_len(&p);
    }
}
