//! Data-dependence analysis for loop nests: distance/direction vectors and
//! transformation legality.
//!
//! For each pair of affine references to the same array with at least one
//! write, we derive a per-loop distance element: an exact integer when the
//! subscripts determine it, or *any* when they do not (multi-variable
//! subscripts, vars absent from the subscripts). Legality questions are
//! answered by enumerating sign realizations of the *any* elements, keeping
//! the analysis conservative but precise enough for the kernel shapes in the
//! benchmark suite.

use selcache_ir::{AffineExpr, Ref, RefPattern, Stmt, Subscript, VarId};

/// One distance element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Exact iteration distance.
    Exact(i64),
    /// Unknown / unconstrained distance.
    Any,
}

/// A dependence between two references, as a distance vector over the nest's
/// loop variables (outermost first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    /// Distance element per nest loop, outermost first.
    pub distance: Vec<Dist>,
}

/// Extracts the nest-variable terms of an affine subscript expression,
/// returning `(terms over nest vars, constant)`; terms on variables outside
/// the nest are folded into an "outer" marker by returning `None` (the
/// dependence is then approximated as Any for all vars).
fn nest_terms(e: &AffineExpr, nest: &[VarId]) -> Option<(Vec<(usize, i64)>, i64)> {
    let mut terms = Vec::new();
    for &(v, c) in e.terms() {
        match nest.iter().position(|&nv| nv == v) {
            Some(k) => terms.push((k, c)),
            None => return None,
        }
    }
    Some((terms, e.constant_term()))
}

/// Computes the distance vector between two references, or `None` when they
/// provably never touch the same address (no dependence).
fn pair_distance(nest: &[VarId], a: &[Subscript], b: &[Subscript]) -> Option<Vec<Dist>> {
    let mut dist = vec![Dist::Any; nest.len()];
    // Vars not appearing in any subscript stay Any (dependence at every
    // distance). Single-var dimensions pin exact distances.
    for (sa, sb) in a.iter().zip(b.iter()) {
        let (ea, eb) = match (sa, sb) {
            (Subscript::Affine(ea), Subscript::Affine(eb)) => (ea, eb),
            // Non-affine dimension: cannot reason, everything stays Any.
            _ => return Some(dist),
        };
        let (Some((ta, ca)), Some((tb, cb))) = (nest_terms(ea, nest), nest_terms(eb, nest)) else {
            return Some(dist);
        };
        if ta != tb {
            // Different coefficient structure: give up precisely but stay
            // conservative (Any).
            continue;
        }
        match ta.as_slice() {
            [] if ca != cb => {
                // Constant subscripts that differ: no dependence at all.
                return None;
            }
            [(k, c)] => {
                let delta = ca - cb;
                if delta % c != 0 {
                    return None;
                }
                let d = delta / c;
                match dist[*k] {
                    Dist::Any => dist[*k] = Dist::Exact(d),
                    Dist::Exact(prev) if prev != d => return None,
                    Dist::Exact(_) => {}
                }
            }
            // Multi-variable dimension (e.g. i+j): underdetermined; leave
            // the involved vars Any.
            _ => {}
        }
    }
    Some(dist)
}

fn affine_subscripts(r: &Ref) -> Option<(selcache_ir::ArrayId, &[Subscript])> {
    match &r.pattern {
        RefPattern::Array { array, subscripts } => Some((*array, subscripts)),
        _ => None,
    }
}

/// Collects the dependences among all references in the statements of a
/// nest body. Any reference the analysis cannot see through (non-affine,
/// pointer, struct, scalar writes aliasing nothing) contributes a
/// fully-unknown dependence when it shares an array with another reference.
pub fn nest_dependences(nest: &[VarId], stmts: &[&Stmt]) -> Vec<Dependence> {
    let refs: Vec<&Ref> = stmts.iter().flat_map(|s| s.refs.iter()).collect();
    let mut deps = Vec::new();
    for (i, r1) in refs.iter().enumerate() {
        for r2 in &refs[i..] {
            if !r1.write && !r2.write {
                continue;
            }
            let (a1, s1) = match affine_subscripts(r1) {
                Some(x) => x,
                None => continue,
            };
            let (a2, s2) = match affine_subscripts(r2) {
                Some(x) => x,
                None => continue,
            };
            if a1 != a2 {
                continue;
            }
            if let Some(d) = pair_distance(nest, s1, s2) {
                deps.push(Dependence { distance: d });
            }
        }
    }
    deps
}

/// Enumerates the sign realizations of a distance vector: each element
/// becomes -1, 0, or +1. `Exact` elements have a fixed sign; `Any` elements
/// range over all three.
fn sign_realizations(d: &[Dist]) -> Vec<Vec<i8>> {
    let mut out: Vec<Vec<i8>> = vec![Vec::new()];
    for e in d {
        let choices: &[i8] = match e {
            Dist::Exact(k) => match k.cmp(&0) {
                std::cmp::Ordering::Less => &[-1],
                std::cmp::Ordering::Equal => &[0],
                std::cmp::Ordering::Greater => &[1],
            },
            Dist::Any => &[-1, 0, 1],
        };
        let mut next = Vec::with_capacity(out.len() * choices.len());
        for prefix in &out {
            for &c in choices {
                let mut v = prefix.clone();
                v.push(c);
                next.push(v);
            }
        }
        out = next;
    }
    out
}

fn lex_positive_or_zero(v: &[i8]) -> bool {
    for &x in v {
        if x > 0 {
            return true;
        }
        if x < 0 {
            return false;
        }
    }
    true // all zero: loop-independent
}

/// Forward (lex-positive) realizations of a distance vector. A computed
/// vector that is lex-negative represents the dependence flowing the other
/// way, so its negation is included; the all-zero vector stands for the
/// loop-independent dependence.
fn forward_realizations(d: &[Dist]) -> Vec<Vec<i8>> {
    let mut out = Vec::new();
    for signs in sign_realizations(d) {
        if lex_positive_or_zero(&signs) {
            out.push(signs.clone());
        }
        let neg: Vec<i8> = signs.iter().map(|&x| -x).collect();
        if neg != signs && lex_positive_or_zero(&neg) {
            out.push(neg);
        }
    }
    out
}

/// True if permuting the nest loops by `perm` (new order, outermost first,
/// as indices into the original order) preserves every dependence.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..n` where `n` is the vector
/// length of the dependences.
pub fn permutation_legal(deps: &[Dependence], perm: &[usize]) -> bool {
    for dep in deps {
        assert_eq!(perm.len(), dep.distance.len(), "perm arity mismatch");
        for signs in forward_realizations(&dep.distance) {
            let permuted: Vec<i8> = perm.iter().map(|&k| signs[k]).collect();
            if !lex_positive_or_zero(&permuted) {
                return false;
            }
        }
    }
    true
}

/// True if every dependence has all components non-negative in the given
/// band of loop levels — the band is *fully permutable* and can be tiled.
pub fn band_fully_permutable(deps: &[Dependence], band: std::ops::Range<usize>) -> bool {
    for dep in deps {
        for signs in forward_realizations(&dep.distance) {
            if signs[band.clone()].iter().any(|&s| s < 0) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::Ref;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn aref(array: u32, subs: Vec<Subscript>, write: bool) -> Ref {
        let pattern = RefPattern::Array { array: selcache_ir::ArrayId(array), subscripts: subs };
        if write {
            Ref::store(pattern)
        } else {
            Ref::load(pattern)
        }
    }

    fn stmt(refs: Vec<Ref>) -> Stmt {
        Stmt::new(refs, 0, 0)
    }

    #[test]
    fn uniform_distance_detected() {
        // A[i][j] = A[i-1][j]  ->  distance (1, 0)
        let s = stmt(vec![
            aref(0, vec![Subscript::linear(v(0), 1, -1), Subscript::var(v(1))], false),
            aref(0, vec![Subscript::var(v(0)), Subscript::var(v(1))], true),
        ]);
        let deps = nest_dependences(&[v(0), v(1)], &[&s]);
        assert!(deps.iter().any(|d| d.distance == vec![Dist::Exact(1), Dist::Exact(0)]
            || d.distance == vec![Dist::Exact(-1), Dist::Exact(0)]));
    }

    #[test]
    fn read_read_pairs_ignored() {
        let s = stmt(vec![
            aref(0, vec![Subscript::var(v(0))], false),
            aref(0, vec![Subscript::linear(v(0), 1, -1)], false),
        ]);
        let deps = nest_dependences(&[v(0)], &[&s]);
        assert!(deps.is_empty());
    }

    #[test]
    fn disjoint_constants_no_dependence() {
        // A[0][j] write and A[1][j] read never alias; the only dependence is
        // the write's own output dependence across i iterations.
        let s = stmt(vec![
            aref(0, vec![Subscript::constant(0), Subscript::var(v(1))], true),
            aref(0, vec![Subscript::constant(1), Subscript::var(v(1))], false),
        ]);
        let deps = nest_dependences(&[v(0), v(1)], &[&s]);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].distance, vec![Dist::Any, Dist::Exact(0)]);
    }

    #[test]
    fn interchange_legal_for_zero_and_positive() {
        // distance (1, 0): interchange -> (0, 1), still lex positive.
        let deps = vec![Dependence { distance: vec![Dist::Exact(1), Dist::Exact(0)] }];
        assert!(permutation_legal(&deps, &[1, 0]));
    }

    #[test]
    fn interchange_illegal_for_crossing_dependence() {
        // distance (1, -1): interchange -> (-1, 1), lex negative -> illegal.
        let deps = vec![Dependence { distance: vec![Dist::Exact(1), Dist::Exact(-1)] }];
        assert!(!permutation_legal(&deps, &[1, 0]));
    }

    #[test]
    fn any_component_blocks_when_it_could_cross() {
        // (1, any): realization (1, -1) -> interchanged (-1, 1) illegal.
        let deps = vec![Dependence { distance: vec![Dist::Exact(1), Dist::Any] }];
        assert!(!permutation_legal(&deps, &[1, 0]));
        // But (0, any) is fine: realizations (0,1),(0,0) forward; permuted
        // (1,0),(0,0) still forward; (0,-1) is backward, not a dependence.
        let deps = vec![Dependence { distance: vec![Dist::Exact(0), Dist::Any] }];
        assert!(permutation_legal(&deps, &[1, 0]));
    }

    #[test]
    fn identity_permutation_always_legal() {
        let deps = vec![
            Dependence { distance: vec![Dist::Exact(1), Dist::Any] },
            Dependence { distance: vec![Dist::Any, Dist::Any] },
        ];
        assert!(permutation_legal(&deps, &[0, 1]));
    }

    #[test]
    fn band_permutability() {
        let deps = vec![Dependence { distance: vec![Dist::Exact(1), Dist::Exact(0)] }];
        assert!(band_fully_permutable(&deps, 0..2));
        let deps = vec![Dependence { distance: vec![Dist::Exact(1), Dist::Exact(-1)] }];
        assert!(!band_fully_permutable(&deps, 0..2));
        // The negative component is outside the band.
        assert!(band_fully_permutable(&deps, 0..1));
    }

    #[test]
    fn var_absent_from_subscripts_is_any() {
        // A[i] write in (i, j) nest: j distance unconstrained.
        let s = stmt(vec![
            aref(0, vec![Subscript::var(v(0))], true),
            aref(0, vec![Subscript::var(v(0))], false),
        ]);
        let deps = nest_dependences(&[v(0), v(1)], &[&s]);
        assert!(!deps.is_empty());
        assert!(deps.iter().all(|d| d.distance[1] == Dist::Any));
        assert!(deps.iter().all(|d| d.distance[0] == Dist::Exact(0)));
    }
}
