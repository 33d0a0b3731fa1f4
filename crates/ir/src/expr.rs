//! Affine expressions and array subscripts.
//!
//! Subscript shapes follow the classification in Section 2.3 of the paper:
//! *analyzable* references are scalars and affine array references; everything
//! else (products of induction variables, quotients, indexed/subscripted
//! accesses, pointer dereferences, struct fields) is *non-analyzable*.

use crate::ids::{ArrayId, VarId};
use std::fmt;

/// A linear expression over loop induction variables: `Σ cᵥ·v + c`.
///
/// ```
/// use selcache_ir::{AffineExpr, VarId};
/// let i = VarId(0);
/// let e = AffineExpr::var(i).scaled(2).plus(3); // 2*i + 3
/// assert_eq!(e.eval(&[5]), 13);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// `(variable, coefficient)` pairs; variables are unique and coefficients
    /// non-zero (normalized on construction).
    terms: Vec<(VarId, i64)>,
    /// The constant term.
    constant: i64,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr { terms: Vec::new(), constant: c }
    }

    /// The expression `v` (coefficient 1, constant 0).
    pub fn var(v: VarId) -> Self {
        AffineExpr { terms: vec![(v, 1)], constant: 0 }
    }

    /// Builds `coeff * v + constant`.
    pub fn linear(v: VarId, coeff: i64, constant: i64) -> Self {
        let mut e = AffineExpr { terms: vec![(v, coeff)], constant };
        e.normalize();
        e
    }

    /// Builds an expression from raw `(var, coeff)` terms plus a constant.
    pub fn from_terms<I: IntoIterator<Item = (VarId, i64)>>(terms: I, constant: i64) -> Self {
        let mut e = AffineExpr { terms: terms.into_iter().collect(), constant };
        e.normalize();
        e
    }

    fn normalize(&mut self) {
        self.terms.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, i64)> = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0);
        self.terms = out;
    }

    /// Adds a constant.
    #[must_use]
    pub fn plus(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// Multiplies every coefficient and the constant by `k`.
    #[must_use]
    pub fn scaled(mut self, k: i64) -> Self {
        for (_, c) in &mut self.terms {
            *c *= k;
        }
        self.constant *= k;
        self.normalize();
        self
    }

    /// Sum of two affine expressions.
    #[must_use]
    pub fn add(&self, other: &AffineExpr) -> Self {
        let mut e = self.clone();
        e.terms.extend(other.terms.iter().copied());
        e.constant += other.constant;
        e.normalize();
        e
    }

    /// The coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: VarId) -> i64 {
        self.terms.iter().find(|&&(tv, _)| tv == v).map_or(0, |&(_, c)| c)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// The `(var, coeff)` terms, sorted by variable.
    pub fn terms(&self) -> &[(VarId, i64)] {
        &self.terms
    }

    /// Evaluates under an environment mapping `VarId(k)` to `env[k]`.
    ///
    /// Variables beyond `env.len()` evaluate to 0 (they are out of scope).
    pub fn eval(&self, env: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * env.get(v.index()).copied().unwrap_or(0);
        }
        acc
    }

    /// Substitutes variable `v` with expression `repl`.
    #[must_use]
    pub fn substitute(&self, v: VarId, repl: &AffineExpr) -> Self {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let mut e = self.clone();
        e.terms.retain(|&(tv, _)| tv != v);
        e = e.add(&repl.clone().scaled(c));
        e
    }

    /// Renames variable `from` to `to` (keeping its coefficient).
    #[must_use]
    pub fn rename(&self, from: VarId, to: VarId) -> Self {
        let mut e = self.clone();
        for (v, _) in &mut e.terms {
            if *v == from {
                *v = to;
            }
        }
        e.normalize();
        e
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "{}", self.constant);
        }
        let mut first = true;
        for &(v, c) in &self.terms {
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, "+{v}")?;
                } else {
                    write!(f, "+{c}*{v}")?;
                }
            } else if c == -1 {
                write!(f, "-{v}")?;
            } else {
                write!(f, "{c}*{v}")?;
            }
        }
        match self.constant.cmp(&0) {
            std::cmp::Ordering::Greater => write!(f, "+{}", self.constant)?,
            std::cmp::Ordering::Less => write!(f, "{}", self.constant)?,
            std::cmp::Ordering::Equal => {}
        }
        Ok(())
    }
}

/// One array subscript (one dimension of an array reference).
///
/// The [`Subscript::Affine`] shape is compile-time analyzable; the others
/// model the non-analyzable shapes the paper lists: `D[i*i][j]`, `E[i/j]`,
/// `F[3][i*j]`, `G[IP[j]+2]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Subscript {
    /// An affine function of induction variables, e.g. `C[i+j][k-1]`.
    Affine(AffineExpr),
    /// Product of two induction variables, e.g. `F[3][i*j]`.
    Product(VarId, VarId),
    /// Square of an induction variable, e.g. `D[i²][j]`.
    Square(VarId),
    /// Quotient of two induction variables, e.g. `E[i/j]` (0 when the divisor
    /// evaluates to 0).
    Quotient(VarId, VarId),
    /// An induction variable reduced modulo a constant.
    ///
    /// # Panics
    ///
    /// Evaluation panics in debug builds if the modulus is not positive.
    Modulo(VarId, i64),
    /// An indexed (subscripted) reference, e.g. `G[IP[j]+2]`: the value of
    /// `index_array[index]` plus `offset`.
    Indexed {
        /// The array holding the indices (must carry backing data).
        index_array: ArrayId,
        /// Position within `index_array`, itself affine.
        index: AffineExpr,
        /// Constant added to the fetched index value.
        offset: i64,
    },
}

impl Subscript {
    /// Convenience constructor for an affine subscript in one variable.
    pub fn linear(v: VarId, coeff: i64, constant: i64) -> Self {
        Subscript::Affine(AffineExpr::linear(v, coeff, constant))
    }

    /// Convenience constructor for the subscript `v`.
    pub fn var(v: VarId) -> Self {
        Subscript::Affine(AffineExpr::var(v))
    }

    /// Convenience constructor for a constant subscript.
    pub fn constant(c: i64) -> Self {
        Subscript::Affine(AffineExpr::constant(c))
    }

    /// True if this subscript is compile-time analyzable (affine).
    pub fn is_affine(&self) -> bool {
        matches!(self, Subscript::Affine(_))
    }

    /// The affine expression, if this subscript is affine.
    pub fn as_affine(&self) -> Option<&AffineExpr> {
        match self {
            Subscript::Affine(e) => Some(e),
            _ => None,
        }
    }

    /// Renames induction variable `from` to `to`.
    #[must_use]
    pub fn rename(&self, from: VarId, to: VarId) -> Self {
        let r = |v: &VarId| if *v == from { to } else { *v };
        match self {
            Subscript::Affine(e) => Subscript::Affine(e.rename(from, to)),
            Subscript::Product(a, b) => Subscript::Product(r(a), r(b)),
            Subscript::Square(a) => Subscript::Square(r(a)),
            Subscript::Quotient(a, b) => Subscript::Quotient(r(a), r(b)),
            Subscript::Modulo(a, m) => Subscript::Modulo(r(a), *m),
            Subscript::Indexed { index_array, index, offset } => Subscript::Indexed {
                index_array: *index_array,
                index: index.rename(from, to),
                offset: *offset,
            },
        }
    }

    /// Substitutes an affine replacement for `v` where the subscript shape
    /// permits it (affine subscripts and indexed positions); other shapes are
    /// returned unchanged.
    #[must_use]
    pub fn substitute_affine(&self, v: VarId, repl: &AffineExpr) -> Self {
        match self {
            Subscript::Affine(e) => Subscript::Affine(e.substitute(v, repl)),
            Subscript::Indexed { index_array, index, offset } => Subscript::Indexed {
                index_array: *index_array,
                index: index.substitute(v, repl),
                offset: *offset,
            },
            other => other.clone(),
        }
    }
}

impl fmt::Display for Subscript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subscript::Affine(e) => write!(f, "{e}"),
            Subscript::Product(a, b) => write!(f, "{a}*{b}"),
            Subscript::Square(a) => write!(f, "{a}^2"),
            Subscript::Quotient(a, b) => write!(f, "{a}/{b}"),
            Subscript::Modulo(a, m) => write!(f, "{a}%{m}"),
            Subscript::Indexed { index_array, index, offset } => {
                if *offset == 0 {
                    write!(f, "{index_array}[{index}]")
                } else {
                    write!(f, "{index_array}[{index}]+{offset}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn eval_linear() {
        let e = AffineExpr::linear(v(0), 2, 3);
        assert_eq!(e.eval(&[5]), 13);
        assert_eq!(e.eval(&[]), 3); // out-of-scope var is 0
    }

    #[test]
    fn normalize_merges_terms() {
        let e = AffineExpr::from_terms([(v(1), 2), (v(0), 1), (v(1), -2)], 4);
        assert_eq!(e.terms(), &[(v(0), 1)]);
        assert_eq!(e.constant_term(), 4);
    }

    #[test]
    fn add_and_scale() {
        let a = AffineExpr::linear(v(0), 1, 1);
        let b = AffineExpr::linear(v(1), 3, -1);
        let s = a.add(&b).scaled(2);
        assert_eq!(s.coeff(v(0)), 2);
        assert_eq!(s.coeff(v(1)), 6);
        assert_eq!(s.constant_term(), 0);
    }

    #[test]
    fn substitute_replaces_var() {
        // 2*i + 1 with i := j + 3  =>  2*j + 7
        let e = AffineExpr::linear(v(0), 2, 1);
        let repl = AffineExpr::linear(v(1), 1, 3);
        let s = e.substitute(v(0), &repl);
        assert_eq!(s.coeff(v(0)), 0);
        assert_eq!(s.coeff(v(1)), 2);
        assert_eq!(s.constant_term(), 7);
    }

    #[test]
    fn rename_keeps_coeff() {
        let e = AffineExpr::linear(v(0), 5, 0).rename(v(0), v(9));
        assert_eq!(e.coeff(v(9)), 5);
        assert_eq!(e.coeff(v(0)), 0);
    }

    #[test]
    fn display_forms() {
        let e = AffineExpr::from_terms([(v(0), 1), (v(1), -2)], 3);
        assert_eq!(e.to_string(), "v0-2*v1+3");
        assert_eq!(AffineExpr::constant(-4).to_string(), "-4");
    }

    #[test]
    fn subscript_classification() {
        assert!(Subscript::var(v(0)).is_affine());
        assert!(!Subscript::Product(v(0), v(1)).is_affine());
        assert!(!Subscript::Indexed {
            index_array: ArrayId(0),
            index: AffineExpr::var(v(0)),
            offset: 2
        }
        .is_affine());
    }

    #[test]
    fn subscript_rename() {
        let s = Subscript::Product(v(0), v(1)).rename(v(1), v(5));
        assert_eq!(s, Subscript::Product(v(0), v(5)));
    }
}
