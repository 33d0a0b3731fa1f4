//! Reference classification and per-loop optimization-method selection
//! (Section 2.3 of the paper).
//!
//! A reference is *analyzable* if it is a scalar or an affine array
//! reference; non-affine, indexed (subscripted), pointer, and struct
//! references are non-analyzable. A loop is optimized by the **compiler**
//! when the ratio of analyzable references to all references it contains
//! exceeds a threshold (0.5 in the paper), and by **hardware** otherwise.
//!
//! Scalar references are excluded from the counts: the paper's compiler
//! sees post-register-allocation code, where named scalars live in
//! registers and generate no memory references. Counting them would dilute
//! every ratio toward the threshold.

use selcache_ir::{Item, Loop, Stmt};

/// The optimization method selected for a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preference {
    /// Run-time hardware assist (irregular access).
    Hardware,
    /// Compile-time loop/data transformation (regular access).
    Software,
}

/// Counts of analyzable vs. total references.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefCounts {
    /// References classified analyzable.
    pub analyzable: usize,
    /// All references.
    pub total: usize,
}

impl RefCounts {
    /// Merges two counts.
    pub fn merge(self, other: RefCounts) -> RefCounts {
        RefCounts {
            analyzable: self.analyzable + other.analyzable,
            total: self.total + other.total,
        }
    }

    /// Analyzable ratio in `[0, 1]`; 1.0 for reference-free code (nothing to
    /// optimize, treated as software).
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.analyzable as f64 / self.total as f64
        }
    }

    /// Selects the method for the given threshold: software when
    /// `ratio > threshold`, hardware otherwise (reference-free code is
    /// software).
    pub fn preference(&self, threshold: f64) -> Preference {
        if self.total == 0 || self.ratio() > threshold {
            Preference::Software
        } else {
            Preference::Hardware
        }
    }
}

/// Counts references in one statement (scalar references are skipped —
/// they are register-resident).
pub fn stmt_counts(stmt: &Stmt) -> RefCounts {
    let mut c = RefCounts::default();
    for r in &stmt.refs {
        if matches!(r.pattern, selcache_ir::RefPattern::Scalar(_)) {
            continue;
        }
        c.total += 1;
        if r.pattern.is_analyzable() {
            c.analyzable += 1;
        }
    }
    c
}

/// Counts references in a list of items (recursing into nested loops).
pub fn items_counts(items: &[Item]) -> RefCounts {
    let mut c = RefCounts::default();
    for item in items {
        match item {
            Item::Loop(l) => c = c.merge(items_counts(&l.body)),
            Item::Block(stmts) => {
                for s in stmts {
                    c = c.merge(stmt_counts(s));
                }
            }
            Item::Marker(_) => {}
        }
    }
    c
}

/// Counts every reference contained in a loop (its whole subtree).
pub fn loop_counts(l: &Loop) -> RefCounts {
    items_counts(&l.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::{AffineExpr, ProgramBuilder, Subscript};

    #[test]
    fn affine_nest_is_software() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[8, 8], 8);
        b.nest2(8, 8, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)]);
            });
        });
        let p = b.finish().unwrap();
        let l = p.items[0].as_loop().unwrap();
        assert_eq!(loop_counts(l).preference(0.5), Preference::Software);
        assert_eq!(loop_counts(l).ratio(), 1.0);
    }

    #[test]
    fn gather_loop_is_hardware() {
        let mut b = ProgramBuilder::new("t");
        let x = b.array("X", &[64], 8);
        let ip = b.data_array("IP", (0..64).collect(), 4);
        b.loop_(64, |b, j| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(j), 0);
            });
        });
        let p = b.finish().unwrap();
        let l = p.items[0].as_loop().unwrap();
        assert_eq!(loop_counts(l).preference(0.5), Preference::Hardware);
    }

    #[test]
    fn threshold_splits_mixed_loop() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[64], 8);
        let h = b.array("H", &[64], 16);
        let n = b.data_array("N", (0..64).collect(), 8);
        b.loop_(64, |b, i| {
            b.stmt(|s| {
                // 2 analyzable + 1 pointer = ratio 2/3.
                s.read(a, vec![Subscript::var(i)]).write(a, vec![Subscript::var(i)]).chase(h, n, 0);
            });
        });
        let p = b.finish().unwrap();
        let l = p.items[0].as_loop().unwrap();
        assert_eq!(loop_counts(l).preference(0.5), Preference::Software);
        assert_eq!(loop_counts(l).preference(0.7), Preference::Hardware);
    }

    #[test]
    fn empty_loop_defaults_to_software() {
        let mut b = ProgramBuilder::new("t");
        b.loop_(4, |b, _| {
            b.stmt(|s| {
                s.int(1);
            });
        });
        let p = b.finish().unwrap();
        let l = p.items[0].as_loop().unwrap();
        assert_eq!(loop_counts(l).preference(0.5), Preference::Software);
    }

    #[test]
    fn counts_recurse_into_nests() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[8, 8], 8);
        let h = b.array("H", &[8], 16);
        let n = b.data_array("N", (0..8).collect(), 8);
        b.loop_(8, |b, i| {
            b.stmt(|s| {
                s.chase(h, n, 0);
            });
            b.loop_(8, |b, j| {
                b.stmt(|s| {
                    s.read(a, vec![Subscript::var(i), Subscript::var(j)]);
                });
            });
        });
        let p = b.finish().unwrap();
        let l = p.items[0].as_loop().unwrap();
        let c = loop_counts(l);
        assert_eq!(c.total, 2);
        assert_eq!(c.analyzable, 1);
    }
}
