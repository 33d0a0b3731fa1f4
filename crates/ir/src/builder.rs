//! Ergonomic construction of [`Program`]s.
//!
//! ```
//! use selcache_ir::{ProgramBuilder, Subscript};
//!
//! let mut b = ProgramBuilder::new("example");
//! let a = b.array("A", &[64, 64], 8);
//! b.nest2(64, 64, |b, i, j| {
//!     b.stmt(|s| {
//!         s.read(a, vec![Subscript::var(i), Subscript::var(j)]);
//!         s.fp(1);
//!         s.write(a, vec![Subscript::var(i), Subscript::var(j)]);
//!     });
//! });
//! let p = b.finish().expect("valid program");
//! assert_eq!(p.loop_count(), 2);
//! ```

use crate::expr::{AffineExpr, Subscript};
use crate::ids::{ArrayId, LoopId, ScalarId, VarId};
use crate::program::{
    ArrayDecl, Item, Layout, Loop, Marker, Program, ProgramError, Ref, RefPattern, Stmt, Trip,
};

/// Builds a [`Program`] with automatically assigned variable and loop ids.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    arrays: Vec<ArrayDecl>,
    num_scalars: u32,
    next_var: u32,
    next_loop: u32,
    /// Stack of item lists: index 0 is the program top level, deeper entries
    /// are open loop bodies.
    stack: Vec<Vec<Item>>,
    open_loops: Vec<(LoopId, VarId, Trip)>,
}

impl ProgramBuilder {
    /// Starts a new program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            arrays: Vec::new(),
            num_scalars: 0,
            next_var: 0,
            next_loop: 0,
            stack: vec![Vec::new()],
            open_loops: Vec::new(),
        }
    }

    /// Declares an array with row-major layout and no backing data.
    pub fn array(&mut self, name: impl Into<String>, dims: &[i64], elem_size: u64) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            dims: dims.to_vec(),
            elem_size,
            layout: Layout::RowMajor,
            data: None,
            pad_bytes: 0,
        });
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Declares a one-dimensional array carrying backing data (an index table
    /// or pointer next-table).
    pub fn data_array(
        &mut self,
        name: impl Into<String>,
        data: Vec<i64>,
        elem_size: u64,
    ) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            dims: vec![data.len().max(1) as i64],
            elem_size,
            layout: Layout::RowMajor,
            data: Some(data),
            pad_bytes: 0,
        });
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Allocates a fresh scalar variable.
    pub fn scalar(&mut self) -> ScalarId {
        self.num_scalars += 1;
        ScalarId(self.num_scalars - 1)
    }

    /// Opens a loop with the given trip count, runs `f` with the new
    /// induction variable, then closes the loop.
    pub fn loop_(&mut self, trip: i64, f: impl FnOnce(&mut Self, VarId)) {
        self.loop_trip(Trip::Const(trip), f)
    }

    /// Opens a loop with an explicit [`Trip`]; see [`ProgramBuilder::loop_`].
    pub fn loop_trip(&mut self, trip: Trip, f: impl FnOnce(&mut Self, VarId)) {
        let var = VarId(self.next_var);
        self.next_var += 1;
        let id = LoopId(self.next_loop);
        self.next_loop += 1;
        self.open_loops.push((id, var, trip));
        self.stack.push(Vec::new());
        f(self, var);
        let body = self.stack.pop().expect("builder stack underflow");
        let (id, var, trip) = self.open_loops.pop().expect("loop stack underflow");
        self.push_item(Item::Loop(Loop { id, var, trip, body }));
    }

    /// Two-deep perfect nest convenience.
    pub fn nest2(&mut self, n: i64, m: i64, f: impl FnOnce(&mut Self, VarId, VarId)) {
        self.loop_(n, |b, i| b.loop_(m, |b, j| f(b, i, j)));
    }

    /// Three-deep perfect nest convenience.
    pub fn nest3(
        &mut self,
        n: i64,
        m: i64,
        k: i64,
        f: impl FnOnce(&mut Self, VarId, VarId, VarId),
    ) {
        self.loop_(n, |b, i| b.loop_(m, |b, j| b.loop_(k, |b, l| f(b, i, j, l))));
    }

    /// Appends a statement built by `f` to the current block.
    pub fn stmt(&mut self, f: impl FnOnce(&mut StmtBuilder)) {
        let mut sb = StmtBuilder::default();
        f(&mut sb);
        let stmt = sb.finish();
        // Coalesce into a trailing block if one is open.
        if let Some(Item::Block(stmts)) = self.current().last_mut() {
            stmts.push(stmt);
        } else {
            self.push_item(Item::Block(vec![stmt]));
        }
    }

    /// Inserts an explicit assist marker (normally done by the compiler).
    pub fn marker(&mut self, m: Marker) {
        self.push_item(Item::Marker(m));
    }

    fn current(&mut self) -> &mut Vec<Item> {
        self.stack.last_mut().expect("builder stack underflow")
    }

    fn push_item(&mut self, item: Item) {
        self.current().push(item);
    }

    /// Finishes the program and validates it.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if validation fails (see
    /// [`Program::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if called while a loop is still open (impossible when loops are
    /// built through [`ProgramBuilder::loop_`]).
    pub fn finish(mut self) -> Result<Program, ProgramError> {
        assert!(self.open_loops.is_empty(), "finish() called with open loops");
        let items = self.stack.pop().expect("builder stack underflow");
        assert!(self.stack.is_empty(), "finish() called with open loops");
        let p = Program {
            name: self.name,
            arrays: self.arrays,
            num_vars: self.next_var,
            num_scalars: self.num_scalars,
            num_loops: self.next_loop,
            items,
        };
        p.validate()?;
        Ok(p)
    }
}

/// Builds a single [`Stmt`]; obtained through [`ProgramBuilder::stmt`].
#[derive(Debug, Default)]
pub struct StmtBuilder {
    refs: Vec<Ref>,
    int_ops: u16,
    fp_ops: u16,
}

impl StmtBuilder {
    /// Adds an array load.
    pub fn read(&mut self, array: ArrayId, subscripts: Vec<Subscript>) -> &mut Self {
        self.refs.push(Ref::load(RefPattern::Array { array, subscripts }));
        self
    }

    /// Adds an array store.
    pub fn write(&mut self, array: ArrayId, subscripts: Vec<Subscript>) -> &mut Self {
        self.refs.push(Ref::store(RefPattern::Array { array, subscripts }));
        self
    }

    /// Adds a scalar load.
    pub fn read_scalar(&mut self, s: ScalarId) -> &mut Self {
        self.refs.push(Ref::load(RefPattern::Scalar(s)));
        self
    }

    /// Adds a scalar store.
    pub fn write_scalar(&mut self, s: ScalarId) -> &mut Self {
        self.refs.push(Ref::store(RefPattern::Scalar(s)));
        self
    }

    /// Adds an indexed (gather) load: `target[index_array[pos] + offset]`.
    pub fn gather(
        &mut self,
        target: ArrayId,
        index_array: ArrayId,
        pos: AffineExpr,
        offset: i64,
    ) -> &mut Self {
        self.refs.push(Ref::load(RefPattern::Array {
            array: target,
            subscripts: vec![Subscript::Indexed { index_array, index: pos, offset }],
        }));
        self
    }

    /// Adds an indexed (scatter) store: `target[index_array[pos] + offset]`.
    pub fn scatter(
        &mut self,
        target: ArrayId,
        index_array: ArrayId,
        pos: AffineExpr,
        offset: i64,
    ) -> &mut Self {
        self.refs.push(Ref::store(RefPattern::Array {
            array: target,
            subscripts: vec![Subscript::Indexed { index_array, index: pos, offset }],
        }));
        self
    }

    /// Adds a pointer-chasing load through `next`, reading a node field.
    pub fn chase(&mut self, heap: ArrayId, next: ArrayId, field_offset: i64) -> &mut Self {
        self.refs.push(Ref::load(RefPattern::Pointer { heap, next, field_offset }));
        self
    }

    /// Adds a pointer-chasing store through `next`, writing a node field.
    pub fn chase_write(&mut self, heap: ArrayId, next: ArrayId, field_offset: i64) -> &mut Self {
        self.refs.push(Ref::store(RefPattern::Pointer { heap, next, field_offset }));
        self
    }

    /// Adds a struct-field load `array[index].field`.
    pub fn field(&mut self, array: ArrayId, index: AffineExpr, field_offset: i64) -> &mut Self {
        self.refs.push(Ref::load(RefPattern::StructField { array, index, field_offset }));
        self
    }

    /// Adds a struct-field store `array[index].field = …`.
    pub fn field_write(
        &mut self,
        array: ArrayId,
        index: AffineExpr,
        field_offset: i64,
    ) -> &mut Self {
        self.refs.push(Ref::store(RefPattern::StructField { array, index, field_offset }));
        self
    }

    /// Adds `n` integer ALU operations.
    pub fn int(&mut self, n: u16) -> &mut Self {
        self.int_ops += n;
        self
    }

    /// Adds `n` floating-point operations.
    pub fn fp(&mut self, n: u16) -> &mut Self {
        self.fp_ops += n;
        self
    }

    fn finish(self) -> Stmt {
        Stmt { refs: self.refs, int_ops: self.int_ops, fp_ops: self.fp_ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_program() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[8, 8], 8);
        b.nest2(8, 8, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)]).fp(1);
            });
        });
        let p = b.finish().unwrap();
        assert_eq!(p.loop_count(), 2);
        assert_eq!(p.num_vars, 2);
    }

    #[test]
    fn stmts_coalesce_into_one_block() {
        let mut b = ProgramBuilder::new("t");
        b.loop_(4, |b, _| {
            b.stmt(|s| {
                s.int(1);
            });
            b.stmt(|s| {
                s.int(1);
            });
        });
        let p = b.finish().unwrap();
        let lp = p.items[0].as_loop().unwrap();
        assert_eq!(lp.body.len(), 1);
        assert!(matches!(&lp.body[0], Item::Block(stmts) if stmts.len() == 2));
    }

    #[test]
    fn marker_breaks_blocks() {
        let mut b = ProgramBuilder::new("t");
        b.stmt(|s| {
            s.int(1);
        });
        b.marker(Marker::On);
        b.stmt(|s| {
            s.int(1);
        });
        let p = b.finish().unwrap();
        assert_eq!(p.items.len(), 3);
        assert_eq!(p.marker_count(), 1);
    }

    #[test]
    fn data_array_validates_for_gather() {
        let mut b = ProgramBuilder::new("t");
        let x = b.array("X", &[16], 8);
        let ip = b.data_array("IP", (0..16).collect(), 4);
        b.loop_(16, |b, j| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(j), 2);
            });
        });
        assert!(b.finish().is_ok());
    }

    #[test]
    fn gather_without_data_fails_validation() {
        let mut b = ProgramBuilder::new("t");
        let x = b.array("X", &[16], 8);
        let ip = b.array("IP", &[16], 4); // no data
        b.loop_(16, |b, j| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(j), 0);
            });
        });
        assert!(matches!(b.finish(), Err(ProgramError::MissingData(_))));
    }

    #[test]
    fn fresh_vars_are_unique() {
        let mut b = ProgramBuilder::new("t");
        let mut vars = Vec::new();
        b.loop_(1, |b, i| {
            vars.push(i);
            b.loop_(1, |b, j| {
                vars.push(j);
                b.stmt(|s| {
                    s.int(1);
                });
            });
        });
        b.loop_(1, |b, k| {
            vars.push(k);
            b.stmt(|s| {
                s.int(1);
            });
        });
        let p = b.finish().unwrap();
        assert_eq!(vars.len(), 3);
        assert_eq!(p.num_vars, 3);
        assert_eq!(p.num_loops, 3);
        vars.sort();
        vars.dedup();
        assert_eq!(vars.len(), 3);
    }
}
