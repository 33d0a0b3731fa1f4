//! The loop-nest program representation.
//!
//! A [`Program`] is a forest of [`Item`]s: counted loops ([`Loop`]),
//! straight-line statement blocks ([`Block`]), and assist-control markers
//! ([`Marker`]) inserted by the region-detection pass. Statements carry
//! memory references ([`Ref`]) plus integer/floating-point operation counts;
//! the interpreter in [`crate::interp`] lowers this to a dynamic trace.

use crate::expr::{AffineExpr, Subscript};
use crate::ids::{Addr, ArrayId, LoopId, ScalarId, VarId};
use std::fmt;

/// Memory layout of a (possibly multi-dimensional) array.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Row-major (C default): the last subscript has unit stride.
    #[default]
    RowMajor,
    /// Column-major (Fortran): the first subscript has unit stride.
    ColMajor,
    /// Arbitrary dimension permutation: `perm[k]` gives the storage position
    /// of source dimension `k` (identity permutation equals row-major).
    Permuted(Vec<usize>),
}

impl Layout {
    /// Storage-order permutation for `ndims` dimensions: `order[j]` is the
    /// source dimension stored at position `j` (position `ndims-1` varies
    /// fastest).
    pub fn order(&self, ndims: usize) -> Vec<usize> {
        match self {
            Layout::RowMajor => (0..ndims).collect(),
            Layout::ColMajor => (0..ndims).rev().collect(),
            Layout::Permuted(perm) => {
                // perm[k] = storage position of source dim k; invert it.
                let mut order = vec![0; ndims];
                for (src, &pos) in perm.iter().enumerate() {
                    order[pos] = src;
                }
                order
            }
        }
    }
}

/// An array (or index table / linked-heap backing store) declared by a
/// program.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Human-readable name for diagnostics and pretty-printing.
    pub name: String,
    /// Extent of each dimension, in elements. Must be non-empty and positive.
    pub dims: Vec<i64>,
    /// Element size in bytes (e.g. 8 for doubles, 4 for ints). For
    /// struct-field references this is the struct size.
    pub elem_size: u64,
    /// Storage layout; changed by the compiler's data-layout pass.
    pub layout: Layout,
    /// Backing values, required for [`Subscript::Indexed`] index arrays and
    /// for [`RefPattern::Pointer`] next-tables. Values are element indices
    /// into the target array.
    pub data: Option<Vec<i64>>,
    /// Trailing padding in bytes, set by the compiler's array-padding pass
    /// to stagger base addresses across cache sets (never addressed by
    /// references).
    pub pad_bytes: u64,
}

impl ArrayDecl {
    /// Total number of elements.
    pub fn len(&self) -> i64 {
        self.dims.iter().product()
    }

    /// True if the array has zero elements (never true for valid programs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total footprint in bytes, including compiler-inserted padding.
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.elem_size + self.pad_bytes
    }

    /// Linearizes a subscript vector (element coordinates) into an element
    /// offset under the current layout. Coordinates are clamped into bounds
    /// so that synthetic non-affine subscripts cannot escape the array.
    ///
    /// The reference definition of array addressing: the interpreter
    /// computes the same offset in place from strides its plan
    /// precomputes, and the addressing property test in
    /// `crates/ir/tests/` holds it to this function.
    pub fn linearize(&self, coords: &[i64]) -> i64 {
        let order = self.layout.order(self.dims.len());
        let mut off = 0i64;
        for &src in &order {
            let extent = self.dims[src];
            let c = coords.get(src).copied().unwrap_or(0).rem_euclid(extent);
            off = off * extent + c;
        }
        off
    }
}

/// A single memory-reference pattern, classified per Section 2.3 of the
/// paper: scalars and affine array references are *analyzable*; non-affine,
/// indexed, pointer, and struct references are not.
#[derive(Debug, Clone, PartialEq)]
pub enum RefPattern {
    /// A scalar variable, e.g. `A`.
    Scalar(ScalarId),
    /// An array reference with one subscript per dimension, e.g.
    /// `C[i+j][k-1]` or the non-affine `D[i²][j]`.
    Array {
        /// The referenced array.
        array: ArrayId,
        /// One subscript per array dimension.
        subscripts: Vec<Subscript>,
    },
    /// A pointer-chasing reference, e.g. `*H[i]`, `K->field`: each execution
    /// dereferences the current node in `heap` and advances the cursor via
    /// the `next` table (which must carry backing data).
    Pointer {
        /// The array acting as the node heap.
        heap: ArrayId,
        /// Next-pointer table: `next.data[cursor]` is the following node.
        next: ArrayId,
        /// Byte offset of the accessed field within a node.
        field_offset: i64,
    },
    /// A field of a struct in an array of structs, e.g. `J.field` where `J`
    /// is `array[index]`; the array's `elem_size` is the struct size.
    StructField {
        /// The array of structs.
        array: ArrayId,
        /// Element index (affine, but still non-analyzable per the paper).
        index: AffineExpr,
        /// Byte offset of the field within the struct.
        field_offset: i64,
    },
}

impl RefPattern {
    /// True if the reference is compile-time analyzable (Section 2.3).
    pub fn is_analyzable(&self) -> bool {
        match self {
            RefPattern::Scalar(_) => true,
            RefPattern::Array { subscripts, .. } => subscripts.iter().all(Subscript::is_affine),
            RefPattern::Pointer { .. } | RefPattern::StructField { .. } => false,
        }
    }

    /// The array this pattern touches, if any.
    pub fn array(&self) -> Option<ArrayId> {
        match self {
            RefPattern::Scalar(_) => None,
            RefPattern::Array { array, .. } => Some(*array),
            RefPattern::Pointer { heap, .. } => Some(*heap),
            RefPattern::StructField { array, .. } => Some(*array),
        }
    }
}

/// A memory reference: a pattern plus read/write direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Ref {
    /// Access pattern.
    pub pattern: RefPattern,
    /// True for a store, false for a load.
    pub write: bool,
}

impl Ref {
    /// A load with the given pattern.
    pub fn load(pattern: RefPattern) -> Self {
        Ref { pattern, write: false }
    }

    /// A store with the given pattern.
    pub fn store(pattern: RefPattern) -> Self {
        Ref { pattern, write: true }
    }
}

/// A statement: a bundle of memory references plus arithmetic work.
///
/// The interpreter expands a statement into its loads (in order), the ALU
/// operations (dependent on the loads), and finally its stores.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Stmt {
    /// Memory references, loads and stores interleaved in program order.
    pub refs: Vec<Ref>,
    /// Number of integer ALU operations.
    pub int_ops: u16,
    /// Number of floating-point operations.
    pub fp_ops: u16,
}

impl Stmt {
    /// Creates a statement with the given references and op counts.
    pub fn new(refs: Vec<Ref>, int_ops: u16, fp_ops: u16) -> Self {
        Stmt { refs, int_ops, fp_ops }
    }
}

/// Assist-control marker: turns the hardware locality-optimization mechanism
/// on or off at run time (the paper's `activate`/`deactivate` instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Marker {
    /// Activate the hardware assist.
    On,
    /// Deactivate the hardware assist.
    Off,
}

/// Loop trip count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trip {
    /// A compile-time constant trip count.
    Const(i64),
    /// The trailing-tile trip count produced by tiling: the loop runs
    /// `min(tile, total - outer*tile)` iterations, where `outer` is the tile
    /// controller variable.
    TileTail {
        /// Total extent of the original loop.
        total: i64,
        /// Tile size.
        tile: i64,
        /// Controller loop variable.
        outer: VarId,
    },
}

impl Trip {
    /// Evaluates the trip count under an environment (see
    /// [`AffineExpr::eval`]).
    pub fn eval(&self, env: &[i64]) -> i64 {
        match *self {
            Trip::Const(n) => n,
            Trip::TileTail { total, tile, outer } => {
                let o = env.get(outer.index()).copied().unwrap_or(0);
                (total - o * tile).min(tile).max(0)
            }
        }
    }

    /// An upper bound on the trip count independent of the environment.
    pub fn max(&self) -> i64 {
        match *self {
            Trip::Const(n) => n,
            Trip::TileTail { total, tile, .. } => tile.min(total),
        }
    }
}

/// A counted loop: `for var in 0..trip { body }` (step 1; strides are
/// expressed in subscript coefficients).
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Unique loop identity within the program.
    pub id: LoopId,
    /// Induction variable bound by this loop.
    pub var: VarId,
    /// Trip count.
    pub trip: Trip,
    /// Loop body.
    pub body: Vec<Item>,
}

/// A node of the program tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A counted loop.
    Loop(Loop),
    /// Straight-line statements.
    Block(Vec<Stmt>),
    /// An assist-control marker.
    Marker(Marker),
}

impl Item {
    /// The loop, if this item is one.
    pub fn as_loop(&self) -> Option<&Loop> {
        match self {
            Item::Loop(l) => Some(l),
            _ => None,
        }
    }
}

/// Validation failure for a [`Program`]; see [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// An array id is out of range.
    UnknownArray(ArrayId),
    /// A reference has the wrong number of subscripts for its array.
    SubscriptArity {
        /// Offending array.
        array: ArrayId,
        /// Subscripts supplied.
        got: usize,
        /// Dimensions declared.
        want: usize,
    },
    /// An index array or next-table lacks backing data.
    MissingData(ArrayId),
    /// An array has a non-positive dimension.
    BadDims(ArrayId),
    /// A loop variable id collides with another loop on the same path.
    DuplicateVar(VarId),
    /// A loop id is duplicated in the tree.
    DuplicateLoop(LoopId),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnknownArray(a) => write!(f, "unknown array {a}"),
            ProgramError::SubscriptArity { array, got, want } => {
                write!(f, "array {array} expects {want} subscripts, got {got}")
            }
            ProgramError::MissingData(a) => {
                write!(f, "array {a} needs backing data for indexed/pointer access")
            }
            ProgramError::BadDims(a) => write!(f, "array {a} has a non-positive dimension"),
            ProgramError::DuplicateVar(v) => write!(f, "loop variable {v} shadowed on same path"),
            ProgramError::DuplicateLoop(l) => write!(f, "duplicate loop id {l}"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A whole program: array declarations plus the item forest.
///
/// Construct programs with [`crate::ProgramBuilder`]; hand-rolled programs
/// should be checked with [`Program::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (benchmark name).
    pub name: String,
    /// Declared arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Number of induction variables (dense [`VarId`]s).
    pub num_vars: u32,
    /// Number of scalar variables (dense [`ScalarId`]s).
    pub num_scalars: u32,
    /// Number of loops (dense [`LoopId`]s).
    pub num_loops: u32,
    /// Top-level items.
    pub items: Vec<Item>,
}

/// Base-address assignment for a program's arrays and scalars.
///
/// Arrays are laid out sequentially from [`AddressMap::BASE`] with natural
/// 256-byte alignment. Power-of-two array sizes therefore land on identical
/// cache-set offsets — the allocation behaviour that produces the
/// cross-array conflict misses the paper measures (53–72 % of all misses);
/// the compiler's padding pass staggers them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMap {
    array_bases: Vec<u64>,
    scalar_base: u64,
    end: u64,
}

impl AddressMap {
    /// Base virtual address of the data segment.
    pub const BASE: u64 = 0x1000_0000;
    /// Alignment of each array's base address.
    pub const ALIGN: u64 = 256;

    /// Base address of an array.
    ///
    /// # Panics
    ///
    /// Panics if `array` was not declared by the mapped program.
    pub fn array_base(&self, array: ArrayId) -> Addr {
        Addr(self.array_bases[array.index()])
    }

    /// Address of a scalar slot (8 bytes each).
    pub fn scalar_addr(&self, scalar: ScalarId) -> Addr {
        Addr(self.scalar_base + scalar.index() as u64 * 8)
    }

    /// One past the highest assigned address.
    pub fn end(&self) -> Addr {
        Addr(self.end)
    }
}

impl Program {
    /// Computes the base-address assignment for this program.
    pub fn address_map(&self) -> AddressMap {
        let mut cursor = AddressMap::BASE;
        let mut array_bases = Vec::with_capacity(self.arrays.len());
        for a in &self.arrays {
            array_bases.push(cursor);
            let sz = a.size_bytes().max(1);
            cursor += sz.div_ceil(AddressMap::ALIGN) * AddressMap::ALIGN;
        }
        let scalar_base = cursor;
        cursor += (self.num_scalars as u64 * 8).div_ceil(AddressMap::ALIGN) * AddressMap::ALIGN;
        AddressMap { array_bases, scalar_base, end: cursor }
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found: unknown arrays, subscript
    /// arity mismatches, missing backing data for indexed/pointer access,
    /// non-positive dimensions, shadowed loop variables, duplicate loop ids.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (i, a) in self.arrays.iter().enumerate() {
            if a.dims.is_empty() || a.dims.iter().any(|&d| d <= 0) {
                return Err(ProgramError::BadDims(ArrayId(i as u32)));
            }
        }
        let mut seen_loops = vec![false; self.num_loops as usize];
        let mut path_vars: Vec<VarId> = Vec::new();
        self.validate_items(&self.items, &mut path_vars, &mut seen_loops)
    }

    fn validate_items(
        &self,
        items: &[Item],
        path_vars: &mut Vec<VarId>,
        seen_loops: &mut [bool],
    ) -> Result<(), ProgramError> {
        for item in items {
            match item {
                Item::Loop(l) => {
                    if path_vars.contains(&l.var) {
                        return Err(ProgramError::DuplicateVar(l.var));
                    }
                    match seen_loops.get_mut(l.id.index()) {
                        Some(seen) if !*seen => *seen = true,
                        _ => return Err(ProgramError::DuplicateLoop(l.id)),
                    }
                    path_vars.push(l.var);
                    self.validate_items(&l.body, path_vars, seen_loops)?;
                    path_vars.pop();
                }
                Item::Block(stmts) => {
                    for s in stmts {
                        for r in &s.refs {
                            self.validate_ref(r)?;
                        }
                    }
                }
                Item::Marker(_) => {}
            }
        }
        Ok(())
    }

    fn check_array(&self, a: ArrayId) -> Result<&ArrayDecl, ProgramError> {
        self.arrays.get(a.index()).ok_or(ProgramError::UnknownArray(a))
    }

    fn validate_ref(&self, r: &Ref) -> Result<(), ProgramError> {
        match &r.pattern {
            RefPattern::Scalar(_) => Ok(()),
            RefPattern::Array { array, subscripts } => {
                let decl = self.check_array(*array)?;
                if subscripts.len() != decl.dims.len() {
                    return Err(ProgramError::SubscriptArity {
                        array: *array,
                        got: subscripts.len(),
                        want: decl.dims.len(),
                    });
                }
                for s in subscripts {
                    if let Subscript::Indexed { index_array, .. } = s {
                        let idx = self.check_array(*index_array)?;
                        if idx.data.is_none() {
                            return Err(ProgramError::MissingData(*index_array));
                        }
                    }
                }
                Ok(())
            }
            RefPattern::Pointer { heap, next, .. } => {
                self.check_array(*heap)?;
                let n = self.check_array(*next)?;
                if n.data.is_none() {
                    return Err(ProgramError::MissingData(*next));
                }
                Ok(())
            }
            RefPattern::StructField { array, .. } => {
                self.check_array(*array)?;
                Ok(())
            }
        }
    }

    /// Calls `f` on every statement in the program, in program order.
    pub fn for_each_stmt(&self, mut f: impl FnMut(&Stmt)) {
        fn walk(items: &[Item], f: &mut impl FnMut(&Stmt)) {
            for item in items {
                match item {
                    Item::Loop(l) => walk(&l.body, f),
                    Item::Block(stmts) => stmts.iter().for_each(&mut *f),
                    Item::Marker(_) => {}
                }
            }
        }
        walk(&self.items, &mut f);
    }

    /// Calls `f` on every loop in the program, in pre-order.
    pub fn for_each_loop(&self, mut f: impl FnMut(&Loop)) {
        fn walk(items: &[Item], f: &mut impl FnMut(&Loop)) {
            for item in items {
                if let Item::Loop(l) = item {
                    f(l);
                    walk(&l.body, f);
                }
            }
        }
        walk(&self.items, &mut f);
    }

    /// Counts loops.
    pub fn loop_count(&self) -> usize {
        let mut n = 0;
        self.for_each_loop(|_| n += 1);
        n
    }

    /// Counts assist markers.
    pub fn marker_count(&self) -> usize {
        fn walk(items: &[Item]) -> usize {
            items
                .iter()
                .map(|i| match i {
                    Item::Loop(l) => walk(&l.body),
                    Item::Marker(_) => 1,
                    Item::Block(_) => 0,
                })
                .sum()
        }
        walk(&self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr2(name: &str, n: i64, m: i64) -> ArrayDecl {
        ArrayDecl {
            name: name.into(),
            dims: vec![n, m],
            elem_size: 8,
            layout: Layout::RowMajor,
            data: None,
            pad_bytes: 0,
        }
    }

    #[test]
    fn layout_order() {
        assert_eq!(Layout::RowMajor.order(3), vec![0, 1, 2]);
        assert_eq!(Layout::ColMajor.order(3), vec![2, 1, 0]);
        assert_eq!(Layout::Permuted(vec![1, 0]).order(2), vec![1, 0]);
    }

    #[test]
    fn linearize_row_vs_col() {
        let mut a = arr2("A", 4, 8);
        assert_eq!(a.linearize(&[1, 2]), 10); // 1*8 + 2
        a.layout = Layout::ColMajor;
        assert_eq!(a.linearize(&[1, 2]), 9); // 2*4 + 1
    }

    #[test]
    fn linearize_clamps_out_of_bounds() {
        let a = arr2("A", 4, 8);
        assert_eq!(a.linearize(&[5, -1]), a.linearize(&[1, 7]));
    }

    #[test]
    fn trip_tile_tail() {
        let t = Trip::TileTail { total: 10, tile: 4, outer: VarId(0) };
        assert_eq!(t.eval(&[0]), 4);
        assert_eq!(t.eval(&[1]), 4);
        assert_eq!(t.eval(&[2]), 2);
        assert_eq!(t.eval(&[3]), 0);
        assert_eq!(t.max(), 4);
    }

    #[test]
    fn analyzability() {
        let affine = RefPattern::Array {
            array: ArrayId(0),
            subscripts: vec![Subscript::var(VarId(0)), Subscript::var(VarId(1))],
        };
        assert!(affine.is_analyzable());
        let indexed = RefPattern::Array {
            array: ArrayId(0),
            subscripts: vec![Subscript::Indexed {
                index_array: ArrayId(1),
                index: AffineExpr::var(VarId(0)),
                offset: 0,
            }],
        };
        assert!(!indexed.is_analyzable());
        assert!(RefPattern::Scalar(ScalarId(0)).is_analyzable());
        assert!(!RefPattern::Pointer { heap: ArrayId(0), next: ArrayId(1), field_offset: 0 }
            .is_analyzable());
    }

    #[test]
    fn address_map_aligns_and_separates() {
        let p = Program {
            name: "t".into(),
            arrays: vec![arr2("A", 4, 8), arr2("B", 100, 100)],
            num_vars: 0,
            num_scalars: 3,
            num_loops: 0,
            items: vec![],
        };
        let m = p.address_map();
        assert_eq!(m.array_base(ArrayId(0)).0 % AddressMap::ALIGN, 0);
        assert!(m.array_base(ArrayId(1)).0 >= m.array_base(ArrayId(0)).0 + 4 * 8 * 8);
        assert!(m.scalar_addr(ScalarId(2)).0 >= m.array_base(ArrayId(1)).0);
        assert!(m.end().0 > m.scalar_addr(ScalarId(2)).0);
    }

    #[test]
    fn validate_catches_arity() {
        let p = Program {
            name: "t".into(),
            arrays: vec![arr2("A", 4, 8)],
            num_vars: 1,
            num_scalars: 0,
            num_loops: 1,
            items: vec![Item::Loop(Loop {
                id: LoopId(0),
                var: VarId(0),
                trip: Trip::Const(4),
                body: vec![Item::Block(vec![Stmt::new(
                    vec![Ref::load(RefPattern::Array {
                        array: ArrayId(0),
                        subscripts: vec![Subscript::var(VarId(0))],
                    })],
                    1,
                    0,
                )])],
            })],
        };
        assert!(matches!(p.validate(), Err(ProgramError::SubscriptArity { .. })));
    }

    #[test]
    fn validate_catches_shadowed_var() {
        let inner = Loop { id: LoopId(1), var: VarId(0), trip: Trip::Const(2), body: vec![] };
        let p = Program {
            name: "t".into(),
            arrays: vec![],
            num_vars: 1,
            num_scalars: 0,
            num_loops: 2,
            items: vec![Item::Loop(Loop {
                id: LoopId(0),
                var: VarId(0),
                trip: Trip::Const(2),
                body: vec![Item::Loop(inner)],
            })],
        };
        assert_eq!(p.validate(), Err(ProgramError::DuplicateVar(VarId(0))));
    }

    #[test]
    fn counters() {
        let p = Program {
            name: "t".into(),
            arrays: vec![],
            num_vars: 1,
            num_scalars: 0,
            num_loops: 1,
            items: vec![
                Item::Marker(Marker::On),
                Item::Loop(Loop {
                    id: LoopId(0),
                    var: VarId(0),
                    trip: Trip::Const(2),
                    body: vec![Item::Block(vec![Stmt::default(), Stmt::default()])],
                }),
                Item::Marker(Marker::Off),
            ],
        };
        assert_eq!(p.loop_count(), 1);
        assert_eq!(p.marker_count(), 2);
    }
}
