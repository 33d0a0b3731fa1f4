//! Compiled access plans: a one-time lowering of a [`Program`] into the flat
//! form the interpreter executes.
//!
//! The streaming interpreter used to pay three hash lookups per emitted op:
//! the pointer-keyed `PcMap` for the site PC, the `(heap, next)` map for
//! pointer-chase cursors, and the per-reference address computation walking
//! `Subscript` trees. A [`Plan`] hoists all of that to compile time:
//!
//! - every static site's PC is baked into its plan node;
//! - every dependence distance is baked in (they are functions of static
//!   per-statement op counts only);
//! - affine subscripts that are provably in-bounds are folded, together with
//!   the array layout and base address, into *address slots* — byte cursors
//!   bumped by a per-variable stride whenever a loop writes its induction
//!   variable — so the common reference costs one indexed read per access;
//! - pointer-chase cursors live in a dense slot table indexed at compile
//!   time.
//!
//! References the fold cannot prove safe (non-affine or possibly
//! out-of-bounds subscripts, indexed gathers, pointer chases, struct fields)
//! keep the original general resolution path, so emitted traces are
//! bit-identical to the tree-walking interpreter. An array reference on that
//! path carries its per-dimension element strides, so the interpreter
//! linearizes its clamped coordinates in place.

use crate::expr::Subscript;
use crate::ids::{ArrayId, VarId};
use crate::program::{AddressMap, ArrayDecl, Item, Marker, Program, Ref, RefPattern, Stmt, Trip};
use crate::trace::{OpKind, SITE_BYTES, TEXT_BASE};
use std::collections::HashMap;

/// Owner of the top-level item list in a [`Frame`](crate::interp) — loops own
/// their bodies by node index.
pub(crate) const ROOT_OWNER: u32 = u32::MAX;

/// Chase-slot marker for non-pointer references.
pub(crate) const NO_CHASE: u32 = u32::MAX;

/// One compiled op template of a statement.
#[derive(Debug, Clone)]
pub(crate) enum OpT {
    /// ALU op: fully static.
    Plain { pc: u64, kind: OpKind, dep: u16 },
    /// Load whose address is the current value of an affine slot.
    LoadSlot { pc: u64, dep: u16, slot: u32 },
    /// Store whose address is the current value of an affine slot.
    StoreSlot { pc: u64, dep: u16, slot: u32 },
    /// Reference needing runtime resolution; index into [`Plan::generals`].
    General(u32),
}

/// A reference that still resolves at run time.
#[derive(Debug, Clone)]
pub(crate) struct GeneralRef {
    /// The reference pattern, cloned out of the program.
    pub pattern: RefPattern,
    /// For an array reference, the element stride of each source
    /// dimension under the array's layout ([`elem_strides`]); empty for
    /// the other patterns.
    pub strides: Box<[i64]>,
    /// True for a store.
    pub write: bool,
    /// PCs of each resolution load followed by the final access.
    pub pcs: Box<[u64]>,
    /// Dependence distance of the final access when no resolution load
    /// precedes it (resolution loads force distance 1).
    pub bare_dep: u16,
    /// Dense pointer-chase cursor slot, or [`NO_CHASE`].
    pub chase_slot: u32,
}

/// A node of the compiled program tree, addressed by index.
#[derive(Debug, Clone)]
pub(crate) enum PlanNode {
    /// A counted loop with its latch PC and compiled body.
    Loop { pc: u64, var: VarId, trip: Trip, body: Vec<u32> },
    /// A statement's op templates.
    Stmt { ops: Vec<OpT> },
    /// An assist marker.
    Marker { pc: u64, on: bool },
}

/// A compiled, reusable lowering of a [`Program`].
///
/// Compile once with [`Plan::compile`] and share it across
/// [`crate::Interp`] instances via [`crate::Interp::with_plan`], so that
/// streaming one program several times compiles it once. A plan captures
/// the program's arrays, layouts, and address map at compile time;
/// recompile after mutating the program.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) amap: AddressMap,
    pub(crate) nodes: Vec<PlanNode>,
    pub(crate) roots: Vec<u32>,
    pub(crate) generals: Vec<GeneralRef>,
    /// Initial byte address of each affine slot (all-zero environment).
    pub(crate) slot_init: Vec<i64>,
    /// Per induction variable: `(slot, byte stride)` pairs to bump when the
    /// variable changes by a delta.
    pub(crate) var_slots: Vec<Vec<(u32, i64)>>,
    pub(crate) num_chase: u32,
}

impl Plan {
    /// Compiles `program` under its default address map.
    pub fn compile(program: &Program) -> Plan {
        let amap = program.address_map();
        // env[v] stays within [0, max(0, trip.max() - 1)]: it is 0 until the
        // binding loop first runs and retains its last iteration value after.
        let mut var_max = vec![0i64; program.num_vars as usize];
        program.for_each_loop(|l| {
            if let Some(m) = var_max.get_mut(l.var.index()) {
                *m = (*m).max((l.trip.max() - 1).max(0));
            }
        });
        let mut c = Compiler {
            program,
            amap,
            var_max,
            next_site: 0,
            nodes: Vec::new(),
            generals: Vec::new(),
            slot_init: Vec::new(),
            slot_index: HashMap::new(),
            var_slots: vec![Vec::new(); program.num_vars as usize],
            chase_index: HashMap::new(),
        };
        let roots = c.compile_items(&program.items);
        Plan {
            amap: c.amap,
            nodes: c.nodes,
            roots,
            generals: c.generals,
            slot_init: c.slot_init,
            var_slots: c.var_slots,
            num_chase: c.chase_index.len() as u32,
        }
    }
}

struct Compiler<'p> {
    program: &'p Program,
    amap: AddressMap,
    var_max: Vec<i64>,
    next_site: u64,
    nodes: Vec<PlanNode>,
    generals: Vec<GeneralRef>,
    slot_init: Vec<i64>,
    /// Dedup of affine slots by (initial address, byte coefficients).
    slot_index: HashMap<(i64, Vec<(u32, i64)>), u32>,
    var_slots: Vec<Vec<(u32, i64)>>,
    chase_index: HashMap<(ArrayId, ArrayId), u32>,
}

impl Compiler<'_> {
    /// Next site PC, in the same pre-order the interpreter's original
    /// pointer-keyed map used.
    fn alloc_pc(&mut self) -> u64 {
        let pc = TEXT_BASE + self.next_site * SITE_BYTES;
        self.next_site += 1;
        pc
    }

    fn push_node(&mut self, node: PlanNode) -> u32 {
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    fn compile_items(&mut self, items: &[Item]) -> Vec<u32> {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                Item::Loop(l) => {
                    let pc = self.alloc_pc();
                    let body = self.compile_items(&l.body);
                    out.push(self.push_node(PlanNode::Loop { pc, var: l.var, trip: l.trip, body }));
                }
                Item::Block(stmts) => {
                    for s in stmts {
                        let pc = self.alloc_pc();
                        let ops = self.compile_stmt(s, pc);
                        out.push(self.push_node(PlanNode::Stmt { ops }));
                    }
                }
                Item::Marker(m) => {
                    let pc = self.alloc_pc();
                    out.push(self.push_node(PlanNode::Marker { pc, on: matches!(m, Marker::On) }));
                }
            }
        }
        out
    }

    /// Mirrors the interpreter's statement expansion symbolically: loads,
    /// then the ALU chain, then stores, tracking emission positions so every
    /// dependence distance is baked in.
    fn compile_stmt(&mut self, stmt: &Stmt, pc: u64) -> Vec<OpT> {
        let mut slot_ctr = 0u64;
        let next_pc = |ctr: &mut u64| {
            let p = pc + (*ctr).min(15) * 4;
            *ctr += 1;
            p
        };
        let mut ops = Vec::new();
        let mut pos = 0usize;
        let mut last_load: Option<usize> = None;
        for r in stmt.refs.iter().filter(|r| !r.write) {
            match self.affine_slot(&r.pattern) {
                Some(slot) => {
                    ops.push(OpT::LoadSlot { pc: next_pc(&mut slot_ctr), dep: 0, slot });
                    pos += 1;
                }
                None => {
                    let res_n = res_count(&r.pattern);
                    let pcs: Vec<u64> = (0..=res_n).map(|_| next_pc(&mut slot_ctr)).collect();
                    let g = self.general(r, pcs, 0);
                    ops.push(OpT::General(g));
                    pos += res_n + 1;
                }
            }
            last_load = Some(pos - 1);
        }
        let mut last_alu: Option<usize> = None;
        let total_alu = stmt.int_ops as usize + stmt.fp_ops as usize;
        for k in 0..total_alu {
            let kind = if k < stmt.int_ops as usize { OpKind::IntAlu } else { OpKind::FpAlu };
            let dep = if k == 0 { last_load.map_or(0, |i| (pos - i) as u16) } else { 1 };
            ops.push(OpT::Plain { pc: next_pc(&mut slot_ctr), kind, dep });
            pos += 1;
            last_alu = Some(pos - 1);
        }
        let producer = last_alu.or(last_load);
        for r in stmt.refs.iter().filter(|r| r.write) {
            let dep = |pos: usize| producer.map_or(0, |i| (pos - i).min(u16::MAX as usize) as u16);
            match self.affine_slot(&r.pattern) {
                Some(slot) => {
                    ops.push(OpT::StoreSlot { pc: next_pc(&mut slot_ctr), dep: dep(pos), slot });
                    pos += 1;
                }
                None => {
                    let res_n = res_count(&r.pattern);
                    let pcs: Vec<u64> = (0..=res_n).map(|_| next_pc(&mut slot_ctr)).collect();
                    let g = self.general(r, pcs, dep(pos));
                    ops.push(OpT::General(g));
                    pos += res_n + 1;
                }
            }
        }
        ops
    }

    fn general(&mut self, r: &Ref, pcs: Vec<u64>, bare_dep: u16) -> u32 {
        let chase_slot = match &r.pattern {
            RefPattern::Pointer { heap, next, .. } => {
                let n = self.chase_index.len() as u32;
                *self.chase_index.entry((*heap, *next)).or_insert(n)
            }
            _ => NO_CHASE,
        };
        let strides = match &r.pattern {
            RefPattern::Array { array, .. } => {
                self.program.arrays.get(array.index()).map(elem_strides).unwrap_or_default()
            }
            _ => Vec::new(),
        };
        self.generals.push(GeneralRef {
            pattern: r.pattern.clone(),
            strides: strides.into_boxed_slice(),
            write: r.write,
            pcs: pcs.into_boxed_slice(),
            bare_dep,
            chase_slot,
        });
        (self.generals.len() - 1) as u32
    }

    /// Folds an analyzable, provably in-bounds reference into an affine
    /// address slot; returns `None` when the general path must be kept.
    fn affine_slot(&mut self, pattern: &RefPattern) -> Option<u32> {
        match pattern {
            RefPattern::Scalar(s) => {
                let addr = self.amap.scalar_addr(*s).0 as i64;
                Some(self.intern_slot(addr, Vec::new()))
            }
            RefPattern::Array { array, subscripts } => {
                let decl = self.program.arrays.get(array.index())?;
                if subscripts.len() != decl.dims.len() {
                    return None;
                }
                // Every coordinate must be affine and provably inside its
                // extent for every reachable environment: `linearize` clamps
                // with rem_euclid, so the fold is only exact in-bounds.
                for (sub, &extent) in subscripts.iter().zip(&decl.dims) {
                    let Subscript::Affine(e) = sub else { return None };
                    let mut lo = e.constant_term() as i128;
                    let mut hi = lo;
                    for &(v, c) in e.terms() {
                        let max = self.var_max.get(v.index()).copied().unwrap_or(0) as i128;
                        let swing = c as i128 * max;
                        if swing < 0 {
                            lo += swing;
                        } else {
                            hi += swing;
                        }
                    }
                    if lo < 0 || hi >= extent as i128 {
                        return None;
                    }
                }
                let strides = elem_strides(decl);
                let elem = decl.elem_size as i64;
                let mut init = self.amap.array_base(*array).0 as i64;
                let mut coeffs: Vec<(u32, i64)> = Vec::new();
                for (sub, &stride) in subscripts.iter().zip(&strides) {
                    let Subscript::Affine(e) = sub else { unreachable!() };
                    init += stride * e.constant_term() * elem;
                    for &(v, c) in e.terms() {
                        // Vars beyond the program's env are constantly zero.
                        if v.index() >= self.var_slots.len() {
                            continue;
                        }
                        let byte_coeff = stride * c * elem;
                        if byte_coeff == 0 {
                            continue;
                        }
                        match coeffs.iter_mut().find(|(cv, _)| *cv == v.index() as u32) {
                            Some((_, acc)) => *acc += byte_coeff,
                            None => coeffs.push((v.index() as u32, byte_coeff)),
                        }
                    }
                }
                coeffs.retain(|&(_, c)| c != 0);
                coeffs.sort_unstable();
                Some(self.intern_slot(init, coeffs))
            }
            RefPattern::Pointer { .. } | RefPattern::StructField { .. } => None,
        }
    }

    fn intern_slot(&mut self, init: i64, coeffs: Vec<(u32, i64)>) -> u32 {
        if let Some(&slot) = self.slot_index.get(&(init, coeffs.clone())) {
            return slot;
        }
        let slot = self.slot_init.len() as u32;
        self.slot_init.push(init);
        for &(v, c) in &coeffs {
            self.var_slots[v as usize].push((slot, c));
        }
        self.slot_index.insert((init, coeffs), slot);
        slot
    }
}

/// Element stride of each source dimension of `decl` under its layout: an
/// in-bounds coordinate vector `c` lies `Σ c[k] * strides[k]` elements
/// from the array's base, the offset [`ArrayDecl::linearize`] computes.
/// A layout that lists a dimension twice adds both strides, as
/// `linearize`'s Horner loop does.
fn elem_strides(decl: &ArrayDecl) -> Vec<i64> {
    let mut strides = vec![0i64; decl.dims.len()];
    let mut mult = 1i64;
    for &src in decl.layout.order(decl.dims.len()).iter().rev() {
        strides[src] += mult;
        mult *= decl.dims[src];
    }
    strides
}

/// Number of resolution loads a pattern emits before its final access.
fn res_count(pattern: &RefPattern) -> usize {
    match pattern {
        RefPattern::Scalar(_) | RefPattern::StructField { .. } => 0,
        RefPattern::Array { subscripts, .. } => {
            subscripts.iter().filter(|s| matches!(s, Subscript::Indexed { .. })).count()
        }
        RefPattern::Pointer { .. } => 1,
    }
}
