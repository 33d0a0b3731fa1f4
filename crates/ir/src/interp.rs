//! Streaming interpreter: lowers a [`Program`] to its dynamic instruction
//! trace.
//!
//! [`Interp`] is an [`Iterator`] over [`TraceOp`]s, so arbitrarily long
//! executions stream through the processor model in constant memory. PCs are
//! assigned per static site (statement, loop latch, marker), so branch
//! predictors and instruction caches observe a stable, realistic text layout.
//!
//! Statement expansion order is: loads (with any index/pointer resolution
//! loads first), then the ALU chain (first ALU op depends on the last load),
//! then stores (depending on the last ALU op). This dependence shape is what
//! lets the out-of-order model overlap independent misses while serializing
//! pointer chases.
//!
//! Execution runs over a compiled [`Plan`] (see [`crate::plan`]): PCs,
//! dependence distances, and in-bounds affine addresses are precomputed, so
//! the per-op work here is arithmetic and slot reads, not hashing.

use crate::expr::Subscript;
use crate::ids::{Addr, VarId};
use crate::plan::{GeneralRef, OpT, Plan, PlanNode, ROOT_OWNER};
use crate::program::{AddressMap, Program, RefPattern, Trip};
use crate::region::RegionMap;
use crate::trace::{OpKind, TraceOp};
use std::borrow::Cow;

#[derive(Debug, Clone)]
enum Frame {
    /// Iterating the item list owned by loop node `owner` (or the program
    /// roots when `owner` is [`ROOT_OWNER`]).
    Items {
        owner: u32,
        pos: u32,
    },
    Loop {
        node: u32,
        iter: i64,
        trip: i64,
    },
}

/// Checkpoint of an interpreter's position within its trace: induction
/// variables, affine address slots, pointer-chase cursors, the tree-walk
/// stack, and any ops already generated but not yet yielded. Restoring into
/// an interpreter over the same program and plan resumes the trace at
/// exactly the op after [`Interp::emitted`] at capture time.
///
/// Checkpoints are position markers, not full environments: the sampled
/// execution mode takes one per interval boundary during its selection pass,
/// then jumps each representative's warmup window by restoring the nearest
/// checkpoint instead of re-streaming the prefix.
#[derive(Debug, Clone)]
pub struct InterpCheckpoint {
    env: Vec<i64>,
    slots: Vec<i64>,
    chase: Vec<i64>,
    frames: Vec<Frame>,
    /// The generated ops not yet yielded.
    pending: Vec<TraceOp>,
    emitted: u64,
}

impl InterpCheckpoint {
    /// Number of ops the interpreter had emitted when this checkpoint was
    /// taken — the trace position it restores to.
    pub fn position(&self) -> u64 {
        self.emitted
    }
}

/// Streaming trace generator over a borrowed [`Program`].
///
/// ```
/// use selcache_ir::{Interp, ProgramBuilder, Subscript};
///
/// let mut b = ProgramBuilder::new("t");
/// let a = b.array("A", &[4], 8);
/// b.loop_(4, |b, i| {
///     b.stmt(|s| { s.read(a, vec![Subscript::var(i)]).int(1); });
/// });
/// let p = b.finish().expect("valid");
/// let loads = Interp::new(&p).filter(|op| op.kind.is_mem()).count();
/// assert_eq!(loads, 4);
/// ```
pub struct Interp<'p> {
    program: &'p Program,
    plan: Cow<'p, Plan>,
    env: Vec<i64>,
    /// Current byte address of each affine slot; bumped by per-variable
    /// strides whenever a loop writes its induction variable.
    slots: Vec<i64>,
    /// Pointer-chase cursors in plan-assigned dense slots; a chain's cursor
    /// persists across statements, modelling a walk over a linked structure.
    chase: Vec<i64>,
    frames: Vec<Frame>,
    /// Ops generated but not yet yielded: `pending[head..]`. Refilled only
    /// once drained, so it holds one statement's (or latch's) ops.
    pending: Vec<TraceOp>,
    head: usize,
    /// Reusable buffer for resolution-load addresses.
    scratch: Vec<Addr>,
    emitted: u64,
    regions: Option<&'p RegionMap>,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter with the program's default address map.
    pub fn new(program: &'p Program) -> Self {
        Self::from_plan(program, Cow::Owned(Plan::compile(program)))
    }

    /// Creates an interpreter over a pre-compiled [`Plan`], sharing one
    /// compilation across several runs of the same program.
    ///
    /// The plan must have been compiled from `program` in its current state.
    pub fn with_plan(program: &'p Program, plan: &'p Plan) -> Self {
        Self::from_plan(program, Cow::Borrowed(plan))
    }

    fn from_plan(program: &'p Program, plan: Cow<'p, Plan>) -> Self {
        let slots = plan.slot_init.clone();
        let chase = vec![0; plan.num_chase as usize];
        Interp {
            program,
            plan,
            env: vec![0; program.num_vars as usize],
            slots,
            chase,
            frames: vec![Frame::Items { owner: ROOT_OWNER, pos: 0 }],
            pending: Vec::with_capacity(64),
            head: 0,
            scratch: Vec::new(),
            emitted: 0,
            regions: None,
        }
    }

    /// Creates an interpreter that stamps every emitted op with the region
    /// owning its static site, per the given [`RegionMap`].
    pub fn with_regions(program: &'p Program, regions: &'p RegionMap) -> Self {
        let mut interp = Self::new(program);
        interp.regions = Some(regions);
        interp
    }

    /// Number of ops produced so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Captures the current trace position (see [`InterpCheckpoint`]).
    pub fn checkpoint(&self) -> InterpCheckpoint {
        InterpCheckpoint {
            env: self.env.clone(),
            slots: self.slots.clone(),
            chase: self.chase.clone(),
            frames: self.frames.clone(),
            pending: self.pending[self.head..].to_vec(),
            emitted: self.emitted,
        }
    }

    /// Rewinds (or fast-forwards) to a checkpoint taken from an interpreter
    /// over the same program and plan. The caller guarantees that pairing;
    /// restoring a foreign checkpoint produces a well-defined but meaningless
    /// trace.
    pub fn restore(&mut self, ck: &InterpCheckpoint) {
        self.env.clone_from(&ck.env);
        self.slots.clone_from(&ck.slots);
        self.chase.clone_from(&ck.chase);
        self.frames.clone_from(&ck.frames);
        self.pending.clone_from(&ck.pending);
        self.head = 0;
        self.emitted = ck.emitted;
    }

    /// Advances the trace by up to `n` ops without yielding them. Returns
    /// the number of ops actually consumed (less than `n` only when the
    /// trace ends) and the direction of the last assist marker passed, if
    /// any — the sampled execution mode uses it to reconstruct the
    /// hierarchy's assist-enabled flag at the point detailed simulation
    /// resumes.
    pub fn advance(&mut self, n: u64) -> (u64, Option<bool>) {
        let mut consumed = 0;
        let mut last_assist = None;
        while consumed < n {
            let Some(op) = self.next() else {
                break;
            };
            match op.kind {
                OpKind::AssistOn => last_assist = Some(true),
                OpKind::AssistOff => last_assist = Some(false),
                _ => {}
            }
            consumed += 1;
        }
        (consumed, last_assist)
    }

    /// Writes an induction variable and bumps every affine slot whose
    /// address depends on it by `delta * stride` — the loop-latch increment
    /// that replaces per-access subscript evaluation.
    fn set_var(&mut self, var: VarId, value: i64) {
        let old = std::mem::replace(&mut self.env[var.index()], value);
        let delta = value - old;
        if delta == 0 {
            return;
        }
        let plan = &*self.plan;
        for &(slot, coeff) in &plan.var_slots[var.index()] {
            self.slots[slot as usize] += delta * coeff;
        }
    }

    /// Called once every pending op has been read: advances the tree walk
    /// until at least one op is pending or the walk is complete. Returns
    /// false when complete and nothing is pending.
    fn refill(&mut self) -> bool {
        self.pending.clear();
        self.head = 0;
        while self.pending.is_empty() {
            let plan = &*self.plan;
            // Copy out what the next step needs so no frame borrow lives
            // across the emission calls below.
            let next: Option<u32> = match self.frames.last_mut() {
                None => return false,
                Some(Frame::Items { owner, pos }) => {
                    let list: &[u32] = if *owner == ROOT_OWNER {
                        &plan.roots
                    } else {
                        match &plan.nodes[*owner as usize] {
                            PlanNode::Loop { body, .. } => body,
                            _ => unreachable!("items frame owned by non-loop node"),
                        }
                    };
                    if *pos as usize >= list.len() {
                        None
                    } else {
                        let node = list[*pos as usize];
                        *pos += 1;
                        Some(node)
                    }
                }
                // A loop frame is always covered by an Items frame for its
                // body; it can never be on top here.
                Some(Frame::Loop { .. }) => unreachable!("loop frame without body frame"),
            };
            match next {
                None => {
                    self.frames.pop();
                    self.finish_loop_iteration();
                }
                Some(ni) => match &plan.nodes[ni as usize] {
                    PlanNode::Stmt { ops } => exec_stmt(
                        self.program,
                        plan,
                        &self.env,
                        &self.slots,
                        &mut self.chase,
                        &mut self.scratch,
                        &mut self.pending,
                        ops,
                    ),
                    PlanNode::Marker { pc, on } => {
                        let kind = if *on { OpKind::AssistOn } else { OpKind::AssistOff };
                        self.pending.push(TraceOp::new(*pc, kind));
                    }
                    PlanNode::Loop { pc, var, trip, .. } => {
                        let (pc, var, trip) = (*pc, *var, *trip);
                        self.enter_loop(ni, pc, var, trip);
                    }
                },
            }
        }
        true
    }

    fn enter_loop(&mut self, node: u32, pc: u64, var: VarId, trip_spec: Trip) {
        let trip = trip_spec.eval(&self.env);
        // Index initialization.
        self.pending.push(TraceOp::new(pc, OpKind::IntAlu));
        if trip <= 0 {
            // Loop test fails immediately: one not-taken branch.
            self.pending.push(TraceOp::with_dep(pc + 8, OpKind::Branch { taken: false }, 1));
            return;
        }
        self.set_var(var, 0);
        self.frames.push(Frame::Loop { node, iter: 0, trip });
        self.frames.push(Frame::Items { owner: node, pos: 0 });
    }

    /// Called when an `Items` frame is exhausted; if the frame below is a
    /// loop, emit the latch and either restart the body or pop the loop.
    fn finish_loop_iteration(&mut self) {
        let (node, taken, new_iter) = match self.frames.last_mut() {
            Some(Frame::Loop { node, iter, trip }) => {
                *iter += 1;
                (*node, *iter < *trip, *iter)
            }
            _ => return,
        };
        let (pc, var) = match &self.plan.nodes[node as usize] {
            PlanNode::Loop { pc, var, .. } => (*pc, *var),
            _ => unreachable!("loop frame points at non-loop node"),
        };
        // Index increment + backward branch.
        self.pending.push(TraceOp::new(pc + 4, OpKind::IntAlu));
        self.pending.push(TraceOp::with_dep(pc + 8, OpKind::Branch { taken }, 1));
        if taken {
            self.set_var(var, new_iter);
            self.frames.push(Frame::Items { owner: node, pos: 0 });
        } else {
            self.frames.pop();
        }
    }
}

/// Emits a compiled statement's ops into the pending buffer.
///
/// A free function over the interpreter's disjoint fields so the plan borrow
/// can live alongside the mutable pending/chase borrows.
#[allow(clippy::too_many_arguments)]
fn exec_stmt(
    program: &Program,
    plan: &Plan,
    env: &[i64],
    slots: &[i64],
    chase: &mut [i64],
    scratch: &mut Vec<Addr>,
    pending: &mut Vec<TraceOp>,
    ops: &[OpT],
) {
    for op in ops {
        match *op {
            OpT::Plain { pc, kind, dep } => pending.push(TraceOp::with_dep(pc, kind, dep)),
            OpT::LoadSlot { pc, dep, slot } => {
                let addr = Addr(slots[slot as usize] as u64);
                pending.push(TraceOp::with_dep(pc, OpKind::Load(addr), dep));
            }
            OpT::StoreSlot { pc, dep, slot } => {
                let addr = Addr(slots[slot as usize] as u64);
                pending.push(TraceOp::with_dep(pc, OpKind::Store(addr), dep));
            }
            OpT::General(gi) => {
                let g = &plan.generals[gi as usize];
                scratch.clear();
                let addr = resolve_general(program, &plan.amap, env, chase, g, scratch);
                let n = scratch.len();
                if g.write {
                    for (i, &ra) in scratch.iter().enumerate() {
                        pending.push(TraceOp::new(g.pcs[i], OpKind::Load(ra)));
                    }
                    let dep = if n == 0 { g.bare_dep } else { 1 };
                    pending.push(TraceOp::with_dep(g.pcs[n], OpKind::Store(addr), dep));
                } else {
                    let mut dep = 0u16;
                    for (i, &ra) in scratch.iter().enumerate() {
                        pending.push(TraceOp::with_dep(g.pcs[i], OpKind::Load(ra), dep));
                        dep = 1; // the next access depends on this resolution load
                    }
                    pending.push(TraceOp::with_dep(g.pcs[n], OpKind::Load(addr), dep));
                }
            }
        }
    }
}

/// Computes the final data address of a general reference, pushing any
/// resolution-load addresses (index-array reads, pointer next-table reads)
/// into `resolution`.
fn resolve_general(
    program: &Program,
    amap: &AddressMap,
    env: &[i64],
    chase: &mut [i64],
    g: &GeneralRef,
    resolution: &mut Vec<Addr>,
) -> Addr {
    match &g.pattern {
        RefPattern::Scalar(s) => amap.scalar_addr(*s),
        RefPattern::Array { array, subscripts } => {
            let decl = &program.arrays[array.index()];
            // `ArrayDecl::linearize` in place: each coordinate is clamped
            // into its extent and scaled by its stride. A subscript beyond
            // the dimension count still resolves (its index load is
            // real) but does not move the address; a missing one is 0.
            let mut dims = decl.dims.iter().zip(&*g.strides);
            let mut off = 0i64;
            for s in subscripts {
                let c = eval_subscript(program, amap, env, s, resolution);
                if let Some((&extent, &stride)) = dims.next() {
                    off += wrap(c, extent) * stride;
                }
            }
            amap.array_base(*array).offset(off as u64 * decl.elem_size)
        }
        RefPattern::Pointer { heap, next, field_offset } => {
            let heap_decl = &program.arrays[heap.index()];
            let next_decl = &program.arrays[next.index()];
            let next_data = next_decl.data.as_ref().expect("validated next-table data");
            let cursor = &mut chase[g.chase_slot as usize];
            let node = (*cursor).rem_euclid(heap_decl.len().max(1));
            let next_addr = amap.array_base(*next).offset(
                node.rem_euclid(next_data.len().max(1) as i64) as u64 * next_decl.elem_size,
            );
            let field = (*field_offset).clamp(0, heap_decl.elem_size.saturating_sub(1) as i64);
            let node_addr =
                amap.array_base(*heap).offset(node as u64 * heap_decl.elem_size + field as u64);
            *cursor = next_data[node.rem_euclid(next_data.len().max(1) as i64) as usize];
            resolution.push(next_addr);
            node_addr
        }
        RefPattern::StructField { array, index, field_offset } => {
            let decl = &program.arrays[array.index()];
            let idx = index.eval(env).rem_euclid(decl.len().max(1));
            let field = (*field_offset).clamp(0, decl.elem_size.saturating_sub(1) as i64);
            amap.array_base(*array).offset(idx as u64 * decl.elem_size + field as u64)
        }
    }
}

/// `c.rem_euclid(n)` without the division for a coordinate already in
/// `[0, n)`, as nearly every coordinate of the benchmarks is.
#[inline]
fn wrap(c: i64, n: i64) -> i64 {
    if (0..n).contains(&c) {
        c
    } else {
        c.rem_euclid(n)
    }
}

fn eval_subscript(
    program: &Program,
    amap: &AddressMap,
    env: &[i64],
    s: &Subscript,
    resolution: &mut Vec<Addr>,
) -> i64 {
    let v = |id: crate::ids::VarId| env.get(id.index()).copied().unwrap_or(0);
    match s {
        Subscript::Affine(e) => e.eval(env),
        Subscript::Product(a, b) => v(*a) * v(*b),
        Subscript::Square(a) => v(*a) * v(*a),
        Subscript::Quotient(a, b) => {
            let d = v(*b);
            if d == 0 {
                0
            } else {
                v(*a) / d
            }
        }
        Subscript::Modulo(a, m) => {
            debug_assert!(*m > 0, "modulus must be positive");
            v(*a).rem_euclid((*m).max(1))
        }
        Subscript::Indexed { index_array, index, offset } => {
            let decl = &program.arrays[index_array.index()];
            let data = decl.data.as_ref().expect("validated index data");
            let pos = wrap(index.eval(env), data.len().max(1) as i64);
            resolution.push(amap.array_base(*index_array).offset(pos as u64 * decl.elem_size));
            data[pos as usize] + offset
        }
    }
}

impl Iterator for Interp<'_> {
    type Item = TraceOp;

    // `#[inline]`: every simulation pass calls this once per dynamic op
    // from other crates; the fast path (read the next pending op) is a
    // handful of instructions and must not pay a cross-crate call.
    #[inline]
    fn next(&mut self) -> Option<TraceOp> {
        if self.head == self.pending.len() && !self.refill() {
            return None;
        }
        self.emitted += 1;
        let mut op = self.pending[self.head];
        self.head += 1;
        if let Some(map) = self.regions {
            op.region = map.region_of_pc(op.pc);
        }
        Some(op)
    }
}

/// Convenience: the total number of dynamic instructions a program executes.
///
/// Runs the interpreter to completion; intended for tests and sizing, not for
/// hot paths.
pub fn trace_len(program: &Program) -> u64 {
    Interp::new(program).count() as u64
}

// Parallel sampled simulation moves interpreters and checkpoints across
// threads (one restore+warmup+measure per worker), so both must stay
// Send + Sync. Assert it at compile time so a stray Rc/RefCell/raw
// pointer in a future edit fails here, next to the types, rather than in
// a distant executor call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<InterpCheckpoint>();
    assert_send_sync::<Interp<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::AffineExpr;
    use crate::ids::VarId;
    use crate::program::Marker;

    fn simple_sweep(n: i64) -> Program {
        let mut b = ProgramBuilder::new("sweep");
        let a = b.array("A", &[n], 8);
        b.loop_(n, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i)]).fp(1).write(a, vec![Subscript::var(i)]);
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn sweep_op_counts() {
        let p = simple_sweep(4);
        let ops: Vec<_> = Interp::new(&p).collect();
        // per iteration: load, fp, store, incr, branch = 5; plus 1 init.
        assert_eq!(ops.len(), 4 * 5 + 1);
        let loads = ops.iter().filter(|o| matches!(o.kind, OpKind::Load(_))).count();
        let stores = ops.iter().filter(|o| matches!(o.kind, OpKind::Store(_))).count();
        assert_eq!((loads, stores), (4, 4));
    }

    #[test]
    fn sweep_addresses_are_sequential() {
        let p = simple_sweep(4);
        let addrs: Vec<u64> = Interp::new(&p)
            .filter_map(|o| match o.kind {
                OpKind::Load(a) => Some(a.0),
                _ => None,
            })
            .collect();
        assert_eq!(addrs.len(), 4);
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
    }

    #[test]
    fn branch_directions() {
        let p = simple_sweep(3);
        let branches: Vec<bool> = Interp::new(&p)
            .filter_map(|o| match o.kind {
                OpKind::Branch { taken } => Some(taken),
                _ => None,
            })
            .collect();
        assert_eq!(branches, vec![true, true, false]);
    }

    #[test]
    fn zero_trip_loop_emits_init_and_fallthrough() {
        let mut b = ProgramBuilder::new("z");
        b.loop_(0, |b, _| {
            b.stmt(|s| {
                s.int(1);
            });
        });
        let p = b.finish().unwrap();
        let ops: Vec<_> = Interp::new(&p).collect();
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[1].kind, OpKind::Branch { taken: false }));
    }

    #[test]
    fn column_major_changes_stride() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("A", &[8, 8], 8);
        b.nest2(2, 2, |b, i, j| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i), Subscript::var(j)]);
            });
        });
        let mut p = b.finish().unwrap();
        let row: Vec<u64> = Interp::new(&p).filter_map(|o| o.kind.addr().map(|a| a.0)).collect();
        p.arrays[0].layout = crate::program::Layout::ColMajor;
        let col: Vec<u64> = Interp::new(&p).filter_map(|o| o.kind.addr().map(|a| a.0)).collect();
        // row-major: A[0][0], A[0][1] are 8 bytes apart; col-major: 64 bytes.
        assert_eq!(row[1] - row[0], 8);
        assert_eq!(col[1] - col[0], 64);
    }

    #[test]
    fn gather_emits_index_load_first() {
        let mut b = ProgramBuilder::new("g");
        let x = b.array("X", &[16], 8);
        let ip = b.data_array("IP", vec![5, 3, 9, 1], 4);
        b.loop_(4, |b, j| {
            b.stmt(|s| {
                s.gather(x, ip, AffineExpr::var(j), 0);
            });
        });
        let p = b.finish().unwrap();
        let amap = p.address_map();
        let mem: Vec<_> = Interp::new(&p).filter(|o| o.kind.is_mem()).collect();
        assert_eq!(mem.len(), 8); // index load + gather load, 4 iterations
                                  // First op touches IP, second touches X at IP[0]=5.
        assert_eq!(mem[0].kind.addr().unwrap(), amap.array_base(crate::ids::ArrayId(1)));
        assert_eq!(
            mem[1].kind.addr().unwrap(),
            amap.array_base(crate::ids::ArrayId(0)).offset(5 * 8)
        );
        // The gather depends on the index load.
        assert_eq!(mem[1].dep, 1);
    }

    #[test]
    fn pointer_chase_follows_next_table() {
        let mut b = ProgramBuilder::new("p");
        let heap = b.array("H", &[4], 16);
        let next = b.data_array("N", vec![2, 3, 1, 0], 8);
        b.loop_(4, |b, _| {
            b.stmt(|s| {
                s.chase(heap, next, 8).int(1);
            });
        });
        let p = b.finish().unwrap();
        let amap = p.address_map();
        let heap_base = amap.array_base(crate::ids::ArrayId(0)).0;
        let nodes: Vec<u64> = Interp::new(&p)
            .filter_map(|o| match o.kind {
                OpKind::Load(a) if a.0 >= heap_base && a.0 < heap_base + 64 => {
                    Some((a.0 - heap_base) / 16)
                }
                _ => None,
            })
            .collect();
        // cursor path: 0 -> 2 -> 1 -> 3
        assert_eq!(nodes, vec![0, 2, 1, 3]);
    }

    #[test]
    fn marker_ops_appear_in_order() {
        let mut b = ProgramBuilder::new("m");
        b.marker(Marker::On);
        b.stmt(|s| {
            s.int(1);
        });
        b.marker(Marker::Off);
        let p = b.finish().unwrap();
        let kinds: Vec<_> = Interp::new(&p).map(|o| o.kind).collect();
        assert_eq!(kinds, vec![OpKind::AssistOn, OpKind::IntAlu, OpKind::AssistOff]);
    }

    #[test]
    fn pcs_stable_across_iterations() {
        let p = simple_sweep(3);
        let load_pcs: Vec<u64> = Interp::new(&p)
            .filter_map(|o| match o.kind {
                OpKind::Load(_) => Some(o.pc),
                _ => None,
            })
            .collect();
        assert!(load_pcs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn store_depends_on_alu() {
        let p = simple_sweep(1);
        let ops: Vec<_> = Interp::new(&p).collect();
        let store = ops.iter().find(|o| matches!(o.kind, OpKind::Store(_))).unwrap();
        assert_eq!(store.dep, 1); // directly on the fp op
        let fp = ops.iter().position(|o| o.kind == OpKind::FpAlu).unwrap();
        assert_eq!(ops[fp].dep, 1); // on the load
    }

    #[test]
    fn trace_len_matches_iterator() {
        let p = simple_sweep(10);
        assert_eq!(trace_len(&p), Interp::new(&p).count() as u64);
    }

    #[test]
    fn tile_tail_trip_executes_remainder() {
        use crate::program::Trip;
        let mut b = ProgramBuilder::new("tt");
        let a = b.array("A", &[10], 8);
        // for ii in 0..3 { for i in 0..min(4, 10-4*ii) { A[4*ii + i] } }
        b.loop_(3, |b, ii| {
            b.loop_trip(Trip::TileTail { total: 10, tile: 4, outer: ii }, |b, i| {
                b.stmt(|s| {
                    s.read(
                        a,
                        vec![Subscript::Affine(AffineExpr::from_terms([(ii, 4), (i, 1)], 0))],
                    );
                });
            });
        });
        let p = b.finish().unwrap();
        let loads: Vec<u64> = Interp::new(&p)
            .filter_map(|o| match o.kind {
                OpKind::Load(a) => Some(a.0),
                _ => None,
            })
            .collect();
        assert_eq!(loads.len(), 10);
        // All 10 elements touched exactly once, in order.
        for w in loads.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
    }

    #[test]
    fn var_out_of_scope_evaluates_to_zero() {
        // Defensive behaviour: a subscript can mention VarId(1) while only
        // loop 0 is live; it evaluates to the last value (initially 0).
        let mut b = ProgramBuilder::new("oos");
        let a = b.array("A", &[8], 8);
        b.loop_(2, |b, _| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::Affine(AffineExpr::var(VarId(7)))]);
            });
        });
        let p = b.finish().unwrap();
        let loads = Interp::new(&p).filter(|o| o.kind.is_mem()).count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn checkpoint_restore_resumes_exact_position() {
        let p = simple_sweep(20);
        let full: Vec<_> = Interp::new(&p).collect();
        let mut interp = Interp::new(&p);
        // Take a checkpoint at an awkward mid-statement position.
        for _ in 0..33 {
            interp.next();
        }
        let ck = interp.checkpoint();
        assert_eq!(ck.position(), 33);
        let tail: Vec<_> = interp.by_ref().collect();
        assert_eq!(tail, full[33..].to_vec());
        // Restore into the now-exhausted interpreter: same tail again.
        interp.restore(&ck);
        assert_eq!(interp.emitted(), 33);
        let again: Vec<_> = interp.collect();
        assert_eq!(again, tail);
        // A fresh interpreter restores to the same position too.
        let mut fresh = Interp::new(&p);
        fresh.restore(&ck);
        assert_eq!(fresh.collect::<Vec<_>>(), tail);
    }

    #[test]
    fn advance_skips_and_reports_assist_markers() {
        let mut b = ProgramBuilder::new("adv");
        let a = b.array("A", &[16], 8);
        b.marker(Marker::On);
        b.loop_(16, |b, i| {
            b.stmt(|s| {
                s.read(a, vec![Subscript::var(i)]).int(1);
            });
        });
        b.marker(Marker::Off);
        let p = b.finish().unwrap();
        let full: Vec<_> = Interp::new(&p).collect();
        let mut interp = Interp::new(&p);
        let (n, assist) = interp.advance(10);
        assert_eq!(n, 10);
        assert_eq!(assist, Some(true), "the On marker at op 0 was passed");
        assert_eq!(interp.emitted(), 10);
        assert_eq!(interp.by_ref().collect::<Vec<_>>(), full[10..].to_vec());
        // Advancing past the end reports the shortfall and the Off marker.
        let mut interp = Interp::new(&p);
        let (n, assist) = interp.advance(u64::MAX);
        assert_eq!(n, full.len() as u64);
        assert_eq!(assist, Some(false));
        // No markers inside the window: None.
        let mut interp = Interp::new(&p);
        interp.advance(1);
        let (_, assist) = interp.advance(5);
        assert_eq!(assist, None);
    }

    #[test]
    fn shared_plan_matches_owned_compilation() {
        let p = simple_sweep(6);
        let plan = Plan::compile(&p);
        let shared: Vec<_> = Interp::with_plan(&p, &plan).collect();
        let owned: Vec<_> = Interp::new(&p).collect();
        assert_eq!(shared, owned);
        // One compilation serves a second, fresh streaming pass.
        assert_eq!(Interp::with_plan(&p, &plan).count(), shared.len());
    }
}
