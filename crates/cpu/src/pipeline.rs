//! The trace-driven out-of-order pipeline.
//!
//! Structure per simulated cycle: **commit** (in order, up to the commit
//! width), **issue** (out of order from the RUU, bounded by issue width and
//! memory ports; operands must be complete), **fetch/dispatch** (in order,
//! bounded by fetch width, RUU and LSQ occupancy; branches consult the
//! bimodal predictor and a misprediction blocks fetch until the branch
//! resolves plus a refill penalty; instruction-cache misses stall fetch).
//!
//! Memory operations perform their hierarchy access at issue time; the
//! access latency becomes the op's completion latency. `AssistOn`/`AssistOff`
//! markers toggle the hierarchy's assist flag at dispatch (in program order
//! with respect to all later dispatches) and cost one pipeline slot each —
//! the instruction overhead the paper accounts for.
//!
//! Cycles in which no stage can act are not stepped: after each cycle the
//! clock jumps to the earliest cycle at which commit, issue or fetch can act,
//! and the span in between reaches the probe as counts. Issue considers only
//! ops whose operand is complete: each dispatched op is ready, or waits on
//! its producer's list until the producer's completion cycle, which a
//! cycle wheel announces.

use crate::config::{CpuConfig, CpuModel};
use crate::predictor::Bimodal;
use crate::stats::{CpuStats, CpuStatsProbe};
use selcache_ir::{OpKind, RegionId, TraceOp};
use selcache_mem::{MemoryHierarchy, NullProbe, Probe, Site};

/// End of a waiter or wakeup list.
const NO_OP: u64 = u64::MAX;

/// Buckets of the wakeup wheel: one per cycle of the next 1024.
const WHEEL: usize = 1024;

#[derive(Debug, Clone, Copy)]
struct Slot {
    pc: u64,
    region: RegionId,
    kind: OpKind,
    issued: bool,
    ready_at: u64,
    is_mem: bool,
    /// First op waiting on this op's result ([`NO_OP`] when none); the list
    /// continues through the waiters' `next_waiter` links.
    waiters: u64,
    /// Next op waiting on the same producer as this one.
    next_waiter: u64,
    /// Next producer in this op's wakeup-wheel bucket.
    next_wake: u64,
}

/// The contents of a ring slot no op has used yet.
const FREE_SLOT: Slot = Slot {
    pc: 0,
    region: RegionId::NONE,
    kind: OpKind::IntAlu,
    issued: false,
    ready_at: 0,
    is_mem: false,
    waiters: NO_OP,
    next_waiter: NO_OP,
    next_wake: NO_OP,
};

/// Ready-list record: an unissued op whose operand is complete.
#[derive(Debug, Clone, Copy)]
struct ReadyEntry {
    seq: u64,
    class: UnitClass,
}

impl Slot {
    fn site(&self) -> Site {
        Site::new(self.pc, self.region)
    }
}

/// Functional-unit class an op contends for; mirrors the `unit_free` check
/// in [`Pipeline::issue`] exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitClass {
    Mem,
    Int,
    Fp,
}

impl UnitClass {
    fn of(kind: OpKind) -> UnitClass {
        match kind {
            OpKind::Load(_) | OpKind::Store(_) => UnitClass::Mem,
            OpKind::FpAlu => UnitClass::Fp,
            _ => UnitClass::Int,
        }
    }
}

/// An out-of-order (or in-order, per [`CpuModel`]) processor pipeline.
///
/// ```
/// use selcache_cpu::{CpuConfig, Pipeline};
/// use selcache_ir::{OpKind, TraceOp};
/// use selcache_mem::{AssistKind, HierarchyConfig, MemoryHierarchy};
///
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
/// let trace = (0..2000).map(|i| TraceOp::new(0x40_0000 + (i % 8) * 4, OpKind::IntAlu));
/// let stats = Pipeline::new(CpuConfig::paper_base()).run(trace, &mut mem);
/// assert_eq!(stats.committed, 2000);
/// assert!(stats.ipc() > 1.0);
/// ```
#[derive(Debug)]
pub struct Pipeline {
    cfg: CpuConfig,
    predictor: Bimodal,
    stats: CpuStatsProbe,
    /// The RUU as a ring of `ruu_entries.next_power_of_two()` slots: op
    /// `seq` lives at `seq & ruu_mask`, and the ops in flight are
    /// `front..seq`.
    ruu: Box<[Slot]>,
    ruu_mask: u64,
    /// Sequence number of the oldest op in flight (`seq` when none is).
    front: u64,
    lsq_used: u32,
    /// The unissued ops whose operand is complete, in sequence order: the
    /// issue stage's only candidates, in the order a front-to-back RUU scan
    /// would meet them.
    ready: Vec<ReadyEntry>,
    /// Issued producers with waiters, by completion cycle: at that cycle
    /// their waiters join [`Pipeline::ready`]. Bucket `c % WHEEL` lists,
    /// through [`Slot::next_wake`], the producers completing at cycle `c`
    /// of the next [`WHEEL`]; `wheel_bits` marks the non-empty buckets.
    wheel: Box<[u64]>,
    wheel_bits: [u64; WHEEL / 64],
    /// `(cycle, producer)` wakeups [`WHEEL`] or more cycles ahead when
    /// scheduled.
    late: Vec<(u64, u64)>,
    /// The op after the last one issued. Under the in-order model this is
    /// the oldest unissued op: in-order issue keeps the unissued ops a
    /// contiguous run ending at the youngest.
    next_in_order: u64,
    /// `log2(fetch_block)` when the fetch-block size is a power of two
    /// (`u32::MAX` otherwise): fetch-block numbering shifts instead of
    /// dividing on every dispatched op.
    fetch_shift: u32,
    cycle: u64,
    seq: u64,
    fetch_resume: u64,
    blocked_on: Option<u64>,
    last_fetch_block: u64,
    staged: Option<TraceOp>,
    done_fetching: bool,
    /// Region the pipeline is currently attributed to: the region of the
    /// oldest in-flight instruction, held over empty-RUU cycles.
    cur_region: RegionId,
}

impl Pipeline {
    /// Creates a pipeline with fresh predictor state.
    ///
    /// # Panics
    ///
    /// Panics if the integer or floating-point latency is zero: a consumer
    /// becomes ready no earlier than the cycle after its producer issues.
    /// Panics, naming the field, if a width, queue or unit count is zero:
    /// an op that needs it could never dispatch or issue, and
    /// [`Pipeline::run`] would step forever.
    pub fn new(cfg: CpuConfig) -> Self {
        assert!(
            cfg.int_latency > 0 && cfg.fp_latency > 0,
            "pipeline latencies must be at least one cycle"
        );
        for (field, n) in [
            ("issue_width", cfg.issue_width),
            ("fetch_width", cfg.fetch_width),
            ("commit_width", cfg.commit_width),
            ("ruu_entries", cfg.ruu_entries),
            ("lsq_entries", cfg.lsq_entries),
            ("mem_ports", cfg.mem_ports),
            ("int_units", cfg.int_units),
            ("fp_units", cfg.fp_units),
        ] {
            assert!(n > 0, "CpuConfig::{field} must be at least 1");
        }
        let ring = cfg.ruu_entries.next_power_of_two() as usize;
        Pipeline {
            predictor: Bimodal::new(cfg.predictor_entries),
            stats: CpuStatsProbe::default(),
            ruu: vec![FREE_SLOT; ring].into_boxed_slice(),
            ruu_mask: ring as u64 - 1,
            front: 0,
            lsq_used: 0,
            ready: Vec::with_capacity(cfg.ruu_entries as usize),
            wheel: vec![NO_OP; WHEEL].into_boxed_slice(),
            wheel_bits: [0; WHEEL / 64],
            late: Vec::new(),
            next_in_order: 0,
            fetch_shift: if cfg.fetch_block.is_power_of_two() {
                cfg.fetch_block.trailing_zeros()
            } else {
                u32::MAX
            },
            cycle: 0,
            seq: 0,
            fetch_resume: 0,
            blocked_on: None,
            last_fetch_block: u64::MAX,
            staged: None,
            done_fetching: false,
            cur_region: RegionId::NONE,
            cfg,
        }
    }

    /// Creates a pipeline whose branch predictor starts from `predictor`
    /// (e.g. one warmed functionally by the sampled execution mode via
    /// [`Bimodal::update`]) instead of a cold table. The caller is
    /// responsible for sizing the predictor consistently with `cfg`.
    pub fn with_predictor(cfg: CpuConfig, predictor: Bimodal) -> Self {
        let mut p = Pipeline::new(cfg);
        p.predictor = predictor;
        p
    }

    /// Runs the given trace to completion against `mem` and returns the
    /// accumulated statistics. The pipeline can be reused for another trace;
    /// predictor and statistics carry over (create a new [`Pipeline`] for an
    /// independent run).
    ///
    /// # Panics
    ///
    /// Panics if `mem` has a zero L1 latency (see [`Pipeline::new`]).
    pub fn run(
        &mut self,
        trace: impl IntoIterator<Item = TraceOp>,
        mem: &mut MemoryHierarchy,
    ) -> CpuStats {
        self.run_probed(trace, mem, &mut NullProbe)
    }

    /// [`Pipeline::run`] with event instrumentation: `probe` observes every
    /// cycle, commit, stall, misprediction, assist toggle and memory-system
    /// event, each attributed to the PC and region of the instruction that
    /// caused it. Idle spans arrive as counts ([`Probe::cycles`],
    /// [`Probe::issue_stalls`], [`Probe::fetch_stalls`]), so the totals
    /// equal one event per cycle. The built-in [`CpuStats`] accounting runs
    /// alongside unconditionally; with [`NullProbe`] this monomorphizes to
    /// the plain [`Pipeline::run`] path.
    ///
    /// # Panics
    ///
    /// Panics if `mem` has a zero L1 latency (see [`Pipeline::new`]).
    pub fn run_probed<P: Probe>(
        &mut self,
        trace: impl IntoIterator<Item = TraceOp>,
        mem: &mut MemoryHierarchy,
        probe: &mut P,
    ) -> CpuStats {
        assert!(mem.config().l1_latency > 0, "the L1 latency must be at least one cycle");
        let mut trace = trace.into_iter();
        self.done_fetching = false;
        // Move the default probe out of `self` so both it and the caller's
        // probe can fan out through one tuple while `self` stays mutable.
        let mut default_probe = std::mem::take(&mut self.stats);
        let mut fan = (&mut default_probe, probe);
        while !(self.done_fetching && self.in_flight() == 0 && self.staged.is_none()) {
            if let Some(front) = self.oldest() {
                self.cur_region = front.region;
            }
            fan.cycles(self.cur_region, 1);
            self.wake();
            self.commit(&mut fan);
            self.issue(mem, &mut fan);
            self.fetch(&mut trace, mem, &mut fan);
            self.cycle += 1;
            self.skip_idle(&mut fan);
        }
        default_probe.stats.cycles = self.cycle;
        self.stats = default_probe;
        self.stats.stats()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats.stats
    }

    /// Number of ops in the RUU.
    fn in_flight(&self) -> u64 {
        self.seq - self.front
    }

    /// The oldest op in the RUU.
    fn oldest(&self) -> Option<&Slot> {
        (self.in_flight() > 0).then(|| &self.ruu[(self.front & self.ruu_mask) as usize])
    }

    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        &mut self.ruu[(seq & self.ruu_mask) as usize]
    }

    /// Enters issued `producer` for a wakeup at cycle `at`, later than now.
    fn schedule_wakeup(&mut self, at: u64, producer: u64) {
        if at - self.cycle >= WHEEL as u64 {
            self.late.push((at, producer));
            return;
        }
        let b = at as usize % WHEEL;
        let head = std::mem::replace(&mut self.wheel[b], producer);
        self.slot_mut(producer).next_wake = head;
        self.wheel_bits[b / 64] |= 1 << (b % 64);
    }

    /// The cycle of the next wakeup ([`u64::MAX`] when none is scheduled).
    fn next_wakeup(&self) -> u64 {
        let late = self.late.iter().map(|&(at, _)| at).min().unwrap_or(u64::MAX);
        // Every wheel entry completes within the next `WHEEL` cycles, so the
        // first marked bucket at or after now's is the nearest: search the
        // rest of now's word, the other words, then the start of now's word.
        let start = self.cycle as usize % WHEEL;
        let words = self.wheel_bits.len();
        for i in 0..=words {
            let w = (start / 64 + i) % words;
            let bits = match i {
                0 => self.wheel_bits[w] & (!0 << (start % 64)),
                _ if i == words => self.wheel_bits[w] & ((1 << (start % 64)) - 1),
                _ => self.wheel_bits[w],
            };
            if bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                return late.min(self.cycle + ((b + WHEEL - start) % WHEEL) as u64);
            }
        }
        late
    }

    /// Moves the waiters of every producer completing at this cycle into
    /// the ready list. Runs before commit, so each producer is still in
    /// the RUU. The clock never jumps past a wakeup, so the bucket of this
    /// cycle holds exactly the producers completing now.
    fn wake(&mut self) {
        let b = self.cycle as usize % WHEEL;
        if self.wheel_bits[b / 64] & (1 << (b % 64)) != 0 {
            self.wheel_bits[b / 64] &= !(1 << (b % 64));
            let mut producer = std::mem::replace(&mut self.wheel[b], NO_OP);
            while producer != NO_OP {
                let next = self.slot_mut(producer).next_wake;
                self.release(producer);
                producer = next;
            }
        }
        let mut i = 0;
        while i < self.late.len() {
            if self.late[i].0 == self.cycle {
                let (_, producer) = self.late.swap_remove(i);
                self.release(producer);
            } else {
                i += 1;
            }
        }
    }

    /// Moves `producer`'s waiters into the ready list at their sequence
    /// positions, so the order of releases within a cycle cannot matter.
    fn release(&mut self, producer: u64) {
        let mut w = std::mem::replace(&mut self.slot_mut(producer).waiters, NO_OP);
        while w != NO_OP {
            let slot = &self.ruu[(w & self.ruu_mask) as usize];
            let entry = ReadyEntry { seq: w, class: UnitClass::of(slot.kind) };
            w = slot.next_waiter;
            let pos = self.ready.partition_point(|e| e.seq < entry.seq);
            self.ready.insert(pos, entry);
        }
    }

    /// Jumps the clock to the next cycle at which commit, issue or fetch
    /// can act, and reports the cycles passed over: each belongs to the
    /// current region, is an issue stall while the RUU holds ops, and is a
    /// fetch stall while fetch is blocked — what stepping them one at a
    /// time would report.
    fn skip_idle<P: Probe>(&mut self, probe: &mut P) {
        let fetching = !(self.done_fetching && self.staged.is_none());
        if !fetching && self.in_flight() == 0 {
            return;
        }
        let now = self.cycle;
        // Issue: a ready op now (in order, only the oldest unissued one).
        let in_order = self.cfg.model == CpuModel::InOrder;
        if self.ready.first().is_some_and(|e| !in_order || e.seq == self.next_in_order) {
            return;
        }
        // Commit: the head's completion.
        let mut next = match self.oldest() {
            Some(head) if head.issued => head.ready_at,
            _ => u64::MAX,
        };
        // Fetch: once the resume cycle comes, unless a mispredicted branch
        // blocks it or the RUU or LSQ has no room (only commit frees them).
        let room = self.in_flight() < u64::from(self.cfg.ruu_entries)
            && !(self.staged.is_some() && self.lsq_used == self.cfg.lsq_entries);
        if fetching && self.blocked_on.is_none() && room {
            next = next.min(self.fetch_resume);
        }
        if next <= now {
            return;
        }
        // Issue again: the next wakeup.
        next = next.min(self.next_wakeup());
        if next <= now || next == u64::MAX {
            return;
        }
        let span = next - now;
        if let Some(front) = self.oldest() {
            self.cur_region = front.region;
        }
        probe.cycles(self.cur_region, span);
        if self.in_flight() > 0 {
            probe.issue_stalls(span);
        }
        if fetching {
            let stalled = if self.blocked_on.is_some() {
                span
            } else {
                self.fetch_resume.saturating_sub(now).min(span)
            };
            if stalled > 0 {
                probe.fetch_stalls(stalled);
            }
        }
        self.cycle = next;
    }

    fn commit<P: Probe>(&mut self, probe: &mut P) {
        let mut n = 0;
        while n < self.cfg.commit_width {
            let Some(&slot) = self.oldest() else {
                break;
            };
            if !slot.issued || slot.ready_at > self.cycle {
                break;
            }
            self.front += 1;
            if slot.is_mem {
                self.lsq_used -= 1;
            }
            probe.commit(slot.site(), slot.kind);
            n += 1;
        }
    }

    fn issue<P: Probe>(&mut self, mem: &mut MemoryHierarchy, probe: &mut P) {
        if self.in_flight() == 0 {
            return;
        }
        let in_order = self.cfg.model == CpuModel::InOrder;
        let mut issued = 0;
        let mut unit_used = [0u32; 3];
        let unit_limit = [self.cfg.mem_ports, self.cfg.int_units, self.cfg.fp_units];
        let cycle = self.cycle;
        let mut resolved_block: Option<u64> = None;
        // Walk the ready list in sequence order. Entries whose op issues are
        // dropped by compacting in place; a break leaves the tail untouched.
        let mut q = std::mem::take(&mut self.ready);
        let mut read = 0;
        let mut write = 0;
        while read < q.len() && issued < self.cfg.issue_width {
            let entry = q[read];
            let class = entry.class as usize;
            // In order, an older op still waiting on its operand blocks
            // everything behind it.
            if unit_used[class] >= unit_limit[class]
                || (in_order && entry.seq != self.next_in_order)
            {
                if in_order {
                    break;
                }
                q[write] = entry;
                write += 1;
                read += 1;
                continue;
            }
            let (kind, site) = {
                let slot = self.slot_mut(entry.seq);
                (slot.kind, slot.site())
            };
            let latency = match kind {
                OpKind::IntAlu | OpKind::AssistOn | OpKind::AssistOff => self.cfg.int_latency,
                OpKind::Branch { .. } => self.cfg.int_latency,
                OpKind::FpAlu => self.cfg.fp_latency,
                OpKind::Load(a) => mem.data_access_probed(a, false, cycle, site, probe),
                OpKind::Store(a) => mem.data_access_probed(a, true, cycle, site, probe),
            };
            let slot = self.slot_mut(entry.seq);
            slot.issued = true;
            slot.ready_at = cycle + latency;
            if slot.waiters != NO_OP {
                self.schedule_wakeup(cycle + latency, entry.seq);
            }
            unit_used[class] += 1;
            issued += 1;
            self.next_in_order = entry.seq + 1;
            if self.blocked_on == Some(entry.seq) {
                resolved_block = Some(cycle + latency + self.cfg.mispredict_penalty);
            }
            read += 1;
        }
        if write < read {
            q.copy_within(read.., write);
            q.truncate(q.len() - (read - write));
        }
        self.ready = q;
        if let Some(resume) = resolved_block {
            self.blocked_on = None;
            self.fetch_resume = self.fetch_resume.max(resume);
        }
        if issued == 0 {
            probe.issue_stalls(1);
        }
    }

    fn fetch<P: Probe>(
        &mut self,
        trace: &mut impl Iterator<Item = TraceOp>,
        mem: &mut MemoryHierarchy,
        probe: &mut P,
    ) {
        if self.done_fetching && self.staged.is_none() {
            return;
        }
        if self.blocked_on.is_some() || self.cycle < self.fetch_resume {
            probe.fetch_stalls(1);
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width {
            if self.in_flight() == u64::from(self.cfg.ruu_entries) {
                break;
            }
            let op = match self.staged.take().or_else(|| trace.next()) {
                Some(op) => op,
                None => {
                    self.done_fetching = true;
                    break;
                }
            };
            let is_mem = op.kind.is_mem();
            if is_mem && self.lsq_used == self.cfg.lsq_entries {
                self.staged = Some(op);
                break;
            }
            // Instruction fetch for a new fetch block.
            let fb = if self.fetch_shift < 64 {
                op.pc >> self.fetch_shift
            } else {
                op.pc / self.cfg.fetch_block
            };
            if fb != self.last_fetch_block {
                self.last_fetch_block = fb;
                let lat =
                    mem.inst_fetch_probed(op.pc, self.cycle, Site::new(op.pc, op.region), probe);
                if lat > 0 {
                    self.fetch_resume = self.cycle + lat;
                }
            }
            match op.kind {
                OpKind::Branch { taken } => {
                    let correct = self.predictor.update(op.pc, taken);
                    if !correct {
                        probe.mispredict(Site::new(op.pc, op.region));
                        self.blocked_on = Some(self.seq);
                    }
                }
                OpKind::AssistOn => {
                    mem.set_assist_enabled(true);
                    probe.assist_toggle(Site::new(op.pc, op.region), true);
                }
                OpKind::AssistOff => {
                    mem.set_assist_enabled(false);
                    probe.assist_toggle(Site::new(op.pc, op.region), false);
                }
                _ => {}
            }
            // The op is ready unless its producer is still in the RUU and
            // completes after the next issue scan; then it joins the
            // producer's waiters (and the producer, once issued, the
            // wakeups). A producer before the trace start or already
            // committed counts as complete.
            let dep = u64::from(op.dep);
            let mut next_waiter = NO_OP;
            let mut waiting = false;
            if dep != 0 && dep <= self.seq && self.seq - dep >= self.front {
                let producer_seq = self.seq - dep;
                let (seq, cycle) = (self.seq, self.cycle);
                let producer = self.slot_mut(producer_seq);
                if !producer.issued || producer.ready_at > cycle + 1 {
                    let first_waiter_of_issued = producer.issued && producer.waiters == NO_OP;
                    let ready_at = producer.ready_at;
                    next_waiter = producer.waiters;
                    producer.waiters = seq;
                    waiting = true;
                    if first_waiter_of_issued {
                        self.schedule_wakeup(ready_at, producer_seq);
                    }
                }
            }
            if !waiting {
                self.ready.push(ReadyEntry { seq: self.seq, class: UnitClass::of(op.kind) });
            }
            *self.slot_mut(self.seq) = Slot {
                pc: op.pc,
                region: op.region,
                kind: op.kind,
                issued: false,
                ready_at: 0,
                is_mem,
                waiters: NO_OP,
                next_waiter,
                next_wake: NO_OP,
            };
            if is_mem {
                self.lsq_used += 1;
            }
            self.seq += 1;
            fetched += 1;
            if self.blocked_on.is_some() || self.cycle < self.fetch_resume {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::Addr;
    use selcache_mem::{AssistKind, ControllerConfig, HierarchyConfig};

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None))
    }

    fn run(ops: Vec<TraceOp>) -> CpuStats {
        let mut m = mem();
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m)
    }

    fn alu(pc: u64) -> TraceOp {
        TraceOp::new(pc, OpKind::IntAlu)
    }

    #[test]
    fn zero_resources_panic_naming_the_field() {
        type Zero = fn(&mut CpuConfig);
        let zeroed: [(&str, Zero); 8] = [
            ("issue_width", |c| c.issue_width = 0),
            ("fetch_width", |c| c.fetch_width = 0),
            ("commit_width", |c| c.commit_width = 0),
            ("ruu_entries", |c| c.ruu_entries = 0),
            ("lsq_entries", |c| c.lsq_entries = 0),
            ("mem_ports", |c| c.mem_ports = 0),
            ("int_units", |c| c.int_units = 0),
            ("fp_units", |c| c.fp_units = 0),
        ];
        for (field, zero) in zeroed {
            let mut cfg = CpuConfig::paper_base();
            zero(&mut cfg);
            let err = std::panic::catch_unwind(|| Pipeline::new(cfg))
                .expect_err("a zero resource must be rejected");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains(field), "{field}: panic message {msg:?}");
        }
    }

    #[test]
    fn empty_trace_finishes() {
        let s = run(vec![]);
        assert_eq!(s.committed, 0);
        assert!(s.cycles <= 2);
    }

    #[test]
    fn independent_alus_reach_issue_width() {
        // 4000 independent ALU ops in one fetch-block neighborhood (long
        // enough to amortize the cold I-cache miss).
        let ops: Vec<_> = (0..4000).map(|i| alu(0x40_0000 + (i % 8) * 4)).collect();
        let s = run(ops);
        assert_eq!(s.committed, 4000);
        // 4-wide machine: should sustain close to 4 IPC after warmup.
        assert!(s.ipc() > 2.5, "ipc {}", s.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        let ops: Vec<_> = (0..400)
            .map(|i| TraceOp::with_dep(0x40_0000, OpKind::IntAlu, u16::from(i > 0)))
            .collect();
        let s = run(ops);
        // Fully serial chain: at most ~1 IPC.
        assert!(s.ipc() < 1.2, "ipc {}", s.ipc());
    }

    #[test]
    fn fp_latency_slows_dependent_chain() {
        let int_ops: Vec<_> =
            (0..200).map(|_| TraceOp::with_dep(0x40_0000, OpKind::IntAlu, 1)).collect();
        let fp_ops: Vec<_> =
            (0..200).map(|_| TraceOp::with_dep(0x40_0000, OpKind::FpAlu, 1)).collect();
        let si = run(int_ops);
        let sf = run(fp_ops);
        assert!(sf.cycles > si.cycles * 2, "fp {} int {}", sf.cycles, si.cycles);
    }

    #[test]
    fn independent_loads_overlap_misses() {
        // 8 loads to distinct L2 blocks: independent -> overlapped misses.
        let indep: Vec<_> = (0..8u64)
            .map(|i| TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000 + i * 4096))))
            .collect();
        let dep: Vec<_> = (0..8u64)
            .map(|i| {
                TraceOp::with_dep(
                    0x40_0000,
                    OpKind::Load(Addr(0x2000_0000 + i * 4096)),
                    u16::from(i > 0),
                )
            })
            .collect();
        let si = run(indep);
        let sd = run(dep);
        assert!(sd.cycles > si.cycles * 2, "dependent {} independent {}", sd.cycles, si.cycles);
    }

    #[test]
    fn mispredicted_branch_costs_cycles() {
        // Alternating branch directions defeat the bimodal predictor.
        let flaky: Vec<_> = (0..200)
            .map(|i| TraceOp::new(0x40_0000, OpKind::Branch { taken: i % 2 == 0 }))
            .collect();
        let steady: Vec<_> =
            (0..200).map(|_| TraceOp::new(0x40_0000, OpKind::Branch { taken: true })).collect();
        let sf = run(flaky);
        let ss = run(steady);
        assert!(sf.mispredicts > 50);
        assert!(ss.mispredicts < 5);
        assert!(sf.cycles > ss.cycles);
        assert!(sf.fetch_stall_cycles > 0);
    }

    #[test]
    fn assist_markers_toggle_hierarchy() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::Victim));
        assert!(m.assist_enabled());
        let ops = vec![TraceOp::new(0x40_0000, OpKind::AssistOff), alu(0x40_0004)];
        let s = Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert!(!m.assist_enabled());
        assert_eq!(s.assist_toggles, 1);
        let ops = vec![TraceOp::new(0x40_0000, OpKind::AssistOn)];
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert!(m.assist_enabled());
    }

    #[test]
    fn assist_markers_freeze_and_thaw_the_controller() {
        // Under the adaptive controller the same ON/OFF markers gate the
        // whole mechanism: an OFF window freezes the controller (no
        // decisions, no switches), ON thaws it again.
        let mut cfg = HierarchyConfig::paper_base(AssistKind::None);
        cfg.controller =
            Some(ControllerConfig { interval_accesses: 8, ..ControllerConfig::default() });
        let mut m = MemoryHierarchy::new(cfg);
        // Conflict traffic (5 blocks cycling one 4-way set) drives the
        // controller through its exploration trials.
        let load =
            |i: u64| TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000 + (i % 5) * 8192)));
        let mut ops = vec![TraceOp::new(0x40_0000, OpKind::AssistOn)];
        ops.extend((0..64).map(load));
        ops.push(TraceOp::new(0x40_0000, OpKind::AssistOff));
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert!(!m.assist_enabled());
        let switches = m.stats().assist.adapt_switches;
        assert!(switches > 0, "the ON window must drive controller decisions");
        // OFF window: further traffic changes nothing.
        let ops: Vec<TraceOp> = (0..64).map(load).collect();
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert_eq!(m.stats().assist.adapt_switches, switches, "frozen while OFF");
        // ON again with streaming traffic the locked-in winner cannot help:
        // the hysteresis trips and the controller re-explores — decisions
        // resume.
        let mut ops = vec![TraceOp::new(0x40_0000, OpKind::AssistOn)];
        ops.extend(
            (0..64u64).map(|i| TraceOp::new(0x40_0000, OpKind::Load(Addr(0x3000_0000 + i * 64)))),
        );
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert!(m.stats().assist.adapt_switches > switches, "thawed by ON");
    }

    #[test]
    fn lsq_limits_outstanding_memory_ops() {
        // More loads than LSQ entries; all must still commit.
        let ops: Vec<_> = (0..100u64)
            .map(|i| TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000 + i * 8))))
            .collect();
        let s = run(ops);
        assert_eq!(s.loads, 100);
        assert_eq!(s.committed, 100);
    }

    #[test]
    fn in_order_model_is_slower_on_mixed_trace() {
        // Each load feeds two dependent ALUs: in-order issue blocks on the
        // pending load and cannot overlap the next miss; out-of-order can.
        let mk = || {
            (0..64u64).flat_map(|i| {
                vec![
                    TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000 + i * 4096))),
                    TraceOp::with_dep(0x40_0004, OpKind::IntAlu, 1),
                    TraceOp::with_dep(0x40_0008, OpKind::IntAlu, 1),
                ]
            })
        };
        let mut m1 = mem();
        let ooo = Pipeline::new(CpuConfig::paper_base()).run(mk(), &mut m1);
        let mut m2 = mem();
        let mut cfg = CpuConfig::paper_base();
        cfg.model = CpuModel::InOrder;
        let ino = Pipeline::new(cfg).run(mk(), &mut m2);
        assert!(ino.cycles > ooo.cycles, "in-order {} ooo {}", ino.cycles, ooo.cycles);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_op_latency_is_rejected() {
        let mut cfg = CpuConfig::paper_base();
        cfg.int_latency = 0;
        Pipeline::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_l1_latency_is_rejected() {
        let mut cfg = HierarchyConfig::paper_base(AssistKind::None);
        cfg.l1_latency = 0;
        let mut m = MemoryHierarchy::new(cfg);
        Pipeline::new(CpuConfig::paper_base()).run(vec![alu(0x40_0000)], &mut m);
    }

    #[test]
    fn far_dependence_on_a_committed_op_is_no_dependence() {
        // A serial chain, except that op 1023 reads op 0, long committed:
        // it must time exactly as if it had no dependence, however close
        // behind it op 1024 (1024 ops after its producer) dispatches.
        let trace = |far: u16| {
            (0..1100u64)
                .map(|i| {
                    let dep = if i == 1023 { far } else { u16::from(i > 0) };
                    TraceOp::with_dep(0x40_0000 + (i % 8) * 4, OpKind::IntAlu, dep)
                })
                .collect::<Vec<_>>()
        };
        for model in [CpuModel::OutOfOrder, CpuModel::InOrder] {
            let mut cfg = CpuConfig::paper_base();
            cfg.model = model;
            let far = Pipeline::new(cfg).run(trace(1023), &mut mem());
            let none = Pipeline::new(cfg).run(trace(0), &mut mem());
            assert_eq!(far, none, "{model:?}");
            assert_eq!(far.committed, 1100);
        }
    }

    #[test]
    fn stats_partition_by_kind() {
        let ops = vec![
            alu(0x40_0000),
            TraceOp::new(0x40_0004, OpKind::FpAlu),
            TraceOp::new(0x40_0008, OpKind::Load(Addr(0x1000_0000))),
            TraceOp::new(0x40_000C, OpKind::Store(Addr(0x1000_0008))),
            TraceOp::new(0x40_0010, OpKind::Branch { taken: true }),
        ];
        let s = run(ops);
        assert_eq!(s.committed, 5);
        assert_eq!((s.int_ops, s.fp_ops, s.loads, s.stores, s.branches), (1, 1, 1, 1, 1));
    }
}
