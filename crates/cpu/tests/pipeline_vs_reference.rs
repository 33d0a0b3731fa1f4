//! Differential test: [`Pipeline`] must produce exactly what a plain
//! cycle-by-cycle pipeline produces.
//!
//! `reference` below steps every cycle, scans the RUU front to back for
//! issue candidates, and counts one cycle, stall or commit at a time. The
//! pipeline under test jumps over idle cycles and issues from wakeup-fed
//! ready lists. Both run the same seeded random traces — out of order and in
//! order, with random widths, RUU, LSQ, unit and latency settings, under
//! every static assist, with a memory latency of 100 or 2000 cycles (the
//! latter puts completions beyond the pipeline's 1024-cycle wakeup wheel) —
//! and must agree on every `CpuStats` and `HierarchyStats` field and on the
//! cycles attributed to each region.

use proptest::prelude::*;
use selcache_cpu::{CpuConfig, CpuModel, CpuStats, Pipeline};
use selcache_ir::{Addr, OpKind, RegionId, TraceOp};
use selcache_mem::{AssistKind, HierarchyConfig, MemoryHierarchy, Probe};
use std::collections::BTreeMap;

mod reference {
    use selcache_cpu::{Bimodal, CpuConfig, CpuModel, CpuStats};
    use selcache_ir::{OpKind, RegionId, TraceOp};
    use selcache_mem::{MemoryHierarchy, NullProbe, Site};
    use std::collections::{BTreeMap, VecDeque};

    #[derive(Debug, Clone, Copy)]
    struct Slot {
        seq: u64,
        op: TraceOp,
        producer: Option<u64>,
        issued: bool,
        ready_at: u64,
    }

    /// One step per cycle: commit, a front-to-back RUU issue scan, fetch.
    pub struct RefPipeline {
        cfg: CpuConfig,
        predictor: Bimodal,
        ruu: VecDeque<Slot>,
        lsq_used: u32,
        cycle: u64,
        seq: u64,
        fetch_resume: u64,
        blocked_on: Option<u64>,
        last_fetch_block: u64,
        staged: Option<TraceOp>,
        done_fetching: bool,
        cur_region: RegionId,
        pub stats: CpuStats,
        pub region_cycles: BTreeMap<u32, u64>,
    }

    impl RefPipeline {
        pub fn new(cfg: CpuConfig) -> Self {
            RefPipeline {
                predictor: Bimodal::new(cfg.predictor_entries),
                ruu: VecDeque::new(),
                lsq_used: 0,
                cycle: 0,
                seq: 0,
                fetch_resume: 0,
                blocked_on: None,
                last_fetch_block: u64::MAX,
                staged: None,
                done_fetching: false,
                cur_region: RegionId::NONE,
                stats: CpuStats::default(),
                region_cycles: BTreeMap::new(),
                cfg,
            }
        }

        pub fn run(&mut self, trace: &[TraceOp], mem: &mut MemoryHierarchy) {
            let mut trace = trace.iter().copied();
            self.done_fetching = false;
            while !(self.done_fetching && self.ruu.is_empty() && self.staged.is_none()) {
                if let Some(front) = self.ruu.front() {
                    self.cur_region = front.op.region;
                }
                *self.region_cycles.entry(self.cur_region.0).or_default() += 1;
                self.commit();
                self.issue(mem);
                self.fetch(&mut trace, mem);
                self.cycle += 1;
            }
            self.stats.cycles = self.cycle;
        }

        fn commit(&mut self) {
            for _ in 0..self.cfg.commit_width {
                match self.ruu.front() {
                    Some(s) if s.issued && s.ready_at <= self.cycle => {}
                    _ => break,
                }
                let slot = self.ruu.pop_front().expect("front exists");
                let s = &mut self.stats;
                s.committed += 1;
                match slot.op.kind {
                    OpKind::IntAlu => s.int_ops += 1,
                    OpKind::FpAlu => s.fp_ops += 1,
                    OpKind::Load(_) => s.loads += 1,
                    OpKind::Store(_) => s.stores += 1,
                    OpKind::Branch { .. } => s.branches += 1,
                    OpKind::AssistOn | OpKind::AssistOff => s.assist_toggles += 1,
                }
                if slot.op.kind.is_mem() {
                    self.lsq_used -= 1;
                }
            }
        }

        /// Complete by this cycle: committed, or issued with its result
        /// available.
        fn operand_ready(&self, producer: Option<u64>) -> bool {
            let Some(p) = producer else {
                return true;
            };
            let front_seq = self.ruu[0].seq;
            if p < front_seq {
                return true;
            }
            let s = &self.ruu[(p - front_seq) as usize];
            s.issued && s.ready_at <= self.cycle
        }

        fn issue(&mut self, mem: &mut MemoryHierarchy) {
            if self.ruu.is_empty() {
                return;
            }
            let in_order = self.cfg.model == CpuModel::InOrder;
            let limits = [self.cfg.mem_ports, self.cfg.int_units, self.cfg.fp_units];
            let mut used = [0u32; 3];
            let mut issued = 0;
            for i in 0..self.ruu.len() {
                if issued == self.cfg.issue_width {
                    break;
                }
                let slot = self.ruu[i];
                if slot.issued {
                    continue;
                }
                let class = match slot.op.kind {
                    OpKind::Load(_) | OpKind::Store(_) => 0,
                    OpKind::FpAlu => 2,
                    _ => 1,
                };
                if !self.operand_ready(slot.producer) || used[class] >= limits[class] {
                    if in_order {
                        break;
                    }
                    continue;
                }
                let site = Site::new(slot.op.pc, slot.op.region);
                let latency = match slot.op.kind {
                    OpKind::FpAlu => self.cfg.fp_latency,
                    OpKind::Load(a) => {
                        mem.data_access_probed(a, false, self.cycle, site, &mut NullProbe)
                    }
                    OpKind::Store(a) => {
                        mem.data_access_probed(a, true, self.cycle, site, &mut NullProbe)
                    }
                    _ => self.cfg.int_latency,
                };
                let s = &mut self.ruu[i];
                s.issued = true;
                s.ready_at = self.cycle + latency;
                used[class] += 1;
                issued += 1;
                if self.blocked_on == Some(slot.seq) {
                    self.blocked_on = None;
                    let resume = self.cycle + latency + self.cfg.mispredict_penalty;
                    self.fetch_resume = self.fetch_resume.max(resume);
                }
            }
            if issued == 0 {
                self.stats.issue_stall_cycles += 1;
            }
        }

        fn fetch(&mut self, trace: &mut impl Iterator<Item = TraceOp>, mem: &mut MemoryHierarchy) {
            if self.done_fetching && self.staged.is_none() {
                return;
            }
            if self.blocked_on.is_some() || self.cycle < self.fetch_resume {
                self.stats.fetch_stall_cycles += 1;
                return;
            }
            for _ in 0..self.cfg.fetch_width {
                if self.ruu.len() == self.cfg.ruu_entries as usize {
                    break;
                }
                let Some(op) = self.staged.take().or_else(|| trace.next()) else {
                    self.done_fetching = true;
                    break;
                };
                if op.kind.is_mem() && self.lsq_used == self.cfg.lsq_entries {
                    self.staged = Some(op);
                    break;
                }
                let site = Site::new(op.pc, op.region);
                let block = op.pc / self.cfg.fetch_block;
                if block != self.last_fetch_block {
                    self.last_fetch_block = block;
                    let lat = mem.inst_fetch_probed(op.pc, self.cycle, site, &mut NullProbe);
                    if lat > 0 {
                        self.fetch_resume = self.cycle + lat;
                    }
                }
                match op.kind {
                    OpKind::Branch { taken } if !self.predictor.update(op.pc, taken) => {
                        self.stats.mispredicts += 1;
                        self.blocked_on = Some(self.seq);
                    }
                    OpKind::AssistOn => mem.set_assist_enabled(true),
                    OpKind::AssistOff => mem.set_assist_enabled(false),
                    _ => {}
                }
                let dep = u64::from(op.dep);
                let producer = (dep != 0 && dep <= self.seq).then(|| self.seq - dep);
                self.ruu.push_back(Slot {
                    seq: self.seq,
                    op,
                    producer,
                    issued: false,
                    ready_at: 0,
                });
                if op.kind.is_mem() {
                    self.lsq_used += 1;
                }
                self.seq += 1;
                if self.blocked_on.is_some() || self.cycle < self.fetch_resume {
                    break;
                }
            }
        }
    }
}

/// Cycles per region, from the pipeline's probe events.
#[derive(Default)]
struct RegionCycles(BTreeMap<u32, u64>);

impl Probe for RegionCycles {
    fn cycles(&mut self, region: RegionId, n: u64) {
        *self.0.entry(region.0).or_default() += n;
    }
}

/// A random trace: runs of sequential PCs with far jumps (instruction-cache
/// misses), loads and stores over a 2 MiB range (hits through DRAM), branches
/// that mispredict, assist markers, regions, and dependence distances from
/// the previous op to far beyond any RUU.
fn random_trace(seed: u64, len: usize) -> Vec<TraceOp> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    let mut pc = 0x40_0000u64;
    let mut region = RegionId::NONE;
    (0..len)
        .map(|_| {
            let r = next();
            pc = if r % 29 == 0 { 0x40_0000 + (next() % (1 << 20)) * 4 } else { pc + 4 };
            if r % 97 == 0 {
                let k = next() % 4;
                region = if k == 3 { RegionId::NONE } else { RegionId(k as u32) };
            }
            let mut addr = || Addr((0x1000_0000 + next() % (2 << 20)) & !7);
            let kind = match (r >> 8) % 16 {
                0..=3 => OpKind::Load(addr()),
                4 | 5 => OpKind::Store(addr()),
                6 | 7 => OpKind::FpAlu,
                8 | 9 => OpKind::Branch { taken: next() % 3 != 0 },
                10 if r % 13 == 0 => OpKind::AssistOn,
                11 if r % 13 == 0 => OpKind::AssistOff,
                _ => OpKind::IntAlu,
            };
            let dep = match (r >> 12) % 10 {
                0..=2 => 0,
                3..=6 => 1 + next() % 3,
                7 | 8 => 4 + next() % 200,
                _ => next() % u64::from(u16::MAX),
            } as u16;
            TraceOp { pc, kind, dep, region }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    len: usize,
    split: usize,
    cpu: CpuConfig,
    assist: AssistKind,
    l1_latency: u64,
    mem_latency: u64,
}

fn case() -> impl Strategy<Value = Case> {
    let width = || (0u32..4).prop_map(|k| 1u32 << k);
    let model = prop_oneof![Just(CpuModel::OutOfOrder), Just(CpuModel::InOrder)];
    let assist = prop_oneof![
        Just(AssistKind::None),
        Just(AssistKind::Bypass),
        Just(AssistKind::Victim),
        Just(AssistKind::Stream),
    ];
    let fetch_block = prop_oneof![Just(16u64), Just(24u64), Just(32u64), Just(64u64)];
    (
        (any::<u64>(), 500usize..3000, 0usize..100),
        (model, width(), width(), width()),
        (8u32..=128, 1u32..=48, 1u32..=4, 1u32..=4, 1u32..=4),
        (0u64..=4, 1u64..=3, 1u64..=6, fetch_block),
        (assist, 1u64..=3, prop_oneof![Just(100u64), Just(2000u64)]),
    )
        .prop_map(|(trace, core, window, lat, mem)| {
            let (seed, len, split_pct) = trace;
            let (model, issue_width, fetch_width, commit_width) = core;
            let (ruu_entries, lsq_entries, mem_ports, int_units, fp_units) = window;
            let (mispredict_penalty, int_latency, fp_latency, fetch_block) = lat;
            let (assist, l1_latency, mem_latency) = mem;
            let cpu = CpuConfig {
                issue_width,
                fetch_width,
                commit_width,
                ruu_entries,
                lsq_entries,
                mem_ports,
                int_units,
                fp_units,
                predictor_entries: 512,
                mispredict_penalty,
                int_latency,
                fp_latency,
                fetch_block,
                model,
            };
            Case { seed, len, split: len * split_pct / 100, cpu, assist, l1_latency, mem_latency }
        })
}

fn hierarchy(c: &Case) -> MemoryHierarchy {
    let mut cfg = HierarchyConfig::paper_base(c.assist);
    cfg.l1_latency = c.l1_latency;
    cfg.mem_latency = c.mem_latency;
    MemoryHierarchy::new(cfg)
}

proptest! {
    /// The trace runs in two calls on one pipeline (state carries over),
    /// split at a random point.
    #[test]
    fn pipeline_matches_cycle_by_cycle_reference(c in case()) {
        let trace = random_trace(c.seed, c.len);
        let (head, tail) = trace.split_at(c.split);

        let mut ref_mem = hierarchy(&c);
        let mut reference = reference::RefPipeline::new(c.cpu);
        reference.run(head, &mut ref_mem);
        reference.run(tail, &mut ref_mem);

        let mut mem = hierarchy(&c);
        let mut pipeline = Pipeline::new(c.cpu);
        let mut regions = RegionCycles::default();
        pipeline.run_probed(head.iter().copied(), &mut mem, &mut regions);
        let stats: CpuStats = pipeline.run_probed(tail.iter().copied(), &mut mem, &mut regions);

        prop_assert_eq!(stats, reference.stats, "{:?}", c);
        prop_assert_eq!(mem.stats(), ref_mem.stats(), "{:?}", c);
        prop_assert_eq!(&regions.0, &reference.region_cycles, "{:?}", c);
        prop_assert_eq!(stats.committed, c.len as u64);
    }
}
