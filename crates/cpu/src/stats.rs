//! Processor statistics.

use selcache_ir::OpKind;
use selcache_mem::{Probe, Site};
use std::fmt;

/// Counters accumulated by a pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed instructions (all classes).
    pub committed: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Committed integer ALU ops.
    pub int_ops: u64,
    /// Committed floating-point ops.
    pub fp_ops: u64,
    /// Committed assist ON/OFF instructions.
    pub assist_toggles: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cycles the front end was stalled (mispredict recovery + I-cache
    /// misses).
    pub fetch_stall_cycles: u64,
    /// Cycles no instruction could issue.
    pub issue_stall_cycles: u64,
}

impl CpuStats {
    /// Instructions per cycle; 0 when no cycles elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate in `[0, 1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// The default pipeline probe: accumulates [`CpuStats`] from commit, stall
/// and misprediction events.
///
/// [`crate::Pipeline`] owns one of these permanently (so statistics carry
/// over across reused runs, as before the probe refactor) and stacks any
/// caller-supplied probe next to it via the tuple fan-out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpuStatsProbe {
    pub(crate) stats: CpuStats,
}

impl CpuStatsProbe {
    /// The accumulated statistics.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }
}

impl Probe for CpuStatsProbe {
    fn commit(&mut self, _site: Site, kind: OpKind) {
        self.stats.committed += 1;
        match kind {
            OpKind::IntAlu => self.stats.int_ops += 1,
            OpKind::FpAlu => self.stats.fp_ops += 1,
            OpKind::Load(_) => self.stats.loads += 1,
            OpKind::Store(_) => self.stats.stores += 1,
            OpKind::Branch { .. } => self.stats.branches += 1,
            OpKind::AssistOn | OpKind::AssistOff => self.stats.assist_toggles += 1,
        }
    }

    fn mispredict(&mut self, _site: Site) {
        self.stats.mispredicts += 1;
    }

    fn fetch_stalls(&mut self, n: u64) {
        self.stats.fetch_stall_cycles += n;
    }

    fn issue_stalls(&mut self, n: u64) {
        self.stats.issue_stall_cycles += n;
    }
}

impl fmt::Display for CpuStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles={} insts={} ipc={:.3} ld={} st={} br={} (mp {:.2}%) toggles={}",
            self.cycles,
            self.committed,
            self.ipc(),
            self.loads,
            self.stores,
            self.branches,
            self.mispredict_rate() * 100.0,
            self.assist_toggles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let s = CpuStats {
            cycles: 100,
            committed: 250,
            branches: 10,
            mispredicts: 1,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = CpuStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
    }

    #[test]
    fn display_summarizes() {
        let s = CpuStats { cycles: 10, committed: 20, ..Default::default() };
        assert!(s.to_string().contains("ipc=2.000"));
    }

    #[test]
    fn stats_probe_counts_by_kind() {
        use selcache_ir::Addr;
        let mut p = CpuStatsProbe::default();
        p.commit(Site::UNKNOWN, OpKind::IntAlu);
        p.commit(Site::UNKNOWN, OpKind::Load(Addr(0)));
        p.commit(Site::UNKNOWN, OpKind::AssistOn);
        p.mispredict(Site::UNKNOWN);
        p.fetch_stalls(1);
        p.issue_stalls(1);
        p.issue_stalls(40);
        let s = p.stats();
        assert_eq!((s.committed, s.int_ops, s.loads, s.assist_toggles), (3, 1, 1, 1));
        assert_eq!((s.mispredicts, s.fetch_stall_cycles, s.issue_stall_cycles), (1, 1, 41));
    }
}
