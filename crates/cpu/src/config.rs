//! Processor-core configuration.

/// Timing model selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CpuModel {
    /// Out-of-order issue from the register update unit (the paper's
    /// SimpleScalar configuration).
    #[default]
    OutOfOrder,
    /// In-order issue (ablation: shows how much latency hiding the OOO core
    /// contributes to the reported improvements).
    InOrder,
}

/// Core parameters (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Register update unit (reorder window) entries.
    pub ruu_entries: u32,
    /// Load/store queue entries.
    pub lsq_entries: u32,
    /// Simultaneous memory operations issued per cycle (memory ports).
    pub mem_ports: u32,
    /// Integer ALUs (integer/branch/toggle ops issued per cycle).
    pub int_units: u32,
    /// Floating-point units (FP ops issued per cycle; SimpleScalar's
    /// default configuration has four FP ALUs).
    pub fp_units: u32,
    /// Bimodal predictor entries.
    pub predictor_entries: usize,
    /// Front-end refill penalty after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Integer ALU latency in cycles.
    pub int_latency: u64,
    /// Floating-point latency in cycles.
    pub fp_latency: u64,
    /// Bytes per instruction-fetch block (for I-cache access batching).
    pub fetch_block: u64,
    /// Timing model.
    pub model: CpuModel,
}

impl CpuConfig {
    /// The paper's base configuration: 4-wide issue, 64-entry RUU, 32-entry
    /// LSQ, 2 memory ports, 2048-entry bimodal predictor.
    pub fn paper_base() -> Self {
        CpuConfig {
            issue_width: 4,
            fetch_width: 4,
            commit_width: 4,
            ruu_entries: 64,
            lsq_entries: 32,
            mem_ports: 2,
            int_units: 4,
            fp_units: 4,
            predictor_entries: 2048,
            mispredict_penalty: 3,
            int_latency: 1,
            fp_latency: 4,
            fetch_block: 32,
            model: CpuModel::OutOfOrder,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::paper_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_table1() {
        let c = CpuConfig::paper_base();
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.ruu_entries, 64);
        assert_eq!(c.lsq_entries, 32);
        assert_eq!(c.mem_ports, 2);
        assert_eq!((c.int_units, c.fp_units), (4, 4));
        assert_eq!(c.predictor_entries, 2048);
        assert_eq!(c.model, CpuModel::OutOfOrder);
    }
}
