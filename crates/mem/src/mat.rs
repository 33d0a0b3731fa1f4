//! Memory Access Table (Johnson & Hwu, ISCA 1997).
//!
//! Memory is divided into *macro-blocks* (groups of adjacent cache blocks,
//! 1 KiB in the paper). The MAT tracks a saturating access-frequency counter
//! per macro-block; on a cache miss the controller compares the frequency of
//! the incoming block's macro-block with that of the block it would replace
//! and *bypasses* the cache when the incoming region is colder — keeping
//! highly accessed regions resident.

use selcache_ir::Addr;

/// MAT geometry and counter behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatConfig {
    /// Number of table entries (4096 in the paper); a power of two.
    pub entries: usize,
    /// Macro-block size in bytes (1 KiB in the paper).
    pub macro_block: u64,
    /// Saturation value of the frequency counters.
    pub max_count: u32,
    /// All counters are halved every `decay_interval` recorded accesses,
    /// letting the table adapt across program phases.
    pub decay_interval: u64,
}

impl Default for MatConfig {
    fn default() -> Self {
        MatConfig { entries: 4096, macro_block: 1024, max_count: 255, decay_interval: 16384 }
    }
}

/// The Memory Access Table: direct-mapped, tagged frequency counters.
#[derive(Debug, Clone)]
pub struct Mat {
    cfg: MatConfig,
    tags: Vec<u64>,
    counts: Vec<u32>,
    since_decay: u64,
    /// `log2(macro_block)` and `log2(entries)`.
    macro_shift: u32,
    entries_shift: u32,
}

impl Mat {
    /// Creates an empty MAT.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `macro_block` is not a power of two.
    pub fn new(cfg: MatConfig) -> Self {
        assert!(cfg.entries.is_power_of_two(), "MAT entries must be a power of two");
        assert!(cfg.macro_block.is_power_of_two(), "macro-block size must be a power of two");
        Mat {
            cfg,
            tags: vec![u64::MAX; cfg.entries],
            counts: vec![0; cfg.entries],
            since_decay: 0,
            macro_shift: cfg.macro_block.trailing_zeros(),
            entries_shift: cfg.entries.trailing_zeros(),
        }
    }

    /// Macro-block number of an address.
    pub fn macro_of(&self, addr: Addr) -> u64 {
        addr.0 >> self.macro_shift
    }

    /// Table index and tag of macro-block `mb`.
    fn slot(&self, mb: u64) -> (usize, u64) {
        ((mb & (self.cfg.entries as u64 - 1)) as usize, mb >> self.entries_shift)
    }

    /// Records an access to `addr`, bumping its macro-block counter. A tag
    /// conflict evicts the previous region's counter (reset to 1).
    pub fn record(&mut self, addr: Addr) {
        let mb = self.macro_of(addr);
        let (i, tag) = self.slot(mb);
        if self.tags[i] == tag {
            self.counts[i] = (self.counts[i] + 1).min(self.cfg.max_count);
        } else {
            self.tags[i] = tag;
            self.counts[i] = 1;
        }
        self.since_decay += 1;
        if self.since_decay >= self.cfg.decay_interval {
            self.since_decay = 0;
            for c in &mut self.counts {
                *c /= 2;
            }
        }
    }

    /// Current frequency estimate for the macro-block containing `addr`
    /// (0 if the region's entry has been re-tagged).
    pub fn count(&self, addr: Addr) -> u32 {
        let mb = self.macro_of(addr);
        let (i, tag) = self.slot(mb);
        if self.tags[i] == tag {
            self.counts[i]
        } else {
            0
        }
    }

    /// Bypass decision: true when the incoming address's region is accessed
    /// strictly less frequently than the region of the block it would
    /// replace.
    pub fn should_bypass(&self, incoming: Addr, resident_victim: Addr) -> bool {
        self.count(incoming) < self.count(resident_victim)
    }

    /// Conservative bypass decision used at the L2 (where a wrong decision
    /// costs a full memory round trip): the resident region must be clearly
    /// hotter than the incoming one.
    pub fn should_bypass_conservative(&self, incoming: Addr, resident_victim: Addr) -> bool {
        let inc = self.count(incoming);
        let res = self.count(resident_victim);
        inc.saturating_mul(4) < res && res >= 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat() -> Mat {
        Mat::new(MatConfig { entries: 16, macro_block: 1024, max_count: 8, decay_interval: 1000 })
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut m = mat();
        for _ in 0..20 {
            m.record(Addr(100));
        }
        assert_eq!(m.count(Addr(100)), 8);
        assert_eq!(m.count(Addr(500)), 8); // same macro-block
        assert_eq!(m.count(Addr(2048)), 0); // different macro-block
    }

    #[test]
    fn bypass_prefers_hot_resident() {
        let mut m = mat();
        for _ in 0..5 {
            m.record(Addr(0)); // hot region
        }
        m.record(Addr(4096)); // cold region, count 1
        assert!(m.should_bypass(Addr(4096), Addr(0)));
        assert!(!m.should_bypass(Addr(0), Addr(4096)));
        // Equal counts: no bypass (strict less-than).
        assert!(!m.should_bypass(Addr(4096), Addr(4096)));
    }

    #[test]
    fn tag_conflict_resets_counter() {
        let mut m = mat();
        // Macro-blocks 0 and 16 collide (16 entries).
        for _ in 0..5 {
            m.record(Addr(0));
        }
        m.record(Addr(16 * 1024));
        assert_eq!(m.count(Addr(16 * 1024)), 1);
        assert_eq!(m.count(Addr(0)), 0); // evicted
    }

    #[test]
    #[should_panic(expected = "MAT entries must be a power of two")]
    fn non_power_of_two_entries_panic() {
        Mat::new(MatConfig { entries: 12, ..MatConfig::default() });
    }

    #[test]
    fn decay_halves_counters() {
        let mut m = Mat::new(MatConfig {
            entries: 16,
            macro_block: 1024,
            max_count: 100,
            decay_interval: 10,
        });
        for _ in 0..9 {
            m.record(Addr(0));
        }
        assert_eq!(m.count(Addr(0)), 9);
        m.record(Addr(0)); // 10th record triggers decay: (9+1)/2
        assert_eq!(m.count(Addr(0)), 5);
    }
}
