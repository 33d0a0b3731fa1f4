//! Bimodal branch predictor (2-bit saturating counters).

use crate::config::{CpuConfig, PredictorKind};

/// A bimodal predictor: a table of 2-bit saturating counters indexed by the
/// branch PC (2048 entries in the paper's configuration).
///
/// ```
/// use selcache_cpu::Bimodal;
/// let mut p = Bimodal::new(2048);
/// let pc = 0x40_0000;
/// // Train taken.
/// for _ in 0..4 { p.update(pc, true); }
/// assert!(p.predict(pc));
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    counters: Vec<u8>,
    lookups: u64,
    correct: u64,
}

impl Bimodal {
    /// Creates a predictor with `entries` counters (rounded up to a power of
    /// two), initialized weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor must have entries");
        Bimodal { counters: vec![2; entries.next_power_of_two()], lookups: 0, correct: 0 }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.counters.len() - 1)
    }

    /// Predicted direction for the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Updates the counter with the actual outcome and returns whether the
    /// prediction made beforehand was correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let i = self.index(pc);
        let predicted = self.counters[i] >= 2;
        if taken {
            self.counters[i] = (self.counters[i] + 1).min(3);
        } else {
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
        self.lookups += 1;
        if predicted == taken {
            self.correct += 1;
        }
        predicted == taken
    }

    /// Fraction of correct predictions so far (0.0 before any update, so an
    /// empty run never reports a NaN-adjacent vacuous 100%).
    pub fn accuracy(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.correct as f64 / self.lookups as f64
        }
    }

    /// Number of predictions made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

/// A gshare predictor: global history XOR-indexed 2-bit counters
/// (McFarling). Provided as an ablation alternative to the paper's bimodal
/// table.
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u64,
    history_bits: u32,
    lookups: u64,
    correct: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` counters (rounded up to a power
    /// of two) and a history register as wide as the index.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor must have entries");
        let n = entries.next_power_of_two();
        Gshare {
            counters: vec![2; n],
            history: 0,
            history_bits: n.trailing_zeros(),
            lookups: 0,
            correct: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) as usize) & (self.counters.len() - 1)
    }

    /// Predicted direction for the branch at `pc` under the current global
    /// history.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Updates counter and history; returns whether the prediction was
    /// correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let i = self.index(pc);
        let predicted = self.counters[i] >= 2;
        if taken {
            self.counters[i] = (self.counters[i] + 1).min(3);
        } else {
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
        self.history =
            ((self.history << 1) | u64::from(taken)) & ((1u64 << self.history_bits.min(63)) - 1);
        self.lookups += 1;
        if predicted == taken {
            self.correct += 1;
        }
        predicted == taken
    }

    /// Fraction of correct predictions so far (0.0 before any update, so an
    /// empty run never reports a NaN-adjacent vacuous 100%).
    pub fn accuracy(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.correct as f64 / self.lookups as f64
        }
    }
}

/// A direction predictor: the paper's bimodal table or the gshare ablation.
#[derive(Debug, Clone)]
pub enum Predictor {
    /// PC-indexed 2-bit counters (the paper's configuration).
    Bimodal(Bimodal),
    /// Global-history XOR-indexed 2-bit counters.
    Gshare(Gshare),
}

impl Predictor {
    /// Builds the predictor selected by a core configuration — the same
    /// construction [`crate::Pipeline::new`] performs internally. Used by the
    /// sampled execution mode to warm a predictor functionally before
    /// injecting it into a timed pipeline.
    pub fn from_config(cfg: &CpuConfig) -> Self {
        match cfg.predictor {
            PredictorKind::Bimodal => Predictor::Bimodal(Bimodal::new(cfg.predictor_entries)),
            PredictorKind::Gshare => Predictor::Gshare(Gshare::new(cfg.predictor_entries)),
        }
    }

    /// Updates with the actual outcome; returns whether the prediction made
    /// beforehand was correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        match self {
            Predictor::Bimodal(p) => p.update(pc, taken),
            Predictor::Gshare(p) => p.update(pc, taken),
        }
    }

    /// Prediction accuracy so far.
    pub fn accuracy(&self) -> f64 {
        match self {
            Predictor::Bimodal(p) => p.accuracy(),
            Predictor::Gshare(p) => p.accuracy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_taken_loop_branch() {
        let mut p = Bimodal::new(16);
        let pc = 0x100;
        // Initially weakly taken: predicts taken.
        assert!(p.predict(pc));
        // A loop branch: taken 9 times, not taken once; only the exit (and
        // possibly the first post-exit) mispredicts.
        let mut wrong = 0;
        for _ in 0..3 {
            for i in 0..10 {
                if !p.update(pc, i != 9) {
                    wrong += 1;
                }
            }
        }
        assert!(wrong <= 4, "loop branch should be well predicted, got {wrong} wrong");
    }

    #[test]
    fn learns_not_taken() {
        let mut p = Bimodal::new(16);
        for _ in 0..4 {
            p.update(0x200, false);
        }
        assert!(!p.predict(0x200));
    }

    #[test]
    fn aliasing_uses_low_bits() {
        let mut p = Bimodal::new(4);
        // pc 0 and pc 16 alias with 4 entries (pc>>2 & 3).
        for _ in 0..4 {
            p.update(0, false);
        }
        assert!(!p.predict(16));
    }

    #[test]
    fn accuracy_tracks() {
        let mut p = Bimodal::new(16);
        p.update(0, true); // predicted taken (init 2) -> correct
        p.update(0, true); // correct
        p.update(0, false); // wrong
        assert!((p.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.lookups(), 3);
    }

    #[test]
    fn rounds_to_power_of_two() {
        let p = Bimodal::new(2000);
        assert_eq!(p.counters.len(), 2048);
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // A strictly alternating branch defeats bimodal but is captured by
        // one bit of global history.
        let mut g = Gshare::new(2048);
        let mut b = Bimodal::new(2048);
        let mut g_right = 0;
        let mut b_right = 0;
        for i in 0..2000 {
            let taken = i % 2 == 0;
            if g.update(0x400, taken) {
                g_right += 1;
            }
            if b.update(0x400, taken) {
                b_right += 1;
            }
        }
        assert!(g_right > 1900, "gshare should learn alternation: {g_right}");
        assert!(b_right < 1100, "bimodal cannot: {b_right}");
    }

    #[test]
    fn gshare_accuracy_tracks() {
        let mut g = Gshare::new(64);
        for _ in 0..100 {
            g.update(0, true);
        }
        assert!(g.accuracy() > 0.9);
    }

    #[test]
    fn predictor_enum_dispatches() {
        let mut p = Predictor::Gshare(Gshare::new(64));
        p.update(0, true);
        assert!(p.accuracy() <= 1.0);
        let mut p = Predictor::Bimodal(Bimodal::new(64));
        p.update(0, false);
        assert!(p.accuracy() <= 1.0);
    }

    #[test]
    fn from_config_matches_kind() {
        let mut cfg = CpuConfig::paper_base();
        assert!(matches!(Predictor::from_config(&cfg), Predictor::Bimodal(_)));
        cfg.predictor = PredictorKind::Gshare;
        assert!(matches!(Predictor::from_config(&cfg), Predictor::Gshare(_)));
    }
}
