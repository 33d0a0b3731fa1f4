//! Bimodal branch predictor (2-bit saturating counters).

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
        Bimodal { counters: vec![2; entries.next_power_of_two()] }
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
        predicted == taken
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
        assert!(p.update(0, true)); // predicted taken (init 2) -> correct
        assert!(p.update(0, true)); // correct
        assert!(!p.update(0, false)); // wrong
    }

    #[test]
    fn rounds_to_power_of_two() {
        let p = Bimodal::new(2000);
        assert_eq!(p.counters.len(), 2048);
    }
}
