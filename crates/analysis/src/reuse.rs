//! LRU reuse-distance (stack-distance) profiling.
//!
//! The reuse distance of an access is the number of *distinct* blocks
//! touched since the previous access to the same block. By Mattson's
//! inclusion property, a fully-associative LRU cache of `C` blocks hits an
//! access iff its reuse distance is `< C` — so one profile, collected in a
//! [`ReuseSpectrum`](crate::ReuseSpectrum), yields the miss ratio of
//! **every** cache size at once.

use crate::fenwick::Fenwick;
use selcache_ir::Addr;
use std::collections::HashMap;

/// Reuse distance of one access: finite for a reuse, `Cold` for a first
/// touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// First access to the block.
    Cold,
    /// Number of distinct blocks since the previous access.
    Finite(u64),
}

/// Streaming reuse-distance profiler over block-grain addresses.
///
/// Memory is bounded by the footprint, not the trace length: each block
/// keeps one mark at the time of its last touch, and when the time axis
/// fills up with at most a quarter of its slots live, the live marks are
/// renumbered to `0..live` (in order, so no distance changes) instead of
/// the axis doubling. Each access costs O(log F) for a footprint of F
/// blocks.
///
/// ```
/// use selcache_analysis::{Distance, ReuseProfiler};
/// use selcache_ir::Addr;
///
/// let mut p = ReuseProfiler::new(32);
/// assert_eq!(p.record(Addr(0)), Distance::Cold);
/// assert_eq!(p.record(Addr(64)), Distance::Cold);
/// // A comes back after one distinct block (B):
/// assert_eq!(p.record(Addr(0)), Distance::Finite(1));
/// ```
#[derive(Debug, Clone)]
pub struct ReuseProfiler {
    block_size: u64,
    /// Last access timestamp per block.
    last: HashMap<u64, usize>,
    /// Marks at the last-access time of every block seen: one per block.
    marks: Fenwick,
    time: usize,
}

impl ReuseProfiler {
    /// Creates a profiler at the given block granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        ReuseProfiler { block_size, last: HashMap::new(), marks: Fenwick::new(1024), time: 0 }
    }

    /// Records one access and returns its reuse distance.
    pub fn record(&mut self, addr: Addr) -> Distance {
        let block = addr.block(self.block_size);
        if self.time >= self.marks.len() {
            let live = self.last.len();
            if live * 4 <= self.marks.len() {
                // Compact: renumber each block's last touch to its rank
                // among the live marks, which keeps their order and so
                // every future distance.
                for t in self.last.values_mut() {
                    *t = self.marks.prefix(*t) as usize;
                }
                self.marks.reset_ones(live);
                self.time = live;
            } else {
                self.marks.grow(self.marks.len() * 2);
            }
        }
        let d = match self.last.insert(block, self.time) {
            None => Distance::Cold,
            Some(prev) => {
                let distinct = self.marks.range(prev + 1, self.time);
                self.marks.add(prev, -1);
                Distance::Finite(distinct)
            }
        };
        self.marks.add(self.time, 1);
        self.time += 1;
        d
    }

    /// Number of distinct blocks seen (the trace footprint).
    pub fn footprint_blocks(&self) -> usize {
        self.last.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReuseSpectrum;

    fn addrs(p: &mut ReuseProfiler, blocks: &[u64]) -> Vec<Distance> {
        blocks.iter().map(|&b| p.record(Addr(b * 32))).collect()
    }

    #[test]
    fn classic_sequence() {
        let mut p = ReuseProfiler::new(32);
        // a b c a : a's reuse distance is 2 (b, c).
        let d = addrs(&mut p, &[0, 1, 2, 0]);
        assert_eq!(d, vec![Distance::Cold, Distance::Cold, Distance::Cold, Distance::Finite(2)]);
    }

    #[test]
    fn repeated_access_is_distance_zero() {
        let mut p = ReuseProfiler::new(32);
        let d = addrs(&mut p, &[5, 5, 5]);
        assert_eq!(d[1], Distance::Finite(0));
        assert_eq!(d[2], Distance::Finite(0));
    }

    #[test]
    fn duplicates_between_reuses_count_once() {
        let mut p = ReuseProfiler::new(32);
        // a b b b a : distance 1, not 3.
        let d = addrs(&mut p, &[0, 1, 1, 1, 0]);
        assert_eq!(d[4], Distance::Finite(1));
    }

    #[test]
    fn sub_block_accesses_share_a_block() {
        let mut p = ReuseProfiler::new(32);
        assert_eq!(p.record(Addr(0)), Distance::Cold);
        assert_eq!(p.record(Addr(24)), Distance::Finite(0));
        assert_eq!(p.footprint_blocks(), 1);
    }

    #[test]
    fn cyclic_sweep_distances_equal_footprint() {
        let mut p = ReuseProfiler::new(32);
        let mut spec = ReuseSpectrum::new();
        let n = 100u64;
        for _ in 0..3 {
            for b in 0..n {
                spec.record(p.record(Addr(b * 32)));
            }
        }
        assert_eq!(spec.cold(), n);
        assert_eq!(spec.total(), 3 * n);
        // All reuses have distance n-1 = 99.
        let mut expected = ReuseSpectrum::new();
        (0..n).for_each(|_| expected.record(Distance::Cold));
        (0..2 * n).for_each(|_| expected.record(Distance::Finite(n - 1)));
        assert_eq!(spec, expected);
    }

    #[test]
    fn miss_ratio_curve_monotone_nonincreasing() {
        let mut p = ReuseProfiler::new(32);
        let mut spec = ReuseSpectrum::new();
        let mut state = 99u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            spec.record(p.record(Addr((state >> 30) % (1 << 14))));
        }
        let curve: Vec<f64> = [32, 128, 512, 2048, 32768].map(|b| spec.fa_miss_ratio(b)).to_vec();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "curve must be non-increasing: {curve:?}");
        }
    }

    #[test]
    fn matches_naive_lru_stack() {
        // Cross-check against an O(N·M) naive stack implementation.
        let mut p = ReuseProfiler::new(1);
        let mut stack: Vec<u64> = Vec::new();
        let mut state = 7u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let b = (state >> 40) % 50;
            let expected = match stack.iter().position(|&x| x == b) {
                Some(pos) => {
                    stack.remove(pos);
                    Distance::Finite(pos as u64)
                }
                None => Distance::Cold,
            };
            stack.insert(0, b);
            assert_eq!(p.record(Addr(b)), expected);
        }
    }
}
