//! LRU reuse-distance (stack-distance) profiling.
//!
//! The reuse distance of an access is the number of *distinct* blocks
//! touched since the previous access to the same block. By Mattson's
//! inclusion property, a fully-associative LRU cache of `C` blocks hits an
//! access iff its reuse distance is `< C` — so one profile yields the miss
//! ratio of **every** cache size at once.

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
    histogram: Histogram,
}

/// Log₂-bucketed reuse-distance histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[k]` counts distances in `[2^(k-1), 2^k)` (`buckets[0]` is
    /// distance 0).
    pub buckets: Vec<u64>,
    /// Cold (first-touch) accesses.
    pub cold: u64,
    /// Total recorded accesses.
    pub total: u64,
}

impl Histogram {
    fn record(&mut self, d: Distance) {
        self.total += 1;
        match d {
            Distance::Cold => self.cold += 1,
            Distance::Finite(n) => {
                let bucket = if n == 0 { 0 } else { 64 - n.leading_zeros() as usize };
                if self.buckets.len() <= bucket {
                    self.buckets.resize(bucket + 1, 0);
                }
                self.buckets[bucket] += 1;
            }
        }
    }

    /// The reuse-distance value below which fraction `q` of the *finite*
    /// reuses fall (bucket upper bound; cold misses are excluded). Returns
    /// `None` when there are no finite reuses or `q` is outside `(0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if !(0.0..=1.0).contains(&q) || q == 0.0 {
            return None;
        }
        let finite: u64 = self.buckets.iter().sum();
        if finite == 0 {
            return None;
        }
        let target = (q * finite as f64).ceil() as u64;
        let mut seen = 0u64;
        for (k, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(if k == 0 { 0 } else { (1u64 << k) - 1 });
            }
        }
        Some((1u64 << (self.buckets.len() - 1)) - 1)
    }

    /// Miss ratio of a fully-associative LRU cache of `blocks` lines,
    /// derived from the histogram (bucket-granular, so an upper bound).
    pub fn miss_ratio(&self, blocks: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut hits = 0u64;
        for (k, &count) in self.buckets.iter().enumerate() {
            // Bucket k covers distances < 2^k; count as hits only if the
            // whole bucket fits (upper-bound miss ratio).
            let upper = if k == 0 { 0 } else { (1u64 << k) - 1 };
            if upper < blocks {
                hits += count;
            }
        }
        1.0 - hits as f64 / self.total as f64
    }
}

impl ReuseProfiler {
    /// Creates a profiler at the given block granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        ReuseProfiler {
            block_size,
            last: HashMap::new(),
            marks: Fenwick::new(1024),
            time: 0,
            histogram: Histogram::default(),
        }
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
        self.histogram.record(d);
        d
    }

    /// The accumulated histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Number of distinct blocks seen (the trace footprint).
    pub fn footprint_blocks(&self) -> usize {
        self.last.len()
    }

    /// Convenience: miss ratios at the given cache sizes (in bytes).
    pub fn miss_ratio_curve(&self, sizes: &[u64]) -> Vec<(u64, f64)> {
        sizes.iter().map(|&s| (s, self.histogram.miss_ratio(s / self.block_size))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let n = 100u64;
        for _ in 0..3 {
            for b in 0..n {
                p.record(Addr(b * 32));
            }
        }
        let h = p.histogram();
        assert_eq!(h.cold, n);
        assert_eq!(h.total, 3 * n);
        // All reuses have distance n-1 = 99 -> bucket covering 64..128.
        let bucket = 64 - 99u64.leading_zeros() as usize;
        assert_eq!(h.buckets[bucket], 2 * n);
    }

    #[test]
    fn percentile_tracks_distances() {
        let mut p = ReuseProfiler::new(32);
        // 100 reuses at distance 0, 100 at distance ~99.
        for _ in 0..101 {
            p.record(Addr(0));
        }
        let n = 100u64;
        for _ in 0..2 {
            for b in 1..=n {
                p.record(Addr(b * 32));
            }
        }
        let h = p.histogram();
        // Median splits between the two populations.
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 <= 127, "median {p50}");
        let p99 = h.percentile(0.99).unwrap();
        assert!(p99 >= 63, "p99 {p99}");
        assert!(h.percentile(0.0).is_none());
        assert!(h.percentile(1.5).is_none());
    }

    #[test]
    fn percentile_none_without_reuses() {
        let mut p = ReuseProfiler::new(32);
        p.record(Addr(0));
        p.record(Addr(32));
        assert!(p.histogram().percentile(0.5).is_none());
    }

    #[test]
    fn miss_ratio_curve_monotone_nonincreasing() {
        let mut p = ReuseProfiler::new(32);
        let mut state = 99u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            p.record(Addr((state >> 30) % (1 << 14)));
        }
        let curve = p.miss_ratio_curve(&[1024, 4096, 16384, 65536, 1 << 20]);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "curve must be non-increasing: {curve:?}");
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
