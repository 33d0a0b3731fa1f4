//! SimPoint-style interval selection for sampled simulation.
//!
//! Detailed simulation of a huge trace is replaced by detailed simulation of
//! a few *representative* intervals: the trace is cut into fixed-size
//! intervals, each interval is fingerprinted during a cheap functional pass,
//! the fingerprints are clustered, and one medoid per cluster is simulated
//! in detail with a weight proportional to the work its cluster covers
//! (Sherwood et al., "Automatically Characterizing Large Scale Program
//! Behavior"). This module is the selection half; the checkpointed warmup
//! and weighted reconstruction live in `selcache-core`.
//!
//! The fingerprint is deliberately cheap to maintain at streaming speed: a
//! working-set signature (a hashed bitvector of the blocks touched) plus a
//! per-PC-bucket op histogram standing in for a basic-block vector — the
//! interpreter assigns stable PCs per static site, so bucketed PC counts
//! capture "which code is running" exactly as a BBV would.

use selcache_ir::Addr;

/// Configuration of the interval profiler and selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalConfig {
    /// Ops per interval (the sampling unit).
    pub interval_ops: u64,
    /// Maximum number of representatives (clusters) to select.
    pub max_intervals: usize,
    /// Working-set signature bits (power of two).
    pub signature_bits: usize,
    /// PC-histogram buckets (power of two) for the code fingerprint.
    pub pc_buckets: usize,
}

impl Default for IntervalConfig {
    fn default() -> Self {
        IntervalConfig {
            interval_ops: 1 << 20,
            max_intervals: 8,
            signature_bits: 4096,
            pc_buckets: 64,
        }
    }
}

/// Fingerprint of one fixed-size interval of the dynamic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalFingerprint {
    /// Hashed working-set signature over data blocks.
    signature: Vec<u64>,
    /// Op counts per PC bucket — the basic-block-vector stand-in.
    mix: Vec<u32>,
    /// Ops in this interval (equal to `interval_ops` except for the tail).
    pub ops: u64,
}

impl IntervalFingerprint {
    /// Distance in `[0, 1]`: the mean of Jaccard distance between the
    /// working-set signatures and normalized Manhattan distance between the
    /// PC histograms. Two intervals running the same code over the same data
    /// score near 0; disjoint code and data score near 1.
    pub fn distance(&self, other: &IntervalFingerprint) -> f64 {
        let mut inter = 0u32;
        let mut union = 0u32;
        for (&x, &y) in self.signature.iter().zip(&other.signature) {
            inter += (x & y).count_ones();
            union += (x | y).count_ones();
        }
        let sig_dist = if union == 0 { 0.0 } else { 1.0 - f64::from(inter) / f64::from(union) };
        let (sa, sb) = (self.ops.max(1) as f64, other.ops.max(1) as f64);
        let mut manhattan = 0.0;
        for (&a, &b) in self.mix.iter().zip(&other.mix) {
            manhattan += (f64::from(a) / sa - f64::from(b) / sb).abs();
        }
        // Normalized histograms differ by at most 2 in L1.
        (sig_dist + manhattan / 2.0) / 2.0
    }
}

/// Streaming fingerprint builder: feed every op of the trace once, in
/// order; intervals close automatically every `interval_ops` ops.
#[derive(Debug, Clone)]
pub struct IntervalProfiler {
    cfg: IntervalConfig,
    signature: Vec<u64>,
    mix: Vec<u32>,
    in_interval: u64,
    intervals: Vec<IntervalFingerprint>,
}

impl IntervalProfiler {
    /// Creates a profiler.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ops` is zero or the signature/bucket sizes are
    /// not powers of two.
    pub fn new(cfg: IntervalConfig) -> Self {
        assert!(cfg.interval_ops > 0, "interval must be positive");
        assert!(cfg.signature_bits.is_power_of_two(), "signature bits must be a power of two");
        assert!(cfg.pc_buckets.is_power_of_two(), "pc buckets must be a power of two");
        IntervalProfiler {
            signature: vec![0; cfg.signature_bits / 64],
            mix: vec![0; cfg.pc_buckets],
            in_interval: 0,
            intervals: Vec::new(),
            cfg,
        }
    }

    /// Records one op: its PC always, its data address when it is a memory
    /// op.
    ///
    /// `#[inline]`: called once per op of a multi-million-op profile pass
    /// from another crate; without cross-crate inlining the call overhead
    /// dominates the few hash instructions of the body.
    #[inline]
    pub fn record(&mut self, pc: u64, addr: Option<Addr>) {
        if let Some(addr) = addr {
            let block = addr.block(32);
            let h = (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
                & (self.cfg.signature_bits - 1);
            self.signature[h / 64] |= 1 << (h % 64);
        }
        let b = ((pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize
            & (self.cfg.pc_buckets - 1);
        self.mix[b] += 1;
        self.in_interval += 1;
        if self.in_interval == self.cfg.interval_ops {
            self.close_interval();
        }
    }

    fn close_interval(&mut self) {
        let signature =
            std::mem::replace(&mut self.signature, vec![0; self.cfg.signature_bits / 64]);
        let mix = std::mem::replace(&mut self.mix, vec![0; self.cfg.pc_buckets]);
        self.intervals.push(IntervalFingerprint { signature, mix, ops: self.in_interval });
        self.in_interval = 0;
    }

    /// Finishes the stream and returns the interval fingerprints, including
    /// a short tail interval when the trace length is not a multiple of the
    /// interval size.
    pub fn finish(mut self) -> Vec<IntervalFingerprint> {
        if self.in_interval > 0 {
            self.close_interval();
        }
        self.intervals
    }
}

/// A selected representative interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Representative {
    /// Index of the medoid interval in the fingerprint list.
    pub interval: usize,
    /// Extrapolation weight: total ops of the cluster divided by the ops of
    /// this interval, so `sum(weight_i * stat_i)` reconstructs whole-trace
    /// counts from per-interval measurements.
    pub weight: f64,
    /// Number of intervals in the cluster.
    pub cluster_size: usize,
}

/// Every pairwise [`IntervalFingerprint::distance`] of an interval list,
/// computed once: the strict lower triangle, row by row. `distance` is
/// symmetric bit for bit (the Jaccard counts commute, and `x - y` rounds
/// to exactly `-(y - x)`) and exactly 0 between an interval and itself,
/// so one entry per unordered pair answers both orders.
struct Distances {
    lower: Vec<f64>,
}

impl Distances {
    fn new(intervals: &[IntervalFingerprint]) -> Distances {
        let n = intervals.len();
        let mut lower = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for (row, b) in intervals.iter().enumerate() {
            lower.extend(intervals[..row].iter().map(|a| a.distance(b)));
        }
        Distances { lower }
    }

    fn get(&self, a: usize, b: usize) -> f64 {
        let (col, row) = match a.cmp(&b) {
            std::cmp::Ordering::Less => (a, b),
            std::cmp::Ordering::Greater => (b, a),
            std::cmp::Ordering::Equal => return 0.0,
        };
        self.lower[row * (row - 1) / 2 + col]
    }
}

/// Clusters interval fingerprints with k-medoids and returns one weighted
/// representative per cluster, ordered by interval index.
///
/// Seeding is deterministic farthest-first (ties broken toward the lowest
/// index), so the selection — and therefore every sampled simulation built
/// on it — is reproducible across runs and thread counts.
///
/// The refinement visits some pairs many times, so every pairwise distance
/// is computed once up front: `n(n-1)/2` `f64` for `n` intervals (1.6 MB
/// at 634).
pub fn select(intervals: &[IntervalFingerprint], k: usize) -> Vec<Representative> {
    let n = intervals.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let distances = Distances::new(intervals);
    let dist = |a: usize, b: usize| distances.get(a, b);

    // Farthest-first seeding from interval 0.
    let mut medoids = vec![0usize];
    let mut min_d: Vec<f64> = (0..n).map(|i| dist(0, i)).collect();
    while medoids.len() < k {
        let (far, far_d) =
            min_d
                .iter()
                .enumerate()
                .fold((0, -1.0), |acc, (i, &d)| if d > acc.1 { (i, d) } else { acc });
        if far_d <= 0.0 {
            break; // every point coincides with a medoid
        }
        medoids.push(far);
        for (i, d) in min_d.iter_mut().enumerate() {
            *d = d.min(dist(far, i));
        }
    }
    medoids.sort_unstable();

    // Lloyd-style k-medoids refinement.
    let mut assign = vec![0usize; n];
    for _round in 0..20 {
        for (i, a) in assign.iter_mut().enumerate() {
            let mut best = (f64::INFINITY, 0usize);
            for (c, &m) in medoids.iter().enumerate() {
                let d = dist(m, i);
                if d < best.0 {
                    best = (d, c);
                }
            }
            *a = best.1;
        }
        let mut changed = false;
        for (c, m) in medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assign[i] == c).collect();
            let mut best = (f64::INFINITY, *m);
            for &cand in &members {
                let total: f64 = members.iter().map(|&i| dist(cand, i)).sum();
                if total < best.0 {
                    best = (total, cand);
                }
            }
            if best.1 != *m {
                *m = best.1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Final assignment against the settled medoids.
    for (i, a) in assign.iter_mut().enumerate() {
        let mut best = (f64::INFINITY, 0usize);
        for (c, &m) in medoids.iter().enumerate() {
            let d = dist(m, i);
            if d < best.0 {
                best = (d, c);
            }
        }
        *a = best.1;
    }

    let mut reps: Vec<Representative> = medoids
        .iter()
        .enumerate()
        .map(|(c, &m)| {
            let members: Vec<usize> = (0..n).filter(|&i| assign[i] == c).collect();
            let cluster_ops: u64 = members.iter().map(|&i| intervals[i].ops).sum();
            Representative {
                interval: m,
                weight: cluster_ops as f64 / intervals[m].ops.max(1) as f64,
                cluster_size: members.len(),
            }
        })
        .filter(|r| r.cluster_size > 0)
        .collect();
    reps.sort_by_key(|r| r.interval);
    reps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(interval_ops: u64) -> IntervalConfig {
        IntervalConfig { interval_ops, max_intervals: 4, signature_bits: 512, pc_buckets: 16 }
    }

    /// Builds fingerprints for a synthetic trace of `phases` back-to-back
    /// segments, each `(len, pc_base, addr_base)`.
    fn profile(interval_ops: u64, phases: &[(u64, u64, u64)]) -> Vec<IntervalFingerprint> {
        let mut p = IntervalProfiler::new(cfg(interval_ops));
        for &(len, pc_base, addr_base) in phases {
            for i in 0..len {
                p.record(pc_base + (i % 16) * 4, Some(Addr(addr_base + (i % 64) * 32)));
            }
        }
        p.finish()
    }

    #[test]
    fn intervals_tile_the_trace() {
        let fps = profile(100, &[(1050, 0x400, 0)]);
        assert_eq!(fps.len(), 11);
        assert!(fps[..10].iter().all(|f| f.ops == 100));
        assert_eq!(fps[10].ops, 50);
        assert_eq!(fps.iter().map(|f| f.ops).sum::<u64>(), 1050);
    }

    #[test]
    fn identical_intervals_have_zero_distance() {
        // 128-op intervals over period-64 access / period-16 pc patterns:
        // every interval sees the exact same fingerprint.
        let fps = profile(128, &[(384, 0x400, 0)]);
        assert!(fps[0].distance(&fps[1]) < 1e-12);
        assert!(fps[0].distance(&fps[0]) < 1e-12);
    }

    #[test]
    fn disjoint_intervals_are_far_apart() {
        // Disjoint data: the signature half of the distance saturates at 1.
        // The 16 PC buckets partially collide across phases, so the overall
        // distance lands above 0.5 but below 1.
        let fps = profile(128, &[(128, 0x400, 0), (128, 0x9000_0400, 0x100_0000)]);
        assert!(fps[0].distance(&fps[1]) > 0.5, "d = {}", fps[0].distance(&fps[1]));
    }

    #[test]
    fn two_phase_trace_selects_one_rep_per_phase() {
        // 5 intervals of phase A then 4 of phase B.
        let fps = profile(128, &[(640, 0x400, 0), (512, 0x9000_0400, 0x100_0000)]);
        let reps = select(&fps, 4);
        // Zero-distance duplicates collapse: exactly two clusters survive.
        assert_eq!(reps.len(), 2, "reps: {reps:?}");
        assert!(reps[0].interval < 5 && reps[1].interval >= 5);
        assert_eq!(reps[0].cluster_size, 5);
        assert_eq!(reps[1].cluster_size, 4);
        assert!((reps[0].weight - 5.0).abs() < 1e-9);
        assert!((reps[1].weight - 4.0).abs() < 1e-9);
    }

    #[test]
    fn weights_reconstruct_total_ops() {
        let fps = profile(128, &[(640, 0x400, 0), (512, 0x9000_0400, 0x100_0000), (200, 0x400, 0)]);
        let total: u64 = fps.iter().map(|f| f.ops).sum();
        for k in 1..=5 {
            let reps = select(&fps, k);
            let rebuilt: f64 = reps.iter().map(|r| r.weight * fps[r.interval].ops as f64).sum();
            assert!((rebuilt - total as f64).abs() < 1e-6, "k={k}: rebuilt {rebuilt} vs {total}");
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let fps = profile(100, &[(730, 0x400, 0), (570, 0x9000_0400, 0x100_0000)]);
        let a = select(&fps, 3);
        let b = select(&fps, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let fps = profile(128, &[(320, 0x400, 0)]);
        let reps = select(&fps, 100);
        assert!(reps.len() <= 3);
        let covered: usize = reps.iter().map(|r| r.cluster_size).sum();
        assert_eq!(covered, 3, "every interval must belong to a cluster");
    }

    #[test]
    fn empty_inputs() {
        assert!(select(&[], 4).is_empty());
        let fps = profile(100, &[(100, 0x400, 0)]);
        assert!(select(&fps, 0).is_empty());
        assert!(IntervalProfiler::new(cfg(100)).finish().is_empty());
    }
}
