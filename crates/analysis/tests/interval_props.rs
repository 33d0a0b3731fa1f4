//! Property tests for the interval selector behind sampled simulation:
//! determinism under repeated runs, and weights that reconstruct the trace
//! length exactly.

use proptest::prelude::*;
use selcache_analysis::{
    select, IntervalConfig, IntervalFingerprint, IntervalProfiler, Representative,
};
use selcache_ir::Addr;

/// Deterministic pseudo-random block stream.
fn stream(seed: u64, len: usize, footprint: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 24) % footprint.max(1)
        })
        .collect()
}

proptest! {
    /// Interval selection is deterministic, and its weights always
    /// reconstruct the exact trace length regardless of the clustering
    /// outcome — the invariant the sampled mode's extrapolation rests on.
    #[test]
    fn selection_weights_reconstruct_ops(
        seed in any::<u64>(),
        len in 1usize..4000,
        footprint in 1u64..10_000,
        k in 1usize..6,
    ) {
        let addrs = stream(seed, len, footprint);
        let icfg = IntervalConfig {
            interval_ops: 256,
            max_intervals: k,
            signature_bits: 512,
            pc_buckets: 16,
        };
        let run = || {
            let mut p = IntervalProfiler::new(icfg);
            for (i, &a) in addrs.iter().enumerate() {
                p.record(0x40_0000 + (i as u64 % 32) * 4, Some(Addr(a * 32)));
            }
            p.finish()
        };
        let fps = run();
        prop_assert_eq!(&fps, &run());
        let reps_a = select(&fps, k);
        let reps_b = select(&fps, k);
        prop_assert_eq!(&reps_a, &reps_b);
        prop_assert!(!reps_a.is_empty() && reps_a.len() <= k);
        let rebuilt: f64 = reps_a.iter().map(|r| r.weight * fps[r.interval].ops as f64).sum();
        prop_assert!((rebuilt - len as f64).abs() < 1e-6, "rebuilt {} vs {}", rebuilt, len);
    }
}

/// `select` as it was before it tabulated distances: the same k-medoids,
/// recomputing every pair's distance each time it is visited. The
/// reference the tabulated selection must match bit for bit.
fn select_pairwise(intervals: &[IntervalFingerprint], k: usize) -> Vec<Representative> {
    let n = intervals.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let dist = |a: usize, b: usize| intervals[a].distance(&intervals[b]);
    let mut medoids = vec![0usize];
    let mut min_d: Vec<f64> = (0..n).map(|i| dist(0, i)).collect();
    while medoids.len() < k {
        let (far, far_d) =
            min_d
                .iter()
                .enumerate()
                .fold((0, -1.0), |acc, (i, &d)| if d > acc.1 { (i, d) } else { acc });
        if far_d <= 0.0 {
            break;
        }
        medoids.push(far);
        for (i, d) in min_d.iter_mut().enumerate() {
            *d = d.min(dist(far, i));
        }
    }
    medoids.sort_unstable();
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

/// Bit-level view of a selection, so equal weights must be equal bits.
fn bits(reps: &[Representative]) -> Vec<(usize, u64, usize)> {
    reps.iter().map(|r| (r.interval, r.weight.to_bits(), r.cluster_size)).collect()
}

proptest! {
    /// The tabulated `select` picks exactly what the pairwise original
    /// picks: the same representatives, cluster sizes and weight bits.
    /// Streams repeat phases (duplicate intervals), end in a short tail
    /// interval unless the length divides evenly, and `k` runs past the
    /// interval count.
    #[test]
    fn select_matches_the_pairwise_original(
        seed in any::<u64>(),
        intervals in 1usize..48,
        tail in 0usize..256,
        phases in 1u64..6,
        k in 1usize..56,
    ) {
        let icfg = IntervalConfig {
            interval_ops: 256,
            max_intervals: k,
            signature_bits: 512,
            pc_buckets: 16,
        };
        let len = (intervals - 1) * 256 + tail.max(1);
        let blocks = stream(seed, len, 4096);
        let mut p = IntervalProfiler::new(icfg);
        for (i, &b) in blocks.iter().enumerate() {
            // Each interval runs one of a few phases, with its own code.
            // Phase 0 touches random blocks; every other phase walks the
            // same blocks each time, so its intervals repeat exactly.
            let (phase, at) = ((i as u64 / 256) * 7 % phases, i as u64 % 256);
            let block = if phase == 0 { b } else { phase * 4096 + at * 3 % 256 };
            p.record(0x40_0000 + phase * 0x100 + at % 16 * 4, Some(Addr(block * 32)));
        }
        let fps = p.finish();
        prop_assert_eq!(bits(&select(&fps, k)), bits(&select_pairwise(&fps, k)));
    }
}
