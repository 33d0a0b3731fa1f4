//! Property tests for the interval selector behind sampled simulation:
//! determinism under repeated runs, and weights that reconstruct the trace
//! length exactly.

use proptest::prelude::*;
use selcache_analysis::{select, IntervalConfig, IntervalProfiler};
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
