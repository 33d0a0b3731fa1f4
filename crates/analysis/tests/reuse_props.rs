//! Property tests of the reuse profiler's internals: `ReuseProfiler` returns
//! the distance a naive move-to-front LRU stack gives, on streams long
//! enough to make its time axis compact and grow several times, and
//! `Fenwick::grow` keeps every prefix sum.
//!
//! Streams are built from one generated seed by a local SplitMix64, so the
//! vendored proptest only has to draw integers.

use proptest::prelude::*;
use selcache_analysis::{Distance, Fenwick, ReuseProfiler};
use selcache_ir::Addr;

/// SplitMix64 over a seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `len` block numbers whose footprint grows to at most `footprint`: each
/// access touches a new block with probability `fresh_permille`/1000,
/// otherwise reuses a seen block, uniformly or among the latest 32.
fn stream(seed: u64, len: usize, footprint: u64, fresh_permille: u64) -> Vec<u64> {
    let mut g = Gen(seed);
    let mut seen = 0;
    (0..len)
        .map(|_| {
            if seen == 0 || (seen < footprint && g.below(1000) < fresh_permille) {
                seen += 1;
                seen - 1
            } else if g.below(2) == 0 {
                g.below(seen)
            } else {
                seen - 1 - g.below(seen.min(32))
            }
        })
        .collect()
}

/// Checks every distance the profiler returns against a move-to-front LRU
/// stack (most recent block last), with accesses anywhere inside a block.
fn assert_matches_naive(blocks: &[u64], block_size: u64, seed: u64) {
    let mut g = Gen(seed);
    let mut profiler = ReuseProfiler::new(block_size);
    let mut stack: Vec<u64> = Vec::new();
    for (k, &b) in blocks.iter().enumerate() {
        let expected = match stack.iter().rposition(|&x| x == b) {
            Some(pos) => {
                stack.remove(pos);
                Distance::Finite((stack.len() - pos) as u64)
            }
            None => Distance::Cold,
        };
        stack.push(b);
        let addr = Addr(b * block_size + g.below(block_size));
        assert_eq!(profiler.record(addr), expected, "access {k} to block {b}");
    }
    assert_eq!(profiler.footprint_blocks(), stack.len());
}

/// How often the profiler's time axis compacts and grows on `blocks`: the
/// schedule `ReuseProfiler` documents (1024 slots to start; when full,
/// compact if at most a quarter are live, else double).
fn axis_events(blocks: &[u64]) -> (usize, usize) {
    let (mut slots, mut time) = (1024, 0);
    let mut seen = std::collections::HashSet::new();
    let (mut compactions, mut grows) = (0, 0);
    for &b in blocks {
        if time >= slots {
            if seen.len() * 4 <= slots {
                compactions += 1;
                time = seen.len();
            } else {
                grows += 1;
                slots *= 2;
            }
        }
        seen.insert(b);
        time += 1;
    }
    (compactions, grows)
}

#[test]
fn growing_footprints_compact_and_grow_several_times() {
    for (seed, footprint, fresh) in [(1, 3000, 100), (2, 2000, 80), (3, 4000, 120)] {
        let blocks = stream(seed, 20_000, footprint, fresh);
        let (compactions, grows) = axis_events(&blocks);
        assert!(compactions >= 3 && grows >= 3, "{compactions} compactions, {grows} grows");
        for block_size in [1, 16, 64, 128] {
            assert_matches_naive(&blocks, block_size, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn profiler_matches_naive_lru_stack(
        seed in any::<u64>(),
        len in 1usize..20_000,
        footprint in 1u64..4000,
        fresh_permille in 1u64..1000,
        block_size in prop_oneof![Just(1u64), Just(16), Just(64), Just(128)],
    ) {
        let blocks = stream(seed, len, footprint, fresh_permille);
        assert_matches_naive(&blocks, block_size, seed);
    }

    #[test]
    fn grow_keeps_every_prefix_sum(
        seed in any::<u64>(),
        old in 1usize..300,
        extra in 0usize..300,
    ) {
        let mut g = Gen(seed);
        let mut f = Fenwick::new(old);
        let mut values = vec![0u64; old];
        for _ in 0..g.below(2 * old as u64) {
            let (i, delta) = (g.below(old as u64) as usize, g.below(5));
            f.add(i, delta as i64);
            values[i] += delta;
        }
        f.grow(old + extra);
        prop_assert_eq!(f.len(), old + extra);
        values.resize(old + extra, 0);
        // The grown tree answers and updates like a fresh one.
        for round in 0..2 {
            let mut sum = 0;
            for (i, v) in values.iter().enumerate() {
                prop_assert_eq!(f.prefix(i), sum, "round {} prefix({})", round, i);
                sum += v;
            }
            prop_assert_eq!(f.prefix(values.len()), sum, "round {}", round);
            let i = g.below(values.len() as u64) as usize;
            f.add(i, 3);
            values[i] += 3;
        }
    }
}
