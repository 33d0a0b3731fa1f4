//! Cross-validation of the analysis crate against the actual cache
//! simulator: Mattson miss-ratio curves must agree with fully-associative
//! LRU cache simulations of each size.

use selcache_analysis::{ReuseProfiler, ReuseSpectrum};
use selcache_ir::{Addr, Interp};
use selcache_mem::{Cache, CacheConfig};
use selcache_workloads::{Benchmark, Scale};

/// Simulate an LRU cache of the given geometry over a block stream and
/// return its miss ratio.
fn lru_miss_ratio(stream: &[u64], sets: u64, assoc: u32) -> f64 {
    let mut cache =
        Cache::new(CacheConfig { size: sets * assoc as u64 * 32, assoc, block_size: 32 });
    let mut misses = 0u64;
    for &a in stream {
        let b = cache.block_of(Addr(a));
        if !cache.access(b, false).is_hit() {
            misses += 1;
            cache.fill(b, false);
        }
    }
    misses as f64 / stream.len() as f64
}

/// Simulate a fully-associative LRU cache of `blocks` lines over a block
/// stream and return its miss ratio.
fn fa_lru_miss_ratio(stream: &[u64], blocks: u64) -> f64 {
    lru_miss_ratio(stream, 1, blocks as u32)
}

/// The exact reuse-distance spectrum of a block stream.
fn spectrum_of(stream: &[u64]) -> ReuseSpectrum {
    let mut prof = ReuseProfiler::new(32);
    let mut spec = ReuseSpectrum::new();
    for &a in stream {
        spec.record(prof.record(Addr(a)));
    }
    spec
}

#[test]
fn mattson_curve_matches_direct_simulation() {
    // A benchmark trace at block granularity.
    let program = Benchmark::TpcDQ3.build(Scale::Tiny);
    let stream: Vec<u64> =
        Interp::new(&program).filter_map(|o| o.kind.addr().map(|a| a.0)).take(60_000).collect();
    let spec = spectrum_of(&stream);

    // The spectrum keeps every distance, so its curve equals a direct
    // simulation at every size, powers of two or not.
    for blocks in [64u64, 256, 1000, 1024, 4096] {
        let direct = fa_lru_miss_ratio(&stream, blocks);
        let est = spec.fa_miss_ratio(blocks);
        assert!(
            (est - direct).abs() < 1e-12,
            "blocks={blocks}: spectrum {est:.6} vs direct {direct:.6}"
        );
    }
}

#[test]
fn exact_power_of_two_sizes_match_exactly() {
    // Cyclic streams: a loop that fits hits after its cold misses, and one
    // that does not fit misses every time (cyclic LRU worst case).
    let n = 100u64;
    let stream: Vec<u64> = (0..5).flat_map(|_| (0..n).map(|b| b * 32)).collect();
    let spec = spectrum_of(&stream);
    // A 128-block LRU cache holds the whole 100-block loop: only cold misses.
    let direct = fa_lru_miss_ratio(&stream, 128);
    let est = spec.fa_miss_ratio(128);
    assert!((direct - n as f64 / stream.len() as f64).abs() < 1e-9);
    assert!((est - direct).abs() < 1e-12, "est {est} direct {direct}");
    // A 64-block cache misses everything.
    assert!((fa_lru_miss_ratio(&stream, 64) - 1.0).abs() < 1e-9);
    assert!((spec.fa_miss_ratio(64) - 1.0).abs() < 1e-12);
}

#[test]
fn set_assoc_projection_tracks_direct_simulation() {
    // The binomial projection from the fully-associative spectrum must
    // track a direct set-associative LRU simulation of the same stream
    // across a geometry grid, for regular, irregular, and database
    // benchmarks alike.
    for bm in [Benchmark::TpcDQ3, Benchmark::Li, Benchmark::Chaos] {
        let program = bm.build(Scale::Tiny);
        let stream: Vec<u64> =
            Interp::new(&program).filter_map(|o| o.kind.addr().map(|a| a.0)).take(60_000).collect();
        let model = spectrum_of(&stream).model();
        let mut worst = 0.0f64;
        for (sets, assoc) in [(64u64, 2u32), (128, 2), (128, 4), (256, 4), (256, 8), (512, 8)] {
            let est = model.miss_ratio(sets, assoc);
            let direct = lru_miss_ratio(&stream, sets, assoc);
            worst = worst.max((est - direct).abs());
            assert!(
                (est - direct).abs() < 0.10,
                "{bm} sets={sets} assoc={assoc}: model {est:.4} vs direct {direct:.4}"
            );
        }
        // The grid as a whole should be much tighter than the per-point
        // worst-case bound.
        assert!(worst < 0.10, "{bm}: worst-case projection error {worst:.4}");
    }
}

#[test]
fn fully_associative_projection_is_exact() {
    // With one set the projection degenerates to Mattson and must equal
    // a direct fully-associative simulation exactly.
    let program = Benchmark::TpcDQ6.build(Scale::Tiny);
    let stream: Vec<u64> =
        Interp::new(&program).filter_map(|o| o.kind.addr().map(|a| a.0)).take(40_000).collect();
    let model = spectrum_of(&stream).model();
    for blocks in [64u32, 256, 1000] {
        let direct = fa_lru_miss_ratio(&stream, blocks as u64);
        let est = model.miss_ratio(1, blocks);
        assert!(
            (est - direct).abs() < 1e-9,
            "blocks={blocks}: model {est:.6} vs direct {direct:.6}"
        );
    }
}
