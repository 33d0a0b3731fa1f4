//! Cross-validation of the analysis crate against the actual cache
//! simulator: Mattson miss-ratio curves must agree with fully-associative
//! LRU cache simulations of each size.

use selcache_analysis::{PhaseConfig, PhaseDetector, ReuseProfiler, ReuseSpectrum};
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

#[test]
fn mattson_curve_matches_direct_simulation() {
    // A benchmark trace at block granularity.
    let program = Benchmark::TpcDQ3.build(Scale::Tiny);
    let stream: Vec<u64> =
        Interp::new(&program).filter_map(|o| o.kind.addr().map(|a| a.0)).take(60_000).collect();

    let mut prof = ReuseProfiler::new(32);
    for &a in &stream {
        prof.record(Addr(a));
    }

    for blocks in [64u64, 256, 1024, 4096] {
        let direct = fa_lru_miss_ratio(&stream, blocks);
        // The histogram is log2-bucketed, so its estimate brackets the truth
        // between the exact ratios at the surrounding powers of two.
        let upper = prof.histogram().miss_ratio(blocks);
        assert!(
            upper >= direct - 1e-9,
            "blocks={blocks}: histogram {upper:.4} below direct {direct:.4}"
        );
        let lower = prof.histogram().miss_ratio(blocks * 2);
        assert!(
            lower <= direct + 1e-9,
            "blocks={blocks}: histogram(2x) {lower:.4} above direct {direct:.4}"
        );
    }
}

#[test]
fn exact_power_of_two_sizes_match_exactly() {
    // With distances recorded per power-of-two bucket, cache sizes that are
    // powers of two have exact curves on synthetic cyclic streams.
    let n = 100u64;
    let stream: Vec<u64> = (0..5).flat_map(|_| (0..n).map(|b| b * 32)).collect();
    let mut prof = ReuseProfiler::new(32);
    for &a in &stream {
        prof.record(Addr(a));
    }
    // A 128-block LRU cache holds the whole 100-block loop: only cold misses.
    let direct = fa_lru_miss_ratio(&stream, 128);
    let est = prof.histogram().miss_ratio(128);
    assert!((direct - n as f64 / stream.len() as f64).abs() < 1e-9);
    assert!((est - direct).abs() < 1e-9, "est {est} direct {direct}");
    // A 64-block cache misses everything (cyclic LRU worst case).
    assert!((fa_lru_miss_ratio(&stream, 64) - 1.0).abs() < 1e-9);
    assert!((prof.histogram().miss_ratio(64) - 1.0).abs() < 1e-9);
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
        let mut prof = ReuseProfiler::new(32);
        let mut spec = ReuseSpectrum::new();
        for &a in &stream {
            spec.record(prof.record(Addr(a)));
        }
        let model = spec.model();
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
    let mut prof = ReuseProfiler::new(32);
    let mut spec = ReuseSpectrum::new();
    for &a in &stream {
        spec.record(prof.record(Addr(a)));
    }
    let model = spec.model();
    for blocks in [64u32, 256, 1000] {
        let direct = fa_lru_miss_ratio(&stream, blocks as u64);
        let est = model.miss_ratio(1, blocks);
        assert!(
            (est - direct).abs() < 1e-9,
            "blocks={blocks}: model {est:.6} vs direct {direct:.6}"
        );
    }
}

#[test]
fn phase_detector_sees_benchmark_phase_structure() {
    // Chaos alternates edge/node/grid phases every timestep.
    let program = Benchmark::Chaos.build(Scale::Tiny);
    let mut d = PhaseDetector::new(PhaseConfig {
        window: 8192,
        signature_bits: 32 * 1024,
        ..PhaseConfig::default()
    });
    let mut accesses = 0usize;
    for op in Interp::new(&program) {
        if let Some(a) = op.kind.addr() {
            d.record(a);
            accesses += 1;
        }
    }
    let phases = d.finish();
    assert!(phases.len() >= 3, "chaos should show >= 3 phases, got {}", phases.len());
    assert_eq!(phases.first().unwrap().start, 0);
    assert_eq!(phases.last().unwrap().end, accesses);
    // Phases tile the stream without gaps.
    for w in phases.windows(2) {
        assert_eq!(w[0].end, w[1].start);
    }
}
