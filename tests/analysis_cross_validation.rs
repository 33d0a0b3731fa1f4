//! Cross-validation between the analysis crate's model-free predictions and
//! the cycle-accurate simulator's measurements.

use selcache::analysis::{ReuseProfiler, ReuseSpectrum};
use selcache::core::{
    AssistKind, Experiment, JobEngine, MachineConfig, SweepAxis, SweepMode, SweepSpec, Version,
};
use selcache::ir::Interp;
use selcache::workloads::{Benchmark, Scale};

/// The Mattson fully-associative LRU miss ratio at the L1's capacity should
/// track the simulated 4-way L1 miss rate: the FA model is a lower bound
/// (set conflicts can only add misses), up to small write-path effects.
#[test]
fn reuse_profile_predicts_l1_miss_rate() {
    for bm in [Benchmark::TpcDQ6, Benchmark::Li, Benchmark::Vpenta] {
        let program = bm.build(Scale::Tiny);
        let mut prof = ReuseProfiler::new(32);
        let mut spec = ReuseSpectrum::new();
        for op in Interp::new(&program) {
            if let Some(a) = op.kind.addr() {
                spec.record(prof.record(a));
            }
        }
        // The exact FA ratios at the L1's 32K and at twice that.
        let fa_upper = spec.fa_miss_ratio(32 * 1024 / 32);
        let fa_lower = spec.fa_miss_ratio(64 * 1024 / 32);

        let exp = Experiment::new(MachineConfig::base(), AssistKind::None);
        let measured = exp.run_program(&program, Version::Base).mem.l1d.miss_rate();
        assert!(
            measured >= fa_lower - 0.05,
            "{bm}: simulated {measured:.3} below FA lower bound {fa_lower:.3}"
        );
        assert!(
            measured <= fa_upper + 0.25,
            "{bm}: simulated {measured:.3} far above FA upper bound {fa_upper:.3}"
        );
    }
}

/// The analytical sweep engine's estimated miss ratios must track exact
/// simulation across a size × associativity grid for regular, irregular,
/// and database benchmarks alike: with `check_fraction: 1.0` every grid
/// point is verified, and the reported error summary bounds the
/// projection's absolute miss-ratio error.
#[test]
fn analytical_sweep_grid_tracks_exact_simulation() {
    let engine = JobEngine::default();
    for bm in [Benchmark::TpcDQ6, Benchmark::Li, Benchmark::Vpenta] {
        let sweep = SweepSpec::new(bm)
            .scale(Scale::Tiny)
            .mode(SweepMode::Analytical { check_fraction: 1.0 })
            .axis(SweepAxis::L1Size, [8 * 1024, 32 * 1024])
            .axis(SweepAxis::L1Assoc, [2, 8])
            .run_with(&engine)
            .unwrap_or_else(|e| panic!("{bm}: {e}"));
        // One trace pass per version, every point cross-checked.
        assert_eq!(sweep.work.trace_passes, 2, "{bm}");
        assert_eq!(sweep.points.len(), 4, "{bm}");
        let check = sweep.check.expect("full cross-check ran");
        assert_eq!(check.checked, 4, "{bm}");
        assert!(
            check.max_abs_error < 0.15,
            "{bm}: max |err| {:.4} exceeds the projection bound",
            check.max_abs_error
        );
        assert!(check.mean_abs_error <= check.max_abs_error + 1e-12, "{bm}");
        // Every point carries both the estimate and its verification, and
        // the summary really is the max over them.
        let mut worst = 0.0f64;
        for p in &sweep.points {
            let est = p.estimate().unwrap_or_else(|| panic!("{bm}: analytical point"));
            assert!((0.0..=1.0).contains(&est.base), "{bm}: {est:?}");
            assert!((0.0..=1.0).contains(&est.optimized), "{bm}: {est:?}");
            let c = p.check().unwrap_or_else(|| panic!("{bm}: checked point"));
            worst = worst.max(c.abs_error);
        }
        assert!((worst - check.max_abs_error).abs() < 1e-12, "{bm}");
    }
}

/// The footprint reported by the profiler matches the compulsory-miss count
/// of the simulated L1 (both count distinct 32-byte blocks).
#[test]
fn footprint_equals_compulsory_misses() {
    let program = Benchmark::Compress.build(Scale::Tiny);
    let mut prof = ReuseProfiler::new(32);
    for op in Interp::new(&program) {
        if let Some(a) = op.kind.addr() {
            prof.record(a);
        }
    }
    let exp = Experiment::new(MachineConfig::base(), AssistKind::None);
    let r = exp.run_program(&program, Version::Base);
    assert_eq!(prof.footprint_blocks() as u64, r.mem.l1d.compulsory);
}
