//! Bit-reproducibility: every stage of the framework is deterministic, so
//! a full experiment yields identical results on every run.

use selcache::compiler::{selective, OptConfig};
use selcache::core::json::Json;
use selcache::core::{
    AssistKind, ControllerConfig, Experiment, JobEngine, MachineConfig, SimJob, SimMode, SimResult,
    Store, SweepAxis, SweepMode, SweepSpec, Version,
};
use selcache::ir::Interp;
use selcache::workloads::{Benchmark, Scale};

#[test]
fn benchmarks_build_identically() {
    for bm in Benchmark::ALL {
        assert_eq!(bm.build(Scale::Tiny), bm.build(Scale::Tiny), "{bm}");
    }
}

#[test]
fn traces_are_identical_across_runs() {
    let p = Benchmark::TpcDQ3.build(Scale::Tiny);
    let a: Vec<_> = Interp::new(&p).collect();
    let b: Vec<_> = Interp::new(&p).collect();
    assert_eq!(a, b);
}

#[test]
fn compilation_is_deterministic() {
    let opt = OptConfig::default();
    for bm in [Benchmark::Swim, Benchmark::Chaos] {
        let p = bm.build(Scale::Tiny);
        assert_eq!(selective(&p, &opt), selective(&p, &opt), "{bm}");
    }
}

#[test]
fn full_experiments_are_bit_reproducible() {
    let exp = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
    for version in [Version::Base, Version::Selective] {
        let a = exp.run(Benchmark::Li, Scale::Tiny, version);
        let b = exp.run(Benchmark::Li, Scale::Tiny, version);
        assert_eq!(a, b, "{version}");
    }
}

/// Renders sampled results the way the JSON surfaces do: every
/// deterministic counter plus the full `SampledInfo` coverage block. Wall
/// times are the only thing legitimately thread-dependent, and none appear
/// here — so the rendered string must be byte-identical at every thread
/// count.
fn sampled_json(results: &[SimResult]) -> String {
    Json::Arr(
        results
            .iter()
            .map(|r| {
                let info = r.sampled.expect("sampled runs report coverage");
                Json::obj([
                    ("cycles", Json::UInt(r.cycles)),
                    ("instructions", Json::UInt(r.instructions)),
                    ("l1d_miss_pct", Json::Num(r.l1_miss_pct())),
                    ("l2_miss_pct", Json::Num(r.l2_miss_pct())),
                    ("total_ops", Json::UInt(info.total_ops)),
                    ("intervals", Json::UInt(info.intervals as u64)),
                    ("representatives", Json::UInt(info.representatives as u64)),
                    ("detailed_ops", Json::UInt(info.detailed_ops)),
                    ("warmup_ops", Json::UInt(info.warmup_ops)),
                    ("coverage", Json::Num(info.coverage())),
                ])
            })
            .collect(),
    )
    .to_string()
}

/// The intra-job parallel sampled path: representative intervals fan out
/// over the engine's executor, and the reconstructed JSON — counters and
/// `SampledInfo` coverage fields alike — is byte-identical for thread
/// budgets 1, 2, and 8, with or without a result store in the loop.
#[test]
fn sampled_json_is_thread_count_invariant() {
    let machine = MachineConfig::base();
    // A small-scale job with a hand-tuned interval geometry, so several
    // representatives exist to fan out (the default 128 Ki-op interval
    // would cover this trace with one).
    let mode = SimMode::Sampled { interval_ops: 4096, max_intervals: 4, warmup: 1024 };
    let jobs: Vec<SimJob> = [Version::Base, Version::Selective]
        .iter()
        .map(|&v| {
            SimJob::new(Benchmark::Vpenta, Scale::Small, machine.clone(), AssistKind::Bypass, v)
                .with_mode(mode)
        })
        .collect();

    let reference = JobEngine::new(1).run(&jobs);
    let reference_json = sampled_json(&reference);
    assert!(
        reference[0].sampled.expect("sampled info").representatives > 1,
        "geometry must yield real fan-out work"
    );
    for threads in [2, 8] {
        let json = sampled_json(&JobEngine::new(threads).run(&jobs));
        assert_eq!(json, reference_json, "threads = {threads}");
    }

    // Store-warm interaction: a cold parallel run populates the store;
    // warm runs at 1, 2 and 8 threads (store lookups fan out on the
    // executor) answer everything from it without simulating. All render
    // to the same bytes as the store-less reference.
    let root =
        std::env::temp_dir().join(format!("selcache-determinism-sampled-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let open = || Store::open(&root).expect("open scratch store");
    let (cold, cold_stats) = JobEngine::with_store(8, open()).run_with_stats(&jobs);
    assert_eq!(sampled_json(&cold), reference_json, "cold store run");
    assert!(cold_stats.executed > 0);
    let warm: Vec<_> = [1, 2, 8]
        .into_iter()
        .map(|threads| (threads, JobEngine::with_store(threads, open()).run_with_stats(&jobs)))
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    for (threads, (results, stats)) in warm {
        assert_eq!(stats.executed, 0, "warm store run must simulate nothing, threads = {threads}");
        assert_eq!(stats.store_hits, cold_stats.store_misses, "threads = {threads}");
        assert_eq!(sampled_json(&results), reference_json, "warm store run, threads = {threads}");
    }
}

/// The analytical sweep profiles each (program version, line size) on the
/// engine's executor: points, cross-checks and work accounting are the
/// same for thread budgets 1, 2 and 8, and four estimates are pinned bit
/// for bit.
#[test]
fn analytical_sweep_is_thread_count_invariant() {
    let spec = |bm| {
        SweepSpec::new(bm)
            .scale(Scale::Tiny)
            .mode(SweepMode::Analytical { check_fraction: 0.1 })
            .axis(SweepAxis::L1Size, [4 * 1024, 16 * 1024, 64 * 1024])
            .axis(SweepAxis::L1Assoc, [1, 2, 4])
            .axis(SweepAxis::L1Line, [16, 64])
    };
    let mut estimates = Vec::new();
    for bm in [Benchmark::Chaos, Benchmark::Li] {
        let reference = spec(bm).run_with(&JobEngine::new(1)).unwrap();
        assert_eq!(reference.work.trace_passes, 4, "{bm}: two versions x two line sizes");
        assert!(reference.check.is_some(), "{bm}: the cross-check ran");
        for threads in [2, 8] {
            let sweep = spec(bm).run_with(&JobEngine::new(threads)).unwrap();
            assert_eq!(sweep.points, reference.points, "{bm}, threads = {threads}");
            assert_eq!(sweep.check, reference.check, "{bm}, threads = {threads}");
            assert_eq!(sweep.work, reference.work, "{bm}, threads = {threads}");
        }
        estimates.push(reference.points);
    }
    // Recorded when each version's line sizes still shared one serial
    // trace pass: 0.5904132471368311, 0.06284026463737236,
    // 0.6055785688761495 and 0.4063415261373434.
    const PINNED: [u64; 4] =
        [0x3fe2e4aa52727dca, 0x3fb0164cb17d4fd8, 0x3fe360e64e8f68d2, 0x3fda017fe371104a];
    let est = |bm: usize, point: usize| *estimates[bm][point].estimate().unwrap();
    // Chaos at (4 KiB, 1-way, 16 B) and (64 KiB, 4-way, 64 B); Li at
    // (16 KiB, 2-way, 16 B) and (64 KiB, 1-way, 64 B).
    assert_eq!(est(0, 0).base.to_bits(), PINNED[0]);
    assert_eq!(est(0, 17).optimized.to_bits(), PINNED[1]);
    assert_eq!(est(1, 8).base.to_bits(), PINNED[2]);
    assert_eq!(est(1, 13).optimized.to_bits(), PINNED[3]);
}

#[test]
fn victim_and_bypass_experiments_differ() {
    // Sanity: the assists actually change the simulation.
    let bypass = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
    let victim = Experiment::new(MachineConfig::base(), AssistKind::Victim);
    let a = bypass.run(Benchmark::Perl, Scale::Tiny, Version::PureHardware);
    let b = victim.run(Benchmark::Perl, Scale::Tiny, Version::PureHardware);
    assert_ne!(a.cycles, b.cycles);
}

#[test]
fn controller_runs_match_for_every_static_assist() {
    // Under the online controller the hardware picks {off, bypass, victim}
    // per region and builds no stream buffers, so the three attached
    // static assists must give the same run.
    let versions = [Version::PureHardware, Version::Combined, Version::Selective];
    let assists = [AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream];
    let jobs: Vec<SimJob> = assists
        .iter()
        .flat_map(|&assist| {
            Benchmark::ALL.into_iter().flat_map(move |bm| {
                versions.map(|v| {
                    SimJob::new(bm, Scale::Tiny, MachineConfig::base(), assist, v)
                        .with_controller(ControllerConfig::default())
                })
            })
        })
        .collect();
    let results = JobEngine::new(0).run(&jobs);
    let per_assist = jobs.len() / assists.len();
    let (bypass, others) = results.split_at(per_assist);
    for (other, assist) in others.chunks(per_assist).zip(&assists[1..]) {
        for ((b, o), job) in bypass.iter().zip(other).zip(&jobs) {
            let what = format!("{} {:?} under {assist:?}", job.benchmark, job.version);
            assert_eq!(b.cpu, o.cpu, "{what}: CPU stats differ from Bypass");
            assert_eq!(b.mem, o.mem, "{what}: hierarchy stats differ from Bypass");
        }
    }
}
