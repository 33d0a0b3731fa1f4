//! Bit-reproducibility: every stage of the framework is deterministic, so
//! a full experiment yields identical results on every run.

use selcache::compiler::{selective, OptConfig};
use selcache::core::json::Json;
use selcache::core::{
    AssistKind, Experiment, JobEngine, MachineConfig, SimJob, SimMode, SimResult, Store, Version,
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

#[test]
fn victim_and_bypass_experiments_differ() {
    // Sanity: the assists actually change the simulation.
    let bypass = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
    let victim = Experiment::new(MachineConfig::base(), AssistKind::Victim);
    let a = bypass.run(Benchmark::Perl, Scale::Tiny, Version::PureHardware);
    let b = victim.run(Benchmark::Perl, Scale::Tiny, Version::PureHardware);
    assert_ne!(a.cycles, b.cycles);
}
