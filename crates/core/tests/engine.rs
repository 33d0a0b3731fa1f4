//! Engine-level guarantees the unified run API is built on: thread-count
//! independence (byte-identical reports), job deduplication, and one set
//! of run rules for every entry point.

use selcache_core::{
    AssistKind, Benchmark, ControllerConfig, Experiment, ExperimentBuilder, JobEngine,
    MachineConfig, Scale, SimJob, SimMode, Store, SuiteResult, Version,
};
use std::slice;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::Vpenta, Benchmark::Compress];

/// Runs the same two-benchmark suite serially and on an 8-worker pool and
/// demands identical results row by row — and byte-identical formatted
/// output, the acceptance bar for the parallel engine.
#[test]
fn parallel_suite_is_deterministic() {
    let suite = |threads: usize| {
        SuiteResult::run(
            &JobEngine::new(threads),
            MachineConfig::base(),
            AssistKind::Bypass,
            Scale::Tiny,
            &BENCHMARKS,
            SimMode::Exact,
        )
    };
    let serial = suite(1);
    let parallel = suite(8);

    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(s.benchmark, p.benchmark);
        assert_eq!(s.base.cycles, p.base.cycles);
        assert_eq!(s.base.instructions, p.base.instructions);
        assert_eq!(s.base.l1_miss_pct(), p.base.l1_miss_pct());
        assert_eq!(s.improvements, p.improvements);
    }
    assert_eq!(serial.format_figure(4), parallel.format_figure(4));
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

/// One benchmark studied under two assists submits 10 jobs but only 8
/// distinct simulations: Base and PureSoftware never touch the assist, so
/// each executes exactly once per machine and serves both studies.
#[test]
fn base_runs_are_shared_across_assist_studies() {
    let machine = MachineConfig::base();
    let mut jobs = Vec::new();
    for assist in [AssistKind::Bypass, AssistKind::Victim] {
        jobs.push(SimJob::new(Benchmark::Li, Scale::Tiny, machine.clone(), assist, Version::Base));
        for &v in &Version::REPORTED {
            jobs.push(SimJob::new(Benchmark::Li, Scale::Tiny, machine.clone(), assist, v));
        }
    }
    let (results, stats) = JobEngine::default().run_with_stats(&jobs);

    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.executed, 8, "Base and PureSoftware unify across assists");
    assert_eq!(stats.dedup_hits, 2);
    assert_eq!(stats.programs_prepared, 3, "raw, optimized, selective");

    // The deduplicated slots still answer with full, identical results.
    assert_eq!(results[0], results[5], "Base slot answered by the shared run");
    assert_eq!(results[2], results[7], "PureSoftware slot answered by the shared run");
    assert_ne!(results[1], results[6], "assist-dependent runs stay distinct");
}

/// The run rules, row by row, with and without a controller. On every row
/// the `Experiment` entry point answers exactly what the engine answers for
/// the same job, `job_id` included.
#[test]
fn experiment_and_engine_follow_one_set_of_run_rules() {
    const LI: (Benchmark, Scale, Version) = (Benchmark::Li, Scale::Tiny, Version::Selective);
    let run = |e: &Experiment| e.run(LI.0, LI.1, LI.2);
    let run_profiled = |e: &Experiment| e.run_profiled(LI.0, LI.1, LI.2);
    let root = std::env::temp_dir().join(format!("selcache-run-rules-{}", std::process::id()));
    let ctl = ControllerConfig { interval_accesses: 128, ..ControllerConfig::default() };
    for controller in [None, Some(ctl)] {
        let experiment = |mode| {
            let b = ExperimentBuilder::new().assist(AssistKind::Bypass).mode(mode).threads(1);
            controller.map_or(b.clone(), |ctl| b.controller(ctl)).build()
        };
        let (exact_exp, sampled_exp) = (experiment(SimMode::Exact), experiment(SimMode::sampled()));
        let mut exact = SimJob::new(LI.0, LI.1, MachineConfig::base(), AssistKind::Bypass, LI.2);
        if let Some(ctl) = controller {
            exact = exact.with_controller(ctl);
        }
        let sampled = exact.clone().with_mode(SimMode::sampled());
        let engine = JobEngine::serial();

        let (x, s) = (slice::from_ref(&exact), slice::from_ref(&sampled));
        let rows = [
            // (row, Experiment's answer, the engine's, has regions, is sampled)
            ("exact, plain", run(&exact_exp), engine.run(x), false, false),
            ("exact, profiled", run_profiled(&exact_exp), engine.run_profiled(x), true, false),
            ("sampled, run", run(&sampled_exp), engine.run(s), false, true),
            ("sampled, engine profiled", run(&sampled_exp), engine.run_profiled(s), false, true),
            // Experiment::run_profiled runs exact whatever the mode.
            ("sampled, profiled", run_profiled(&sampled_exp), engine.run_profiled(x), true, false),
        ];
        for (row, got, want, regions, is_sampled) in &rows {
            let row = format!("{row} (controller: {})", controller.is_some());
            let job = if *is_sampled { &sampled } else { &exact };
            assert_eq!(got, &want[0], "{row}");
            assert_eq!(got.job_id, Some(job.job_id()), "{row}");
            assert_eq!(got.regions.is_some(), *regions, "{row}");
            assert_eq!(got.sampled.is_some(), *is_sampled, "{row}");
        }

        // Profiling attributes without perturbing the run.
        let (plain, profiled) = (&rows[0].1, &rows[1].1);
        assert_eq!(
            (plain.cycles, &plain.cpu, &plain.mem),
            (profiled.cycles, &profiled.cpu, &profiled.mem)
        );
        let total = profiled.regions.as_ref().expect("profiled").total();
        assert_eq!((total.cycles, total.committed), (profiled.cycles, profiled.instructions));

        // A controller run simulates with regions even when plain, so the
        // store keeps them and a later profiled run is a hit; a static plain
        // run stores none and the profiled run simulates again.
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root).expect("temp store");
        JobEngine::with_store(1, store.clone()).run(x);
        let (warm, stats) = JobEngine::with_store(1, store).run_profiled_with_stats(x);
        let _ = std::fs::remove_dir_all(&root);
        let hit = usize::from(controller.is_some());
        assert_eq!((stats.store_hits, stats.executed), (hit, 1 - hit));
        assert_eq!(&warm[0], profiled);
    }
}
