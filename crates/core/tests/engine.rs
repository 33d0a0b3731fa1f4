//! Engine-level guarantees the unified run API is built on: thread-count
//! independence (byte-identical reports), job deduplication, and one set
//! of run rules for every entry point.

use selcache_core::{
    AssistKind, Benchmark, ControllerConfig, Experiment, ExperimentBuilder, JobEngine,
    MachineConfig, Scale, SimJob, SimMode, SimResult, Store, SuiteResult, Version,
};
use selcache_ir::trace_len;
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

/// Figure 4's job set for `benchmarks`: Base plus the four reported
/// versions, with the bypass assist.
fn figure_jobs(benchmarks: &[Benchmark], scale: Scale, mode: SimMode) -> Vec<SimJob> {
    SuiteResult::jobs_in_mode(&MachineConfig::base(), AssistKind::Bypass, scale, benchmarks, mode)
}

/// Checks each Selective job whose code has no marker (the jobs the
/// engine shares) against the job's own unshared simulation, counter for
/// counter, and returns how many there were.
fn check_shared_selective(jobs: &[SimJob], results: &[SimResult], mode: SimMode) -> usize {
    let experiment =
        ExperimentBuilder::new().assist(AssistKind::Bypass).mode(mode).threads(1).build();
    let mut shared = 0;
    for (job, result) in jobs.iter().zip(results) {
        if job.version != Version::Selective {
            continue;
        }
        let program = experiment.prepare(&job.benchmark.build(job.scale), Version::Selective);
        if program.marker_count() > 0 {
            continue;
        }
        shared += 1;
        let own = experiment.run_program(&program, Version::Selective);
        assert_eq!(SimResult { job_id: None, ..result.clone() }, own, "{:?}", job.benchmark);
        assert_eq!(result.job_id, Some(job.job_id()), "each identity keeps its id");
    }
    shared
}

/// Sharing is invisible. On the paper's all-regular benchmarks the
/// Selective code has no marker and equals the PureSoftware code, so the
/// engine simulates it once for both; each shared answer still equals the
/// job's own simulation with the assist attached and its flag off.
#[test]
fn shared_executions_equal_their_own_simulations() {
    let jobs = figure_jobs(&Benchmark::ALL, Scale::Small, SimMode::Exact);
    let (results, stats) = JobEngine::new(2).run_with_stats(&jobs);
    assert_eq!((stats.executed, stats.shared), (65, 4), "Swim, Mgrid, Vpenta and Adi");
    assert_eq!(check_shared_selective(&jobs, &results, SimMode::Exact), 4);

    // Sampled runs share the simulation and the profile pass.
    let mode = SimMode::sampled();
    let jobs = figure_jobs(&[Benchmark::Vpenta, Benchmark::Chaos], Scale::Small, mode);
    let (results, stats) = JobEngine::new(2).run_with_stats(&jobs);
    assert_eq!((stats.executed, stats.shared), (10, 1), "Vpenta's Selective job");
    assert_eq!(check_shared_selective(&jobs, &results, mode), 1);
}

/// An assist whose flag can switch on is never shared away. Chaos's
/// Selective code has markers, so its bypass and victim runs stay apart;
/// Vpenta's Selective code has none, so its runs under both assists share
/// the PureSoftware run. Every answer equals the job run alone.
#[test]
fn assists_that_can_act_keep_their_own_simulations() {
    let benchmarks = [Benchmark::Vpenta, Benchmark::Chaos];
    let mut jobs = Vec::new();
    for assist in [AssistKind::Bypass, AssistKind::Victim] {
        jobs.extend(SuiteResult::jobs(&MachineConfig::base(), assist, Scale::Tiny, &benchmarks));
    }
    let (results, stats) = JobEngine::new(2).run_with_stats(&jobs);
    assert_eq!(stats.shared, 2, "Vpenta's two Selective jobs");
    for (job, result) in jobs.iter().zip(&results) {
        assert_eq!(result, &JobEngine::serial().run(slice::from_ref(job))[0], "{job:?}");
    }
}

/// A profiled run shares too, and the shared answer carries the same
/// region profile as the job's own profiled run.
#[test]
fn profiled_sharing_returns_equal_region_profiles() {
    let jobs = figure_jobs(&[Benchmark::Swim], Scale::Tiny, SimMode::Exact);
    let (results, stats) = JobEngine::new(2).run_profiled_with_stats(&jobs);
    assert_eq!(stats.shared, 1);
    let experiment = ExperimentBuilder::new().assist(AssistKind::Bypass).threads(1).build();
    for (job, result) in jobs.iter().zip(&results) {
        let own = experiment.run_profiled(job.benchmark, job.scale, job.version);
        assert!(own.regions.is_some());
        assert_eq!(result, &own, "{}", job.version);
    }
}

/// With a controller the flag gates the controller whatever the assist,
/// so no controller job is shared; the same set without one shares.
#[test]
fn controller_jobs_are_never_shared() {
    let ctl = ControllerConfig { interval_accesses: 128, ..ControllerConfig::default() };
    let mut jobs = Vec::new();
    for assist in [AssistKind::None, AssistKind::Bypass] {
        for version in std::iter::once(Version::Base).chain(Version::REPORTED) {
            let job =
                SimJob::new(Benchmark::Swim, Scale::Tiny, MachineConfig::base(), assist, version);
            jobs.push(job.clone());
            jobs.push(job.with_controller(ctl));
        }
    }
    let (results, stats) = JobEngine::new(2).run_with_stats(&jobs);
    let dynamic: Vec<SimJob> =
        jobs.iter().filter(|j| j.machine.mem.controller.is_some()).cloned().collect();
    assert_eq!(JobEngine::new(2).run_with_stats(&dynamic).1.shared, 0);
    // Static Selective with the bypass assist and its flag off shares with
    // PureSoftware; with no assist it shares too.
    assert_eq!(stats.shared, 2);
    for (job, result) in jobs.iter().zip(&results) {
        assert_eq!(result, &JobEngine::serial().run(slice::from_ref(job))[0], "{job:?}");
    }
}

/// Every identity keeps its own store entry: a warm rerun answers every
/// identity the cold run missed, shared ones included, and simulates
/// nothing.
#[test]
fn shared_identities_keep_their_store_entries() {
    let root = std::env::temp_dir().join(format!("selcache-sharing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root).expect("temp store");
    let jobs = figure_jobs(&Benchmark::ALL, Scale::Tiny, SimMode::Exact);
    let (cold, c) = JobEngine::with_store(2, store.clone()).run_with_stats(&jobs);
    let (warm, w) = JobEngine::with_store(2, store).run_with_stats(&jobs);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!((c.store_misses, c.executed, c.shared), (65, 65, 4));
    assert_eq!((w.store_hits, w.executed, w.shared), (c.store_misses, 0, 0));
    assert_eq!(warm, cold);
}

/// The engine starts the longest simulations first, ranked by
/// `Program::op_bound`: it must bound the trace length of every prepared
/// program, and rank Chaos's programs above Vpenta's at Large, whose
/// passes take about three times as long.
#[test]
fn op_bound_covers_every_prepared_trace() {
    let experiment = ExperimentBuilder::new().assist(AssistKind::Bypass).threads(1).build();
    const VERSIONS: [Version; 3] = [Version::Base, Version::PureSoftware, Version::Selective];
    for bm in Benchmark::ALL {
        let source = bm.build(Scale::Tiny);
        for version in VERSIONS {
            let program = experiment.prepare(&source, version);
            let (bound, len) = (program.op_bound(), trace_len(&program));
            assert!(bound >= len, "{bm:?} {version}: bound {bound} below trace length {len}");
        }
    }
    let bounds = |bm: Benchmark| {
        let source = bm.build(Scale::Large);
        VERSIONS.map(|v| experiment.prepare(&source, v).op_bound())
    };
    let (chaos, vpenta) = (bounds(Benchmark::Chaos), bounds(Benchmark::Vpenta));
    assert!(chaos.iter().min() > vpenta.iter().max(), "chaos {chaos:?}, vpenta {vpenta:?}");
}
