//! `suite_exact`: Figure 4 — the base machine with the bypass assist, all
//! 13 benchmarks at `Scale::Small`, exact, on one 2-thread `JobEngine`.
//!
//! Regenerating a paper figure is the system's main use. Host time goes
//! to the pipeline and hierarchy, with trace generation a few percent; no
//! sampling, analysis or store code runs.

use crate::layers::{
    collect_trace, distinct_programs, executor_metrics, executor_overhead, pipeline_and_replay,
    set_layers,
};
use crate::outcome::Outcome;
use crate::refs::{counters, spec_drift, JobSpec, Refs};
use crate::trace::Tracer;
use crate::{batch_metrics, host, timed_passes, Ctx, Setups, THREADS};
use selcache_core::json::Json;
use selcache_core::{
    AssistKind, Benchmark, ConfigVariant, JobEngine, MachineConfig, Scale, SimJob, SimResult,
    SuiteResult, Version,
};
use std::path::Path;
use std::time::Instant;

/// The workload's jobs in the benchmark's vocabulary, in
/// `SuiteResult::jobs` order.
pub fn specs() -> Vec<JobSpec> {
    let versions = std::iter::once(Version::Base).chain(Version::REPORTED);
    Benchmark::ALL
        .into_iter()
        .flat_map(|bm| versions.clone().map(move |v| (bm, v)))
        .map(|(bm, v)| JobSpec::new(bm, Scale::Small, ConfigVariant::Base, AssistKind::Bypass, v))
        .collect()
}

/// The job set, built by the program's own constructor.
fn jobs() -> Vec<SimJob> {
    SuiteResult::jobs(&MachineConfig::base(), AssistKind::Bypass, Scale::Small, &Benchmark::ALL)
}

/// One pass in this process at `threads`, as the `pass` subcommand's line.
pub fn pass_json(threads: usize) -> String {
    let jobs = jobs();
    let engine = JobEngine::new(threads);
    let cpu0 = host::cpu_s();
    let t = Instant::now();
    let (results, stats) = engine.run_with_stats(&jobs);
    let wall = t.elapsed().as_secs_f64();
    Json::obj([
        ("wall_s", Json::Num(wall)),
        ("cpu_s", Json::Num(host::cpu_s() - cpu0)),
        ("rss_mb", Json::Num(host::peak_rss_mb())),
        ("executed", Json::UInt(stats.executed as u64)),
        ("instructions", Json::UInt(results.iter().map(|r| r.instructions).sum())),
    ])
    .to_string()
}

fn check(refs: &Result<Refs, String>, specs: &[JobSpec], results: &[SimResult], o: &mut Outcome) {
    for (spec, r) in specs.iter().zip(results) {
        let problem = match refs {
            Ok(refs) => refs.check_exact(spec, r).err(),
            Err(e) => Some(e.clone()),
        };
        o.tally.op(problem.into_iter().collect());
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let (refs, specs) = (Refs::load(Path::new(crate::refs::PATH)), specs());
    let setup = || {
        let (jobs, engine) = (jobs(), JobEngine::new(THREADS));
        engine.dry_run(&jobs);
        (jobs, engine)
    };
    let mut setups = Setups::default();
    let (jobs, engine) = setups.burst(setup);
    let drift = spec_drift(&specs, &jobs);
    if !drift.is_empty() {
        o.tally.all_failed(jobs.len() as u64, drift.join("; "));
        return o;
    }
    if ctx.traced {
        return traced(ctx, o, &refs, &specs, &jobs);
    }
    let passes = timed_passes(ctx.seconds, || {
        setups.burst(setup);
        let t = Instant::now();
        let results = engine.run(&jobs);
        (t.elapsed().as_secs_f64(), results)
    });
    o.set("setup_s", setups.median());
    for (_, results) in &passes {
        check(&refs, &specs, results, &mut o);
    }
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let instructions = passes[0].1.iter().map(|r| r.instructions).sum();
    batch_metrics(&mut o, &walls, instructions, jobs.len());
    o
}

fn traced(
    ctx: &Ctx,
    mut o: Outcome,
    refs: &Result<Refs, String>,
    specs: &[JobSpec],
    jobs: &[SimJob],
) -> Outcome {
    // The untraced pass, then the same job set at one thread.
    let engine = JobEngine::new(THREADS);
    let cpu0 = host::cpu_s();
    let t = Instant::now();
    let (results, stats) = engine.run_with_stats(jobs);
    let wall_u = t.elapsed().as_secs_f64();
    let cpu_u = host::cpu_s() - cpu0;
    check(refs, specs, &results, &mut o);
    let overhead = executor_overhead(&mut o, "suite_exact", cpu_u);

    let mut tr = Tracer::default();
    let t = Instant::now();
    tr.span("core.engine.plan", "suite", |_| engine.dry_run(jobs));
    for (job, spec) in jobs.iter().zip(specs) {
        tr.span("core.identity.job_id", &spec.label(), |_| job.job_id());
    }
    let mut ops_traced = 0u64;
    for bm in Benchmark::ALL {
        let raw = tr.span("workloads.build", bm.name(), |_| bm.build(Scale::Small));
        let mine: Vec<usize> = (0..jobs.len()).filter(|&k| jobs[k].benchmark == bm).collect();
        for (program, group) in distinct_programs(&mut tr, &raw, jobs, specs, &mine) {
            let ops = collect_trace(&mut tr, &program, &specs[group[0]].label());
            ops_traced += ops.len() as u64;
            for k in group {
                let problem =
                    pipeline_and_replay(&mut tr, &jobs[k], &ops, &results[k], &specs[k].label());
                if let Some(p) = problem {
                    o.tally.op(vec![p]);
                }
            }
        }
    }
    let wall_t = t.elapsed().as_secs_f64();

    let pipeline = tr.total("cpu.pipeline");
    let replay = tr.total("mem.replay");
    let layer_self = [
        "workloads.build",
        "compiler.prepare",
        "ir.plan",
        "ir.trace",
        "core.engine.plan",
        "core.identity.job_id",
    ]
    .iter()
    .map(|n| tr.self_time(n))
    .sum::<f64>()
        + pipeline
        + overhead;
    let counters: Vec<Vec<u64>> = results.iter().map(counters).collect();
    set_layers(&mut o, &tr, &counters, ops_traced);
    o.set("cpu.pipeline_s", pipeline);
    o.set("cpu.self_s", (pipeline - replay).max(0.0));
    o.set("mem.replay_s", replay);
    o.set("compiler.programs", tr.count("ir.plan") as f64);
    o.set("core.engine.executed", stats.executed as f64);
    o.set("core.engine.dedup_hits", stats.dedup_hits as f64);
    o.set("core.engine.programs_prepared", stats.programs_prepared as f64);
    executor_metrics(&mut o, wall_u, cpu_u);
    o.set("unexplained_s", cpu_u - layer_self);
    o.set("trace_overhead_s", wall_t - wall_u);
    tr.write(ctx, "suite_exact");
    o
}
