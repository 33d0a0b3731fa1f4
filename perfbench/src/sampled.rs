//! `sampled_large`: the five versions of Vpenta (regular access) and Chaos
//! (irregular access) at `Scale::Large` with `SimMode::sampled()`, on one
//! 2-thread `JobEngine`.
//!
//! A cold sampled job spends most of its time in the functional profile
//! pass; the detailed pipeline sees 1–2% of the ops. Base/PureHardware
//! and PureSoftware/Combined share prepared programs, which exercises the
//! process-wide selection cache and the executor's fan-out. That cache
//! lives for the whole process, so every timed pass runs in a fresh child
//! process: each pass is cold, as a user's first run is.

use crate::layers::{
    consume_trace, distinct_programs, executor_metrics, executor_overhead, set_layers,
};
use crate::outcome::Outcome;
use crate::refs::{counter_index, counters, spec_drift, JobSpec, Refs};

use crate::trace::Tracer;
use crate::{batch_metrics, child_pass, host, timed_passes, Ctx, Setups, THREADS};
use selcache_analysis::{select, IntervalConfig, IntervalProfiler};
use selcache_core::json::Json;
use selcache_core::{
    AssistKind, Benchmark, ConfigVariant, JobEngine, MachineConfig, Scale, SimJob, SimMode,
    SuiteResult, Version,
};
use std::path::Path;
use std::time::Instant;

/// The two benchmarks: regular and irregular access.
const BENCHMARKS: [Benchmark; 2] = [Benchmark::Vpenta, Benchmark::Chaos];

/// DESIGN.md §12's bound on a sampled job's CPI error, in percent.
const CPI_BOUND_PCT: f64 = 3.0;

/// The workload's jobs in the benchmark's vocabulary.
pub fn specs() -> Vec<JobSpec> {
    let versions = std::iter::once(Version::Base).chain(Version::REPORTED);
    BENCHMARKS
        .into_iter()
        .flat_map(|bm| versions.clone().map(move |v| (bm, v)))
        .map(|(bm, v)| JobSpec {
            sampled: true,
            ..JobSpec::new(bm, Scale::Large, ConfigVariant::Base, AssistKind::Bypass, v)
        })
        .collect()
}

fn jobs() -> Vec<SimJob> {
    let machine = MachineConfig::base();
    SuiteResult::jobs_in_mode(
        &machine,
        AssistKind::Bypass,
        Scale::Large,
        &BENCHMARKS,
        SimMode::sampled(),
    )
}

/// One cold pass in this process at `threads`, as the `pass`
/// subcommand's line.
pub fn pass_json(threads: usize) -> String {
    let jobs = jobs();
    let engine = JobEngine::new(threads);
    let cpu0 = host::cpu_s();
    let t = Instant::now();
    let (results, stats) = engine.run_with_stats(&jobs);
    let wall = t.elapsed().as_secs_f64();
    let cpu = host::cpu_s() - cpu0;
    let results = results
        .iter()
        .map(|r| {
            let info = r.sampled.unwrap_or_else(|| panic!("sampled jobs carry SampledInfo"));
            Json::obj([
                ("job_id", Json::str(r.job_id.map(|id| id.to_string()).unwrap_or_default())),
                ("total_ops", Json::UInt(info.total_ops)),
                ("detailed_ops", Json::UInt(info.detailed_ops)),
                ("warmup_ops", Json::UInt(info.warmup_ops)),
                ("counters", Json::Arr(counters(r).into_iter().map(Json::UInt).collect())),
            ])
        })
        .collect();
    Json::obj([
        ("wall_s", Json::Num(wall)),
        ("cpu_s", Json::Num(cpu)),
        ("rss_mb", Json::Num(host::peak_rss_mb())),
        ("executed", Json::UInt(stats.executed as u64)),
        ("dedup_hits", Json::UInt(stats.dedup_hits as u64)),
        ("programs_prepared", Json::UInt(stats.programs_prepared as u64)),
        ("results", Json::Arr(results)),
    ])
    .to_string()
}

/// One sampled result as a child pass reports it.
struct Sampled {
    job_id: String,
    total_ops: u64,
    detailed_ops: u64,
    warmup_ops: u64,
    counters: Vec<u64>,
}

fn parse_pass(pass: &Json) -> Option<Vec<Sampled>> {
    pass.get("results")?
        .as_arr()?
        .iter()
        .map(|r| {
            let n = |k: &str| r.get(k).and_then(Json::as_u64);
            Some(Sampled {
                job_id: r.get("job_id")?.as_str()?.to_string(),
                total_ops: n("total_ops")?,
                detailed_ops: n("detailed_ops")?,
                warmup_ops: n("warmup_ops")?,
                counters: r.get("counters")?.as_arr()?.iter().filter_map(Json::as_u64).collect(),
            })
        })
        .collect()
}

/// Checks one sampled result against its exact reference and returns its
/// CPI error in percent. Instructions must be exact and the CPI within
/// [`CPI_BOUND_PCT`].
fn check_one(refs: &Refs, spec: &JobSpec, got: &Sampled) -> Result<f64, String> {
    let label = spec.label();
    if got.job_id != spec.job().job_id().to_string() {
        return Err(format!("{label}: answered as job {}", got.job_id));
    }
    let exact = refs.get(&spec.exact())?;
    let (cyc, ins) = (counter_index("cycles"), counter_index("instructions"));
    if got.counters.len() != exact.len() {
        return Err(format!("{label}: result carries {} counters", got.counters.len()));
    }
    if got.counters[ins] != exact[ins] || got.total_ops != exact[ins] {
        return Err(format!(
            "{label}: {} instructions ({} ops profiled), exact {}",
            got.counters[ins], got.total_ops, exact[ins]
        ));
    }
    let cpi = |c: &[u64]| c[cyc] as f64 / c[ins].max(1) as f64;
    let err = (cpi(&got.counters) - cpi(exact)).abs() / cpi(exact) * 100.0;
    if err.is_finite() && err <= CPI_BOUND_PCT {
        Ok(err)
    } else {
        Err(format!("{label}: CPI error {err:.3}% exceeds {CPI_BOUND_PCT}%"))
    }
}

/// Checks a pass's results; returns the largest CPI error.
fn check_pass(
    refs: &Result<Refs, String>,
    specs: &[JobSpec],
    pass: &Result<Json, String>,
    o: &mut Outcome,
) -> f64 {
    let results = match pass.as_ref().map(parse_pass) {
        Ok(Some(r)) if r.len() == specs.len() => r,
        Ok(_) => {
            o.tally.all_failed(specs.len() as u64, "a pass returned malformed results".into());
            return 0.0;
        }
        Err(e) => {
            o.tally.all_failed(specs.len() as u64, e.clone());
            return 0.0;
        }
    };
    let mut worst = 0.0f64;
    for (spec, got) in specs.iter().zip(&results) {
        let checked = match refs {
            Ok(refs) => check_one(refs, spec, got),
            Err(e) => Err(e.clone()),
        };
        match checked {
            Ok(err) => {
                worst = worst.max(err);
                o.tally.op(vec![]);
            }
            Err(p) => o.tally.op(vec![p]),
        }
    }
    worst
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let (refs, specs) = (Refs::load(Path::new(crate::refs::PATH)), specs());
    let setup = || {
        let jobs = jobs();
        JobEngine::new(THREADS).dry_run(&jobs);
        jobs
    };
    let mut setups = Setups::default();
    let jobs = setups.burst(setup);
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
        let pass = child_pass("sampled_large", THREADS);
        let wall = pass.as_ref().ok().and_then(|p| p.get("wall_s")).and_then(Json::as_f64);
        (wall.unwrap_or_else(|| t.elapsed().as_secs_f64()), pass)
    });
    let mut worst = 0.0f64;
    let mut walls = Vec::new();
    let mut rss = host::peak_rss_mb();
    let mut ops = 0;
    for (wall, pass) in &passes {
        worst = worst.max(check_pass(&refs, &specs, pass, &mut o));
        if let Ok(p) = pass {
            walls.push(*wall);
            rss = rss.max(p.get("rss_mb").and_then(Json::as_f64).unwrap_or(0.0));
            ops = parse_pass(p).map_or(0, |r| r.iter().map(|s| s.total_ops).sum());
        }
    }
    o.set("setup_s", setups.median());
    o.set("cpi_err_pct", worst);
    o.set("peak_rss_mb", rss);
    if !walls.is_empty() {
        batch_metrics(&mut o, &walls, ops, jobs.len());
    }
    o
}

fn traced(
    ctx: &Ctx,
    mut o: Outcome,
    refs: &Result<Refs, String>,
    specs: &[JobSpec],
    jobs: &[SimJob],
) -> Outcome {
    // The untraced cold pass and the same job set at one thread, each in
    // a fresh process so that both start with an empty selection cache.
    let pass = child_pass("sampled_large", THREADS);
    let worst = check_pass(refs, specs, &pass, &mut o);
    o.set("cpi_err_pct", worst);
    let Ok(pass) = pass else { return o };
    let num = |k: &str| pass.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let (wall_u, cpu_u) = (num("wall_s"), num("cpu_s"));
    let overhead = executor_overhead(&mut o, "sampled_large", cpu_u);
    let results = parse_pass(&pass).unwrap_or_default();

    let SimMode::Sampled { interval_ops, max_intervals, .. } = SimMode::sampled() else {
        unreachable!("SimMode::sampled is sampled")
    };
    let mut tr = Tracer::default();
    let t = Instant::now();
    tr.span("core.engine.plan", "sampled", |_| JobEngine::new(THREADS).dry_run(jobs));
    for (job, spec) in jobs.iter().zip(specs) {
        tr.span("core.identity.job_id", &spec.label(), |_| job.job_id());
    }
    // The profile pass's parts: trace generation, fingerprinting and
    // selection, once per distinct prepared program.
    let mut ops_traced = 0;
    let mut groups = Vec::new();
    for bm in BENCHMARKS {
        let raw = tr.span("workloads.build", bm.name(), |_| bm.build(Scale::Large));
        let mine: Vec<usize> = (0..jobs.len()).filter(|&k| jobs[k].benchmark == bm).collect();
        for (program, group) in distinct_programs(&mut tr, &raw, jobs, specs, &mine) {
            let id = specs[group[0]].label();
            groups.push(group);
            let mut profiler = IntervalProfiler::new(IntervalConfig {
                interval_ops,
                max_intervals,
                ..IntervalConfig::default()
            });
            ops_traced += consume_trace(&mut tr, &program, &id, "analysis.fingerprint", |ops| {
                for op in ops {
                    profiler.record(op.pc, op.kind.addr());
                }
            });
            let fps = tr.span("analysis.finish", &id, |_| profiler.finish());
            tr.span("analysis.select", &id, |_| select(&fps, max_intervals));
        }
    }
    // The jobs of each program cold, then warm, on a one-thread engine
    // and timed in CPU seconds, the units of the total they are subtracted
    // from: the difference is the program's profile pass. Each run builds
    // and prepares the program once, as the untraced pass does.
    let mut notes = Vec::new();
    let (mut profile, mut reps) = (0.0, 0.0);
    for group in &groups {
        let engine = JobEngine::new(1);
        let group_jobs: Vec<SimJob> = group.iter().map(|&k| jobs[k].clone()).collect();
        let versions: Vec<String> =
            group.iter().map(|&k| format!("{:?}", jobs[k].version)).collect();
        let label = format!("{}/{}", jobs[group[0]].benchmark.name(), versions.join("+"));
        let mut cpu_run = |name: &'static str| {
            tr.span(name, &label, |_| {
                let cpu0 = host::cpu_s();
                engine.run(&group_jobs);
                host::cpu_s() - cpu0
            })
        };
        let cold = cpu_run("core.sampled.cold");
        let warm = cpu_run("core.sampled.warm");
        profile += cold - warm;
        reps += warm;
        notes.push(format!("{label}: cold {cold:.2}s, warm {warm:.2}s of CPU"));
    }
    let wall_t = t.elapsed().as_secs_f64();
    o.notes.extend(notes);

    let counters: Vec<Vec<u64>> = results.iter().map(|r| r.counters.clone()).collect();
    set_layers(&mut o, &tr, &counters, ops_traced);
    let profile = profile.max(0.0);
    let fingerprint = tr.total("analysis.fingerprint") + tr.total("analysis.finish");
    o.set("analysis.fingerprint_s", fingerprint);
    o.set("analysis.select_s", tr.total("analysis.select"));
    o.set("core.sampled.profile_s", profile);
    o.set("core.sampled.reps_s", reps);
    o.set("core.sampled.detailed_ops", results.iter().map(|r| r.detailed_ops).sum::<u64>() as f64);
    o.set("core.sampled.warmup_ops", results.iter().map(|r| r.warmup_ops).sum::<u64>() as f64);
    o.set("compiler.programs", tr.count("analysis.select") as f64);
    o.set("core.engine.executed", num("executed"));
    o.set("core.engine.dedup_hits", num("dedup_hits"));
    o.set("core.engine.programs_prepared", num("programs_prepared"));
    executor_metrics(&mut o, wall_u, cpu_u);
    // Layer self times: the profile passes, the warm runs and the
    // executor's CPU overhead. The cold runs hold all of the pass's work,
    // so the other spans are parts of them and are not added again.
    o.set("unexplained_s", cpu_u - (profile + reps + overhead));
    o.set("trace_overhead_s", wall_t - wall_u);
    tr.write(ctx, "sampled_large");
    o
}
