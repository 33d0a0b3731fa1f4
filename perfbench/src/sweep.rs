//! `sweep_analytical`: the `sweep` binary's 200-point L1 grid (4 KiB–2 MiB
//! × 1–16 ways × 16–128 B lines) over Swim, Chaos, Li and TPC-D Q6 at
//! `Scale::Small`, analytically, one grid after another.
//!
//! Design-space exploration spends nearly all of its time in the reuse
//! profiler and cache model, the rest in trace generation. No pipeline,
//! hierarchy, engine or store code runs: the mirror image of
//! `suite_exact`. The exact cross-check is off in the timed passes; its
//! exact miss rates are recorded references instead.

use crate::layers::{consume_trace, executor_metrics, prepare, set_layers};
use crate::outcome::Outcome;
use crate::refs::{counter_index, JobSpec, Refs};

use crate::trace::Tracer;
use crate::{batch_metrics, host, timed_passes, Ctx, Setups};
use selcache_analysis::{ReuseProfiler, ReuseSpectrum};
use selcache_core::{
    AssistKind, Benchmark, ConfigVariant, JobEngine, Scale, Sweep, SweepAxis, SweepMode, SweepSpec,
    Version,
};
use std::path::Path;
use std::time::Instant;

const BENCHMARKS: [Benchmark; 4] =
    [Benchmark::Swim, Benchmark::Chaos, Benchmark::Li, Benchmark::TpcDQ6];

/// The `sweep` binary's default cross-check fraction: the sample whose
/// exact miss rates the references hold.
const CHECK_FRACTION: f64 = 0.05;

fn grid(benchmark: Benchmark, check_fraction: f64) -> SweepSpec {
    SweepSpec::new(benchmark)
        .scale(Scale::Small)
        .mode(SweepMode::Analytical { check_fraction })
        .axis(SweepAxis::L1Size, (12..22).map(|p| 1u64 << p))
        .axis(SweepAxis::L1Assoc, [1, 2, 4, 8, 16])
        .axis(SweepAxis::L1Line, [16, 32, 64, 128])
}

/// One reference point: its grid index and its exact base and
/// pure-software jobs.
struct CheckPoint {
    index: usize,
    base: JobSpec,
    optimized: JobSpec,
}

/// The exact cross-check jobs the sweep itself would run at
/// [`CHECK_FRACTION`], or why they no longer match their specs.
fn check_points(benchmark: Benchmark) -> Result<Vec<CheckPoint>, String> {
    let spec = grid(benchmark, CHECK_FRACTION);
    let points = spec.grid();
    spec.jobs()
        .chunks(2)
        .map(|pair| {
            let l1 = &pair[0].machine.mem.l1d;
            let geometry = [l1.size, l1.assoc as u64, l1.block_size];
            let index = points
                .iter()
                .position(|v| v[..] == geometry[..])
                .ok_or_else(|| format!("{}: check job off the grid", benchmark.name()))?;
            let spec_of = |job: &selcache_core::SimJob| {
                let s = JobSpec {
                    l1: Some(geometry),
                    ..JobSpec::new(
                        benchmark,
                        Scale::Small,
                        ConfigVariant::Base,
                        AssistKind::None,
                        job.version,
                    )
                };
                if s.job().job_id() == job.job_id() {
                    Ok(s)
                } else {
                    Err(format!("{} no longer describes the sweep's check job", s.label()))
                }
            };
            let (base, optimized) = (spec_of(&pair[0])?, spec_of(&pair[1])?);
            if (base.version, optimized.version) != (Version::Base, Version::PureSoftware) {
                return Err(format!("{}: unexpected check versions", benchmark.name()));
            }
            Ok(CheckPoint { index, base, optimized })
        })
        .collect()
}

/// Every exact job the references must hold for this workload.
pub fn ref_specs() -> Vec<JobSpec> {
    BENCHMARKS
        .into_iter()
        .flat_map(|bm| check_points(bm).expect("the sweep's check jobs match their specs"))
        .flat_map(|c| [c.base, c.optimized])
        .collect()
}

/// Checks one grid: every estimate present, finite and in [0, 1], and
/// the reference points' exact miss rates available. Returns the largest
/// estimate error in percentage points and the instructions the two
/// analysed traces cover.
fn check_grid(
    refs: &Result<Refs, String>,
    checks: &Result<Vec<CheckPoint>, String>,
    sweep: &Sweep,
) -> Result<(f64, u64), Vec<String>> {
    let name = sweep.benchmark.name();
    let mut problems = Vec::new();
    if sweep.points.len() != 200 {
        problems.push(format!("{name}: {} grid points, expected 200", sweep.points.len()));
    }
    let in_range = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
    for p in &sweep.points {
        match p.estimate() {
            Some(e) if in_range(e.base) && in_range(e.optimized) => {}
            other => problems.push(format!("{name} {:?}: estimate {other:?}", p.values)),
        }
    }
    let (refs, checks) = match (refs, checks) {
        (Ok(r), Ok(c)) => (r, c),
        (Err(e), _) | (_, Err(e)) => {
            problems.push(e.clone());
            return Err(problems);
        }
    };
    let (acc, miss, ins) =
        (counter_index("l1d.accesses"), counter_index("l1d.misses"), counter_index("instructions"));
    let rate = |c: &[u64]| if c[acc] == 0 { 0.0 } else { c[miss] as f64 / c[acc] as f64 };
    let mut worst = 0.0f64;
    let mut instructions = 0;
    for c in checks {
        let (base, optimized) = match (refs.get(&c.base), refs.get(&c.optimized)) {
            (Ok(b), Ok(o)) => (b, o),
            (Err(e), _) | (_, Err(e)) => {
                problems.push(e);
                continue;
            }
        };
        instructions = base[ins] + optimized[ins];
        if let Some(est) = sweep.points.get(c.index).and_then(|p| p.estimate()) {
            let err = (est.base - rate(base)).abs().max((est.optimized - rate(optimized)).abs());
            worst = worst.max(err * 100.0);
        }
    }
    if problems.is_empty() {
        Ok((worst, instructions))
    } else {
        Err(problems)
    }
}

/// One pass: every grid, one after another.
fn pass(specs: &[SweepSpec], engine: &JobEngine) -> Vec<Result<Sweep, String>> {
    specs
        .iter()
        .map(|s| s.run_with(engine).map_err(|e| format!("{}: {e}", s.benchmark().name())))
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let refs = Refs::load(Path::new(crate::refs::PATH));
    let checks: Vec<_> = BENCHMARKS.into_iter().map(check_points).collect();
    let setup = || {
        let specs: Vec<SweepSpec> = BENCHMARKS.into_iter().map(|bm| grid(bm, 0.0)).collect();
        let engine = JobEngine::new(crate::THREADS);
        for spec in &specs {
            engine.dry_run(&spec.jobs());
        }
        (specs, engine)
    };
    let mut setups = Setups::default();
    let (specs, engine) = setups.burst(setup);
    if ctx.traced {
        return traced(ctx, o, &refs, &checks, &specs, &engine);
    }
    let passes = timed_passes(ctx.seconds, || {
        setups.burst(setup);
        let t = Instant::now();
        let sweeps = pass(&specs, &engine);
        (t.elapsed().as_secs_f64(), sweeps)
    });
    o.set("setup_s", setups.median());
    let (worst, instructions) = check_passes(&mut o, &refs, &checks, &passes);
    o.set("miss_err_pts", worst);
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    batch_metrics(&mut o, &walls, instructions, 200 * BENCHMARKS.len());
    o
}

type Pass = (f64, Vec<Result<Sweep, String>>);

fn check_passes(
    o: &mut Outcome,
    refs: &Result<Refs, String>,
    checks: &[Result<Vec<CheckPoint>, String>],
    passes: &[Pass],
) -> (f64, u64) {
    let mut worst = 0.0f64;
    let mut instructions = 0;
    for (_, sweeps) in passes {
        instructions = 0;
        for (sweep, checks) in sweeps.iter().zip(checks) {
            match sweep
                .as_ref()
                .map_err(|e| vec![e.clone()])
                .and_then(|s| check_grid(refs, checks, s))
            {
                Ok((err, ins)) => {
                    worst = worst.max(err);
                    instructions += ins;
                    o.tally.op(vec![]);
                }
                Err(problems) => o.tally.op(problems),
            }
        }
    }
    (worst, instructions)
}

fn traced(
    ctx: &Ctx,
    mut o: Outcome,
    refs: &Result<Refs, String>,
    checks: &[Result<Vec<CheckPoint>, String>],
    specs: &[SweepSpec],
    engine: &JobEngine,
) -> Outcome {
    let cpu0 = host::cpu_s();
    let t = Instant::now();
    let sweeps = pass(specs, engine);
    let wall_u = t.elapsed().as_secs_f64();
    let cpu_u = host::cpu_s() - cpu0;
    let (worst, _) = check_passes(&mut o, refs, checks, &[(wall_u, sweeps.clone())]);
    o.set("miss_err_pts", worst);

    // The analytical sweep's own steps: one trace pass per program
    // version feeding a reuse profiler per line size, then the model at
    // every grid point.
    let mut tr = Tracer::default();
    let t = Instant::now();
    let mut ops_traced = 0;
    for (bm, sweep) in BENCHMARKS.into_iter().zip(&sweeps) {
        let spec = grid(bm, 0.0);
        let points = spec.grid();
        let mut lines: Vec<u64> = points.iter().map(|v| v[2]).collect();
        lines.sort_unstable();
        lines.dedup();
        let raw = tr.span("workloads.build", bm.name(), |_| bm.build(Scale::Small));
        let pinned = selcache_core::SimJob::new(
            bm,
            Scale::Small,
            selcache_core::MachineConfig::base(),
            AssistKind::None,
            Version::PureSoftware,
        );
        let optimized = prepare(&mut tr, &raw, &pinned, bm.name());
        let mut estimates = Vec::new();
        for (version, program) in [("base", &raw), ("optimized", &optimized)] {
            let id = format!("{}/{version}", bm.name());
            let mut profs: Vec<(ReuseProfiler, ReuseSpectrum)> =
                lines.iter().map(|&l| (ReuseProfiler::new(l), ReuseSpectrum::new())).collect();
            ops_traced += consume_trace(&mut tr, program, &id, "analysis.reuse", |ops| {
                for addr in ops.iter().filter_map(|op| op.kind.addr()) {
                    for (prof, spectrum) in &mut profs {
                        spectrum.record(prof.record(addr));
                    }
                }
            });
            let ratios = tr.span("analysis.model", &id, |_| {
                let models: Vec<_> = profs.iter().map(|(_, s)| s.model()).collect();
                points
                    .iter()
                    .map(|v| {
                        let k = lines.binary_search(&v[2]).expect("line size profiled");
                        models[k].miss_ratio(v[0] / (v[1] * v[2]), v[1] as u32)
                    })
                    .collect::<Vec<f64>>()
            });
            estimates.push(ratios);
        }
        let agrees = sweep.as_ref().is_ok_and(|s| {
            s.points.iter().enumerate().all(|(k, p)| {
                p.estimate()
                    .is_some_and(|e| e.base == estimates[0][k] && e.optimized == estimates[1][k])
            })
        });
        if !agrees {
            o.tally.op(vec![format!(
                "{}: layer-by-layer estimates differ from the sweep's",
                bm.name()
            )]);
        }
    }
    let wall_t = t.elapsed().as_secs_f64();

    set_layers(&mut o, &tr, &[], ops_traced);
    o.set("analysis.reuse_s", tr.total("analysis.reuse"));
    o.set("analysis.model_s", tr.total("analysis.model"));
    o.set("compiler.programs", 2.0 * BENCHMARKS.len() as f64);
    executor_metrics(&mut o, wall_u, cpu_u);
    let layer_self: f64 = [
        "workloads.build",
        "compiler.prepare",
        "ir.plan",
        "ir.trace",
        "analysis.reuse",
        "analysis.model",
    ]
    .iter()
    .map(|n| tr.self_time(n))
    .sum();
    o.set("unexplained_s", cpu_u - layer_self);
    o.set("trace_overhead_s", wall_t - wall_u);
    tr.write(ctx, "sweep_analytical");
    o
}
