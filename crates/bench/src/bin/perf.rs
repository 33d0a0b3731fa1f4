//! Simulator-throughput baseline: runs a fixed benchmark matrix and writes
//! `BENCH_perf.json` so the series tracks simulated-ops/sec over time.
//!
//! The matrix is pinned — every workload × {Base, Selective} at
//! `Scale::Tiny` — so successive artifacts are comparable. Each cell is
//! timed over several serial repetitions (best-of to shed scheduler noise);
//! a final pass runs the whole matrix through the [`JobEngine`] in parallel
//! for the suite wall time.
//!
//! ```text
//! usage: perf [--subset tiny|full] [--threads N] [--out PATH] [--baseline PATH] [--store DIR]
//! ```
//!
//! `--subset tiny` restricts the matrix to four representative workloads
//! (CI smoke); `full` (the default) runs all 13. With `--baseline PATH`
//! the run compares its per-cell throughput against that earlier
//! `BENCH_perf.json` and exits 1 when the geometric-mean ratio regresses
//! more than 20%; a missing baseline file skips the gate.
//!
//! The report also carries a `store_warm` cell: the suite matrix is run
//! cold into a scratch result store and then rerun warm (every identity a
//! store hit, zero simulations), recording both wall times and the
//! speedup. `--store DIR` places the scratch store under `DIR` (CI points
//! it at a tempdir); by default it lives under the system temp directory.
//! The scratch store is deleted afterwards either way.
//!
//! A `sampled` cell times the Base/Selective pair of one benchmark at the
//! largest configured scale, exact versus `SimMode::sampled()`, and
//! reports the speedup plus the worst-case CPI and L1-miss-rate error of
//! the weighted extrapolation.
//!
//! A `sampled_parallel` cell reruns the same sampled pair through the
//! intra-job executor fan-out at `max(--threads, 4)` threads, asserts the
//! reconstruction is bit-identical to the serial sampled run, and records
//! the wall-clock speedup both against the cold serial cell above and
//! against a warm serial rerun (isolating the fan-out win from the shared
//! profile-pass win).
//!
//! A `dynamic_adapt` cell times one run under the online assist controller
//! (every region ON, the controller picking {off, bypass, victim} at run
//! time), so controller overhead in the simulator hot path is tracked by
//! the same regression gate.

use selcache_bench::ops_per_sec;
use selcache_core::json::Json;
use selcache_core::{
    AssistKind, Benchmark, ControllerConfig, JobEngine, MachineConfig, Scale, SimJob, SimMode,
    SimResult, Store, SweepAxis, SweepMode, SweepSpec, Version,
};
use std::path::PathBuf;
use std::time::Instant;

/// The matrix scale. Pinned so artifacts from different machines and dates
/// stay comparable; change it only with a fresh baseline.
const SCALE: Scale = Scale::Tiny;

/// Serial repetitions per cell; the fastest is reported.
const REPS: usize = 3;

/// Regression the gate tolerates before failing, in percent.
const MAX_REGRESS_PCT: f64 = 20.0;

/// The two versions the baseline tracks: the unmodified code path and the
/// paper's full selective scheme (compiler passes + markers + assist).
const VERSIONS: [Version; 2] = [Version::Base, Version::Selective];

/// `--subset tiny`: one regular FP kernel, one pointer-chaser, one control
/// benchmark, one database query — the four hot-path shapes.
const TINY: [Benchmark; 4] = [Benchmark::Vpenta, Benchmark::Li, Benchmark::Perl, Benchmark::TpcDQ6];

/// Benchmark the analytical sweep grid is timed on.
const SWEEP_BENCH: Benchmark = Benchmark::TpcDQ6;

/// Benchmark and scale the sampled-mode cell measures: the largest
/// configured scale, where sampling pays off most (and where exact runs
/// are still affordable enough to cross-check every artifact).
const SAMPLED_BENCH: Benchmark = Benchmark::Vpenta;
const SAMPLED_SCALE: Scale = Scale::Large;

/// Benchmark the dynamic-controller cell times — a pointer-chaser, where
/// the controller does real per-region work (policy switches > 0).
const DYNAMIC_BENCH: Benchmark = Benchmark::Li;

const USAGE: &str = "usage: perf [--subset tiny|full] [--threads N] [--out PATH] \
[--baseline PATH] [--store DIR]";

struct PerfCli {
    subset_name: &'static str,
    benchmarks: Vec<Benchmark>,
    threads: usize,
    out: PathBuf,
    baseline: Option<PathBuf>,
    store: Option<PathBuf>,
}

fn parse_cli() -> PerfCli {
    let mut cli = PerfCli {
        subset_name: "full",
        benchmarks: Benchmark::ALL.to_vec(),
        threads: 0,
        out: PathBuf::from("BENCH_perf.json"),
        baseline: None,
        store: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--subset" => match value("--subset").as_str() {
                "tiny" => {
                    cli.subset_name = "tiny";
                    cli.benchmarks = TINY.to_vec();
                }
                "full" => {
                    cli.subset_name = "full";
                    cli.benchmarks = Benchmark::ALL.to_vec();
                }
                other => {
                    eprintln!("error: unknown subset {other:?}; use tiny|full\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--threads" => {
                let v = value("--threads");
                cli.threads = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --threads {v:?}\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--out" => cli.out = value("--out").into(),
            "--baseline" => cli.baseline = Some(value("--baseline").into()),
            "--store" => cli.store = Some(value("--store").into()),
            other => {
                eprintln!("error: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    cli
}

struct Cell {
    benchmark: Benchmark,
    version: Version,
    result: SimResult,
    best_secs: f64,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}/{}", self.benchmark.name(), version_tag(self.version))
    }

    fn ops_per_sec(&self) -> f64 {
        ops_per_sec(self.result.instructions, self.best_secs)
    }
}

fn version_tag(v: Version) -> &'static str {
    match v {
        Version::Base => "Base",
        Version::Selective => "Selective",
        _ => unreachable!("perf matrix only runs Base and Selective"),
    }
}

fn job(benchmark: Benchmark, version: Version) -> SimJob {
    SimJob::new(benchmark, SCALE, MachineConfig::base(), AssistKind::Bypass, version)
}

fn main() {
    let cli = parse_cli();
    let engine = JobEngine::new(cli.threads);
    eprintln!(
        "perf: {} subset ({} benchmarks x {} versions) at scale {SCALE}, {} threads",
        cli.subset_name,
        cli.benchmarks.len(),
        VERSIONS.len(),
        engine.threads()
    );

    // Per-cell timing: serial, best of REPS, so each number reflects raw
    // single-stream simulator throughput.
    let serial = JobEngine::new(1);
    let mut cells = Vec::new();
    for &bm in &cli.benchmarks {
        for &version in &VERSIONS {
            let j = job(bm, version);
            let mut best_secs = f64::INFINITY;
            let mut result = None;
            for _ in 0..REPS {
                let t0 = Instant::now();
                let mut out = serial.run(std::slice::from_ref(&j));
                best_secs = best_secs.min(t0.elapsed().as_secs_f64());
                result = out.pop();
            }
            let result = result.expect("one job in, one result out");
            let cell = Cell { benchmark: bm, version, result, best_secs };
            eprintln!(
                "  {:24} {:>12.0} ops/s  ({} ops, {:.1} ms)",
                cell.key(),
                cell.ops_per_sec(),
                cell.result.instructions,
                cell.best_secs * 1e3,
            );
            cells.push(cell);
        }
    }
    // The artifact lists cells under a stable key order regardless of the
    // subset's iteration order, so diffs between artifacts stay readable.
    cells.sort_by_key(Cell::key);

    // Suite pass: the whole matrix through the parallel engine at once.
    let jobs: Vec<SimJob> =
        cli.benchmarks.iter().flat_map(|&bm| VERSIONS.map(|v| job(bm, v))).collect();
    let t0 = Instant::now();
    let suite = engine.run(&jobs);
    let suite_secs = t0.elapsed().as_secs_f64();
    let total_ops: u64 = suite.iter().map(|r| r.instructions).sum();

    // Store cold/warm cycle on the suite matrix: the cold pass simulates
    // everything and populates a scratch store; the warm pass must answer
    // every identity from disk with zero simulations.
    let store_parent = cli.store.clone().unwrap_or_else(std::env::temp_dir);
    let scratch = store_parent.join(format!("selcache-perf-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let open_scratch = || {
        Store::open(&scratch).unwrap_or_else(|e| {
            eprintln!("error: cannot create scratch store {}: {e}", scratch.display());
            std::process::exit(1);
        })
    };
    let t0 = Instant::now();
    let (cold_results, cold_stats) =
        JobEngine::with_store(cli.threads, open_scratch()).run_with_stats(&jobs);
    let store_cold_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (warm_results, warm_stats) =
        JobEngine::with_store(cli.threads, open_scratch()).run_with_stats(&jobs);
    let store_warm_secs = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&scratch);
    assert_eq!(warm_stats.executed, 0, "warm store must execute zero simulations");
    assert_eq!(warm_stats.store_hits, cold_stats.store_misses);
    assert_eq!(cold_results, warm_results, "warm results must be byte-identical");
    let store_speedup = if store_warm_secs > 0.0 { store_cold_secs / store_warm_secs } else { 0.0 };
    eprintln!(
        "  store_warm ({} unique)   cold {:.1} ms, warm {:.1} ms ({:.0}x)",
        cold_stats.store_misses,
        store_cold_secs * 1e3,
        store_warm_secs * 1e3,
        store_speedup,
    );

    // Sweep-grid throughput: a 200-point analytical L1 design-space grid
    // (one trace pass per version and line size, 2 x 4 on the serial
    // engine, no cross-check sims), best of REPS.
    // The speedup column extrapolates the exact equivalent from one
    // measured point (two simulations: base + optimized).
    let grid_spec = SweepSpec::new(SWEEP_BENCH)
        .scale(SCALE)
        .mode(SweepMode::Analytical { check_fraction: 0.0 })
        .axis(SweepAxis::L1Size, (12..22).map(|p| 1u64 << p))
        .axis(SweepAxis::L1Assoc, [1, 2, 4, 8, 16])
        .axis(SweepAxis::L1Line, [16, 32, 64, 128]);
    let grid_points = grid_spec.points();
    let mut grid_secs = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let sweep = grid_spec.run_with(&serial).expect("perf grid spec is valid");
        grid_secs = grid_secs.min(t0.elapsed().as_secs_f64());
        assert_eq!(sweep.points.len(), grid_points);
    }
    let exact_jobs = [
        SimJob::new(SWEEP_BENCH, SCALE, MachineConfig::base(), AssistKind::None, Version::Base),
        SimJob::new(
            SWEEP_BENCH,
            SCALE,
            MachineConfig::base(),
            AssistKind::None,
            Version::PureSoftware,
        ),
    ];
    let t0 = Instant::now();
    serial.run(&exact_jobs);
    let exact_point_secs = t0.elapsed().as_secs_f64();
    let sweep_points_per_sec = ops_per_sec(grid_points as u64, grid_secs);
    let speedup_vs_exact = if grid_secs > 0.0 && exact_point_secs > 0.0 {
        exact_point_secs * grid_points as f64 / grid_secs
    } else {
        0.0
    };
    eprintln!(
        "  sweep_grid ({} pts)      {:>12.0} pts/s  ({:.1} ms; exact point {:.1} ms, {:.0}x)",
        grid_points,
        sweep_points_per_sec,
        grid_secs * 1e3,
        exact_point_secs * 1e3,
        speedup_vs_exact,
    );

    // Sampled-mode cell: the Base/Selective pair at the largest scale, run
    // exact and then sampled, reporting the wall-clock speedup and the
    // worst-case CPI / L1-miss-rate error of the weighted extrapolation.
    let sampled_exact_jobs: Vec<SimJob> = VERSIONS
        .iter()
        .map(|&v| {
            SimJob::new(SAMPLED_BENCH, SAMPLED_SCALE, MachineConfig::base(), AssistKind::Bypass, v)
        })
        .collect();
    let sampled_jobs: Vec<SimJob> =
        sampled_exact_jobs.iter().map(|j| j.clone().with_mode(SimMode::sampled())).collect();
    let t0 = Instant::now();
    let sampled_exact = serial.run(&sampled_exact_jobs);
    let sampled_exact_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let sampled_results = serial.run(&sampled_jobs);
    let sampled_secs = t0.elapsed().as_secs_f64();
    let mut max_cpi_err_pct: f64 = 0.0;
    let mut max_l1_err_pts: f64 = 0.0;
    for (e, s) in sampled_exact.iter().zip(&sampled_results) {
        let cpi_exact = e.cycles as f64 / e.instructions as f64;
        let cpi_sampled = s.cycles as f64 / s.instructions as f64;
        max_cpi_err_pct = max_cpi_err_pct.max((cpi_sampled - cpi_exact).abs() / cpi_exact * 100.0);
        max_l1_err_pts = max_l1_err_pts.max((s.l1_miss_pct() - e.l1_miss_pct()).abs());
    }
    let sampled_info = sampled_results[0].sampled.expect("sampled jobs report interval coverage");
    let sampled_speedup = if sampled_secs > 0.0 { sampled_exact_secs / sampled_secs } else { 0.0 };
    eprintln!(
        "  sampled ({}/{SAMPLED_SCALE})  exact {:.0} ms, sampled {:.0} ms ({:.1}x); \
         max CPI err {:.2}%, max L1 err {:.2} pts",
        SAMPLED_BENCH.name(),
        sampled_exact_secs * 1e3,
        sampled_secs * 1e3,
        sampled_speedup,
        max_cpi_err_pct,
        max_l1_err_pts,
    );

    // Parallel-sampled cell: the same sampled job pair driven through the
    // intra-job executor fan-out at >= 4 threads. The selection cache is
    // warm from the cell above, so a warm serial rerun is timed alongside
    // as the profile-free reference; the reported speedups separate the
    // shared-profile win (vs the cold serial cell, the number the
    // acceptance gate tracks) from the pure fan-out win (vs warm serial).
    // Reconstruction must be bit-identical, so the accuracy columns of the
    // sampled cell carry over unchanged — asserted here, not assumed.
    let parallel_threads = engine.threads().max(4);
    let parallel_engine = JobEngine::new(parallel_threads);
    let mut warm_serial_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let warm = serial.run(&sampled_jobs);
        warm_serial_secs = warm_serial_secs.min(t0.elapsed().as_secs_f64());
        assert_eq!(warm, sampled_results, "warm serial rerun must be bit-identical");
        let t0 = Instant::now();
        let par = parallel_engine.run(&sampled_jobs);
        parallel_secs = parallel_secs.min(t0.elapsed().as_secs_f64());
        assert_eq!(par, sampled_results, "parallel sampled run must be bit-identical");
    }
    let parallel_speedup = if parallel_secs > 0.0 { sampled_secs / parallel_secs } else { 0.0 };
    let parallel_speedup_warm =
        if parallel_secs > 0.0 { warm_serial_secs / parallel_secs } else { 0.0 };
    eprintln!(
        "  sampled_parallel ({} threads)  warm serial {:.0} ms, parallel {:.0} ms \
         ({:.1}x vs serial cell, {:.1}x vs warm serial)",
        parallel_threads,
        warm_serial_secs * 1e3,
        parallel_secs * 1e3,
        parallel_speedup,
        parallel_speedup_warm,
    );

    // Dynamic-controller cell: one selective run with the adapt controller
    // attached, serial, best of REPS — tracks the controller's overhead in
    // the simulator hot path alongside the static cells.
    let dynamic_job = SimJob::new(
        DYNAMIC_BENCH,
        SCALE,
        MachineConfig::base(),
        AssistKind::None,
        Version::Selective,
    )
    .with_controller(ControllerConfig::default());
    let mut dynamic_secs = f64::INFINITY;
    let mut dynamic_result = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut out = serial.run(std::slice::from_ref(&dynamic_job));
        dynamic_secs = dynamic_secs.min(t0.elapsed().as_secs_f64());
        dynamic_result = out.pop();
    }
    let dynamic_result = dynamic_result.expect("one job in, one result out");
    let dynamic_ops_per_sec = ops_per_sec(dynamic_result.instructions, dynamic_secs);
    eprintln!(
        "  dynamic_adapt ({})       {:>12.0} ops/s  ({} ops, {:.1} ms, {} switches)",
        DYNAMIC_BENCH.name(),
        dynamic_ops_per_sec,
        dynamic_result.instructions,
        dynamic_secs * 1e3,
        dynamic_result.mem.assist.adapt_switches,
    );

    let report = Json::obj([
        ("schema", Json::str("selcache-perf/1")),
        ("subset", Json::str(cli.subset_name)),
        ("scale", Json::str(SCALE.to_string())),
        ("threads", Json::UInt(engine.threads() as u64)),
        (
            "suite",
            Json::obj([
                ("sim_ops", Json::UInt(total_ops)),
                ("wall_ms", Json::Num(suite_secs * 1e3)),
                ("ops_per_sec", Json::Num(ops_per_sec(total_ops, suite_secs))),
            ]),
        ),
        (
            "store_warm",
            Json::obj([
                ("jobs", Json::UInt(jobs.len() as u64)),
                ("unique", Json::UInt(cold_stats.store_misses as u64)),
                ("cold_ms", Json::Num(store_cold_secs * 1e3)),
                ("warm_ms", Json::Num(store_warm_secs * 1e3)),
                ("speedup_vs_cold", Json::Num(store_speedup)),
                ("store_hits", Json::UInt(warm_stats.store_hits as u64)),
                ("bytes_written", Json::UInt(cold_stats.bytes_written)),
            ]),
        ),
        (
            "sweep_grid",
            Json::obj([
                ("benchmark", Json::str(SWEEP_BENCH.name())),
                ("grid_points", Json::UInt(grid_points as u64)),
                ("wall_ms", Json::Num(grid_secs * 1e3)),
                ("points_per_sec", Json::Num(sweep_points_per_sec)),
                ("exact_point_ms", Json::Num(exact_point_secs * 1e3)),
                ("speedup_vs_exact", Json::Num(speedup_vs_exact)),
            ]),
        ),
        (
            "sampled",
            Json::obj([
                ("benchmark", Json::str(SAMPLED_BENCH.name())),
                ("scale", Json::str(SAMPLED_SCALE.to_string())),
                ("exact_ms", Json::Num(sampled_exact_secs * 1e3)),
                ("sampled_ms", Json::Num(sampled_secs * 1e3)),
                ("speedup_vs_exact", Json::Num(sampled_speedup)),
                ("max_cpi_err_pct", Json::Num(max_cpi_err_pct)),
                ("max_l1_miss_err_pts", Json::Num(max_l1_err_pts)),
                ("total_ops", Json::UInt(sampled_info.total_ops)),
                ("detailed_ops", Json::UInt(sampled_info.detailed_ops)),
                ("representatives", Json::UInt(sampled_info.representatives as u64)),
            ]),
        ),
        (
            "sampled_parallel",
            Json::obj([
                ("benchmark", Json::str(SAMPLED_BENCH.name())),
                ("scale", Json::str(SAMPLED_SCALE.to_string())),
                ("threads", Json::UInt(parallel_threads as u64)),
                ("warm_serial_ms", Json::Num(warm_serial_secs * 1e3)),
                ("parallel_ms", Json::Num(parallel_secs * 1e3)),
                ("speedup_vs_serial", Json::Num(parallel_speedup)),
                ("speedup_vs_warm_serial", Json::Num(parallel_speedup_warm)),
                ("max_cpi_err_pct", Json::Num(max_cpi_err_pct)),
                ("max_l1_miss_err_pts", Json::Num(max_l1_err_pts)),
            ]),
        ),
        (
            "dynamic_adapt",
            Json::obj([
                ("benchmark", Json::str(DYNAMIC_BENCH.name())),
                ("sim_ops", Json::UInt(dynamic_result.instructions)),
                ("wall_ms", Json::Num(dynamic_secs * 1e3)),
                ("ops_per_sec", Json::Num(dynamic_ops_per_sec)),
                ("policy_switches", Json::UInt(dynamic_result.mem.assist.adapt_switches)),
            ]),
        ),
        (
            "benchmarks",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.benchmark.name())),
                            ("version", Json::str(version_tag(c.version))),
                            ("sim_ops", Json::UInt(c.result.instructions)),
                            ("cycles", Json::UInt(c.result.cycles)),
                            ("l1d_miss_pct", Json::Num(c.result.l1_miss_pct())),
                            ("wall_ms", Json::Num(c.best_secs * 1e3)),
                            ("ops_per_sec", Json::Num(c.ops_per_sec())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let body = report.to_string();
    if let Err(e) = std::fs::write(&cli.out, format!("{body}\n")) {
        eprintln!("error: failed to write {}: {e}", cli.out.display());
        std::process::exit(1);
    }
    eprintln!(
        "perf: suite {:.0} ops/s over {} sims; wrote {}",
        ops_per_sec(total_ops, suite_secs),
        suite.len(),
        cli.out.display()
    );

    if let Some(path) = &cli.baseline {
        match gate(&cells, sweep_points_per_sec, dynamic_ops_per_sec, path) {
            Gate::Skipped(why) => eprintln!("perf: baseline gate skipped ({why})"),
            Gate::Passed(ratio) => {
                eprintln!("perf: baseline gate passed (geomean ratio {ratio:.3})");
            }
            Gate::Failed(ratio) => {
                eprintln!(
                    "perf: baseline gate FAILED: geomean throughput ratio {ratio:.3} \
                     is more than {MAX_REGRESS_PCT}% below baseline {}",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    }
}

enum Gate {
    Skipped(String),
    Passed(f64),
    Failed(f64),
}

/// Compares this run's per-cell throughput with an earlier artifact: the
/// geometric mean of current/baseline ratios over cells present in both,
/// with the analytical sweep grid's points/sec and the dynamic-controller
/// cell's ops/sec included as extra cells when the baseline carries them.
///
/// Cells present in only one of the two artifacts are *skipped with a
/// printed notice*, never compared and never fatal: a newly introduced
/// cell has no baseline on its first artifact (and a tiny-subset run
/// legitimately lacks most of a full baseline), and neither situation is a
/// regression.
fn gate(
    cells: &[Cell],
    sweep_points_per_sec: f64,
    dynamic_ops_per_sec: f64,
    path: &std::path::Path,
) -> Gate {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => return Gate::Skipped(format!("no baseline at {}", path.display())),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return Gate::Skipped(format!("unparseable baseline: {e}")),
    };
    let Some(rows) = doc.get("benchmarks").and_then(Json::as_arr) else {
        return Gate::Skipped("baseline has no benchmarks array".to_string());
    };
    let row_key = |row: &Json| {
        let name = row.get("name")?.as_str()?;
        let version = row.get("version")?.as_str()?;
        Some(format!("{name}/{version}"))
    };
    let baseline_rate = |key: &str| {
        rows.iter().find_map(|row| {
            if row_key(row)? == key {
                row.get("ops_per_sec")?.as_f64()
            } else {
                None
            }
        })
    };
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for cell in cells {
        let Some(base) = baseline_rate(&cell.key()) else {
            eprintln!("perf: gate: cell {} has no baseline entry; skipped", cell.key());
            continue;
        };
        let cur = cell.ops_per_sec();
        if base > 0.0 && cur > 0.0 {
            log_sum += (cur / base).ln();
            n += 1;
        }
    }
    for key in rows.iter().filter_map(row_key) {
        if !cells.iter().any(|c| c.key() == key) {
            eprintln!("perf: gate: baseline cell {key} not in this run; skipped");
        }
    }
    let extra_cells = [
        ("sweep_grid", "points_per_sec", sweep_points_per_sec),
        ("dynamic_adapt", "ops_per_sec", dynamic_ops_per_sec),
    ];
    for (cell, rate_key, cur) in extra_cells {
        let base = doc.get(cell).and_then(|g| g.get(rate_key)).and_then(Json::as_f64);
        match base {
            Some(base) if base > 0.0 && cur > 0.0 => {
                log_sum += (cur / base).ln();
                n += 1;
            }
            Some(_) => {}
            None => eprintln!("perf: gate: cell {cell} has no baseline entry; skipped"),
        }
    }
    if n == 0 {
        return Gate::Skipped("no comparable cells in baseline".to_string());
    }
    let ratio = (log_sum / n as f64).exp();
    if ratio < 1.0 - MAX_REGRESS_PCT / 100.0 {
        Gate::Failed(ratio)
    } else {
        Gate::Passed(ratio)
    }
}
