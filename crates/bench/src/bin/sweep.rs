//! Design-space sweeps over one benchmark via the unified `SweepSpec`
//! API (the data behind the paper's Section 5.1 sensitivity studies).
//!
//! Two modes:
//!
//! - `--mode analytical` (the default): one reuse-profiling trace pass
//!   per program version and line size, fanned out over `--threads`,
//!   evaluates the whole `--sizes × --assocs × --lines` L1 grid
//!   analytically, then `--check-fraction` of the points are verified by
//!   exact simulation and the max/mean absolute miss-ratio error is
//!   reported.
//! - `--mode exact`: every point of the `--latencies` axis is simulated
//!   in full (base plus the four reported versions), yielding the
//!   classic % improvement series.
//!
//! On top of the shared flags this binary accepts `--benchmark <name>`,
//! and `--format text|json|csv` (JSON includes the analytical-vs-exact
//! error fields; CSV matches `Sweep::to_csv`).
use selcache_bench::{engine_stats_json, parse_benchmark, Cli, OutputFormat, USAGE};
use selcache_core::json::Json;
use selcache_core::{Benchmark, PointData, Sweep, SweepAxis, SweepMode, SweepSpec};

/// Sweep-specific usage, printed after the shared [`USAGE`] line.
const SWEEP_USAGE: &str = "sweep:  [--benchmark <name>] [--mode exact|analytical] \
[--check-fraction F] [--sizes a,b,...] [--assocs a,b,...] [--lines a,b,...] \
[--latencies a,b,...]";

struct SweepCli {
    cli: Cli,
    benchmark: Benchmark,
    mode: SweepMode,
    sizes: Vec<u64>,
    assocs: Vec<u64>,
    lines: Vec<u64>,
    latencies: Vec<u64>,
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    eprintln!("{SWEEP_USAGE}");
    std::process::exit(2);
}

fn parse_list(flag: &str, v: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for token in v.split(',').filter(|t| !t.trim().is_empty()) {
        match token.trim().parse::<u64>() {
            Ok(n) => out.push(n),
            Err(_) => fail(&format!("invalid {flag} entry {token:?}; use positive integers")),
        }
    }
    if out.is_empty() {
        fail(&format!("{flag} needs at least one value"));
    }
    out
}

/// Splits the command line into sweep-specific flags and the shared set,
/// handing the latter to [`Cli::parse`].
fn parse_args() -> SweepCli {
    let mut benchmark = Benchmark::TpcDQ6;
    let mut mode = None;
    let mut check_fraction = 0.05;
    // 4 KiB – 2 MiB: every size admits the largest default assoc x line
    // footprint (16 x 128 B = 2 KiB), so the whole 200-point grid is
    // feasible.
    let mut sizes: Vec<u64> = (12..22).map(|p| 1u64 << p).collect();
    let mut assocs: Vec<u64> = vec![1, 2, 4, 8, 16];
    let mut lines: Vec<u64> = vec![16, 32, 64, 128];
    let mut latencies: Vec<u64> = vec![50, 100, 200, 400];
    let mut shared: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &'static str| {
            args.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--benchmark" => {
                let v = value("--benchmark");
                benchmark = parse_benchmark(&v)
                    .unwrap_or_else(|| fail(&format!("unknown benchmark {v:?}")));
            }
            "--mode" => {
                let v = value("--mode");
                mode = match v.as_str() {
                    "exact" => Some(SweepMode::Exact),
                    "analytical" => None,
                    _ => fail(&format!("unknown mode {v:?}; use exact|analytical")),
                };
            }
            "--check-fraction" => {
                let v = value("--check-fraction");
                check_fraction =
                    v.parse::<f64>().ok().filter(|f| (0.0..=1.0).contains(f)).unwrap_or_else(
                        || fail(&format!("invalid --check-fraction {v:?}; use 0..=1")),
                    );
            }
            "--sizes" => sizes = parse_list("--sizes", &value("--sizes")),
            "--assocs" => assocs = parse_list("--assocs", &value("--assocs")),
            "--lines" => lines = parse_list("--lines", &value("--lines")),
            "--latencies" => latencies = parse_list("--latencies", &value("--latencies")),
            other => shared.push(other.to_string()),
        }
    }
    let cli = match Cli::parse(shared) {
        Ok(cli) => cli,
        Err(e) => fail(&e.to_string()),
    };
    let mode = mode.unwrap_or(SweepMode::Analytical { check_fraction });
    SweepCli { cli, benchmark, mode, sizes, assocs, lines, latencies }
}

fn point_json(values: &[u64], data: &PointData) -> Json {
    let vals = Json::Arr(values.iter().map(|&v| Json::UInt(v)).collect());
    match data {
        PointData::Exact { improvements } => Json::obj([
            ("values", vals),
            ("pure_hw", Json::Num(improvements[0])),
            ("pure_sw", Json::Num(improvements[1])),
            ("combined", Json::Num(improvements[2])),
            ("selective", Json::Num(improvements[3])),
        ]),
        PointData::Analytical { est, check } => {
            let mut pairs = vec![
                ("values", vals),
                ("est_base_miss", Json::Num(est.base)),
                ("est_optimized_miss", Json::Num(est.optimized)),
            ];
            if let Some(c) = check {
                pairs.push(("exact_base_miss", Json::Num(c.exact.base)));
                pairs.push(("exact_optimized_miss", Json::Num(c.exact.optimized)));
                pairs.push(("abs_error", Json::Num(c.abs_error)));
            }
            Json::obj(pairs)
        }
    }
}

fn sweep_json(sweep: &Sweep) -> Json {
    let mode = match sweep.mode {
        SweepMode::Exact => "exact",
        SweepMode::Analytical { .. } => "analytical",
    };
    let mut pairs = vec![
        ("benchmark", Json::str(sweep.benchmark.name())),
        ("scale", Json::str(sweep.scale.to_string())),
        ("mode", Json::str(mode)),
        ("axes", Json::Arr(sweep.axes.iter().map(|a| Json::str(a.name())).collect())),
        ("grid_points", Json::UInt(sweep.work.grid_points as u64)),
        ("trace_passes", Json::UInt(sweep.work.trace_passes as u64)),
        ("exact_sims", Json::UInt(sweep.work.exact_sims as u64)),
        ("engine", engine_stats_json(&sweep.engine)),
    ];
    if let Some(c) = &sweep.check {
        pairs.push((
            "check",
            Json::obj([
                ("checked", Json::UInt(c.checked as u64)),
                ("max_abs_error", Json::Num(c.max_abs_error)),
                ("mean_abs_error", Json::Num(c.mean_abs_error)),
            ]),
        ));
    }
    pairs.push((
        "points",
        Json::Arr(sweep.points.iter().map(|p| point_json(&p.values, &p.data)).collect()),
    ));
    Json::obj(pairs)
}

fn print_text(sweep: &Sweep) {
    println!(
        "{} sweep for {} ({} points):",
        sweep.parameter(),
        sweep.benchmark,
        sweep.points.len()
    );
    match sweep.mode {
        SweepMode::Exact => {
            println!(
                "{:<24} {:>9} {:>9} {:>9} {:>9}",
                sweep.parameter(),
                "PureHW",
                "PureSW",
                "Combined",
                "Selective"
            );
            for p in &sweep.points {
                let imp = p.improvements().expect("exact sweep");
                let vals: Vec<String> = p.values.iter().map(u64::to_string).collect();
                println!(
                    "{:<24} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
                    vals.join(" x "),
                    imp[0],
                    imp[1],
                    imp[2],
                    imp[3]
                );
            }
        }
        SweepMode::Analytical { .. } => {
            println!(
                "{:<24} {:>10} {:>10} {:>10}",
                sweep.parameter(),
                "est base",
                "est opt",
                "|err|"
            );
            for p in &sweep.points {
                let est = p.estimate().expect("analytical sweep");
                let vals: Vec<String> = p.values.iter().map(u64::to_string).collect();
                let err = match p.check() {
                    Some(c) => format!("{:>10.4}", c.abs_error),
                    None => format!("{:>10}", "-"),
                };
                println!(
                    "{:<24} {:>10.4} {:>10.4} {err}",
                    vals.join(" x "),
                    est.base,
                    est.optimized
                );
            }
        }
    }
    println!(
        "work: {} grid points, {} trace passes, {} exact simulations",
        sweep.work.grid_points, sweep.work.trace_passes, sweep.work.exact_sims
    );
    if let Some(c) = &sweep.check {
        println!(
            "cross-check: {} points, max |err| {:.4}, mean |err| {:.4}",
            c.checked, c.max_abs_error, c.mean_abs_error
        );
    }
}

fn main() {
    let args = parse_args();
    let mut spec = SweepSpec::new(args.benchmark)
        .scale(args.cli.scale)
        .assist(args.cli.assist)
        .mode(args.mode);
    spec = match args.mode {
        SweepMode::Exact => spec.axis(SweepAxis::MemLatency, args.latencies.iter().copied()),
        SweepMode::Analytical { .. } => spec
            .axis(SweepAxis::L1Size, args.sizes.iter().copied())
            .axis(SweepAxis::L1Assoc, args.assocs.iter().copied())
            .axis(SweepAxis::L1Line, args.lines.iter().copied()),
    };
    let engine = args.cli.engine();
    eprintln!(
        "sweeping {} ({} grid points) at scale {} ({} threads)…",
        args.benchmark,
        spec.points(),
        args.cli.scale,
        engine.threads()
    );
    let sweep = match spec.run_with(&engine) {
        Ok(s) => s,
        Err(e) => fail(&e.to_string()),
    };
    match args.cli.format {
        OutputFormat::Text => print_text(&sweep),
        OutputFormat::Json => println!("{}", sweep_json(&sweep)),
        OutputFormat::Csv => print!("{}", sweep.to_csv()),
    }
    if let Some(path) = &args.cli.csv {
        if let Err(e) = std::fs::write(path, sweep.to_csv()) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}
