//! End-to-end and per-layer benchmark of the selcache workspace.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench record-refs
//! perfbench pass <suite_exact|sampled_large> <threads>
//! ```
//!
//! Each workload runs in its own process (`all` starts one per workload).
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it re-executes the workload's inputs through each layer's
//! public functions inside spans and reports the per-layer metrics. The
//! last line printed is the result object; everything before it is a
//! human-readable report. `pass` is internal: one cold pass of a batch
//! workload in a fresh process. See `README.md` beside this crate.

mod host;
mod layers;
mod outcome;
mod refs;
mod sampled;
mod service;
mod stats;
mod suite;
mod sweep;
mod trace;

use outcome::{Outcome, END_TO_END, PER_LAYER};
use selcache_core::json::Json;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["suite_exact", "sampled_large", "sweep_analytical", "service_mixed"];

/// Engine threads of every workload: the bench host's core count, fixed so
/// that runs on bigger hosts stay comparable.
pub const THREADS: usize = 2;

/// Seconds of one burst of set-ups. One set-up takes microseconds, so a
/// burst repeats it thousands of times.
const SETUP_BURST_S: f64 = 0.05;

/// Everything a workload run is given.
pub struct Ctx {
    /// Input seed (only `service_mixed` draws from it).
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// Set-up times of a batch workload: the program's work before the timed
/// phase (building the job set and the engine, and planning the set),
/// repeated in a burst before the first pass and before every pass. How
/// fast the shared host runs such a short loop changes from second to
/// second, so the median spans the same stretch of time as the passes.
/// The benchmark's own preparation (loading the exact references) runs
/// outside them.
#[derive(Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Repeats `setup` for [`SETUP_BURST_S`], at least once, and returns
    /// the last value.
    pub fn burst<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let value = setup();
            self.0.push(t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= SETUP_BURST_S {
                return value;
            }
        }
    }

    /// The median time of one set-up.
    pub fn median(&self) -> f64 {
        stats::median(&self.0).unwrap_or(0.0)
    }
}

/// Fewest timed passes of a batch workload: the median of three is robust
/// to one pass slowed by the shared host.
const MIN_PASSES: usize = 3;

/// Runs passes for `seconds`, and at least [`MIN_PASSES`]: after those, a
/// pass starts only if a pass of the median length so far still ends in
/// time, so that a run lasts about `seconds` whatever the pass length.
/// Each pass reports its own wall time beside its value.
pub fn timed_passes<T>(seconds: f64, mut pass: impl FnMut() -> (f64, T)) -> Vec<(f64, T)> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut lengths = Vec::new();
    while out.len() < MIN_PASSES
        || start.elapsed().as_secs_f64() + stats::median(&lengths).unwrap_or(0.0) <= seconds
    {
        let t = Instant::now();
        out.push(pass());
        lengths.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Sets the end-to-end metrics of a batch workload, where one pass over
/// the job set is one request: a run has too few passes for any latency
/// percentile to have ten samples beyond it, so both latency metrics give
/// the median pass time.
pub fn batch_metrics(o: &mut Outcome, walls: &[f64], instructions: u64, points: usize) {
    let wall = stats::median(walls).unwrap_or(0.0);
    o.set("wall_s", wall);
    o.set("sim_mops", instructions as f64 / wall / 1e6);
    o.set("points_per_s", points as f64 / wall);
    o.set("requests_per_s", 1.0 / wall);
    o.set("latency_p50_ms", wall * 1e3);
    o.set("latency_p99_ms", wall * 1e3);
    o.notes.push(format!(
        "passes: {} ({})",
        walls.len(),
        walls.iter().map(|w| format!("{w:.3}s")).collect::<Vec<_>>().join(" ")
    ));
}

/// Runs this binary's `pass` subcommand in a fresh process and parses the
/// line it prints.
pub fn child_pass(workload: &str, threads: usize) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["pass", workload, &threads.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {workload} pass: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} pass exited with {}", out.status));
    }
    let line = text.lines().last().unwrap_or("");
    Json::parse(line).map_err(|e| format!("{workload} pass printed no result: {e}"))
}

fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    let calib = host::calibrate();
    let steal0 = host::steal_s();
    let mut o = match name {
        "suite_exact" => suite::run(ctx),
        "sampled_large" => sampled::run(ctx),
        "sweep_analytical" => sweep::run(ctx),
        "service_mixed" => service::run(ctx),
        _ => return None,
    };
    o.set("host.calib_s", calib);
    o.set("host.steal_s", host::steal_s() - steal0);
    o.set("host.threads", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64);
    o.values.entry("peak_rss_mb").or_insert_with(host::peak_rss_mb);
    Some(o)
}

fn print_report(name: &str, ctx: &Ctx, o: &Outcome) {
    println!("workload {name} (seed {}, {} s, trace {})", ctx.seed, ctx.seconds, ctx.traced as u8);
    for note in &o.notes {
        println!("  {note}");
    }
    let set: &[(&str, &str)] = if ctx.traced { &PER_LAYER } else { &END_TO_END };
    for (metric, unit) in set {
        println!("  {metric:<32} {:>16.6} {unit}", o.values.get(metric).copied().unwrap_or(0.0));
    }
    if !ctx.traced {
        // Accuracy of the approximate modes (end-to-end figures that are 0
        // on the exact workloads, so they are listed with the per-layer
        // metrics) and the host diagnostics.
        for (kind, metric, unit) in [
            ("accuracy", "cpi_err_pct", "%"),
            ("accuracy", "miss_err_pts", "pts"),
            ("diagnostic", "host.calib_s", "s"),
            ("diagnostic", "host.steal_s", "s"),
        ] {
            if let Some(v) = o.values.get(metric) {
                println!("  {kind:<10} {metric:<21} {v:>16.6} {unit}");
            }
        }
    }
    println!("  operations: {} attempted, {} failed", o.tally.attempted, o.tally.failed);
    for reason in &o.tally.reasons {
        println!("  FAILED: {reason}");
    }
}

/// `all`: every workload in a fresh process; a workload that cannot start
/// or prints no result counts all of its operations as failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = Outcome::default();
    let mut summary = Vec::new();
    for name in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                &(args.trace as u8).to_string(),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let text = out.map(|o| String::from_utf8_lossy(&o.stdout).into_owned()).unwrap_or_default();
        let mut lines: Vec<&str> = text.lines().collect();
        let result = lines.pop().and_then(|l| Json::parse(l).ok());
        for l in &lines {
            println!("{l}");
        }
        let Some(result) = result.filter(|r| r.get("metrics").is_some()) else {
            total.tally.all_failed(1, format!("{name} did not start or printed no result"));
            continue;
        };
        let count = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(1);
        total.tally.attempted += count("attempted");
        total.tally.failed += count("failed");
        summary.push((name, result));
    }
    println!("summary (seed {}, {} s per workload)", args.seed, args.seconds);
    let set: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (metric, unit) in set {
        let cells: Vec<String> = summary
            .iter()
            .map(|(_, r)| {
                let v = r.get("metrics").and_then(|m| m.get(metric)).and_then(|m| m.get("value"));
                format!("{:>14.6}", v.and_then(Json::as_f64).unwrap_or(0.0))
            })
            .collect();
        println!("  {metric:<30} {unit:<7} {}", cells.join(" "));
    }
    println!(
        "  {:<38} {}",
        "(columns)",
        summary.iter().map(|(n, _)| format!("{n:>14}")).collect::<Vec<_>>().join(" ")
    );
    println!("  operations: {} attempted, {} failed", total.tally.attempted, total.tally.failed);
    let metrics: Vec<String> = summary
        .iter()
        .flat_map(|(n, r)| match r.get("metrics") {
            Some(Json::Obj(m)) => {
                m.iter().map(|(k, v)| format!("\"{n}.{k}\": {v}")).collect::<Vec<_>>()
            }
            _ => Vec::new(),
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.tally.failed == 0,
        total.tally.attempted.max(1),
        total.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench --workload <suite_exact|sampled_large|sweep_analytical|\
                 service_mixed|all> --seed <n> --seconds <s> --trace <0|1>\n       \
                 perfbench record-refs";
    match argv.first().map(String::as_str) {
        Some("record-refs") => {
            let specs: Vec<refs::JobSpec> = [suite::specs(), sampled::specs(), sweep::ref_specs()]
                .into_iter()
                .flatten()
                .chain(service::ref_specs())
                .collect();
            eprintln!("simulating {} exact references (a few minutes) ...", specs.len());
            return match refs::record(&specs, std::path::Path::new(refs::PATH)) {
                Ok(()) => {
                    println!("wrote {}", refs::PATH);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot write {}: {e}", refs::PATH);
                    ExitCode::FAILURE
                }
            };
        }
        Some("pass") => {
            let threads = argv.get(2).and_then(|t| t.parse().ok()).filter(|&t| t > 0);
            let line = match (argv.get(1).map(String::as_str), threads) {
                (Some("suite_exact"), Some(t)) => suite::pass_json(t),
                (Some("sampled_large"), Some(t)) => sampled::pass_json(t),
                _ => {
                    eprintln!("usage: perfbench pass <suite_exact|sampled_large> <threads>");
                    return ExitCode::from(2);
                }
            };
            println!("{line}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("--workload is required\n{usage}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, traced: args.trace };
    match run_workload(&args.workload, &ctx) {
        Some(o) => {
            print_report(&args.workload, &ctx, &o);
            println!("{}", o.result_line(ctx.traced));
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown workload {:?}\n{usage}", args.workload);
            ExitCode::from(2)
        }
    }
}
