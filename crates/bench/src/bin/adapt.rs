//! Dynamic-vs-static ablation of the online assist controller
//! (`selcache-adapt`): per benchmark, a shared base run, the paper's
//! static selective scheme, and the run-time controller picking
//! {off, bypass, victim} per region — reported as improvement over base.
//!
//! Accepts the shared harness flags plus `--min-wins N`: exit with status
//! 1 unless the dynamic scheme matches or beats the static one on at
//! least `N` benchmarks (the CI smoke gate).

use selcache_bench::adapt::Ablation;
use selcache_bench::{Cli, OutputFormat, USAGE};
use selcache_core::{ControllerConfig, MachineConfig};

fn main() {
    // Peel off `--min-wins N` before handing the rest to the shared CLI.
    let mut min_wins: Option<usize> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--min-wins" {
            let v = args.next().unwrap_or_default();
            match v.parse() {
                Ok(n) => min_wins = Some(n),
                Err(_) => {
                    eprintln!("error: invalid --min-wins {v:?}; use a non-negative integer");
                    eprintln!("{USAGE} [--min-wins N]");
                    std::process::exit(2);
                }
            }
        } else {
            rest.push(a);
        }
    }
    let cli = match Cli::parse(rest) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE} [--min-wins N]");
            std::process::exit(2);
        }
    };

    let engine = cli.engine();
    let benchmarks = cli.benchmarks();
    eprintln!(
        "running dynamic-vs-static ablation over {} benchmarks at scale {} \
         ({:?} static assist, {} threads)…",
        benchmarks.len(),
        cli.scale,
        cli.assist,
        engine.threads()
    );
    let ablation = Ablation::run(
        &engine,
        &MachineConfig::base(),
        cli.assist,
        ControllerConfig::default(),
        cli.scale,
        &benchmarks,
    );
    match cli.format {
        OutputFormat::Text => print!("{}", ablation.format_text()),
        OutputFormat::Json => println!("{}", ablation.to_json()),
        OutputFormat::Csv => print!("{}", ablation.to_csv()),
    }
    if let Some(n) = min_wins {
        let wins = ablation.dynamic_wins();
        if wins < n {
            eprintln!("FAIL: dynamic won on {wins} benchmarks, required {n}");
            std::process::exit(1);
        }
        eprintln!("ok: dynamic won on {wins} benchmarks (required {n})");
    }
}
