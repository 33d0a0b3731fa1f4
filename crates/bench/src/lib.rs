//! # selcache-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation section (Section 5). One binary per artifact:
//!
//! | Binary   | Artifact | Contents |
//! |----------|----------|----------|
//! | `table2` | Table 2  | benchmark characteristics under the base machine |
//! | `fig4`   | Figure 4 | % improvement, base configuration |
//! | `fig5`   | Figure 5 | % improvement, 200-cycle memory latency |
//! | `fig6`   | Figure 6 | % improvement, 1 MiB L2 |
//! | `fig7`   | Figure 7 | % improvement, 64 KiB L1 |
//! | `fig8`   | Figure 8 | % improvement, 8-way L2 |
//! | `fig9`   | Figure 9 | % improvement, 8-way L1 |
//! | `table3` | Table 3  | average improvements across all six machines and both assists |
//! | `regions` | —       | per-region cycles/misses/assist coverage of the selective version |
//! | `sweep`  | Figs 4–9 axes | design-space sweeps via `SweepSpec` (exact or analytical) |
//!
//! Every binary accepts `--scale tiny|small|medium|large` (default
//! `small`), `--victim`/`--stream` to switch the figures' assist,
//! `--threads N` to size the simulation pool (default: all cores; output
//! is identical for every `N`), `--subset bench,bench,...` to restrict the
//! suite, `--mode exact|sampled` to switch on SimPoint-style interval
//! sampling (intended for `--scale large`), and `--store <dir>` (or the
//! `SELCACHE_STORE` environment variable) to back the engine with a
//! persistent result store — a warm store answers every repeated job from
//! disk and executes zero simulations.
//! `table3`, `regions`, and `sweep` accept `--format text|json|csv`.
//! The `selcached` binary runs the same engine as a long-lived unix-socket
//! service (see `DESIGN.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
#[cfg(unix)]
pub mod service;

use selcache_core::json::Json;
use selcache_core::{
    AssistKind, Benchmark, ConfigVariant, JobEngine, Scale, SimMode, Store, SuiteResult,
};
use std::fmt;

/// Usage string the binaries print when argument parsing fails.
pub const USAGE: &str = "usage: [--scale tiny|small|medium|large] [--bypass|--victim|--stream] \
[--threads N] [--subset bench,bench,...] [--mode exact|sampled] [--dynamic] [--csv <path>] \
[--format text|json|csv] [--store <dir>]";

/// Why the command line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Argument not recognized by any binary.
    UnknownArgument(String),
    /// A flag that takes a value appeared last.
    MissingValue(&'static str),
    /// `--scale` value was not `tiny|small|medium|large`.
    InvalidScale(String),
    /// `--mode` value was not `exact|sampled`.
    InvalidMode(String),
    /// `--threads` value was not a non-negative integer.
    InvalidThreads(String),
    /// A `--subset` entry named no known benchmark.
    UnknownBenchmark(String),
    /// `--format` value was not `text|json|csv`.
    InvalidFormat(String),
}

/// Output format for binaries that support `--format`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable aligned tables (the default).
    #[default]
    Text,
    /// Machine-readable JSON on stdout.
    Json,
    /// Comma-separated values on stdout (`sweep`, `table3`, `regions`).
    Csv,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownArgument(a) => write!(f, "unknown argument {a:?}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::InvalidScale(v) => {
                write!(f, "unknown scale {v:?}; use tiny|small|medium|large")
            }
            CliError::InvalidMode(v) => {
                write!(f, "unknown mode {v:?}; use exact|sampled")
            }
            CliError::InvalidThreads(v) => {
                write!(f, "invalid --threads {v:?}; use a non-negative integer (0 = all cores)")
            }
            CliError::UnknownBenchmark(v) => {
                write!(f, "unknown benchmark {v:?}; known: {}", known_benchmarks())
            }
            CliError::InvalidFormat(v) => {
                write!(f, "unknown format {v:?}; use text|json|csv")
            }
        }
    }
}

impl std::error::Error for CliError {}

fn known_benchmarks() -> String {
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    names.join(" ")
}

/// Benchmark name lookup for `--subset` entries and the `sweep` binary's
/// `--benchmark` flag: exact display name first, then a form with
/// punctuation stripped so the comma-bearing TPC-D names stay addressable
/// inside a comma-separated list (`tpc-dq6`, `tpcdq6`).
pub fn parse_benchmark(token: &str) -> Option<Benchmark> {
    Benchmark::parse(token).or_else(|| {
        let canon = |s: &str| {
            s.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_ascii_lowercase()
        };
        let wanted = canon(token);
        if wanted.is_empty() {
            return None;
        }
        Benchmark::ALL.into_iter().find(|b| canon(b.name()) == wanted)
    })
}

/// Parsed command line shared by the figure/table binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Workload scale.
    pub scale: Scale,
    /// Assist under study for the figures.
    pub assist: AssistKind,
    /// Optional CSV output path for the figure data.
    pub csv: Option<std::path::PathBuf>,
    /// Worker threads for the job engine (`0` = all available cores).
    pub threads: usize,
    /// Benchmarks to run (`None` = the full suite).
    pub subset: Option<Vec<Benchmark>>,
    /// Simulation mode (`--mode`): exact whole-trace simulation or
    /// SimPoint-style interval sampling with the default parameters.
    pub mode: SimMode,
    /// Output format for binaries that support `--format`.
    pub format: OutputFormat,
    /// Persistent result-store root (`--store` flag; when absent,
    /// [`Cli::engine`] falls back to the `SELCACHE_STORE` environment
    /// variable).
    pub store: Option<std::path::PathBuf>,
    /// Attach the online assist controller (`--dynamic`): selective runs
    /// then defer the per-region {off, bypass, victim} choice to the
    /// run-time `selcache-adapt` hardware instead of the compiler's static
    /// decision.
    pub dynamic: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: Scale::Small,
            assist: AssistKind::Bypass,
            csv: None,
            threads: 0,
            subset: None,
            mode: SimMode::Exact,
            format: OutputFormat::Text,
            store: None,
            dynamic: false,
        }
    }
}

impl Cli {
    /// Parses an argument list (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Cli, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Cli::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    let v = args.next().ok_or(CliError::MissingValue("--scale"))?;
                    out.scale = Scale::parse(&v).ok_or(CliError::InvalidScale(v))?;
                }
                "--victim" => out.assist = AssistKind::Victim,
                "--bypass" => out.assist = AssistKind::Bypass,
                "--stream" => out.assist = AssistKind::Stream,
                "--dynamic" => out.dynamic = true,
                "--threads" => {
                    let v = args.next().ok_or(CliError::MissingValue("--threads"))?;
                    out.threads = v.parse().map_err(|_| CliError::InvalidThreads(v))?;
                }
                "--subset" => {
                    let v = args.next().ok_or(CliError::MissingValue("--subset"))?;
                    let mut subset = Vec::new();
                    for token in v.split(',').filter(|t| !t.trim().is_empty()) {
                        let bm = parse_benchmark(token.trim())
                            .ok_or_else(|| CliError::UnknownBenchmark(token.trim().into()))?;
                        if !subset.contains(&bm) {
                            subset.push(bm);
                        }
                    }
                    if subset.is_empty() {
                        return Err(CliError::MissingValue("--subset"));
                    }
                    out.subset = Some(subset);
                }
                "--mode" => {
                    let v = args.next().ok_or(CliError::MissingValue("--mode"))?;
                    out.mode = match v.as_str() {
                        "exact" => SimMode::Exact,
                        "sampled" => SimMode::sampled(),
                        _ => return Err(CliError::InvalidMode(v)),
                    };
                }
                "--csv" => {
                    let v = args.next().ok_or(CliError::MissingValue("--csv"))?;
                    out.csv = Some(v.into());
                }
                "--store" => {
                    let v = args.next().ok_or(CliError::MissingValue("--store"))?;
                    out.store = Some(v.into());
                }
                "--format" => {
                    let v = args.next().ok_or(CliError::MissingValue("--format"))?;
                    out.format = match v.as_str() {
                        "text" => OutputFormat::Text,
                        "json" => OutputFormat::Json,
                        "csv" => OutputFormat::Csv,
                        _ => return Err(CliError::InvalidFormat(v)),
                    };
                }
                other => return Err(CliError::UnknownArgument(other.into())),
            }
        }
        Ok(out)
    }

    /// Parses `std::env::args`; on failure prints the error plus [`USAGE`]
    /// to stderr and exits with status 2.
    pub fn from_env() -> Cli {
        match Cli::parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The benchmarks this invocation covers.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        match &self.subset {
            Some(s) => s.clone(),
            None => Benchmark::ALL.to_vec(),
        }
    }

    /// A job engine sized per `--threads`, backed by the `--store`
    /// directory when one was given, else by a non-empty `SELCACHE_STORE`
    /// environment variable (so CI and shell profiles can warm one store
    /// across runs). A store root that cannot be created is fatal
    /// (exit 1): silently running store-less would re-simulate everything
    /// the caller expected to be cached.
    pub fn engine(&self) -> JobEngine {
        let env_store = || std::env::var_os("SELCACHE_STORE").filter(|dir| !dir.is_empty());
        match self.store.clone().or_else(|| env_store().map(Into::into)) {
            None => JobEngine::new(self.threads),
            Some(root) => match Store::open(&root) {
                Ok(store) => JobEngine::with_store(self.threads, store),
                Err(e) => {
                    eprintln!("failed to open store {}: {e}", root.display());
                    std::process::exit(1);
                }
            },
        }
    }
}

/// Renders [`EngineStats`](selcache_core::EngineStats) as the JSON object
/// the `table3`/`sweep` binaries and the `selcached` protocol all embed
/// (dedup, shared simulations, and store hit/miss accounting).
pub fn engine_stats_json(stats: &selcache_core::EngineStats) -> Json {
    Json::obj([
        ("submitted", Json::UInt(stats.submitted as u64)),
        ("executed", Json::UInt(stats.executed as u64)),
        ("shared", Json::UInt(stats.shared as u64)),
        ("dedup_hits", Json::UInt(stats.dedup_hits as u64)),
        ("programs_prepared", Json::UInt(stats.programs_prepared as u64)),
        ("store_hits", Json::UInt(stats.store_hits as u64)),
        ("store_misses", Json::UInt(stats.store_misses as u64)),
        ("bytes_written", Json::UInt(stats.bytes_written)),
        ("threads", Json::UInt(stats.threads as u64)),
    ])
}

/// Runs and prints one figure (4–9) for the chosen variant, optionally
/// writing the per-benchmark data as CSV.
pub fn run_figure(variant: ConfigVariant) {
    let cli = Cli::from_env();
    let engine = cli.engine();
    eprintln!(
        "running {} suite at scale {} ({:?} assist, {} threads)…",
        variant,
        cli.scale,
        cli.assist,
        engine.threads()
    );
    let suite = SuiteResult::run(
        &engine,
        variant.machine(),
        cli.assist,
        cli.scale,
        &cli.benchmarks(),
        cli.mode,
    );
    print!("{}", suite.format_figure(variant.figure()));
    if let Some(path) = &cli.csv {
        if let Err(e) = std::fs::write(path, suite.to_csv()) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cli() {
        let c = Cli::parse(Vec::<String>::new()).unwrap();
        assert_eq!(c, Cli::default());
        assert_eq!(c.scale, Scale::Small);
        assert_eq!(c.benchmarks().len(), 13);
        assert!(c.engine().threads() >= 1);
    }

    #[test]
    fn parses_every_flag() {
        let c = Cli::parse([
            "--scale",
            "tiny",
            "--mode",
            "sampled",
            "--victim",
            "--threads",
            "4",
            "--subset",
            "adi,li,tpc-dq6",
            "--csv",
            "/tmp/out.csv",
            "--format",
            "json",
            "--store",
            "/tmp/selcache-store",
            "--dynamic",
        ])
        .unwrap();
        assert!(c.dynamic);
        assert_eq!(c.scale, Scale::Tiny);
        assert_eq!(c.mode, SimMode::sampled());
        assert_eq!(c.assist, AssistKind::Victim);
        assert_eq!(c.threads, 4);
        assert_eq!(c.benchmarks(), vec![Benchmark::Adi, Benchmark::Li, Benchmark::TpcDQ6]);
        assert_eq!(c.csv.as_deref(), Some(std::path::Path::new("/tmp/out.csv")));
        assert_eq!(c.format, OutputFormat::Json);
        assert_eq!(c.store.as_deref(), Some(std::path::Path::new("/tmp/selcache-store")));
        let c = Cli::parse(["--format", "csv"]).unwrap();
        assert_eq!(c.format, OutputFormat::Csv);
        assert_eq!(c.store, None, "store defaults to none in parse()");
        let c = Cli::parse(["--scale", "large", "--mode", "exact"]).unwrap();
        assert_eq!(c.scale, Scale::Large);
        assert_eq!(c.mode, SimMode::Exact);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert_eq!(
            Cli::parse(["--frobnicate"]),
            Err(CliError::UnknownArgument("--frobnicate".into()))
        );
        assert_eq!(Cli::parse(["--scale"]), Err(CliError::MissingValue("--scale")));
        assert_eq!(Cli::parse(["--scale", "huge"]), Err(CliError::InvalidScale("huge".into())));
        assert_eq!(Cli::parse(["--threads", "-1"]), Err(CliError::InvalidThreads("-1".into())));
        assert_eq!(
            Cli::parse(["--subset", "adi,nosuch"]),
            Err(CliError::UnknownBenchmark("nosuch".into()))
        );
        // A subset naming no benchmark is refused, not read as the suite.
        for empty in ["", " , ", ","] {
            assert_eq!(Cli::parse(["--subset", empty]), Err(CliError::MissingValue("--subset")));
        }
        assert_eq!(Cli::parse(["--format", "yaml"]), Err(CliError::InvalidFormat("yaml".into())));
        let msg = CliError::InvalidFormat("yaml".into()).to_string();
        assert!(msg.contains("text|json|csv"), "{msg}");
        assert_eq!(Cli::parse(["--mode", "fuzzy"]), Err(CliError::InvalidMode("fuzzy".into())));
        // Errors render with guidance.
        let msg = CliError::InvalidScale("huge".into()).to_string();
        assert!(msg.contains("tiny|small|medium|large"), "{msg}");
        let msg = CliError::InvalidMode("fuzzy".into()).to_string();
        assert!(msg.contains("exact|sampled"), "{msg}");
    }

    #[test]
    fn subset_accepts_punctuation_free_tpc_names() {
        for token in ["TPC-C", "tpcc", "tpcdq6", "Tpc-Dq1"] {
            assert!(parse_benchmark(token).is_some(), "{token} should resolve");
        }
        assert!(parse_benchmark("").is_none());
        assert!(parse_benchmark("---").is_none());
    }
}
