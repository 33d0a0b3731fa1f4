//! Regenerates Table 3 of the paper: average improvements of every version
//! (both assists) across all six machine configurations.
//!
//! All twelve suites (six machines x two assists) are submitted as one job
//! set, so the engine shares each machine's Base and PureSoftware runs
//! between its bypass and victim sweeps and keeps every core busy.
//! `--format json` emits `{"rows": [...], "engine": {...}}` (engine
//! counters include store hits/misses when `--store` is set);
//! `--format csv` emits the rows via `table3_csv`.
use selcache_bench::{engine_stats_json, Cli, OutputFormat};
use selcache_core::json::Json;
use selcache_core::{format_table3, table3_csv, table3_rows, ConfigVariant, Table3Row};

fn row_json(r: &Table3Row) -> Json {
    Json::obj([
        ("machine", Json::str(r.machine_name)),
        ("pure_software", Json::Num(r.pure_software)),
        ("cache_bypass", Json::Num(r.cache_bypass)),
        ("combined_bypass", Json::Num(r.combined_bypass)),
        ("selective_bypass", Json::Num(r.selective_bypass)),
        ("victim", Json::Num(r.victim)),
        ("combined_victim", Json::Num(r.combined_victim)),
        ("selective_victim", Json::Num(r.selective_victim)),
    ])
}

fn main() {
    let cli = Cli::from_env();
    let engine = cli.engine();
    let machines: Vec<_> = ConfigVariant::ALL.iter().map(|v| v.machine()).collect();
    eprintln!(
        "running {} machine configurations (both assists) at scale {} ({} threads)…",
        machines.len(),
        cli.scale,
        engine.threads()
    );
    let (rows, stats) = table3_rows(&engine, &machines, cli.scale, &cli.benchmarks(), cli.mode);
    if engine.store().is_some() {
        eprintln!(
            "store: {} hits, {} misses, {} bytes written",
            stats.store_hits, stats.store_misses, stats.bytes_written
        );
    }
    match cli.format {
        OutputFormat::Text => print!("{}", format_table3(&rows)),
        OutputFormat::Json => {
            let mode = if cli.mode.is_sampled() { "sampled" } else { "exact" };
            println!(
                "{}",
                Json::obj([
                    ("mode", Json::str(mode)),
                    ("rows", Json::Arr(rows.iter().map(row_json).collect())),
                    ("engine", engine_stats_json(&stats)),
                ])
            );
        }
        OutputFormat::Csv => print!("{}", table3_csv(&rows)),
    }
}
