//! Extension experiments beyond the paper's evaluation:
//!
//! 1. A third hardware assist — Jouppi stream buffers (the "hardware
//!    prefetching" entry of the paper's related-work list) — run through
//!    the same four-version protocol as bypassing and victim caches.
//! 2. The extension compiler passes (loop fusion, loop distribution,
//!    unroll-and-jam) measured on top of the default pipeline.
//! 3. The online assist controller (`selcache-adapt`) swept over its
//!    decision-interval length, against the static selective scheme.
//!
//! Usage: `cargo run --release -p selcache-bench --bin extensions
//! [-- --scale tiny|small|medium] [--threads N]`

use selcache_bench::adapt::Ablation;
use selcache_bench::Cli;
use selcache_compiler::{insert_markers, optimize, AssistPolicy, OptConfig};
use selcache_core::{
    AssistKind, Benchmark, ControllerConfig, Experiment, JobEngine, MachineConfig, Scale, SimJob,
    SuiteResult, Version,
};

fn main() {
    let cli = Cli::from_env();
    let engine = cli.engine();
    assists_table(&engine, cli.scale);
    assist_aware_selective(cli.scale);
    extension_passes(&engine, cli.scale);
    controller_sensitivity(&engine, cli.scale);
}

/// Decision-interval sensitivity of the dynamic controller: too short and
/// the miss samples are noisy (spurious re-exploration), too long and the
/// controller reacts late and spends more of the run exploring at full
/// interval granularity. Averages over one benchmark per category.
fn controller_sensitivity(engine: &JobEngine, scale: Scale) {
    println!("== Extension: adapt controller interval sensitivity ==");
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>6}",
        "Interval", "Static%", "Dynamic%", "Switches", "Wins"
    );
    let benchmarks = [Benchmark::Adi, Benchmark::Li, Benchmark::Chaos];
    for interval in [128u32, 512, 2048] {
        let ctl = ControllerConfig { interval_accesses: interval, ..ControllerConfig::default() };
        let ab = Ablation::run(
            engine,
            &MachineConfig::base(),
            AssistKind::Bypass,
            ctl,
            scale,
            &benchmarks,
        );
        let n = ab.rows.len();
        let st: f64 = ab.rows.iter().map(|r| r.static_improvement_pct).sum::<f64>() / n as f64;
        let dy: f64 = ab.rows.iter().map(|r| r.dynamic_improvement_pct).sum::<f64>() / n as f64;
        let switches: u64 = ab.rows.iter().map(|r| r.policy_switches).sum();
        println!(
            "{:<16} {:>8.2}% {:>8.2}% {:>9} {:>4}/{}",
            format!("{interval} accesses"),
            st,
            dy,
            switches,
            ab.dynamic_wins(),
            n,
        );
    }
    println!();
}

/// Assist-aware region preference: the selective scheme with the marker
/// polarity chosen per mechanism. For the stream-buffer assist the paper's
/// irregular-regions rule forfeits most of the benefit; enabling it on the
/// *regular* regions recovers the combined version's gains while still
/// switching it off where it would pollute.
///
/// The marked programs are built by hand (per policy), so this study stays
/// on [`Experiment::run_program`]; the Base runs are computed once and
/// shared by all three policies.
fn assist_aware_selective(scale: Scale) {
    println!("== Extension: assist-aware selective (stream buffers) ==");
    println!("{:<24} {:>10}", "Policy", "Average");
    let exp = Experiment::new(MachineConfig::base(), AssistKind::Stream);
    let prepared: Vec<_> = Benchmark::ALL
        .iter()
        .map(|bm| {
            let p = bm.build(scale);
            let base = exp.run_program(&p, Version::Base);
            (optimize(&p, exp.opt()), base)
        })
        .collect();
    for (name, policy) in [
        ("paper rule (irregular)", AssistPolicy::IrregularRegions),
        ("inverted (regular)", AssistPolicy::RegularRegions),
        ("always on (combined)", AssistPolicy::Always),
    ] {
        let mut total = 0.0;
        for (optimized, base) in &prepared {
            let marked = insert_markers(optimized, exp.opt().threshold, policy);
            let r = exp.run_program(&marked, Version::Selective);
            total += r.improvement_over(base);
        }
        println!("{:<24} {:>9.2}%", name, total / Benchmark::ALL.len() as f64);
    }
    println!();
}

/// All three assists on the base machine as one job set: the 13 Base and
/// 13 PureSoftware runs are assist-independent, so the engine executes
/// them once and shares them across the three suites.
fn assists_table(engine: &JobEngine, scale: Scale) {
    println!("== Extension: all three hardware assists, base machine ==");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9}",
        "Assist", "PureHW", "PureSW", "Combined", "Selective"
    );
    let machine = MachineConfig::base();
    let assists = [AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream];
    eprintln!("running {} suites at scale {scale} ({} threads)…", assists.len(), engine.threads());
    let mut jobs = Vec::new();
    for &assist in &assists {
        jobs.extend(SuiteResult::jobs(&machine, assist, scale, &Benchmark::ALL));
    }
    let results = engine.run(&jobs);
    let per_suite = jobs.len() / assists.len();
    for (assist, chunk) in assists.iter().zip(results.chunks_exact(per_suite)) {
        let s = SuiteResult::from_results(machine.name, *assist, &Benchmark::ALL, chunk);
        println!(
            "{:<10} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            format!("{assist:?}"),
            s.average(Version::PureHardware),
            s.average(Version::PureSoftware),
            s.average(Version::Combined),
            s.average(Version::Selective)
        );
    }
    println!();
}

fn extension_passes(engine: &JobEngine, scale: Scale) {
    println!("== Extension: compiler passes beyond the paper's list ==");
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>12}",
        "Benchmark", "default", "+fusion", "+unroll", "+distribute"
    );
    let machine = MachineConfig::base();
    let benchmarks = [Benchmark::Vpenta, Benchmark::Swim, Benchmark::TpcDQ1, Benchmark::Chaos];
    let configs =
        [(false, false, false), (true, false, false), (false, true, false), (false, false, true)];
    let mut jobs = Vec::new();
    for &bm in &benchmarks {
        jobs.push(SimJob::new(bm, scale, machine.clone(), AssistKind::None, Version::Base));
        for &(fusion, unroll_jam, distribute) in &configs {
            let cfg = OptConfig { fusion, unroll_jam, distribute, ..OptConfig::default() };
            jobs.push(
                SimJob::new(bm, scale, machine.clone(), AssistKind::None, Version::PureSoftware)
                    .with_opt(cfg),
            );
        }
    }
    let results = engine.run(&jobs);
    for (bm, chunk) in benchmarks.iter().zip(results.chunks_exact(1 + configs.len())) {
        let base = &chunk[0];
        let cells: Vec<f64> = chunk[1..].iter().map(|r| r.improvement_over(base)).collect();
        println!(
            "{:<12} {:>8.2}% {:>8.2}% {:>8.2}% {:>11.2}%",
            bm.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
}
