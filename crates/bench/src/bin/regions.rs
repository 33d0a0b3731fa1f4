//! Per-region attribution of the selective scheme: for each benchmark,
//! runs the `Selective` version with a region profile attached and prints
//! one table per benchmark — cycles, misses, and assist coverage broken
//! down by the compiler's uniform-region partition, with a TOTAL row that
//! matches the aggregate counters exactly.
//!
//! All runs are submitted as one job set, so the pool keeps every core
//! busy and deduplicated runs are simulated once. `--format json` emits
//! the profiles as a JSON array (each entry carrying its stable
//! `job_id`); `--format csv` emits one row per (benchmark, region).
//! With `--dynamic` the runs attach the online assist controller, and the
//! JSON adds a per-benchmark policy summary: total switch count plus each
//! region's final {off, bypass, victim} decision.
use selcache_bench::{Cli, OutputFormat};
use selcache_core::json::Json;
use selcache_core::store::region_to_json;
use selcache_core::{
    format_region_report, ControllerConfig, MachineConfig, SimJob, SimResult, Version,
};
use std::fmt::Write as _;

/// The store's encoding of a region, plus its assist coverage.
fn region_json(r: &selcache_core::RegionStats) -> Json {
    let Json::Obj(mut pairs) = region_to_json(r) else {
        unreachable!("a region encodes as an object")
    };
    pairs.push(("assist_coverage_pct".to_string(), Json::Num(r.assist_coverage_pct())));
    Json::Obj(pairs)
}

fn result_json(name: &str, r: &SimResult, dynamic: bool) -> Json {
    let profile = r.regions.as_ref().expect("profiled run");
    let version = if dynamic { "selective+adapt" } else { "selective" };
    let mut pairs = vec![("benchmark", Json::str(name)), ("version", Json::str(version))];
    if let Some(id) = r.job_id {
        pairs.push(("job_id", Json::str(id.to_string())));
    }
    pairs.push(("cycles", Json::UInt(r.cycles)));
    pairs.push(("instructions", Json::UInt(r.instructions)));
    if dynamic {
        // Per-region policy-switch summary: how often the controller
        // changed its mind, and where each region ended up.
        pairs.push(("policy_switches", Json::UInt(r.mem.assist.adapt_switches)));
        pairs.push((
            "final_policies",
            Json::Arr(
                profile
                    .regions()
                    .iter()
                    .map(|reg| {
                        Json::obj([
                            ("region", Json::str(reg.label.clone())),
                            ("switches", Json::UInt(reg.policy_switches)),
                            ("final_policy", Json::str(reg.final_policy.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    pairs.push(("regions", Json::Arr(profile.regions().iter().map(region_json).collect())));
    Json::obj(pairs)
}

/// One CSV row per (benchmark, region), matching the other binaries' CSV
/// style: a header line, then plain comma-joined values.
fn results_csv(names: &[&str], results: &[SimResult]) -> String {
    let mut out = String::from(
        "benchmark,region,cycles,committed,loads,stores,l1d_accesses,l1d_misses,\
         l2_accesses,l2_misses,assisted_accesses,assist_hits,toggles,\
         policy_switches,final_policy\n",
    );
    for (name, r) in names.iter().zip(results) {
        let profile = r.regions.as_ref().expect("profiled run");
        for reg in profile.regions() {
            let _ = writeln!(
                out,
                "{name},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                reg.label,
                reg.cycles,
                reg.committed,
                reg.loads,
                reg.stores,
                reg.l1d_accesses,
                reg.l1d_misses,
                reg.l2_accesses,
                reg.l2_misses,
                reg.assisted_accesses,
                reg.assist_hits,
                reg.toggles,
                reg.policy_switches,
                reg.final_policy
            );
        }
    }
    out
}

fn main() {
    let cli = Cli::from_env();
    let engine = cli.engine();
    let benchmarks = cli.benchmarks();
    let machine = MachineConfig::base();
    eprintln!(
        "profiling {} benchmarks (selective{}, {:?} assist) at scale {} ({} threads)…",
        benchmarks.len(),
        if cli.dynamic { "+adapt" } else { "" },
        cli.assist,
        cli.scale,
        engine.threads()
    );
    let jobs: Vec<SimJob> = benchmarks
        .iter()
        .map(|&bm| {
            let job = SimJob::new(bm, cli.scale, machine.clone(), cli.assist, Version::Selective);
            if cli.dynamic {
                job.with_controller(ControllerConfig::default())
            } else {
                job
            }
        })
        .collect();
    let results = engine.run_profiled(&jobs);
    match cli.format {
        OutputFormat::Text => {
            for (bm, r) in benchmarks.iter().zip(&results) {
                print!("{}", format_region_report(bm.name(), r));
                if cli.dynamic {
                    println!("policy switches: {}", r.mem.assist.adapt_switches);
                }
                println!();
            }
        }
        OutputFormat::Json => {
            let rows: Vec<Json> = benchmarks
                .iter()
                .zip(&results)
                .map(|(bm, r)| result_json(bm.name(), r, cli.dynamic))
                .collect();
            println!("{}", Json::Arr(rows));
        }
        OutputFormat::Csv => {
            let names: Vec<&str> = benchmarks.iter().map(|b| b.name()).collect();
            print!("{}", results_csv(&names, &results));
        }
    }
}
