//! Parallel suite execution with the job engine: run Figure 4 (base
//! machine, cache-bypassing assist) serially and on all cores, verify the
//! outputs are byte-identical, and report the speedup.
//!
//! ```text
//! cargo run --release --example parallel_suite [-- <threads>]
//! ```

use selcache::core::{
    AssistKind, Benchmark, JobEngine, MachineConfig, Scale, SimMode, SuiteResult,
};
use std::time::Instant;

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("threads must be a non-negative integer"))
        .unwrap_or(0); // 0 = all available cores

    let scale = Scale::Tiny;
    let benchmarks = &Benchmark::ALL;
    let run = |engine: &JobEngine| {
        let start = Instant::now();
        let suite = SuiteResult::run(
            engine,
            MachineConfig::base(),
            AssistKind::Bypass,
            scale,
            benchmarks,
            SimMode::Exact,
        );
        (suite, start.elapsed())
    };

    let serial_engine = JobEngine::serial();
    let parallel_engine = JobEngine::new(threads);
    println!(
        "running the {}-benchmark suite at scale {scale}: 1 thread vs {} threads…",
        benchmarks.len(),
        parallel_engine.threads()
    );

    let (serial, serial_time) = run(&serial_engine);
    let (parallel, parallel_time) = run(&parallel_engine);

    let serial_text = serial.format_figure(4);
    let parallel_text = parallel.format_figure(4);
    assert_eq!(serial_text, parallel_text, "parallel output must be byte-identical");

    print!("{parallel_text}");
    println!();
    println!("serial   ({} thread):  {serial_time:?}", serial_engine.threads());
    println!("parallel ({} threads): {parallel_time:?}", parallel_engine.threads());
    println!(
        "speedup: {:.2}x (outputs byte-identical)",
        serial_time.as_secs_f64() / parallel_time.as_secs_f64()
    );

    // The engine also reports what it deduplicates: a bypass + victim
    // study shares every Base and PureSoftware run (they never touch the
    // assist), so two suites cost eight simulations per benchmark, not ten.
    let machine = MachineConfig::base();
    let mut jobs = SuiteResult::jobs(&machine, AssistKind::Bypass, scale, benchmarks);
    jobs.extend(SuiteResult::jobs(&machine, AssistKind::Victim, scale, benchmarks));
    let (_, stats) = parallel_engine.run_with_stats(&jobs);
    println!(
        "bypass+victim study: {} jobs submitted, {} executed, {} dedup hits, {} programs prepared",
        stats.submitted, stats.executed, stats.dedup_hits, stats.programs_prepared
    );
}
