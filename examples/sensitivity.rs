//! Sensitivity sweep (Section 5.1 of the paper): how the four versions
//! respond to memory latency and associativity — built on the
//! [`selcache::core`] `SweepSpec` API, which also exports CSV for
//! plotting — plus an analytical size×associativity grid evaluated from
//! one trace pass per version (the grid has one line size; each further
//! line size adds a pass per version).
//!
//! ```text
//! cargo run --release --example sensitivity [-- <benchmark>]
//! ```

use selcache::core::{AssistKind, Sweep, SweepAxis, SweepMode, SweepSpec};
use selcache::workloads::{Benchmark, Scale};

fn print_sweep(s: &Sweep) {
    let parameter = s.parameter();
    println!("{} sweep for {}:", parameter, s.benchmark);
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9}",
        parameter, "PureHW", "PureSW", "Combined", "Selective"
    );
    for p in &s.points {
        let imp = p.improvements().expect("exact sweep");
        println!(
            "{:<10} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            p.values[0], imp[0], imp[1], imp[2], imp[3]
        );
    }
    println!();
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Vpenta".to_string());
    let benchmark = Benchmark::parse(&name).expect("benchmark name");
    let scale = Scale::Tiny;

    let lat = SweepSpec::new(benchmark)
        .scale(scale)
        .assist(AssistKind::Bypass)
        .axis(SweepAxis::MemLatency, [50, 100, 200, 400])
        .run()
        .expect("valid latency sweep");
    print_sweep(&lat);
    let assoc = SweepSpec::new(benchmark)
        .scale(scale)
        .assist(AssistKind::Bypass)
        .axis(SweepAxis::L1Assoc, [1, 2, 4, 8])
        .run()
        .expect("valid associativity sweep");
    print_sweep(&assoc);
    println!("CSV (memory latency):\n{}", lat.to_csv());

    // Analytical mode: a 24-point L1 design-space grid from one trace
    // pass per version, 25% of points cross-checked by exact simulation.
    let grid = SweepSpec::new(benchmark)
        .scale(scale)
        .mode(SweepMode::Analytical { check_fraction: 0.25 })
        .axis(SweepAxis::L1Size, (12..18).map(|p| 1u64 << p))
        .axis(SweepAxis::L1Assoc, [1, 2, 4, 8])
        .run()
        .expect("valid analytical sweep");
    println!(
        "analytical {}-point grid: {} trace passes, {} exact sims",
        grid.points.len(),
        grid.work.trace_passes,
        grid.work.exact_sims
    );
    if let Some(c) = &grid.check {
        println!(
            "cross-check over {} points: max |err| {:.4}, mean |err| {:.4}",
            c.checked, c.max_abs_error, c.mean_abs_error
        );
    }
    println!("{}", grid.to_csv());
}
