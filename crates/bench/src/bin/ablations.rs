//! Ablation studies for the design choices called out in `DESIGN.md`:
//! simulated-cycle impact of the out-of-order model, the region-detection
//! threshold, the MAT geometry, redundant-marker elimination, and each
//! compiler pass. The extension pass (loop fusion) is measured by the
//! `extensions` binary.
//!
//! Each study submits its whole grid as one job set: the engine runs the
//! cells in parallel and deduplicates shared runs (e.g. the threshold
//! sweep's Base runs, which are threshold-independent).
//!
//! Usage: `cargo run --release -p selcache-bench --bin ablations
//! [-- --scale tiny|small|medium] [--threads N]`

use selcache_bench::Cli;
use selcache_compiler::{
    detect_and_mark, eliminate_redundant_markers, optimize, AssistPolicy, OptConfig,
};
use selcache_core::{
    AssistKind, Benchmark, JobEngine, MachineConfig, Scale, SimJob, SimResult, Version,
};
use selcache_cpu::CpuModel;
use selcache_ir::{Interp, OpKind};

fn main() {
    let cli = Cli::from_env();
    let engine = cli.engine();
    let scale = cli.scale;
    cpu_model_ablation(&engine, scale);
    threshold_ablation(&engine, scale);
    mat_ablation(&engine, scale);
    marker_elimination_ablation(scale);
    pass_ablation(&engine, scale);
}

/// A `(Base, version)` job pair for one grid cell; run the collected pairs
/// through [`improvements`] to fold them back into one number per cell.
fn pair(
    bm: Benchmark,
    scale: Scale,
    machine: &MachineConfig,
    assist: AssistKind,
    version: Version,
    opt: Option<OptConfig>,
) -> [SimJob; 2] {
    let job = |v| {
        let j = SimJob::new(bm, scale, machine.clone(), assist, v);
        match opt {
            Some(o) => j.with_opt(o),
            None => j,
        }
    };
    [job(Version::Base), job(version)]
}

/// Runs the pairs as one job set and returns each cell's improvement.
fn improvements(engine: &JobEngine, pairs: Vec<[SimJob; 2]>) -> Vec<f64> {
    let jobs: Vec<SimJob> = pairs.into_iter().flatten().collect();
    let results = engine.run(&jobs);
    results.chunks_exact(2).map(|c| c[1].improvement_over(&c[0])).collect()
}

/// Ablation 1 (DESIGN.md): the OOO core's latency hiding. An in-order core
/// exposes more memory latency, so every improvement grows.
fn cpu_model_ablation(engine: &JobEngine, scale: Scale) {
    println!("== Ablation: CPU timing model (selective improvement, bypass assist) ==");
    println!("{:<12} {:>14} {:>14}", "Benchmark", "OutOfOrder", "InOrder");
    let benchmarks = [Benchmark::Vpenta, Benchmark::Perl, Benchmark::TpcDQ3];
    let mut pairs = Vec::new();
    for bm in benchmarks {
        for model in [CpuModel::OutOfOrder, CpuModel::InOrder] {
            let mut machine = MachineConfig::base();
            machine.cpu.model = model;
            pairs.push(pair(bm, scale, &machine, AssistKind::Bypass, Version::Selective, None));
        }
    }
    let cells = improvements(engine, pairs);
    for (bm, row) in benchmarks.iter().zip(cells.chunks_exact(2)) {
        println!("{:<12} {:>13.2}% {:>13.2}%", bm.name(), row[0], row[1]);
    }
    println!();
}

/// Ablation 3 (DESIGN.md): the 0.5 region threshold. The paper reports it
/// is not critical because regions are 90–100 % pure.
fn threshold_ablation(engine: &JobEngine, scale: Scale) {
    println!("== Ablation: region-detection threshold (selective improvement) ==");
    print!("{:<12}", "Benchmark");
    let thresholds = [0.1, 0.3, 0.5, 0.7, 0.9];
    for t in thresholds {
        print!(" {t:>8.1}");
    }
    println!();
    let benchmarks = [Benchmark::Chaos, Benchmark::TpcDQ1, Benchmark::Li];
    let machine = MachineConfig::base();
    let mut pairs = Vec::new();
    for bm in benchmarks {
        for t in thresholds {
            let opt = OptConfig { threshold: t, ..OptConfig::default() };
            pairs.push(pair(
                bm,
                scale,
                &machine,
                AssistKind::Bypass,
                Version::Selective,
                Some(opt),
            ));
        }
    }
    // The five thresholds share each benchmark's Base run (raw code has no
    // threshold); the engine executes it once per benchmark.
    let cells = improvements(engine, pairs);
    for (bm, row) in benchmarks.iter().zip(cells.chunks_exact(thresholds.len())) {
        print!("{:<12}", bm.name());
        for v in row {
            print!(" {v:>7.2}%");
        }
        println!();
    }
    println!();
}

/// Ablation 2 (DESIGN.md): MAT macro-block size (1 KiB in the paper).
fn mat_ablation(engine: &JobEngine, scale: Scale) {
    println!("== Ablation: MAT macro-block size (pure-hardware improvement) ==");
    print!("{:<12}", "Benchmark");
    let sizes = [256u64, 1024, 4096];
    for s in sizes {
        print!(" {:>8}", format!("{}B", s));
    }
    println!();
    let benchmarks = [Benchmark::Perl, Benchmark::Li, Benchmark::Compress];
    let mut pairs = Vec::new();
    for bm in benchmarks {
        for s in sizes {
            let mut machine = MachineConfig::base();
            machine.mem.bypass.mat.macro_block = s;
            machine.mem.bypass.sldt.macro_block = s;
            pairs.push(pair(bm, scale, &machine, AssistKind::Bypass, Version::PureHardware, None));
        }
    }
    let cells = improvements(engine, pairs);
    for (bm, row) in benchmarks.iter().zip(cells.chunks_exact(sizes.len())) {
        print!("{:<12}", bm.name());
        for v in row {
            print!(" {v:>7.2}%");
        }
        println!();
    }
    println!();
}

/// Ablation 4 (DESIGN.md): payoff of redundant ON/OFF elimination, measured
/// as executed toggle instructions.
fn marker_elimination_ablation(scale: Scale) {
    println!("== Ablation: redundant ON/OFF elimination (executed toggles) ==");
    println!("{:<12} {:>10} {:>10}", "Benchmark", "naive", "eliminated");
    let opt = OptConfig::default();
    for bm in [Benchmark::Chaos, Benchmark::TpcC, Benchmark::TpcDQ1] {
        let p = optimize(&bm.build(scale), &opt);
        let naive = detect_and_mark(&p, opt.threshold, AssistPolicy::IrregularRegions);
        let eliminated = eliminate_redundant_markers(&naive);
        let toggles = |p: &selcache_ir::Program| {
            Interp::new(p)
                .filter(|o| matches!(o.kind, OpKind::AssistOn | OpKind::AssistOff))
                .count()
        };
        println!("{:<12} {:>10} {:>10}", bm.name(), toggles(&naive), toggles(&eliminated));
    }
    println!();
}

/// Per-pass contribution to the software improvement on Vpenta.
fn pass_ablation(engine: &JobEngine, scale: Scale) {
    println!("== Ablation: compiler pass contributions (Vpenta, pure software) ==");
    let machine = MachineConfig::base();
    let variants: [(&str, OptConfig); 5] = [
        (
            "none",
            OptConfig {
                pad: false,
                interchange: false,
                layout: false,
                tile: false,
                scalar_replacement: false,
                ..OptConfig::default()
            },
        ),
        (
            "+padding",
            OptConfig {
                interchange: false,
                layout: false,
                tile: false,
                scalar_replacement: false,
                ..OptConfig::default()
            },
        ),
        (
            "+interchange",
            OptConfig {
                layout: false,
                tile: false,
                scalar_replacement: false,
                ..OptConfig::default()
            },
        ),
        ("+layout", OptConfig { tile: false, scalar_replacement: false, ..OptConfig::default() }),
        ("all passes", OptConfig::default()),
    ];
    let mut jobs = vec![SimJob::new(
        Benchmark::Vpenta,
        scale,
        machine.clone(),
        AssistKind::None,
        Version::Base,
    )];
    for (_, cfg) in &variants {
        jobs.push(
            SimJob::new(
                Benchmark::Vpenta,
                scale,
                machine.clone(),
                AssistKind::None,
                Version::PureSoftware,
            )
            .with_opt(*cfg),
        );
    }
    let results = engine.run(&jobs);
    let base: &SimResult = &results[0];
    for ((name, _), r) in variants.iter().zip(&results[1..]) {
        println!(
            "{name:<14} improvement={:.2}%  l1 miss={:.1}%",
            r.improvement_over(base),
            r.l1_miss_pct()
        );
    }
    println!();
}
