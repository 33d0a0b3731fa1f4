//! Sampled-mode cross-check: interval selection and weighted reconstruction
//! against an exact run of the same jobs.
//!
//! ```text
//! cargo run --release --example sampled_run [-- <benchmark> [<scale>] [<max-cpi-err-pct>]
//!                                              [--threads N] [--json PATH] [--skip-exact]]
//! ```
//!
//! Runs the Base and Selective versions of one benchmark twice — exact and
//! with `SimMode::sampled()` — prints the interval-selection coverage and the
//! per-metric comparison, and exits 1 when the worst CPI error exceeds the
//! bound (default 3%, the accuracy bound DESIGN.md §12 documents). CI's
//! `sampled-accuracy` step runs this on two benchmarks.
//!
//! `--threads N` sets the thread budget for the intra-job representative
//! fan-out (0 = all cores, the default). `--json PATH` writes the sampled
//! results — deterministic counters only, no wall times — so runs at
//! different thread counts can be diffed byte for byte; CI's
//! `parallel-sampled` step does exactly that at `--threads 1` vs
//! `--threads 4`. `--skip-exact` skips the exact reference runs (and the
//! accuracy gate), leaving just the sampled runs — the cheap mode for the
//! thread-invariance diff.
//!
//! Every sampled job runs twice, the second time from the warm selection
//! cache, and the example panics unless both results are identical.

use selcache::core::json::Json;
use selcache::core::{AssistKind, ExperimentBuilder, MachineConfig, SimMode, SimResult, Version};
use selcache::workloads::{Benchmark, Scale};
use std::time::Instant;

fn cpi(r: &SimResult) -> f64 {
    r.cycles as f64 / r.instructions.max(1) as f64
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut threads = 0usize;
    let mut json_out: Option<std::path::PathBuf> = None;
    let mut skip_exact = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                let v = args.next().unwrap_or_default();
                threads = v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid --threads {v:?}");
                    std::process::exit(2);
                });
            }
            "--json" => match args.next() {
                Some(p) => json_out = Some(p.into()),
                None => {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }
            },
            "--skip-exact" => skip_exact = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}");
                std::process::exit(2);
            }
            _ => positional.push(a),
        }
    }
    let mut positional = positional.into_iter();
    let name = positional.next().unwrap_or_else(|| "Vpenta".to_string());
    let benchmark = Benchmark::parse(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name:?}; available:");
        for b in Benchmark::ALL {
            eprintln!("  {b}");
        }
        std::process::exit(2);
    });
    let scale = match positional.next() {
        Some(s) => Scale::parse(&s).unwrap_or_else(|| {
            eprintln!("unknown scale {s:?}; use tiny|small|medium|large");
            std::process::exit(2);
        }),
        None => Scale::Large,
    };
    let bound_pct: f64 = match positional.next() {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("invalid error bound {s:?}; use a percentage like 3.0");
            std::process::exit(2);
        }),
        None => 3.0,
    };

    let machine = MachineConfig::base();
    let exact_exp =
        ExperimentBuilder::new().machine(machine.clone()).assist(AssistKind::Bypass).build();
    let sampled_exp = ExperimentBuilder::new()
        .machine(machine)
        .assist(AssistKind::Bypass)
        .mode(SimMode::sampled())
        .threads(threads)
        .build();

    if skip_exact {
        println!("sampled run: {benchmark} at scale {scale}, {threads} threads (no exact check)");
    } else {
        println!("sampled cross-check: {benchmark} at scale {scale} (bound {bound_pct}% CPI)");
    }
    let mut max_cpi_err_pct: f64 = 0.0;
    let mut max_l1_err_pts: f64 = 0.0;
    let mut json_rows: Vec<Json> = Vec::new();
    for version in [Version::Base, Version::Selective] {
        let exact = if skip_exact {
            None
        } else {
            let t0 = Instant::now();
            let r = exact_exp.run(benchmark, scale, version);
            Some((r, t0.elapsed().as_secs_f64()))
        };
        let t0 = Instant::now();
        let sampled = sampled_exp.run(benchmark, scale, version);
        let sampled_secs = t0.elapsed().as_secs_f64();
        let info = sampled.sampled.expect("sampled runs report coverage");
        // A rerun takes its interval selection from the warm selection
        // cache and must reconstruct the identical result.
        assert_eq!(
            sampled_exp.run(benchmark, scale, version),
            sampled,
            "a rerun from the warm selection cache must be bit-identical"
        );

        // Interval selection: how much of the trace the detailed pipeline
        // actually saw, and from how many representative intervals the
        // whole-trace counters were reconstructed.
        println!("\n{version:?}:");
        println!(
            "  selection      {} intervals -> {} representatives \
             ({} of {} ops detailed, {:.2}% coverage, {} warmup ops)",
            info.intervals,
            info.representatives,
            info.detailed_ops,
            info.total_ops,
            info.coverage() * 100.0,
            info.warmup_ops,
        );

        if let Some((exact, exact_secs)) = &exact {
            assert_eq!(sampled.instructions, exact.instructions, "op counts are exact");

            // Weighted reconstruction vs the exact run.
            let cpi_err_pct = (cpi(&sampled) - cpi(exact)).abs() / cpi(exact) * 100.0;
            let l1_err_pts = (sampled.l1_miss_pct() - exact.l1_miss_pct()).abs();
            println!(
                "  cycles         exact {:>12}  sampled {:>12}  (CPI {:.4} vs {:.4}, err {:.2}%)",
                exact.cycles,
                sampled.cycles,
                cpi(exact),
                cpi(&sampled),
                cpi_err_pct,
            );
            println!(
                "  L1 miss rate   exact {:>11.2}%  sampled {:>11.2}%  (err {:.2} pts)",
                exact.l1_miss_pct(),
                sampled.l1_miss_pct(),
                l1_err_pts,
            );
            println!(
                "  wall clock     exact {:>10.0} ms  sampled {:>10.0} ms  ({:.1}x)",
                exact_secs * 1e3,
                sampled_secs * 1e3,
                if sampled_secs > 0.0 { exact_secs / sampled_secs } else { 0.0 },
            );
            max_cpi_err_pct = max_cpi_err_pct.max(cpi_err_pct);
            max_l1_err_pts = max_l1_err_pts.max(l1_err_pts);
        } else {
            println!(
                "  cycles         {:>12}  (CPI {:.4}, L1 miss {:.2}%, {:.0} ms wall)",
                sampled.cycles,
                cpi(&sampled),
                sampled.l1_miss_pct(),
                sampled_secs * 1e3,
            );
        }

        // Deterministic counters only — byte-identical across thread
        // counts, which is exactly what the CI diff pins.
        json_rows.push(Json::obj([
            ("version", Json::str(format!("{version:?}"))),
            ("cycles", Json::UInt(sampled.cycles)),
            ("instructions", Json::UInt(sampled.instructions)),
            ("l1d_miss_pct", Json::Num(sampled.l1_miss_pct())),
            ("l2_miss_pct", Json::Num(sampled.l2_miss_pct())),
            ("total_ops", Json::UInt(info.total_ops)),
            ("intervals", Json::UInt(info.intervals as u64)),
            ("representatives", Json::UInt(info.representatives as u64)),
            ("detailed_ops", Json::UInt(info.detailed_ops)),
            ("warmup_ops", Json::UInt(info.warmup_ops)),
        ]));
    }

    if let Some(path) = &json_out {
        let doc = Json::obj([
            ("schema", Json::str("selcache-sampled-run/1")),
            ("benchmark", Json::str(benchmark.name())),
            ("scale", Json::str(scale.to_string())),
            ("mode", Json::str("sampled")),
            ("versions", Json::Arr(json_rows)),
        ]);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\nwrote {}", path.display());
    }

    if skip_exact {
        println!("\nOK (exact cross-check skipped)");
        return;
    }
    println!(
        "\nworst case: CPI err {max_cpi_err_pct:.2}% (bound {bound_pct}%), \
         L1 miss err {max_l1_err_pts:.2} pts"
    );
    if max_cpi_err_pct > bound_pct {
        eprintln!("FAIL: CPI error exceeds the {bound_pct}% bound");
        std::process::exit(1);
    }
    println!("OK");
}
