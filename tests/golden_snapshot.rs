//! Golden snapshot of simulation results, guarding the hot-path
//! optimizations: every observable counter of `Experiment::run` must stay
//! bit-identical across performance work on the interpreter, the cache
//! model, and the pipeline.
//!
//! The snapshot covers all 13 benchmarks at `Scale::Tiny` under `Base` and
//! `Selective` (bypass assist) and records cycles, committed instructions,
//! L1/L2 hits and misses, the three-C classification, assist toggles, and
//! the pipeline's issue-stall and fetch-stall cycles and mispredictions.
//!
//! Regenerate with `GOLDEN_REGEN=1 cargo test --test golden_snapshot` —
//! only when a *semantic* change is intended, never for a perf change.

use selcache::core::{AssistKind, Experiment, MachineConfig, SimResult, Version};
use selcache::workloads::{Benchmark, Scale};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN_PATH: &str = "tests/golden/tiny_snapshot.txt";

fn snapshot_line(bm: Benchmark, version: Version, r: &SimResult) -> String {
    format!(
        "{} {} cycles={} committed={} \
         l1d_hits={} l1d_misses={} l1d_comp={} l1d_cap={} l1d_conf={} \
         l2_hits={} l2_misses={} l2_comp={} l2_cap={} l2_conf={} \
         toggles={} issue_stall={} fetch_stall={} mispredicts={}",
        bm.name(),
        version.to_string().replace(' ', ""),
        r.cycles,
        r.instructions,
        r.mem.l1d.hits,
        r.mem.l1d.misses,
        r.mem.l1d.compulsory,
        r.mem.l1d.capacity,
        r.mem.l1d.conflict,
        r.mem.l2.hits,
        r.mem.l2.misses,
        r.mem.l2.compulsory,
        r.mem.l2.capacity,
        r.mem.l2.conflict,
        r.cpu.assist_toggles,
        r.cpu.issue_stall_cycles,
        r.cpu.fetch_stall_cycles,
        r.cpu.mispredicts,
    )
}

fn compute_snapshot() -> String {
    let exp = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
    let mut out = String::new();
    for bm in Benchmark::ALL {
        for version in [Version::Base, Version::Selective] {
            let r = exp.run(bm, Scale::Tiny, version);
            let _ = writeln!(out, "{}", snapshot_line(bm, version, &r));
        }
    }
    out
}

#[test]
fn results_match_golden_snapshot() {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let path = Path::new(manifest).join(GOLDEN_PATH);
    let actual = compute_snapshot();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    for (k, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "snapshot line {} diverged", k + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "snapshot row count changed; regenerate deliberately with GOLDEN_REGEN=1"
    );
}
