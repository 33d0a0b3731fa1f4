//! The dynamic-vs-static ablation behind the `adapt` binary.
//!
//! For each benchmark three exact runs are submitted as one deduplicated
//! job set:
//!
//! - **Base** — unmodified code, no assist (the 100% reference),
//! - **Static** — the paper's selective scheme: compiler-optimized code
//!   with the chosen assist toggled by the compiler's per-region ON/OFF
//!   decision,
//! - **Dynamic** — the same code with every region marked ON and the
//!   `selcache-adapt` controller picking {off, bypass, victim} per region
//!   at run time.
//!
//! Improvements are reported against the shared base run; *dynamic wins*
//! when its improvement is within [`TOLERANCE_PTS`] of (or better than)
//! the static scheme's. Everything is deterministic — output is
//! byte-identical for every thread count and any store state.

use selcache_core::json::Json;
use selcache_core::{
    AssistKind, Benchmark, ControllerConfig, EngineStats, JobEngine, MachineConfig, Scale, SimJob,
    Version,
};
use std::fmt::Write as _;

/// Slack (in percentage points of improvement) the dynamic scheme is
/// allowed below the static one while still counting as a win: the
/// controller pays real exploration misses that a static oracle does not.
pub const TOLERANCE_PTS: f64 = 0.5;

/// One benchmark's ablation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Cycles of the shared base run.
    pub base_cycles: u64,
    /// Cycles under the static selective scheme.
    pub static_cycles: u64,
    /// Cycles under the dynamic controller.
    pub dynamic_cycles: u64,
    /// Static improvement over base, percent.
    pub static_improvement_pct: f64,
    /// Dynamic improvement over base, percent.
    pub dynamic_improvement_pct: f64,
    /// Policy switches the controller applied during the dynamic run.
    pub policy_switches: u64,
}

impl AblationRow {
    /// Whether the dynamic scheme matched or beat the static one (within
    /// [`TOLERANCE_PTS`]).
    pub fn dynamic_wins(&self) -> bool {
        self.dynamic_improvement_pct >= self.static_improvement_pct - TOLERANCE_PTS
    }
}

/// The full ablation: per-benchmark rows plus the engine counters of the
/// one job set that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// One row per benchmark, in submission order.
    pub rows: Vec<AblationRow>,
    /// Dedup/store accounting for the job set.
    pub stats: EngineStats,
}

impl Ablation {
    /// Runs the ablation over `benchmarks` on `machine`. `assist` is the
    /// static scheme's hardware assist; the dynamic runs always carry the
    /// controller's own bypass + victim structures and no static assist.
    pub fn run(
        engine: &JobEngine,
        machine: &MachineConfig,
        assist: AssistKind,
        ctl: ControllerConfig,
        scale: Scale,
        benchmarks: &[Benchmark],
    ) -> Ablation {
        let mut jobs = Vec::with_capacity(benchmarks.len() * 3);
        for &bm in benchmarks {
            jobs.push(SimJob::new(bm, scale, machine.clone(), AssistKind::None, Version::Base));
            jobs.push(SimJob::new(bm, scale, machine.clone(), assist, Version::Selective));
            jobs.push(
                SimJob::new(bm, scale, machine.clone(), AssistKind::None, Version::Selective)
                    .with_controller(ctl),
            );
        }
        let (results, stats) = engine.run_with_stats(&jobs);
        let rows = benchmarks
            .iter()
            .enumerate()
            .map(|(i, &benchmark)| {
                let (base, st, dy) = (&results[3 * i], &results[3 * i + 1], &results[3 * i + 2]);
                AblationRow {
                    benchmark,
                    base_cycles: base.cycles,
                    static_cycles: st.cycles,
                    dynamic_cycles: dy.cycles,
                    static_improvement_pct: st.improvement_over(base),
                    dynamic_improvement_pct: dy.improvement_over(base),
                    policy_switches: dy.mem.assist.adapt_switches,
                }
            })
            .collect();
        Ablation { rows, stats }
    }

    /// How many benchmarks the dynamic scheme matched or beat the static
    /// one on.
    pub fn dynamic_wins(&self) -> usize {
        self.rows.iter().filter(|r| r.dynamic_wins()).count()
    }

    /// Renders the ablation as an aligned text table with a summary line.
    pub fn format_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>12} {:>10} {:>10} {:>9} {:>5}",
            "Benchmark", "Category", "Base cyc", "Static%", "Dynamic%", "Switches", "Win"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<10} {:<10} {:>12} {:>9.2}% {:>9.2}% {:>9} {:>5}",
                r.benchmark.name(),
                r.benchmark.category().to_string(),
                r.base_cycles,
                r.static_improvement_pct,
                r.dynamic_improvement_pct,
                r.policy_switches,
                if r.dynamic_wins() { "yes" } else { "no" },
            );
        }
        let _ = writeln!(
            out,
            "dynamic matches or beats static (within {TOLERANCE_PTS} pts) on {}/{} benchmarks",
            self.dynamic_wins(),
            self.rows.len()
        );
        out
    }

    /// Renders the ablation as a JSON object.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("benchmark", Json::str(r.benchmark.name())),
                    ("category", Json::str(r.benchmark.category().to_string())),
                    ("base_cycles", Json::UInt(r.base_cycles)),
                    ("static_cycles", Json::UInt(r.static_cycles)),
                    ("dynamic_cycles", Json::UInt(r.dynamic_cycles)),
                    ("static_improvement_pct", Json::Num(r.static_improvement_pct)),
                    ("dynamic_improvement_pct", Json::Num(r.dynamic_improvement_pct)),
                    ("policy_switches", Json::UInt(r.policy_switches)),
                    ("dynamic_wins", Json::Bool(r.dynamic_wins())),
                ])
            })
            .collect();
        Json::obj([
            ("tolerance_pts", Json::Num(TOLERANCE_PTS)),
            ("dynamic_wins", Json::UInt(self.dynamic_wins() as u64)),
            ("benchmarks", Json::UInt(self.rows.len() as u64)),
            ("rows", Json::Arr(rows)),
            ("engine", crate::engine_stats_json(&self.stats)),
        ])
    }

    /// Renders the ablation as CSV, one row per benchmark.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "benchmark,category,base_cycles,static_cycles,dynamic_cycles,\
             static_improvement_pct,dynamic_improvement_pct,policy_switches,dynamic_wins\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.4},{:.4},{},{}",
                r.benchmark.name(),
                r.benchmark.category(),
                r.base_cycles,
                r.static_cycles,
                r.dynamic_cycles,
                r.static_improvement_pct,
                r.dynamic_improvement_pct,
                r.policy_switches,
                r.dynamic_wins(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ablation(threads: usize) -> Ablation {
        Ablation::run(
            &JobEngine::new(threads),
            &MachineConfig::base(),
            AssistKind::Bypass,
            ControllerConfig::default(),
            Scale::Tiny,
            &[Benchmark::Li, Benchmark::Adi],
        )
    }

    #[test]
    fn ablation_output_is_thread_count_invariant() {
        // The satellite determinism guarantee: every rendering is
        // byte-identical across thread counts.
        let serial = tiny_ablation(1);
        let parallel = tiny_ablation(4);
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.format_text(), parallel.format_text());
        assert_eq!(serial.to_csv(), parallel.to_csv());
        // The JSON result payload is byte-identical too; only the engine
        // accounting (which echoes the configured thread count) differs.
        assert_eq!(
            serial.to_json().get("rows").map(ToString::to_string),
            parallel.to_json().get("rows").map(ToString::to_string)
        );
    }

    #[test]
    fn dynamic_matches_static_on_an_irregular_benchmark() {
        let ab = tiny_ablation(0);
        let li = &ab.rows[0];
        assert_eq!(li.benchmark, Benchmark::Li);
        assert!(
            li.dynamic_wins(),
            "dynamic {:.2}% should be within {TOLERANCE_PTS} pts of static {:.2}%",
            li.dynamic_improvement_pct,
            li.static_improvement_pct
        );
        assert!(li.policy_switches > 0, "the controller must actually act on Li");
    }

    #[test]
    fn renderings_carry_every_row_and_the_summary() {
        let ab = tiny_ablation(0);
        let text = ab.format_text();
        assert!(text.contains("Li") && text.contains("Adi"));
        assert!(text.contains("benchmarks"));
        let csv = ab.to_csv();
        assert_eq!(csv.lines().count(), 1 + ab.rows.len());
        let json = ab.to_json().to_string();
        assert!(json.contains("\"dynamic_wins\"") && json.contains("\"engine\""));
    }
}
