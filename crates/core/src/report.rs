//! Suite execution and paper-style report formatting (Table 2, Table 3,
//! Figures 4–9).
//!
//! The run functions here are thin declarative layers: each one names its
//! job set ([`SuiteResult::jobs`] and friends), hands it to a
//! [`JobEngine`], and folds the results back into rows. Batched entry
//! points ([`table3_rows`]) submit every constituent suite as one job set
//! so shared runs (Base, PureSoftware) are simulated once.

use crate::config::MachineConfig;
use crate::engine::{EngineStats, JobEngine, SimJob};
use crate::runner::{SimResult, Version};
use crate::sampled::SimMode;
use selcache_mem::AssistKind;
use selcache_workloads::{Benchmark, Category, Scale};
use std::fmt::Write as _;

/// Results for one benchmark: the base run and the percent improvement of
/// each reported version.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Base-version result (the 100% reference).
    pub base: SimResult,
    /// Percent improvements, indexed like [`Version::REPORTED`]:
    /// `[PureHardware, PureSoftware, Combined, Selective]`.
    pub improvements: [f64; 4],
}

impl BenchmarkRow {
    /// Improvement of one reported version.
    pub fn improvement(&self, version: Version) -> f64 {
        let idx = Version::REPORTED.iter().position(|&v| v == version).expect("reported version");
        self.improvements[idx]
    }
}

/// Jobs per benchmark in a suite job set: the base run plus the four
/// reported versions.
const JOBS_PER_BENCHMARK: usize = 1 + Version::REPORTED.len();

/// A full suite sweep under one machine configuration and assist.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Machine name (Table 3 row label).
    pub machine_name: &'static str,
    /// Assist under study.
    pub assist: AssistKind,
    /// One row per benchmark.
    pub rows: Vec<BenchmarkRow>,
}

impl SuiteResult {
    /// The suite's job set: for each benchmark, the base run followed by
    /// the four reported versions (`JOBS_PER_BENCHMARK` jobs each).
    /// Feed the engine's results back through [`SuiteResult::from_results`].
    pub fn jobs(
        machine: &MachineConfig,
        assist: AssistKind,
        scale: Scale,
        benchmarks: &[Benchmark],
    ) -> Vec<SimJob> {
        Self::jobs_in_mode(machine, assist, scale, benchmarks, SimMode::Exact)
    }

    /// [`SuiteResult::jobs`] with an explicit simulation mode: every job in
    /// the set (base and reported versions alike) runs exact or sampled, so
    /// improvements compare like against like.
    pub fn jobs_in_mode(
        machine: &MachineConfig,
        assist: AssistKind,
        scale: Scale,
        benchmarks: &[Benchmark],
        mode: SimMode,
    ) -> Vec<SimJob> {
        let mut jobs = Vec::with_capacity(benchmarks.len() * JOBS_PER_BENCHMARK);
        for &bm in benchmarks {
            jobs.push(
                SimJob::new(bm, scale, machine.clone(), assist, Version::Base).with_mode(mode),
            );
            for &v in &Version::REPORTED {
                jobs.push(SimJob::new(bm, scale, machine.clone(), assist, v).with_mode(mode));
            }
        }
        jobs
    }

    /// Folds engine results (ordered as [`SuiteResult::jobs`] produced
    /// them) into suite rows.
    ///
    /// # Panics
    ///
    /// If `results` is not exactly `JOBS_PER_BENCHMARK` entries per
    /// benchmark.
    pub fn from_results(
        machine_name: &'static str,
        assist: AssistKind,
        benchmarks: &[Benchmark],
        results: &[SimResult],
    ) -> SuiteResult {
        assert_eq!(
            results.len(),
            benchmarks.len() * JOBS_PER_BENCHMARK,
            "one base + four reported results per benchmark"
        );
        let rows = benchmarks
            .iter()
            .zip(results.chunks_exact(JOBS_PER_BENCHMARK))
            .map(|(&benchmark, chunk)| {
                let base = chunk[0].clone();
                let mut improvements = [0.0; 4];
                for (imp, r) in improvements.iter_mut().zip(&chunk[1..]) {
                    *imp = r.improvement_over(&base);
                }
                BenchmarkRow { benchmark, base, improvements }
            })
            .collect();
        SuiteResult { machine_name, assist, rows }
    }

    /// Runs a suite on `engine`, every job in simulation mode `mode`.
    pub fn run(
        engine: &JobEngine,
        machine: MachineConfig,
        assist: AssistKind,
        scale: Scale,
        benchmarks: &[Benchmark],
        mode: SimMode,
    ) -> SuiteResult {
        let name = machine.name;
        let jobs = Self::jobs_in_mode(&machine, assist, scale, benchmarks, mode);
        let results = engine.run(&jobs);
        Self::from_results(name, assist, benchmarks, &results)
    }

    /// Suite-wide average improvement of a version.
    pub fn average(&self, version: Version) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.improvement(version)).sum::<f64>() / self.rows.len() as f64
    }

    /// Average improvement over one access-pattern category.
    pub fn average_by_category(&self, cat: Category, version: Version) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.benchmark.category() == cat)
            .map(|r| r.improvement(version))
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Formats the suite as one of the paper's figures: percent improvement
    /// in execution cycles per benchmark for the four versions.
    pub fn format_figure(&self, figure_no: u32) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure {figure_no}. {} ({} assist). % improvement in execution cycles vs. base.",
            self.machine_name,
            assist_name(self.assist)
        );
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>9} {:>9}",
            "Benchmark", "PureHW", "PureSW", "Combined", "Selective"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<10} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
                r.benchmark.name(),
                r.improvements[0],
                r.improvements[1],
                r.improvements[2],
                r.improvements[3]
            );
        }
        let _ = writeln!(
            out,
            "{:<10} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            "AVERAGE",
            self.average(Version::PureHardware),
            self.average(Version::PureSoftware),
            self.average(Version::Combined),
            self.average(Version::Selective)
        );
        for cat in [Category::Regular, Category::Irregular, Category::Mixed] {
            let _ = writeln!(
                out,
                "{:<10} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
                format!("avg:{cat}"),
                self.average_by_category(cat, Version::PureHardware),
                self.average_by_category(cat, Version::PureSoftware),
                self.average_by_category(cat, Version::Combined),
                self.average_by_category(cat, Version::Selective)
            );
        }
        out
    }

    /// Renders the suite as CSV (benchmark, category, base cycles, and the
    /// four improvements) for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("benchmark,category,base_cycles,pure_hw,pure_sw,combined,selective\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{:.4},{:.4},{:.4},{:.4}",
                r.benchmark.name(),
                r.benchmark.category(),
                r.base.cycles,
                r.improvements[0],
                r.improvements[1],
                r.improvements[2],
                r.improvements[3]
            );
        }
        out
    }
}

fn assist_name(a: AssistKind) -> &'static str {
    match a {
        AssistKind::None => "no",
        AssistKind::Bypass => "cache bypassing",
        AssistKind::Victim => "victim cache",
        AssistKind::Stream => "stream buffer",
    }
}

/// Table 2: benchmark characteristics under the base configuration.
pub fn table2(engine: &JobEngine, scale: Scale) -> String {
    let machine = MachineConfig::base();
    let jobs: Vec<SimJob> = Benchmark::ALL
        .iter()
        .map(|&bm| SimJob::new(bm, scale, machine.clone(), AssistKind::None, Version::Base))
        .collect();
    let results = engine.run(&jobs);

    let mut out = String::new();
    let _ = writeln!(out, "Table 2. Benchmark characteristics (scale: {scale}).");
    let _ = writeln!(
        out,
        "{:<10} {:<26} {:>14} {:>9} {:>9}",
        "Benchmark", "Input", "Instructions", "L1 Miss%", "L2 Miss%"
    );
    for (bm, r) in Benchmark::ALL.iter().zip(&results) {
        let _ = writeln!(
            out,
            "{:<10} {:<26} {:>14} {:>8.2} {:>8.2}",
            bm.name(),
            bm.input(),
            format_count(r.instructions),
            r.l1_miss_pct(),
            r.l2_miss_pct()
        );
    }
    out
}

fn format_count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// One row of Table 3: average improvements under one machine variant.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Variant name.
    pub machine_name: &'static str,
    /// Pure software average.
    pub pure_software: f64,
    /// Cache-bypassing (pure hardware) average.
    pub cache_bypass: f64,
    /// Combined (bypass + software) average.
    pub combined_bypass: f64,
    /// Selective (bypass + software) average.
    pub selective_bypass: f64,
    /// Victim-cache (pure hardware) average.
    pub victim: f64,
    /// Combined (victim + software) average.
    pub combined_victim: f64,
    /// Selective (victim + software) average.
    pub selective_victim: f64,
}

impl Table3Row {
    fn from_suites(bypass: &SuiteResult, victim: &SuiteResult) -> Table3Row {
        Table3Row {
            machine_name: bypass.machine_name,
            pure_software: bypass.average(Version::PureSoftware),
            cache_bypass: bypass.average(Version::PureHardware),
            combined_bypass: bypass.average(Version::Combined),
            selective_bypass: bypass.average(Version::Selective),
            victim: victim.average(Version::PureHardware),
            combined_victim: victim.average(Version::Combined),
            selective_victim: victim.average(Version::Selective),
        }
    }
}

/// Computes every Table 3 row as one batched job set: all machines, both
/// assist sweeps, every job in simulation mode `mode` so each machine's
/// averages compare like against like. The engine deduplicates the runs
/// the sweeps share — each machine's Base and PureSoftware simulations
/// serve both its bypass and victim suites. Also returns the engine
/// counters for the batch: dedup and (for store-backed engines) store
/// hit/miss accounting.
pub fn table3_rows(
    engine: &JobEngine,
    machines: &[MachineConfig],
    scale: Scale,
    benchmarks: &[Benchmark],
    mode: SimMode,
) -> (Vec<Table3Row>, EngineStats) {
    let mut jobs = Vec::new();
    for machine in machines {
        jobs.extend(SuiteResult::jobs_in_mode(
            machine,
            AssistKind::Bypass,
            scale,
            benchmarks,
            mode,
        ));
        jobs.extend(SuiteResult::jobs_in_mode(
            machine,
            AssistKind::Victim,
            scale,
            benchmarks,
            mode,
        ));
    }
    let (results, stats) = engine.run_with_stats(&jobs);

    let per_suite = benchmarks.len() * JOBS_PER_BENCHMARK;
    let rows = machines
        .iter()
        .zip(results.chunks_exact(2 * per_suite))
        .map(|(machine, chunk)| {
            let bypass = SuiteResult::from_results(
                machine.name,
                AssistKind::Bypass,
                benchmarks,
                &chunk[..per_suite],
            );
            let victim = SuiteResult::from_results(
                machine.name,
                AssistKind::Victim,
                benchmarks,
                &chunk[per_suite..],
            );
            Table3Row::from_suites(&bypass, &victim)
        })
        .collect();
    (rows, stats)
}

/// Formats a profiled run as a per-region report: one line per uniform
/// region (cycles, instructions, cache traffic, assist coverage) plus the
/// *(outside)* bucket and a TOTAL row that equals the aggregate counters.
///
/// Returns a one-line note instead when the result carries no profile
/// (i.e. it came from an unprofiled run).
pub fn format_region_report(title: &str, result: &SimResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Per-region profile: {title}");
    match &result.regions {
        Some(profile) => out.push_str(&profile.format_table()),
        None => out.push_str("(run was not profiled — use run_profiled)\n"),
    }
    out
}

/// Formats Table 3 from precomputed rows.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3. Average improvements (%).");
    let _ = writeln!(
        out,
        "{:<17} {:>8} {:>8} {:>9} {:>10} {:>8} {:>9} {:>10}",
        "Experiment",
        "PureSW",
        "Bypass",
        "Comb(byp)",
        "Sel(byp)",
        "Victim",
        "Comb(vic)",
        "Sel(vic)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<17} {:>8.2} {:>8.2} {:>9.2} {:>10.2} {:>8.2} {:>9.2} {:>10.2}",
            r.machine_name,
            r.pure_software,
            r.cache_bypass,
            r.combined_bypass,
            r.selective_bypass,
            r.victim,
            r.combined_victim,
            r.selective_victim
        );
    }
    out
}

/// Renders Table 3 rows as CSV (machine name plus the seven improvement
/// averages) for external plotting, matching [`SuiteResult::to_csv`]'s
/// style.
pub fn table3_csv(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "machine,pure_sw,cache_bypass,combined_bypass,selective_bypass,\
         victim,combined_victim,selective_victim\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            r.machine_name,
            r.pure_software,
            r.cache_bypass,
            r.combined_bypass,
            r.selective_bypass,
            r.victim,
            r.combined_victim,
            r.selective_victim
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An exact victim-cache suite on the base machine at tiny scale.
    fn suite(benchmarks: &[Benchmark]) -> SuiteResult {
        SuiteResult::run(
            &JobEngine::default(),
            MachineConfig::base(),
            AssistKind::Victim,
            Scale::Tiny,
            benchmarks,
            SimMode::Exact,
        )
    }

    #[test]
    fn subset_suite_runs_and_formats() {
        let s = suite(&[Benchmark::Adi, Benchmark::Li]);
        assert_eq!(s.rows.len(), 2);
        let text = s.format_figure(4);
        assert!(text.contains("Adi"));
        assert!(text.contains("Li"));
        assert!(text.contains("AVERAGE"));
        assert!(text.contains("avg:regular"));
    }

    #[test]
    fn averages_are_consistent() {
        let s = suite(&[Benchmark::Adi]);
        assert!(
            (s.average(Version::Selective)
                - s.average_by_category(Category::Regular, Version::Selective))
            .abs()
                < 1e-9
        );
        assert_eq!(s.average_by_category(Category::Irregular, Version::Selective), 0.0);
    }

    #[test]
    fn csv_roundtrips_fields() {
        let s = suite(&[Benchmark::TpcDQ6]);
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "benchmark,category,base_cycles,pure_hw,pure_sw,combined,selective"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("TPC-D,Q6,mixed,"), "row: {row}");
        assert_eq!(row.split(',').count(), 8); // benchmark name contains one comma
    }

    #[test]
    fn format_count_units() {
        assert_eq!(format_count(999), "999");
        assert_eq!(format_count(58_200), "58.2K");
        assert_eq!(format_count(11_200_000), "11.2M");
    }

    #[test]
    fn region_report_formats_profile() {
        use crate::runner::Experiment;
        let e = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
        let r = e.run_profiled(Benchmark::Adi, Scale::Tiny, Version::Selective);
        let text = format_region_report("adi/selective", &r);
        assert!(text.contains("TOTAL"), "report: {text}");
        assert!(text.contains("(outside)"));
        let plain = e.run(Benchmark::Adi, Scale::Tiny, Version::Base);
        assert!(format_region_report("adi/base", &plain).contains("not profiled"));
    }

    /// The Table 3 row of one machine, from a batch of its own.
    fn table3_row(machine: MachineConfig, benchmarks: &[Benchmark]) -> Table3Row {
        let engine = JobEngine::default();
        let (mut rows, _) =
            table3_rows(&engine, &[machine], Scale::Tiny, benchmarks, SimMode::Exact);
        rows.pop().expect("one machine in, one row out")
    }

    #[test]
    fn table3_row_has_all_columns() {
        let r = table3_row(MachineConfig::base(), &[Benchmark::Adi, Benchmark::Perl]);
        let text = format_table3(&[r]);
        assert!(text.contains("Base Confg."));
        assert!(text.contains("Sel(vic)"));
    }

    #[test]
    fn batched_table3_matches_per_row_runs() {
        let benchmarks = [Benchmark::Adi, Benchmark::Li];
        let machines = [MachineConfig::base(), MachineConfig::higher_mem_latency()];
        let engine = JobEngine::serial();
        let (batched, _) =
            table3_rows(&engine, &machines, Scale::Tiny, &benchmarks, SimMode::Exact);
        assert_eq!(batched.len(), 2);
        for (machine, row) in machines.iter().zip(&batched) {
            let single = table3_row(machine.clone(), &benchmarks);
            assert_eq!(row.machine_name, single.machine_name);
            assert_eq!(row.selective_bypass, single.selective_bypass);
            assert_eq!(row.selective_victim, single.selective_victim);
            assert_eq!(row.pure_software, single.pure_software);
        }
    }
}
