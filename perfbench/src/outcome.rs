//! What one workload run reports: operations attempted and failed, the
//! metric values, and the result line the benchmark prints last.

use std::collections::BTreeMap;

/// End-to-end metrics with their units, in `BENCHMARK.json` order. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_mops", "Mops/s"),
    ("points_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics of the traced run, with their units. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("workloads.build_s", "s"),
    ("compiler.prepare_s", "s"),
    ("compiler.programs", "count"),
    ("ir.plan_s", "s"),
    ("ir.trace_s", "s"),
    ("ir.trace_mops", "Mops/s"),
    ("mem.replay_s", "s"),
    ("mem.l1d_accesses", "count"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.assisted_accesses", "count"),
    ("cpu.pipeline_s", "s"),
    ("cpu.self_s", "s"),
    ("cpu.cycles", "count"),
    ("cpu.committed", "count"),
    ("cpu.issue_stall_cycles", "count"),
    ("cpu.fetch_stall_cycles", "count"),
    ("cpu.mispredicts", "count"),
    ("analysis.fingerprint_s", "s"),
    ("analysis.select_s", "s"),
    ("analysis.reuse_s", "s"),
    ("analysis.model_s", "s"),
    ("core.sampled.profile_s", "s"),
    ("core.sampled.reps_s", "s"),
    ("core.sampled.detailed_ops", "count"),
    ("core.sampled.warmup_ops", "count"),
    ("core.executor.cpu_s", "s"),
    ("core.executor.utilization", "ratio"),
    ("core.executor.cpu_overhead_s", "s"),
    ("core.engine.plan_s", "s"),
    ("core.engine.executed", "count"),
    ("core.engine.dedup_hits", "count"),
    ("core.engine.programs_prepared", "count"),
    ("core.engine.store_hits", "count"),
    ("core.engine.store_misses", "count"),
    ("core.engine.bytes_written", "bytes"),
    ("core.store.get_ms", "ms"),
    ("core.store.put_ms", "ms"),
    ("core.store.entry_bytes", "bytes"),
    ("core.json.parse_ms", "ms"),
    ("core.json.encode_ms", "ms"),
    ("core.identity.job_id_us", "us"),
    ("bench.service.overhead_ms", "ms"),
    ("cpi_err_pct", "%"),
    ("miss_err_pts", "pts"),
    ("unexplained_s", "s"),
    ("trace_overhead_s", "s"),
    ("host.calib_s", "s"),
    ("host.steal_s", "s"),
    ("host.threads", "count"),
];

/// Reasons kept for printing; the count covers every failure.
const KEPT_REASONS: usize = 8;

/// Failure counting: one entry per operation, failed if any of its
/// checks failed. A run never aborts on a failed check.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one operation with the problems its checks found.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.reasons.len() < KEPT_REASONS {
                    self.reasons.push(p);
                }
            }
        }
    }

    /// Records `n` operations that could not run at all.
    pub fn all_failed(&mut self, n: u64, reason: String) {
        self.attempted += n;
        self.failed += n;
        if self.reasons.len() < KEPT_REASONS {
            self.reasons.push(reason);
        }
    }
}

/// A workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation counts and failure reasons.
    pub tally: Tally,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The last line the benchmark prints: `correct`, `attempted`,
    /// `failed`, and every metric of the chosen set (0 for one the run
    /// could not measure, which only happens alongside failures).
    pub fn result_line(&self, traced: bool) -> String {
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            if self.tally.attempted == 0 { 1 } else { self.tally.failed },
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_core::json::Json;

    #[test]
    fn failed_checks_count_operations_and_the_run_goes_on() {
        let mut t = Tally::default();
        t.op(vec![]);
        t.op(vec!["cycles differ".into(), "misses differ".into()]);
        t.op(vec![]);
        assert_eq!((t.attempted, t.failed), (3, 1));
        t.all_failed(5, "server did not start".into());
        assert_eq!((t.attempted, t.failed), (8, 6));
        assert_eq!(t.reasons.len(), 3);
        for _ in 0..20 {
            t.op(vec!["again".into()]);
        }
        assert_eq!(t.failed, 26);
        assert_eq!(t.reasons.len(), KEPT_REASONS);
    }

    #[test]
    fn result_line_lists_exactly_the_chosen_metrics() {
        let mut o = Outcome::default();
        o.tally.op(vec![]);
        o.set("wall_s", 1.25);
        o.set("cpi_err_pct", 0.5);
        let line = Json::parse(&o.result_line(false)).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("metrics object") };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        let wall = line.get("metrics").and_then(|m| m.get("wall_s")).expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));

        let traced = Json::parse(&o.result_line(true)).expect("valid JSON");
        let Some(Json::Obj(layers)) = traced.get("metrics") else { panic!("metrics object") };
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    #[test]
    fn a_run_with_failures_is_not_correct() {
        let mut o = Outcome::default();
        o.tally.op(vec!["instructions differ".into()]);
        let line = Json::parse(&o.result_line(false)).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let empty = Json::parse(&Outcome::default().result_line(false)).expect("valid JSON");
        assert_eq!(empty.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(empty.get("attempted").and_then(Json::as_u64), Some(1));
    }
}
