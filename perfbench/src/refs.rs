//! Exact references: the counters of exact simulations, recorded once in
//! `refs/exact.json` and keyed by the exact job's `JobId`.
//!
//! Each entry also names its job in the benchmark's own vocabulary
//! ([`JobSpec`]). On load the id is recomputed from that description; an
//! entry whose recorded id no longer matches is stale. A stale entry is
//! never used: the jobs that need it count as failed, with the reason.
//! Regenerate the file with `cargo run --release --manifest-path
//! perfbench/Cargo.toml -- record-refs`.

use selcache_core::json::Json;
use selcache_core::{
    AssistKind, Benchmark, ConfigVariant, ControllerConfig, JobEngine, JobId, MachineConfig, Scale,
    SimJob, SimMode, SimResult, SweepAxis, Version,
};
use std::collections::HashMap;
use std::path::Path;

/// Schema tag of the reference file.
pub const SCHEMA: &str = "selcache-perfbench-refs/1";

/// Where the references live, inside the benchmark's own directory.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs/exact.json");

/// Every counter of a [`SimResult`], in the order [`counters`] lists them.
pub const COUNTERS: [&str; 45] = [
    "cycles",
    "instructions",
    "cpu.cycles",
    "cpu.committed",
    "cpu.loads",
    "cpu.stores",
    "cpu.branches",
    "cpu.int_ops",
    "cpu.fp_ops",
    "cpu.assist_toggles",
    "cpu.mispredicts",
    "cpu.fetch_stall_cycles",
    "cpu.issue_stall_cycles",
    "l1d.accesses",
    "l1d.hits",
    "l1d.misses",
    "l1d.compulsory",
    "l1d.capacity",
    "l1d.conflict",
    "l1d.writebacks",
    "l1i.accesses",
    "l1i.hits",
    "l1i.misses",
    "l1i.compulsory",
    "l1i.capacity",
    "l1i.conflict",
    "l1i.writebacks",
    "l2.accesses",
    "l2.hits",
    "l2.misses",
    "l2.compulsory",
    "l2.capacity",
    "l2.conflict",
    "l2.writebacks",
    "dtlb_misses",
    "itlb_misses",
    "assist.bypass_buffer_hits",
    "assist.bypassed_fills",
    "assist.l2_bypassed_fills",
    "assist.spatial_prefetches",
    "assist.l1_victim_hits",
    "assist.l2_victim_hits",
    "assist.stream_hits",
    "assist.assisted_accesses",
    "assist.adapt_switches",
];

/// The counters of one result, ordered as [`COUNTERS`].
pub fn counters(r: &SimResult) -> Vec<u64> {
    let (c, m, a) = (&r.cpu, &r.mem, &r.mem.assist);
    let mut v = vec![
        r.cycles,
        r.instructions,
        c.cycles,
        c.committed,
        c.loads,
        c.stores,
        c.branches,
        c.int_ops,
        c.fp_ops,
        c.assist_toggles,
        c.mispredicts,
        c.fetch_stall_cycles,
        c.issue_stall_cycles,
    ];
    for cache in [&m.l1d, &m.l1i, &m.l2] {
        v.extend([
            cache.accesses,
            cache.hits,
            cache.misses,
            cache.compulsory,
            cache.capacity,
            cache.conflict,
            cache.writebacks,
        ]);
    }
    v.extend([m.dtlb_misses, m.itlb_misses]);
    v.extend([
        a.bypass_buffer_hits,
        a.bypassed_fills,
        a.l2_bypassed_fills,
        a.spatial_prefetches,
        a.l1_victim_hits,
        a.l2_victim_hits,
        a.stream_hits,
        a.assisted_accesses,
        a.adapt_switches,
    ]);
    v
}

/// Index of a counter in [`COUNTERS`].
pub fn counter_index(name: &str) -> usize {
    COUNTERS.iter().position(|c| *c == name).expect("known counter name")
}

/// A job in the benchmark's own vocabulary, from which the [`SimJob`] and
/// its id are rebuilt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Program source.
    pub benchmark: Benchmark,
    /// Workload scale.
    pub scale: Scale,
    /// One of the six Table 3 machines.
    pub machine: ConfigVariant,
    /// `(size, ways, line)` of both L1 caches replacing the machine's, with
    /// the compiler configuration pinned to the base machine's (how
    /// analytical sweeps build their cross-check jobs).
    pub l1: Option<[u64; 3]>,
    /// Assist under study.
    pub assist: AssistKind,
    /// Simulated version.
    pub version: Version,
    /// Online assist controller attached (`"policy":"dynamic"`).
    pub dynamic: bool,
    /// Sampled (`SimMode::sampled()`) rather than exact.
    pub sampled: bool,
}

const VERSIONS: [Version; 5] = [
    Version::Base,
    Version::PureHardware,
    Version::PureSoftware,
    Version::Combined,
    Version::Selective,
];
const ASSISTS: [AssistKind; 4] =
    [AssistKind::None, AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream];

fn by_debug_name<T: std::fmt::Debug + Copy>(all: &[T], name: &str) -> Option<T> {
    all.iter().copied().find(|v| format!("{v:?}") == name)
}

impl JobSpec {
    /// An exact, static job on one Table 3 machine.
    pub fn new(
        benchmark: Benchmark,
        scale: Scale,
        machine: ConfigVariant,
        assist: AssistKind,
        version: Version,
    ) -> JobSpec {
        JobSpec {
            benchmark,
            scale,
            machine,
            l1: None,
            assist,
            version,
            dynamic: false,
            sampled: false,
        }
    }

    /// The same job simulated exactly: the reference a sampled job is
    /// checked against.
    pub fn exact(self) -> JobSpec {
        JobSpec { sampled: false, ..self }
    }

    /// The job the engine runs.
    pub fn job(&self) -> SimJob {
        let mut machine = self.machine.machine();
        let mut job = if let Some([size, ways, line]) = self.l1 {
            for (axis, v) in
                [(SweepAxis::L1Size, size), (SweepAxis::L1Assoc, ways), (SweepAxis::L1Line, line)]
            {
                axis.apply(&mut machine, v);
            }
            let pinned = SimJob::new(
                self.benchmark,
                self.scale,
                MachineConfig::base(),
                self.assist,
                self.version,
            )
            .opt;
            SimJob::new(self.benchmark, self.scale, machine, self.assist, self.version)
                .with_opt(pinned)
        } else {
            SimJob::new(self.benchmark, self.scale, machine, self.assist, self.version)
        };
        if self.sampled {
            job = job.with_mode(SimMode::sampled());
        }
        if self.dynamic {
            job = job.with_controller(ControllerConfig::default());
        }
        job
    }

    /// Short human-readable label.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/{:?}/{:?}/{:?}",
            self.benchmark.name(),
            self.scale,
            self.machine,
            self.assist,
            self.version
        );
        if let Some([a, b, c]) = self.l1 {
            s += &format!("/l1={a}x{b}x{c}");
        }
        if self.dynamic {
            s += "/dynamic";
        }
        if self.sampled {
            s += "/sampled";
        }
        s
    }

    fn to_json(self) -> Json {
        let mut pairs = vec![
            ("benchmark", Json::str(self.benchmark.name())),
            ("scale", Json::str(self.scale.to_string())),
            ("machine", Json::str(format!("{:?}", self.machine))),
            ("assist", Json::str(format!("{:?}", self.assist))),
            ("version", Json::str(format!("{:?}", self.version))),
            ("dynamic", Json::Bool(self.dynamic)),
            ("sampled", Json::Bool(self.sampled)),
        ];
        if let Some(l1) = self.l1 {
            pairs.push(("l1", Json::Arr(l1.iter().map(|&v| Json::UInt(v)).collect())));
        }
        Json::obj(pairs)
    }

    fn from_json(j: &Json) -> Option<JobSpec> {
        let s = |k: &str| j.get(k).and_then(Json::as_str);
        let b = |k: &str| matches!(j.get(k), Some(Json::Bool(true)));
        let l1 = match j.get("l1").and_then(Json::as_arr) {
            Some([a, b, c]) => Some([a.as_u64()?, b.as_u64()?, c.as_u64()?]),
            Some(_) => return None,
            None => None,
        };
        Some(JobSpec {
            benchmark: Benchmark::parse(s("benchmark")?)?,
            scale: Scale::parse(s("scale")?)?,
            machine: by_debug_name(&ConfigVariant::ALL, s("machine")?)?,
            l1,
            assist: by_debug_name(&ASSISTS, s("assist")?)?,
            version: by_debug_name(&VERSIONS, s("version")?)?,
            dynamic: b("dynamic"),
            sampled: b("sampled"),
        })
    }
}

/// The loaded reference file: usable entries by id, stale ones by job.
#[derive(Debug, Default)]
pub struct Refs {
    usable: HashMap<JobId, Vec<u64>>,
    stale: Vec<(JobSpec, String)>,
}

impl Refs {
    /// Loads and validates the reference file at `path`.
    pub fn load(path: &Path) -> Result<Refs, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read references {}: {e}", path.display()))?;
        Refs::parse(&text)
    }

    /// Parses and validates reference text. Entries whose recorded id
    /// differs from the id of the job they describe are kept aside as
    /// stale.
    pub fn parse(text: &str) -> Result<Refs, String> {
        let doc = Json::parse(text).map_err(|e| format!("references are not JSON: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("references do not carry schema {SCHEMA}"));
        }
        let names: Vec<&str> = doc
            .get("counters")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        if names != COUNTERS {
            return Err("references list other counters than this benchmark reads".into());
        }
        let mut refs = Refs::default();
        for (i, e) in doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]).iter().enumerate() {
            let bad = || format!("reference entry {i} is malformed");
            let spec = e.get("job").and_then(JobSpec::from_json).ok_or_else(bad)?;
            let recorded = e.get("job_id").and_then(Json::as_str).ok_or_else(bad)?;
            let values: Vec<u64> = e
                .get("counters")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_u64).collect())
                .ok_or_else(bad)?;
            if values.len() != COUNTERS.len() {
                return Err(bad());
            }
            let id = spec.job().job_id();
            if id.to_string() == recorded {
                refs.usable.insert(id, values);
            } else {
                refs.stale.push((spec, recorded.to_string()));
            }
        }
        Ok(refs)
    }

    /// The recorded counters of `spec`'s exact job, or why there are none.
    pub fn get(&self, spec: &JobSpec) -> Result<&[u64], String> {
        let id = spec.job().job_id();
        if let Some(v) = self.usable.get(&id) {
            return Ok(v);
        }
        match self.stale.iter().find(|(s, _)| s == spec) {
            Some((_, recorded)) => Err(format!(
                "stale reference for {}: recorded as {recorded}, the job is now {id}; \
                 regenerate with `record-refs`",
                spec.label()
            )),
            None => Err(format!("no reference for {} ({id})", spec.label())),
        }
    }

    /// Checks an exact result counter for counter.
    pub fn check_exact(&self, spec: &JobSpec, r: &SimResult) -> Result<(), String> {
        let want = self.get(spec)?;
        let got = counters(r);
        match COUNTERS.iter().zip(want.iter().zip(&got)).find(|(_, (w, g))| w != g) {
            None => Ok(()),
            Some((name, (w, g))) => {
                Err(format!("{}: {name} is {g}, the reference has {w}", spec.label()))
            }
        }
    }
}

/// Problems with the job set itself: a spec that no longer describes the
/// job the program builds would key the wrong reference.
pub fn spec_drift(specs: &[JobSpec], jobs: &[SimJob]) -> Vec<String> {
    if specs.len() != jobs.len() {
        return vec![format!("{} jobs, {} specs", jobs.len(), specs.len())];
    }
    specs
        .iter()
        .zip(jobs)
        .filter(|(s, j)| s.job().job_id() != j.job_id())
        .map(|(s, _)| format!("{} no longer describes the program's job", s.label()))
        .collect()
}

/// Serializes references for `specs` from their exact results.
pub fn render(specs: &[JobSpec], results: &[SimResult]) -> String {
    let mut entries: Vec<(String, Json)> = specs
        .iter()
        .zip(results)
        .map(|(spec, r)| {
            let id = spec.job().job_id().to_string();
            let e = Json::obj([
                ("job_id", Json::str(id.clone())),
                ("job", spec.to_json()),
                ("counters", Json::Arr(counters(r).into_iter().map(Json::UInt).collect())),
            ]);
            (id, e)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);
    let mut out = format!(
        "{{\"schema\":\"{SCHEMA}\",\"counters\":{},\"entries\":[\n",
        Json::Arr(COUNTERS.iter().map(|c| Json::str(*c)).collect())
    );
    for (i, (_, e)) in entries.iter().enumerate() {
        out += &e.to_string();
        out += if i + 1 < entries.len() { ",\n" } else { "\n" };
    }
    out + "]}\n"
}

/// Simulates every spec exactly and writes the reference file.
pub fn record(specs: &[JobSpec], path: &Path) -> std::io::Result<()> {
    let exact: Vec<JobSpec> = specs.iter().map(|s| s.exact()).collect();
    let jobs: Vec<SimJob> = exact.iter().map(JobSpec::job).collect();
    let results = JobEngine::new(2).run(&jobs);
    std::fs::write(path, render(&exact, &results))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(version: Version) -> JobSpec {
        JobSpec::new(Benchmark::Adi, Scale::Tiny, ConfigVariant::Base, AssistKind::Bypass, version)
    }

    fn recorded() -> (Vec<JobSpec>, Vec<SimResult>) {
        let specs = vec![spec(Version::Base), spec(Version::Selective)];
        let jobs: Vec<SimJob> = specs.iter().map(JobSpec::job).collect();
        (specs, JobEngine::serial().run(&jobs))
    }

    #[test]
    fn specs_round_trip_through_json() {
        let mut s = spec(Version::Combined);
        s.l1 = Some([8192, 4, 64]);
        s.dynamic = true;
        s.sampled = true;
        assert_eq!(JobSpec::from_json(&s.to_json()), Some(s));
    }

    #[test]
    fn matching_results_pass_and_changed_counters_fail() {
        let (specs, results) = recorded();
        let refs = Refs::parse(&render(&specs, &results)).expect("valid references");
        assert_eq!(refs.check_exact(&specs[0], &results[0]), Ok(()));
        let mut changed = results[1].clone();
        changed.mem.l1d.misses += 1;
        let err = refs.check_exact(&specs[1], &changed).expect_err("a counter differs");
        assert!(err.contains("l1d.misses"), "{err}");
    }

    #[test]
    fn stale_references_are_reported_and_never_used() {
        let (specs, results) = recorded();
        let text = render(&specs, &results);
        let id = specs[0].job().job_id().to_string();
        let stale = text.replace(&id, "0000000000000000000000000000beef");
        let refs = Refs::parse(&stale).expect("still well-formed");
        let err = refs.check_exact(&specs[0], &results[0]).expect_err("stale entry");
        assert!(err.contains("stale reference"), "{err}");
        assert_eq!(refs.check_exact(&specs[1], &results[1]), Ok(()));
        let missing = spec(Version::Combined);
        assert!(refs.get(&missing).expect_err("absent").contains("no reference"));
    }

    #[test]
    fn other_schemas_and_counter_lists_are_refused() {
        let (specs, results) = recorded();
        let text = render(&specs, &results);
        assert!(Refs::parse(&text.replace(SCHEMA, "other/1")).is_err());
        assert!(Refs::parse(&text.replace("\"cpu.loads\"", "\"cpu.load\"")).is_err());
    }
}
