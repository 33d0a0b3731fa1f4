//! Persistent content-addressed result store.
//!
//! Results are addressed by [`JobId`] — the stable 128-bit hash of a
//! job's canonical execution identity (see [`crate::identity`]) — and
//! live at `<root>/<hex[..2]>/<hex>.json`. Each entry is a versioned JSON
//! envelope:
//!
//! ```json
//! {
//!   "schema": "selcache-store/1",
//!   "job_id": "c0ffee…(32 hex digits)",
//!   "identity": "<canonical identity bytes, hex>",
//!   "created_unix_ms": 1754610000000,
//!   "sim_wall_ms": 12.5,
//!   "result": { "cycles": …, "instructions": …, "cpu": {…}, "mem": {…} }
//! }
//! ```
//!
//! Robustness rules:
//!
//! - **Writes are atomic**: entries are written to a `.tmp-` sibling and
//!   `rename`d into place, so readers never observe a torn file and
//!   concurrent writers of the same id settle on one complete entry.
//! - **Corrupt or stale entries are misses**: unparsable JSON, an
//!   unknown `schema`, or an `identity` echo that does not match the
//!   canonical bytes of the requesting job all make [`Store::get`] return
//!   `None` (the engine then re-simulates and overwrites the entry).
//!   A 128-bit hash makes collisions implausible, but the identity echo
//!   turns even one into a re-simulation instead of a wrong answer.
//! - **`gc` repairs the tree**: it deletes corrupt and stale-schema
//!   entries, abandoned temp files, and (optionally) entries older than a
//!   cutoff.

use crate::identity::{to_hex, JobId};
use crate::json::Json;
use crate::profile::{RegionProfile, RegionStats};
use crate::runner::SimResult;
use crate::sampled::SampledInfo;
use selcache_cpu::CpuStats;
use selcache_mem::{AssistStats, CacheStats, HierarchyStats};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Envelope schema tag. Entries carrying any other tag are treated as
/// misses and reclaimed by [`Store::gc`].
pub const STORE_SCHEMA: &str = "selcache-store/1";

/// A content-addressed result store rooted at one directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Store {
    root: PathBuf,
}

/// Aggregate size of a store ([`Store::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Valid-looking entry files (`*.json` under a shard directory).
    pub entries: usize,
    /// Total bytes across those entries.
    pub bytes: u64,
}

/// What one [`Store::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries kept.
    pub kept: usize,
    /// Entries removed (corrupt, stale-schema, or past the age cutoff).
    pub removed: usize,
    /// Abandoned temp files removed.
    pub tmp_removed: usize,
    /// Bytes freed by removals.
    pub bytes_freed: u64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, id: JobId) -> PathBuf {
        let hex = id.to_string();
        self.root.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Looks up a stored result. `identity` is the job's canonical
    /// identity byte string; an entry whose echo does not match is a miss.
    /// Every failure mode (absent, unreadable, corrupt, stale schema) is a
    /// miss — the store never turns disk trouble into an error on the read
    /// path.
    pub fn get(&self, id: JobId, identity: &[u8]) -> Option<SimResult> {
        let text = fs::read_to_string(self.entry_path(id)).ok()?;
        let env = Json::parse(&text).ok()?;
        if env.get("schema")?.as_str()? != STORE_SCHEMA {
            return None;
        }
        if env.get("job_id")?.as_str()? != id.to_string() {
            return None;
        }
        if env.get("identity")?.as_str()? != to_hex(identity) {
            return None;
        }
        result_from_json(env.get("result")?)
    }

    /// Stores a result, overwriting any previous entry for `id`. Returns
    /// the entry's size in bytes. `sim_wall_ms` is the wall-clock cost of
    /// the simulation that produced it (timing metadata for consumers;
    /// the engine's warm-vs-cold accounting reads it back out of
    /// envelopes only informally).
    pub fn put(
        &self,
        id: JobId,
        identity: &[u8],
        result: &SimResult,
        sim_wall_ms: f64,
    ) -> io::Result<u64> {
        let created =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        let env = Json::obj([
            ("schema", Json::str(STORE_SCHEMA)),
            ("job_id", Json::str(id.to_string())),
            ("identity", Json::str(to_hex(identity))),
            ("created_unix_ms", Json::UInt(created)),
            ("sim_wall_ms", Json::Num(sim_wall_ms)),
            ("result", result_to_json(result)),
        ]);
        let mut text = env.to_string();
        text.push('\n');

        let path = self.entry_path(id);
        let dir = path.parent().expect("entry paths always have a shard directory");
        fs::create_dir_all(dir)?;
        // Atomic publish: write a unique temp sibling, then rename over
        // the final name. Concurrent writers of the same id each publish a
        // complete entry; the last rename wins.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!(".tmp-{}-{seq}", std::process::id()));
        fs::write(&tmp, &text)?;
        fs::rename(&tmp, &path)?;
        Ok(text.len() as u64)
    }

    /// Walks the store: deletes abandoned temp files and entries that are
    /// corrupt, carry a stale schema, or (when `max_age` is given) were
    /// created more than `max_age` ago.
    pub fn gc(&self, max_age: Option<Duration>) -> io::Result<GcReport> {
        let cutoff_ms = max_age.map(|age| {
            let now = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            now.saturating_sub(age.as_millis() as u64)
        });
        let mut report = GcReport::default();
        for shard in read_dir_sorted(&self.root)? {
            if !shard.is_dir() {
                continue;
            }
            for path in read_dir_sorted(&shard)? {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                if name.starts_with(".tmp-") {
                    fs::remove_file(&path)?;
                    report.tmp_removed += 1;
                    report.bytes_freed += size;
                    continue;
                }
                if !name.ends_with(".json") {
                    continue;
                }
                if entry_live(&path, cutoff_ms) {
                    report.kept += 1;
                } else {
                    fs::remove_file(&path)?;
                    report.removed += 1;
                    report.bytes_freed += size;
                }
            }
        }
        Ok(report)
    }

    /// Counts entries and bytes currently in the store.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        let Ok(shards) = read_dir_sorted(&self.root) else {
            return stats;
        };
        for shard in shards {
            if !shard.is_dir() {
                continue;
            }
            let Ok(entries) = read_dir_sorted(&shard) else {
                continue;
            };
            for path in entries {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.ends_with(".json") {
                    stats.entries += 1;
                    stats.bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        stats
    }
}

/// Whether an entry parses, carries the current schema, and is newer than
/// the optional cutoff.
fn entry_live(path: &Path, cutoff_ms: Option<u64>) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false;
    };
    let Ok(env) = Json::parse(&text) else {
        return false;
    };
    if env.get("schema").and_then(Json::as_str) != Some(STORE_SCHEMA) {
        return false;
    }
    if env.get("result").and_then(result_from_json).is_none() {
        return false;
    }
    match cutoff_ms {
        None => true,
        Some(cutoff) => {
            env.get("created_unix_ms").and_then(Json::as_u64).is_some_and(|ms| ms >= cutoff)
        }
    }
}

/// Directory listing in sorted order (deterministic gc/stats walks).
fn read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    Ok(paths)
}

// --- SimResult <-> Json -------------------------------------------------
//
// Hand-rolled, field-by-field. Every counter is a u64 and round-trips
// exactly (the parser keeps u64-range integers lossless). Adding a field
// to the stats structs will fail compilation here via the exhaustive
// struct literals in `*_from_json`, forcing the schema tag to be revisited.

pub(crate) fn result_to_json(r: &SimResult) -> Json {
    let mut pairs = vec![
        ("cycles", Json::UInt(r.cycles)),
        ("instructions", Json::UInt(r.instructions)),
        ("cpu", cpu_to_json(&r.cpu)),
        ("mem", mem_to_json(&r.mem)),
    ];
    if let Some(profile) = &r.regions {
        pairs.push(("regions", Json::Arr(profile.regions().iter().map(region_to_json).collect())));
    }
    if let Some(s) = &r.sampled {
        pairs.push(("sampled", sampled_to_json(s)));
    }
    Json::obj(pairs)
}

/// The wire encoding of a sampled run's coverage, as the store writes it
/// and `selcached` echoes it.
pub fn sampled_to_json(s: &SampledInfo) -> Json {
    Json::obj([
        ("total_ops", Json::UInt(s.total_ops)),
        ("intervals", Json::UInt(s.intervals as u64)),
        ("representatives", Json::UInt(s.representatives as u64)),
        ("detailed_ops", Json::UInt(s.detailed_ops)),
        ("warmup_ops", Json::UInt(s.warmup_ops)),
    ])
}

pub(crate) fn result_from_json(j: &Json) -> Option<SimResult> {
    let regions = match j.get("regions") {
        None => None,
        Some(arr) => {
            let buckets: Option<Vec<RegionStats>> =
                arr.as_arr()?.iter().map(region_from_json).collect();
            Some(RegionProfile::from_regions(buckets?))
        }
    };
    let sampled = match j.get("sampled") {
        None => None,
        Some(s) => {
            let f = |key| s.get(key).and_then(Json::as_u64);
            Some(SampledInfo {
                total_ops: f("total_ops")?,
                intervals: f("intervals")? as usize,
                representatives: f("representatives")? as usize,
                detailed_ops: f("detailed_ops")?,
                warmup_ops: f("warmup_ops")?,
            })
        }
    };
    Some(SimResult {
        cycles: j.get("cycles")?.as_u64()?,
        instructions: j.get("instructions")?.as_u64()?,
        cpu: cpu_from_json(j.get("cpu")?)?,
        mem: mem_from_json(j.get("mem")?)?,
        regions,
        sampled,
        job_id: None,
    })
}

fn cpu_to_json(c: &CpuStats) -> Json {
    Json::obj([
        ("cycles", Json::UInt(c.cycles)),
        ("committed", Json::UInt(c.committed)),
        ("loads", Json::UInt(c.loads)),
        ("stores", Json::UInt(c.stores)),
        ("branches", Json::UInt(c.branches)),
        ("int_ops", Json::UInt(c.int_ops)),
        ("fp_ops", Json::UInt(c.fp_ops)),
        ("assist_toggles", Json::UInt(c.assist_toggles)),
        ("mispredicts", Json::UInt(c.mispredicts)),
        ("fetch_stall_cycles", Json::UInt(c.fetch_stall_cycles)),
        ("issue_stall_cycles", Json::UInt(c.issue_stall_cycles)),
    ])
}

fn cpu_from_json(j: &Json) -> Option<CpuStats> {
    let f = |key| j.get(key).and_then(Json::as_u64);
    Some(CpuStats {
        cycles: f("cycles")?,
        committed: f("committed")?,
        loads: f("loads")?,
        stores: f("stores")?,
        branches: f("branches")?,
        int_ops: f("int_ops")?,
        fp_ops: f("fp_ops")?,
        assist_toggles: f("assist_toggles")?,
        mispredicts: f("mispredicts")?,
        fetch_stall_cycles: f("fetch_stall_cycles")?,
        issue_stall_cycles: f("issue_stall_cycles")?,
    })
}

fn cache_to_json(c: &CacheStats) -> Json {
    Json::obj([
        ("accesses", Json::UInt(c.accesses)),
        ("hits", Json::UInt(c.hits)),
        ("misses", Json::UInt(c.misses)),
        ("compulsory", Json::UInt(c.compulsory)),
        ("capacity", Json::UInt(c.capacity)),
        ("conflict", Json::UInt(c.conflict)),
        ("writebacks", Json::UInt(c.writebacks)),
    ])
}

fn cache_from_json(j: &Json) -> Option<CacheStats> {
    let f = |key| j.get(key).and_then(Json::as_u64);
    Some(CacheStats {
        accesses: f("accesses")?,
        hits: f("hits")?,
        misses: f("misses")?,
        compulsory: f("compulsory")?,
        capacity: f("capacity")?,
        conflict: f("conflict")?,
        writebacks: f("writebacks")?,
    })
}

fn mem_to_json(m: &HierarchyStats) -> Json {
    Json::obj([
        ("l1d", cache_to_json(&m.l1d)),
        ("l1i", cache_to_json(&m.l1i)),
        ("l2", cache_to_json(&m.l2)),
        ("dtlb_misses", Json::UInt(m.dtlb_misses)),
        ("itlb_misses", Json::UInt(m.itlb_misses)),
        (
            "assist",
            Json::obj([
                ("bypass_buffer_hits", Json::UInt(m.assist.bypass_buffer_hits)),
                ("bypassed_fills", Json::UInt(m.assist.bypassed_fills)),
                ("l2_bypassed_fills", Json::UInt(m.assist.l2_bypassed_fills)),
                ("spatial_prefetches", Json::UInt(m.assist.spatial_prefetches)),
                ("l1_victim_hits", Json::UInt(m.assist.l1_victim_hits)),
                ("l2_victim_hits", Json::UInt(m.assist.l2_victim_hits)),
                ("stream_hits", Json::UInt(m.assist.stream_hits)),
                ("assisted_accesses", Json::UInt(m.assist.assisted_accesses)),
                ("adapt_switches", Json::UInt(m.assist.adapt_switches)),
            ]),
        ),
    ])
}

fn mem_from_json(j: &Json) -> Option<HierarchyStats> {
    let a = j.get("assist")?;
    let f = |key| a.get(key).and_then(Json::as_u64);
    Some(HierarchyStats {
        l1d: cache_from_json(j.get("l1d")?)?,
        l1i: cache_from_json(j.get("l1i")?)?,
        l2: cache_from_json(j.get("l2")?)?,
        dtlb_misses: j.get("dtlb_misses")?.as_u64()?,
        itlb_misses: j.get("itlb_misses")?.as_u64()?,
        assist: AssistStats {
            bypass_buffer_hits: f("bypass_buffer_hits")?,
            bypassed_fills: f("bypassed_fills")?,
            l2_bypassed_fills: f("l2_bypassed_fills")?,
            spatial_prefetches: f("spatial_prefetches")?,
            l1_victim_hits: f("l1_victim_hits")?,
            l2_victim_hits: f("l2_victim_hits")?,
            stream_hits: f("stream_hits")?,
            assisted_accesses: f("assisted_accesses")?,
            adapt_switches: f("adapt_switches")?,
        },
    })
}

/// The wire encoding of one region's counters, as the store writes it and
/// the `regions` binary prints it.
pub fn region_to_json(r: &RegionStats) -> Json {
    Json::obj([
        ("label", Json::str(r.label.clone())),
        ("cycles", Json::UInt(r.cycles)),
        ("committed", Json::UInt(r.committed)),
        ("loads", Json::UInt(r.loads)),
        ("stores", Json::UInt(r.stores)),
        ("l1d_accesses", Json::UInt(r.l1d_accesses)),
        ("l1d_misses", Json::UInt(r.l1d_misses)),
        ("l2_accesses", Json::UInt(r.l2_accesses)),
        ("l2_misses", Json::UInt(r.l2_misses)),
        ("assisted_accesses", Json::UInt(r.assisted_accesses)),
        ("assist_hits", Json::UInt(r.assist_hits)),
        ("toggles", Json::UInt(r.toggles)),
        ("policy_switches", Json::UInt(r.policy_switches)),
        ("final_policy", Json::str(r.final_policy.clone())),
    ])
}

fn region_from_json(j: &Json) -> Option<RegionStats> {
    let f = |key| j.get(key).and_then(Json::as_u64);
    Some(RegionStats {
        label: j.get("label")?.as_str()?.to_string(),
        cycles: f("cycles")?,
        committed: f("committed")?,
        loads: f("loads")?,
        stores: f("stores")?,
        l1d_accesses: f("l1d_accesses")?,
        l1d_misses: f("l1d_misses")?,
        l2_accesses: f("l2_accesses")?,
        l2_misses: f("l2_misses")?,
        assisted_accesses: f("assisted_accesses")?,
        assist_hits: f("assist_hits")?,
        toggles: f("toggles")?,
        policy_switches: f("policy_switches")?,
        final_policy: j.get("final_policy")?.as_str()?.to_string(),
    })
}
