//! Integration tests of the persistent result store: envelope round-trip
//! (with and without region profiles), corrupt-entry recovery, warm-store
//! engine behavior (zero simulations, byte-identical results), and gc.

use selcache_core::json::Json;
use selcache_core::{
    AssistKind, Benchmark, ControllerConfig, JobEngine, MachineConfig, Scale, SimJob, SimMode,
    Store, Version,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, self-cleaning store root under the system temp directory
/// (no tempfile crate in the vendored-only workspace).
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("selcache-store-test-{tag}-{}-{seq}", std::process::id()));
        TempRoot(dir)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn suite_jobs() -> Vec<SimJob> {
    let machine = MachineConfig::base();
    let mut jobs = Vec::new();
    for bench in [Benchmark::Adi, Benchmark::Li] {
        for version in [Version::Base, Version::PureHardware, Version::Selective] {
            jobs.push(SimJob::new(
                bench,
                Scale::Tiny,
                machine.clone(),
                AssistKind::Bypass,
                version,
            ));
        }
    }
    jobs
}

#[test]
fn warm_store_executes_zero_simulations_with_identical_results() {
    let root = TempRoot::new("warm");
    let jobs = suite_jobs();

    let cold_engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    let (cold, cold_stats) = cold_engine.run_with_stats(&jobs);
    assert_eq!(cold_stats.store_hits, 0);
    assert_eq!(cold_stats.store_misses, cold_stats.executed);
    assert!(cold_stats.executed > 0);
    assert!(cold_stats.bytes_written > 0);

    // A fresh engine against the same root answers everything from disk:
    // zero simulations, zero prepared programs, byte-identical results.
    let warm_engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    let (warm, warm_stats) = warm_engine.run_with_stats(&jobs);
    assert_eq!(warm_stats.executed, 0, "warm store must simulate nothing");
    assert_eq!(warm_stats.programs_prepared, 0, "warm store must prepare nothing");
    assert_eq!(warm_stats.store_hits, cold_stats.executed, "store_hits == unique jobs");
    assert_eq!(warm_stats.store_misses, 0);
    assert_eq!(warm_stats.bytes_written, 0);
    assert_eq!(cold, warm, "stored results must echo the simulation exactly");

    // And the store-less engine agrees with both.
    let plain = JobEngine::serial().run(&jobs);
    assert_eq!(plain, warm);
}

#[test]
fn profiled_round_trip_preserves_regions() {
    let root = TempRoot::new("profiled");
    let jobs = vec![SimJob::new(
        Benchmark::Adi,
        Scale::Tiny,
        MachineConfig::base(),
        AssistKind::Bypass,
        Version::Selective,
    )];

    let engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    // A plain run stores a region-less entry; the profiled run must treat
    // it as a miss, re-simulate, and overwrite it with regions.
    let (_, plain_stats) = engine.run_with_stats(&jobs);
    assert_eq!(plain_stats.store_misses, 1);
    let profiled_cold = engine.run_profiled(&jobs);
    assert!(profiled_cold[0].regions.is_some());

    // Now the entry carries regions: both profiled and plain reruns are
    // pure hits, and the profile round-trips through JSON exactly.
    let profiled_warm = engine.run_profiled(&jobs);
    assert_eq!(profiled_warm, profiled_cold);
    let (plain_warm, plain_warm_stats) = engine.run_with_stats(&jobs);
    assert_eq!(plain_warm_stats.store_hits, 1);
    assert_eq!(plain_warm_stats.executed, 0);
    assert!(plain_warm[0].regions.is_none(), "plain runs never expose stored regions");
}

#[test]
fn corrupt_and_stale_entries_are_misses_and_repaired() {
    let root = TempRoot::new("corrupt");
    let jobs = suite_jobs();
    let engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    let (cold, cold_stats) = engine.run_with_stats(&jobs);

    // Mangle one entry into invalid JSON and another into a stale schema.
    let mut entries: Vec<PathBuf> = Vec::new();
    for shard in fs::read_dir(&root.0).unwrap() {
        let shard = shard.unwrap().path();
        if shard.is_dir() {
            for e in fs::read_dir(&shard).unwrap() {
                entries.push(e.unwrap().path());
            }
        }
    }
    entries.sort();
    assert_eq!(entries.len(), cold_stats.executed);
    assert_eq!(entries.len(), 6);
    fs::write(&entries[0], "{ this is not json").unwrap();
    fs::write(&entries[1], "{\"schema\":\"selcache-store/0\",\"result\":{}}\n").unwrap();

    // Three more keep a valid envelope but echo a wrong identity: one hex
    // digit flipped, upper-cased, and two digits short.
    let manglers: [fn(&str) -> String; 3] = [
        |hex| format!("{}{}", if hex.starts_with('0') { '1' } else { '0' }, &hex[1..]),
        |hex| hex.to_ascii_uppercase(),
        |hex| hex[..hex.len() - 2].to_string(),
    ];
    for (path, mangle) in entries[2..5].iter().zip(manglers) {
        let mut env = Json::parse(&fs::read_to_string(path).unwrap()).unwrap();
        let Json::Obj(pairs) = &mut env else { panic!("envelope is an object") };
        let (_, echo) = pairs.iter_mut().find(|(k, _)| k == "identity").unwrap();
        let mangled = mangle(echo.as_str().unwrap());
        assert_ne!(echo.as_str(), Some(mangled.as_str()));
        *echo = Json::str(mangled);
        fs::write(path, format!("{env}\n")).unwrap();
    }

    // All five damaged entries read as misses: the engine re-simulates
    // just those and heals the store, with results still byte-identical.
    let (healed, healed_stats) = engine.run_with_stats(&jobs);
    assert_eq!(healed_stats.executed, 5);
    assert_eq!(healed_stats.store_hits, cold_stats.executed - 5);
    assert_eq!(healed, cold);

    // And a third run is fully warm again.
    let (_, warm_stats) = engine.run_with_stats(&jobs);
    assert_eq!(warm_stats.executed, 0);
}

#[test]
fn gc_reclaims_corrupt_entries_and_temp_files() {
    let root = TempRoot::new("gc");
    let jobs = suite_jobs();
    let engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    let (_, stats) = engine.run_with_stats(&jobs);
    let store = engine.store().unwrap();

    let before = store.stats();
    assert_eq!(before.entries, stats.executed);
    assert_eq!(before.bytes, stats.bytes_written);

    // Plant a corrupt entry and an abandoned temp file in one shard.
    let shard =
        fs::read_dir(&root.0).unwrap().map(|e| e.unwrap().path()).find(|p| p.is_dir()).unwrap();
    fs::write(shard.join("deadbeefdeadbeefdeadbeefdeadbeef.json"), "garbage").unwrap();
    fs::write(shard.join(".tmp-999-0"), "partial write").unwrap();

    let report = store.gc(None).unwrap();
    assert_eq!(report.kept, stats.executed);
    assert_eq!(report.removed, 1, "corrupt entry reclaimed");
    assert_eq!(report.tmp_removed, 1, "abandoned temp file reclaimed");
    assert!(report.bytes_freed > 0);

    // An aggressive age cutoff clears everything.
    let report = store.gc(Some(std::time::Duration::ZERO)).unwrap();
    assert_eq!(report.kept + report.removed, stats.executed);
    let after = store.stats();
    assert_eq!(after.entries, report.kept);
}

#[test]
fn sampled_results_roundtrip_through_the_store() {
    let root = TempRoot::new("sampled");
    let mode = SimMode::Sampled { interval_ops: 4096, max_intervals: 4, warmup: 1024 };
    let machine = MachineConfig::base();
    let jobs: Vec<SimJob> = [Version::Base, Version::PureHardware]
        .into_iter()
        .map(|v| {
            SimJob::new(Benchmark::Vpenta, Scale::Small, machine.clone(), AssistKind::Bypass, v)
                .with_mode(mode)
        })
        .collect();

    let engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    let (cold, cold_stats) = engine.run_with_stats(&jobs);
    assert_eq!(cold_stats.executed, 2);
    for r in &cold {
        let info = r.sampled.expect("sampled jobs report coverage");
        assert!(info.detailed_ops < info.total_ops, "must actually sample");
        assert_eq!(r.instructions, info.total_ops);
    }

    // A fresh engine answers from disk with the coverage info intact, and
    // a profiled run accepts the region-less sampled entries as hits.
    let warm_engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    let (warm, warm_stats) = warm_engine.run_with_stats(&jobs);
    assert_eq!(warm_stats.executed, 0, "sampled entries must be store hits");
    assert_eq!(cold, warm, "sampled coverage info must round-trip exactly");
    let (profiled, profiled_stats) = warm_engine.run_profiled_with_stats(&jobs);
    assert_eq!(profiled_stats.executed, 0, "sampled entries satisfy profiled runs too");
    assert!(profiled[0].regions.is_none(), "sampled results never carry regions");
}

/// Removes one `,"key":<uint>` field from a JSON entry, emulating an
/// envelope written before that counter existed.
fn strip_uint_field(text: &str, key: &str) -> String {
    let pat = format!(",\"{key}\":");
    let start = text.find(&pat).unwrap_or_else(|| panic!("entry should contain {key}"));
    let val = start + pat.len();
    let end = val
        + text[val..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("digits end before the entry does");
    format!("{}{}", &text[..start], &text[end..])
}

fn entry_files(root: &PathBuf) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = Vec::new();
    for shard in fs::read_dir(root).unwrap() {
        let shard = shard.unwrap().path();
        if shard.is_dir() {
            for e in fs::read_dir(&shard).unwrap() {
                entries.push(e.unwrap().path());
            }
        }
    }
    entries.sort();
    entries
}

#[test]
fn pre_upgrade_envelopes_read_as_misses_not_errors() {
    // Schema evolution tolerance: entries written before the adaptive
    // controller added `adapt_switches` (and the per-region policy fields)
    // must degrade to clean misses that the engine re-simulates and heals —
    // never to parse errors or wrong answers.
    let root = TempRoot::new("preupgrade");
    let jobs = suite_jobs();
    let engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    let (cold, cold_stats) = engine.run_with_stats(&jobs);

    // Rewrite every entry without the controller counter, mimicking the
    // pre-upgrade result schema.
    for path in entry_files(&root.0) {
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, strip_uint_field(&text, "adapt_switches")).unwrap();
    }

    let (healed, healed_stats) = engine.run_with_stats(&jobs);
    assert_eq!(healed_stats.store_hits, 0, "old envelopes must all read as misses");
    assert_eq!(healed_stats.executed, cold_stats.executed, "every job re-simulates");
    assert_eq!(healed, cold, "healing must reproduce the results exactly");

    // Same for profiled entries missing the per-region policy fields.
    let profiled_jobs = &jobs[..1];
    let profiled_cold = engine.run_profiled(profiled_jobs);
    let path = {
        let id = profiled_jobs[0].job_id().to_string();
        entry_files(&root.0).into_iter().find(|p| p.to_string_lossy().contains(&id)).unwrap()
    };
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains("final_policy"), "profiled entries carry the policy fields");
    fs::write(&path, strip_uint_field(&text, "policy_switches")).unwrap();
    let (profiled_healed, stats) = engine.run_profiled_with_stats(profiled_jobs);
    assert_eq!(stats.executed, 1, "region-field-less entry is a miss, not an error");
    assert_eq!(profiled_healed, profiled_cold);
}

#[test]
fn dynamic_results_roundtrip_and_dedup_through_the_store() {
    let root = TempRoot::new("dynamic");
    let ctl = ControllerConfig { interval_accesses: 128, ..ControllerConfig::default() };
    let jobs = vec![SimJob::new(
        Benchmark::Li,
        Scale::Tiny,
        MachineConfig::base(),
        AssistKind::None,
        Version::Selective,
    )
    .with_controller(ctl)];

    let engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    let (cold, cold_stats) = engine.run_with_stats(&jobs);
    assert_eq!(cold_stats.executed, 1);
    assert!(cold[0].regions.is_none(), "plain dynamic results stay region-less");

    // A fresh engine (different thread count) answers from disk,
    // byte-identical.
    let warm_engine = JobEngine::with_store(4, Store::open(&root.0).unwrap());
    let (warm, warm_stats) = warm_engine.run_with_stats(&jobs);
    assert_eq!(warm_stats.executed, 0, "dynamic entries must be store hits");
    assert_eq!(cold, warm);

    // A profiled rerun is also a pure hit: dynamic runs always simulate
    // with regions attached, and the store keeps the profile even when the
    // producing run returned it region-less.
    let (profiled, profiled_stats) = warm_engine.run_profiled_with_stats(&jobs);
    assert_eq!(profiled_stats.executed, 0, "the plain dynamic entry satisfies profiled runs");
    let prof = profiled[0].regions.as_ref().expect("dynamic entries carry regions");
    assert!(
        prof.regions().iter().any(|r| r.final_policy != "static"),
        "the controller's per-region decisions must round-trip"
    );
}

#[test]
fn results_carry_their_job_id() {
    let root = TempRoot::new("ids");
    let jobs = suite_jobs();
    let engine = JobEngine::with_store(1, Store::open(&root.0).unwrap());
    for results in [engine.run(&jobs), JobEngine::serial().run(&jobs)] {
        for (job, result) in jobs.iter().zip(&results) {
            assert_eq!(result.job_id, Some(job.job_id()), "engine results echo the job id");
        }
    }
}
