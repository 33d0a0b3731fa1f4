//! The `SELCACHE_STORE` environment variable backs a binary's engine with
//! a persistent store when `--store` is absent: a second identical `sweep`
//! run answers every job from the store the first one filled, also when
//! two processes filled it at once.

use selcache_core::json::Json;
use selcache_core::Store;
use std::path::Path;
use std::process::{Command, Output, Stdio};

/// A `sweep` over Adi's exact latency axis at Tiny, one thread, JSON out,
/// with `SELCACHE_STORE=store`; `latencies` narrows the axis.
fn sweep(store: &Path, latencies: Option<&str>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    cmd.args(["--benchmark", "adi", "--scale", "tiny", "--mode", "exact"])
        .args(["--threads", "1", "--format", "json"])
        .env("SELCACHE_STORE", store);
    if let Some(l) = latencies {
        cmd.args(["--latencies", l]);
    }
    cmd
}

/// The `engine` counters of a finished, successful `sweep`.
fn engine_stats(out: Output) -> Json {
    assert!(out.status.success(), "sweep failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    let json = Json::parse(text.trim()).unwrap_or_else(|e| panic!("bad JSON {text:?}: {e}"));
    json.get("engine").cloned().expect("engine counters")
}

fn counter(engine: &Json, key: &str) -> u64 {
    engine.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing {key} in {engine}"))
}

#[test]
fn sweep_reads_store_root_from_environment() {
    let store = std::env::temp_dir().join(format!("selcache-store-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let cold = engine_stats(sweep(&store, Some("100")).output().expect("run sweep"));
    assert_eq!(counter(&cold, "store_hits"), 0, "cold run: {cold}");
    assert!(counter(&cold, "executed") > 0, "cold run simulates: {cold}");

    let warm = engine_stats(sweep(&store, Some("100")).output().expect("run sweep"));
    let _ = std::fs::remove_dir_all(&store);
    assert_eq!(counter(&warm, "executed"), 0, "warm run must not simulate: {warm}");
    assert_eq!(counter(&warm, "store_hits"), counter(&cold, "executed"), "{warm}");
}

#[test]
fn concurrent_sweeps_leave_one_complete_entry_per_job() {
    let store = std::env::temp_dir().join(format!("selcache-store-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    // Both children run before either is waited on, so they put the same
    // job ids into the store at the same time.
    let spawn = || {
        sweep(&store, None)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sweep")
    };
    let (a, b) = (spawn(), spawn());
    let racers = [a, b].map(|c| engine_stats(c.wait_with_output().expect("wait for sweep")));

    let warm = engine_stats(sweep(&store, None).output().expect("run sweep"));
    let jobs = counter(&warm, "store_hits");
    assert_eq!(counter(&warm, "executed"), 0, "warm run must not simulate: {warm}");
    for r in &racers {
        assert_eq!(counter(r, "executed") + counter(r, "store_hits"), jobs, "{r}");
    }
    // Nothing but the racers filled the store, so each job ran in one of them.
    let executed: u64 = racers.iter().map(|r| counter(r, "executed")).sum();
    assert!(executed >= jobs, "{executed} executed for {jobs} jobs");

    // Every entry written under contention is complete and parses.
    let report = Store::open(&store).expect("open store").gc(None).expect("gc");
    let _ = std::fs::remove_dir_all(&store);
    assert_eq!(report.removed, 0, "{report:?}");
    assert_eq!(report.tmp_removed, 0, "{report:?}");
    assert_eq!(report.kept as u64, jobs, "{report:?}");
}
