//! The `SELCACHE_STORE` environment variable backs a binary's engine with
//! a persistent store when `--store` is absent: a second identical `sweep`
//! run answers every job from the store the first one filled.

use selcache_core::json::Json;
use std::path::PathBuf;
use std::process::Command;

/// Runs `sweep` on a one-point exact grid with `SELCACHE_STORE=store` and
/// returns its `engine` counters.
fn sweep_engine_stats(store: &PathBuf) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--benchmark", "adi", "--scale", "tiny", "--mode", "exact"])
        .args(["--latencies", "100", "--threads", "1", "--format", "json"])
        .env("SELCACHE_STORE", store)
        .output()
        .expect("run sweep");
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

    let cold = sweep_engine_stats(&store);
    assert_eq!(counter(&cold, "store_hits"), 0, "cold run: {cold}");
    assert!(counter(&cold, "executed") > 0, "cold run simulates: {cold}");

    let warm = sweep_engine_stats(&store);
    let _ = std::fs::remove_dir_all(&store);
    assert_eq!(counter(&warm, "executed"), 0, "warm run must not simulate: {warm}");
    assert_eq!(counter(&warm, "store_hits"), counter(&cold, "executed"), "{warm}");
}
