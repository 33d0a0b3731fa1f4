//! In-process integration test of the `selcached` service: a server on a
//! temp socket, concurrent clients with overlapping job sets, cross-client
//! dedup through the shared store, clients that drop mid-stream, the cap on
//! open connections, the `--once` client's exit status, and graceful
//! shutdown.
#![cfg(unix)]

use selcache_bench::service::{self, Server};
use selcache_core::json::Json;
use selcache_core::{JobEngine, Store};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The shutdown latch is process-wide, so tests that run a server must not
/// overlap; each takes this lock for its whole body.
static SERVER_LOCK: Mutex<()> = Mutex::new(());

/// A self-cleaning scratch directory (same pattern as the core store
/// tests: temp_dir + pid + sequence number).
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "selcached-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create temp root");
        TempRoot(path)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sends one request line and returns the parsed response lines.
fn request(sock: &Path, line: &str) -> Vec<Json> {
    let mut out = Vec::new();
    service::request_once(sock, line, &mut out).expect("request");
    let text = String::from_utf8(out).expect("utf8 response");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad response line {l:?}: {e}")))
        .collect()
}

fn kind(j: &Json) -> &str {
    j.get("kind").and_then(Json::as_str).unwrap_or("")
}

fn uint(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing uint {key} in {j}"))
}

/// Connect-retry until the server thread has bound the socket.
fn await_server(sock: &Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if UnixStream::connect(sock).is_ok() {
            return;
        }
        assert!(Instant::now() < deadline, "server never came up on {}", sock.display());
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_clients_share_one_store() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    service::reset_shutdown();
    let root = TempRoot::new("svc");
    let sock = root.0.join("selcached.sock");
    let store = Store::open(root.0.join("store")).expect("open store");
    let server = Server::bind(&sock, JobEngine::with_store(2, store)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    await_server(&sock);

    // Bad input is answered, not fatal: the connection and server live on.
    let lines = request(&sock, "this is not json");
    assert_eq!(lines.len(), 1);
    assert_eq!(kind(&lines[0]), "error");
    let lines = request(&sock, r#"{"op":"run","jobs":[{"benchmark":"nope","version":"base"}]}"#);
    assert_eq!(kind(&lines[0]), "error");
    let lines = request(&sock, r#"{"op":"ping"}"#);
    assert_eq!(kind(&lines[0]), "pong");

    // Warm one job so the later concurrent clients deterministically see
    // cross-client store hits no matter how their runs interleave.
    const SHARED: &str = r#"{"benchmark":"vpenta","scale":"tiny","machine":"base","assist":"bypass","version":"selective"}"#;
    let warm = request(&sock, &format!(r#"{{"op":"run","jobs":[{SHARED}]}}"#));
    assert_eq!(warm.len(), 2, "one result line + one done line: {warm:?}");
    assert_eq!(kind(&warm[0]), "result");
    assert_eq!(warm[0].get("benchmark").and_then(Json::as_str), Some("Vpenta"));
    let warm_id = warm[0].get("job_id").and_then(Json::as_str).expect("job_id").to_string();
    assert_eq!(warm_id.len(), 32, "job_id is a 128-bit hex string: {warm_id}");
    assert_eq!(kind(&warm[1]), "done");
    assert_eq!(uint(warm[1].get("engine").expect("engine"), "store_misses"), 1);

    // Two concurrent clients, overlapping job sets: both include the warmed
    // job plus a private one.
    let mk_req = |private: &str| {
        format!(
            r#"{{"op":"run","jobs":[{SHARED},{{"benchmark":{private:?},"scale":"tiny","version":"base"}}]}}"#
        )
    };
    let sock_a = sock.clone();
    let req_a = mk_req("adi");
    let client_a = std::thread::spawn(move || request(&sock_a, &req_a));
    let sock_b = sock.clone();
    let req_b = mk_req("swim");
    let client_b = std::thread::spawn(move || request(&sock_b, &req_b));
    let lines_a = client_a.join().expect("client a");
    let lines_b = client_b.join().expect("client b");

    for (label, lines) in [("a", &lines_a), ("b", &lines_b)] {
        assert_eq!(lines.len(), 3, "client {label}: 2 results + done: {lines:?}");
        assert_eq!(kind(&lines[0]), "result");
        assert_eq!(kind(&lines[1]), "result");
        assert_eq!(uint(&lines[0], "index"), 0);
        assert_eq!(uint(&lines[1], "index"), 1);
        // The shared job is already in the store: each client's engine run
        // reports at least that one store hit — dedup across clients.
        let engine = lines[2].get("engine").expect("done.engine");
        assert!(
            uint(engine, "store_hits") >= 1,
            "client {label} should hit the warmed entry: {engine}"
        );
        // Shared identity resolves to the same job_id for every client.
        assert_eq!(lines[0].get("job_id").and_then(Json::as_str), Some(warm_id.as_str()));
        assert!(uint(&lines[0], "cycles") > 0);
    }

    // Lifetime stats aggregate all of it.
    let stats = request(&sock, r#"{"op":"stats"}"#);
    assert_eq!(stats.len(), 1);
    let s = &stats[0];
    assert_eq!(kind(s), "stats");
    assert_eq!(uint(s, "jobs"), 5, "1 warm + 2 + 2: {s}");
    assert_eq!(uint(s, "requests"), 3);
    assert!(uint(s, "store_hits") >= 2, "both clients hit the shared entry: {s}");
    // 3 unique identities were ever simulated (shared, adi, swim).
    assert_eq!(uint(s, "executed"), 3);
    assert!(uint(s, "bytes_written") > 0);
    assert!(s.get("store").and_then(Json::as_str).is_some(), "stats names the store root");
    // Pool-saturation fields: the engine's thread budget and the jobs
    // currently inside the engine (none, from an idle stats connection).
    assert_eq!(uint(s, "threads"), 2);
    assert_eq!(uint(s, "in_flight_jobs"), 0, "no run in flight during stats: {s}");

    // Graceful shutdown over the wire: server thread exits, socket is gone.
    let bye = request(&sock, r#"{"op":"shutdown"}"#);
    assert_eq!(kind(&bye[0]), "bye");
    server_thread.join().expect("server thread");
    assert!(!sock.exists(), "socket file removed on shutdown");
    service::reset_shutdown();
}

#[test]
fn client_dropping_mid_stream_leaves_server_and_results_intact() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    service::reset_shutdown();
    let root = TempRoot::new("drop");
    let sock = root.0.join("drop.sock");
    let store = Store::open(root.0.join("store")).expect("open store");
    let server = Server::bind(&sock, JobEngine::with_store(1, store)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    await_server(&sock);

    // Send a run request and hang up without reading. The server must
    // survive the lost client and still finish and store the run.
    const RUN: &str = r#"{"op":"run","jobs":[{"benchmark":"adi","scale":"tiny","version":"base"},{"benchmark":"li","scale":"tiny","version":"base"}]}"#;
    let mut dropped = UnixStream::connect(&sock).expect("connect");
    dropped.write_all(format!("{RUN}\n").as_bytes()).expect("send run");
    drop(dropped);

    // The run still completes from the server's side.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = request(&sock, r#"{"op":"stats"}"#);
        if uint(&stats[0], "executed") == 2 && uint(&stats[0], "in_flight_jobs") == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "dropped client's run never finished: {}", stats[0]);
        std::thread::sleep(Duration::from_millis(20));
    }
    let lines = request(&sock, r#"{"op":"ping"}"#);
    assert_eq!(kind(&lines[0]), "pong");

    // The dropped client's results were stored: a new client gets both
    // from the store.
    let lines = request(&sock, RUN);
    assert_eq!(lines.len(), 3, "2 results + done: {lines:?}");
    assert_eq!(kind(&lines[0]), "result");
    assert_eq!(kind(&lines[1]), "result");
    assert_eq!(uint(lines[2].get("engine").expect("done.engine"), "store_hits"), 2);

    let bye = request(&sock, r#"{"op":"shutdown"}"#);
    assert_eq!(kind(&bye[0]), "bye");
    server_thread.join().expect("server thread");
    service::reset_shutdown();
}

#[test]
fn store_maintenance_ops_inspect_and_reclaim() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    service::reset_shutdown();
    let root = TempRoot::new("maint");
    let sock = root.0.join("maint.sock");
    let store_root = root.0.join("store");
    let store = Store::open(&store_root).expect("open store");
    let server = Server::bind(&sock, JobEngine::with_store(1, store)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    await_server(&sock);

    // An empty store reports zero entries.
    let lines = request(&sock, r#"{"op":"store-stats"}"#);
    assert_eq!(lines.len(), 1);
    assert_eq!(kind(&lines[0]), "store-stats");
    assert_eq!(uint(&lines[0], "entries"), 0);
    assert_eq!(
        lines[0].get("root").and_then(Json::as_str),
        Some(store_root.display().to_string().as_str())
    );

    // Populate two entries (one sampled, one exact), then inspect again.
    let lines = request(
        &sock,
        r#"{"op":"run","jobs":[{"benchmark":"vpenta","scale":"tiny","version":"base","mode":"sampled"},{"benchmark":"adi","scale":"tiny","version":"base"}]}"#,
    );
    assert_eq!(lines.len(), 3, "2 results + done: {lines:?}");
    let sampled = lines[0].get("sampled").expect("sampled job reports coverage");
    assert!(uint(sampled, "total_ops") > 0);
    assert!(uint(sampled, "representatives") > 0);
    assert!(lines[1].get("sampled").is_none(), "exact job carries no sampled block");
    let lines = request(&sock, r#"{"op":"store-stats"}"#);
    assert_eq!(uint(&lines[0], "entries"), 2);
    assert!(uint(&lines[0], "bytes") > 0);

    // Plant a corrupt entry; gc keeps the 2 real ones and reclaims it.
    let shard = std::fs::read_dir(&store_root)
        .expect("read store root")
        .map(|e| e.expect("dirent").path())
        .find(|p| p.is_dir())
        .expect("one shard exists");
    std::fs::write(shard.join("deadbeefdeadbeefdeadbeefdeadbeef.json"), "garbage").unwrap();
    let lines = request(&sock, r#"{"op":"gc"}"#);
    assert_eq!(kind(&lines[0]), "gc");
    assert_eq!(uint(&lines[0], "kept"), 2);
    assert_eq!(uint(&lines[0], "removed"), 1);
    assert!(uint(&lines[0], "bytes_freed") > 0);

    // A cutoff that is not a non-negative integer is an error, not a
    // cutoff-free sweep.
    for age in ["\"0\"", "-1", "null"] {
        let lines = request(&sock, &format!(r#"{{"op":"gc","max_age_secs":{age}}}"#));
        assert_eq!(kind(&lines[0]), "error", "max_age_secs {age}: {}", lines[0]);
    }
    let lines = request(&sock, r#"{"op":"store-stats"}"#);
    assert_eq!(uint(&lines[0], "entries"), 2);

    // An aggressive age cutoff clears everything.
    let lines = request(&sock, r#"{"op":"gc","max_age_secs":0}"#);
    assert_eq!(uint(&lines[0], "kept"), 0);
    assert_eq!(uint(&lines[0], "removed"), 2);
    let lines = request(&sock, r#"{"op":"store-stats"}"#);
    assert_eq!(uint(&lines[0], "entries"), 0);

    let bye = request(&sock, r#"{"op":"shutdown"}"#);
    assert_eq!(kind(&bye[0]), "bye");
    server_thread.join().expect("server thread");
    service::reset_shutdown();
}

#[test]
fn store_maintenance_ops_error_without_a_store() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    service::reset_shutdown();
    let root = TempRoot::new("nostore");
    let sock = root.0.join("nostore.sock");
    let server = Server::bind(&sock, JobEngine::new(1)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    await_server(&sock);

    for op in [r#"{"op":"store-stats"}"#, r#"{"op":"gc"}"#] {
        let lines = request(&sock, op);
        assert_eq!(lines.len(), 1);
        assert_eq!(kind(&lines[0]), "error", "{op} must error store-less: {}", lines[0]);
        let msg = lines[0].get("message").and_then(Json::as_str).unwrap_or("");
        assert!(msg.contains("no store"), "{msg}");
    }

    let bye = request(&sock, r#"{"op":"shutdown"}"#);
    assert_eq!(kind(&bye[0]), "bye");
    server_thread.join().expect("server thread");
    service::reset_shutdown();
}

/// `selcached --once`, the built binary, exits by the answer: 0 for a
/// served request, 1 for an `"ok":false` line, which it still prints.
#[test]
fn once_client_exit_status_follows_the_answer() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    service::reset_shutdown();
    let root = TempRoot::new("once");
    let sock = root.0.join("once.sock");
    let server = Server::bind(&sock, JobEngine::new(1)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    await_server(&sock);

    let once = |line: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_selcached"))
            .arg("--socket")
            .arg(&sock)
            .arg("--once")
            .arg(line)
            .output()
            .expect("run selcached --once");
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        let answer = Json::parse(stdout.trim())
            .unwrap_or_else(|e| panic!("one answer line on stdout, got {stdout:?}: {e}"));
        (out.status.code(), answer)
    };
    let (status, answer) = once(r#"{"op":"ping"}"#);
    assert_eq!(status, Some(0), "{answer}");
    assert_eq!(kind(&answer), "pong");
    let (status, answer) = once(r#"{"op":"frobnicate"}"#);
    assert_eq!(status, Some(1), "{answer}");
    assert_eq!(kind(&answer), "error");
    assert_eq!(answer.get("ok"), Some(&Json::Bool(false)));
    let msg = answer.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("unknown op"), "{msg}");

    let bye = request(&sock, r#"{"op":"shutdown"}"#);
    assert_eq!(kind(&bye[0]), "bye");
    server_thread.join().expect("server thread");
    service::reset_shutdown();
}

#[test]
fn dynamic_policy_requests_echo_controller_stats() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    service::reset_shutdown();
    let root = TempRoot::new("dyn");
    let sock = root.0.join("dyn.sock");
    let store = Store::open(root.0.join("store")).expect("open store");
    let server = Server::bind(&sock, JobEngine::with_store(2, store)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    await_server(&sock);

    // The same selective job twice — once static, once under the adapt
    // controller. They are distinct identities with distinct result lines.
    const REQ: &str = r#"{"op":"run","jobs":[{"benchmark":"li","scale":"tiny","version":"selective"},{"benchmark":"li","scale":"tiny","version":"selective","policy":"dynamic"}]}"#;
    let lines = request(&sock, REQ);
    assert_eq!(lines.len(), 3, "2 results + done: {lines:?}");
    let (st, dy) = (&lines[0], &lines[1]);
    assert_eq!(kind(st), "result");
    assert!(st.get("policy").is_none(), "static job carries no policy echo: {st}");
    assert_eq!(dy.get("policy").and_then(Json::as_str), Some("dynamic"));
    assert!(uint(dy, "policy_switches") > 0, "controller must act on Li: {dy}");
    assert_ne!(
        st.get("job_id").and_then(Json::as_str),
        dy.get("job_id").and_then(Json::as_str),
        "dynamic and static runs are distinct identities"
    );
    assert_eq!(uint(lines[2].get("engine").expect("engine"), "store_misses"), 2);

    // A warm rerun answers both from the store, with identical stats.
    let warm = request(&sock, REQ);
    assert_eq!(warm[1].to_string(), dy.to_string(), "warm dynamic line is byte-identical");
    let engine = warm[2].get("engine").expect("engine");
    assert_eq!(uint(engine, "store_hits"), 2);
    assert_eq!(uint(engine, "executed"), 0);

    // An unknown policy is a request error, not a crash.
    let bad = request(
        &sock,
        r#"{"op":"run","jobs":[{"benchmark":"li","version":"selective","policy":"oracle"}]}"#,
    );
    assert_eq!(kind(&bad[0]), "error");

    let bye = request(&sock, r#"{"op":"shutdown"}"#);
    assert_eq!(kind(&bye[0]), "bye");
    server_thread.join().expect("server thread");
    service::reset_shutdown();
}

#[test]
fn profiled_requests_report_regions() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    service::reset_shutdown();
    // A store-less engine also covers that configuration of the service.
    let root = TempRoot::new("prof");
    let sock = root.0.join("prof.sock");
    let server = Server::bind(&sock, JobEngine::new(1)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    await_server(&sock);

    let lines = request(
        &sock,
        r#"{"op":"run","profiled":true,"jobs":[{"benchmark":"adi","scale":"tiny","version":"selective"}]}"#,
    );
    assert_eq!(lines.len(), 2);
    assert_eq!(kind(&lines[0]), "result");
    assert!(uint(&lines[0], "regions") > 0, "profiled result carries regions: {}", lines[0]);
    let engine = lines[1].get("engine").expect("engine");
    assert_eq!(uint(engine, "store_hits"), 0);
    assert_eq!(uint(engine, "bytes_written"), 0, "no store attached");

    let bye = request(&sock, r#"{"op":"shutdown"}"#);
    assert_eq!(kind(&bye[0]), "bye");
    server_thread.join().expect("server thread");
    service::reset_shutdown();
}

#[test]
fn hostile_lines_are_answered_not_fatal() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    service::reset_shutdown();
    let root = TempRoot::new("hostile");
    let sock = root.0.join("hostile.sock");
    let server = Server::bind(&sock, JobEngine::new(1)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    await_server(&sock);

    // Nesting deep enough to overflow a recursive parser's stack, yet far
    // under the 1 MiB line cap, is an error line; the server lives on.
    let deep = "[".repeat(10_000);
    let lines = request(&sock, &deep);
    assert_eq!(lines.len(), 1);
    assert_eq!(lines[0].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(kind(&lines[0]), "error");
    let msg = lines[0].get("message").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("nesting deeper than 128 levels"), "{msg}");
    let lines = request(&sock, r#"{"op":"ping"}"#);
    assert_eq!(kind(&lines[0]), "pong");

    // Wrong-typed fields are errors that name the field, and nothing runs.
    let lines = request(
        &sock,
        r#"{"op":"run","profiled":"yes","jobs":[{"benchmark":"li","version":"base"}]}"#,
    );
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert_eq!(kind(&lines[0]), "error");
    let msg = lines[0].get("message").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("\"profiled\" must be a bool"), "{msg}");
    let lines = request(
        &sock,
        r#"{"op":"run","jobs":[{"benchmark":"li","version":"base","scale":5,"machine":7,"policy":true,"mode":1}]}"#,
    );
    assert_eq!(kind(&lines[0]), "error");
    let msg = lines[0].get("message").and_then(Json::as_str).unwrap_or("");
    assert_eq!(msg, r#"jobs[0]: "scale" must be a string"#);
    let stats = request(&sock, r#"{"op":"stats"}"#);
    assert_eq!(uint(&stats[0], "executed"), 0, "rejected requests simulate nothing");
    assert_eq!(uint(&stats[0], "requests"), 0);

    let bye = request(&sock, r#"{"op":"shutdown"}"#);
    assert_eq!(kind(&bye[0]), "bye");
    server_thread.join().expect("server thread");
    service::reset_shutdown();
}

/// Sends `ping` on `stream` and parses the first response line. A refused
/// connection may be closed before the ping is written, but its one error
/// line is still there to read.
fn ping_on(stream: &UnixStream) -> Json {
    let _ = (&*stream).write_all(b"{\"op\":\"ping\"}\n");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read response line");
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
}

/// Opens a connection the server serves, retrying while the handlers of
/// connections that just closed have not yet finished.
fn served_connection(sock: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stream = UnixStream::connect(sock).expect("connect");
        let reply = ping_on(&stream);
        if kind(&reply) == "pong" {
            return stream;
        }
        assert!(Instant::now() < deadline, "never served: {reply}");
        drop(stream);
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn connections_beyond_the_cap_are_refused() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    service::reset_shutdown();
    let root = TempRoot::new("cap");
    let sock = root.0.join("cap.sock");
    let server = Server::bind(&sock, JobEngine::new(1)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    await_server(&sock);

    // Exactly the cap's number of idle, served clients...
    let mut idle: Vec<UnixStream> =
        (0..service::MAX_CONNECTIONS).map(|_| served_connection(&sock)).collect();
    // ...and one more, which gets one error line and is closed.
    let lines = request(&sock, r#"{"op":"ping"}"#);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert_eq!(kind(&lines[0]), "error");
    let msg = lines[0].get("message").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("server busy"), "{msg}");

    // Once one idle client hangs up, a new connection is served.
    drop(idle.pop());
    drop(served_connection(&sock));

    drop(idle);
    service::request_shutdown();
    server_thread.join().expect("server thread");
    service::reset_shutdown();
}
