//! The `selcached` service: a long-running unix-socket server wrapping one
//! shared [`JobEngine`] (and usually a persistent [`selcache_core::Store`])
//! so repeated
//! sweeps from many clients are answered from a single warm cache.
//!
//! # Protocol
//!
//! Newline-delimited JSON, one request object per line, answered by one or
//! more response lines (each a JSON object with an `"ok"` boolean and a
//! `"kind"` tag):
//!
//! | request | response lines |
//! |---|---|
//! | `{"op":"ping"}` | `{"ok":true,"kind":"pong"}` |
//! | `{"op":"stats"}` | `{"ok":true,"kind":"stats",...}` server-lifetime totals, plus the engine's `threads` budget and the current `in_flight_jobs` count (pool saturation) |
//! | `{"op":"store-stats"}` | `{"ok":true,"kind":"store-stats",...}` entry/byte counts of the backing store |
//! | `{"op":"gc"}` | `{"ok":true,"kind":"gc",...}` reclaims corrupt/stale store entries; optional `"max_age_secs"` also drops entries older than the cutoff |
//! | `{"op":"shutdown"}` | `{"ok":true,"kind":"bye"}`, then the server drains and exits |
//! | `{"op":"run","jobs":[...]}` | one `"result"` line per job (submission order), then a `"done"` line |
//!
//! `store-stats` and `gc` answer with an error on a store-less server —
//! there is nothing to inspect or reclaim.
//!
//! A job object names its execution identity with the same vocabulary the
//! CLI binaries use (all string fields are case-insensitive and ignore
//! punctuation):
//!
//! ```json
//! {"benchmark": "vpenta", "scale": "tiny", "machine": "base",
//!  "assist": "bypass", "version": "selective"}
//! ```
//!
//! `machine` is one of the six Table 3 configurations (`base`,
//! `higher-mem-latency`, `larger-l2`, `larger-l1`, `higher-l2-assoc`,
//! `higher-l1-assoc`); `version` is `base`, `pure-hardware`,
//! `pure-software`, `combined`, or `selective`; `assist` is `none`,
//! `bypass`, `victim`, or `stream`; an optional `"mode"` of `"sampled"`
//! runs the job with SimPoint-style interval sampling (result lines then
//! carry a `sampled` coverage object). An optional `"policy"` of
//! `"dynamic"` attaches the online `selcache-adapt` controller (default
//! configuration) to the job; its result line then echoes the controller
//! stats as `"policy":"dynamic"` plus the `policy_switches` count. A
//! request-level `"profiled": true`
//! runs the set with region attribution (result lines then carry a
//! `regions` count). Each `"result"` line echoes the job's stable
//! `job_id`; the `"done"` line carries the engine counters for the
//! request, so clients see how much of their sweep was answered by the
//! store (cross-client dedup shows up here as `store_hits`), and how many
//! of the identities it simulated shared another's simulation (`shared`).
//!
//! A field present with another JSON type than the one documented here
//! (`null` included) is an error naming the field, never its default.
//! Malformed lines, and lines nesting deeper than
//! [`MAX_DEPTH`](selcache_core::json::MAX_DEPTH), never kill the
//! connection: they are answered with
//! `{"ok":false,"kind":"error","message":...}` and the server reads on.
//! The server holds at most [`MAX_CONNECTIONS`] connections open; one more
//! is answered with a single error line and closed.
//!
//! # Shutdown
//!
//! [`request_shutdown`] flips a process-wide flag (async-signal-safe — the
//! `selcached` binary calls it from its SIGINT/SIGTERM handlers); the
//! accept loop and every connection handler poll it, so in-flight requests
//! finish, sockets drain, and [`Server::run`] returns after removing the
//! socket file. The `shutdown` op does the same from the wire.
use crate::engine_stats_json;
use crate::parse_benchmark;
use selcache_core::json::Json;
use selcache_core::store::sampled_to_json;
use selcache_core::{
    AssistKind, ConfigVariant, ControllerConfig, EngineStats, JobEngine, Scale, SimJob, SimMode,
    SimResult, Version,
};
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Process-wide shutdown latch; see [`request_shutdown`].
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// How often idle loops (accept, blocked reads) re-check [`SHUTDOWN`].
const POLL: Duration = Duration::from_millis(25);

/// Hard cap on bytes buffered for a single request line; a client that
/// exceeds it gets an error and is disconnected.
const MAX_LINE: usize = 1 << 20;

/// Most connections served at once, each on its own thread. A connection
/// beyond it gets one error line and is closed.
pub const MAX_CONNECTIONS: usize = 64;

/// Asks the server (and every open connection) to wind down. Safe to call
/// from a signal handler: it is a single atomic store.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Whether [`request_shutdown`] has been called.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Re-arms the latch so a test (or a supervisor restarting the service
/// in-process) can run another [`Server`].
pub fn reset_shutdown() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Server-lifetime counters, summed over every `run` request.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    connections: u64,
    requests: u64,
    jobs: u64,
    executed: u64,
    shared: u64,
    dedup_hits: u64,
    store_hits: u64,
    store_misses: u64,
    bytes_written: u64,
}

impl Totals {
    fn absorb(&mut self, stats: &EngineStats) {
        self.requests += 1;
        self.jobs += stats.submitted as u64;
        self.executed += stats.executed as u64;
        self.shared += stats.shared as u64;
        self.dedup_hits += stats.dedup_hits as u64;
        self.store_hits += stats.store_hits as u64;
        self.store_misses += stats.store_misses as u64;
        self.bytes_written += stats.bytes_written;
    }
}

/// Shared server state: the engine (itself freely shareable — its store
/// writes are atomic), the lifetime totals, and the number of jobs
/// currently inside [`JobEngine::run`] across all connections (the pool-
/// saturation signal `stats` reports next to the thread budget).
struct ServerState {
    engine: JobEngine,
    totals: Mutex<Totals>,
    in_flight: AtomicU64,
}

impl ServerState {
    /// The lifetime totals, also after a handler panicked while holding
    /// them: they are plain counters, valid after every single update.
    fn totals(&self) -> MutexGuard<'_, Totals> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bound `selcached` listener; [`Server::run`] serves until shutdown.
pub struct Server {
    listener: UnixListener,
    path: PathBuf,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the service socket, replacing a stale socket file if one is
    /// left over from a previous run.
    pub fn bind(path: &Path, engine: JobEngine) -> io::Result<Server> {
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(ServerState {
            engine,
            totals: Mutex::new(Totals::default()),
            in_flight: AtomicU64::new(0),
        });
        Ok(Server { listener, path: path.to_path_buf(), state })
    }

    /// The socket path this server is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accepts and serves connections until [`request_shutdown`] (from a
    /// signal handler or a `shutdown` request). In-flight connections are
    /// drained before this returns; the socket file is removed.
    pub fn run(&self) -> io::Result<()> {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !shutdown_requested() {
            match self.listener.accept() {
                Ok((mut stream, _addr)) => {
                    for done in handlers.extract_if(.., |h| h.is_finished()) {
                        join_handler(done);
                    }
                    if handlers.len() >= MAX_CONNECTIONS {
                        let msg = format!("server busy: {MAX_CONNECTIONS} connections open");
                        let _ = write_line(&mut stream, &error_json(&msg));
                        continue;
                    }
                    let state = Arc::clone(&self.state);
                    state.totals().connections += 1;
                    handlers.push(std::thread::spawn(move || handle_conn(stream, &state)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) => return Err(e),
            }
        }
        for h in handlers {
            join_handler(h);
        }
        let _ = std::fs::remove_file(&self.path);
        Ok(())
    }
}

/// Joins a connection handler, printing its panic message, if it panicked,
/// to stderr: one client's failure must not pass silently, nor stop the
/// server.
fn join_handler(handle: JoinHandle<()>) {
    if let Err(payload) = handle.join() {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        eprintln!("selcached: connection handler panicked: {msg}");
    }
}

/// Serves one connection: reads newline-delimited requests, answers each,
/// exits on EOF, error, or shutdown. Reads use a short timeout so an idle
/// connection notices [`request_shutdown`] promptly.
fn handle_conn(mut stream: UnixStream, state: &ServerState) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            match serve_line(&line, state, &mut stream) {
                Ok(false) => {}
                Ok(true) | Err(_) => return,
            }
        }
        if buf.len() > MAX_LINE {
            let _ = write_line(&mut stream, &error_json("request line exceeds 1 MiB"));
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF; a final un-terminated line still gets an answer.
                if !buf.is_empty() {
                    let line = std::mem::take(&mut buf);
                    let _ = serve_line(&line, state, &mut stream);
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown_requested() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Parses and answers one request line. Returns `Ok(true)` when the
/// connection should close (the `shutdown` op).
fn serve_line(raw: &[u8], state: &ServerState, out: &mut UnixStream) -> io::Result<bool> {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return Ok(false);
    }
    let req = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            write_line(out, &error_json(&format!("bad JSON: {e}")))?;
            return Ok(false);
        }
    };
    let op = req.get("op").and_then(Json::as_str).unwrap_or("");
    match op {
        "ping" => {
            write_line(out, &Json::obj([("ok", Json::Bool(true)), ("kind", Json::str("pong"))]))?;
            Ok(false)
        }
        "stats" => {
            let totals = *state.totals();
            write_line(out, &stats_json(state, &totals))?;
            Ok(false)
        }
        "store-stats" => {
            match state.engine.store() {
                Some(store) => {
                    let s = store.stats();
                    write_line(
                        out,
                        &Json::obj([
                            ("ok", Json::Bool(true)),
                            ("kind", Json::str("store-stats")),
                            ("root", Json::str(store.root().display().to_string())),
                            ("entries", Json::UInt(s.entries as u64)),
                            ("bytes", Json::UInt(s.bytes)),
                        ]),
                    )?;
                }
                None => write_line(out, &error_json("server has no store"))?,
            }
            Ok(false)
        }
        "gc" => {
            match state.engine.store() {
                Some(store) => {
                    let max_age = match req.get("max_age_secs") {
                        None => None,
                        Some(Json::UInt(secs)) => Some(Duration::from_secs(*secs)),
                        Some(_) => {
                            write_line(
                                out,
                                &error_json("\"max_age_secs\" must be a non-negative integer"),
                            )?;
                            return Ok(false);
                        }
                    };
                    match store.gc(max_age) {
                        Ok(r) => write_line(
                            out,
                            &Json::obj([
                                ("ok", Json::Bool(true)),
                                ("kind", Json::str("gc")),
                                ("kept", Json::UInt(r.kept as u64)),
                                ("removed", Json::UInt(r.removed as u64)),
                                ("tmp_removed", Json::UInt(r.tmp_removed as u64)),
                                ("bytes_freed", Json::UInt(r.bytes_freed)),
                            ]),
                        )?,
                        Err(e) => write_line(out, &error_json(&format!("gc failed: {e}")))?,
                    }
                }
                None => write_line(out, &error_json("server has no store"))?,
            }
            Ok(false)
        }
        "shutdown" => {
            write_line(out, &Json::obj([("ok", Json::Bool(true)), ("kind", Json::str("bye"))]))?;
            request_shutdown();
            Ok(true)
        }
        "run" => {
            serve_run(&req, state, out)?;
            Ok(false)
        }
        other => {
            write_line(
                out,
                &error_json(&format!(
                    "unknown op {other:?}; use ping | stats | store-stats | gc | run | shutdown"
                )),
            )?;
            Ok(false)
        }
    }
}

/// Answers a `run` request: parse every job up front (one bad job fails
/// the whole request, nothing is simulated), execute through the shared
/// engine, stream per-job result lines, close with a `done` line.
fn serve_run(req: &Json, state: &ServerState, out: &mut UnixStream) -> io::Result<()> {
    let Some(specs) = req.get("jobs").and_then(Json::as_arr) else {
        return write_line(out, &error_json("run needs a \"jobs\" array"));
    };
    let profiled = match req.get("profiled") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return write_line(out, &error_json("\"profiled\" must be a bool")),
    };
    let mut jobs: Vec<SimJob> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        match job_from_json(spec) {
            Ok(job) => jobs.push(job),
            Err(msg) => return write_line(out, &error_json(&format!("jobs[{i}]: {msg}"))),
        }
    }
    state.in_flight.fetch_add(jobs.len() as u64, Ordering::AcqRel);
    let (results, stats) = if profiled {
        state.engine.run_profiled_with_stats(&jobs)
    } else {
        state.engine.run_with_stats(&jobs)
    };
    state.in_flight.fetch_sub(jobs.len() as u64, Ordering::AcqRel);
    state.totals().absorb(&stats);
    for (i, r) in results.iter().enumerate() {
        write_line(out, &result_json(i, &jobs[i], r))?;
    }
    write_line(
        out,
        &Json::obj([
            ("ok", Json::Bool(true)),
            ("kind", Json::str("done")),
            ("jobs", Json::UInt(results.len() as u64)),
            ("engine", engine_stats_json(&stats)),
        ]),
    )
}

/// One `result` response line: the job's identity echo plus the headline
/// counters (full per-region detail stays with the `regions` binary).
fn result_json(index: usize, job: &SimJob, r: &SimResult) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("kind", Json::str("result")),
        ("index", Json::UInt(index as u64)),
        ("benchmark", Json::str(job.benchmark.name())),
        ("job_id", Json::str(r.job_id.map(|id| id.to_string()).unwrap_or_default())),
        ("cycles", Json::UInt(r.cycles)),
        ("instructions", Json::UInt(r.instructions)),
        ("l1d_miss_pct", Json::Num(r.l1_miss_pct())),
        ("l2_miss_pct", Json::Num(r.l2_miss_pct())),
    ];
    if job.machine.mem.controller.is_some() {
        pairs.push(("policy", Json::str("dynamic")));
        pairs.push(("policy_switches", Json::UInt(r.mem.assist.adapt_switches)));
    }
    if let Some(profile) = &r.regions {
        pairs.push(("regions", Json::UInt(profile.regions().len() as u64)));
    }
    if let Some(info) = &r.sampled {
        pairs.push(("sampled", sampled_to_json(info)));
    }
    Json::obj(pairs)
}

/// The `stats` response: lifetime totals plus the engine's shape.
fn stats_json(state: &ServerState, totals: &Totals) -> Json {
    let store = match state.engine.store() {
        Some(s) => Json::str(s.root().display().to_string()),
        None => Json::Bool(false),
    };
    Json::obj([
        ("ok", Json::Bool(true)),
        ("kind", Json::str("stats")),
        ("connections", Json::UInt(totals.connections)),
        ("requests", Json::UInt(totals.requests)),
        ("jobs", Json::UInt(totals.jobs)),
        ("executed", Json::UInt(totals.executed)),
        ("shared", Json::UInt(totals.shared)),
        ("dedup_hits", Json::UInt(totals.dedup_hits)),
        ("store_hits", Json::UInt(totals.store_hits)),
        ("store_misses", Json::UInt(totals.store_misses)),
        ("bytes_written", Json::UInt(totals.bytes_written)),
        ("threads", Json::UInt(state.engine.threads() as u64)),
        ("in_flight_jobs", Json::UInt(state.in_flight.load(Ordering::Acquire))),
        ("store", store),
    ])
}

fn error_json(msg: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("kind", Json::str("error")),
        ("message", Json::str(msg)),
    ])
}

fn write_line(out: &mut UnixStream, j: &Json) -> io::Result<()> {
    let mut text = j.to_string();
    text.push('\n');
    out.write_all(text.as_bytes())
}

/// Canonicalizes a protocol token the same way [`parse_benchmark`] does:
/// lowercase alphanumerics only, so `"Higher L2 Assoc"`, `"higher-l2-assoc"`
/// and `"HIGHERL2ASSOC"` all agree.
fn canon(s: &str) -> String {
    s.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_ascii_lowercase()
}

fn parse_machine(s: &str) -> Option<ConfigVariant> {
    ConfigVariant::ALL.into_iter().find(|v| canon(&format!("{v:?}")) == canon(s))
}

fn parse_version(s: &str) -> Option<Version> {
    match canon(s).as_str() {
        "base" => Some(Version::Base),
        "purehardware" | "purehw" => Some(Version::PureHardware),
        "puresoftware" | "puresw" => Some(Version::PureSoftware),
        "combined" => Some(Version::Combined),
        "selective" => Some(Version::Selective),
        _ => None,
    }
}

fn parse_assist(s: &str) -> Option<AssistKind> {
    match canon(s).as_str() {
        "none" => Some(AssistKind::None),
        "bypass" => Some(AssistKind::Bypass),
        "victim" => Some(AssistKind::Victim),
        "stream" => Some(AssistKind::Stream),
        _ => None,
    }
}

/// Builds a [`SimJob`] from a protocol job object. `benchmark` and
/// `version` are required; `scale` defaults to `tiny`, `machine` to the
/// base configuration, `assist` to `bypass` (the paper's primary assist).
/// Every field is a string: one of another JSON type (`null` included) is
/// an error naming it, never its default.
fn job_from_json(spec: &Json) -> Result<SimJob, String> {
    let field = |key: &str| match spec.get(key) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.as_str())),
        Some(_) => Err(format!("{key:?} must be a string")),
    };
    let benchmark = match field("benchmark")? {
        Some(s) => parse_benchmark(s).ok_or_else(|| format!("unknown benchmark {s:?}"))?,
        None => return Err("missing \"benchmark\"".into()),
    };
    let version = match field("version")? {
        Some(s) => parse_version(s).ok_or_else(|| format!("unknown version {s:?}"))?,
        None => return Err("missing \"version\"".into()),
    };
    let scale = match field("scale")? {
        Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale {s:?}"))?,
        None => Scale::Tiny,
    };
    let machine = match field("machine")? {
        Some(s) => parse_machine(s).ok_or_else(|| format!("unknown machine {s:?}"))?.machine(),
        None => ConfigVariant::Base.machine(),
    };
    let assist = match field("assist")? {
        Some(s) => parse_assist(s).ok_or_else(|| format!("unknown assist {s:?}"))?,
        None => AssistKind::Bypass,
    };
    let mode = match field("mode")? {
        Some(s) => match canon(s).as_str() {
            "exact" => SimMode::Exact,
            "sampled" => SimMode::sampled(),
            _ => return Err(format!("unknown mode {s:?}")),
        },
        None => SimMode::Exact,
    };
    let job = SimJob::new(benchmark, scale, machine, assist, version).with_mode(mode);
    match field("policy")? {
        Some(s) => match canon(s).as_str() {
            "static" => Ok(job),
            "dynamic" => Ok(job.with_controller(ControllerConfig::default())),
            _ => Err(format!("unknown policy {s:?}; use static | dynamic")),
        },
        None => Ok(job),
    }
}

/// Client side of the protocol: connect, send one request line, close the
/// write half, and stream every response line into `out` until the server
/// hangs up. This is `selcached --once` (and what the integration tests
/// drive).
///
/// Returns whether the request was served: false when the answer's last
/// line reports `"ok":false` (a malformed or refused request), so a caller
/// can tell the two apart without parsing the answer itself.
pub fn request_once(path: &Path, line: &str, out: &mut impl Write) -> io::Result<bool> {
    let mut stream = UnixStream::connect(path)?;
    let sent = stream
        .write_all(format!("{}\n", line.trim()).as_bytes())
        .and_then(|()| stream.shutdown(std::net::Shutdown::Write));
    let mut response = Vec::new();
    let read = stream.read_to_end(&mut response);
    // A server that answers with an error and closes without reading the
    // rest of the request (a connection beyond the cap, a line over 1 MiB)
    // can fail the send, or reset the connection after its error line.
    // That line is still the answer.
    if !response.ends_with(b"\n") {
        sent?;
        read?;
    }
    out.write_all(&response)?;
    let text = String::from_utf8_lossy(&response);
    let last = text.lines().rev().find(|l| !l.trim().is_empty());
    let failed = last
        .and_then(|l| Json::parse(l).ok())
        .is_some_and(|j| matches!(j.get("ok"), Some(Json::Bool(false))));
    Ok(!failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_tokens_parse() {
        assert_eq!(parse_machine("base"), Some(ConfigVariant::Base));
        assert_eq!(parse_machine("higher-l2-assoc"), Some(ConfigVariant::HigherL2Assoc));
        assert_eq!(parse_machine("Larger L1"), Some(ConfigVariant::LargerL1));
        assert_eq!(parse_machine("nope"), None);
        assert_eq!(parse_version("pure-software"), Some(Version::PureSoftware));
        assert_eq!(parse_version("PureHW"), Some(Version::PureHardware));
        assert_eq!(parse_assist("victim"), Some(AssistKind::Victim));
        assert_eq!(parse_assist(""), None);
    }

    #[test]
    fn job_parsing_defaults_and_errors() {
        let spec = Json::parse(r#"{"benchmark":"vpenta","version":"selective"}"#).unwrap();
        let job = job_from_json(&spec).unwrap();
        assert_eq!(job.scale, Scale::Tiny);
        assert_eq!(job.assist, AssistKind::Bypass);
        assert!(job.same_execution(&SimJob::new(
            selcache_core::Benchmark::Vpenta,
            Scale::Tiny,
            ConfigVariant::Base.machine(),
            AssistKind::Bypass,
            Version::Selective,
        )));

        let bad = Json::parse(r#"{"benchmark":"vpenta"}"#).unwrap();
        assert!(job_from_json(&bad).unwrap_err().contains("version"));
        let bad = Json::parse(r#"{"version":"base","benchmark":"whom"}"#).unwrap();
        assert!(job_from_json(&bad).unwrap_err().contains("whom"));

        // A present field of the wrong type is an error naming it, even
        // where an absent one would take a default.
        for (key, value) in [
            ("benchmark", "5"),
            ("version", "[\"base\"]"),
            ("scale", "5"),
            ("machine", "7"),
            ("assist", "{}"),
            ("mode", "1"),
            ("policy", "true"),
            ("scale", "null"),
        ] {
            let mut pairs = vec![("benchmark", "\"li\""), ("version", "\"base\"")];
            pairs.retain(|(k, _)| *k != key);
            pairs.push((key, value));
            let text = pairs.iter().map(|(k, v)| format!("{k:?}:{v}")).collect::<Vec<_>>();
            let bad = Json::parse(&format!("{{{}}}", text.join(","))).unwrap();
            assert_eq!(
                job_from_json(&bad).unwrap_err(),
                format!("{key:?} must be a string"),
                "{bad}"
            );
        }
    }

    #[test]
    fn job_policy_parses_and_rejects() {
        let spec =
            Json::parse(r#"{"benchmark":"li","version":"selective","policy":"dynamic"}"#).unwrap();
        let job = job_from_json(&spec).unwrap();
        assert!(job.machine.mem.controller.is_some(), "dynamic policy attaches the controller");
        let spec =
            Json::parse(r#"{"benchmark":"li","version":"selective","policy":"Static"}"#).unwrap();
        assert!(job_from_json(&spec).unwrap().machine.mem.controller.is_none());
        let bad =
            Json::parse(r#"{"benchmark":"li","version":"selective","policy":"oracle"}"#).unwrap();
        assert!(job_from_json(&bad).unwrap_err().contains("policy"));
    }

    #[test]
    fn stats_survive_a_poisoned_totals_lock() {
        let state = Arc::new(ServerState {
            engine: JobEngine::new(1),
            totals: Mutex::new(Totals { connections: 3, ..Totals::default() }),
            in_flight: AtomicU64::new(0),
        });
        let holder = Arc::clone(&state);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.totals.lock().expect("first lock");
            panic!("handler fails while holding the totals");
        })
        .join();
        assert!(panicked.is_err());
        assert!(state.totals.is_poisoned());

        let (mut server_end, mut client_end) = UnixStream::pair().expect("socket pair");
        assert!(!serve_line(br#"{"op":"stats"}"#, &state, &mut server_end).expect("answered"));
        drop(server_end);
        let mut reply = String::new();
        client_end.read_to_string(&mut reply).expect("reply");
        let reply = Json::parse(reply.trim()).expect("one JSON line");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(reply.get("connections"), Some(&Json::UInt(3)));
    }

    #[test]
    fn job_mode_parses_and_rejects() {
        let spec =
            Json::parse(r#"{"benchmark":"vpenta","version":"base","mode":"sampled"}"#).unwrap();
        assert_eq!(job_from_json(&spec).unwrap().mode, SimMode::sampled());
        let spec =
            Json::parse(r#"{"benchmark":"vpenta","version":"base","mode":"Exact"}"#).unwrap();
        assert_eq!(job_from_json(&spec).unwrap().mode, SimMode::Exact);
        let bad = Json::parse(r#"{"benchmark":"vpenta","version":"base","mode":"fuzzy"}"#).unwrap();
        assert!(job_from_json(&bad).unwrap_err().contains("mode"));
    }
}
