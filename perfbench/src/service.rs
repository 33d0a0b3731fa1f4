//! `service_mixed`: an in-process `selcached` server whose engine runs at
//! 2 threads over a fresh store, warmed during set-up with the base
//! machine's Figure 4 set at `Scale::Tiny`. One client connection from
//! this process drives it in a closed loop, as a sweep client that waits
//! for each reply does. With one request in flight, a request's latency is
//! its own service time: it never waits behind another request, and where
//! the seed puts the miss requests cannot make two of them overlap.
//!
//! Most requests ask for the warm 65-job figure, which the store answers
//! job for job. A seed-placed few percent ask for one benchmark's five
//! versions on another machine or assist, some with `"policy":"dynamic"`;
//! those simulate and write to the store, so a store change that speeds
//! reads but slows writes shows in the tail. Every miss request of the
//! pool is sent exactly once per run; the seed decides in which order and
//! where within its stretch of the schedule, so the work is the same for
//! every seed. This is the only workload that touches the store, JSON,
//! identity and protocol layers.

use crate::layers::{executor_metrics, set_layers};
use crate::outcome::Outcome;
use crate::refs::{counter_index, JobSpec, Refs};

use crate::trace::Tracer;
use crate::{host, stats, Ctx, THREADS};
use selcache_bench::service::{reset_shutdown, Server};
use selcache_core::json::Json;
use selcache_core::{
    AssistKind, Benchmark, ConfigVariant, JobEngine, Scale, SimJob, SimResult, Store, Version,
};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// Requests per run, whatever `--seconds` says, so that the traffic mix
/// (33 miss requests in 1500) is the same for every run length. A p99
/// then has fifteen samples beyond it, all of them misses, and the
/// schedule takes about 20 s on a 2-core host.
const REQUESTS: usize = 1500;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The miss requests' programs: three database codes of similar cost,
/// several times a warm hit, so that the p99 lands among the misses and
/// not on the edge between them and the slowest hits.
const MISS_BENCHMARKS: [Benchmark; 3] = [Benchmark::TpcDQ6, Benchmark::TpcC, Benchmark::TpcDQ1];

/// Where the miss requests point: another machine, or the online
/// controller (`"policy":"dynamic"`). Each variant has its own machine, so
/// every miss request simulates all five of its jobs: versions that run
/// without the assist would otherwise share jobs between two variants,
/// and which of the two came first would change with the seed.
const VARIANTS: [(ConfigVariant, AssistKind, bool); 11] = [
    (ConfigVariant::HigherMemLatency, AssistKind::Bypass, false),
    (ConfigVariant::LargerL2, AssistKind::Victim, false),
    (ConfigVariant::LargerL1, AssistKind::Bypass, false),
    (ConfigVariant::HigherL2Assoc, AssistKind::Victim, false),
    (ConfigVariant::HigherL1Assoc, AssistKind::Bypass, false),
    (ConfigVariant::Base, AssistKind::Bypass, true),
    (ConfigVariant::HigherMemLatency, AssistKind::Victim, true),
    (ConfigVariant::LargerL2, AssistKind::Bypass, true),
    (ConfigVariant::LargerL1, AssistKind::Victim, true),
    (ConfigVariant::HigherL2Assoc, AssistKind::Bypass, true),
    (ConfigVariant::HigherL1Assoc, AssistKind::Victim, true),
];

fn five_versions(
    bm: Benchmark,
    machine: ConfigVariant,
    assist: AssistKind,
    dynamic: bool,
) -> Vec<JobSpec> {
    std::iter::once(Version::Base)
        .chain(Version::REPORTED)
        .map(|v| JobSpec { dynamic, ..JobSpec::new(bm, Scale::Tiny, machine, assist, v) })
        .collect()
}

/// The warm figure: the base machine's Figure 4 set at `Scale::Tiny`.
fn figure() -> Vec<JobSpec> {
    Benchmark::ALL
        .into_iter()
        .flat_map(|bm| five_versions(bm, ConfigVariant::Base, AssistKind::Bypass, false))
        .collect()
}

/// The miss requests: each miss benchmark's five versions under each
/// variant.
fn pool() -> Vec<Vec<JobSpec>> {
    VARIANTS
        .into_iter()
        .flat_map(|(m, a, d)| MISS_BENCHMARKS.into_iter().map(move |bm| five_versions(bm, m, a, d)))
        .collect()
}

/// Every exact job the references must hold for this workload.
pub fn ref_specs() -> Vec<JobSpec> {
    figure().into_iter().chain(pool().into_iter().flatten()).collect()
}

/// A `run` request line for `specs` in the `selcached` protocol.
fn request_line(specs: &[JobSpec]) -> String {
    let jobs = specs
        .iter()
        .map(|s| {
            let mut pairs = vec![
                ("benchmark", Json::str(s.benchmark.name())),
                ("scale", Json::str(s.scale.to_string())),
                ("machine", Json::str(format!("{:?}", s.machine))),
                ("assist", Json::str(format!("{:?}", s.assist))),
                ("version", Json::str(format!("{:?}", s.version))),
            ];
            if s.dynamic {
                pairs.push(("policy", Json::str("dynamic")));
            }
            Json::obj(pairs)
        })
        .collect();
    Json::obj([("op", Json::str("run")), ("jobs", Json::Arr(jobs))]).to_string()
}

/// SplitMix64: the seeded generator placing the miss requests.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The request schedule: `None` is the warm figure, `Some(k)` is miss
/// request `k` of the pool. Each miss request appears exactly once, in
/// seed-chosen order, one in each of `misses` equal stretches of the
/// schedule at a seed-chosen position within it: the misses sample the
/// whole run evenly, so the p99 among them does not hang on where in the
/// run a random draw happened to cluster them.
pub fn schedule(seed: u64, requests: usize, misses: usize) -> Vec<Option<usize>> {
    let mut state = seed;
    let misses = misses.min(requests);
    let mut pool: Vec<usize> = (0..misses).collect();
    // Fisher–Yates: a uniform order of the miss requests.
    for i in (1..misses).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }
    let mut order: Vec<Option<usize>> = vec![None; requests];
    for (k, &miss) in pool.iter().enumerate() {
        let (lo, hi) = (k * requests / misses, (k + 1) * requests / misses);
        order[lo + (splitmix(&mut state) % (hi - lo) as u64) as usize] = Some(miss);
    }
    order
}

/// A started server with its store, socket and client connection, all
/// under a short per-run directory relative to the working directory
/// (unix socket paths are capped near 108 bytes).
struct Rig {
    dir: PathBuf,
    store: Store,
    server: Option<JoinHandle<io::Result<()>>>,
    client: Option<UnixStream>,
}

impl Rig {
    fn start(k: usize, figure_jobs: &[SimJob]) -> io::Result<Rig> {
        let dir = PathBuf::from(format!(".perfbench_tmp/{}-{k}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let mut rig =
            Rig { store: Store::open(dir.join("store"))?, dir, server: None, client: None };
        JobEngine::with_store(THREADS, rig.store.clone()).run(figure_jobs);
        reset_shutdown();
        let sock = rig.dir.join("sock");
        let server = Server::bind(&sock, JobEngine::with_store(THREADS, rig.store.clone()))?;
        rig.server = Some(std::thread::spawn(move || server.run()));
        rig.client = Some(UnixStream::connect(&sock)?);
        Ok(rig)
    }

    /// Stops the server with the `shutdown` op and removes the directory.
    fn stop(mut self) -> Result<(), String> {
        let said_bye = self.client.as_ref().map(|c| {
            let mut c = c;
            c.write_all(b"{\"op\":\"shutdown\"}\n")?;
            let mut line = String::new();
            BufReader::new(c).read_line(&mut line)?;
            Ok::<bool, io::Error>(line.contains("\"bye\""))
        });
        self.teardown();
        match said_bye {
            Some(Ok(true)) => Ok(()),
            _ => Err("the server did not acknowledge shutdown".into()),
        }
    }

    fn teardown(&mut self) {
        self.client = None;
        if let Some(server) = self.server.take() {
            // Without the op (a failed start), flip the latch directly.
            selcache_bench::service::request_shutdown();
            let _ = server.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// One answered request.
struct Answer {
    index: usize,
    latency_s: f64,
    lines: Vec<String>,
}

/// Sends `line` and reads response lines through the `done` (or error)
/// line.
fn exchange(
    mut stream: &UnixStream,
    reader: &mut impl BufRead,
    line: &str,
) -> io::Result<Vec<String>> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut lines = Vec::new();
    loop {
        let mut buf = String::new();
        if reader.read_line(&mut buf)? == 0 {
            return Ok(lines);
        }
        let last = buf.contains("\"kind\":\"done\"") || buf.contains("\"kind\":\"error\"");
        lines.push(buf.trim_end().to_string());
        if last {
            return Ok(lines);
        }
    }
}

/// The closed loop: sends each request when the previous one is answered.
fn drive(client: &UnixStream, requests: &[String]) -> (f64, Vec<Answer>) {
    let start = Instant::now();
    let mut reader = BufReader::new(client);
    let answers = requests
        .iter()
        .enumerate()
        .map(|(index, line)| {
            let t = Instant::now();
            let lines = exchange(client, &mut reader, line).unwrap_or_default();
            Answer { index, latency_s: t.elapsed().as_secs_f64(), lines }
        })
        .collect();
    (start.elapsed().as_secs_f64(), answers)
}

/// Checks one answer: every line ok, one result per job answering the
/// expected job, the same as the first answer for that job, and equal to
/// its exact reference. Returns the instructions the answer covers.
fn check_answer(
    answer: &Answer,
    specs: &[JobSpec],
    refs: &Result<Refs, String>,
    first: &mut HashMap<String, Json>,
) -> Result<u64, Vec<String>> {
    let mut problems = Vec::new();
    let parsed: Vec<Json> = answer.lines.iter().filter_map(|l| Json::parse(l).ok()).collect();
    let kind = |j: &Json| j.get("kind").and_then(Json::as_str).unwrap_or("").to_string();
    if parsed.len() != answer.lines.len()
        || parsed.iter().any(|j| j.get("ok") != Some(&Json::Bool(true)))
    {
        problems.push(format!("request {}: a response line is not ok JSON", answer.index));
    }
    let results: Vec<&Json> = parsed.iter().filter(|j| kind(j) == "result").collect();
    if results.len() != specs.len() || parsed.last().map(kind).as_deref() != Some("done") {
        problems.push(format!(
            "request {}: {} results for {} jobs, no done line",
            answer.index,
            results.len(),
            specs.len()
        ));
        return Err(problems);
    }
    let (cyc, ins) = (counter_index("cycles"), counter_index("instructions"));
    let l1 = (counter_index("l1d.misses"), counter_index("l1d.accesses"));
    let l2 = (counter_index("l2.misses"), counter_index("l2.accesses"));
    let pct = |c: &[u64], (m, a): (usize, usize)| {
        if c[a] == 0 {
            0.0
        } else {
            c[m] as f64 / c[a] as f64 * 100.0
        }
    };
    let mut instructions = 0;
    for (spec, r) in specs.iter().zip(results) {
        let id = r.get("job_id").and_then(Json::as_str).unwrap_or("").to_string();
        let label = spec.label();
        if id != spec.job().job_id().to_string() {
            problems.push(format!("{label}: answered as job {id:?}"));
            continue;
        }
        let Json::Obj(pairs) = r else { continue };
        let answer_body = Json::Obj(pairs.iter().filter(|(k, _)| k != "index").cloned().collect());
        let seen = first.entry(id).or_insert_with(|| answer_body.clone());
        if *seen != answer_body {
            problems.push(format!("{label}: differs from the first answer for its job"));
        }
        let want = match refs.as_ref().map_err(Clone::clone).and_then(|refs| refs.get(spec)) {
            Ok(w) => w,
            Err(e) => {
                problems.push(e);
                continue;
            }
        };
        let n = |k: &str| r.get(k).and_then(Json::as_u64);
        let f = |k: &str| r.get(k).and_then(Json::as_f64);
        let same = n("cycles") == Some(want[cyc])
            && n("instructions") == Some(want[ins])
            && f("l1d_miss_pct") == Some(pct(want, l1))
            && f("l2_miss_pct") == Some(pct(want, l2))
            && (!spec.dynamic
                || n("policy_switches") == Some(want[counter_index("assist.adapt_switches")]));
        if !same {
            problems.push(format!("{label}: answer differs from its exact reference"));
        }
        instructions += want[ins];
    }
    if problems.is_empty() {
        Ok(instructions)
    } else {
        Err(problems)
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let requests = REQUESTS;
    let figure = figure();
    let pool = pool();
    let figure_jobs: Vec<SimJob> = figure.iter().map(JobSpec::job).collect();

    // Each set-up starts a fresh server; the previous one is stopped
    // first, outside the timed set-up, and the last one serves the timed
    // phase.
    let mut times = Vec::with_capacity(SETUPS);
    let refs = Refs::load(Path::new(crate::refs::PATH));
    let mut rig: Option<io::Result<Rig>> = None;
    for k in 0..SETUPS {
        if let Some(Ok(previous)) = rig.take() {
            if let Err(e) = previous.stop() {
                o.tally.op(vec![e]);
            }
        }
        let t = Instant::now();
        rig = Some(Rig::start(k, &figure_jobs));
        times.push(t.elapsed().as_secs_f64());
    }
    o.set("setup_s", stats::median(&times).unwrap_or(0.0));
    let rig = match rig.expect("at least one set-up") {
        Ok(r) => r,
        Err(e) => {
            o.tally.all_failed(requests as u64, format!("the server did not start: {e}"));
            return o;
        }
    };

    let order = schedule(ctx.seed, requests, pool.len());
    let figure_line = request_line(&figure);
    let pool_lines: Vec<String> = pool.iter().map(|p| request_line(p)).collect();
    let lines: Vec<String> = order
        .iter()
        .map(|slot| slot.map_or_else(|| figure_line.clone(), |k| pool_lines[k].clone()))
        .collect();

    let cpu0 = host::cpu_s();
    let client = rig.client.as_ref().expect("a started rig is connected");
    let (wall, answers) = drive(client, &lines);
    let cpu = host::cpu_s() - cpu0;

    let mut first = HashMap::new();
    let mut instructions = 0;
    let mut results = 0;
    let mut done = 0;
    let mut answered = vec![false; requests];
    for a in &answers {
        answered[a.index] = true;
        let specs = order[a.index].map_or(&figure, |k| &pool[k]);
        match check_answer(a, specs, &refs, &mut first) {
            Ok(ins) => {
                instructions += ins;
                results += specs.len();
                done += 1;
                o.tally.op(vec![]);
            }
            Err(p) => o.tally.op(p),
        }
    }
    let unanswered = answered.iter().filter(|a| !**a).count();
    if unanswered > 0 {
        o.tally.all_failed(unanswered as u64, format!("{unanswered} requests got no answer"));
    }
    let latencies: Vec<f64> = answers.iter().map(|a| a.latency_s * 1e3).collect();
    o.set("wall_s", wall);
    o.set("requests_per_s", done as f64 / wall);
    o.set("points_per_s", results as f64 / wall);
    o.set("sim_mops", instructions as f64 / wall / 1e6);
    match (stats::percentile(&latencies, 50.0), stats::percentile(&latencies, 99.0)) {
        (Some(p50), Some(p99)) => {
            o.set("latency_p50_ms", p50);
            o.set("latency_p99_ms", p99);
        }
        _ => o.tally.op(vec![format!("{} latency samples cannot carry a p99", latencies.len())]),
    }
    o.notes.push(format!(
        "{requests} requests ({} miss requests) from one client; {done} answered in full",
        pool.len()
    ));
    if ctx.traced {
        traced(ctx, &mut o, &rig, &answers, &order, &figure, &pool, &refs, wall, cpu);
    }
    if let Err(e) = rig.stop() {
        o.tally.op(vec![e]);
    }
    o
}

#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    o: &mut Outcome,
    rig: &Rig,
    answers: &[Answer],
    order: &[Option<usize>],
    figure: &[JobSpec],
    pool: &[Vec<JobSpec>],
    refs: &Result<Refs, String>,
    wall_u: f64,
    cpu_u: f64,
) {
    let figure_jobs: Vec<SimJob> = figure.iter().map(JobSpec::job).collect();
    let mut tr = Tracer::default();
    let t = Instant::now();
    tr.span("core.engine.plan", "figure", |_| JobEngine::new(THREADS).dry_run(&figure_jobs));
    for (job, spec) in figure_jobs.iter().zip(figure) {
        tr.span("core.identity.job_id", &spec.label(), |_| job.job_id());
    }

    // JSON: parse every response line, encode it and its request again.
    let request_lines: Vec<String> =
        std::iter::once(request_line(figure)).chain(pool.iter().map(|p| request_line(p))).collect();
    let mut parsed = Vec::new();
    for a in answers {
        tr.span("core.json.parse", &a.index.to_string(), |_| {
            parsed.extend(a.lines.iter().filter_map(|l| Json::parse(l).ok()));
        });
    }
    let requests: Vec<Json> = request_lines.iter().filter_map(|l| Json::parse(l).ok()).collect();
    tr.span("core.json.encode", "answers", |_| {
        parsed.iter().chain(&requests).map(|j| j.to_string().len()).sum::<usize>()
    });
    let lines: usize = answers.iter().map(|a| a.lines.len()).sum();
    let encoded = parsed.len() + requests.len();

    // The engine answering the figure in-process from the same warm store:
    // request latency beyond this is the service's own cost.
    let engine = JobEngine::with_store(THREADS, rig.store.clone());
    let mut in_process = Vec::new();
    let mut results: Vec<SimResult> = Vec::new();
    for k in 0..20 {
        let ms = tr.span("core.engine.warm_run", &k.to_string(), |_| {
            let t = Instant::now();
            results = engine.run(&figure_jobs);
            t.elapsed().as_secs_f64() * 1e3
        });
        in_process.push(ms);
    }
    let figure_latency: Vec<f64> =
        answers.iter().filter(|a| order[a.index].is_none()).map(|a| a.latency_s * 1e3).collect();
    if let (Some(service), Some(engine)) =
        (stats::median(&figure_latency), stats::median(&in_process))
    {
        o.set("bench.service.overhead_ms", service - engine);
    }

    // Store reads and writes of the figure's own results.
    let scratch = Store::open(rig.dir.join("scratch"));
    let mut bytes = 0u64;
    if let Ok(scratch) = scratch {
        for _ in 0..5 {
            for r in &results {
                let id = r.job_id.expect("engine results carry ids");
                let echo = id.to_string();
                tr.span("core.store.put", &echo, |_| {
                    bytes += scratch.put(id, echo.as_bytes(), r, 0.0).unwrap_or(0);
                });
                tr.span("core.store.get", &echo, |_| scratch.get(id, echo.as_bytes()));
            }
        }
    }
    // The simulations behind the miss requests, without a store.
    let pool_jobs: Vec<SimJob> = pool.iter().flatten().map(JobSpec::job).collect();
    tr.span("core.engine.simulate", "pool", |_| JobEngine::serial().run(&pool_jobs));
    let wall_t = t.elapsed().as_secs_f64();

    let per = |name: &str| tr.total(name) / tr.count(name).max(1) as f64;
    let n_answers = answers.len().max(1) as f64;
    o.set("core.json.parse_ms", tr.total("core.json.parse") / n_answers * 1e3);
    o.set(
        "core.json.encode_ms",
        tr.total("core.json.encode") / encoded.max(1) as f64 * lines as f64 / n_answers * 1e3,
    );
    o.set("core.store.get_ms", per("core.store.get") * 1e3);
    o.set("core.store.put_ms", per("core.store.put") * 1e3);
    o.set("core.store.entry_bytes", bytes as f64 / tr.count("core.store.put").max(1) as f64);

    // Engine counters, summed over the `done` lines.
    for (key, metric) in [
        ("executed", "core.engine.executed"),
        ("dedup_hits", "core.engine.dedup_hits"),
        ("programs_prepared", "core.engine.programs_prepared"),
        ("store_hits", "core.engine.store_hits"),
        ("store_misses", "core.engine.store_misses"),
        ("bytes_written", "core.engine.bytes_written"),
    ] {
        let total: u64 = parsed.iter().filter_map(|j| j.get("engine")?.get(key)?.as_u64()).sum();
        o.set(metric, total as f64);
    }
    // The cpu and mem layers ran only for the miss requests' jobs.
    let simulated: Vec<Vec<u64>> = match refs {
        Ok(refs) => {
            pool.iter().flatten().filter_map(|s| refs.get(s).ok().map(<[u64]>::to_vec)).collect()
        }
        Err(_) => Vec::new(),
    };
    set_layers(o, &tr, &simulated, 0);
    o.set(
        "compiler.programs",
        o.values.get("core.engine.programs_prepared").copied().unwrap_or(0.0),
    );
    executor_metrics(o, wall_u, cpu_u);
    // Self times scaled to the timed phase: per-request JSON, planning,
    // identity and store reads, per-miss writes, and the simulations.
    let figures = figure_latency.len() as f64;
    let layer_self = tr.total("core.json.parse")
        + tr.total("core.json.encode") / encoded.max(1) as f64 * lines as f64
        + n_answers * (per("core.engine.plan") + figure.len() as f64 * per("core.identity.job_id"))
        + figures * figure.len() as f64 * per("core.store.get")
        + pool_jobs.len() as f64 * per("core.store.put")
        + tr.total("core.engine.simulate");
    o.set("unexplained_s", cpu_u - layer_self);
    o.set("trace_overhead_s", wall_t - wall_u);
    tr.write(ctx, "service_mixed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_places_every_miss_once() {
        let order = schedule(7, 1000, 39);
        let mut seen: Vec<usize> = order.iter().flatten().copied().collect();
        assert_eq!(seen.len(), 39);
        seen.sort_unstable();
        assert_eq!(seen, (0..39).collect::<Vec<_>>());
        for k in 0..39 {
            let stretch = &order[k * 1000 / 39..(k + 1) * 1000 / 39];
            assert_eq!(stretch.iter().flatten().count(), 1, "one miss in stretch {k}");
        }
        assert_eq!(order, schedule(7, 1000, 39), "same seed, same schedule");
        assert_ne!(order, schedule(8, 1000, 39), "the seed moves the misses");
    }

    #[test]
    fn every_miss_job_is_new_to_the_store() {
        let mut ids: Vec<_> = figure().iter().map(|s| s.job().job_id()).collect();
        let warm = ids.len();
        ids.extend(pool().iter().flatten().map(|s| s.job().job_id()));
        let total = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "no miss job repeats a warm or another miss job");
        assert_eq!(total - warm, 5 * pool().len());
    }

    #[test]
    fn request_lines_parse_as_protocol_jobs() {
        let line = request_line(&pool()[15]);
        let j = Json::parse(&line).expect("valid JSON");
        let jobs = j.get("jobs").and_then(Json::as_arr).expect("jobs array");
        assert_eq!(jobs.len(), 5);
        assert_eq!(jobs[0].get("policy").and_then(Json::as_str), Some("dynamic"));
    }
}
