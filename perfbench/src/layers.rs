//! Layer-by-layer re-execution for the traced run: the calls the engine
//! makes internally, made again through each layer's public functions
//! with a span around each.

use crate::outcome::Outcome;
use crate::refs::{counter_index, JobSpec};
use crate::trace::Tracer;
use crate::{child_pass, THREADS};
use selcache_core::json::Json;
use selcache_core::{AssistKind, ExperimentBuilder, JobEngine, SimJob, SimResult, Version};
use selcache_cpu::Pipeline;
use selcache_ir::{Interp, OpKind, Plan, Program, TraceOp};
use selcache_mem::MemoryHierarchy;
use std::hint::black_box;

/// Ops per chunk a consumer is handed.
const CHUNK: usize = 1 << 18;

/// Prepares `job`'s program from its raw build by the program's own rule
/// (`Experiment::prepare`), inside a `compiler.prepare` span.
pub fn prepare(tr: &mut Tracer, raw: &Program, job: &SimJob, id: &str) -> Program {
    let exp = ExperimentBuilder::new().machine(job.machine.clone()).opt(job.opt).build();
    tr.span("compiler.prepare", id, |_| exp.prepare(raw, job.version))
}

/// The distinct programs that the jobs `mine` (indices into `jobs`, all
/// of one benchmark built as `raw`) run, each with the indices of its
/// jobs in first-seen order. Two jobs share a program when the engine
/// would prepare one for both (`JobEngine::dry_run`); each program is
/// prepared once, from its first job, as the engine prepares it.
pub fn distinct_programs(
    tr: &mut Tracer,
    raw: &Program,
    jobs: &[SimJob],
    specs: &[JobSpec],
    mine: &[usize],
) -> Vec<(Program, Vec<usize>)> {
    let engine = JobEngine::serial();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &k in mine {
        let pair = |g: &Vec<usize>| [jobs[g[0]].clone(), jobs[k].clone()];
        match groups.iter_mut().find(|g| engine.dry_run(&pair(g)).programs_prepared == 1) {
            Some(group) => group.push(k),
            None => groups.push(vec![k]),
        }
    }
    groups.into_iter().map(|g| (prepare(tr, raw, &jobs[g[0]], &specs[g[0]].label()), g)).collect()
}

/// A fresh hierarchy configured as the engine configures it for `job`:
/// `Base` and `PureSoftware` run without the assist, and the selective
/// version starts with the assist off.
pub fn hierarchy(job: &SimJob) -> MemoryHierarchy {
    let mut cfg = job.machine.mem.clone();
    cfg.assist = match job.version {
        Version::Base | Version::PureSoftware => AssistKind::None,
        _ => job.assist,
    };
    let mut mem = MemoryHierarchy::new(cfg);
    mem.set_assist_enabled(job.version != Version::Selective);
    mem
}

/// Compiles a plan (an `ir.plan` span) and drains the trace once without
/// storing it (an `ir.trace` span). Returns the plan and the trace length.
fn plan_and_drain(tr: &mut Tracer, program: &Program, id: &str) -> (Plan, u64) {
    let plan = tr.span("ir.plan", id, |_| Plan::compile(program));
    // A checksum over every op keeps the generation from being optimized
    // away without forcing each op through memory.
    let (ops, sum) = tr.span("ir.trace", id, |_| {
        Interp::with_plan(program, &plan)
            .fold((0u64, 0u64), |(n, sum), op| (n + 1, sum.wrapping_add(op.pc)))
    });
    black_box(sum);
    (plan, ops)
}

/// Times `program`'s trace generation, then collects the trace for
/// replay outside any span. Returns the trace.
pub fn collect_trace(tr: &mut Tracer, program: &Program, id: &str) -> Vec<TraceOp> {
    let (plan, _) = plan_and_drain(tr, program, id);
    Interp::with_plan(program, &plan).collect()
}

/// Times `program`'s trace generation alone, then generates it again in
/// chunks and hands each chunk to `consume` inside a span called
/// `consumer`, so that span times the consumer alone. Returns the trace
/// length.
pub fn consume_trace(
    tr: &mut Tracer,
    program: &Program,
    id: &str,
    consumer: &'static str,
    mut consume: impl FnMut(&[TraceOp]),
) -> u64 {
    let (plan, ops) = plan_and_drain(tr, program, id);
    let mut interp = Interp::with_plan(program, &plan);
    let mut chunk = Vec::with_capacity(CHUNK);
    loop {
        chunk.clear();
        chunk.extend(interp.by_ref().take(CHUNK));
        if chunk.is_empty() {
            return ops;
        }
        tr.span(consumer, id, |_| consume(&chunk));
    }
}

/// Runs one exact job's pre-generated trace through the pipeline (which
/// drives the hierarchy) in a `cpu.pipeline` span, then the same data and
/// fetch stream through the hierarchy alone in a `mem.replay` span.
/// Returns a problem if the pipeline's counters differ from the engine's.
pub fn pipeline_and_replay(
    tr: &mut Tracer,
    job: &SimJob,
    ops: &[TraceOp],
    engine: &SimResult,
    id: &str,
) -> Option<String> {
    let mut mem = hierarchy(job);
    let cpu = tr.span("cpu.pipeline", id, |_| {
        Pipeline::new(job.machine.cpu).run(ops.iter().copied(), &mut mem)
    });
    let mismatch = (cpu != engine.cpu || mem.stats() != engine.mem)
        .then(|| format!("{id}: layer-by-layer re-execution differs from the engine's result"));
    let mut mem = hierarchy(job);
    let fetch_block = job.machine.cpu.fetch_block.max(1);
    tr.span("mem.replay", id, |_| {
        let mut last_block = u64::MAX;
        for (now, op) in ops.iter().enumerate() {
            let now = now as u64;
            if op.pc / fetch_block != last_block {
                last_block = op.pc / fetch_block;
                mem.inst_fetch(op.pc, now);
            }
            match op.kind {
                OpKind::Load(a) => {
                    mem.data_access(a, false, now);
                }
                OpKind::Store(a) => {
                    mem.data_access(a, true, now);
                }
                OpKind::AssistOn => mem.set_assist_enabled(true),
                OpKind::AssistOff => mem.set_assist_enabled(false),
                _ => {}
            }
        }
    });
    mismatch
}

/// Sets the counter metrics of the cpu and mem layers and the timing
/// metrics every traced run shares.
pub fn set_layers(o: &mut Outcome, tr: &Tracer, counters: &[Vec<u64>], ops_traced: u64) {
    for (metric, counter) in [
        ("mem.l1d_accesses", "l1d.accesses"),
        ("mem.l1d_misses", "l1d.misses"),
        ("mem.l2_misses", "l2.misses"),
        ("mem.assisted_accesses", "assist.assisted_accesses"),
        ("cpu.cycles", "cpu.cycles"),
        ("cpu.committed", "cpu.committed"),
        ("cpu.issue_stall_cycles", "cpu.issue_stall_cycles"),
        ("cpu.fetch_stall_cycles", "cpu.fetch_stall_cycles"),
        ("cpu.mispredicts", "cpu.mispredicts"),
    ] {
        let k = counter_index(counter);
        o.set(metric, counters.iter().map(|c| c[k]).sum::<u64>() as f64);
    }
    o.set("workloads.build_s", tr.total("workloads.build"));
    o.set("compiler.prepare_s", tr.total("compiler.prepare"));
    o.set("ir.plan_s", tr.total("ir.plan"));
    let trace_s = tr.total("ir.trace");
    o.set("ir.trace_s", trace_s);
    if trace_s > 0.0 {
        o.set("ir.trace_mops", ops_traced as f64 / trace_s / 1e6);
    }
    o.set("core.engine.plan_s", tr.total("core.engine.plan"));
    let ids = tr.count("core.identity.job_id").max(1) as f64;
    o.set("core.identity.job_id_us", tr.total("core.identity.job_id") / ids * 1e6);
}

/// Sets the executor metrics from the untraced pass's wall and CPU time.
pub fn executor_metrics(o: &mut Outcome, wall: f64, cpu: f64) {
    o.set("core.executor.cpu_s", cpu);
    o.set("core.executor.utilization", cpu / (wall * THREADS as f64));
}

/// Sets and returns the CPU time the second thread adds: the untraced
/// pass's CPU time minus that of the same job set at one thread in a
/// fresh process. It is the executor's self time; the layers' self times
/// are measured on one thread.
pub fn executor_overhead(o: &mut Outcome, workload: &str, cpu: f64) -> f64 {
    let one_thread =
        child_pass(workload, 1).ok().and_then(|j| j.get("cpu_s").and_then(Json::as_f64));
    match one_thread {
        Some(c1) => {
            o.set("core.executor.cpu_overhead_s", cpu - c1);
            cpu - c1
        }
        None => {
            o.tally.op(vec![format!("the one-thread {workload} pass did not run")]);
            0.0
        }
    }
}
