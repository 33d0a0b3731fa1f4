//! Counter conservation identities over the whole suite: every access is a
//! hit or a miss, every miss has exactly one three-C class, every L2
//! access is an L1 miss no assist served, and every committed instruction
//! is counted once by class and matches the prepared program's trace.
//! Checked on every benchmark under each static assist and under the
//! online controller, on a cold run and again on the same job set answered
//! from a warm store.

use selcache::core::{
    AssistKind, ControllerConfig, Experiment, JobEngine, MachineConfig, SimJob, SimResult, Store,
    Version,
};
use selcache::ir::trace_len;
use selcache::mem::CacheStats;
use selcache::workloads::{Benchmark, Scale};

const VERSIONS: [Version; 5] = [
    Version::Base,
    Version::PureHardware,
    Version::PureSoftware,
    Version::Combined,
    Version::Selective,
];

/// Every version under each static assist, plus the dynamic selective run.
fn jobs() -> Vec<SimJob> {
    let machine = MachineConfig::base();
    let mut jobs = Vec::new();
    for bm in Benchmark::ALL {
        for assist in [AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream] {
            for version in VERSIONS {
                jobs.push(SimJob::new(bm, Scale::Tiny, machine.clone(), assist, version));
            }
        }
        jobs.push(
            SimJob::new(bm, Scale::Tiny, machine.clone(), AssistKind::None, Version::Selective)
                .with_controller(ControllerConfig::default()),
        );
    }
    jobs
}

/// Length of the trace `job` executes: its program as its version
/// prepares it on its machine.
fn prepared_trace_len(job: &SimJob) -> u64 {
    let exp = Experiment::new(job.machine.clone(), job.assist);
    trace_len(&exp.prepare(&job.benchmark.build(job.scale), job.version))
}

fn assert_cache_balances(at: &str, s: &CacheStats) {
    assert_eq!(s.hits + s.misses, s.accesses, "{at}: hits + misses");
    assert_eq!(s.compulsory + s.capacity + s.conflict, s.misses, "{at}: three Cs");
}

fn assert_conserved(job: &SimJob, r: &SimResult, trace: u64) {
    let policy = if job.machine.mem.controller.is_some() { "dynamic" } else { "static" };
    let at = format!("{} {} {:?} {policy}", job.benchmark, job.version, job.assist);
    let m = &r.mem;
    assert_cache_balances(&format!("{at} L1d"), &m.l1d);
    assert_cache_balances(&format!("{at} L1i"), &m.l1i);
    assert_cache_balances(&format!("{at} L2"), &m.l2);
    let served = m.assist.bypass_buffer_hits + m.assist.l1_victim_hits + m.assist.stream_hits;
    assert_eq!(m.l2.accesses, m.l1d.misses - served + m.l1i.misses, "{at}: L2 traffic");

    let c = &r.cpu;
    assert_eq!(c.loads + c.stores, m.l1d.accesses, "{at}: memory ops vs L1d");
    let by_class = c.loads + c.stores + c.branches + c.int_ops + c.fp_ops + c.assist_toggles;
    assert_eq!(by_class, c.committed, "{at}: committed by class");
    assert_eq!(c.committed, r.instructions, "{at}: committed vs instructions");
    assert_eq!(r.instructions, trace, "{at}: instructions vs trace length");
}

#[test]
fn counters_are_conserved_over_the_suite_cold_and_warm() {
    let root = std::env::temp_dir().join(format!("selcache-conservation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let engine = || JobEngine::with_store(0, Store::open(&root).expect("open store"));
    let jobs = jobs();
    assert_eq!(jobs.len(), 208);

    let (cold, cold_stats) = engine().run_with_stats(&jobs);
    assert_eq!(cold_stats.store_hits, 0);
    for (job, r) in jobs.iter().zip(&cold) {
        assert_conserved(job, r, prepared_trace_len(job));
    }

    let (warm, warm_stats) = engine().run_with_stats(&jobs);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(warm_stats.executed, 0, "a warm store answers every job");
    assert_eq!(warm_stats.store_hits, cold_stats.executed);
    assert_eq!(warm, cold, "store hits must equal the cold results");
}
