//! Region-attributed instrumentation: the probe layer must be invisible to
//! the simulation (byte-identical results with or without probes, at any
//! thread count) and exact (per-region counters partition the aggregate
//! totals with no residue).

use selcache::core::{AssistKind, Experiment, JobEngine, MachineConfig, SimJob, Version};
use selcache::workloads::{Benchmark, Scale};

/// Per-region cycles, instructions, and cache traffic sum exactly to the
/// aggregate `SimResult` totals for a mixed benchmark.
#[test]
fn region_sums_match_aggregate_totals_exactly() {
    let exp = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
    for bm in [Benchmark::Li, Benchmark::TpcC] {
        let r = exp.run_profiled(bm, Scale::Tiny, Version::Selective);
        let profile = r.regions.as_ref().expect("profiled run");
        let total = profile.total();
        assert_eq!(total.cycles, r.cycles, "{bm}: cycles must partition exactly");
        assert_eq!(total.committed, r.instructions, "{bm}: instructions");
        assert_eq!(total.loads, r.cpu.loads, "{bm}: loads");
        assert_eq!(total.stores, r.cpu.stores, "{bm}: stores");
        assert_eq!(total.toggles, r.cpu.assist_toggles, "{bm}: toggles");
        assert_eq!(total.l1d_accesses, r.mem.l1d.accesses, "{bm}: L1d accesses");
        assert_eq!(total.l1d_misses, r.mem.l1d.misses, "{bm}: L1d misses");
        assert_eq!(total.l2_accesses, r.mem.l2.accesses, "{bm}: L2 accesses");
        assert_eq!(total.l2_misses, r.mem.l2.misses, "{bm}: L2 misses");
        assert_eq!(
            total.assisted_accesses, r.mem.assist.assisted_accesses,
            "{bm}: assist observed"
        );
    }
}

/// The default (null-probe) path produces results byte-identical to a
/// profiled run's aggregates, across thread counts.
#[test]
fn null_probe_identical_across_thread_counts() {
    let machine = MachineConfig::base();
    let mut jobs = Vec::new();
    for bm in [Benchmark::Adi, Benchmark::Li, Benchmark::TpcDQ6] {
        for v in [Version::Base, Version::Selective] {
            jobs.push(SimJob::new(bm, Scale::Tiny, machine.clone(), AssistKind::Victim, v));
        }
    }
    let serial = JobEngine::new(1).run(&jobs);
    let parallel = JobEngine::new(8).run(&jobs);
    assert_eq!(serial, parallel, "plain runs must not depend on thread count");

    let serial_prof = JobEngine::new(1).run_profiled(&jobs);
    let parallel_prof = JobEngine::new(8).run_profiled(&jobs);
    assert_eq!(serial_prof, parallel_prof, "profiled runs must not either");

    for (plain, prof) in serial.iter().zip(&serial_prof) {
        assert_eq!(plain.cycles, prof.cycles, "probe must not perturb the simulation");
        assert_eq!(plain.cpu, prof.cpu);
        assert_eq!(plain.mem, prof.mem);
    }
}

/// Rate helpers return 0.0 (never NaN) on empty denominators.
#[test]
fn rate_helpers_guard_zero_denominators() {
    let exp = Experiment::new(MachineConfig::base(), AssistKind::None);
    let mut r = exp.run(Benchmark::Adi, Scale::Tiny, Version::Base);
    r.mem.l1d.accesses = 0;
    r.mem.l1d.misses = 0;
    r.mem.l2.accesses = 0;
    r.mem.l2.misses = 0;
    assert_eq!(r.l1_miss_pct(), 0.0, "empty run must report 0, not NaN");
    assert_eq!(r.l2_miss_pct(), 0.0);
}
