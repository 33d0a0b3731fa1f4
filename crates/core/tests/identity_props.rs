//! Property tests pinning the canonical-hash job identity to the
//! structural execution-identity it replaced: over arbitrary job sets,
//! two jobs share a [`selcache_core::JobId`] exactly when the old
//! linear-scan `ExecPlan` dedup would have merged them. A hash that
//! silently merged distinct jobs (collision or an under-serialized
//! field) or split equal ones (an over-serialized field, e.g. `-0.0`
//! vs `0.0`) fails here.

use proptest::prelude::*;
use selcache_core::{
    AssistKind, Benchmark, ConfigVariant, ControllerConfig, JobEngine, MachineConfig, Scale,
    SimJob, SimMode, Version,
};

const BENCHMARKS: [Benchmark; 3] = [Benchmark::Adi, Benchmark::Li, Benchmark::Vpenta];
const SCALES: [Scale; 2] = [Scale::Tiny, Scale::Small];
const ASSISTS: [AssistKind; 4] =
    [AssistKind::None, AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream];
const VERSIONS: [Version; 5] = [
    Version::Base,
    Version::PureHardware,
    Version::PureSoftware,
    Version::Combined,
    Version::Selective,
];

/// One generated job: indices into the small axes plus machine/opt knob
/// tweaks that exercise every field class the canonical encoding covers
/// (u64 latencies, u32 associativities, f64 thresholds, bools).
#[allow(clippy::too_many_arguments)]
fn job(
    bench: usize,
    scale: usize,
    variant: usize,
    assist: usize,
    version: usize,
    mem_latency: u64,
    threshold_pct: u32,
    tweak_tile: bool,
) -> SimJob {
    let mut machine = ConfigVariant::ALL[variant % ConfigVariant::ALL.len()].machine();
    machine.mem.mem_latency = mem_latency;
    let mut job = SimJob::new(
        BENCHMARKS[bench % BENCHMARKS.len()],
        SCALES[scale % SCALES.len()],
        machine,
        ASSISTS[assist % ASSISTS.len()],
        VERSIONS[version % VERSIONS.len()],
    );
    job.opt.threshold = threshold_pct as f64 / 100.0;
    job.opt.tile = tweak_tile;
    job
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pairwise over a generated job set: hash identity ⇔ structural
    /// identity, and the engine's dedup counters agree with the
    /// structural partition.
    #[test]
    fn job_id_partition_matches_structural_dedup(
        raw in proptest::collection::vec(
            ((0usize..3, 0usize..2, 0usize..6, 0usize..4),
             (0usize..5, 50u64..=200, 0u32..=100, proptest::bool::weighted(0.5))),
            1..12,
        ),
    ) {
        let jobs: Vec<SimJob> = raw
            .iter()
            .map(|&((b, s, m, a), (v, lat, thr, tile))| job(b, s, m, a, v, lat, thr, tile))
            .collect();

        // Hash equality must coincide with structural equality for every
        // pair, including i == j (reflexivity).
        for i in 0..jobs.len() {
            for j in 0..jobs.len() {
                let same_hash = jobs[i].job_id() == jobs[j].job_id();
                let same_struct = jobs[i].same_execution(&jobs[j]);
                prop_assert_eq!(
                    same_hash, same_struct,
                    "jobs {} and {} disagree: hash {} vs structural {}",
                    i, j, same_hash, same_struct
                );
            }
        }

        // The engine's plan (now hash-keyed) must count exactly the
        // structural partition's classes.
        let mut reps: Vec<&SimJob> = Vec::new();
        for j in &jobs {
            if !reps.iter().any(|r| r.same_execution(j)) {
                reps.push(j);
            }
        }
        let stats = JobEngine::serial().dry_run(&jobs);
        prop_assert_eq!(stats.executed, reps.len());
        prop_assert_eq!(stats.dedup_hits, jobs.len() - reps.len());
    }

    /// `-0.0` and `+0.0` thresholds are structurally equal (f64 `==`), so
    /// they must hash identically too.
    #[test]
    fn negative_zero_threshold_unifies(seed in 0usize..6) {
        let mut a = job(seed, seed, seed, 1, 3, 100, 0, false);
        let mut b = a.clone();
        a.opt.threshold = 0.0;
        b.opt.threshold = -0.0;
        prop_assert!(a.same_execution(&b));
        prop_assert_eq!(a.job_id(), b.job_id());
    }
}

/// The id is stable across processes: the literal values pinned here break
/// only when the canonical encoding (or the hash) changes, which must come
/// with an identity-schema bump. The store and the benchmark's reference
/// results are both addressed by these ids.
#[test]
fn job_id_is_deterministic_across_engines() {
    let j = job(0, 0, 0, 1, 4, 100, 50, false);
    assert_eq!(j.job_id(), j.clone().job_id());
    let again = job(0, 0, 0, 1, 4, 100, 50, false);
    assert_eq!(j.job_id(), again.job_id());

    let on_base = |benchmark, scale, version| {
        SimJob::new(benchmark, scale, MachineConfig::base(), AssistKind::Bypass, version)
    };
    let ctl = ControllerConfig::default();
    for (job, pinned) in [
        (
            on_base(Benchmark::Vpenta, Scale::Small, Version::Selective),
            "04a49db6a2642922ab9b2c27a04bd096",
        ),
        (
            on_base(Benchmark::TpcC, Scale::Tiny, Version::Selective).with_controller(ctl),
            "593371edb3f8f6bdb2e5ed4639aaa2cd",
        ),
        (
            on_base(Benchmark::Vpenta, Scale::Large, Version::Base).with_mode(SimMode::sampled()),
            "ba564e701535a8585d4a5e3f098d4f28",
        ),
    ] {
        assert_eq!(job.job_id().to_string(), pinned, "{job:?}");
    }
}
