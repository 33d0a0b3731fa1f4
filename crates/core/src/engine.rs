//! The job engine: deduplicated, parallel execution of simulation jobs.
//!
//! Every paper artifact (Table 2/3, Figures 4–9, the sweeps, the
//! ablations) reduces to a *set* of independent simulations. A [`SimJob`]
//! names one of them — `(benchmark, scale, machine, assist, version,
//! compiler config)` — and a [`JobEngine`] executes a job set:
//!
//! 1. **Dedup.** Jobs are normalized to their *execution identity*: the
//!    prepared program (raw, optimized, or selectively marked), the
//!    machine, the assist actually attached for the version, and the
//!    assist's initial state. Two jobs with the same identity are simulated
//!    once — e.g. the `Base` run a bypass suite and a victim suite both
//!    need, or the `Base` runs the four improvement computations share.
//! 2. **Prepare once, simulate each execution once.** Each distinct
//!    `(benchmark, scale, preparation, opt-config)` program is built and
//!    compiled exactly once, shared by all jobs that execute it. Built
//!    programs are then compared: identities whose programs are equal, on
//!    the same machine and mode, with an assist that can never act
//!    differently, share one simulation (and one profile pass) — e.g. a
//!    `Selective` run whose code has no ON/OFF marker, which equals its
//!    optimized code and never turns its assist on, and the
//!    `PureSoftware` run of the same code. Each identity still gets its
//!    own result, `job_id` and store entry.
//! 3. **Execute in parallel.** The simulations run on the engine's shared
//!    [`Executor`](crate::Executor) budget (self-scheduling workers claim
//!    the next unstarted one). Sampled jobs fan their representative
//!    intervals out over the *same* budget — one global thread cap covers
//!    both levels. Simulations start in profile-pass order, the first of
//!    each profile pass before any that would wait on it, and the longest
//!    programs first within that order, so a long simulation never starts
//!    last and runs on alone. `threads == 1` runs inline with no pool at
//!    all.
//! 4. **Reassemble deterministically.** Results come back in submission
//!    order. Every simulation is itself deterministic, so output is
//!    bit-identical for every thread count.
//!
//! ```
//! use selcache_core::{JobEngine, MachineConfig, SimJob, Version};
//! use selcache_mem::AssistKind;
//! use selcache_workloads::{Benchmark, Scale};
//!
//! let engine = JobEngine::new(2);
//! let machine = MachineConfig::base();
//! let jobs = vec![
//!     SimJob::new(Benchmark::Adi, Scale::Tiny, machine.clone(), AssistKind::Bypass, Version::Base),
//!     SimJob::new(Benchmark::Adi, Scale::Tiny, machine, AssistKind::Bypass, Version::Selective),
//! ];
//! let results = engine.run(&jobs);
//! assert!(results[1].improvement_over(&results[0]) > 0.0);
//! ```

use crate::config::MachineConfig;
use crate::executor::Executor;
use crate::identity::{Canon, CanonWriter, JobId};
use crate::runner::{default_opt, simulate, SimResult, Version};
use crate::sampled::{simulate_sampled, SimMode};
use crate::store::Store;
use selcache_compiler::{
    insert_markers, optimize, region_partition, selective, AssistPolicy, OptConfig,
};
use selcache_ir::Program;
use selcache_mem::{AssistKind, ControllerConfig};
use selcache_workloads::{Benchmark, Scale};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::time::Instant;

/// One simulation request: a program source, the machine it runs on, the
/// assist under study, and the simulated version (Section 4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    /// Program source.
    pub benchmark: Benchmark,
    /// Workload scale.
    pub scale: Scale,
    /// Machine under test.
    pub machine: MachineConfig,
    /// Hardware assist under study. Versions that run without the assist
    /// (`Base`, `PureSoftware`) ignore this field — the engine's dedup key
    /// does too, so such jobs unify across assist studies.
    pub assist: AssistKind,
    /// Simulated version.
    pub version: Version,
    /// Compiler configuration used to prepare the code for the
    /// software-optimized versions.
    pub opt: OptConfig,
    /// Simulation mode: exact whole-trace simulation (the default) or
    /// SimPoint-style interval sampling. Part of the execution identity —
    /// sampled and exact runs of the same job hash to distinct ids.
    pub mode: SimMode,
}

impl SimJob {
    /// A job with the compiler configuration derived from the machine
    /// (block size and L1 capacity), exactly as [`crate::Experiment::new`]
    /// derives it.
    pub fn new(
        benchmark: Benchmark,
        scale: Scale,
        machine: MachineConfig,
        assist: AssistKind,
        version: Version,
    ) -> SimJob {
        let opt = default_opt(&machine);
        SimJob { benchmark, scale, machine, assist, version, opt, mode: SimMode::Exact }
    }

    /// Replaces the compiler configuration.
    pub fn with_opt(mut self, opt: OptConfig) -> SimJob {
        self.opt = opt;
        self
    }

    /// Replaces the simulation mode.
    pub fn with_mode(mut self, mode: SimMode) -> SimJob {
        self.mode = mode;
        self
    }

    /// Attaches the online assist controller to the job's machine. A
    /// [`Version::Selective`] job then prepares its program with
    /// [`selcache_compiler::AssistPolicy::Always`] (every region marked
    /// ON) and the hardware picks {off, bypass, victim} per region at run
    /// time; no stream buffers are built, whatever the `assist` field
    /// says. Part of the execution identity — dynamic and static runs of
    /// the same job hash to distinct ids.
    pub fn with_controller(mut self, ctl: ControllerConfig) -> SimJob {
        self.machine.mem.controller = Some(ctl);
        self
    }

    /// The job's stable 128-bit execution-identity hash: the engine's
    /// dedup key, the [`Store`] address, and the `job_id` echoed in
    /// results and reports. Two jobs share an id exactly when
    /// [`SimJob::same_execution`] holds.
    pub fn job_id(&self) -> JobId {
        JobId::of_bytes(&ExecKey::of(self).canonical_bytes())
    }

    /// Structural execution-identity equality: whether the engine would
    /// answer both jobs from one simulation (same prepared program,
    /// machine, effective assist, and initial assist state).
    pub fn same_execution(&self, other: &SimJob) -> bool {
        ExecKey::of(self) == ExecKey::of(other)
    }
}

/// How a version's code is prepared (Section 4.4's software flow), with
/// the compiler configuration the preparation reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PrepKind {
    /// Unmodified source (`Base`, `PureHardware`). Raw code does not depend
    /// on the compiler configuration, so raw jobs unify across configs.
    Raw,
    /// Locality-optimized (`PureSoftware`, `Combined`).
    Optimized(OptConfig),
    /// Locality-optimized plus ON/OFF markers (`Selective`).
    Selective(OptConfig),
    /// Locality-optimized with every region marked ON for the run-time
    /// controller (`Selective` on a machine with a
    /// [`ControllerConfig`] attached).
    Dynamic(OptConfig),
}

impl PrepKind {
    /// The version-to-preparation rule. `dynamic` says whether the machine
    /// has a controller attached: the hardware then picks the assist per
    /// region, so `Selective` marks every region ON instead of applying
    /// the paper's irregular-regions rule.
    pub(crate) fn of(version: Version, opt: &OptConfig, dynamic: bool) -> PrepKind {
        match version {
            Version::Base | Version::PureHardware => PrepKind::Raw,
            Version::PureSoftware | Version::Combined => PrepKind::Optimized(*opt),
            Version::Selective if dynamic => PrepKind::Dynamic(*opt),
            Version::Selective => PrepKind::Selective(*opt),
        }
    }

    /// Prepares `program` this way.
    pub(crate) fn apply(&self, program: &Program) -> Program {
        match self {
            PrepKind::Raw => program.clone(),
            PrepKind::Optimized(opt) => optimize(program, opt),
            PrepKind::Selective(opt) => selective(program, opt),
            PrepKind::Dynamic(opt) => {
                insert_markers(&optimize(program, opt), opt.threshold, AssistPolicy::Always)
            }
        }
    }

    /// The canonical tag byte and the compiler configuration, if any.
    fn parts(&self) -> (u8, Option<&OptConfig>) {
        match self {
            PrepKind::Raw => (0, None),
            PrepKind::Optimized(opt) => (1, Some(opt)),
            PrepKind::Selective(opt) => (2, Some(opt)),
            PrepKind::Dynamic(opt) => (3, Some(opt)),
        }
    }
}

impl Version {
    /// The assist actually attached to the hierarchy for this version under
    /// `assist`-study experiments.
    pub(crate) fn effective_assist(self, assist: AssistKind) -> AssistKind {
        match self {
            Version::Base | Version::PureSoftware => AssistKind::None,
            _ => assist,
        }
    }

    /// Whether the assist flag starts enabled. The selective version starts
    /// *off* (code is assumed software-optimized until an ON instruction
    /// runs); the always-on versions start on.
    pub(crate) fn initially_enabled(self) -> bool {
        !matches!(self, Version::Selective)
    }
}

/// Identity of a prepared program: the source and its preparation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProgramKey {
    benchmark: Benchmark,
    scale: Scale,
    prep: PrepKind,
}

impl ProgramKey {
    fn of(job: &SimJob) -> ProgramKey {
        ProgramKey {
            benchmark: job.benchmark,
            scale: job.scale,
            prep: PrepKind::of(job.version, &job.opt, job.machine.mem.controller.is_some()),
        }
    }

    fn build(&self) -> Program {
        self.prep.apply(&self.benchmark.build(self.scale))
    }

    /// The region-partition threshold runs of this program attribute
    /// with: the compiler configuration's for prepared code, the default
    /// for raw code (raw jobs share one [`JobId`] across configurations).
    fn threshold(&self) -> f64 {
        self.prep.parts().1.map_or(OptConfig::default().threshold, |opt| opt.threshold)
    }
}

impl Canon for ProgramKey {
    fn canon(&self, w: &mut CanonWriter) {
        self.benchmark.canon(w);
        self.scale.canon(w);
        let (tag, opt) = self.prep.parts();
        w.u8(tag);
        w.opt(&opt.copied());
    }
}

/// A job's full execution identity: the prepared program plus everything
/// the simulator reads. Jobs with equal keys produce equal results, so the
/// engine runs each key once.
#[derive(Debug, Clone, PartialEq)]
struct ExecKey {
    program: ProgramKey,
    machine: MachineConfig,
    assist: AssistKind,
    assist_enabled: bool,
    mode: SimMode,
}

impl ExecKey {
    fn of(job: &SimJob) -> ExecKey {
        ExecKey {
            program: ProgramKey::of(job),
            machine: job.machine.clone(),
            assist: job.version.effective_assist(job.assist),
            assist_enabled: job.version.initially_enabled(),
            mode: job.mode,
        }
    }

    /// The simulation that answers this identity once its program is
    /// built: the identity with its program replaced by `canonical`, the
    /// first built program of equal code, and its assist normalized to what
    /// the run can observe. `markers` is the program's
    /// [`Program::marker_count`].
    ///
    /// Without a controller, an assist is inert when it is
    /// [`AssistKind::None`] (no structure reads the flag) or when its flag
    /// starts off in code with no marker to switch it on. An inert assist
    /// is never probed, trained or filled, and its counters read 0, so the
    /// run equals one with no assist and the flag on. With a controller
    /// the flag gates the controller whatever the assist, so nothing is
    /// normalized.
    fn execution(&self, canonical: &ProgramKey, markers: usize) -> ExecKey {
        let inert = self.machine.mem.controller.is_none()
            && (self.assist == AssistKind::None || (!self.assist_enabled && markers == 0));
        let (assist, assist_enabled) =
            if inert { (AssistKind::None, true) } else { (self.assist, self.assist_enabled) };
        ExecKey {
            program: canonical.clone(),
            machine: self.machine.clone(),
            assist,
            assist_enabled,
            mode: self.mode,
        }
    }

    /// Process-wide selection-cache key of a sampled run's profile pass: a
    /// stable hash of the prepared-program identity plus the interval
    /// geometry. Everything that executes the same prepared program with
    /// the same interval size and representative budget shares one profile
    /// pass and one checkpoint set — warmup length is deliberately excluded
    /// (it only affects pass 2). The engine asks it of an
    /// [`ExecKey::execution`], so programs of equal code share one pass.
    /// `None` for an exact run, which has no profile pass.
    fn selection_key(&self) -> Option<u128> {
        let SimMode::Sampled { interval_ops, max_intervals, .. } = self.mode else {
            return None;
        };
        let mut w = CanonWriter::new();
        // Domain-separate from job ids so a selection key can never alias a
        // store address.
        w.str("selection-key");
        self.program.canon(&mut w);
        w.u64(interval_ops);
        w.usize(max_intervals);
        Some(JobId::of_bytes(&w.finish()).as_u128())
    }

    /// The key's canonical byte serialization: a schema-tagged, injective
    /// encoding of every field this type's `PartialEq` compares. Hashing
    /// it yields the job's [`JobId`]; the bytes themselves are echoed into
    /// store envelopes so a (vanishingly unlikely) hash collision degrades
    /// to a store miss instead of a wrong result.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = CanonWriter::new();
        self.program.canon(&mut w);
        // MachineConfig: cpu, mem, and the name (its `PartialEq` compares
        // the name too, and the old structural dedup inherited that).
        self.machine.cpu.canon(&mut w);
        self.machine.mem.canon(&mut w);
        w.str(self.machine.name);
        self.assist.canon(&mut w);
        w.bool(self.assist_enabled);
        // Simulation mode, tag + parameters (exact runs and sampled runs
        // of the same job are different results).
        match self.mode {
            SimMode::Exact => w.u8(0),
            SimMode::Sampled { interval_ops, max_intervals, warmup } => {
                w.u8(1);
                w.u64(interval_ops);
                w.usize(max_intervals);
                w.u64(warmup);
            }
        }
        w.finish()
    }
}

/// Whether a run attaches the region partition:
///
/// - A sampled run never carries regions: attribution needs every op
///   through the detailed pipeline.
/// - An exact run attaches them when `profiled`, and always on a machine
///   with a controller attached: the controller's per-region decisions
///   need region identities, so a controller run without them would be a
///   different simulation. Callers drop the regions of runs that did not
///   ask for them.
fn attaches_regions(machine: &MachineConfig, mode: SimMode, profiled: bool) -> bool {
    !mode.is_sampled() && (profiled || machine.mem.controller.is_some())
}

/// Simulates one prepared program: the one place that decides how a run
/// goes, for the [`JobEngine`] and [`Experiment::run_program`] alike. A run
/// that [attaches regions](attaches_regions) cuts them at `threshold`; any
/// other exact run takes the plain [`NullProbe`] path.
///
/// [`NullProbe`]: selcache_mem::NullProbe
///
/// `selection_key` names a sampled run's profile pass in the process-wide
/// selection cache ([`ExecKey::selection_key`]); ad-hoc programs pass
/// `None` and profile afresh.
///
/// [`Experiment::run_program`]: crate::Experiment::run_program
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_job(
    machine: &MachineConfig,
    assist: AssistKind,
    assist_enabled: bool,
    program: &Program,
    mode: SimMode,
    profiled: bool,
    threshold: f64,
    selection_key: Option<u128>,
    executor: &Executor,
) -> SimResult {
    match mode {
        SimMode::Sampled { interval_ops, max_intervals, warmup } => simulate_sampled(
            machine,
            assist,
            assist_enabled,
            program,
            interval_ops,
            max_intervals,
            warmup,
            selection_key,
            executor,
        ),
        SimMode::Exact if attaches_regions(machine, mode, profiled) => {
            let map = region_partition(program, threshold);
            simulate(machine, assist, assist_enabled, program, Some(&map))
        }
        SimMode::Exact => simulate(machine, assist, assist_enabled, program, None),
    }
}

/// A normalized job set: the dedup work [`JobEngine`] does before any
/// simulation starts, shared by execution and [`JobEngine::dry_run`].
struct ExecPlan {
    /// Distinct execution identities, in first-appearance order.
    unique: Vec<ExecKey>,
    /// For each submitted job, the index of its identity in `unique`.
    slot: Vec<usize>,
    /// For each unique identity, its canonical byte serialization (the
    /// hash preimage, echoed into store envelopes).
    identities: Vec<Vec<u8>>,
    /// For each unique identity, its stable 128-bit id.
    ids: Vec<JobId>,
    /// Distinct programs to prepare, in first-appearance order.
    prog_keys: Vec<ProgramKey>,
    /// For each unique identity, the index of its program in `prog_keys`.
    prog_of: Vec<usize>,
}

impl ExecPlan {
    fn of(jobs: &[SimJob]) -> ExecPlan {
        // Normalize and deduplicate on the canonical-identity hash. The
        // hash doubles as the on-disk store address, so dedup and the
        // persistent cache agree by construction; the debug assert (and
        // the identity-agreement property test) pin the hash to the
        // structural equality it replaced.
        let mut by_id: HashMap<u128, usize> = HashMap::with_capacity(jobs.len());
        let mut unique: Vec<ExecKey> = Vec::new();
        let mut identities: Vec<Vec<u8>> = Vec::new();
        let mut ids: Vec<JobId> = Vec::new();
        let mut slot: Vec<usize> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let key = ExecKey::of(job);
            let bytes = key.canonical_bytes();
            let id = JobId::of_bytes(&bytes);
            match by_id.get(&id.as_u128()) {
                Some(&k) => {
                    debug_assert_eq!(unique[k], key, "hash dedup must agree with structural dedup");
                    slot.push(k);
                }
                None => {
                    by_id.insert(id.as_u128(), unique.len());
                    slot.push(unique.len());
                    unique.push(key);
                    identities.push(bytes);
                    ids.push(id);
                }
            }
        }
        let mut prog_keys: Vec<ProgramKey> = Vec::new();
        let prog_of: Vec<usize> = unique
            .iter()
            .map(|key| match prog_keys.iter().position(|p| *p == key.program) {
                Some(k) => k,
                None => {
                    prog_keys.push(key.program.clone());
                    prog_keys.len() - 1
                }
            })
            .collect();
        ExecPlan { unique, slot, identities, ids, prog_keys, prog_of }
    }

    /// Groups the store-missing identities `needed` (indices into
    /// `unique`) into the simulations that answer them, given the built
    /// `programs` (indexed like `prog_keys`). Returns the simulations in
    /// first-appearance order, and for each identity in `needed` the index
    /// of its simulation.
    ///
    /// Each built program gets a canonical index: the first built program
    /// of the same source with equal code (selective code with no marker
    /// equals its optimized code). Identities whose
    /// [executions](ExecKey::execution) are equal, and whose regions, when
    /// attached, are cut at one threshold, share one simulation.
    fn runs(
        &self,
        needed: &[usize],
        programs: &[Option<Program>],
        profiled: bool,
    ) -> (Vec<Run>, Vec<usize>) {
        let source = |p: usize| (self.prog_keys[p].benchmark, self.prog_keys[p].scale);
        let canon: Vec<usize> = (0..self.prog_keys.len())
            .map(|p| {
                (0..p)
                    .find(|&q| {
                        programs[p].is_some()
                            && source(q) == source(p)
                            && programs[q] == programs[p]
                    })
                    .unwrap_or(p)
            })
            .collect();
        let mut by_execution: HashMap<(Vec<u8>, Option<u64>), usize> = HashMap::new();
        let mut runs: Vec<Run> = Vec::new();
        let run_of = needed
            .iter()
            .map(|&k| {
                let key = &self.unique[k];
                let p = self.prog_of[k];
                let program = programs[p].as_ref().expect("needed programs are built");
                let execution = key.execution(&self.prog_keys[canon[p]], program.marker_count());
                let threshold = attaches_regions(&key.machine, key.mode, profiled)
                    .then(|| key.program.threshold().to_bits());
                *by_execution.entry((execution.canonical_bytes(), threshold)).or_insert_with(|| {
                    runs.push(Run {
                        first: k,
                        selection_key: execution.selection_key(),
                        length: program.op_bound(),
                    });
                    runs.len() - 1
                })
            })
            .collect();
        (runs, run_of)
    }
}

/// One simulation of a job set.
struct Run {
    /// The first identity it answers, as an index into `ExecPlan::unique`;
    /// the simulation runs with that identity's program and assist.
    first: usize,
    /// Its profile pass's key ([`ExecKey::selection_key`] of its
    /// execution).
    selection_key: Option<u128>,
    /// Its program's [`Program::op_bound`].
    length: u64,
}

/// The order in which to start a job set's simulations, as indices into
/// `keys` (each simulation's [`ExecKey::selection_key`]) and `lengths`
/// (its program's [`Program::op_bound`]). A simulation's rank counts the
/// earlier ones that share its profile pass; exact runs all rank 0.
/// Sorting by rank first starts one profile pass per program, so each
/// later simulation finds its selection cached instead of blocking on a
/// sibling's pass. Within a rank the longer programs start first, so a
/// long simulation never starts last and runs on alone; a stable sort
/// keeps submission order among equal lengths.
fn profile_pass_order(keys: &[Option<u128>], lengths: &[u64]) -> Vec<usize> {
    let mut seen: HashMap<u128, usize> = HashMap::new();
    let rank: Vec<usize> = keys
        .iter()
        .map(|key| match key {
            Some(key) => {
                let earlier = seen.entry(*key).or_insert(0);
                *earlier += 1;
                *earlier - 1
            }
            None => 0,
        })
        .collect();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (rank[i], Reverse(lengths[i])));
    order
}

/// Counters describing what one [`JobEngine::run_with_stats`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs submitted.
    pub submitted: usize,
    /// Unique identities the store did not answer (all of them without a
    /// store; a fully warm store has zero). Each gets its own result and
    /// store entry; `executed - shared` simulations ran.
    pub executed: usize,
    /// Of the `executed` identities, those answered by another identity's
    /// simulation: equal code on the same machine and mode, with an assist
    /// that cannot act differently (for instance a selective version with
    /// no marker beside its optimized version).
    pub shared: usize,
    /// Jobs answered from another job's execution in the same set.
    pub dedup_hits: usize,
    /// Distinct programs built and compiled.
    pub programs_prepared: usize,
    /// Unique identities answered from the persistent result store
    /// (always 0 without a store).
    pub store_hits: usize,
    /// Unique identities the store was consulted for and did not have
    /// (always 0 without a store).
    pub store_misses: usize,
    /// Bytes of new store entries written by this run.
    pub bytes_written: u64,
    /// Worker threads the engine was configured with.
    pub threads: usize,
}

/// Executes [`SimJob`] sets with deduplication on a shared-budget
/// [`Executor`], optionally backed by a persistent [`Store`].
///
/// Results are returned in submission order and are bit-identical for
/// every thread count and any store state (each simulation is
/// deterministic, jobs share no mutable state, and stored results echo
/// the simulation that produced them exactly).
///
/// The engine's thread budget is *global*: job-level fan-out and the
/// interval-level fan-out inside each [`SimMode::Sampled`] job lease
/// workers from the same pool, so a single sampled job spreads its
/// representative intervals across every configured thread while a full
/// suite parallelizes across jobs first and lets long sampled jobs steal
/// workers their finished siblings release.
#[derive(Debug, Clone)]
pub struct JobEngine {
    executor: Executor,
    store: Option<Store>,
}

impl PartialEq for JobEngine {
    /// Engines compare by configuration (thread budget and store), not by
    /// pool identity — two `JobEngine::new(4)` instances are equal even
    /// though they lease from distinct budgets.
    fn eq(&self, other: &JobEngine) -> bool {
        self.threads() == other.threads() && self.store == other.store
    }
}

impl Eq for JobEngine {}

impl JobEngine {
    /// An engine with a thread budget of `threads`. `threads == 1` executes
    /// inline on the calling thread (exactly the historical serial
    /// behavior); `threads == 0` is promoted to
    /// [`JobEngine::default_parallelism`].
    pub fn new(threads: usize) -> JobEngine {
        JobEngine { executor: Executor::new(threads), store: None }
    }

    /// An engine running on an existing [`Executor`], sharing its thread
    /// budget with whatever else uses that executor (other engines, direct
    /// [`Experiment`](crate::Experiment) runs) instead of adding a pool.
    pub fn with_executor(executor: Executor) -> JobEngine {
        JobEngine { executor, store: None }
    }

    /// An engine backed by a persistent result store: unique identities
    /// already in the store are answered without simulating (or even
    /// preparing their programs), and everything newly simulated is
    /// written back. Output is byte-identical to a store-less engine.
    pub fn with_store(threads: usize, store: Store) -> JobEngine {
        let mut engine = JobEngine::new(threads);
        engine.store = Some(store);
        engine
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// A single-threaded engine.
    pub fn serial() -> JobEngine {
        JobEngine { executor: Executor::serial(), store: None }
    }

    /// The machine's available parallelism (1 if it cannot be queried).
    pub fn default_parallelism() -> usize {
        Executor::default_parallelism()
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// The engine's executor — the shared thread budget every fan-out in
    /// this engine (store lookups, program preparation, jobs, sampled
    /// intervals) leases workers from. Clone it to make other work share
    /// the same budget.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Runs a job set; `results[k]` answers `jobs[k]`.
    pub fn run(&self, jobs: &[SimJob]) -> Vec<SimResult> {
        self.run_with_stats(jobs).0
    }

    /// Runs a job set with region profiling: every result carries a
    /// populated `regions` profile, attributed with the partition derived
    /// from each job's compiler configuration (raw programs use the default
    /// threshold). Dedup and ordering behave exactly like [`JobEngine::run`].
    /// Jobs in [`SimMode::Sampled`] still run sampled and return without
    /// regions — per-region attribution requires exact execution.
    pub fn run_profiled(&self, jobs: &[SimJob]) -> Vec<SimResult> {
        self.execute(jobs, true).0
    }

    /// Runs a job set and reports dedup/executions counters.
    pub fn run_with_stats(&self, jobs: &[SimJob]) -> (Vec<SimResult>, EngineStats) {
        self.execute(jobs, false)
    }

    /// Like [`JobEngine::run_profiled`], additionally reporting the same
    /// counters as [`JobEngine::run_with_stats`].
    pub fn run_profiled_with_stats(&self, jobs: &[SimJob]) -> (Vec<SimResult>, EngineStats) {
        self.execute(jobs, true)
    }

    /// Normalizes a job set without executing anything: the counters
    /// [`JobEngine::run_with_stats`] would report on a cold (or absent)
    /// store — how many unique identities and distinct prepared programs
    /// the set needs. The store is not consulted and no program is built,
    /// so `shared`, which compares built programs, reads 0.
    pub fn dry_run(&self, jobs: &[SimJob]) -> EngineStats {
        let plan = ExecPlan::of(jobs);
        EngineStats {
            submitted: jobs.len(),
            executed: plan.unique.len(),
            dedup_hits: jobs.len() - plan.unique.len(),
            programs_prepared: plan.prog_keys.len(),
            threads: self.threads(),
            ..EngineStats::default()
        }
    }

    fn execute(&self, jobs: &[SimJob], profiled: bool) -> (Vec<SimResult>, EngineStats) {
        let plan = ExecPlan::of(jobs);
        let ExecPlan { unique, slot, identities, ids, prog_keys, prog_of } = &plan;

        // Consult the store first, one lookup per identity on the executor:
        // a hit answers the identity without preparing or simulating
        // anything. Profiled runs need region attribution, so region-less
        // entries are misses (re-simulated and overwritten with regions);
        // plain runs strip any stored regions so output stays
        // byte-identical with the store-less engine.
        let cached: Vec<Option<SimResult>> = match &self.store {
            Some(store) => {
                let all: Vec<usize> = (0..unique.len()).collect();
                self.executor.map(&all, |&k| {
                    // Sampled results never carry regions, so a profiled run
                    // accepts them as-is rather than re-simulating forever.
                    let needs_regions = profiled && !unique[k].mode.is_sampled();
                    let mut r = store.get(ids[k], &identities[k])?;
                    if needs_regions && r.regions.is_none() {
                        return None;
                    }
                    if !profiled {
                        r.regions = None;
                    }
                    Some(r)
                })
            }
            None => (0..unique.len()).map(|_| None).collect(),
        };
        let store_hits = cached.iter().filter(|c| c.is_some()).count();

        // Prepare only the programs that store-missing identities execute
        // (a fully warm store prepares none).
        let needed: Vec<usize> = (0..unique.len()).filter(|&k| cached[k].is_none()).collect();
        let mut prog_needed = vec![false; prog_keys.len()];
        for &k in &needed {
            prog_needed[prog_of[k]] = true;
        }
        let to_build: Vec<usize> = (0..prog_keys.len()).filter(|&p| prog_needed[p]).collect();
        let built = self.executor.map(&to_build, |&p| prog_keys[p].build());
        let mut programs: Vec<Option<Program>> = (0..prog_keys.len()).map(|_| None).collect();
        for (&p, program) in to_build.iter().zip(built) {
            programs[p] = Some(program);
        }

        let (runs, run_of) = plan.runs(&needed, &programs, profiled);

        // Run each simulation once, in parallel, timing it for the store's
        // envelope metadata. Sampled jobs receive the engine's executor so
        // their per-representative fan-out leases from the same budget as
        // the job-level fan-out. Simulations start in `profile_pass_order`;
        // results land by identity, so the order never shows in the output.
        let keys: Vec<Option<u128>> = runs.iter().map(|run| run.selection_key).collect();
        let lengths: Vec<u64> = runs.iter().map(|run| run.length).collect();
        let order = profile_pass_order(&keys, &lengths);
        let simulated = self.executor.map(&order, |&r| {
            let Run { first: k, selection_key, .. } = runs[r];
            let key = &unique[k];
            let start = Instant::now();
            let result = simulate_job(
                &key.machine,
                key.assist,
                key.assist_enabled,
                programs[prog_of[k]].as_ref().expect("prepared above"),
                key.mode,
                profiled,
                key.program.threshold(),
                selection_key,
                &self.executor,
            );
            (result, start.elapsed().as_secs_f64() * 1e3)
        });
        let mut by_run: Vec<Option<(SimResult, f64)>> = runs.iter().map(|_| None).collect();
        for (&r, simulation) in order.iter().zip(simulated) {
            by_run[r] = Some(simulation);
        }

        // Publish every store-missing identity to the store under its own
        // id, with its simulation's wall time, and fill the remaining slots.
        // A failed put (disk full, permissions) loses only persistence —
        // the in-memory result is still returned.
        let executed = needed.len();
        let mut bytes_written = 0u64;
        let mut per_unique = cached;
        for (&k, &r) in needed.iter().zip(&run_of) {
            let (result, wall_ms) = by_run[r].as_ref().expect("every simulation ran");
            let mut result = result.clone();
            if let Some(store) = &self.store {
                if let Ok(bytes) = store.put(ids[k], &identities[k], &result, *wall_ms) {
                    bytes_written += bytes;
                }
            }
            // Dynamic jobs simulate with regions attached even on plain
            // runs; persist the profile (so a later profiled run hits the
            // store) but return the result region-less, keeping plain-run
            // output byte-identical between cold and warm stores.
            if !profiled {
                result.regions = None;
            }
            per_unique[k] = Some(result);
        }
        let mut results: Vec<SimResult> =
            per_unique.into_iter().map(|r| r.expect("every identity answered")).collect();
        for (result, &id) in results.iter_mut().zip(ids) {
            result.job_id = Some(id);
        }

        let stats = EngineStats {
            submitted: jobs.len(),
            executed,
            shared: executed - runs.len(),
            dedup_hits: jobs.len() - unique.len(),
            programs_prepared: to_build.len(),
            store_hits,
            store_misses: if self.store.is_some() { executed } else { 0 },
            bytes_written,
            threads: self.threads(),
        };
        (slot.iter().map(|&k| results[k].clone()).collect(), stats)
    }
}

impl Default for JobEngine {
    /// An engine sized to [`JobEngine::default_parallelism`].
    fn default() -> JobEngine {
        JobEngine::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuiteResult;

    fn suite_jobs(assist: AssistKind) -> Vec<SimJob> {
        let machine = MachineConfig::base();
        let mut jobs = Vec::new();
        for version in
            [Version::Base, Version::PureHardware, Version::PureSoftware, Version::Selective]
        {
            jobs.push(SimJob::new(Benchmark::Adi, Scale::Tiny, machine.clone(), assist, version));
        }
        jobs
    }

    #[test]
    fn duplicate_jobs_execute_once() {
        let mut jobs = suite_jobs(AssistKind::Bypass);
        jobs.extend(suite_jobs(AssistKind::Bypass));
        let (results, stats) = JobEngine::serial().run_with_stats(&jobs);
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.executed, 4);
        assert_eq!(stats.dedup_hits, 4);
        assert_eq!(results[0], results[4]);
        assert_eq!(results[3], results[7]);
    }

    #[test]
    fn assist_free_versions_unify_across_assists() {
        let mut jobs = suite_jobs(AssistKind::Bypass);
        jobs.extend(suite_jobs(AssistKind::Victim));
        let (results, stats) = JobEngine::new(2).run_with_stats(&jobs);
        // Base and PureSoftware are assist-free: one execution each.
        // PureHardware and Selective differ per assist: two each.
        assert_eq!(stats.executed, 6);
        assert_eq!(stats.dedup_hits, 2);
        assert_eq!(results[0], results[4], "Base shared across assists");
        assert_eq!(results[2], results[6], "PureSoftware shared across assists");
        assert_ne!(results[1], results[5], "PureHardware differs per assist");
    }

    #[test]
    fn raw_versions_share_programs_across_opt_configs() {
        let machine = MachineConfig::base();
        let mut loose = default_opt(&machine);
        loose.threshold = 0.9;
        let jobs = vec![
            SimJob::new(
                Benchmark::Li,
                Scale::Tiny,
                machine.clone(),
                AssistKind::Bypass,
                Version::Base,
            ),
            SimJob::new(Benchmark::Li, Scale::Tiny, machine, AssistKind::Bypass, Version::Base)
                .with_opt(loose),
        ];
        let (results, stats) = JobEngine::serial().run_with_stats(&jobs);
        assert_eq!(stats.executed, 1, "raw code ignores the opt config");
        assert_eq!(stats.programs_prepared, 1);
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn parallel_results_match_serial_in_submission_order() {
        let mut jobs = suite_jobs(AssistKind::Bypass);
        jobs.extend(suite_jobs(AssistKind::Victim));
        let serial = JobEngine::serial().run(&jobs);
        let parallel = JobEngine::new(4).run(&jobs);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn profiled_runs_match_plain_aggregates() {
        let jobs = suite_jobs(AssistKind::Bypass);
        let plain = JobEngine::new(2).run(&jobs);
        let profiled = JobEngine::new(2).run_profiled(&jobs);
        for (p, q) in plain.iter().zip(&profiled) {
            assert_eq!(p.cycles, q.cycles, "profiling must not perturb results");
            assert_eq!(p.cpu, q.cpu);
            assert_eq!(p.mem, q.mem);
            let total = q.regions.as_ref().expect("profiled run").total();
            assert_eq!(total.cycles, q.cycles);
            assert_eq!(total.committed, q.instructions);
        }
    }

    #[test]
    fn sampled_mode_is_part_of_the_identity() {
        let exact = SimJob::new(
            Benchmark::Vpenta,
            Scale::Small,
            MachineConfig::base(),
            AssistKind::None,
            Version::Base,
        );
        let sampled = exact.clone().with_mode(SimMode::Sampled {
            interval_ops: 4096,
            max_intervals: 4,
            warmup: 1024,
        });
        assert_ne!(exact.job_id(), sampled.job_id(), "mode must split the identity");
        assert!(!exact.same_execution(&sampled));
        // Different sampling parameters are different identities too.
        let wider = exact.clone().with_mode(SimMode::Sampled {
            interval_ops: 8192,
            max_intervals: 4,
            warmup: 1024,
        });
        assert_ne!(sampled.job_id(), wider.job_id());
    }

    #[test]
    fn sampled_results_are_thread_count_invariant() {
        let machine = MachineConfig::base();
        let mode = SimMode::Sampled { interval_ops: 4096, max_intervals: 4, warmup: 1024 };
        let jobs: Vec<SimJob> = [Version::Base, Version::PureHardware, Version::Selective]
            .into_iter()
            .map(|v| {
                SimJob::new(Benchmark::Vpenta, Scale::Small, machine.clone(), AssistKind::Bypass, v)
                    .with_mode(mode)
            })
            .collect();
        let serial = JobEngine::serial().run(&jobs);
        let parallel = JobEngine::new(4).run(&jobs);
        assert_eq!(serial, parallel, "sampled results must be bit-identical across threads");
        assert!(serial.iter().all(|r| r.sampled.is_some()));
    }

    #[test]
    fn controller_splits_the_identity() {
        let base = SimJob::new(
            Benchmark::Adi,
            Scale::Tiny,
            MachineConfig::base(),
            AssistKind::None,
            Version::Selective,
        );
        let dynamic = base.clone().with_controller(ControllerConfig::default());
        assert_ne!(base.job_id(), dynamic.job_id(), "controller must split the identity");
        assert!(!base.same_execution(&dynamic));
        // Different controller parameters are different identities too.
        let tuned = ControllerConfig { interval_accesses: 128, ..ControllerConfig::default() };
        assert_ne!(dynamic.job_id(), base.with_controller(tuned).job_id());
    }

    #[test]
    fn dynamic_jobs_are_thread_invariant_and_region_less_when_plain() {
        let machine = MachineConfig::base();
        let ctl = ControllerConfig { interval_accesses: 128, ..ControllerConfig::default() };
        let jobs: Vec<SimJob> = [Benchmark::Adi, Benchmark::Li]
            .into_iter()
            .map(|b| {
                SimJob::new(b, Scale::Tiny, machine.clone(), AssistKind::None, Version::Selective)
                    .with_controller(ctl)
            })
            .collect();
        let serial = JobEngine::serial().run(&jobs);
        let parallel = JobEngine::new(4).run(&jobs);
        assert_eq!(serial, parallel, "dynamic results must be bit-identical across threads");
        assert!(serial.iter().all(|r| r.regions.is_none()), "plain runs stay region-less");
        // Profiled runs of the same jobs attach the per-region profile
        // without perturbing the aggregate counters.
        let profiled = JobEngine::new(2).run_profiled(&jobs);
        for (p, q) in serial.iter().zip(&profiled) {
            assert_eq!(p.cycles, q.cycles, "profiling must not perturb dynamic results");
            assert!(q.regions.is_some());
        }
    }

    /// Checks `profile_pass_order(keys, lengths)` against its definition:
    /// a permutation of the simulations, ranks never decreasing, longer
    /// programs first within a rank, submission order among equal lengths,
    /// and every simulation that shares a profile pass after that pass's
    /// first simulation.
    fn check_profile_pass_order(keys: &[Option<u128>], lengths: &[u64]) -> Vec<usize> {
        let first = |i: usize| keys[..i].iter().position(|&k| k.is_some() && k == keys[i]);
        let rank: Vec<usize> = (0..keys.len())
            .map(|i| match keys[i] {
                Some(key) => keys[..i].iter().filter(|&&k| k == Some(key)).count(),
                None => 0,
            })
            .collect();
        let order = profile_pass_order(keys, lengths);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..keys.len()).collect::<Vec<_>>(), "a permutation");
        for w in order.windows(2) {
            assert!(rank[w[0]] <= rank[w[1]], "ranks never decrease: {order:?}");
            if rank[w[0]] == rank[w[1]] {
                assert!(lengths[w[0]] >= lengths[w[1]], "longest first in a rank: {order:?}");
                if lengths[w[0]] == lengths[w[1]] {
                    assert!(w[0] < w[1], "submission order among equals: {order:?}");
                }
            }
        }
        let position = |i: usize| order.iter().position(|&j| j == i).expect("permutation");
        for i in 0..keys.len() {
            if let Some(f) = first(i) {
                assert!(position(f) < position(i), "{i} starts after its pass's first: {order:?}");
            }
        }
        order
    }

    #[test]
    fn profile_pass_order_starts_one_pass_per_program_first() {
        // Pairs of sampled jobs on one program (keys 1..=3, as a suite's
        // Base/PureHardware pairs), a lone program, and exact jobs.
        let (a, b, c, d) = (Some(1), Some(2), Some(3), Some(4));
        let keys = [a, a, None, b, b, c, None, c, a, d];
        let order = check_profile_pass_order(&keys, &[1; 10]);
        assert_eq!(order, [0, 2, 3, 5, 6, 9, 1, 4, 7, 8]);
        // Within a rank the longer programs start first; a job that shares
        // a pass (1, 4, 7, 8) still waits for the pass's first job, even
        // when it is longer than every first job, as job 1 is here.
        let lengths = [1, 9, 5, 2, 8, 3, 7, 4, 6, 8];
        let order = check_profile_pass_order(&keys, &lengths);
        assert_eq!(order, [9, 6, 2, 5, 3, 0, 1, 4, 7, 8]);
        // Exact jobs only, as in suite_exact and service_mixed: longest
        // first, ties in submission order.
        assert_eq!(check_profile_pass_order(&[None; 5], &[3, 7, 3, 9, 1]), [3, 1, 0, 2, 4]);
        // Sampled jobs on distinct programs of equal length keep their order.
        assert_eq!(check_profile_pass_order(&[d, c, b, a], &[5; 4]), [0, 1, 2, 3]);
        assert!(check_profile_pass_order(&[], &[]).is_empty());
        // A long set with many ties, past the lengths a sort handles by
        // insertion: every fifth job exact, the rest on 13 programs.
        let keys: Vec<Option<u128>> =
            (0..300u128).map(|i| (i % 5 != 0).then_some(i * 7919 % 13)).collect();
        let lengths: Vec<u64> = (0..300u64).map(|i| i * 31 % 7).collect();
        check_profile_pass_order(&keys, &lengths);
    }

    /// The simulations the engine would run for `jobs` on a cold store, in
    /// the order it starts them, as the benchmark and version of each
    /// simulation's first job (every job in `jobs` must be its own
    /// identity).
    fn start_order(jobs: &[SimJob]) -> Vec<(Benchmark, Version)> {
        let plan = ExecPlan::of(jobs);
        assert_eq!(plan.unique.len(), jobs.len(), "one identity per job");
        let needed: Vec<usize> = (0..jobs.len()).collect();
        let programs: Vec<Option<Program>> =
            plan.prog_keys.iter().map(|p| Some(p.build())).collect();
        let (runs, _) = plan.runs(&needed, &programs, false);
        let keys: Vec<Option<u128>> = runs.iter().map(|run| run.selection_key).collect();
        let lengths: Vec<u64> = runs.iter().map(|run| run.length).collect();
        profile_pass_order(&keys, &lengths)
            .into_iter()
            .map(|r| (jobs[runs[r].first].benchmark, jobs[runs[r].first].version))
            .collect()
    }

    #[test]
    fn sampled_jobs_start_in_profile_pass_order() {
        // The perfbench shape at Large: Base/PureHardware and
        // PureSoftware/Combined share a prepared program, and Vpenta's
        // Selective code, with no marker, equals its PureSoftware code.
        let jobs = SuiteResult::jobs_in_mode(
            &MachineConfig::base(),
            AssistKind::Bypass,
            Scale::Large,
            &[Benchmark::Vpenta, Benchmark::Chaos],
            SimMode::sampled(),
        );
        use Benchmark::{Chaos, Vpenta};
        use Version::{Base, Combined, PureHardware, PureSoftware, Selective};
        // One pass per program first, Chaos's longer programs before
        // Vpenta's (optimized code runs more loop overhead than raw code,
        // and selective code adds its markers); Vpenta's Selective job
        // needs no simulation of its own.
        let expected = [
            (Chaos, Selective),
            (Chaos, PureSoftware),
            (Chaos, Base),
            (Vpenta, PureSoftware),
            (Vpenta, Base),
            (Chaos, Combined),
            (Chaos, PureHardware),
            (Vpenta, Combined),
            (Vpenta, PureHardware),
        ];
        assert_eq!(start_order(&jobs), expected);
        // Exact jobs have no profile pass.
        assert_eq!(ExecKey::of(&jobs[0].clone().with_mode(SimMode::Exact)).selection_key(), None);
    }

    #[test]
    fn zero_threads_promotes_to_available_parallelism() {
        assert_eq!(JobEngine::new(0).threads(), JobEngine::default_parallelism());
        assert_eq!(JobEngine::serial().threads(), 1);
        assert!(JobEngine::default().threads() >= 1);
    }

    #[test]
    fn empty_job_set_is_fine() {
        let (results, stats) = JobEngine::default().run_with_stats(&[]);
        assert!(results.is_empty());
        assert_eq!(stats, EngineStats { threads: stats.threads, ..EngineStats::default() });
    }
}
