//! The experiment runner: builds a benchmark, prepares the code for one of
//! the paper's simulated versions (Section 4.3), and runs it through the
//! processor + memory-hierarchy simulator.

use crate::config::MachineConfig;
use crate::engine::{simulate_job, JobEngine, PrepKind, SimJob};
use crate::executor::Executor;
use crate::profile::{RegionProfile, RegionProfileProbe};
use crate::sampled::{SampledInfo, SimMode};
use selcache_compiler::OptConfig;
use selcache_cpu::{CpuStats, Pipeline};
use selcache_ir::{Interp, Program, RegionMap};
use selcache_mem::{AssistKind, ControllerConfig, HierarchyStats, MemoryHierarchy};
use selcache_workloads::{Benchmark, Scale};
use std::fmt;

/// The four simulated versions of Section 4.3, plus the base run that
/// improvements are measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Base code on the base machine (the 100% reference).
    Base,
    /// Base code with the hardware assist always on.
    PureHardware,
    /// Compiler-optimized code, no hardware assist.
    PureSoftware,
    /// Compiler-optimized code with the assist always on.
    Combined,
    /// Compiler-optimized code with compiler-inserted ON/OFF instructions
    /// driving the assist (this paper's approach).
    Selective,
}

impl Version {
    /// The four versions the paper's figures report (everything but
    /// [`Version::Base`]).
    pub const REPORTED: [Version; 4] =
        [Version::PureHardware, Version::PureSoftware, Version::Combined, Version::Selective];
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Version::Base => "Base",
            Version::PureHardware => "Pure Hardware",
            Version::PureSoftware => "Pure Software",
            Version::Combined => "Combined",
            Version::Selective => "Selective",
        };
        f.write_str(s)
    }
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total execution cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Core statistics.
    pub cpu: CpuStats,
    /// Memory-hierarchy statistics.
    pub mem: HierarchyStats,
    /// Per-region attribution, present when an exact run was profiled
    /// ([`Experiment::run_profiled`], [`JobEngine::run_profiled`]).
    pub regions: Option<RegionProfile>,
    /// Sampling coverage, present when the run used [`SimMode::Sampled`]
    /// (cycles and miss counters are then weighted extrapolations from the
    /// representative intervals; `instructions` stays exact).
    pub sampled: Option<SampledInfo>,
    /// The stable execution-identity hash of the job that produced this
    /// result: the [`JobEngine`]'s dedup key and store address. `None` only
    /// for [`Experiment::run_program`], whose ad-hoc programs carry no
    /// identity.
    pub job_id: Option<crate::identity::JobId>,
}

impl SimResult {
    /// L1 data-cache miss rate in percent (0 when no access was made, so
    /// an empty run never reports NaN).
    pub fn l1_miss_pct(&self) -> f64 {
        self.mem.l1d.miss_rate() * 100.0
    }

    /// L2 miss rate in percent (0 when no access was made).
    pub fn l2_miss_pct(&self) -> f64 {
        self.mem.l2.miss_rate() * 100.0
    }

    /// Percent improvement of `self` relative to a base run (positive =
    /// faster).
    pub fn improvement_over(&self, base: &SimResult) -> f64 {
        if base.cycles == 0 {
            return 0.0;
        }
        (base.cycles as f64 - self.cycles as f64) / base.cycles as f64 * 100.0
    }
}

/// The compiler configuration an experiment derives from its machine: the
/// locality passes target the L1 data cache's block size and capacity.
pub(crate) fn default_opt(machine: &MachineConfig) -> OptConfig {
    let mut opt = OptConfig { block_bytes: machine.mem.l1d.block_size, ..OptConfig::default() };
    opt.tiling.cache_bytes = machine.mem.l1d.size;
    opt
}

/// A fresh memory hierarchy for one run: `machine`'s memory system with
/// `assist` attached and the assist flag starting at `assist_enabled`.
pub(crate) fn hierarchy(
    machine: &MachineConfig,
    assist: AssistKind,
    assist_enabled: bool,
) -> MemoryHierarchy {
    let mut cfg = machine.mem.clone();
    cfg.assist = assist;
    let mut mem = MemoryHierarchy::new(cfg);
    mem.set_assist_enabled(assist_enabled);
    mem
}

/// Runs one prepared program exactly on one machine. With `regions`, a
/// [`RegionProfileProbe`] attributes every event to its region (aggregate
/// counters are unchanged); without, the run takes the plain
/// [`Pipeline::run`] path.
pub(crate) fn simulate(
    machine: &MachineConfig,
    assist: AssistKind,
    assist_enabled: bool,
    program: &Program,
    regions: Option<&RegionMap>,
) -> SimResult {
    let mut mem = hierarchy(machine, assist, assist_enabled);
    let mut pipeline = Pipeline::new(machine.cpu);
    let (stats, regions) = match regions {
        Some(map) => {
            let mut probe = RegionProfileProbe::new(map);
            let stats =
                pipeline.run_probed(Interp::with_regions(program, map), &mut mem, &mut probe);
            (stats, Some(probe.finish()))
        }
        None => (pipeline.run(Interp::new(program), &mut mem), None),
    };
    SimResult {
        cycles: stats.cycles,
        instructions: stats.committed,
        cpu: stats,
        mem: mem.stats(),
        regions,
        sampled: None,
        job_id: None,
    }
}

/// Fluent constructor for [`Experiment`] — the primary way to configure a
/// run.
///
/// Every knob has a sensible default (base machine, no assist, compiler
/// config derived from the machine, all available cores), so callers state
/// only what they vary:
///
/// ```
/// use selcache_core::{ExperimentBuilder, MachineConfig};
/// use selcache_mem::AssistKind;
///
/// let exp = ExperimentBuilder::new()
///     .machine(MachineConfig::base())
///     .assist(AssistKind::Victim)
///     .threads(2)
///     .build();
/// assert_eq!(exp.threads(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExperimentBuilder {
    machine: Option<MachineConfig>,
    assist: AssistKind,
    opt: Option<OptConfig>,
    threads: usize,
    mode: SimMode,
    controller: Option<ControllerConfig>,
}

impl ExperimentBuilder {
    /// A builder with every knob at its default.
    pub fn new() -> Self {
        ExperimentBuilder::default()
    }

    /// Sets the machine under test (default: [`MachineConfig::base`]).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Sets the hardware assist under study (default: [`AssistKind::None`]).
    pub fn assist(mut self, assist: AssistKind) -> Self {
        self.assist = assist;
        self
    }

    /// Overrides the compiler configuration (default: derived from the
    /// machine's L1 block size and capacity).
    pub fn opt(mut self, opt: OptConfig) -> Self {
        self.opt = Some(opt);
        self
    }

    /// Sets the worker-thread count for suite execution. `0` (the default)
    /// means [`JobEngine::default_parallelism`]; `1` reproduces the
    /// historical serial execution exactly.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the simulation mode (default [`SimMode::Exact`]). Pass
    /// [`SimMode::sampled`] (or a hand-tuned [`SimMode::Sampled`]) to
    /// replace detailed whole-trace simulation with interval sampling.
    pub fn mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches the online assist controller to the machine under test
    /// (default: none — fully static assist selection). With a controller,
    /// [`Version::Selective`] prepares its code with every region marked
    /// ON and the hardware picks {off, bypass, victim} per region at run
    /// time.
    pub fn controller(mut self, ctl: ControllerConfig) -> Self {
        self.controller = Some(ctl);
        self
    }

    /// Builds the experiment.
    pub fn build(self) -> Experiment {
        let mut machine = self.machine.unwrap_or_else(MachineConfig::base);
        if let Some(ctl) = self.controller {
            machine.mem.controller = Some(ctl);
        }
        let opt = self.opt.unwrap_or_else(|| default_opt(&machine));
        Experiment {
            machine,
            assist: self.assist,
            opt,
            threads: self.threads,
            mode: self.mode,
            executor: Executor::new(self.threads),
        }
    }
}

/// An experiment: a machine configuration plus the hardware assist under
/// study.
///
/// Construct one with [`ExperimentBuilder`] (or the [`Experiment::new`]
/// shorthand).
///
/// ```
/// use selcache_core::{Experiment, MachineConfig, Version};
/// use selcache_mem::AssistKind;
/// use selcache_workloads::{Benchmark, Scale};
///
/// let exp = Experiment::new(MachineConfig::base(), AssistKind::Victim);
/// let base = exp.run(Benchmark::Adi, Scale::Tiny, Version::Base);
/// let sel = exp.run(Benchmark::Adi, Scale::Tiny, Version::Selective);
/// assert!(sel.cycles > 0 && base.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    machine: MachineConfig,
    assist: AssistKind,
    opt: OptConfig,
    threads: usize,
    mode: SimMode,
    executor: Executor,
}

impl Experiment {
    /// Creates an experiment with the default compiler configuration.
    pub fn new(machine: MachineConfig, assist: AssistKind) -> Self {
        ExperimentBuilder::new().machine(machine).assist(assist).build()
    }

    /// The machine under test.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The assist under study.
    pub fn assist(&self) -> AssistKind {
        self.assist
    }

    /// The compiler configuration.
    pub fn opt(&self) -> &OptConfig {
        &self.opt
    }

    /// The configured worker-thread count (`0` = all available cores).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The simulation mode.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// A [`JobEngine`] on this experiment's thread budget, without a
    /// store: [`Experiment::run`] and [`Experiment::run_profiled`] submit
    /// their job to it, and any other engine built here leases workers
    /// from the same pool.
    pub fn engine(&self) -> JobEngine {
        JobEngine::with_executor(self.executor.clone())
    }

    /// Prepares the program a version executes (Section 4.4's software
    /// development flow).
    pub fn prepare(&self, program: &Program, version: Version) -> Program {
        PrepKind::of(version, &self.opt, self.machine.mem.controller.is_some()).apply(program)
    }

    /// Runs a prepared program under the experiment's [`SimMode`], by the
    /// same rules as a plain [`Experiment::run`]. Ad-hoc programs carry no
    /// stable identity, so the result has no `job_id` and sampled runs
    /// profile the trace afresh each call; [`Experiment::run`] and the
    /// [`JobEngine`] share profile passes process-wide.
    pub fn run_program(&self, program: &Program, version: Version) -> SimResult {
        let mut result = simulate_job(
            &self.machine,
            version.effective_assist(self.assist),
            version.initially_enabled(),
            program,
            self.mode,
            false,
            self.opt.threshold,
            None,
            &self.executor,
        );
        result.regions = None;
        result
    }

    /// The job this experiment runs for one benchmark version.
    fn job(&self, benchmark: Benchmark, scale: Scale, version: Version) -> SimJob {
        SimJob {
            benchmark,
            scale,
            machine: self.machine.clone(),
            assist: self.assist,
            version,
            opt: self.opt,
            mode: self.mode,
        }
    }

    /// Builds, prepares, and runs a benchmark under a version: one
    /// [`SimJob`] through [`Experiment::engine`].
    pub fn run(&self, benchmark: Benchmark, scale: Scale, version: Version) -> SimResult {
        self.engine().run(&[self.job(benchmark, scale, version)]).remove(0)
    }

    /// [`Experiment::run`] with region profiling, through
    /// [`JobEngine::run_profiled`]: every cycle, commit, cache access, and
    /// assist event is attributed to its region, and aggregate counters are
    /// unchanged. Regions are cut at the compiler configuration's
    /// threshold, and at the default threshold for raw code (`Base`,
    /// `PureHardware`), whose jobs share one id across configurations. The
    /// job always runs exact, whatever the experiment's [`SimMode`]:
    /// attribution needs every op through the detailed pipeline.
    pub fn run_profiled(&self, benchmark: Benchmark, scale: Scale, version: Version) -> SimResult {
        let job = self.job(benchmark, scale, version).with_mode(SimMode::Exact);
        self.engine().run_profiled(&[job]).remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(assist: AssistKind) -> Experiment {
        Experiment::new(MachineConfig::base(), assist)
    }

    #[test]
    fn base_and_versions_commit_same_work() {
        // Base and PureHardware run identical code; Selective adds only the
        // ON/OFF instructions.
        let e = exp(AssistKind::Bypass);
        let base = e.run(Benchmark::Chaos, Scale::Tiny, Version::Base);
        let hw = e.run(Benchmark::Chaos, Scale::Tiny, Version::PureHardware);
        assert_eq!(base.instructions, hw.instructions);
        let sel = e.run(Benchmark::Chaos, Scale::Tiny, Version::Selective);
        assert!(sel.cpu.assist_toggles > 0, "selective must toggle the assist");
    }

    #[test]
    fn software_helps_regular_code() {
        let e = exp(AssistKind::Bypass);
        let base = e.run(Benchmark::Vpenta, Scale::Tiny, Version::Base);
        let sw = e.run(Benchmark::Vpenta, Scale::Tiny, Version::PureSoftware);
        assert!(
            sw.improvement_over(&base) > 5.0,
            "vpenta software improvement {:.2}%",
            sw.improvement_over(&base)
        );
    }

    #[test]
    fn software_cannot_help_irregular_code() {
        let e = exp(AssistKind::Bypass);
        let base = e.run(Benchmark::Li, Scale::Tiny, Version::Base);
        let sw = e.run(Benchmark::Li, Scale::Tiny, Version::PureSoftware);
        let imp = sw.improvement_over(&base).abs();
        assert!(imp < 3.0, "li software improvement should be tiny, got {imp:.2}%");
    }

    #[test]
    fn miss_rates_reported() {
        let e = exp(AssistKind::None);
        let r = e.run(Benchmark::Vpenta, Scale::Tiny, Version::Base);
        assert!(r.l1_miss_pct() > 5.0, "vpenta base L1 miss {:.1}%", r.l1_miss_pct());
        assert!(r.l2_miss_pct() >= 0.0);
    }

    #[test]
    fn prepare_is_deterministic() {
        let e = exp(AssistKind::Victim);
        let p = Benchmark::Swim.build(Scale::Tiny);
        assert_eq!(e.prepare(&p, Version::Selective), e.prepare(&p, Version::Selective));
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let d = ExperimentBuilder::new().build();
        assert_eq!(*d.machine(), MachineConfig::base());
        assert_eq!(d.assist(), AssistKind::None);
        assert_eq!(d.threads(), 0);
        assert!(d.engine().threads() >= 1);

        let machine = MachineConfig::base();
        let derived = default_opt(&machine);
        let e =
            ExperimentBuilder::new().machine(machine).assist(AssistKind::Stream).threads(1).build();
        assert_eq!(*e.opt(), derived);
        assert_eq!(e.assist(), AssistKind::Stream);
        assert_eq!(e.engine().threads(), 1);
    }

    #[test]
    fn builder_matches_legacy_constructors() {
        let m = MachineConfig::larger_l1();
        let a = Experiment::new(m.clone(), AssistKind::Victim);
        let b = ExperimentBuilder::new().machine(m).assist(AssistKind::Victim).build();
        assert_eq!(a.opt(), b.opt());
        assert_eq!(a.machine(), b.machine());
    }
}
