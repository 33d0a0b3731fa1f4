//! Design-space sweeps behind the unified [`SweepSpec`] API.
//!
//! A sweep evaluates one benchmark across a grid of machine parameters —
//! the data behind the paper's sensitivity discussion (Section 5.1) and
//! behind any "what if the cache were shaped differently" exploration.
//! [`SweepSpec`] is the single entry point: declare the parameter axes,
//! the benchmark, and the evaluation mode, then [`SweepSpec::run`].
//!
//! Two modes share one result shape ([`Sweep`]):
//!
//! - [`SweepMode::Exact`] normalizes the grid into a [`JobEngine`] job
//!   set — every point simulates the base run plus the four reported
//!   versions, and the point carries their % improvements. This is the
//!   historical sweep, with the engine deduplicating the work points
//!   share (prepared programs, identical runs).
//! - [`SweepMode::Analytical`] runs **one trace pass per program version
//!   and distinct line size** — each streams the version's compiled
//!   access plan ([`Interp::with_plan`]) through its own exact LRU
//!   reuse-distance profiler, and the passes fan out on the engine's
//!   executor — and then evaluates every `(size, associativity, line)`
//!   grid point from the resulting [`CacheModel`]s: fully-associative
//!   miss ratios are exact (Mattson), set-associative ones use the
//!   binomial projection. A configurable fraction of grid points is
//!   cross-checked against exact simulation, and the sweep reports the
//!   max/mean absolute error alongside each estimate. A 100-point grid
//!   over one line size costs two trace passes plus a handful of
//!   verification sims instead of 100 full simulations.
//!
//! ```
//! use selcache_core::{SweepAxis, SweepMode, SweepSpec};
//! use selcache_workloads::{Benchmark, Scale};
//!
//! let sweep = SweepSpec::new(Benchmark::TpcDQ6)
//!     .scale(Scale::Tiny)
//!     .mode(SweepMode::Analytical { check_fraction: 0.1 })
//!     .axis(SweepAxis::L1Size, [8 * 1024, 16 * 1024, 32 * 1024])
//!     .axis(SweepAxis::L1Assoc, [1, 2, 4])
//!     .run()
//!     .unwrap();
//! assert_eq!(sweep.points.len(), 9);
//! assert!(sweep.check.unwrap().max_abs_error < 0.25);
//! ```

use crate::config::MachineConfig;
use crate::engine::{EngineStats, JobEngine, SimJob};
use crate::runner::{default_opt, Version};
use selcache_analysis::{CacheModel, ReuseProfiler, ReuseSpectrum};
use selcache_compiler::optimize;
use selcache_ir::{Interp, Plan};
use selcache_mem::{AssistKind, CacheConfig};
use selcache_workloads::{Benchmark, Scale};
use std::fmt;
use std::fmt::Write as _;

/// A machine parameter a sweep can vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Main-memory latency in cycles.
    MemLatency,
    /// L1 capacity in bytes (data and instruction, like the paper's
    /// "Larger L1" variant).
    L1Size,
    /// L1 associativity in ways (data and instruction).
    L1Assoc,
    /// L1 line (block) size in bytes (data and instruction).
    L1Line,
    /// L2 capacity in bytes.
    L2Size,
    /// L2 associativity in ways.
    L2Assoc,
}

impl SweepAxis {
    /// The axis's column/parameter name.
    pub fn name(self) -> &'static str {
        match self {
            SweepAxis::MemLatency => "mem_latency",
            SweepAxis::L1Size => "l1_size",
            SweepAxis::L1Assoc => "l1_assoc",
            SweepAxis::L1Line => "l1_line",
            SweepAxis::L2Size => "l2_size",
            SweepAxis::L2Assoc => "l2_assoc",
        }
    }

    /// Whether the analytical engine can evaluate this axis (it models
    /// the L1 data cache's geometry; latency and L2 axes need exact
    /// simulation).
    pub fn is_analytical(self) -> bool {
        matches!(self, SweepAxis::L1Size | SweepAxis::L1Assoc | SweepAxis::L1Line)
    }

    /// Applies one swept value to a machine configuration.
    pub fn apply(self, machine: &mut MachineConfig, value: u64) {
        match self {
            SweepAxis::MemLatency => machine.mem.mem_latency = value,
            SweepAxis::L1Size => {
                machine.mem.l1d.size = value;
                machine.mem.l1i.size = value;
            }
            SweepAxis::L1Assoc => {
                machine.mem.l1d.assoc = value as u32;
                machine.mem.l1i.assoc = value as u32;
            }
            SweepAxis::L1Line => {
                machine.mem.l1d.block_size = value;
                machine.mem.l1i.block_size = value;
            }
            SweepAxis::L2Size => machine.mem.l2.size = value,
            SweepAxis::L2Assoc => machine.mem.l2.assoc = value as u32,
        }
    }
}

impl fmt::Display for SweepAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a sweep evaluates its grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepMode {
    /// Simulate every grid point exactly (base + four versions each).
    Exact,
    /// One reuse-profiling trace pass per program version and distinct
    /// line size, analytical evaluation of every grid point, and an
    /// exact-simulation cross-check of `check_fraction` of the points (0
    /// disables the check, 1 checks everything).
    Analytical {
        /// Fraction of grid points verified against exact simulation.
        check_fraction: f64,
    },
}

/// Why a [`SweepSpec`] could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec declared no axes.
    NoAxes,
    /// An axis was declared with no values.
    EmptyAxis(&'static str),
    /// An axis value was zero or (for line sizes) not a power of two.
    InvalidValue {
        /// The offending axis.
        axis: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The analytical engine cannot evaluate this axis.
    UnsupportedAnalyticalAxis(&'static str),
    /// `check_fraction` was outside `[0, 1]` or not finite.
    InvalidCheckFraction(f64),
    /// A grid point's L1 or L2 geometry is infeasible
    /// ([`CacheConfig::whole_sets`]: `assoc × line` must divide `size`).
    InfeasiblePoint {
        /// The point's coordinates, in axis order.
        values: Vec<u64>,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::NoAxes => write!(f, "sweep spec has no axes"),
            SweepError::EmptyAxis(a) => write!(f, "axis {a} has no values"),
            SweepError::InvalidValue { axis, value } => {
                write!(f, "invalid value {value} for axis {axis}")
            }
            SweepError::UnsupportedAnalyticalAxis(a) => {
                write!(f, "axis {a} needs exact simulation (analytical mode models L1 geometry)")
            }
            SweepError::InvalidCheckFraction(v) => {
                write!(f, "check fraction {v} is outside [0, 1]")
            }
            SweepError::InfeasiblePoint { values } => {
                write!(f, "grid point {values:?} has infeasible cache geometry")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Declarative description of a design-space sweep: the single entry
/// point that replaced the per-parameter sweep constructors.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    benchmark: Benchmark,
    scale: Scale,
    assist: AssistKind,
    mode: SweepMode,
    axes: Vec<(SweepAxis, Vec<u64>)>,
}

impl SweepSpec {
    /// A spec for `benchmark` with defaults: tiny scale, bypass assist,
    /// exact mode, no axes.
    pub fn new(benchmark: Benchmark) -> SweepSpec {
        SweepSpec {
            benchmark,
            scale: Scale::Tiny,
            assist: AssistKind::Bypass,
            mode: SweepMode::Exact,
            axes: Vec::new(),
        }
    }

    /// Sets the workload scale (default [`Scale::Tiny`]).
    pub fn scale(mut self, scale: Scale) -> SweepSpec {
        self.scale = scale;
        self
    }

    /// Sets the assist under study for exact-mode versions (default
    /// [`AssistKind::Bypass`]). The analytical model is assist-free.
    pub fn assist(mut self, assist: AssistKind) -> SweepSpec {
        self.assist = assist;
        self
    }

    /// Sets the evaluation mode (default [`SweepMode::Exact`]).
    pub fn mode(mut self, mode: SweepMode) -> SweepSpec {
        self.mode = mode;
        self
    }

    /// Appends a parameter axis. The grid is the cartesian product of
    /// all axes, last axis fastest; declaring the same axis twice keeps
    /// the later declaration.
    pub fn axis(mut self, axis: SweepAxis, values: impl IntoIterator<Item = u64>) -> SweepSpec {
        self.axes.retain(|(a, _)| *a != axis);
        self.axes.push((axis, values.into_iter().collect()));
        self
    }

    /// The benchmark under test.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Number of grid points (product of axis lengths).
    pub fn points(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// The grid: every point's coordinates, in axis order, last axis
    /// fastest.
    pub fn grid(&self) -> Vec<Vec<u64>> {
        (0..self.points()).map(|k| self.point(k)).collect()
    }

    /// The coordinates of grid point `k`, in axis order.
    fn point(&self, mut k: usize) -> Vec<u64> {
        let mut values = vec![0; self.axes.len()];
        for ((_, axis), v) in self.axes.iter().zip(&mut values).rev() {
            *v = axis[k % axis.len()];
            k /= axis.len();
        }
        values
    }

    /// The machine configuration of one grid point: the base machine
    /// with each axis value applied.
    pub fn machine_at(&self, values: &[u64]) -> MachineConfig {
        let mut m = MachineConfig::base();
        for ((axis, _), &v) in self.axes.iter().zip(values) {
            axis.apply(&mut m, v);
        }
        m
    }

    /// The job set this spec normalizes to: what the engine would
    /// execute. Exact mode submits the base run plus the four reported
    /// versions per grid point; analytical mode submits the
    /// cross-check sample (base + pure-software per sampled point, with
    /// the compiler configuration pinned to the base machine so every
    /// point shares the same two prepared programs).
    pub fn jobs(&self) -> Vec<SimJob> {
        match self.mode {
            SweepMode::Exact => {
                let mut jobs = Vec::with_capacity(self.points() * (1 + Version::REPORTED.len()));
                for values in self.grid() {
                    let machine = self.machine_at(&values);
                    jobs.push(SimJob::new(
                        self.benchmark,
                        self.scale,
                        machine.clone(),
                        self.assist,
                        Version::Base,
                    ));
                    for &v in &Version::REPORTED {
                        jobs.push(SimJob::new(
                            self.benchmark,
                            self.scale,
                            machine.clone(),
                            self.assist,
                            v,
                        ));
                    }
                }
                jobs
            }
            SweepMode::Analytical { check_fraction } => {
                let opt = default_opt(&MachineConfig::base());
                let mut jobs = Vec::new();
                for k in sample_indices(self.points(), check_fraction) {
                    let machine = self.machine_at(&self.point(k));
                    for version in [Version::Base, Version::PureSoftware] {
                        jobs.push(
                            SimJob::new(
                                self.benchmark,
                                self.scale,
                                machine.clone(),
                                AssistKind::None,
                                version,
                            )
                            .with_opt(opt),
                        );
                    }
                }
                jobs
            }
        }
    }

    /// Runs the sweep on a default-sized engine.
    pub fn run(&self) -> Result<Sweep, SweepError> {
        self.run_with(&JobEngine::default())
    }

    /// Runs the sweep on an explicit engine.
    pub fn run_with(&self, engine: &JobEngine) -> Result<Sweep, SweepError> {
        self.validate()?;
        match self.mode {
            SweepMode::Exact => Ok(self.run_exact(engine)),
            SweepMode::Analytical { check_fraction } => {
                Ok(self.run_analytical(engine, check_fraction))
            }
        }
    }

    fn validate(&self) -> Result<(), SweepError> {
        if self.axes.is_empty() {
            return Err(SweepError::NoAxes);
        }
        for (axis, values) in &self.axes {
            if values.is_empty() {
                return Err(SweepError::EmptyAxis(axis.name()));
            }
            for &v in values {
                let bad = v == 0 || (*axis == SweepAxis::L1Line && !v.is_power_of_two());
                if bad {
                    return Err(SweepError::InvalidValue { axis: axis.name(), value: v });
                }
            }
        }
        if let SweepMode::Analytical { check_fraction } = self.mode {
            if !(0.0..=1.0).contains(&check_fraction) {
                return Err(SweepError::InvalidCheckFraction(check_fraction));
            }
            for (axis, _) in &self.axes {
                if !axis.is_analytical() {
                    return Err(SweepError::UnsupportedAnalyticalAxis(axis.name()));
                }
            }
        }
        for values in self.grid() {
            let mem = self.machine_at(&values).mem;
            if ![mem.l1d, mem.l1i, mem.l2].iter().all(CacheConfig::whole_sets) {
                return Err(SweepError::InfeasiblePoint { values });
            }
        }
        Ok(())
    }

    /// The `(size, assoc, line)` L1 data geometry of one point, axes
    /// not swept defaulting to the base machine.
    fn l1_geometry(&self, values: &[u64]) -> (u64, u64, u64) {
        let base = MachineConfig::base();
        let mut size = base.mem.l1d.size;
        let mut assoc = base.mem.l1d.assoc as u64;
        let mut line = base.mem.l1d.block_size;
        for ((axis, _), &v) in self.axes.iter().zip(values) {
            match axis {
                SweepAxis::L1Size => size = v,
                SweepAxis::L1Assoc => assoc = v,
                SweepAxis::L1Line => line = v,
                _ => {}
            }
        }
        (size, assoc, line)
    }

    fn run_exact(&self, engine: &JobEngine) -> Sweep {
        let grid = self.grid();
        let jobs = self.jobs();
        let (results, stats) = engine.run_with_stats(&jobs);
        let stride = 1 + Version::REPORTED.len();
        let points = grid
            .into_iter()
            .zip(results.chunks_exact(stride))
            .map(|(values, chunk)| {
                let mut improvements = [0.0; 4];
                for (imp, r) in improvements.iter_mut().zip(&chunk[1..]) {
                    *imp = r.improvement_over(&chunk[0]);
                }
                SweepPoint { values, data: PointData::Exact { improvements } }
            })
            .collect();
        Sweep {
            benchmark: self.benchmark,
            scale: self.scale,
            mode: self.mode,
            axes: self.axes.iter().map(|(a, _)| *a).collect(),
            points,
            check: None,
            work: SweepWork {
                grid_points: self.points(),
                trace_passes: 0,
                exact_sims: stats.executed,
            },
            engine: stats,
        }
    }

    fn run_analytical(&self, engine: &JobEngine, check_fraction: f64) -> Sweep {
        let grid = self.grid();
        let opt = default_opt(&MachineConfig::base());

        // One trace pass per (program version, distinct line size), each
        // into its own exact reuse-distance profiler, fanned out on the
        // engine's executor: the traversals that replace per-point
        // simulation. Models land in slot order, version-major.
        let raw = self.benchmark.build(self.scale);
        let optimized = optimize(&raw, &opt);
        let mut lines: Vec<u64> = grid.iter().map(|v| self.l1_geometry(v).2).collect();
        lines.sort_unstable();
        lines.dedup();
        let versions = [&raw, &optimized];
        let plans = versions.map(Plan::compile);
        let profiles: Vec<(usize, u64)> =
            (0..versions.len()).flat_map(|v| lines.iter().map(move |&line| (v, line))).collect();
        let models: Vec<CacheModel> = engine.executor().map(&profiles, |&(v, line)| {
            let mut prof = ReuseProfiler::new(line);
            let mut spec = ReuseSpectrum::new();
            for op in Interp::with_plan(versions[v], &plans[v]) {
                if let Some(addr) = op.kind.addr() {
                    spec.record(prof.record(addr));
                }
            }
            spec.model()
        });
        let model_at = |version: usize, line: u64| {
            let k = lines.binary_search(&line).expect("line size was profiled");
            &models[version * lines.len() + k]
        };

        // Evaluate every grid point from the profiles.
        let mut points: Vec<SweepPoint> = grid
            .iter()
            .map(|values| {
                let (size, assoc, line) = self.l1_geometry(values);
                let sets = size / (assoc * line);
                let est = VersionedMiss {
                    base: model_at(0, line).miss_ratio(sets, assoc as u32),
                    optimized: model_at(1, line).miss_ratio(sets, assoc as u32),
                };
                SweepPoint {
                    values: values.clone(),
                    data: PointData::Analytical { est, check: None },
                }
            })
            .collect();

        // Cross-check a sample of points against exact simulation.
        let sample = sample_indices(grid.len(), check_fraction);
        let jobs = self.jobs();
        let (results, stats) = engine.run_with_stats(&jobs);
        let mut max_err = 0.0f64;
        let mut err_sum = 0.0f64;
        for (s, chunk) in sample.iter().zip(results.chunks_exact(2)) {
            let exact = VersionedMiss {
                base: chunk[0].mem.l1d.miss_rate(),
                optimized: chunk[1].mem.l1d.miss_rate(),
            };
            let PointData::Analytical { est, check } = &mut points[*s].data else {
                unreachable!("analytical sweeps hold analytical points")
            };
            let abs_error =
                (est.base - exact.base).abs().max((est.optimized - exact.optimized).abs());
            max_err = max_err.max(abs_error);
            err_sum += abs_error;
            *check = Some(PointCheck { exact, abs_error });
        }
        let check = (!sample.is_empty()).then(|| CheckSummary {
            checked: sample.len(),
            max_abs_error: max_err,
            mean_abs_error: err_sum / sample.len() as f64,
        });
        Sweep {
            benchmark: self.benchmark,
            scale: self.scale,
            mode: self.mode,
            axes: self.axes.iter().map(|(a, _)| *a).collect(),
            points,
            check,
            work: SweepWork {
                grid_points: grid.len(),
                trace_passes: profiles.len(),
                exact_sims: stats.executed,
            },
            engine: stats,
        }
    }
}

/// Evenly spread sample of `count` indices out of `n`, deterministic.
fn sample_indices(n: usize, fraction: f64) -> Vec<usize> {
    if n == 0 || fraction <= 0.0 {
        return Vec::new();
    }
    let count = ((fraction * n as f64).round() as usize).clamp(1, n);
    (0..count).map(|i| i * n / count).collect()
}

/// Estimated (or simulated) L1 data miss ratios of the two analytical
/// versions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionedMiss {
    /// Unmodified (base) code.
    pub base: f64,
    /// Locality-optimized (pure-software) code.
    pub optimized: f64,
}

/// Exact-simulation verification attached to a cross-checked point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointCheck {
    /// Simulated miss ratios.
    pub exact: VersionedMiss,
    /// Largest absolute estimate error across the versions.
    pub abs_error: f64,
}

/// What one grid point measured.
#[derive(Debug, Clone, PartialEq)]
pub enum PointData {
    /// Exact mode: % improvements indexed like [`Version::REPORTED`].
    Exact {
        /// Improvements over the point's base run.
        improvements: [f64; 4],
    },
    /// Analytical mode: estimated miss ratios, plus the exact
    /// verification when this point was sampled.
    Analytical {
        /// Model estimates.
        est: VersionedMiss,
        /// Present when this point was cross-checked.
        check: Option<PointCheck>,
    },
}

/// One grid point: its coordinates (axis order) and its measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Coordinates along each axis, in spec order.
    pub values: Vec<u64>,
    /// The point's measurements.
    pub data: PointData,
}

impl SweepPoint {
    /// Exact-mode improvements, if this point has them.
    pub fn improvements(&self) -> Option<&[f64; 4]> {
        match &self.data {
            PointData::Exact { improvements } => Some(improvements),
            PointData::Analytical { .. } => None,
        }
    }

    /// Analytical estimates, if this point has them.
    pub fn estimate(&self) -> Option<&VersionedMiss> {
        match &self.data {
            PointData::Analytical { est, .. } => Some(est),
            PointData::Exact { .. } => None,
        }
    }

    /// The exact cross-check, if this point was sampled.
    pub fn check(&self) -> Option<&PointCheck> {
        match &self.data {
            PointData::Analytical { check, .. } => check.as_ref(),
            PointData::Exact { .. } => None,
        }
    }
}

/// Aggregate cross-check error of an analytical sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckSummary {
    /// Grid points verified by exact simulation.
    pub checked: usize,
    /// Largest absolute miss-ratio error over the checked points.
    pub max_abs_error: f64,
    /// Mean absolute miss-ratio error over the checked points.
    pub mean_abs_error: f64,
}

/// What a sweep actually executed — the single-pass claim, checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepWork {
    /// Grid points evaluated.
    pub grid_points: usize,
    /// Trace traversals: in analytical mode one per program version and
    /// distinct line size (2 for a grid without an [`SweepAxis::L1Line`]
    /// axis); 0 in exact mode, which simulates instead.
    pub trace_passes: usize,
    /// Unique exact simulations executed (after engine dedup).
    pub exact_sims: usize,
}

/// The unified sweep result: every mode produces this one shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Benchmark under test.
    pub benchmark: Benchmark,
    /// Workload scale.
    pub scale: Scale,
    /// Evaluation mode the sweep ran under.
    pub mode: SweepMode,
    /// Swept axes, in declaration order.
    pub axes: Vec<SweepAxis>,
    /// Points, last axis fastest.
    pub points: Vec<SweepPoint>,
    /// Cross-check error summary (analytical mode with a non-zero
    /// check fraction).
    pub check: Option<CheckSummary>,
    /// Work accounting: passes and simulations executed.
    pub work: SweepWork,
    /// Engine counters for the sweep's job set (dedup and, for
    /// store-backed engines, store hit/miss accounting).
    pub engine: EngineStats,
}

impl Sweep {
    /// The sweep's parameter name: axis names joined with `x`.
    pub fn parameter(&self) -> String {
        let names: Vec<&str> = self.axes.iter().map(|a| a.name()).collect();
        names.join("x")
    }

    /// CSV rendering. Exact sweeps keep the historical
    /// `value,pure_hw,pure_sw,combined,selective` shape (one leading
    /// column per axis); analytical sweeps emit estimates, exact
    /// checks (blank when unsampled), and the absolute error.
    pub fn to_csv(&self) -> String {
        let axis_names: Vec<&str> = self.axes.iter().map(|a| a.name()).collect();
        let mut out = axis_names.join(",");
        match self.mode {
            SweepMode::Exact => {
                out.push_str(",pure_hw,pure_sw,combined,selective\n");
                for p in &self.points {
                    let imp = p.improvements().expect("exact sweep point");
                    let _ = writeln!(
                        out,
                        "{},{:.4},{:.4},{:.4},{:.4}",
                        join_values(&p.values),
                        imp[0],
                        imp[1],
                        imp[2],
                        imp[3]
                    );
                }
            }
            SweepMode::Analytical { .. } => {
                out.push_str(
                    ",est_base_miss,est_optimized_miss,exact_base_miss,exact_optimized_miss,\
                     abs_error\n",
                );
                for p in &self.points {
                    let est = p.estimate().expect("analytical sweep point");
                    let _ = write!(
                        out,
                        "{},{:.6},{:.6}",
                        join_values(&p.values),
                        est.base,
                        est.optimized
                    );
                    match p.check() {
                        Some(c) => {
                            let _ = writeln!(
                                out,
                                ",{:.6},{:.6},{:.6}",
                                c.exact.base, c.exact.optimized, c.abs_error
                            );
                        }
                        None => out.push_str(",,,\n"),
                    }
                }
            }
        }
        out
    }
}

fn join_values(values: &[u64]) -> String {
    let strs: Vec<String> = values.iter().map(u64::to_string).collect();
    strs.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sweep_produces_points() {
        let s = SweepSpec::new(Benchmark::TpcDQ6)
            .assist(AssistKind::Bypass)
            .axis(SweepAxis::MemLatency, [100, 200])
            .run()
            .unwrap();
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].values, vec![100]);
        assert!(s.points.iter().all(|p| p.improvements().is_some()));
        assert_eq!(s.parameter(), "mem_latency");
        assert_eq!(s.work.trace_passes, 0);
        assert!(s.work.exact_sims > 0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = SweepSpec::new(Benchmark::TpcDQ6)
            .assist(AssistKind::Victim)
            .axis(SweepAxis::L1Assoc, [2, 4])
            .run()
            .unwrap();
        let csv = s.to_csv();
        assert!(csv.starts_with("l1_assoc,pure_hw,pure_sw,combined,selective\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn grid_is_cartesian_last_axis_fastest() {
        let spec = SweepSpec::new(Benchmark::Adi)
            .axis(SweepAxis::L1Size, [8192, 16384])
            .axis(SweepAxis::L1Assoc, [1, 2, 4]);
        assert_eq!(spec.points(), 6);
        let grid = spec.grid();
        assert_eq!(grid[0], vec![8192, 1]);
        assert_eq!(grid[1], vec![8192, 2]);
        assert_eq!(grid[3], vec![16384, 1]);
    }

    #[test]
    fn spec_validation_rejects_bad_inputs() {
        let no_axes = SweepSpec::new(Benchmark::Adi);
        assert_eq!(no_axes.run(), Err(SweepError::NoAxes));

        let empty = SweepSpec::new(Benchmark::Adi).axis(SweepAxis::L1Size, []);
        assert_eq!(empty.run(), Err(SweepError::EmptyAxis("l1_size")));

        let zero = SweepSpec::new(Benchmark::Adi).axis(SweepAxis::MemLatency, [0]);
        assert!(matches!(zero.run(), Err(SweepError::InvalidValue { .. })));

        let bad_line = SweepSpec::new(Benchmark::Adi)
            .mode(SweepMode::Analytical { check_fraction: 0.0 })
            .axis(SweepAxis::L1Line, [48]);
        assert!(matches!(bad_line.run(), Err(SweepError::InvalidValue { .. })));

        let latency_analytical = SweepSpec::new(Benchmark::Adi)
            .mode(SweepMode::Analytical { check_fraction: 0.0 })
            .axis(SweepAxis::MemLatency, [100]);
        assert_eq!(
            latency_analytical.run(),
            Err(SweepError::UnsupportedAnalyticalAxis("mem_latency"))
        );

        let bad_fraction = SweepSpec::new(Benchmark::Adi)
            .mode(SweepMode::Analytical { check_fraction: 1.5 })
            .axis(SweepAxis::L1Size, [8192]);
        assert_eq!(bad_fraction.run(), Err(SweepError::InvalidCheckFraction(1.5)));

        // 8 KiB with 3-way x 32 B lines does not divide.
        let infeasible = SweepSpec::new(Benchmark::Adi)
            .mode(SweepMode::Analytical { check_fraction: 0.0 })
            .axis(SweepAxis::L1Size, [8192])
            .axis(SweepAxis::L1Assoc, [3]);
        assert!(matches!(infeasible.run(), Err(SweepError::InfeasiblePoint { .. })));

        // Exact mode checks the same geometry: a 1000 B 4-way L1 would run
        // as 896 B, and a 3-way 512 KiB L2 as 4095 lines.
        let exact_l1 = SweepSpec::new(Benchmark::Adi).axis(SweepAxis::L1Size, [1000]);
        assert_eq!(exact_l1.run(), Err(SweepError::InfeasiblePoint { values: vec![1000] }));
        let exact_l2 = SweepSpec::new(Benchmark::Adi)
            .axis(SweepAxis::MemLatency, [100])
            .axis(SweepAxis::L2Assoc, [4, 3]);
        assert_eq!(exact_l2.run(), Err(SweepError::InfeasiblePoint { values: vec![100, 3] }));
    }

    #[test]
    fn redeclaring_an_axis_replaces_it() {
        let spec = SweepSpec::new(Benchmark::Adi)
            .axis(SweepAxis::L1Size, [8192])
            .axis(SweepAxis::L1Size, [16384, 32768]);
        assert_eq!(spec.points(), 2);
        // Appending would give [[8192, 16384], [8192, 32768]].
        assert_eq!(spec.grid(), vec![vec![16384], vec![32768]]);
    }

    #[test]
    fn analytical_sweep_is_single_pass_per_version() {
        let spec = SweepSpec::new(Benchmark::TpcDQ6)
            .mode(SweepMode::Analytical { check_fraction: 0.1 })
            .axis(SweepAxis::L1Size, (10..15).map(|p| 1u64 << p))
            .axis(SweepAxis::L1Assoc, [1, 2, 4, 8]);
        let sweep = spec.run_with(&JobEngine::serial()).unwrap();
        assert_eq!(sweep.points.len(), 20);
        // Two trace passes (base + optimized) regardless of grid size,
        // and only the sampled points were simulated.
        assert_eq!(sweep.work.trace_passes, 2);
        assert_eq!(sweep.work.exact_sims, 2 * 2, "two versions x two sampled points");
        let summary = sweep.check.expect("cross-check ran");
        assert_eq!(summary.checked, 2);
        assert!(summary.max_abs_error >= summary.mean_abs_error);
        // Estimates are ratios and monotone in size along each assoc.
        for p in &sweep.points {
            let est = p.estimate().unwrap();
            assert!((0.0..=1.0).contains(&est.base), "{est:?}");
            assert!((0.0..=1.0).contains(&est.optimized), "{est:?}");
        }
        assert!(sweep.points.iter().all(|p| p.improvements().is_none()));
    }

    #[test]
    fn analytical_estimates_shrink_with_cache_size() {
        let sweep = SweepSpec::new(Benchmark::Vpenta)
            .mode(SweepMode::Analytical { check_fraction: 0.0 })
            .axis(SweepAxis::L1Size, (10..18).map(|p| 1u64 << p))
            .run_with(&JobEngine::serial())
            .unwrap();
        assert!(sweep.check.is_none());
        assert_eq!(sweep.work.exact_sims, 0);
        let series: Vec<f64> = sweep.points.iter().map(|p| p.estimate().unwrap().base).collect();
        for w in series.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "miss ratio must not grow with size: {series:?}");
        }
    }

    #[test]
    fn analytical_csv_reports_error_columns() {
        let sweep = SweepSpec::new(Benchmark::TpcDQ6)
            .mode(SweepMode::Analytical { check_fraction: 1.0 })
            .axis(SweepAxis::L1Size, [16 * 1024, 32 * 1024])
            .run_with(&JobEngine::serial())
            .unwrap();
        let csv = sweep.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "l1_size,est_base_miss,est_optimized_miss,exact_base_miss,exact_optimized_miss,\
             abs_error"
        );
        // Every point was checked, so no blank cells.
        for line in lines {
            assert_eq!(line.split(',').count(), 6);
            assert!(!line.ends_with(",,,"), "{line}");
        }
    }

    #[test]
    fn sample_indices_spread_and_clamp() {
        assert!(sample_indices(10, 0.0).is_empty());
        assert!(sample_indices(0, 0.5).is_empty());
        assert_eq!(sample_indices(10, 1.0), (0..10).collect::<Vec<_>>());
        let s = sample_indices(100, 0.05);
        assert_eq!(s, vec![0, 20, 40, 60, 80]);
        // A tiny fraction still checks at least one point.
        assert_eq!(sample_indices(10, 1e-6), vec![0]);
    }

    #[test]
    fn sweep_points_share_prepared_programs() {
        // Neither latency value changes the L1 geometry, so the sweep
        // needs only one raw + one optimized + one selective program for
        // both points (the historical implementation rebuilt them per
        // point).
        let spec = SweepSpec::new(Benchmark::Adi)
            .assist(AssistKind::Bypass)
            .axis(SweepAxis::MemLatency, [100, 200]);
        let stats = JobEngine::serial().dry_run(&spec.jobs());
        assert_eq!(stats.programs_prepared, 3, "raw, optimized, selective");
        assert_eq!(stats.executed, 10, "machines differ, so all runs execute");
    }
}
