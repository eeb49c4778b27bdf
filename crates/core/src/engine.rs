//! The unified execution API: one [`Scenario`] description, many
//! interchangeable [`Backend`]s.
//!
//! The reproduced paper's central claim is that the *same* photon-transport
//! workload runs on one core, a shared-memory machine, or a non-dedicated
//! master/worker cluster with identical results. This module makes that a
//! type: a [`Scenario`] fully describes an experiment — geometry, source,
//! detector, engine options, photon budget, task decomposition, and seed —
//! and a [`Backend`] is any way of executing it. Because the task split and
//! the RNG stream family are part of the scenario (not the backend), every
//! backend produces **bit-identical tallies** for the same scenario:
//!
//! ```
//! use lumen_core::engine::{Backend, Rayon, Scenario, Sequential};
//! use lumen_core::{Detector, Source};
//! use lumen_tissue::presets::semi_infinite_phantom;
//!
//! let scenario = Scenario::new(
//!     semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
//!     Source::Delta,
//!     Detector::new(2.0, 0.5),
//! )
//! .with_photons(4_000)
//! .with_tasks(8)
//! .with_seed(42);
//!
//! let seq = Sequential.run(&scenario).unwrap();
//! let par = Rayon::default().run(&scenario).unwrap();
//! assert_eq!(seq.result.tally, par.result.tally); // bit-identical
//! ```
//!
//! `lumen-core` ships the in-process backends: [`Sequential`] and
//! [`Rayon`], the shared-memory thread backend (scoped `std::thread`
//! workers claiming batches on demand). Both are one driver at different
//! thread counts, and every backend in the workspace merges through the
//! one task-order prefix fold defined here, [`TaskFold`] — see it for the
//! memory a run holds. The distributed ones (`ThreadedCluster`, `Tcp`)
//! live in `lumen-cluster`, which registers them on the same trait — see
//! `lumen_cluster::backend`. Every backend returns the scenario's tally;
//! the cluster timing model, which traces no photons, is not a backend
//! but `lumen_cluster::des::predict`. Long runs can observe
//! completion through the [`Progress`] hook, and all failure paths report a
//! typed [`EngineError`] instead of panicking on ad-hoc strings.

use crate::detector::Detector;
use crate::results::SimulationResult;
use crate::sim::{validate_parts, PathRecord, Simulation, SimulationOptions};
use crate::source::Source;
use crate::tally::Tally;
use lumen_tissue::{Geometry, GeometryError};
use mcrng::StreamFactory;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Typed errors from scenario validation and backend execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The scenario or backend parameters are inconsistent (bad geometry,
    /// zero tasks, zero workers, a failure rate outside `[0, 1)`, ...).
    InvalidConfig(String),
    /// A backend failed while executing a valid scenario (I/O, protocol
    /// violation, thread-pool construction, lost workers).
    Backend {
        /// Name of the backend that failed (see [`Backend::name`]).
        backend: String,
        /// What went wrong.
        reason: String,
    },
}

impl EngineError {
    /// Convenience constructor for backend-side failures.
    pub fn backend(name: impl Into<String>, reason: impl Into<String>) -> Self {
        EngineError::Backend { backend: name.into(), reason: reason.into() }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            EngineError::Backend { backend, reason } => {
                write!(f, "backend `{backend}` failed: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<GeometryError> for EngineError {
    /// Geometry construction/validation failures are configuration errors.
    fn from(e: GeometryError) -> Self {
        EngineError::InvalidConfig(e.to_string())
    }
}

impl From<crate::error::ConfigError> for EngineError {
    /// Typed validation failures are configuration errors.
    fn from(e: crate::error::ConfigError) -> Self {
        EngineError::InvalidConfig(e.to_string())
    }
}

/// A fully specified experiment: what to simulate and how the work is
/// decomposed, independent of where it executes.
///
/// The `(seed, tasks)` pair fixes every random draw: task `i` simulates its
/// batch from RNG stream `i` of the seed's stream family, so *any* backend
/// — sequential, rayon, threaded cluster, TCP — produces bit-identical
/// tallies for the same scenario. This is the paper's reproducibility
/// contract, promoted from a convention to the type itself.
///
/// The CLI's `key = value` config format maps onto this struct 1:1, and
/// `lumen_cluster::wire` gives it a binary encoding for multi-machine
/// deployments.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The tissue model — layered stack or voxel grid.
    pub tissue: Geometry,
    /// Source footprint.
    pub source: Source,
    /// Detector geometry and gating.
    pub detector: Detector,
    /// Engine knobs (boundary mode, roulette, attached tallies, ...).
    pub options: SimulationOptions,
    /// Photon budget.
    pub photons: u64,
    /// Number of batches the budget splits into. Part of the scenario —
    /// not the backend — so results never depend on the execution
    /// substrate. More tasks load-balance better; batches may be empty
    /// when `tasks > photons`.
    pub tasks: u64,
    /// Experiment seed.
    pub seed: u64,
    /// First RNG stream index: task `i` draws from stream
    /// `task_offset + i`. Zero for standalone runs. A non-zero offset is
    /// how a *continuation* run extends an earlier one — the earlier run
    /// consumed streams `0..k`, the continuation starts at `k` — so the
    /// two merged tallies are bit-identical to one run over all streams
    /// (stream identity depends only on `(seed, index)`).
    pub task_offset: u64,
}

impl Scenario {
    /// Default photon budget (override with [`Scenario::with_photons`]).
    pub const DEFAULT_PHOTONS: u64 = 100_000;
    /// Default task count: enough batches to load-balance, few enough
    /// that the merge cost is negligible.
    pub const DEFAULT_TASKS: u64 = 64;
    /// Default seed, matching the CLI default.
    pub const DEFAULT_SEED: u64 = 42;

    /// A scenario with default options, budget, task count, and seed.
    /// Accepts a bare [`lumen_tissue::LayeredTissue`] or
    /// [`lumen_tissue::VoxelTissue`] as well as a [`Geometry`] value.
    pub fn new(tissue: impl Into<Geometry>, source: Source, detector: Detector) -> Self {
        Self {
            tissue: tissue.into(),
            source,
            detector,
            options: SimulationOptions::default(),
            photons: Self::DEFAULT_PHOTONS,
            tasks: Self::DEFAULT_TASKS,
            seed: Self::DEFAULT_SEED,
            task_offset: 0,
        }
    }

    /// Wrap an existing [`Simulation`] (geometry + options) as a scenario.
    pub fn from_simulation(sim: &Simulation, photons: u64, seed: u64) -> Self {
        Self {
            tissue: sim.tissue.clone(),
            source: sim.source,
            detector: sim.detector,
            options: sim.options.clone(),
            photons,
            tasks: Self::DEFAULT_TASKS,
            seed,
            task_offset: 0,
        }
    }

    /// Override the photon budget (builder style).
    pub fn with_photons(mut self, photons: u64) -> Self {
        self.photons = photons;
        self
    }

    /// Override the task decomposition (builder style).
    pub fn with_tasks(mut self, tasks: u64) -> Self {
        self.tasks = tasks;
        self
    }

    /// Override the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the first RNG stream index (builder style). See the
    /// [`Scenario::task_offset`] field for the continuation contract.
    pub fn with_task_offset(mut self, task_offset: u64) -> Self {
        self.task_offset = task_offset;
        self
    }

    /// Override the engine options (builder style).
    pub fn with_options(mut self, options: SimulationOptions) -> Self {
        self.options = options;
        self
    }

    /// The geometry/options part of the scenario as a [`Simulation`].
    pub fn simulation(&self) -> Simulation {
        Simulation {
            tissue: self.tissue.clone(),
            source: self.source,
            detector: self.detector,
            options: self.options.clone(),
        }
    }

    /// Validate the complete scenario.
    pub fn validate(&self) -> Result<(), EngineError> {
        check_stream_range(self.task_offset, self.tasks)
            .map_err(|e| EngineError::InvalidConfig(e.into()))?;
        validate_parts(&self.tissue, &self.source, &self.detector, &self.options)
            .map_err(EngineError::from)
    }

    /// The per-task batch sizes this scenario decomposes into.
    pub fn batches(&self) -> Vec<u64> {
        batch_sizes(self.photons, self.tasks)
    }

    /// Run on the given backend — sugar for `backend.run(self)`.
    pub fn run_on(&self, backend: &dyn Backend) -> Result<RunReport, EngineError> {
        backend.run(self)
    }
}

/// The stream-range rule of a task split: at least one task, and
/// `task_offset + tasks` within the RNG stream index space.
pub fn check_stream_range(task_offset: u64, tasks: u64) -> Result<(), &'static str> {
    match (tasks, task_offset.checked_add(tasks)) {
        (0, _) => Err("tasks must be >= 1"),
        (_, None) => Err("task_offset + tasks overflows the stream index space"),
        _ => Ok(()),
    }
}

/// Split `total` photons into `tasks` near-equal batch sizes (empty
/// batches dropped) — the decomposition every backend shares.
pub fn batch_sizes(total: u64, tasks: u64) -> Vec<u64> {
    let tasks = tasks.max(1);
    let base = total / tasks;
    let extra = total % tasks;
    (0..tasks).map(|i| base + u64::from(i < extra)).filter(|&n| n > 0).collect()
}

/// Observer for long-running executions.
///
/// Backends call these hooks from worker/aggregator threads, so
/// implementations must be `Sync`. All methods default to no-ops —
/// implement only what you need.
pub trait Progress: Sync {
    /// Photons completed so far (cumulative) out of the scenario budget.
    /// Called after each completed batch, in completion order.
    fn on_photons(&self, completed: u64, total: u64) {
        let _ = (completed, total);
    }

    /// A task failed (e.g. a worker was reclaimed) and was re-queued.
    fn on_task_retry(&self, task_id: u64) {
        let _ = task_id;
    }

    /// The connected worker-pool size changed (elastic backends only: a
    /// client joined, disconnected, or had its lease revoked). Called
    /// with the pool size after the change.
    fn on_clients(&self, connected: usize) {
        let _ = connected;
    }
}

/// The no-op observer used by [`Backend::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl Progress for NoProgress {}

/// Per-worker accounting carried by every [`RunReport`] — the paper's
/// "which machine did how much" table, normalised across backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerAccount {
    /// Tasks completed by this worker.
    pub tasks_completed: u64,
    /// Tasks this worker failed (failure injection / lost connections).
    pub tasks_failed: u64,
    /// Photons simulated by this worker.
    pub photons: u64,
}

/// The unified outcome of running a [`Scenario`] on any [`Backend`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The merged physics: tally plus recorded sample paths.
    pub result: SimulationResult,
    /// Per-worker accounting, indexed by worker id. In-process backends
    /// report a single aggregate entry.
    pub workers: Vec<WorkerAccount>,
    /// How many tasks were re-queued after failures.
    pub requeues: u64,
    /// Wall-clock duration of the run (s).
    pub wall_seconds: f64,
    /// Name of the backend that produced this report.
    pub backend: String,
}

impl RunReport {
    /// Measured throughput (photons per wall-clock second).
    pub fn photons_per_second(&self) -> f64 {
        self.result.launched() as f64 / self.wall_seconds.max(1e-9)
    }
}

impl std::ops::Deref for RunReport {
    type Target = SimulationResult;

    /// A report answers all the derived-physics questions its result does
    /// (`report.diffuse_reflectance()`, `report.tally`, ...).
    fn deref(&self) -> &SimulationResult {
        &self.result
    }
}

/// An execution substrate for scenarios.
///
/// Implementations must honour the scenario's `(seed, tasks)` contract:
/// task `i` runs `scenario.batches()[i]` photons from RNG stream `i`, and
/// tallies merge in task order, so every backend returns bit-identical
/// tallies for the same scenario. (Sample-path recording is best-effort:
/// distributed backends may return fewer recorded paths than in-process
/// ones, but the tally never differs.)
pub trait Backend {
    /// Short stable name ("sequential", "rayon", "cluster", "tcp", "reweight").
    fn name(&self) -> &'static str;

    /// Execute the scenario, streaming status to `progress`.
    fn run_with_progress(
        &self,
        scenario: &Scenario,
        progress: &dyn Progress,
    ) -> Result<RunReport, EngineError>;

    /// Execute the scenario without observation.
    fn run(&self, scenario: &Scenario) -> Result<RunReport, EngineError> {
        self.run_with_progress(scenario, &NoProgress)
    }
}

/// The task-order prefix fold: the one implementation of "merge returned
/// tallies in task order" in the workspace. The in-process driver behind
/// [`Sequential`] and [`Rayon`] pushes into one directly; `lumen-cluster`'s
/// `DataManager` (and through it `ThreadedCluster` and the TCP server)
/// delegates to one.
///
/// Fixing the float accumulation order is what makes results identical
/// across thread counts, schedules and backends (a tree reduction would
/// not be): whichever worker finishes first, a pushed tally merges the
/// moment it is the next in task order, and only then.
///
/// Memory held during a run: the aggregate, one tally per busy worker (the
/// caller's, borrowed by [`TaskFold::push`]), and a copy of every tally
/// that arrived ahead of a straggler — nothing when tasks complete in
/// order, but a slow task 0 can still park up to `tasks - 1` tallies.
#[derive(Debug)]
pub struct TaskFold {
    /// The left fold, in task order, of the first `folded` tasks' tallies
    /// onto the template.
    aggregate: Tally,
    /// Tasks merged into `aggregate`: exactly slots `0..folded`.
    folded: u64,
    /// Tallies that arrived ahead of a predecessor, by slot (all
    /// `> folded`), waiting for the prefix to reach them. The one place a
    /// returned tally is copied.
    parked: BTreeMap<u64, Tally>,
    /// First task id of the run; slot `j` is task `task_offset + j`.
    task_offset: u64,
    tasks: u64,
}

impl TaskFold {
    /// A fold of `tasks` tallies shaped like `template`, for task ids
    /// `task_offset..task_offset + tasks`.
    pub fn new(template: Tally, task_offset: u64, tasks: u64) -> Self {
        Self { aggregate: template, folded: 0, parked: BTreeMap::new(), task_offset, tasks }
    }

    /// Whether `tally` has the shape of this run's template, i.e. whether
    /// [`TaskFold::push`] can merge it (merging a mismatch panics).
    pub fn accepts(&self, tally: &Tally) -> bool {
        self.aggregate.same_shape(tally)
    }

    /// Take task `task_id`'s tally: merge it if it is the next in task
    /// order (and then every parked successor the longer prefix reaches),
    /// park a copy if it arrived early. Returns `false` (taking nothing)
    /// for a task already pushed or an id outside the run — a duplicate
    /// must never double-count photons, and a misbehaving peer must never
    /// cause a panic.
    pub fn push(&mut self, task_id: u64, tally: &Tally) -> bool {
        let Some(slot) = task_id.checked_sub(self.task_offset).filter(|&i| i < self.tasks) else {
            return false;
        };
        if slot < self.folded || self.parked.contains_key(&slot) {
            return false;
        }
        if slot == self.folded {
            self.aggregate.merge(tally);
            self.folded += 1;
            while let Some(next) = self.parked.remove(&self.folded) {
                self.aggregate.merge(&next);
                self.folded += 1;
            }
        } else {
            self.parked.insert(slot, tally.clone());
        }
        true
    }

    /// All tasks pushed? (The prefix has then drained the parked set.)
    pub fn finished(&self) -> bool {
        self.folded == self.tasks
    }

    /// Consume the fold, yielding the merged tally.
    ///
    /// # Panics
    /// If not every task has been pushed — a partial tally must never
    /// pass for a result.
    pub fn into_tally(self) -> Tally {
        assert!(self.finished(), "into_tally before all tasks completed");
        self.aggregate
    }
}

/// Run one task: `photons` photons from RNG stream `task_id` of `factory`
/// into a fresh tally, its archive entries (if any) stamped with the task
/// id. This is the unit of work of every backend — the in-process drivers,
/// a `ThreadedCluster` worker and a TCP client all call it — and the reason
/// a re-executed task reproduces its photons exactly.
pub fn run_task(
    sim: &Simulation,
    factory: &StreamFactory,
    task_id: u64,
    photons: u64,
    paths_out: Option<&mut Vec<PathRecord>>,
) -> Tally {
    let mut rng = factory.stream(task_id);
    let mut tally = sim.new_tally();
    sim.run_stream(photons, &mut rng, &mut tally, paths_out);
    if let Some(a) = tally.archive.as_mut() {
        a.stamp_task(task_id);
    }
    tally
}

/// Call `work(i)` once for every `i` in `0..items` on `threads` scoped
/// workers, each claiming the next unclaimed index when it is free
/// (demand-driven, so an expensive item delays only the worker holding it).
/// One thread or fewer runs inline on the calling thread, in index order,
/// with no spawn. Returns once every call has.
pub(crate) fn for_each_index(threads: usize, items: usize, work: impl Fn(usize) + Sync) {
    if threads <= 1 {
        return (0..items).for_each(work);
    }
    // Relaxed: the counter hands out indices and publishes nothing else;
    // what `work` writes is published by its own lock and the scope's join.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                work(i);
            });
        }
    });
}

/// One thread per logical CPU — what a parallel driver uses when the
/// caller pins nothing.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The in-process driver behind [`Sequential`] and [`Rayon`]: `threads`
/// workers (clamped to the number of batches) claim batches on demand,
/// trace each with [`run_task`] and push the tally into one [`TaskFold`].
fn run_in_process(
    name: &'static str,
    threads: usize,
    scenario: &Scenario,
    progress: &dyn Progress,
) -> Result<RunReport, EngineError> {
    let started = Instant::now();
    let sim = scenario.simulation();
    let factory = StreamFactory::new(scenario.seed);
    let sizes = scenario.batches();
    let cap = sim.options.record_paths;

    // The fold, the photon counter and each task's recorded paths share
    // one lock, so observers see a strictly monotonic photon count in call
    // order, as the Progress contract promises. Batch completions are
    // coarse-grained, so the critical section (one merge) is negligible
    // next to the transport work.
    let path_slots: Vec<Vec<PathRecord>> = vec![Vec::new(); sizes.len()];
    let fold = TaskFold::new(sim.new_tally(), scenario.task_offset, sizes.len() as u64);
    let state = Mutex::new((fold, 0u64, path_slots));
    for_each_index(threads.min(sizes.len()), sizes.len(), |slot| {
        let task_id = scenario.task_offset + slot as u64;
        let mut paths = Vec::new();
        let tally = run_task(&sim, &factory, task_id, sizes[slot], (cap > 0).then_some(&mut paths));
        let mut state = state.lock().expect("an engine worker panicked");
        let (fold, done, path_slots) = &mut *state;
        let pushed = fold.push(task_id, &tally);
        debug_assert!(pushed, "every slot is claimed exactly once");
        path_slots[slot] = paths;
        *done += sizes[slot];
        progress.on_photons(*done, scenario.photons);
    });

    let (fold, _, path_slots) = state.into_inner().expect("an engine worker panicked");
    // Sample paths in task order up to the cap, whatever order tasks
    // completed in.
    let paths = path_slots.into_iter().flatten().take(cap).collect();
    let result = SimulationResult::new(fold.into_tally(), paths);
    Ok(RunReport {
        workers: vec![WorkerAccount {
            tasks_completed: sizes.len() as u64,
            tasks_failed: 0,
            photons: result.launched(),
        }],
        result,
        requeues: 0,
        wall_seconds: started.elapsed().as_secs_f64(),
        backend: name.to_string(),
    })
}

/// Single-threaded in-process backend: the scenario's tasks run one after
/// another on the calling thread. The paper's "one core" configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sequential;

impl Backend for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn run_with_progress(
        &self,
        scenario: &Scenario,
        progress: &dyn Progress,
    ) -> Result<RunReport, EngineError> {
        scenario.validate()?;
        run_in_process(self.name(), 1, scenario, progress)
    }
}

/// Shared-memory thread backend — the DataManager/client decomposition
/// collapsed into one address space: scoped worker threads claim the
/// scenario's batches on demand and push their tallies into one
/// [`TaskFold`]. (The name is historical; it is the `"rayon [threads]"`
/// backend spec.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rayon {
    /// Pin the worker-thread count (must be >= 1); `None` uses one thread
    /// per logical CPU. Never more threads than non-empty batches are
    /// started. Results do not depend on this — only speed does.
    pub threads: Option<usize>,
}

impl Rayon {
    /// A backend pinned to `threads` worker threads.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: Some(threads) }
    }
}

impl Backend for Rayon {
    fn name(&self) -> &'static str {
        "rayon"
    }

    fn run_with_progress(
        &self,
        scenario: &Scenario,
        progress: &dyn Progress,
    ) -> Result<RunReport, EngineError> {
        scenario.validate()?;
        if self.threads == Some(0) {
            return Err(EngineError::InvalidConfig("rayon thread count must be >= 1".into()));
        }
        let threads = self.threads.unwrap_or_else(available_threads);
        run_in_process(self.name(), threads, scenario, progress)
    }
}

/// Resolve a backend-spec string to one of the **core** backends:
/// `sequential`, `rayon`, or `rayon <threads>`.
///
/// The cluster backends (`cluster`, `tcp`) and the archive-backed
/// `reweight` are registered on top of this vocabulary by
/// `lumen_cluster::backend::from_spec`, which falls back here — that
/// one-way registration is what keeps `lumen-core` free of any cluster
/// dependency.
pub fn from_spec(spec: &str) -> Result<Box<dyn Backend>, EngineError> {
    let mut parts = spec.split_whitespace();
    let kind = parts.next().unwrap_or("");
    let args: Vec<&str> = parts.collect();
    match (kind, args.as_slice()) {
        ("sequential", []) => Ok(Box::new(Sequential)),
        ("rayon", []) => Ok(Box::new(Rayon::default())),
        ("rayon", [threads]) => {
            let threads: usize = threads.parse().map_err(|_| {
                EngineError::InvalidConfig(format!(
                    "rayon thread count `{threads}` is not a number"
                ))
            })?;
            if threads == 0 {
                return Err(EngineError::InvalidConfig("rayon thread count must be >= 1".into()));
            }
            Ok(Box::new(Rayon::with_threads(threads)))
        }
        _ => Err(EngineError::InvalidConfig(format!(
            "unknown backend `{spec}` (core backends: sequential | rayon [threads])"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::sim::Precision;
    use crate::source::Source;
    use lumen_tissue::presets::semi_infinite_phantom;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn scenario() -> Scenario {
        Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(1.0, 0.5),
        )
        .with_photons(4_000)
        .with_tasks(8)
        .with_seed(5)
    }

    #[test]
    fn sequential_and_rayon_are_bit_identical() {
        let s = scenario();
        let seq = Sequential.run(&s).unwrap();
        let par = Rayon::default().run(&s).unwrap();
        assert_eq!(seq.result.tally, par.result.tally);
        assert_eq!(seq.result.sample_paths, par.result.sample_paths);
    }

    #[test]
    fn pinned_thread_count_does_not_change_results() {
        // Fewer threads than tasks, more threads than tasks, with and
        // without path recording, both tiers (fast rejects recording):
        // tally and sample paths are Sequential's.
        let fast = SimulationOptions { precision: Precision::Fast, ..Default::default() };
        let recording = SimulationOptions { record_paths: 3, ..Default::default() };
        for options in [SimulationOptions::default(), recording, fast] {
            let s = scenario().with_options(options);
            let seq = Sequential.run(&s).unwrap();
            for k in [1, 2, 3, s.tasks as usize + 5] {
                let par = Rayon::with_threads(k).run(&s).unwrap();
                assert_eq!(seq.result.tally, par.result.tally, "{k} threads");
                assert_eq!(seq.result.sample_paths, par.result.sample_paths, "{k} threads");
            }
        }
    }

    #[test]
    fn zero_pinned_threads_is_invalid() {
        let err = Rayon { threads: Some(0) }.run(&scenario()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
    }

    #[test]
    fn single_task_scenario_matches_legacy_sequential_run() {
        let s = scenario().with_tasks(1).with_photons(3_000).with_seed(9);
        let legacy = s.simulation().run(3_000, 9);
        let report = Sequential.run(&s).unwrap();
        assert_eq!(legacy.tally, report.result.tally);
    }

    #[test]
    fn task_split_preserves_statistics() {
        // Different task counts give different draws but the same physics;
        // reflectance must agree within MC error.
        let s = scenario().with_photons(40_000).with_seed(3);
        let a = Rayon::default().run(&s.clone().with_tasks(4)).unwrap();
        let b = Rayon::default().run(&s.with_tasks(32)).unwrap();
        assert_eq!(a.launched(), 40_000);
        assert_eq!(b.launched(), 40_000);
        let (ra, rb) = (a.diffuse_reflectance(), b.diffuse_reflectance());
        assert!((ra - rb).abs() / ra < 0.05, "{ra} vs {rb}");
    }

    #[test]
    fn path_recording_respects_cap_across_tasks() {
        let mut s = scenario().with_photons(30_000).with_seed(2);
        s.options.record_paths = 3;
        let r = Rayon::default().run(&s).unwrap();
        assert!(r.sample_paths.len() <= 3);
    }

    #[test]
    fn report_carries_accounting_and_throughput() {
        let s = scenario();
        let report = Rayon::default().run(&s).unwrap();
        assert_eq!(report.backend, "rayon");
        assert_eq!(report.launched(), 4_000); // via Deref
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].photons, 4_000);
        assert_eq!(report.workers[0].tasks_completed, 8);
        assert_eq!(report.requeues, 0);
        assert!(report.wall_seconds >= 0.0);
        assert!(report.photons_per_second() > 0.0);
    }

    #[test]
    fn progress_observer_sees_every_batch() {
        struct Counter {
            calls: AtomicUsize,
            last: AtomicU64,
        }
        impl Progress for Counter {
            fn on_photons(&self, completed: u64, total: u64) {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.last.fetch_max(completed, Ordering::Relaxed);
                assert_eq!(total, 4_000);
            }
        }
        let counter = Counter { calls: AtomicUsize::new(0), last: AtomicU64::new(0) };
        let s = scenario();
        Sequential.run_with_progress(&s, &counter).unwrap();
        assert_eq!(counter.calls.load(Ordering::Relaxed), 8);
        assert_eq!(counter.last.load(Ordering::Relaxed), 4_000);
    }

    #[test]
    fn threaded_progress_is_strictly_increasing_and_ends_at_the_budget() {
        struct Seen(Mutex<Vec<u64>>);
        impl Progress for Seen {
            fn on_photons(&self, completed: u64, total: u64) {
                assert_eq!(total, 4_000);
                self.0.lock().unwrap().push(completed);
            }
        }
        let seen = Seen(Mutex::new(Vec::new()));
        Rayon::with_threads(3).run_with_progress(&scenario(), &seen).unwrap();
        let seen = seen.0.into_inner().unwrap();
        assert_eq!(seen.len(), 8, "one call per non-empty batch");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
        assert_eq!(seen.last(), Some(&4_000));
    }

    #[test]
    fn zero_tasks_is_invalid() {
        let s = scenario().with_tasks(0);
        assert!(matches!(Sequential.run(&s), Err(EngineError::InvalidConfig(_))));
    }

    #[test]
    fn overflowing_task_offset_is_invalid() {
        let s = scenario().with_task_offset(u64::MAX);
        assert!(matches!(Sequential.run(&s), Err(EngineError::InvalidConfig(_))));
    }

    #[test]
    fn offset_continuation_extends_a_prefix_run_bit_identically() {
        // The continuation contract behind the service cache's top-up.
        // `merge` left-folds, and a left fold is *prefix-extendable*:
        // fold(0..8) == fold(fold(0..4), t4, t5, t6, t7) bit for bit —
        // so a cached prefix run extended one offset run at a time is the
        // single full run. (Two multi-task partial folds merged together
        // would NOT be: float addition is not associative.)
        let full = scenario(); // 4_000 photons, 8 tasks -> 500 each
        let head = scenario().with_photons(2_000).with_tasks(4);
        for backend in [&Sequential as &dyn Backend, &Rayon::default()] {
            let whole = backend.run(&full).unwrap();
            let mut merged = backend.run(&head).unwrap().result.tally.clone();
            for j in 4..8 {
                let step = scenario().with_photons(500).with_tasks(1).with_task_offset(j);
                merged.merge(&backend.run(&step).unwrap().result.tally);
            }
            assert_eq!(merged, whole.result.tally, "backend {}", backend.name());
        }
    }

    #[test]
    fn invalid_geometry_is_a_typed_error() {
        let mut s = scenario();
        s.detector.radius = -1.0;
        let err = Rayon::default().run(&s).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
        assert!(err.to_string().contains("invalid configuration"));
    }

    /// Five tallies whose float sums depend on the order they are added in.
    fn float_tallies() -> Vec<Tally> {
        [1e16, 1.0, -1e16, 0.1, 3.0]
            .iter()
            .map(|&w| {
                let mut t = Tally::new(1, None, None);
                t.launched = 10;
                t.detected_weight = w;
                t
            })
            .collect()
    }

    #[test]
    fn task_fold_parks_only_what_the_prefix_has_not_reached() {
        let tallies = float_tallies();
        let mut expected = Tally::new(1, None, None);
        tallies.iter().for_each(|t| expected.merge(t));
        for order in [[4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 0, 3, 2, 4]] {
            let mut fold = TaskFold::new(Tally::new(1, None, None), 7, 5);
            for (step, &slot) in order.iter().enumerate() {
                assert!(fold.push(7 + slot as u64, &tallies[slot]));
                // Nothing is taken twice and nothing outside the run is taken.
                assert!(!fold.push(7 + slot as u64, &tallies[slot]));
                assert!(!fold.push(6, &tallies[0]));
                assert!(!fold.push(12, &tallies[0]));
                // Task 0 is never parked, so at most tasks - 1 are; and
                // what is parked is exactly what the prefix has not reached.
                assert!(fold.parked.len() < tallies.len(), "{order:?}");
                assert_eq!(fold.folded as usize + fold.parked.len(), step + 1, "{order:?}");
                assert_eq!(fold.finished(), step + 1 == tallies.len());
            }
            assert!(fold.parked.is_empty());
            assert_eq!(fold.into_tally(), expected, "{order:?}");
        }
    }

    #[test]
    fn task_fold_in_order_completion_parks_nothing() {
        let mut fold = TaskFold::new(Tally::new(1, None, None), 0, 5);
        for (task_id, tally) in float_tallies().iter().enumerate() {
            assert!(fold.push(task_id as u64, tally));
            assert!(fold.parked.is_empty());
        }
        assert!(fold.finished());
    }

    #[test]
    fn spec_resolution() {
        assert_eq!(from_spec("sequential").unwrap().name(), "sequential");
        assert_eq!(from_spec("rayon").unwrap().name(), "rayon");
        assert_eq!(from_spec("rayon 2").unwrap().name(), "rayon");
        assert!(from_spec("rayon zero").is_err());
        assert!(from_spec("rayon 0").is_err());
        assert!(from_spec("quantum").is_err());
        assert!(from_spec("").is_err());
    }

    #[test]
    fn run_on_sugar_matches_backend_run() {
        let s = scenario();
        let a = s.run_on(&Sequential).unwrap();
        let b = Sequential.run(&s).unwrap();
        assert_eq!(a.result.tally, b.result.tally);
    }

    #[test]
    fn scenario_batches_cover_budget() {
        let s = scenario().with_photons(1001).with_tasks(10);
        let batches = s.batches();
        assert_eq!(batches.iter().sum::<u64>(), 1001);
    }
}
