//! The cluster-side [`Backend`] implementations — the registration that
//! extends `lumen_core::engine`'s backend vocabulary without making
//! `lumen-core` depend on this crate.
//!
//! Two execution substrates join [`Sequential`](lumen_core::Sequential)
//! and [`Rayon`](lumen_core::Rayon) here:
//!
//! * [`ThreadedCluster`] — the real master/worker protocol on OS threads
//!   sharing one lock-guarded [`DataManager`] (demand-driven scheduling,
//!   failure re-queueing), with optional fault injection via
//!   [`FailurePlan`];
//! * [`Tcp`] — the paper's actual deployment: the DataManager on a TCP
//!   listener, serving however many `net::run_client` processes connect.
//!
//! Both honour the scenario's `(seed, tasks)` contract, so they return
//! tallies bit-identical to the core ones. [`from_spec`] resolves the
//! full vocabulary (`sequential | rayon | cluster | tcp | reweight`),
//! falling back to `lumen_core::engine::from_spec` for the core names.
//! The discrete-event simulator traces no photons, so it is not a
//! backend: it predicts a run's timing through [`crate::des::predict`].

use crate::net::{serve_with_options, NetError, ServeOptions};
use crate::DataManager;
use lumen_core::engine::{run_task, Backend, EngineError, Progress, RunReport, Scenario};
use lumen_core::SimulationResult;
use mcrng::{McRng, SplitMix64, StreamFactory};
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a [`ThreadedCluster`] injects worker failures (a non-dedicated PC
/// being reclaimed by its owner mid-task).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum FailurePlan {
    /// No injected failures.
    #[default]
    Reliable,
    /// Each assigned task is lost with this probability; a lost task is
    /// re-queued and re-taken at once by the worker that lost it, which
    /// re-runs it with identical physics.
    Random {
        /// Per-task failure probability in `[0, 1)`.
        rate: f64,
    },
}

impl FailurePlan {
    /// The per-task failure probability this plan encodes.
    pub fn rate(&self) -> f64 {
        match *self {
            FailurePlan::Reliable => 0.0,
            FailurePlan::Random { rate } => rate,
        }
    }
}

/// The real master/worker engine as a backend: OS threads play the client
/// PCs and share the [`DataManager`] behind a lock, each looping request →
/// trace → return until the queue is empty. The calling thread is
/// worker 0, so `k` workers spawn `k − 1` threads and one spawns none.
///
/// Deterministic in its *physics* for a given `(seed, tasks)`: the same
/// batches with the same streams are executed regardless of worker count,
/// scheduling order, or injected failures (a re-executed task re-runs the
/// identical photons, exactly as the original platform re-assigns a lost
/// simulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadedCluster {
    /// Number of worker threads ("client PCs"); must be >= 1.
    pub workers: usize,
    /// Fault-injection plan.
    pub failure_plan: FailurePlan,
}

impl ThreadedCluster {
    /// A reliable cluster of `workers` threads.
    pub fn new(workers: usize) -> Self {
        Self { workers, failure_plan: FailurePlan::Reliable }
    }

    /// Builder-style fault injection.
    pub fn with_failure_plan(mut self, plan: FailurePlan) -> Self {
        self.failure_plan = plan;
        self
    }

    /// The rule a cluster must meet to run at all: at least one worker
    /// (zero would leave the queue untouched forever) and a failure rate
    /// in `[0, 1)` (a rate of 1 would requeue every task forever).
    fn validate(&self) -> Result<(), EngineError> {
        if self.workers == 0 {
            return Err(EngineError::InvalidConfig("cluster needs at least one worker".into()));
        }
        let failure_rate = self.failure_plan.rate();
        if !(0.0..1.0).contains(&failure_rate) {
            return Err(EngineError::InvalidConfig(format!(
                "failure rate must be in [0, 1), got {failure_rate}"
            )));
        }
        Ok(())
    }
}

impl Backend for ThreadedCluster {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn run_with_progress(
        &self,
        scenario: &Scenario,
        progress: &dyn Progress,
    ) -> Result<RunReport, EngineError> {
        scenario.validate()?;
        self.validate()?;
        let failure_rate = self.failure_plan.rate();
        let started = Instant::now();
        let sim = scenario.simulation();
        let factory = StreamFactory::new(scenario.seed);
        let server = Mutex::new(DataManager::with_offset(
            scenario.photons,
            scenario.tasks,
            scenario.task_offset,
            sim.new_tally(),
            self.workers,
        ));
        // Poisoned only if another worker panicked mid-update.
        let lock = || server.lock().expect("a cluster worker panicked");

        // A lost task is re-queued and re-taken in one critical section,
        // and a completion shares its section with the next assign, so
        // the queue never refills once it runs dry: every task still out
        // is held by a live worker, and a worker leaves at the first
        // `None`.
        let work = |worker: usize| {
            // Fault injection draws from a per-worker deterministic stream
            // unrelated to the physics streams.
            let mut fault_rng = SplitMix64::new(
                scenario.seed ^ 0xFA17_FA17_FA17_FA17 ^ (worker as u64).wrapping_mul(0x9E37),
            );
            let mut next = lock().assign();
            while let Some(task) = next {
                // Machine "reclaimed by its owner": the task is lost before
                // completing.
                let lost = failure_rate > 0.0 && fault_rng.next_f64() < failure_rate;
                let tally =
                    (!lost).then(|| run_task(&sim, &factory, task.task_id, task.photons, None));
                let mut dm = lock();
                match tally {
                    None => {
                        dm.fail(worker, task);
                        progress.on_task_retry(task.task_id);
                    }
                    Some(tally) => {
                        dm.complete(worker, task, &tally);
                        // Under the lock, so observers see a strictly
                        // increasing count in call order.
                        let (done, total) = dm.photons();
                        progress.on_photons(done, total);
                    }
                }
                next = dm.assign();
            }
        };
        // Workers `k − 1` down to 1 on scoped threads; the caller is worker 0.
        let work = &work;
        std::thread::scope(|scope| {
            for worker in (1..self.workers).rev() {
                scope.spawn(move || work(worker));
            }
            work(0);
        });

        let dm = server.into_inner().expect("a cluster worker panicked");
        let (tally, workers, requeues) = dm.into_results();
        Ok(RunReport {
            result: SimulationResult::new(tally, Vec::new()),
            workers,
            requeues,
            wall_seconds: started.elapsed().as_secs_f64(),
            backend: self.name().to_string(),
        })
    }
}

/// The paper's deployment: the DataManager bound to a TCP address,
/// serving however many `net::run_client` processes connect — the pool is
/// elastic, `min_clients` only gates the first assignment, and leased
/// tasks survive departures via deadline-based revocation (see
/// [`crate::net::serve_with_options`]). Clients must be started
/// separately with the same scenario definition and seed (the out-of-band
/// experiment contract; `wire::encode_scenario` ships it).
#[derive(Debug, Clone, PartialEq)]
pub struct Tcp {
    /// Address to bind, e.g. `"127.0.0.1:7878"`.
    pub addr: String,
    /// The serve knobs. The run's `task_offset` comes from the scenario,
    /// so the one held here is ignored.
    pub options: ServeOptions,
}

impl Tcp {
    /// A server for `addr` with the default [`ServeOptions`]: start at the
    /// first client, default lease and grace timeouts.
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), options: ServeOptions::default() }
    }

    /// Builder-style minimum client count.
    pub fn with_clients(mut self, min_clients: usize) -> Self {
        self.options.min_clients = min_clients;
        self
    }

    /// Builder-style lease deadline.
    pub fn with_lease_timeout(mut self, lease_timeout: Duration) -> Self {
        self.options.lease_timeout = lease_timeout;
        self
    }

    /// Builder-style empty-pool grace period.
    pub fn with_join_grace(mut self, join_grace: Duration) -> Self {
        self.options.join_grace = join_grace;
        self
    }
}

/// Map a networked failure onto the engine's error vocabulary: parameter
/// problems stay `InvalidConfig`, everything else (I/O, protocol
/// violations, an abandoned incomplete run) is a backend failure.
fn net_error(e: NetError) -> EngineError {
    match e {
        NetError::InvalidConfig(reason) => EngineError::InvalidConfig(reason),
        other => EngineError::backend("tcp", other.to_string()),
    }
}

impl Backend for Tcp {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn run_with_progress(
        &self,
        scenario: &Scenario,
        progress: &dyn Progress,
    ) -> Result<RunReport, EngineError> {
        scenario.validate()?;
        let started = Instant::now();
        let listener = TcpListener::bind(&self.addr)
            .map_err(|e| EngineError::backend(self.name(), format!("bind {}: {e}", self.addr)))?;
        let sim = scenario.simulation();
        let report = serve_with_options(
            listener,
            &sim,
            scenario.photons,
            scenario.tasks,
            self.options.with_task_offset(scenario.task_offset),
            progress,
        )
        .map_err(net_error)?;
        Ok(RunReport {
            result: report.result,
            workers: report.worker_stats,
            requeues: report.requeues,
            wall_seconds: started.elapsed().as_secs_f64(),
            backend: self.name().to_string(),
        })
    }
}

/// Resolve a backend-spec string over the **full** vocabulary:
///
/// * `sequential`, `rayon [threads]` — delegated to
///   `lumen_core::engine::from_spec`;
/// * `cluster [workers] [failure_rate]` — [`ThreadedCluster`] (defaults:
///   one worker per logical CPU, no failures);
/// * `tcp <addr> [min_clients] [lease_timeout_s]` — [`Tcp`] (defaults:
///   start at the first client, 10-minute lease deadline);
/// * `reweight <archive-file>` — [`lumen_core::Reweight`] over a stored
///   path archive ([`crate::wire::decode_archive`]): answers the scenario
///   by re-scoring recorded paths instead of tracing photons.
pub fn from_spec(spec: &str) -> Result<Box<dyn Backend + Send + Sync>, EngineError> {
    let mut parts = spec.split_whitespace();
    let kind = parts.next().unwrap_or("");
    let args: Vec<&str> = parts.collect();

    fn parse<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, EngineError> {
        v.parse::<T>()
            .map_err(|_| EngineError::InvalidConfig(format!("{what} `{v}` cannot be parsed")))
    }

    match (kind, args.as_slice()) {
        ("cluster", rest) => {
            let workers = match rest.first() {
                Some(v) => parse::<usize>("cluster worker count", v)?,
                None => lumen_core::engine::available_threads(),
            };
            let plan = match rest.get(1) {
                Some(v) => FailurePlan::Random { rate: parse::<f64>("cluster failure rate", v)? },
                None => FailurePlan::Reliable,
            };
            if rest.len() > 2 {
                return Err(EngineError::InvalidConfig(format!(
                    "cluster spec takes at most `[workers] [failure_rate]`, got `{spec}`"
                )));
            }
            let cluster = ThreadedCluster { workers, failure_plan: plan };
            cluster.validate()?;
            Ok(Box::new(cluster))
        }
        ("tcp", [addr, rest @ ..]) if rest.len() <= 2 => {
            let mut tcp = Tcp::new(*addr);
            if let Some(min_clients) = rest.first() {
                tcp.options.min_clients = parse("tcp minimum client count", min_clients)?;
            }
            if let Some(lease_secs) = rest.get(1) {
                let secs = parse::<f64>("tcp lease timeout (seconds)", lease_secs)?;
                // Out of `Duration`'s range is out of the rule's range too.
                tcp.options.lease_timeout =
                    Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX);
            }
            tcp.options.validate().map_err(net_error)?;
            Ok(Box::new(tcp))
        }
        ("tcp", _) => Err(EngineError::InvalidConfig(
            "tcp backend needs `tcp <addr> [min_clients] [lease_timeout_s]`".into(),
        )),
        ("reweight", [path]) => {
            let bytes = std::fs::read(path).map_err(|e| {
                EngineError::InvalidConfig(format!("cannot read archive `{path}`: {e}"))
            })?;
            let archive = crate::wire::decode_archive(&bytes).map_err(|e| {
                EngineError::InvalidConfig(format!("cannot decode archive `{path}`: {e}"))
            })?;
            Ok(Box::new(lumen_core::Reweight::new(archive)))
        }
        ("reweight", _) => Err(EngineError::InvalidConfig(
            "reweight backend needs `reweight <archive-file>`".into(),
        )),
        // Known core backends keep the core resolver's precise errors
        // (e.g. "rayon thread count must be >= 1"); only genuinely
        // unknown names get the full-vocabulary message.
        ("sequential", _) | ("rayon", _) => lumen_core::engine::from_spec(spec),
        _ => Err(EngineError::InvalidConfig(format!(
            "unknown backend `{spec}` (expected sequential | rayon [threads] | \
             cluster [workers] [failure_rate] | tcp <addr> [min_clients] [lease_timeout_s] | \
             reweight <archive-file>)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_core::{Detector, Rayon, Sequential, Source};
    use lumen_tissue::presets::semi_infinite_phantom;

    fn scenario() -> Scenario {
        Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(1.0, 0.5),
        )
        .with_photons(4_000)
        .with_tasks(8)
        .with_seed(11)
    }

    #[test]
    fn threaded_cluster_matches_core_backends() {
        let s = scenario();
        let seq = Sequential.run(&s).unwrap();
        let clu = ThreadedCluster::new(3).run(&s).unwrap();
        assert_eq!(seq.result.tally, clu.result.tally);
        assert_eq!(clu.backend, "cluster");
        let photons: u64 = clu.workers.iter().map(|w| w.photons).sum();
        assert_eq!(photons, 4_000);
    }

    #[test]
    fn failure_plan_changes_accounting_not_physics() {
        // 32 tasks at 50%: P(zero failures) ~ 2e-10, so the requeue
        // assertions cannot flake on an unlucky schedule.
        let s = scenario().with_tasks(32);
        let clean = ThreadedCluster::new(3).run(&s).unwrap();
        let faulty = ThreadedCluster::new(3)
            .with_failure_plan(FailurePlan::Random { rate: 0.5 })
            .run(&s)
            .unwrap();
        assert_eq!(clean.result.tally, faulty.result.tally);
        assert!(faulty.requeues > 0);
        assert!(faulty.workers.iter().any(|w| w.tasks_failed > 0));
    }

    #[test]
    fn bad_cluster_parameters_are_typed_errors_not_hangs() {
        let s = scenario();
        match ThreadedCluster::new(0).run(&s) {
            Err(EngineError::InvalidConfig(msg)) => assert!(msg.contains("worker"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        for rate in [1.0, 1.5, -0.1, f64::NAN] {
            let cluster = ThreadedCluster::new(2).with_failure_plan(FailurePlan::Random { rate });
            match cluster.run(&s) {
                Err(EngineError::InvalidConfig(msg)) => assert!(msg.contains("rate"), "{msg}"),
                other => panic!("rate {rate}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn accounts_cover_every_task_and_photon() {
        let s = scenario().with_photons(10_000).with_tasks(20);
        let report = ThreadedCluster::new(3).run(&s).unwrap();
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.workers.iter().map(|w| w.photons).sum::<u64>(), 10_000);
        assert_eq!(report.workers.iter().map(|w| w.tasks_completed).sum::<u64>(), 20);
        assert_eq!(report.requeues, 0);
    }

    #[test]
    fn single_worker_completes_every_task() {
        let report = ThreadedCluster::new(1).run(&scenario()).unwrap();
        assert_eq!(report.result.launched(), 4_000);
        assert_eq!(report.workers[0].tasks_completed, 8);
    }

    #[test]
    fn more_tasks_than_photons_is_fine() {
        // 100 tasks for 50 photons: the empty batches are never queued.
        let s = scenario().with_photons(50).with_tasks(100);
        let report = ThreadedCluster::new(4).run(&s).unwrap();
        assert_eq!(report.result.launched(), 50);
        assert_eq!(report.result.tally, Sequential.run(&s).unwrap().result.tally);
    }

    #[test]
    fn offset_runs_continue_an_earlier_run_bit_identically() {
        // Streams 0..4 run in one job, then streams 4..8 arrive as
        // single-task continuation runs folded on in order (a left fold
        // is prefix-extendable; merging two multi-task partial folds
        // would differ in the last ulp). Worker count must not matter.
        let whole = ThreadedCluster::new(3).run(&scenario()).unwrap();
        let head = scenario().with_photons(2_000).with_tasks(4);
        let mut merged = ThreadedCluster::new(2).run(&head).unwrap().result.tally.clone();
        for j in 4..8 {
            let step = scenario().with_photons(500).with_tasks(1).with_task_offset(j);
            merged.merge(&ThreadedCluster::new(2).run(&step).unwrap().result.tally);
        }
        assert_eq!(merged, whole.result.tally);
    }

    #[test]
    fn each_worker_retakes_its_own_requeued_tasks() {
        // A lost task is re-taken in the critical section that re-queued
        // it, by the worker that lost it: with one worker nobody else
        // could, and with three the queue still never refills after it
        // runs dry, so no worker leaves while work it could take remains.
        // 32 tasks at 50%: P(zero failures) ~ 2e-10.
        struct Monotonic {
            last: Mutex<u64>,
        }
        impl Progress for Monotonic {
            fn on_photons(&self, completed: u64, total: u64) {
                assert_eq!(total, 4_000);
                let mut last = self.last.lock().unwrap();
                assert!(completed > *last, "{completed} after {last}");
                *last = completed;
            }
        }
        let s = scenario().with_tasks(32);
        let reference = Sequential.run(&s).unwrap().result.tally;
        for workers in [1, 3] {
            let observer = Monotonic { last: Mutex::new(0) };
            let faulty = ThreadedCluster::new(workers)
                .with_failure_plan(FailurePlan::Random { rate: 0.5 })
                .run_with_progress(&s, &observer)
                .unwrap();
            assert_eq!(faulty.result.tally, reference, "{workers} workers");
            assert!(faulty.requeues > 0);
            let failed: u64 = faulty.workers.iter().map(|w| w.tasks_failed).sum();
            assert_eq!(failed, faulty.requeues, "{workers} workers");
            assert_eq!(*observer.last.lock().unwrap(), 4_000, "{workers} workers");
        }
    }

    #[test]
    fn tcp_backend_runs_against_clients() {
        use std::thread;
        // Bind on port 0 first to find a free port, then hand the address
        // to the backend (which binds its own listener).
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);

        let s = scenario().with_photons(2_000).with_tasks(4);
        let sim = s.simulation();
        let addr_c = addr.clone();
        let seed = s.seed;
        let client = thread::spawn(move || {
            // Retry until the server's listener is up.
            for _ in 0..200 {
                match crate::net::run_client(&addr_c, &sim, seed) {
                    Ok(n) => return n,
                    Err(_) => thread::sleep(std::time::Duration::from_millis(10)),
                }
            }
            panic!("client never connected");
        });

        let report = Tcp::new(addr).run(&s).unwrap();
        let completed = client.join().unwrap();
        assert_eq!(completed, 4);
        let reference = Sequential.run(&s).unwrap();
        assert_eq!(report.result.tally, reference.result.tally);
        assert_eq!(report.backend, "tcp");
    }

    #[test]
    fn spec_resolution_covers_all_five() {
        assert_eq!(from_spec("sequential").unwrap().name(), "sequential");
        assert_eq!(from_spec("rayon 2").unwrap().name(), "rayon");
        assert_eq!(from_spec("cluster").unwrap().name(), "cluster");
        assert_eq!(from_spec("cluster 4").unwrap().name(), "cluster");
        assert_eq!(from_spec("cluster 4 0.1").unwrap().name(), "cluster");
        assert_eq!(from_spec("tcp 127.0.0.1:7878").unwrap().name(), "tcp");
        assert_eq!(from_spec("tcp 127.0.0.1:7878 3").unwrap().name(), "tcp");
        assert_eq!(from_spec("tcp 127.0.0.1:7878 3 5.5").unwrap().name(), "tcp");
        // The DES traces no photons, so it is no backend (`des::predict`).
        assert!(from_spec("sim").is_err());
        assert!(from_spec("sim 150").is_err());
        assert!(from_spec("tcp").is_err());
        assert!(from_spec("tcp 127.0.0.1:7878 3 0").is_err());
        assert!(from_spec("tcp 127.0.0.1:7878 3 -2").is_err());
        assert!(from_spec("tcp 127.0.0.1:7878 3 1e30").is_err());
        assert!(from_spec("tcp 127.0.0.1:7878 3 5 extra").is_err());
        assert!(from_spec("cluster four").is_err());
        match from_spec("warp-drive") {
            Err(EngineError::InvalidConfig(msg)) => assert!(!msg.contains("sim"), "{msg}"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|b| b.name())),
        }
        // `reweight` needs exactly one archive path, and the file must
        // exist and decode.
        assert!(from_spec("reweight").is_err());
        assert!(from_spec("reweight a b").is_err());
        assert!(from_spec("reweight /nonexistent/archive.lmn").is_err());
        let file = std::env::temp_dir().join("lumen_spec_resolution_archive.lmn");
        let archive = recorded_archive(&scenario_with_archive());
        std::fs::write(&file, crate::wire::encode_archive(&archive)).unwrap();
        assert_eq!(from_spec(&format!("reweight {}", file.display())).unwrap().name(), "reweight");
        let _ = std::fs::remove_file(&file);
    }

    fn scenario_with_archive() -> Scenario {
        let mut s = scenario();
        s.options.archive = Some(lumen_core::RecordOptions::default());
        s
    }

    fn recorded_archive(s: &Scenario) -> lumen_core::PathArchive {
        Sequential.run(s).unwrap().result.tally.archive.clone().expect("archive attached")
    }

    #[test]
    fn archives_agree_across_backends_after_canonical_ordering() {
        // Sequential and Rayon merge per-task archives in task order;
        // the threaded cluster merges in completion order, which is
        // schedule-dependent — but after the canonical task-id sort all
        // three must hold the identical recording.
        let s = scenario_with_archive();
        let mut seq = recorded_archive(&s);
        let mut ray =
            Rayon::default().run(&s).unwrap().result.tally.archive.clone().expect("archive");
        let mut clu =
            ThreadedCluster::new(3).run(&s).unwrap().result.tally.archive.clone().expect("archive");
        seq.canonical_order();
        ray.canonical_order();
        clu.canonical_order();
        assert_eq!(seq, ray);
        assert_eq!(seq, clu);
    }

    #[test]
    fn reweight_spec_answers_identity_query_from_disk() {
        let s = scenario_with_archive();
        let recorded = Sequential.run(&s).unwrap();
        let file = std::env::temp_dir().join("lumen_reweight_spec_archive.lmn");
        std::fs::write(
            &file,
            crate::wire::encode_archive(recorded.result.tally.archive.as_ref().unwrap()),
        )
        .unwrap();
        let backend = from_spec(&format!("reweight {}", file.display())).unwrap();
        let mut query = s.clone();
        query.options.archive = None;
        let replayed = backend.run(&query).unwrap();
        let _ = std::fs::remove_file(&file);
        assert_eq!(replayed.backend, "reweight");
        assert_eq!(replayed.result.tally.detected, recorded.result.tally.detected);
        assert_eq!(replayed.result.tally.detected_weight, recorded.result.tally.detected_weight);
    }

    #[test]
    fn tcp_spec_carries_min_clients_and_lease_timeout() {
        // `from_spec` returns a boxed trait object, so check the knobs on
        // the concrete builder it mirrors.
        let tcp = Tcp::new("127.0.0.1:7878")
            .with_clients(3)
            .with_lease_timeout(std::time::Duration::from_secs_f64(5.5));
        assert_eq!(tcp.options.min_clients, 3);
        assert_eq!(tcp.options.lease_timeout, std::time::Duration::from_secs_f64(5.5));
        assert_eq!(tcp.options.join_grace, crate::net::ServeOptions::default().join_grace);
    }

    #[test]
    fn cluster_specs_that_can_never_run_are_refused() {
        // Refused when resolved, with the message `run` would give, so a
        // daemon never starts on a backend that fails every miss.
        for spec in ["cluster 0", "cluster 0 0.1", "cluster 2 1", "cluster 2 -0.5", "cluster 2 NaN"]
        {
            match from_spec(spec) {
                Err(EngineError::InvalidConfig(msg)) => {
                    assert!(msg.contains("worker") || msg.contains("rate"), "{spec}: {msg}")
                }
                other => {
                    panic!("{spec}: expected InvalidConfig, got {:?}", other.map(|b| b.name()))
                }
            }
        }
        assert_eq!(from_spec("cluster 1 0").unwrap().name(), "cluster");
        assert_eq!(from_spec("cluster 2 0.99").unwrap().name(), "cluster");
    }

    #[test]
    fn tcp_zero_min_clients_is_invalid_config() {
        let s = scenario();
        let err = Tcp::new("127.0.0.1:0").with_clients(0).run(&s).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
    }
}
