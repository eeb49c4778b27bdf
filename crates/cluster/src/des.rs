//! Discrete-event simulation of the distributed platform on arbitrary
//! machine pools.
//!
//! This is the substitute for the paper's physical testbed: it lets us
//! regenerate the Fig 2 speedup curve for 1–60 "Pentium IV" clients and
//! the Table 2 run with 150 heterogeneous machines without owning them.
//! The model captures exactly the effects that shape those results:
//!
//! * per-machine compute rate (Mflop/s) and per-task stochastic
//!   availability (non-dedicated usage);
//! * network latency/bandwidth for task assignment and result return;
//! * the server's sequential result-merging (a single 3 GHz P4 in the
//!   paper): results are merged one at a time, in arrival order, so
//!   merges queue under load;
//! * the scheduler: demand-driven self-scheduling by default, static or
//!   GA plans for the ablation. A plan only decides where a machine's
//!   next task comes from; every plan runs in the same event loop.
//!
//! It models *time*, not photons, so it is not a `Backend`: [`predict`]
//! answers "how long would this scenario take on that pool?", and
//! [`ClusterSim`] runs any job, network, availability and scheduler.
//! Tasks are split by `lumen_core::engine::batch_sizes`, the rule every
//! backend executes. Simulated ("virtual") time is reported in seconds.

use crate::availability::AvailabilityModel;
use crate::machine::MachinePool;
use crate::network::NetworkModel;
use crate::scheduler::{Plan, Scheduler, SelfScheduling};
use lumen_core::engine::{batch_sizes, Scenario};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Why the simulator refused its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DesError {
    /// A job, network, availability or machine parameter is outside its
    /// range: `what` names it, `value` is what was given.
    OutOfRange { what: &'static str, value: f64 },
    /// The machine pool has no machines.
    EmptyPool,
    /// A scheduler's static plan does not give each of `tasks` tasks one
    /// of the pool's `machines` machines.
    BadPlan { tasks: usize, machines: usize },
}

impl std::fmt::Display for DesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DesError::OutOfRange { what, value } => write!(f, "{what} out of range: {value}"),
            DesError::EmptyPool => write!(f, "machine pool is empty"),
            DesError::BadPlan { tasks, machines } => {
                write!(f, "scheduler plan does not map {tasks} tasks onto {machines} machines")
            }
        }
    }
}

impl std::error::Error for DesError {}

/// `Err(OutOfRange)` unless `ok`.
pub(crate) fn check(ok: bool, what: &'static str, value: f64) -> Result<(), DesError> {
    if ok {
        Ok(())
    } else {
        Err(DesError::OutOfRange { what, value })
    }
}

/// The computational job being distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Total photons to simulate.
    pub total_photons: u64,
    /// Calibrated cost of one photon (flops). [`JobSpec::paper_job`]
    /// calibrates it so the Table 2 pool finishes 10⁹ photons in about 2
    /// hours, as the paper reports.
    pub flops_per_photon: f64,
    /// Tasks the photons split into, by `lumen_core::engine::batch_sizes`
    /// (as a scenario's `tasks` does).
    pub tasks: u64,
    /// Size of a task-assignment message (bytes).
    pub task_bytes: u64,
    /// Size of a returned result (bytes). A 50³ grid of f64 is ~1 MB.
    pub result_bytes: u64,
}

impl JobSpec {
    /// The paper's workload: 10⁹ photons at ~70 kflop each (calibrated so
    /// the Table 2 pool under semi-idle availability finishes in the ~2 h
    /// the paper reports), 40 000 tasks of 25 000 photons
    /// (small enough that the slowest Table 2 machine finishes a batch in
    /// minutes, bounding the tail), 1 MB results.
    pub fn paper_job() -> Self {
        Self {
            total_photons: 1_000_000_000,
            flops_per_photon: 7.0e4,
            tasks: 40_000,
            task_bytes: 512,
            result_bytes: 1_000_000,
        }
    }

    /// Flops for a batch of `photons`.
    pub fn batch_flops(&self, photons: u64) -> f64 {
        photons as f64 * self.flops_per_photon
    }

    /// Idealised sequential time on a dedicated machine of `mflops` (s).
    pub fn sequential_seconds(&self, mflops: f64) -> f64 {
        self.batch_flops(self.total_photons) / (mflops * 1e6)
    }

    pub(crate) fn validate(&self) -> Result<(), DesError> {
        check(self.total_photons > 0, "total photons", self.total_photons as f64)?;
        check(self.tasks > 0, "tasks", self.tasks as f64)?;
        let flops = self.flops_per_photon;
        check(flops > 0.0 && flops.is_finite(), "flops per photon", flops)
    }
}

/// Predict how long `scenario`'s photon budget takes on `pool`: its
/// photons in its `tasks` batches, at the paper's calibrated cost per
/// photon ([`JobSpec::paper_job`]), on dedicated machines
/// ([`AvailabilityModel::DEDICATED`]) over a 2006 LAN
/// ([`NetworkModel::lan_2006`]), self-scheduled, with availability streams
/// seeded by the scenario's seed. No photon is traced.
pub fn predict(scenario: &Scenario, pool: &MachinePool) -> Result<DesReport, DesError> {
    let job =
        JobSpec { total_photons: scenario.photons, tasks: scenario.tasks, ..JobSpec::paper_job() };
    ClusterSim {
        pool: pool.clone(),
        network: NetworkModel::lan_2006(),
        availability: AvailabilityModel::DEDICATED,
        seed: scenario.seed,
    }
    .run(&job)
}

/// The cluster being simulated.
///
/// ```
/// use lumen_cluster::{AvailabilityModel, ClusterSim, JobSpec, NetworkModel};
///
/// let sim = ClusterSim {
///     pool: lumen_cluster::homogeneous_pool(60),
///     network: NetworkModel::lan_2006(),
///     availability: AvailabilityModel::DEDICATED,
///     seed: 2006,
/// };
/// let report = sim.run(&JobSpec::paper_job()).expect("the paper's inputs are valid");
/// assert!(report.efficiency(60) > 0.95); // the paper's Fig 2 headline
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSim {
    pub pool: MachinePool,
    pub network: NetworkModel,
    pub availability: AvailabilityModel,
    /// Seed for the availability streams.
    pub seed: u64,
}

/// Results of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesReport {
    /// Virtual completion time of the whole job (s).
    pub makespan_s: f64,
    /// Virtual sequential time on the pool's fastest machine, dedicated (s).
    pub sequential_s: f64,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Per-machine busy time (s).
    pub machine_busy_s: Vec<f64>,
    /// Per-machine completed task counts.
    pub machine_tasks: Vec<u64>,
    /// Per-machine photons simulated.
    pub machine_photons: Vec<u64>,
    /// Total server time spent merging results (s).
    pub server_busy_s: f64,
}

impl DesReport {
    /// Speedup relative to the sequential baseline.
    pub fn speedup(&self) -> f64 {
        self.sequential_s / self.makespan_s
    }

    /// Parallel efficiency for a pool of `k` machines.
    pub fn efficiency(&self, k: usize) -> f64 {
        self.speedup() / k as f64
    }

    /// Mean machine utilisation (busy time / makespan).
    pub fn mean_utilisation(&self) -> f64 {
        if self.machine_busy_s.is_empty() || self.makespan_s == 0.0 {
            return 0.0;
        }
        self.machine_busy_s.iter().sum::<f64>()
            / (self.machine_busy_s.len() as f64 * self.makespan_s)
    }
}

impl ClusterSim {
    /// Simulate `job` under the default demand-driven scheduler.
    pub fn run(&self, job: &JobSpec) -> Result<DesReport, DesError> {
        self.run_with(job, &SelfScheduling)
    }

    /// Simulate `job` under an arbitrary scheduler. Every input is checked
    /// here, once, so no event time can be NaN.
    pub fn run_with(
        &self,
        job: &JobSpec,
        scheduler: &dyn Scheduler,
    ) -> Result<DesReport, DesError> {
        job.validate()?;
        self.network.validate()?;
        self.availability.validate()?;
        let rates = self.pool.machine_rates();
        if rates.is_empty() {
            return Err(DesError::EmptyPool);
        }
        for &rate in &rates {
            check(rate > 0.0 && rate.is_finite(), "machine Mflop/s", rate)?;
        }

        let batches = batch_sizes(job.total_photons, job.tasks);
        // Where a machine's next task comes from: one shared queue in task
        // order (demand-driven, as `DataManager::assign` hands tasks out),
        // or a static plan's own queue per machine, in task order.
        let sources = match scheduler.plan(batches.len(), &rates, self.seed) {
            Plan::Dynamic => vec![batches.iter().copied().collect()],
            Plan::Static(assignment) => {
                if assignment.len() != batches.len() || assignment.iter().any(|&m| m >= rates.len())
                {
                    return Err(DesError::BadPlan { tasks: batches.len(), machines: rates.len() });
                }
                let mut own = vec![VecDeque::new(); rates.len()];
                for (&photons, &m) in batches.iter().zip(&assignment) {
                    own[m].push_back(photons);
                }
                own
            }
        };
        Ok(self.simulate(job, &rates, sources))
    }

    /// One task's cost on machine `m` with a fresh availability draw.
    fn task_seconds(
        &self,
        job: &JobSpec,
        photons: u64,
        rate_mflops: f64,
        avail: f64,
    ) -> (f64, f64) {
        let assign = self.network.transfer_time(job.task_bytes);
        let compute = job.batch_flops(photons) / (rate_mflops * 1e6 * avail);
        let ret = self.network.transfer_time(job.result_bytes);
        // (busy time on the machine, total latency before result reaches
        // the server).
        (compute, assign + compute + ret)
    }

    /// The event loop: the machine that frees first takes the next batch
    /// from its source (`sources[0]` when all machines share one, else
    /// `sources[m]`) or retires when the source is dry; then the server
    /// merges the results one at a time, in the order they arrive.
    fn simulate(&self, job: &JobSpec, rates: &[f64], mut sources: Vec<VecDeque<u64>>) -> DesReport {
        let n = rates.len();
        let shared = sources.len() == 1;
        let mut samplers: Vec<_> =
            (0..n).map(|m| self.availability.sampler(self.seed, m)).collect();
        let mut busy = vec![0.0f64; n];
        let mut tasks_done = vec![0u64; n];
        let mut photons_done = vec![0u64; n];
        let mut arrivals = Vec::new();
        // Min-heap of (next-free time, machine index).
        let mut heap: BinaryHeap<Reverse<(OrderedF64, usize)>> =
            (0..n).map(|m| Reverse((OrderedF64(0.0), m))).collect();

        while let Some(Reverse((OrderedF64(free_at), m))) = heap.pop() {
            let Some(photons) = sources[if shared { 0 } else { m }].pop_front() else {
                continue;
            };
            let avail = samplers[m].next_fraction();
            let (compute, latency) = self.task_seconds(job, photons, rates[m], avail);
            busy[m] += compute;
            tasks_done[m] += 1;
            photons_done[m] += photons;
            arrivals.push(free_at + latency);
            // The machine can request new work once its result is sent.
            heap.push(Reverse((OrderedF64(free_at + latency), m)));
        }

        arrivals.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let mut server_free = 0.0f64;
        let mut server_busy = 0.0f64;
        for &t in &arrivals {
            server_free = t.max(server_free) + self.network.server_merge_s;
            server_busy += self.network.server_merge_s;
        }
        DesReport {
            makespan_s: server_free,
            sequential_s: job.sequential_seconds(rates.iter().copied().fold(0.0, f64::max)),
            tasks: arrivals.len() as u64,
            machine_busy_s: busy,
            machine_tasks: tasks_done,
            machine_photons: photons_done,
            server_busy_s: server_busy,
        }
    }
}

/// Total-ordered f64 wrapper for the event heap (times are always finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("event times are finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{homogeneous_pool, table2_pool, MachineClass};
    use crate::scheduler::StaticChunking;

    fn dedicated_cluster(count: usize) -> ClusterSim {
        ClusterSim {
            pool: homogeneous_pool(count),
            network: NetworkModel::lan_2006(),
            availability: AvailabilityModel::DEDICATED,
            seed: 42,
        }
    }

    fn small_job() -> JobSpec {
        JobSpec {
            total_photons: 100_000_000,
            flops_per_photon: 1.0e5,
            tasks: 100,
            task_bytes: 512,
            result_bytes: 1_000_000,
        }
    }

    #[test]
    fn single_machine_speedup_is_near_one() {
        let report = dedicated_cluster(1).run(&small_job()).unwrap();
        let s = report.speedup();
        assert!((0.9..=1.0).contains(&s), "speedup {s}");
    }

    #[test]
    fn speedup_grows_with_machines() {
        let job = small_job();
        let s1 = dedicated_cluster(1).run(&job).unwrap().speedup();
        let s10 = dedicated_cluster(10).run(&job).unwrap().speedup();
        let s30 = dedicated_cluster(30).run(&job).unwrap().speedup();
        assert!(s1 < s10 && s10 < s30, "{s1} {s10} {s30}");
    }

    #[test]
    fn sixty_homogeneous_machines_are_efficient() {
        // The paper's headline: ≥97 % efficiency at 60 processors. Use the
        // paper-scale job so there are ~17 batches per machine.
        let job = JobSpec::paper_job();
        let report = dedicated_cluster(60).run(&job).unwrap();
        let eff = report.efficiency(60);
        assert!(eff > 0.95, "efficiency at 60 machines: {eff}");
        assert!(eff <= 1.0 + 1e-9, "efficiency cannot exceed 1: {eff}");
    }

    #[test]
    fn work_is_conserved() {
        let job = small_job();
        let report = dedicated_cluster(7).run(&job).unwrap();
        let photons: u64 = report.machine_photons.iter().sum();
        assert_eq!(photons, job.total_photons);
        let tasks: u64 = report.machine_tasks.iter().sum();
        assert_eq!(tasks, job.tasks);
    }

    #[test]
    fn heterogeneous_fast_machines_do_more_work() {
        let sim = ClusterSim {
            pool: table2_pool(),
            network: NetworkModel::lan_2006(),
            availability: AvailabilityModel::DEDICATED,
            seed: 1,
        };
        let report = sim.run(&JobSpec::paper_job()).unwrap();
        let rates = sim.pool.machine_rates();
        // Mean photons for the fast class (209.5) vs slow class (29.5).
        let avg = |target: f64| {
            let (mut sum, mut cnt) = (0u64, 0u64);
            for (i, &r) in rates.iter().enumerate() {
                if (r - target).abs() < 1e-9 {
                    sum += report.machine_photons[i];
                    cnt += 1;
                }
            }
            sum as f64 / cnt as f64
        };
        let fast = avg(209.5);
        let slow = avg(29.5);
        assert!(
            fast > 4.0 * slow,
            "fast machines should do ~7x the work: fast {fast}, slow {slow}"
        );
    }

    #[test]
    fn table2_job_takes_about_two_hours() {
        // The paper: "each simulation taking approximately 2 hours" for
        // 10⁹ photons on the Table 2 pool with non-dedicated usage.
        let sim = ClusterSim {
            pool: table2_pool(),
            network: NetworkModel::lan_2006(),
            availability: AvailabilityModel::semi_idle(),
            seed: 7,
        };
        let report = sim.run(&JobSpec::paper_job()).unwrap();
        let hours = report.makespan_s / 3600.0;
        assert!(
            (1.0..4.0).contains(&hours),
            "makespan should be on the order of 2 h, got {hours:.2} h"
        );
    }

    #[test]
    fn non_dedicated_usage_slows_the_run() {
        let job = JobSpec::paper_job();
        let ded = ClusterSim {
            pool: homogeneous_pool(20),
            network: NetworkModel::lan_2006(),
            availability: AvailabilityModel::DEDICATED,
            seed: 3,
        }
        .run(&job)
        .unwrap();
        let semi = ClusterSim {
            pool: homogeneous_pool(20),
            network: NetworkModel::lan_2006(),
            availability: AvailabilityModel::semi_idle(),
            seed: 3,
        }
        .run(&job)
        .unwrap();
        assert!(semi.makespan_s > ded.makespan_s);
    }

    #[test]
    fn deterministic_given_seed() {
        let job = small_job();
        let mk = |seed| {
            ClusterSim {
                pool: table2_pool(),
                network: NetworkModel::lan_2006(),
                availability: AvailabilityModel::semi_idle(),
                seed,
            }
            .run(&job)
            .unwrap()
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5).makespan_s, mk(6).makespan_s);
    }

    fn scenario(photons: u64, tasks: u64) -> Scenario {
        use lumen_core::{Detector, Source};
        let phantom = lumen_tissue::presets::semi_infinite_phantom(0.1, 10.0, 0.0, 1.0);
        Scenario::new(phantom, Source::Delta, Detector::new(1.0, 0.5))
            .with_photons(photons)
            .with_tasks(tasks)
    }

    #[test]
    fn predict_splits_tasks_like_the_backends() {
        // `batch_sizes(10, 6)` is [2, 2, 2, 2, 1, 1]: six tasks, as every
        // backend runs them (a div_ceil split would make five of two).
        let report = predict(&scenario(10, 6), &homogeneous_pool(2)).unwrap();
        assert_eq!(report.tasks, 6);
        assert_eq!(report.machine_tasks.iter().sum::<u64>(), 6);
        assert_eq!(report.machine_photons.iter().sum::<u64>(), 10);
    }

    #[test]
    fn predict_times_every_photon_without_tracing_one() {
        let report = predict(&scenario(1_000_000, 100), &homogeneous_pool(10)).unwrap();
        assert!(report.makespan_s > 0.0);
        assert_eq!(report.tasks, 100);
        assert_eq!(report.machine_tasks.len(), 10);
        assert_eq!(report.machine_photons.iter().sum::<u64>(), 1_000_000);
        // A ten-machine pool beats one machine of the same class.
        let one = predict(&scenario(1_000_000, 100), &homogeneous_pool(1)).unwrap();
        assert!(report.makespan_s < one.makespan_s);
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let pool = homogeneous_pool(2);
        assert_eq!(predict(&scenario(10, 6), &homogeneous_pool(0)), Err(DesError::EmptyPool));
        let curve = crate::speedup_curve(
            &small_job(),
            &[1, 0],
            NetworkModel::FREE,
            AvailabilityModel::DEDICATED,
            1,
        );
        assert_eq!(curve, Err(DesError::EmptyPool));
        assert!(matches!(
            predict(&scenario(0, 6), &pool),
            Err(DesError::OutOfRange { what: "total photons", .. })
        ));
        assert!(matches!(
            predict(&scenario(10, 0), &pool),
            Err(DesError::OutOfRange { what: "tasks", .. })
        ));
        let sim = |network| ClusterSim {
            pool: pool.clone(),
            network,
            availability: AvailabilityModel::DEDICATED,
            seed: 1,
        };
        let nan_latency = NetworkModel { latency_s: f64::NAN, ..NetworkModel::lan_2006() };
        assert!(matches!(
            sim(nan_latency).run(&small_job()),
            Err(DesError::OutOfRange { what: "latency_s", .. })
        ));
        let mut slow = pool.clone();
        slow.classes[0].mflops = 0.0;
        let on_slow = ClusterSim { pool: slow, ..sim(NetworkModel::lan_2006()) };
        assert!(matches!(
            on_slow.run(&small_job()),
            Err(DesError::OutOfRange { what: "machine Mflop/s", .. })
        ));
        // A scheduler whose static plan misses a task or a machine.
        struct Broken(Vec<usize>);
        impl Scheduler for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn plan(&self, _n_tasks: usize, _rates: &[f64], _seed: u64) -> Plan {
                Plan::Static(self.0.clone())
            }
        }
        let lan = sim(NetworkModel::lan_2006());
        let bad_plan = Err(DesError::BadPlan { tasks: 100, machines: 2 });
        assert_eq!(lan.run_with(&small_job(), &Broken(vec![0; 99])), bad_plan);
        assert_eq!(lan.run_with(&small_job(), &Broken(vec![2; 100])), bad_plan);
    }

    #[test]
    fn the_server_merges_results_in_arrival_order() {
        // Task 0 goes to the slow machine (1 s), task 1 to the fast one
        // (1 ms). Merged as they arrive, the fast result is done long
        // before the slow one lands, so the job ends one merge after the
        // slow arrival, whatever the plan.
        let pool = MachinePool {
            classes: [1.0, 1_000.0]
                .map(|mflops| MachineClass {
                    count: 1,
                    mflops,
                    ram_mb: 512,
                    os: "Linux".into(),
                    cpu: "test".into(),
                })
                .to_vec(),
        };
        let sim = ClusterSim {
            pool,
            network: NetworkModel { server_merge_s: 0.1, ..NetworkModel::FREE },
            availability: AvailabilityModel::DEDICATED,
            seed: 1,
        };
        let job = JobSpec {
            total_photons: 2,
            flops_per_photon: 1.0e6,
            tasks: 2,
            task_bytes: 512,
            result_bytes: 1_000_000,
        };
        let schedulers: [&dyn Scheduler; 2] = [&SelfScheduling, &StaticChunking];
        for scheduler in schedulers {
            let report = sim.run_with(&job, scheduler).unwrap();
            assert_eq!(report.makespan_s, 1.0 + 0.1, "{}", scheduler.name());
            assert_eq!(report.machine_tasks, [1, 1], "{}", scheduler.name());
        }
    }

    #[test]
    fn the_sequential_baseline_is_a_machine_the_pool_has() {
        // A class with no machines does not set the P1 baseline.
        let mut pool = homogeneous_pool(4);
        pool.classes.push(MachineClass { count: 0, mflops: 1_000.0, ..pool.classes[0].clone() });
        let sim = ClusterSim { pool, ..dedicated_cluster(4) };
        let job = small_job();
        assert_eq!(sim.run(&job).unwrap().sequential_s, job.sequential_seconds(209.5));
    }

    #[test]
    fn utilisation_is_bounded() {
        let report = dedicated_cluster(13).run(&small_job()).unwrap();
        let u = report.mean_utilisation();
        assert!((0.0..=1.0).contains(&u), "utilisation {u}");
    }
}
