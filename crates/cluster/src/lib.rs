//! # lumen-cluster — the distributed execution platform
//!
//! The reproduced paper runs its Monte Carlo on a general-purpose Java
//! master/worker platform (Keane et al., the paper's reference \[2\]): a
//! `DataManager` on a server assigns photon batches to client PCs and
//! merges the returned results; clients are non-dedicated machines whose
//! available compute varies stochastically.
//!
//! We reproduce that platform twice, at two levels of fidelity:
//!
//! 1. **A real master/worker engine** — the [`DataManager`] hands out
//!    [`protocol::SimTask`]s and the full protocol runs for real:
//!    demand-driven task requests, failure re-queueing, result merging
//!    on the server. [`ThreadedCluster`] runs it with OS threads as the
//!    clients, sharing the DataManager behind a lock; [`net`] runs it over
//!    TCP with one event loop owning it and a deadline lease per client.
//!    Both execute the actual photon transport through
//!    `lumen_core::engine::run_task` and merge through the DataManager's
//!    `lumen_core::engine::TaskFold` — the same task-order prefix fold the
//!    in-process backends push into, so it holds the aggregate, one tally
//!    per busy worker, and copies only of tallies that arrived ahead of a
//!    straggler (up to `tasks - 1` behind a slow task 0).
//! 2. **A discrete-event simulator** ([`des`]) — models machines by their
//!    Mflop/s rating (Table 2), non-dedicated background load
//!    ([`availability`]), and network transfer costs ([`network`]), so the
//!    paper's 60-processor speedup curve (Fig 2) and 150-client
//!    heterogeneous run (Table 2) can be regenerated on any laptop,
//!    including cluster sizes the host machine doesn't have.
//!
//! Schedulers are pluggable ([`scheduler`]): demand-driven self-scheduling
//! (what the original platform does), static pre-partitioning, and a
//! genetic-algorithm scheduler in the spirit of the paper's reference \[4\].
//! For multi-machine deployments, [`wire`] provides the binary message
//! format (the role Java serialization played in the original), including
//! a full encoding of experiment definitions
//! ([`wire::encode_scenario`]).
//!
//! The physics-running platform is reachable through one front door: the
//! [`backend`] module implements `lumen_core::engine::Backend` for
//! [`ThreadedCluster`] and [`Tcp`], so the same
//! `lumen_core::engine::Scenario` runs unchanged on a single core, the
//! shared-memory thread backend, the threaded master/worker engine, or a
//! TCP deployment, with bit-identical tallies. The simulator models time,
//! not photons, so it is not a backend: [`des::predict`] answers how long
//! that scenario would take on a modelled machine pool.

pub mod availability;
pub mod backend;
pub mod datamanager;
pub mod des;
pub mod machine;
pub mod net;
pub mod network;
pub mod protocol;
pub mod scheduler;
pub mod speedup;
pub mod wire;

pub use availability::AvailabilityModel;
pub use backend::{FailurePlan, Tcp, ThreadedCluster};
pub use datamanager::DataManager;
pub use des::{predict, ClusterSim, DesError, DesReport, JobSpec};
pub use machine::{homogeneous_pool, table2_pool, MachineClass, MachinePool};
pub use net::{run_client, serve_with_options, NetError, NetReport, ServeOptions};
pub use network::NetworkModel;
pub use scheduler::{GaScheduler, Scheduler, SelfScheduling, StaticChunking};
pub use speedup::{speedup_curve, SpeedupPoint};
