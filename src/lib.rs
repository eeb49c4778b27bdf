//! # lumen — layered-tissue Monte Carlo photon transport on a master/worker cluster
//!
//! This facade crate re-exports the full public API of the workspace.
//! The two pillars (after the reproduced paper) are:
//!
//! * a variance-reduced Monte Carlo **photon-transport engine** for
//!   layered tissue — [`mcrng`] (deterministic splittable RNG streams),
//!   [`photon`] (hop/drop/spin/boundary/roulette physics), [`tissue`]
//!   (layered geometry and head-model presets), [`core`] (the simulation
//!   loop, tallies, the one task runner and the in-process backends), and
//!   [`analysis`] (figures, profiles, statistics); and
//! * a **non-dedicated master/worker platform** — [`cluster`] — that runs
//!   the same physics through one DataManager, shared by worker threads
//!   or served over TCP, or under a discrete-event simulator that
//!   regenerates the paper's speedup curves for machine pools you don't
//!   own.
//!
//! ## Quickstart
//!
//! Describe the experiment once as a [`core::Scenario`], then run it on
//! any [`core::Backend`] — every backend returns bit-identical tallies
//! for the same scenario:
//!
//! ```rust
//! use lumen::core::{Backend, Detector, Rayon, Scenario, Sequential, Source};
//! use lumen::tissue::presets::semi_infinite_phantom;
//!
//! // mu_a = 0.1/mm, mu_s = 10/mm, isotropic scattering, matched index.
//! let scenario = Scenario::new(
//!     semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
//!     Source::Delta,
//!     Detector::new(2.0, 0.5),
//! )
//! .with_photons(5_000)
//! .with_tasks(8)
//! .with_seed(42);
//!
//! let report = Rayon::default().run(&scenario).unwrap();
//! assert_eq!(report.launched(), 5_000);
//! // Same scenario => bit-identical tallies, on any backend.
//! let sequential = Sequential.run(&scenario).unwrap();
//! assert_eq!(sequential.result.tally, report.result.tally);
//! // Something must come back out of a scattering half-space.
//! assert!(report.diffuse_reflectance() > 0.0);
//! ```
//!
//! The same scenario distributed over the threaded master/worker engine
//! (failure injection and all) is `lumen::cluster::ThreadedCluster`; the
//! TCP deployment is `lumen::cluster::Tcp`. The discrete-event cluster
//! simulator traces no photons, so it is no backend:
//! `lumen::cluster::des::predict` times the scenario on a machine pool.
//! The paper's tables and figures are the `lumen-bench` package's
//! `artefact` binary
//! (`cargo run --release -p lumen-bench --bin artefact -- fig3_banana`);
//! `examples/` walks through the library API, starting with
//! `cargo run --release --example quickstart`.
//!
//! To keep results *between* invocations, [`service`] wraps any backend
//! in the `lumend` daemon: scenario requests are answered from a
//! content-addressed result cache, and a request for more photons of
//! already-cached physics is topped up incrementally on fresh RNG
//! substreams, bit-identical to a cold full-budget run.

pub use lumen_analysis as analysis;
pub use lumen_cluster as cluster;
pub use lumen_core as core;
pub use lumen_photon as photon;
pub use lumen_service as service;
pub use lumen_tissue as tissue;
pub use mcrng;
