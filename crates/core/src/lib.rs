//! # lumen-core — the Monte Carlo photon-transport engine
//!
//! This crate is the reproduction of the paper's `Algorithm` class: it takes
//! simulation parameters, traces photon packets through a layered tissue
//! model, and accumulates the tallies the paper's experiments need. The
//! per-photon loop in [`sim`] follows the paper's Fig 1 pseudocode:
//!
//! ```text
//! begin
//!   initialise photon
//!   while (photon survived)
//!     move photon
//!     if (changed medium)
//!       if (photon angle > critical angle) internally reflect
//!       else refract
//!     if (photon passed through detector) save path and end
//!     update absorption and photon weight
//!     if (weight too small) survive roulette
//! end
//! ```
//!
//! Features reproduced from the paper's feature list:
//!
//! * sources: delta (laser), Gaussian, uniform footprints ([`source`]);
//! * gated differential pathlengths ([`detector::GateWindow`]);
//! * multiple user-defined layers (via `lumen-tissue`);
//! * refraction and internal reflection, classical or probabilistic
//!   ([`lumen_photon::BoundaryMode`]);
//! * user-defined granularity of results ([`tally::GridSpec`]);
//! * unlimited number of simulations (batching is the cluster's job —
//!   see `lumen-cluster`).
//!
//! The front door is the [`engine`] module: describe an experiment as an
//! [`engine::Scenario`] (tissue + source + detector + options + photon
//! budget + task split + seed) and execute it on any [`engine::Backend`] —
//! [`engine::Sequential`] or [`engine::Rayon`] here, the threaded
//! master/worker cluster, TCP deployment, and discrete-event simulator in
//! `lumen-cluster`. Every backend returns the same [`engine::RunReport`]
//! with bit-identical tallies for the same scenario, which is the paper's
//! reproducibility claim expressed as a type. [`engine::run_task`] is the
//! unit of work they all share, and [`Simulation::run`] is the one-task
//! convenience driver.

pub mod archive;
pub mod detector;
pub mod engine;
pub mod error;
pub(crate) mod kernel;
pub mod radial;
pub mod results;
pub mod sha256;
pub mod sim;
pub mod source;
pub mod tally;

pub use archive::{PathArchive, RecordOptions, Reweight, ReweightReport};
pub use detector::{Detector, GateWindow};
pub use engine::{
    Backend, EngineError, NoProgress, Progress, Rayon, RunReport, Scenario, Sequential,
    WorkerAccount,
};
pub use error::ConfigError;
pub use lumen_photon::{
    check, BoundaryMode, FieldError, OpticalProperties, Photon, RouletteConfig, Rule, Vec3,
};
pub use lumen_tissue::{
    Geometry, GeometryError, LayeredTissue, OpticalProperties as TissueOptics, TissueGeometry,
    VoxelMaterial, VoxelTissue,
};
pub use radial::{CylinderGrid, RadialProfile, RadialSpec};
pub use results::SimulationResult;
pub use sim::{Precision, Simulation, SimulationOptions};
pub use source::Source;
pub use tally::{GridSpec, Tally, VisitGrid};
