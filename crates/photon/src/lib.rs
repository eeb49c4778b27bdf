//! # lumen-photon — single-photon transport physics
//!
//! This crate implements the per-photon physics of the variance-reduced
//! Monte Carlo method of Prahl et al. (the paper's reference \[5\]), the same
//! formulation used by MCML and by the reproduced paper's `Algorithm` class:
//!
//! * **hop** — sample an exponential free path ([`step`]);
//! * **drop** — deposit a fraction `μa/μt` of the photon weight in the
//!   medium ([`Photon::absorb_fraction`]);
//! * **spin** — scatter into a new direction drawn from the
//!   Henyey–Greenstein phase function ([`spin()`](fn@spin));
//! * **boundary** — Fresnel reflection/refraction at refractive-index
//!   mismatches, in both the paper's "classical physics" and
//!   "probabilistic" modes ([`fresnel`]);
//! * **roulette** — unbiased termination of low-weight photons
//!   ([`roulette()`](fn@roulette)).
//!
//! [`rule`] holds the single-field validity rules every validator shares.
//!
//! Everything here is geometry-free except for the planar-boundary helpers;
//! the layered-medium bookkeeping lives in `lumen-tissue`, and the
//! simulation loop — including the step-versus-boundary decision and the
//! step carry-over — in `lumen-core`.

pub mod approx;
pub mod fresnel;
pub mod optics;
pub mod photon;
pub mod roulette;
pub mod rule;
pub mod spin;
pub mod step;
pub mod vec3;

pub use fresnel::{
    critical_cos, fresnel_reflectance, interact_with_boundary_axis, BoundaryMode, BoundaryOutcome,
};
pub use optics::{DerivedOptics, OpticalProperties};
pub use photon::{Fate, Photon};
pub use roulette::{roulette, RouletteConfig};
pub use rule::{check, FieldError, Rule};
pub use spin::spin;
pub use step::sample_step_mfps;
pub use vec3::{Axis, Vec3};

/// Weight below which a photon enters Russian roulette (MCML default).
pub const WEIGHT_THRESHOLD: f64 = 1e-4;

/// Default survival chance in roulette (MCML default: 1 in 10).
pub const ROULETTE_SURVIVAL: f64 = 0.1;
