//! # lumen-analysis — turning tallies into the paper's figures
//!
//! The simulation engine produces voxel grids and summary tallies; this
//! crate produces the paper's *artefacts* from them:
//!
//! * [`projection`] — collapse a 3-D visit grid onto the x–z plane (the
//!   view of Figs 3 and 4);
//! * [`threshold`] — keep only the most-visited voxels ("after
//!   thresholding" in Fig 3's caption);
//! * [`banana`] — quantitative checks that the thresholded detected-path
//!   distribution really is the expected banana: end-point anchoring at
//!   source and detector, maximum depth near the midpoint, depth bounds;
//! * [`profile`] — spatial sensitivity profiles (visit weight vs depth,
//!   surface beam width);
//! * [`render`] — ASCII and PGM renderers for terminal/figure output;
//! * [`diffusion`] — the Farrell–Patterson diffusion-approximation
//!   baseline the Monte Carlo engine is validated against;
//! * [`convergence`] — batch-means error estimates and the photon count a
//!   target precision needs;
//! * [`tof`] — pathlength ↔ time-of-flight conversion.

pub mod banana;
pub mod convergence;
pub mod diffusion;
pub mod profile;
pub mod projection;
pub mod render;
pub mod threshold;
pub mod tof;

pub use banana::{banana_metrics, BananaMetrics};
pub use convergence::{batch_means, ErrorEstimate};
pub use diffusion::DiffusionModel;
pub use profile::depth_profile;
pub use projection::Projection2D;
pub use render::{render_ascii, write_pgm};
pub use threshold::threshold_fraction;
pub use tof::pathlength_to_time_ps;
