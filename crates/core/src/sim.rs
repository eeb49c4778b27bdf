//! The per-photon simulation loop (the paper's Fig 1) and the sequential
//! driver.
//!
//! ## Boundary-mode semantics
//!
//! * **Probabilistic** (default, MCML): at every interface the whole packet
//!   either reflects or transmits, with probability given by the Fresnel
//!   reflectance. A packet that transmits through the top surface escapes;
//!   if it exits inside the detector aperture (and passes the pathlength
//!   gate) it is *detected* — "save path and end".
//! * **Classical** ("classical physics" in the paper's feature list): at
//!   the *external* surfaces the packet splits deterministically — the
//!   transmitted fraction `(1−R)·w` escapes (and is tallied/detected), the
//!   reflected fraction `R·w` continues inside the tissue. Internal
//!   layer-to-layer interfaces remain probabilistic in both modes: the
//!   reflected and refracted branches both continue propagating there, and
//!   following one branch chosen with probability `R` is the unbiased way
//!   to do that without packet splitting.
//!
//! In classical mode a single photon can therefore contribute several
//! escape events; the *first* detected escape supplies the path statistics
//! so counts remain one-per-photon.

use crate::archive::{PathArchive, RecordOptions};
use crate::detector::Detector;
use crate::error::ConfigError;
use crate::kernel;
use crate::radial::RadialSpec;
use crate::results::SimulationResult;
use crate::source::Source;
use crate::tally::{GridSpec, Tally};
use lumen_photon::{BoundaryMode, RouletteConfig, Vec3};
use lumen_tissue::{Geometry, TissueGeometry};
use mcrng::{McRng, StreamFactory};

/// A recorded trajectory of one detected photon.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRecord {
    /// Trajectory vertices from launch to exit (mm).
    pub vertices: Vec<Vec3>,
    /// Total pathlength at detection (mm).
    pub pathlength: f64,
    /// Packet weight carried out through the detector.
    pub exit_weight: f64,
}

/// Numerical tier of the transport kernel (see the `kernel` module).
///
/// The tier changes *how* photons are traced, never *what* is simulated, but
/// the two tiers make different reproducibility promises:
///
/// * [`Exact`](Precision::Exact) — the default. The bit-pinned scalar loop:
///   libm transcendentals, one photon at a time, per-photon RNG consumption
///   frozen by the golden-snapshot suite. Identical scenarios produce
///   byte-identical tallies across every backend, forever.
/// * [`Fast`](Precision::Fast) — the structure-of-arrays batch tracer with
///   the polynomial approximations in [`lumen_photon::approx`]. Still fully
///   deterministic (same scenario + seed + task split ⇒ same bytes, on every
///   backend), but *not* bit-compatible with `Exact`: lanes interleave their
///   draws from the task's RNG substream in batch order, so individual
///   trajectories differ while every tally distribution agrees statistically
///   (validated by tally-level z-tests in `fast_tier_validation`).
///
/// Because the tiers are not bit-compatible, `precision` is part of the
/// canonical scenario identity: it is wire-encoded (since format v6) and folded
/// into the service result-cache key, so a `Fast` result can never satisfy
/// an `Exact` query or vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Bit-pinned scalar reference kernel (the default).
    #[default]
    Exact,
    /// Batched SoA kernel with bounded-error polynomial approximations.
    Fast,
}

/// Engine knobs beyond geometry/source/detector.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOptions {
    /// How interface physics is resolved (see module docs).
    pub boundary_mode: BoundaryMode,
    /// Russian-roulette parameters.
    pub roulette: RouletteConfig,
    /// Hard cap on interactions per photon (safety valve; photons hitting
    /// it are tallied as `expired` and should be ~0 in healthy runs).
    pub max_interactions: u32,
    /// Attach a visit grid accumulating detected-photon trajectories at
    /// this granularity (the paper's Fig 3/4 "granularity of 50³").
    pub path_grid: Option<GridSpec>,
    /// Attach a grid accumulating absorbed weight from all photons.
    pub absorption_grid: Option<GridSpec>,
    /// Attach a detected-pathlength histogram `(max_mm, bins)`.
    pub path_histogram: Option<(f64, usize)>,
    /// Attach an MCML-style radial diffuse-reflectance profile R(r).
    pub reflectance_profile: Option<RadialSpec>,
    /// Attach an MCML-style cylindrical absorption grid A(r, z):
    /// `(radial binning, depth bins, max depth in mm)`.
    pub absorption_rz: Option<(RadialSpec, usize, f64)>,
    /// Keep up to this many full detected trajectories for plotting.
    pub record_paths: usize,
    /// Record a perturbation-MC path archive of every escape event (see
    /// [`crate::archive`]). Probabilistic boundary mode only: classical
    /// mode splits one photon across several escape events, which the
    /// one-entry-per-packet archive cannot represent.
    pub archive: Option<RecordOptions>,
    /// Numerical tier of the transport kernel. [`Precision::Fast`] trades
    /// bit-compatibility with the exact tier for ≳2× throughput; it
    /// supports the statistical tallies (absorption grids, histograms,
    /// reflectance profiles, partial-path stats) but rejects the
    /// trajectory-level features (`path_grid`, `record_paths`, `archive`)
    /// and classical boundary splitting at [`Simulation::validate`] time.
    pub precision: Precision,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        Self {
            boundary_mode: BoundaryMode::Probabilistic,
            roulette: RouletteConfig::default(),
            max_interactions: 1_000_000,
            path_grid: None,
            absorption_grid: None,
            path_histogram: None,
            reflectance_profile: None,
            absorption_rz: None,
            record_paths: 0,
            archive: None,
            precision: Precision::Exact,
        }
    }
}

/// A fully specified Monte Carlo experiment.
///
/// ```
/// use lumen_core::{Detector, Simulation, Source};
/// use lumen_tissue::presets::homogeneous_white_matter;
///
/// let sim = Simulation::new(
///     homogeneous_white_matter(),
///     Source::Delta,
///     Detector::new(3.0, 1.0), // 3 mm separation, 1 mm radius
/// );
/// let result = sim.run(5_000, 42); // photons, seed
/// assert_eq!(result.launched(), 5_000);
/// // Same seed, same everything:
/// assert_eq!(sim.run(5_000, 42).tally, result.tally);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Simulation {
    /// The tissue model — layered or voxelized (see
    /// [`lumen_tissue::Geometry`]); the stepping loop is generic over
    /// [`TissueGeometry`] and monomorphized per variant.
    pub tissue: Geometry,
    pub source: Source,
    pub detector: Detector,
    pub options: SimulationOptions,
}

/// Per-photon scratch state reused across photons to avoid allocations on
/// the hot path.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) vertices: Vec<Vec3>,
    /// Pathlength accrued in each region by the current photon (mm).
    pub(crate) partial_path: Vec<f64>,
    /// Regions the current photon has actually entered. Layered walks
    /// visit a contiguous `0..=max` prefix, but a voxel palette has no
    /// depth order, so "reached" must be tracked per region.
    pub(crate) reached: Vec<bool>,
    /// Interactions the current photon has had in each region — the
    /// exponent of the perturbation-MC scattering ratio. Maintained
    /// unconditionally (one add per interaction, tally-neutral).
    pub(crate) collisions: Vec<u32>,
}

impl Scratch {
    /// Reset for the next photon. After the first photon of a stream the
    /// per-region vectors already have the right length, so this is a pair
    /// of `fill`s rather than a clear-and-regrow.
    #[inline]
    pub(crate) fn reset(&mut self, regions: usize) {
        self.vertices.clear();
        if self.partial_path.len() == regions {
            self.partial_path.fill(0.0);
            self.reached.fill(false);
            self.collisions.fill(0);
        } else {
            self.partial_path.clear();
            self.partial_path.resize(regions, 0.0);
            self.reached.clear();
            self.reached.resize(regions, false);
            self.collisions.clear();
            self.collisions.resize(regions, 0);
        }
    }
}

/// The one configuration check, by reference: [`Simulation::validate`] and
/// `engine::Scenario::validate` both call it on their own fields, so
/// neither clones a geometry (a voxel grid can be 2^26 cells) to read it.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0)` also rejects NaN
pub(crate) fn validate_parts(
    tissue: &Geometry,
    source: &Source,
    detector: &Detector,
    options: &SimulationOptions,
) -> Result<(), ConfigError> {
    let component =
        |what: &'static str| move |reason: String| ConfigError::Component { what, reason };
    source.validate().map_err(component("source"))?;
    detector.validate().map_err(component("detector"))?;
    options.roulette.validate().map_err(component("roulette"))?;
    if let Some(g) = &options.path_grid {
        g.validate()?;
    }
    if let Some(g) = &options.absorption_grid {
        g.validate()?;
    }
    if let Some((max_mm, bins)) = &options.path_histogram {
        if !(*max_mm > 0.0) || *bins == 0 {
            return Err(ConfigError::BadHistogram { max_mm: *max_mm, bins: *bins });
        }
    }
    if let Some(r) = &options.reflectance_profile {
        r.validate("reflectance profile")?;
    }
    if let Some((r, nz, z_max)) = &options.absorption_rz {
        r.validate("absorption_rz")?;
        if *nz == 0 || !(*z_max > 0.0) {
            return Err(ConfigError::BadDepthBinning { nz: *nz, z_max: *z_max });
        }
    }
    if options.max_interactions == 0 {
        return Err(ConfigError::ZeroInteractionCap);
    }
    if options.archive.is_some() && options.boundary_mode == BoundaryMode::Classical {
        return Err(ConfigError::Component {
            what: "archive",
            reason: "path archives require probabilistic boundary mode (classical mode \
                     splits one packet across several escape events)"
                .into(),
        });
    }
    if options.precision == Precision::Fast {
        let fast_rejects = |what: &'static str, why: &str| ConfigError::Component {
            what,
            reason: format!("the fast precision tier does not support {why}; use exact"),
        };
        if options.boundary_mode == BoundaryMode::Classical {
            return Err(fast_rejects(
                "precision",
                "classical boundary splitting (whole-packet probabilistic mode only)",
            ));
        }
        if options.path_grid.is_some() {
            return Err(fast_rejects("precision", "trajectory visit grids (path_grid)"));
        }
        if options.record_paths > 0 {
            return Err(fast_rejects("precision", "trajectory recording (record_paths)"));
        }
        if options.archive.is_some() {
            return Err(fast_rejects("precision", "perturbation-MC path archives"));
        }
    }
    tissue.validate()?;
    Ok(())
}

impl Simulation {
    /// Build a simulation with default options. Accepts a bare
    /// [`lumen_tissue::LayeredTissue`] or [`lumen_tissue::VoxelTissue`] as
    /// well as a [`Geometry`] value.
    pub fn new(tissue: impl Into<Geometry>, source: Source, detector: Detector) -> Self {
        Self { tissue: tissue.into(), source, detector, options: SimulationOptions::default() }
    }

    /// Replace the options (builder style).
    pub fn with_options(mut self, options: SimulationOptions) -> Self {
        self.options = options;
        self
    }

    /// Validate the full configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_parts(&self.tissue, &self.source, &self.detector, &self.options)
    }

    /// A tally shaped for this simulation: one slot per geometry region
    /// (layer or voxel material).
    pub fn new_tally(&self) -> Tally {
        let mut tally = Tally::new(
            self.tissue.region_count(),
            self.options.path_grid,
            self.options.absorption_grid,
        );
        if let Some((max_mm, bins)) = self.options.path_histogram {
            tally = tally.with_path_histogram(max_mm, bins);
        }
        if let Some(spec) = self.options.reflectance_profile {
            tally = tally.with_reflectance_profile(spec);
        }
        if let Some((radial, nz, z_max)) = self.options.absorption_rz {
            tally = tally.with_absorption_rz(radial, nz, z_max);
        }
        if let Some(record) = self.options.archive {
            let regions = self.tissue.region_count();
            let base = (0..regions).map(|r| *self.tissue.optics(r)).collect();
            tally = tally.with_archive(PathArchive::new(regions, base, record));
        }
        tally
    }

    /// Run `n` photons from the given RNG into `tally` — the kernel's one
    /// entry point. Dispatches to the geometry-monomorphized loop once for
    /// the whole stream.
    ///
    /// This is the precision-tier seam: everything above it (task
    /// decomposition, RNG substreams, tally merging, every backend) is
    /// tier-agnostic, so `Exact` and `Fast` runs differ only in which
    /// kernel walks the stream.
    pub fn run_stream<R: McRng>(
        &self,
        n: u64,
        rng: &mut R,
        tally: &mut Tally,
        paths_out: Option<&mut Vec<PathRecord>>,
    ) {
        match (&self.tissue, self.options.precision) {
            (Geometry::Layered(g), Precision::Exact) => {
                self.run_stream_in(g, n, rng, tally, paths_out)
            }
            (Geometry::Voxel(g), Precision::Exact) => {
                self.run_stream_in(g, n, rng, tally, paths_out)
            }
            (Geometry::Layered(g), Precision::Fast) => {
                kernel::batch::run_stream(self, g, n, rng, tally)
            }
            (Geometry::Voxel(g), Precision::Fast) => {
                kernel::batch::run_stream(self, g, n, rng, tally)
            }
        }
    }

    fn run_stream_in<G: TissueGeometry, R: McRng>(
        &self,
        geom: &G,
        n: u64,
        rng: &mut R,
        tally: &mut Tally,
        paths_out: Option<&mut Vec<PathRecord>>,
    ) {
        let mut scratch = Scratch::default();
        // Resolve the path-recording branch once for the whole stream so
        // the per-photon loop carries no `Option` re-borrowing.
        match paths_out {
            Some(out) => {
                for _ in 0..n {
                    kernel::scalar::trace_photon(
                        self,
                        geom,
                        rng,
                        tally,
                        &mut scratch,
                        Some(&mut *out),
                    );
                }
            }
            None => {
                for _ in 0..n {
                    kernel::scalar::trace_photon(self, geom, rng, tally, &mut scratch, None);
                }
            }
        }
    }

    /// Sequential driver: simulate `n` photons with the experiment `seed`
    /// (stream 0 of the seed's stream family, so a 1-task parallel run
    /// reproduces it exactly).
    pub fn run(&self, n: u64, seed: u64) -> SimulationResult {
        self.validate().expect("invalid simulation configuration");
        let mut tally = self.new_tally();
        let mut rng = StreamFactory::new(seed).stream(0);
        let mut paths = Vec::new();
        self.run_stream(n, &mut rng, &mut tally, Some(&mut paths));
        SimulationResult::new(tally, paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::GateWindow;
    use lumen_photon::OpticalProperties;
    use lumen_tissue::presets::{homogeneous_white_matter, semi_infinite_phantom};

    fn quick_sim() -> Simulation {
        // Matched-index phantom so photons can't get stuck: short walks.
        let tissue = semi_infinite_phantom(0.1, 10.0, 0.0, 1.0);
        Simulation::new(tissue, Source::Delta, Detector::new(1.0, 0.5))
    }

    #[test]
    fn photons_all_reach_a_terminal_fate() {
        let sim = quick_sim();
        let res = sim.run(2000, 42);
        let t = &res.tally;
        assert_eq!(t.launched, 2000);
        assert_eq!(
            t.detected
                + t.reflected
                + t.transmitted
                + t.roulette_killed
                + t.fully_absorbed
                + t.expired,
            2000
        );
        assert_eq!(t.expired, 0, "no photon should hit the interaction cap");
    }

    #[test]
    fn energy_is_conserved_in_expectation() {
        let sim = quick_sim();
        let res = sim.run(20_000, 7);
        let frac = res.tally.accounted_weight_fraction();
        // Roulette makes per-run accounting stochastic but unbiased;
        // 20k photons bring it within ~1%.
        assert!((frac - 1.0).abs() < 0.01, "accounted fraction {frac}");
    }

    #[test]
    fn energy_conserved_with_index_mismatch_and_layers() {
        let tissue = lumen_tissue::presets::adult_head(Default::default());
        let sim = Simulation::new(tissue, Source::Delta, Detector::new(20.0, 2.0));
        let res = sim.run(5_000, 11);
        let frac = res.tally.accounted_weight_fraction();
        assert!((frac - 1.0).abs() < 0.02, "accounted fraction {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = quick_sim();
        let a = sim.run(1000, 99);
        let b = sim.run(1000, 99);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn different_seeds_differ() {
        let sim = quick_sim();
        let a = sim.run(1000, 1);
        let b = sim.run(1000, 2);
        assert_ne!(a.tally, b.tally);
    }

    #[test]
    fn some_photons_are_detected_at_close_separation() {
        let tissue = homogeneous_white_matter();
        let sim = Simulation::new(tissue, Source::Delta, Detector::new(2.0, 1.0));
        let res = sim.run(20_000, 3);
        assert!(res.tally.detected > 0, "no detections at 2 mm separation");
        assert!(res.tally.detected_weight > 0.0);
    }

    #[test]
    fn detected_pathlength_exceeds_separation() {
        // The motivating physics: the differential pathlength is much
        // longer than the geometric source-detector distance.
        let tissue = homogeneous_white_matter();
        let sim = Simulation::new(tissue, Source::Delta, Detector::new(3.0, 1.0));
        let res = sim.run(50_000, 5);
        assert!(res.tally.detected >= 10);
        let mean_path = res.tally.detected_path_sum / res.tally.detected as f64;
        assert!(
            mean_path > 3.0,
            "mean detected pathlength {mean_path} should exceed the 3 mm separation"
        );
    }

    #[test]
    fn gating_reduces_detections() {
        let tissue = homogeneous_white_matter();
        let open = Simulation::new(tissue.clone(), Source::Delta, Detector::new(2.0, 1.0));
        let gated = Simulation::new(
            tissue,
            Source::Delta,
            Detector::new(2.0, 1.0).with_gate(GateWindow::new(2.0, 6.0).unwrap()),
        );
        let ro = open.run(30_000, 13);
        let rg = gated.run(30_000, 13);
        assert!(rg.tally.detected < ro.tally.detected);
        assert!(rg.tally.gate_rejected > 0);
        // Gated mean pathlength must respect the window.
        if rg.tally.detected > 0 {
            let mean = rg.tally.detected_path_sum / rg.tally.detected as f64;
            assert!((2.0..=6.0).contains(&mean), "gated mean pathlength {mean}");
        }
    }

    #[test]
    fn path_grid_populates_on_detection() {
        let tissue = homogeneous_white_matter();
        let spec = GridSpec::cubic(20, Vec3::new(-2.0, -2.0, 0.0), Vec3::new(4.0, 2.0, 4.0));
        let opts = SimulationOptions { path_grid: Some(spec), ..Default::default() };
        let sim =
            Simulation::new(tissue, Source::Delta, Detector::new(2.0, 1.0)).with_options(opts);
        let res = sim.run(20_000, 21);
        let grid = res.tally.path_grid.as_ref().unwrap();
        assert!(res.tally.detected > 0);
        assert!(grid.total() > 0.0);
    }

    #[test]
    fn recorded_paths_start_at_surface_and_respect_cap() {
        let tissue = homogeneous_white_matter();
        let opts = SimulationOptions { record_paths: 5, ..Default::default() };
        let sim =
            Simulation::new(tissue, Source::Delta, Detector::new(2.0, 1.0)).with_options(opts);
        let res = sim.run(50_000, 31);
        assert!(!res.sample_paths.is_empty());
        assert!(res.sample_paths.len() <= 5);
        for p in &res.sample_paths {
            assert_eq!(p.vertices.first().unwrap().z, 0.0);
            assert!(p.pathlength > 0.0);
            assert!(p.exit_weight > 0.0);
        }
    }

    #[test]
    fn classical_and_probabilistic_agree_in_distribution() {
        let tissue = semi_infinite_phantom(0.05, 5.0, 0.8, 1.4);
        let mk = |mode| {
            let opts = SimulationOptions { boundary_mode: mode, ..Default::default() };
            Simulation::new(tissue.clone(), Source::Delta, Detector::new(2.0, 1.0))
                .with_options(opts)
        };
        let n = 60_000;
        let p = mk(BoundaryMode::Probabilistic).run(n, 8);
        let c = mk(BoundaryMode::Classical).run(n, 8);
        // Detected weight per photon should agree within MC error.
        let dw_p = p.tally.detected_weight / n as f64;
        let dw_c = c.tally.detected_weight / n as f64;
        let rel = (dw_p - dw_c).abs() / dw_p.max(1e-12);
        assert!(rel < 0.15, "classical {dw_c} vs probabilistic {dw_p}");
        // Total reflectance (diffuse + detected) likewise.
        let r_p = (p.tally.reflected_weight + p.tally.detected_weight) / n as f64;
        let r_c = (c.tally.reflected_weight + c.tally.detected_weight) / n as f64;
        assert!((r_p - r_c).abs() / r_p < 0.1, "classical {r_c} vs probabilistic {r_p}");
    }

    #[test]
    fn absorbing_only_medium_absorbs_everything_not_reflected() {
        // mu_s = 0: photons travel straight down and are absorbed; nothing
        // returns (matched indices, no scattering back).
        let tissue = lumen_tissue::LayeredTissue::homogeneous(
            "ink",
            OpticalProperties::new(1.0, 0.0, 0.0, 1.0),
            1.0,
        );
        let sim = Simulation::new(tissue, Source::Delta, Detector::new(1.0, 0.5));
        let res = sim.run(2_000, 17);
        assert_eq!(res.tally.detected, 0);
        assert_eq!(res.tally.reflected, 0);
        let absorbed = res.tally.total_absorbed() / 2000.0;
        assert!(absorbed > 0.99, "absorbed fraction {absorbed}");
    }

    #[test]
    fn validate_catches_bad_configs() {
        let mut sim = quick_sim();
        assert!(sim.validate().is_ok());
        sim.detector.radius = -1.0;
        assert!(sim.validate().is_err());
        let mut sim2 = quick_sim();
        sim2.options.max_interactions = 0;
        assert!(sim2.validate().is_err());
        // Transparent semi-infinite bottom layer is rejected.
        let tissue = lumen_tissue::LayeredTissue::homogeneous(
            "void",
            OpticalProperties::transparent(1.0),
            1.0,
        );
        let sim3 = Simulation::new(tissue, Source::Delta, Detector::new(1.0, 0.5));
        assert!(sim3.validate().is_err());
    }

    #[test]
    fn validate_reports_typed_errors() {
        use lumen_tissue::GeometryError;

        let mut sim = quick_sim();
        sim.detector.radius = -1.0;
        assert!(matches!(sim.validate(), Err(ConfigError::Component { what: "detector", .. })));

        let mut sim = quick_sim();
        sim.source = Source::Gaussian { radius: -2.0 };
        assert!(matches!(sim.validate(), Err(ConfigError::Component { what: "source", .. })));

        let mut sim = quick_sim();
        sim.options.max_interactions = 0;
        assert_eq!(sim.validate(), Err(ConfigError::ZeroInteractionCap));

        let mut sim = quick_sim();
        sim.options.path_histogram = Some((-3.0, 10));
        assert_eq!(sim.validate(), Err(ConfigError::BadHistogram { max_mm: -3.0, bins: 10 }));

        let mut sim = quick_sim();
        sim.options.absorption_rz = Some((RadialSpec { nr: 4, r_max: 5.0 }, 0, 10.0));
        assert_eq!(sim.validate(), Err(ConfigError::BadDepthBinning { nz: 0, z_max: 10.0 }));

        // Each radial binning names itself, so a config with both can
        // tell which one to fix.
        let bad = RadialSpec { nr: 0, r_max: 5.0 };
        let mut sim = quick_sim();
        sim.options.reflectance_profile = Some(RadialSpec { nr: 4, r_max: 5.0 });
        sim.options.absorption_rz = Some((bad, 4, 10.0));
        let err = sim.validate().unwrap_err();
        assert_eq!(err, ConfigError::BadRadialBinning { what: "absorption_rz", nr: 0, r_max: 5.0 });
        assert!(err.to_string().starts_with("absorption_rz "));
        sim.options.reflectance_profile = Some(bad);
        assert!(matches!(
            sim.validate(),
            Err(ConfigError::BadRadialBinning { what: "reflectance profile", .. })
        ));

        let mut sim = quick_sim();
        sim.options.path_grid = Some(GridSpec::cubic(0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0)));
        assert_eq!(sim.validate(), Err(ConfigError::EmptyGrid));

        // Geometry failures surface as `Geometry`, and the whole family
        // converts into the engine's InvalidConfig with the message intact.
        let tissue = lumen_tissue::LayeredTissue::homogeneous(
            "void",
            OpticalProperties::transparent(1.0),
            1.0,
        );
        let sim = Simulation::new(tissue, Source::Delta, Detector::new(1.0, 0.5));
        let err = sim.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Geometry(GeometryError::BadOptics { .. })));
        let engine_err: crate::engine::EngineError = err.into();
        assert!(engine_err.to_string().contains("semi-infinite"));
    }

    #[test]
    fn index_mismatch_increases_internal_reflection() {
        // With n=1.4 tissue under air, some upward photons are internally
        // reflected, increasing absorbed fraction vs matched boundaries.
        let matched = semi_infinite_phantom(0.1, 10.0, 0.0, 1.0);
        let mismatched = semi_infinite_phantom(0.1, 10.0, 0.0, 1.4);
        let det = Detector::new(1.0, 0.5);
        let a = Simulation::new(matched, Source::Delta, det).run(20_000, 4);
        let b = Simulation::new(mismatched, Source::Delta, det).run(20_000, 4);
        let abs_a = a.tally.total_absorbed() / 20_000.0;
        let abs_b = b.tally.total_absorbed() / 20_000.0;
        assert!(abs_b > abs_a, "index mismatch should trap more light: {abs_b} <= {abs_a}");
    }
}
