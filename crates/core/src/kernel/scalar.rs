//! The bit-pinned scalar implementation of the kernel stages, and the
//! transport rules both tiers share.
//!
//! This is the paper's Fig 1 loop, stage by stage: every floating-point
//! operation keeps its original order and operands, so the golden-tally
//! harness pins this module byte-for-byte. The rules — [`step_outcome`],
//! [`carried_mfps`], [`deposit`], [`cross_interface`] — are the ones the
//! batch kernel calls too, so a change to one moves both tiers' goldens.
//! Any change here is a physics change and must regenerate the goldens.

use crate::archive;
use crate::sim::{PathRecord, Scratch, Simulation};
use crate::tally::Tally;
use lumen_photon::{
    fresnel::{interact_with_boundary_axis, BoundaryOutcome},
    fresnel_reflectance, roulette, sample_step_mfps, spin, Axis, BoundaryMode, Fate, Photon, Vec3,
};
use lumen_tissue::{BoundaryHit, TissueGeometry};
use mcrng::McRng;

use super::DetectionState;

/// What one step of the walk resolves into — the interact-vs-boundary
/// decision both tiers share.
#[derive(Debug, PartialEq)]
pub(crate) enum StepOutcome {
    /// The step ends inside the region: drop/spin/roulette happen there.
    Interact,
    /// The step reaches `hit` first; the unspent step carries into the
    /// next medium ([`carried_mfps`]).
    Boundary(BoundaryHit),
    /// Degenerate geometry (horizontal flight in a transparent slab): the
    /// photon can neither interact nor reach a boundary. Retire it.
    Stuck,
}

/// Resolve a step of `geometric` mm from `pos` along `dir` in `region`
/// (ignored when the region is `transparent`: there the photon streams to
/// the boundary). Each kernel works out `geometric` its own way and
/// advances its own photon.
///
/// The fast path skips the boundary query whenever the step is at most
/// HALF the geometry's direction-independent boundary-distance lower
/// bound — the factor 2 strictly dominates the rounding of the exact
/// distance computation, so both paths decide the same way. Otherwise the
/// query is bounded by the step itself: the photon interacts iff the step
/// is at most the hit distance, which any hit at or beyond the limit
/// decides the same way.
///
/// This and the two rules below are forced inline: left to `#[inline]`,
/// the batch superstep ran about 5 % slower on the voxel head (512-photon
/// fast jobs, 2-core x86-64 host).
#[inline(always)]
pub(crate) fn step_outcome<G: TissueGeometry>(
    geom: &G,
    pos: Vec3,
    dir: Vec3,
    region: usize,
    transparent: bool,
    geometric: f64,
) -> StepOutcome {
    if !transparent && geometric <= 0.5 * geom.min_boundary_distance(pos, region) {
        return StepOutcome::Interact;
    }
    let limit = if transparent { f64::INFINITY } else { geometric };
    let hit = geom.boundary_hit_within(pos, dir, region, limit);
    if transparent && !hit.distance.is_finite() {
        StepOutcome::Stuck
    } else if !transparent && geometric <= hit.distance {
        StepOutcome::Interact
    } else {
        StepOutcome::Boundary(hit)
    }
}

/// MCML's step carry-over: the dimensionless step (mean free paths) left
/// after travelling to `hit` through a medium of coefficient `mu_t`, to be
/// spent in the next medium. A transparent region (μt = 0) keeps the whole
/// step, bit for bit.
#[inline(always)]
pub(crate) fn carried_mfps(step_mfps: f64, hit: &BoundaryHit, mu_t: f64) -> f64 {
    (step_mfps - hit.distance * mu_t).max(0.0)
}

/// Drop bookkeeping: tally `deposited` weight absorbed at `pos` in
/// `region` — per region, and into whichever absorption grids are attached.
#[inline(always)]
pub(crate) fn deposit(tally: &mut Tally, region: usize, pos: Vec3, deposited: f64) {
    tally.absorbed_by_layer[region] += deposited;
    if let Some(grid) = tally.absorption_grid.as_mut() {
        grid.deposit(pos, deposited);
    }
    if let Some(rz) = tally.absorption_rz.as_mut() {
        rz.deposit(pos.radial(), pos.z, deposited);
    }
}

/// An internal interface into region `next`: the whole packet reflects or
/// refracts with the Fresnel probability, in both boundary modes (see the
/// `sim` module docs). Returns the new direction; a refraction moves
/// `layer` to `next` and marks it reached.
#[inline]
pub(crate) fn cross_interface<R: McRng>(
    dir: Vec3,
    axis: Axis,
    (n_i, n_t): (f64, f64),
    next: usize,
    layer: &mut usize,
    reached: &mut [bool],
    rng: &mut R,
) -> Vec3 {
    match interact_with_boundary_axis(dir, axis, n_i, n_t, rng) {
        BoundaryOutcome::Reflected { dir } => dir,
        BoundaryOutcome::Transmitted { dir } => {
            *layer = next;
            reached[next] = true;
            dir
        }
    }
}

/// Launch stage: sample the source, tally the specular loss, and resolve
/// launch misses (photons that start outside a finite grid's lateral
/// extent reflect with full weight).
#[inline]
pub(crate) fn launch_stage<G: TissueGeometry, R: McRng>(
    sim: &Simulation,
    geom: &G,
    rng: &mut R,
    tally: &mut Tally,
) -> Photon {
    let (mut photon, r_sp) = sim.source.launch(geom, rng);
    tally.launched += 1;
    tally.specular_weight += r_sp;
    if let Some(a) = tally.archive.as_mut() {
        a.on_launch(r_sp);
    }
    if !photon.survived() {
        // Missed a finite grid's lateral extent: full weight reflects.
        tally.reflected_weight += photon.weight;
        if let Some(a) = tally.archive.as_mut() {
            if !a.detected_only {
                a.push_launch_miss(photon.weight, photon.pos.radial());
            }
        }
        photon.weight = 0.0;
    }
    photon
}

/// Interaction stage: drop (deposit the absorbed fraction), spin (HG
/// scatter), roulette. Returns `false` when the photon's walk ended here.
#[inline]
pub(crate) fn interact_stage<R: McRng>(
    sim: &Simulation,
    photon: &mut Photon,
    optics: &lumen_photon::DerivedOptics,
    region: usize,
    tally: &mut Tally,
    rng: &mut R,
) -> bool {
    // --- update absorption and photon weight ---
    let deposited = photon.absorb_fraction(optics.absorb_frac);
    deposit(tally, region, photon.pos, deposited);
    if photon.weight <= 0.0 {
        photon.terminate(Fate::Absorbed);
        return false;
    }
    // --- scatter (spin) ---
    spin(photon, optics.g, rng);
    // --- if (weight too small) survive roulette ---
    if !roulette(&mut photon.weight, sim.options.roulette, rng) {
        photon.terminate(Fate::RouletteKilled);
        return false;
    }
    true
}

/// The geometry and interface description of one external-surface
/// encounter, grouped so the surface stage stays under clippy's argument
/// limit without an `#[allow]`.
pub(crate) struct SurfaceContext {
    /// Refractive index on the incident (tissue) side.
    pub n_i: f64,
    /// Refractive index on the far (ambient) side.
    pub n_t: f64,
    /// Normal axis of the surface (always [`Axis::Z`] for layered stacks).
    pub axis: Axis,
    /// True for the top z = 0 plane, where the detector lives.
    pub is_top: bool,
}

/// Surface stage: an external-surface encounter — the top z=0 plane, the
/// bottom of a finite stack, or any outer face of a voxel grid.
///
/// Returns the escape event as an archive `(class, weight_out)` pair when
/// the *whole packet* left the tissue (probabilistic mode), so the caller —
/// which owns the per-photon scratch — can append a path archive entry.
/// Internal reflections and classical-mode partial escapes return `None`.
#[inline]
pub(crate) fn surface_stage<R: McRng>(
    sim: &Simulation,
    ctx: &SurfaceContext,
    photon: &mut Photon,
    rng: &mut R,
    tally: &mut Tally,
    detection: &mut DetectionState,
) -> Option<(u8, f64)> {
    let cos_i = photon.dir.component(ctx.axis).abs();
    let reflectance = fresnel_reflectance(ctx.n_i, ctx.n_t, cos_i);
    // Exit-angle cosine on the ambient side (Snell); escapes only
    // happen below the critical angle, so sin_t < 1 here.
    let sin_t = (ctx.n_i / ctx.n_t) * (1.0 - cos_i * cos_i).max(0.0).sqrt();
    let exit_cos = (1.0 - sin_t * sin_t).max(0.0).sqrt();
    let is_top = ctx.is_top;

    let escape = |photon: &mut Photon,
                  weight_out: f64,
                  tally: &mut Tally,
                  detection: &mut DetectionState|
     -> u8 {
        // Returns the escape's archive class; `CLASS_DETECTED` means
        // this event counts as a detection.
        if is_top {
            if let Some(profile) = tally.reflectance_r.as_mut() {
                profile.record(photon.pos.radial(), weight_out);
            }
            if sim.detector.in_aperture(photon.pos) {
                if !sim.detector.accepts_angle(exit_cos) {
                    tally.na_rejected += 1;
                    tally.reflected_weight += weight_out;
                    return archive::CLASS_NA_REJECTED;
                }
                if sim.detector.gate.accepts(photon.pathlength) {
                    tally.detected_weight += weight_out;
                    detection.weight_total += weight_out;
                    if detection.first.is_none() {
                        detection.first = Some((photon.pathlength, weight_out));
                    }
                    return archive::CLASS_DETECTED;
                } else {
                    tally.gate_rejected += 1;
                    tally.reflected_weight += weight_out;
                    return archive::CLASS_GATE_REJECTED;
                }
            }
            tally.reflected_weight += weight_out;
            archive::CLASS_MISSED_APERTURE
        } else {
            tally.transmitted_weight += weight_out;
            archive::CLASS_TRANSMITTED
        }
    };

    match sim.options.boundary_mode {
        BoundaryMode::Probabilistic => {
            if reflectance < 1.0 && rng.next_f64() >= reflectance {
                // Whole packet escapes.
                let w = photon.weight;
                let class = escape(photon, w, tally, detection);
                photon.weight = 0.0;
                photon.terminate(if class == archive::CLASS_DETECTED {
                    Fate::Detected
                } else if is_top {
                    Fate::ReflectedOut
                } else {
                    Fate::Transmitted
                });
                return Some((class, w));
            }
            // Internal reflection (total or Fresnel-sampled).
            photon.dir = photon.dir.reflect(ctx.axis);
        }
        BoundaryMode::Classical => {
            if reflectance < 1.0 {
                let escaped = photon.weight * (1.0 - reflectance);
                let _ = escape(photon, escaped, tally, detection);
                photon.weight -= escaped;
            }
            if photon.weight <= 0.0 {
                // Matched indices: everything escaped.
                photon.terminate(if detection.first.is_some() {
                    Fate::Detected
                } else if is_top {
                    Fate::ReflectedOut
                } else {
                    Fate::Transmitted
                });
            } else {
                photon.dir = photon.dir.reflect(ctx.axis);
            }
        }
    }
    None
}

/// Finish stage: terminal-fate bookkeeping — fate counts, classical-mode
/// reclassification, detected path/depth/scatter statistics, visit-grid
/// rasterization, and sample-path capture.
#[inline]
pub(crate) fn finish_stage(
    sim: &Simulation,
    photon: &Photon,
    scratch: &Scratch,
    tally: &mut Tally,
    detection: &DetectionState,
    paths_out: Option<&mut Vec<PathRecord>>,
) {
    let fate = photon.fate;
    tally.count_fate(fate);

    // Classical mode finishes with roulette death after detection
    // events; attribute path statistics to the first detection.
    let detected_event = match fate {
        Fate::Detected => Some((photon.pathlength, detection.weight_total)),
        _ => detection.first.map(|(pl, _)| (pl, detection.weight_total)),
    };

    if let Some((pathlength, _)) = detected_event {
        if let Some(hist) = tally.path_histogram.as_mut() {
            hist.record(pathlength);
        }
    }
    if let Some((pathlength, weight_out)) = detected_event {
        if fate != Fate::Detected {
            // Classical-mode photon that was detected earlier but died
            // later: reclassify the count.
            match fate {
                Fate::RouletteKilled => tally.roulette_killed -= 1,
                Fate::Absorbed => tally.fully_absorbed -= 1,
                Fate::ReflectedOut => tally.reflected -= 1,
                Fate::Transmitted => tally.transmitted -= 1,
                Fate::Expired => tally.expired -= 1,
                _ => {}
            }
            tally.detected += 1;
        }
        tally.detected_path_sum += pathlength;
        tally.detected_path_sq_sum += pathlength * pathlength;
        tally.detected_weight_path_sum += weight_out * pathlength;
        tally.detected_depth_sum += photon.max_depth;
        tally.detected_depth_max = tally.detected_depth_max.max(photon.max_depth);
        tally.detected_scatter_sum += photon.scatters as u64;
        for (count, &reached) in tally.detected_reached_layer.iter_mut().zip(&scratch.reached) {
            *count += u64::from(reached);
        }
        for (sum, &partial) in tally.detected_partial_path.iter_mut().zip(&scratch.partial_path) {
            *sum += partial;
        }

        // "save path": rasterise the trajectory into the visit grid
        // with density ∝ weight × residence length.
        if let Some(grid) = tally.path_grid.as_mut() {
            for pair in scratch.vertices.windows(2) {
                let seg_len = pair[0].distance(pair[1]);
                grid.deposit_segment(pair[0], pair[1], weight_out * seg_len);
            }
        }
        if let Some(out) = paths_out {
            if out.len() < sim.options.record_paths {
                out.push(PathRecord {
                    vertices: scratch.vertices.clone(),
                    pathlength,
                    exit_weight: weight_out,
                });
            }
        }
    }
}

/// The geometry-generic stepping loop: launch, then hop / interact /
/// surface stages until a terminal fate, then the finish stage.
/// `photon.layer` holds the current *region* index (layer or voxel
/// material); all geometric questions go through `geom`, so the layered
/// hot path compiles to exactly the code it was before the abstraction
/// (pinned by the golden-tally harness).
pub(crate) fn trace_photon<G: TissueGeometry, R: McRng>(
    sim: &Simulation,
    geom: &G,
    rng: &mut R,
    tally: &mut Tally,
    scratch: &mut Scratch,
    paths_out: Option<&mut Vec<PathRecord>>,
) {
    // --- initialise photon ---
    let mut photon = launch_stage(sim, geom, rng, tally);

    let recording = tally.path_grid.is_some() || sim.options.record_paths > 0;
    scratch.reset(geom.region_count());
    scratch.reached[photon.layer] = true;
    if recording {
        scratch.vertices.push(photon.pos);
    }

    let mut step_mfps = 0.0_f64; // unspent dimensionless step
    let mut interactions = 0u32;
    let mut detection = DetectionState::default();

    // The current region's precomputed constants, refreshed only when
    // the photon genuinely changes region (a transmit at a boundary) —
    // reflections and interactions reuse the cached entry across any
    // number of steps/DDA faces.
    let mut region = photon.layer;
    let mut optics = geom.derived(region);

    // --- while (photon survived) ---
    while photon.survived() {
        interactions += 1;
        if interactions > sim.options.max_interactions {
            photon.terminate(Fate::Expired);
            break;
        }

        if photon.layer != region {
            region = photon.layer;
            optics = geom.derived(region);
        }
        if step_mfps <= 0.0 {
            step_mfps = sample_step_mfps(rng);
        }

        // --- move photon ---
        let geometric = step_mfps / optics.mu_t;
        let path_before = photon.pathlength;
        match step_outcome(geom, photon.pos, photon.dir, region, optics.transparent, geometric) {
            StepOutcome::Stuck => {
                // Probability-zero geometry; retire the photon rather
                // than loop forever.
                photon.terminate(Fate::Expired);
                break;
            }
            StepOutcome::Interact => {
                photon.advance(geometric);
                scratch.partial_path[region] += photon.pathlength - path_before;
                step_mfps = 0.0;
                scratch.collisions[region] += 1;
                if recording {
                    scratch.vertices.push(photon.pos);
                }
                if !interact_stage(sim, &mut photon, optics, region, tally, rng) {
                    break;
                }
            }
            StepOutcome::Boundary(hit) => {
                photon.advance(hit.distance);
                scratch.partial_path[region] += photon.pathlength - path_before;
                step_mfps = carried_mfps(step_mfps, &hit, optics.mu_t);
                if recording {
                    scratch.vertices.push(photon.pos);
                }
                // --- changed medium: internally reflect or refract ---
                let n_i = optics.n;
                let n_t = geom.neighbour_n(region, &hit);
                if let Some(next) = hit.next_region {
                    photon.dir = cross_interface(
                        photon.dir,
                        hit.axis,
                        (n_i, n_t),
                        next,
                        &mut photon.layer,
                        &mut scratch.reached,
                        rng,
                    );
                } else {
                    let ctx =
                        SurfaceContext { n_i, n_t, axis: hit.axis, is_top: hit.is_top_surface };
                    let event = surface_stage(sim, &ctx, &mut photon, rng, tally, &mut detection);
                    if let Some((class, weight_out)) = event {
                        if let Some(a) = tally.archive.as_mut() {
                            if class == archive::CLASS_DETECTED || !a.detected_only {
                                a.push(
                                    class,
                                    weight_out,
                                    photon.pos.radial(),
                                    photon.pathlength,
                                    photon.max_depth,
                                    photon.scatters,
                                    &scratch.partial_path,
                                    &scratch.collisions,
                                    &scratch.reached,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // --- bookkeeping for the terminal fate ---
    finish_stage(sim, &photon, scratch, tally, &detection, paths_out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_photon::{DerivedOptics, OpticalProperties};
    use lumen_tissue::{GeometryError, LayeredTissue};

    const SKIN_MU_T: f64 = 0.02 + 10.0;

    /// Skin (0–2 mm), a clear gap (2–4 mm), semi-infinite brain.
    fn clear_gap() -> LayeredTissue {
        let tissue = OpticalProperties::new(0.02, 10.0, 0.9, 1.4);
        LayeredTissue::stack(
            vec![
                ("skin".into(), 2.0, tissue),
                ("clear".into(), 2.0, OpticalProperties::transparent(1.33)),
                ("brain".into(), f64::INFINITY, tissue),
            ],
            1.0,
        )
        .unwrap()
    }

    fn at(z: f64) -> Vec3 {
        Vec3::new(0.0, 0.0, z)
    }

    #[test]
    fn a_step_short_of_the_boundary_interacts() {
        // 0.5 mm from the top, 1.5 mm from the bottom: a 1 mm step is past
        // the half bound (0.25 mm), so the bounded query decides.
        let g = clear_gap();
        let out = step_outcome(&g, at(0.5), Vec3::PLUS_Z, 0, false, 1.0);
        assert_eq!(out, StepOutcome::Interact);
    }

    #[test]
    fn a_step_past_the_boundary_carries_its_remainder() {
        let g = clear_gap();
        let step_mfps = 20.0;
        let out = step_outcome(&g, at(0.5), Vec3::PLUS_Z, 0, false, step_mfps / SKIN_MU_T);
        let StepOutcome::Boundary(hit) = out else { panic!("expected a boundary, got {out:?}") };
        assert_eq!((hit.distance, hit.next_region), (1.5, Some(1)));
        // s − d·μt: 1.5 mm of skin spent 15.03 of the 20 mean free paths.
        let carried = carried_mfps(step_mfps, &hit, SKIN_MU_T);
        assert_eq!(carried, step_mfps - 1.5 * SKIN_MU_T);
        assert!((carried - 4.97).abs() < 1e-12);
        // A hit beyond the whole step never carries a negative remainder.
        assert_eq!(carried_mfps(1.0, &hit, SKIN_MU_T), 0.0);
    }

    #[test]
    fn a_transparent_region_keeps_the_whole_step() {
        let g = clear_gap();
        let step_mfps = 0.737_1;
        let dir = Vec3::new(0.6, 0.0, 0.8);
        // The caller's step in mm is infinite (s / 0) and must not matter.
        let out = step_outcome(&g, at(3.0), dir, 1, true, step_mfps / 0.0);
        let StepOutcome::Boundary(hit) = out else { panic!("expected a boundary, got {out:?}") };
        assert!((hit.distance - 1.25).abs() < 1e-12);
        assert_eq!(hit.next_region, Some(2));
        assert_eq!(carried_mfps(step_mfps, &hit, 0.0).to_bits(), step_mfps.to_bits());
    }

    #[test]
    fn horizontal_flight_in_a_transparent_slab_is_stuck() {
        let g = clear_gap();
        let out = step_outcome(&g, at(3.0), Vec3::new(1.0, 0.0, 0.0), 1, true, f64::INFINITY);
        assert_eq!(out, StepOutcome::Stuck);
    }

    /// A layered stack whose boundary query must never run.
    struct NoQuery(LayeredTissue);

    impl TissueGeometry for NoQuery {
        fn region_count(&self) -> usize {
            self.0.region_count()
        }
        fn region_name(&self, region: usize) -> &str {
            self.0.region_name(region)
        }
        fn optics(&self, region: usize) -> &OpticalProperties {
            TissueGeometry::optics(&self.0, region)
        }
        fn derived(&self, region: usize) -> &DerivedOptics {
            TissueGeometry::derived(&self.0, region)
        }
        fn ambient_n(&self) -> f64 {
            self.0.ambient_n
        }
        fn entry_region(&self, pos: Vec3) -> Option<usize> {
            self.0.entry_region(pos)
        }
        fn boundary_hit(&self, _: Vec3, _: Vec3, _: usize) -> BoundaryHit {
            panic!("a step within half the interior bound must not query the boundary")
        }
        fn min_boundary_distance(&self, pos: Vec3, region: usize) -> f64 {
            self.0.min_boundary_distance(pos, region)
        }
        fn validate(&self) -> Result<(), GeometryError> {
            Ok(())
        }
    }

    #[test]
    fn a_step_within_half_the_interior_bound_interacts_without_a_query() {
        let g = NoQuery(clear_gap());
        // 1 mm from both skin faces: steps up to 0.5 mm take the fast path.
        assert_eq!(g.min_boundary_distance(at(1.0), 0), 1.0);
        let out = step_outcome(&g, at(1.0), Vec3::PLUS_Z, 0, false, 0.5);
        assert_eq!(out, StepOutcome::Interact);
    }
}
