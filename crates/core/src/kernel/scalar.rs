//! The bit-pinned scalar implementation of the kernel stages.
//!
//! This is the paper's Fig 1 loop, stage by stage, moved verbatim out of the
//! former monolithic `trace_photon_in`: every floating-point operation keeps
//! its original order and operands, so the golden-tally harness pins this
//! module byte-for-byte against the pre-refactor snapshots. Any change here
//! is a physics change and must regenerate the goldens.

use crate::archive;
use crate::sim::{PathRecord, Scratch, Simulation};
use crate::tally::Tally;
use lumen_photon::{
    fresnel::{interact_with_boundary_axis, BoundaryOutcome},
    fresnel_reflectance, hop, roulette, sample_step_mfps, spin,
    step::Hop,
    Axis, BoundaryMode, Fate, Photon,
};
use lumen_tissue::{BoundaryHit, TissueGeometry};
use mcrng::McRng;

use super::DetectionState;

/// What the hop stage resolved the current step into.
pub(crate) enum StepOutcome {
    /// The step ended inside the region: drop/spin/roulette happen here.
    Interact,
    /// The step hit a region boundary first; `remaining_mfps` of
    /// dimensionless step carry into the next medium.
    Boundary { remaining_mfps: f64, hit: BoundaryHit },
    /// Degenerate geometry (horizontal flight in a transparent slab): the
    /// photon can neither interact nor reach a boundary. Retire it.
    Stuck,
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

/// Hop stage: advance the photon by (part of) the sampled dimensionless
/// step. The fast path skips the full boundary query whenever the step is
/// at most HALF the geometry's direction-independent boundary-distance
/// lower bound — the factor 2 strictly dominates the rounding of the exact
/// distance computation, so this branch advances the photon to exactly the
/// position `hop` would have (same `step_mfps / mu_t` division, same
/// operands). Otherwise the boundary query is bounded by that same step
/// length: `hop` interacts iff the step is at most the hit distance, which
/// any hit at or beyond the limit decides the same way.
#[inline]
pub(crate) fn hop_stage<G: TissueGeometry>(
    geom: &G,
    photon: &mut Photon,
    optics: &lumen_photon::DerivedOptics,
    region: usize,
    step_mfps: f64,
) -> StepOutcome {
    if !optics.transparent {
        let geometric = step_mfps / optics.mu_t;
        if geometric <= 0.5 * geom.min_boundary_distance(photon.pos, region) {
            photon.advance(geometric);
            return StepOutcome::Interact;
        }
    }
    let limit = if optics.transparent { f64::INFINITY } else { step_mfps / optics.mu_t };
    let hit = geom.boundary_hit_within(photon.pos, photon.dir, region, limit);
    if !hit.distance.is_finite() && optics.transparent {
        return StepOutcome::Stuck;
    }
    match hop(photon, step_mfps, optics.mu_t, hit.distance) {
        Hop::Interact => StepOutcome::Interact,
        Hop::Boundary { remaining_mfps } => StepOutcome::Boundary { remaining_mfps, hit },
    }
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
    tally.absorbed_by_layer[region] += deposited;
    if let Some(grid) = tally.absorption_grid.as_mut() {
        grid.deposit(photon.pos, deposited);
    }
    if let Some(rz) = tally.absorption_rz.as_mut() {
        rz.deposit(photon.pos.radial(), photon.pos.z, deposited);
    }
    if photon.weight <= 0.0 {
        photon.terminate(Fate::Absorbed);
        return false;
    }
    // --- scatter (spin) ---
    spin(photon, optics.g, rng);
    // --- if (weight too small) survive roulette ---
    roulette(photon, sim.options.roulette, rng)
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
) -> Fate {
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
        let path_before = photon.pathlength;
        let outcome = hop_stage(geom, &mut photon, optics, region, step_mfps);
        scratch.partial_path[region] += photon.pathlength - path_before;
        match outcome {
            StepOutcome::Stuck => {
                // Probability-zero geometry; retire the photon rather
                // than loop forever.
                photon.terminate(Fate::Expired);
                break;
            }
            StepOutcome::Interact => {
                step_mfps = 0.0;
                scratch.collisions[region] += 1;
                if recording {
                    scratch.vertices.push(photon.pos);
                }
                if !interact_stage(sim, &mut photon, optics, region, tally, rng) {
                    break;
                }
            }
            StepOutcome::Boundary { remaining_mfps, hit } => {
                step_mfps = remaining_mfps;
                if recording {
                    scratch.vertices.push(photon.pos);
                }
                // --- changed medium: internally reflect or refract ---
                let exits_tissue = hit.next_region.is_none();
                let n_i = optics.n;
                let n_t = geom.neighbour_n(region, &hit);

                if exits_tissue {
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
                } else {
                    // Internal interface: probabilistic branch selection
                    // in both modes (see the `sim` module docs).
                    match interact_with_boundary_axis(
                        photon.dir,
                        hit.axis,
                        n_i,
                        n_t,
                        BoundaryMode::Probabilistic,
                        rng,
                    ) {
                        BoundaryOutcome::Reflected { dir, .. } => {
                            photon.dir = dir;
                        }
                        BoundaryOutcome::Transmitted { dir, .. } => {
                            photon.dir = dir;
                            photon.layer = hit.next_region.expect("internal boundary");
                            scratch.reached[photon.layer] = true;
                        }
                    }
                }
            }
        }
    }

    // --- bookkeeping for the terminal fate ---
    finish_stage(sim, &photon, scratch, tally, &detection, paths_out);
    photon.fate
}
