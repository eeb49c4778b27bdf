//! Structure-of-arrays batch tracer — the `Fast` precision tier.
//!
//! Instead of walking one photon to its terminal fate at a time, this kernel
//! steps a pool of [`LANES`] photon lanes in lockstep *supersteps*. Each
//! superstep runs the same stages as the scalar kernel, but reorganised so
//! the per-interaction math that dominates the scalar profile — free-path
//! `ln`, the Henyey–Greenstein polar draw, the azimuthal `sin`/`cos`, the
//! direction rotation — executes as full-width loops over contiguous `f64`
//! arrays with the polynomial approximations from [`lumen_photon::approx`],
//! where the compiler autovectorizes them. Rare events (boundary crossings,
//! launches, terminal fates, roulette) drop back to the scalar stage
//! functions in [`super::scalar`], reusing their exact tally bookkeeping.
//!
//! # Fill and drain
//!
//! A stream runs in two phases. While the photon budget lasts (*fill*), a
//! lane whose photon terminates relaunches at once and the pool stays full.
//! Once the budget is dry (*drain*), lanes go dark one by one while the
//! longest walks finish. Walk lengths are heavy-tailed, so at the small
//! tasks a cluster hands out the drain is most of the run: on the 1 mm
//! voxel head at 128 photons a task, 55 % of supersteps have at most 8 of
//! the 32 lanes live. Each superstep therefore collects its live lanes, and
//! every lane-order loop (bookkeeping, hop, drop, roulette) visits only
//! those. The `ln` and spin sweeps stay full width while more than half the
//! pool is live and evaluate only the lanes that need them below that. Both
//! sweep forms run the same per-lane code (`approx::fast_ln`, `spin_lane`),
//! and Rust never contracts to FMA, so the bits do not depend on which form
//! ran.
//!
//! # Determinism
//!
//! The batch kernel is fully deterministic: lanes draw from the task's RNG
//! substream in lane order at fixed points of each superstep, so the same
//! scenario + seed + task split reproduces byte-identical tallies on every
//! backend — the engine's reproducibility contract holds *within* the tier.
//! It is **not** bit-compatible with the exact tier: the stream is consumed
//! in batch order rather than per-photon order (and both spin uniforms are
//! drawn before the zero-weight check the scalar kernel short-circuits), so
//! individual trajectories differ while every tally agrees statistically.
//! The `fast_tier_validation` suite pins that agreement with tally-level
//! z-tests against the exact tier.
//!
//! # Feature surface
//!
//! [`crate::Simulation::validate`] rejects `Fast` combined with trajectory
//! recording (`path_grid`, `record_paths`, `archive`) and with classical
//! boundary splitting, so this kernel only ever runs whole-packet
//! probabilistic walks and never materializes vertex lists.

use crate::kernel::{scalar, DetectionState};
use crate::sim::{Scratch, Simulation};
use crate::tally::Tally;
use lumen_photon::approx;
use lumen_photon::fresnel::{interact_with_boundary_axis, BoundaryOutcome};
use lumen_photon::{BoundaryMode, Fate, Photon, Vec3};
use lumen_tissue::{BoundaryHit, TissueGeometry};
use mcrng::McRng;

/// Photon lanes stepped per superstep. 32 lanes of `f64` fill eight AVX2
/// (or four AVX-512) vectors per array sweep, and the whole pool state stays
/// resident in L1.
pub(crate) const LANES: usize = 32;

/// Same near-vertical guard as the scalar spin (`|uz|` above this uses the
/// degenerate-rotation special case).
const NEARLY_VERTICAL: f64 = 1.0 - 1e-12;

/// The `fast_ln` and spin sweeps run over all [`LANES`] while more than
/// this many lanes are live, and over only the lanes that need them below.
/// A full-width sweep vectorizes, so it wins while the pool is mostly full
/// (per-lane sweeps alone made a dense 4096-photon stream 1.8× slower); a
/// drained pool would pay it for lanes that do nothing.
const FULL_WIDTH_ABOVE: usize = LANES / 2;

/// Everything a superstep needs besides the lane pool itself, grouped so
/// the stage methods stay well under clippy's argument limit.
struct StreamCtx<'a, G, R> {
    sim: &'a Simulation,
    geom: &'a G,
    rng: &'a mut R,
    tally: &'a mut Tally,
    /// Photons not yet launched.
    budget: u64,
}

/// The lane pool: one photon per lane, struct-of-arrays.
struct Pool {
    // Photon state (the SoA transpose of [`Photon`]).
    px: [f64; LANES],
    py: [f64; LANES],
    pz: [f64; LANES],
    ux: [f64; LANES],
    uy: [f64; LANES],
    uz: [f64; LANES],
    weight: [f64; LANES],
    pathlength: [f64; LANES],
    max_depth: [f64; LANES],
    scatters: [u32; LANES],
    layer: [usize; LANES],
    fate: [Fate; LANES],
    // Walk state.
    step_mfps: [f64; LANES],
    interactions: [u32; LANES],
    alive: [bool; LANES],
    // Cached optics of `region` (refreshed when `layer` changes), spread
    // into parallel arrays so the hot loops read contiguous f64 streams.
    region: [usize; LANES],
    mu_t: [f64; LANES],
    inv_mu_t: [f64; LANES],
    absorb_frac: [f64; LANES],
    g_hg: [f64; LANES],
    n_idx: [f64; LANES],
    transparent: [bool; LANES],
    // Per-lane per-photon bookkeeping, reusing the scalar kernel's types
    // so `finish_stage` consumes them directly.
    scratch: Vec<Scratch>,
    detection: Vec<DetectionState>,
    regions: usize,
}

impl Pool {
    fn new(regions: usize) -> Self {
        Self {
            px: [0.0; LANES],
            py: [0.0; LANES],
            pz: [0.0; LANES],
            ux: [0.0; LANES],
            uy: [0.0; LANES],
            uz: [1.0; LANES],
            weight: [0.0; LANES],
            pathlength: [0.0; LANES],
            max_depth: [0.0; LANES],
            scatters: [0; LANES],
            layer: [0; LANES],
            fate: [Fate::Alive; LANES],
            step_mfps: [0.0; LANES],
            interactions: [0; LANES],
            alive: [false; LANES],
            region: [0; LANES],
            mu_t: [0.0; LANES],
            inv_mu_t: [0.0; LANES],
            absorb_frac: [0.0; LANES],
            g_hg: [0.0; LANES],
            n_idx: [1.0; LANES],
            transparent: [false; LANES],
            scratch: (0..LANES).map(|_| Scratch::default()).collect(),
            detection: (0..LANES).map(|_| DetectionState::default()).collect(),
            regions,
        }
    }

    /// Gather lane `l` back into a [`Photon`] for the scalar stages.
    fn materialize(&self, l: usize) -> Photon {
        Photon {
            pos: Vec3::new(self.px[l], self.py[l], self.pz[l]),
            dir: Vec3::new(self.ux[l], self.uy[l], self.uz[l]),
            weight: self.weight[l],
            pathlength: self.pathlength[l],
            layer: self.layer[l],
            scatters: self.scatters[l],
            max_depth: self.max_depth[l],
            fate: self.fate[l],
        }
    }

    /// Scatter a [`Photon`] (possibly mutated by a scalar stage) back into
    /// lane `l`.
    fn write_back(&mut self, l: usize, p: &Photon) {
        self.px[l] = p.pos.x;
        self.py[l] = p.pos.y;
        self.pz[l] = p.pos.z;
        self.ux[l] = p.dir.x;
        self.uy[l] = p.dir.y;
        self.uz[l] = p.dir.z;
        self.weight[l] = p.weight;
        self.pathlength[l] = p.pathlength;
        self.layer[l] = p.layer;
        self.scatters[l] = p.scatters;
        self.max_depth[l] = p.max_depth;
        self.fate[l] = p.fate;
    }

    /// Refresh the cached optics arrays from lane `l`'s current region.
    fn refresh_optics<G: TissueGeometry>(&mut self, l: usize, geom: &G) {
        let region = self.layer[l];
        let d = geom.derived(region);
        self.region[l] = region;
        self.mu_t[l] = d.mu_t;
        self.inv_mu_t[l] = d.inv_mu_t;
        self.absorb_frac[l] = d.absorb_frac;
        self.g_hg[l] = d.g;
        self.n_idx[l] = d.n;
        self.transparent[l] = d.transparent;
    }

    /// Advance lane `l` by `distance` mm along its direction, accruing
    /// pathlength, the depth high-water mark, and the region's partial
    /// path (the scalar loop's per-hop `partial_path` update).
    fn advance(&mut self, l: usize, distance: f64) {
        self.px[l] += self.ux[l] * distance;
        self.py[l] += self.uy[l] * distance;
        self.pz[l] += self.uz[l] * distance;
        self.pathlength[l] += distance;
        if self.pz[l] > self.max_depth[l] {
            self.max_depth[l] = self.pz[l];
        }
        self.scratch[l].partial_path[self.layer[l]] += distance;
    }

    /// Fill lane `l` with the next photon from the budget. Launch misses
    /// (photons terminated by the source itself) are finished immediately
    /// and the next photon is tried; when the budget is exhausted the lane
    /// goes dark.
    fn try_launch<G: TissueGeometry, R: McRng>(&mut self, l: usize, cx: &mut StreamCtx<'_, G, R>) {
        while cx.budget > 0 {
            cx.budget -= 1;
            let photon = scalar::launch_stage(cx.sim, cx.geom, cx.rng, cx.tally);
            self.scratch[l].reset(self.regions);
            self.scratch[l].reached[photon.layer] = true;
            self.detection[l] = DetectionState::default();
            if photon.survived() {
                self.write_back(l, &photon);
                self.refresh_optics(l, cx.geom);
                self.step_mfps[l] = 0.0;
                self.interactions[l] = 0;
                self.alive[l] = true;
                return;
            }
            scalar::finish_stage(
                cx.sim,
                &photon,
                &self.scratch[l],
                cx.tally,
                &self.detection[l],
                None,
            );
        }
        self.alive[l] = false;
    }

    /// Finish lane `l`'s photon (whose terminal fate is already set in
    /// `self.fate[l]`) and refill the lane from the budget.
    fn retire<G: TissueGeometry, R: McRng>(&mut self, l: usize, cx: &mut StreamCtx<'_, G, R>) {
        let photon = self.materialize(l);
        scalar::finish_stage(cx.sim, &photon, &self.scratch[l], cx.tally, &self.detection[l], None);
        self.try_launch(l, cx);
    }

    /// Resolve a boundary encounter on lane `l`: external surfaces run the
    /// exact scalar surface stage (Fresnel escape / detection / internal
    /// reflection); internal interfaces do probabilistic whole-packet
    /// reflection or refraction.
    fn boundary_event<G: TissueGeometry, R: McRng>(
        &mut self,
        l: usize,
        hit: BoundaryHit,
        cx: &mut StreamCtx<'_, G, R>,
    ) {
        let n_i = self.n_idx[l];
        let n_t = cx.geom.neighbour_n(self.layer[l], &hit);
        if let Some(next) = hit.next_region {
            let dir = Vec3::new(self.ux[l], self.uy[l], self.uz[l]);
            match interact_with_boundary_axis(
                dir,
                hit.axis,
                n_i,
                n_t,
                BoundaryMode::Probabilistic,
                cx.rng,
            ) {
                BoundaryOutcome::Reflected { dir, .. } => {
                    self.ux[l] = dir.x;
                    self.uy[l] = dir.y;
                    self.uz[l] = dir.z;
                }
                BoundaryOutcome::Transmitted { dir, .. } => {
                    self.ux[l] = dir.x;
                    self.uy[l] = dir.y;
                    self.uz[l] = dir.z;
                    self.layer[l] = next;
                    self.scratch[l].reached[next] = true;
                }
            }
        } else {
            let mut photon = self.materialize(l);
            let ctx =
                scalar::SurfaceContext { n_i, n_t, axis: hit.axis, is_top: hit.is_top_surface };
            // The archive event is irrelevant here: validate() rejects
            // Fast + archive, so there is no archive to append to.
            let _event = scalar::surface_stage(
                cx.sim,
                &ctx,
                &mut photon,
                cx.rng,
                cx.tally,
                &mut self.detection[l],
            );
            self.write_back(l, &photon);
            if !photon.survived() {
                self.retire(l, cx);
            }
        }
    }

    /// One lockstep superstep: every live lane attempts one hop and, when
    /// the step ends inside the medium, one interaction.
    fn superstep<G: TissueGeometry, R: McRng>(&mut self, cx: &mut StreamCtx<'_, G, R>) {
        // The lanes live at the start of the superstep. A lane goes dark
        // only once the budget is dry, and `try_launch` refills only the
        // lane being retired, so no other lane comes alive before the next
        // superstep. Every lane-order loop below visits only these, in lane
        // order, so the RNG draws are a full sweep's; so do the `ln` and
        // spin sweeps once at most `FULL_WIDTH_ABOVE` lanes are live.
        let mut mask = 0u32;
        for l in 0..LANES {
            mask |= u32::from(self.alive[l]) << l;
        }
        let live = Live(mask);
        let n_live = mask.count_ones() as usize;
        let full_width = n_live > FULL_WIDTH_ABOVE;

        // --- bookkeeping + fresh-step draws (lane order) ---
        let mut u_step = [1.0_f64; LANES];
        for l in live {
            self.interactions[l] += 1;
            if self.interactions[l] > cx.sim.options.max_interactions {
                self.fate[l] = Fate::Expired;
                self.retire(l, cx);
                continue;
            }
            if self.layer[l] != self.region[l] {
                self.refresh_optics(l, cx.geom);
            }
            if self.step_mfps[l] <= 0.0 {
                u_step[l] = cx.rng.next_f64_open();
            }
        }

        // --- free-path sampling ---
        // Lanes with unspent step budget drew no uniform (u = 1, ln 1 = 0),
        // so the masked select folds into a single branch-free update.
        if full_width {
            let mut fresh = [0.0_f64; LANES];
            for (f, u) in fresh.iter_mut().zip(&u_step) {
                *f = -approx::fast_ln(*u);
            }
            for (s, f) in self.step_mfps.iter_mut().zip(&fresh) {
                *s = s.max(0.0) + f;
            }
        } else {
            for l in live {
                self.step_mfps[l] = self.step_mfps[l].max(0.0) + -approx::fast_ln(u_step[l]);
            }
        }

        // --- hop: advance, classify, resolve boundaries (lane order) ---
        // Lanes (re)launched mid-superstep hold step_mfps == 0 and wait for
        // the next superstep.
        let mut interact = [false; LANES];
        for l in live {
            if !self.alive[l] || self.step_mfps[l] <= 0.0 {
                continue;
            }
            let pos = Vec3::new(self.px[l], self.py[l], self.pz[l]);
            let transparent = self.transparent[l];
            let geometric = self.step_mfps[l] * self.inv_mu_t[l];
            // Same factor-2 safety margin as the scalar hop stage.
            if !transparent && geometric <= 0.5 * cx.geom.min_boundary_distance(pos, self.layer[l])
            {
                self.advance(l, geometric);
                self.step_mfps[l] = 0.0;
                interact[l] = true;
                continue;
            }
            // Bounded by the step, as in the scalar hop stage: a hit at or
            // beyond `geometric` means an interaction either way.
            let dir = Vec3::new(self.ux[l], self.uy[l], self.uz[l]);
            let limit = if transparent { f64::INFINITY } else { geometric };
            let hit = cx.geom.boundary_hit_within(pos, dir, self.layer[l], limit);
            if transparent {
                if !hit.distance.is_finite() {
                    // Degenerate geometry (horizontal flight in a
                    // transparent slab): retire rather than loop forever.
                    self.fate[l] = Fate::Expired;
                    self.retire(l, cx);
                    continue;
                }
                self.advance(l, hit.distance);
                self.boundary_event(l, hit, cx);
                continue;
            }
            if geometric <= hit.distance {
                self.advance(l, geometric);
                self.step_mfps[l] = 0.0;
                interact[l] = true;
            } else {
                self.advance(l, hit.distance);
                self.step_mfps[l] = (self.step_mfps[l] - hit.distance * self.mu_t[l]).max(0.0);
                self.boundary_event(l, hit, cx);
            }
        }

        // --- drop + spin draws (lane order) ---
        // Both spin uniforms are drawn up front even for the (pure-absorber
        // only) lanes the weight check then kills — unlike the scalar
        // kernel, which short-circuits; the tiers own distinct stream
        // disciplines anyway.
        let mut u_hg = [0.5_f64; LANES];
        let mut u_az = [0.0_f64; LANES];
        for l in live {
            if !interact[l] {
                continue;
            }
            u_hg[l] = cx.rng.next_f64();
            u_az[l] = cx.rng.next_f64();
            self.scratch[l].collisions[self.layer[l]] += 1;
            let deposited = self.weight[l] * self.absorb_frac[l];
            self.weight[l] -= deposited;
            cx.tally.absorbed_by_layer[self.layer[l]] += deposited;
            if cx.tally.absorption_grid.is_some() || cx.tally.absorption_rz.is_some() {
                let pos = Vec3::new(self.px[l], self.py[l], self.pz[l]);
                if let Some(grid) = cx.tally.absorption_grid.as_mut() {
                    grid.deposit(pos, deposited);
                }
                if let Some(rz) = cx.tally.absorption_rz.as_mut() {
                    rz.deposit(pos.radial(), pos.z, deposited);
                }
            }
            if self.weight[l] <= 0.0 {
                interact[l] = false;
                self.fate[l] = Fate::Absorbed;
                self.retire(l, cx);
            }
        }

        // --- spin ---
        // Full width, every lane computes and the masked write-back discards
        // the lanes that did not interact (divisions by zero in dead or
        // degenerate lanes produce inf/NaN that the selects drop). Drained,
        // only the interacting lanes compute, through the same function.
        // The write-back stays a full-width select while the pool is mostly
        // live: it vectorizes, and measured faster than visiting the list.
        if full_width {
            let (mut nx, mut ny, mut nz) = ([0.0_f64; LANES], [0.0_f64; LANES], [0.0_f64; LANES]);
            for l in 0..LANES {
                let dir = (self.ux[l], self.uy[l], self.uz[l]);
                (nx[l], ny[l], nz[l]) = spin_lane(self.g_hg[l], u_hg[l], u_az[l], dir);
            }
            for l in 0..LANES {
                if interact[l] {
                    self.ux[l] = nx[l];
                    self.uy[l] = ny[l];
                    self.uz[l] = nz[l];
                    self.scatters[l] += 1;
                }
            }
        } else {
            for l in live {
                if interact[l] {
                    let (x, y, z) = spin_lane(
                        self.g_hg[l],
                        u_hg[l],
                        u_az[l],
                        (self.ux[l], self.uy[l], self.uz[l]),
                    );
                    self.ux[l] = x;
                    self.uy[l] = y;
                    self.uz[l] = z;
                    self.scatters[l] += 1;
                }
            }
        }

        // --- roulette (lane order, rare) ---
        let cfg = cx.sim.options.roulette;
        for l in live {
            if !interact[l] || self.weight[l] >= cfg.threshold {
                continue;
            }
            if cx.rng.next_f64() < cfg.survival {
                self.weight[l] /= cfg.survival;
            } else {
                self.weight[l] = 0.0;
                self.fate[l] = Fate::RouletteKilled;
                self.retire(l, cx);
            }
        }
    }
}

/// The lanes set in a bit mask, in ascending order. Walking a mask keeps
/// each index in a register; a list of lane indices made the dense (full
/// pool) phase measurably slower.
#[derive(Clone, Copy)]
struct Live(u32);

const _: () = assert!(LANES <= u32::BITS as usize, "the live mask holds one bit a lane");

impl Iterator for Live {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let l = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(l)
    }
}

/// One lane of the spin sweep: the new direction after a Henyey–Greenstein
/// scatter of `dir` with polar uniform `u` and azimuthal uniform `u_az`.
#[inline(always)]
fn spin_lane(g: f64, u: f64, u_az: f64, (dx, dy, dz): (f64, f64, f64)) -> (f64, f64, f64) {
    // Henyey–Greenstein polar cosine (same formula and isotropic fallback
    // as `mcrng::henyey_greenstein_cos`, selected branch-free).
    let iso_like = g.abs() < 1e-6;
    let g_safe = if iso_like { 1.0 } else { g };
    let frac = (1.0 - g * g) / (1.0 - g + 2.0 * g * u);
    let hg = (1.0 + g * g - frac * frac) / (2.0 * g_safe);
    let cos_t = (if iso_like { 2.0 * u - 1.0 } else { hg }).clamp(-1.0, 1.0);
    let sin_t = (1.0 - cos_t * cos_t).max(0.0).sqrt();
    let (sin_p, cos_p) = approx::sincos_unit(u_az);
    // MCML rotation, with the near-vertical special case.
    let denom = (1.0 - dz * dz).sqrt();
    let inv_denom = 1.0 / denom;
    let gx = sin_t * (dx * dz * cos_p - dy * sin_p) * inv_denom + dx * cos_t;
    let gy = sin_t * (dy * dz * cos_p + dx * sin_p) * inv_denom + dy * cos_t;
    let gz = -sin_t * cos_p * denom + dz * cos_t;
    let vertical = dz.abs() > NEARLY_VERTICAL;
    let (x, y, z) =
        if vertical { (sin_t * cos_p, sin_t * sin_p, cos_t * dz.signum()) } else { (gx, gy, gz) };
    // One Newton–Raphson step towards unit norm (replaces the scalar
    // kernel's division by the exact norm; the residual is quadratically
    // small for near-unit inputs, so drift stays bounded over arbitrarily
    // long walks).
    let nn = x * x + y * y + z * z;
    let scale = 1.5 - 0.5 * nn;
    (x * scale, y * scale, z * scale)
}

/// Run `n` photons of the fast tier from `rng` into `tally`.
///
/// The pool fills from the budget and then drains (see the module docs): a
/// lane whose photon terminates refills itself while photons remain, and
/// goes dark for good once they are gone. Supersteps run until every lane
/// is dark, touching only the lanes still live.
pub(crate) fn run_stream<G: TissueGeometry, R: McRng>(
    sim: &Simulation,
    geom: &G,
    n: u64,
    rng: &mut R,
    tally: &mut Tally,
) {
    let mut cx = StreamCtx { sim, geom, rng, tally, budget: n };
    let mut pool = Pool::new(geom.region_count());
    for l in 0..LANES {
        pool.try_launch(l, &mut cx);
    }
    while pool.alive.contains(&true) {
        pool.superstep(&mut cx);
    }
}
