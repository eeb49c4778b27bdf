//! Structure-of-arrays batch tracer — the `Fast` precision tier.
//!
//! Instead of walking one photon to its terminal fate at a time, this kernel
//! steps a pool of [`LANES`] photon lanes in lockstep *supersteps*. Each
//! superstep runs the same stages as the scalar kernel, but reorganised so
//! the per-interaction math that dominates the scalar profile — free-path
//! `ln`, the Henyey–Greenstein polar draw, the azimuthal `sin`/`cos`, the
//! direction rotation — executes as full-width loops over contiguous `f64`
//! arrays with the polynomial approximations from [`lumen_photon::approx`],
//! where the compiler autovectorizes them. Each lane applies the scalar
//! kernel's transport rules in [`super::scalar`] — the step decision and
//! carry-over, the drop bookkeeping, the internal interface — and
//! [`lumen_photon::roulette()`]; launches, external surfaces and terminal
//! fates re-enter the scalar stage functions, so the tally bookkeeping is
//! theirs.
//!
//! # Fill and drain
//!
//! A stream runs in two phases. While the photon budget lasts (*fill*), a
//! lane whose photon terminates relaunches at once and the pool stays full.
//! Once the budget is dry (*drain*), lanes go dark one by one while the
//! longest walks finish. Walk lengths are heavy-tailed, so at the small
//! tasks a cluster hands out the drain is most of the run: on the 1 mm
//! voxel head at 128 photons a task, 55 % of supersteps have at most 8 of
//! the 32 lanes live and 34 % exactly one. The pool therefore keeps its
//! live lanes as one bit mask, set at launch and cleared when a lane goes
//! dark, and every lane-order loop (bookkeeping, hop, drop, roulette) walks
//! that mask, so a superstep costs its live lanes and not the pool. The
//! `ln` and spin sweeps stay full width while more than half the pool is
//! live and evaluate only the lanes that need them below that. Both sweep
//! forms run the same per-lane code (`approx::fast_ln`, `spin_lane`), and
//! Rust never contracts to FMA, so the bits do not depend on which form
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

use crate::kernel::scalar::{self, StepOutcome};
use crate::kernel::DetectionState;
use crate::sim::{Scratch, Simulation};
use crate::tally::Tally;
use lumen_photon::{approx, roulette, Fate, Photon, Vec3};
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
    /// The live lanes, one bit a lane: set by a launch, cleared when a
    /// lane goes dark. A lane is live exactly while its `fate` is `Alive`.
    live: u32,
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
            fate: [Fate::Expired; LANES],
            step_mfps: [0.0; LANES],
            interactions: [0; LANES],
            live: 0,
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
                self.live |= 1 << l;
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
        self.live &= !(1 << l);
    }

    /// Finish lane `l`'s photon (whose terminal fate is already set in
    /// `self.fate[l]`) and refill the lane from the budget.
    fn retire<G: TissueGeometry, R: McRng>(&mut self, l: usize, cx: &mut StreamCtx<'_, G, R>) {
        let photon = self.materialize(l);
        scalar::finish_stage(cx.sim, &photon, &self.scratch[l], cx.tally, &self.detection[l], None);
        self.try_launch(l, cx);
    }

    /// Resolve a boundary encounter on lane `l` with the scalar kernel's
    /// rules: an internal interface reflects or refracts the whole packet;
    /// an external surface runs the surface stage (Fresnel escape /
    /// detection / internal reflection).
    fn boundary_event<G: TissueGeometry, R: McRng>(
        &mut self,
        l: usize,
        hit: BoundaryHit,
        cx: &mut StreamCtx<'_, G, R>,
    ) {
        let n_i = self.n_idx[l];
        let n_t = cx.geom.neighbour_n(self.layer[l], &hit);
        if let Some(next) = hit.next_region {
            let dir = scalar::cross_interface(
                Vec3::new(self.ux[l], self.uy[l], self.uz[l]),
                hit.axis,
                (n_i, n_t),
                next,
                &mut self.layer[l],
                &mut self.scratch[l].reached,
                cx.rng,
            );
            (self.ux[l], self.uy[l], self.uz[l]) = (dir.x, dir.y, dir.z);
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
        let live = Live(self.live);
        let full_width = self.live.count_ones() as usize > FULL_WIDTH_ABOVE;

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
            if self.live & (1 << l) == 0 || self.step_mfps[l] <= 0.0 {
                continue;
            }
            let pos = Vec3::new(self.px[l], self.py[l], self.pz[l]);
            let dir = Vec3::new(self.ux[l], self.uy[l], self.uz[l]);
            let geometric = self.step_mfps[l] * self.inv_mu_t[l];
            match scalar::step_outcome(
                cx.geom,
                pos,
                dir,
                self.layer[l],
                self.transparent[l],
                geometric,
            ) {
                StepOutcome::Interact => {
                    self.advance(l, geometric);
                    self.step_mfps[l] = 0.0;
                    interact[l] = true;
                }
                StepOutcome::Boundary(hit) => {
                    self.advance(l, hit.distance);
                    self.step_mfps[l] = scalar::carried_mfps(self.step_mfps[l], &hit, self.mu_t[l]);
                    self.boundary_event(l, hit, cx);
                }
                StepOutcome::Stuck => {
                    self.fate[l] = Fate::Expired;
                    self.retire(l, cx);
                }
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
            let pos = Vec3::new(self.px[l], self.py[l], self.pz[l]);
            scalar::deposit(cx.tally, self.layer[l], pos, deposited);
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
            if interact[l] && !roulette(&mut self.weight[l], cfg, cx.rng) {
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
    while pool.live != 0 {
        pool.superstep(&mut cx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Precision, SimulationOptions};
    use crate::{Detector, Source};
    use lumen_tissue::presets::{adult_head, AdultHeadConfig};
    use mcrng::StreamFactory;

    /// The lanes whose photon is still walking, read from the fates alone.
    fn walking(pool: &Pool) -> u32 {
        (0..LANES).filter(|&l| pool.fate[l] == Fate::Alive).fold(0, |m, l| m | 1 << l)
    }

    #[test]
    fn the_live_mask_is_the_set_of_walking_lanes() {
        // Layered head: internal interfaces, surface escapes and long walks,
        // so lanes go dark through every retirement path.
        let tissue = adult_head(AdultHeadConfig::default());
        let options = SimulationOptions { precision: Precision::Fast, ..Default::default() };
        let sim = Simulation::new(tissue.clone(), Source::Delta, Detector::new(20.0, 2.0))
            .with_options(options);
        let factory = StreamFactory::new(36);
        for budget in [0, 1, 31, 32, 33, 129] {
            let (mut rng, mut tally) = (factory.stream(budget), sim.new_tally());
            let mut cx =
                StreamCtx { sim: &sim, geom: &tissue, rng: &mut rng, tally: &mut tally, budget };
            let mut pool = Pool::new(tissue.region_count());
            assert_eq!(pool.live, walking(&pool), "budget {budget}: before any launch");
            for l in 0..LANES {
                pool.try_launch(l, &mut cx);
            }
            assert_eq!(pool.live, walking(&pool), "budget {budget}: after the launches");
            let mut supersteps = 0;
            while pool.live != 0 {
                pool.superstep(&mut cx);
                supersteps += 1;
                assert_eq!(pool.live, walking(&pool), "budget {budget}: superstep {supersteps}");
            }
            assert_eq!(cx.budget, 0, "budget {budget}: every photon launched");
            let next = rng.next_u64();
            if budget == 0 {
                assert_eq!(supersteps, 0, "a zero-photon stream runs no superstep");
                assert_eq!(tally, sim.new_tally(), "a zero-photon stream launches nothing");
                assert_eq!(next, factory.stream(0).next_u64(), "and draws nothing");
            }

            // The pool driven here is the pool `run_stream` drives.
            let (mut rng2, mut reference) = (factory.stream(budget), sim.new_tally());
            run_stream(&sim, &tissue, budget, &mut rng2, &mut reference);
            assert_eq!(tally.launched, budget);
            assert_eq!(tally, reference, "budget {budget}: same tally as run_stream");
            assert_eq!(next, rng2.next_u64(), "budget {budget}: same draws");
        }
    }
}
