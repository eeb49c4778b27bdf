//! Path archive + reweight evaluator — white/perturbation Monte Carlo.
//!
//! One expensive simulation can answer *any* nearby optical-property query:
//! record, per escaping photon packet, its per-region pathlengths `L_r` and
//! collision counts `k_r` ([`PathArchive`], a compact SoA), then re-score
//! every archived path for a query property set (μa′, μs′) with the standard
//! perturbation-MC likelihood ratio
//!
//! ```text
//! ratio = Π_r (μs′_r / μs_r)^{k_r} · exp(−Σ_r (μt′_r − μt_r) · L_r)
//! ```
//!
//! ([`Reweight`], a [`Backend`] that never traces a photon). The ratio is
//! evaluated in log space — one `exp` per path — so a query over a detected
//! photon set costs microseconds, not the tens of seconds of a fresh run.
//!
//! **Soundness.** Under implicit capture every collision multiplies the
//! packet weight by the albedo μs/μt and the path density contributes
//! μt·exp(−μt·ℓ) per segment; the product of (new weight)/(old weight) with
//! the path-density likelihood ratio collapses to the formula above. The
//! scattering *direction* distribution (anisotropy `g`) and the boundary
//! physics (`n`) are part of the sampled path measure, so queries must keep
//! `g` and `n` at their recorded values.
//!
//! The tally also carries *unweighted* per-photon path statistics (mean
//! pathlength, penetration depth, the per-region partial pathlengths).
//! Those are expectations over detected *trajectories*, not weighted
//! signal, so their importance factor is the trajectory-density ratio alone:
//!
//! ```text
//! λ = Π_r (μt′_r / μt_r)^{k_r} · exp(−Σ_r (μt′_r − μt_r) · L_r)
//! ```
//!
//! (collisions are sampled against μt, not μs). [`PathArchive::ratios`]
//! returns both factors from one pass; both are exactly 1.0 at the
//! recorded properties, which keeps identity replays bit-exact.
//!
//! Russian roulette cancels out of all *weighted* sums identically — a
//! survivor's 1/p weight boost is matched by the p in its path density, so
//! the weight aggregates reweight exactly on any geometry. The unweighted
//! λ-reweighted statistics ignore roulette: they are exact while detected
//! paths stay under the roulette horizon `|ln threshold| / μa` (bounded
//! geometries), and biased where the recording run roulette-thinned the
//! long-path population a μa-*lowering* query would revive —
//! `reweight_validation.rs` measures exactly this on the semi-infinite
//! adult head.
//!
//! **When it breaks.** Reweighting is exact in expectation but its variance
//! grows exponentially with the perturbation size: the log-ratio variance of
//! a scattering query scales like `k̄ (ln μs′/μs)²` with k̄ the mean
//! collision count, so archives of deep, highly scattering media only reach
//! a few percent in μs (absorption queries stay efficient to ±30% and
//! beyond — Δμa enters through pathlengths, not collision counts). The
//! [`ReweightReport::ess`] field (effective sample size,
//! `(Σ ratio)² / Σ ratio²` over detected paths) quantifies this collapse —
//! at the recorded properties it equals the detected count exactly; treat
//! results with `ess ≪ detected` as noise.

use crate::engine::{
    available_threads, for_each_index, Backend, EngineError, Progress, RunReport, Scenario,
    WorkerAccount,
};
use crate::radial::RadialSpec;
use crate::results::SimulationResult;
use crate::tally::Tally;
use lumen_photon::OpticalProperties;
use std::sync::OnceLock;
use std::time::Instant;

/// Archive entry class: top-surface escape outside the detector aperture.
pub const CLASS_MISSED_APERTURE: u8 = 0;
/// Archive entry class: in the aperture but outside the numerical aperture.
pub const CLASS_NA_REJECTED: u8 = 1;
/// Archive entry class: in the aperture but outside the pathlength gate.
pub const CLASS_GATE_REJECTED: u8 = 2;
/// Archive entry class: detected (aperture + angle + gate all accepted).
pub const CLASS_DETECTED: u8 = 3;
/// Archive entry class: launched outside a finite grid's lateral extent and
/// reflected at the surface with full weight (zero tissue pathlength, so
/// its weight ratio is exactly 1 under every query).
pub const CLASS_LAUNCH_MISS: u8 = 4;
/// Archive entry class: escaped through the bottom or a lateral face.
pub const CLASS_TRANSMITTED: u8 = 5;

/// Task id stamped on entries before the engine assigns the real one
/// (see [`PathArchive::stamp_task`]).
pub const TASK_UNSTAMPED: u64 = u64::MAX;

/// Knobs for archive recording, carried in
/// [`SimulationOptions::archive`](crate::SimulationOptions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordOptions {
    /// Keep only detected packets. The full archive replays every weighted
    /// tally (R(r), diffuse reflectance, transmittance); a detected-only
    /// archive answers detected-signal queries at a fraction of the memory
    /// and evaluation cost — the shape the `reweight_qps` benchmark and the
    /// inverse-solver loop want.
    pub detected_only: bool,
}

/// Compact SoA record of every escape event of a recording run, plus the
/// property-independent launch aggregates needed to rebuild a tally.
///
/// Per-entry arrays are parallel; the per-region arrays (`partial_path`,
/// `collisions`, `reached`) are row-major with stride [`regions`]
/// (`entry * regions + region`). Entries appear in trace order within a
/// task and in task-merge order across tasks, which is what makes an
/// identity reweight reproduce the recording tally's float sums bit for
/// bit.
///
/// [`regions`]: PathArchive::regions
#[derive(Debug, Clone, PartialEq)]
pub struct PathArchive {
    /// Number of geometry regions (stride of the per-region arrays).
    pub regions: usize,
    /// True when only [`CLASS_DETECTED`] entries were kept.
    pub detected_only: bool,
    /// The recording run's optical properties, one per region — the
    /// denominator of every weight ratio.
    pub base: Vec<OpticalProperties>,
    /// Photons launched by the recording run.
    pub launched: u64,
    /// Specular weight lost at launch (property-independent).
    pub specular_weight: f64,
    /// Entry class ([`CLASS_MISSED_APERTURE`] .. [`CLASS_TRANSMITTED`]).
    pub class: Vec<u8>,
    /// Task id that traced each entry ([`TASK_UNSTAMPED`] until the engine
    /// stamps it); the key for [`canonical_order`](Self::canonical_order).
    pub task: Vec<u64>,
    /// Packet weight carried out at escape.
    pub exit_weight: Vec<f64>,
    /// Exit radial position √(x²+y²) (mm) — rebuilds R(r).
    pub exit_radius: Vec<f64>,
    /// Total pathlength at escape (mm); exit time is `pathlength · n / c`,
    /// or per-region via `partial_path` (see `lumen-analysis`'s ToF tools).
    pub pathlength: Vec<f64>,
    /// Deepest z reached (mm).
    pub max_depth: Vec<f64>,
    /// Scattering events over the whole walk.
    pub scatters: Vec<u32>,
    /// Pathlength accrued per region (mm), stride `regions`.
    pub partial_path: Vec<f64>,
    /// Collision (interaction) count per region, stride `regions` — the
    /// exponent `k_r` of the scattering ratio.
    pub collisions: Vec<u32>,
    /// 1 where the walk entered the region, stride `regions`.
    pub reached: Vec<u8>,
}

/// Per-region coefficients precomputed once per query so each path costs a
/// dot product and a single `exp`:
/// `ratio = exp(Σ_r k_r·ln(μs′/μs) − Σ_r Δμt_r·L_r)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCoeffs {
    /// `ln(μs′_r / μs_r)`, forced to exactly 0.0 when the query matches.
    ln_mu_s_ratio: Vec<f64>,
    /// `ln(μt′_r / μt_r)`, forced to exactly 0.0 when the query matches —
    /// the collision-power term of the *trajectory-density* ratio λ, used
    /// to reweight the tally's unweighted path statistics.
    ln_mu_t_ratio: Vec<f64>,
    /// `μt′_r − μt_r` as `(μa′−μa) + (μs′−μs)` — exactly 0.0 at identity.
    d_mu_t: Vec<f64>,
}

/// Result of one reweight evaluation: a replayed [`Tally`] plus the
/// diagnostics a caller needs to judge it.
///
/// Only quantities an escape-event archive determines are populated:
/// launch/specular aggregates, escape counts and weights, detected-photon
/// statistics, R(r), and the pathlength histogram. Absorption by layer,
/// roulette/absorbed/expired counts, and visit grids stay zero/absent —
/// they live on path interiors the archive does not store.
#[derive(Debug, Clone, PartialEq)]
pub struct ReweightReport {
    /// The replayed tally under the query properties.
    pub tally: Tally,
    /// Effective sample size `(Σ ratio)² / Σ ratio²` over detected paths.
    /// Equals the detected count exactly at the recorded properties and
    /// collapses toward 1 as the perturbation grows.
    pub ess: f64,
    /// Detected entries evaluated.
    pub detected_entries: u64,
    /// Σ ratio over detected entries — the normalizer for ratio-weighted
    /// sums (the tally's integer `detected` count keeps the *recorded*
    /// count, so means formed against it are exact only at identity).
    pub sum_ratio: f64,
}

impl PathArchive {
    /// Empty archive for `regions` regions recorded at `base` properties.
    pub fn new(regions: usize, base: Vec<OpticalProperties>, options: RecordOptions) -> Self {
        assert_eq!(base.len(), regions, "one base optics entry per region");
        Self {
            regions,
            detected_only: options.detected_only,
            base,
            launched: 0,
            specular_weight: 0.0,
            class: Vec::new(),
            task: Vec::new(),
            exit_weight: Vec::new(),
            exit_radius: Vec::new(),
            pathlength: Vec::new(),
            max_depth: Vec::new(),
            scatters: Vec::new(),
            partial_path: Vec::new(),
            collisions: Vec::new(),
            reached: Vec::new(),
        }
    }

    /// Number of archived entries.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// True when no entries are archived.
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// Record a launch (property-independent aggregates).
    #[inline]
    pub fn on_launch(&mut self, specular: f64) {
        self.launched += 1;
        self.specular_weight += specular;
    }

    /// Append one escape event.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn push(
        &mut self,
        class: u8,
        exit_weight: f64,
        exit_radius: f64,
        pathlength: f64,
        max_depth: f64,
        scatters: u32,
        partial_path: &[f64],
        collisions: &[u32],
        reached: &[bool],
    ) {
        debug_assert!(class <= CLASS_TRANSMITTED);
        debug_assert_eq!(partial_path.len(), self.regions);
        self.class.push(class);
        self.task.push(TASK_UNSTAMPED);
        self.exit_weight.push(exit_weight);
        self.exit_radius.push(exit_radius);
        self.pathlength.push(pathlength);
        self.max_depth.push(max_depth);
        self.scatters.push(scatters);
        self.partial_path.extend_from_slice(partial_path);
        self.collisions.extend_from_slice(collisions);
        self.reached.extend(reached.iter().map(|&r| u8::from(r)));
    }

    /// Append a launch that missed a finite grid's lateral extent: full
    /// weight reflects with zero tissue pathlength (ratio ≡ 1).
    pub fn push_launch_miss(&mut self, weight: f64, radius: f64) {
        let zeros_f = vec![0.0; self.regions];
        let zeros_u = vec![0u32; self.regions];
        let zeros_b = vec![false; self.regions];
        self.push(CLASS_LAUNCH_MISS, weight, radius, 0.0, 0.0, 0, &zeros_f, &zeros_u, &zeros_b);
    }

    /// Stamp every entry with the task id that traced it (the engine calls
    /// this right after `run_stream`, when the whole per-task archive
    /// belongs to one task).
    pub fn stamp_task(&mut self, task_id: u64) {
        self.task.fill(task_id);
    }

    /// Append another archive (same regions, mode, and base properties).
    /// The engines merge per-task archives in task order, so merged entry
    /// order is deterministic across backends.
    pub fn merge(&mut self, other: &PathArchive) {
        assert_eq!(self.regions, other.regions, "region count mismatch in archive merge");
        assert_eq!(self.detected_only, other.detected_only, "archive mode mismatch in merge");
        assert_eq!(self.base, other.base, "base optics mismatch in archive merge");
        self.launched += other.launched;
        self.specular_weight += other.specular_weight;
        self.class.extend_from_slice(&other.class);
        self.task.extend_from_slice(&other.task);
        self.exit_weight.extend_from_slice(&other.exit_weight);
        self.exit_radius.extend_from_slice(&other.exit_radius);
        self.pathlength.extend_from_slice(&other.pathlength);
        self.max_depth.extend_from_slice(&other.max_depth);
        self.scatters.extend_from_slice(&other.scatters);
        self.partial_path.extend_from_slice(&other.partial_path);
        self.collisions.extend_from_slice(&other.collisions);
        self.reached.extend_from_slice(&other.reached);
    }

    /// Stable-sort entries by task id, making archives comparable across
    /// merge orders (requeues, completion races). Entries within a task
    /// keep their trace order.
    pub fn canonical_order(&mut self) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by_key(|&i| self.task[i]);
        fn apply<T: Copy>(v: &mut Vec<T>, idx: &[usize]) {
            *v = idx.iter().map(|&i| v[i]).collect();
        }
        fn apply_rows<T: Copy>(v: &mut Vec<T>, idx: &[usize], stride: usize) {
            let mut out = Vec::with_capacity(v.len());
            for &i in idx {
                out.extend_from_slice(&v[i * stride..(i + 1) * stride]);
            }
            *v = out;
        }
        apply(&mut self.class, &idx);
        apply(&mut self.task, &idx);
        apply(&mut self.exit_weight, &idx);
        apply(&mut self.exit_radius, &idx);
        apply(&mut self.pathlength, &idx);
        apply(&mut self.max_depth, &idx);
        apply(&mut self.scatters, &idx);
        apply_rows(&mut self.partial_path, &idx, self.regions);
        apply_rows(&mut self.collisions, &idx, self.regions);
        apply_rows(&mut self.reached, &idx, self.regions);
    }

    /// Precompute the per-region log-space coefficients for a query.
    ///
    /// Rejects queries the archive cannot answer soundly: region-count
    /// mismatch, invalid properties, changed `g` or `n` (they alter the
    /// sampled path measure, not just the weights), or scattering added to
    /// a region the recording run could never scatter in.
    pub fn coeffs(&self, query: &[OpticalProperties]) -> Result<QueryCoeffs, String> {
        if query.len() != self.regions {
            return Err(format!("query has {} regions, archive has {}", query.len(), self.regions));
        }
        let mut ln_mu_s_ratio = Vec::with_capacity(self.regions);
        let mut ln_mu_t_ratio = Vec::with_capacity(self.regions);
        let mut d_mu_t = Vec::with_capacity(self.regions);
        for (r, (q, b)) in query.iter().zip(&self.base).enumerate() {
            q.validate().map_err(|e| format!("region {r}: {e}"))?;
            if q.g != b.g || q.n != b.n {
                return Err(format!(
                    "region {r}: g and n must match the recording run (got g {} n {}, \
                     recorded g {} n {}); they shape the paths, not just the weights",
                    q.g, q.n, b.g, b.n
                ));
            }
            if b.mu_s == 0.0 && q.mu_s != 0.0 {
                return Err(format!(
                    "region {r}: cannot reweight mu_s to {} — the recording run never \
                     scattered there (recorded mu_s 0)",
                    q.mu_s
                ));
            }
            // Force exact zeros at identity so `exp(0.0) == 1.0` makes the
            // identity reweight bit-exact; the `k != 0` guard in `ratios`
            // keeps a 0/0 region (ln undefined) out of the sums — a region
            // with base μt = 0 cannot host a collision.
            ln_mu_s_ratio.push(if q.mu_s == b.mu_s { 0.0 } else { (q.mu_s / b.mu_s).ln() });
            let (qt, bt) = (q.mu_a + q.mu_s, b.mu_a + b.mu_s);
            ln_mu_t_ratio.push(if qt == bt || bt == 0.0 { 0.0 } else { (qt / bt).ln() });
            d_mu_t.push((q.mu_a - b.mu_a) + (q.mu_s - b.mu_s));
        }
        Ok(QueryCoeffs { ln_mu_s_ratio, ln_mu_t_ratio, d_mu_t })
    }

    /// The weight ratio of one entry under a query (one `exp` per call).
    #[inline]
    pub fn ratio(&self, entry: usize, c: &QueryCoeffs) -> f64 {
        self.ratios(entry, c).0
    }

    /// Both importance ratios of one entry under a query:
    ///
    /// * the **weight ratio** `Π (μs′/μs)^k · exp(−Σ Δμt·L)` — scales
    ///   every weight-carrying accumulator (`exit_weight`-based sums,
    ///   R(r)), because the packet's survival weighting and the sampled
    ///   path density combine into exactly this factor;
    /// * the **trajectory-density ratio** `λ = Π (μt′/μt)^k ·
    ///   exp(−Σ Δμt·L)` — scales the tally's *unweighted* per-photon path
    ///   statistics (pathlength, depth, partial-path sums), because steps
    ///   are sampled against μt, so λ alone converts an expectation over
    ///   recorded trajectories into one over perturbed trajectories.
    ///
    /// Both are exactly 1.0 at the recorded properties (their exponents
    /// are forced to 0.0 coefficient-wise), which is what makes an
    /// identity replay bit-exact.
    #[inline]
    pub fn ratios(&self, entry: usize, c: &QueryCoeffs) -> (f64, f64) {
        let row = entry * self.regions;
        let mut expo = 0.0;
        let mut pow_s = 0.0;
        let mut pow_t = 0.0;
        for r in 0..self.regions {
            let k = self.collisions[row + r];
            if k != 0 {
                pow_s += f64::from(k) * c.ln_mu_s_ratio[r];
                pow_t += f64::from(k) * c.ln_mu_t_ratio[r];
            }
            expo -= c.d_mu_t[r] * self.partial_path[row + r];
        }
        ((pow_s + expo).exp(), (pow_t + expo).exp())
    }

    /// Evaluate a query with no optional tallies attached.
    pub fn evaluate(&self, query: &[OpticalProperties]) -> Result<ReweightReport, String> {
        self.evaluate_shaped(query, None, None)
    }

    /// Re-score every archived path for `query` properties, replaying the
    /// recording run's escape events into a fresh tally — optionally with
    /// an R(r) profile and a pathlength histogram attached.
    ///
    /// At the recorded properties every ratio is exactly 1.0 and the
    /// replay reproduces the recording tally's escape-side accumulators
    /// bit for bit: entries replay in the original accumulation order,
    /// grouped into per-task partial sums that merge in task order — the
    /// same summation tree the engine's `TaskFold` builds, so
    /// even the float rounding matches.
    pub fn evaluate_shaped(
        &self,
        query: &[OpticalProperties],
        reflectance: Option<RadialSpec>,
        histogram: Option<(f64, usize)>,
    ) -> Result<ReweightReport, String> {
        let c = self.coeffs(query)?;
        let fresh = || {
            let mut t = Tally::new(self.regions, None, None);
            if let Some((max_mm, bins)) = histogram {
                t = t.with_path_histogram(max_mm, bins);
            }
            if let Some(spec) = reflectance {
                t = t.with_reflectance_profile(spec);
            }
            t
        };
        let mut total = fresh();
        let mut tally = fresh();
        let mut current_task: Option<u64> = None;

        let mut sum_ratio = 0.0;
        let mut sum_ratio_sq = 0.0;
        let mut detected_entries = 0u64;
        for i in 0..self.len() {
            if current_task != Some(self.task[i]) {
                if current_task.is_some() {
                    total.merge(&tally);
                    tally = fresh();
                }
                current_task = Some(self.task[i]);
            }
            let (ratio, lambda) = self.ratios(i, &c);
            let w = ratio * self.exit_weight[i];
            let class = self.class[i];
            // R(r) sees every top-surface escape, exactly as the recording
            // run's escape handler ordered them.
            if class <= CLASS_DETECTED {
                if let Some(p) = tally.reflectance_r.as_mut() {
                    p.record(self.exit_radius[i], w);
                }
            }
            match class {
                CLASS_DETECTED => {
                    detected_entries += 1;
                    sum_ratio += ratio;
                    sum_ratio_sq += ratio * ratio;
                    let l = self.pathlength[i];
                    let row = i * self.regions;
                    tally.detected += 1;
                    tally.detected_weight += w;
                    // The live tally's path statistics are *unweighted* sums
                    // over detected photons, so their importance factor is
                    // the trajectory-density ratio λ, not the weight ratio.
                    tally.detected_path_sum += lambda * l;
                    tally.detected_path_sq_sum += lambda * (l * l);
                    tally.detected_weight_path_sum += w * l;
                    tally.detected_depth_sum += lambda * self.max_depth[i];
                    tally.detected_depth_max = tally.detected_depth_max.max(self.max_depth[i]);
                    tally.detected_scatter_sum += u64::from(self.scatters[i]);
                    for r in 0..self.regions {
                        tally.detected_reached_layer[r] += u64::from(self.reached[row + r] != 0);
                        tally.detected_partial_path[r] += lambda * self.partial_path[row + r];
                    }
                    if let Some(h) = tally.path_histogram.as_mut() {
                        h.record(l);
                    }
                }
                CLASS_MISSED_APERTURE | CLASS_LAUNCH_MISS => {
                    tally.reflected += 1;
                    tally.reflected_weight += w;
                }
                CLASS_NA_REJECTED => {
                    tally.reflected += 1;
                    tally.na_rejected += 1;
                    tally.reflected_weight += w;
                }
                CLASS_GATE_REJECTED => {
                    tally.reflected += 1;
                    tally.gate_rejected += 1;
                    tally.reflected_weight += w;
                }
                CLASS_TRANSMITTED => {
                    tally.transmitted += 1;
                    tally.transmitted_weight += w;
                }
                other => return Err(format!("corrupt archive: entry class {other}")),
            }
        }
        if current_task.is_some() {
            total.merge(&tally);
        }
        total.launched = self.launched;
        total.specular_weight = self.specular_weight;
        let ess = if sum_ratio_sq > 0.0 { sum_ratio * sum_ratio / sum_ratio_sq } else { 0.0 };
        Ok(ReweightReport { tally: total, ess, detected_entries, sum_ratio })
    }

    /// Evaluate a whole sweep of queries, fanning out across one worker
    /// thread per logical CPU — one [`PathArchive::evaluate`] per query,
    /// sharing the read-only archive.
    ///
    /// Queries are independent (nothing is accumulated *across* them),
    /// so each report is bit-identical to its sequential
    /// `evaluate(query)` and results come back in query order; only the
    /// wall-clock changes. This is the batch API the `reweight` bench
    /// leg drives: property sweeps are the archive's whole reason to
    /// exist, and they are embarrassingly parallel.
    pub fn evaluate_many(
        &self,
        queries: &[Vec<OpticalProperties>],
    ) -> Vec<Result<ReweightReport, String>> {
        let slots: Vec<OnceLock<_>> = queries.iter().map(|_| OnceLock::new()).collect();
        for_each_index(available_threads().min(queries.len()), queries.len(), |i| {
            let claimed_once = slots[i].set(self.evaluate(&queries[i])).is_ok();
            debug_assert!(claimed_once);
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every query index was evaluated"))
            .collect()
    }
}

/// A [`Backend`] that answers scenarios from a stored [`PathArchive`]
/// instead of tracing photons: the scenario's tissue supplies the query
/// properties (μa′, μs′ per region), and the replayed tally comes back in
/// an ordinary [`RunReport`]. Registered in the cluster backend registry
/// as `reweight <archive-file>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reweight {
    /// The stored recording to re-score.
    pub archive: PathArchive,
}

impl Reweight {
    /// Wrap a recorded archive.
    pub fn new(archive: PathArchive) -> Self {
        Self { archive }
    }

    /// Evaluate a bare property-set query, with the full
    /// [`ReweightReport`] diagnostics ([`ess`](ReweightReport::ess)).
    pub fn query(&self, query: &[OpticalProperties]) -> Result<ReweightReport, String> {
        self.archive.evaluate(query)
    }

    /// Evaluate a sweep of queries in parallel; see
    /// [`PathArchive::evaluate_many`] for the ordering and bit-identity
    /// contract.
    pub fn query_many(
        &self,
        queries: &[Vec<OpticalProperties>],
    ) -> Vec<Result<ReweightReport, String>> {
        self.archive.evaluate_many(queries)
    }
}

impl Backend for Reweight {
    fn name(&self) -> &'static str {
        "reweight"
    }

    fn run_with_progress(
        &self,
        scenario: &Scenario,
        progress: &dyn Progress,
    ) -> Result<RunReport, EngineError> {
        scenario.validate()?;
        let err = |reason: String| EngineError::backend("reweight", reason);
        if scenario.options.archive.is_some() {
            return Err(err("cannot record a new archive while reweighting one".into()));
        }
        if scenario.options.path_grid.is_some()
            || scenario.options.absorption_grid.is_some()
            || scenario.options.absorption_rz.is_some()
        {
            return Err(err(
                "reweighting cannot reconstruct absorption/visit grids; drop path_grid, \
                 absorption_grid and absorption_rz from the query scenario"
                    .into(),
            ));
        }
        let query: Vec<OpticalProperties> =
            (0..scenario.tissue.region_count()).map(|r| *scenario.tissue.optics(r)).collect();
        let started = Instant::now();
        let report = self
            .archive
            .evaluate_shaped(
                &query,
                scenario.options.reflectance_profile,
                scenario.options.path_histogram,
            )
            .map_err(err)?;
        let launched = report.tally.launched;
        progress.on_photons(launched, launched);
        Ok(RunReport {
            workers: vec![WorkerAccount { tasks_completed: 1, tasks_failed: 0, photons: launched }],
            result: SimulationResult::new(report.tally, Vec::new()),
            requeues: 0,
            wall_seconds: started.elapsed().as_secs_f64(),
            backend: self.name().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base2() -> Vec<OpticalProperties> {
        vec![
            OpticalProperties::new(0.05, 10.0, 0.9, 1.4),
            OpticalProperties::new(0.02, 15.0, 0.9, 1.4),
        ]
    }

    fn archive_with_one_path() -> PathArchive {
        let mut a = PathArchive::new(2, base2(), RecordOptions::default());
        a.on_launch(0.02);
        a.push(CLASS_DETECTED, 0.5, 2.0, 30.0, 4.0, 12, &[20.0, 10.0], &[200, 120], &[true, true]);
        a
    }

    #[test]
    fn identity_ratio_is_exactly_one() {
        let a = archive_with_one_path();
        let c = a.coeffs(&base2()).unwrap();
        assert_eq!(a.ratio(0, &c), 1.0);
    }

    #[test]
    fn higher_mu_a_lowers_the_ratio() {
        let a = archive_with_one_path();
        let mut q = base2();
        q[0].mu_a *= 1.5;
        let c = a.coeffs(&q).unwrap();
        let r = a.ratio(0, &c);
        assert!(r < 1.0, "ratio {r}");
        // exp(−Δμa · L_0) with Δμa = 0.025, L_0 = 20.
        assert!((r - (-0.025f64 * 20.0).exp()).abs() < 1e-12);
    }

    #[test]
    fn queries_that_change_the_path_measure_are_rejected() {
        let a = archive_with_one_path();
        let mut g = base2();
        g[1].g = 0.5;
        assert!(a.coeffs(&g).unwrap_err().contains("g and n"));
        let mut n = base2();
        n[0].n = 1.33;
        assert!(a.coeffs(&n).unwrap_err().contains("g and n"));
        let short = vec![base2()[0]];
        assert!(a.coeffs(&short).unwrap_err().contains("regions"));
        let mut bad = base2();
        bad[0].mu_a = -1.0;
        assert!(a.coeffs(&bad).is_err());
    }

    #[test]
    fn scattering_cannot_be_added_to_a_dead_region() {
        let base = vec![OpticalProperties::new(0.1, 0.0, 0.0, 1.0)];
        let a = PathArchive::new(1, base, RecordOptions::default());
        let q = vec![OpticalProperties::new(0.1, 5.0, 0.0, 1.0)];
        assert!(a.coeffs(&q).unwrap_err().contains("never"));
    }

    #[test]
    fn merge_appends_and_canonical_order_sorts_by_task() {
        let mut a = archive_with_one_path();
        a.stamp_task(7);
        let mut b = archive_with_one_path();
        b.push_launch_miss(1.0, 9.0);
        b.stamp_task(2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_ne!(ab, ba, "merge order shows before canonicalization");
        ab.canonical_order();
        ba.canonical_order();
        assert_eq!(ab, ba);
        assert_eq!(ab.launched, 2);
        assert_eq!(ab.task, vec![2, 2, 7]);
    }

    #[test]
    fn evaluate_replays_aggregates_and_reports_ess() {
        let mut a = archive_with_one_path();
        a.push(CLASS_DETECTED, 0.25, 2.1, 40.0, 5.0, 15, &[25.0, 15.0], &[260, 170], &[true, true]);
        a.push(
            CLASS_MISSED_APERTURE,
            0.8,
            11.0,
            12.0,
            2.0,
            4,
            &[8.0, 4.0],
            &[80, 40],
            &[true, true],
        );
        let rep = a.evaluate(&base2()).unwrap();
        assert_eq!(rep.detected_entries, 2);
        assert_eq!(rep.ess, 2.0);
        assert_eq!(rep.sum_ratio, 2.0);
        assert_eq!(rep.tally.detected, 2);
        assert_eq!(rep.tally.reflected, 1);
        assert_eq!(rep.tally.detected_weight, 0.75);
        assert_eq!(rep.tally.reflected_weight, 0.8);
        assert_eq!(rep.tally.launched, 1);
        assert_eq!(rep.tally.specular_weight, 0.02);

        // A far perturbation collapses the ESS below the detected count.
        let mut q = base2();
        q[0].mu_s *= 3.0;
        q[1].mu_s *= 3.0;
        let far = a.evaluate(&q).unwrap();
        assert!(far.ess < 2.0, "ess {}", far.ess);
    }
}
