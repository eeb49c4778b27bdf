//! Accumulation of simulation results.
//!
//! Each worker owns a private [`Tally`] and tallies are merged after the
//! fact — no shared-memory synchronisation on the photon hot path. This is
//! the design decision that gives the near-linear speedup of the paper's
//! Fig 2 (the only sequential work is O(tally size) merging at the end).
//!
//! The paper's "user defined granularity of results" is [`GridSpec`]: the
//! volume of interest is divided into `nx × ny × nz` voxels (the paper's
//! Fig 3 uses 50³) and detected-photon trajectories deposit visit weight
//! into a [`VisitGrid`].

use crate::error::ConfigError;
use crate::radial::{CylinderGrid, RadialProfile, RadialSpec};
use lumen_photon::{check, Fate, Rule, Vec3};

/// Most cells one tally binning may hold (grid voxels, histogram bins,
/// radial or r×z bins): 2²⁴, 128 MiB of `f64` and ~134× the paper's 50³
/// granularity. A config line or a few wire bytes name a binning, so the
/// cap is what keeps one from sizing an allocation that aborts the process.
pub const MAX_TALLY_CELLS: usize = 1 << 24;

/// A binning's cell count (`None` when its product overflowed) held to
/// `1..=`[`MAX_TALLY_CELLS`]; `what` names it in the error.
pub(crate) fn check_cells(what: &'static str, cells: Option<usize>) -> Result<usize, ConfigError> {
    match cells {
        Some(0) => Err(ConfigError::ZeroCount(what)),
        Some(n) if n <= MAX_TALLY_CELLS => Ok(n),
        _ => Err(ConfigError::TooManyCells(what)),
    }
}

/// Voxelisation of the volume of interest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Voxel counts along x, y, z.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Lower corner of the gridded volume (mm).
    pub min: Vec3,
    /// Upper corner of the gridded volume (mm).
    pub max: Vec3,
}

impl GridSpec {
    /// Cubic grid of `n³` voxels over the given corners — the paper's
    /// "granularity of 50³" is `GridSpec::cubic(50, ..)`.
    pub fn cubic(n: usize, min: Vec3, max: Vec3) -> Self {
        Self { nx: n, ny: n, nz: n, min, max }
    }

    /// Validate the voxel count and extents.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_cells("grid voxels", self.checked_len())?;
        if !(self.min.x < self.max.x && self.min.y < self.max.y && self.min.z < self.max.z) {
            return Err(ConfigError::DegenerateGrid { min: self.min, max: self.max });
        }
        Ok(())
    }

    /// Total voxel count.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// [`Self::len`] for a spec that has not been validated (one decoded
    /// from a peer, say): `None` when the product overflows.
    pub fn checked_len(&self) -> Option<usize> {
        self.nx.checked_mul(self.ny)?.checked_mul(self.nz)
    }

    /// True when the grid has no voxels (impossible after validation).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Voxel edge lengths (mm).
    pub fn voxel_size(&self) -> Vec3 {
        Vec3::new(
            (self.max.x - self.min.x) / self.nx as f64,
            (self.max.y - self.min.y) / self.ny as f64,
            (self.max.z - self.min.z) / self.nz as f64,
        )
    }

    /// Inverse voxel edge lengths (mm⁻¹) — precompute once and pass to
    /// [`Self::index_with_inv`] when indexing in a loop, as
    /// [`VisitGrid::deposit`] does; the three divisions per point become
    /// three multiplications.
    #[inline]
    pub fn inv_voxel_size(&self) -> Vec3 {
        let vs = self.voxel_size();
        Vec3::new(1.0 / vs.x, 1.0 / vs.y, 1.0 / vs.z)
    }

    /// Flattened index of the voxel containing `p`, or `None` outside.
    #[inline]
    pub fn index_of(&self, p: Vec3) -> Option<usize> {
        self.index_with_inv(p, self.inv_voxel_size())
    }

    /// [`Self::index_of`] with the inverse voxel size already computed.
    ///
    /// Branch-lean: one sign check and one bounds check cover all three
    /// axes. A point below `min` on some axis gives a negative fractional
    /// coordinate (exactly: subtraction of nearby doubles is exact by
    /// Sterbenz, so the sign cannot be lost to rounding), and a point at or
    /// beyond `max` truncates to an index `>= n`.
    ///
    /// Caveat, stated rather than hidden: multiplying by `1/vs` is not
    /// universally bit-identical to dividing by `vs` — a sample within an
    /// ulp of a bin edge can land one voxel over relative to the division
    /// form. That is acceptable *here* and only here: bin assignment is
    /// pure output discretization (nothing feeds back into photon
    /// dynamics), the deposit-sampling scheme's own half-voxel spacing
    /// dwarfs a one-ulp edge ambiguity, and the golden digests pin the
    /// result for every checked scenario. The transport kernel makes the
    /// opposite call for the same reason — see `DerivedOptics::inv_mu_t`,
    /// which exists but is deliberately *not* used by `hop`.
    #[inline]
    pub fn index_with_inv(&self, p: Vec3, inv_vs: Vec3) -> Option<usize> {
        let fx = (p.x - self.min.x) * inv_vs.x;
        let fy = (p.y - self.min.y) * inv_vs.y;
        let fz = (p.z - self.min.z) * inv_vs.z;
        if fx < 0.0 || fy < 0.0 || fz < 0.0 {
            return None;
        }
        let (ix, iy, iz) = (fx as usize, fy as usize, fz as usize);
        if ix >= self.nx || iy >= self.ny || iz >= self.nz {
            return None;
        }
        Some((iz * self.ny + iy) * self.nx + ix)
    }

    /// Inverse of [`Self::index_of`]: voxel centre coordinates.
    pub fn centre_of(&self, idx: usize) -> Vec3 {
        let ix = idx % self.nx;
        let iy = (idx / self.nx) % self.ny;
        let iz = idx / (self.nx * self.ny);
        let vs = self.voxel_size();
        Vec3::new(
            self.min.x + (ix as f64 + 0.5) * vs.x,
            self.min.y + (iy as f64 + 0.5) * vs.y,
            self.min.z + (iz as f64 + 0.5) * vs.z,
        )
    }
}

/// The cells of a dense `f64` tally attachment — a [`VisitGrid`]'s voxels,
/// a [`CylinderGrid`]'s `(r, z)` cells, a [`RadialProfile`]'s bins.
///
/// Every operation gives exactly the bits a `Vec<f64>` of `len` cells
/// starting at `+0.0` would, but the store holds no storage until the
/// first write that can change a bit. Until then it is *untouched*: `new`,
/// `clone`, `merge`, equality and encoding cost O(1) in the cell count,
/// which is what a task that deposited nothing — most tasks of a small
/// budget under a 50³ grid — should cost. The rules about zero that make
/// the untouched state exact live here and nowhere else:
///
/// * `+0.0 + w` is `+0.0` for `w = ±0.0`, so such a deposit leaves the
///   store untouched; `+0.0 · k` is `+0.0` unless `k` is negative, infinite
///   or NaN, so only those scales materialise it.
/// * Merging an untouched store adds `+0.0` to every cell, which turns a
///   `-0.0` into `+0.0` (and quiets a signalling NaN); into an untouched
///   store it is a no-op.
/// * A sum of `+0.0` cells is `+0.0`, but an empty `f64` sum is `-0.0`:
///   an untouched store's [`Cells::sum`] adds one cell, not none.
/// * Equality compares values: an untouched store equals a touched one
///   whose cells are all `±0.0`.
#[derive(Debug, Clone)]
pub struct Cells {
    len: usize,
    /// Empty while untouched, `len` values once touched.
    data: Vec<f64>,
}

impl Cells {
    /// `len` untouched cells: no allocation, every cell `+0.0`.
    pub fn new(len: usize) -> Self {
        Self { len, data: Vec::new() }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a store of no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the store holds storage (a write that could change a bit
    /// has reached it). Never observable through the values.
    pub fn is_touched(&self) -> bool {
        !self.data.is_empty()
    }

    /// The stored cells, or `None` while untouched (every cell `+0.0`).
    pub fn touched(&self) -> Option<&[f64]> {
        self.is_touched().then_some(&self.data[..])
    }

    /// Value of cell `i`; panics when `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self.data.get(i) {
            Some(&v) => v,
            None => {
                assert!(i < self.len, "cell {i} out of range for {} cells", self.len);
                0.0
            }
        }
    }

    /// Every cell in order, `+0.0` for an untouched store.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let untouched = if self.is_touched() { 0 } else { self.len };
        self.data.iter().copied().chain(std::iter::repeat_n(0.0, untouched))
    }

    /// Every cell, dense — allocates `len` values even when untouched.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }

    /// Cell `i` += `w`; panics when `i >= len`.
    #[inline]
    pub fn add(&mut self, i: usize, w: f64) {
        match self.data.get_mut(i) {
            Some(cell) => *cell += w,
            None => self.add_untouched(i, w),
        }
    }

    #[cold]
    #[inline(never)]
    fn add_untouched(&mut self, i: usize, w: f64) {
        assert!(i < self.len, "cell {i} out of range for {} cells", self.len);
        let v = 0.0 + w;
        if v.to_bits() != 0 {
            self.materialise()[i] = v;
        }
    }

    /// Overwrite cells `start..` with `values` (no more than fit) — how a
    /// decoder fills in the literals it read. Writing no values leaves an
    /// untouched store untouched.
    pub fn write(&mut self, start: usize, values: impl IntoIterator<Item = f64>) {
        let mut values = values.into_iter().peekable();
        if values.peek().is_none() {
            return;
        }
        for (cell, v) in self.materialise()[start..].iter_mut().zip(values) {
            *cell = v;
        }
    }

    /// The cells as a stored slice, allocating `len` `+0.0` values if the
    /// store is untouched.
    fn materialise(&mut self) -> &mut [f64] {
        if !self.is_touched() {
            self.data = vec![0.0; self.len];
        }
        &mut self.data
    }

    /// Add `other` cell by cell (lengths must match).
    pub fn merge(&mut self, other: &Cells) {
        assert_eq!(self.len, other.len, "cell count mismatch in merge");
        match (self.is_touched(), other.touched()) {
            (_, None) => self.data.iter_mut().for_each(|a| *a += 0.0),
            (false, Some(b)) => {
                // `+0.0 + b`, as the dense sum would: `-0.0` becomes `+0.0`.
                self.data = b.iter().map(|&b| 0.0 + b).collect();
            }
            (true, Some(b)) => {
                for (a, b) in self.data.iter_mut().zip(b) {
                    *a += b;
                }
            }
        }
    }

    /// Multiply every cell by `factor`.
    pub fn scale(&mut self, factor: f64) {
        if !self.is_touched() {
            let v = 0.0 * factor;
            if v.to_bits() != 0 {
                self.data = vec![v; self.len];
            }
            return;
        }
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Sum of every cell, in index order.
    pub fn sum(&self) -> f64 {
        match self.touched() {
            Some(cells) => cells.iter().sum(),
            // The sum of `len` `+0.0` cells is the sum of (at most) one.
            None => std::iter::repeat_n(0.0, self.len.min(1)).sum(),
        }
    }

    /// Largest cell, folded from `0.0`.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }
}

/// A touched store over `data`, one value per cell.
impl From<Vec<f64>> for Cells {
    fn from(data: Vec<f64>) -> Self {
        Self { len: data.len(), data }
    }
}

/// Value equality, as a `Vec<f64>` of the cells would compare.
impl PartialEq for Cells {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && match (self.touched(), other.touched()) {
                (Some(a), Some(b)) => a == b,
                (Some(a), None) | (None, Some(a)) => a.iter().all(|&v| v == 0.0),
                (None, None) => true,
            }
    }
}

/// Dense voxel accumulator for path-visit weight (or absorbed weight).
#[derive(Debug, Clone, PartialEq)]
pub struct VisitGrid {
    pub spec: GridSpec,
    cells: Cells,
    /// Cached `spec.inv_voxel_size()`: deposits are the engine's innermost
    /// tally write, and recomputing three divisions per sample dominated
    /// `deposit_segment`. Derived from `spec` at construction; `spec` is
    /// never mutated afterwards.
    inv_vs: Vec3,
    /// Cached half of the smallest voxel edge — `deposit_segment`'s sample
    /// spacing.
    half_min_edge: f64,
}

impl VisitGrid {
    /// An empty grid over `spec`.
    pub fn new(spec: GridSpec) -> Self {
        let cells = Cells::new(spec.checked_len().unwrap_or(0));
        Self::from_cells(spec, cells).expect("invalid grid spec")
    }

    /// A grid over `spec` that takes `cells` as its storage (one value per
    /// voxel, z-major as defined by [`GridSpec::index_of`]) — how a decoder
    /// rebuilds a grid without re-depositing cell by cell. Nothing about
    /// the inputs is trusted: an invalid spec or a miscounted store is an
    /// error, never a panic.
    pub fn from_cells(spec: GridSpec, cells: Cells) -> Result<Self, ConfigError> {
        spec.validate()?;
        if cells.len() != spec.len() {
            return Err(ConfigError::CellCount { expected: spec.len(), got: cells.len() });
        }
        let vs = spec.voxel_size();
        Ok(Self {
            spec,
            cells,
            inv_vs: spec.inv_voxel_size(),
            half_min_edge: 0.5 * vs.x.min(vs.y).min(vs.z),
        })
    }

    /// Deposit `w` at point `p` (ignored outside the grid).
    #[inline]
    pub fn deposit(&mut self, p: Vec3, w: f64) {
        if let Some(i) = self.spec.index_with_inv(p, self.inv_vs) {
            self.cells.add(i, w);
        }
    }

    /// Deposit `w` along the segment `a → b`, sampling at half-voxel
    /// spacing so thin diagonal segments still mark every voxel they pass
    /// through. Weight is split evenly across the samples so a segment
    /// contributes `w` in total.
    pub fn deposit_segment(&mut self, a: Vec3, b: Vec3, w: f64) {
        let step = self.half_min_edge;
        let length = a.distance(b);
        if length <= step {
            self.deposit(b, w);
            return;
        }
        let n = (length / step).ceil() as usize;
        let dw = w / (n as f64 + 1.0);
        let dir = (b - a) / length;
        for i in 0..=n {
            let t = (i as f64 / n as f64) * length;
            self.deposit(a + dir * t, dw);
        }
    }

    /// The voxel values, z-major as defined by [`GridSpec::index_of`].
    pub fn cells(&self) -> &Cells {
        &self.cells
    }

    /// Value of voxel `idx`.
    pub fn value(&self, idx: usize) -> f64 {
        self.cells.get(idx)
    }

    /// Sum of all voxel values.
    pub fn total(&self) -> f64 {
        self.cells.sum()
    }

    /// Largest voxel value.
    pub fn max_value(&self) -> f64 {
        self.cells.max()
    }

    /// Merge another grid's weight into this one (specs must match).
    pub fn merge(&mut self, other: &VisitGrid) {
        assert_eq!(self.spec, other.spec, "cannot merge grids with different specs");
        self.cells.merge(&other.cells);
    }

    /// Scale every voxel (e.g. 1/N normalisation).
    pub fn scale(&mut self, factor: f64) {
        self.cells.scale(factor);
    }
}

/// Fixed-bin histogram of detected-photon pathlengths (mm).
///
/// Lives in the tally (not the analysis crate) so workers can accumulate
/// and merge it like every other tally; `lumen-analysis` converts it into
/// a temporal point-spread function.
#[derive(Debug, Clone, PartialEq)]
pub struct PathHistogram {
    /// Upper edge of the binned range (mm); lower edge is 0.
    pub max_mm: f64,
    /// Per-bin detected-photon counts.
    pub counts: Vec<u64>,
    /// Detections with pathlength >= max_mm.
    pub overflow: u64,
}

impl PathHistogram {
    /// Empty histogram with `bins` uniform bins over `[0, max_mm)`.
    pub fn new(max_mm: f64, bins: usize) -> Self {
        Self::from_counts(max_mm, vec![0; bins], 0).expect("invalid path histogram spec")
    }

    /// A histogram over `[0, max_mm)` that takes `counts` (one per bin) as
    /// its storage — how a decoder rebuilds one. A range that is not finite
    /// and positive, or no bins, is an error, never a panic.
    pub fn from_counts(max_mm: f64, counts: Vec<u64>, overflow: u64) -> Result<Self, ConfigError> {
        Self::check_binning(max_mm, counts.len())?;
        Ok(Self { max_mm, counts, overflow })
    }

    /// The binning rule: a finite positive range and one bin up to the
    /// tally cell cap.
    pub(crate) fn check_binning(max_mm: f64, bins: usize) -> Result<(), ConfigError> {
        check_cells("path_histogram bins", Some(bins))?;
        Ok(check("path_histogram max_mm", max_mm, Rule::Positive)?)
    }

    /// Record one detected pathlength.
    #[inline]
    pub fn record(&mut self, pathlength_mm: f64) {
        if pathlength_mm >= self.max_mm {
            self.overflow += 1;
        } else {
            let n_bins = self.counts.len();
            let bin = (pathlength_mm / self.max_mm * n_bins as f64) as usize;
            self.counts[bin.min(n_bins - 1)] += 1;
        }
    }

    /// Total recorded detections.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }

    /// Centre of bin `i` (mm).
    pub fn bin_centre(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * self.max_mm / self.counts.len() as f64
    }

    /// Merge a worker histogram (binning must match).
    pub fn merge(&mut self, other: &PathHistogram) {
        assert_eq!(self.max_mm, other.max_mm, "path histogram range mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "path histogram bin mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
    }
}

/// Everything a simulation accumulates.
///
/// Weights are normalised per launched photon when converted into a
/// [`crate::results::SimulationResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tally {
    /// Photons launched.
    pub launched: u64,
    /// Photon count by fate.
    pub detected: u64,
    pub reflected: u64,
    pub transmitted: u64,
    pub roulette_killed: u64,
    pub fully_absorbed: u64,
    pub expired: u64,
    /// Photons that hit the aperture but failed the pathlength gate.
    pub gate_rejected: u64,
    /// Photons that hit the aperture but exited outside the acceptance
    /// cone (numerical aperture).
    pub na_rejected: u64,

    /// Weight sums (per launched photon when normalised).
    pub specular_weight: f64,
    pub detected_weight: f64,
    pub reflected_weight: f64,
    pub transmitted_weight: f64,

    /// Absorbed weight per tissue layer.
    pub absorbed_by_layer: Vec<f64>,

    /// Pathlength moments over *detected* photons (for the differential
    /// pathlength / DPF statistics the paper motivates).
    pub detected_path_sum: f64,
    pub detected_path_sq_sum: f64,
    /// Weighted pathlength sums (weight-averaged DPF).
    pub detected_weight_path_sum: f64,

    /// Penetration-depth moments over detected photons.
    pub detected_depth_sum: f64,
    pub detected_depth_max: f64,
    /// Count of detected photons whose walk reached each layer.
    pub detected_reached_layer: Vec<u64>,
    /// Sum over detected photons of the pathlength accrued inside each
    /// layer (mm) — the *partial pathlengths* that quantify which layer
    /// dominates the detected signal (Beer–Lambert sensitivity).
    pub detected_partial_path: Vec<f64>,

    /// Scatter-count total over detected photons.
    pub detected_scatter_sum: u64,

    /// Optional visit grid over detected photon trajectories (Fig 3/4).
    pub path_grid: Option<VisitGrid>,
    /// Optional absorption grid (all photons deposit absorbed weight).
    pub absorption_grid: Option<VisitGrid>,
    /// Optional detected-pathlength histogram (for TPSFs / gating design).
    pub path_histogram: Option<PathHistogram>,
    /// Optional radial diffuse-reflectance profile R(r) (MCML-style).
    pub reflectance_r: Option<RadialProfile>,
    /// Optional cylindrical absorption grid A(r, z) (MCML-style).
    pub absorption_rz: Option<CylinderGrid>,
    /// Optional path archive recording escape events for perturbation-MC
    /// reweighting (see [`crate::archive`]).
    pub archive: Option<crate::archive::PathArchive>,
}

impl Tally {
    /// Empty tally for a model with `n_layers` layers; grids are attached
    /// according to the simulation options.
    pub fn new(
        n_layers: usize,
        path_grid: Option<GridSpec>,
        absorption_grid: Option<GridSpec>,
    ) -> Self {
        Self {
            launched: 0,
            detected: 0,
            reflected: 0,
            transmitted: 0,
            roulette_killed: 0,
            fully_absorbed: 0,
            expired: 0,
            gate_rejected: 0,
            na_rejected: 0,
            specular_weight: 0.0,
            detected_weight: 0.0,
            reflected_weight: 0.0,
            transmitted_weight: 0.0,
            absorbed_by_layer: vec![0.0; n_layers],
            detected_path_sum: 0.0,
            detected_path_sq_sum: 0.0,
            detected_weight_path_sum: 0.0,
            detected_depth_sum: 0.0,
            detected_depth_max: 0.0,
            detected_reached_layer: vec![0; n_layers],
            detected_partial_path: vec![0.0; n_layers],
            detected_scatter_sum: 0,
            path_grid: path_grid.map(VisitGrid::new),
            absorption_grid: absorption_grid.map(VisitGrid::new),
            path_histogram: None,
            reflectance_r: None,
            absorption_rz: None,
            archive: None,
        }
    }

    /// Attach a detected-pathlength histogram.
    pub fn with_path_histogram(mut self, max_mm: f64, bins: usize) -> Self {
        self.path_histogram = Some(PathHistogram::new(max_mm, bins));
        self
    }

    /// Attach an MCML-style radial reflectance profile.
    pub fn with_reflectance_profile(mut self, spec: RadialSpec) -> Self {
        self.reflectance_r = Some(RadialProfile::new(spec));
        self
    }

    /// Attach an MCML-style cylindrical absorption grid.
    pub fn with_absorption_rz(mut self, radial: RadialSpec, nz: usize, z_max: f64) -> Self {
        self.absorption_rz = Some(CylinderGrid::new(radial, nz, z_max));
        self
    }

    /// Attach a path archive for perturbation-MC recording.
    pub fn with_archive(mut self, archive: crate::archive::PathArchive) -> Self {
        self.archive = Some(archive);
        self
    }

    /// Record a terminal fate's counters (weight bookkeeping is done by the
    /// engine as it learns the exit weight).
    pub fn count_fate(&mut self, fate: Fate) {
        match fate {
            Fate::Detected => self.detected += 1,
            Fate::ReflectedOut => self.reflected += 1,
            Fate::Transmitted => self.transmitted += 1,
            Fate::RouletteKilled => self.roulette_killed += 1,
            Fate::Absorbed => self.fully_absorbed += 1,
            Fate::Expired => self.expired += 1,
            Fate::Alive => unreachable!("cannot tally a live photon"),
        }
    }

    /// Total absorbed weight across layers.
    pub fn total_absorbed(&self) -> f64 {
        self.absorbed_by_layer.iter().sum()
    }

    /// Whether `other` has this tally's shape — the same layer count and
    /// the same attachments over the same binning — which is exactly what
    /// [`Tally::merge`] asserts. A tally built here always does; one that
    /// arrived from a peer must be asked before it is merged.
    pub fn same_shape(&self, other: &Tally) -> bool {
        fn same<T, K: PartialEq>(a: &Option<T>, b: &Option<T>, key: impl Fn(&T) -> K) -> bool {
            a.as_ref().map(&key) == b.as_ref().map(&key)
        }
        self.absorbed_by_layer.len() == other.absorbed_by_layer.len()
            && self.detected_reached_layer.len() == other.detected_reached_layer.len()
            && self.detected_partial_path.len() == other.detected_partial_path.len()
            && same(&self.path_grid, &other.path_grid, |g| g.spec)
            && same(&self.absorption_grid, &other.absorption_grid, |g| g.spec)
            && same(&self.path_histogram, &other.path_histogram, |h| (h.max_mm, h.counts.len()))
            && same(&self.reflectance_r, &other.reflectance_r, |p| p.spec)
            && same(&self.absorption_rz, &other.absorption_rz, |g| (g.radial, g.nz, g.z_max))
            && same(&self.archive, &other.archive, |a| (a.regions, a.detected_only))
            && self.archive.as_ref().map(|a| &a.base) == other.archive.as_ref().map(|a| &a.base)
    }

    /// Merge a worker tally into this aggregate — the DataManager's
    /// "processes the returned results" step.
    pub fn merge(&mut self, other: &Tally) {
        assert_eq!(
            self.absorbed_by_layer.len(),
            other.absorbed_by_layer.len(),
            "layer count mismatch in tally merge"
        );
        self.launched += other.launched;
        self.detected += other.detected;
        self.reflected += other.reflected;
        self.transmitted += other.transmitted;
        self.roulette_killed += other.roulette_killed;
        self.fully_absorbed += other.fully_absorbed;
        self.expired += other.expired;
        self.gate_rejected += other.gate_rejected;
        self.na_rejected += other.na_rejected;
        self.specular_weight += other.specular_weight;
        self.detected_weight += other.detected_weight;
        self.reflected_weight += other.reflected_weight;
        self.transmitted_weight += other.transmitted_weight;
        for (a, b) in self.absorbed_by_layer.iter_mut().zip(&other.absorbed_by_layer) {
            *a += b;
        }
        self.detected_path_sum += other.detected_path_sum;
        self.detected_path_sq_sum += other.detected_path_sq_sum;
        self.detected_weight_path_sum += other.detected_weight_path_sum;
        self.detected_depth_sum += other.detected_depth_sum;
        self.detected_depth_max = self.detected_depth_max.max(other.detected_depth_max);
        for (a, b) in self.detected_reached_layer.iter_mut().zip(&other.detected_reached_layer) {
            *a += b;
        }
        for (a, b) in self.detected_partial_path.iter_mut().zip(&other.detected_partial_path) {
            *a += b;
        }
        self.detected_scatter_sum += other.detected_scatter_sum;
        match (&mut self.path_grid, &other.path_grid) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("path grid presence mismatch in tally merge"),
        }
        match (&mut self.absorption_grid, &other.absorption_grid) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("absorption grid presence mismatch in tally merge"),
        }
        match (&mut self.path_histogram, &other.path_histogram) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("path histogram presence mismatch in tally merge"),
        }
        match (&mut self.reflectance_r, &other.reflectance_r) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("reflectance profile presence mismatch in tally merge"),
        }
        match (&mut self.absorption_rz, &other.absorption_rz) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("cylindrical grid presence mismatch in tally merge"),
        }
        match (&mut self.archive, &other.archive) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("path archive presence mismatch in tally merge"),
        }
    }

    /// Conservation check: specular + detected + reflected + transmitted +
    /// absorbed should account for all launched weight, up to the weight
    /// destroyed by roulette (which is unbiased but not per-photon exact)
    /// and expired photons. Returns the accounted fraction.
    pub fn accounted_weight_fraction(&self) -> f64 {
        if self.launched == 0 {
            return 1.0;
        }
        (self.specular_weight
            + self.detected_weight
            + self.reflected_weight
            + self.transmitted_weight
            + self.total_absorbed())
            / self.launched as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> GridSpec {
        GridSpec::cubic(10, Vec3::new(-5.0, -5.0, 0.0), Vec3::new(5.0, 5.0, 10.0))
    }

    #[test]
    fn grid_indexing_round_trip() {
        let s = spec();
        for idx in [0usize, 1, 99, 500, 999] {
            let c = s.centre_of(idx);
            assert_eq!(s.index_of(c), Some(idx), "idx {idx}, centre {c:?}");
        }
    }

    #[test]
    fn grid_rejects_outside_points() {
        let s = spec();
        assert_eq!(s.index_of(Vec3::new(-5.1, 0.0, 5.0)), None);
        assert_eq!(s.index_of(Vec3::new(0.0, 0.0, -0.1)), None);
        assert_eq!(s.index_of(Vec3::new(0.0, 0.0, 10.1)), None);
        // Lower corner is inside, upper corner is outside (half-open).
        assert!(s.index_of(Vec3::new(-5.0, -5.0, 0.0)).is_some());
        assert!(s.index_of(Vec3::new(5.0, 5.0, 10.0)).is_none());
    }

    #[test]
    fn grid_spec_validation() {
        assert!(spec().validate().is_ok());
        let bad = GridSpec::cubic(0, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(bad.validate(), Err(ConfigError::ZeroCount("grid voxels")));
        let degenerate = GridSpec::cubic(10, Vec3::ZERO, Vec3::ZERO);
        assert_eq!(
            degenerate.validate(),
            Err(ConfigError::DegenerateGrid { min: Vec3::ZERO, max: Vec3::ZERO })
        );
    }

    #[test]
    fn deposit_accumulates() {
        let mut g = VisitGrid::new(spec());
        let p = Vec3::new(0.0, 0.0, 5.0);
        g.deposit(p, 1.0);
        g.deposit(p, 0.5);
        let idx = g.spec.index_of(p).unwrap();
        assert!((g.value(idx) - 1.5).abs() < 1e-12);
        assert!((g.total() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_cells_takes_the_storage_and_rejects_what_new_would_panic_on() {
        let mut data = vec![0.0; spec().len()];
        data[7] = -0.0;
        data[8] = 2.5;
        let g = VisitGrid::from_cells(spec(), data.clone().into()).unwrap();
        assert_eq!(g.value(7).to_bits(), (-0.0f64).to_bits());
        assert_eq!(g.value(8), 2.5);
        // Same derived state as `new`: deposits land in the same voxels.
        let (mut a, mut b) =
            (VisitGrid::new(spec()), VisitGrid::from_cells(spec(), data.into()).unwrap());
        a.deposit(spec().centre_of(8), 2.5);
        b.deposit(spec().centre_of(7), 1.0);
        assert_eq!(a.value(8), b.value(8));
        assert_eq!(b.value(7), 1.0);

        assert_eq!(
            VisitGrid::from_cells(spec(), Cells::new(999)),
            Err(ConfigError::CellCount { expected: 1000, got: 999 })
        );
        let empty = GridSpec { nx: 0, ..spec() };
        assert_eq!(
            VisitGrid::from_cells(empty, Cells::new(0)),
            Err(ConfigError::ZeroCount("grid voxels"))
        );
        let huge = GridSpec { nx: usize::MAX, ny: 2, ..spec() };
        assert_eq!(
            VisitGrid::from_cells(huge, Cells::new(0)),
            Err(ConfigError::TooManyCells("grid voxels"))
        );
        let over = GridSpec { nx: 1 << 12, ny: 1 << 12, nz: 2, ..spec() };
        assert_eq!(over.validate(), Err(ConfigError::TooManyCells("grid voxels")));
        assert!(GridSpec { nz: 1, ..over }.validate().is_ok());
    }

    #[test]
    fn histogram_from_counts_takes_the_storage_and_rejects_what_new_would_panic_on() {
        let mut recorded = PathHistogram::new(100.0, 4);
        recorded.record(30.0);
        recorded.record(250.0);
        assert_eq!(PathHistogram::from_counts(100.0, vec![0, 1, 0, 0], 1), Ok(recorded));
        for max_mm in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                PathHistogram::from_counts(max_mm, vec![0; 4], 0),
                Err(ConfigError::Field(_))
            ));
        }
        assert_eq!(
            PathHistogram::from_counts(100.0, Vec::new(), 0),
            Err(ConfigError::ZeroCount("path_histogram bins"))
        );
        assert_eq!(
            PathHistogram::check_binning(100.0, usize::MAX),
            Err(ConfigError::TooManyCells("path_histogram bins"))
        );
        assert!(PathHistogram::check_binning(100.0, MAX_TALLY_CELLS).is_ok());
    }

    #[test]
    fn deposit_outside_is_ignored() {
        let mut g = VisitGrid::new(spec());
        g.deposit(Vec3::new(100.0, 0.0, 0.0), 1.0);
        assert_eq!(g.total(), 0.0);
    }

    #[test]
    fn segment_deposit_conserves_weight_inside() {
        let mut g = VisitGrid::new(spec());
        g.deposit_segment(Vec3::new(-4.0, 0.0, 1.0), Vec3::new(4.0, 0.0, 9.0), 2.0);
        assert!((g.total() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn segment_deposit_marks_multiple_voxels() {
        let mut g = VisitGrid::new(spec());
        g.deposit_segment(Vec3::new(-4.5, 0.0, 0.5), Vec3::new(4.5, 0.0, 0.5), 1.0);
        let occupied = g.cells().iter().filter(|&v| v > 0.0).count();
        assert!(occupied >= 9, "only {occupied} voxels hit by a 9 mm segment");
    }

    #[test]
    fn short_segment_deposits_at_endpoint() {
        let mut g = VisitGrid::new(spec());
        let b = Vec3::new(0.1, 0.0, 5.0);
        g.deposit_segment(Vec3::new(0.0, 0.0, 5.0), b, 1.0);
        assert!((g.value(g.spec.index_of(b).unwrap()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tally_merge_sums_everything() {
        let mut a = Tally::new(2, Some(spec()), None);
        let mut b = Tally::new(2, Some(spec()), None);
        a.launched = 10;
        b.launched = 5;
        a.detected = 2;
        b.detected = 1;
        a.absorbed_by_layer[0] = 1.0;
        b.absorbed_by_layer[0] = 0.5;
        b.absorbed_by_layer[1] = 0.25;
        a.path_grid.as_mut().unwrap().deposit(Vec3::new(0.0, 0.0, 5.0), 1.0);
        b.path_grid.as_mut().unwrap().deposit(Vec3::new(0.0, 0.0, 5.0), 2.0);
        a.merge(&b);
        assert_eq!(a.launched, 15);
        assert_eq!(a.detected, 3);
        assert!((a.absorbed_by_layer[0] - 1.5).abs() < 1e-12);
        assert!((a.absorbed_by_layer[1] - 0.25).abs() < 1e-12);
        assert!((a.path_grid.as_ref().unwrap().total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn same_shape_is_merges_precondition() {
        use crate::archive::{PathArchive, RecordOptions};
        const RADIAL: RadialSpec = RadialSpec { nr: 4, r_max: 2.0 };
        const WIDER: RadialSpec = RadialSpec { nr: 4, r_max: 3.0 };
        fn full() -> Tally {
            let optics = lumen_photon::OpticalProperties::new(0.05, 10.0, 0.9, 1.4);
            Tally::new(2, Some(spec()), Some(spec()))
                .with_path_histogram(100.0, 8)
                .with_reflectance_profile(RADIAL)
                .with_absorption_rz(RADIAL, 3, 6.0)
                .with_archive(PathArchive::new(2, vec![optics; 2], RecordOptions::default()))
        }
        let base = full();
        // Contents never matter, only the binning.
        let mut filled = full();
        filled.launched = 9;
        filled.path_grid.as_mut().unwrap().deposit(Vec3::new(0.0, 0.0, 5.0), 1.0);
        assert!(base.same_shape(&filled) && filled.same_shape(&base));

        let mismatches: [fn(&mut Tally); 12] = [
            |t| t.absorbed_by_layer.push(0.0),
            |t| t.detected_reached_layer.truncate(1),
            |t| t.detected_partial_path.clear(),
            |t| t.path_grid = None,
            |t| {
                let coarse = GridSpec::cubic(5, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
                t.absorption_grid = Some(VisitGrid::new(coarse));
            },
            |t| t.path_histogram = Some(PathHistogram::new(100.0, 9)),
            |t| t.path_histogram = Some(PathHistogram::new(50.0, 8)),
            |t| t.reflectance_r = Some(RadialProfile::new(WIDER)),
            |t| t.absorption_rz = Some(CylinderGrid::new(WIDER, 3, 6.0)),
            |t| t.absorption_rz = Some(CylinderGrid::new(RADIAL, 4, 6.0)),
            |t| t.archive = None,
            |t| t.archive.as_mut().unwrap().detected_only = true,
        ];
        for (i, mutate) in mismatches.iter().enumerate() {
            let mut other = full();
            mutate(&mut other);
            assert!(!base.same_shape(&other) && !other.same_shape(&base), "mismatch {i}");
        }
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn tally_merge_rejects_layer_mismatch() {
        let mut a = Tally::new(2, None, None);
        let b = Tally::new(3, None, None);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "different specs")]
    fn grid_merge_rejects_spec_mismatch() {
        let mut a = VisitGrid::new(spec());
        let b = VisitGrid::new(GridSpec::cubic(5, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0)));
        a.merge(&b);
    }

    #[test]
    fn scale_multiplies_all() {
        let mut g = VisitGrid::new(spec());
        g.deposit(Vec3::new(0.0, 0.0, 5.0), 4.0);
        g.scale(0.25);
        assert!((g.total() - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn index_of_within_bounds_is_valid(
            x in -5.0f64..5.0, y in -5.0f64..5.0, z in 0.0f64..10.0
        ) {
            let s = spec();
            let idx = s.index_of(Vec3::new(x, y, z));
            prop_assert!(idx.is_some());
            prop_assert!(idx.unwrap() < s.len());
        }

        #[test]
        fn merge_is_commutative_on_counts(
            la in 0u64..1000, lb in 0u64..1000, da in 0u64..100, db in 0u64..100
        ) {
            let mut a1 = Tally::new(1, None, None);
            let mut b1 = Tally::new(1, None, None);
            a1.launched = la; a1.detected = da;
            b1.launched = lb; b1.detected = db;
            let mut ab = a1.clone(); ab.merge(&b1);
            let mut ba = b1.clone(); ba.merge(&a1);
            prop_assert_eq!(ab.launched, ba.launched);
            prop_assert_eq!(ab.detected, ba.detected);
        }
    }
}
