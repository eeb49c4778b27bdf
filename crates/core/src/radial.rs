//! Cylindrical (r, z) tallies — the classic MCML outputs.
//!
//! The layered problem is azimuthally symmetric about the source axis, so
//! the natural scoring grids are radial:
//!
//! * [`RadialProfile`] — diffuse reflectance `R(r)` (weight escaping the
//!   top surface per unit area, binned by exit radius). This is the
//!   quantity the diffusion approximation predicts analytically, which
//!   gives us an independent check of the whole transport engine
//!   (see `lumen-analysis`'s `diffusion` module).
//! * [`CylinderGrid`] — absorbed weight `A(r, z)`, the rotational
//!   equivalent of the Cartesian absorption grid.
//!
//! Bins are uniform in `r`; values can be read raw (weight per bin) or
//! normalised per unit area (dividing by the annular bin area), which is
//! what `R(r)` means physically.

use crate::error::ConfigError;
use crate::tally::{check_cells, Cells};
use lumen_photon::{check, Rule};

/// Uniform radial binning over `[0, r_max)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadialSpec {
    /// Number of radial bins.
    pub nr: usize,
    /// Outer radius (mm); exits beyond it go to the overflow bin.
    pub r_max: f64,
}

impl RadialSpec {
    /// Validate: one bin up to the tally cell cap, finite positive
    /// `r_max`. The errors name the fields as `r_max` and `bins`, so a
    /// config with two radial binnings is told which one to fix.
    pub fn validate(&self, r_max: &'static str, bins: &'static str) -> Result<(), ConfigError> {
        check_cells(bins, Some(self.nr))?;
        Ok(check(r_max, self.r_max, Rule::Positive)?)
    }

    /// Bin width (mm).
    #[inline]
    pub fn dr(&self) -> f64 {
        self.r_max / self.nr as f64
    }

    /// Bin index for radius `r`, or `None` beyond `r_max`.
    #[inline]
    pub fn bin_of(&self, r: f64) -> Option<usize> {
        if r < 0.0 || r >= self.r_max {
            return None;
        }
        Some(((r / self.r_max) * self.nr as f64) as usize)
    }

    /// Centre radius of bin `i`.
    #[inline]
    pub fn r_of(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * self.dr()
    }

    /// Area of annular bin `i` (mm²).
    #[inline]
    pub fn bin_area(&self, i: usize) -> f64 {
        let dr = self.dr();
        let r0 = i as f64 * dr;
        let r1 = r0 + dr;
        std::f64::consts::PI * (r1 * r1 - r0 * r0)
    }
}

/// Radially binned surface weight (diffuse reflectance or transmittance).
#[derive(Debug, Clone, PartialEq)]
pub struct RadialProfile {
    pub spec: RadialSpec,
    /// Raw escaped weight per bin.
    cells: Cells,
    /// Weight escaping beyond `r_max`.
    pub overflow: f64,
}

impl RadialProfile {
    /// Empty profile.
    pub fn new(spec: RadialSpec) -> Self {
        Self::from_cells(spec, Cells::new(spec.nr), 0.0).expect("invalid radial spec")
    }

    /// A profile over `spec` that takes `cells` (one value per bin) as its
    /// storage — how a decoder rebuilds a profile without re-recording bin
    /// by bin. An invalid spec or a miscounted store is an error, never a
    /// panic.
    pub fn from_cells(spec: RadialSpec, cells: Cells, overflow: f64) -> Result<Self, ConfigError> {
        Self::check_binning(spec)?;
        if cells.len() != spec.nr {
            return Err(ConfigError::CellCount { expected: spec.nr, got: cells.len() });
        }
        Ok(Self { spec, cells, overflow })
    }

    /// The binning rule, naming the `reflectance_profile` option it serves.
    pub(crate) fn check_binning(spec: RadialSpec) -> Result<(), ConfigError> {
        spec.validate("reflectance_profile r_max", "reflectance_profile radial bins")
    }

    /// Record weight `w` escaping at radius `r`.
    #[inline]
    pub fn record(&mut self, r: f64, w: f64) {
        match self.spec.bin_of(r) {
            Some(i) => self.cells.add(i, w),
            None => self.overflow += w,
        }
    }

    /// Raw per-bin weights.
    pub fn cells(&self) -> &Cells {
        &self.cells
    }

    /// Total recorded weight (including overflow).
    pub fn total(&self) -> f64 {
        self.cells.sum() + self.overflow
    }

    /// `R(r)` per launched photon per mm²: `weight[i] / (n_launched ·
    /// area_i)`. This is the quantity diffusion theory predicts.
    pub fn per_area(&self, n_launched: u64) -> Vec<f64> {
        assert!(n_launched > 0, "normalisation needs launched photons");
        (0..self.spec.nr)
            .map(|i| self.cells.get(i) / (n_launched as f64 * self.spec.bin_area(i)))
            .collect()
    }

    /// Merge a worker profile.
    pub fn merge(&mut self, other: &RadialProfile) {
        assert_eq!(self.spec, other.spec, "radial spec mismatch in merge");
        self.cells.merge(&other.cells);
        self.overflow += other.overflow;
    }
}

/// Cylindrical (r, z) accumulation grid for absorbed weight.
#[derive(Debug, Clone, PartialEq)]
pub struct CylinderGrid {
    pub radial: RadialSpec,
    /// Number of depth bins over `[0, z_max)`.
    pub nz: usize,
    /// Maximum depth (mm).
    pub z_max: f64,
    /// Row-major `[iz][ir]` weights.
    cells: Cells,
    /// Weight deposited outside the grid.
    pub overflow: f64,
}

impl CylinderGrid {
    /// Empty grid.
    pub fn new(radial: RadialSpec, nz: usize, z_max: f64) -> Self {
        let cells = Cells::new(Self::check_binning(radial, nz, z_max).unwrap_or(0));
        Self::from_cells(radial, nz, z_max, cells, 0.0).expect("invalid cylinder binning")
    }

    /// A grid that takes `cells` (row-major `[iz][ir]`, one value per cell)
    /// as its storage — how a decoder rebuilds a grid without re-depositing
    /// cell by cell. Invalid binning or a miscounted store is an error,
    /// never a panic.
    pub fn from_cells(
        radial: RadialSpec,
        nz: usize,
        z_max: f64,
        cells: Cells,
        overflow: f64,
    ) -> Result<Self, ConfigError> {
        let expected = Self::check_binning(radial, nz, z_max)?;
        if cells.len() != expected {
            return Err(ConfigError::CellCount { expected, got: cells.len() });
        }
        Ok(Self { radial, nz, z_max, cells, overflow })
    }

    /// The binning rule, naming the `absorption_rz` option it serves:
    /// valid radial and depth bins, a finite positive `z_max`, and at most
    /// the tally cell cap in all. `Ok` holds the cell count.
    pub(crate) fn check_binning(
        radial: RadialSpec,
        nz: usize,
        z_max: f64,
    ) -> Result<usize, ConfigError> {
        radial.validate("absorption_rz r_max", "absorption_rz radial bins")?;
        check_cells("absorption_rz depth bins", Some(nz))?;
        check("absorption_rz z_max", z_max, Rule::Positive)?;
        check_cells("absorption_rz cells", radial.nr.checked_mul(nz))
    }

    /// Deposit weight `w` at radius `r`, depth `z`.
    #[inline]
    pub fn deposit(&mut self, r: f64, z: f64, w: f64) {
        let iz = if z >= 0.0 && z < self.z_max {
            (z / self.z_max * self.nz as f64) as usize
        } else {
            self.overflow += w;
            return;
        };
        match self.radial.bin_of(r) {
            Some(ir) => self.cells.add(iz * self.radial.nr + ir, w),
            None => self.overflow += w,
        }
    }

    /// Raw cell values, row-major `[iz][ir]`.
    pub fn cells(&self) -> &Cells {
        &self.cells
    }

    /// Value at `(ir, iz)`.
    #[inline]
    pub fn at(&self, ir: usize, iz: usize) -> f64 {
        self.cells.get(iz * self.radial.nr + ir)
    }

    /// Total deposited weight including overflow.
    pub fn total(&self) -> f64 {
        self.cells.sum() + self.overflow
    }

    /// Depth profile: total weight per z row.
    pub fn depth_profile(&self) -> Vec<f64> {
        (0..self.nz).map(|iz| (0..self.radial.nr).map(|ir| self.at(ir, iz)).sum()).collect()
    }

    /// Merge a worker grid.
    pub fn merge(&mut self, other: &CylinderGrid) {
        assert_eq!(self.radial, other.radial, "cylinder radial mismatch");
        assert_eq!(self.nz, other.nz, "cylinder nz mismatch");
        assert_eq!(self.z_max, other.z_max, "cylinder z_max mismatch");
        self.cells.merge(&other.cells);
        self.overflow += other.overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::MAX_TALLY_CELLS;
    use lumen_photon::FieldError;

    fn spec() -> RadialSpec {
        RadialSpec { nr: 10, r_max: 5.0 }
    }

    #[test]
    fn bin_arithmetic() {
        let s = spec();
        assert_eq!(s.dr(), 0.5);
        assert_eq!(s.bin_of(0.0), Some(0));
        assert_eq!(s.bin_of(0.49), Some(0));
        assert_eq!(s.bin_of(0.5), Some(1));
        assert_eq!(s.bin_of(4.99), Some(9));
        assert_eq!(s.bin_of(5.0), None);
        assert_eq!(s.bin_of(-0.1), None);
        assert!((s.r_of(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn annulus_areas_sum_to_disc() {
        let s = spec();
        let total: f64 = (0..s.nr).map(|i| s.bin_area(i)).sum();
        let disc = std::f64::consts::PI * s.r_max * s.r_max;
        assert!((total - disc).abs() < 1e-9);
    }

    #[test]
    fn profile_records_and_overflows() {
        let mut p = RadialProfile::new(spec());
        p.record(0.2, 1.0);
        p.record(0.2, 0.5);
        p.record(7.0, 2.0);
        assert!((p.cells().get(0) - 1.5).abs() < 1e-12);
        assert_eq!(p.overflow, 2.0);
        assert!((p.total() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn per_area_normalisation() {
        let mut p = RadialProfile::new(spec());
        p.record(0.25, 2.0);
        let per_area = p.per_area(4);
        let expected = 2.0 / (4.0 * p.spec.bin_area(0));
        assert!((per_area[0] - expected).abs() < 1e-12);
        assert!(per_area[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn profile_merge() {
        let mut a = RadialProfile::new(spec());
        let mut b = RadialProfile::new(spec());
        a.record(1.0, 1.0);
        b.record(1.0, 2.0);
        b.record(9.0, 0.5);
        a.merge(&b);
        assert!((a.total() - 3.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "spec mismatch")]
    fn profile_merge_rejects_mismatch() {
        let mut a = RadialProfile::new(spec());
        let b = RadialProfile::new(RadialSpec { nr: 5, r_max: 5.0 });
        a.merge(&b);
    }

    #[test]
    fn constructors_from_storage_validate_binning_and_cell_count() {
        let p = RadialProfile::from_cells(spec(), vec![1.0; 10].into(), 0.5).unwrap();
        assert_eq!((p.cells().get(9), p.overflow), (1.0, 0.5));
        assert_eq!(
            RadialProfile::from_cells(spec(), Cells::new(9), 0.0),
            Err(ConfigError::CellCount { expected: 10, got: 9 })
        );
        let endless = RadialSpec { nr: 10, r_max: f64::INFINITY };
        assert!(matches!(
            RadialProfile::from_cells(endless, Cells::new(10), 0.0),
            Err(ConfigError::Field(FieldError {
                field: "reflectance_profile r_max",
                rule: Rule::Positive,
                ..
            }))
        ));
        // Each binning names itself.
        let binless = RadialSpec { nr: 0, r_max: 1.0 };
        assert_eq!(binless.validate("r", "bins"), Err(ConfigError::ZeroCount("bins")));
        assert_eq!(
            RadialProfile::from_cells(binless, Cells::new(0), 0.0),
            Err(ConfigError::ZeroCount("reflectance_profile radial bins"))
        );
        assert_eq!(
            CylinderGrid::from_cells(binless, 4, 8.0, Cells::new(0), 0.0),
            Err(ConfigError::ZeroCount("absorption_rz radial bins"))
        );

        let data: Vec<f64> = (0..40).map(f64::from).collect();
        let g = CylinderGrid::from_cells(spec(), 4, 8.0, data.clone().into(), 0.25).unwrap();
        assert_eq!(g.cells().to_vec(), data);
        assert_eq!((g.at(3, 2), g.overflow), (23.0, 0.25));
        assert_eq!(
            CylinderGrid::from_cells(spec(), 4, 8.0, Cells::new(41), 0.0),
            Err(ConfigError::CellCount { expected: 40, got: 41 })
        );
        assert_eq!(
            CylinderGrid::from_cells(spec(), 0, 8.0, Cells::new(0), 0.0),
            Err(ConfigError::ZeroCount("absorption_rz depth bins"))
        );
        for z_max in [0.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                CylinderGrid::from_cells(spec(), 4, z_max, Cells::new(40), 0.0),
                Err(ConfigError::Field(FieldError { field: "absorption_rz z_max", .. }))
            ));
        }

        // Counts past the tally cell cap, or whose product overflows, are
        // refused before any storage is sized.
        let wide = RadialSpec { nr: MAX_TALLY_CELLS + 1, r_max: 1.0 };
        assert_eq!(
            RadialProfile::from_cells(wide, Cells::new(0), 0.0),
            Err(ConfigError::TooManyCells("reflectance_profile radial bins"))
        );
        let square = RadialSpec { nr: 1 << 12, r_max: 1.0 };
        assert_eq!(
            CylinderGrid::from_cells(square, (1 << 12) + 1, 8.0, Cells::new(0), 0.0),
            Err(ConfigError::TooManyCells("absorption_rz cells"))
        );
        assert_eq!(
            CylinderGrid::from_cells(square, usize::MAX, 8.0, Cells::new(0), 0.0),
            Err(ConfigError::TooManyCells("absorption_rz depth bins"))
        );
        let at_cap = CylinderGrid::from_cells(square, 1 << 12, 8.0, Cells::new(1 << 24), 0.0);
        assert_eq!(at_cap.map(|g| g.cells().len()), Ok(MAX_TALLY_CELLS));
    }

    #[test]
    fn cylinder_deposits() {
        let mut g = CylinderGrid::new(spec(), 4, 8.0);
        g.deposit(0.3, 1.0, 1.0);
        g.deposit(0.3, 1.5, 0.5);
        g.deposit(0.3, 9.0, 2.0); // below z_max range
        g.deposit(6.0, 1.0, 3.0); // beyond r_max
        assert!((g.at(0, 0) - 1.5).abs() < 1e-12);
        assert_eq!(g.overflow, 5.0);
        assert!((g.total() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn cylinder_depth_profile() {
        let mut g = CylinderGrid::new(spec(), 2, 4.0);
        g.deposit(1.0, 0.5, 1.0);
        g.deposit(2.0, 0.5, 2.0);
        g.deposit(1.0, 3.0, 4.0);
        assert_eq!(g.depth_profile(), vec![3.0, 4.0]);
    }

    #[test]
    fn cylinder_merge() {
        let mut a = CylinderGrid::new(spec(), 2, 4.0);
        let mut b = CylinderGrid::new(spec(), 2, 4.0);
        a.deposit(1.0, 1.0, 1.0);
        b.deposit(1.0, 1.0, 2.0);
        a.merge(&b);
        assert!((a.total() - 3.0).abs() < 1e-12);
    }
}
