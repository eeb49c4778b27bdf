//! 2-D projections of 3-D visit grids.
//!
//! Figs 3 and 4 of the paper view the photon distribution in the x–z plane
//! (x = lateral position along the source–detector line, z = depth).
//! [`Projection2D`] sums a [`VisitGrid`] over y.

use lumen_core::tally::VisitGrid;

/// A dense 2-D field over the x–z plane.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection2D {
    /// Columns (x bins).
    pub nx: usize,
    /// Rows (z bins).
    pub nz: usize,
    /// x extent (mm).
    pub x_min: f64,
    pub x_max: f64,
    /// z extent (mm).
    pub z_min: f64,
    pub z_max: f64,
    /// Row-major values: `values[iz * nx + ix]`.
    pub values: Vec<f64>,
}

impl Projection2D {
    /// Project a visit grid onto the x–z plane by summing over y.
    pub fn from_grid(grid: &VisitGrid) -> Self {
        let spec = grid.spec;
        let mut values = vec![0.0; spec.nx * spec.nz];
        for iz in 0..spec.nz {
            for iy in 0..spec.ny {
                for ix in 0..spec.nx {
                    let idx = (iz * spec.ny + iy) * spec.nx + ix;
                    values[iz * spec.nx + ix] += grid.value(idx);
                }
            }
        }
        Self {
            nx: spec.nx,
            nz: spec.nz,
            x_min: spec.min.x,
            x_max: spec.max.x,
            z_min: spec.min.z,
            z_max: spec.max.z,
            values,
        }
    }

    /// Value at (ix, iz).
    #[inline]
    pub fn at(&self, ix: usize, iz: usize) -> f64 {
        self.values[iz * self.nx + ix]
    }

    /// Mutable value at (ix, iz) — used by tests and thresholding.
    #[inline]
    pub fn at_mut(&mut self, ix: usize, iz: usize) -> &mut f64 {
        &mut self.values[iz * self.nx + ix]
    }

    /// Maximum value over the field.
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of the field.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Physical x coordinate of column centre `ix` (mm).
    pub fn x_of(&self, ix: usize) -> f64 {
        self.x_min + (ix as f64 + 0.5) * (self.x_max - self.x_min) / self.nx as f64
    }

    /// Physical z coordinate of row centre `iz` (mm).
    pub fn z_of(&self, iz: usize) -> f64 {
        self.z_min + (iz as f64 + 0.5) * (self.z_max - self.z_min) / self.nz as f64
    }

    /// Column index containing physical coordinate `x`, clamped into range.
    pub fn ix_of(&self, x: f64) -> usize {
        let fx = (x - self.x_min) / (self.x_max - self.x_min) * self.nx as f64;
        (fx.max(0.0) as usize).min(self.nx - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_core::tally::GridSpec;
    use lumen_core::Vec3;

    fn grid_with_point(p: Vec3, w: f64) -> VisitGrid {
        let spec = GridSpec::cubic(10, Vec3::new(-5.0, -5.0, 0.0), Vec3::new(5.0, 5.0, 10.0));
        let mut g = VisitGrid::new(spec);
        g.deposit(p, w);
        g
    }

    #[test]
    fn projection_preserves_total() {
        let g = grid_with_point(Vec3::new(1.0, 2.0, 3.0), 4.5);
        let p = Projection2D::from_grid(&g);
        assert!((p.total() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn projection_collapses_y() {
        // Two deposits differing only in y land in the same x-z cell.
        let spec = GridSpec::cubic(10, Vec3::new(-5.0, -5.0, 0.0), Vec3::new(5.0, 5.0, 10.0));
        let mut g = VisitGrid::new(spec);
        g.deposit(Vec3::new(1.0, -3.0, 3.0), 1.0);
        g.deposit(Vec3::new(1.0, 4.0, 3.0), 2.0);
        let p = Projection2D::from_grid(&g);
        let ix = p.ix_of(1.0);
        let iz = ((3.0 - 0.0) / 10.0 * 10.0) as usize;
        assert!((p.at(ix, iz) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn coordinate_round_trip() {
        let g = grid_with_point(Vec3::new(0.0, 0.0, 5.0), 1.0);
        let p = Projection2D::from_grid(&g);
        for ix in 0..p.nx {
            assert_eq!(p.ix_of(p.x_of(ix)), ix);
        }
    }

    #[test]
    fn ix_of_clamps() {
        let g = grid_with_point(Vec3::new(0.0, 0.0, 5.0), 1.0);
        let p = Projection2D::from_grid(&g);
        assert_eq!(p.ix_of(-100.0), 0);
        assert_eq!(p.ix_of(100.0), p.nx - 1);
    }

    #[test]
    fn max_value_tracks_hot_cell() {
        let g = grid_with_point(Vec3::new(2.0, 0.0, 7.0), 9.0);
        let p = Projection2D::from_grid(&g);
        assert!((p.max_value() - 9.0).abs() < 1e-12);
    }
}
