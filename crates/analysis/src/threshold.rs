//! Thresholding: "Fig. 3 shows the most common paths taken by the photons,
//! after thresholding."
//!
//! The figure keeps only voxels whose visit density exceeds a fraction of
//! the maximum; everything below is zeroed. Applied to either a projection
//! or a raw grid.

use crate::projection::Projection2D;

/// Zero out every value below `fraction × max`. Returns the number of
/// surviving (non-zero) cells. `fraction` is clamped to [0, 1].
pub fn threshold_fraction(field: &mut Projection2D, fraction: f64) -> usize {
    let fraction = fraction.clamp(0.0, 1.0);
    let cut = field.max_value() * fraction;
    let mut survivors = 0;
    for v in &mut field.values {
        if *v < cut || *v == 0.0 {
            *v = 0.0;
        } else {
            survivors += 1;
        }
    }
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(values: Vec<f64>, nx: usize, nz: usize) -> Projection2D {
        Projection2D { nx, nz, x_min: 0.0, x_max: nx as f64, z_min: 0.0, z_max: nz as f64, values }
    }

    #[test]
    fn threshold_keeps_only_hot_cells() {
        let mut f = field(vec![10.0, 5.0, 1.0, 0.5], 2, 2);
        let kept = threshold_fraction(&mut f, 0.4); // cut = 4.0
        assert_eq!(kept, 2);
        assert_eq!(f.values, vec![10.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_fraction_keeps_all_nonzero() {
        let mut f = field(vec![1.0, 0.0, 2.0, 3.0], 2, 2);
        let kept = threshold_fraction(&mut f, 0.0);
        assert_eq!(kept, 3);
    }

    #[test]
    fn full_fraction_keeps_only_max() {
        let mut f = field(vec![1.0, 2.0, 3.0, 3.0], 2, 2);
        let kept = threshold_fraction(&mut f, 1.0);
        assert_eq!(kept, 2); // both max-valued cells survive
    }

    #[test]
    fn fraction_is_clamped() {
        let mut f = field(vec![1.0, 2.0], 2, 1);
        let kept = threshold_fraction(&mut f, 5.0);
        assert_eq!(kept, 1);
    }
}
