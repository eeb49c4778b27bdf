//! Quantitative banana-shape analysis (the paper's Fig 3 verification).
//!
//! "Fig. 3 shows the most common paths taken by the photons, after
//! thresholding. The most common paths form a banana shape, as expected."
//!
//! We turn "as expected" into measurable properties of the thresholded
//! x–z distribution of detected photon paths:
//!
//! 1. the distribution is anchored at the source (x ≈ 0) and the detector
//!    (x ≈ separation) at the surface;
//! 2. the deepest part of the distribution lies between source and
//!    detector (near the midpoint), not under either endpoint — the
//!    signature arch of the banana;
//! 3. the bulk of visit weight lies at intermediate depth: the mean depth
//!    of the distribution is positive but shallow relative to the
//!    separation.

use crate::projection::Projection2D;

/// Measured shape descriptors of a (possibly thresholded) x–z field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BananaMetrics {
    /// Weight-mean depth (mm).
    pub mean_depth: f64,
    /// Depth of the deepest non-zero cell (mm).
    pub max_depth: f64,
    /// x position (mm) of the column with the deepest non-zero cell.
    pub deepest_x: f64,
    /// Surface (shallowest-row) weight near the source vs total surface
    /// weight — anchoring at x≈0.
    pub source_anchor: f64,
    /// Same for the detector end.
    pub detector_anchor: f64,
    /// Weight-mean x (mm).
    pub mean_x: f64,
}

/// Compute shape metrics for a field produced by a simulation with the
/// source at x = 0 and detector at x = `separation`.
pub fn banana_metrics(field: &Projection2D, separation: f64) -> BananaMetrics {
    let mut w_total = 0.0;
    let mut depth_sum = 0.0;
    let mut x_sum = 0.0;
    let mut max_depth = 0.0f64;
    let mut deepest_x = 0.0;

    for iz in 0..field.nz {
        let z = field.z_of(iz);
        for ix in 0..field.nx {
            let w = field.at(ix, iz);
            if w <= 0.0 {
                continue;
            }
            w_total += w;
            depth_sum += w * z;
            x_sum += w * field.x_of(ix);
            if z > max_depth {
                max_depth = z;
                deepest_x = field.x_of(ix);
            }
        }
    }

    // Surface anchoring: weight in the top row near each endpoint
    // (within separation/4 of it) as a fraction of the top row's weight.
    let mut top_total = 0.0;
    let mut top_source = 0.0;
    let mut top_detector = 0.0;
    let margin = (separation / 4.0).max(1e-9);
    for ix in 0..field.nx {
        let w = field.at(ix, 0);
        if w <= 0.0 {
            continue;
        }
        let x = field.x_of(ix);
        top_total += w;
        if (x - 0.0).abs() <= margin {
            top_source += w;
        }
        if (x - separation).abs() <= margin {
            top_detector += w;
        }
    }

    BananaMetrics {
        mean_depth: if w_total > 0.0 { depth_sum / w_total } else { 0.0 },
        max_depth,
        deepest_x,
        source_anchor: if top_total > 0.0 { top_source / top_total } else { 0.0 },
        detector_anchor: if top_total > 0.0 { top_detector / top_total } else { 0.0 },
        mean_x: if w_total > 0.0 { x_sum / w_total } else { 0.0 },
    }
}

impl BananaMetrics {
    /// Does this distribution satisfy the banana criteria for a
    /// source–detector pair at the given separation?
    pub fn is_banana(&self, separation: f64) -> bool {
        // Arch: the deepest point sits strictly between the endpoints.
        let arch = self.deepest_x > 0.05 * separation && self.deepest_x < 0.95 * separation;
        // Anchors: the surface weight concentrates near the endpoints.
        let anchored = self.source_anchor + self.detector_anchor > 0.5;
        // Non-degenerate depth.
        let has_depth = self.max_depth > 0.0 && self.mean_depth > 0.0;
        arch && anchored && has_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a synthetic ideal banana: a semicircular arc from (0,0) to
    /// (sep,0).
    fn synthetic_banana(sep: f64, nx: usize, nz: usize) -> Projection2D {
        let mut f = Projection2D {
            nx,
            nz,
            x_min: -sep * 0.25,
            x_max: sep * 1.25,
            z_min: 0.0,
            z_max: sep,
            values: vec![0.0; nx * nz],
        };
        let r = sep / 2.0;
        for t in 0..=100 {
            let theta = std::f64::consts::PI * t as f64 / 100.0;
            let x = r - r * theta.cos();
            let z = r * theta.sin() * 0.6; // flattened arc
            let ix = ((x - f.x_min) / (f.x_max - f.x_min) * nx as f64) as usize;
            let iz = ((z / f.z_max) * nz as f64).min(nz as f64 - 1.0) as usize;
            f.values[iz * nx + ix] += 1.0;
        }
        f
    }

    #[test]
    fn synthetic_banana_is_recognised() {
        let sep = 20.0;
        let f = synthetic_banana(sep, 50, 50);
        let m = banana_metrics(&f, sep);
        assert!(m.is_banana(sep), "{m:?}");
        // Deepest point near the midpoint.
        assert!((m.deepest_x - sep / 2.0).abs() < sep * 0.2, "{m:?}");
    }

    #[test]
    fn straight_beam_is_not_a_banana() {
        // A vertical column under the source: no arch, no detector anchor.
        let mut f = Projection2D {
            nx: 50,
            nz: 50,
            x_min: -5.0,
            x_max: 25.0,
            z_min: 0.0,
            z_max: 30.0,
            values: vec![0.0; 2500],
        };
        let ix = 8; // x = 0: 5 mm into 30 mm of 50 columns
        for iz in 0..50 {
            f.values[iz * 50 + ix] = 1.0;
        }
        let m = banana_metrics(&f, 20.0);
        assert!(!m.is_banana(20.0), "{m:?}");
    }

    #[test]
    fn empty_field_metrics_are_zero() {
        let f = Projection2D {
            nx: 10,
            nz: 10,
            x_min: 0.0,
            x_max: 1.0,
            z_min: 0.0,
            z_max: 1.0,
            values: vec![0.0; 100],
        };
        let m = banana_metrics(&f, 1.0);
        assert_eq!(m.mean_depth, 0.0);
        assert_eq!(m.max_depth, 0.0);
        assert!(!m.is_banana(1.0));
    }

    #[test]
    fn mean_x_sits_between_endpoints_for_banana() {
        let sep = 30.0;
        let f = synthetic_banana(sep, 60, 60);
        let m = banana_metrics(&f, sep);
        assert!(m.mean_x > 0.0 && m.mean_x < sep, "{m:?}");
    }
}
