//! Spatial sensitivity profiles.
//!
//! The paper's motivation section: "The spatial sensitivity profile of the
//! photon path is important to ascertain firstly the volume of tissue
//! interrogated and then which cells within that volume dominate the
//! detected light signal." These helpers collapse visit grids into 1-D
//! profiles for exactly that analysis.

use crate::projection::Projection2D;

/// Visit weight as a function of depth: `profile[iz]` is the total weight
/// in row `iz`. Returns (depths at bin centres, weights).
pub fn depth_profile(field: &Projection2D) -> (Vec<f64>, Vec<f64>) {
    let mut depths = Vec::with_capacity(field.nz);
    let mut weights = Vec::with_capacity(field.nz);
    for iz in 0..field.nz {
        let w: f64 = (0..field.nx).map(|ix| field.at(ix, iz)).sum();
        depths.push(field.z_of(iz));
        weights.push(w);
    }
    (depths, weights)
}

/// Lateral spread (weight-std of x) within the top `surface_rows` rows —
/// a beam-width measure used for the source-footprint experiment (the
/// paper's "lasers do produce a small beam" observation).
pub fn surface_beam_width(field: &Projection2D, surface_rows: usize) -> f64 {
    let rows = surface_rows.min(field.nz).max(1);
    let mut w_total = 0.0;
    let mut x_sum = 0.0;
    let mut x2_sum = 0.0;
    for iz in 0..rows {
        for ix in 0..field.nx {
            let w = field.at(ix, iz);
            if w <= 0.0 {
                continue;
            }
            let x = field.x_of(ix);
            w_total += w;
            x_sum += w * x;
            x2_sum += w * x * x;
        }
    }
    if w_total <= 0.0 {
        return 0.0;
    }
    let mean = x_sum / w_total;
    (x2_sum / w_total - mean * mean).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_rows(rows: &[f64], nx: usize) -> Projection2D {
        // Each row has uniform value rows[iz].
        let nz = rows.len();
        let mut values = Vec::with_capacity(nx * nz);
        for &r in rows {
            values.extend(std::iter::repeat_n(r, nx));
        }
        Projection2D { nx, nz, x_min: 0.0, x_max: nx as f64, z_min: 0.0, z_max: nz as f64, values }
    }

    #[test]
    fn depth_profile_sums_rows() {
        let f = field_rows(&[1.0, 2.0, 0.0], 4);
        let (depths, weights) = depth_profile(&f);
        assert_eq!(weights, vec![4.0, 8.0, 0.0]);
        assert_eq!(depths.len(), 3);
        assert!((depths[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn beam_width_zero_for_single_column() {
        let mut f = field_rows(&[0.0, 0.0], 5);
        f.values[2] = 3.0;
        assert_eq!(surface_beam_width(&f, 1), 0.0);
    }

    #[test]
    fn beam_width_grows_with_spread() {
        let mut narrow = field_rows(&[0.0], 11);
        narrow.values[5] = 1.0;
        narrow.values[6] = 1.0;
        let mut wide = field_rows(&[0.0], 11);
        wide.values[0] = 1.0;
        wide.values[10] = 1.0;
        assert!(surface_beam_width(&wide, 1) > surface_beam_width(&narrow, 1));
    }
}
