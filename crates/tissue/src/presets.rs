//! Tissue models from the reproduced paper.
//!
//! Table 1 of the paper tabulates, for each tissue of the adult head, the
//! transport (reduced) scattering coefficient μs′ and the absorption
//! coefficient μa in mm⁻¹, plus a thickness column. The thickness column
//! mixes conventions (scalp/skull given as 0.3–1 cm and 0.5–1 cm ranges;
//! CSF "2" and grey matter "4" correspond to the 2 mm / 4 mm of the
//! underlying Okada & Delpy head model the paper cites). The defaults below
//! use the mid-range scalp/skull values and the Okada & Delpy CSF/grey
//! thicknesses; all are overridable via [`AdultHeadConfig`].
//!
//! Anisotropy: the paper tabulates only μs′ = μs (1 − g). We follow the
//! NIR-tissue convention g = 0.9 (n = 1.4) for all scattering layers and
//! recover μs = μs′ / (1 − g); for the low-scattering CSF the same applies.
//! Since transport through a medium is governed by (μa, μs′) under the
//! similarity relation, the choice of g does not change the macroscopic
//! distributions the paper reports.

use crate::error::GeometryError;
use crate::model::LayeredTissue;
use crate::voxel::{VoxelMaterial, VoxelTissue};
use lumen_photon::{check, OpticalProperties, Rule, Vec3};

/// Standard tissue refractive index in the NIR.
pub const TISSUE_N: f64 = 1.4;
/// Standard anisotropy factor used to expand the Table 1 μs′ values.
pub const TISSUE_G: f64 = 0.9;
/// Ambient (air) refractive index above the scalp.
pub const AIR_N: f64 = 1.0;

/// Table 1, row "Scalp": μs′ = 1.9 mm⁻¹, μa = 0.018 mm⁻¹.
pub fn scalp_optics() -> OpticalProperties {
    OpticalProperties::from_reduced_scattering(0.018, 1.9, TISSUE_G, TISSUE_N)
}

/// Table 1, row "Skull": μs′ = 1.6 mm⁻¹, μa = 0.016 mm⁻¹.
pub fn skull_optics() -> OpticalProperties {
    OpticalProperties::from_reduced_scattering(0.016, 1.6, TISSUE_G, TISSUE_N)
}

/// Table 1, row "CSF": μs′ = 0.25 mm⁻¹, μa = 0.004 mm⁻¹ — the low-
/// scattering layer "sandwiched" between highly scattering tissue.
pub fn csf_optics() -> OpticalProperties {
    OpticalProperties::from_reduced_scattering(0.004, 0.25, TISSUE_G, TISSUE_N)
}

/// Table 1, row "Grey matter": μs′ = 2.2 mm⁻¹, μa = 0.036 mm⁻¹.
pub fn grey_matter_optics() -> OpticalProperties {
    OpticalProperties::from_reduced_scattering(0.036, 2.2, TISSUE_G, TISSUE_N)
}

/// Table 1, row "White matter": μs′ = 9.1 mm⁻¹, μa = 0.014 mm⁻¹.
pub fn white_matter_optics() -> OpticalProperties {
    OpticalProperties::from_reduced_scattering(0.014, 9.1, TISSUE_G, TISSUE_N)
}

/// Layer thicknesses for the adult-head stack (mm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdultHeadConfig {
    pub scalp_mm: f64,
    pub skull_mm: f64,
    pub csf_mm: f64,
    pub grey_mm: f64,
}

impl Default for AdultHeadConfig {
    /// Mid-range scalp (6.5 mm within the paper's 3–10 mm), mid-range skull
    /// (7.5 mm within 5–10 mm), Okada & Delpy CSF (2 mm) and grey (4 mm).
    fn default() -> Self {
        Self { scalp_mm: 6.5, skull_mm: 7.5, csf_mm: 2.0, grey_mm: 4.0 }
    }
}

impl AdultHeadConfig {
    /// Thinnest stack consistent with Table 1's ranges.
    pub fn thin() -> Self {
        Self { scalp_mm: 3.0, skull_mm: 5.0, csf_mm: 2.0, grey_mm: 4.0 }
    }

    /// Thickest stack consistent with Table 1's ranges.
    pub fn thick() -> Self {
        Self { scalp_mm: 10.0, skull_mm: 10.0, csf_mm: 2.0, grey_mm: 4.0 }
    }

    /// Depth at which white matter begins (mm).
    pub fn white_matter_depth(&self) -> f64 {
        self.scalp_mm + self.skull_mm + self.csf_mm + self.grey_mm
    }

    /// Depth at which the CSF begins (mm).
    pub fn csf_depth(&self) -> f64 {
        self.scalp_mm + self.skull_mm
    }
}

/// The five-layer adult head model of Table 1: scalp, skull, CSF, grey
/// matter, and semi-infinite white matter, with air above the scalp.
pub fn adult_head(config: AdultHeadConfig) -> LayeredTissue {
    LayeredTissue::stack(
        vec![
            ("Scalp".into(), config.scalp_mm, scalp_optics()),
            ("Skull".into(), config.skull_mm, skull_optics()),
            ("CSF".into(), config.csf_mm, csf_optics()),
            ("Grey matter".into(), config.grey_mm, grey_matter_optics()),
            ("White matter".into(), f64::INFINITY, white_matter_optics()),
        ],
        AIR_N,
    )
    .expect("adult head preset is always valid")
}

/// The homogeneous white-matter medium used for the paper's Fig 3
/// verification ("1 billion photons through a homogeneous tissue (white
/// matter)"; the detected paths form the expected banana shape).
pub fn homogeneous_white_matter() -> LayeredTissue {
    LayeredTissue::homogeneous("White matter", white_matter_optics(), AIR_N)
}

/// A neonatal head variant after Fukui, Ajichi & Okada (the paper's
/// reference \[1\]): substantially thinner superficial layers, which is why
/// neonatal NIRS probes deeper brain tissue than adult probes do.
pub fn neonatal_head() -> LayeredTissue {
    LayeredTissue::stack(
        vec![
            ("Scalp".into(), 2.0, scalp_optics()),
            ("Skull".into(), 2.0, skull_optics()),
            ("CSF".into(), 1.5, csf_optics()),
            ("Grey matter".into(), 4.0, grey_matter_optics()),
            ("White matter".into(), f64::INFINITY, white_matter_optics()),
        ],
        AIR_N,
    )
    .expect("neonatal head preset is always valid")
}

/// A generic single-layer phantom with user-supplied properties — handy in
/// tests and for comparing against published semi-infinite benchmarks.
pub fn semi_infinite_phantom(mu_a: f64, mu_s: f64, g: f64, n: f64) -> LayeredTissue {
    LayeredTissue::homogeneous("Phantom", OpticalProperties::new(mu_a, mu_s, g, n), AIR_N)
}

/// Voxelize a layered stack: an `(2·half_width)² × depth` grid at pitch
/// `dx`, each voxel taking the material of the layer containing its centre.
/// The palette has one material per layer (same indices), so per-region
/// tallies remain directly comparable with the layered run.
///
/// `depth_mm` may extend into a semi-infinite bottom layer but must not
/// exceed a finite stack's total depth.
pub fn voxelized(
    tissue: &LayeredTissue,
    dx: f64,
    half_width_mm: f64,
    depth_mm: f64,
) -> Result<VoxelTissue, GeometryError> {
    check("voxelized dx", dx, Rule::Positive)?;
    check("voxelized half_width", half_width_mm, Rule::Positive)?;
    check("voxelized depth", depth_mm, Rule::Positive)?;
    if depth_mm > tissue.total_depth() {
        return Err(GeometryError::BadGrid("the voxelized depth exceeds the layered stack"));
    }
    let n_lateral = (2.0 * half_width_mm / dx).ceil() as usize;
    let nz = (depth_mm / dx).ceil() as usize;
    // Centre the (possibly rounded-up) lateral extent on the origin.
    let origin = -(n_lateral as f64) * dx / 2.0;
    let materials: Vec<VoxelMaterial> =
        tissue.layers().iter().map(|l| VoxelMaterial::new(l.name.clone(), l.optics)).collect();
    VoxelTissue::from_fn(
        (n_lateral, n_lateral, nz),
        (origin, origin),
        (dx, dx, dx),
        materials,
        tissue.ambient_n,
        // Ceil-rounding can push the last voxel centre past a finite
        // stack's bottom even though `depth_mm` itself is legal; that
        // sliver (at most dx/2) inherits the bottom layer.
        |centre| tissue.layer_at(centre.z).unwrap_or(tissue.len() - 1) as u16,
    )
}

/// Optics of a strongly absorbing tumour-like inclusion (10× grey-matter
/// absorption, grey-matter scattering).
pub fn inclusion_optics() -> OpticalProperties {
    OpticalProperties::from_reduced_scattering(0.36, 2.2, TISSUE_G, TISSUE_N)
}

/// The adult-head phantom with a spherical absorbing inclusion — the
/// lateral inhomogeneity a layered model cannot express. The head stack is
/// voxelized at pitch `dx` over ±`half_width_mm` laterally and `depth_mm`
/// deep; voxels whose centre lies within `radius_mm` of `centre` become the
/// extra "Inclusion" material (palette index = number of head layers).
pub fn head_with_inclusion(
    config: AdultHeadConfig,
    dx: f64,
    half_width_mm: f64,
    depth_mm: f64,
    centre: Vec3,
    radius_mm: f64,
) -> Result<VoxelTissue, GeometryError> {
    let head = adult_head(config);
    let base = voxelized(&head, dx, half_width_mm, depth_mm)?;
    let mut materials = base.materials().to_vec();
    let inclusion_idx = materials.len() as u16;
    materials.push(VoxelMaterial::new("Inclusion", inclusion_optics()));
    let (nx, ny, nz) = base.dims();
    let mut cells = base.cells().to_vec();
    for iz in 0..nz {
        for iy in 0..ny {
            for ix in 0..nx {
                if base.centre(ix, iy, iz).distance(centre) <= radius_mm {
                    cells[(iz * ny + iy) * nx + ix] = inclusion_idx;
                }
            }
        }
    }
    VoxelTissue::new(base.dims(), base.origin(), base.voxel_mm(), materials, cells, head.ambient_n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact Table 1 values must round-trip through the presets.
    #[test]
    fn table1_reduced_scattering_values() {
        assert!((scalp_optics().mu_s_prime() - 1.9).abs() < 1e-12);
        assert!((skull_optics().mu_s_prime() - 1.6).abs() < 1e-12);
        assert!((csf_optics().mu_s_prime() - 0.25).abs() < 1e-12);
        assert!((grey_matter_optics().mu_s_prime() - 2.2).abs() < 1e-12);
        assert!((white_matter_optics().mu_s_prime() - 9.1).abs() < 1e-12);
    }

    #[test]
    fn table1_absorption_values() {
        assert_eq!(scalp_optics().mu_a, 0.018);
        assert_eq!(skull_optics().mu_a, 0.016);
        assert_eq!(csf_optics().mu_a, 0.004);
        assert_eq!(grey_matter_optics().mu_a, 0.036);
        assert_eq!(white_matter_optics().mu_a, 0.014);
    }

    #[test]
    fn csf_is_least_scattering_layer() {
        // The paper: "The CSF layer ... has very low scattering properties".
        let layers = [
            scalp_optics(),
            skull_optics(),
            csf_optics(),
            grey_matter_optics(),
            white_matter_optics(),
        ];
        let csf = csf_optics().mu_s_prime();
        for (i, l) in layers.iter().enumerate() {
            if i != 2 {
                assert!(l.mu_s_prime() > csf);
            }
        }
    }

    #[test]
    fn white_matter_is_most_scattering() {
        let wm = white_matter_optics().mu_s_prime();
        for o in [scalp_optics(), skull_optics(), csf_optics(), grey_matter_optics()] {
            assert!(wm > o.mu_s_prime());
        }
    }

    #[test]
    fn adult_head_has_five_layers_in_order() {
        let head = adult_head(AdultHeadConfig::default());
        let names: Vec<&str> = head.layers().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["Scalp", "Skull", "CSF", "Grey matter", "White matter"]);
        assert!(head.layers().last().unwrap().is_semi_infinite());
    }

    #[test]
    fn adult_head_depth_bookkeeping() {
        let cfg = AdultHeadConfig::default();
        let head = adult_head(cfg);
        assert_eq!(head.layer_at(cfg.csf_depth() + 0.1), Some(2));
        assert_eq!(head.layer_at(cfg.white_matter_depth() + 0.1), Some(4));
        assert!((cfg.white_matter_depth() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn thin_and_thick_configs_bracket_default() {
        let d = AdultHeadConfig::default();
        let t = AdultHeadConfig::thin();
        let k = AdultHeadConfig::thick();
        assert!(t.white_matter_depth() < d.white_matter_depth());
        assert!(d.white_matter_depth() < k.white_matter_depth());
    }

    #[test]
    fn neonatal_layers_are_thinner() {
        let neo = neonatal_head();
        let adult = adult_head(AdultHeadConfig::default());
        // Superficial (scalp+skull) thickness comparison.
        let neo_sup = neo.layers()[0].thickness() + neo.layers()[1].thickness();
        let adult_sup = adult.layers()[0].thickness() + adult.layers()[1].thickness();
        assert!(neo_sup < adult_sup);
    }

    #[test]
    fn homogeneous_white_matter_is_single_layer() {
        let m = homogeneous_white_matter();
        assert_eq!(m.len(), 1);
        assert_eq!(m.optics(0).mu_a, 0.014);
    }

    #[test]
    fn phantom_builder() {
        let m = semi_infinite_phantom(0.1, 10.0, 0.9, 1.4);
        assert_eq!(m.optics(0).mu_s, 10.0);
        assert_eq!(m.ambient_n, 1.0);
    }
}
