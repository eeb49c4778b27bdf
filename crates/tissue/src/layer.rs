//! A single horizontal tissue slab.

use crate::error::GeometryError;
use lumen_photon::{check, OpticalProperties, Rule};

/// One homogeneous slab of the layered medium.
///
/// Layers span `[z_top, z_bottom)` in mm, with z increasing into the
/// tissue. A semi-infinite bottom layer has `z_bottom = f64::INFINITY`
/// (Table 1 gives no thickness for white matter).
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable tissue name ("Scalp", "CSF", ...).
    pub name: String,
    /// Upper boundary depth (mm, inclusive).
    pub z_top: f64,
    /// Lower boundary depth (mm, exclusive); may be infinite.
    pub z_bottom: f64,
    /// Optical properties of the slab.
    pub optics: OpticalProperties,
}

impl Layer {
    /// Construct a layer; `thickness` may be `f64::INFINITY` for the final
    /// semi-infinite slab. Nothing is checked until the layer joins a
    /// stack ([`LayeredTissue::new`](crate::LayeredTissue::new)).
    pub fn new(
        name: impl Into<String>,
        z_top: f64,
        thickness: f64,
        optics: OpticalProperties,
    ) -> Self {
        Self { name: name.into(), z_top, z_bottom: z_top + thickness, optics }
    }

    /// The layer's own rule: a finite top at depth >= 0, a bottom below it
    /// (infinite for a semi-infinite slab), and valid optics. The stack
    /// rules that relate neighbours belong to
    /// [`LayeredTissue::new`](crate::LayeredTissue::new).
    pub fn validate(&self) -> Result<(), GeometryError> {
        let region = |error| GeometryError::Region { region: self.name.clone(), error };
        check("z_top", self.z_top, Rule::NonNegative).map_err(region)?;
        if self.z_bottom <= self.z_top || self.z_bottom.is_nan() {
            return Err(GeometryError::BadLayer {
                layer: self.name.clone(),
                problem: "must end below its top",
            });
        }
        self.optics.validate().map_err(region)
    }

    /// Slab thickness in mm (infinite for the terminal layer).
    #[inline]
    pub fn thickness(&self) -> f64 {
        self.z_bottom - self.z_top
    }

    /// Whether the given depth lies inside this layer.
    #[inline]
    pub fn contains(&self, z: f64) -> bool {
        z >= self.z_top && z < self.z_bottom
    }

    /// True if this layer extends to infinite depth.
    #[inline]
    pub fn is_semi_infinite(&self) -> bool {
        self.z_bottom.is_infinite()
    }

    /// Number of transport mean free paths across the slab — a quick gauge
    /// of how opaque it is (infinite for semi-infinite layers).
    pub fn optical_thickness(&self) -> f64 {
        self.thickness() * self.optics.mu_t()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optics() -> OpticalProperties {
        OpticalProperties::new(0.018, 19.0, 0.9, 1.4)
    }

    #[test]
    fn construction_and_extent() {
        let l = Layer::new("Scalp", 0.0, 3.0, optics());
        assert_eq!(l.thickness(), 3.0);
        assert!(l.contains(0.0));
        assert!(l.contains(2.999));
        assert!(!l.contains(3.0));
        assert!(!l.contains(-0.1));
        assert!(!l.is_semi_infinite());
    }

    #[test]
    fn semi_infinite_layer() {
        let l = Layer::new("White matter", 24.0, f64::INFINITY, optics());
        assert!(l.is_semi_infinite());
        assert!(l.contains(1e12));
        assert_eq!(l.optical_thickness(), f64::INFINITY);
    }

    #[test]
    fn optical_thickness() {
        let l = Layer::new("Scalp", 0.0, 3.0, optics());
        assert!((l.optical_thickness() - 3.0 * (0.018 + 19.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_or_inverted_extents_are_refused_by_the_stack() {
        use crate::LayeredTissue;
        for (z_top, thickness) in [(0.0, 0.0), (0.0, -5.0), (0.0, f64::NAN), (f64::NAN, 1.0)] {
            let layer = Layer::new("bad", z_top, thickness, optics());
            assert!(layer.validate().is_err(), "[{z_top}, +{thickness})");
            assert!(
                matches!(
                    LayeredTissue::new(vec![layer], 1.0),
                    Err(GeometryError::BadLayer { .. } | GeometryError::Region { .. })
                ),
                "[{z_top}, +{thickness})"
            );
        }
        let thin = LayeredTissue::new(vec![Layer::new("bad", 0.0, 0.0, optics())], 1.0);
        assert_eq!(
            thin,
            Err(GeometryError::BadLayer { layer: "bad".into(), problem: "must end below its top" })
        );
    }
}
