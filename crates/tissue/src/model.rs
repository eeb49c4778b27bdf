//! The layered tissue stack and its geometric queries.

use crate::error::GeometryError;
use crate::layer::Layer;
use lumen_photon::{Axis, DerivedOptics, OpticalProperties, Vec3};

/// Which boundary a travelling photon will meet first inside its region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryHit {
    /// Distance along the direction of travel to the boundary (mm).
    pub distance: f64,
    /// Region index on the far side, or `None` when the photon would exit
    /// the tissue (above the top surface, below a finite stack, or out of a
    /// voxel grid's lateral extent).
    pub next_region: Option<usize>,
    /// True when the boundary is the external top surface (z = 0).
    pub is_top_surface: bool,
    /// Normal axis of the boundary: always [`Axis::Z`] for layered stacks;
    /// voxel faces can be x- or y-normal too.
    pub axis: Axis,
}

/// A stack of horizontal tissue layers occupying z ≥ 0, with an ambient
/// medium (typically air, n = 1) above the surface.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredTissue {
    layers: Vec<Layer>,
    /// Refractive index of the medium above z = 0 (air by default).
    pub ambient_n: f64,
    /// Per-layer transport constants, precomputed at construction so the
    /// stepping loop never re-derives μt or μa/μt per interaction. Layers
    /// are immutable after `new`, so this can never go stale.
    derived: Vec<DerivedOptics>,
}

impl LayeredTissue {
    /// Build a validated stack. Layers must be contiguous from z = 0
    /// downward, non-empty, and only the last may be semi-infinite.
    pub fn new(layers: Vec<Layer>, ambient_n: f64) -> Result<Self, GeometryError> {
        if layers.is_empty() {
            return Err(GeometryError::Empty("layer"));
        }
        if !(ambient_n >= 1.0 && ambient_n.is_finite()) {
            return Err(GeometryError::BadAmbientIndex(ambient_n));
        }
        if layers[0].z_top != 0.0 {
            return Err(GeometryError::BadLayerStack(format!(
                "first layer must start at the surface z=0, starts at {}",
                layers[0].z_top
            )));
        }
        for pair in layers.windows(2) {
            if pair[0].is_semi_infinite() {
                return Err(GeometryError::BadLayerStack(format!(
                    "layer '{}' is semi-infinite but not last",
                    pair[0].name
                )));
            }
            if (pair[0].z_bottom - pair[1].z_top).abs() > 1e-9 {
                return Err(GeometryError::BadLayerStack(format!(
                    "gap between layer '{}' (ends {}) and '{}' (starts {})",
                    pair[0].name, pair[0].z_bottom, pair[1].name, pair[1].z_top
                )));
            }
        }
        for layer in &layers {
            layer
                .optics
                .validate()
                .map_err(|e| GeometryError::BadOptics { region: layer.name.clone(), reason: e })?;
        }
        let derived = layers.iter().map(|l| l.optics.derive()).collect();
        Ok(Self { layers, ambient_n, derived })
    }

    /// Convenience: stack layers from `(name, thickness, optics)` triples
    /// starting at the surface.
    ///
    /// ```
    /// use lumen_tissue::{LayeredTissue, OpticalProperties};
    /// let skin = OpticalProperties::new(0.02, 20.0, 0.9, 1.4);
    /// let fat = OpticalProperties::new(0.01, 12.0, 0.9, 1.4);
    /// let model = LayeredTissue::stack(
    ///     vec![
    ///         ("skin".into(), 1.5, skin),
    ///         ("fat".into(), f64::INFINITY, fat),
    ///     ],
    ///     1.0, // air above
    /// ).unwrap();
    /// assert_eq!(model.layer_at(0.5), Some(0));
    /// assert_eq!(model.layer_at(3.0), Some(1));
    /// ```
    pub fn stack(
        specs: Vec<(String, f64, OpticalProperties)>,
        ambient_n: f64,
    ) -> Result<Self, GeometryError> {
        let mut z = 0.0;
        let mut layers = Vec::with_capacity(specs.len());
        for (name, thickness, optics) in specs {
            layers.push(Layer::new(name, z, thickness, optics));
            z += thickness;
        }
        Self::new(layers, ambient_n)
    }

    /// A single semi-infinite homogeneous medium.
    pub fn homogeneous(name: impl Into<String>, optics: OpticalProperties, ambient_n: f64) -> Self {
        Self::new(vec![Layer::new(name, 0.0, f64::INFINITY, optics)], ambient_n)
            .expect("homogeneous model is always valid")
    }

    /// The layers, top to bottom.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the model has no layers (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total finite depth of the stack; infinite if the last layer is
    /// semi-infinite.
    pub fn total_depth(&self) -> f64 {
        self.layers.last().map(|l| l.z_bottom).unwrap_or(0.0)
    }

    /// Index of the layer containing depth `z`, or `None` outside [0, depth).
    pub fn layer_at(&self, z: f64) -> Option<usize> {
        if z < 0.0 {
            return None;
        }
        // Linear scan: head models have ≤ 5 layers, and the engine caches
        // the index between boundary crossings anyway.
        self.layers.iter().position(|l| l.contains(z))
    }

    /// Optical properties of layer `idx`.
    #[inline]
    pub fn optics(&self, idx: usize) -> &OpticalProperties {
        &self.layers[idx].optics
    }

    /// Precomputed transport constants of layer `idx`.
    #[inline]
    pub fn derived(&self, idx: usize) -> &DerivedOptics {
        &self.derived[idx]
    }

    /// Direction-independent lower bound on the distance from `pos` to any
    /// boundary of layer `idx`: the smaller perpendicular gap to the
    /// layer's two planes. A unit direction's |dz/dt| ≤ 1, so no ray can
    /// reach a plane sooner than its perpendicular gap. Infinite below a
    /// semi-infinite bottom; negative when `pos` has drifted outside the
    /// layer (callers must treat that as "no bound").
    #[inline]
    pub fn min_boundary_distance(&self, pos: Vec3, idx: usize) -> f64 {
        let layer = &self.layers[idx];
        (layer.z_bottom - pos.z).min(pos.z - layer.z_top)
    }

    /// Refractive index on the far side of the boundary a photon in layer
    /// `idx` is crossing: the adjacent layer's index, or the ambient medium.
    pub fn neighbour_n(&self, idx: usize, moving_up: bool) -> f64 {
        if moving_up {
            if idx == 0 {
                self.ambient_n
            } else {
                self.layers[idx - 1].optics.n
            }
        } else if idx + 1 < self.layers.len() {
            self.layers[idx + 1].optics.n
        } else {
            // Below a finite stack: treat as ambient (photon transmits out).
            self.ambient_n
        }
    }

    /// Distance from `pos` travelling along unit `dir` to the first
    /// boundary plane of layer `layer_idx`, with the successor layer index.
    ///
    /// Horizontal travel (`dir.z == 0`) never meets a horizontal boundary:
    /// returns an infinite hit.
    #[inline]
    pub fn boundary_hit(&self, pos: Vec3, dir: Vec3, layer_idx: usize) -> BoundaryHit {
        let layer = &self.layers[layer_idx];
        if dir.z > 0.0 {
            // Moving deeper: next plane is the layer bottom.
            let distance = (layer.z_bottom - pos.z) / dir.z;
            let next = if layer_idx + 1 < self.layers.len() { Some(layer_idx + 1) } else { None };
            BoundaryHit {
                distance: distance.max(0.0),
                next_region: next,
                is_top_surface: false,
                axis: Axis::Z,
            }
        } else if dir.z < 0.0 {
            // Moving up: next plane is the layer top.
            let distance = (layer.z_top - pos.z) / dir.z;
            let next = if layer_idx > 0 { Some(layer_idx - 1) } else { None };
            BoundaryHit {
                distance: distance.max(0.0),
                next_region: next,
                is_top_surface: layer_idx == 0,
                axis: Axis::Z,
            }
        } else {
            BoundaryHit {
                distance: f64::INFINITY,
                next_region: None,
                is_top_surface: false,
                axis: Axis::Z,
            }
        }
    }

    /// Total one-way optical depth of the finite part of the stack.
    pub fn cumulative_optical_depth(&self) -> f64 {
        self.layers.iter().filter(|l| !l.is_semi_infinite()).map(|l| l.optical_thickness()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props(mu_a: f64, mu_s: f64) -> OpticalProperties {
        OpticalProperties::new(mu_a, mu_s, 0.9, 1.4)
    }

    fn two_layer() -> LayeredTissue {
        LayeredTissue::stack(
            vec![
                ("A".into(), 2.0, props(0.01, 10.0)),
                ("B".into(), f64::INFINITY, props(0.02, 20.0)),
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn stack_builds_contiguous_layers() {
        let t = two_layer();
        assert_eq!(t.len(), 2);
        assert_eq!(t.layers()[0].z_bottom, 2.0);
        assert_eq!(t.layers()[1].z_top, 2.0);
        assert!(t.layers()[1].is_semi_infinite());
    }

    #[test]
    fn layer_lookup() {
        let t = two_layer();
        assert_eq!(t.layer_at(0.0), Some(0));
        assert_eq!(t.layer_at(1.999), Some(0));
        assert_eq!(t.layer_at(2.0), Some(1));
        assert_eq!(t.layer_at(1e9), Some(1));
        assert_eq!(t.layer_at(-0.1), None);
    }

    #[test]
    fn rejects_gap() {
        let layers = vec![
            Layer::new("A", 0.0, 1.0, props(0.01, 10.0)),
            Layer::new("B", 1.5, 1.0, props(0.01, 10.0)),
        ];
        assert!(LayeredTissue::new(layers, 1.0).is_err());
    }

    #[test]
    fn rejects_float_start() {
        let layers = vec![Layer::new("A", 0.5, 1.0, props(0.01, 10.0))];
        assert!(LayeredTissue::new(layers, 1.0).is_err());
    }

    #[test]
    fn rejects_mid_stack_semi_infinite() {
        let layers = vec![
            Layer::new("A", 0.0, f64::INFINITY, props(0.01, 10.0)),
            Layer::new("B", 1.0, 1.0, props(0.01, 10.0)),
        ];
        assert!(LayeredTissue::new(layers, 1.0).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(LayeredTissue::new(vec![], 1.0).is_err());
    }

    #[test]
    fn boundary_hit_downward() {
        let t = two_layer();
        let hit = t.boundary_hit(Vec3::new(0.0, 0.0, 0.5), Vec3::PLUS_Z, 0);
        assert!((hit.distance - 1.5).abs() < 1e-12);
        assert_eq!(hit.next_region, Some(1));
        assert!(!hit.is_top_surface);
    }

    #[test]
    fn boundary_hit_oblique() {
        let t = two_layer();
        let dir = Vec3::new(0.6, 0.0, 0.8);
        let hit = t.boundary_hit(Vec3::new(0.0, 0.0, 0.0), dir, 0);
        assert!((hit.distance - 2.0 / 0.8).abs() < 1e-12);
    }

    #[test]
    fn boundary_hit_upward_to_surface() {
        let t = two_layer();
        let hit = t.boundary_hit(Vec3::new(0.0, 0.0, 0.5), -Vec3::PLUS_Z, 0);
        assert!((hit.distance - 0.5).abs() < 1e-12);
        assert_eq!(hit.next_region, None);
        assert!(hit.is_top_surface);
    }

    #[test]
    fn boundary_hit_horizontal_is_infinite() {
        let t = two_layer();
        let hit = t.boundary_hit(Vec3::new(0.0, 0.0, 0.5), Vec3::new(1.0, 0.0, 0.0), 0);
        assert_eq!(hit.distance, f64::INFINITY);
    }

    #[test]
    fn neighbour_indices() {
        let t = two_layer();
        assert_eq!(t.neighbour_n(0, true), 1.0); // ambient above
        assert_eq!(t.neighbour_n(0, false), 1.4); // layer B below
        assert_eq!(t.neighbour_n(1, true), 1.4); // layer A above
    }

    #[test]
    fn semi_infinite_bottom_never_exits_below() {
        let t = two_layer();
        let hit = t.boundary_hit(Vec3::new(0.0, 0.0, 5.0), Vec3::PLUS_Z, 1);
        assert_eq!(hit.distance, f64::INFINITY);
        assert_eq!(hit.next_region, None);
    }

    #[test]
    fn homogeneous_model() {
        let t = LayeredTissue::homogeneous("wm", props(0.014, 91.0), 1.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.layer_at(100.0), Some(0));
        assert_eq!(t.total_depth(), f64::INFINITY);
    }

    #[test]
    fn cumulative_optical_depth_ignores_infinite_layer() {
        let t = two_layer();
        assert!((t.cumulative_optical_depth() - 2.0 * 10.01).abs() < 1e-9);
    }
}
