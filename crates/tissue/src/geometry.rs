//! The geometry abstraction the transport engine is generic over.
//!
//! The photon stepping loop only ever asks a tissue model five questions:
//! how many regions are there, what are region `r`'s optics, which region
//! does a photon enter at the surface, where is the next boundary along a
//! ray, and what refractive index sits on the far side of that boundary.
//! [`TissueGeometry`] is exactly that interface; [`LayeredTissue`] (1-D
//! slabs) and [`VoxelTissue`] (dense 3-D material grids) both implement it,
//! and the engine monomorphizes the hot loop per implementation — layered
//! scenarios pay nothing for the abstraction (the golden-tally harness
//! pins them bit-for-bit).
//!
//! [`Geometry`] is the closed enum of shipped implementations used wherever
//! a *value* has to be stored, serialized, or sent over the cluster wire
//! (`Scenario`, the CLI config, `lumen_cluster::wire`).

use crate::error::GeometryError;
use crate::model::{BoundaryHit, LayeredTissue};
use crate::voxel::VoxelTissue;
use lumen_photon::{DerivedOptics, OpticalProperties, Vec3};

/// Geometric queries the transport loop needs, answered by any tissue
/// model.
///
/// Regions are dense indices `0..region_count()`: layer indices for a
/// layered stack, material-palette indices for a voxel grid. Per-region
/// tallies (absorption, partial pathlengths) are keyed by them.
pub trait TissueGeometry {
    /// Number of distinct regions (layers or palette materials).
    fn region_count(&self) -> usize;

    /// Human-readable name of region `region` (for reports).
    fn region_name(&self, region: usize) -> &str;

    /// Optical properties of region `region`.
    fn optics(&self, region: usize) -> &OpticalProperties;

    /// Precomputed transport constants of region `region` — what the hot
    /// loop reads instead of re-deriving μt and μa/μt per interaction.
    /// Implementations build the table once at construction; every field
    /// is bit-identical to the inline expression it replaces (see
    /// [`DerivedOptics`]).
    fn derived(&self, region: usize) -> &DerivedOptics;

    /// Refractive index of the ambient medium above the z = 0 surface.
    fn ambient_n(&self) -> f64;

    /// Region a photon enters at surface position `pos` (z = 0) travelling
    /// straight down, or `None` when the surface point lies outside the
    /// geometry's lateral extent (possible only for finite voxel grids).
    fn entry_region(&self, pos: Vec3) -> Option<usize>;

    /// First boundary along `dir` from `pos` for a photon currently in
    /// `region`: distance, far-side region, and the boundary's normal axis.
    fn boundary_hit(&self, pos: Vec3, dir: Vec3, region: usize) -> BoundaryHit;

    /// [`boundary_hit`](Self::boundary_hit) for a caller that only acts on
    /// boundaries closer than `limit` (the engine passes its sampled step
    /// length, and `f64::INFINITY` in transparent regions).
    ///
    /// Contract: when the first boundary is closer than `limit`, the result
    /// is exactly `boundary_hit`'s. Otherwise the search may stop at the
    /// first candidate at or beyond `limit` and return any hit whose
    /// `distance >= limit`; its other fields are then meaningless. The
    /// engine interacts iff `step <= distance` and then advances by the
    /// step, never by the distance, so such a hit decides the same way.
    /// The default runs the full query, which is what a model with O(1)
    /// boundary queries (the layered stack) wants.
    #[inline]
    fn boundary_hit_within(&self, pos: Vec3, dir: Vec3, region: usize, limit: f64) -> BoundaryHit {
        let _ = limit;
        self.boundary_hit(pos, dir, region)
    }

    /// A cheap, direction-independent lower bound on
    /// [`boundary_hit`](Self::boundary_hit)'s distance from `pos` inside
    /// `region`, or any value `<= 0` when no useful bound exists (the
    /// default). The engine skips the full boundary query — and its
    /// division by the direction cosine — whenever the sampled step is at
    /// most *half* this bound; the factor-2 margin strictly dominates the
    /// rounding error of the exact distance computation, so the fast and
    /// slow paths always make the same interact-vs-boundary decision.
    #[inline]
    fn min_boundary_distance(&self, pos: Vec3, region: usize) -> f64 {
        let _ = (pos, region);
        0.0
    }

    /// Refractive index on the far side of `hit` for a photon in `region`:
    /// the next region's index, or the ambient medium when the photon is
    /// exiting the tissue.
    fn neighbour_n(&self, region: usize, hit: &BoundaryHit) -> f64 {
        let _ = region;
        match hit.next_region {
            Some(next) => self.optics(next).n,
            None => self.ambient_n(),
        }
    }

    /// Transport-level validation beyond construction invariants (e.g. a
    /// layered stack's semi-infinite bottom must not be transparent, or a
    /// photon could stream forever).
    fn validate(&self) -> Result<(), GeometryError>;
}

impl TissueGeometry for LayeredTissue {
    #[inline]
    fn region_count(&self) -> usize {
        self.len()
    }

    fn region_name(&self, region: usize) -> &str {
        &self.layers()[region].name
    }

    #[inline]
    fn optics(&self, region: usize) -> &OpticalProperties {
        LayeredTissue::optics(self, region)
    }

    #[inline]
    fn derived(&self, region: usize) -> &DerivedOptics {
        LayeredTissue::derived(self, region)
    }

    #[inline]
    fn ambient_n(&self) -> f64 {
        self.ambient_n
    }

    fn entry_region(&self, _pos: Vec3) -> Option<usize> {
        // Layers span the whole x-y plane: entry is always the top layer.
        self.layer_at(0.0)
    }

    #[inline]
    fn boundary_hit(&self, pos: Vec3, dir: Vec3, region: usize) -> BoundaryHit {
        LayeredTissue::boundary_hit(self, pos, dir, region)
    }

    #[inline]
    fn min_boundary_distance(&self, pos: Vec3, region: usize) -> f64 {
        LayeredTissue::min_boundary_distance(self, pos, region)
    }

    fn validate(&self) -> Result<(), GeometryError> {
        let last = self.layers().last().expect("validated non-empty");
        if last.is_semi_infinite() && last.optics.is_transparent() {
            return Err(GeometryError::BadLayer {
                layer: last.name.clone(),
                problem: "is semi-infinite and cannot be transparent",
            });
        }
        Ok(())
    }
}

/// The closed set of shipped tissue geometries — what a [`Scenario`]
/// (`lumen_core::engine`) stores and the cluster wire format ships.
///
/// [`From`] impls let every pre-voxel call site keep passing a bare
/// [`LayeredTissue`]: `Simulation::new(tissue, ...)` and
/// `Scenario::new(tissue, ...)` accept `impl Into<Geometry>`.
///
/// [`Scenario`]: ../lumen_core/engine/struct.Scenario.html
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// 1-D stack of horizontal slabs (the paper's head models).
    Layered(LayeredTissue),
    /// Dense 3-D voxel grid with a material palette.
    Voxel(VoxelTissue),
}

impl From<LayeredTissue> for Geometry {
    fn from(t: LayeredTissue) -> Self {
        Geometry::Layered(t)
    }
}

impl From<VoxelTissue> for Geometry {
    fn from(t: VoxelTissue) -> Self {
        Geometry::Voxel(t)
    }
}

macro_rules! dispatch {
    ($self:ident, $g:ident => $body:expr) => {
        match $self {
            Geometry::Layered($g) => $body,
            Geometry::Voxel($g) => $body,
        }
    };
}

impl Geometry {
    /// Number of regions — see [`TissueGeometry::region_count`].
    pub fn region_count(&self) -> usize {
        dispatch!(self, g => g.region_count())
    }

    /// Alias for [`Self::region_count`], mirroring `LayeredTissue::len`.
    pub fn len(&self) -> usize {
        self.region_count()
    }

    /// True when the geometry has no regions (unconstructible).
    pub fn is_empty(&self) -> bool {
        self.region_count() == 0
    }

    /// Name of region `region`.
    pub fn region_name(&self, region: usize) -> &str {
        dispatch!(self, g => g.region_name(region))
    }

    /// Optics of region `region`.
    pub fn optics(&self, region: usize) -> &OpticalProperties {
        dispatch!(self, g => TissueGeometry::optics(g, region))
    }

    /// Precomputed transport constants of region `region`.
    pub fn derived(&self, region: usize) -> &DerivedOptics {
        dispatch!(self, g => TissueGeometry::derived(g, region))
    }

    /// Ambient refractive index above the surface.
    pub fn ambient_n(&self) -> f64 {
        dispatch!(self, g => TissueGeometry::ambient_n(g))
    }

    /// Entry region at surface position `pos`.
    pub fn entry_region(&self, pos: Vec3) -> Option<usize> {
        dispatch!(self, g => g.entry_region(pos))
    }

    /// First boundary along a ray — see [`TissueGeometry::boundary_hit`].
    pub fn boundary_hit(&self, pos: Vec3, dir: Vec3, region: usize) -> BoundaryHit {
        dispatch!(self, g => TissueGeometry::boundary_hit(g, pos, dir, region))
    }

    /// Step-bounded boundary query — see
    /// [`TissueGeometry::boundary_hit_within`].
    pub fn boundary_hit_within(
        &self,
        pos: Vec3,
        dir: Vec3,
        region: usize,
        limit: f64,
    ) -> BoundaryHit {
        dispatch!(self, g => TissueGeometry::boundary_hit_within(g, pos, dir, region, limit))
    }

    /// Direction-independent boundary-distance lower bound — see
    /// [`TissueGeometry::min_boundary_distance`].
    pub fn min_boundary_distance(&self, pos: Vec3, region: usize) -> f64 {
        dispatch!(self, g => TissueGeometry::min_boundary_distance(g, pos, region))
    }

    /// Far-side refractive index — see [`TissueGeometry::neighbour_n`].
    pub fn neighbour_n(&self, region: usize, hit: &BoundaryHit) -> f64 {
        dispatch!(self, g => TissueGeometry::neighbour_n(g, region, hit))
    }

    /// Transport-level validation — see [`TissueGeometry::validate`].
    pub fn validate(&self) -> Result<(), GeometryError> {
        dispatch!(self, g => TissueGeometry::validate(g))
    }

    /// The layered model, if this is one.
    pub fn as_layered(&self) -> Option<&LayeredTissue> {
        match self {
            Geometry::Layered(t) => Some(t),
            Geometry::Voxel(_) => None,
        }
    }

    /// The voxel model, if this is one.
    pub fn as_voxel(&self) -> Option<&VoxelTissue> {
        match self {
            Geometry::Voxel(t) => Some(t),
            Geometry::Layered(_) => None,
        }
    }

    /// Short kind name for reports and config round-trips.
    pub fn kind(&self) -> &'static str {
        match self {
            Geometry::Layered(_) => "layered",
            Geometry::Voxel(_) => "voxel",
        }
    }
}

impl TissueGeometry for Geometry {
    fn region_count(&self) -> usize {
        Geometry::region_count(self)
    }

    fn region_name(&self, region: usize) -> &str {
        Geometry::region_name(self, region)
    }

    fn optics(&self, region: usize) -> &OpticalProperties {
        Geometry::optics(self, region)
    }

    fn derived(&self, region: usize) -> &DerivedOptics {
        Geometry::derived(self, region)
    }

    fn ambient_n(&self) -> f64 {
        Geometry::ambient_n(self)
    }

    fn entry_region(&self, pos: Vec3) -> Option<usize> {
        Geometry::entry_region(self, pos)
    }

    fn boundary_hit(&self, pos: Vec3, dir: Vec3, region: usize) -> BoundaryHit {
        Geometry::boundary_hit(self, pos, dir, region)
    }

    fn boundary_hit_within(&self, pos: Vec3, dir: Vec3, region: usize, limit: f64) -> BoundaryHit {
        Geometry::boundary_hit_within(self, pos, dir, region, limit)
    }

    fn min_boundary_distance(&self, pos: Vec3, region: usize) -> f64 {
        Geometry::min_boundary_distance(self, pos, region)
    }

    fn neighbour_n(&self, region: usize, hit: &BoundaryHit) -> f64 {
        Geometry::neighbour_n(self, region, hit)
    }

    fn validate(&self) -> Result<(), GeometryError> {
        Geometry::validate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{adult_head, AdultHeadConfig};
    use lumen_photon::Axis;

    #[test]
    fn layered_trait_answers_match_inherent_api() {
        let head = adult_head(AdultHeadConfig::default());
        assert_eq!(TissueGeometry::region_count(&head), head.len());
        assert_eq!(TissueGeometry::region_name(&head, 2), "CSF");
        assert_eq!(TissueGeometry::ambient_n(&head), head.ambient_n);
        assert_eq!(TissueGeometry::entry_region(&head, Vec3::ZERO), Some(0));
        let hit = TissueGeometry::boundary_hit(&head, Vec3::new(0.0, 0.0, 1.0), Vec3::PLUS_Z, 0);
        assert_eq!(hit.axis, Axis::Z);
        assert_eq!(hit.next_region, Some(1));
    }

    #[test]
    fn neighbour_n_default_matches_layered_rule() {
        let head = adult_head(AdultHeadConfig::default());
        // Downward crossing out of layer 0 → layer 1's index.
        let down = TissueGeometry::boundary_hit(&head, Vec3::new(0.0, 0.0, 1.0), Vec3::PLUS_Z, 0);
        assert_eq!(TissueGeometry::neighbour_n(&head, 0, &down), head.neighbour_n(0, false));
        // Upward crossing out of layer 0 → ambient.
        let up = TissueGeometry::boundary_hit(&head, Vec3::new(0.0, 0.0, 1.0), -Vec3::PLUS_Z, 0);
        assert_eq!(TissueGeometry::neighbour_n(&head, 0, &up), head.neighbour_n(0, true));
        // Upward crossing out of layer 3 → layer 2's index.
        let up3 = TissueGeometry::boundary_hit(&head, Vec3::new(0.0, 0.0, 17.0), -Vec3::PLUS_Z, 3);
        assert_eq!(TissueGeometry::neighbour_n(&head, 3, &up3), head.neighbour_n(3, true));
    }

    #[test]
    fn enum_dispatch_and_conversions() {
        let head = adult_head(AdultHeadConfig::default());
        let g: Geometry = head.clone().into();
        assert_eq!(g.kind(), "layered");
        assert_eq!(g.len(), 5);
        assert!(!g.is_empty());
        assert_eq!(g.region_name(4), "White matter");
        assert_eq!(g.optics(4).mu_a, head.optics(4).mu_a);
        assert!(g.as_layered().is_some());
        assert!(g.as_voxel().is_none());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn transparent_semi_infinite_bottom_fails_transport_validation() {
        let t = LayeredTissue::homogeneous("void", OpticalProperties::transparent(1.0), 1.0);
        assert!(matches!(TissueGeometry::validate(&t), Err(GeometryError::BadLayer { .. })));
    }
}
