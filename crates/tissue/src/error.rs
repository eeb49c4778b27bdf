//! Typed geometry-construction errors.
//!
//! Callers that branch on the failure kind (the CLI, the wire decoder, the
//! engine) get an enum, and `lumen_core::engine::EngineError` has a `From`
//! impl so geometry failures flow into `EngineError::InvalidConfig` with
//! `?`. Single-field failures carry the [`FieldError`] of the shared rule
//! table (`lumen_photon::rule`).

use lumen_photon::FieldError;

/// Why a tissue geometry could not be built (or is unusable for transport).
#[derive(Debug, Clone, PartialEq)]
pub enum GeometryError {
    /// The geometry has no regions at all (no layers, materials, or cells).
    Empty(&'static str),
    /// A geometry-wide field (ambient index, voxel pitch or origin, a
    /// voxelized extent) breaks its rule.
    Field(FieldError),
    /// A field of one region (its optics, or a layer's top) breaks its rule.
    Region {
        /// Region (layer or material) name.
        region: String,
        /// The field and its rule.
        error: FieldError,
    },
    /// A layer does not fit the stack: empty or inverted extent, a gap, a
    /// surface that does not start at z = 0, a semi-infinite layer that is
    /// not last or is transparent.
    BadLayer {
        /// Layer name.
        layer: String,
        /// What is wrong with it.
        problem: &'static str,
    },
    /// The voxel grid shape or cell data is inconsistent.
    BadGrid(&'static str),
    /// A voxel-grid text file failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryError::Empty(what) => write!(f, "geometry needs at least one {what}"),
            GeometryError::Field(e) => write!(f, "{e}"),
            GeometryError::Region { region, error } => write!(f, "region '{region}': {error}"),
            GeometryError::BadLayer { layer, problem } => write!(f, "layer '{layer}' {problem}"),
            GeometryError::BadGrid(reason) => write!(f, "voxel grid: {reason}"),
            GeometryError::Parse { line, reason } => {
                write!(f, "voxel file line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

impl From<FieldError> for GeometryError {
    fn from(e: FieldError) -> Self {
        GeometryError::Field(e)
    }
}
