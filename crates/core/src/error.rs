//! Typed configuration errors — the engine-side counterpart of
//! `lumen_tissue::GeometryError`.
//!
//! [`ConfigError`] names each failure mode with its offending values, and
//! converts into [`EngineError::InvalidConfig`](crate::engine::EngineError)
//! at the engine boundary, so every backend keeps returning one error type.
//! A single field that breaks its rule is a [`FieldError`] from the shared
//! rule table (`lumen_photon::rule`); the variants here are the rules that
//! relate two fields or count something.

use lumen_photon::{FieldError, Vec3};
use lumen_tissue::GeometryError;

/// A reason a simulation configuration is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A single field breaks its rule.
    Field(FieldError),
    /// A count that must be at least one is zero (grid voxels, histogram
    /// bins, radial or depth bins, `max_interactions`).
    ZeroCount(&'static str),
    /// A tally binning holds more than
    /// [`MAX_TALLY_CELLS`](crate::tally::MAX_TALLY_CELLS) cells.
    TooManyCells(&'static str),
    /// A tally grid's corners do not span a positive volume.
    DegenerateGrid {
        /// Lower corner (mm).
        min: Vec3,
        /// Upper corner (mm).
        max: Vec3,
    },
    /// A gate window violates `0 <= min < max` (NaN bounds included).
    BadGate {
        /// Offending lower edge (mm).
        min_mm: f64,
        /// Offending upper edge (mm).
        max_mm: f64,
    },
    /// A grid or profile was handed storage that does not hold exactly one
    /// value per cell.
    CellCount {
        /// Cells the binning describes.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// Options that are each valid but do not combine (the fast tier's
    /// refusals, a path archive under classical boundaries).
    Unsupported(&'static str),
    /// The tissue geometry failed transport-level validation.
    Geometry(GeometryError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Field(e) => write!(f, "{e}"),
            ConfigError::ZeroCount(what) => write!(f, "{what} must be >= 1"),
            ConfigError::TooManyCells(what) => {
                write!(f, "{what} exceed the {}-cell cap", crate::tally::MAX_TALLY_CELLS)
            }
            ConfigError::DegenerateGrid { min, max } => {
                write!(f, "degenerate grid extents {min:?}..{max:?}")
            }
            ConfigError::BadGate { min_mm, max_mm } => {
                write!(f, "invalid gate window [{min_mm}, {max_mm}] (need 0 <= min < max)")
            }
            ConfigError::CellCount { expected, got } => {
                write!(f, "storage holds {got} values for {expected} cells")
            }
            ConfigError::Unsupported(why) => write!(f, "{why}"),
            ConfigError::Geometry(e) => write!(f, "invalid geometry: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<FieldError> for ConfigError {
    fn from(e: FieldError) -> Self {
        ConfigError::Field(e)
    }
}

impl From<GeometryError> for ConfigError {
    fn from(e: GeometryError) -> Self {
        ConfigError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_photon::{check, Rule};

    #[test]
    fn messages_name_the_offending_values() {
        let gate = ConfigError::BadGate { min_mm: 5.0, max_mm: 1.0 };
        assert!(gate.to_string().contains("[5, 1]"));
        let radius: ConfigError = check("detector radius", 0.0, Rule::Positive).unwrap_err().into();
        assert_eq!(radius.to_string(), "detector radius must be finite and > 0, got 0");
        assert_eq!(ConfigError::ZeroCount("radial bins").to_string(), "radial bins must be >= 1");
    }

    #[test]
    fn geometry_errors_convert() {
        let geo = GeometryError::Empty("layer");
        let cfg: ConfigError = geo.clone().into();
        assert_eq!(cfg, ConfigError::Geometry(geo));
    }
}
