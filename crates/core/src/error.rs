//! Typed configuration errors — the engine-side counterpart of
//! `lumen_tissue::GeometryError`.
//!
//! The seed code validated configurations with `Result<_, String>`, which
//! made error paths untestable beyond substring matching and lost the
//! distinction between *which* knob was wrong. [`ConfigError`] names each
//! failure mode with its offending values, and converts into
//! [`EngineError::InvalidConfig`](crate::engine::EngineError) at the
//! engine boundary, so every backend keeps returning one error type.

use lumen_photon::Vec3;
use lumen_tissue::GeometryError;

/// A reason a simulation configuration is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A tally grid has zero voxels along some axis.
    EmptyGrid,
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
    /// A path histogram needs a positive range and at least one bin.
    BadHistogram {
        /// Offending range (mm).
        max_mm: f64,
        /// Offending bin count.
        bins: usize,
    },
    /// An A(r, z) grid needs a positive depth and at least one depth bin.
    BadDepthBinning {
        /// Offending depth bin count.
        nz: usize,
        /// Offending maximum depth (mm).
        z_max: f64,
    },
    /// A radial binning needs at least one bin and a finite, positive
    /// outer radius.
    BadRadialBinning {
        /// Which binning ("reflectance profile", "absorption_rz", ...).
        what: &'static str,
        /// Offending bin count.
        nr: usize,
        /// Offending outer radius (mm).
        r_max: f64,
    },
    /// A grid or profile was handed storage that does not hold exactly one
    /// value per cell.
    CellCount {
        /// Cells the binning describes.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// `max_interactions` must be positive (0 would retire every photon
    /// before its first step).
    ZeroInteractionCap,
    /// A component with its own validator (source, detector, roulette)
    /// rejected its parameters.
    Component {
        /// Which component ("source", "detector", ...).
        what: &'static str,
        /// The component's own description of the problem.
        reason: String,
    },
    /// The tissue geometry failed transport-level validation.
    Geometry(GeometryError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyGrid => write!(f, "grid needs at least one voxel per axis"),
            ConfigError::DegenerateGrid { min, max } => {
                write!(f, "degenerate grid extents {min:?}..{max:?}")
            }
            ConfigError::BadGate { min_mm, max_mm } => {
                write!(f, "invalid gate window [{min_mm}, {max_mm}] (need 0 <= min < max)")
            }
            ConfigError::BadHistogram { max_mm, bins } => {
                write!(f, "path histogram needs positive range and bins, got ({max_mm} mm, {bins})")
            }
            ConfigError::BadDepthBinning { nz, z_max } => {
                write!(f, "absorption_rz needs positive depth binning, got ({nz}, {z_max} mm)")
            }
            ConfigError::BadRadialBinning { what, nr, r_max } => {
                write!(
                    f,
                    "{what} needs radial bins and a finite positive r_max, got ({nr}, {r_max} mm)"
                )
            }
            ConfigError::CellCount { expected, got } => {
                write!(f, "storage holds {got} values for {expected} cells")
            }
            ConfigError::ZeroInteractionCap => write!(f, "max_interactions must be positive"),
            ConfigError::Component { what, reason } => write!(f, "invalid {what}: {reason}"),
            ConfigError::Geometry(e) => write!(f, "invalid geometry: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<GeometryError> for ConfigError {
    fn from(e: GeometryError) -> Self {
        ConfigError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_values() {
        let gate = ConfigError::BadGate { min_mm: 5.0, max_mm: 1.0 };
        assert!(gate.to_string().contains("[5, 1]"));
        let hist = ConfigError::BadHistogram { max_mm: -1.0, bins: 0 };
        assert!(hist.to_string().contains("histogram"));
        let comp = ConfigError::Component { what: "detector", reason: "radius 0".into() };
        assert!(comp.to_string().contains("detector"));
        assert!(comp.to_string().contains("radius 0"));
    }

    #[test]
    fn geometry_errors_convert() {
        let geo = GeometryError::Empty("layer");
        let cfg: ConfigError = geo.clone().into();
        assert_eq!(cfg, ConfigError::Geometry(geo));
    }
}
