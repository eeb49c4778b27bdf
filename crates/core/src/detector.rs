//! Detector geometry and pathlength gating.
//!
//! In the paper a photon "passes through the detector" when it exits the
//! top surface inside the detector aperture; its path is then saved and the
//! walk ends. The aperture is a circle of radius `radius` centred at
//! `(separation, 0, 0)` — `separation` is the source–detector spacing the
//! NIRS literature parameterises everything by (20–60 mm in the paper's
//! discussion).
//!
//! The paper also supports *gated differential pathlengths*: in a real
//! pulsed experiment source and detector only operate between pulses, so
//! only photons whose total pathlength falls inside a gate window are
//! accepted. [`GateWindow`] reproduces this.

use crate::error::ConfigError;
use lumen_photon::Vec3;

/// Acceptance window on photon pathlength (mm), simulating time gating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateWindow {
    /// Minimum accepted pathlength (mm).
    pub min_mm: f64,
    /// Maximum accepted pathlength (mm); `f64::INFINITY` = ungated upper end.
    pub max_mm: f64,
}

impl GateWindow {
    /// A window accepting everything (gating disabled).
    pub const OPEN: GateWindow = GateWindow { min_mm: 0.0, max_mm: f64::INFINITY };

    /// Construct a validated window.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(a > b)` also rejects NaN
    pub fn new(min_mm: f64, max_mm: f64) -> Result<Self, ConfigError> {
        if min_mm < 0.0 || !(max_mm > min_mm) {
            return Err(ConfigError::BadGate { min_mm, max_mm });
        }
        Ok(Self { min_mm, max_mm })
    }

    /// Whether a pathlength passes the gate.
    #[inline]
    pub fn accepts(&self, pathlength_mm: f64) -> bool {
        pathlength_mm >= self.min_mm && pathlength_mm <= self.max_mm
    }

    /// True when the window is fully open.
    pub fn is_open(&self) -> bool {
        self.min_mm == 0.0 && self.max_mm.is_infinite()
    }
}

impl Default for GateWindow {
    fn default() -> Self {
        Self::OPEN
    }
}

/// Detector aperture on the tissue surface.
///
/// Two geometries are supported:
///
/// * a **disc** of radius `radius` centred at `(separation, 0)` — a
///   physical optode (the default);
/// * a **ring** accepting any exit whose radial distance from the source
///   axis is within `radius` of `separation`. By azimuthal symmetry of the
///   source this measures the same physics as the disc but with far higher
///   statistical efficiency (MCML's radially-binned reflectance uses the
///   same trick); use it for penetration/pathlength statistics at large
///   separations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detector {
    /// Source–detector separation along +x (mm).
    pub separation: f64,
    /// Aperture radius (disc) or half-width (ring), in mm.
    pub radius: f64,
    /// Ring (annular) geometry instead of a disc.
    pub ring: bool,
    /// Minimum cosine (in the ambient medium) of the exit angle a photon
    /// may have and still be collected — `None` accepts all angles.
    /// Set via [`Detector::with_numerical_aperture`].
    pub min_exit_cos: Option<f64>,
    /// Pathlength gate; photons outside the window are treated as ordinary
    /// diffuse reflectance rather than detections.
    pub gate: GateWindow,
}

impl Detector {
    /// Disc detector of radius `radius` at the given separation, ungated.
    pub fn new(separation: f64, radius: f64) -> Self {
        Self { separation, radius, ring: false, min_exit_cos: None, gate: GateWindow::OPEN }
    }

    /// Annular detector accepting exits at radial distance
    /// `separation ± half_width` from the source axis, ungated.
    pub fn ring(separation: f64, half_width: f64) -> Self {
        Self {
            separation,
            radius: half_width,
            ring: true,
            min_exit_cos: None,
            gate: GateWindow::OPEN,
        }
    }

    /// Restrict collection to a fibre numerical aperture: only photons
    /// exiting within `asin(na / n_ambient)` of the surface normal are
    /// detected (a real optode's acceptance cone). `na >= n_ambient`
    /// accepts everything.
    pub fn with_numerical_aperture(mut self, na: f64, n_ambient: f64) -> Self {
        assert!(na > 0.0 && n_ambient >= 1.0, "invalid numerical aperture");
        let sin_max = (na / n_ambient).min(1.0);
        self.min_exit_cos = Some((1.0 - sin_max * sin_max).sqrt());
        self
    }

    /// Does an exit-angle cosine (ambient side) pass the acceptance cone?
    #[inline]
    pub fn accepts_angle(&self, exit_cos: f64) -> bool {
        match self.min_exit_cos {
            Some(min) => exit_cos >= min,
            None => true,
        }
    }

    /// Attach a pathlength gate.
    pub fn with_gate(mut self, gate: GateWindow) -> Self {
        self.gate = gate;
        self
    }

    /// Validate geometry.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.separation >= 0.0 && self.separation.is_finite()) {
            return Err(format!(
                "detector separation must be finite >= 0, got {}",
                self.separation
            ));
        }
        if !(self.radius > 0.0 && self.radius.is_finite()) {
            return Err(format!("detector radius must be finite > 0, got {}", self.radius));
        }
        // The constructor's rule, so a gate built field by field (or
        // decoded from the wire) cannot pass with a NaN edge.
        GateWindow::new(self.gate.min_mm, self.gate.max_mm).map_err(|e| e.to_string())?;
        if let Some(c) = self.min_exit_cos {
            if !(0.0..=1.0).contains(&c) {
                return Err(format!("acceptance cosine must be in [0,1], got {c}"));
            }
        }
        Ok(())
    }

    /// Does a photon exiting the surface at `exit_pos` hit the aperture?
    /// (Geometry only; gating is checked separately so the tally can count
    /// gate rejections.)
    #[inline]
    pub fn in_aperture(&self, exit_pos: Vec3) -> bool {
        if self.ring {
            (exit_pos.radial() - self.separation).abs() <= self.radius
        } else {
            let dx = exit_pos.x - self.separation;
            let dy = exit_pos.y;
            dx * dx + dy * dy <= self.radius * self.radius
        }
    }

    /// Full detection test: aperture and gate.
    #[inline]
    pub fn detects(&self, exit_pos: Vec3, pathlength_mm: f64) -> bool {
        self.in_aperture(exit_pos) && self.gate.accepts(pathlength_mm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aperture_geometry() {
        let d = Detector::new(30.0, 2.0);
        assert!(d.in_aperture(Vec3::new(30.0, 0.0, 0.0)));
        assert!(d.in_aperture(Vec3::new(31.9, 0.0, 0.0)));
        assert!(d.in_aperture(Vec3::new(30.0, -1.9, 0.0)));
        assert!(!d.in_aperture(Vec3::new(32.1, 0.0, 0.0)));
        assert!(!d.in_aperture(Vec3::new(0.0, 0.0, 0.0)));
        // Exactly on the rim counts.
        assert!(d.in_aperture(Vec3::new(32.0, 0.0, 0.0)));
    }

    #[test]
    fn nan_gate_edges_fail_validation() {
        for (min_mm, max_mm) in [(f64::NAN, 50.0), (0.0, f64::NAN), (f64::NAN, f64::NAN)] {
            let d = Detector::new(10.0, 2.0).with_gate(GateWindow { min_mm, max_mm });
            let err = d.validate().expect_err("a NaN gate edge must not validate");
            assert!(err.contains("gate"), "{err}");
        }
    }

    #[test]
    fn gate_accepts_window() {
        let g = GateWindow::new(50.0, 200.0).unwrap();
        assert!(!g.accepts(49.9));
        assert!(g.accepts(50.0));
        assert!(g.accepts(125.0));
        assert!(g.accepts(200.0));
        assert!(!g.accepts(200.1));
    }

    #[test]
    fn open_gate_accepts_everything() {
        assert!(GateWindow::OPEN.is_open());
        assert!(GateWindow::OPEN.accepts(0.0));
        assert!(GateWindow::OPEN.accepts(1e12));
    }

    #[test]
    fn gated_detection_combines_both() {
        let d = Detector::new(10.0, 1.0).with_gate(GateWindow::new(20.0, 100.0).unwrap());
        let at = Vec3::new(10.0, 0.0, 0.0);
        assert!(d.detects(at, 50.0));
        assert!(!d.detects(at, 10.0)); // too early
        assert!(!d.detects(at, 150.0)); // too late
        assert!(!d.detects(Vec3::new(20.0, 0.0, 0.0), 50.0)); // misses aperture
    }

    #[test]
    fn ring_aperture_accepts_any_azimuth() {
        let d = Detector::ring(30.0, 2.0);
        assert!(d.in_aperture(Vec3::new(30.0, 0.0, 0.0)));
        assert!(d.in_aperture(Vec3::new(0.0, 30.0, 0.0)));
        assert!(d.in_aperture(Vec3::new(-21.5, -21.5, 0.0))); // r ≈ 30.4
        assert!(d.in_aperture(Vec3::new(28.1, 0.0, 0.0)));
        assert!(!d.in_aperture(Vec3::new(27.9, 0.0, 0.0)));
        assert!(!d.in_aperture(Vec3::new(0.0, 0.0, 0.0)));
        assert!(!d.in_aperture(Vec3::new(33.0, 0.0, 0.0)));
    }

    #[test]
    fn numerical_aperture_restricts_angles() {
        // NA 0.5 in air: sin_max = 0.5, cos_min = sqrt(0.75) ~ 0.866.
        let d = Detector::new(10.0, 1.0).with_numerical_aperture(0.5, 1.0);
        assert!(d.accepts_angle(1.0)); // normal exit
        assert!(d.accepts_angle(0.90));
        assert!(!d.accepts_angle(0.80)); // outside the cone

        // No NA accepts grazing exits.
        assert!(Detector::new(10.0, 1.0).accepts_angle(0.01));
        // NA >= n accepts everything.
        let open = Detector::new(10.0, 1.0).with_numerical_aperture(2.0, 1.0);
        assert!(open.accepts_angle(0.0));
    }

    #[test]
    fn bad_windows_rejected_with_typed_errors() {
        assert_eq!(
            GateWindow::new(-1.0, 10.0),
            Err(ConfigError::BadGate { min_mm: -1.0, max_mm: 10.0 })
        );
        assert_eq!(
            GateWindow::new(10.0, 10.0),
            Err(ConfigError::BadGate { min_mm: 10.0, max_mm: 10.0 })
        );
        assert!(GateWindow::new(10.0, 5.0).is_err());
        assert!(GateWindow::new(0.0, f64::NAN).is_err());
    }

    #[test]
    fn detector_validation() {
        assert!(Detector::new(30.0, 2.0).validate().is_ok());
        assert!(Detector::new(-1.0, 2.0).validate().is_err());
        assert!(Detector::new(30.0, 0.0).validate().is_err());
        let mut d = Detector::new(30.0, 2.0);
        d.gate = GateWindow { min_mm: 5.0, max_mm: 1.0 };
        assert!(d.validate().is_err());
    }
}
