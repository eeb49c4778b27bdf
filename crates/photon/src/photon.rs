//! The photon-packet state threaded through the simulation loop.
//!
//! Following the variance-reduced scheme, a "photon" is really a packet
//! carrying a statistical weight that is attenuated at each interaction
//! instead of the packet being absorbed outright.

use crate::vec3::Vec3;

/// Why a photon's random walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Still propagating.
    Alive,
    /// Crossed the top surface (z = 0) back into the ambient medium and
    /// passed through the detector aperture — "save path and end".
    Detected,
    /// Escaped through the top surface outside the detector (diffuse
    /// reflectance) or was specularly reflected at launch.
    ReflectedOut,
    /// Escaped through the bottom surface (diffuse transmittance).
    Transmitted,
    /// Lost the Russian-roulette survival draw.
    RouletteKilled,
    /// Weight reached exactly zero (fully absorbed; only possible in pure
    /// absorbers where the single-scattering albedo is 0).
    Absorbed,
    /// Exceeded the configured interaction budget (safety valve, counted
    /// separately so it can be asserted to be rare).
    Expired,
}

impl Fate {
    /// True if the walk is over.
    #[inline]
    pub fn terminal(self) -> bool {
        self != Fate::Alive
    }
}

/// A photon packet: position, direction, weight, and trip bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Photon {
    /// Position (mm). Tissue occupies z ≥ 0; the surface is z = 0.
    pub pos: Vec3,
    /// Unit direction of travel.
    pub dir: Vec3,
    /// Statistical weight in [0, 1].
    pub weight: f64,
    /// Total geometric pathlength travelled inside the tissue (mm). This is
    /// the quantity gated by the paper's "gated differential pathlengths".
    pub pathlength: f64,
    /// Index of the tissue layer currently containing the photon.
    pub layer: usize,
    /// Number of scattering events so far.
    pub scatters: u32,
    /// Deepest z reached (mm) — used for penetration-depth statistics.
    pub max_depth: f64,
    /// Current fate; `Alive` while propagating.
    pub fate: Fate,
}

impl Photon {
    /// A fresh photon of unit weight at `pos` travelling along `dir`
    /// inside layer `layer`.
    pub fn launch(pos: Vec3, dir: Vec3, layer: usize) -> Self {
        debug_assert!(dir.is_unit(1e-6), "launch direction must be unit");
        Self {
            pos,
            dir,
            weight: 1.0,
            pathlength: 0.0,
            layer,
            scatters: 0,
            max_depth: pos.z.max(0.0),
            fate: Fate::Alive,
        }
    }

    /// True while the photon continues its random walk — the paper's
    /// `while (photon survived)` condition.
    #[inline]
    pub fn survived(&self) -> bool {
        self.fate == Fate::Alive
    }

    /// Advance the photon `distance` mm along its current direction,
    /// accruing pathlength and the depth high-water mark.
    #[inline]
    pub fn advance(&mut self, distance: f64) {
        debug_assert!(distance >= 0.0);
        self.pos += self.dir * distance;
        self.pathlength += distance;
        if self.pos.z > self.max_depth {
            self.max_depth = self.pos.z;
        }
    }

    /// Deposit the absorbed fraction `frac = μa/μt` of the current weight
    /// ("update absorption and photon weight" in the paper's Fig. 1) and
    /// return the amount deposited, for the caller to tally. The engine
    /// passes `DerivedOptics::absorb_frac`, so no interaction divides.
    #[inline]
    pub fn absorb_fraction(&mut self, frac: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&frac));
        let deposited = self.weight * frac;
        self.weight -= deposited;
        deposited
    }

    /// Terminate the photon with the given fate.
    #[inline]
    pub fn terminate(&mut self, fate: Fate) {
        debug_assert!(fate.terminal());
        self.fate = fate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn photon() -> Photon {
        Photon::launch(Vec3::ZERO, Vec3::PLUS_Z, 0)
    }

    #[test]
    fn launch_state() {
        let p = photon();
        assert_eq!(p.weight, 1.0);
        assert_eq!(p.pathlength, 0.0);
        assert!(p.survived());
        assert_eq!(p.scatters, 0);
    }

    #[test]
    fn advance_accrues_path_and_depth() {
        let mut p = photon();
        p.advance(2.0);
        assert_eq!(p.pos.z, 2.0);
        assert_eq!(p.pathlength, 2.0);
        assert_eq!(p.max_depth, 2.0);
        // Turn around; depth high-water mark must not decrease.
        p.dir = -Vec3::PLUS_Z;
        p.advance(1.5);
        assert!((p.pos.z - 0.5).abs() < 1e-12);
        assert_eq!(p.pathlength, 3.5);
        assert_eq!(p.max_depth, 2.0);
    }

    #[test]
    fn absorb_conserves_weight() {
        let mut p = photon();
        let deposited = p.absorb_fraction(0.25);
        assert!((deposited - 0.25).abs() < 1e-12);
        assert!((p.weight - 0.75).abs() < 1e-12);
        // Weight + deposits always equals the original weight.
        let d2 = p.absorb_fraction(0.25);
        assert!((p.weight + deposited + d2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fate_transitions() {
        let mut p = photon();
        assert!(!p.fate.terminal());
        p.terminate(Fate::Detected);
        assert!(!p.survived());
        assert!(p.fate.terminal());
    }
}
