//! Light sources: the paper's "different sources (delta, Gaussian,
//! uniform)".
//!
//! All sources launch photons downward (+z) at the tissue surface z = 0,
//! centred on the origin; they differ in the transverse footprint:
//!
//! * [`Source::Delta`] — an idealised laser/pencil beam: every photon
//!   enters at exactly (0, 0, 0);
//! * [`Source::Gaussian`] — beam with a Gaussian irradiance profile of the
//!   given 1/e² radius (common for real laser optodes);
//! * [`Source::Uniform`] — flat-top footprint of the given radius (fibre
//!   bundle / LED).
//!
//! On entry the packet suffers specular reflection at the air–tissue
//! interface; the reflected fraction `R_sp = ((n₀−n₁)/(n₀+n₁))²` is removed
//! from the packet weight and reported to the tally, matching MCML.

use lumen_photon::{check, fresnel_reflectance, Fate, FieldError, Photon, Rule, Vec3};
use lumen_tissue::TissueGeometry;
use mcrng::{gaussian_pair, uniform_disc, McRng};

/// Source footprint on the tissue surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Idealised laser: all photons at the origin.
    Delta,
    /// Gaussian profile; `radius` is the 1/e² intensity radius (mm).
    Gaussian { radius: f64 },
    /// Uniform (flat-top) disc of the given radius (mm).
    Uniform { radius: f64 },
}

impl Source {
    /// Validate footprint parameters.
    pub fn validate(&self) -> Result<(), FieldError> {
        match *self {
            Source::Delta => Ok(()),
            Source::Gaussian { radius } | Source::Uniform { radius } => {
                check("source radius", radius, Rule::Positive)
            }
        }
    }

    /// Human-readable name, used in experiment printouts.
    pub fn name(&self) -> &'static str {
        match self {
            Source::Delta => "delta",
            Source::Gaussian { .. } => "gaussian",
            Source::Uniform { .. } => "uniform",
        }
    }

    /// Sample an entry position on the surface plane.
    pub fn sample_position<R: McRng>(&self, rng: &mut R) -> Vec3 {
        match *self {
            Source::Delta => Vec3::ZERO,
            Source::Gaussian { radius } => {
                // 1/e² radius ⇒ irradiance ∝ exp(−2 r²/radius²), i.e. each
                // Cartesian coordinate is N(0, σ²) with σ = radius / 2.
                let sigma = radius / 2.0;
                let (gx, gy) = gaussian_pair(rng);
                Vec3::new(sigma * gx, sigma * gy, 0.0)
            }
            Source::Uniform { radius } => {
                let (x, y) = uniform_disc(rng, radius);
                Vec3::new(x, y, 0.0)
            }
        }
    }

    /// Launch one photon into the tissue: sample the footprint, apply
    /// specular reflection at the air–tissue interface, and return the
    /// photon plus the specularly reflected weight (for the tally).
    ///
    /// A footprint sample that falls outside a finite geometry's lateral
    /// extent (possible only for voxel grids) never enters the tissue: the
    /// returned photon is already terminated as [`Fate::ReflectedOut`] with
    /// its full weight, and the engine tallies it as diffuse reflectance.
    pub fn launch<G: TissueGeometry + ?Sized, R: McRng>(
        &self,
        geometry: &G,
        rng: &mut R,
    ) -> (Photon, f64) {
        let pos = self.sample_position(rng);
        match geometry.entry_region(pos) {
            Some(region) => {
                let mut photon = Photon::launch(pos, Vec3::PLUS_Z, region);
                // Normal incidence specular reflection ambient -> surface.
                let r_sp =
                    fresnel_reflectance(geometry.ambient_n(), geometry.optics(region).n, 1.0);
                photon.weight -= r_sp;
                (photon, r_sp)
            }
            None => {
                let mut photon = Photon::launch(pos, Vec3::PLUS_Z, 0);
                photon.terminate(Fate::ReflectedOut);
                (photon, 0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_tissue::presets::homogeneous_white_matter;
    use mcrng::Xoshiro256PlusPlus;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(17)
    }

    #[test]
    fn delta_always_origin() {
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(Source::Delta.sample_position(&mut r), Vec3::ZERO);
        }
    }

    #[test]
    fn uniform_within_radius() {
        let mut r = rng();
        let s = Source::Uniform { radius: 1.5 };
        for _ in 0..10_000 {
            let p = s.sample_position(&mut r);
            assert!(p.radial() <= 1.5 + 1e-12);
            assert_eq!(p.z, 0.0);
        }
    }

    #[test]
    fn gaussian_radius_statistics() {
        // With sigma = radius/2, E[r²] = 2 sigma² = radius²/2.
        let mut r = rng();
        let radius = 2.0;
        let s = Source::Gaussian { radius };
        let n = 100_000;
        let mean_r2: f64 = (0..n)
            .map(|_| {
                let p = s.sample_position(&mut r);
                p.x * p.x + p.y * p.y
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean_r2 - radius * radius / 2.0).abs() < 0.05, "E[r2] = {mean_r2}");
    }

    #[test]
    fn launch_applies_specular_reflection() {
        let tissue = homogeneous_white_matter();
        let mut r = rng();
        let (photon, r_sp) = Source::Delta.launch(&tissue, &mut r);
        // air (1.0) -> tissue (1.4): R_sp = (0.4/2.4)^2.
        let expect = (0.4f64 / 2.4).powi(2);
        assert!((r_sp - expect).abs() < 1e-12);
        assert!((photon.weight - (1.0 - expect)).abs() < 1e-12);
        assert_eq!(photon.dir, Vec3::PLUS_Z);
        assert_eq!(photon.layer, 0);
    }

    #[test]
    fn footprint_means_are_centred() {
        let mut r = rng();
        for s in [Source::Gaussian { radius: 1.0 }, Source::Uniform { radius: 1.0 }] {
            let n = 50_000;
            let (mut sx, mut sy) = (0.0, 0.0);
            for _ in 0..n {
                let p = s.sample_position(&mut r);
                sx += p.x;
                sy += p.y;
            }
            assert!((sx / n as f64).abs() < 0.01, "{}", s.name());
            assert!((sy / n as f64).abs() < 0.01, "{}", s.name());
        }
    }

    #[test]
    fn validation() {
        assert!(Source::Delta.validate().is_ok());
        assert!(Source::Gaussian { radius: 1.0 }.validate().is_ok());
        assert!(Source::Gaussian { radius: 0.0 }.validate().is_err());
        assert!(Source::Uniform { radius: -1.0 }.validate().is_err());
        assert!(Source::Uniform { radius: f64::NAN }.validate().is_err());
    }

    #[test]
    fn names() {
        assert_eq!(Source::Delta.name(), "delta");
        assert_eq!(Source::Gaussian { radius: 1.0 }.name(), "gaussian");
        assert_eq!(Source::Uniform { radius: 1.0 }.name(), "uniform");
    }
}
