//! Optical properties of a homogeneous medium.
//!
//! Units follow the paper's Table 1: coefficients in mm⁻¹, lengths in mm.
//! The table reports the *transport* (reduced) scattering coefficient
//! `μs' = μs (1 − g)`; [`OpticalProperties::from_reduced_scattering`]
//! recovers `μs` for a chosen anisotropy `g`, which is how the presets in
//! `lumen-tissue` encode Table 1.

use crate::rule::{check, FieldError, Rule};

/// Absorption/scattering description of one homogeneous medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalProperties {
    /// Absorption coefficient μa (mm⁻¹).
    pub mu_a: f64,
    /// Scattering coefficient μs (mm⁻¹).
    pub mu_s: f64,
    /// Henyey–Greenstein anisotropy factor g ∈ (−1, 1); mean scattering
    /// cosine (g = −1 back-scatter, 0 isotropic, 1 forward — Table 1 note).
    pub g: f64,
    /// Refractive index n.
    pub n: f64,
}

impl OpticalProperties {
    /// Build from directly specified μa, μs, g, n.
    pub fn new(mu_a: f64, mu_s: f64, g: f64, n: f64) -> Self {
        let p = Self { mu_a, mu_s, g, n };
        p.validate().expect("invalid optical properties");
        p
    }

    /// Build from the *reduced* scattering coefficient μs' = μs (1 − g),
    /// the form tabulated in the paper's Table 1.
    pub fn from_reduced_scattering(mu_a: f64, mu_s_prime: f64, g: f64, n: f64) -> Self {
        assert!(g < 1.0, "g = 1 has no finite mu_s for a given mu_s'");
        Self::new(mu_a, mu_s_prime / (1.0 - g), g, n)
    }

    /// A non-scattering, non-absorbing medium with the given index
    /// (e.g. the ambient air above the tissue surface).
    pub fn transparent(n: f64) -> Self {
        Self { mu_a: 0.0, mu_s: 0.0, g: 0.0, n }
    }

    /// Check physical plausibility.
    pub fn validate(&self) -> Result<(), FieldError> {
        check("mu_a", self.mu_a, Rule::NonNegative)?;
        check("mu_s", self.mu_s, Rule::NonNegative)?;
        check("g", self.g, Rule::Anisotropy)?;
        check("n", self.n, Rule::Index)
    }

    /// Total interaction coefficient μt = μa + μs (mm⁻¹).
    #[inline]
    pub fn mu_t(&self) -> f64 {
        self.mu_a + self.mu_s
    }

    /// Reduced scattering coefficient μs' = μs (1 − g) (mm⁻¹).
    #[inline]
    pub fn mu_s_prime(&self) -> f64 {
        self.mu_s * (1.0 - self.g)
    }

    /// Single-scattering albedo μs / μt; fraction of weight surviving each
    /// interaction. 1 for non-absorbing media, 0 for pure absorbers.
    #[inline]
    pub fn albedo(&self) -> f64 {
        let mu_t = self.mu_t();
        if mu_t == 0.0 {
            1.0
        } else {
            self.mu_s / mu_t
        }
    }

    /// Mean free path 1/μt (mm); infinite in transparent media.
    #[inline]
    pub fn mean_free_path(&self) -> f64 {
        let mu_t = self.mu_t();
        if mu_t == 0.0 {
            f64::INFINITY
        } else {
            1.0 / mu_t
        }
    }

    /// True when the medium neither scatters nor absorbs (photons stream
    /// ballistically across it).
    #[inline]
    pub fn is_transparent(&self) -> bool {
        self.mu_t() == 0.0
    }

    /// Precompute the per-interaction constants the transport loop needs.
    pub fn derive(&self) -> DerivedOptics {
        let mu_t = self.mu_t();
        let transparent = mu_t == 0.0;
        DerivedOptics {
            g: self.g,
            n: self.n,
            mu_t,
            inv_mu_t: if transparent { f64::INFINITY } else { 1.0 / mu_t },
            absorb_frac: if transparent { 0.0 } else { self.mu_a / mu_t },
            transparent,
        }
    }
}

/// Per-region constants derived once from [`OpticalProperties`], so the
/// photon stepping loop never recomputes a sum or division per interaction.
///
/// Geometries build one entry per region at construction
/// (`TissueGeometry::derived` in `lumen-tissue`) and the engine caches the
/// current region's entry across steps until the photon actually changes
/// region.
///
/// **Bit-identity contract**: every field equals the exact expression the
/// pre-table hot loop evaluated — `mu_t` is the same single addition
/// `mu_a + mu_s`, `absorb_frac` the same division `mu_a / mu_t` — so
/// substituting the table leaves every tally bit-for-bit unchanged (pinned
/// by the golden-tally harness). The two kernel tiers convert a step to
/// millimetres differently on purpose: the exact tier divides by `mu_t`,
/// the fast tier multiplies by `inv_mu_t`, and `x / mu_t` and
/// `x * (1/mu_t)` round differently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedOptics {
    /// Henyey–Greenstein anisotropy factor g.
    pub g: f64,
    /// Refractive index n.
    pub n: f64,
    /// Total interaction coefficient μt = μa + μs (mm⁻¹).
    pub mu_t: f64,
    /// Mean free path 1/μt (mm); infinite for transparent media.
    pub inv_mu_t: f64,
    /// Fraction μa/μt of packet weight deposited per interaction; 0 for
    /// transparent media.
    pub absorb_frac: f64,
    /// True when μt = 0 (photons stream ballistically).
    pub transparent: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn derived_quantities() {
        let p = OpticalProperties::new(0.014, 9.1 / (1.0 - 0.9), 0.9, 1.4);
        assert!((p.mu_s_prime() - 9.1).abs() < 1e-9);
        assert!((p.mu_t() - (0.014 + 91.0)).abs() < 1e-9);
        assert!((p.albedo() - 91.0 / 91.014).abs() < 1e-12);
        assert!((p.mean_free_path() - 1.0 / 91.014).abs() < 1e-12);
    }

    #[test]
    fn from_reduced_scattering_round_trips() {
        let p = OpticalProperties::from_reduced_scattering(0.018, 1.9, 0.9, 1.4);
        assert!((p.mu_s_prime() - 1.9).abs() < 1e-9);
        assert!((p.mu_s - 19.0).abs() < 1e-9);
    }

    #[test]
    fn transparent_medium() {
        let p = OpticalProperties::transparent(1.0);
        assert!(p.is_transparent());
        assert_eq!(p.mean_free_path(), f64::INFINITY);
        assert_eq!(p.albedo(), 1.0);
    }

    #[test]
    fn derived_matches_inline_expressions_bit_for_bit() {
        let p = OpticalProperties::new(0.014, 9.1 / (1.0 - 0.9), 0.9, 1.4);
        let d = p.derive();
        // Exact equality on purpose: the hot loop substitutes these fields
        // for the inline expressions, so they must be the same bits.
        assert_eq!(d.mu_t, p.mu_a + p.mu_s);
        assert_eq!(d.inv_mu_t, 1.0 / p.mu_t());
        assert_eq!(d.absorb_frac, p.mu_a / p.mu_t());
        assert_eq!((d.g, d.n), (p.g, p.n));
        assert!(!d.transparent);

        let t = OpticalProperties::transparent(1.33).derive();
        assert!(t.transparent);
        assert_eq!(t.inv_mu_t, f64::INFINITY);
        assert_eq!(t.absorb_frac, 0.0);
    }

    #[test]
    fn validate_rejects_negative_mu_a() {
        let p = OpticalProperties { mu_a: -1.0, mu_s: 1.0, g: 0.0, n: 1.4 };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_g_and_n() {
        let bad_g = OpticalProperties { mu_a: 0.1, mu_s: 1.0, g: 1.5, n: 1.4 };
        assert!(bad_g.validate().is_err());
        let bad_n = OpticalProperties { mu_a: 0.1, mu_s: 1.0, g: 0.0, n: 0.9 };
        assert!(bad_n.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid optical properties")]
    fn new_panics_on_invalid() {
        let _ = OpticalProperties::new(f64::NAN, 1.0, 0.0, 1.4);
    }

    proptest! {
        #[test]
        fn albedo_bounded(mu_a in 0.0f64..10.0, mu_s in 0.0f64..100.0) {
            let p = OpticalProperties { mu_a, mu_s, g: 0.0, n: 1.4 };
            let a = p.albedo();
            prop_assert!((0.0..=1.0).contains(&a));
        }

        #[test]
        fn reduced_scattering_never_exceeds_mu_s(
            mu_s in 0.0f64..100.0, g in 0.0f64..0.999
        ) {
            let p = OpticalProperties { mu_a: 0.01, mu_s, g, n: 1.4 };
            prop_assert!(p.mu_s_prime() <= p.mu_s + 1e-12);
        }
    }
}
