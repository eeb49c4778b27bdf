//! Diffusion-approximation baseline.
//!
//! The paper (Sect. 2, citing Profio \[6\]) frames Monte Carlo as the
//! numerical solution of the radiative transport equation, with the
//! *diffusion approximation* as the standard analytical alternative. This
//! module implements the Farrell–Patterson–Wilson dipole solution for the
//! spatially resolved diffuse reflectance `R(ρ)` of a semi-infinite
//! homogeneous medium under a pencil beam — the baseline the Monte Carlo
//! engine is validated against (and the model whose breakdown near the
//! source and in low-scattering layers like the CSF motivates using MC at
//! all).
//!
//! Reference: T. J. Farrell, M. S. Patterson, B. Wilson, "A diffusion
//! theory model of spatially resolved, steady-state diffuse reflectance",
//! Med. Phys. 19(4), 1992.

/// Semi-infinite medium parameters for the dipole model.
///
/// ```
/// use lumen_analysis::DiffusionModel;
/// let model = DiffusionModel::new(0.01, 1.0, 1.0); // mu_a, mu_s', n_rel
/// let near = model.reflectance(1.0);
/// let far = model.reflectance(10.0);
/// assert!(near > far); // reflectance decays with radius
/// assert!((model.mu_eff() - (3.0f64 * 0.01 * 1.01).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionModel {
    /// Absorption coefficient μa (mm⁻¹).
    pub mu_a: f64,
    /// Reduced scattering coefficient μs′ (mm⁻¹).
    pub mu_s_prime: f64,
    /// Relative refractive index n_tissue / n_ambient.
    pub n_rel: f64,
}

impl DiffusionModel {
    /// Construct and validate.
    pub fn new(mu_a: f64, mu_s_prime: f64, n_rel: f64) -> Self {
        assert!(mu_a > 0.0 && mu_a.is_finite(), "mu_a must be positive");
        assert!(mu_s_prime > 0.0 && mu_s_prime.is_finite(), "mu_s' must be positive");
        assert!(n_rel >= 1.0, "n_rel must be >= 1");
        Self { mu_a, mu_s_prime, n_rel }
    }

    /// Transport coefficient μt′ = μa + μs′ (mm⁻¹).
    #[inline]
    pub fn mu_t_prime(&self) -> f64 {
        self.mu_a + self.mu_s_prime
    }

    /// Diffusion coefficient D = 1 / (3 μt′) (mm).
    #[inline]
    pub fn diffusion_coefficient(&self) -> f64 {
        1.0 / (3.0 * self.mu_t_prime())
    }

    /// Effective attenuation coefficient μeff = √(3 μa μt′) (mm⁻¹).
    #[inline]
    pub fn mu_eff(&self) -> f64 {
        (3.0 * self.mu_a * self.mu_t_prime()).sqrt()
    }

    /// Depth of the isotropic point source, z₀ = 1/μt′ (mm).
    #[inline]
    pub fn z0(&self) -> f64 {
        1.0 / self.mu_t_prime()
    }

    /// Internal-reflection parameter A from Groenhuis' empirical fit,
    /// A = (1 + r_d) / (1 − r_d) with
    /// r_d ≈ −1.440 n⁻² + 0.710 n⁻¹ + 0.668 + 0.0636 n.
    pub fn internal_reflection_parameter(&self) -> f64 {
        let n = self.n_rel;
        if (n - 1.0).abs() < 1e-12 {
            return 1.0;
        }
        let r_d = -1.440 / (n * n) + 0.710 / n + 0.668 + 0.0636 * n;
        (1.0 + r_d) / (1.0 - r_d)
    }

    /// Extrapolated-boundary offset z_b = 2 A D (mm).
    #[inline]
    pub fn zb(&self) -> f64 {
        2.0 * self.internal_reflection_parameter() * self.diffusion_coefficient()
    }

    /// Spatially resolved diffuse reflectance R(ρ) per launched photon per
    /// mm², Farrell et al.'s dipole expression.
    pub fn reflectance(&self, rho: f64) -> f64 {
        assert!(rho >= 0.0);
        let z0 = self.z0();
        let zb = self.zb();
        let mu_eff = self.mu_eff();

        // Source and image distances to the surface point at radius ρ.
        let r1 = (z0 * z0 + rho * rho).sqrt();
        let z_img = z0 + 2.0 * zb;
        let r2 = (z_img * z_img + rho * rho).sqrt();

        let term =
            |z: f64, r: f64| -> f64 { z * (mu_eff + 1.0 / r) * (-mu_eff * r).exp() / (r * r) };
        (term(z0, r1) + term(z_img, r2)) / (4.0 * std::f64::consts::PI)
    }

    /// Predicted slope of ln(ρ² R(ρ)) at large ρ: −μeff. Useful for
    /// comparing shapes without absolute normalisation.
    pub fn asymptotic_slope(&self) -> f64 {
        -self.mu_eff()
    }
}

/// Fit the decay rate of `ln(rho^2 * R)` vs `rho` by least squares over
/// the given points — used to compare a Monte Carlo R(r) against
/// [`DiffusionModel::asymptotic_slope`]. Points with non-positive `r_val`
/// are skipped. Returns `None` when fewer than two usable points remain.
pub fn fit_log_slope(rhos: &[f64], r_vals: &[f64]) -> Option<f64> {
    assert_eq!(rhos.len(), r_vals.len());
    let pts: Vec<(f64, f64)> = rhos
        .iter()
        .zip(r_vals)
        .filter(|&(_, &v)| v > 0.0)
        .map(|(&rho, &v)| (rho, (rho * rho * v).ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-30 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DiffusionModel {
        // White-matter-like: mu_a = 0.014, mu_s' = 9.1, matched boundary.
        DiffusionModel::new(0.014, 9.1, 1.0)
    }

    #[test]
    fn derived_quantities() {
        let m = model();
        assert!((m.mu_t_prime() - 9.114).abs() < 1e-12);
        assert!((m.diffusion_coefficient() - 1.0 / (3.0 * 9.114)).abs() < 1e-12);
        let mu_eff = (3.0f64 * 0.014 * 9.114).sqrt();
        assert!((m.mu_eff() - mu_eff).abs() < 1e-12);
    }

    #[test]
    fn matched_boundary_has_a_equal_one() {
        assert!((model().internal_reflection_parameter() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_boundary_increases_a() {
        let m = DiffusionModel::new(0.014, 9.1, 1.4);
        assert!(m.internal_reflection_parameter() > 2.0);
    }

    #[test]
    fn reflectance_is_positive_and_decreasing() {
        let m = model();
        let mut prev = f64::INFINITY;
        for i in 1..50 {
            let rho = i as f64 * 0.5;
            let r = m.reflectance(rho);
            assert!(r > 0.0, "R({rho}) = {r}");
            assert!(r < prev, "R must decrease with rho");
            prev = r;
        }
    }

    #[test]
    fn asymptotic_slope_matches_numerical_decay() {
        let m = model();
        // Evaluate ln(rho^2 R) far from the source and compare slopes.
        let rhos: Vec<f64> = (20..60).map(|i| i as f64 * 0.5).collect();
        let rs: Vec<f64> = rhos.iter().map(|&r| m.reflectance(r)).collect();
        let slope = fit_log_slope(&rhos, &rs).expect("fit");
        assert!(
            (slope - m.asymptotic_slope()).abs() < 0.05 * m.mu_eff(),
            "fitted {slope}, predicted {}",
            m.asymptotic_slope()
        );
    }

    #[test]
    fn fit_log_slope_recovers_synthetic_decay() {
        // R(rho) = exp(-k rho) / rho^2 has ln(rho^2 R) = -k rho exactly.
        let k = 0.7;
        let rhos: Vec<f64> = (1..30).map(|i| i as f64).collect();
        let rs: Vec<f64> = rhos.iter().map(|&r| (-k * r).exp() / (r * r)).collect();
        let slope = fit_log_slope(&rhos, &rs).expect("fit");
        assert!((slope + k).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn fit_log_slope_edge_cases() {
        assert!(fit_log_slope(&[], &[]).is_none());
        assert!(fit_log_slope(&[1.0], &[0.5]).is_none());
        assert!(fit_log_slope(&[1.0, 2.0], &[0.0, 0.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "mu_a must be positive")]
    fn rejects_zero_absorption() {
        let _ = DiffusionModel::new(0.0, 1.0, 1.0);
    }
}
