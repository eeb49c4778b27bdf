//! Boundary physics: Fresnel reflection and Snell refraction at planar
//! interfaces between media of differing refractive index.
//!
//! The paper's feature list offers "refraction and internal reflection
//! (classical physics or probabilistic methods)". Both are implemented:
//!
//! * [`BoundaryMode::Probabilistic`] — the MCML approach: compute the
//!   unpolarised Fresnel reflectance `R(θi)` and reflect the *whole* packet
//!   with probability `R`, otherwise transmit the whole packet. Unbiased,
//!   one random draw.
//! * [`BoundaryMode::Classical`] — deterministic partial reflection: the
//!   packet always refracts, carrying weight `(1 − R) w`, while `R w` is
//!   returned to the caller to continue as a reflected packet or be tallied.
//!   Lower variance near the surface at the cost of more bookkeeping; the
//!   engine tallies the reflected fraction rather than splitting packets.
//!
//! Total internal reflection (`θi` beyond the critical angle when passing
//! into a rarer medium) reflects with probability 1 in both modes.

use crate::vec3::{Axis, Vec3};
use mcrng::McRng;

/// How boundary interactions are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryMode {
    /// All-or-nothing reflection with probability `R` (MCML default).
    #[default]
    Probabilistic,
    /// Deterministic weight splitting: transmit `(1−R) w`, return `R w`.
    Classical,
}

/// Result of presenting a photon direction to an interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundaryOutcome {
    /// Packet continues in the incident medium with the given direction
    /// (specular or total internal reflection). `weight_factor` is 1 in
    /// probabilistic mode; in classical mode it is the reflected fraction.
    Reflected { dir: Vec3, weight_factor: f64 },
    /// Packet crosses into the next medium along `dir` (bent by Snell's
    /// law). `weight_factor` is 1 in probabilistic mode and `1 − R` in
    /// classical mode.
    Transmitted { dir: Vec3, weight_factor: f64 },
}

/// Unpolarised Fresnel reflectance for incidence cosine `cos_i` (≥ 0)
/// passing from index `n_i` to `n_t`.
///
/// Returns 1.0 beyond the critical angle. Handles normal incidence and
/// grazing incidence limits explicitly.
#[inline]
pub fn fresnel_reflectance(n_i: f64, n_t: f64, cos_i: f64) -> f64 {
    debug_assert!((0.0..=1.0 + 1e-9).contains(&cos_i));
    let cos_i = cos_i.min(1.0);

    if (n_i - n_t).abs() < 1e-12 {
        return 0.0; // matched media: no interface
    }
    if cos_i > 1.0 - 1e-12 {
        // Normal incidence.
        let r = (n_i - n_t) / (n_i + n_t);
        return r * r;
    }
    if cos_i < 1e-9 {
        return 1.0; // grazing incidence
    }

    let sin_i = (1.0 - cos_i * cos_i).sqrt();
    let sin_t = n_i / n_t * sin_i;
    if sin_t >= 1.0 {
        return 1.0; // total internal reflection
    }
    let cos_t = (1.0 - sin_t * sin_t).sqrt();

    // Average of s- and p-polarised reflectances (Hecht form).
    let rs = (n_i * cos_i - n_t * cos_t) / (n_i * cos_i + n_t * cos_t);
    let rp = (n_i * cos_t - n_t * cos_i) / (n_i * cos_t + n_t * cos_i);
    0.5 * (rs * rs + rp * rp)
}

/// Critical angle cosine for passing from `n_i` into a rarer `n_t`
/// (`None` when `n_t >= n_i`, i.e. no total internal reflection exists).
///
/// A photon whose |direction·normal| is *below* this cosine (angle larger
/// than critical) is totally internally reflected — the paper's
/// `if (photon angle > critical angle) internally reflect` branch.
#[inline]
pub fn critical_cos(n_i: f64, n_t: f64) -> Option<f64> {
    if n_t >= n_i {
        None
    } else {
        let s = n_t / n_i;
        Some((1.0 - s * s).sqrt())
    }
}

/// Resolve an encounter with a horizontal interface whose outward normal is
/// ±z. `dir` is the incident unit direction, `n_i`/`n_t` the indices on the
/// incident/transmission sides.
///
/// The interface is horizontal (layered geometry), so reflection flips
/// `dir.z` and refraction rescales the tangential components by Snell's law.
/// Voxelized geometries present x/y-normal faces too — see
/// [`interact_with_boundary_axis`], of which this is the `Axis::Z` case.
pub fn interact_with_boundary<R: McRng>(
    dir: Vec3,
    n_i: f64,
    n_t: f64,
    mode: BoundaryMode,
    rng: &mut R,
) -> BoundaryOutcome {
    interact_with_boundary_axis(dir, Axis::Z, n_i, n_t, mode, rng)
}

/// Resolve an encounter with an axis-aligned interface whose outward normal
/// is the given [`Axis`]. Reflection flips the normal component; refraction
/// rescales the two tangential components by Snell's law.
#[inline]
pub fn interact_with_boundary_axis<R: McRng>(
    dir: Vec3,
    axis: Axis,
    n_i: f64,
    n_t: f64,
    mode: BoundaryMode,
    rng: &mut R,
) -> BoundaryOutcome {
    let normal = dir.component(axis);
    let cos_i = normal.abs();
    let reflectance = fresnel_reflectance(n_i, n_t, cos_i);

    let reflected_dir = dir.reflect(axis);
    let transmitted_dir = || -> Vec3 {
        if (n_i - n_t).abs() < 1e-12 {
            return dir;
        }
        let ratio = n_i / n_t;
        let sin_t2 = ratio * ratio * (1.0 - cos_i * cos_i);
        let cos_t = (1.0 - sin_t2).max(0.0).sqrt();
        (dir * ratio).with_component(axis, cos_t * normal.signum()).renormalize()
    };

    if reflectance >= 1.0 {
        // Total internal reflection: identical in both modes.
        return BoundaryOutcome::Reflected { dir: reflected_dir, weight_factor: 1.0 };
    }

    match mode {
        BoundaryMode::Probabilistic => {
            if rng.next_f64() < reflectance {
                BoundaryOutcome::Reflected { dir: reflected_dir, weight_factor: 1.0 }
            } else {
                BoundaryOutcome::Transmitted { dir: transmitted_dir(), weight_factor: 1.0 }
            }
        }
        BoundaryMode::Classical => BoundaryOutcome::Transmitted {
            dir: transmitted_dir(),
            weight_factor: 1.0 - reflectance,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcrng::Xoshiro256PlusPlus;
    use proptest::prelude::*;

    #[test]
    fn matched_media_do_not_reflect() {
        assert_eq!(fresnel_reflectance(1.4, 1.4, 0.5), 0.0);
    }

    #[test]
    fn normal_incidence_air_tissue() {
        // R = ((1-1.4)/(1+1.4))^2 = (0.4/2.4)^2 ≈ 0.02778
        let r = fresnel_reflectance(1.0, 1.4, 1.0);
        assert!((r - (0.4f64 / 2.4).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn grazing_incidence_reflects_fully() {
        assert!((fresnel_reflectance(1.0, 1.4, 0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn total_internal_reflection_beyond_critical() {
        // n=1.4 -> 1.0: critical angle sin = 1/1.4, cos_c ≈ 0.7.
        let cos_c = critical_cos(1.4, 1.0).unwrap();
        assert!((cos_c - (1.0 - (1.0f64 / 1.4).powi(2)).sqrt()).abs() < 1e-12);
        // Slightly more grazing than critical => R = 1.
        assert_eq!(fresnel_reflectance(1.4, 1.0, cos_c * 0.9), 1.0);
        // Slightly steeper than critical => R < 1.
        assert!(fresnel_reflectance(1.4, 1.0, cos_c * 1.1) < 1.0);
    }

    #[test]
    fn no_critical_angle_into_denser_medium() {
        assert!(critical_cos(1.0, 1.4).is_none());
    }

    #[test]
    fn reflectance_is_symmetric_in_energy() {
        // Stokes relations: R(n1->n2, θ1) == R(n2->n1, θ2) with Snell-linked
        // angles.
        let n1 = 1.0;
        let n2 = 1.4;
        let cos1: f64 = 0.8;
        let sin1 = (1.0 - cos1 * cos1).sqrt();
        let sin2 = n1 / n2 * sin1;
        let cos2 = (1.0 - sin2 * sin2).sqrt();
        let r12 = fresnel_reflectance(n1, n2, cos1);
        let r21 = fresnel_reflectance(n2, n1, cos2);
        assert!((r12 - r21).abs() < 1e-9, "{r12} vs {r21}");
    }

    #[test]
    fn snell_law_holds_for_transmission() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let dir = Vec3::new(0.6, 0.0, 0.8);
        // Classical mode always transmits (below TIR), so we can inspect it.
        match interact_with_boundary(dir, 1.0, 1.4, BoundaryMode::Classical, &mut rng) {
            BoundaryOutcome::Transmitted { dir: t, .. } => {
                let sin_i = dir.radial();
                let sin_t = t.radial();
                assert!((1.0 * sin_i - 1.4 * sin_t).abs() < 1e-9);
                assert!(t.is_unit(1e-9));
                assert!(t.z > 0.0, "keeps travelling downward");
            }
            other => panic!("expected transmission, got {other:?}"),
        }
    }

    #[test]
    fn classical_mode_splits_energy() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let dir = Vec3::new(0.6, 0.0, 0.8);
        let r = fresnel_reflectance(1.0, 1.4, 0.8);
        match interact_with_boundary(dir, 1.0, 1.4, BoundaryMode::Classical, &mut rng) {
            BoundaryOutcome::Transmitted { weight_factor, .. } => {
                assert!((weight_factor - (1.0 - r)).abs() < 1e-12);
            }
            other => panic!("expected transmission, got {other:?}"),
        }
    }

    #[test]
    fn probabilistic_mode_reflects_at_fresnel_rate() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let dir = Vec3::new(0.6, 0.0, 0.8);
        let r = fresnel_reflectance(1.0, 1.4, 0.8);
        let n = 200_000;
        let mut reflected = 0usize;
        for _ in 0..n {
            if matches!(
                interact_with_boundary(dir, 1.0, 1.4, BoundaryMode::Probabilistic, &mut rng),
                BoundaryOutcome::Reflected { .. }
            ) {
                reflected += 1;
            }
        }
        let frac = reflected as f64 / n as f64;
        assert!((frac - r).abs() < 0.005, "frac {frac} vs R {r}");
    }

    #[test]
    fn reflection_flips_z_only() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
        // Force TIR so the outcome is deterministic.
        let cos_c = critical_cos(1.4, 1.0).unwrap();
        let sin = (1.0 - (cos_c * 0.5) * (cos_c * 0.5)).sqrt();
        let dir = Vec3::new(sin, 0.0, cos_c * 0.5).renormalize();
        match interact_with_boundary(dir, 1.4, 1.0, BoundaryMode::Probabilistic, &mut rng) {
            BoundaryOutcome::Reflected { dir: rdir, weight_factor } => {
                assert_eq!(weight_factor, 1.0);
                assert!((rdir.x - dir.x).abs() < 1e-12);
                assert!((rdir.y - dir.y).abs() < 1e-12);
                assert!((rdir.z + dir.z).abs() < 1e-12);
            }
            other => panic!("expected TIR, got {other:?}"),
        }
    }

    proptest! {
        #[test]
        fn reflectance_in_unit_interval(
            n_i in 1.0f64..2.0, n_t in 1.0f64..2.0, cos_i in 0.0f64..=1.0
        ) {
            let r = fresnel_reflectance(n_i, n_t, cos_i);
            prop_assert!((0.0..=1.0).contains(&r), "R = {}", r);
        }

        #[test]
        fn outcomes_preserve_unit_directions(
            ux in -1.0f64..1.0, uz in 0.05f64..1.0,
            n_i in 1.0f64..2.0, n_t in 1.0f64..2.0, seed in 0u64..1000
        ) {
            let dir = Vec3::new(ux, 0.3, uz).renormalize();
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            for mode in [BoundaryMode::Probabilistic, BoundaryMode::Classical] {
                let out = interact_with_boundary(dir, n_i, n_t, mode, &mut rng);
                let d = match out {
                    BoundaryOutcome::Reflected { dir, .. } => dir,
                    BoundaryOutcome::Transmitted { dir, .. } => dir,
                };
                prop_assert!(d.is_unit(1e-9));
            }
        }

        #[test]
        fn classical_weight_factors_conserve_energy(
            uz in 0.05f64..1.0, n_i in 1.0f64..2.0, n_t in 1.0f64..2.0
        ) {
            let dir = Vec3::new((1.0 - uz * uz).sqrt(), 0.0, uz);
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
            let r = fresnel_reflectance(n_i, n_t, uz);
            match interact_with_boundary(dir, n_i, n_t, BoundaryMode::Classical, &mut rng) {
                BoundaryOutcome::Transmitted { weight_factor, .. } => {
                    prop_assert!((weight_factor + r - 1.0).abs() < 1e-9);
                }
                BoundaryOutcome::Reflected { weight_factor, .. } => {
                    // Only TIR reflects in classical mode.
                    prop_assert!((r - 1.0).abs() < 1e-9);
                    prop_assert!((weight_factor - 1.0).abs() < 1e-12);
                }
            }
        }
    }
}
