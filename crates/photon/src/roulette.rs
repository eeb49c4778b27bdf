//! Russian roulette: unbiased termination of low-weight photons —
//! the paper's `if (weight too small) survive roulette` step.
//!
//! When a packet's weight drops below a threshold, continuing to track it
//! wastes time for negligible tally contribution, but simply discarding it
//! would bias the simulation (destroy weight). Roulette gives the packet a
//! survival chance `p`; survivors are re-weighted by `1/p` so the expected
//! weight is conserved exactly.

use crate::photon::{Fate, Photon};
use mcrng::McRng;

/// Roulette parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouletteConfig {
    /// Weight below which roulette is played.
    pub threshold: f64,
    /// Survival probability `p ∈ (0, 1]`.
    pub survival: f64,
}

impl Default for RouletteConfig {
    fn default() -> Self {
        Self { threshold: crate::WEIGHT_THRESHOLD, survival: crate::ROULETTE_SURVIVAL }
    }
}

impl RouletteConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.threshold > 0.0 && self.threshold < 1.0) {
            return Err(format!("roulette threshold must be in (0,1), got {}", self.threshold));
        }
        if !(self.survival > 0.0 && self.survival <= 1.0) {
            return Err(format!("roulette survival must be in (0,1], got {}", self.survival));
        }
        Ok(())
    }
}

/// Play roulette if the photon's weight is below the threshold.
/// Returns `true` if the photon is still alive afterwards.
#[inline]
pub fn roulette<R: McRng>(photon: &mut Photon, cfg: RouletteConfig, rng: &mut R) -> bool {
    if photon.weight >= cfg.threshold {
        return true;
    }
    if rng.next_f64() < cfg.survival {
        photon.weight /= cfg.survival;
        true
    } else {
        photon.weight = 0.0;
        photon.terminate(Fate::RouletteKilled);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;
    use mcrng::Xoshiro256PlusPlus;

    fn dim_photon(weight: f64) -> Photon {
        let mut p = Photon::launch(Vec3::ZERO, Vec3::PLUS_Z, 0);
        p.weight = weight;
        p
    }

    #[test]
    fn heavy_photon_is_untouched() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut p = dim_photon(0.5);
        assert!(roulette(&mut p, RouletteConfig::default(), &mut rng));
        assert_eq!(p.weight, 0.5);
        assert!(p.survived());
    }

    #[test]
    fn roulette_conserves_expected_weight() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let cfg = RouletteConfig::default();
        let w0 = 1e-5;
        let n = 500_000;
        let mut total = 0.0;
        let mut survivors = 0usize;
        for _ in 0..n {
            let mut p = dim_photon(w0);
            if roulette(&mut p, cfg, &mut rng) {
                survivors += 1;
                total += p.weight;
            }
        }
        let mean = total / n as f64;
        assert!((mean - w0).abs() < 0.02 * w0, "expected weight {w0}, measured {mean}");
        let survival = survivors as f64 / n as f64;
        assert!((survival - cfg.survival).abs() < 0.01);
    }

    #[test]
    fn killed_photons_have_zero_weight_and_fate() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let cfg = RouletteConfig { threshold: 1e-4, survival: 0.1 };
        // Run until we see a kill.
        let mut saw_kill = false;
        for _ in 0..1000 {
            let mut p = dim_photon(1e-5);
            if !roulette(&mut p, cfg, &mut rng) {
                assert_eq!(p.weight, 0.0);
                assert_eq!(p.fate, Fate::RouletteKilled);
                saw_kill = true;
                break;
            }
        }
        assert!(saw_kill, "no kill in 1000 trials at 90% kill rate");
    }

    #[test]
    fn survivors_are_boosted() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let cfg = RouletteConfig { threshold: 1e-4, survival: 0.25 };
        for _ in 0..1000 {
            let mut p = dim_photon(5e-5);
            if roulette(&mut p, cfg, &mut rng) {
                assert!((p.weight - 2e-4).abs() < 1e-15);
                return;
            }
        }
        panic!("no survivor in 1000 trials at 25% survival");
    }

    #[test]
    fn config_validation() {
        assert!(RouletteConfig::default().validate().is_ok());
        assert!(RouletteConfig { threshold: 0.0, survival: 0.1 }.validate().is_err());
        assert!(RouletteConfig { threshold: 1e-4, survival: 0.0 }.validate().is_err());
        assert!(RouletteConfig { threshold: 1e-4, survival: 1.5 }.validate().is_err());
    }
}
