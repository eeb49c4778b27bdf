//! Russian roulette: unbiased termination of low-weight photons —
//! the paper's `if (weight too small) survive roulette` step.
//!
//! When a packet's weight drops below a threshold, continuing to track it
//! wastes time for negligible tally contribution, but simply discarding it
//! would bias the simulation (destroy weight). Roulette gives the packet a
//! survival chance `p`; survivors are re-weighted by `1/p` so the expected
//! weight is conserved exactly.

use crate::rule::{check, FieldError, Rule};
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
    pub fn validate(&self) -> Result<(), FieldError> {
        check("roulette threshold", self.threshold, Rule::OpenUnit)?;
        check("roulette survival", self.survival, Rule::Probability)
    }
}

/// Play roulette if a packet's `weight` is below the threshold: one draw,
/// and a survivor's weight grows by `1/p`. Returns `false` when the packet
/// lost (its weight is then 0); the caller records the fate.
#[inline]
pub fn roulette<R: McRng>(weight: &mut f64, cfg: RouletteConfig, rng: &mut R) -> bool {
    if *weight >= cfg.threshold {
        return true;
    }
    if rng.next_f64() < cfg.survival {
        *weight /= cfg.survival;
        true
    } else {
        *weight = 0.0;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcrng::Xoshiro256PlusPlus;

    #[test]
    fn heavy_photon_is_untouched_and_draws_nothing() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let untouched = rng;
        let mut w = 0.5;
        assert!(roulette(&mut w, RouletteConfig::default(), &mut rng));
        assert_eq!(w, 0.5);
        assert_eq!(rng, untouched, "no draw above the threshold");
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
            let mut w = w0;
            if roulette(&mut w, cfg, &mut rng) {
                survivors += 1;
                total += w;
            }
        }
        let mean = total / n as f64;
        assert!((mean - w0).abs() < 0.02 * w0, "expected weight {w0}, measured {mean}");
        let survival = survivors as f64 / n as f64;
        assert!((survival - cfg.survival).abs() < 0.01);
    }

    #[test]
    fn killed_packets_have_zero_weight() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let cfg = RouletteConfig { threshold: 1e-4, survival: 0.1 };
        // Run until we see a kill.
        for _ in 0..1000 {
            let mut w = 1e-5;
            if !roulette(&mut w, cfg, &mut rng) {
                assert_eq!(w, 0.0);
                return;
            }
        }
        panic!("no kill in 1000 trials at 90% kill rate");
    }

    #[test]
    fn survivors_are_boosted() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let cfg = RouletteConfig { threshold: 1e-4, survival: 0.25 };
        for _ in 0..1000 {
            let mut w = 5e-5;
            if roulette(&mut w, cfg, &mut rng) {
                assert!((w - 2e-4).abs() < 1e-15);
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
