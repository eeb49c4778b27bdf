//! Stochastic availability of non-dedicated machines.
//!
//! "We had non-dedicated usage of these processors, and the available
//! processing and network resources varied stochastically over time."
//!
//! We model each machine's deliverable fraction of its peak rate as a
//! two-state Markov process — the machine's owner is either *away* (the
//! platform gets most of the CPU) or *active* (the platform is throttled
//! to spare cycles) — plus multiplicative jitter. The model is sampled
//! once per task execution, which matches the original platform's
//! granularity (a task is the unit that sees a consistent machine state).

use crate::des::{check, DesError};
use mcrng::{McRng, SplitMix64};

/// Two-state owner-activity model with jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityModel {
    /// Long-run probability the owner is active on the machine.
    pub owner_active_prob: f64,
    /// Deliverable fraction of peak while the owner is away.
    pub idle_fraction: f64,
    /// Deliverable fraction of peak while the owner is active.
    pub busy_fraction: f64,
    /// Half-width of the multiplicative uniform jitter (e.g. 0.05 = ±5 %).
    pub jitter: f64,
}

impl AvailabilityModel {
    /// Machines fully dedicated to the platform (for controlled speedup
    /// measurements).
    pub const DEDICATED: AvailabilityModel = AvailabilityModel {
        owner_active_prob: 0.0,
        idle_fraction: 1.0,
        busy_fraction: 1.0,
        jitter: 0.0,
    };

    /// The paper's environment: semi-idle student-lab PCs. Owners are
    /// occasionally active; even an idle machine delivers slightly less
    /// than benchmark peak.
    pub fn semi_idle() -> Self {
        Self { owner_active_prob: 0.2, idle_fraction: 0.95, busy_fraction: 0.35, jitter: 0.05 }
    }

    pub(crate) fn validate(&self) -> Result<(), DesError> {
        for (what, v) in [
            ("owner_active_prob", self.owner_active_prob),
            ("idle_fraction", self.idle_fraction),
            ("busy_fraction", self.busy_fraction),
        ] {
            check((0.0..=1.0).contains(&v), what, v)?;
        }
        check((0.0..1.0).contains(&self.jitter), "jitter", self.jitter)?;
        // Machines never fully stall while their owners are active.
        let stalls = self.busy_fraction <= 0.0 && self.owner_active_prob > 0.0;
        check(!stalls, "busy_fraction", self.busy_fraction)
    }

    /// Sample the deliverable fraction of peak for one task execution.
    pub fn sample<R: McRng>(&self, rng: &mut R) -> f64 {
        let base = if rng.next_f64() < self.owner_active_prob {
            self.busy_fraction
        } else {
            self.idle_fraction
        };
        let jitter = 1.0 + self.jitter * (2.0 * rng.next_f64() - 1.0);
        (base * jitter).clamp(1e-3, 1.0)
    }

    /// Long-run expected deliverable fraction.
    pub fn expected_fraction(&self) -> f64 {
        self.owner_active_prob * self.busy_fraction
            + (1.0 - self.owner_active_prob) * self.idle_fraction
    }

    /// A deterministic per-machine sampler stream.
    pub fn sampler(&self, seed: u64, machine: usize) -> AvailabilitySampler {
        AvailabilitySampler {
            model: *self,
            rng: SplitMix64::new(seed ^ (machine as u64).wrapping_mul(0xA57A_11AB_1117_0001)),
        }
    }
}

/// Stateful per-machine availability stream.
#[derive(Debug, Clone)]
pub struct AvailabilitySampler {
    model: AvailabilityModel,
    rng: SplitMix64,
}

impl AvailabilitySampler {
    /// Deliverable peak fraction for the machine's next task.
    pub fn next_fraction(&mut self) -> f64 {
        self.model.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcrng::Xoshiro256PlusPlus;

    #[test]
    fn dedicated_is_always_full_speed() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(AvailabilityModel::DEDICATED.sample(&mut rng), 1.0);
        }
    }

    #[test]
    fn samples_within_unit_interval() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let m = AvailabilityModel::semi_idle();
        for _ in 0..10_000 {
            let f = m.sample(&mut rng);
            assert!((0.0..=1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn empirical_mean_matches_expectation() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let m = AvailabilityModel::semi_idle();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| m.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - m.expected_fraction()).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn sampler_is_deterministic_per_machine() {
        let m = AvailabilityModel::semi_idle();
        let mut a = m.sampler(7, 3);
        let mut b = m.sampler(7, 3);
        let mut c = m.sampler(7, 4);
        let va: Vec<f64> = (0..10).map(|_| a.next_fraction()).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.next_fraction()).collect();
        let vc: Vec<f64> = (0..10).map(|_| c.next_fraction()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn validation_catches_bad_params() {
        assert!(AvailabilityModel::semi_idle().validate().is_ok());
        assert!(AvailabilityModel::DEDICATED.validate().is_ok());
        let bad = AvailabilityModel { owner_active_prob: 1.5, ..AvailabilityModel::semi_idle() };
        assert!(bad.validate().is_err());
        let bad2 = AvailabilityModel { jitter: 1.0, ..AvailabilityModel::semi_idle() };
        assert!(bad2.validate().is_err());
    }
}
