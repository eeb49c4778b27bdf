//! Speedup/efficiency experiment helpers (the paper's Fig 2).
//!
//! "Speedup is calculated as P1/Pk where P1 is the time taken on 1
//! processor and Pk is the time taken using k processors."

use crate::availability::AvailabilityModel;
use crate::des::{ClusterSim, JobSpec};
use crate::machine::homogeneous_pool;
use crate::network::NetworkModel;

/// One point on the speedup curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Number of processors `k`.
    pub k: usize,
    /// Virtual time with `k` processors (s).
    pub time_s: f64,
    /// Speedup `P1 / Pk`.
    pub speedup: f64,
    /// Efficiency `speedup / k`.
    pub efficiency: f64,
}

/// Parallel efficiency from a (k, speedup) pair.
pub fn efficiency(k: usize, speedup: f64) -> f64 {
    if k == 0 {
        return 0.0;
    }
    speedup / k as f64
}

/// Simulated Fig 2: run `job` on homogeneous pools of each size in `ks`,
/// computing speedup against the measured 1-processor run (P1), exactly
/// as the paper defines it.
pub fn speedup_curve(
    job: &JobSpec,
    ks: &[usize],
    network: NetworkModel,
    availability: AvailabilityModel,
    seed: u64,
) -> Vec<SpeedupPoint> {
    assert!(!ks.is_empty(), "need at least one pool size");
    let p1 =
        ClusterSim { pool: homogeneous_pool(1), network, availability, seed }.run(job).makespan_s;
    ks.iter()
        .map(|&k| {
            assert!(k >= 1, "pool sizes must be >= 1");
            let time_s = if k == 1 {
                p1
            } else {
                ClusterSim { pool: homogeneous_pool(k), network, availability, seed }
                    .run(job)
                    .makespan_s
            };
            let speedup = p1 / time_s;
            SpeedupPoint { k, time_s, speedup, efficiency: efficiency(k, speedup) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> Vec<SpeedupPoint> {
        speedup_curve(
            &JobSpec::paper_job(),
            &[1, 10, 20, 30, 40, 50, 60],
            NetworkModel::lan_2006(),
            AvailabilityModel::DEDICATED,
            11,
        )
    }

    #[test]
    fn speedup_is_monotone_and_near_linear() {
        let c = curve();
        assert!((c[0].speedup - 1.0).abs() < 1e-9, "P1/P1 = 1");
        for pair in c.windows(2) {
            assert!(pair[1].speedup > pair[0].speedup, "{pair:?}");
        }
        let last = c.last().unwrap();
        assert_eq!(last.k, 60);
        assert!(
            last.efficiency > 0.95,
            "the paper reports >97% at 60; simulated {:.3}",
            last.efficiency
        );
    }

    #[test]
    fn efficiency_never_exceeds_one() {
        for p in curve() {
            assert!(p.efficiency <= 1.0 + 1e-9, "{p:?}");
            assert!(p.efficiency > 0.0);
        }
    }

    #[test]
    fn efficiency_helper() {
        assert_eq!(efficiency(10, 9.7), 0.97);
        assert_eq!(efficiency(0, 5.0), 0.0);
    }

    #[test]
    fn times_decrease_with_more_machines() {
        let c = curve();
        for pair in c.windows(2) {
            assert!(pair[1].time_s < pair[0].time_s);
        }
    }
}
