//! Speedup/efficiency experiment helpers (the paper's Fig 2).
//!
//! "Speedup is calculated as P1/Pk where P1 is the time taken on 1
//! processor and Pk is the time taken using k processors."

use crate::availability::AvailabilityModel;
use crate::des::{ClusterSim, DesError, JobSpec};
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

/// Simulated Fig 2: run `job` on homogeneous pools of each size in `ks`,
/// computing speedup against the measured 1-processor run (P1), exactly
/// as the paper defines it. A pool size of 0 is [`DesError::EmptyPool`].
pub fn speedup_curve(
    job: &JobSpec,
    ks: &[usize],
    network: NetworkModel,
    availability: AvailabilityModel,
    seed: u64,
) -> Result<Vec<SpeedupPoint>, DesError> {
    let time = |k| {
        let sim = ClusterSim { pool: homogeneous_pool(k), network, availability, seed };
        sim.run(job).map(|report| report.makespan_s)
    };
    let p1 = time(1)?;
    ks.iter()
        .map(|&k| {
            let time_s = if k == 1 { p1 } else { time(k)? };
            let speedup = p1 / time_s;
            Ok(SpeedupPoint { k, time_s, speedup, efficiency: speedup / k as f64 })
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
        .unwrap()
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
    fn times_decrease_with_more_machines() {
        let c = curve();
        for pair in c.windows(2) {
            assert!(pair[1].time_s < pair[0].time_s);
        }
    }
}
