//! Network cost model for the cluster simulator.
//!
//! The original platform ran over a campus LAN; tasks are tiny parameter
//! blobs but results can be large (a 50³ granularity grid is ~1 MB of
//! doubles). The model is latency + size/bandwidth, with the server's
//! result-merging treated as a sequential cost — the server is a single
//! 3 GHz P4 and "processes the returned results" one at a time, which is
//! the main efficiency loss at large worker counts.

use crate::des::{check, DesError};

/// Simple latency/bandwidth + server-merge-cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency (s).
    pub latency_s: f64,
    /// Usable bandwidth (MB/s).
    pub bandwidth_mb_s: f64,
    /// Server CPU time to merge one returned result (s). Serialised:
    /// concurrent arrivals queue.
    pub server_merge_s: f64,
}

impl NetworkModel {
    /// A 100 Mbit/s switched campus LAN of the mid-2000s.
    pub fn lan_2006() -> Self {
        Self { latency_s: 0.005, bandwidth_mb_s: 10.0, server_merge_s: 0.05 }
    }

    /// An idealised zero-cost network (for upper-bound speedups).
    pub const FREE: NetworkModel =
        NetworkModel { latency_s: 0.0, bandwidth_mb_s: f64::INFINITY, server_merge_s: 0.0 };

    pub(crate) fn validate(&self) -> Result<(), DesError> {
        check(self.latency_s >= 0.0, "latency_s", self.latency_s)?;
        check(self.server_merge_s >= 0.0, "server_merge_s", self.server_merge_s)?;
        check(self.bandwidth_mb_s > 0.0, "bandwidth_mb_s", self.bandwidth_mb_s)
    }

    /// Time to move `bytes` one way (s).
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.bandwidth_mb_s * 1e6)
    }

    /// Round-trip cost of assigning a task (`task_bytes`) and returning a
    /// result (`result_bytes`), excluding server merge time.
    pub fn round_trip(&self, task_bytes: u64, result_bytes: u64) -> f64 {
        self.transfer_time(task_bytes) + self.transfer_time(result_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_size() {
        let net = NetworkModel::lan_2006();
        let small = net.transfer_time(1_000);
        let big = net.transfer_time(1_000_000);
        assert!(big > small);
        // 1 MB at 10 MB/s = 0.1 s + latency.
        assert!((big - (0.005 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn free_network_is_instant() {
        assert_eq!(NetworkModel::FREE.transfer_time(u64::MAX), 0.0);
        assert_eq!(NetworkModel::FREE.round_trip(1, 1), 0.0);
    }

    #[test]
    fn round_trip_is_sum() {
        let net = NetworkModel::lan_2006();
        let rt = net.round_trip(100, 1_000_000);
        assert!((rt - (net.transfer_time(100) + net.transfer_time(1_000_000))).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(NetworkModel::lan_2006().validate().is_ok());
        assert!(NetworkModel::FREE.validate().is_ok());
        let bad = NetworkModel { latency_s: -1.0, ..NetworkModel::lan_2006() };
        assert!(bad.validate().is_err());
        let bad2 = NetworkModel { bandwidth_mb_s: 0.0, ..NetworkModel::lan_2006() };
        assert!(bad2.validate().is_err());
    }
}
