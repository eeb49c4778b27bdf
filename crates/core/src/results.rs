//! Aggregated simulation results and derived physical quantities.

use crate::sim::PathRecord;
use crate::tally::Tally;

/// The outcome of a completed simulation (sequential or merged parallel).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Raw accumulators.
    pub tally: Tally,
    /// Up to `record_paths` full detected trajectories.
    pub sample_paths: Vec<PathRecord>,
}

impl SimulationResult {
    /// Wrap a finished tally.
    pub fn new(tally: Tally, sample_paths: Vec<PathRecord>) -> Self {
        Self { tally, sample_paths }
    }

    /// Photons launched.
    pub fn launched(&self) -> u64 {
        self.tally.launched
    }

    /// Fraction of launched photons that were detected.
    pub fn detected_fraction(&self) -> f64 {
        ratio(self.tally.detected as f64, self.tally.launched as f64)
    }

    /// Detected weight per launched photon (the measurable signal level —
    /// what determines required source power / detector sensitivity).
    pub fn detected_weight_per_photon(&self) -> f64 {
        ratio(self.tally.detected_weight, self.tally.launched as f64)
    }

    /// Total diffuse reflectance per launched photon (excludes specular,
    /// includes detected photons — they also exit the top surface).
    pub fn diffuse_reflectance(&self) -> f64 {
        ratio(self.tally.reflected_weight + self.tally.detected_weight, self.tally.launched as f64)
    }

    /// Specular reflectance per launched photon.
    pub fn specular_reflectance(&self) -> f64 {
        ratio(self.tally.specular_weight, self.tally.launched as f64)
    }

    /// Diffuse transmittance per launched photon (0 for semi-infinite media).
    pub fn transmittance(&self) -> f64 {
        ratio(self.tally.transmitted_weight, self.tally.launched as f64)
    }

    /// Absorbed fraction per layer, per launched photon.
    pub fn absorbed_fraction_by_layer(&self) -> Vec<f64> {
        self.tally.absorbed_by_layer.iter().map(|&w| ratio(w, self.tally.launched as f64)).collect()
    }

    /// Total absorbed fraction.
    pub fn absorbed_fraction(&self) -> f64 {
        ratio(self.tally.total_absorbed(), self.tally.launched as f64)
    }

    /// Mean pathlength of detected photons (mm) — the *differential
    /// pathlength* the paper highlights as the key quantity for
    /// quantitative NIRS.
    pub fn mean_detected_pathlength(&self) -> f64 {
        ratio(self.tally.detected_path_sum, self.tally.detected as f64)
    }

    /// Standard deviation of detected pathlengths (mm).
    pub fn std_detected_pathlength(&self) -> f64 {
        let n = self.tally.detected as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mean = self.tally.detected_path_sum / n;
        let var = (self.tally.detected_path_sq_sum / n - mean * mean).max(0.0);
        var.sqrt()
    }

    /// Differential pathlength factor: mean detected pathlength divided by
    /// the source–detector separation.
    pub fn differential_pathlength_factor(&self, separation_mm: f64) -> f64 {
        if separation_mm <= 0.0 {
            return f64::NAN;
        }
        self.mean_detected_pathlength() / separation_mm
    }

    /// Mean maximum penetration depth of detected photons (mm).
    pub fn mean_penetration_depth(&self) -> f64 {
        ratio(self.tally.detected_depth_sum, self.tally.detected as f64)
    }

    /// Deepest depth reached by any detected photon (mm).
    pub fn max_penetration_depth(&self) -> f64 {
        self.tally.detected_depth_max
    }

    /// Mean scattering events per detected photon.
    pub fn mean_detected_scatters(&self) -> f64 {
        ratio(self.tally.detected_scatter_sum as f64, self.tally.detected as f64)
    }

    /// Mean pathlength detected photons spent inside layer `idx` (mm) —
    /// the partial pathlength, whose ratio to the total is that layer's
    /// share of the detected signal's absorption sensitivity.
    pub fn mean_partial_pathlength(&self, idx: usize) -> f64 {
        ratio(
            self.tally.detected_partial_path.get(idx).copied().unwrap_or(0.0),
            self.tally.detected as f64,
        )
    }

    /// All layers' mean partial pathlengths (mm).
    pub fn mean_partial_pathlengths(&self) -> Vec<f64> {
        (0..self.tally.detected_partial_path.len())
            .map(|i| self.mean_partial_pathlength(i))
            .collect()
    }

    /// Fraction of detected photons whose walk reached layer `idx`.
    pub fn detected_reached_layer_fraction(&self, idx: usize) -> f64 {
        ratio(
            self.tally.detected_reached_layer.get(idx).copied().unwrap_or(0) as f64,
            self.tally.detected as f64,
        )
    }

    /// Merge another result into this one (e.g. from a parallel worker).
    pub fn merge(&mut self, other: &SimulationResult) {
        self.tally.merge(&other.tally);
        self.sample_paths.extend(other.sample_paths.iter().cloned());
    }
}

#[inline]
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::Tally;

    fn result_with(launched: u64, detected: u64, path_sum: f64) -> SimulationResult {
        let mut t = Tally::new(2, None, None);
        t.launched = launched;
        t.detected = detected;
        t.detected_path_sum = path_sum;
        SimulationResult::new(t, Vec::new())
    }

    #[test]
    fn fractions() {
        let r = result_with(1000, 50, 5000.0);
        assert!((r.detected_fraction() - 0.05).abs() < 1e-12);
        assert!((r.mean_detected_pathlength() - 100.0).abs() < 1e-12);
        assert!((r.differential_pathlength_factor(25.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_all_zeros() {
        let r = result_with(0, 0, 0.0);
        assert_eq!(r.detected_fraction(), 0.0);
        assert_eq!(r.mean_detected_pathlength(), 0.0);
        assert_eq!(r.std_detected_pathlength(), 0.0);
        assert_eq!(r.absorbed_fraction(), 0.0);
    }

    #[test]
    fn dpf_of_zero_separation_is_nan() {
        let r = result_with(10, 1, 10.0);
        assert!(r.differential_pathlength_factor(0.0).is_nan());
    }

    #[test]
    fn std_pathlength() {
        let mut t = Tally::new(1, None, None);
        t.launched = 10;
        t.detected = 2;
        // Paths 10 and 20: mean 15, var 25, std 5.
        t.detected_path_sum = 30.0;
        t.detected_path_sq_sum = 100.0 + 400.0;
        let r = SimulationResult::new(t, Vec::new());
        assert!((r.std_detected_pathlength() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = result_with(100, 5, 50.0);
        let b = result_with(200, 10, 120.0);
        a.merge(&b);
        assert_eq!(a.launched(), 300);
        assert_eq!(a.tally.detected, 15);
        assert!((a.tally.detected_path_sum - 170.0).abs() < 1e-12);
    }
}
