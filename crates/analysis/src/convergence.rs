//! Monte Carlo convergence and error estimation.
//!
//! The paper runs 10⁹ photons because "to generate useful results billions
//! of photon paths must be simulated" — this module quantifies that: given
//! independent batch results (which the task decomposition hands us for
//! free), it estimates the standard error of any tally and predicts how
//! many photons a target precision requires, via the standard
//! batch-means construction.

/// Batch-means estimate for one scalar observable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorEstimate {
    /// Mean of the per-batch values.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Relative error (std_error / |mean|); `f64::INFINITY` if mean is 0.
    pub relative_error: f64,
    /// Number of batches used.
    pub batches: usize,
}

/// Estimate the mean and its standard error from independent per-batch
/// values (e.g. detected weight per photon from each task).
pub fn batch_means(values: &[f64]) -> Option<ErrorEstimate> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n as f64 - 1.0);
    let std_error = (var / n as f64).sqrt();
    let relative_error = if mean != 0.0 { std_error / mean.abs() } else { f64::INFINITY };
    Some(ErrorEstimate { mean, std_error, relative_error, batches: n })
}

/// Photons needed to reach `target_rel_error`, extrapolating 1/√N scaling
/// from an observed `(photons, relative_error)` point. This is how the
/// "billions of photons" requirement is derived from a pilot run.
pub fn photons_for_relative_error(
    pilot_photons: u64,
    pilot_rel_error: f64,
    target_rel_error: f64,
) -> u64 {
    assert!(pilot_photons > 0);
    assert!(pilot_rel_error > 0.0 && pilot_rel_error.is_finite());
    assert!(target_rel_error > 0.0);
    let factor = (pilot_rel_error / target_rel_error).powi(2);
    (pilot_photons as f64 * factor).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_means_basic() {
        let est = batch_means(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((est.mean - 2.5).abs() < 1e-12);
        // var = 5/3, se = sqrt(5/12)
        assert!((est.std_error - (5.0f64 / 12.0).sqrt()).abs() < 1e-12);
        assert_eq!(est.batches, 4);
    }

    #[test]
    fn batch_means_needs_two() {
        assert!(batch_means(&[]).is_none());
        assert!(batch_means(&[1.0]).is_none());
    }

    #[test]
    fn zero_mean_gives_infinite_rel_error() {
        let est = batch_means(&[-1.0, 1.0]).unwrap();
        assert!(est.relative_error.is_infinite());
    }

    #[test]
    fn photon_extrapolation_follows_inverse_square_root() {
        // Halving the error quadruples the photons.
        assert_eq!(photons_for_relative_error(1_000_000, 0.02, 0.01), 4_000_000);
        // 10x tighter -> 100x photons: the paper's "billions" from a
        // percent-level pilot at ~10^7.
        assert_eq!(photons_for_relative_error(10_000_000, 0.1, 0.01), 1_000_000_000);
    }
}
