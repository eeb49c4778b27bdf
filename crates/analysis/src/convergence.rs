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

/// Running (Welford) accumulator for streaming convergence monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n < 2 {
            f64::INFINITY
        } else {
            (self.variance() / self.n as f64).sqrt()
        }
    }

    /// Merge two accumulators (Chan's parallel update) — used when worker
    /// batches each kept their own running stats.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn running_stats_match_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::default();
        for &x in &xs {
            rs.push(x);
        }
        assert!((rs.mean() - 5.0).abs() < 1e-12);
        let direct_var =
            xs.iter().map(|x| (x - 5.0) * (x - 5.0)).sum::<f64>() / (xs.len() as f64 - 1.0);
        assert!((rs.variance() - direct_var).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut whole = RunningStats::default();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningStats::default();
        let mut b = RunningStats::default();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.len(), whole.len());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::default();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&RunningStats::default());
        assert_eq!(a, before);
        let mut empty = RunningStats::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    proptest! {
        #[test]
        fn merge_is_order_insensitive(
            xs in proptest::collection::vec(-100.0f64..100.0, 2..50),
            split in 1usize..49
        ) {
            let split = split.min(xs.len() - 1);
            let mut ab = RunningStats::default();
            let mut a = RunningStats::default();
            let mut b = RunningStats::default();
            for &x in &xs { ab.push(x); }
            for &x in &xs[..split] { a.push(x); }
            for &x in &xs[split..] { b.push(x); }
            let mut ba = b;
            ba.merge(&a);
            a.merge(&b);
            prop_assert!((a.mean() - ba.mean()).abs() < 1e-9);
            prop_assert!((a.mean() - ab.mean()).abs() < 1e-9);
            prop_assert!((a.variance() - ab.variance()).abs() < 1e-7);
        }
    }
}
