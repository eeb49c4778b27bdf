//! Histograms and summary statistics for photon-path observables
//! (pathlength distributions, penetration depths, batch throughput).

/// Fixed-bin histogram over `[min, max)` with under/overflow counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub min: f64,
    pub max: f64,
    pub counts: Vec<u64>,
    pub underflow: u64,
    pub overflow: u64,
    /// Running sums for moments.
    sum: f64,
    sum_sq: f64,
    n: u64,
}

impl Histogram {
    /// A histogram with `bins` bins over `[min, max)`.
    pub fn new(min: f64, max: f64, bins: usize) -> Self {
        assert!(max > min, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            min,
            max,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            sum: 0.0,
            sum_sq: 0.0,
            n: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.sum += x;
        self.sum_sq += x * x;
        self.n += 1;
        if x < self.min {
            self.underflow += 1;
        } else if x >= self.max {
            self.overflow += 1;
        } else {
            let n_bins = self.counts.len();
            let bin = ((x - self.min) / (self.max - self.min) * n_bins as f64) as usize;
            self.counts[bin.min(n_bins - 1)] += 1;
        }
    }

    /// Number of recorded samples (including under/overflow).
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Sample standard deviation (population form).
    pub fn std(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.n as f64 - m * m).max(0.0).sqrt()
    }

    /// Centre of bin `i`.
    pub fn bin_centre(&self, i: usize) -> f64 {
        let w = (self.max - self.min) / self.counts.len() as f64;
        self.min + (i as f64 + 0.5) * w
    }

    /// Approximate quantile from binned counts (ignores under/overflow).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return self.min;
        }
        let target = (q * in_range as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.bin_centre(i);
            }
        }
        self.bin_centre(self.counts.len() - 1)
    }

    /// Merge another histogram with identical binning.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.min, other.min, "histogram min mismatch");
        assert_eq!(self.max, other.max, "histogram max mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "histogram bin mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.9);
        h.record(5.0);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[9], 1);
        assert_eq!(h.counts[5], 1);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0); // max is exclusive
        h.record(2.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.counts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn moments() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [2.0, 4.0, 6.0, 8.0] {
            h.record(x);
        }
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert!((h.std() - 5.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn quantile_median() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let med = h.quantile(0.5);
        assert!((med - 49.5).abs() <= 1.0, "median {med}");
    }

    #[test]
    fn merge_adds_counts_and_moments() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.record(1.0);
        b.record(9.0);
        b.record(-5.0);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.underflow, 1);
        assert!((a.mean() - (1.0 + 9.0 - 5.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bin mismatch")]
    fn merge_rejects_different_binning() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_stats() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.std(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    proptest! {
        #[test]
        fn total_count_is_conserved(xs in proptest::collection::vec(-10.0f64..20.0, 0..200)) {
            let mut h = Histogram::new(0.0, 10.0, 7);
            for &x in &xs { h.record(x); }
            let binned: u64 = h.counts.iter().sum();
            prop_assert_eq!(binned + h.underflow + h.overflow, xs.len() as u64);
        }

        #[test]
        fn mean_matches_direct_computation(xs in proptest::collection::vec(0.0f64..10.0, 1..100)) {
            let mut h = Histogram::new(0.0, 10.0, 10);
            for &x in &xs { h.record(x); }
            let direct: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((h.mean() - direct).abs() < 1e-9);
        }
    }
}
