//! Free-path sampling.
//!
//! MCML's step rule: sample a dimensionless step `s ~ Exp(1)` in units of
//! mean free paths and convert it to a geometric length `s/μt`. When a
//! region boundary is closer, the photon moves to the boundary and *carries
//! the unspent* portion of the dimensionless step into the next medium,
//! which keeps the free-path distribution correct across interfaces of
//! differing μt. The engine's kernels own that decision and the carry,
//! since only they know the geometry.

use mcrng::{sample_exponential, McRng};

/// Sample a fresh dimensionless step length in units of mean free paths.
#[inline]
pub fn sample_step_mfps<R: McRng>(rng: &mut R) -> f64 {
    sample_exponential(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcrng::Xoshiro256PlusPlus;

    #[test]
    fn step_lengths_have_exponential_mean_free_path() {
        // Mean geometric step s/μt = 1/μt, i.e. one mean free path.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mu_t = 91.0; // white-matter-like
        let n = 100_000;
        let total: f64 = (0..n).map(|_| sample_step_mfps(&mut rng) / mu_t).sum();
        let mean = total / n as f64;
        let expect = 1.0 / mu_t;
        assert!((mean - expect).abs() < 0.02 * expect, "mean {mean} vs expected {expect}");
    }
}
