//! # mcrng — deterministic, splittable RNG for parallel Monte Carlo
//!
//! The distributed platform in the reproduced paper hands out photon batches
//! to an unbounded number of clients. For the results to be reproducible and
//! statistically sound, every batch must draw from a random stream that is
//! (a) deterministic given the experiment seed and batch index, and
//! (b) guaranteed not to overlap any other batch's stream.
//!
//! This crate provides:
//!
//! * [`SplitMix64`] — a tiny stateless-seedable generator used to expand a
//!   single `u64` seed into the 256-bit state of the main generator.
//! * [`Xoshiro256PlusPlus`] — the workhorse generator, with `jump()`
//!   (2^128 steps) and `long_jump()` (2^192 steps) so non-overlapping
//!   substreams can be carved out for each worker/batch.
//! * [`StreamFactory`] — maps `(seed, stream_index)` to an independent
//!   generator; the engine uses one stream per task so results are identical
//!   regardless of how many workers execute the tasks or in what order.
//! * [`distributions`] — the samplers photon transport needs: uniform open
//!   and half-open floats, exponential step lengths, Henyey–Greenstein
//!   scattering cosines, and uniform azimuth/disc/Gaussian beam offsets.
//!
//! All sampling goes through the generators' inherent methods and the
//! [`McRng`] trait, which keeps the compiler's inlining decisions local.

pub mod distributions;
pub mod splitmix;
pub mod stream;
pub mod xoshiro;

pub use distributions::{
    gaussian_pair, henyey_greenstein_cos, sample_exponential, uniform_azimuth, uniform_disc,
};
pub use splitmix::SplitMix64;
pub use stream::StreamFactory;
pub use xoshiro::Xoshiro256PlusPlus;

/// Minimal interface the transport kernels require from a generator.
///
/// Implemented by both [`Xoshiro256PlusPlus`] and [`SplitMix64`] so tests can
/// substitute either; the engine is generic over `McRng`.
pub trait McRng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform in the half-open interval `[0, 1)`.
    ///
    /// Uses the 53 high bits so every value is exactly representable and the
    /// distribution is unbiased.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53-bit mantissa construction: (x >> 11) * 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the open interval `(0, 1)`, suitable for `ln()` without
    /// producing `-inf`.
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        loop {
            let x = self.next_f64();
            if x > 0.0 {
                return x;
            }
        }
    }

    /// Uniform in `[0, 1]` (closed). Used where MCML's tables use closed
    /// intervals; the endpoint probability is negligible but the intent is
    /// documented by the name.
    #[inline]
    fn next_f64_closed(&mut self) -> f64 {
        self.next_u64() as f64 * (1.0 / u64::MAX as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection.
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn next_f64_open_never_zero() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64_open();
            assert!(x > 0.0 && x < 1.0);
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        for bound in [1u64, 2, 3, 7, 100, 1_000_000] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_hits_every_residue_for_small_bounds() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
