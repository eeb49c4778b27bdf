//! SplitMix64: Steele, Lea & Flood's fast 64-bit generator.
//!
//! Used here for two jobs: expanding a single `u64` experiment seed into the
//! 256-bit state of [`crate::Xoshiro256PlusPlus`] (the construction
//! recommended by the xoshiro authors), and as a cheap stand-in generator in
//! tests.

use crate::McRng;

/// SplitMix64 generator. One `u64` of state; every seed gives a full-period
/// (2^64) sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Golden-ratio increment; the Weyl sequence step.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Create a generator from a raw seed. Any value is acceptable,
    /// including zero.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Advance and return the next output.
    #[allow(clippy::should_implement_trait)] // named after the reference C `next()`
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fill a slice with successive outputs (state expansion helper).
    pub fn fill(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.next();
        }
    }
}

impl McRng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from the public-domain C implementation
    /// (seed = 1234567).
    #[test]
    fn matches_reference_vector() {
        let mut sm = SplitMix64::new(1234567);
        let expected: [u64; 5] = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(sm.next(), e);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(0);
        let mut b = SplitMix64::new(1);
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn fill_is_equivalent_to_repeated_next() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        let mut buf = [0u64; 7];
        a.fill(&mut buf);
        for &x in &buf {
            assert_eq!(x, b.next());
        }
    }
}
