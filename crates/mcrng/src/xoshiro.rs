//! xoshiro256++ 1.0 — Blackman & Vigna's all-purpose 64-bit generator.
//!
//! Chosen for the transport engine because it is extremely fast (a handful
//! of ALU ops per draw), passes BigCrush, and — critically for the
//! distributed design — supports `jump()` / `long_jump()` polynomial jumps
//! so the master can hand each task a provably disjoint substream.

use crate::{McRng, SplitMix64};

/// xoshiro256++ generator (256 bits of state, period 2^256 − 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Construct from a full 256-bit state.
    ///
    /// The all-zero state is the one invalid state (it is a fixed point);
    /// it is remapped to a fixed non-zero state derived from SplitMix64(0).
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return Self::seed_from_u64(0);
        }
        Self { s }
    }

    /// Seed via SplitMix64 state expansion, as recommended by the authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        sm.fill(&mut s);
        // SplitMix64 output is equidistributed; the probability of an
        // all-zero expansion is 2^-256, but guard anyway.
        if s == [0; 4] {
            s = [Self::JUMP[0], Self::JUMP[1], Self::JUMP[2], Self::JUMP[3]];
        }
        Self { s }
    }

    /// Current internal state (for serialization/checkpointing).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    #[inline]
    fn step(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    const JUMP: [u64; 4] =
        [0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c];

    const LONG_JUMP: [u64; 4] =
        [0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635];

    fn apply_jump(&mut self, poly: &[u64; 4]) {
        let mut acc = [0u64; 4];
        for &word in poly {
            for bit in 0..64 {
                if (word >> bit) & 1 == 1 {
                    acc[0] ^= self.s[0];
                    acc[1] ^= self.s[1];
                    acc[2] ^= self.s[2];
                    acc[3] ^= self.s[3];
                }
                self.step();
            }
        }
        self.s = acc;
    }

    /// Advance 2^128 steps. Carves the period into 2^128 non-overlapping
    /// sequences of length 2^128; one `jump` per parallel worker.
    pub fn jump(&mut self) {
        self.apply_jump(&Self::JUMP);
    }

    /// Advance 2^192 steps: 2^64 non-overlapping blocks of 2^192 draws each.
    /// The stream factory uses this to index task substreams.
    pub fn long_jump(&mut self) {
        self.apply_jump(&Self::LONG_JUMP);
    }
}

impl McRng for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the canonical C implementation with state
    /// {1, 2, 3, 4}.
    #[test]
    fn matches_reference_vector() {
        let mut rng = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        let expected: [u64; 10] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        for &e in &expected {
            assert_eq!(rng.step(), e);
        }
    }

    #[test]
    fn zero_state_is_remapped() {
        let rng = Xoshiro256PlusPlus::from_state([0; 4]);
        assert_ne!(rng.state(), [0; 4]);
    }

    #[test]
    fn jump_produces_disjoint_prefix() {
        let base = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut a = base;
        let mut b = base;
        b.jump();
        // The first 10k draws of the jumped stream must not be identical to
        // the base stream (they are 2^128 steps apart).
        let firsts: Vec<u64> = (0..10_000).map(|_| a.step()).collect();
        let seconds: Vec<u64> = (0..10_000).map(|_| b.step()).collect();
        assert_ne!(firsts, seconds);
    }

    #[test]
    fn jump_is_deterministic() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(9);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(9);
        a.jump();
        b.jump();
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn long_jump_differs_from_jump() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(9);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(9);
        a.jump();
        b.long_jump();
        assert_ne!(a.state(), b.state());
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let a = Xoshiro256PlusPlus::seed_from_u64(123);
        let b = Xoshiro256PlusPlus::seed_from_u64(123);
        let c = Xoshiro256PlusPlus::seed_from_u64(124);
        assert_eq!(a.state(), b.state());
        assert_ne!(a.state(), c.state());
    }

    #[test]
    fn mean_of_uniform_draws_is_near_half() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2024);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        // Standard error ~ 1/sqrt(12 n) ≈ 0.0009; allow 5 sigma.
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }
}
