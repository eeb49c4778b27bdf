//! Canonical scenario hashing — the content address of a cached result.
//!
//! Two requests may share cached work exactly when they describe the same
//! *physics*: geometry, source, detector, engine options, and seed. How
//! much of it to run (`photons`) and how the budget is decomposed
//! (`tasks`, `task_offset`) are *execution* parameters — a request for
//! more photons of the same physics is served by topping up the cached
//! result, not by tracing from scratch — so they are factored out of the
//! key. Everything else in the scenario is key-relevant, including the
//! seed: different seeds draw different photon paths and must never share
//! an entry.
//!
//! The key is sha256 over [`wire::encode_scenario_normalized`] — the wire
//! encoding with `photons = 0`, `tasks = 1`, `task_offset = 0`. Riding on
//! the wire codec means the hash covers exactly the fields a peer can
//! express, and the encoded [`wire::VERSION`] byte is part of the digest
//! — a wire-format revision deliberately invalidates every cached entry,
//! because old keys may not cover newly expressible fields.

use lumen_cluster::wire;
use lumen_core::engine::Scenario;
use lumen_core::sha256;

/// A canonical scenario hash: 32 bytes of sha256.
pub type ScenarioKey = [u8; 32];

/// Compute the canonical cache key for `scenario`.
///
/// The photon budget and task decomposition are normalized away (see the
/// module docs); all physics fields and the seed remain key-relevant.
pub fn scenario_key(scenario: &Scenario) -> ScenarioKey {
    sha256::digest(&wire::encode_scenario_normalized(scenario))
}

/// Lowercase hex rendering of a key (what `lumen hash` prints).
pub fn key_hex(key: &ScenarioKey) -> String {
    key.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_core::{Detector, Source};
    use lumen_tissue::presets::{adult_head, semi_infinite_phantom, voxelized, AdultHeadConfig};

    fn scenario() -> Scenario {
        Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(1.0, 0.5),
        )
    }

    #[test]
    fn budget_and_split_are_not_key_relevant() {
        let base = scenario_key(&scenario());
        assert_eq!(scenario_key(&scenario().with_photons(1)), base);
        assert_eq!(scenario_key(&scenario().with_photons(u64::MAX)), base);
        assert_eq!(scenario_key(&scenario().with_tasks(97)), base);
        assert_eq!(scenario_key(&scenario().with_task_offset(1 << 40)), base);
    }

    #[test]
    fn seed_and_physics_are_key_relevant() {
        let base = scenario_key(&scenario());
        assert_ne!(scenario_key(&scenario().with_seed(43)), base);
        let mut s = scenario();
        s.detector.radius += 0.25;
        assert_ne!(scenario_key(&s), base);
        let mut s = scenario();
        s.source = Source::Uniform { radius: 0.3 };
        assert_ne!(scenario_key(&s), base);
    }

    /// Key *values*, computed before `scenario_key` stopped cloning and
    /// `sha256::digest` was rewritten: every key a running daemon or a
    /// `lumen hash` user holds must survive both. A deliberate change of
    /// the wire layout (`wire::VERSION`) is the only reason to re-pin.
    #[test]
    fn key_values_are_pinned() {
        let detector = Detector::ring(30.0, 2.0);
        let head = adult_head(AdultHeadConfig::default());
        let voxel_head = voxelized(&head, 1.0, 10.0, 16.0).expect("voxelizable extent");
        let layered = Scenario::new(head, Source::Delta, detector).with_seed(42);
        let voxel = Scenario::new(voxel_head, Source::Gaussian { radius: 0.5 }, detector)
            .with_seed(7)
            .with_photons(123_456)
            .with_tasks(9)
            .with_task_offset(3);
        assert_eq!(
            key_hex(&scenario_key(&layered)),
            "d5da176f8de6fca7ddb7d22b21e4533b24d3b9639bcbc1a2399fa42deb9e5b14"
        );
        assert_eq!(
            key_hex(&scenario_key(&voxel)),
            "46fbf245e3c081d5584e369458321502c977132799c72e18208d92baa4e25745"
        );
    }

    #[test]
    fn hex_is_64_lowercase_chars() {
        let h = key_hex(&scenario_key(&scenario()));
        assert_eq!(h.len(), 64);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    }
}
