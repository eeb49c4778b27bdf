//! Property-based invariants of the transport engine across random media
//! and configurations: whatever the optical properties, certain physical
//! facts must hold for every photon and every tally.

use lumen::core::{Detector, Simulation, SimulationOptions, Source};
use lumen::mcrng::StreamFactory;
use lumen::tissue::presets::semi_infinite_phantom;
use lumen::tissue::{LayeredTissue, OpticalProperties};
use proptest::prelude::*;

fn arbitrary_phantom() -> impl Strategy<Value = LayeredTissue> {
    (0.001f64..2.0, 0.5f64..50.0, -0.9f64..0.95, 1.0f64..1.6)
        .prop_map(|(mu_a, mu_s, g, n)| semi_infinite_phantom(mu_a, mu_s, g, n))
}

fn arbitrary_two_layer() -> impl Strategy<Value = LayeredTissue> {
    (0.01f64..1.0, 1.0f64..30.0, 0.0f64..0.95, 1.0f64..1.6, 0.5f64..5.0, 0.01f64..1.0, 1.0f64..30.0)
        .prop_map(|(a1, s1, g, n, thick, a2, s2)| {
            LayeredTissue::stack(
                vec![
                    ("top".into(), thick, OpticalProperties::new(a1, s1, g, n)),
                    ("bottom".into(), f64::INFINITY, OpticalProperties::new(a2, s2, g, n)),
                ],
                1.0,
            )
            .expect("valid stack")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_fates_terminal_and_weights_accounted(
        tissue in arbitrary_phantom(), seed in 0u64..1000
    ) {
        let sim = Simulation::new(tissue, Source::Delta, Detector::new(2.0, 0.5));
        let n = 2_000u64;
        let mut tally = sim.new_tally();
        let mut rng = StreamFactory::new(seed).stream(0);
        sim.run_stream(n, &mut rng, &mut tally, None);
        // Tallying a fate is unreachable for `Alive`, so this partition
        // also says every photon's walk ended.
        prop_assert_eq!(tally.launched, n);
        prop_assert_eq!(
            tally.detected + tally.reflected + tally.transmitted
                + tally.roulette_killed + tally.fully_absorbed + tally.expired,
            n
        );
        // Weight bookkeeping: all tallied weights are non-negative and the
        // accounted fraction is physical (roulette noise stays small at 2k
        // photons but is unbounded in theory; allow a loose band).
        prop_assert!(tally.detected_weight >= 0.0);
        prop_assert!(tally.reflected_weight >= 0.0);
        prop_assert!(tally.transmitted_weight >= 0.0);
        prop_assert!(tally.total_absorbed() >= 0.0);
        let frac = tally.accounted_weight_fraction();
        prop_assert!((0.8..1.2).contains(&frac), "accounted {}", frac);
        prop_assert_eq!(tally.expired, 0);
    }

    #[test]
    fn detected_paths_are_geometrically_consistent(
        tissue in arbitrary_phantom(), seed in 0u64..100
    ) {
        let options = SimulationOptions { record_paths: 16, ..Default::default() };
        let sim = Simulation::new(tissue, Source::Delta, Detector::new(2.0, 1.0))
            .with_options(options);
        let res = sim.run(20_000, seed);
        for path in &res.sample_paths {
            let start = path.vertices.first().expect("non-empty path");
            let end = path.vertices.last().expect("non-empty path");
            // Photons launch on the surface and are detected on it.
            prop_assert!(start.z.abs() < 1e-9);
            prop_assert!(end.z.abs() < 1e-6);
            // Detected exit is inside the aperture.
            prop_assert!(sim.detector.in_aperture(*end));
            // Pathlength is at least the polyline length (equal up to fp).
            let polyline: f64 = path
                .vertices
                .windows(2)
                .map(|p| p[0].distance(p[1]))
                .sum();
            prop_assert!(
                (path.pathlength - polyline).abs() < 1e-6 * (1.0 + polyline),
                "pathlength {} vs polyline {}", path.pathlength, polyline
            );
            // And at least the straight-line source-detector distance.
            prop_assert!(path.pathlength + 1e-9 >= start.distance(*end));
            prop_assert!(path.exit_weight > 0.0 && path.exit_weight <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn layered_media_conserve_energy(
        tissue in arbitrary_two_layer(), seed in 0u64..100
    ) {
        let sim = Simulation::new(tissue, Source::Delta, Detector::new(2.0, 0.5));
        let res = sim.run(4_000, seed);
        let frac = res.tally.accounted_weight_fraction();
        prop_assert!((0.85..1.15).contains(&frac), "accounted {}", frac);
        prop_assert_eq!(res.tally.expired, 0);
    }

    #[test]
    fn sources_never_launch_outside_their_footprint(
        radius in 0.1f64..5.0, seed in 0u64..50
    ) {
        let mut rng = StreamFactory::new(seed).stream(0);
        let _ = lumen::mcrng::McRng::next_u64(&mut rng);
        for source in [Source::Uniform { radius }, Source::Gaussian { radius }] {
            for _ in 0..200 {
                let p = source.sample_position(&mut rng);
                prop_assert_eq!(p.z, 0.0);
                if matches!(source, Source::Uniform { .. }) {
                    prop_assert!(p.radial() <= radius + 1e-12);
                }
            }
        }
    }
}
