//! Statistical validation of the `Fast` precision tier against the exact
//! tier, plus its determinism and feature-gating contracts.
//!
//! The fast tier is *not* bit-compatible with the exact tier (see
//! [`lumen_core::Precision`]), so these tests compare tallies with the
//! z-score helpers in `ztest` — every scalar tally is an estimator of the
//! same distribution parameter in both tiers, so normalised differences
//! beyond `Z_GATE` flag a physics bug rather than Monte Carlo noise.

mod ztest;

use lumen_core::engine::{Backend, Rayon, Scenario, Sequential};
use lumen_core::tally::Tally;
use lumen_core::{
    BoundaryMode, Detector, GridSpec, Precision, RadialSpec, SimulationOptions, Source, Vec3,
};
use lumen_tissue::presets::{adult_head, homogeneous_white_matter, voxelized, AdultHeadConfig};
use ztest::{z_bounded_weight, z_two_proportions, z_welch_from_moments, Z_GATE};

/// The presets `lumen-benchmark` times the kernels on, at budgets small
/// enough for the fast test loop but large enough that a biased kernel
/// trips the gate.
fn validation_scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        (
            "white_matter",
            Scenario::new(homogeneous_white_matter(), Source::Delta, Detector::new(2.0, 1.0))
                .with_photons(12_000)
                .with_tasks(4)
                .with_seed(3),
        ),
        (
            "adult_head",
            Scenario::new(
                adult_head(AdultHeadConfig::default()),
                Source::Delta,
                Detector::new(20.0, 2.0),
            )
            .with_photons(12_000)
            .with_tasks(4)
            .with_seed(42),
        ),
        (
            "voxel_head",
            Scenario::new(
                voxelized(&adult_head(AdultHeadConfig::default()), 1.0, 8.0, 25.0)
                    .expect("head voxelizes"),
                Source::Delta,
                Detector::new(4.0, 1.0),
            )
            .with_photons(8_000)
            .with_tasks(4)
            .with_seed(42),
        ),
    ]
}

fn with_precision(scenario: &Scenario, precision: Precision) -> Scenario {
    let mut s = scenario.clone();
    s.options.precision = precision;
    s
}

fn run_sequential(scenario: &Scenario) -> Tally {
    Sequential.run(scenario).expect("scenario is valid").result.tally
}

#[test]
fn fast_tier_agrees_with_exact_statistically() {
    for (name, exact_scenario) in validation_scenarios() {
        let exact = run_sequential(&exact_scenario);
        let fast = run_sequential(&with_precision(&exact_scenario, Precision::Fast));
        assert_eq!(exact.launched, fast.launched, "{name}: same photon budget");
        let (n1, n2) = (exact.launched, fast.launched);

        let mut checks: Vec<(&str, f64)> = vec![
            ("detected count", z_two_proportions(exact.detected, n1, fast.detected, n2)),
            ("reflected count", z_two_proportions(exact.reflected, n1, fast.reflected, n2)),
            ("transmitted count", z_two_proportions(exact.transmitted, n1, fast.transmitted, n2)),
            (
                "roulette-killed count",
                z_two_proportions(exact.roulette_killed, n1, fast.roulette_killed, n2),
            ),
            (
                "detected weight",
                z_bounded_weight(exact.detected_weight, n1, fast.detected_weight, n2),
            ),
            (
                "reflected weight",
                z_bounded_weight(exact.reflected_weight, n1, fast.reflected_weight, n2),
            ),
            (
                "transmitted weight",
                z_bounded_weight(exact.transmitted_weight, n1, fast.transmitted_weight, n2),
            ),
            (
                "absorbed weight",
                z_bounded_weight(
                    exact.absorbed_by_layer.iter().sum(),
                    n1,
                    fast.absorbed_by_layer.iter().sum(),
                    n2,
                ),
            ),
        ];
        if exact.detected > 1 && fast.detected > 1 {
            checks.push((
                "detected mean pathlength",
                z_welch_from_moments(
                    exact.detected_path_sum,
                    exact.detected_path_sq_sum,
                    exact.detected,
                    fast.detected_path_sum,
                    fast.detected_path_sq_sum,
                    fast.detected,
                ),
            ));
        }
        for (what, z) in checks {
            assert!(
                z.abs() < Z_GATE,
                "{name}: fast vs exact {what} differs at z = {z:.2} (gate {Z_GATE})"
            );
        }
        // The specular launch loss is computed identically in both tiers.
        assert_eq!(exact.specular_weight, fast.specular_weight, "{name}: specular weight");
    }
}

#[test]
fn fast_tier_is_deterministic_and_backend_invariant() {
    let scenario =
        with_precision(&validation_scenarios()[0].1, Precision::Fast).with_photons(4_000);
    let a = run_sequential(&scenario);
    let b = run_sequential(&scenario);
    assert_eq!(a, b, "same fast scenario twice must be byte-identical");
    let rayon = Rayon::default().run(&scenario).expect("valid").result.tally;
    assert_eq!(a, rayon, "fast tier must merge identically across backends");
}

#[test]
fn fast_tier_fate_counts_partition_the_launches() {
    for (name, exact_scenario) in validation_scenarios() {
        let t = run_sequential(&with_precision(&exact_scenario, Precision::Fast));
        let total = t.detected
            + t.reflected
            + t.transmitted
            + t.roulette_killed
            + t.fully_absorbed
            + t.expired;
        assert_eq!(total, t.launched, "{name}: every launched photon has exactly one fate");
        assert_eq!(t.expired, 0, "{name}: healthy runs never hit the interaction cap");
    }
}

#[test]
fn fast_tier_supports_statistical_tallies() {
    let options = SimulationOptions {
        precision: Precision::Fast,
        path_histogram: Some((400.0, 40)),
        reflectance_profile: Some(RadialSpec { nr: 20, r_max: 10.0 }),
        absorption_rz: Some((RadialSpec { nr: 16, r_max: 8.0 }, 20, 8.0)),
        absorption_grid: Some(GridSpec::cubic(
            16,
            Vec3::new(-2.0, -2.0, 0.0),
            Vec3::new(4.0, 2.0, 4.0),
        )),
        ..SimulationOptions::default()
    };
    let scenario =
        Scenario::new(homogeneous_white_matter(), Source::Delta, Detector::new(2.0, 1.0))
            .with_options(options)
            .with_photons(4_000)
            .with_tasks(2)
            .with_seed(5);
    let tally = run_sequential(&scenario);
    assert!(tally.detected > 0, "detector must see photons");
    let hist = tally.path_histogram.as_ref().expect("histogram attached");
    let recorded: u64 = hist.counts.iter().sum::<u64>() + hist.overflow;
    assert_eq!(recorded, tally.detected, "one histogram entry per detected photon");
    assert!(tally.absorbed_by_layer.iter().sum::<f64>() > 0.0, "scattering medium absorbs weight");
}

#[test]
fn fast_tier_rejects_trajectory_features() {
    let base = Scenario::new(homogeneous_white_matter(), Source::Delta, Detector::new(2.0, 1.0));
    let reject = |mutate: fn(&mut SimulationOptions)| {
        let mut s = base.clone();
        s.options.precision = Precision::Fast;
        mutate(&mut s.options);
        s.simulation().validate().expect_err("fast tier must reject this option")
    };
    reject(|o| {
        o.path_grid = Some(GridSpec::cubic(8, Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, 1.0, 2.0)))
    });
    reject(|o| o.record_paths = 4);
    reject(|o| o.archive = Some(lumen_core::RecordOptions::default()));
    reject(|o| o.boundary_mode = BoundaryMode::Classical);
    // The plain fast configuration itself is valid.
    let mut ok = base;
    ok.options.precision = Precision::Fast;
    ok.simulation().validate().expect("plain fast tier is valid");
}
