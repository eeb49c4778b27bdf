//! Cross-crate physics validation: energy conservation, known limits, and
//! the qualitative NIRS facts the paper's Sect. 2 states.

use lumen::core::{Backend, Detector, Rayon, Scenario, Simulation, Source};
use lumen::tissue::presets::{
    adult_head, homogeneous_white_matter, semi_infinite_phantom, AdultHeadConfig,
};

fn run(sim: &Simulation, n: u64, seed: u64) -> lumen::core::SimulationResult {
    let scenario = Scenario::from_simulation(sim, n, seed).with_tasks(16);
    Rayon::default().run(&scenario).expect("valid scenario").result
}

#[test]
fn energy_conservation_across_media() {
    for (label, tissue) in [
        ("white matter", homogeneous_white_matter()),
        ("adult head", adult_head(AdultHeadConfig::default())),
        ("matched phantom", semi_infinite_phantom(0.1, 10.0, 0.5, 1.0)),
        ("mismatched phantom", semi_infinite_phantom(0.05, 5.0, 0.9, 1.5)),
    ] {
        let sim = Simulation::new(tissue, Source::Delta, Detector::new(5.0, 1.0));
        let res = run(&sim, 30_000, 1);
        let frac = res.tally.accounted_weight_fraction();
        assert!((frac - 1.0).abs() < 0.02, "{label}: accounted weight fraction {frac}");
    }
}

#[test]
fn semi_infinite_medium_has_no_transmittance() {
    let sim = Simulation::new(homogeneous_white_matter(), Source::Delta, Detector::new(5.0, 1.0));
    let res = run(&sim, 20_000, 2);
    assert_eq!(res.tally.transmitted, 0);
    assert_eq!(res.transmittance(), 0.0);
}

#[test]
fn higher_albedo_means_more_reflectance() {
    // Diffusion theory: diffuse reflectance of a semi-infinite medium grows
    // with albedo'. Compare two phantoms differing only in absorption.
    let bright = semi_infinite_phantom(0.01, 10.0, 0.0, 1.0);
    let dark = semi_infinite_phantom(1.0, 10.0, 0.0, 1.0);
    let det = Detector::new(2.0, 0.5);
    let r_bright =
        run(&Simulation::new(bright, Source::Delta, det), 30_000, 3).diffuse_reflectance();
    let r_dark = run(&Simulation::new(dark, Source::Delta, det), 30_000, 3).diffuse_reflectance();
    assert!(
        r_bright > 2.0 * r_dark,
        "low absorption should reflect much more: {r_bright} vs {r_dark}"
    );
}

#[test]
fn milstein_benchmark_total_reflectance() {
    // Classic MCML validation point (van de Hulst / Prahl tables): for a
    // matched-boundary semi-infinite medium with albedo a = mu_s/mu_t = 0.9
    // and isotropic scattering, total diffuse reflectance ≈ 0.41.
    let mu_s = 9.0;
    let mu_a = 1.0;
    let tissue = semi_infinite_phantom(mu_a, mu_s, 0.0, 1.0);
    let sim = Simulation::new(tissue, Source::Delta, Detector::new(1.0, 0.1));
    let res = run(&sim, 200_000, 4);
    let r = res.diffuse_reflectance();
    assert!(
        (r - 0.41).abs() < 0.02,
        "albedo-0.9 semi-infinite reflectance should be ~0.41, got {r}"
    );
}

#[test]
fn detected_pathlength_exceeds_separation_substantially() {
    // "The highly scattering nature of biological tissue means that photons
    // travel a considerably greater distance than the direct source-
    // detector path."
    let sim = Simulation::new(homogeneous_white_matter(), Source::Delta, Detector::new(6.0, 1.0));
    let res = run(&sim, 300_000, 5);
    assert!(res.tally.detected > 50, "need detections for statistics");
    let dpf = res.differential_pathlength_factor(6.0);
    assert!(dpf > 2.0, "DPF in scattering tissue should exceed 2, got {dpf}");
}

#[test]
fn deeper_layers_absorb_less_in_head_model() {
    // Attenuation with depth: scalp absorbs more total weight than white
    // matter despite lower mu_a, because far more light visits it.
    let sim = Simulation::new(
        adult_head(AdultHeadConfig::default()),
        Source::Delta,
        Detector::new(30.0, 3.0),
    );
    let res = run(&sim, 100_000, 6);
    let by_layer = res.absorbed_fraction_by_layer();
    assert_eq!(by_layer.len(), 5);
    assert!(
        by_layer[0] > by_layer[4],
        "scalp {} should absorb more than white matter {}",
        by_layer[0],
        by_layer[4]
    );
    // Every layer absorbs something.
    assert!(by_layer.iter().all(|&f| f > 0.0), "{by_layer:?}");
}

#[test]
fn most_photons_reflect_before_csf() {
    // The paper's Fig 4 finding: "Most of the photons are reflected before
    // they enter the CSF, however some do penetrate all the way into the
    // white matter tissue."
    let cfg = AdultHeadConfig::default();
    let sim = Simulation::new(adult_head(cfg), Source::Delta, Detector::new(30.0, 3.0));
    let res = run(&sim, 100_000, 7);
    // Superficial absorption (scalp+skull) dominates deep absorption.
    let by_layer = res.absorbed_fraction_by_layer();
    let superficial = by_layer[0] + by_layer[1];
    let deep = by_layer[3] + by_layer[4];
    assert!(superficial > deep, "superficial {superficial} vs deep {deep}");
    // But some white-matter absorption exists — light does reach it.
    assert!(by_layer[4] > 0.0);
}

#[test]
fn larger_separation_means_longer_paths() {
    let mk = |sep: f64| {
        let sim =
            Simulation::new(homogeneous_white_matter(), Source::Delta, Detector::new(sep, 1.0));
        run(&sim, 400_000, 8)
    };
    let near = mk(3.0);
    let far = mk(8.0);
    assert!(near.tally.detected > far.tally.detected, "signal falls with separation");
    if far.tally.detected > 20 {
        assert!(
            far.mean_detected_pathlength() > near.mean_detected_pathlength(),
            "farther detectors see longer paths"
        );
    }
}

#[test]
fn index_mismatch_produces_specular_reflection() {
    let sim = Simulation::new(homogeneous_white_matter(), Source::Delta, Detector::new(5.0, 1.0));
    let res = run(&sim, 10_000, 9);
    let expected = ((1.0f64 - 1.4) / (1.0 + 1.4)).powi(2);
    assert!((res.specular_reflectance() - expected).abs() < 1e-9);
}

#[test]
fn radial_reflectance_matches_diffusion_theory_decay() {
    // Independent cross-check of the whole transport engine: far from the
    // source, the Monte Carlo R(r) of a semi-infinite scattering medium
    // must decay at the rate mu_eff predicted by the diffusion
    // approximation (Farrell-Patterson dipole model).
    use lumen::analysis::diffusion::{fit_log_slope, DiffusionModel};
    use lumen::core::RadialSpec;

    let mu_a = 0.05;
    let mu_s = 20.0; // g = 0.5 -> mu_s' = 10.0: strongly diffusive
    let g = 0.5;
    let tissue = semi_infinite_phantom(mu_a, mu_s, g, 1.0);
    let mut sim = Simulation::new(tissue, Source::Delta, Detector::new(100.0, 0.1));
    sim.options.reflectance_profile = Some(RadialSpec { nr: 60, r_max: 15.0 });

    let res = run(&sim, 400_000, 21);
    let profile = res.tally.reflectance_r.as_ref().expect("profile attached");
    let per_area = profile.per_area(res.launched());

    // Fit the decay over 4..12 mm (beyond ~3 transport mfps, where
    // diffusion theory is valid).
    let spec = profile.spec;
    let (mut rhos, mut vals) = (Vec::new(), Vec::new());
    for (i, &value) in per_area.iter().enumerate().take(spec.nr) {
        let r = spec.r_of(i);
        if (4.0..12.0).contains(&r) {
            rhos.push(r);
            vals.push(value);
        }
    }
    let slope = fit_log_slope(&rhos, &vals).expect("enough populated bins");

    let model = DiffusionModel::new(mu_a, mu_s * (1.0 - g), 1.0);
    let predicted = model.asymptotic_slope();
    let rel_err = (slope - predicted).abs() / predicted.abs();
    assert!(
        rel_err < 0.15,
        "MC decay {slope:.4}/mm vs diffusion mu_eff {predicted:.4}/mm ({:.1}% off)",
        rel_err * 100.0
    );
}

#[test]
fn radial_profile_total_matches_reflectance_tallies() {
    // The R(r) profile integrates to exactly the diffuse reflectance the
    // scalar tallies report (same escapes, two bookkeepers).
    use lumen::core::RadialSpec;
    let tissue = semi_infinite_phantom(0.1, 10.0, 0.0, 1.4);
    let mut sim = Simulation::new(tissue, Source::Delta, Detector::new(3.0, 1.0));
    sim.options.reflectance_profile = Some(RadialSpec { nr: 30, r_max: 50.0 });
    let res = run(&sim, 30_000, 22);
    let profile = res.tally.reflectance_r.as_ref().unwrap();
    let total_profile = profile.total() / res.launched() as f64;
    let total_scalar = res.diffuse_reflectance();
    assert!(
        (total_profile - total_scalar).abs() < 1e-12,
        "profile {total_profile} vs scalar {total_scalar}"
    );
}

#[test]
fn absorption_rz_matches_layer_totals() {
    use lumen::core::RadialSpec;
    let tissue = semi_infinite_phantom(0.5, 10.0, 0.0, 1.0);
    let mut sim = Simulation::new(tissue, Source::Delta, Detector::new(3.0, 1.0));
    sim.options.absorption_rz = Some((RadialSpec { nr: 20, r_max: 100.0 }, 50, 200.0));
    let res = run(&sim, 20_000, 23);
    let rz = res.tally.absorption_rz.as_ref().unwrap();
    let total_rz = rz.total() / res.launched() as f64;
    let total_layers = res.absorbed_fraction();
    assert!(
        (total_rz - total_layers).abs() < 1e-9,
        "A(r,z) total {total_rz} vs layer total {total_layers}"
    );
}

#[test]
fn numerical_aperture_reduces_detections() {
    let open_det = Detector::new(3.0, 1.0);
    let narrow_det = Detector::new(3.0, 1.0).with_numerical_aperture(0.3, 1.0).unwrap();
    let tissue = homogeneous_white_matter();
    let a = run(&Simulation::new(tissue.clone(), Source::Delta, open_det), 200_000, 30);
    let b = run(&Simulation::new(tissue, Source::Delta, narrow_det), 200_000, 30);
    assert!(a.tally.detected > 0);
    assert!(
        b.tally.detected < a.tally.detected,
        "NA 0.3 should reject angles: {} vs {}",
        b.tally.detected,
        a.tally.detected
    );
    assert!(b.tally.na_rejected > 0, "rejections must be counted");
    // Diffuse reflectance (detected + reflected) is unchanged physics.
    let ra = a.diffuse_reflectance();
    let rb = b.diffuse_reflectance();
    assert!((ra - rb).abs() / ra < 0.02, "{ra} vs {rb}");
}

#[test]
fn finite_slab_conserves_and_transmits() {
    use lumen::tissue::{LayeredTissue, OpticalProperties};
    // A thin, weakly absorbing slab must show substantial transmittance
    // and R + T + A + specular ≈ 1.
    let slab = LayeredTissue::stack(
        vec![("slab".into(), 1.0, OpticalProperties::new(0.01, 5.0, 0.8, 1.0))],
        1.0,
    )
    .unwrap();
    let sim = Simulation::new(slab, Source::Delta, Detector::new(2.0, 0.5));
    let res = run(&sim, 50_000, 31);
    assert!(res.tally.transmitted > 0, "thin slab must transmit");
    let total = res.specular_reflectance()
        + res.diffuse_reflectance()
        + res.transmittance()
        + res.absorbed_fraction();
    assert!((total - 1.0).abs() < 0.01, "R+T+A = {total}");
    // Most light goes through an optically thin forward-scattering slab.
    assert!(res.transmittance() > 0.5, "T = {}", res.transmittance());
}

#[test]
fn thicker_slab_transmits_less() {
    use lumen::tissue::{LayeredTissue, OpticalProperties};
    let mk = |thickness: f64| {
        let slab = LayeredTissue::stack(
            vec![("slab".into(), thickness, OpticalProperties::new(0.1, 10.0, 0.5, 1.0))],
            1.0,
        )
        .unwrap();
        run(&Simulation::new(slab, Source::Delta, Detector::new(2.0, 0.5)), 30_000, 32)
            .transmittance()
    };
    let thin = mk(0.5);
    let mid = mk(2.0);
    let thick = mk(8.0);
    assert!(thin > mid && mid > thick, "T must fall with thickness: {thin} {mid} {thick}");
}

#[test]
fn partial_pathlengths_sum_to_total_pathlength() {
    // The per-layer partial pathlengths of detected photons must sum to
    // their total pathlength, in any medium.
    let sim = Simulation::new(
        adult_head(AdultHeadConfig::default()),
        Source::Delta,
        Detector::ring(30.0, 2.0),
    );
    let res = run(&sim, 150_000, 40);
    assert!(res.tally.detected > 30);
    let partial_sum: f64 = res.tally.detected_partial_path.iter().sum();
    let total = res.tally.detected_path_sum;
    assert!((partial_sum - total).abs() < 1e-6 * total, "partials {partial_sum} vs total {total}");
}

#[test]
fn homogeneous_medium_has_all_path_in_layer_zero() {
    let sim = Simulation::new(homogeneous_white_matter(), Source::Delta, Detector::new(3.0, 1.0));
    let res = run(&sim, 100_000, 41);
    assert!(res.tally.detected > 20);
    assert!(
        (res.mean_partial_pathlength(0) - res.mean_detected_pathlength()).abs()
            < 1e-9 * res.mean_detected_pathlength()
    );
}

#[test]
fn superficial_layers_dominate_partial_pathlength() {
    // The NIRS sensitivity hierarchy: detected photons spend most of their
    // path in the scalp/skull, least in the white matter — quantifying
    // "which cells dominate the detected light signal".
    let sim = Simulation::new(
        adult_head(AdultHeadConfig::default()),
        Source::Delta,
        Detector::ring(30.0, 2.0),
    );
    let res = run(&sim, 200_000, 42);
    assert!(res.tally.detected > 50);
    let ppl = res.mean_partial_pathlengths();
    assert!(ppl[0] + ppl[1] > ppl[3] + ppl[4], "superficial {:?} should dominate deep layers", ppl);
    assert!(ppl[4] < ppl[3], "white matter sees less path than grey: {ppl:?}");
}
