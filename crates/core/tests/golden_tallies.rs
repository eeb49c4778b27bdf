//! Golden-tally regression harness.
//!
//! Every preset scenario is run with a fixed seed and a small photon budget,
//! and the resulting tally is serialised to a text snapshot checked in under
//! `tests/golden/`. The test fails on ANY byte difference, so refactors of
//! the photon stepping loop (e.g. the `TissueGeometry` genericization) are
//! provably physics-preserving: same seeds, same bits.
//!
//! Regenerating snapshots (after an *intentional* physics change):
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p lumen-core --test golden_tallies
//! ```
//!
//! then review the diff like any other code change. Budgets are deliberately
//! small (1.5k–3k photons) so the whole harness stays in the fast loop
//! (`cargo test --workspace --exclude lumen`).

use lumen_core::engine::{Backend, Scenario, Sequential};
use lumen_core::sha256;
use lumen_core::tally::Tally;
use lumen_core::{
    BoundaryMode, Detector, GateWindow, GridSpec, Precision, RadialSpec, SimulationOptions, Source,
    Vec3,
};
use lumen_tissue::presets::{
    adult_head, head_with_inclusion, homogeneous_white_matter, neonatal_head,
    semi_infinite_phantom, voxelized, AdultHeadConfig,
};
use lumen_tissue::{LayeredTissue, OpticalProperties};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Little-endian byte stream of an `f64` slice — the digest input for every
/// float-valued distribution. Bit-exact: any ulp of drift changes the hash.
fn f64_bytes(values: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

fn u64_bytes(values: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// Render a tally as a stable, human-reviewable text snapshot. Floats use
/// Rust's shortest round-trip formatting, so equal text means equal bits.
fn snapshot(name: &str, scenario: &Scenario, tally: &Tally) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# Golden tally snapshot: {name}");
    let _ =
        writeln!(s, "# Regenerate: UPDATE_GOLDEN=1 cargo test -p lumen-core --test golden_tallies");
    let _ = writeln!(s, "photons = {}", scenario.photons);
    let _ = writeln!(s, "tasks = {}", scenario.tasks);
    let _ = writeln!(s, "seed = {}", scenario.seed);
    let _ = writeln!(s, "launched = {}", tally.launched);
    let _ = writeln!(s, "detected = {}", tally.detected);
    let _ = writeln!(s, "reflected = {}", tally.reflected);
    let _ = writeln!(s, "transmitted = {}", tally.transmitted);
    let _ = writeln!(s, "roulette_killed = {}", tally.roulette_killed);
    let _ = writeln!(s, "fully_absorbed = {}", tally.fully_absorbed);
    let _ = writeln!(s, "expired = {}", tally.expired);
    let _ = writeln!(s, "gate_rejected = {}", tally.gate_rejected);
    let _ = writeln!(s, "na_rejected = {}", tally.na_rejected);
    let _ = writeln!(s, "specular_weight = {}", tally.specular_weight);
    let _ = writeln!(s, "detected_weight = {}", tally.detected_weight);
    let _ = writeln!(s, "reflected_weight = {}", tally.reflected_weight);
    let _ = writeln!(s, "transmitted_weight = {}", tally.transmitted_weight);
    let abs: Vec<String> = tally.absorbed_by_layer.iter().map(|v| v.to_string()).collect();
    let _ = writeln!(s, "absorbed_by_layer = {}", abs.join(" "));
    let _ = writeln!(s, "detected_path_sum = {}", tally.detected_path_sum);
    let _ = writeln!(s, "detected_path_sq_sum = {}", tally.detected_path_sq_sum);
    let _ = writeln!(s, "detected_weight_path_sum = {}", tally.detected_weight_path_sum);
    let _ = writeln!(s, "detected_depth_sum = {}", tally.detected_depth_sum);
    let _ = writeln!(s, "detected_depth_max = {}", tally.detected_depth_max);
    let reached: Vec<String> = tally.detected_reached_layer.iter().map(|v| v.to_string()).collect();
    let _ = writeln!(s, "detected_reached_layer = {}", reached.join(" "));
    let partial: Vec<String> = tally.detected_partial_path.iter().map(|v| v.to_string()).collect();
    let _ = writeln!(s, "detected_partial_path = {}", partial.join(" "));
    let _ = writeln!(s, "detected_scatter_sum = {}", tally.detected_scatter_sum);
    if let Some(hist) = &tally.path_histogram {
        let counts: Vec<String> = hist.counts.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(s, "path_histogram = {}", counts.join(" "));
        let _ = writeln!(s, "path_histogram_overflow = {}", hist.overflow);
        let _ = writeln!(s, "path_histogram_sha256 = {}", sha256::hex(&u64_bytes(&hist.counts)));
    }
    // Distribution-level pinning: the *entire* array of every attached
    // grid/profile is digested, so drift in any single voxel or bin fails
    // the snapshot even when totals happen to cancel.
    if let Some(grid) = &tally.path_grid {
        let _ = writeln!(s, "path_grid_total = {}", grid.total());
        let _ =
            writeln!(s, "path_grid_sha256 = {}", sha256::hex(&f64_bytes(&grid.cells().to_vec())));
    }
    if let Some(grid) = &tally.absorption_grid {
        let _ = writeln!(s, "absorption_grid_total = {}", grid.total());
        let _ = writeln!(
            s,
            "absorption_grid_sha256 = {}",
            sha256::hex(&f64_bytes(&grid.cells().to_vec()))
        );
    }
    if let Some(profile) = &tally.reflectance_r {
        let _ = writeln!(s, "reflectance_r_total = {}", profile.total());
        let _ = writeln!(s, "reflectance_r_overflow = {}", profile.overflow);
        let _ = writeln!(
            s,
            "reflectance_r_sha256 = {}",
            sha256::hex(&f64_bytes(&profile.cells().to_vec()))
        );
    }
    if let Some(rz) = &tally.absorption_rz {
        let flat: Vec<f64> = (0..rz.nz)
            .flat_map(|iz| (0..rz.radial.nr).map(move |ir| (ir, iz)))
            .map(|(ir, iz)| rz.at(ir, iz))
            .collect();
        let _ = writeln!(s, "absorption_rz_total = {}", rz.total());
        let _ = writeln!(s, "absorption_rz_overflow = {}", rz.overflow);
        let _ = writeln!(s, "absorption_rz_sha256 = {}", sha256::hex(&f64_bytes(&flat)));
    }
    s
}

/// The locked-down scenario set: every tissue preset, both boundary modes,
/// every source family, gated and open detectors, task splits > 1 (so the
/// engine's merge order is pinned too), and both precision tiers.
fn scenarios() -> Vec<(&'static str, Scenario)> {
    let classical = SimulationOptions {
        boundary_mode: BoundaryMode::Classical,
        ..SimulationOptions::default()
    };
    let gated = SimulationOptions {
        path_histogram: Some((400.0, 20)),
        reflectance_profile: Some(RadialSpec { nr: 40, r_max: 40.0 }),
        ..SimulationOptions::default()
    };
    // Distribution tallies attached to representative scenarios so the
    // sha256 digests pin full arrays, not just scalar sums. Attaching a
    // grid never consumes RNG draws, so the scalar tallies are unchanged.
    let head_grids = SimulationOptions {
        path_grid: Some(GridSpec::cubic(
            24,
            Vec3::new(-10.0, -10.0, 0.0),
            Vec3::new(30.0, 10.0, 40.0),
        )),
        absorption_rz: Some((RadialSpec { nr: 30, r_max: 30.0 }, 40, 40.0)),
        path_histogram: Some((600.0, 40)),
        ..SimulationOptions::default()
    };
    let wm_grids = SimulationOptions {
        path_grid: Some(GridSpec::cubic(20, Vec3::new(-2.0, -2.0, 0.0), Vec3::new(4.0, 2.0, 4.0))),
        absorption_grid: Some(GridSpec::cubic(
            20,
            Vec3::new(-2.0, -2.0, 0.0),
            Vec3::new(4.0, 2.0, 4.0),
        )),
        ..SimulationOptions::default()
    };
    let phantom_grids = SimulationOptions {
        reflectance_profile: Some(RadialSpec { nr: 25, r_max: 10.0 }),
        absorption_rz: Some((RadialSpec { nr: 20, r_max: 10.0 }, 20, 10.0)),
        ..SimulationOptions::default()
    };
    let voxel_grids = SimulationOptions {
        path_grid: Some(GridSpec::cubic(16, Vec3::new(-8.0, -8.0, 0.0), Vec3::new(8.0, 8.0, 25.0))),
        absorption_rz: Some((RadialSpec { nr: 16, r_max: 8.0 }, 25, 25.0)),
        ..SimulationOptions::default()
    };
    // The fast tier takes every attachment it accepts (trajectory recording
    // is exact-only). Odd task splits leave each task a partial last pool,
    // so both the full-width and the draining supersteps are pinned.
    let fast_grids = SimulationOptions {
        precision: Precision::Fast,
        absorption_grid: Some(GridSpec::cubic(
            16,
            Vec3::new(-8.0, -8.0, 0.0),
            Vec3::new(8.0, 8.0, 25.0),
        )),
        absorption_rz: Some((RadialSpec { nr: 16, r_max: 8.0 }, 25, 25.0)),
        reflectance_profile: Some(RadialSpec { nr: 20, r_max: 8.0 }),
        path_histogram: Some((300.0, 30)),
        ..SimulationOptions::default()
    };
    let fast = SimulationOptions { precision: Precision::Fast, ..SimulationOptions::default() };
    let voxel_head = || {
        voxelized(&adult_head(AdultHeadConfig::default()), 1.0, 8.0, 25.0).expect("head voxelizes")
    };
    // A clear (μt = 0) layer between two scattering ones, so both tiers'
    // transparent streaming branch — whole step budget carried across the
    // gap — is pinned byte for byte.
    let clear_gap = || {
        let tissue = OpticalProperties::new(0.02, 10.0, 0.9, 1.4);
        LayeredTissue::stack(
            vec![
                ("skin".into(), 2.0, tissue),
                ("clear".into(), 2.0, OpticalProperties::transparent(1.33)),
                ("brain".into(), f64::INFINITY, tissue),
            ],
            1.0,
        )
        .expect("clear-gap stack is valid")
    };
    vec![
        (
            "adult_head_default",
            Scenario::new(
                adult_head(AdultHeadConfig::default()),
                Source::Delta,
                Detector::new(20.0, 2.0),
            )
            .with_options(head_grids)
            .with_photons(2_000)
            .with_tasks(4)
            .with_seed(42),
        ),
        (
            "adult_head_thin",
            Scenario::new(
                adult_head(AdultHeadConfig::thin()),
                Source::Delta,
                Detector::new(20.0, 2.0),
            )
            .with_photons(1_500)
            .with_tasks(4)
            .with_seed(7),
        ),
        (
            "adult_head_thick",
            Scenario::new(
                adult_head(AdultHeadConfig::thick()),
                Source::Delta,
                Detector::new(20.0, 2.0),
            )
            .with_photons(1_500)
            .with_tasks(4)
            .with_seed(9),
        ),
        (
            "neonatal_head",
            Scenario::new(neonatal_head(), Source::Delta, Detector::new(10.0, 1.0))
                .with_photons(2_000)
                .with_tasks(4)
                .with_seed(11),
        ),
        (
            "white_matter",
            Scenario::new(homogeneous_white_matter(), Source::Delta, Detector::new(2.0, 1.0))
                .with_options(wm_grids)
                .with_photons(2_000)
                .with_tasks(4)
                .with_seed(3),
        ),
        (
            "phantom_probabilistic",
            Scenario::new(
                semi_infinite_phantom(0.1, 10.0, 0.9, 1.4),
                Source::Delta,
                Detector::new(2.0, 0.5),
            )
            .with_options(phantom_grids)
            .with_photons(3_000)
            .with_tasks(4)
            .with_seed(5),
        ),
        (
            "phantom_classical",
            Scenario::new(
                semi_infinite_phantom(0.1, 10.0, 0.9, 1.4),
                Source::Delta,
                Detector::new(2.0, 0.5),
            )
            .with_options(classical)
            .with_photons(3_000)
            .with_tasks(4)
            .with_seed(5),
        ),
        (
            "gaussian_ring_gated",
            Scenario::new(
                adult_head(AdultHeadConfig::default()),
                Source::Gaussian { radius: 1.5 },
                Detector::ring(20.0, 2.0)
                    .with_gate(GateWindow::new(10.0, 400.0).unwrap())
                    .with_numerical_aperture(0.5, 1.0),
            )
            .with_options(gated)
            .with_photons(2_000)
            .with_tasks(4)
            .with_seed(13),
        ),
        (
            "uniform_source_phantom",
            Scenario::new(
                semi_infinite_phantom(0.05, 8.0, 0.8, 1.37),
                Source::Uniform { radius: 1.0 },
                Detector::new(3.0, 1.0),
            )
            .with_photons(2_000)
            .with_tasks(4)
            .with_seed(21),
        ),
        // Voxel geometries, locked down exactly like the layered presets.
        (
            "voxel_head",
            Scenario::new(voxel_head(), Source::Delta, Detector::new(4.0, 1.0))
                .with_options(voxel_grids)
                .with_photons(1_500)
                .with_tasks(4)
                .with_seed(42),
        ),
        (
            "voxel_head_inclusion",
            Scenario::new(
                head_with_inclusion(
                    AdultHeadConfig::default(),
                    1.0,
                    8.0,
                    25.0,
                    Vec3::new(5.0, 0.0, 16.0),
                    4.0,
                )
                .expect("inclusion phantom builds"),
                Source::Delta,
                Detector::new(4.0, 1.0),
            )
            .with_photons(1_500)
            .with_tasks(4)
            .with_seed(42),
        ),
        // The fast tier, pinned within itself (it is not bit-compatible
        // with the exact tier; `fast_tier_validation` z-gates the two).
        (
            "voxel_head_fast",
            Scenario::new(voxel_head(), Source::Delta, Detector::new(4.0, 1.0))
                .with_options(fast_grids)
                .with_photons(1_500)
                .with_tasks(7)
                .with_seed(42),
        ),
        (
            "adult_head_fast",
            Scenario::new(
                adult_head(AdultHeadConfig::default()),
                Source::Delta,
                Detector::ring(6.0, 2.0),
            )
            .with_options(fast.clone())
            .with_photons(2_000)
            .with_tasks(4)
            .with_seed(42),
        ),
        (
            "voxel_head_fast_single",
            Scenario::new(voxel_head(), Source::Delta, Detector::ring(2.0, 1.0))
                .with_options(fast.clone())
                .with_photons(40)
                .with_tasks(40)
                .with_seed(17),
        ),
        (
            "clear_gap",
            Scenario::new(clear_gap(), Source::Gaussian { radius: 1.0 }, Detector::new(10.0, 2.0))
                .with_photons(2_000)
                .with_tasks(4)
                .with_seed(21),
        ),
        (
            "clear_gap_fast",
            Scenario::new(clear_gap(), Source::Gaussian { radius: 1.0 }, Detector::new(10.0, 2.0))
                .with_options(fast)
                .with_photons(2_000)
                .with_tasks(3)
                .with_seed(21),
        ),
    ]
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

#[test]
fn golden_tallies_are_byte_identical() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut failures = Vec::new();
    for (name, scenario) in scenarios() {
        let report = Sequential.run(&scenario).expect("preset scenario is valid");
        let got = snapshot(name, &scenario, &report.result.tally);
        let path = dir.join(format!("{name}.txt"));
        if update {
            std::fs::write(&path, &got).expect("write golden snapshot");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) => {
                if want != got {
                    failures.push(format!(
                        "`{name}` diverged from {}.\n--- golden\n{want}\n--- current\n{got}",
                        path.display()
                    ));
                }
            }
            Err(e) => failures.push(format!(
                "missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 to create it",
                path.display()
            )),
        }
    }
    assert!(failures.is_empty(), "golden tally regressions:\n{}", failures.join("\n"));
}

/// Every checked-in snapshot must correspond to a live scenario — stale
/// files would silently stop being regression-checked.
#[test]
fn no_stale_golden_snapshots() {
    let known: Vec<String> = scenarios().iter().map(|(n, _)| format!("{n}.txt")).collect();
    let Ok(entries) = std::fs::read_dir(golden_dir()) else { return };
    for entry in entries {
        let file = entry.expect("read golden dir entry").file_name();
        let file = file.to_string_lossy().to_string();
        assert!(
            known.contains(&file) || !file.ends_with(".txt"),
            "stale golden snapshot `{file}` has no matching scenario"
        );
    }
}
