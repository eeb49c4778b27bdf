//! Human-readable report printing for CLI runs.

use lumen_cluster::DesReport;
use lumen_core::{RunReport, Scenario};

/// Print the standard post-run report to stdout.
pub fn print_report(scenario: &Scenario, run: &RunReport) {
    let result = &run.result;
    let t = &result.tally;
    println!("== lumen run ==");
    println!(
        "tissue: {} {} region(s); source: {}; detector at {} mm ({}){}",
        scenario.tissue.kind(),
        scenario.tissue.region_count(),
        scenario.source.name(),
        scenario.detector.separation,
        if scenario.detector.ring { "ring" } else { "disc" },
        if scenario.detector.gate.is_open() { "" } else { ", gated" },
    );
    println!(
        "backend: {}; photons: {} in {:.2} s ({:.0} photons/s)",
        run.backend,
        t.launched,
        run.wall_seconds,
        run.photons_per_second()
    );
    if run.workers.len() > 1 || run.requeues > 0 {
        println!("workers: {}; requeues after failures: {}", run.workers.len(), run.requeues);
    }
    println!();

    println!("outcomes:");
    println!(
        "  detected        {:>10}  ({:.3e} of launched)",
        t.detected,
        result.detected_fraction()
    );
    println!("  diffuse refl.   {:>10.4}", result.diffuse_reflectance());
    println!("  specular refl.  {:>10.4}", result.specular_reflectance());
    println!("  transmittance   {:>10.4}", result.transmittance());
    println!("  absorbed        {:>10.4}", result.absorbed_fraction());
    if t.gate_rejected > 0 {
        println!("  gate-rejected   {:>10}", t.gate_rejected);
    }
    if t.na_rejected > 0 {
        println!("  NA-rejected     {:>10}", t.na_rejected);
    }

    if t.detected > 0 {
        println!("\ndetected-photon statistics:");
        println!(
            "  pathlength      {:>10.1} mm (std {:.1})",
            result.mean_detected_pathlength(),
            result.std_detected_pathlength()
        );
        println!(
            "  DPF             {:>10.2}",
            result.differential_pathlength_factor(scenario.detector.separation)
        );
        println!(
            "  penetration     {:>10.1} mm mean, {:.1} mm max",
            result.mean_penetration_depth(),
            result.max_penetration_depth()
        );
        println!("  scatters        {:>10.0} per photon", result.mean_detected_scatters());
    }

    println!("\nabsorbed weight per region (per launched photon):");
    for (region, frac) in result.absorbed_fraction_by_layer().iter().enumerate() {
        println!("  {:<16} {:.5}", scenario.tissue.region_name(region), frac);
    }

    if let Some(grid) = t.path_grid.as_ref() {
        println!(
            "\npath grid: {}x{}x{} voxels, total visit weight {:.3e}",
            grid.spec.nx,
            grid.spec.ny,
            grid.spec.nz,
            grid.total()
        );
    }
    if let Some(hist) = t.path_histogram.as_ref() {
        println!(
            "path histogram: {} bins to {} mm, {} detections recorded",
            hist.counts.len(),
            hist.max_mm,
            hist.total()
        );
    }
    println!(
        "\nenergy accounted: {:.4} (specular + exits + absorbed per photon)",
        t.accounted_weight_fraction()
    );
}

/// Report for `backend = sim`: no photons were traced; the value is the
/// predicted timing of the scenario on the modelled machine pool, which
/// the simulator computed in `wall_seconds`.
pub fn print_prediction(scenario: &Scenario, des: &DesReport, wall_seconds: f64) {
    let makespan = des.makespan_s;
    println!("== lumen run (simulated cluster) ==");
    println!(
        "predicted makespan for {} photons on {} simulated machine(s): {:.1} s ({:.2} h)",
        scenario.photons,
        des.machine_tasks.len(),
        makespan,
        makespan / 3600.0
    );
    let total: u64 = des.machine_photons.iter().sum();
    let busiest = des.machine_photons.iter().copied().max().unwrap_or(0);
    println!(
        "work distribution: {} tasks over the pool; busiest machine simulated {} of {} photons",
        des.tasks, busiest, total
    );
    println!(
        "(timing model only — no photon transport was executed; DES ran in {:.3} s)",
        wall_seconds
    );
}
