//! # lumen-bench — experiment harness
//!
//! Shared scenario builders used by the experiment binaries (`src/bin/*`,
//! one per table/figure, study and ablation of the paper). Performance is
//! not recorded here: the repository's one measuring instrument is
//! `lumen-benchmark` under `benchmark/` (see `docs/PERFORMANCE.md`).

use lumen_core::engine::{Backend, Rayon, Scenario};
use lumen_core::{
    Detector, GridSpec, Simulation, SimulationOptions, SimulationResult, Source, Vec3,
};
use lumen_tissue::presets::{adult_head, homogeneous_white_matter, AdultHeadConfig};

/// The Fig 3 scenario: laser (delta) source into homogeneous white matter,
/// detector at `separation` mm, path grid at the paper's 50³ granularity.
pub fn fig3_scenario(separation: f64, granularity: usize) -> Simulation {
    let tissue = homogeneous_white_matter();
    let margin = separation; // grid covers a separation-wide margin each side
    let spec = GridSpec::cubic(
        granularity,
        Vec3::new(-margin, -margin, 0.0),
        Vec3::new(separation + margin, margin, separation * 1.5),
    );
    let options = SimulationOptions { path_grid: Some(spec), ..Default::default() };
    Simulation::new(tissue, Source::Delta, Detector::new(separation, separation * 0.15))
        .with_options(options)
}

/// The Fig 4 scenario: the Table 1 adult-head model with a 50³ path grid
/// covering all five layers down into the white matter.
pub fn fig4_scenario(separation: f64, granularity: usize) -> Simulation {
    let config = AdultHeadConfig::default();
    let tissue = adult_head(config);
    let depth = config.white_matter_depth() + 10.0;
    let margin = separation * 0.75;
    let spec = GridSpec::cubic(
        granularity,
        Vec3::new(-margin, -margin, 0.0),
        Vec3::new(separation + margin, margin, depth),
    );
    let options = SimulationOptions { path_grid: Some(spec), ..Default::default() };
    Simulation::new(tissue, Source::Delta, Detector::new(separation, separation * 0.15))
        .with_options(options)
}

/// The source-footprint scenario (S1): same medium/detector as Fig 3 but a
/// configurable source.
pub fn footprint_scenario(source: Source, separation: f64, granularity: usize) -> Simulation {
    let mut sim = fig3_scenario(separation, granularity);
    sim.source = source;
    sim
}

/// Run a simulation with the library's production backend (`engine::Rayon`
/// over a `Scenario` with the default 64-task split).
pub fn run_scenario(sim: &Simulation, photons: u64, seed: u64) -> SimulationResult {
    Rayon::default()
        .run(&Scenario::from_simulation(sim, photons, seed))
        .expect("valid scenario")
        .result
}

/// The same run as [`run_scenario`] but with an explicit task count —
/// what the experiment binaries use when they need the split itself.
pub fn run_scenario_tasks(
    sim: &Simulation,
    photons: u64,
    seed: u64,
    tasks: u64,
) -> SimulationResult {
    Rayon::default()
        .run(&Scenario::from_simulation(sim, photons, seed).with_tasks(tasks))
        .expect("valid scenario")
        .result
}

/// Format a separator-joined table row (the binaries print paper-style
/// tables to stdout).
pub fn row(cells: &[String]) -> String {
    cells.join(" | ")
}

/// Look up a named scenario — the out-of-band experiment agreement the
/// networked server and clients must share (the original platform shipped
/// Java bytecode instead). Names: `white_matter`, `adult_head`, `banana`.
pub fn scenario_by_name(name: &str) -> Option<Simulation> {
    match name {
        "white_matter" => Some(Simulation::new(
            lumen_tissue::presets::homogeneous_white_matter(),
            Source::Delta,
            Detector::new(6.0, 1.0),
        )),
        "adult_head" => Some(Simulation::new(
            adult_head(AdultHeadConfig::default()),
            Source::Delta,
            Detector::ring(30.0, 2.0),
        )),
        "banana" => Some(fig3_scenario(6.0, 50)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_validate() {
        assert!(fig3_scenario(6.0, 20).validate().is_ok());
        assert!(fig4_scenario(30.0, 20).validate().is_ok());
        assert!(footprint_scenario(Source::Gaussian { radius: 1.0 }, 6.0, 20).validate().is_ok());
    }

    #[test]
    fn fig3_grid_covers_source_and_detector() {
        let sim = fig3_scenario(6.0, 50);
        let spec = sim.options.path_grid.unwrap();
        assert!(spec.min.x < 0.0 && spec.max.x > 6.0);
        assert!(spec.index_of(Vec3::ZERO).is_some());
        assert!(spec.index_of(Vec3::new(6.0, 0.0, 0.5)).is_some());
    }

    #[test]
    fn fig4_grid_reaches_white_matter() {
        let sim = fig4_scenario(30.0, 50);
        let spec = sim.options.path_grid.unwrap();
        let wm_depth = AdultHeadConfig::default().white_matter_depth();
        assert!(spec.max.z > wm_depth);
    }

    #[test]
    fn quick_run_detects_photons() {
        let sim = fig3_scenario(3.0, 20);
        let res = run_scenario(&sim, 20_000, 1);
        assert!(res.tally.detected > 0);
        assert!(res.tally.path_grid.as_ref().unwrap().total() > 0.0);
    }
}
