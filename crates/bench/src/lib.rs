//! # lumen-bench — experiment harness
//!
//! The paper's tables, figures, studies and ablations are one table,
//! [`artefacts::ALL`], which the `artefact <name> [budget]` binary runs
//! and `tests/artefacts.rs` pins by digest. The scenario builders here are
//! shared with the `net_server`/`net_client` transport tools. Performance
//! is not recorded here: the repository's one measuring instrument is
//! `lumen-benchmark` under `benchmark/` (see `docs/PERFORMANCE.md`).

pub mod artefacts;

use lumen_core::{Detector, GridSpec, Simulation, SimulationOptions, Source, Vec3};
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
}
