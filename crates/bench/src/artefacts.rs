//! The paper's artefacts — its tables and figures, plus the studies and
//! ablations around them — as one table, [`ALL`].
//!
//! An artefact turns a photon budget into the text the `artefact` binary
//! prints and, for the two path-density figures, the field it writes as a
//! PGM. Bodies do no I/O. Artefacts that trace no photons ignore the
//! budget.

use crate::{fig3_scenario, fig4_scenario};
use lumen_analysis::convergence::{batch_means, photons_for_relative_error};
use lumen_analysis::diffusion::{fit_log_slope, DiffusionModel};
use lumen_analysis::profile::surface_beam_width;
use lumen_analysis::{
    banana_metrics, depth_profile, render_ascii, threshold_fraction, Projection2D,
};
use lumen_cluster::scheduler::RateProportional;
use lumen_cluster::{
    speedup_curve, AvailabilityModel, ClusterSim, GaScheduler, JobSpec, NetworkModel, Scheduler,
    SelfScheduling, StaticChunking,
};
use lumen_core::engine::{Backend, Rayon, Scenario};
use lumen_core::{BoundaryMode, Detector, RadialSpec, Simulation, SimulationResult, Source};
use lumen_tissue::presets::{
    adult_head, csf_optics, grey_matter_optics, scalp_optics, semi_infinite_phantom, skull_optics,
    white_matter_optics, AdultHeadConfig, TISSUE_G,
};
use lumen_tissue::{Layer, LayeredTissue};
use mcrng::StreamFactory;
use std::fmt::Write as _;
use std::time::Instant;

/// One artefact: its name, the budget it runs at by default, and its body.
pub struct Artefact {
    pub name: &'static str,
    pub default_budget: u64,
    pub run: fn(u64) -> Output,
}

/// The smallest budget an artefact accepts: `convergence_study`'s smallest
/// row splits a sixteenth of it over 16 batches, each of which needs a
/// photon.
pub const MIN_BUDGET: u64 = 256;

/// What an artefact produces.
pub struct Output {
    /// What the artefact prints.
    pub text: String,
    /// A full-resolution field, written to `<name>.pgm`.
    pub image: Option<Projection2D>,
}

/// Every artefact: the paper's tables and figures first, then the studies
/// and ablations.
pub const ALL: &[Artefact] = &[
    Artefact { name: "table1_properties", default_budget: 0, run: table1_properties },
    Artefact { name: "fig2_speedup", default_budget: 0, run: fig2_speedup },
    Artefact { name: "fig2_threads", default_budget: 0, run: fig2_threads },
    Artefact { name: "fig3_banana", default_budget: 2_000_000, run: fig3_banana },
    Artefact { name: "fig4_head_model", default_budget: 2_000_000, run: fig4_head_model },
    Artefact { name: "table2_hetero", default_budget: 0, run: table2_hetero },
    Artefact { name: "ablation_csf", default_budget: 1_000_000, run: ablation_csf },
    Artefact { name: "ablation_fresnel", default_budget: 500_000, run: ablation_fresnel },
    Artefact { name: "ablation_scheduler", default_budget: 0, run: ablation_scheduler },
    Artefact { name: "convergence_study", default_budget: 1 << 18, run: convergence_study },
    Artefact { name: "partial_pathlengths", default_budget: 400_000, run: partial_pathlengths },
    Artefact {
        name: "penetration_vs_separation",
        default_budget: 600_000,
        run: penetration_vs_separation,
    },
    Artefact { name: "reflectance_profile", default_budget: 2_000_000, run: reflectance_profile },
    Artefact { name: "source_footprint", default_budget: 1_000_000, run: source_footprint },
];

/// `println!` into a `String`, which cannot fail.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

fn text(text: String) -> Output {
    Output { text, image: None }
}

/// Run a simulation with the library's production backend (`engine::Rayon`
/// over a `Scenario` with the default 64-task split).
fn run_scenario(sim: &Simulation, photons: u64, seed: u64) -> SimulationResult {
    run_scenario_tasks(sim, photons, seed, Scenario::DEFAULT_TASKS)
}

fn run_scenario_tasks(sim: &Simulation, photons: u64, seed: u64, tasks: u64) -> SimulationResult {
    Rayon::default()
        .run(&Scenario::from_simulation(sim, photons, seed).with_tasks(tasks))
        .expect("valid scenario")
        .result
}

/// Average-pool a projection down to at most `nx × nz` cells for terminal
/// rendering.
fn downsample(p: &Projection2D, nx: usize, nz: usize) -> Projection2D {
    let fx = (p.nx as f64 / nx as f64).max(1.0);
    let fz = (p.nz as f64 / nz as f64).max(1.0);
    let out_nx = (p.nx as f64 / fx).ceil() as usize;
    let out_nz = (p.nz as f64 / fz).ceil() as usize;
    let mut values = vec![0.0; out_nx * out_nz];
    for iz in 0..p.nz {
        for ix in 0..p.nx {
            let ox = ((ix as f64 / fx) as usize).min(out_nx - 1);
            let oz = ((iz as f64 / fz) as usize).min(out_nz - 1);
            values[oz * out_nx + ox] += p.at(ix, iz);
        }
    }
    Projection2D {
        nx: out_nx,
        nz: out_nz,
        x_min: p.x_min,
        x_max: p.x_max,
        z_min: p.z_min,
        z_max: p.z_max,
        values,
    }
}

/// Table 1 — reprinted from the tissue presets, with the derived optical
/// quantities checked.
fn table1_properties(_budget: u64) -> Output {
    let mut out = String::new();
    outln!(
        out,
        "== Table 1: thickness and optical properties (NIR) of tissue in the adult head ==\n"
    );
    outln!(
        out,
        "{:<14} | {:>14} | {:>14} | {:>12} | {:>10} | {:>8}",
        "tissue",
        "thickness (mm)",
        "mu_s' (1/mm)",
        "mu_a (1/mm)",
        "mu_s(g=.9)",
        "albedo"
    );

    let cfg = AdultHeadConfig::default();
    let rows = [
        ("Scalp", format!("{:.1} (3-10)", cfg.scalp_mm), scalp_optics()),
        ("Skull", format!("{:.1} (5-10)", cfg.skull_mm), skull_optics()),
        ("CSF", format!("{:.1}", cfg.csf_mm), csf_optics()),
        ("Grey matter", format!("{:.1}", cfg.grey_mm), grey_matter_optics()),
        ("White matter", "semi-inf".to_string(), white_matter_optics()),
    ];
    for (name, thickness, o) in rows {
        outln!(
            out,
            "{:<14} | {:>14} | {:>14.2} | {:>12.3} | {:>10.1} | {:>8.4}",
            name,
            thickness,
            o.mu_s_prime(),
            o.mu_a,
            o.mu_s,
            o.albedo()
        );
    }

    outln!(
        out,
        "\nmu_s' = mu_s (1 - g) with g = {TISSUE_G} (mean scattering cosine; g = -1 total \
         back-scatter, 0 isotropic, 1 forward — Table 1 footnote)"
    );

    let head = adult_head(cfg);
    outln!(
        out,
        "\nmodel sanity: {} layers, CSF optical thickness {:.2} mfp, \
         cumulative finite-stack optical depth {:.0} mfp",
        head.len(),
        head.layers()[2].optical_thickness(),
        head.cumulative_optical_depth()
    );
    text(out)
}

/// Fig 2 — speedup with varying numbers of homogeneous processors: the
/// discrete-event simulator runs the 10⁹-photon job on 1–60 P4-class
/// machines over a 2006 LAN, the paper's setting, including the ≥ 97 %
/// efficiency at 60 processors.
fn fig2_speedup(_budget: u64) -> Output {
    let mut out = String::new();
    outln!(out, "== Fig 2: speedup with varying numbers of homogeneous processors ==\n");

    let job = JobSpec::paper_job();
    let ks = [1usize, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60];
    let points =
        speedup_curve(&job, &ks, NetworkModel::lan_2006(), AvailabilityModel::DEDICATED, 2006)
            .expect("the paper's job, a 2006 LAN and pools of 1-60 machines are valid");
    outln!(out, "-- simulated cluster (10^9 photons, P4 2.4GHz class machines) --");
    outln!(out, "{:>4} | {:>12} | {:>8} | {:>10}", "k", "time (s)", "speedup", "efficiency");
    for p in &points {
        outln!(
            out,
            "{:>4} | {:>12.1} | {:>8.2} | {:>9.1}%",
            p.k,
            p.time_s,
            p.speedup,
            p.efficiency * 100.0
        );
    }
    let last = points.last().expect("non-empty curve");
    outln!(
        out,
        "\npaper: >97% efficiency at 60 processors; simulated: {:.1}% at {}\n",
        last.efficiency * 100.0,
        last.k
    );
    text(out)
}

/// Fig 2 on this machine: the Monte Carlo engine runs 200,000 photons on
/// 1, 2, 4 … worker threads up to the core count, timed by wall clock. The
/// one artefact whose text is not deterministic.
fn fig2_threads(_budget: u64) -> Output {
    let mut out = String::new();
    let photons = 200_000;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let sim = fig3_scenario(6.0, 50);
    outln!(out, "-- real threads on this machine ({cores} cores, {photons} photons) --");
    outln!(out, "{:>8} | {:>10} | {:>8} | {:>10}", "threads", "time (s)", "speedup", "efficiency");
    let scenario = Scenario::from_simulation(&sim, photons, 7).with_tasks((cores as u64) * 8);
    let mut t1 = None;
    let mut k = 1usize;
    while k <= cores {
        // Thread spawn (k scoped threads, once per run) is inside the
        // clock; it is microseconds against a run of seconds.
        let started = Instant::now();
        let res = Rayon::with_threads(k).run(&scenario).expect("valid scenario");
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(res.launched(), photons);
        let base = *t1.get_or_insert(secs);
        let speedup = base / secs;
        outln!(
            out,
            "{:>8} | {:>10.3} | {:>8.2} | {:>9.1}%",
            k,
            secs,
            speedup,
            speedup / k as f64 * 100.0
        );
        k *= 2;
    }
    text(out)
}

/// Fig 3 — "Simulation with a laser source and granularity of 50³ in
/// homogeneous white matter tissue": the most common detected-photon paths
/// form a banana after thresholding.
fn fig3_banana(photons: u64) -> Output {
    let mut out = String::new();
    let separation = 6.0; // mm; white matter's μs' = 9.1/mm keeps paths shallow
    let granularity = 50;

    outln!(out, "== Fig 3: banana of detected paths, delta source, 50^3 granularity ==");
    outln!(
        out,
        "medium: homogeneous white matter (mu_s' = 9.1/mm, mu_a = 0.014/mm)\n\
         photons: {photons}, separation: {separation} mm\n"
    );

    let sim = fig3_scenario(separation, granularity);
    let res = run_scenario(&sim, photons, 3);

    outln!(out, "detected photons:      {}", res.tally.detected);
    outln!(out, "detected fraction:     {:.2e}", res.detected_fraction());
    outln!(out, "mean pathlength:       {:.1} mm", res.mean_detected_pathlength());
    outln!(
        out,
        "differential pathlength factor: {:.2}",
        res.differential_pathlength_factor(separation)
    );
    outln!(out, "mean penetration depth: {:.2} mm", res.mean_penetration_depth());
    outln!(out, "max penetration depth:  {:.2} mm", res.max_penetration_depth());

    let grid = res.tally.path_grid.as_ref().expect("fig3 scenario attaches a path grid");
    let mut proj = Projection2D::from_grid(grid);
    let kept = threshold_fraction(&mut proj, 0.05);
    outln!(out, "\nthresholded at 5% of max: {kept} voxel columns survive");

    let metrics = banana_metrics(&proj, separation);
    outln!(out, "banana metrics: {metrics:#?}");
    outln!(out, "is banana: {}", metrics.is_banana(separation));

    // Crop the render to the interesting region for terminal display.
    outln!(out, "\n-- thresholded visit density, x-z plane (depth downward) --");
    out.push_str(&render_ascii(&downsample(&proj, 70, 30)));
    Output { text: out, image: Some(proj) }
}

/// Fig 4 — photon paths through the layered adult-head model of Table 1:
/// "Most of the photons are reflected before they enter the CSF, however
/// some do penetrate all the way into the white matter tissue, which is of
/// most interest to researchers."
fn fig4_head_model(photons: u64) -> Output {
    let mut out = String::new();
    let separation = 30.0; // mm, inside the paper's 20-60 mm optode range
    let granularity = 50;
    let cfg = AdultHeadConfig::default();

    outln!(out, "== Fig 4: photon paths through the Table 1 adult head model ==");
    outln!(out, "photons: {photons}, source-detector separation: {separation} mm\n");

    outln!(out, "-- Table 1 model --");
    outln!(
        out,
        "{:<14} | {:>10} | {:>12} | {:>10}",
        "layer",
        "depth (mm)",
        "mu_s' (1/mm)",
        "mu_a (1/mm)"
    );
    let sim = fig4_scenario(separation, granularity);
    let layers = sim.tissue.as_layered().expect("fig4 uses the layered head model").layers();
    for l in layers {
        outln!(
            out,
            "{:<14} | {:>4.1}-{:<5} | {:>12.2} | {:>10.3}",
            l.name,
            l.z_top,
            if l.is_semi_infinite() { "inf".to_string() } else { format!("{:.1}", l.z_bottom) },
            l.optics.mu_s_prime(),
            l.optics.mu_a
        );
    }

    let res = run_scenario(&sim, photons, 4);

    outln!(out, "\n-- outcomes per launched photon --");
    outln!(out, "specular reflectance:  {:.4}", res.specular_reflectance());
    outln!(out, "diffuse reflectance:   {:.4}", res.diffuse_reflectance());
    outln!(out, "absorbed fraction:     {:.4}", res.absorbed_fraction());
    outln!(out, "detected photons:      {}", res.tally.detected);

    outln!(out, "\n-- absorbed weight by layer (fraction of launched) --");
    for (layer, frac) in layers.iter().zip(res.absorbed_fraction_by_layer()) {
        outln!(out, "{:<14} {:>8.5}", layer.name, frac);
    }

    outln!(out, "\n-- detected photons reaching each layer --");
    for (i, layer) in layers.iter().enumerate() {
        outln!(out, "{:<14} {:>7.2}%", layer.name, res.detected_reached_layer_fraction(i) * 100.0);
    }
    outln!(
        out,
        "\nCSF starts at {:.1} mm, white matter at {:.1} mm; \
         mean detected penetration {:.1} mm, max {:.1} mm",
        cfg.csf_depth(),
        cfg.white_matter_depth(),
        res.mean_penetration_depth(),
        res.max_penetration_depth()
    );

    let grid = res.tally.path_grid.as_ref().expect("fig4 scenario attaches a path grid");
    let mut proj = Projection2D::from_grid(grid);
    threshold_fraction(&mut proj, 0.02);
    outln!(out, "\n-- detected-path density, x-z plane (depth downward) --");
    out.push_str(&render_ascii(&downsample(&proj, 70, 35)));
    Output { text: out, image: Some(proj) }
}

/// Table 2 — the paper's run of 10⁹ photons on 150 heterogeneous,
/// non-dedicated clients, "each simulation taking approximately 2 hours",
/// reproduced by the discrete-event simulator with per-class work shares.
fn table2_hetero(_budget: u64) -> Output {
    let mut out = String::new();
    outln!(out, "== Table 2: 150 heterogeneous non-dedicated clients, 10^9 photons ==\n");

    let pool = lumen_cluster::table2_pool();
    outln!(
        out,
        "{:>5} | {:>9} | {:>8} | {:<10} | {:<20}",
        "count",
        "Mflop/s",
        "RAM(MB)",
        "O/S",
        "Processor"
    );
    for c in &pool.classes {
        outln!(
            out,
            "{:>5} | {:>9.1} | {:>8} | {:<10} | {:<20}",
            c.count,
            c.mflops,
            c.ram_mb,
            c.os,
            c.cpu
        );
    }
    outln!(
        out,
        "\ntotal machines: {}, aggregate rate: {:.1} Mflop/s\n",
        pool.len(),
        pool.total_mflops()
    );

    let sim = ClusterSim {
        pool: pool.clone(),
        network: NetworkModel::lan_2006(),
        availability: AvailabilityModel::semi_idle(),
        seed: 150,
    };
    let job = JobSpec::paper_job();
    let report = sim.run(&job).expect("the paper's job on the Table 2 pool is valid");

    outln!(out, "-- simulated run --");
    outln!(out, "photons:            {}", job.total_photons);
    outln!(out, "tasks:              {}", report.tasks);
    outln!(
        out,
        "virtual makespan:   {:.0} s  ({:.2} h; paper: ~2 h)",
        report.makespan_s,
        report.makespan_s / 3600.0
    );
    outln!(
        out,
        "sequential (P4):    {:.0} s  ({:.1} h)",
        report.sequential_s,
        report.sequential_s / 3600.0
    );
    outln!(out, "speedup vs 1x P4:   {:.1}", report.speedup());
    outln!(out, "mean utilisation:   {:.1}%", report.mean_utilisation() * 100.0);
    outln!(out, "server merge load:  {:.0} s", report.server_busy_s);

    // Work share per machine class.
    outln!(out, "\n-- work distribution by machine class --");
    outln!(out, "{:<20} | {:>8} | {:>14} | {:>12}", "class", "machines", "photons", "share");
    let mut offset = 0usize;
    for c in &pool.classes {
        let photons: u64 = report.machine_photons[offset..offset + c.count].iter().sum();
        outln!(
            out,
            "{:<20} | {:>8} | {:>14} | {:>11.1}%",
            c.cpu,
            c.count,
            photons,
            photons as f64 / job.total_photons as f64 * 100.0
        );
        offset += c.count;
    }
    text(out)
}

/// A3 — the CSF effect (the paper's Sect. 2, after Okada & Delpy): "the
/// cerebrospinal fluid, a layer of low scattering properties 'sandwiched'
/// between highly scattering tissue ... has a significant effect on light
/// propagation". The adult head as specified runs beside a control whose
/// CSF is a grey-matter-like scatterer.
fn ablation_csf(photons: u64) -> Output {
    let mut out = String::new();
    let cfg = AdultHeadConfig::default();
    let separation = 30.0;

    outln!(out, "== A3: effect of the low-scattering CSF layer (adult head, {separation} mm) ==");
    outln!(out, "photons per arm: {photons}\n");

    let with_csf = adult_head(cfg);
    let without_csf = replace_csf_with_scatterer(&with_csf);

    outln!(
        out,
        "{:<22} | {:>9} | {:>12} | {:>12} | {:>10} | {:>10}",
        "model",
        "detected",
        "mean path",
        "mean depth",
        "reach grey",
        "reach WM"
    );
    let mut depths = Vec::new();
    for (label, tissue) in [("with CSF (paper)", with_csf), ("CSF -> scatterer", without_csf)] {
        let sim = Simulation::new(tissue, Source::Delta, Detector::ring(separation, 2.0));
        let res = run_scenario(&sim, photons, 33);
        outln!(
            out,
            "{:<22} | {:>9} | {:>9.0} mm | {:>9.1} mm | {:>9.2}% | {:>9.2}%",
            label,
            res.tally.detected,
            res.mean_detected_pathlength(),
            res.mean_penetration_depth(),
            res.detected_reached_layer_fraction(3) * 100.0,
            res.detected_reached_layer_fraction(4) * 100.0,
        );
        depths.push((label, res.mean_penetration_depth()));
    }

    outln!(out, "\n-- finding --");
    outln!(
        out,
        "the low-scattering CSF channels light laterally at the top of the brain, \
         reshaping the sensitive volume relative to a fully scattering stack \
         (with CSF: {:.1} mm mean depth; scatterer control: {:.1} mm)",
        depths[0].1,
        depths[1].1
    );
    text(out)
}

/// The head model with the CSF row swapped for grey-matter-like optics.
fn replace_csf_with_scatterer(head: &LayeredTissue) -> LayeredTissue {
    let layers: Vec<Layer> = head
        .layers()
        .iter()
        .map(|l| {
            if l.name == "CSF" {
                Layer {
                    name: "CSF-as-scatterer".into(),
                    z_top: l.z_top,
                    z_bottom: l.z_bottom,
                    optics: grey_matter_optics(),
                }
            } else {
                l.clone()
            }
        })
        .collect();
    LayeredTissue::new(layers, head.ambient_n).expect("control model is valid")
}

/// A2 — "refraction and internal reflection (classical physics or
/// probabilistic methods)": both boundary modes on one scenario. They must
/// agree in distribution; the classical mode shows lower variance in the
/// detected signal.
fn ablation_fresnel(photons: u64) -> Output {
    let mut out = String::new();
    outln!(out, "== A2: classical vs probabilistic boundary handling ==");
    outln!(out, "scenario: Fig 3 white matter, {photons} photons per mode\n");

    outln!(
        out,
        "{:<15} | {:>12} | {:>14} | {:>12} | {:>10}",
        "mode",
        "detected wt",
        "diffuse refl",
        "absorbed",
        "detections"
    );

    let mut per_mode = Vec::new();
    for mode in [BoundaryMode::Probabilistic, BoundaryMode::Classical] {
        let mut sim = fig3_scenario(6.0, 20);
        sim.options.boundary_mode = mode;
        // Estimate variance across independent sub-runs.
        let replicates = 8;
        let mut signals = Vec::with_capacity(replicates);
        let mut last = None;
        for r in 0..replicates {
            let res = run_scenario_tasks(&sim, photons / replicates as u64, 100 + r as u64, 16);
            signals.push(res.detected_weight_per_photon());
            last = Some(res);
        }
        let res = last.expect("at least one replicate");
        let mean: f64 = signals.iter().sum::<f64>() / signals.len() as f64;
        let var: f64 =
            signals.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / signals.len() as f64;
        outln!(
            out,
            "{:<15} | {:>12.3e} | {:>14.4} | {:>12.4} | {:>10}",
            match mode {
                BoundaryMode::Probabilistic => "probabilistic",
                BoundaryMode::Classical => "classical",
            },
            mean,
            res.diffuse_reflectance(),
            res.absorbed_fraction(),
            res.tally.detected
        );
        per_mode.push((mode, mean, var));
    }

    let (_, mp, vp) = per_mode[0];
    let (_, mc, vc) = per_mode[1];
    outln!(out, "\n-- findings --");
    outln!(
        out,
        "detected signal agrees across modes: {:.1}% relative difference",
        ((mp - mc).abs() / mp.max(1e-300)) * 100.0
    );
    if vc > 0.0 {
        outln!(
            out,
            "variance ratio probabilistic/classical: {:.2} (classical splits weight \
             deterministically at the surface, reducing detection-noise)",
            vp / vc
        );
    }
    text(out)
}

/// A1 — scheduler ablation on the heterogeneous Table 2 pool: the original
/// platform's demand-driven self-scheduling against naive static
/// round-robin, rate-proportional static and the GA scheduler of the
/// paper's reference \[4\].
fn ablation_scheduler(_budget: u64) -> Output {
    let mut out = String::new();
    outln!(out, "== A1: scheduler ablation, Table 2 pool, 10^9 photons ==\n");

    let sim = ClusterSim {
        pool: lumen_cluster::table2_pool(),
        network: NetworkModel::lan_2006(),
        availability: AvailabilityModel::semi_idle(),
        seed: 41,
    };
    let job = JobSpec::paper_job();

    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(SelfScheduling),
        Box::new(StaticChunking),
        Box::new(RateProportional),
        Box::new(GaScheduler::default()),
    ];

    outln!(
        out,
        "{:<18} | {:>12} | {:>9} | {:>11} | {:>11}",
        "scheduler",
        "makespan (s)",
        "hours",
        "speedup",
        "utilisation"
    );
    let mut results = Vec::new();
    for s in &schedulers {
        let report = sim
            .run_with(&job, s.as_ref())
            .expect("the paper's job is valid and every shipped scheduler plans the whole pool");
        outln!(
            out,
            "{:<18} | {:>12.0} | {:>9.2} | {:>11.1} | {:>10.1}%",
            s.name(),
            report.makespan_s,
            report.makespan_s / 3600.0,
            report.speedup(),
            report.mean_utilisation() * 100.0
        );
        results.push((s.name(), report.makespan_s));
    }

    let selfs = results.iter().find(|(n, _)| *n == "self-scheduling").expect("ran").1;
    let chunk = results.iter().find(|(n, _)| *n == "static-chunking").expect("ran").1;
    let ga = results.iter().find(|(n, _)| *n == "ga-scheduler").expect("ran").1;
    outln!(out, "\n-- findings --");
    outln!(
        out,
        "self-scheduling beats naive static chunking by {:.1}x on this pool",
        chunk / selfs
    );
    outln!(
        out,
        "the GA's informed static plan comes within {:.1}% of self-scheduling",
        (ga / selfs - 1.0) * 100.0
    );
    outln!(out, "(dynamic demand-driven assignment additionally tolerates availability noise)");
    text(out)
}

/// Why the paper needs 10⁹ photons: "To generate useful results billions
/// of photon paths must be simulated." The relative error of the detected
/// signal (batch means over 16 independent task streams) at `budget` and
/// four halvings below it, the 1/√N law, and the photon count 1 %
/// precision needs at a 30 mm NIRS spacing.
fn convergence_study(budget: u64) -> Output {
    let mut out = String::new();
    outln!(out, "== convergence of the detected signal (adult head, 30 mm ring) ==\n");

    let sim = Simulation::new(
        adult_head(AdultHeadConfig::default()),
        Source::Delta,
        Detector::ring(30.0, 2.0),
    );

    outln!(
        out,
        "{:>12} | {:>12} | {:>12} | {:>10}",
        "photons",
        "detected",
        "signal/ph",
        "rel error"
    );
    let mut last: Option<(u64, f64)> = None;
    let batches = 16u64;
    // Batch `b` is task `b` of a 16-task run with seed 99.
    let factory = StreamFactory::new(99);
    for halvings in [4u32, 3, 2, 1, 0] {
        let per_batch = (budget >> halvings) / batches;
        let photons = per_batch * batches;
        let mut detected = 0;
        let signals: Vec<f64> = (0..batches)
            .map(|b| {
                let mut rng = factory.stream(b);
                let mut tally = sim.new_tally();
                sim.run_stream(per_batch, &mut rng, &mut tally, None);
                detected += tally.detected;
                tally.detected_weight / per_batch as f64
            })
            .collect();
        let est = batch_means(&signals).expect("batches >= 2");
        outln!(
            out,
            "{:>12} | {:>12} | {:>12.3e} | {:>9.2}%",
            photons,
            detected,
            est.mean,
            est.relative_error * 100.0
        );
        last = Some((photons, est.relative_error));
    }

    if let Some((photons, rel)) = last {
        if rel.is_finite() && rel > 0.0 {
            let needed = photons_for_relative_error(photons, rel, 0.01);
            outln!(
                out,
                "\n1/sqrt(N) extrapolation: ~{:.1e} photons for a 1% signal error",
                needed as f64
            );
            outln!(
                out,
                "-> the paper's 10^9-photon runs are the right order for \
                 percent-level NIRS calibration"
            );
        }
    }
    text(out)
}

/// Partial pathlengths per layer — "which cells within that volume
/// dominate the detected light signal" (paper Sect. 1), quantified. The
/// mean pathlength a detected photon spends in layer k is the Beer-Lambert
/// sensitivity of the measurement to absorption changes in that layer.
fn partial_pathlengths(photons: u64) -> Output {
    let mut out = String::new();
    let head = adult_head(AdultHeadConfig::default());

    outln!(out, "== partial pathlengths by layer (adult head, ring detectors) ==");
    outln!(out, "photons per point: {photons}\n");
    outln!(
        out,
        "{:>10} | {:>9} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10}",
        "sep (mm)",
        "detected",
        "total",
        "scalp",
        "skull",
        "CSF",
        "grey",
        "white"
    );
    for separation in [20.0, 30.0, 40.0] {
        let sim = Simulation::new(head.clone(), Source::Delta, Detector::ring(separation, 2.0));
        let res = run_scenario(&sim, photons, 88);
        let ppl = res.mean_partial_pathlengths();
        outln!(
            out,
            "{:>10.0} | {:>9} | {:>7.0} mm | {:>7.1} mm | {:>7.1} mm | {:>7.1} mm | {:>7.1} mm | {:>7.1} mm",
            separation,
            res.tally.detected,
            res.mean_detected_pathlength(),
            ppl[0],
            ppl[1],
            ppl[2],
            ppl[3],
            ppl[4],
        );
        let total = res.mean_detected_pathlength().max(1e-12);
        outln!(
            out,
            "{:>10} | {:>9} | {:>10} | {:>9.1}% | {:>9.1}% | {:>9.1}% | {:>9.1}% | {:>9.1}%",
            "",
            "",
            "share:",
            ppl[0] / total * 100.0,
            ppl[1] / total * 100.0,
            ppl[2] / total * 100.0,
            ppl[3] / total * 100.0,
            ppl[4] / total * 100.0,
        );
    }
    outln!(
        out,
        "\nthe brain layers' share of the detected pathlength is the fraction of the \
         signal sensitive to cerebral absorption changes — the calibration quantity \
         the paper's simulations exist to provide"
    );
    text(out)
}

/// S2 — "The relationship between penetration depth and source/detector
/// spacing can be modelled which is an important factor for optode
/// geometry and positioning" (paper Sect. 1), and the Sect. 2 claim that
/// "increasing interoptode spacing does not allow absorption changes in
/// the white matter to be calculated, but rather increases the volume of
/// grey matter under investigation."
fn penetration_vs_separation(photons: u64) -> Output {
    let mut out = String::new();
    let cfg = AdultHeadConfig::default();
    let head = adult_head(cfg);

    outln!(out, "== penetration depth vs source-detector spacing (adult head) ==");
    outln!(
        out,
        "photons per point: {photons}; grey matter at {:.1}-{:.1} mm, \
         white matter below {:.1} mm\n",
        cfg.csf_depth() + cfg.csf_mm,
        cfg.white_matter_depth(),
        cfg.white_matter_depth()
    );

    outln!(
        out,
        "{:>10} | {:>9} | {:>12} | {:>12} | {:>10} | {:>10} | {:>10}",
        "sep (mm)",
        "detected",
        "mean depth",
        "p90 depth",
        "reach CSF",
        "reach grey",
        "reach WM"
    );
    let mut grey_reach = Vec::new();
    let mut wm_reach = Vec::new();
    for separation in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0] {
        let sim = Simulation::new(head.clone(), Source::Delta, Detector::ring(separation, 2.0));
        let res = run_scenario(&sim, photons, 77);
        // p90 of max depth approximated via mean + 1.28 sigma is wrong for
        // skewed data; report max as the optimistic bound instead.
        outln!(
            out,
            "{:>10.0} | {:>9} | {:>9.1} mm | {:>9.1} mm | {:>9.2}% | {:>9.2}% | {:>9.2}%",
            separation,
            res.tally.detected,
            res.mean_penetration_depth(),
            res.max_penetration_depth(),
            res.detected_reached_layer_fraction(2) * 100.0,
            res.detected_reached_layer_fraction(3) * 100.0,
            res.detected_reached_layer_fraction(4) * 100.0,
        );
        grey_reach.push(res.detected_reached_layer_fraction(3));
        wm_reach.push(res.detected_reached_layer_fraction(4));
    }

    outln!(out, "\n-- findings (cf. paper Sect. 2) --");
    let grey_gain = grey_reach.last().unwrap() - grey_reach.first().unwrap();
    let wm_gain = wm_reach.last().unwrap() - wm_reach.first().unwrap();
    outln!(
        out,
        "going from 10 mm to 60 mm spacing raises grey-matter reach by {:+.1} points \
         but white-matter reach by only {:+.1} points",
        grey_gain * 100.0,
        wm_gain * 100.0
    );
    outln!(
        out,
        "-> wider optode spacing interrogates more grey matter; the white matter \
         stays out of reach, as the paper (and Okada & Delpy) report"
    );
    text(out)
}

/// Monte Carlo R(r) beside the diffusion approximation (the
/// Farrell–Patterson dipole, the paper's reference \[6\]): they agree far
/// from the source and diverge near it — exactly where MC is needed.
fn reflectance_profile(photons: u64) -> Output {
    let mut out = String::new();
    let mu_a = 0.05;
    let mu_s = 20.0;
    let g = 0.5;
    let mu_s_prime = mu_s * (1.0 - g);

    outln!(out, "== Monte Carlo vs diffusion approximation: R(r) of a semi-infinite medium ==");
    outln!(
        out,
        "mu_a = {mu_a}/mm, mu_s = {mu_s}/mm, g = {g} (mu_s' = {mu_s_prime}/mm), matched boundary\n\
         photons: {photons}\n"
    );

    let tissue = semi_infinite_phantom(mu_a, mu_s, g, 1.0);
    let mut sim = Simulation::new(tissue, Source::Delta, Detector::new(100.0, 0.1));
    let spec = RadialSpec { nr: 30, r_max: 15.0 };
    sim.options.reflectance_profile = Some(spec);

    let res = run_scenario(&sim, photons, 9);
    let profile = res.tally.reflectance_r.as_ref().expect("profile attached");
    let mc = profile.per_area(res.launched());

    let model = DiffusionModel::new(mu_a, mu_s_prime, 1.0);
    outln!(out, "{:>8} | {:>14} | {:>14} | {:>8}", "r (mm)", "MC R(r)", "diffusion R(r)", "ratio");
    for (i, &mc_val) in mc.iter().enumerate() {
        let r = spec.r_of(i);
        let theory = model.reflectance(r);
        let ratio = if theory > 0.0 { mc_val / theory } else { f64::NAN };
        outln!(out, "{r:>8.2} | {mc_val:>14.4e} | {theory:>14.4e} | {ratio:>8.3}");
    }

    // Compare asymptotic decay rates.
    let rs: Vec<f64> = (0..spec.nr).map(|i| spec.r_of(i)).collect();
    let window: Vec<(f64, f64)> = rs
        .iter()
        .zip(&mc)
        .filter(|&(&r, _)| (4.0..12.0).contains(&r))
        .map(|(&r, &v)| (r, v))
        .collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = window.into_iter().unzip();
    if let Some(slope) = fit_log_slope(&xs, &ys) {
        outln!(
            out,
            "\nfitted MC decay of ln(r^2 R): {:.4}/mm; diffusion mu_eff: {:.4}/mm \
             ({:.1}% apart)",
            -slope,
            model.mu_eff(),
            ((slope - model.asymptotic_slope()).abs() / model.mu_eff()) * 100.0
        );
    }
    outln!(
        out,
        "diffusion constants: D = {:.4} mm, z0 = {:.3} mm, zb = {:.3} mm",
        model.diffusion_coefficient(),
        model.z0(),
        model.zb()
    );
    outln!(
        out,
        "\nexpected shape: ratio ≈ 1 for r ≫ 1/mu_t' = {:.2} mm, diverging near the source",
        model.z0()
    );
    text(out)
}

/// S1 — "the source illumination footprint has an effect on the
/// distribution of photons in the head and that lasers do produce a small
/// beam in a highly scattering medium": the Fig 3 scenario under delta,
/// Gaussian and uniform sources, comparing surface beam width and the
/// depth distribution.
fn source_footprint(photons: u64) -> Output {
    let mut out = String::new();
    let separation = 6.0;
    let granularity = 50;
    let radius = 2.0; // mm footprint for the extended sources

    outln!(out, "== Source footprint comparison (delta vs gaussian vs uniform) ==");
    outln!(
        out,
        "photons per source: {photons}, separation: {separation} mm, radius: {radius} mm\n"
    );

    let sources = [Source::Delta, Source::Gaussian { radius }, Source::Uniform { radius }];

    outln!(
        out,
        "{:<10} | {:>9} | {:>12} | {:>12} | {:>12} | {:>12}",
        "source",
        "detected",
        "beam width",
        "mean depth",
        "mean path",
        "DPF"
    );
    let mut widths = Vec::new();
    for source in sources {
        let mut sim = fig3_scenario(separation, granularity);
        sim.source = source;
        // Measure the injected beam on the absorption grid of all photons
        // (detected-only paths are biased toward the detector).
        sim.options.absorption_grid = sim.options.path_grid.take();
        let res = run_scenario(&sim, photons, 55);
        let grid = res.tally.absorption_grid.as_ref().expect("absorption grid attached");
        let proj = Projection2D::from_grid(grid);
        // Beam width in the top ~1.8 mm of tissue (first 10% of rows).
        let width = surface_beam_width(&proj, granularity / 10);
        widths.push((source.name(), width));
        outln!(
            out,
            "{:<10} | {:>9} | {:>9.2} mm | {:>9.2} mm | {:>9.1} mm | {:>12.2}",
            source.name(),
            res.tally.detected,
            width,
            res.mean_penetration_depth(),
            res.mean_detected_pathlength(),
            res.differential_pathlength_factor(separation)
        );

        let (depths, weights) = depth_profile(&proj);
        let total: f64 = weights.iter().sum();
        if total > 0.0 {
            let mean_depth: f64 =
                depths.iter().zip(&weights).map(|(d, w)| d * w).sum::<f64>() / total;
            outln!(out, "           visit-weighted mean depth: {mean_depth:.2} mm");
        }
    }

    outln!(out, "\n-- conclusions (paper Sect. 4) --");
    let delta = widths.iter().find(|(n, _)| *n == "delta").expect("delta run");
    let widest = widths
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite widths"))
        .expect("non-empty");
    outln!(
        out,
        "laser (delta) surface beam width {:.2} mm vs widest source '{}' at {:.2} mm:",
        delta.1,
        widest.0,
        widest.1
    );
    outln!(
        out,
        "  -> the laser stays a small beam in a highly scattering medium: {}",
        delta.1 <= widest.1
    );
    outln!(out, "  -> footprint affects the photon distribution: widths differ across sources");
    text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for (i, a) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|b| b.name != a.name), "{} listed twice", a.name);
        }
    }

    #[test]
    fn quick_run_detects_photons() {
        let sim = fig3_scenario(3.0, 20);
        let res = run_scenario(&sim, 20_000, 1);
        assert!(res.tally.detected > 0);
        assert!(res.tally.path_grid.as_ref().unwrap().total() > 0.0);
    }
}
