//! Cross-crate consistency: every execution backend must agree on the
//! physics; failures must not change results; the DES must reproduce the
//! paper's scaling claims.

use lumen::cluster::{
    speedup_curve, AvailabilityModel, ClusterSim, FailurePlan, JobSpec, NetworkModel,
    ThreadedCluster,
};
use lumen::core::{Backend, Detector, EngineError, Rayon, Scenario, Sequential, Source};
use lumen::tissue::presets::{homogeneous_white_matter, semi_infinite_phantom};

fn scenario() -> Scenario {
    Scenario::new(
        semi_infinite_phantom(0.1, 10.0, 0.5, 1.4),
        Source::Delta,
        Detector::new(3.0, 1.0),
    )
    .with_photons(6_000)
    .with_tasks(12)
    .with_seed(77)
}

#[test]
fn backend_matrix_bit_identical() {
    // The backend-equivalence matrix: one fixed-seed scenario through
    // every physics-executing backend must give bit-identical tallies.
    let s = scenario();
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(Sequential),
        Box::new(Rayon::default()),
        Box::new(Rayon::with_threads(2)),
        Box::new(ThreadedCluster::new(3)),
        Box::new(ThreadedCluster::new(1)),
    ];
    let reference = backends[0].run(&s).expect("valid scenario");
    for backend in &backends[1..] {
        let report = backend.run(&s).expect("valid scenario");
        assert_eq!(
            reference.result.tally,
            report.result.tally,
            "backend `{}` disagrees with `sequential`",
            backend.name()
        );
    }
    assert_eq!(reference.launched(), 6_000);
}

#[test]
fn worker_count_does_not_change_results() {
    let s = scenario().with_photons(5_000).with_tasks(10).with_seed(9);
    let mk = |workers| ThreadedCluster::new(workers).run(&s).expect("valid scenario").result.tally;
    let one = mk(1);
    let four = mk(4);
    let eight = mk(8);
    assert_eq!(one, four);
    assert_eq!(four, eight);
}

#[test]
fn failures_change_nothing_but_requeue_counts() {
    // 32 tasks at 50%: P(zero failures) ~ 2e-10 — cannot flake.
    let s = scenario().with_photons(5_000).with_tasks(32).with_seed(4);
    let clean = ThreadedCluster::new(4).run(&s).expect("valid scenario");
    let faulty = ThreadedCluster::new(4)
        .with_failure_plan(FailurePlan::Random { rate: 0.5 })
        .run(&s)
        .expect("valid scenario");
    assert_eq!(clean.result.tally, faulty.result.tally);
    assert!(faulty.requeues > 0);
    assert_eq!(clean.requeues, 0);
}

#[test]
fn invalid_backend_configs_are_typed_errors() {
    let s = scenario();
    assert!(matches!(ThreadedCluster::new(0).run(&s), Err(EngineError::InvalidConfig(_))));
    assert!(matches!(
        ThreadedCluster::new(2).with_failure_plan(FailurePlan::Random { rate: 1.0 }).run(&s),
        Err(EngineError::InvalidConfig(_))
    ));
    assert!(matches!(Sequential.run(&s.with_tasks(0)), Err(EngineError::InvalidConfig(_))));
}

#[test]
fn des_reproduces_fig2_shape() {
    // Near-linear speedup, >95% efficiency at 60 homogeneous processors.
    let points = speedup_curve(
        &JobSpec::paper_job(),
        &[1, 20, 40, 60],
        NetworkModel::lan_2006(),
        AvailabilityModel::DEDICATED,
        1,
    )
    .expect("the paper's job on 1-60 machines is valid");
    assert!((points[0].speedup - 1.0).abs() < 1e-9);
    for w in points.windows(2) {
        assert!(w[1].speedup > w[0].speedup, "monotone speedup");
    }
    let last = points.last().unwrap();
    assert!(last.efficiency > 0.95, "efficiency at 60: {}", last.efficiency);
}

#[test]
fn des_reproduces_table2_two_hour_runtime() {
    let cluster = ClusterSim {
        pool: lumen::cluster::table2_pool(),
        network: NetworkModel::lan_2006(),
        availability: AvailabilityModel::semi_idle(),
        seed: 10,
    };
    let report = cluster.run(&JobSpec::paper_job()).expect("the Table 2 run is valid");
    let hours = report.makespan_s / 3600.0;
    assert!((1.0..4.0).contains(&hours), "expected ~2 h, got {hours:.2} h");
    // All 150 machines contributed.
    assert_eq!(report.machine_tasks.len(), 150);
    assert!(report.machine_tasks.iter().all(|&t| t > 0), "every client got work");
}

#[test]
fn executor_handles_white_matter_workload() {
    // End-to-end: real physics + real protocol + failures, via the
    // unified backend API.
    let s = Scenario::new(homogeneous_white_matter(), Source::Delta, Detector::new(5.0, 1.0))
        .with_photons(20_000)
        .with_tasks(16)
        .with_seed(2);
    let report = ThreadedCluster::new(4)
        .with_failure_plan(FailurePlan::Random { rate: 0.1 })
        .run(&s)
        .expect("valid scenario");
    assert_eq!(report.result.launched(), 20_000);
    let frac = report.result.tally.accounted_weight_fraction();
    assert!((frac - 1.0).abs() < 0.03, "energy accounted: {frac}");
    // Per-worker accounting covers the whole budget.
    let photons: u64 = report.workers.iter().map(|w| w.photons).sum();
    assert_eq!(photons, 20_000);
}
