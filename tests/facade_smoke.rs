//! Smoke test of the `lumen` facade: every re-export resolves, and a tiny
//! end-to-end simulation runs deterministically through each execution
//! backend (sequential, rayon-parallel, threaded master/worker).

use lumen::core::{Backend, Detector, Rayon, Scenario, Sequential, Source};
use lumen::tissue::presets::semi_infinite_phantom;

/// One place that names something from every re-exported crate, so a
/// facade regression is a compile error here.
#[test]
fn facade_reexports_resolve() {
    let _rng: lumen::mcrng::Xoshiro256PlusPlus = lumen::mcrng::StreamFactory::new(1).stream(0);
    let _v = lumen::photon::Vec3::new(0.0, 0.0, 1.0);
    let _props = lumen::photon::OpticalProperties::new(0.1, 10.0, 0.9, 1.4);
    let _tissue: lumen::tissue::LayeredTissue = semi_infinite_phantom(0.1, 10.0, 0.0, 1.0);
    let _hist = lumen::analysis::Histogram::new(0.0, 1.0, 10);
    let _backend: lumen::core::Rayon = Rayon::default();
    let _cluster = lumen::cluster::ThreadedCluster::new(2);
    let _plan = lumen::cluster::FailurePlan::Reliable;
    let _err: Option<lumen::core::EngineError> = None;
    let _task = lumen::cluster::protocol::SimTask { task_id: 7, photons: 2 };
}

fn tiny_scenario() -> Scenario {
    Scenario::new(
        semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
        Source::Delta,
        Detector::new(2.0, 0.5),
    )
    .with_photons(2_000)
    .with_tasks(8)
    .with_seed(42)
}

#[test]
fn fixed_seed_is_deterministic() {
    let s = tiny_scenario();
    let a = Sequential.run(&s).expect("valid scenario");
    let b = Sequential.run(&s).expect("valid scenario");
    assert_eq!(a.result.tally, b.result.tally);
    assert_eq!(a.launched(), 2_000);
    assert!(a.diffuse_reflectance() > 0.0, "scattering half-space must reflect");
}

#[test]
fn execution_backends_agree_bit_for_bit() {
    let s = tiny_scenario().with_photons(4_000).with_seed(11);
    let par = Rayon::default().run(&s).expect("valid scenario");
    let dist = lumen::cluster::ThreadedCluster::new(3).run(&s).expect("valid scenario");
    assert_eq!(par.result.tally, dist.result.tally);
}

/// The building blocks the backends are made of are public and compose by
/// hand: one `DataManager`, `run_task` per assignment, results in any
/// order — the engine's tally, bit for bit.
#[test]
fn run_task_through_a_datamanager_matches_the_engine() {
    use lumen::cluster::DataManager;
    use lumen::core::engine::run_task;
    let s = tiny_scenario().with_photons(4_000).with_seed(11);
    let sim = s.simulation();
    let factory = lumen::mcrng::StreamFactory::new(s.seed);
    let mut dm = DataManager::new(s.photons, s.tasks, sim.new_tally(), 1);
    let mut tasks = Vec::new();
    while let Some(task) = dm.assign() {
        tasks.push(task);
    }
    for task in tasks.into_iter().rev() {
        let tally = run_task(&sim, &factory, task.task_id, task.photons, None);
        assert!(dm.complete(0, task, &tally));
    }
    let (tally, workers, requeues) = dm.into_results();
    assert_eq!((workers[0].photons, workers[0].tasks_completed, requeues), (4_000, 8, 0));
    let engine = Rayon::default().run(&s).expect("valid scenario");
    assert_eq!(tally, engine.result.tally);
}
