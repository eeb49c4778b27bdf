//! The backend-equivalence matrix, kept in the fast test loop
//! (`cargo test --workspace --exclude lumen`): one fixed-seed scenario
//! executed by every physics-running backend must produce bit-identical
//! tallies — the paper's "same results on one core or a cluster" claim,
//! asserted at the bit level, small enough to run in seconds.

use lumen_cluster::{FailurePlan, Tcp, ThreadedCluster};
use lumen_core::engine::{Backend, Progress, Rayon, Scenario, Sequential};
use lumen_core::{Detector, Source, Vec3};
use lumen_tissue::presets::{head_with_inclusion, semi_infinite_phantom, AdultHeadConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

fn scenario() -> Scenario {
    Scenario::new(
        semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
        Source::Delta,
        Detector::new(1.0, 0.5),
    )
    .with_photons(4_000)
    .with_tasks(8)
    .with_seed(2006)
}

/// A voxel scenario small enough for the fast loop but heterogeneous
/// enough (6-material palette, off-axis inclusion) to exercise the DDA.
/// The detector aperture (x ∈ [3, 5]) lies well inside the ±8 mm grid so
/// the detection/tally-merge path is genuinely exercised.
fn voxel_scenario() -> Scenario {
    let grid = head_with_inclusion(
        AdultHeadConfig::default(),
        1.0,
        8.0,
        25.0,
        Vec3::new(5.0, 0.0, 16.0),
        4.0,
    )
    .expect("inclusion phantom builds");
    Scenario::new(grid, Source::Delta, Detector::new(4.0, 1.0))
        .with_photons(2_000)
        .with_tasks(8)
        .with_seed(2006)
}

#[test]
fn matrix_sequential_rayon_threaded_bit_identical() {
    let s = scenario();
    let matrix: Vec<Box<dyn Backend>> = vec![
        Box::new(Sequential),
        Box::new(Rayon::default()),
        Box::new(Rayon::with_threads(1)),
        Box::new(Rayon::with_threads(3)),
        Box::new(ThreadedCluster::new(1)),
        Box::new(ThreadedCluster::new(4)),
        Box::new(ThreadedCluster::new(4).with_failure_plan(FailurePlan::Random { rate: 0.25 })),
    ];
    let reference = matrix[0].run(&s).expect("valid scenario");
    assert_eq!(reference.launched(), 4_000);
    for backend in &matrix[1..] {
        let report = backend.run(&s).expect("valid scenario");
        assert_eq!(
            reference.result.tally,
            report.result.tally,
            "`{}` must match `sequential` bit-for-bit",
            backend.name()
        );
    }
}

#[test]
fn matrix_includes_tcp() {
    // The TCP deployment runs the same batches over real sockets.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);

    let s = scenario();
    let sim = s.simulation();
    let (addr_c, seed) = (addr.clone(), s.seed);
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let sim = sim.clone();
            let addr = addr_c.clone();
            thread::spawn(move || {
                for _ in 0..200 {
                    match lumen_cluster::run_client(&addr, &sim, seed) {
                        Ok(n) => return n,
                        Err(_) => thread::sleep(std::time::Duration::from_millis(10)),
                    }
                }
                panic!("client never connected")
            })
        })
        .collect();

    let tcp = Tcp::new(addr).with_clients(2).run(&s).expect("valid scenario");
    let completed: u64 = clients.into_iter().map(|c| c.join().expect("join")).sum();
    assert_eq!(completed, 8);

    let reference = Sequential.run(&s).expect("valid scenario");
    assert_eq!(tcp.result.tally, reference.result.tally, "tcp must match sequential");
}

#[test]
fn matrix_voxel_scenario_bit_identical_across_backends() {
    // The backend-equivalence claim extended to voxel geometry: every
    // physics-running backend produces the same bits.
    let s = voxel_scenario();
    let matrix: Vec<Box<dyn Backend>> = vec![
        Box::new(Sequential),
        Box::new(Rayon::default()),
        Box::new(Rayon::with_threads(2)),
        Box::new(ThreadedCluster::new(3)),
        Box::new(ThreadedCluster::new(3).with_failure_plan(FailurePlan::Random { rate: 0.25 })),
    ];
    let reference = matrix[0].run(&s).expect("valid voxel scenario");
    assert_eq!(reference.launched(), 2_000);
    assert!(reference.result.tally.total_absorbed() > 0.0);
    assert!(
        reference.result.tally.detected > 0,
        "the voxel matrix must exercise the detection path, not just absorption"
    );
    for backend in &matrix[1..] {
        let report = backend.run(&s).expect("valid voxel scenario");
        assert_eq!(
            reference.result.tally,
            report.result.tally,
            "`{}` must match `sequential` bit-for-bit on voxel geometry",
            backend.name()
        );
    }
}

#[test]
fn matrix_voxel_scenario_over_tcp() {
    // Real sockets under a voxel scenario: tasks out, per-region voxel
    // tallies back (the scenario encoding itself is covered in wire.rs).
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);

    let s = voxel_scenario();
    let sim = s.simulation();
    let (addr_c, seed) = (addr.clone(), s.seed);
    let client = {
        let sim = sim.clone();
        thread::spawn(move || {
            for _ in 0..200 {
                match lumen_cluster::run_client(&addr_c, &sim, seed) {
                    Ok(n) => return n,
                    Err(_) => thread::sleep(std::time::Duration::from_millis(10)),
                }
            }
            panic!("client never connected")
        })
    };

    let tcp = Tcp::new(addr).with_clients(1).run(&s).expect("valid voxel scenario");
    assert_eq!(client.join().expect("join"), 8);

    let reference = Sequential.run(&s).expect("valid voxel scenario");
    assert_eq!(tcp.result.tally, reference.result.tally, "tcp must match sequential on voxels");
}

#[test]
fn progress_hook_reports_photons_and_retries() {
    struct Observer {
        photons: AtomicU64,
        retries: AtomicU64,
    }
    impl Progress for Observer {
        fn on_photons(&self, completed: u64, total: u64) {
            assert!(completed <= total);
            self.photons.fetch_max(completed, Ordering::Relaxed);
        }
        fn on_task_retry(&self, _task_id: u64) {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
    }
    let obs = Observer { photons: AtomicU64::new(0), retries: AtomicU64::new(0) };
    // 32 tasks at a 50% failure rate: P(zero requeues) = 0.5^32 ≈ 2e-10,
    // so the requeues > 0 assertion cannot flake on an unlucky schedule.
    let report = ThreadedCluster::new(3)
        .with_failure_plan(FailurePlan::Random { rate: 0.5 })
        .run_with_progress(&scenario().with_tasks(32), &obs)
        .expect("valid scenario");
    assert_eq!(obs.photons.load(Ordering::Relaxed), 4_000, "all completions observed");
    assert_eq!(obs.retries.load(Ordering::Relaxed), report.requeues, "retries observed live");
    assert!(report.requeues > 0, "50% failure rate over 32 tasks must requeue");
}
