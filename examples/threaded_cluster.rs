//! Run the real threaded master/worker engine on this machine, with
//! injected task failures, and watch the retries live through the
//! `Progress` hook. (The simulated Fig 2 curve is the `fig2_speedup`
//! artefact: `cargo run --release -p lumen-bench --bin artefact -- fig2_speedup`.)
//!
//! Run: `cargo run --release --example threaded_cluster`

use lumen::cluster::{FailurePlan, ThreadedCluster};
use lumen::core::{Backend, Detector, Progress, Scenario, Source};
use lumen::tissue::presets::homogeneous_white_matter;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    println!("real master/worker engine ({workers} worker threads, demand-driven):");
    let scenario =
        Scenario::new(homogeneous_white_matter(), Source::Delta, Detector::new(6.0, 1.0))
            .with_photons(200_000)
            .with_tasks(workers as u64 * 8)
            .with_seed(3);

    // Observe the run through the Progress hook: count retries live.
    struct RetryCounter(AtomicU64);
    impl Progress for RetryCounter {
        fn on_task_retry(&self, _task_id: u64) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let retries = RetryCounter(AtomicU64::new(0));

    let backend =
        ThreadedCluster::new(workers).with_failure_plan(FailurePlan::Random { rate: 0.05 });
    let report = backend.run_with_progress(&scenario, &retries).expect("valid scenario");
    println!(
        "  {} photons in {:.2} s with 5% injected task failures ({} requeues, {} observed live)",
        report.result.launched(),
        report.wall_seconds,
        report.requeues,
        retries.0.load(Ordering::Relaxed)
    );
    for (i, w) in report.workers.iter().enumerate() {
        println!(
            "  worker {i:>2}: {:>3} tasks, {:>7} photons, {} failures",
            w.tasks_completed, w.photons, w.tasks_failed
        );
    }
    println!("  detected fraction: {:.2e}", report.result.detected_fraction());
}
