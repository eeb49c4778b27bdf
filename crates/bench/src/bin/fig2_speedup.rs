//! Experiment F2 — regenerate the paper's Fig 2: speedup with varying
//! numbers of homogeneous processors.
//!
//! Two curves are produced:
//!
//! 1. **Simulated cluster** (the paper's setting): the discrete-event
//!    simulator runs the 10⁹-photon job on 1–60 homogeneous P4-class
//!    machines over a 2006 LAN. This is the curve comparable to Fig 2,
//!    including the ≥97 % efficiency at 60 processors.
//! 2. **Real threads** (this machine): the actual Monte Carlo engine runs
//!    a fixed photon budget on 1..=num_cpus worker threads, demonstrating
//!    the same near-linear scaling on physical hardware.
//!
//! Run: `cargo run --release -p lumen-bench --bin fig2_speedup`

use lumen_bench::fig3_scenario;
use lumen_cluster::{speedup_curve, AvailabilityModel, JobSpec, NetworkModel};
use lumen_core::engine::{Backend, Rayon, Scenario};
use std::time::Instant;

fn main() {
    println!("== Fig 2: speedup with varying numbers of homogeneous processors ==\n");

    // --- Curve 1: simulated 2006 cluster, paper-scale job ---
    let job = JobSpec::paper_job();
    let ks = [1usize, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60];
    let points =
        speedup_curve(&job, &ks, NetworkModel::lan_2006(), AvailabilityModel::DEDICATED, 2006);
    println!("-- simulated cluster (10^9 photons, P4 2.4GHz class machines) --");
    println!("{:>4} | {:>12} | {:>8} | {:>10}", "k", "time (s)", "speedup", "efficiency");
    for p in &points {
        println!(
            "{:>4} | {:>12.1} | {:>8.2} | {:>9.1}%",
            p.k,
            p.time_s,
            p.speedup,
            p.efficiency * 100.0
        );
    }
    let last = points.last().expect("non-empty curve");
    println!(
        "\npaper: >97% efficiency at 60 processors; simulated: {:.1}% at {}\n",
        last.efficiency * 100.0,
        last.k
    );

    // --- Curve 2: real threads on this machine ---
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let sim = fig3_scenario(6.0, 50);
    let photons: u64 = 200_000;
    println!("-- real threads on this machine ({cores} cores, {photons} photons) --");
    println!("{:>8} | {:>10} | {:>8} | {:>10}", "threads", "time (s)", "speedup", "efficiency");
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
        println!(
            "{:>8} | {:>10.3} | {:>8.2} | {:>9.1}%",
            k,
            secs,
            speedup,
            speedup / k as f64 * 100.0
        );
        k *= 2;
    }
}
