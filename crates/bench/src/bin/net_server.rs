//! Standalone DataManager server — the paper's "dedicated server" process.
//!
//! Run: `cargo run --release -p lumen-bench --bin net_server -- \
//!        [addr=127.0.0.1:7878] [scenario=white_matter] [photons=100000] \
//!        [tasks=16] [min_clients=2] [lease_timeout_s=600] \
//!        [join_grace_s=600]`
//!
//! `join_grace_s` bounds how long the server waits for `min_clients` to
//! show up (and for the pool to refill if every client vanishes) — the
//! default is generous because this binary's workflow is starting
//! clients by hand on other machines.
//!
//! Start the server, then point any number of `net_client` copies at it
//! (same scenario and seed, on any machines that can reach the address).
//! The pool is elastic: `min_clients` only gates the first assignment;
//! clients joining later are handed work immediately, and a client that
//! stalls past the lease timeout or disconnects has its task re-queued
//! and re-run bit-identically elsewhere. An abandoned run (every client
//! gone) exits non-zero with a typed error instead of printing a
//! partial tally.

use lumen_bench::scenario_by_name;
use lumen_cluster::ServeOptions;
use std::net::TcpListener;
use std::time::Duration;

fn arg(n: usize, default: &str) -> String {
    std::env::args().nth(n).unwrap_or_else(|| default.to_string())
}

fn main() {
    let addr = arg(1, "127.0.0.1:7878");
    let scenario = arg(2, "white_matter");
    let photons: u64 = arg(3, "100000").parse().expect("photons");
    let tasks: u64 = arg(4, "16").parse().expect("tasks");
    let min_clients: usize = arg(5, "2").parse().expect("min_clients");
    let lease_timeout_s: f64 = arg(6, "600").parse().expect("lease_timeout_s");
    let join_grace_s: f64 = arg(7, "600").parse().expect("join_grace_s");
    // Out of `Duration`'s range is out of `ServeOptions::validate`'s too.
    let seconds = |v: f64| Duration::try_from_secs_f64(v).unwrap_or(Duration::MAX);
    let options = ServeOptions::default()
        .with_min_clients(min_clients)
        .with_lease_timeout(seconds(lease_timeout_s))
        .with_join_grace(seconds(join_grace_s));
    if let Err(e) = options.validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }

    let sim =
        scenario_by_name(&scenario).unwrap_or_else(|| panic!("unknown scenario '{scenario}'"));
    let listener = TcpListener::bind(&addr).expect("bind server address");
    println!(
        "lumen DataManager on {addr}: scenario={scenario}, photons={photons}, tasks={tasks}; \
         starting at {min_clients} client(s), lease timeout {lease_timeout_s}s, \
         join grace {join_grace_s}s..."
    );

    let report = match lumen_cluster::serve_with_options(
        listener,
        &sim,
        photons,
        tasks,
        options,
        &lumen_core::engine::NoProgress,
    ) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("distributed run failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "done: {} photons over {} clients ({} requeues)",
        report.result.launched(),
        report.clients_served,
        report.requeues
    );
    println!("detected fraction: {:.3e}", report.result.detected_fraction());
    println!("diffuse reflectance: {:.4}", report.result.diffuse_reflectance());
    for (i, w) in report.worker_stats.iter().enumerate() {
        println!("  client {i}: {} tasks, {} photons", w.tasks_completed, w.photons);
    }
}
