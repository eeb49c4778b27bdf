//! `lumen` — the command-line front end.
//!
//! ```text
//! lumen run <config-file>        simulate per the config, print a report
//! lumen hash <config-file>       print the config's canonical cache key
//! lumen serve [addr] [opts]      run the lumend simulation service
//! lumen query <config-file> <addr>   ask a running service (cache-aware)
//! lumen example-config           print an annotated example config
//! lumen presets                  list tissue presets and their layers
//! ```

mod config;
mod report;

use config::Config;
use lumen_cluster::des::predict;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(|s| s.as_str()) {
        Some("run") => match args.get(1) {
            Some(path) => cmd_run(path),
            None => {
                eprintln!("usage: lumen run <config-file>");
                2
            }
        },
        Some("hash") => match args.get(1) {
            Some(path) => cmd_hash(path),
            None => {
                eprintln!("usage: lumen hash <config-file>");
                2
            }
        },
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => match (args.get(1), args.get(2)) {
            (Some(path), Some(addr)) => cmd_query(path, addr),
            _ => {
                eprintln!("usage: lumen query <config-file> <addr>");
                2
            }
        },
        Some("example-config") => {
            println!("{}", EXAMPLE_CONFIG.trim_start());
            0
        }
        Some("presets") => cmd_presets(),
        _ => {
            eprintln!(
                "usage: lumen <command>\n\n  run <config-file>            simulate per the config\n  hash <config-file>           print the config's canonical cache key\n  serve [addr] [opts]          run the simulation service (see lumend --help)\n  query <config-file> <addr>   ask a running service\n  example-config               print an annotated example config\n  presets                      list tissue presets"
            );
            2
        }
    };
    std::process::exit(code);
}

fn cmd_run(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    let cfg = match Config::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    let scenario = match cfg.scenario() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    let archive_record = match cfg.archive_record() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    if let Some(machines) = sim_machines(cfg.backend()) {
        if archive_record.is_some() {
            eprintln!("{path}: the sim backend traces no photons, so it records no archive");
            return 1;
        }
        let started = std::time::Instant::now();
        let pool = machines.map(lumen_cluster::homogeneous_pool);
        return match pool.and_then(|p| predict(&scenario, &p).map_err(|e| e.to_string())) {
            Ok(des) => {
                report::print_prediction(&scenario, &des, started.elapsed().as_secs_f64());
                0
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                1
            }
        };
    }
    // One entry point for every execution substrate: the config's
    // `backend` key picks the `Backend` impl, nothing else changes.
    let backend = match lumen_cluster::backend::from_spec(cfg.backend()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    match backend.run(&scenario) {
        Ok(run) => {
            report::print_report(&scenario, &run);
            if let Some((archive_path, _)) = archive_record {
                let Some(archive) = run.result.tally.archive.as_ref() else {
                    eprintln!("{path}: backend returned no archive to record");
                    return 1;
                };
                let bytes = lumen_cluster::wire::encode_archive(archive);
                if let Err(e) = std::fs::write(&archive_path, &bytes) {
                    eprintln!("cannot write archive {archive_path}: {e}");
                    return 1;
                }
                println!(
                    "archive: {} entries ({} bytes) -> {archive_path}",
                    archive.len(),
                    bytes.len()
                );
            }
            0
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            1
        }
    }
}

/// `backend = sim [machines]`: the discrete-event simulator predicts the
/// run on that many dedicated paper-class PCs (default 60) instead of
/// executing it. `None` for every other backend spec.
fn sim_machines(spec: &str) -> Option<Result<usize, String>> {
    let mut parts = spec.split_whitespace();
    if parts.next() != Some("sim") {
        return None;
    }
    let args: Vec<&str> = parts.collect();
    Some(match args.as_slice() {
        [] => Ok(60),
        [n] => n.parse().map_err(|_| format!("sim machine count `{n}` cannot be parsed")),
        _ => Err("sim backend needs `sim [machines]`".into()),
    })
}

/// Parse the config at `path` down to a scenario (shared by `hash`,
/// `query`; `run` keeps its own flow for the archive-record extras).
fn load_scenario(path: &str) -> Result<lumen_core::Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cfg = Config::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    cfg.scenario().map_err(|e| format!("{path}: {e}"))
}

/// `lumen hash <config-file>` — the canonical cache key, one hex line.
///
/// The key is what `lumend` stores results under: it covers the physics
/// and the seed but not `photons`/`tasks`, so two configs differing only
/// in budget print the same hash (and share cached work).
fn cmd_hash(path: &str) -> i32 {
    match load_scenario(path) {
        Ok(scenario) => {
            println!("{}", lumen_service::key_hex(&lumen_service::scenario_key(&scenario)));
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `lumen serve [addr] [opts]` — the in-CLI face of `lumend`.
fn cmd_serve(args: &[String]) -> i32 {
    match lumen_service::daemon::run(args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", lumen_service::daemon::USAGE);
            2
        }
    }
}

/// `lumen query <config-file> <addr>` — submit the config's scenario to
/// a running service and report how it was served.
fn cmd_query(path: &str, addr: &str) -> i32 {
    let scenario = match load_scenario(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let reply =
        lumen_service::ServiceClient::connect(addr).and_then(|mut client| client.query(&scenario));
    match reply {
        Ok(reply) => {
            let t = &reply.tally;
            println!("== lumen query ==");
            println!("key:     {}", lumen_service::key_hex(&reply.key));
            println!(
                "served:  {} ({} photons cached{})",
                reply.served.as_str(),
                reply.photons_done,
                if reply.photons_done > scenario.photons {
                    format!(", {} requested", scenario.photons)
                } else {
                    String::new()
                },
            );
            println!();
            println!("outcomes:");
            println!("  detected        {:>12}   weight {:.6e}", t.detected, t.detected_weight);
            println!("  reflected       {:>12}   weight {:.6e}", t.reflected, t.reflected_weight);
            println!(
                "  transmitted     {:>12}   weight {:.6e}",
                t.transmitted, t.transmitted_weight
            );
            if t.detected > 0 {
                println!();
                println!("detected photons:");
                println!("  mean pathlength {:.3} mm", t.detected_path_sum / t.detected as f64);
            }
            0
        }
        Err(e) => {
            eprintln!("{addr}: {e}");
            1
        }
    }
}

fn cmd_presets() -> i32 {
    use lumen_tissue::presets::{adult_head, homogeneous_white_matter, neonatal_head};
    for (name, model) in [
        ("adult_head", adult_head(Default::default())),
        ("neonatal_head", neonatal_head()),
        ("white_matter", homogeneous_white_matter()),
    ] {
        println!("{name}:");
        for l in model.layers() {
            println!(
                "  {:<14} z {:>5.1}..{:<8} mu_s' {:.2}/mm  mu_a {:.3}/mm  n {:.2}",
                l.name,
                l.z_top,
                if l.is_semi_infinite() { "inf".into() } else { format!("{:.1}", l.z_bottom) },
                l.optics.mu_s_prime(),
                l.optics.mu_a,
                l.optics.n
            );
        }
    }
    println!("\nphantom: `tissue = phantom <mu_a> <mu_s> <g> <n>` (semi-infinite)");
    0
}

const EXAMPLE_CONFIG: &str = r#"
# lumen experiment configuration (`lumen run this-file`)

# tissue: adult_head | neonatal_head | white_matter | phantom mu_a mu_s g n
tissue    = adult_head

# source: delta | gaussian <1/e2-radius-mm> | uniform <radius-mm>
source    = delta

# detector: disc <separation-mm> <radius-mm> | ring <separation-mm> <half-width-mm>
detector  = ring 30 2

# optional pathlength gate (mm) and fibre numerical aperture
#gate     = 0 1000
#na       = 0.5

# optional tallies
#path_grid      = 50 30      # granularity^3 over the source-detector region, depth mm
#path_histogram = 600 30     # max pathlength mm, bins

photons   = 200000
seed      = 42
tasks     = 64

# execution backend: sequential | rayon [threads] | cluster [workers] [failure_rate]
#                  | tcp <addr> [min_clients] [lease_timeout_s] | reweight <archive-file>
# the tracing backends give bit-identical tallies for the same (seed, tasks)
backend   = rayon
# or predict the run's timing on N simulated paper-class PCs (default 60)
# without tracing a photon:
#   backend = sim [machines]

# optional path archive: record every escape (or only detections) to a
# file, then re-score it for new optical properties without re-tracing:
#   backend = reweight <archive-file>  with a perturbed `tissue`
#archive_record = run.lmna            # or: run.lmna detected_only
"#;
