//! `throughput` — the perf-trajectory recorder.
//!
//! Runs the shared preset matrix ([`lumen_bench::throughput_presets`])
//! across the `sequential`, `rayon`, `cluster`, and `tcp` backends,
//! measures photons per wall-clock second, and writes
//! `BENCH_throughput.json` — one point on the repository's performance
//! trajectory. Every perf PR reruns this binary and records before/after
//! numbers in `docs/PERFORMANCE.md`; CI runs it on a reduced budget
//! (non-gating) and uploads the JSON as an artifact.
//!
//! ```text
//! throughput [--photons N] [--repeats K] [--backends a,b,..]
//!            [--presets a,b,..] [--out PATH]
//! ```
//!
//! Defaults: 200k photons, 3 repeats (best wall time wins), all presets,
//! `sequential,rayon,fast,fast-rayon,cluster,tcp,tcp16` backends, output
//! `BENCH_throughput.json` in the current directory. The `fast` and
//! `fast-rayon` legs run the same sequential/rayon engines with the
//! scenario's precision tier set to `Fast` (the batched SoA kernel), so
//! the exact-vs-fast ratio per preset is the tier ablation recorded in
//! `docs/PERFORMANCE.md`. The `tcp` legs run
//! the real elastic wire runtime loopback: the server binds an ephemeral
//! port and in-process `run_client` loops connect to it, so the recorded
//! number includes framing, tally serialization, and the lease
//! bookkeeping. `tcp` is the historical two-client point; `tcpN` (any
//! N ≥ 1, e.g. `tcp16`) fans N clients at the single poll loop — the
//! multi-client point that shows what connection multiplexing buys.
//! The JSON is hand-rolled: the workspace has no serialization crate.

use lumen_bench::throughput_presets;
use lumen_core::engine::Scenario;
use lumen_core::Precision;
use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// In-process client loops the plain `tcp` leg runs (the historical
/// configuration, kept so the trajectory stays comparable across PRs).
const TCP_CLIENTS: usize = 2;

struct Args {
    photons: u64,
    repeats: usize,
    backends: Vec<String>,
    presets: Vec<String>,
    out: String,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            photons: 200_000,
            repeats: 3,
            backends: vec![
                "sequential".into(),
                "rayon".into(),
                "fast".into(),
                "fast-rayon".into(),
                "cluster".into(),
                "tcp".into(),
                "tcp16".into(),
            ],
            presets: throughput_presets().iter().map(|(n, _)| n.to_string()).collect(),
            out: "BENCH_throughput.json".into(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--photons" => {
                    args.photons =
                        value("--photons")?.parse().map_err(|e| format!("--photons: {e}"))?
                }
                "--repeats" => {
                    args.repeats =
                        value("--repeats")?.parse().map_err(|e| format!("--repeats: {e}"))?
                }
                "--backends" => {
                    args.backends =
                        value("--backends")?.split(',').map(|s| s.trim().to_string()).collect()
                }
                "--presets" => {
                    args.presets =
                        value("--presets")?.split(',').map(|s| s.trim().to_string()).collect()
                }
                "--out" => args.out = value("--out")?,
                "--help" | "-h" => {
                    println!(
                        "throughput [--photons N] [--repeats K] [--backends a,b,..] \
                         [--presets a,b,..] [--out PATH]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if args.photons == 0 || args.repeats == 0 {
            return Err("--photons and --repeats must be positive".into());
        }
        Ok(args)
    }
}

/// Query count per timed reweight sweep.
const REWEIGHT_QUERIES: usize = 1024;

/// The measured `reweight_qps` leg: how fast a stored archive answers
/// (μa′, μs′) queries without re-tracing.
struct ReweightCell {
    preset: String,
    photons: u64,
    archive_entries: usize,
    queries: usize,
    wall_seconds: Vec<f64>,
    best_wall_seconds: f64,
    queries_per_second: f64,
}

/// Record a detected-only archive for `scenario` and time a deterministic
/// sweep of [`REWEIGHT_QUERIES`] perturbed-property queries against it.
/// The sweep scales μa by 0.7–1.3 and μs by 0.9–1.1 across queries, the
/// band the reweight estimator is validated for.
fn measure_reweight(
    name: &str,
    scenario: &Scenario,
    repeats: usize,
) -> Result<ReweightCell, String> {
    use lumen_core::{RecordOptions, Reweight};

    let mut recording = scenario.clone();
    recording.options.archive = Some(RecordOptions { detected_only: true });
    let report = lumen_cluster::backend::from_spec("rayon")
        .map_err(|e| e.to_string())?
        .run(&recording)
        .map_err(|e| e.to_string())?;
    let archive = report.result.tally.archive.clone().ok_or("recording run returned no archive")?;
    let entries = archive.len();
    if entries == 0 {
        return Err(format!("archive for `{name}` recorded zero detections"));
    }
    let reweight = Reweight::new(archive);

    let queries: Vec<Vec<lumen_core::OpticalProperties>> = (0..REWEIGHT_QUERIES)
        .map(|q| {
            let t = q as f64 / (REWEIGHT_QUERIES - 1) as f64;
            let (fa, fs) = (0.7 + 0.6 * t, 0.9 + 0.2 * t);
            reweight
                .archive
                .base
                .iter()
                .map(|o| lumen_core::OpticalProperties::new(o.mu_a * fa, o.mu_s * fs, o.g, o.n))
                .collect()
        })
        .collect();

    let mut walls = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        // The batch API fans the sweep across the rayon pool; each
        // query's report is bit-identical to a sequential `query` call
        // (pinned by `archive_props::batch_sweep_matches_sequential_per_query`),
        // so going wide changes the wall-clock and nothing else.
        let started = Instant::now();
        let mut checksum = 0.0f64;
        for report in reweight.query_many(&queries) {
            let r = report.map_err(|e| e.to_string())?;
            checksum += r.tally.detected_weight;
        }
        let wall = started.elapsed().as_secs_f64();
        assert!(checksum.is_finite(), "reweight sweep produced non-finite weight");
        walls.push(wall);
    }
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(ReweightCell {
        preset: name.to_string(),
        photons: scenario.photons,
        archive_entries: entries,
        queries: REWEIGHT_QUERIES,
        best_wall_seconds: best,
        queries_per_second: REWEIGHT_QUERIES as f64 / best.max(1e-9),
        wall_seconds: walls,
    })
}

/// One measured (preset, backend) cell.
struct Cell {
    preset: String,
    backend: String,
    photons: u64,
    tasks: u64,
    seed: u64,
    wall_seconds: Vec<f64>,
    best_wall_seconds: f64,
    photons_per_second: f64,
}

/// One timed run of a loopback `tcp` leg: bind an ephemeral port, point
/// `n_clients` in-process client loops at it, and serve the scenario
/// over real sockets. Returns the launched photon count. The listener is
/// bound once and handed to the server directly (no probe/rebind port
/// race), and the client threads are always joined, even when the server
/// leg fails.
fn run_tcp_once(scenario: &Scenario, n_clients: usize) -> Result<u64, String> {
    use lumen_cluster::ServeOptions;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();

    let sim = scenario.simulation();
    let seed = scenario.seed;
    let clients: Vec<_> = (0..n_clients)
        .map(|_| {
            let sim = sim.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                for _ in 0..500 {
                    match lumen_cluster::run_client(&addr, &sim, seed) {
                        Ok(n) => return Ok(n),
                        Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
                    }
                }
                Err("bench client never connected".to_string())
            })
        })
        .collect();

    let served = lumen_cluster::serve_with_options(
        listener,
        &sim,
        scenario.photons,
        scenario.tasks,
        ServeOptions::default().with_min_clients(n_clients),
        &lumen_core::engine::NoProgress,
    );
    // Join the clients first (a failed server closes their sockets, so
    // they terminate either way) to avoid leaking spinning threads.
    let mut client_err = None;
    for c in clients {
        match c.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => client_err = Some(e),
            Err(_) => client_err = Some("bench client panicked".to_string()),
        }
    }
    let report = served.map_err(|e| e.to_string())?;
    if let Some(e) = client_err {
        return Err(e);
    }
    Ok(report.result.launched())
}

/// Parse a loopback-leg spec: `tcp` is the historical
/// [`TCP_CLIENTS`]-client point, `tcpN` (e.g. `tcp16`) fans N clients at
/// the poll loop. Anything else (including `tcp 3`-style arguments) is
/// rejected so a typo cannot silently mislabel the JSON record.
fn tcp_clients_from_spec(spec: &str) -> Result<Option<usize>, String> {
    let Some(rest) = spec.strip_prefix("tcp") else { return Ok(None) };
    if rest.is_empty() {
        return Ok(Some(TCP_CLIENTS));
    }
    match rest.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!("the tcp leg is `tcp` or `tcpN` with N >= 1 clients; got `{spec}`")),
    }
}

/// Split a bench leg spec into the engine spec resolved via
/// `backend::from_spec` and the precision tier stamped on the scenario:
/// `fast` is the sequential engine on the fast tier, `fast-rayon` the
/// rayon pool on it. The tier is set on the scenario itself (not smuggled
/// through a wrapper backend), so the scenario a fast leg executes is
/// exactly the one the service layer would hash and cache.
fn precision_from_spec(spec: &str) -> (&str, Precision) {
    match spec {
        "fast" => ("sequential", Precision::Fast),
        "fast-rayon" => ("rayon", Precision::Fast),
        other => (other, Precision::Exact),
    }
}

fn measure(name: &str, spec: &str, scenario: &Scenario, repeats: usize) -> Result<Cell, String> {
    let (engine_spec, precision) = precision_from_spec(spec);
    let mut scenario = scenario.clone();
    scenario.options.precision = precision;
    let scenario = &scenario;
    let tcp_clients = tcp_clients_from_spec(engine_spec)?;
    let backend = match tcp_clients {
        Some(_) => None,
        None => Some(lumen_cluster::backend::from_spec(engine_spec).map_err(|e| e.to_string())?),
    };
    let mut walls = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        // Time around the whole backend call (validation + merge included):
        // that is the latency a caller actually observes. The report's own
        // wall clock agrees to within microseconds.
        let started = Instant::now();
        let launched = match (&backend, tcp_clients) {
            (Some(b), _) => b.run(scenario).map_err(|e| e.to_string())?.launched(),
            (None, Some(n)) => run_tcp_once(scenario, n)?,
            (None, None) => unreachable!("spec is either a backend or a tcp leg"),
        };
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(launched, scenario.photons, "backend dropped photons");
        walls.push(wall);
    }
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(Cell {
        preset: name.to_string(),
        backend: spec.to_string(),
        photons: scenario.photons,
        tasks: scenario.tasks,
        seed: scenario.seed,
        best_wall_seconds: best,
        photons_per_second: scenario.photons as f64 / best.max(1e-9),
        wall_seconds: walls,
    })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64_array(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", cells.join(", "))
}

fn render_json(args: &Args, cells: &[Cell], reweight: Option<&ReweightCell>) -> String {
    let created = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"lumen-bench-throughput/v1\",");
    let _ = writeln!(s, "  \"created_unix\": {created},");
    let _ = writeln!(s, "  \"crate_version\": \"{}\",", env!("CARGO_PKG_VERSION"));
    let _ = writeln!(
        s,
        "  \"host\": {{ \"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {cpus} }},",
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    let _ = writeln!(s, "  \"photons\": {},", args.photons);
    let _ = writeln!(s, "  \"repeats\": {},", args.repeats);
    let _ = writeln!(s, "  \"results\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"preset\": \"{}\",", json_escape(&c.preset));
        let _ = writeln!(s, "      \"backend\": \"{}\",", json_escape(&c.backend));
        let _ = writeln!(s, "      \"photons\": {},", c.photons);
        let _ = writeln!(s, "      \"tasks\": {},", c.tasks);
        let _ = writeln!(s, "      \"seed\": {},", c.seed);
        let _ = writeln!(s, "      \"wall_seconds\": {},", json_f64_array(&c.wall_seconds));
        let _ = writeln!(s, "      \"best_wall_seconds\": {},", c.best_wall_seconds);
        let _ = writeln!(s, "      \"photons_per_second\": {}", c.photons_per_second);
        let _ = writeln!(s, "    }}{comma}");
    }
    match reweight {
        None => {
            let _ = writeln!(s, "  ]");
        }
        Some(r) => {
            let _ = writeln!(s, "  ],");
            let _ = writeln!(s, "  \"reweight\": {{");
            let _ = writeln!(s, "    \"preset\": \"{}\",", json_escape(&r.preset));
            let _ = writeln!(s, "    \"photons\": {},", r.photons);
            let _ = writeln!(s, "    \"archive_entries\": {},", r.archive_entries);
            let _ = writeln!(s, "    \"queries\": {},", r.queries);
            let _ = writeln!(s, "    \"wall_seconds\": {},", json_f64_array(&r.wall_seconds));
            let _ = writeln!(s, "    \"best_wall_seconds\": {},", r.best_wall_seconds);
            let _ = writeln!(s, "    \"queries_per_second\": {}", r.queries_per_second);
            let _ = writeln!(s, "  }}");
        }
    }
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("throughput: {e}");
            std::process::exit(2);
        }
    };

    let all = throughput_presets();
    let mut cells = Vec::new();
    println!("preset | backend | photons/s | best wall (s)");
    println!("-------|---------|-----------|--------------");
    for want in &args.presets {
        let Some((name, scenario)) = all.iter().find(|(n, _)| n == want) else {
            eprintln!(
                "throughput: unknown preset `{want}` (known: {})",
                all.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
            );
            std::process::exit(2);
        };
        let scenario = scenario.clone().with_photons(args.photons);
        for spec in &args.backends {
            match measure(name, spec, &scenario, args.repeats) {
                Ok(cell) => {
                    println!(
                        "{} | {} | {:.0} | {:.3}",
                        cell.preset, cell.backend, cell.photons_per_second, cell.best_wall_seconds
                    );
                    cells.push(cell);
                }
                Err(e) => {
                    eprintln!("throughput: {name} on `{spec}` failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    // The reweight_qps leg: archive once on the first requested preset,
    // then time the query sweep. Target: >= 10^4 queries/sec.
    let reweight = {
        let want = args.presets.first().expect("at least one preset");
        let (name, scenario) = all.iter().find(|(n, _)| n == want).expect("preset validated above");
        let scenario = scenario.clone().with_photons(args.photons);
        match measure_reweight(name, &scenario, args.repeats) {
            Ok(cell) => {
                println!(
                    "{} | reweight | {:.0} q/s | {:.3} ({} entries, {} queries)",
                    cell.preset,
                    cell.queries_per_second,
                    cell.best_wall_seconds,
                    cell.archive_entries,
                    cell.queries
                );
                cell
            }
            Err(e) => {
                eprintln!("throughput: reweight leg failed: {e}");
                std::process::exit(1);
            }
        }
    };

    let json = render_json(&args, &cells, Some(&reweight));
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("throughput: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("\nwrote {}", args.out);
}
