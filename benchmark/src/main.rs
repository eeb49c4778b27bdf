//! `lumen-benchmark` — the repository's benchmark, measured from outside.
//!
//! ```text
//! lumen-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lumen-benchmark spec
//! lumen-benchmark run       [--seeds a,b,..] [--seconds s] [--out FILE]
//! lumen-benchmark selfcheck [--seeds a,b,..] [--seconds s]
//! lumen-benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload in
//! this (fresh) process, every metric printed by name with its unit, the
//! result stored under `benchmark/out/`, and the contract's one-line JSON
//! last. See README.md for what is measured and why.

mod checks;
mod host;
mod inputs;
mod jobs;
mod json;
mod layers;
mod report;
mod service;
mod spec;
mod stats;
mod trace;
mod workloads;

use checks::Checks;
use json::Json;
use report::{Metric, ResultSet};
use std::process::ExitCode;

const DEFAULT_SEEDS: [u64; 3] = [1, 2, 3];

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("{name}: `{v}` is not a valid value")))
        .transpose()
}

/// Metrics in spec order; a metric the run could not produce is a failure.
fn in_spec_order<'a>(
    names: impl Iterator<Item = (&'a str, &'static str)>,
    values: &[(&'static str, f64)],
    checks: &mut Checks,
) -> Vec<Metric> {
    names
        .map(|(name, unit)| {
            let value =
                values.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |&(_, value)| value);
            checks.check(value.is_finite(), || format!("metric {name} was not measured"));
            Metric { name: name.to_string(), value, unit }
        })
        .collect()
}

/// The driver's form: one workload, in this process.
fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let seed: u64 = parsed_flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = parsed_flag(args, "--seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if !spec::workload_names().any(|w| w == workload) {
        let known: Vec<_> = spec::workload_names().collect();
        return Err(format!("unknown workload `{workload}` (known: {})", known.join(", ")));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let scale = seconds / spec::RUN_SECONDS as f64;
    let steal_before = host::steal_ticks();

    let (metrics, diagnostics, mut checks);
    if traced {
        let (mut values, matrix_checks) = layers::measure(scale);
        let run = workloads::trace(workload, seed, scale).expect("workload name checked above");
        values.extend(run.values);
        checks = matrix_checks;
        checks.absorb(run.checks);
        metrics =
            in_spec_order(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)), &values, &mut checks);
        diagnostics = Vec::new();
        let file = format!("trace-{workload}.json");
        if let Some(path) = report::write_out(&file, &trace::to_json(workload, &run.spans)) {
            println!("trace: {} spans in {}", run.spans.len(), path.display());
        }
    } else {
        let run = workloads::run(workload, seed, scale).expect("workload name checked above");
        checks = run.checks;
        let values = [
            ("photons_per_s", run.photons_per_s),
            ("min_job_us", run.min_job_us),
            ("peak_rss_mb", host::peak_rss_mib()),
            ("setup_s", run.setup_s),
        ];
        metrics =
            in_spec_order(spec::END_TO_END.iter().map(|m| (m.name, m.unit)), &values, &mut checks);
        diagnostics = run
            .diagnostics
            .into_iter()
            .map(|(name, value, unit)| Metric { name, value, unit })
            .collect();
    }

    let steal = host::steal_ticks() - steal_before;
    report::print_metrics(
        &format!("{workload} (seed {seed}, {seconds} s, trace {})", u8::from(traced)),
        &metrics,
    );
    if !diagnostics.is_empty() {
        report::print_metrics("diagnostics (never compared)", &diagnostics);
    }
    for note in &checks.notes {
        println!("FAILED: {note}");
    }
    let run = report::RunId { workload, seed, seconds, traced };
    let doc = report::result_file(&run, &metrics, &diagnostics, &checks, steal);
    report::write_out(&report::result_file_name(workload, seed, traced), &doc);
    println!("{}", report::result_line(&metrics, &checks));
    Ok(ExitCode::SUCCESS)
}

/// Every workload over `seeds`, each run in a fresh child process of this
/// executable; the set is assembled from the children's result files.
fn run_set(seeds: &[u64], seconds: f64) -> Result<ResultSet, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for workload in spec::workload_names() {
        let mut results = Vec::new();
        for &seed in seeds {
            eprintln!("lumen-benchmark: {workload} seed {seed} ...");
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .output()
                .map_err(|e| e.to_string())?;
            if !output.status.success() {
                return Err(format!(
                    "{workload} seed {seed} failed: {}",
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let path = report::out_dir().join(report::result_file_name(workload, seed, false));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            results.push(Json::parse(&text)?);
        }
        runs.push((workload.to_string(), results));
    }
    Ok(ResultSet::from_runs(seeds, seconds, &runs))
}

fn seeds_and_seconds(args: &[String]) -> Result<(Vec<u64>, f64), String> {
    let seeds = match flag(args, "--seeds") {
        None => DEFAULT_SEEDS.to_vec(),
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("--seeds: `{s}` is not a number")))
            .collect::<Result<_, _>>()?,
    };
    let seconds = parsed_flag(args, "--seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    Ok((seeds, seconds))
}

fn main_inner(args: &[String]) -> Result<ExitCode, String> {
    let failed_if = |bad: bool| if bad { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let (seeds, seconds) = seeds_and_seconds(args)?;
            let set = run_set(&seeds, seconds)?;
            set.print();
            match flag(args, "--out") {
                Some(path) => {
                    std::fs::write(path, set.doc.pretty()).map_err(|e| format!("{path}: {e}"))?
                }
                None => drop(report::write_out("set.json", &set.doc)),
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("selfcheck") => {
            let (seeds, seconds) = seeds_and_seconds(args)?;
            let (first, second) = (run_set(&seeds, seconds)?, run_set(&seeds, seconds)?);
            report::write_out("selfcheck-a.json", &first.doc);
            report::write_out("selfcheck-b.json", &second.doc);
            first.print();
            second.print();
            // Same code both times, so a miss in either direction is noise
            // the bounds do not cover.
            let misses = report::compare(&first, &second) + report::compare(&second, &first);
            println!("selfcheck: {misses} metric(s) moved by more than their bound");
            Ok(failed_if(misses > 0))
        }
        Some("compare") => match args {
            [_, a, b] => {
                let misses = report::compare(&ResultSet::load(a)?, &ResultSet::load(b)?);
                Ok(failed_if(misses > 0))
            }
            _ => Err("usage: lumen-benchmark compare <A.json> <B.json>".into()),
        },
        _ => run_workload(args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    main_inner(&args).unwrap_or_else(|e| {
        eprintln!("lumen-benchmark: {e}");
        ExitCode::from(2)
    })
}
