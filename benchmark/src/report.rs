//! What a run prints and stores, and the two commands that read it back:
//! `compare` (two result sets against the bounds) and `selfcheck` (the same
//! code twice).

use crate::checks::Checks;
use crate::host;
use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{iqr_share, quantile_sorted};
use std::path::PathBuf;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Where result and trace files go: `benchmark/out/`, beside the sources.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Best effort: a run's numbers must not be lost to a read-only checkout.
pub fn write_out(file_name: &str, doc: &Json) -> Option<PathBuf> {
    let dir = out_dir();
    let path = dir.join(file_name);
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc.pretty()));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("lumen-benchmark: cannot write {}: {e}", path.display());
            None
        }
    }
}

pub fn result_file_name(workload: &str, seed: u64, traced: bool) -> String {
    format!("result-{workload}-seed{seed}-trace{}.json", u8::from(traced))
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(metrics: &[Metric], checks: &Checks) -> String {
    Json::object([
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Num(checks.attempted.max(1) as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .compact()
}

/// Which run a result belongs to.
pub struct RunId<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// The stored result: the line's content plus what explains it.
pub fn result_file(
    run: &RunId,
    metrics: &[Metric],
    diagnostics: &[Metric],
    checks: &Checks,
    steal_delta: u64,
) -> Json {
    Json::object([
        ("schema", Json::str("lumen-benchmark/v1")),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
        ("workload", Json::str(run.workload)),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds)),
        ("trace", Json::Bool(run.traced)),
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("failures", Json::Array(checks.notes.iter().map(Json::str).collect())),
        ("metrics", metrics_json(metrics)),
        ("diagnostics", metrics_json(diagnostics)),
        ("host", host::metadata(steal_delta)),
    ])
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// A result set: per workload, each end-to-end metric's values over the
/// seed list, and the host disturbance seen while they were taken.
pub struct ResultSet {
    pub doc: Json,
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

impl ResultSet {
    /// `runs[workload]` holds one parsed result file per seed.
    pub fn from_runs(seeds: &[u64], seconds: f64, runs: &[(String, Vec<Json>)]) -> Self {
        let workloads = runs
            .iter()
            .map(|(workload, results)| {
                let series = |section: &str, name: &str| -> Vec<f64> {
                    results
                        .iter()
                        .filter_map(|r| r.get(section)?.get(name)?.get("value")?.as_f64())
                        .collect()
                };
                let metrics = spec::END_TO_END
                    .iter()
                    .map(|m| {
                        let values = series("metrics", m.name);
                        (
                            m.name.to_string(),
                            Json::object([
                                ("unit", Json::str(m.unit)),
                                ("median", Json::Num(median(&values))),
                                ("iqr_share", Json::Num(iqr_share(&values))),
                                (
                                    "values",
                                    Json::Array(values.into_iter().map(Json::Num).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect();
                let failed: f64 = results.iter().filter_map(|r| r.get("failed")?.as_f64()).sum();
                (
                    workload.clone(),
                    Json::object([
                        ("metrics", Json::Object(metrics)),
                        ("failed", Json::Num(failed)),
                        (
                            "host.disturbance",
                            Json::Num(median(&series("diagnostics", "host.disturbance"))),
                        ),
                    ]),
                )
            })
            .collect();
        Self {
            doc: Json::object([
                ("schema", Json::str("lumen-benchmark-set/v1")),
                ("claim", Json::Null),
                ("seconds", Json::Num(seconds)),
                ("seeds", Json::Array(seeds.iter().map(|&s| Json::Num(s as f64)).collect())),
                ("host", host::metadata(0)),
                ("workloads", Json::Object(workloads)),
            ]),
        }
    }

    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some("lumen-benchmark-set/v1") => Ok(Self { doc }),
            _ => Err(format!("{path}: not a lumen-benchmark result set")),
        }
    }

    fn workload(&self, name: &str) -> Option<&Json> {
        self.doc.get("workloads")?.get(name)
    }

    fn median_of(&self, workload: &str, metric: &str) -> Option<f64> {
        self.workload(workload)?.get("metrics")?.get(metric)?.get("median")?.as_f64()
    }

    fn disturbance(&self, workload: &str) -> f64 {
        self.workload(workload)
            .and_then(|w| w.get("host.disturbance")?.as_f64())
            .unwrap_or(f64::NAN)
    }

    /// One row per workload and metric: each median with its spread over
    /// the seed list.
    pub fn print(&self) {
        println!("{:<22} {:<20} {:>14} {:>9}  unit", "workload", "metric", "median", "iqr/med");
        for workload in spec::workload_names() {
            for m in &spec::END_TO_END {
                let cell = self.workload(workload).and_then(|w| w.get("metrics")?.get(m.name));
                let field = |key| cell.and_then(|c| c.get(key)?.as_f64()).unwrap_or(f64::NAN);
                println!(
                    "{workload:<22} {:<20} {:>14.4} {:>8.2}%  {}",
                    m.name,
                    field("median"),
                    field("iqr_share") * 100.0,
                    m.unit
                );
            }
            println!("{workload:<22} host.disturbance {:.3}", self.disturbance(workload));
        }
    }
}

/// By how much of `a` the metric got worse from `a` to `b` (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Metric by metric against the bounds, one row per workload and metric.
/// Returns how many pairs got worse by more than their bound.
pub fn compare(a: &ResultSet, b: &ResultSet) -> usize {
    let mut misses = 0;
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for workload in spec::workload_names() {
        for m in &spec::END_TO_END {
            let (Some(va), Some(vb)) =
                (a.median_of(workload, m.name), b.median_of(workload, m.name))
            else {
                println!("{workload:<22} {:<20} missing from one of the sets", m.name);
                misses += 1;
                continue;
            };
            let worse = worse_by(m.better, va, vb);
            // NaN (a failed run) must count as a miss, so compare this way round.
            let within = worse <= m.bound;
            let verdict = if within {
                "ok".to_string()
            } else {
                misses += 1;
                format!(
                    "WORSE (host.disturbance A {:.2}, B {:.2})",
                    a.disturbance(workload),
                    b.disturbance(workload)
                )
            };
            println!(
                "{workload:<22} {:<20} {va:>14.4} {vb:>14.4} {:>7.2}% {:>6.0}%  {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(photons_per_s: f64) -> ResultSet {
        let result = |value: f64| {
            Json::object([
                ("failed", Json::Num(0.0)),
                (
                    "metrics",
                    Json::Object(
                        spec::END_TO_END
                            .iter()
                            .map(|m| {
                                let v = if m.name == "photons_per_s" { value } else { 1.0 };
                                (m.name.to_string(), Json::object([("value", Json::Num(v))]))
                            })
                            .collect(),
                    ),
                ),
                (
                    "diagnostics",
                    Json::object([("host.disturbance", Json::object([("value", Json::Num(1.2))]))]),
                ),
            ])
        };
        let runs: Vec<(String, Vec<Json>)> = spec::workload_names()
            .map(|w| (w.to_string(), vec![result(photons_per_s), result(photons_per_s * 1.01)]))
            .collect();
        ResultSet::from_runs(&[1, 2], 20.0, &runs)
    }

    #[test]
    fn compare_counts_only_changes_beyond_the_bound() {
        let bound = spec::END_TO_END.iter().find(|m| m.name == "photons_per_s").unwrap().bound;
        assert_eq!(compare(&set(1000.0), &set(1000.0)), 0);
        assert_eq!(compare(&set(1000.0), &set(1000.0 * (1.0 - bound / 2.0))), 0);
        assert_eq!(compare(&set(1000.0), &set(1200.0)), 0); // better is never a miss
        assert_eq!(
            compare(&set(1000.0), &set(1000.0 * (1.0 - bound * 1.5))),
            spec::WORKLOADS.len()
        );
        assert_eq!(compare(&set(1000.0), &set(f64::NAN)), spec::WORKLOADS.len());
    }

    #[test]
    fn a_set_survives_its_own_file_format() {
        let original = set(1234.5);
        let reread = ResultSet { doc: Json::parse(&original.doc.pretty()).unwrap() };
        let median = original.median_of("service_mix", "photons_per_s");
        assert!(median.is_some_and(|m| (m - 1234.5 * 1.005).abs() < 1e-9));
        assert_eq!(reread.median_of("service_mix", "photons_per_s"), median);
        assert_eq!(reread.disturbance("head_exact_seq"), 1.2);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let metrics = vec![Metric { name: "setup_s".into(), value: 0.25, unit: "s" }];
        let line = result_line(&metrics, &Checks { attempted: 7, failed: 0, notes: vec![] });
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            parsed.get("metrics").unwrap().get("setup_s").unwrap().get("value"),
            Some(&Json::Num(0.25))
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn worse_by_respects_the_direction() {
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 100.0, 90.0) < 0.0);
    }
}
