//! The four workloads: their set-up cycles, their timed windows, their
//! correctness checks and their traced runs.
//!
//! A timed window is a closed loop of identical iterations. Each iteration
//! runs the headline job and the smallest job back to back (and, when due,
//! a set-up cycle and the diagnostic job beside the headline), so all series
//! see the same host; each series is reduced with `fast3` (see `stats`).
//! Everything that is compared runs confined to one core, the cores taking
//! turns (see `host::Cores`).

use crate::checks::Checks;
use crate::host::Cores;
use crate::inputs::{self, CachePlan, JobInputs, CHUNK_PHOTONS, CLIENTS};
use crate::jobs::{self, JobOut};
use crate::layers::Values;
use crate::service;
use crate::stats::Series;
use crate::trace::{self, Span, SpanLog};
use lumen_core::engine::Scenario;
use lumen_core::Tally;
use std::time::Instant;

/// Rounds of the `service_mix` window at `--seconds 20`.
const SERVICE_ROUNDS: usize = 220;
/// Set-up cycles at `--seconds 20`, spread evenly over the window so their
/// series sees the same host states as the others.
const SETUP_CYCLES: usize = 100;
/// Samples of a diagnostic job beside the headline at `--seconds 20`, spread
/// evenly over the window like the set-up cycles.
const BESIDE_SAMPLES: usize = 100;
/// Iterations (or daemon rounds) a core keeps its turn for.
pub const STINT: usize = 8;
/// Untraced/traced job pairs of a traced run at `--seconds 20`.
const TRACED_PAIRS: usize = 30;
/// Rounds of each of the two sessions of a traced `service_mix` run.
const TRACED_ROUNDS: usize = 12;

/// `--seconds` relative to the 20 s the counts are sized for.
pub fn count(at_twenty_seconds: usize, scale: f64) -> usize {
    ((at_twenty_seconds as f64 * scale).round() as usize).max(1)
}

/// Whether iteration `i` of `iterations` is one of `count` evenly spread ones
/// (every iteration is when there are fewer than `count`).
pub fn due(i: usize, iterations: usize, count: usize) -> bool {
    let count = count.min(iterations);
    i * count / iterations != (i + 1) * count / iterations
}

/// What a plain run reports.
pub struct EndToEndRun {
    /// The end-to-end metrics, in `spec::END_TO_END` order (peak RSS is read
    /// by the caller, at exit).
    pub photons_per_s: f64,
    pub min_job_us: f64,
    pub setup_s: f64,
    /// Named extras for the result file: never compared, never bounded.
    pub diagnostics: Vec<(String, f64, &'static str)>,
    pub checks: Checks,
}

/// What a traced run adds to the layer matrix.
pub struct TracedRun {
    pub values: Values,
    pub spans: Vec<Span>,
    pub checks: Checks,
}

/// A job timed beside the headline as a diagnostic, [`BESIDE_SAMPLES`] times
/// over the window: what the headline number is read against.
struct Beside {
    name: &'static str,
    job: fn(&Scenario) -> Result<JobOut, String>,
    /// Timed released, on all cores: a wall time two workers reach together.
    two_core: bool,
}

/// A run workload: one scenario, a headline path, a job beside it and a
/// replica to trace.
struct Path {
    inputs: fn(u64) -> JobInputs,
    headline: fn(&Scenario) -> Result<JobOut, String>,
    beside: Option<Beside>,
    replica: fn(&Scenario, &mut SpanLog) -> Result<Tally, String>,
    /// Threads the headline path computes on.
    threads: f64,
    /// Iterations of the window at `--seconds 20`, sized so that the window
    /// takes ~14 s on a quiet host and ~20 s on a disturbed one.
    iterations: usize,
}

fn path(workload: &str) -> Option<Path> {
    match workload {
        "head_exact_seq" => Some(Path {
            inputs: inputs::head_inputs,
            headline: jobs::sequential,
            beside: None,
            replica: jobs::sequential_replica,
            threads: 1.0,
            iterations: 1000,
        }),
        "voxel_fast_cluster2" => Some(Path {
            inputs: inputs::voxel_inputs,
            headline: jobs::cluster2,
            beside: Some(Beside { name: "two_core", job: jobs::cluster2, two_core: true }),
            replica: jobs::cluster2_replica,
            threads: jobs::WORKERS as f64,
            iterations: 400,
        }),
        "grid_exact_tcp2" => Some(Path {
            inputs: inputs::grid_inputs,
            headline: jobs::tcp2,
            beside: Some(Beside { name: "sequential", job: jobs::sequential, two_core: false }),
            replica: jobs::tcp2_replica,
            threads: jobs::WORKERS as f64,
            iterations: 300,
        }),
        _ => None,
    }
}

fn timed<T>(series: &mut Series, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    series.push(started.elapsed().as_secs_f64());
    out
}

fn host_diagnostics(series: &Series) -> Vec<(String, f64, &'static str)> {
    vec![
        ("host.disturbance".into(), series.disturbance(), "ratio"),
        ("host.clean_frac".into(), series.clean_frac(), "ratio"),
        ("samples".into(), series.len() as f64, "count"),
    ]
}

fn run_path(p: &Path, seed: u64, scale: f64) -> EndToEndRun {
    let mut checks = Checks::default();
    // A full set-up cycle: generate the inputs, build what the path needs,
    // run the first (smallest) request, tear everything down.
    let setup_cycle = || {
        let first = (p.inputs)(seed).min_job;
        let out = (p.headline)(&first)?;
        if out.tally.launched == first.photons {
            Ok(())
        } else {
            Err("the first job dropped photons".into())
        }
    };

    let JobInputs { job, min_job } = (p.inputs)(seed);
    // Untimed first pass: fills caches and fixes the tallies every later
    // repetition must reproduce bit for bit. Every path must agree with
    // `Sequential`.
    let tally_of = |out: Option<JobOut>| out.map(|out| out.tally);
    let expect = tally_of(checks.op("sequential job", jobs::sequential(&job)));
    let expect_min = tally_of(checks.op("smallest job", (p.headline)(&min_job)));
    let same = |got: &Tally, want: &Option<Tally>| want.as_ref().is_some_and(|w| w == got);

    let (mut headline, mut beside, mut smallest, mut setup) =
        (Series::default(), Series::default(), Series::default(), Series::default());
    let iterations = count(p.iterations, scale);
    let (cycles, beside_samples) = (count(SETUP_CYCLES, scale), count(BESIDE_SAMPLES, scale));
    let mut cores = Cores::of_this_process(STINT);
    for i in 0..iterations {
        cores.confine();
        if let Some(out) = checks.op("headline job", timed(&mut headline, || (p.headline)(&job))) {
            checks.check(
                out.tally.launched == job.photons && out.requeues == 0 && same(&out.tally, &expect),
                || "headline tally differs from the Sequential one".into(),
            );
        }
        if let Some(out) =
            checks.op("smallest job", timed(&mut smallest, || (p.headline)(&min_job)))
        {
            checks.check(
                out.tally.launched == min_job.photons && same(&out.tally, &expect_min),
                || "smallest job is not repeatable".into(),
            );
        }
        if due(i, iterations, cycles) {
            checks.op("set-up cycle", timed(&mut setup, setup_cycle));
        }
        if let Some(b) = p.beside.as_ref().filter(|_| due(i, iterations, beside_samples)) {
            if b.two_core {
                cores.release();
            }
            if let Some(out) = checks.op(b.name, timed(&mut beside, || (b.job)(&job))) {
                checks.check(same(&out.tally, &expect), || {
                    format!("the {} job's tally differs from the Sequential one", b.name)
                });
            }
        }
    }
    cores.release();

    let photons_per_s = job.photons as f64 / headline.fast3();
    let mut diagnostics = host_diagnostics(&headline);
    diagnostics.push(("headline_p50_ms".into(), headline.median() * 1e3, "ms"));
    diagnostics.push(("setup_cycles".into(), setup.len() as f64, "count"));
    if let Some(b) = &p.beside {
        let beside_photons_per_s = job.photons as f64 / beside.fast3();
        diagnostics.extend([
            (format!("{}_photons_per_s", b.name), beside_photons_per_s, "photons/s"),
            (format!("{}_samples", b.name), beside.len() as f64, "count"),
            // Against the headline: the speed-up of the second core, or what
            // the path costs over plain `Sequential`.
            (format!("{}_ratio", b.name), beside_photons_per_s / photons_per_s, "ratio"),
        ]);
    }
    EndToEndRun {
        photons_per_s,
        min_job_us: smallest.fast3() * 1e6,
        setup_s: setup.fast3(),
        diagnostics,
        checks,
    }
}

fn service_rounds(scale: f64) -> usize {
    // Below the revisit distance plus one the script would never revisit.
    count(SERVICE_ROUNDS, scale).max(CachePlan::FULL.revisit_distance + 1)
}

fn run_service(seed: u64, scale: f64) -> EndToEndRun {
    let mut checks = Checks::default();
    let rounds = service_rounds(scale);
    let script = inputs::service_script(seed, rounds, CachePlan::FULL);
    // A full set-up cycle beside the running daemon: generate the script
    // (which voxelizes), start a second daemon, connect both clients, take
    // the first cold reply, tear everything down.
    let between = service::Between {
        twin_samples: count(BESIDE_SAMPLES, scale),
        setup_cycles: count(SETUP_CYCLES, scale),
        cycle: &|| {
            service::first_cold_reply(&inputs::service_script(seed, rounds, CachePlan::FULL))
        },
    };
    let session = service::run_session(&script, &SpanLog::off(), Some(between));
    let Some(session) = checks.op("daemon session", session) else {
        // Nothing was measured; the missing metrics are reported as failures.
        let none = f64::NAN;
        return EndToEndRun {
            photons_per_s: none,
            min_job_us: none,
            setup_s: none,
            diagnostics: Vec::new(),
            checks,
        };
    };
    // Both clients' cold queries, from the first sent to the last answered:
    // the daemon's cold throughput is both chunks over that wall. On the one
    // core the session is confined to, that is what the pair costs; whether
    // the daemon keeps both in flight is the `cold_overlap` diagnostic.
    let cold_pair = session.pair_wall(|c| &c.cold_at);
    let round = session.pair_wall(|c| &c.round_at);
    let photons_per_s = (CLIENTS as u64 * CHUNK_PHOTONS) as f64 / cold_pair.fast3();
    let sequential_photons_per_s = CHUNK_PHOTONS as f64 / session.twin.fast3();
    let warm = session.pooled(|c| &c.warm_median);
    let mut diagnostics = host_diagnostics(&round);
    diagnostics.extend([
        ("setup_cycles".into(), session.setup.len() as f64, "count"),
        ("sequential_photons_per_s".into(), sequential_photons_per_s, "photons/s"),
        ("sequential_samples".into(), session.twin.len() as f64, "count"),
        ("sequential_ratio".into(), sequential_photons_per_s / photons_per_s, "ratio"),
        ("cold_overlap".into(), session.cold_overlap(), "ratio"),
        ("cold_ms".into(), session.pooled(|c| &c.cold).fast3() * 1e3, "ms"),
        ("topup_ms".into(), session.pooled(|c| &c.topup).fast3() * 1e3, "ms"),
        ("warm_voxel_us".into(), session.pooled(|c| &c.warm_voxel_median).fast3() * 1e6, "us"),
        ("warm_p99_us".into(), session.pooled(|c| &c.warm_all).quantile(0.99) * 1e6, "us"),
        ("rounds_per_s".into(), CLIENTS as f64 / round.fast3(), "rounds/s"),
        ("evictions".into(), session.stats.evictions as f64, "count"),
    ]);
    checks.absorb(session.checks);
    EndToEndRun {
        photons_per_s,
        min_job_us: warm.fast3() * 1e6,
        setup_s: session.setup.fast3(),
        diagnostics,
        checks,
    }
}

/// The plain run of `workload`; `None` for an unknown name.
pub fn run(workload: &str, seed: u64, scale: f64) -> Option<EndToEndRun> {
    match workload {
        "service_mix" => Some(run_service(seed, scale)),
        other => path(other).map(|p| run_path(&p, seed, scale)),
    }
}

/// What the spans of each job explain, in seconds by job id: the self time
/// of everything that is not waiting (`*.wait`) or the job's own root,
/// spread over the path's cores.
fn explained_by_job(spans: &[Span], threads: f64) -> Vec<(u32, f64)> {
    trace::self_time_by_job(spans)
        .into_iter()
        .map(|(job, per_name)| {
            let busy: u64 = per_name
                .iter()
                .filter(|(name, _)| **name != "job" && !name.ends_with(".wait"))
                .map(|(_, ns)| ns)
                .sum();
            (job, busy as f64 / 1e9 / threads)
        })
        .collect()
}

/// The four metrics every traced run adds, from the untraced and traced
/// series of the same job.
fn trace_values(untraced: &Series, traced: &Series, explained: &Series, steal: u64) -> Values {
    vec![
        ("trace.unattributed_share", 1.0 - explained.fast3() / untraced.fast3()),
        ("trace.overhead_share", traced.fast3() / untraced.fast3() - 1.0),
        ("host.clean_frac", untraced.clean_frac()),
        ("host.disturbance", untraced.disturbance()),
        ("host.steal_ticks", steal as f64),
    ]
}

fn trace_path(p: &Path, seed: u64, scale: f64) -> TracedRun {
    let mut checks = Checks::default();
    let steal = crate::host::steal_ticks();
    let job = (p.inputs)(seed).job;
    let mut log = SpanLog::on(Instant::now());
    // A single-thread path is confined like its plain run; a parallel one is
    // traced released, so that a span is never a thread waiting for the core.
    let mut cores = Cores::of_this_process(STINT);
    let (mut untraced, mut traced) = (Series::default(), Series::default());
    for pair in 0..count(TRACED_PAIRS, scale) {
        if p.threads == 1.0 {
            cores.confine();
        }
        let real = checks.op("headline job", timed(&mut untraced, || (p.headline)(&job)));
        log.set_job(pair as u32);
        let replica = checks.op("replica job", timed(&mut traced, || (p.replica)(&job, &mut log)));
        checks
            .check(real.zip(replica).is_some_and(|(real, replica)| real.tally == replica), || {
                "the replica's tally differs from the backend's".into()
            });
    }
    cores.release();
    let mut explained = Series::default();
    explained_by_job(log.spans(), p.threads).iter().for_each(|&(_, s)| explained.push(s));
    TracedRun {
        values: trace_values(&untraced, &traced, &explained, crate::host::steal_ticks() - steal),
        spans: log.spans().to_vec(),
        checks,
    }
}

fn trace_service(seed: u64, scale: f64) -> TracedRun {
    let mut checks = Checks::default();
    let steal = crate::host::steal_ticks();
    let rounds = count(TRACED_ROUNDS, scale).max(CachePlan::MINI.revisit_distance + 1);
    let script = inputs::service_script(seed, rounds, CachePlan::MINI);
    let mut spans = Vec::new();
    // The traced unit is one warm query on the round's own key, reduced the
    // way `min_job_us` is: per-round medians, then `fast3` over rounds.
    let mut warm_medians = |log: &SpanLog| {
        let session = checks.op("daemon session", service::run_session(&script, log, None));
        session.map_or_else(Series::default, |mut s| {
            checks.absorb(std::mem::take(&mut s.checks));
            spans.extend_from_slice(s.log.spans());
            s.pooled(|c| &c.warm_median)
        })
    };
    let untraced = warm_medians(&SpanLog::off());
    let traced = warm_medians(&SpanLog::on(Instant::now()));

    // Client legs plus the in-process server legs of each warm query; both
    // clients number their queries alike, so a job holds one of each.
    let mut by_round: Vec<Series> = vec![Series::default(); rounds];
    for (job, seconds) in explained_by_job(&spans, CLIENTS as f64) {
        if job != service::OTHER_QUERY {
            by_round[job as usize / inputs::WARM_PER_ROUND].push(seconds);
        }
    }
    let mut explained = Series::default();
    by_round.iter().for_each(|round| explained.push(round.median()));
    TracedRun {
        values: trace_values(&untraced, &traced, &explained, crate::host::steal_ticks() - steal),
        spans,
        checks,
    }
}

/// The traced run of `workload` (without the layer matrix).
pub fn trace(workload: &str, seed: u64, scale: f64) -> Option<TracedRun> {
    match workload {
        "service_mix" => Some(trace_service(seed, scale)),
        other => path(other).map(|p| trace_path(&p, seed, scale)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_iterations_are_exactly_as_many_as_asked_and_evenly_spread() {
        for (iterations, cycles) in [(1000, 100), (300, 100), (220, 100), (100, 100), (7, 100)] {
            let due: Vec<usize> = (0..iterations).filter(|&i| due(i, iterations, cycles)).collect();
            assert_eq!(due.len(), cycles.min(iterations));
            let gaps: Vec<usize> = due.windows(2).map(|w| w[1] - w[0]).collect();
            let (min, max) = (gaps.iter().min(), gaps.iter().max());
            assert!(min.zip(max).is_none_or(|(min, max)| max - min <= 1), "{gaps:?}");
        }
    }
}
