//! In-memory spans around the harness's calls into each layer.
//!
//! A [`SpanLog`] belongs to one thread. `log.span("name", |log| ...)` records
//! `{name, start, end, parent, job}`; nesting gives the parent. Logs of the
//! threads of one job are appended into one and written out once, at exit.
//! A layer's self time is its span minus the part its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<u32>,
    /// The job (or query round) the span belongs to.
    pub job: u32,
    /// The harness thread that recorded it (0 = the job's driving thread).
    pub thread: u32,
}

#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    job: u32,
    thread: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records nothing: `span` only calls its closure. Replicas
    /// take a log either way, so the traced and untraced runs share code.
    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    pub fn on(epoch: Instant) -> Self {
        Self::new(true, epoch, 0)
    }

    fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Self { enabled, epoch, job: 0, thread, stack: Vec::new(), spans: Vec::new() }
    }

    /// An empty log for another thread of the same job, on the same clock.
    pub fn fork(&self, thread: u32) -> Self {
        let mut log = Self::new(self.enabled, self.epoch, thread);
        log.job = self.job;
        log
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job: self.job,
            thread: self.thread,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Append a forked log; its parent indices are rebased so they keep
    /// pointing at its own spans.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self time summed by span name, per job: `out[job][name]` in ns.
pub fn self_time_by_job(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let own = self_times(spans);
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *out.entry(s.job).or_default().entry(s.name).or_default() += ns;
    }
    out
}

/// Jobs whose spans the trace file lists one by one.
const LISTED_JOBS: usize = 32;

/// The trace file: self time by name over all jobs, and every span of the
/// first [`LISTED_JOBS`] jobs (a traced daemon session records ~20k spans,
/// all alike).
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for per_job in self_time_by_job(spans).values() {
        for (name, ns) in per_job {
            *totals.entry(name).or_default() += ns;
        }
    }
    let mut jobs: Vec<u32> = spans.iter().map(|s| s.job).collect();
    jobs.sort_unstable();
    jobs.dedup();
    let last_listed = jobs.get(LISTED_JOBS - 1).or(jobs.last()).copied().unwrap_or(0);
    // `parent` indexes the full span list, so listed spans keep their
    // original position in `index`.
    Json::object([
        ("workload", Json::str(workload)),
        ("clock", Json::str("ns since the traced window began")),
        ("jobs_traced", Json::Num(jobs.len() as f64)),
        ("spans_traced", Json::Num(spans.len() as f64)),
        (
            "self_time_ns",
            Json::Object(
                totals.into_iter().map(|(k, v)| (k.to_string(), Json::Num(v as f64))).collect(),
            ),
        ),
        (
            "spans",
            Json::Array(
                spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.job <= last_listed)
                    .map(|(index, s)| {
                        Json::object([
                            ("index", Json::Num(index as f64)),
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                            ("job", Json::Num(s.job as f64)),
                            ("thread", Json::Num(s.thread as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut log = SpanLog::on(Instant::now());
        log.set_job(3);
        log.span("outer", |log| {
            log.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            log.span("b", |_| ());
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.job == 3));
        let own = self_times(spans);
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(own[0] + own[1] + own[2], total);
        assert!(own[1] >= 2_000_000);
    }

    #[test]
    fn a_disabled_log_records_nothing_and_still_runs_the_work() {
        let mut log = SpanLog::off();
        assert_eq!(log.span("x", |log| log.span("y", |_| 7)), 7);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn absorbed_logs_keep_their_parent_links() {
        let mut main = SpanLog::on(Instant::now());
        main.span("job", |_| ());
        let mut worker = main.fork(1);
        worker.span("task", |log| log.span("run", |_| ()));
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].thread, 1);
    }
}
