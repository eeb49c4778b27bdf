//! The in-process simulation service: content-addressed caching with
//! incremental top-up, behind a bounded worker pool.
//!
//! # Why cached results can be upgraded
//!
//! `Tally::merge` left-folds, and a left fold is *prefix-extendable*:
//! `fold(c_0..c_n) == fold(fold(c_0..c_k), c_k, ..., c_{n-1})` holds bit
//! for bit (float addition is not associative, so two multi-chunk
//! partial folds merged together would differ in the last ulp — the
//! service never does that). The photon budget is therefore quantized
//! into fixed *chunks*: chunk `j` is a backend run of
//! [`ServiceOptions::chunk_photons`] photons split over
//! [`ServiceOptions::chunk_tasks`] tasks starting at RNG stream
//! `j * chunk_tasks` (`Scenario::task_offset`). A chunk's tally is a
//! pure function of `(physics, seed, j)` — every backend returns
//! bit-identical tallies for the same scenario — so the cached result
//! at `n` chunks is the same bytes no matter how many queries, cold or
//! top-up, it took to get there.
//!
//! # Concurrency
//!
//! Requests arrive from many threads: library callers, and the daemon,
//! which answers hits on its poll thread (`prepare` + `lookup`, never
//! blocking on a trace) and sends only misses to its executor pool
//! (`trace_and_store`). A per-key in-flight set (mutex + condvar) ensures
//! two clients asking for the same uncached scenario trace it once:
//! the second blocks until the first stores, then is served warm from
//! cache. Distinct keys trace concurrently, bounded by a counting
//! semaphore of [`ServiceOptions::workers`] backend runs. A query can
//! be abandoned cooperatively ([`SimulationService::query_with_cancel`]):
//! the cancel flag is checked before the permit and before every
//! chunk, and a cancelled fold is discarded whole — never cached — so
//! cache contents can never depend on how far an abandoned query got.

use crate::cache::ResultCache;
use crate::hash::{scenario_key, ScenarioKey};
use lumen_core::engine::{EngineError, Scenario};
use lumen_core::tally::Tally;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Tuning knobs for [`SimulationService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOptions {
    /// Backend spec resolved through `lumen_cluster::backend::from_spec`
    /// for every chunk run (`sequential`, `rayon [threads]`,
    /// `cluster [workers]`, `tcp <addr>`, ...).
    pub backend_spec: String,
    /// Photons per cache chunk. Requested budgets round **up** to whole
    /// chunks, and the actually-simulated budget is recorded in each
    /// response; larger chunks amortize per-run overhead, smaller ones
    /// quantize budgets (and top-ups) more finely.
    pub chunk_photons: u64,
    /// Task split inside one chunk — the intra-chunk parallelism handed
    /// to the backend. Part of the deterministic chunk decomposition:
    /// changing it changes which streams each chunk consumes, so it is
    /// fixed per service instance, not per request.
    pub chunk_tasks: u64,
    /// Byte budget for the result cache (wire-encoded tallies).
    pub max_cache_bytes: usize,
    /// Maximum concurrent backend runs across all requests.
    pub workers: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        Self {
            backend_spec: "rayon".into(),
            chunk_photons: 100_000,
            chunk_tasks: 64,
            max_cache_bytes: 64 * 1024 * 1024,
            workers: 2,
        }
    }
}

impl ServiceOptions {
    /// Builder-style backend spec.
    pub fn with_backend(mut self, spec: impl Into<String>) -> Self {
        self.backend_spec = spec.into();
        self
    }

    /// Builder-style chunk photon count.
    pub fn with_chunk_photons(mut self, chunk_photons: u64) -> Self {
        self.chunk_photons = chunk_photons;
        self
    }

    /// Builder-style intra-chunk task split.
    pub fn with_chunk_tasks(mut self, chunk_tasks: u64) -> Self {
        self.chunk_tasks = chunk_tasks;
        self
    }

    /// Builder-style cache byte budget.
    pub fn with_max_cache_bytes(mut self, max_cache_bytes: usize) -> Self {
        self.max_cache_bytes = max_cache_bytes;
        self
    }

    /// Builder-style worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    fn validate(&self) -> Result<(), ServiceError> {
        if self.chunk_photons == 0 || self.chunk_tasks == 0 {
            return Err(ServiceError::InvalidConfig(
                "chunk_photons and chunk_tasks must be >= 1".into(),
            ));
        }
        if self.workers == 0 {
            return Err(ServiceError::InvalidConfig("workers must be >= 1".into()));
        }
        // Resolve the spec once up front so a typo fails service
        // construction, not the first query.
        lumen_cluster::backend::from_spec(&self.backend_spec)
            .map_err(|e| ServiceError::InvalidConfig(e.to_string()))?;
        Ok(())
    }
}

/// How a query was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Nothing cached: every chunk was traced.
    Cold,
    /// Fully served from cache; no photon was traced.
    Warm,
    /// A cached prefix was extended with freshly traced chunks.
    TopUp,
}

impl Served {
    /// Stable name, used in logs and the load generator's JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Served::Cold => "cold",
            Served::Warm => "warm",
            Served::TopUp => "topup",
        }
    }
}

/// A served query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Canonical scenario hash the result is cached under.
    pub key: ScenarioKey,
    /// The merged tally at `photons_done` photons.
    pub tally: Tally,
    /// Photons the tally actually covers — at least the requested
    /// budget (budgets quantize up to whole chunks, and a warm hit may
    /// return a larger cached budget).
    pub photons_done: u64,
    /// How this reply was produced.
    pub served: Served,
}

/// Typed service failures.
#[derive(Debug)]
pub enum ServiceError {
    /// Bad scenario or service configuration.
    InvalidConfig(String),
    /// A backend failed while tracing chunks.
    Backend(String),
    /// Networking failed (client/server layers).
    Net(lumen_cluster::NetError),
    /// The remote daemon answered with a typed error frame.
    Remote(String),
    /// The query's cancel flag was raised (its client disconnected)
    /// before tracing finished; remaining chunks were skipped.
    Cancelled,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            ServiceError::Backend(reason) => write!(f, "backend failed: {reason}"),
            ServiceError::Net(e) => write!(f, "net: {e}"),
            ServiceError::Remote(reason) => write!(f, "daemon error: {reason}"),
            ServiceError::Cancelled => write!(f, "query cancelled before tracing finished"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<lumen_cluster::NetError> for ServiceError {
    fn from(e: lumen_cluster::NetError) -> Self {
        ServiceError::Net(e)
    }
}

/// Counters observable through [`SimulationService::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries answered successfully.
    pub queries: u64,
    /// Replies by kind.
    pub cold: u64,
    /// Fully-cached replies.
    pub warm: u64,
    /// Cache-extension replies.
    pub topup: u64,
    /// Chunks actually traced (the "work done" measure: concurrent
    /// same-key requests trace each chunk exactly once; chunks traced by
    /// a query that was later cancelled count too).
    pub chunks_traced: u64,
    /// Queries abandoned via their cancel flag (dead clients detected
    /// before or during tracing, their remaining chunks skipped).
    pub cancelled: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Live cache entries.
    pub entries: u64,
    /// Bytes the live entries hold.
    pub cached_bytes: u64,
}

/// Cache state + in-flight key set, guarded by one mutex so a miss can
/// atomically claim its key.
#[derive(Debug)]
struct State {
    cache: ResultCache,
    inflight: HashSet<ScenarioKey>,
}

/// Monotonic event counters. Each is an independent statistic that
/// publishes no other data, so `Relaxed` suffices — and a warm hit takes
/// the state lock and nothing else.
#[derive(Debug, Default)]
struct Counts {
    queries: AtomicU64,
    cold: AtomicU64,
    warm: AtomicU64,
    topup: AtomicU64,
    chunks_traced: AtomicU64,
    cancelled: AtomicU64,
}

/// A query past validation: its cache key and the whole chunks its
/// budget rounds up to. Only [`SimulationService::prepare`] makes one, so
/// holding one means the scenario validated and the chunk ledger
/// (`chunks * chunk_tasks` streams, `chunks * chunk_photons` photons)
/// fits in `u64`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prepared {
    key: ScenarioKey,
    want_chunks: u64,
}

/// The persistent simulation service (in-process core; `crate::server`
/// exposes it over TCP).
#[derive(Debug)]
pub struct SimulationService {
    options: ServiceOptions,
    state: Mutex<State>,
    state_cv: Condvar,
    permits: Mutex<usize>,
    permits_cv: Condvar,
    counts: Counts,
}

/// RAII worker-pool permit.
struct Permit<'a> {
    service: &'a SimulationService,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut free = self.service.permits.lock().expect("worker pool");
        *free += 1;
        self.service.permits_cv.notify_one();
    }
}

impl SimulationService {
    /// Build a service, validating the options (including resolving the
    /// backend spec once).
    pub fn new(options: ServiceOptions) -> Result<Self, ServiceError> {
        options.validate()?;
        Ok(Self {
            state: Mutex::new(State {
                cache: ResultCache::new(options.max_cache_bytes),
                inflight: HashSet::new(),
            }),
            state_cv: Condvar::new(),
            permits: Mutex::new(options.workers),
            permits_cv: Condvar::new(),
            counts: Counts::default(),
            options,
        })
    }

    /// The options the service was built with.
    pub fn options(&self) -> &ServiceOptions {
        &self.options
    }

    /// Answer one scenario request: warm from cache, top-up, or cold.
    ///
    /// The request's `tasks` and `task_offset` are ignored — the service
    /// owns the chunk decomposition (they are not key-relevant either,
    /// see [`scenario_key`]). Only the physics, seed, and photon budget
    /// matter.
    pub fn query(&self, scenario: &Scenario) -> Result<QueryReply, ServiceError> {
        self.query_with_cancel(scenario, &AtomicBool::new(false))
    }

    /// [`SimulationService::query`] with a cancel flag, checked before
    /// the trace and between chunks. Raising it (the daemon does so the
    /// instant a querying client disconnects) abandons the remaining
    /// chunks with [`ServiceError::Cancelled`] instead of burning
    /// worker-pool budget on an answer nobody will read. Warm cache hits
    /// still serve — only tracing is cancellable work.
    ///
    /// This is the composition of the three steps the daemon runs on
    /// different threads: `prepare` and `lookup` on its poll thread,
    /// `trace_and_store` on an executor thread, for misses only.
    pub fn query_with_cancel(
        &self,
        scenario: &Scenario,
        cancel: &AtomicBool,
    ) -> Result<QueryReply, ServiceError> {
        let prepared = self.prepare(scenario)?;
        match self.lookup(&prepared) {
            Some(reply) => Ok(reply),
            None => self.trace_and_store(scenario, &prepared, cancel),
        }
    }

    /// Step one: validate the scenario, hash it, and check that its
    /// budget fits the chunk ledger. Pure CPU on the caller's thread — no
    /// lock, O(scenario encoding).
    pub(crate) fn prepare(&self, scenario: &Scenario) -> Result<Prepared, ServiceError> {
        scenario.validate().map_err(|e| ServiceError::InvalidConfig(e.to_string()))?;
        let key = scenario_key(scenario);
        let want_chunks = scenario.photons.div_ceil(self.options.chunk_photons).max(1);
        self.options
            .chunk_tasks
            .checked_mul(want_chunks)
            .and_then(|streams| {
                self.options.chunk_photons.checked_mul(want_chunks).map(|_| streams)
            })
            .ok_or_else(|| {
                ServiceError::InvalidConfig("photon budget overflows the chunk ledger".into())
            })?;
        Ok(Prepared { key, want_chunks })
    }

    /// Step two: answer from cache if the entry covers the budget.
    ///
    /// Never blocks on a trace, so the daemon calls it on its poll thread.
    /// It takes the state lock and nothing else, and every holder of that
    /// lock does bounded work: a hit clones the cached tally under it —
    /// O(tally size), a megabyte for a 50³ grid — a miss claiming its key
    /// clones the prefix it extends, and a finished trace clones its
    /// result into the cache. Traces and permit waits run unlocked.
    pub(crate) fn lookup(&self, prepared: &Prepared) -> Option<QueryReply> {
        self.hit(&mut self.state.lock().expect("service state"), prepared)
    }

    /// The warm branch, under the caller's state lock.
    fn hit(&self, st: &mut State, prepared: &Prepared) -> Option<QueryReply> {
        let entry = st.cache.get(&prepared.key).filter(|e| e.chunks >= prepared.want_chunks)?;
        let reply = QueryReply {
            key: prepared.key,
            tally: entry.tally.clone(),
            photons_done: entry.photons_done(),
            served: Served::Warm,
        };
        self.note(Served::Warm);
        Some(reply)
    }

    /// Step three, for a query `lookup` missed: claim the key (or wait for
    /// whoever holds it, then look again), trace the missing chunks, store
    /// and reply. Blocks its thread for as long as the trace takes.
    pub(crate) fn trace_and_store(
        &self,
        scenario: &Scenario,
        prepared: &Prepared,
        cancel: &AtomicBool,
    ) -> Result<QueryReply, ServiceError> {
        let Prepared { key, want_chunks } = *prepared;
        let (mut acc, have_chunks) = {
            let mut st = self.state.lock().expect("service state");
            loop {
                // The entry may have arrived since `lookup` missed: from
                // the holder this query waited for, or any other thread.
                if let Some(reply) = self.hit(&mut st, prepared) {
                    return Ok(reply);
                }
                if !st.inflight.contains(&key) {
                    st.inflight.insert(key);
                    let base = match st.cache.get(&key) {
                        Some(entry) => (entry.tally.clone(), entry.chunks),
                        None => (scenario.simulation().new_tally(), 0),
                    };
                    break base;
                }
                st = self.state_cv.wait(st).expect("service state");
            }
        };

        // Trace the missing chunks outside the state lock, bounded by
        // the worker pool; always release the in-flight claim.
        let traced = self.trace_chunks(scenario, &mut acc, have_chunks, want_chunks, cancel);
        let mut st = self.state.lock().expect("service state");
        st.inflight.remove(&key);
        let outcome = match traced {
            Ok(()) => {
                st.cache.insert(
                    key,
                    acc.clone(),
                    want_chunks,
                    self.options.chunk_photons,
                    self.options.chunk_tasks,
                );
                let served = if have_chunks == 0 { Served::Cold } else { Served::TopUp };
                Ok(QueryReply {
                    key,
                    tally: acc,
                    photons_done: want_chunks * self.options.chunk_photons,
                    served,
                })
            }
            Err(e) => Err(e),
        };
        drop(st);
        self.state_cv.notify_all();
        match &outcome {
            Ok(reply) => self.note(reply.served),
            Err(ServiceError::Cancelled) => self.note_cancelled(),
            Err(_) => {}
        }
        outcome
    }

    /// Left-fold chunks `have..want` onto `acc` (see the module docs for
    /// why this is the only merge order that preserves bit-identity).
    /// The cancel flag is checked before every chunk, so a dead client
    /// costs at most one chunk of wasted tracing; a cancelled fold is
    /// discarded whole (never cached) so the outcome of a query can
    /// never depend on how far an abandoned one happened to get.
    fn trace_chunks(
        &self,
        scenario: &Scenario,
        acc: &mut Tally,
        have: u64,
        want: u64,
        cancel: &AtomicBool,
    ) -> Result<(), ServiceError> {
        if cancel.load(Ordering::Relaxed) {
            return Err(ServiceError::Cancelled);
        }
        let _permit = self.acquire_permit();
        let backend =
            lumen_cluster::backend::from_spec(&self.options.backend_spec).map_err(engine_error)?;
        // One copy of the scenario (a voxel geometry is thousands of
        // cells) serves every chunk; only the stream offset moves.
        let mut piece = scenario
            .clone()
            .with_photons(self.options.chunk_photons)
            .with_tasks(self.options.chunk_tasks);
        for chunk in have..want {
            // Re-check between the cache-claim/permit wait and each
            // backend run: disconnects land mid-trace, not politely
            // before it.
            if cancel.load(Ordering::Relaxed) {
                return Err(ServiceError::Cancelled);
            }
            piece.task_offset = chunk * self.options.chunk_tasks;
            let report = backend.run(&piece).map_err(engine_error)?;
            acc.merge(&report.result.tally);
            self.note_chunk();
        }
        Ok(())
    }

    fn acquire_permit(&self) -> Permit<'_> {
        let mut free = self.permits.lock().expect("worker pool");
        while *free == 0 {
            free = self.permits_cv.wait(free).expect("worker pool");
        }
        *free -= 1;
        Permit { service: self }
    }

    fn note(&self, served: Served) {
        let c = &self.counts;
        c.queries.fetch_add(1, Ordering::Relaxed);
        let kind = match served {
            Served::Cold => &c.cold,
            Served::Warm => &c.warm,
            Served::TopUp => &c.topup,
        };
        kind.fetch_add(1, Ordering::Relaxed);
    }

    /// One chunk actually traced — counted as the work happens, so the
    /// ledger is accurate even for queries that later cancel or fail.
    fn note_chunk(&self) {
        self.counts.chunks_traced.fetch_add(1, Ordering::Relaxed);
    }

    fn note_cancelled(&self) {
        self.counts.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the service counters and cache state. The counters are
    /// read one by one, not as a unit: a query that finishes meanwhile
    /// may show in one and not yet in another.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counts;
        let st = self.state.lock().expect("service state");
        ServiceStats {
            queries: c.queries.load(Ordering::Relaxed),
            cold: c.cold.load(Ordering::Relaxed),
            warm: c.warm.load(Ordering::Relaxed),
            topup: c.topup.load(Ordering::Relaxed),
            chunks_traced: c.chunks_traced.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            evictions: st.cache.evictions(),
            entries: st.cache.len() as u64,
            cached_bytes: st.cache.total_bytes() as u64,
        }
    }
}

fn engine_error(e: EngineError) -> ServiceError {
    match e {
        EngineError::InvalidConfig(reason) => ServiceError::InvalidConfig(reason),
        other => ServiceError::Backend(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_core::{Detector, Source};
    use lumen_tissue::presets::semi_infinite_phantom;

    fn scenario(photons: u64) -> Scenario {
        Scenario::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(1.0, 0.5),
        )
        .with_photons(photons)
        .with_seed(11)
    }

    fn service(chunk: u64) -> SimulationService {
        SimulationService::new(
            ServiceOptions::default()
                .with_backend("sequential")
                .with_chunk_photons(chunk)
                .with_chunk_tasks(4),
        )
        .expect("valid options")
    }

    #[test]
    fn repeat_query_is_warm_and_byte_identical() {
        let svc = service(1_000);
        let first = svc.query(&scenario(2_000)).unwrap();
        assert_eq!(first.served, Served::Cold);
        assert_eq!(first.photons_done, 2_000);
        let second = svc.query(&scenario(2_000)).unwrap();
        assert_eq!(second.served, Served::Warm);
        assert_eq!(second.tally, first.tally);
        assert_eq!(svc.stats().chunks_traced, 2);
    }

    #[test]
    fn smaller_budget_is_served_from_the_larger_cache_entry() {
        let svc = service(1_000);
        let big = svc.query(&scenario(3_000)).unwrap();
        let small = svc.query(&scenario(1_000)).unwrap();
        assert_eq!(small.served, Served::Warm);
        assert_eq!(small.tally, big.tally, "cached tally returned as-is");
        assert_eq!(small.photons_done, 3_000, "response records the cached budget");
    }

    #[test]
    fn topup_equals_cold_run_bit_for_bit() {
        let warm_path = service(1_000);
        let a = warm_path.query(&scenario(1_000)).unwrap();
        assert_eq!(a.served, Served::Cold);
        let b = warm_path.query(&scenario(4_000)).unwrap();
        assert_eq!(b.served, Served::TopUp);

        let cold_path = service(1_000);
        let c = cold_path.query(&scenario(4_000)).unwrap();
        assert_eq!(c.served, Served::Cold);
        assert_eq!(b.tally, c.tally, "top-up path and cold path give the same bits");
        assert_eq!(b.photons_done, c.photons_done);
    }

    #[test]
    fn budgets_quantize_up_to_whole_chunks() {
        let svc = service(1_000);
        let reply = svc.query(&scenario(1_500)).unwrap();
        assert_eq!(reply.photons_done, 2_000);
        assert_eq!(reply.tally.launched, 2_000);
    }

    #[test]
    fn different_seeds_do_not_share_entries() {
        let svc = service(1_000);
        let a = svc.query(&scenario(1_000)).unwrap();
        let b = svc.query(&scenario(1_000).with_seed(99)).unwrap();
        assert_eq!(b.served, Served::Cold);
        assert_ne!(a.key, b.key);
        assert_ne!(a.tally, b.tally);
    }

    #[test]
    fn invalid_scenario_is_a_typed_error() {
        let svc = service(1_000);
        let mut bad = scenario(1_000);
        bad.detector.radius = -1.0;
        assert!(matches!(svc.query(&bad), Err(ServiceError::InvalidConfig(_))));
    }

    #[test]
    fn bad_backend_spec_fails_construction() {
        let err = SimulationService::new(ServiceOptions::default().with_backend("quantum"));
        assert!(matches!(err, Err(ServiceError::InvalidConfig(_))));
    }

    #[test]
    fn a_timing_model_is_not_a_backend() {
        // The DES traces no photons; serving it would cache an empty tally
        // as the answer to every query.
        let err = SimulationService::new(ServiceOptions::default().with_backend("sim 4"));
        assert!(matches!(err, Err(ServiceError::InvalidConfig(_))), "{err:?}");
    }
}
