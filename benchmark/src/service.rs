//! The `service_mix` session: an in-process `ServiceServer` and two scripted
//! clients in a closed loop, phase-aligned by a barrier so that both cold
//! traces are in flight at once and both warm bursts are too. Between rounds,
//! while the clients wait, the calling thread runs the single-thread twin of
//! a cold query and the set-up cycles, and confines the whole process, daemon
//! included, to the core whose turn it is.

use crate::checks::Checks;
use crate::host::Cores;
use crate::inputs::{
    ServiceScript, CHUNK_PHOTONS, CHUNK_TASKS, CLIENTS, VOXEL_WARM_PER_ROUND, WARM_PER_ROUND,
};
use crate::jobs;
use crate::stats::Series;
use crate::trace::SpanLog;
use crate::workloads::{due, STINT};
use lumen_cluster::net::{handshake, read_frame, write_frame};
use lumen_cluster::wire;
use lumen_core::engine::Scenario;
use lumen_service::proto::{self, KIND_QUERY, KIND_RESULT};
use lumen_service::{
    scenario_key, QueryReply, ResultCache, Served, ServiceClient, ServiceOptions, ServiceServer,
    ServiceStats, SimulationService,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// A daemon as `service_mix` configures it, on an ephemeral loopback port.
pub struct Daemon {
    pub service: Arc<SimulationService>,
    pub server: ServiceServer,
}

/// The daemon's core as `service_mix` configures it.
pub fn options(script: &ServiceScript) -> ServiceOptions {
    ServiceOptions::default()
        .with_backend("sequential")
        .with_workers(CLIENTS)
        .with_chunk_photons(CHUNK_PHOTONS)
        .with_chunk_tasks(CHUNK_TASKS)
        .with_max_cache_bytes(cache_budget(script))
}

impl Daemon {
    pub fn start(script: &ServiceScript) -> Result<Self, String> {
        let service = Arc::new(SimulationService::new(options(script)).map_err(|e| e.to_string())?);
        let server =
            ServiceServer::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| e.to_string())?;
        Ok(Self { service, server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// Bytes for `cache_rounds` rounds of head entries plus the voxel entry.
/// Entries are sized by their wire encoding, which depends only on the
/// tally's shape, so an empty tally measures it.
fn cache_budget(script: &ServiceScript) -> usize {
    let entry = |s: &Scenario| {
        wire::encode_tally(&s.simulation().new_tally()).len() + std::mem::size_of::<[u8; 32]>()
    };
    let head = entry(&script.fresh[0][0]);
    CLIENTS * script.plan.cache_rounds * head + entry(&script.voxel) + head / 2
}

/// The client side of one query; the replica records a span per leg.
pub trait Querier {
    fn query(&mut self, s: &Scenario, log: &mut SpanLog) -> Result<QueryReply, String>;
}

impl Querier for ServiceClient {
    fn query(&mut self, s: &Scenario, _log: &mut SpanLog) -> Result<QueryReply, String> {
        ServiceClient::query(self, s).map_err(|e| e.to_string())
    }
}

/// `ServiceClient` rebuilt from the public frame, wire and proto functions.
pub struct SpannedClient(TcpStream);

impl SpannedClient {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        handshake(&mut stream).map_err(|e| e.to_string())?;
        Ok(Self(stream))
    }
}

impl Querier for SpannedClient {
    fn query(&mut self, s: &Scenario, log: &mut SpanLog) -> Result<QueryReply, String> {
        log.span("service.query", |log| {
            let bytes = log.span("cluster.wire.encode_scenario", |_| wire::encode_scenario(s));
            log.span("cluster.net.query_write", |_| write_frame(&mut self.0, KIND_QUERY, &bytes))
                .map_err(|e| e.to_string())?;
            let (kind, payload) = log
                .span("service.reply.wait", |_| read_frame(&mut self.0))
                .map_err(|e| e.to_string())?;
            if kind != KIND_RESULT {
                return Err(format!("daemon answered with frame kind {kind:#x}"));
            }
            log.span("service.proto.decode_reply", |_| proto::decode_reply(&payload))
                .map_err(|e| e.to_string())
        })
    }
}

/// What one client measured over its rounds (seconds).
#[derive(Default)]
pub struct ClientSeries {
    pub cold: Series,
    pub topup: Series,
    /// Per-round median of the warm round trips on the round's own key.
    pub warm_median: Series,
    /// Per-round median of the warm round trips on the voxel key.
    pub warm_voxel_median: Series,
    /// Every warm round trip, pooled (for the p99 diagnostic).
    pub warm_all: Series,
    /// When this client left the round's first barrier and when it sent and
    /// got back its cold query: the cold phase and the round as this client
    /// saw them (see [`SessionOut::pair_wall`]).
    pub cold_at: Vec<(Instant, Instant)>,
    pub round_at: Vec<(Instant, Instant)>,
}

/// What the calling thread of a plain run's session does between rounds,
/// each so many times, spread evenly over the session.
#[derive(Clone, Copy)]
pub struct Between<'a> {
    /// Bare `Sequential` runs of one chunk: the single-thread twin of a cold
    /// query, a diagnostic.
    pub twin_samples: usize,
    pub setup_cycles: usize,
    pub cycle: &'a (dyn Fn() -> Result<(), String> + Sync),
}

pub struct SessionOut {
    pub clients: Vec<ClientSeries>,
    /// The twin runs (see [`Between`]).
    pub twin: Series,
    /// The set-up cycles.
    pub setup: Series,
    pub stats: ServiceStats,
    pub checks: Checks,
    /// Both clients' spans (empty unless the session was traced).
    pub log: SpanLog,
}

impl SessionOut {
    /// One series pooled over both clients.
    pub fn pooled(&self, pick: impl Fn(&ClientSeries) -> &Series) -> Series {
        let mut all = Series::default();
        self.clients.iter().for_each(|c| all.extend(pick(c)));
        all
    }

    /// How far the daemon overlaps the two cold queries of a round: the
    /// shorter round trip over the pair's wall, median over rounds. Near 1
    /// when both are in flight to the end, 0.5 when one waits for the other.
    pub fn cold_overlap(&self) -> f64 {
        let mut shares = Series::default();
        let walls = self.pair_wall(|c| &c.cold_at);
        for (round, wall) in walls.iter().enumerate() {
            let shorter = self
                .clients
                .iter()
                .map(|c| c.cold_at[round].1.duration_since(c.cold_at[round].0).as_secs_f64())
                .fold(f64::INFINITY, f64::min);
            shares.push(shorter / wall);
        }
        shares.median()
    }

    /// Per round, the wall both clients' spans cover together: from the
    /// first to start to the last to end. (One client's own clock would miss
    /// what the other did before the scheduler woke this one.)
    pub fn pair_wall(&self, pick: impl Fn(&ClientSeries) -> &[(Instant, Instant)]) -> Series {
        let mut walls = Series::default();
        let rounds = self.clients.iter().map(|c| pick(c).len()).min().unwrap_or(0);
        for round in 0..rounds {
            let spans = self.clients.iter().map(|c| pick(c)[round]);
            let first = spans.clone().map(|(start, _)| start).min();
            let last = spans.map(|(_, end)| end).max();
            if let Some((first, last)) = first.zip(last) {
                walls.push(last.duration_since(first).as_secs_f64());
            }
        }
        walls
    }
}

fn reply_ok(reply: &QueryReply, served: Served, photons: u64) -> bool {
    reply.served == served && reply.photons_done == photons && reply.tally.launched == photons
}

/// Span job id of every query that is not a traced warm query on the
/// round's own key (those are numbered `round * WARM_PER_ROUND + i`).
pub const OTHER_QUERY: u32 = u32::MAX;

/// The server-side legs of a warm query, run in-process beside the traced
/// round trip (and outside its timing): hash the scenario, hit a cache that
/// holds the entry, encode the reply. They are the part of
/// `service.reply.wait` the daemon itself spends.
fn inprocess_legs(s: &Scenario, reply: &QueryReply, cache: &mut ResultCache, log: &mut SpanLog) {
    let key = log.span("service.hash.scenario_key", |_| scenario_key(s));
    log.span("service.cache.get", |_| cache.get(&key).map(|e| e.chunks));
    log.span("service.proto.encode_reply", |_| proto::encode_reply(reply));
}

/// One client's whole script, through the real client or the replica. Every
/// path reaches every barrier, whatever fails on the way.
fn run_client(
    me: usize,
    mut q: Box<dyn Querier + Send>,
    script: &ServiceScript,
    barriers: &Barriers,
    mut log: SpanLog,
) -> (ClientSeries, Checks, SpanLog) {
    let mut out = ClientSeries::default();
    let mut checks = Checks::default();
    let two_chunks = 2 * CHUNK_PHOTONS;
    let barrier = &barriers.phase;

    // Prelude: populate the voxel key, and have a second, empty service
    // trace this client's first key cold at two chunks, for the top-up
    // identity check.
    if me == 0 {
        let reply = checks.op("voxel prelude", q.query(&script.voxel, &mut SpanLog::off()));
        checks.check(reply.is_some_and(|r| reply_ok(&r, Served::Cold, CHUNK_PHOTONS)), || {
            "voxel prelude was not a one-chunk cold reply".into()
        });
    }
    let cold_two_chunks = checks.op(
        "cold two-chunk run",
        SimulationService::new(options(script))
            .and_then(|fresh| fresh.query(&ServiceScript::topped_up(&script.fresh[me][0])))
            .map_err(|e| e.to_string()),
    );

    log.set_job(OTHER_QUERY);
    for round in 0..script.rounds() {
        let fresh = &script.fresh[me][round];
        let topped = ServiceScript::topped_up(fresh);
        barriers.round.wait();
        let started = Instant::now();
        let cold = q.query(fresh, &mut log);
        out.cold.push(started.elapsed().as_secs_f64());
        out.cold_at.push((started, Instant::now()));
        let cold = checks.op("cold query", cold);
        checks.check(cold.is_some_and(|r| reply_ok(&r, Served::Cold, CHUNK_PHOTONS)), || {
            format!("round {round}: cold reply has the wrong kind or budget")
        });
        barrier.wait();

        let started = Instant::now();
        let top = q.query(&topped, &mut log);
        out.topup.push(started.elapsed().as_secs_f64());
        let top = checks.op("top-up query", top);
        checks.check(top.as_ref().is_some_and(|r| reply_ok(r, Served::TopUp, two_chunks)), || {
            format!("round {round}: top-up reply has the wrong kind or budget")
        });
        if round == 0 {
            let same = cold_two_chunks.as_ref().zip(top.as_ref()).is_some_and(|(cold, top)| {
                wire::encode_tally(&cold.tally) == wire::encode_tally(&top.tally)
            });
            checks.check(same, || "top-up reply differs from a cold two-chunk run".into());
        }
        barrier.wait();

        // What the daemon's cache holds for this key, for the in-process legs.
        let mut beside = ResultCache::new(usize::MAX);
        if let (true, Some(top)) = (log.enabled(), &top) {
            beside.insert(top.key, top.tally.clone(), 2, CHUNK_PHOTONS, CHUNK_TASKS);
        }
        // The warm bursts take turns: a round trip timed while the other
        // client's query is in the daemon would include that query's service.
        for turn in 0..CLIENTS {
            if turn != me {
                barrier.wait();
                continue;
            }
            for (key, count, medians, expect) in [
                (&topped, WARM_PER_ROUND, &mut out.warm_median, top.as_ref()),
                (&script.voxel, VOXEL_WARM_PER_ROUND, &mut out.warm_voxel_median, None),
            ] {
                let mut burst = Series::with_capacity(count);
                for i in 0..count {
                    if expect.is_some() {
                        log.set_job((round * WARM_PER_ROUND + i) as u32);
                    }
                    let started = Instant::now();
                    let reply = q.query(key, &mut log);
                    let took = started.elapsed().as_secs_f64();
                    burst.push(took);
                    out.warm_all.push(took);
                    let Some(reply) = checks.op("warm query", reply) else { continue };
                    let same = expect
                        .map_or(reply.photons_done == CHUNK_PHOTONS, |t| reply.tally == t.tally);
                    checks.check(reply.served == Served::Warm && same, || {
                        format!("round {round}: warm reply is not the cached result")
                    });
                    if expect.is_some() && log.enabled() {
                        inprocess_legs(key, &reply, &mut beside, &mut log);
                    }
                }
                log.set_job(OTHER_QUERY);
                medians.push(burst.median());
            }
            barrier.wait();
        }
        if let Some(old) = script.revisit(me, round) {
            let reply = checks.op("revisit query", q.query(old, &mut log));
            checks.check(reply.is_some_and(|r| reply_ok(&r, Served::Warm, two_chunks)), || {
                format!("round {round}: the revisited key was not served warm at two chunks")
            });
        }
        out.round_at.push((started, Instant::now()));
        barrier.wait();
        barriers.round.wait();
    }
    (out, checks, log)
}

/// `phase` aligns the clients inside a round; `round` also holds the calling
/// thread, which works between rounds while the clients wait for it.
struct Barriers {
    phase: Barrier,
    round: Barrier,
}

/// The calling thread's side of a session: confine the process to the core
/// whose turn it is (see `host::Cores`), release the clients into each round,
/// wait for them to finish it, then run what is due between rounds.
fn between_rounds(
    script: &ServiceScript,
    barriers: &Barriers,
    between: Option<Between>,
    out: &mut SessionOut,
) {
    let chunk_job = script.fresh[0][0].clone().with_photons(CHUNK_PHOTONS).with_tasks(CHUNK_TASKS);
    let mut cores = Cores::of_this_process(STINT);
    let rounds = script.rounds();
    for round in 0..rounds {
        cores.confine();
        barriers.round.wait();
        barriers.round.wait();
        let Some(between) = between else { continue };
        if due(round, rounds, between.twin_samples) {
            let started = Instant::now();
            let twin = jobs::sequential(&chunk_job);
            out.twin.push(started.elapsed().as_secs_f64());
            let twin = out.checks.op("twin chunk run", twin);
            out.checks.check(twin.is_some_and(|r| r.tally.launched == CHUNK_PHOTONS), || {
                "twin chunk run dropped photons".into()
            });
        }
        if due(round, rounds, between.setup_cycles) {
            let started = Instant::now();
            let outcome = (between.cycle)();
            out.setup.push(started.elapsed().as_secs_f64());
            out.checks.op("set-up cycle", outcome);
        }
    }
    cores.release();
}

/// Serve `script` to [`CLIENTS`] clients and check everything they get
/// back, down to the daemon's own counters. With an enabled `log` the
/// clients are the spanned replica, otherwise the real `ServiceClient`.
pub fn run_session(
    script: &ServiceScript,
    log: &SpanLog,
    between: Option<Between>,
) -> Result<SessionOut, String> {
    let daemon = Daemon::start(script)?;
    let addr = daemon.addr();
    // Connect before any thread can wait at the barrier.
    let clients = (0..CLIENTS)
        .map(|_| -> Result<Box<dyn Querier + Send>, String> {
            Ok(if log.enabled() {
                Box::new(SpannedClient::connect(addr)?)
            } else {
                Box::new(ServiceClient::connect(addr).map_err(|e| e.to_string())?)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let barriers = Barriers { phase: Barrier::new(CLIENTS), round: Barrier::new(CLIENTS + 1) };
    let mut out = SessionOut {
        clients: Vec::new(),
        twin: Series::default(),
        setup: Series::default(),
        stats: ServiceStats::default(),
        checks: Checks::default(),
        log: log.fork(0),
    };
    let per_client: Vec<(ClientSeries, Checks, SpanLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(me, client)| {
                let (barriers, log) = (&barriers, log.fork(me as u32));
                scope.spawn(move || run_client(me, client, script, barriers, log))
            })
            .collect();
        between_rounds(script, &barriers, between, &mut out);
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "service client panicked".to_string()))
            .collect::<Result<_, String>>()
    })?;
    let stats = daemon.service.stats();
    out.stats = stats;
    daemon.server.shutdown();

    for (series, checks, log) in per_client {
        out.clients.push(series);
        out.checks.absorb(checks);
        out.log.absorb(log);
    }
    let want = script.expected_stats();
    let got =
        (stats.queries, stats.cold, stats.warm, stats.topup, stats.chunks_traced, stats.evictions);
    out.checks.check(
        got == (want.queries, want.cold, want.warm, want.topup, want.chunks_traced, want.evictions)
            && stats.cancelled == 0,
        || format!("daemon counters {stats:?} differ from the script's {want:?}"),
    );
    Ok(out)
}

/// One set-up cycle's tail: start the daemon, connect both clients, take
/// the first cold reply, tear everything down.
pub fn first_cold_reply(script: &ServiceScript) -> Result<(), String> {
    let daemon = Daemon::start(script)?;
    let mut clients = (0..CLIENTS)
        .map(|_| ServiceClient::connect(daemon.addr()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let reply = clients[0].query(&script.fresh[0][0]).map_err(|e| e.to_string())?;
    drop(clients);
    daemon.server.shutdown();
    if reply_ok(&reply, Served::Cold, CHUNK_PHOTONS) {
        Ok(())
    } else {
        Err("first reply was not a one-chunk cold reply".into())
    }
}
