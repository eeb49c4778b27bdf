//! The paths a job can take — the real backends, timed as a caller sees them
//! — and, where a backend is opaque from outside, a *replica* of it built
//! only from public functions, with a span around each call. A replica's
//! tally must equal the real backend's bit for bit: that is what proves its
//! spans describe the same work.

use crate::trace::SpanLog;
use lumen_cluster::net::{
    handshake, read_frame, write_frame, KIND_ASSIGN, KIND_COMPLETE, KIND_REQUEST, KIND_SHUTDOWN,
};
use lumen_cluster::{
    run_client, serve_with_options, wire, DataManager, ServeOptions, ThreadedCluster,
};
use lumen_core::engine::{Backend, NoProgress, Scenario, Sequential};
use lumen_core::{Simulation, Tally};
use mcrng::StreamFactory;
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;

/// Workers of the parallel paths: one per core of the two-core container.
pub const WORKERS: usize = 2;

pub struct JobOut {
    pub tally: Tally,
    pub requeues: u64,
}

pub fn sequential(s: &Scenario) -> Result<JobOut, String> {
    run_backend(&Sequential, s)
}

pub fn cluster2(s: &Scenario) -> Result<JobOut, String> {
    run_backend(&ThreadedCluster::new(WORKERS), s)
}

fn run_backend(backend: &dyn Backend, s: &Scenario) -> Result<JobOut, String> {
    let report = backend.run(s).map_err(|e| e.to_string())?;
    Ok(JobOut { tally: report.result.tally, requeues: report.requeues })
}

/// What the loopback TCP path returns: the job, how many clients the server
/// admitted, and what each client loop handed back.
type Served<T> = (JobOut, usize, Vec<T>);

/// The loopback TCP path: bind, start [`WORKERS`] client threads, serve.
/// `client` is the loop each thread runs — [`run_client`] for the real
/// path, [`spanned_client`] for the replica.
fn serve_loopback<T: Send>(
    s: &Scenario,
    client: impl Fn(usize, &str, &Simulation) -> Result<T, String> + Sync,
) -> Result<Served<T>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let sim = s.simulation();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|i| {
                let (client, addr, sim) = (&client, addr.as_str(), &sim);
                scope.spawn(move || client(i, addr, sim))
            })
            .collect();
        let served = serve_with_options(
            listener,
            &sim,
            s.photons,
            s.tasks,
            ServeOptions::default().with_min_clients(WORKERS).with_task_offset(s.task_offset),
            &NoProgress,
        );
        // A failed server has closed the sockets, so the clients end either way.
        let from_clients = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "tcp client panicked".to_string())?)
            .collect::<Result<Vec<T>, String>>()?;
        let report = served.map_err(|e| e.to_string())?;
        let out = JobOut { tally: report.result.tally, requeues: report.requeues };
        Ok((out, report.clients_served, from_clients))
    })
}

/// `serve_with_options` + two in-process `run_client` loops over loopback.
pub fn tcp2(s: &Scenario) -> Result<JobOut, String> {
    tcp2_counted(s).map(|(out, _)| out)
}

/// [`tcp2`], also returning how many clients the server admitted.
pub fn tcp2_counted(s: &Scenario) -> Result<(JobOut, usize), String> {
    let seed = s.seed;
    let (out, clients, _) =
        serve_loopback(s, |_, addr, sim| run_client(addr, sim, seed).map_err(|e| e.to_string()))?;
    Ok((out, clients))
}

/// One task as every backend runs it, a span per call.
fn spanned_task(
    sim: &Simulation,
    factory: &StreamFactory,
    task_id: u64,
    photons: u64,
    log: &mut SpanLog,
) -> Tally {
    let mut rng = log.span("mcrng.stream", |_| factory.stream(task_id));
    let mut tally = log.span("core.new_tally", |_| sim.new_tally());
    log.span("core.kernel.run_stream", |_| sim.run_stream(photons, &mut rng, &mut tally, None));
    tally
}

/// Replica of `Sequential`: validate → batches → per task {stream, new_tally,
/// run_stream, merge}.
pub fn sequential_replica(s: &Scenario, log: &mut SpanLog) -> Result<Tally, String> {
    log.span("job", |log| {
        log.span("core.validate", |_| s.validate()).map_err(|e| e.to_string())?;
        let sim = log.span("core.simulation", |_| s.simulation());
        let factory = StreamFactory::new(s.seed);
        let batches = log.span("core.batches", |_| s.batches());
        let mut merged = log.span("core.new_tally", |_| sim.new_tally());
        for (i, &photons) in batches.iter().enumerate() {
            let tally = spanned_task(&sim, &factory, s.task_offset + i as u64, photons, log);
            log.span("core.tally_merge", |_| merged.merge(&tally));
        }
        Ok(merged)
    })
}

/// Replica of `ThreadedCluster(2)`: the public `DataManager` behind a lock,
/// two threads that assign → trace → complete until the queue is dry.
pub fn cluster2_replica(s: &Scenario, log: &mut SpanLog) -> Result<Tally, String> {
    log.span("job", |log| {
        s.validate().map_err(|e| e.to_string())?;
        let sim = s.simulation();
        let factory = StreamFactory::new(s.seed);
        let dm = Mutex::new(DataManager::with_offset(
            s.photons,
            s.tasks,
            s.task_offset,
            sim.new_tally(),
            WORKERS,
        ));
        let forks: Vec<SpanLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|worker| {
                    let mut log = log.fork(worker as u32 + 1);
                    let (sim, factory, dm) = (&sim, &factory, &dm);
                    scope.spawn(move || {
                        loop {
                            let next = log.span("cluster.dm.assign", |_| {
                                dm.lock().expect("datamanager lock").assign()
                            });
                            let Some(task) = next else { break };
                            let tally =
                                spanned_task(sim, factory, task.task_id, task.photons, &mut log);
                            log.span("cluster.dm.complete", |_| {
                                dm.lock().expect("datamanager lock").complete(worker, task, &tally)
                            });
                        }
                        log
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("replica worker")).collect()
        });
        forks.into_iter().for_each(|fork| log.absorb(fork));
        let dm = dm.into_inner().expect("datamanager lock");
        Ok(log.span("cluster.dm.into_results", |_| dm.into_results()).0)
    })
}

/// The client loop of `run_client`, rebuilt from the public frame and wire
/// functions with a span around each: request-wait, decode, trace, encode,
/// write. Returns its log.
fn spanned_client(
    addr: &str,
    sim: &Simulation,
    seed: u64,
    mut log: SpanLog,
) -> Result<SpanLog, String> {
    let err = |e: lumen_cluster::NetError| e.to_string();
    let mut stream = log
        .span("net.connect", |_| {
            TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|_| s))
        })
        .map_err(|e| e.to_string())?;
    log.span("cluster.net.handshake", |_| handshake(&mut stream)).map_err(err)?;
    let factory = StreamFactory::new(seed);
    loop {
        log.span("cluster.net.request_write", |_| write_frame(&mut stream, KIND_REQUEST, &[]))
            .map_err(err)?;
        let (kind, payload) =
            log.span("cluster.net.assign.wait", |_| read_frame(&mut stream)).map_err(err)?;
        match kind {
            KIND_SHUTDOWN => return Ok(log),
            KIND_ASSIGN => {
                let task = log
                    .span("cluster.wire.decode_task", |_| wire::decode_task(&payload))
                    .map_err(|e| e.to_string())?;
                let tally = spanned_task(sim, &factory, task.task_id, task.photons, &mut log);
                let bytes = log.span("cluster.wire.encode_tally", |_| wire::encode_tally(&tally));
                log.span("cluster.net.complete_write", |_| {
                    write_frame(&mut stream, KIND_COMPLETE, &bytes)
                })
                .map_err(err)?;
            }
            other => return Err(format!("unexpected frame kind {other:#x}")),
        }
    }
}

/// Replica of the TCP path: the real `serve_with_options` (whose inside is
/// not visible from here) serving two [`spanned_client`] loops. Server self
/// time is the job minus what the client spans cover.
pub fn tcp2_replica(s: &Scenario, log: &mut SpanLog) -> Result<Tally, String> {
    log.span("job", |log| {
        let seed = s.seed;
        let root = &*log;
        let (out, _, forks) = serve_loopback(s, |i, addr, sim| {
            spanned_client(addr, sim, seed, root.fork(i as u32 + 1))
        })?;
        forks.into_iter().for_each(|fork| log.absorb(fork));
        Ok(out.tally)
    })
}
