//! `lumend`'s TCP front end: one daemon, many query connections.
//!
//! Built on the shared transport core ([`lumen_net::EventLoop`]), the
//! same readiness loop that runs the cluster runtime: a single poll
//! thread owns every connection (hundreds multiplex fine — there is no
//! thread per socket to run out of). The loop is greeted with
//! [`wire::VERSION`], so the connection rules are the cluster server's
//! by construction, not by copy: it admits a peer only after a matching
//! HELLO (always answering its own version first, so an out-of-date
//! client can diagnose itself), echoes PING itself, and cuts a peer
//! silent before its HELLO or stalled mid-frame for `STALL_GUARD`. The
//! handler sees only what follows the handshake: queries, and the unknown
//! kinds it refuses.
//!
//! The poll thread answers everything that needs no photon: it decodes a
//! query, validates and hashes it, looks it up, and on a hit encodes and
//! sends the reply before `on_frame` returns — one socket round trip, no
//! hand-off, and never queued behind a trace. Each connection keeps its
//! last query that validated, payload and key, so a byte-for-byte repeat
//! skips the decode, the validation and the hash and goes straight to the
//! lookup; if its entry has since been evicted it is decoded again, only
//! for the scenario to trace. A repeat is a [`crate::ServiceClient`] asking
//! for the same scenario again on its connection; `lumen query` asks once
//! per connection and never repeats. The key is a pure function of the
//! payload bytes, so replies, counters and the cache are exactly what the
//! full path gives. The kept payload costs each live connection up to the
//! size of its largest valid query. What it may hold is the
//! service's state lock, for at most one tally clone (see
//! `SimulationService::lookup`). A trace is the one thing that must *not*
//! run there — it blocks for seconds — so a miss goes, with the key the
//! poll thread already computed, to a small executor pool
//! ([`ServiceOptions::workers`](crate::service::ServiceOptions::workers)
//! threads) that claims the key or waits for its holder, traces, stores,
//! and hands the result back through a completion channel plus a
//! [`lumen_net::Waker`]. Each dispatched query carries a cancel flag the
//! loop raises the instant the querying connection dies, so a client
//! disconnect can burn at most one chunk of worker-pool budget instead
//! of tracing a full scenario nobody will read.
//!
//! Connections are fault-isolated: a malformed query earns a typed
//! [`KIND_ERROR`] reply on a connection that stays open, an unknown
//! frame kind earns one on a connection that then closes, and a client
//! that disconnects — or is cut for stalling mid-frame — cancels only its
//! own query. The shared [`SimulationService`] (cache, in-flight claims,
//! worker pool) outlives any connection.

use crate::proto::{self, KIND_ERROR, KIND_QUERY, KIND_RESULT};
use crate::service::{Prepared, QueryReply, ServiceError, SimulationService};
use lumen_cluster::wire;
use lumen_cluster::NetError;
use lumen_core::engine::Scenario;
use lumen_net::{EventLoop, Flow, Handler, Ops, Token, Waker};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The greeted loop's `within`: the handshake grace period, and how long
/// a frame may take to finish arriving once its first byte is here.
const STALL_GUARD: Duration = Duration::from_secs(10);

/// One cache miss handed to the executor pool, already validated and
/// hashed by the poll thread.
struct Job {
    token: Token,
    generation: u64,
    scenario: Scenario,
    prepared: Prepared,
    cancel: Arc<AtomicBool>,
}

/// One finished query coming back to the poll loop.
struct Completion {
    token: Token,
    generation: u64,
    result: Result<QueryReply, ServiceError>,
}

/// A running daemon; dropping it (or calling [`ServiceServer::shutdown`])
/// stops the poll loop, cancels in-flight queries, and releases the port.
#[derive(Debug)]
pub struct ServiceServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    loop_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ServiceServer {
    /// Bind `addr` and start serving `service`: one poll-loop thread for
    /// all connections and every cache hit, [`ServiceOptions::workers`](crate::service::ServiceOptions::workers)
    /// executor threads for the traces.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<SimulationService>,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut events = EventLoop::greeted(listener, wire::VERSION, STALL_GUARD)?;
        let waker = events.waker()?;
        let stop = Arc::new(AtomicBool::new(false));

        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let jobs = Arc::new(Mutex::new(job_rx));
        let mut worker_threads = Vec::with_capacity(service.options().workers);
        for _ in 0..service.options().workers {
            let jobs = Arc::clone(&jobs);
            let service = Arc::clone(&service);
            let done_tx = done_tx.clone();
            let waker = waker.try_clone()?;
            worker_threads.push(thread::spawn(move || worker_loop(jobs, service, done_tx, waker)));
        }

        let loop_thread = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut daemon = Daemon {
                    service,
                    peers: HashMap::new(),
                    job_tx,
                    done_rx,
                    next_generation: 0,
                    stop,
                };
                // Loop failures (a dying listener) end the daemon; the
                // bound `ServiceServer` still shuts down cleanly.
                let _ = events.run(&mut daemon);
            })
        };

        Ok(Self { addr, stop, waker, loop_thread: Some(loop_thread), worker_threads })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving: close every connection, cancel in-flight queries,
    /// and join the loop and executor threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        // The loop thread dropped the job sender and cancelled every
        // dispatched query, so the workers drain and exit promptly.
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Executor thread: pull misses, trace and store them against the shared
/// service (cancellable), hand results back to the poll loop.
fn worker_loop(
    jobs: Arc<Mutex<mpsc::Receiver<Job>>>,
    service: Arc<SimulationService>,
    done_tx: mpsc::Sender<Completion>,
    waker: Waker,
) {
    loop {
        // Hold the receiver lock only while waiting for one job; traces
        // run unlocked so the pool actually executes in parallel.
        let job = match jobs.lock() {
            Ok(rx) => match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // daemon gone
            },
            Err(_) => return,
        };
        let result = service.trace_and_store(&job.scenario, &job.prepared, &job.cancel);
        if done_tx
            .send(Completion { token: job.token, generation: job.generation, result })
            .is_err()
        {
            return;
        }
        waker.wake();
    }
}

/// One admitted connection's protocol state.
#[derive(Debug, Default)]
struct Peer {
    /// The miss this peer waits on; `None` while idle.
    busy: Option<Busy>,
    /// The last query that validated: its payload, and what `prepare` made
    /// of it. A byte-equal repeat goes straight to `lookup`.
    last: Option<(Vec<u8>, Prepared)>,
}

/// A miss is with the executor pool. Further queries — hits too, so
/// replies keep request order — queue here and are answered in order;
/// `cancel` aborts the trace if the connection dies first.
#[derive(Debug)]
struct Busy {
    generation: u64,
    cancel: Arc<AtomicBool>,
    queued: VecDeque<Vec<u8>>,
}

impl Peer {
    /// Abort the trace this peer waits on, if any.
    fn cancel(&self) {
        if let Some(busy) = &self.busy {
            busy.cancel.store(true, Ordering::Relaxed);
        }
    }

    /// Everything the poll thread can do with one query by itself. A
    /// repeat of the `last` payload keeps its `Prepared`: on a hit it is
    /// not decoded at all, and if its entry has been evicted it is decoded
    /// only for the scenario to trace. Anything else is decoded, validated
    /// and hashed, looked up, and, if it validated, becomes `last`.
    fn answer(&mut self, service: &SimulationService, payload: Vec<u8>) -> Inline {
        let result = |reply: QueryReply| Inline::Frame(KIND_RESULT, proto::encode_reply(&reply));
        let repeat = self.last.as_ref().filter(|(bytes, _)| *bytes == payload).map(|&(_, p)| p);
        if let Some(reply) = repeat.and_then(|prepared| service.lookup(&prepared)) {
            return result(reply);
        }
        let scenario = match wire::decode_scenario(&payload) {
            Ok(scenario) => scenario,
            Err(e) => {
                let msg = format!("malformed scenario: {e}");
                return Inline::Frame(KIND_ERROR, proto::encode_error(&msg));
            }
        };
        let prepared = match repeat.map_or_else(|| service.prepare(&scenario), Ok) {
            Ok(prepared) => prepared,
            Err(e) => return Inline::Frame(KIND_ERROR, proto::encode_error(&e.to_string())),
        };
        let reply = if repeat.is_some() { None } else { service.lookup(&prepared) };
        self.last = Some((payload, prepared));
        match reply {
            Some(reply) => result(reply),
            None => Inline::Miss(Box::new((scenario, prepared))),
        }
    }
}

/// What the poll thread made of one query by itself.
enum Inline {
    /// The frame that answers it: a typed error for a malformed or
    /// invalid query, the reply for a hit.
    Frame(u8, Vec<u8>),
    /// A miss, validated and hashed, for the executor pool (boxed: a
    /// scenario is some 600 bytes, and a miss is the rare, slow case).
    Miss(Box<(Scenario, Prepared)>),
}

/// The daemon protocol as a [`Handler`] on the shared poll loop.
struct Daemon {
    service: Arc<SimulationService>,
    peers: HashMap<Token, Peer>,
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<Completion>,
    next_generation: u64,
    stop: Arc<AtomicBool>,
}

impl Daemon {
    /// Serve one query and then its `queued` follow-ups, inline, up to
    /// the first cache miss, which is dispatched and parks the connection
    /// `Busy` with what is still queued. Errors leave the connection open.
    fn start_query(
        &mut self,
        ops: &mut Ops<'_>,
        token: Token,
        payload: Vec<u8>,
        mut queued: VecDeque<Vec<u8>>,
    ) {
        let mut next = Some(payload);
        while let Some(bytes) = next.take() {
            let Some(peer) = self.peers.get_mut(&token) else { return };
            let (scenario, prepared) = match peer.answer(&self.service, bytes) {
                Inline::Frame(kind, frame) => {
                    ops.send(token, kind, &frame);
                    next = queued.pop_front();
                    continue;
                }
                Inline::Miss(miss) => *miss,
            };
            self.next_generation += 1;
            let generation = self.next_generation;
            let cancel = Arc::new(AtomicBool::new(false));
            let job = Job { token, generation, scenario, prepared, cancel: Arc::clone(&cancel) };
            if self.job_tx.send(job).is_err() {
                // Executor pool gone: the daemon is shutting down.
                ops.close(token);
                self.peers.remove(&token);
                return;
            }
            peer.busy = Some(Busy { generation, cancel, queued });
            return;
        }
    }
}

impl Handler for Daemon {
    fn on_open(&mut self, _ops: &mut Ops<'_>, token: Token) {
        self.peers.insert(token, Peer::default());
    }

    fn on_frame(&mut self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: Vec<u8>) {
        match (self.peers.get_mut(&token), kind) {
            (None, _) => ops.close(token),
            (Some(Peer { busy: Some(busy), .. }), KIND_QUERY) => busy.queued.push_back(payload),
            (Some(_), KIND_QUERY) => self.start_query(ops, token, payload, VecDeque::new()),
            (Some(_), other) => {
                // Typed rejection, then close: an unknown kind means the
                // peer and daemon disagree about the protocol.
                if let Some(peer) = self.peers.remove(&token) {
                    peer.cancel();
                }
                let msg = format!("unsupported frame kind 0x{other:02x}");
                ops.send(token, KIND_ERROR, &proto::encode_error(&msg));
                ops.finish(token);
            }
        }
    }

    fn on_close(&mut self, _ops: &mut Ops<'_>, token: Token) {
        // The instant a querying client dies — or the loop cuts it for
        // stalling mid-frame — its trace is told to stop: this is what
        // keeps a lost client from burning minutes of worker-pool budget
        // on an answer nobody will read.
        if let Some(peer) = self.peers.remove(&token) {
            peer.cancel();
        }
    }

    fn on_wake(&mut self, ops: &mut Ops<'_>) {
        while let Ok(done) = self.done_rx.try_recv() {
            let busy = self
                .peers
                .get_mut(&done.token)
                .and_then(|peer| peer.busy.take_if(|busy| busy.generation == done.generation));
            // Connection gone (its cancel produced this completion) or
            // superseded: nobody is waiting for these bytes.
            let Some(Busy { mut queued, .. }) = busy else { continue };
            match done.result {
                Ok(reply) => {
                    ops.send(done.token, KIND_RESULT, &proto::encode_reply(&reply));
                }
                Err(e) => {
                    ops.send(done.token, KIND_ERROR, &proto::encode_error(&e.to_string()));
                }
            }
            if let Some(next) = queued.pop_front() {
                self.start_query(ops, done.token, next, queued);
            }
        }
    }

    fn on_tick(&mut self, _ops: &mut Ops<'_>, _now: Instant) -> Flow {
        if !self.stop.load(Ordering::Relaxed) {
            return Flow::Continue;
        }
        // Cancel every in-flight trace so the executor pool drains
        // promptly, then stop (dropping the loop cuts the sockets).
        self.peers.values().for_each(Peer::cancel);
        Flow::Stop
    }
}
