//! `lumend`'s TCP front end: one daemon, many query connections.
//!
//! Built on the shared transport core ([`lumen_net::EventLoop`]), the
//! same readiness loop that runs the cluster runtime: a single poll
//! thread owns every connection (hundreds multiplex fine — there is no
//! thread per socket to run out of), and the HELLO version gate matches
//! the cluster server's contract — the daemon always answers with its
//! own [`wire::VERSION`] before rejecting a mismatch, so an out-of-date
//! client can diagnose itself.
//!
//! The poll thread answers everything that needs no photon: it decodes a
//! query, validates and hashes it, looks it up, and on a hit encodes and
//! sends the reply before `on_frame` returns — one socket round trip, no
//! hand-off, and never queued behind a trace. What it may hold is the
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
//! that disconnects mid-response cancels only its own query. The shared
//! [`SimulationService`] (cache, in-flight claims, worker pool) outlives
//! any connection.

use crate::proto::{self, KIND_ERROR, KIND_QUERY, KIND_RESULT};
use crate::service::{Prepared, QueryReply, ServiceError, SimulationService};
use lumen_cluster::net::{KIND_HELLO, KIND_PING};
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

/// Handshake grace period, and how long a frame may take to finish
/// arriving once its first byte is here: a connection that is silent
/// pre-HELLO or stalls mid-frame past this is cut.
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
        let mut events = EventLoop::new(listener)?;
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

/// One connection's protocol state.
#[derive(Debug)]
enum Peer {
    /// Accepted, HELLO pending; cut at `deadline`.
    Hello { deadline: Instant },
    /// Handshaken and idle.
    Ready,
    /// A miss is with the executor pool. Further queries — hits too, so
    /// replies keep request order — queue here and are answered in
    /// order; `cancel` aborts the trace if the connection dies first.
    Busy { generation: u64, cancel: Arc<AtomicBool>, queued: VecDeque<Vec<u8>> },
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
    /// Everything the poll thread can do with one query by itself:
    /// decode, validate and hash, look up.
    fn answer(&self, payload: &[u8]) -> Inline {
        let scenario = match wire::decode_scenario(payload) {
            Ok(scenario) => scenario,
            Err(e) => {
                let msg = format!("malformed scenario: {e}");
                return Inline::Frame(KIND_ERROR, proto::encode_error(&msg));
            }
        };
        let prepared = match self.service.prepare(&scenario) {
            Ok(prepared) => prepared,
            Err(e) => return Inline::Frame(KIND_ERROR, proto::encode_error(&e.to_string())),
        };
        match self.service.lookup(&prepared) {
            Some(reply) => Inline::Frame(KIND_RESULT, proto::encode_reply(&reply)),
            None => Inline::Miss(Box::new((scenario, prepared))),
        }
    }

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
            let (scenario, prepared) = match self.answer(&bytes) {
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
            self.peers.insert(token, Peer::Busy { generation, cancel, queued });
            return;
        }
        self.peers.insert(token, Peer::Ready);
    }
}

impl Handler for Daemon {
    fn on_open(&mut self, _ops: &mut Ops<'_>, token: Token) {
        self.peers.insert(token, Peer::Hello { deadline: Instant::now() + STALL_GUARD });
    }

    fn on_frame(&mut self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: Vec<u8>) {
        match self.peers.get_mut(&token) {
            None => ops.close(token),
            Some(Peer::Hello { .. }) => {
                // The gate: anything but a well-formed HELLO closes the
                // connection without serving. A mismatched version is
                // answered with ours first, so the peer can diagnose
                // itself.
                let version = (kind == KIND_HELLO).then(|| payload.first().copied()).flatten();
                match version {
                    Some(theirs) => {
                        ops.send(token, KIND_HELLO, &[wire::VERSION]);
                        if theirs == wire::VERSION {
                            self.peers.insert(token, Peer::Ready);
                        } else {
                            self.peers.remove(&token);
                            ops.finish(token);
                        }
                    }
                    None => {
                        self.peers.remove(&token);
                        ops.close(token);
                    }
                }
            }
            Some(Peer::Ready) => match kind {
                KIND_PING => {
                    ops.send(token, KIND_PING, &payload);
                }
                KIND_QUERY => self.start_query(ops, token, payload, VecDeque::new()),
                other => {
                    // Typed rejection, then close: an unknown kind means
                    // the peer and daemon disagree about the protocol.
                    let msg = format!("unsupported frame kind 0x{other:02x}");
                    ops.send(token, KIND_ERROR, &proto::encode_error(&msg));
                    self.peers.remove(&token);
                    ops.finish(token);
                }
            },
            Some(Peer::Busy { cancel, queued, .. }) => match kind {
                KIND_PING => {
                    ops.send(token, KIND_PING, &payload);
                }
                KIND_QUERY => queued.push_back(payload),
                other => {
                    cancel.store(true, Ordering::Relaxed);
                    let msg = format!("unsupported frame kind 0x{other:02x}");
                    ops.send(token, KIND_ERROR, &proto::encode_error(&msg));
                    self.peers.remove(&token);
                    ops.finish(token);
                }
            },
        }
    }

    fn on_close(&mut self, _ops: &mut Ops<'_>, token: Token) {
        // The instant a querying client dies, its trace is told to stop:
        // this is what keeps a disconnect from burning minutes of
        // worker-pool budget on an answer nobody will read.
        if let Some(Peer::Busy { cancel, .. }) = self.peers.remove(&token) {
            cancel.store(true, Ordering::Relaxed);
        }
    }

    fn on_wake(&mut self, ops: &mut Ops<'_>) {
        while let Ok(done) = self.done_rx.try_recv() {
            let queued = match self.peers.get_mut(&done.token) {
                Some(Peer::Busy { generation, queued, .. }) if *generation == done.generation => {
                    std::mem::take(queued)
                }
                // Connection gone (its cancel produced this completion)
                // or superseded: nobody is waiting for these bytes.
                _ => continue,
            };
            match done.result {
                Ok(reply) => {
                    ops.send(done.token, KIND_RESULT, &proto::encode_reply(&reply));
                }
                Err(e) => {
                    ops.send(done.token, KIND_ERROR, &proto::encode_error(&e.to_string()));
                }
            }
            let mut queued = queued;
            match queued.pop_front() {
                Some(next) => self.start_query(ops, done.token, next, queued),
                None => {
                    self.peers.insert(done.token, Peer::Ready);
                }
            }
        }
    }

    fn on_tick(&mut self, ops: &mut Ops<'_>, now: Instant) -> Flow {
        if self.stop.load(Ordering::Relaxed) {
            // Cancel every in-flight trace so the executor pool drains
            // promptly, then stop (dropping the loop cuts the sockets).
            for peer in self.peers.values() {
                if let Peer::Busy { cancel, .. } = peer {
                    cancel.store(true, Ordering::Relaxed);
                }
            }
            return Flow::Stop;
        }
        // Stall guards: a silent pre-HELLO connection, or one stuck
        // mid-frame past the guard, is cut. (A handshaken connection
        // idling *between* frames is fine — sessions are long-lived.)
        let cut: Vec<Token> = self
            .peers
            .iter()
            .filter(|(&token, peer)| match peer {
                Peer::Hello { deadline } => now >= *deadline,
                _ => {
                    ops.mid_frame(token)
                        && ops.read_idle(token, now).is_some_and(|idle| idle >= STALL_GUARD)
                }
            })
            .map(|(&token, _)| token)
            .collect();
        for token in cut {
            self.peers.remove(&token);
            ops.close(token);
        }
        Flow::Continue
    }
}
