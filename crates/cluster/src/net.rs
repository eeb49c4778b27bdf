//! TCP deployment of the DataManager ⇄ client protocol.
//!
//! This is the configuration the paper actually ran: "All the clients
//! connected to a dedicated server." [`serve_with_options`] runs the
//! DataManager on a TCP listener; [`run_client`] is the client loop a
//! worker machine runs.
//! Both ends are constructed with the same [`Simulation`] (the original
//! shipped the `Algorithm` bytecode; we ship the experiment definition
//! out-of-band, which is the idiomatic Rust equivalent).
//!
//! The paper's whole point is Monte Carlo on *non-dedicated* clusters
//! where workers come and go, so the server is elastic: clients are
//! admitted at any time (late joiners are handed work immediately),
//! every assignment is a **lease** with a deadline, and a lease that
//! misses its deadline is revoked and re-queued exactly like a
//! disconnect — same `task_id`, hence the same RNG substream, hence a
//! bit-identical final tally no matter how many times a batch is re-run.
//! The server returns `Ok` **iff** every task completed; any abnormal
//! termination is a typed [`NetError`] (never a silently partial tally).
//!
//! Since the transport-core rework the server is a single
//! [`lumen_net::EventLoop`] readiness loop rather than a
//! thread-per-connection pool: one thread owns every socket *and* the
//! lease table, each joined connection advances an explicit state
//! machine (idle → waiting → leased, with a run-level draining mode), and the
//! pool scales to hundreds of multiplexed clients with no lock
//! contention. Clients ([`run_client`]) remain plain blocking loops.
//!
//! Framing: every message is a 4-byte little-endian length followed by a
//! kind byte and a [`crate::wire`]-encoded payload. A connection opens
//! with a [`KIND_HELLO`] exchange carrying the wire-format version
//! ([`wire::VERSION`]); mismatched peers are rejected with
//! [`NetError::VersionMismatch`]. That gate, the [`KIND_PING`] echo and
//! the cut of a peer stalled mid-frame for [`ServeOptions::join_grace`]
//! are the greeted [`lumen_net::EventLoop`]'s; this module owns the work
//! frames. A stalled client, unknown kinds, malformed payloads and
//! tallies shaped for a different scenario than the server's terminate
//! that client's connection; the DataManager re-queues whatever
//! task the lost client held, exactly as the paper's platform survives
//! reclaimed PCs.

use crate::datamanager::DataManager;
use crate::protocol::SimTask;
use crate::wire::{self, WireError};
use lumen_core::engine::{check_stream_range, run_task, Progress, WorkerAccount};
use lumen_core::{Simulation, SimulationResult};
use lumen_net::{EventLoop, Flow, Handler, Ops, Token};
use mcrng::StreamFactory;
use std::collections::HashMap;
use std::io::{IoSliceMut, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

pub use lumen_net::frame::{KIND_HELLO, KIND_PING};

/// Client → server: "I am idle; give me work."
pub const KIND_REQUEST: u8 = 0x01;
/// Client → server: a completed task's tally (the task is the client's
/// current lease — the server is authoritative about which one that is).
pub const KIND_COMPLETE: u8 = 0x02;
/// Server → client: a task assignment.
pub const KIND_ASSIGN: u8 = 0x81;
/// Server → client: no more work; terminate the worker loop.
pub const KIND_SHUTDOWN: u8 = 0x82;

/// After every task completes, how long the server waits for still-open
/// clients to request (and be sent) their clean `KIND_SHUTDOWN` before
/// cutting whatever remains. Responsive clients drain within one
/// round-trip; this only bounds the unresponsive.
const DRAIN_WINDOW: Duration = Duration::from_secs(2);

/// Errors from the networked protocol.
#[derive(Debug)]
pub enum NetError {
    Io(std::io::Error),
    Wire(WireError),
    /// Peer sent an unknown message kind.
    BadKind(u8),
    /// Frame length outside (0, MAX_FRAME].
    BadFrame(u32),
    /// The peer's HELLO carried a different wire-format version.
    VersionMismatch {
        /// Our [`wire::VERSION`].
        ours: u8,
        /// The version the peer announced.
        theirs: u8,
    },
    /// The server gave up (no clients, or the whole pool vanished) before
    /// every task completed. The partial tally is deliberately withheld:
    /// an incomplete Monte Carlo result reported as success is the one
    /// failure mode a golden-pinned codebase must never have.
    Incomplete {
        /// Photons completed and merged before the run was abandoned.
        photons_done: u64,
        /// The scenario's full photon budget.
        photons_total: u64,
        /// Tasks re-queued over the run's lifetime.
        requeues: u64,
    },
    /// The serve parameters were inconsistent (invalid simulation, zero
    /// `min_clients`, zero-duration timeouts, ...).
    InvalidConfig(String),
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::BadKind(k) => write!(f, "unknown message kind {k:#x}"),
            NetError::BadFrame(n) => write!(f, "bad frame length {n}"),
            NetError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours v{ours}, peer v{theirs}")
            }
            NetError::Incomplete { photons_done, photons_total, requeues } => write!(
                f,
                "run abandoned incomplete: {photons_done}/{photons_total} photons \
                 ({requeues} requeues)"
            ),
            NetError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Write one framed message as a **single** write: length, kind, and
/// payload are assembled into one contiguous buffer first, so a frame
/// costs one syscall (and, with `TCP_NODELAY`, at most one packet)
/// instead of the three the original length/kind/payload sequence paid.
/// Generic over the writer: the blocking half of the shared frame layer
/// ([`lumen_net::frame`]), and the seam the frame-atomicity regression
/// test observes.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), NetError> {
    let mut buf = Vec::with_capacity(5 + payload.len());
    lumen_net::frame::encode_frame_into(&mut buf, kind, payload)
        .map_err(|_| NetError::BadFrame((1 + payload.len()) as u32))?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Read one framed message: `(kind, payload)`. The header is checked by
/// the transport core's [`lumen_net::frame::frame_len`], the rule its
/// poll loop decodes by.
pub fn read_frame(stream: &mut TcpStream) -> Result<(u8, Vec<u8>), NetError> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = lumen_net::frame::frame_len(header)
        .map_err(|_| NetError::BadFrame(u32::from_le_bytes(header)))?;
    // One vectored read takes the kind byte and the payload apart
    // whenever the frame is already buffered.
    let mut kind = [0u8; 1];
    let mut payload = vec![0u8; len - 1];
    let mut slices = [IoSliceMut::new(&mut kind), IoSliceMut::new(&mut payload)];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match stream.read_vectored(bufs) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
            Ok(n) => IoSliceMut::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok((kind[0], payload))
}

/// Client-side half of the HELLO handshake: announce our
/// [`wire::VERSION`], read the server's, and fail typed on a mismatch.
pub fn handshake(stream: &mut TcpStream) -> Result<(), NetError> {
    write_frame(stream, KIND_HELLO, &[wire::VERSION])?;
    let (kind, payload) = read_frame(stream)?;
    match kind {
        KIND_HELLO => {
            let theirs = *payload.first().ok_or(NetError::Wire(WireError::Truncated))?;
            if theirs == wire::VERSION {
                Ok(())
            } else {
                Err(NetError::VersionMismatch { ours: wire::VERSION, theirs })
            }
        }
        other => Err(NetError::BadKind(other)),
    }
}

/// Knobs for the elastic server — see [`serve_with_options`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Clients to wait for before the first assignment. The run is
    /// elastic after the gate opens: clients joining later are handed
    /// work immediately, and the pool may shrink below this number
    /// without aborting the run (leases cover the departures).
    pub min_clients: usize,
    /// Deadline for one leased task. A lease that misses it is revoked
    /// and re-queued exactly like a disconnect; the holder's connection
    /// is cut. Size it comfortably above the slowest expected batch —
    /// the default is a generous 10 minutes, because socket errors
    /// already catch real disconnects immediately and revocation only
    /// needs to cover the silently-wedged remainder. The same deadline
    /// bounds how long a connected client may sit idle without
    /// requesting work before it is cut as a zombie.
    pub lease_timeout: Duration,
    /// How long the server tolerates having **zero** connected clients
    /// (at startup, or after the whole pool vanished mid-run) before
    /// abandoning the run with [`NetError::Incomplete`]. Also bounds the
    /// wait for `min_clients`, for a new connection's HELLO, and for a
    /// frame to finish arriving once it has started: a client stalled
    /// mid-frame this long is cut and its lease requeued.
    pub join_grace: Duration,
    /// First RNG stream index: task `i` draws from stream
    /// `task_offset + i` (mirrors `Scenario::task_offset`). Clients need
    /// no configuration — they stream by the task id in each assignment
    /// — so a continuation run extends an earlier one transparently.
    pub task_offset: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            min_clients: 1,
            lease_timeout: Duration::from_secs(600),
            join_grace: Duration::from_secs(10),
            task_offset: 0,
        }
    }
}

impl ServeOptions {
    /// Builder-style minimum client count.
    pub fn with_min_clients(mut self, min_clients: usize) -> Self {
        self.min_clients = min_clients;
        self
    }

    /// Builder-style lease deadline.
    pub fn with_lease_timeout(mut self, lease_timeout: Duration) -> Self {
        self.lease_timeout = lease_timeout;
        self
    }

    /// Builder-style empty-pool grace period.
    pub fn with_join_grace(mut self, join_grace: Duration) -> Self {
        self.join_grace = join_grace;
        self
    }

    /// Builder-style first RNG stream index.
    pub fn with_task_offset(mut self, task_offset: u64) -> Self {
        self.task_offset = task_offset;
        self
    }

    /// The one range rule for the serve knobs: `min_clients >= 1`, and
    /// both timeouts in `(0, 10^9 s]`. Every way in — the serve call, the
    /// `tcp` backend spec, the `net_server` arguments — goes through it.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.min_clients == 0 {
            return Err(NetError::InvalidConfig("min_clients must be >= 1".into()));
        }
        // The cap keeps `Instant + timeout` from overflowing (and
        // panicking) on the serve path; ~31 years is "forever".
        const MAX_TIMEOUT: Duration = Duration::from_secs(1_000_000_000);
        for (name, t) in [("lease_timeout", self.lease_timeout), ("join_grace", self.join_grace)] {
            if t.is_zero() || t > MAX_TIMEOUT {
                let reason = format!("{name} must be in (0, 10^9] seconds, got {t:?}");
                return Err(NetError::InvalidConfig(reason));
            }
        }
        Ok(())
    }
}

/// Outcome of a networked run.
#[derive(Debug)]
pub struct NetReport {
    pub result: SimulationResult,
    pub worker_stats: Vec<WorkerAccount>,
    pub requeues: u64,
    /// Connections actually served over the run's lifetime: every client
    /// that completed the HELLO handshake, late joiners included,
    /// never-connected slots excluded.
    pub clients_served: usize,
}

/// One joined connection's protocol state — the explicit state machine
/// each client walks once the loop's HELLO gate has admitted it.
/// Draining is a run-level mode (see [`ClusterServer::draining`]), not a
/// per-connection state: once every task completes, *every* state
/// answers with `KIND_SHUTDOWN`.
#[derive(Debug, Clone, Copy)]
enum Client {
    /// In the pool with neither a lease nor a pending request, since
    /// `since`. A client that stays idle for a whole lease period is a
    /// zombie and gets cut.
    Idle { worker: usize, since: Instant },
    /// Its work request is parked until a task re-queues or the start
    /// gate opens. Exempt from the zombie cut: it is waiting on *us*.
    Waiting { worker: usize },
    /// Holds `task` until `deadline`; past it the lease is revoked, the
    /// task re-queued, and the connection cut.
    Leased { worker: usize, task: SimTask, deadline: Instant },
}

/// The DataManager protocol as a [`Handler`] on the shared poll loop:
/// one thread owns every connection *and* the lease table, so there is
/// no lock to contend on and no per-client thread to leak. The run's
/// ledger — photons done, workers joined — is the DataManager's.
struct ClusterServer<'a> {
    dm: DataManager,
    clients: HashMap<Token, Client>,
    options: ServeOptions,
    started: Instant,
    /// The pool has been empty since this instant (None while non-empty).
    empty_since: Option<Instant>,
    progress: &'a dyn Progress,
    /// Abandonment outcome; set ⇒ the loop stops on the next tick.
    failed: Option<NetError>,
    /// Every task completed at some instant; drain SHUTDOWNs until here.
    draining: Option<Instant>,
}

impl ClusterServer<'_> {
    /// The pool — every joined client — changed size; its emptiness
    /// starts the abandonment clock.
    fn note_pool_change(&mut self, now: Instant) {
        let len = self.clients.len();
        self.progress.on_clients(len);
        if len == 0 {
            self.empty_since = Some(now);
        }
    }

    /// Whether `min_clients` have joined, so work may be handed out.
    fn gate_open(&self) -> bool {
        self.dm.workers() >= self.options.min_clients
    }

    /// Cut `token` on our initiative (revocation, zombie, violation) and
    /// reap its protocol state.
    fn depart(&mut self, ops: &mut Ops<'_>, token: Token, now: Instant) {
        ops.close(token);
        self.reap(ops, token, now);
    }

    /// Forget `token`, surrendering its lease back to the queue — the
    /// requeue keeps the same `task_id`, so the re-execution draws the
    /// identical RNG substream and the final tally stays bit-identical.
    /// A departed client leaves no trace, so a later requeue can never
    /// hand a task to a dead connection.
    fn reap(&mut self, ops: &mut Ops<'_>, token: Token, now: Instant) {
        let Some(state) = self.clients.remove(&token) else { return };
        if let Client::Leased { worker, task, .. } = state {
            self.dm.fail(worker, task);
            self.progress.on_task_retry(task.task_id);
            self.drain_waiting(ops, now);
        }
        self.note_pool_change(now);
    }

    /// Answer `token`'s work request: lease the next queued task, or park
    /// the request while the queue is empty or the gate closed.
    fn hand_out(&mut self, ops: &mut Ops<'_>, token: Token, worker: usize, now: Instant) {
        let next = if self.gate_open() { self.dm.assign() } else { None };
        let state = match next {
            Some(task) => {
                // A hand-off onto a dying socket is safe: the write error
                // surfaces as a close event, whose reap re-queues `task`.
                ops.send(token, KIND_ASSIGN, &wire::encode_task(&task));
                Client::Leased { worker, task, deadline: now + self.options.lease_timeout }
            }
            None => Client::Waiting { worker },
        };
        self.clients.insert(token, state);
    }

    /// The clients whose requests are parked.
    fn waiting(&self) -> Vec<(Token, usize)> {
        let parked = self.clients.iter().filter_map(|(&token, state)| match *state {
            Client::Waiting { worker } => Some((token, worker)),
            _ => None,
        });
        parked.collect()
    }

    /// Wake parked clients while queued work remains.
    fn drain_waiting(&mut self, ops: &mut Ops<'_>, now: Instant) {
        for (token, worker) in self.waiting() {
            if self.dm.queue_empty() {
                return;
            }
            self.hand_out(ops, token, worker, now);
        }
    }

    /// Send a clean shutdown and close once it flushes.
    fn dismiss(&mut self, ops: &mut Ops<'_>, token: Token) {
        self.clients.remove(&token);
        ops.send(token, KIND_SHUTDOWN, &[]);
        ops.finish(token);
    }

    /// Every task completed: release parked clients with a clean
    /// `KIND_SHUTDOWN` now; busy clients collect theirs with their next
    /// request, bounded by [`DRAIN_WINDOW`].
    fn begin_drain(&mut self, ops: &mut Ops<'_>, now: Instant) {
        self.draining = Some(now + DRAIN_WINDOW);
        for (token, _) in self.waiting() {
            self.dismiss(ops, token);
        }
    }

    /// When the run is abandoned if nothing changes: a join grace after
    /// the start while the gate is still closed, or after the pool last
    /// emptied.
    fn abandon_at(&self) -> Option<Instant> {
        let gate_closed = !self.gate_open();
        let since = gate_closed.then_some(self.started).into_iter().chain(self.empty_since).min();
        since.map(|t| t + self.options.join_grace)
    }

    /// When `state` expires: a lease at its deadline, and a client that
    /// stays idle for a whole lease period. A waiting client never does.
    fn expiry(&self, state: &Client) -> Option<Instant> {
        match *state {
            Client::Leased { deadline, .. } => Some(deadline),
            Client::Idle { since, .. } => Some(since + self.options.lease_timeout),
            Client::Waiting { .. } => None,
        }
    }
}

impl Handler for ClusterServer<'_> {
    /// A client passed the loop's HELLO gate: it joins the pool.
    fn on_open(&mut self, ops: &mut Ops<'_>, token: Token) {
        let now = Instant::now();
        if self.draining.is_some() {
            // The run already ended; tell the late client to go home (it
            // never joins, so it is never counted).
            self.dismiss(ops, token);
            return;
        }
        // Dense worker ids, so per-worker stats cover exactly the clients
        // actually served.
        let worker = self.dm.register_worker();
        self.empty_since = None;
        self.clients.insert(token, Client::Idle { worker, since: now });
        self.progress.on_clients(self.clients.len());
        if self.dm.workers() == self.options.min_clients {
            // Gate opens: release requests parked before quorum.
            self.drain_waiting(ops, now);
        }
    }

    fn on_frame(&mut self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: Vec<u8>) {
        let now = Instant::now();
        let Some(state) = self.clients.get(&token).copied() else {
            ops.close(token);
            return;
        };
        match state {
            Client::Idle { worker, .. } | Client::Waiting { worker } => match kind {
                KIND_REQUEST if self.draining.is_some() => self.dismiss(ops, token),
                KIND_REQUEST => self.hand_out(ops, token, worker, now),
                // A COMPLETE without a lease is the stale completion of a
                // revoked task (or a protocol violation): the task
                // already went back to the queue, so merging this tally
                // would double-count its photons. Drop it, cut the peer.
                _ => self.depart(ops, token, now),
            },
            Client::Leased { worker, task, .. } => match kind {
                KIND_COMPLETE => match wire::decode_tally(&payload) {
                    Ok(tally) if self.dm.accepts(&tally) => {
                        self.dm.complete(worker, task, &tally);
                        let (done, total) = self.dm.photons();
                        self.progress.on_photons(done, total);
                        self.clients.insert(token, Client::Idle { worker, since: now });
                        if self.dm.finished() {
                            self.begin_drain(ops, now);
                        }
                    }
                    // Malformed tally, or a well-formed one of another
                    // shape (a client started on a different scenario):
                    // surrender the lease, cut the peer.
                    _ => self.depart(ops, token, now),
                },
                _ => self.depart(ops, token, now),
            },
        }
    }

    fn on_close(&mut self, ops: &mut Ops<'_>, token: Token) {
        // A reclaimed/crashed client surrenders its lease; another client
        // will re-run the identical photons (same stream index).
        self.reap(ops, token, Instant::now());
    }

    fn on_tick(&mut self, ops: &mut Ops<'_>, now: Instant) -> Flow {
        if let Some(deadline) = self.draining {
            // Stop as soon as every client has collected its SHUTDOWN
            // (or the drain window closes on the unresponsive).
            return if ops.is_empty() || now >= deadline { Flow::Stop } else { Flow::Continue };
        }

        // Abandon (typed, never a hang): the gate never opened, or the
        // whole pool vanished and nobody re-joined within the grace.
        if self.abandon_at().is_some_and(|at| now >= at) {
            let (photons_done, photons_total) = self.dm.photons();
            let requeues = self.dm.requeues();
            self.failed = Some(NetError::Incomplete { photons_done, photons_total, requeues });
            return Flow::Stop;
        }

        // Deadline enforcement. Revoking a lease requeues now (a parked
        // client can start immediately) and cuts the holder, turning the
        // laggard into an ordinary disconnect — if its COMPLETE was
        // already in flight, the cut drops it before it can be read, so
        // photons are never double-counted. A connected client that
        // neither requests work nor holds a lease for a whole lease
        // period is a zombie and is cut for the same reason.
        let expired: Vec<Token> = self
            .clients
            .iter()
            .filter(|(_, state)| self.expiry(state).is_some_and(|at| now >= at))
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            self.depart(ops, token, now);
        }
        Flow::Continue
    }

    fn next_wake(&mut self, _now: Instant) -> Option<Instant> {
        if let Some(deadline) = self.draining {
            return Some(deadline);
        }
        let expiries = self.clients.values().filter_map(|state| self.expiry(state));
        expiries.chain(self.abandon_at()).min()
    }
}

/// Serve one distributed simulation on `listener`: hand out `n` photons
/// in `tasks` batches to the clients that connect, merge their tallies,
/// and shut everyone down when complete — the full elastic runtime.
///
/// Invariants this function maintains:
///
/// * **`Ok` iff complete.** The merged tally is returned only when every
///   task completed; any abandonment path is a typed `Err`
///   ([`NetError::Incomplete`] carries how far the run got).
/// * **Requeue determinism.** A task lost to a disconnect, a revoked
///   lease, or a failed hand-off re-enters the queue under the same
///   `task_id`, so its re-execution draws the identical RNG substream
///   and the final tally is bit-identical to a sequential run.
/// * **Elasticity.** Clients join at any time; `min_clients` only gates
///   the *first* assignment. Departures below `min_clients` do not abort
///   the run while at least one client remains.
pub fn serve_with_options(
    listener: TcpListener,
    sim: &Simulation,
    n: u64,
    tasks: u64,
    options: ServeOptions,
    progress: &dyn Progress,
) -> Result<NetReport, NetError> {
    options.validate()?;
    sim.validate().map_err(|e| NetError::InvalidConfig(e.to_string()))?;
    check_stream_range(options.task_offset, tasks)
        .map_err(|e| NetError::InvalidConfig(e.into()))?;
    let dm = DataManager::with_offset(n, tasks, options.task_offset, sim.new_tally(), 0);

    let mut events = EventLoop::greeted(listener, wire::VERSION, options.join_grace)?;
    let started = Instant::now();
    let mut server = ClusterServer {
        dm,
        clients: HashMap::new(),
        options,
        started,
        empty_since: Some(started),
        progress,
        failed: None,
        draining: None,
    };
    events.run(&mut server)?;
    // Dropping the loop closes the listener and cuts every socket still
    // open (clients that never collected their SHUTDOWN, abandoned runs).
    drop(events);

    if let Some(err) = server.failed {
        return Err(err);
    }
    let (tally, worker_stats, requeues) = server.dm.into_results();
    Ok(NetReport {
        result: SimulationResult::new(tally, Vec::new()),
        clients_served: worker_stats.len(),
        worker_stats,
        requeues,
    })
}

/// The client loop: connect to the server, exchange HELLOs, request
/// tasks, simulate them with the shared `sim` definition and `seed`,
/// return tallies, exit on shutdown. Returns the number of tasks
/// completed.
pub fn run_client(addr: &str, sim: &Simulation, seed: u64) -> Result<u64, NetError> {
    let mut stream = TcpStream::connect(addr)?;
    // A failed socket-option set is a broken connection, not a shrug:
    // surface it instead of running the whole protocol on a socket whose
    // configuration silently differs from what the code assumes.
    stream.set_nodelay(true)?;
    handshake(&mut stream)?;
    let factory = StreamFactory::new(seed);
    let mut completed = 0u64;
    loop {
        write_frame(&mut stream, KIND_REQUEST, &[])?;
        let (kind, payload) = read_frame(&mut stream)?;
        match kind {
            KIND_SHUTDOWN => return Ok(completed),
            KIND_ASSIGN => {
                let task = wire::decode_task(&payload)?;
                let tally = run_task(sim, &factory, task.task_id, task.photons, None);
                write_frame(&mut stream, KIND_COMPLETE, &wire::encode_tally(&tally))?;
                completed += 1;
            }
            other => return Err(NetError::BadKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_core::engine::{Backend, NoProgress, Rayon, Scenario};
    use lumen_core::{Detector, Source};
    use lumen_tissue::presets::semi_infinite_phantom;
    use std::thread;

    fn serve(
        listener: TcpListener,
        sim: &Simulation,
        n: u64,
        tasks: u64,
        min_clients: usize,
    ) -> Result<NetReport, NetError> {
        let options = ServeOptions::default().with_min_clients(min_clients);
        serve_with_options(listener, sim, n, tasks, options, &NoProgress)
    }

    fn sim() -> Simulation {
        Simulation::new(
            semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
            Source::Delta,
            Detector::new(1.0, 0.5),
        )
    }

    fn rayon_reference(sim: &Simulation, n: u64, seed: u64, tasks: u64) -> SimulationResult {
        let scenario = Scenario::from_simulation(sim, n, seed).with_tasks(tasks);
        Rayon::default().run(&scenario).expect("valid scenario").result
    }

    #[test]
    fn tcp_run_matches_rayon_driver() {
        let s = sim();
        let n = 4_000;
        let tasks = 8;
        let seed = 5;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();

        let clients: Vec<_> = (0..3)
            .map(|_| {
                let s = s.clone();
                let addr = addr.clone();
                thread::spawn(move || run_client(&addr, &s, seed).expect("client ok"))
            })
            .collect();

        let report = serve(listener, &s, n, tasks, 3).expect("serve ok");
        let completed: u64 = clients.into_iter().map(|c| c.join().expect("join")).sum();

        assert_eq!(completed, tasks);
        assert_eq!(report.clients_served, 3);
        let rayon_res = rayon_reference(&s, n, seed, tasks);
        assert_eq!(report.result.tally, rayon_res.tally);
    }

    #[test]
    fn tcp_single_client_with_grids() {
        use lumen_core::tally::GridSpec;
        use lumen_core::Vec3;
        let mut s = sim();
        s.options.path_grid =
            Some(GridSpec::cubic(10, Vec3::new(-2.0, -2.0, 0.0), Vec3::new(2.0, 2.0, 4.0)));
        s.options.path_histogram = Some((200.0, 16));
        let n = 3_000;
        let seed = 9;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let sc = s.clone();
        let ac = addr.clone();
        let client = thread::spawn(move || run_client(&ac, &sc, seed).expect("client"));

        let report = serve(listener, &s, n, 4, 1).expect("serve");
        client.join().expect("join");

        assert_eq!(report.clients_served, 1);
        let rayon_res = rayon_reference(&s, n, seed, 4);
        assert_eq!(report.result.tally, rayon_res.tally);
        assert!(report.result.tally.path_grid.is_some());
    }

    #[test]
    fn write_frame_is_a_single_contiguous_write() {
        // Regression: the original implementation issued three separate
        // writes per frame (length, kind, payload) — three syscalls and,
        // with TCP_NODELAY, up to three packets. The frame must hit the
        // writer as one contiguous buffer in one call.
        struct CountingWriter {
            writes: Vec<Vec<u8>>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut w = CountingWriter { writes: Vec::new() };
        write_frame(&mut w, 0x42, b"payload").unwrap();
        assert_eq!(w.writes.len(), 1, "one frame must be exactly one write call");
        let bytes = &w.writes[0];
        assert_eq!(&bytes[..4], &8u32.to_le_bytes(), "4-byte LE length prefix");
        assert_eq!(bytes[4], 0x42, "kind byte follows the length");
        assert_eq!(&bytes[5..], b"payload");

        let mut w = CountingWriter { writes: Vec::new() };
        write_frame(&mut w, KIND_REQUEST, &[]).unwrap();
        assert_eq!(w.writes.len(), 1, "empty-payload frames too");
        assert_eq!(w.writes[0], vec![1, 0, 0, 0, KIND_REQUEST]);
    }

    #[test]
    fn frame_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (kind, payload) = read_frame(&mut s).unwrap();
            write_frame(&mut s, kind, &payload).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, 0x42, b"hello").unwrap();
        let (kind, payload) = read_frame(&mut stream).unwrap();
        assert_eq!(kind, 0x42);
        assert_eq!(payload, b"hello");
        echo.join().unwrap();
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            match read_frame(&mut s) {
                Err(NetError::BadFrame(0)) => {}
                other => panic!("expected BadFrame(0), got {other:?}"),
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&0u32.to_le_bytes()).unwrap();
        srv.join().unwrap();
    }

    #[test]
    fn serve_rejects_invalid_inputs_without_panicking() {
        // Zero min_clients and an invalid simulation are typed errors on
        // the serve path, never thread-killing panics.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = serve(listener, &sim(), 100, 4, 0).unwrap_err();
        assert!(matches!(err, NetError::InvalidConfig(_)), "{err:?}");

        let mut bad = sim();
        bad.detector.radius = -1.0;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = serve(listener, &bad, 100, 4, 1).unwrap_err();
        assert!(matches!(err, NetError::InvalidConfig(_)), "{err:?}");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = serve(listener, &sim(), 100, 0, 1).unwrap_err();
        assert!(matches!(err, NetError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn ping_round_trips_on_a_served_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let s = sim();
        let server = {
            let s = s.clone();
            thread::spawn(move || serve(listener, &s, 500, 2, 1))
        };
        let mut stream = loop {
            match TcpStream::connect(&addr) {
                Ok(c) => break c,
                Err(_) => thread::sleep(Duration::from_millis(5)),
            }
        };
        handshake(&mut stream).expect("handshake");
        write_frame(&mut stream, KIND_PING, b"ping").unwrap();
        assert_eq!(read_frame(&mut stream).unwrap(), (KIND_PING, b"ping".to_vec()), "echoed");
        // Finish the run so the server thread exits cleanly.
        let seed = 7;
        let factory = StreamFactory::new(seed);
        loop {
            write_frame(&mut stream, KIND_REQUEST, &[]).unwrap();
            let (kind, payload) = read_frame(&mut stream).unwrap();
            if kind == KIND_SHUTDOWN {
                break;
            }
            let task = wire::decode_task(&payload).unwrap();
            let tally = run_task(&s, &factory, task.task_id, task.photons, None);
            write_frame(&mut stream, KIND_COMPLETE, &wire::encode_tally(&tally)).unwrap();
        }
        let report = server.join().expect("server thread").expect("serve ok");
        assert_eq!(report.result.launched(), 500);
    }
}
