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
//! lease table, each connection advances an explicit state machine
//! (handshaking → pooled → leased, with a run-level draining mode), and
//! the pool scales to hundreds of multiplexed clients with no lock
//! contention. Clients ([`run_client`]) remain plain blocking loops.
//!
//! Framing: every message is a 4-byte little-endian length followed by a
//! kind byte and a [`crate::wire`]-encoded payload. A connection opens
//! with a [`KIND_HELLO`] exchange carrying the wire-format version
//! ([`wire::VERSION`]); mismatched peers are rejected with
//! [`NetError::VersionMismatch`]. Unknown kinds, malformed payloads and
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
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Client → server: "I am idle; give me work."
pub const KIND_REQUEST: u8 = 0x01;
/// Client → server: a completed task's tally (the task is the client's
/// current lease — the server is authoritative about which one that is).
pub const KIND_COMPLETE: u8 = 0x02;
/// Either direction: protocol handshake. Payload is one byte, the
/// sender's [`wire::VERSION`]. A client opens with this; the server
/// always answers with its own version so a mismatched peer can
/// diagnose itself before the connection closes.
pub const KIND_HELLO: u8 = 0x03;
/// Either direction: liveness probe. The peer echoes the payload back
/// with the same kind. Pings prove the *transport* is alive; they do
/// **not** count as activity for the server's idle-zombie cut — a
/// connection that pings but never requests work is still reaped after
/// a lease period ([`ServeOptions::lease_timeout`]).
pub const KIND_PING: u8 = 0x04;
/// Server → client: a task assignment.
pub const KIND_ASSIGN: u8 = 0x81;
/// Server → client: no more work; terminate the worker loop.
pub const KIND_SHUTDOWN: u8 = 0x82;

/// Largest accepted frame — shared with the transport core so the
/// blocking helpers and the poll loop can never disagree on the cap.
const MAX_FRAME: u32 = lumen_net::frame::MAX_FRAME;

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
pub fn write_frame(stream: &mut TcpStream, kind: u8, payload: &[u8]) -> Result<(), NetError> {
    write_frame_to(stream, kind, payload)
}

/// [`write_frame`] over any writer — the blocking half of the shared
/// frame layer ([`lumen_net::frame`]), and the seam the frame-atomicity
/// regression test observes.
pub fn write_frame_to<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), NetError> {
    let mut buf = Vec::with_capacity(5 + payload.len());
    lumen_net::frame::encode_frame_into(&mut buf, kind, payload)
        .map_err(|_| NetError::BadFrame((1 + payload.len()) as u32))?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Read one framed message: `(kind, payload)`.
pub fn read_frame(stream: &mut TcpStream) -> Result<(u8, Vec<u8>), NetError> {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME {
        return Err(NetError::BadFrame(len));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    // Shift the kind byte out in place: no second buffer for the payload.
    let kind = payload.remove(0);
    Ok((kind, payload))
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

/// Round-trip a [`KIND_PING`] liveness probe on an established
/// (handshaken) connection, returning the measured latency.
pub fn ping(stream: &mut TcpStream) -> Result<Duration, NetError> {
    let started = Instant::now();
    write_frame(stream, KIND_PING, b"ping")?;
    let (kind, payload) = read_frame(stream)?;
    if kind != KIND_PING || payload != b"ping" {
        return Err(NetError::BadKind(kind));
    }
    Ok(started.elapsed())
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
    /// wait for `min_clients` and a new connection's HELLO.
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

    fn validate(&self) -> Result<(), NetError> {
        if self.min_clients == 0 {
            return Err(NetError::InvalidConfig("min_clients must be >= 1".into()));
        }
        if self.lease_timeout.is_zero() || self.join_grace.is_zero() {
            return Err(NetError::InvalidConfig(
                "lease_timeout and join_grace must be positive".into(),
            ));
        }
        // Cap deadlines so `Instant + timeout` arithmetic can never
        // overflow (and panic) on the serve path. ~31 years is "forever"
        // for any real deployment.
        const MAX_TIMEOUT: Duration = Duration::from_secs(1_000_000_000);
        if self.lease_timeout > MAX_TIMEOUT || self.join_grace > MAX_TIMEOUT {
            return Err(NetError::InvalidConfig(
                "lease_timeout and join_grace must be at most 10^9 seconds".into(),
            ));
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

/// One connection's protocol state — the explicit state machine the
/// transport core runs each client through. Draining is a run-level mode
/// (see [`ClusterServer::draining`]), not a per-connection state: once
/// every task completes, *every* state answers with `KIND_SHUTDOWN`.
#[derive(Debug, Clone, Copy)]
enum Client {
    /// Accepted, HELLO not yet completed; cut at `deadline` (the join
    /// grace), so a silent connection can never pin server resources.
    Handshaking { deadline: Instant },
    /// In the pool without a lease. `parked` means its work request sits
    /// in the wait queue (queue empty, or the start gate still closed);
    /// `idle_since` is when it last went leaseless — a client that
    /// neither requests nor holds work for a whole lease period is a
    /// zombie and gets cut.
    Pooled { worker: usize, idle_since: Instant, parked: bool },
    /// Holds `task` until `deadline`; past it the lease is revoked, the
    /// task re-queued, and the connection cut.
    Leased { worker: usize, task: SimTask, deadline: Instant },
}

/// The DataManager protocol as a [`Handler`] on the shared poll loop:
/// one thread owns every connection *and* the lease table, so there is
/// no lock to contend on and no per-client thread to leak.
struct ClusterServer<'a> {
    dm: DataManager,
    clients: HashMap<Token, Client>,
    /// Parked requests, released LIFO as work re-queues or the gate opens.
    waiting: Vec<Token>,
    joined_total: usize,
    photons_done: u64,
    photons_total: u64,
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
    /// Clients past the handshake — the "pool" whose emptiness starts
    /// the abandonment clock.
    fn pool_len(&self) -> usize {
        self.clients.values().filter(|c| !matches!(c, Client::Handshaking { .. })).count()
    }

    fn note_pool_change(&mut self, now: Instant) {
        let len = self.pool_len();
        self.progress.on_clients(len);
        if len == 0 {
            self.empty_since = Some(now);
        }
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
    fn reap(&mut self, ops: &mut Ops<'_>, token: Token, now: Instant) {
        let Some(state) = self.clients.remove(&token) else { return };
        // Purge the departed client from the wait queue so a later
        // requeue can never hand a task to a dead connection.
        self.waiting.retain(|&t| t != token);
        match state {
            Client::Handshaking { .. } => {}
            Client::Pooled { .. } => self.note_pool_change(now),
            Client::Leased { worker, task, .. } => {
                self.dm.fail(worker, task);
                self.progress.on_task_retry(task.task_id);
                self.drain_waiting(ops, now);
                self.note_pool_change(now);
            }
        }
    }

    /// Answer `token`'s work request: lease the next queued task, or park
    /// the request until one re-queues.
    fn hand_out(&mut self, ops: &mut Ops<'_>, token: Token, now: Instant) {
        let Some(&Client::Pooled { worker, idle_since, .. }) = self.clients.get(&token) else {
            return;
        };
        match self.dm.assign() {
            Some(task) => {
                // A hand-off onto a dying socket is safe: the write error
                // surfaces as a close event, whose reap re-queues `task`.
                ops.send(token, KIND_ASSIGN, &wire::encode_task(&task));
                let deadline = now + self.options.lease_timeout;
                self.clients.insert(token, Client::Leased { worker, task, deadline });
            }
            None => {
                self.clients.insert(token, Client::Pooled { worker, idle_since, parked: true });
                if !self.waiting.contains(&token) {
                    self.waiting.push(token);
                }
            }
        }
    }

    /// Wake parked clients while queued work remains.
    fn drain_waiting(&mut self, ops: &mut Ops<'_>, now: Instant) {
        while !self.dm.queue_empty() {
            let Some(token) = self.waiting.pop() else { return };
            if let Some(&Client::Pooled { worker, idle_since, .. }) = self.clients.get(&token) {
                self.clients.insert(token, Client::Pooled { worker, idle_since, parked: false });
                self.hand_out(ops, token, now);
            }
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
        for token in std::mem::take(&mut self.waiting) {
            if self.clients.contains_key(&token) {
                self.dismiss(ops, token);
            }
        }
    }
}

impl Handler for ClusterServer<'_> {
    fn on_open(&mut self, _ops: &mut Ops<'_>, token: Token) {
        let deadline = Instant::now() + self.options.join_grace;
        self.clients.insert(token, Client::Handshaking { deadline });
    }

    fn on_frame(&mut self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: Vec<u8>) {
        let now = Instant::now();
        let Some(state) = self.clients.get(&token).copied() else {
            ops.close(token);
            return;
        };
        match state {
            Client::Handshaking { .. } if kind == KIND_HELLO => {
                let Some(&theirs) = payload.first() else {
                    self.depart(ops, token, now);
                    return;
                };
                // Always answer with our version *before* any rejection,
                // so a mismatched peer can diagnose itself.
                ops.send(token, KIND_HELLO, &[wire::VERSION]);
                if theirs != wire::VERSION {
                    self.clients.remove(&token);
                    ops.finish(token);
                    return;
                }
                if self.draining.is_some() {
                    // The run already ended; tell the late client to go
                    // home (it never joins, so it is never counted).
                    self.dismiss(ops, token);
                    return;
                }
                // Dense worker ids, so per-worker stats cover exactly the
                // clients actually served.
                let worker = self.dm.register_worker();
                self.joined_total += 1;
                self.empty_since = None;
                self.clients
                    .insert(token, Client::Pooled { worker, idle_since: now, parked: false });
                self.progress.on_clients(self.pool_len());
                if self.joined_total == self.options.min_clients {
                    // Gate opens: release requests parked before quorum.
                    self.drain_waiting(ops, now);
                }
            }
            Client::Handshaking { .. } => self.depart(ops, token, now),
            Client::Pooled { worker, idle_since, parked } => match kind {
                KIND_REQUEST if self.draining.is_some() => self.dismiss(ops, token),
                KIND_REQUEST => {
                    if self.joined_total >= self.options.min_clients {
                        self.hand_out(ops, token, now);
                    } else {
                        let state = Client::Pooled { worker, idle_since, parked: true };
                        self.clients.insert(token, state);
                        if !parked {
                            self.waiting.push(token);
                        }
                    }
                }
                KIND_PING => {
                    ops.send(token, KIND_PING, &payload);
                }
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
                        self.photons_done += task.photons;
                        self.progress.on_photons(self.photons_done, self.photons_total);
                        self.clients.insert(
                            token,
                            Client::Pooled { worker, idle_since: now, parked: false },
                        );
                        if self.dm.finished() {
                            self.begin_drain(ops, now);
                        }
                    }
                    // Malformed tally, or a well-formed one of another
                    // shape (a client started on a different scenario):
                    // surrender the lease, cut the peer.
                    _ => self.depart(ops, token, now),
                },
                KIND_PING => {
                    ops.send(token, KIND_PING, &payload);
                }
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
        let gate_stalled = self.joined_total < self.options.min_clients
            && now.duration_since(self.started) >= self.options.join_grace;
        let pool_stalled =
            self.empty_since.is_some_and(|t| now.duration_since(t) >= self.options.join_grace);
        if gate_stalled || pool_stalled {
            self.failed = Some(NetError::Incomplete {
                photons_done: self.photons_done,
                photons_total: self.photons_total,
                requeues: self.dm.requeues(),
            });
            return Flow::Stop;
        }

        // Deadline enforcement. Revoking a lease requeues now (a parked
        // client can start immediately) and cuts the holder, turning the
        // laggard into an ordinary disconnect — if its COMPLETE was
        // already in flight, the cut drops it before it can be read, so
        // photons are never double-counted. A connected client that
        // neither requests work nor holds a lease for a whole lease
        // period is a zombie and is cut for the same reason (parked
        // clients are exempt — they are waiting on *us*).
        let expired: Vec<Token> = self
            .clients
            .iter()
            .filter(|(_, state)| match **state {
                Client::Handshaking { deadline } | Client::Leased { deadline, .. } => {
                    now >= deadline
                }
                Client::Pooled { idle_since, parked, .. } => {
                    !parked && now.duration_since(idle_since) >= self.options.lease_timeout
                }
            })
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
        let mut horizon: Option<Instant> = None;
        let mut note = |t: Instant| horizon = Some(horizon.map_or(t, |h| h.min(t)));
        if self.joined_total < self.options.min_clients {
            note(self.started + self.options.join_grace);
        }
        if let Some(t) = self.empty_since {
            note(t + self.options.join_grace);
        }
        for state in self.clients.values() {
            match *state {
                Client::Handshaking { deadline } | Client::Leased { deadline, .. } => {
                    note(deadline);
                }
                Client::Pooled { idle_since, parked, .. } if !parked => {
                    note(idle_since + self.options.lease_timeout);
                }
                Client::Pooled { .. } => {}
            }
        }
        horizon
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

    let mut events = EventLoop::new(listener)?;
    let started = Instant::now();
    let mut server = ClusterServer {
        dm,
        clients: HashMap::new(),
        waiting: Vec::new(),
        joined_total: 0,
        photons_done: 0,
        photons_total: n,
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
    let clients_served = server.joined_total;
    let (tally, worker_stats, requeues) = server.dm.into_results();
    Ok(NetReport {
        result: SimulationResult::new(tally, Vec::new()),
        worker_stats,
        requeues,
        clients_served,
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
        write_frame_to(&mut w, 0x42, b"payload").unwrap();
        assert_eq!(w.writes.len(), 1, "one frame must be exactly one write call");
        let bytes = &w.writes[0];
        assert_eq!(&bytes[..4], &8u32.to_le_bytes(), "4-byte LE length prefix");
        assert_eq!(bytes[4], 0x42, "kind byte follows the length");
        assert_eq!(&bytes[5..], b"payload");

        let mut w = CountingWriter { writes: Vec::new() };
        write_frame_to(&mut w, KIND_REQUEST, &[]).unwrap();
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
        let rtt = ping(&mut stream).expect("ping echoes");
        assert!(rtt < Duration::from_secs(5));
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
