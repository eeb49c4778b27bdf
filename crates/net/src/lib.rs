//! # lumen-net — the poll-based multiplexed transport core
//!
//! One thread, one `poll(2)` readiness loop, hundreds of framed TCP
//! connections. Both networked runtimes in the workspace — the cluster
//! DataManager server (`lumen_cluster::net`) and the `lumend` simulation
//! service (`lumen_service::server`) — are handlers plugged into this
//! loop, replacing their original thread-per-connection blocking designs
//! whose per-socket threads and shared lease-table lock capped the pool
//! at a handful of clients.
//!
//! The layering follows the small-state-machine discipline of protocol
//! stacks built as composable kernel modules: each layer owns exactly
//! one concern and exposes a narrow seam.
//!
//! * [`sys`] — a minimal `poll(2)` binding (declared directly; the
//!   offline workspace carries no libc crate).
//! * [`frame`] — the shared frame codec: single-buffer encoding and
//!   incremental, split-tolerant decoding of the
//!   `4-byte LE length | kind | payload` wire format.
//! * [`EventLoop`] + [`Handler`] — the readiness loop: non-blocking
//!   accept, per-connection read/write buffers, frame assembly and
//!   flushing, deadline-driven ticks, and a cross-thread [`Waker`] so
//!   worker threads can hand results back to the loop.
//!
//! The loop guarantees mechanics — every complete frame is delivered
//! exactly once in arrival order, every connection death is reported
//! exactly once, and no callback ever blocks on a socket. It owns one
//! piece of policy, the *connection* rules, because they are the same
//! for every server and a copy per handler is how two copies drift: a
//! loop built with [`EventLoop::greeted`] admits a peer only after a
//! [`frame::KIND_HELLO`] carrying its version, answers
//! [`frame::KIND_PING`] itself, and cuts a silent newcomer or a peer
//! stalled mid-frame. Lease tables, caches and every other frame kind
//! belong to the handlers.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod frame;
pub mod sys;

use frame::FrameDecoder;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Identifies one live connection within its [`EventLoop`]. Tokens are
/// never reused within a loop's lifetime, so a stale token held across a
/// disconnect simply stops resolving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// What the loop should do after a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep serving.
    Continue,
    /// Exit [`EventLoop::run`] now (remaining connections close when the
    /// loop is dropped).
    Stop,
}

/// The protocol brain driven by an [`EventLoop`]. All callbacks run on
/// the loop thread; none may block. State machines live here — the loop
/// moves bytes and, when greeted, keeps the connection rules.
pub trait Handler {
    /// A connection was accepted and configured (non-blocking, nodelay)
    /// and, on a greeted loop, sent a matching HELLO. Connections whose
    /// setup or greeting fails are closed before ever reaching the
    /// handler — a socket with a broken option set must not be served.
    fn on_open(&mut self, ops: &mut Ops<'_>, token: Token);

    /// One complete frame arrived. Frames are delivered in arrival
    /// order; a handler closing `token` mid-batch drops the rest.
    fn on_frame(&mut self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: Vec<u8>);

    /// The connection died remotely (EOF, I/O error, a frame-layer
    /// violation, or a greeted loop's stall cut). Called exactly once per
    /// opened connection, and never for closes the handler itself
    /// initiated via [`Ops::close`] / [`Ops::finish`].
    fn on_close(&mut self, ops: &mut Ops<'_>, token: Token);

    /// The [`Waker`] fired (at least once since the last delivery —
    /// wakes coalesce, so drain the whole completion queue).
    fn on_wake(&mut self, _ops: &mut Ops<'_>) {}

    /// Runs once per loop iteration, after I/O. Deadline work (lease
    /// revocation, shutdown flags) belongs here.
    fn on_tick(&mut self, ops: &mut Ops<'_>, now: Instant) -> Flow;

    /// The next instant [`Handler::on_tick`] must run even without I/O;
    /// the loop also ticks at least every ~50 ms regardless.
    fn next_wake(&mut self, _now: Instant) -> Option<Instant> {
        None
    }
}

/// Handle worker threads use to interrupt a sleeping [`EventLoop`]
/// (loopback socket pair under the hood — portable, poll-able). Wakes
/// coalesce; [`Waker::wake`] never blocks.
#[derive(Debug)]
pub struct Waker {
    tx: TcpStream,
}

impl Waker {
    /// Signal the loop; its handler's [`Handler::on_wake`] runs on the
    /// next iteration.
    pub fn wake(&self) {
        // Non-blocking: a full buffer means wake bytes are already
        // pending, so dropping this one loses nothing.
        let _ = (&self.tx).write(&[1]);
    }

    /// An independent handle to the same loop.
    pub fn try_clone(&self) -> std::io::Result<Waker> {
        Ok(Waker { tx: self.tx.try_clone()? })
    }
}

/// One connection's loop-side record.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbox: Vec<u8>,
    cursor: usize,
    /// Locally initiated teardown: close once the outbox flushes, and
    /// suppress the `on_close` callback (the handler already knows).
    finishing: bool,
    /// A write failed outside the loop's sweep; close (with callback
    /// unless `finishing`) on the next iteration.
    dead: bool,
    /// Last instant bytes arrived (or the accept instant).
    last_read: Instant,
    /// On a greeted loop, the deadline for the peer's HELLO; `None` once
    /// the handler has opened the connection (at accept on a raw loop).
    hello_by: Option<Instant>,
}

impl Conn {
    /// Push buffered bytes to the socket; `Err` only for fatal failures
    /// (`WouldBlock` leaves the remainder for the next readiness event).
    fn flush(&mut self) -> std::io::Result<()> {
        while self.cursor < self.outbox.len() {
            match self.stream.write(&self.outbox[self.cursor..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.cursor += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.cursor == self.outbox.len() {
            self.outbox.clear();
            self.cursor = 0;
        } else if self.cursor > 64 * 1024 {
            self.outbox.drain(..self.cursor);
            self.cursor = 0;
        }
        Ok(())
    }

    fn has_pending(&self) -> bool {
        self.cursor < self.outbox.len()
    }
}

/// The connection-table view handlers mutate during callbacks: queue
/// frames, close peers, count connections. All operations are
/// non-blocking and tolerate stale tokens (returning `false`).
#[derive(Debug)]
pub struct Ops<'a> {
    conns: &'a mut HashMap<usize, Conn>,
}

impl Ops<'_> {
    /// Queue one frame on `token` and eagerly flush what the socket will
    /// take. Returns `false` if the token is gone, the connection is
    /// already finishing, or the payload exceeds the frame cap; a
    /// mid-flush socket error marks the connection dead (reported via
    /// [`Handler::on_close`] on the next iteration).
    pub fn send(&mut self, token: Token, kind: u8, payload: &[u8]) -> bool {
        let Some(conn) = self.conns.get_mut(&token.0) else { return false };
        if conn.finishing || conn.dead {
            return false;
        }
        if frame::encode_frame_into(&mut conn.outbox, kind, payload).is_err() {
            return false;
        }
        if conn.flush().is_err() {
            conn.dead = true;
        }
        true
    }

    /// Close `token` now (both directions, no `on_close` callback).
    pub fn close(&mut self, token: Token) {
        if let Some(conn) = self.conns.remove(&token.0) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Close `token` once its queued frames have flushed (no `on_close`
    /// callback). Reads are ignored from here on: the connection exists
    /// only to drain its goodbye.
    pub fn finish(&mut self, token: Token) {
        let should_close = match self.conns.get_mut(&token.0) {
            None => return,
            Some(conn) => {
                conn.finishing = true;
                if conn.flush().is_err() {
                    conn.dead = true;
                }
                !conn.has_pending() || conn.dead
            }
        };
        if should_close {
            self.close(token);
        }
    }

    /// No live connections?
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> i32 {
    0
}

/// The loop ticks at least this often even with no I/O and no handler
/// deadline, so coarse conditions (a shutdown flag, say) are observed
/// promptly.
const MAX_TICK: Duration = Duration::from_millis(50);

/// Read-scratch size: one `read` takes at most this much, and a read that
/// fills it is followed by another.
const READ_CHUNK: usize = 16 * 1024;

/// A greeted loop's connection rules (see [`EventLoop::greeted`]).
#[derive(Debug, Clone, Copy)]
struct Greeting {
    version: u8,
    within: Duration,
}

impl Greeting {
    /// Judge a connection's first frame: `true` admits it. A HELLO with a
    /// version byte is always answered with ours first, so a mismatched
    /// peer can diagnose itself before it is finished; anything else is
    /// closed unanswered.
    fn admit(self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: &[u8]) -> bool {
        match (kind, payload.first()) {
            (frame::KIND_HELLO, Some(&theirs)) => {
                ops.send(token, frame::KIND_HELLO, &[self.version]);
                if theirs == self.version {
                    return true;
                }
                ops.finish(token);
            }
            _ => ops.close(token),
        }
        false
    }
}

/// The readiness loop: owns the listener, the connection table, and the
/// optional waker, and drives a [`Handler`] until it says [`Flow::Stop`].
#[derive(Debug)]
pub struct EventLoop {
    listener: TcpListener,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    waker_rx: Option<TcpStream>,
    waker_tx: Option<TcpStream>,
    greeting: Option<Greeting>,
    /// Where every read lands before the decoder copies it; zeroed once.
    scratch: Box<[u8]>,
}

impl EventLoop {
    /// Take ownership of a bound listener (switched to non-blocking): the
    /// raw loop, which opens every accepted connection and delivers every
    /// frame.
    pub fn new(listener: TcpListener) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            conns: HashMap::new(),
            next_token: 0,
            waker_rx: None,
            waker_tx: None,
            greeting: None,
            scratch: vec![0; READ_CHUNK].into_boxed_slice(),
        })
    }

    /// A loop that keeps the connection rules for protocol `version`:
    ///
    /// * a connection's first frame must be a [`frame::KIND_HELLO`] with
    ///   a version byte. The loop answers with `version`, finishes a
    ///   mismatched peer, and closes on any other first frame;
    /// * [`Handler::on_open`] runs only after a matching HELLO, and a
    ///   connection without one `within` of accept is closed with no
    ///   callback at all — the handler never saw it;
    /// * after the HELLO the loop echoes [`frame::KIND_PING`] itself and
    ///   never delivers it;
    /// * an opened connection that stops for `within` with a frame
    ///   half-received is cut, reported through [`Handler::on_close`] like
    ///   any other death. A connection idling *between* frames is fine.
    pub fn greeted(listener: TcpListener, version: u8, within: Duration) -> std::io::Result<Self> {
        let mut events = Self::new(listener)?;
        events.greeting = Some(Greeting { version, within });
        Ok(events)
    }

    /// The listener's bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A [`Waker`] for this loop. The first call sets up the loopback
    /// wake channel; every call returns an independent handle.
    pub fn waker(&mut self) -> std::io::Result<Waker> {
        if self.waker_tx.is_none() {
            let gate = TcpListener::bind("127.0.0.1:0")?;
            let tx = TcpStream::connect(gate.local_addr()?)?;
            let (rx, _) = gate.accept()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            tx.set_nodelay(true)?;
            self.waker_rx = Some(rx);
            self.waker_tx = Some(tx);
        }
        Ok(Waker { tx: self.waker_tx.as_ref().expect("waker channel").try_clone()? })
    }

    /// Drive `handler` until it returns [`Flow::Stop`]. `Err` only for
    /// unrecoverable loop failures (the listener or poll itself); any
    /// still-open connections close when the `EventLoop` drops.
    pub fn run<H: Handler>(&mut self, handler: &mut H) -> std::io::Result<()> {
        loop {
            self.sweep_dead(handler);

            let now = Instant::now();
            let timeout = handler
                .next_wake(now)
                .map(|at| at.saturating_duration_since(now))
                .unwrap_or(MAX_TICK)
                .min(MAX_TICK);

            // Registration order: listener, waker, then connections in a
            // captured order (the table may mutate during callbacks).
            let mut fds = vec![sys::PollFd::new(raw_fd(&self.listener), sys::POLLIN)];
            if let Some(rx) = &self.waker_rx {
                fds.push(sys::PollFd::new(raw_fd(rx), sys::POLLIN));
            }
            let base = fds.len();
            let order: Vec<usize> = self.conns.keys().copied().collect();
            for &t in &order {
                let conn = &self.conns[&t];
                let mut events = if conn.finishing { 0 } else { sys::POLLIN };
                if conn.has_pending() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd::new(raw_fd(&conn.stream), events));
            }

            sys::poll_fds(&mut fds, timeout)?;
            let now = Instant::now();

            if fds[0].ready(sys::POLLIN) {
                self.accept_ready(handler, now);
            }
            if self.waker_rx.is_some() && fds[base - 1].ready(sys::POLLIN) && self.drain_waker() {
                handler.on_wake(&mut Ops { conns: &mut self.conns });
            }

            for (i, &t) in order.iter().enumerate() {
                let ready = fds[base + i];
                if ready.ready(sys::POLLIN) {
                    self.read_ready(handler, t, now);
                }
                if ready.ready(sys::POLLOUT) {
                    self.flush_ready(handler, t);
                }
            }

            self.sweep_stalled(handler, now);
            match handler.on_tick(&mut Ops { conns: &mut self.conns }, now) {
                Flow::Continue => {}
                Flow::Stop => return Ok(()),
            }
        }
    }

    /// Close connections whose eager flush failed mid-callback,
    /// reporting remote deaths to the handler.
    fn sweep_dead<H: Handler>(&mut self, handler: &mut H) {
        self.sweep(handler, |c| c.dead);
    }

    /// A greeted loop's deadlines: close a connection still without a
    /// HELLO `within` of accept, and cut an opened one stalled mid-frame
    /// for `within`.
    fn sweep_stalled<H: Handler>(&mut self, handler: &mut H, now: Instant) {
        let Some(Greeting { within, .. }) = self.greeting else { return };
        self.sweep(handler, |c| match c.hello_by {
            Some(deadline) => now >= deadline,
            None => c.decoder.mid_frame() && now.saturating_duration_since(c.last_read) >= within,
        });
    }

    /// [`EventLoop::close_remote`] every connection `doomed` picks.
    fn sweep<H: Handler>(&mut self, handler: &mut H, doomed: impl Fn(&Conn) -> bool) {
        let picked: Vec<usize> =
            self.conns.iter().filter(|(_, c)| doomed(c)).map(|(&t, _)| t).collect();
        for t in picked {
            self.close_remote(handler, t);
        }
    }

    /// Remove `t` and fire `on_close` if the handler opened it and the
    /// teardown was not local.
    fn close_remote<H: Handler>(&mut self, handler: &mut H, t: usize) {
        if let Some(conn) = self.conns.remove(&t) {
            let _ = conn.stream.shutdown(Shutdown::Both);
            if !conn.finishing && conn.hello_by.is_none() {
                handler.on_close(&mut Ops { conns: &mut self.conns }, Token(t));
            }
        }
    }

    fn accept_ready<H: Handler>(&mut self, handler: &mut H, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // A connection whose option setup fails is closed on
                    // the spot: serving a socket with (say) a broken
                    // non-blocking flag would hand the loop a stream
                    // that can stall every other client.
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    let t = self.next_token;
                    self.next_token += 1;
                    self.conns.insert(
                        t,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            outbox: Vec::new(),
                            cursor: 0,
                            finishing: false,
                            dead: false,
                            last_read: now,
                            hello_by: self.greeting.map(|g| now + g.within),
                        },
                    );
                    if self.greeting.is_none() {
                        handler.on_open(&mut Ops { conns: &mut self.conns }, Token(t));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// True if any wake bytes were pending.
    fn drain_waker(&mut self) -> bool {
        let Some(rx) = &mut self.waker_rx else { return false };
        let mut scratch = [0u8; 256];
        let mut woke = false;
        loop {
            match rx.read(&mut scratch) {
                Ok(0) => break, // waker writer gone; treat as drained
                Ok(_) => woke = true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        woke
    }

    fn read_ready<H: Handler>(&mut self, handler: &mut H, t: usize, now: Instant) {
        let mut gone = false;
        {
            let Some(conn) = self.conns.get_mut(&t) else { return };
            loop {
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        gone = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.extend(&self.scratch[..n]);
                        conn.last_read = now;
                        // A short read drained the socket. Poll is
                        // level-triggered, so bytes or an EOF that arrive
                        // after it are reported on the next iteration;
                        // reading again now would only earn `WouldBlock`.
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        gone = true;
                        break;
                    }
                }
            }
        }
        // Deliver complete frames one at a time, re-borrowing between
        // callbacks (the handler may close this or any other token).
        loop {
            let (hello_due, (kind, payload)) = match self.conns.get_mut(&t) {
                None => return, // handler closed it mid-batch
                // The first frame ends the wait for a HELLO either way: a
                // refused peer is closed or finished, never reported.
                Some(conn) => match conn.decoder.next_frame() {
                    Ok(Some(f)) => (conn.hello_by.take().is_some(), f),
                    Ok(None) => break,
                    Err(_) => {
                        // Frame-layer violation: the stream is no longer
                        // frame-aligned; it cannot be served further.
                        self.close_remote(handler, t);
                        return;
                    }
                },
            };
            let ops = &mut Ops { conns: &mut self.conns };
            match self.greeting {
                Some(rules) if hello_due => {
                    if !rules.admit(ops, Token(t), kind, &payload) {
                        return;
                    }
                    handler.on_open(ops, Token(t));
                }
                Some(_) if kind == frame::KIND_PING => {
                    ops.send(Token(t), kind, &payload);
                }
                _ => handler.on_frame(ops, Token(t), kind, payload),
            }
        }
        if gone {
            self.close_remote(handler, t);
        }
    }

    fn flush_ready<H: Handler>(&mut self, handler: &mut H, t: usize) {
        let (failed, done) = match self.conns.get_mut(&t) {
            None => return,
            Some(conn) => match conn.flush() {
                Ok(()) => (false, conn.finishing && !conn.has_pending()),
                Err(_) => (true, false),
            },
        };
        if failed {
            self.close_remote(handler, t);
        } else if done {
            // A locally finished connection has drained its goodbye.
            if let Some(conn) = self.conns.remove(&t) {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Echoes every frame back, closes on kind 0xFF, stops when idle
    /// after having served `clients` connections (stopping at the first
    /// idle moment would refuse clients that had not connected yet).
    struct Echo {
        served: usize,
        clients: usize,
        woke: Arc<AtomicBool>,
    }

    impl Handler for Echo {
        fn on_open(&mut self, _ops: &mut Ops<'_>, _token: Token) {
            self.served += 1;
        }
        fn on_frame(&mut self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: Vec<u8>) {
            if kind == 0xFF {
                ops.close(token);
            } else {
                assert!(ops.send(token, kind, &payload));
            }
        }
        fn on_close(&mut self, _ops: &mut Ops<'_>, _token: Token) {}
        fn on_wake(&mut self, _ops: &mut Ops<'_>) {
            self.woke.store(true, Ordering::Relaxed);
        }
        fn on_tick(&mut self, ops: &mut Ops<'_>, _now: Instant) -> Flow {
            if self.served == self.clients && ops.is_empty() {
                Flow::Stop
            } else {
                Flow::Continue
            }
        }
    }

    fn blocking_frame_roundtrip(stream: &mut TcpStream, kind: u8, payload: &[u8]) -> (u8, Vec<u8>) {
        stream.write_all(&frame::encode_frame(kind, payload).unwrap()).unwrap();
        let mut dec = FrameDecoder::new();
        let mut scratch = [0u8; 4096];
        loop {
            if let Some(f) = dec.next_frame().unwrap() {
                return f;
            }
            let n = stream.read(&mut scratch).unwrap();
            assert!(n > 0, "peer closed mid-frame");
            dec.extend(&scratch[..n]);
        }
    }

    #[test]
    fn echo_serves_many_blocking_clients_from_one_loop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let woke = Arc::new(AtomicBool::new(false));
        let mut el = EventLoop::new(listener).unwrap();
        let server = {
            let woke = Arc::clone(&woke);
            std::thread::spawn(move || {
                let mut h = Echo { served: 0, clients: 24, woke };
                el.run(&mut h).unwrap();
                h.served
            })
        };

        let clients: Vec<_> = (0..24u8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    for round in 0..3u8 {
                        let payload = vec![i; 10 + round as usize];
                        let (kind, echoed) = blocking_frame_roundtrip(&mut s, i, &payload);
                        assert_eq!((kind, echoed), (i, payload));
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(server.join().unwrap(), 24);
        assert!(!woke.load(Ordering::Relaxed));
    }

    #[test]
    fn waker_interrupts_an_idle_loop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut el = EventLoop::new(listener).unwrap();
        let waker = el.waker().unwrap();
        let woke = Arc::new(AtomicBool::new(false));

        struct StopOnWake(Arc<AtomicBool>);
        impl Handler for StopOnWake {
            fn on_open(&mut self, _: &mut Ops<'_>, _: Token) {}
            fn on_frame(&mut self, _: &mut Ops<'_>, _: Token, _: u8, _: Vec<u8>) {}
            fn on_close(&mut self, _: &mut Ops<'_>, _: Token) {}
            fn on_wake(&mut self, _: &mut Ops<'_>) {
                self.0.store(true, Ordering::Relaxed);
            }
            fn on_tick(&mut self, _: &mut Ops<'_>, _: Instant) -> Flow {
                if self.0.load(Ordering::Relaxed) {
                    Flow::Stop
                } else {
                    Flow::Continue
                }
            }
        }

        let server = {
            let woke = Arc::clone(&woke);
            std::thread::spawn(move || el.run(&mut StopOnWake(woke)).unwrap())
        };
        std::thread::sleep(Duration::from_millis(30));
        waker.wake();
        server.join().unwrap();
        assert!(woke.load(Ordering::Relaxed));
    }

    #[test]
    fn frame_violation_reports_close_exactly_once() {
        struct Track {
            closes: usize,
            opened: bool,
        }
        impl Handler for Track {
            fn on_open(&mut self, _: &mut Ops<'_>, _: Token) {
                self.opened = true;
            }
            fn on_frame(&mut self, _: &mut Ops<'_>, _: Token, _: u8, _: Vec<u8>) {
                panic!("a zero-length frame must never be delivered");
            }
            fn on_close(&mut self, _: &mut Ops<'_>, _: Token) {
                self.closes += 1;
            }
            fn on_tick(&mut self, ops: &mut Ops<'_>, _: Instant) -> Flow {
                if self.opened && ops.is_empty() {
                    Flow::Stop
                } else {
                    Flow::Continue
                }
            }
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut el = EventLoop::new(listener).unwrap();
        let server = std::thread::spawn(move || {
            let mut h = Track { closes: 0, opened: false };
            el.run(&mut h).unwrap();
            h.closes
        });
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&0u32.to_le_bytes()).unwrap();
        // Keep the socket open: the close must come from the violation,
        // not from EOF.
        assert_eq!(server.join().unwrap(), 1);
        drop(s);
    }

    /// The protocol version the greeted-loop tests speak.
    const V: u8 = 7;

    /// Echoes every frame the loop delivers and records what reached it;
    /// stops when told to.
    #[derive(Default)]
    struct Recorder {
        opens: usize,
        closes: usize,
        kinds: Vec<u8>,
        stop: Arc<AtomicBool>,
    }

    impl Handler for Recorder {
        fn on_open(&mut self, _: &mut Ops<'_>, _: Token) {
            self.opens += 1;
        }
        fn on_frame(&mut self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: Vec<u8>) {
            self.kinds.push(kind);
            ops.send(token, kind, &payload);
        }
        fn on_close(&mut self, _: &mut Ops<'_>, _: Token) {
            self.closes += 1;
        }
        fn on_tick(&mut self, _: &mut Ops<'_>, _: Instant) -> Flow {
            if self.stop.load(Ordering::Relaxed) {
                Flow::Stop
            } else {
                Flow::Continue
            }
        }
    }

    /// Serve a [`Recorder`] on a greeted loop; the returned closure stops
    /// the loop and hands back what the recorder saw.
    fn greeted_recorder(within: Duration) -> (SocketAddr, impl FnOnce() -> Recorder) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut el = EventLoop::greeted(listener, V, within).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut h = Recorder { stop, ..Recorder::default() };
                el.run(&mut h).unwrap();
                h
            })
        };
        let finish = move || {
            stop.store(true, Ordering::Relaxed);
            server.join().unwrap()
        };
        (addr, finish)
    }

    /// The next frame from a blocking stream, `None` once the peer closed.
    fn recv(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
        let mut dec = FrameDecoder::new();
        let mut scratch = [0u8; 4096];
        loop {
            if let Some(f) = dec.next_frame().unwrap() {
                return Some(f);
            }
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => return None,
                Ok(n) => dec.extend(&scratch[..n]),
            }
        }
    }

    fn send(stream: &mut TcpStream, kind: u8, payload: &[u8]) {
        stream.write_all(&frame::encode_frame(kind, payload).unwrap()).unwrap();
    }

    #[test]
    fn greeted_loop_closes_a_first_frame_that_is_not_hello() {
        let (addr, finish) = greeted_recorder(Duration::from_secs(10));
        for (kind, payload) in [(0x42, &b"query"[..]), (frame::KIND_HELLO, &[][..])] {
            let mut s = TcpStream::connect(addr).unwrap();
            send(&mut s, kind, payload);
            assert_eq!(recv(&mut s), None, "kind {kind:#x}: closed unanswered");
        }
        let seen = finish();
        assert_eq!((seen.opens, seen.closes, seen.kinds.len()), (0, 0, 0));
    }

    #[test]
    fn greeted_loop_answers_a_version_mismatch_then_closes() {
        let (addr, finish) = greeted_recorder(Duration::from_secs(10));
        let mut s = TcpStream::connect(addr).unwrap();
        send(&mut s, frame::KIND_HELLO, &[V + 1]);
        assert_eq!(recv(&mut s), Some((frame::KIND_HELLO, vec![V])), "ours, before the close");
        assert_eq!(recv(&mut s), None);
        let seen = finish();
        assert_eq!((seen.opens, seen.closes), (0, 0), "the handler never saw the peer");
    }

    #[test]
    fn greeted_loop_echoes_ping_without_delivering_it() {
        let within = Duration::from_millis(200);
        let (addr, finish) = greeted_recorder(within);
        let mut s = TcpStream::connect(addr).unwrap();
        send(&mut s, frame::KIND_HELLO, &[V]);
        assert_eq!(recv(&mut s), Some((frame::KIND_HELLO, vec![V])));
        // Idling between frames is no stall.
        std::thread::sleep(within * 2);
        send(&mut s, frame::KIND_PING, b"still here");
        assert_eq!(recv(&mut s), Some((frame::KIND_PING, b"still here".to_vec())));
        send(&mut s, 0x42, b"work");
        assert_eq!(recv(&mut s), Some((0x42, b"work".to_vec())));
        let seen = finish();
        assert_eq!(seen.kinds, vec![0x42], "the ping never reached the handler");
        assert_eq!(seen.opens, 1);
    }

    #[test]
    fn greeted_loop_cuts_a_silent_peer_without_callbacks() {
        let within = Duration::from_millis(200);
        let (addr, finish) = greeted_recorder(within);
        let started = Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        assert_eq!(recv(&mut s), None, "a peer that never says HELLO is closed");
        let waited = started.elapsed();
        assert!(waited >= within && waited < Duration::from_secs(5), "{waited:?}");
        let seen = finish();
        assert_eq!((seen.opens, seen.closes), (0, 0));
    }

    #[test]
    fn greeted_loop_cuts_a_peer_stalled_mid_frame_through_on_close() {
        let within = Duration::from_millis(200);
        let (addr, finish) = greeted_recorder(within);
        let mut s = TcpStream::connect(addr).unwrap();
        send(&mut s, frame::KIND_HELLO, &[V]);
        assert_eq!(recv(&mut s), Some((frame::KIND_HELLO, vec![V])));
        // Three bytes of a length prefix, then nothing.
        s.write_all(&[16, 0, 0]).unwrap();
        assert_eq!(recv(&mut s), None, "the stalled peer is cut");
        let seen = finish();
        assert_eq!((seen.opens, seen.closes), (1, 1), "the cut reaches on_close");
        assert!(seen.kinds.is_empty());
    }

    #[test]
    fn a_last_frame_sent_with_the_fin_is_delivered_before_the_close() {
        // One frame and the FIN back to back: the read that takes the
        // frame is short and ends the readiness event, so the EOF must
        // still surface on the next one.
        let (addr, finish) = greeted_recorder(Duration::from_secs(10));
        let mut s = TcpStream::connect(addr).unwrap();
        send(&mut s, frame::KIND_HELLO, &[V]);
        assert_eq!(recv(&mut s), Some((frame::KIND_HELLO, vec![V])));
        send(&mut s, 0x42, b"last words");
        s.shutdown(Shutdown::Write).unwrap();
        // A lost EOF shows as a timed-out read and no `on_close` below.
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(recv(&mut s), Some((0x42, b"last words".to_vec())));
        assert_eq!(recv(&mut s), None, "the EOF closed the connection");
        let seen = finish();
        assert_eq!((seen.opens, seen.closes, seen.kinds), (1, 1, vec![0x42]));
    }

    #[test]
    fn a_frame_larger_than_a_read_is_delivered_whole() {
        let (addr, finish) = greeted_recorder(Duration::from_secs(10));
        let mut s = TcpStream::connect(addr).unwrap();
        send(&mut s, frame::KIND_HELLO, &[V]);
        assert_eq!(recv(&mut s), Some((frame::KIND_HELLO, vec![V])));
        let payload: Vec<u8> = (0..3 * READ_CHUNK + 123).map(|i| i as u8).collect();
        send(&mut s, 0x42, &payload);
        assert_eq!(recv(&mut s), Some((0x42, payload)));
        let seen = finish();
        assert_eq!((seen.opens, seen.closes, seen.kinds), (1, 0, vec![0x42]));
    }

    #[test]
    fn finish_flushes_the_goodbye_before_closing() {
        struct SendAndFinish;
        impl Handler for SendAndFinish {
            fn on_open(&mut self, ops: &mut Ops<'_>, token: Token) {
                let big = vec![7u8; 512 * 1024];
                assert!(ops.send(token, 0x55, &big));
                ops.finish(token);
            }
            fn on_frame(&mut self, _: &mut Ops<'_>, _: Token, _: u8, _: Vec<u8>) {}
            fn on_close(&mut self, _: &mut Ops<'_>, _: Token) {
                panic!("finish() must not fire on_close");
            }
            fn on_tick(&mut self, ops: &mut Ops<'_>, _: Instant) -> Flow {
                if ops.is_empty() {
                    Flow::Stop
                } else {
                    Flow::Continue
                }
            }
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut el = EventLoop::new(listener).unwrap();
        let server = std::thread::spawn(move || el.run(&mut SendAndFinish).unwrap());
        let mut s = TcpStream::connect(addr).unwrap();
        let mut dec = FrameDecoder::new();
        let mut scratch = [0u8; 8192];
        let frame = loop {
            if let Some(f) = dec.next_frame().unwrap() {
                break f;
            }
            let n = s.read(&mut scratch).unwrap();
            assert!(n > 0, "whole frame must arrive before the close");
            dec.extend(&scratch[..n]);
        };
        assert_eq!(frame.0, 0x55);
        assert_eq!(frame.1.len(), 512 * 1024);
        assert_eq!(s.read(&mut scratch).unwrap(), 0, "clean close after the goodbye");
        server.join().unwrap();
    }
}
