//! Chaos suite for the elastic TCP runtime — the paper's *non-dedicated
//! cluster* conditions, reproduced deliberately: clients join late, stall
//! past their lease or halfway through a frame, announce the wrong protocol version, return tallies
//! of another scenario's shape, die while parked or while holding work, or
//! never show up at all.
//!
//! Every test asserts one of exactly two outcomes: a tally **bit-identical
//! to `Sequential`** for the same `Scenario` (requeue determinism: the
//! same `task_id` re-runs the same RNG substream), or a **typed error**
//! (`NetError::Incomplete`, `VersionMismatch`, `InvalidConfig`) — never a
//! silently partial `Ok`, and never a hang (each body runs under a
//! watchdog). Photon budgets are small so the whole suite stays in the
//! fast loop on a single-core container.

use lumen_cluster::net::{
    handshake, read_frame, write_frame, KIND_ASSIGN, KIND_COMPLETE, KIND_HELLO, KIND_REQUEST,
};
use lumen_cluster::wire;
use lumen_cluster::{serve_with_options, NetError, NetReport, ServeOptions, Tcp};
use lumen_core::engine::{Backend, Scenario, Sequential};
use lumen_core::tally::{PathHistogram, Tally};
use lumen_core::{Detector, Simulation, Source};
use lumen_tissue::presets::semi_infinite_phantom;
use mcrng::StreamFactory;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Abort the test (with a named panic, not a CI timeout) if `f` does not
/// finish within `limit` — the suite's "never a hang" guarantee.
fn watchdog<T: Send + 'static>(
    name: &str,
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let body = thread::spawn(move || {
        tx.send(f()).ok();
    });
    match rx.recv_timeout(limit) {
        Ok(v) => {
            body.join().ok();
            v
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: `{name}` still running after {limit:?} — the server hung")
        }
        // The body panicked before sending: re-raise its panic, not ours.
        Err(mpsc::RecvTimeoutError::Disconnected) => match body.join() {
            Err(cause) => std::panic::resume_unwind(cause),
            Ok(()) => panic!("watchdog: `{name}` exited without a result"),
        },
    }
}

fn sim() -> Simulation {
    Simulation::new(
        semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
        Source::Delta,
        Detector::new(1.0, 0.5),
    )
}

fn sequential_tally(s: &Simulation, n: u64, seed: u64, tasks: u64) -> Tally {
    let scenario = Scenario::from_simulation(s, n, seed).with_tasks(tasks);
    Sequential.run(&scenario).expect("valid scenario").result.tally.clone()
}

/// Connect-with-retry: the server's listener comes up asynchronously.
fn connect(addr: &str) -> TcpStream {
    for _ in 0..500 {
        if let Ok(c) = TcpStream::connect(addr) {
            return c;
        }
        thread::sleep(Duration::from_millis(5));
    }
    panic!("could not connect to {addr}");
}

/// A well-behaved protocol client driven frame-by-frame, for tests that
/// need to stop (or misbehave) at an exact point in the conversation.
struct ManualClient {
    stream: TcpStream,
}

impl ManualClient {
    fn joined(addr: &str) -> Self {
        let mut stream = connect(addr);
        handshake(&mut stream).expect("handshake");
        Self { stream }
    }

    /// Request and receive one assignment, leaving the lease open.
    fn take_task(&mut self) -> lumen_cluster::protocol::SimTask {
        write_frame(&mut self.stream, KIND_REQUEST, &[]).expect("request");
        let (kind, payload) = read_frame(&mut self.stream).expect("assignment");
        assert_eq!(kind, KIND_ASSIGN, "expected an assignment");
        wire::decode_task(&payload).expect("task decodes")
    }
}

/// Run `run_client` loops until the server shuts them down, asserting
/// client-side success.
fn spawn_client(addr: &str, s: &Simulation, seed: u64) -> thread::JoinHandle<u64> {
    let addr = addr.to_string();
    let s = s.clone();
    thread::spawn(move || {
        for _ in 0..500 {
            match lumen_cluster::run_client(&addr, &s, seed) {
                Ok(n) => return n,
                Err(_) => thread::sleep(Duration::from_millis(5)),
            }
        }
        panic!("client never connected");
    })
}

fn serve_on(
    s: &Simulation,
    n: u64,
    tasks: u64,
    options: ServeOptions,
) -> (String, thread::JoinHandle<Result<NetReport, NetError>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let s = s.clone();
    let server = thread::spawn(move || {
        serve_with_options(listener, &s, n, tasks, options, &lumen_core::engine::NoProgress)
    });
    (addr, server)
}

#[test]
fn late_joiner_is_served_and_counted() {
    watchdog("late_joiner", Duration::from_secs(60), || {
        let s = sim();
        let (n, tasks, seed) = (2_000, 8, 11);
        // min_clients = 2: the first client's requests park until the
        // quorum arrives, proving both the start gate and that a later
        // connection is admitted mid-run and handed work immediately.
        let options = ServeOptions::default().with_min_clients(2);
        let (addr, server) = serve_on(&s, n, tasks, options);

        let a = spawn_client(&addr, &s, seed);
        thread::sleep(Duration::from_millis(300));
        let b = spawn_client(&addr, &s, seed);

        let report = server.join().expect("server thread").expect("serve ok");
        let done = a.join().expect("a") + b.join().expect("b");

        assert_eq!(done, tasks);
        assert_eq!(report.clients_served, 2, "late joiner must be counted");
        assert_eq!(report.result.tally, sequential_tally(&s, n, seed, tasks));
    });
}

#[test]
fn lease_timeout_revokes_and_requeues_bit_identically() {
    watchdog("lease_timeout", Duration::from_secs(60), || {
        let s = sim();
        let (n, tasks, seed) = (2_000, 4, 3);
        let options = ServeOptions::default()
            .with_min_clients(1)
            .with_lease_timeout(Duration::from_millis(300));
        let (addr, server) = serve_on(&s, n, tasks, options);

        // A stalling client takes a task and never completes it; its
        // lease must be revoked at the deadline and the identical batch
        // re-run elsewhere.
        let mut staller = ManualClient::joined(&addr);
        let stalled_task = staller.take_task();

        thread::sleep(Duration::from_millis(100));
        let good = spawn_client(&addr, &s, seed);

        let report = server.join().expect("server thread").expect("serve ok");
        assert!(report.requeues >= 1, "the stalled lease must be requeued");
        assert_eq!(report.result.tally, sequential_tally(&s, n, seed, tasks));

        // The laggard was cut at revocation: its connection is dead.
        let gone = read_frame(&mut staller.stream);
        assert!(gone.is_err(), "revoked client should have been disconnected");
        let completed = good.join().expect("good client");
        assert_eq!(completed, tasks, "the survivor re-ran task {}", stalled_task.task_id);
    });
}

#[test]
fn client_stalled_mid_frame_is_cut_within_the_join_grace() {
    watchdog("mid_frame_stall", Duration::from_secs(30), || {
        // A client that stops halfway through its COMPLETE must not keep
        // its task for the whole lease: the loop cuts it once the frame
        // has stalled for the join grace, and the task is requeued.
        let s = sim();
        let (n, tasks, seed) = (2_000, 4, 19);
        let options = ServeOptions::default()
            .with_lease_timeout(Duration::from_secs(600))
            .with_join_grace(Duration::from_secs(1));
        let (addr, server) = serve_on(&s, n, tasks, options);

        let mut staller = ManualClient::joined(&addr);
        staller.take_task();
        let mut complete = Vec::new();
        write_frame(&mut complete, KIND_COMPLETE, &wire::encode_tally(&s.new_tally()))
            .expect("encode");
        staller.stream.write_all(&complete[..complete.len() / 2]).expect("half a frame");

        let good = spawn_client(&addr, &s, seed);
        let report = server.join().expect("server thread").expect("serve ok");
        assert_eq!(good.join().expect("good client"), tasks);
        assert!(report.requeues >= 1, "the stalled lease must be requeued");
        assert_eq!(report.result.tally, sequential_tally(&s, n, seed, tasks));
        assert!(read_frame(&mut staller.stream).is_err(), "the staller was cut");
    });
}

#[test]
fn lost_task_regression_dead_parked_worker_and_dead_lease_holder() {
    watchdog("lost_task_regression", Duration::from_secs(60), || {
        // The PR-2 runtime dropped a task on the floor here: B parks in
        // `waiting`, dies (its Disconnected event is consumed), then A —
        // holding the only lease — dies too; the requeue loop popped dead
        // B, `send(..).ok()` swallowed the failure, and the run ended
        // with a partial tally reported as success. Now B is purged from
        // the wait queue, the hand-off failure requeues, and a fresh
        // client C finishes the run bit-identically.
        let s = sim();
        let (n, tasks, seed) = (1_000, 1, 21);
        let (addr, server) = serve_on(&s, n, tasks, ServeOptions::default());

        // A takes the only task and holds it.
        let mut a = ManualClient::joined(&addr);
        let _leased = a.take_task();

        // B requests (queue empty -> parks in `waiting`), poisons its
        // connection with a garbage frame, and dies. When the requeue
        // below hands B the surrendered task, the hand-off must fail
        // fast and put the task back instead of dropping it.
        let mut b = ManualClient::joined(&addr);
        write_frame(&mut b.stream, KIND_REQUEST, &[]).expect("request");
        thread::sleep(Duration::from_millis(100));
        write_frame(&mut b.stream, 0x7f, b"garbage").expect("poison frame");
        drop(b);
        thread::sleep(Duration::from_millis(100));

        // A dies holding the lease: the task must survive both corpses.
        drop(a);
        thread::sleep(Duration::from_millis(100));

        let c = spawn_client(&addr, &s, seed);
        let report = server.join().expect("server thread").expect("serve ok");
        assert!(report.requeues >= 1);
        assert_eq!(c.join().expect("c"), 1);
        assert_eq!(
            report.result.tally,
            sequential_tally(&s, n, seed, tasks),
            "a task lost twice must still produce the sequential bits"
        );
    });
}

#[test]
fn all_clients_gone_is_a_typed_incomplete_error_not_partial_ok() {
    watchdog("all_clients_gone", Duration::from_secs(60), || {
        let s = sim();
        // The grace is generous relative to the connect/assign round-trip
        // (which must land before it expires on a loaded 1-core runner),
        // while keeping the test fast: the clock effectively starts when
        // the crash below empties the pool.
        let options =
            ServeOptions::default().with_min_clients(1).with_join_grace(Duration::from_secs(3));
        let (addr, server) = serve_on(&s, 2_000, 4, options);

        // The single client takes a task and crashes mid-work; nobody
        // replaces it within the grace period.
        let mut only = ManualClient::joined(&addr);
        let _task = only.take_task();
        drop(only);

        match server.join().expect("server thread") {
            Err(NetError::Incomplete { photons_done, photons_total, requeues }) => {
                assert_eq!(photons_done, 0, "no task completed");
                assert_eq!(photons_total, 2_000);
                assert!(requeues >= 1, "the crashed lease was requeued first");
            }
            other => panic!("expected NetError::Incomplete, got {other:?}"),
        }
    });
}

#[test]
fn abandoned_run_reports_exactly_the_photons_it_merged() {
    watchdog("abandoned_ledger", Duration::from_secs(60), || {
        let s = sim();
        let (n, tasks, seed) = (2_000, 4, 23);
        let options = ServeOptions::default().with_join_grace(Duration::from_secs(1));
        let (addr, server) = serve_on(&s, n, tasks, options);

        // The only client completes one task of four, takes the next (the
        // assignment proves the completion was merged) and crashes.
        let mut only = ManualClient::joined(&addr);
        let done = only.take_task();
        let mut tally = s.new_tally();
        let mut rng = StreamFactory::new(seed).stream(done.task_id);
        s.run_stream(done.photons, &mut rng, &mut tally, None);
        write_frame(&mut only.stream, KIND_COMPLETE, &wire::encode_tally(&tally))
            .expect("complete");
        let _held = only.take_task();
        drop(only);

        match server.join().expect("server thread") {
            Err(NetError::Incomplete { photons_done, photons_total, requeues }) => {
                assert_eq!(photons_done, done.photons, "exactly the one merged task");
                assert_eq!(photons_total, n);
                assert_eq!(requeues, 1, "the held lease was requeued");
            }
            other => panic!("expected NetError::Incomplete, got {other:?}"),
        }
    });
}

#[test]
fn idle_connected_client_cannot_hang_the_run() {
    watchdog("idle_zombie", Duration::from_secs(60), || {
        // A client that handshakes and then goes silent — no REQUEST, no
        // lease — must not hold the run open forever: after a lease
        // period of idleness it is cut, the pool empties, and the grace
        // period converts the stall into a typed error.
        let s = sim();
        let options = ServeOptions::default()
            .with_min_clients(1)
            .with_lease_timeout(Duration::from_millis(300))
            .with_join_grace(Duration::from_secs(2));
        let (addr, server) = serve_on(&s, 1_000, 2, options);

        let zombie = ManualClient::joined(&addr);
        match server.join().expect("server thread") {
            Err(NetError::Incomplete { photons_done: 0, requeues: 0, .. }) => {}
            other => panic!("expected Incomplete (no work ever done), got {other:?}"),
        }
        drop(zombie);
    });
}

#[test]
fn zero_clients_times_out_with_typed_error() {
    watchdog("zero_clients", Duration::from_secs(30), || {
        let s = sim();
        let options =
            ServeOptions::default().with_min_clients(1).with_join_grace(Duration::from_millis(200));
        let (_addr, server) = serve_on(&s, 1_000, 4, options);
        match server.join().expect("server thread") {
            Err(NetError::Incomplete { photons_done: 0, .. }) => {}
            other => panic!("expected Incomplete with zero photons, got {other:?}"),
        }
    });
}

#[test]
fn version_mismatch_hello_is_rejected_typed_on_both_ends() {
    watchdog("version_mismatch", Duration::from_secs(60), || {
        // Server side: a peer announcing the wrong version is answered
        // with our version and rejected before it can join the pool; the
        // run still completes with the compliant client only.
        let s = sim();
        let (n, tasks, seed) = (1_000, 2, 9);
        let (addr, server) = serve_on(&s, n, tasks, ServeOptions::default());

        let mut old_peer = connect(&addr);
        write_frame(&mut old_peer, KIND_HELLO, &[wire::VERSION - 1]).expect("hello");
        let (kind, payload) = read_frame(&mut old_peer).expect("server answers first");
        assert_eq!(kind, KIND_HELLO);
        assert_eq!(payload, vec![wire::VERSION], "server announces its own version");
        assert!(
            read_frame(&mut old_peer).is_err(),
            "mismatched peer must be disconnected after the answer"
        );

        let good = spawn_client(&addr, &s, seed);
        let report = server.join().expect("server thread").expect("serve ok");
        assert_eq!(good.join().expect("good"), tasks);
        assert_eq!(report.clients_served, 1, "the mismatched peer never joined");
        assert_eq!(report.result.tally, sequential_tally(&s, n, seed, tasks));
    });
}

#[test]
fn client_detects_server_version_mismatch() {
    watchdog("client_version_check", Duration::from_secs(30), || {
        // A fake "server" speaking a future version: `run_client` must
        // fail with the typed mismatch, not a decode error mid-run.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake = thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            let (kind, _) = read_frame(&mut peer).expect("client hello");
            assert_eq!(kind, KIND_HELLO);
            write_frame(&mut peer, KIND_HELLO, &[wire::VERSION + 1]).expect("reply");
        });
        let err = lumen_cluster::run_client(&addr, &sim(), 1).unwrap_err();
        match err {
            NetError::VersionMismatch { ours, theirs } => {
                assert_eq!(ours, wire::VERSION);
                assert_eq!(theirs, wire::VERSION + 1);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        fake.join().expect("fake server");
    });
}

#[test]
fn stale_completion_after_revocation_never_double_counts() {
    watchdog("stale_completion", Duration::from_secs(60), || {
        // A laggard finishes its task *after* the lease was revoked and
        // the batch re-run by someone else. The stale tally must be
        // dropped: merging it would double-count the batch's photons.
        let s = sim();
        let (n, tasks, seed) = (2_000, 4, 17);
        let options = ServeOptions::default()
            .with_min_clients(1)
            .with_lease_timeout(Duration::from_millis(250));
        let (addr, server) = serve_on(&s, n, tasks, options);

        let mut laggard = ManualClient::joined(&addr);
        let task = laggard.take_task();
        // Simulate the batch but sit on the result until well past the
        // deadline, then try to submit it anyway.
        let mut tally = s.new_tally();
        let mut rng = StreamFactory::new(seed).stream(task.task_id);
        s.run_stream(task.photons, &mut rng, &mut tally, None);
        thread::sleep(Duration::from_millis(500));
        let stale = write_frame(&mut laggard.stream, KIND_COMPLETE, &wire::encode_tally(&tally));
        // The revocation cut the socket, so the submit usually fails; if
        // the bytes do get out, the server must drop them (lease gone).
        let _ = stale;

        let good = spawn_client(&addr, &s, seed);
        let report = server.join().expect("server thread").expect("serve ok");
        good.join().expect("good client");
        assert_eq!(report.result.launched(), n, "every photon exactly once");
        assert_eq!(report.result.tally, sequential_tally(&s, n, seed, tasks));
        assert!(report.requeues >= 1);
    });
}

#[test]
fn wrong_shaped_completion_is_requeued_not_a_server_panic() {
    watchdog("wrong_shape", Duration::from_secs(60), || {
        // The scenario is agreed out of band, so a client started on a
        // different one is an ordinary misconfiguration: its tallies decode
        // fine but cannot be merged. The server must treat them like a
        // malformed tally — lease surrendered, peer cut — not panic in
        // `Tally::merge`.
        let mut s = sim();
        s.options.path_histogram = Some((200.0, 16));
        let (n, tasks, seed) = (2_000, 4, 13);
        let (addr, server) = serve_on(&s, n, tasks, ServeOptions::default());

        let other_layers = Tally::new(2, None, None).with_path_histogram(200.0, 16);
        let mut other_binning = s.new_tally();
        other_binning.path_histogram = Some(PathHistogram::new(200.0, 8));
        for wrong in [&other_layers, &other_binning] {
            let mut rogue = ManualClient::joined(&addr);
            rogue.take_task();
            write_frame(&mut rogue.stream, KIND_COMPLETE, &wire::encode_tally(wrong))
                .expect("complete");
            assert!(read_frame(&mut rogue.stream).is_err(), "the rogue must be disconnected");
        }

        let honest = spawn_client(&addr, &s, seed);
        let report = server.join().expect("server thread").expect("serve ok");
        assert_eq!(honest.join().expect("honest client"), tasks);
        assert_eq!(report.requeues, 2, "each rejected tally surrenders its lease");
        assert_eq!(report.result.tally, sequential_tally(&s, n, seed, tasks));
    });
}

#[test]
fn backend_run_surfaces_serve_failures_as_typed_engine_errors() {
    watchdog("backend_errors", Duration::from_secs(30), || {
        // Through `Backend::run`: an invalid scenario is InvalidConfig...
        let mut bad = Scenario::from_simulation(&sim(), 1_000, 1).with_tasks(4);
        bad.detector.radius = -1.0;
        let err = Tcp::new("127.0.0.1:0").run(&bad).unwrap_err();
        assert!(matches!(err, lumen_core::engine::EngineError::InvalidConfig(_)), "{err}");

        // ...and a run abandoned with no clients is a Backend error
        // naming the incomplete state, never an Ok with an empty tally.
        let scenario = Scenario::from_simulation(&sim(), 1_000, 1).with_tasks(4);
        let err = Tcp::new("127.0.0.1:0")
            .with_join_grace(Duration::from_millis(200))
            .run(&scenario)
            .unwrap_err();
        match err {
            lumen_core::engine::EngineError::Backend { backend, reason } => {
                assert_eq!(backend, "tcp");
                assert!(reason.contains("incomplete"), "reason names the failure: {reason}");
            }
            other => panic!("expected a backend error, got {other:?}"),
        }
    });
}
