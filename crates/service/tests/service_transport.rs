//! Transport-core legs for the daemon: dead-client cancellation (a
//! disconnect mid-trace, or a stall mid-frame, must stop burning
//! worker-pool budget within one chunk), the 100+-concurrent-client scale test the old
//! thread-per-connection front end could not express, and the poll
//! thread's inline hits (never queued behind a trace, never out of
//! request order on their own connection). All replies stay
//! byte-deterministic — an answer from a daemon juggling a hundred
//! sockets is bit-identical to one computed by a private service
//! instance, and a cancelled fold is discarded whole, never cached.

use lumen_cluster::net::{handshake, read_frame, write_frame, write_frame_to, KIND_PING};
use lumen_cluster::wire;
use lumen_core::engine::Scenario;
use lumen_core::{Detector, Source};
use lumen_service::proto::{self, KIND_ERROR, KIND_QUERY, KIND_RESULT};
use lumen_service::{Served, ServiceClient, ServiceOptions, ServiceServer, SimulationService};
use lumen_tissue::presets::semi_infinite_phantom;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Abort with a named panic (not a CI timeout) if `f` does not finish in
/// time.
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
            panic!("watchdog: `{name}` still running after {limit:?} — the daemon hung")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match body.join() {
            Err(cause) => std::panic::resume_unwind(cause),
            Ok(()) => panic!("watchdog: `{name}` exited without a result"),
        },
    }
}

fn scenario(seed: u64, photons: u64) -> Scenario {
    Scenario::new(
        semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
        Source::Delta,
        Detector::new(1.0, 0.5),
    )
    .with_photons(photons)
    .with_seed(seed)
}

fn service(chunk_photons: u64) -> Arc<SimulationService> {
    service_with_workers(chunk_photons, 4)
}

fn service_with_workers(chunk_photons: u64, workers: usize) -> Arc<SimulationService> {
    Arc::new(
        SimulationService::new(
            ServiceOptions::default()
                .with_backend("sequential")
                .with_chunk_photons(chunk_photons)
                .with_chunk_tasks(4)
                .with_workers(workers),
        )
        .expect("valid options"),
    )
}

const LIMIT: Duration = Duration::from_secs(120);

#[test]
fn dead_client_cancels_its_trace_within_a_chunk_or_two() {
    watchdog("dead-client cancellation", LIMIT, || {
        // 400 chunks of work: a full trace takes many seconds, so if the
        // daemon kept tracing for the corpse, the budget below would be
        // blown by orders of magnitude.
        let svc = service(10_000);
        let server = ServiceServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind daemon");

        {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            handshake(&mut stream).expect("hello");
            write_frame(&mut stream, KIND_QUERY, &wire::encode_scenario(&scenario(31, 4_000_000)))
                .expect("send doomed query");
        } // client dies before the first chunk is done

        // The close event reaches the poll loop within milliseconds and
        // raises the job's cancel flag; the executor checks it before
        // every chunk. Wait for the cancellation to be accounted.
        let mut cancelled = 0;
        for _ in 0..1_000 {
            cancelled = svc.stats().cancelled;
            if cancelled >= 1 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(cancelled, 1, "the abandoned query must be cancelled, not traced out");
        let stats = svc.stats();
        assert!(
            stats.chunks_traced < 40,
            "cancellation must stop the fold early: {} of 400 chunks traced",
            stats.chunks_traced
        );
        assert_eq!(stats.entries, 0, "a cancelled fold is discarded whole, never cached");

        // The daemon is healthy: a live client still gets full service.
        let mut client = ServiceClient::connect(server.local_addr()).expect("client");
        let reply = client.query(&scenario(1, 10_000)).expect("query after cancellation");
        assert_eq!(reply.served, Served::Cold);
        assert_eq!(reply.photons_done, 10_000);
        server.shutdown();
    })
}

#[test]
fn client_stalled_mid_frame_has_its_trace_cancelled() {
    watchdog("mid-frame stall cancellation", LIMIT, || {
        // A client whose miss is tracing, and which then stops halfway
        // through its next frame, is cut by the loop's stall guard (10 s);
        // the cut cancels the trace exactly as a disconnect does.
        let svc = service(10_000);
        let server = ServiceServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind daemon");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        handshake(&mut stream).expect("hello");
        let query = wire::encode_scenario(&scenario(41, 400_000_000));
        write_frame(&mut stream, KIND_QUERY, &query).expect("send long query");
        stream.write_all(&[0xFF, 0xFF]).expect("half a length prefix");

        let started = Instant::now();
        while svc.stats().cancelled == 0 {
            assert!(started.elapsed() < Duration::from_secs(60), "the trace was never cancelled");
            thread::sleep(Duration::from_millis(50));
        }
        assert!(started.elapsed() >= Duration::from_secs(5), "cut only after the stall guard");
        assert_eq!(svc.stats().entries, 0, "a cancelled fold is discarded whole, never cached");
        assert!(read_frame(&mut stream).is_err(), "the stalled client was cut");
        server.shutdown();
    })
}

#[test]
fn hundred_plus_clients_share_one_loop_and_one_trace_per_key() {
    watchdog("hundred-client daemon", LIMIT, || {
        const CLIENTS: usize = 104;
        const KEYS: u64 = 8;

        let svc = service(2_000);
        let server = ServiceServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind daemon");
        let addr = server.local_addr();

        // 104 concurrent connections, 13 per key: the poll loop carries
        // them all on one thread while the in-flight claim table makes
        // sure each key's 4_000 photons are traced exactly once.
        let replies: Vec<(u64, Vec<u8>)> = (0..CLIENTS)
            .map(|i| {
                let seed = i as u64 % KEYS;
                thread::spawn(move || {
                    let mut client = loop {
                        match ServiceClient::connect(addr) {
                            Ok(c) => break c,
                            Err(_) => thread::sleep(Duration::from_millis(5)),
                        }
                    };
                    let reply = client.query(&scenario(seed, 4_000)).expect("query");
                    assert_eq!(reply.photons_done, 4_000);
                    (seed, wire::encode_tally(&reply.tally))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();

        // Every answer is bit-identical to a private service instance's
        // answer for the same key: a hundred multiplexed connections do
        // not change the bytes.
        let reference = service(2_000);
        for (seed, bytes) in &replies {
            let expect = reference.query(&scenario(*seed, 4_000)).expect("reference query");
            assert_eq!(
                bytes,
                &wire::encode_tally(&expect.tally),
                "seed {seed} served different bytes under load"
            );
        }

        // Exactly one trace per key, no matter how many sockets asked:
        // 8 keys x 2 chunks, 8 cold serves, 96 warm.
        let stats = svc.stats();
        assert_eq!(stats.chunks_traced, KEYS * 2, "load must not cause duplicate tracing");
        assert_eq!(stats.cold, KEYS);
        assert_eq!(stats.warm as usize, CLIENTS - KEYS as usize);
        server.shutdown();
    })
}

#[test]
fn a_hit_is_not_queued_behind_a_trace() {
    watchdog("hit beside a trace", LIMIT, || {
        // One executor thread, and it is about to be busy for a long
        // time: a hit that needed it would wait the whole trace out.
        let svc = service_with_workers(10_000, 1);
        let server = ServiceServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind daemon");
        let mut b = ServiceClient::connect(server.local_addr()).expect("client B");
        let primed = b.query(&scenario(2, 10_000)).expect("prime Y");
        assert_eq!(primed.served, Served::Cold);

        // Connection A: 400 chunks, many seconds of tracing. Wait until
        // the executor has finished at least one of them, so the trace
        // is under way — not merely queued — when B asks.
        let mut a = TcpStream::connect(server.local_addr()).expect("connect A");
        handshake(&mut a).expect("hello");
        write_frame(&mut a, KIND_QUERY, &wire::encode_scenario(&scenario(31, 4_000_000)))
            .expect("send the long cold query");
        while svc.stats().chunks_traced < 2 {
            thread::sleep(Duration::from_millis(1));
        }

        let asked = Instant::now();
        let reply = b.query(&scenario(2, 10_000)).expect("warm Y beside the trace");
        let waited = asked.elapsed();
        let stats = svc.stats();
        assert_eq!(reply.served, Served::Warm);
        assert_eq!(reply.tally, primed.tally);
        assert_eq!((stats.cold, stats.warm), (1, 1), "A must still be outstanding: {stats:?}");
        assert!(waited < Duration::from_millis(250), "the hit waited {waited:?} behind a trace");

        drop(a); // cancels the trace; shutdown would too
        server.shutdown();
    })
}

#[test]
fn pipelined_queries_are_answered_in_request_order() {
    watchdog("pipelined ordering", LIMIT, || {
        let svc = service(10_000);
        let server = ServiceServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind daemon");
        let y = wire::encode_scenario(&scenario(2, 10_000));
        let primed = ServiceClient::connect(server.local_addr())
            .and_then(|mut c| c.query(&scenario(2, 10_000)))
            .expect("prime Y");

        // Five requests in one write: the hits behind the miss must wait
        // for it (queued while the connection is busy, then served inline
        // in order), and the malformed one must not break the sequence.
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        handshake(&mut stream).expect("hello");
        let x = wire::encode_scenario(&scenario(3, 10_000));
        let mut burst = Vec::new();
        for payload in [&x[..], &y, &y, &y[..y.len() / 2], &y] {
            write_frame_to(&mut burst, KIND_QUERY, payload).expect("frame");
        }
        stream.write_all(&burst).expect("one write, five queries");

        let mut got = Vec::new();
        for _ in 0..5 {
            let (kind, payload) = read_frame(&mut stream).expect("reply");
            got.push(match kind {
                KIND_RESULT => {
                    let reply = proto::decode_reply(&payload).expect("reply decodes");
                    if reply.served == Served::Warm {
                        assert_eq!(reply.tally, primed.tally);
                    }
                    reply.served.as_str()
                }
                KIND_ERROR => "error",
                other => panic!("unexpected frame kind {other:#x}"),
            });
        }
        assert_eq!(got, ["cold", "warm", "warm", "error", "warm"]);
        let stats = svc.stats();
        assert_eq!((stats.cold, stats.warm), (2, 3), "{stats:?}");

        // The typed error left the connection open.
        write_frame(&mut stream, KIND_PING, b"still here").expect("ping");
        assert_eq!(read_frame(&mut stream).expect("pong"), (KIND_PING, b"still here".to_vec()));
        server.shutdown();
    })
}
