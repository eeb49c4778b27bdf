//! Transport-core legs for the daemon: dead-client cancellation (a
//! disconnect mid-trace, or a stall mid-frame, must stop burning
//! worker-pool budget within one chunk), the 100+-concurrent-client scale test the old
//! thread-per-connection front end could not express, and the poll
//! thread's inline hits (never queued behind a trace, never out of
//! request order on their own connection), and the per-connection memo
//! that answers a byte-equal repeat without decoding or hashing it (never
//! for a different payload, never from an evicted entry, never for a
//! refused one, never ahead of the miss it is queued behind). All replies stay
//! byte-deterministic — an answer from a daemon juggling a hundred
//! sockets is bit-identical to one computed by a private service
//! instance, and a cancelled fold is discarded whole, never cached.

use lumen_cluster::net::{handshake, read_frame, write_frame, KIND_PING};
use lumen_cluster::wire;
use lumen_core::engine::Scenario;
use lumen_core::{Detector, Source};
use lumen_service::proto::{self, KIND_ERROR, KIND_QUERY, KIND_RESULT};
use lumen_service::{
    scenario_key, Served, ServiceClient, ServiceOptions, ServiceServer, SimulationService,
};
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
            write_frame(&mut burst, KIND_QUERY, payload).expect("frame");
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

/// A raw, greeted connection to `server`.
fn connect(server: &ServiceServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    handshake(&mut stream).expect("hello");
    stream
}

/// One query's reply frame on `stream`.
fn ask(stream: &mut TcpStream, payload: &[u8]) -> (u8, Vec<u8>) {
    write_frame(stream, KIND_QUERY, payload).expect("query");
    read_frame(stream).expect("reply")
}

#[test]
fn a_connection_alternating_two_near_identical_queries_gets_each_its_own_reply() {
    watchdog("memo alternation", LIMIT, || {
        // Two detectors one ulp apart: payloads differing in one byte.
        let a = scenario(5, 10_000);
        let mut b = a.clone();
        b.detector.radius = f64::from_bits(a.detector.radius.to_bits() ^ 1);
        let (pa, pb) = (wire::encode_scenario(&a), wire::encode_scenario(&b));
        assert_eq!(pa.len(), pb.len());
        assert_eq!(pa.iter().zip(&pb).filter(|(x, y)| x != y).count(), 1);

        let svc = service(10_000);
        let server = ServiceServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind daemon");
        // Prime both keys, then take each one's warm reply from a fresh
        // connection: the bytes every later answer must repeat.
        let expect: Vec<(Vec<u8>, [u8; 32])> = [(&a, &pa), (&b, &pb)]
            .into_iter()
            .map(|(s, p)| {
                assert_eq!(ask(&mut connect(&server), p).0, KIND_RESULT);
                let (kind, reply) = ask(&mut connect(&server), p);
                assert_eq!(kind, KIND_RESULT);
                (reply, scenario_key(s))
            })
            .collect();

        // Alternating, with back-to-back repeats where rounds meet (b b,
        // then a a): memo hits and memo replacements both.
        let mut stream = connect(&server);
        for round in 0..50 {
            for which in [0, 1, 1, 0] {
                let (kind, reply) = ask(&mut stream, [&pa, &pb][which]);
                assert_eq!(kind, KIND_RESULT, "round {round}");
                assert_eq!(proto::decode_reply(&reply).expect("decodes").key, expect[which].1);
                assert_eq!(reply, expect[which].0, "round {round}: query {which}'s bytes");
            }
        }
        let stats = svc.stats();
        assert_eq!((stats.cold, stats.warm), (2, 2 + 200), "{stats:?}");
        server.shutdown();
    })
}

#[test]
fn a_repeat_whose_entry_was_evicted_is_traced_again() {
    watchdog("memo after eviction", LIMIT, || {
        let (a, b) = (scenario(6, 10_000), scenario(7, 10_000));
        // A budget that holds either entry but not both.
        let both = {
            let probe = service(10_000);
            probe.query(&a).and_then(|_| probe.query(&b)).expect("probe");
            probe.stats().cached_bytes as usize
        };
        let svc = Arc::new(
            SimulationService::new(
                ServiceOptions::default()
                    .with_backend("sequential")
                    .with_chunk_photons(10_000)
                    .with_chunk_tasks(4)
                    .with_max_cache_bytes(both - 1),
            )
            .expect("valid options"),
        );
        let server = ServiceServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind daemon");
        let pa = wire::encode_scenario(&a);
        let mut stream = connect(&server);
        let (kind, first) = ask(&mut stream, &pa);
        assert_eq!(kind, KIND_RESULT);
        let first = proto::decode_reply(&first).expect("decodes");
        assert_eq!(first.served, Served::Cold);

        // Another connection's key pushes A out of the cache.
        ServiceClient::connect(server.local_addr()).and_then(|mut c| c.query(&b)).expect("B");
        let before = svc.stats();
        assert_eq!((before.cold, before.evictions, before.entries), (2, 1, 1), "{before:?}");

        let (kind, again) = ask(&mut stream, &pa);
        assert_eq!(kind, KIND_RESULT);
        let again = proto::decode_reply(&again).expect("decodes");
        let after = svc.stats();
        assert_eq!(again.served, Served::Cold, "an evicted entry is not served from the memo");
        assert_eq!(after.cold, before.cold + 1, "{after:?}");
        assert_eq!((again.key, again.tally), (first.key, first.tally));
        server.shutdown();
    })
}

#[test]
fn a_repeated_refused_query_is_refused_the_same_way_on_an_open_connection() {
    watchdog("memo and refusals", LIMIT, || {
        let svc = service(10_000);
        let server = ServiceServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind daemon");
        let good = wire::encode_scenario(&scenario(8, 10_000));
        // One that does not decode, and one that decodes but overflows
        // the chunk ledger.
        let truncated = good[..good.len() / 2].to_vec();
        let overflowing = wire::encode_scenario(&scenario(8, u64::MAX));
        let mut stream = connect(&server);
        assert_eq!(ask(&mut stream, &good).0, KIND_RESULT);
        for (bad, says) in [(&truncated, "malformed"), (&overflowing, "chunk ledger")] {
            let (kind, first) = ask(&mut stream, bad);
            assert_eq!(kind, KIND_ERROR);
            assert!(proto::decode_error(&first).expect("decodes").contains(says));
            assert_eq!(ask(&mut stream, bad), (KIND_ERROR, first));
            // Still open, and a refusal did not disturb the memo.
            let (kind, reply) = ask(&mut stream, &good);
            assert_eq!(kind, KIND_RESULT);
            assert_eq!(proto::decode_reply(&reply).expect("decodes").served, Served::Warm);
        }
        write_frame(&mut stream, KIND_PING, b"still here").expect("ping");
        assert_eq!(read_frame(&mut stream).expect("pong"), (KIND_PING, b"still here".to_vec()));
        let stats = svc.stats();
        assert_eq!((stats.queries, stats.cold, stats.warm), (3, 1, 2), "{stats:?}");
        server.shutdown();
    })
}

#[test]
fn a_repeat_pipelined_behind_its_own_miss_is_answered_after_it() {
    watchdog("memo behind a miss", LIMIT, || {
        let svc = service(10_000);
        let server = ServiceServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind daemon");
        let x = wire::encode_scenario(&scenario(9, 20_000));
        let mut burst = Vec::new();
        for _ in 0..3 {
            write_frame(&mut burst, KIND_QUERY, &x).expect("frame");
        }
        let mut stream = connect(&server);
        stream.write_all(&burst).expect("one write, three queries");
        let replies: Vec<_> = (0..3)
            .map(|_| {
                let (kind, payload) = read_frame(&mut stream).expect("reply");
                assert_eq!(kind, KIND_RESULT);
                proto::decode_reply(&payload).expect("decodes")
            })
            .collect();
        let served: Vec<_> = replies.iter().map(|r| r.served).collect();
        assert_eq!(served, [Served::Cold, Served::Warm, Served::Warm]);
        assert!(replies.iter().all(|r| r.tally == replies[0].tally));
        let stats = svc.stats();
        assert_eq!((stats.cold, stats.warm, stats.chunks_traced), (1, 2, 2), "{stats:?}");
        server.shutdown();
    })
}
