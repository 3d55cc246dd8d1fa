//! Acceptance for the serving layer, over raw `TcpStream`s and the
//! typed [`Client`]: remote answers byte-identical to local ones on the
//! `DEFAULT_SEED` workload, chaos clients (mid-frame hangups,
//! slow-loris trickles, garbage) never panic the server, admission
//! sheds with typed `Busy` (connections at the cap, writes behind a
//! backed-up shard) while reads keep answering, and a poisoned shard
//! surfaces as a typed wire error without taking the server down.

use dyndex::prelude::*;
use dyndex::serve::proto::{self, DEFAULT_MAX_FRAME};
use dyndex::serve::{RemoteHealth, Request, Response, WireError};
use dyndex_bench::workloads::{markov_text, planted_patterns, rng, split_documents, DEFAULT_SEED};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Store = ShardedStore<FmIndexCompressed>;
type Srv = Server<FmIndexCompressed>;

const SHARDS: usize = 4;

fn fm() -> FmConfig {
    FmConfig { sample_rate: 8 }
}

/// Pooled store options with an hour-long maintenance tick: workers wake
/// on job arrival, but no periodic tick mutates state behind the test's
/// assertions.
fn pooled_opts() -> StoreOptions {
    StoreOptions {
        num_shards: SHARDS,
        index: DynOptions::default(),
        mode: RebuildMode::Inline,
        maintenance: MaintenancePolicy::Periodic(Duration::from_secs(3600)),
        telemetry: Telemetry::Enabled,
        ..StoreOptions::default()
    }
}

/// A served store on an ephemeral port.
fn server_with(serve: ServeOptions) -> Srv {
    Server::over(Arc::new(Store::new(fm(), pooled_opts())), serve).expect("bind ephemeral port")
}

fn server() -> Srv {
    server_with(ServeOptions::default())
}

type Docs = Vec<(u64, Vec<u8>)>;

/// The seeded acceptance workload shared with the persist/store suites.
fn workload() -> (Docs, Vec<Vec<u8>>) {
    let mut r = rng(DEFAULT_SEED);
    let text = markov_text(&mut r, 40_000, 26, 2);
    let docs = split_documents(&mut r, &text, 64, 256, 0);
    let mut patterns = planted_patterns(&mut r, &docs, 6, 12);
    patterns.push(b"zzzzzzzz".to_vec()); // absent pattern
    (docs, patterns)
}

// ----------------------------------------------------------------------
// Acceptance: remote answers are byte-identical to local ones.
// ----------------------------------------------------------------------

#[test]
fn remote_answers_match_local_byte_identically() {
    let (docs, patterns) = workload();
    let server = server();
    let mut client = Client::connect(server.addr()).expect("connect");

    // Populate over the wire; the local handle sees every document.
    for (id, bytes) in &docs {
        client.insert(*id, bytes).unwrap();
    }
    assert_eq!(server.stats().total_docs(), docs.len());

    for pattern in &patterns {
        // count
        assert_eq!(
            client.count(pattern).unwrap(),
            server.count(pattern) as u64,
            "count({pattern:?})"
        );
        // find: compare the *encoded* payloads, not just the values —
        // the acceptance bar is byte-identity on the wire.
        let remote = client.find(pattern).unwrap();
        let local: Vec<(u64, u64)> = server
            .find(pattern)
            .into_iter()
            .map(|hit| (hit.doc, hit.offset as u64))
            .collect();
        let mut remote_bytes = Vec::new();
        let mut local_bytes = Vec::new();
        Response::Occurrences(remote.clone())
            .write_frame(&mut remote_bytes, DEFAULT_MAX_FRAME)
            .unwrap();
        Response::Occurrences(local.clone())
            .write_frame(&mut local_bytes, DEFAULT_MAX_FRAME)
            .unwrap();
        assert_eq!(remote_bytes, local_bytes, "find({pattern:?})");
        // find_limit at a few truncation points
        for limit in [0u64, 1, 5] {
            let remote = client.find_limit(pattern, limit).unwrap();
            let local: Vec<(u64, u64)> = server
                .find_limit(pattern, limit as usize)
                .into_iter()
                .map(|hit| (hit.doc, hit.offset as u64))
                .collect();
            assert_eq!(remote, local, "find_limit({pattern:?}, {limit})");
        }
    }

    // Deletes round-trip the removed bytes.
    let (victim, victim_bytes) = docs[7].clone();
    assert_eq!(client.delete(victim).unwrap(), Some(victim_bytes));
    assert_eq!(client.delete(victim).unwrap(), None);
    assert!(!server.contains(victim));

    // Stats and health agree with the local store.
    let stats = client.stats().unwrap();
    assert_eq!(stats.docs as usize, docs.len() - 1);
    assert_eq!(stats.shards as usize, SHARDS);
    let (status, detail) = client.health().unwrap();
    assert_eq!(status, RemoteHealth::Ok);
    assert_eq!(detail, "ok");
}

// ----------------------------------------------------------------------
// Chaos: hostile and unlucky clients never take the server down.
// ----------------------------------------------------------------------

/// A valid encoded Count request frame.
fn count_frame(pattern: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    Request::Count {
        pattern: pattern.to_vec(),
    }
    .write_frame(&mut wire, DEFAULT_MAX_FRAME)
    .unwrap();
    wire
}

/// Asserts the server still answers a well-formed client.
fn assert_still_serving(server: &Srv, expected: u64) {
    let mut client = Client::connect(server.addr()).expect("connect after chaos");
    assert_eq!(client.count(b"chaos").unwrap(), expected);
}

#[test]
fn mid_frame_disconnects_leave_the_server_serving() {
    let server = server();
    server.insert(1, b"chaos baseline document").unwrap();

    let frame = count_frame(b"chaos");
    // Cut a valid frame at several interesting points: mid-magic,
    // mid-header, exactly after the header, mid-payload, mid-CRC.
    for cut in [1, 3, 6, proto::HEADER_LEN, frame.len() - 6, frame.len() - 1] {
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(&frame[..cut]).unwrap();
        drop(conn); // hangup mid-frame
        assert_still_serving(&server, 1);
    }

    // Half-written request then hard hangup (RST via linger-less drop
    // is platform-dependent; a plain drop already covers FIN).
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(&frame[..proto::HEADER_LEN + 2]).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    // The server answers the truncation with a typed error frame or a
    // clean close — never garbage.
    let mut reply = Vec::new();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = conn.read_to_end(&mut reply);
    if !reply.is_empty() {
        let (opcode, payload) = proto::read_frame(&mut reply.as_slice(), DEFAULT_MAX_FRAME)
            .expect("server reply frames")
            .expect("server reply frames");
        assert!(
            matches!(
                Response::decode(opcode, &payload),
                Ok(Response::Error(WireError::Malformed { .. }))
            ),
            "expected a typed malformed-error frame"
        );
    }
    assert_still_serving(&server, 1);
}

#[test]
fn garbage_and_foreign_protocols_get_typed_errors() {
    let server = server();
    server.insert(1, b"chaos baseline document").unwrap();

    // An HTTP client knocking on the wire port: bad magic, typed error
    // (or clean close), no panic.
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(b"GET / HTTP/1.1\r\nHost: wrong-port\r\n\r\n")
        .unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = conn.read_to_end(&mut reply);
    if !reply.is_empty() {
        let (opcode, payload) = proto::read_frame(&mut reply.as_slice(), DEFAULT_MAX_FRAME)
            .expect("typed reply")
            .expect("typed reply");
        assert!(matches!(
            Response::decode(opcode, &payload),
            Ok(Response::Error(WireError::Malformed { .. }))
        ));
    }
    assert_still_serving(&server, 1);

    // A checksummed frame whose payload does not decode: the connection
    // survives the typed error and serves the next request.
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, 0x02, b"too-short-for-a-u64", DEFAULT_MAX_FRAME).unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(&wire).unwrap();
    let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
    let (opcode, payload) = proto::read_frame(&mut reader, DEFAULT_MAX_FRAME)
        .expect("typed reply")
        .expect("typed reply");
    assert!(matches!(
        Response::decode(opcode, &payload),
        Ok(Response::Error(WireError::Malformed { .. }))
    ));
    // Same connection, now a valid request: still in sync.
    conn.write_all(&count_frame(b"chaos")).unwrap();
    let (opcode, payload) = proto::read_frame(&mut reader, DEFAULT_MAX_FRAME)
        .expect("second reply")
        .expect("second reply");
    assert_eq!(
        Response::decode(opcode, &payload).unwrap(),
        Response::Count(1)
    );
}

#[test]
fn slow_loris_frames_are_cut_off_while_others_serve() {
    let server = server_with(ServeOptions {
        frame_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    server.insert(1, b"chaos baseline document").unwrap();

    let frame = count_frame(b"chaos");
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    let start = Instant::now();
    let mut cut_off = false;
    for (i, byte) in frame.iter().enumerate() {
        if loris.write_all(std::slice::from_ref(byte)).is_err() {
            cut_off = true;
            break;
        }
        // Well-behaved clients are served while the loris trickles.
        if i == 2 {
            assert_still_serving(&server, 1);
        }
        std::thread::sleep(Duration::from_millis(100));
        if start.elapsed() > Duration::from_secs(8) {
            panic!("server kept reading trickled bytes far past frame_timeout");
        }
    }
    if !cut_off {
        // Writes may all land in socket buffers; the cutoff then shows
        // up as EOF/error (or a typed timeout error frame) on read.
        loris
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reply = Vec::new();
        let _ = loris.read_to_end(&mut reply);
        if !reply.is_empty() {
            let (opcode, payload) = proto::read_frame(&mut reply.as_slice(), DEFAULT_MAX_FRAME)
                .expect("typed reply")
                .expect("typed reply");
            assert!(matches!(
                Response::decode(opcode, &payload),
                Ok(Response::Error(WireError::Malformed { .. }))
            ));
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "loris held a connection thread for {:?}",
        start.elapsed()
    );
    assert_still_serving(&server, 1);
}

#[test]
fn concurrent_clients_during_background_snapshot() {
    let (docs, patterns) = workload();
    let server = server();
    for chunk in docs.chunks(64) {
        server.insert_batch(chunk).unwrap();
    }
    server.flush();
    let expected: Vec<usize> = patterns.iter().map(|p| server.count(p)).collect();

    let dir = std::env::temp_dir().join(format!("dyndex-serving-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let snapshot = {
        let store = server.store();
        let dir = dir.clone();
        std::thread::spawn(move || store.snapshot(&dir).expect("background snapshot"))
    };

    // Remote clients hammer reads while the snapshot freezes and
    // serializes shard by shard on the same worker pool.
    let addr = server.addr();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect during snapshot");
                for _ in 0..10 {
                    for (pattern, &expected) in patterns.iter().zip(&expected) {
                        assert_eq!(client.count(pattern).unwrap(), expected as u64);
                    }
                }
            });
        }
    });

    let stats = snapshot.join().expect("snapshot thread");
    assert_eq!(stats.shards, SHARDS);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_shard_is_a_typed_wire_error_while_others_serve() {
    let (docs, _) = workload();
    let server = server();
    for chunk in docs.chunks(64) {
        server.insert_batch(chunk).unwrap();
    }
    let count_before = server.count(b"a") as u64;
    let mut client = Client::connect(server.addr()).expect("connect");

    // A remote duplicate insert is prechecked: typed error, no poison.
    let existing = docs[0].0;
    assert!(matches!(
        client.insert(existing, b"duplicate over the wire"),
        Err(ClientError::Remote(WireError::DuplicateDocument { doc_id })) if doc_id == existing
    ));
    assert_eq!(server.health().status, HealthStatus::Ok);

    // Poison a shard the store-level way: a duplicate insert through
    // the local handle panics the writer mid-update.
    let poisoned_shard = server.shard_of(existing);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = server.insert(existing, b"poison");
    }))
    .expect_err("local duplicate insert panics");

    // Writes to the poisoned shard: typed wire error, connection and
    // server both survive.
    let mut fresh = 1_000_000u64;
    while server.shard_of(fresh) != poisoned_shard {
        fresh += 1;
    }
    assert!(matches!(
        client.insert(fresh, b"refused"),
        Err(ClientError::Remote(WireError::ShardPoisoned { shard })) if shard as usize == poisoned_shard
    ));

    // Writes to healthy shards and reads everywhere keep working on the
    // same connection.
    let mut healthy = 2_000_000u64;
    while server.shard_of(healthy) == poisoned_shard {
        healthy += 1;
    }
    client
        .insert(healthy, b"healthy shard still writes")
        .unwrap();
    // "healthy" and "shard" each contribute one occurrence of "a".
    assert_eq!(client.count(b"a").unwrap(), count_before + 2);

    // Health over the wire names the poisoned shard.
    let (status, detail) = client.health().unwrap();
    assert_eq!(status, RemoteHealth::Degraded);
    assert!(
        detail.contains(&format!("shard {poisoned_shard} poisoned")),
        "{detail:?}"
    );
}

// ----------------------------------------------------------------------
// Admission: writes shed per shard, connections shed at the cap, reads
// never wait on a worker queue.
// ----------------------------------------------------------------------

fn shed_counter(server: &Srv) -> Arc<dyndex::obs::Counter> {
    server
        .metrics()
        .expect("telemetry enabled")
        .find_counter("dyndex_serve_shed_total")
        .expect("shed counter registered")
}

#[test]
fn saturated_queue_sheds_busy_while_other_shards_complete() {
    const THRESHOLD: usize = 4;
    let (docs, patterns) = workload();
    let server = server_with(ServeOptions {
        shed_queue_depth: THRESHOLD,
        ..ServeOptions::default()
    });
    for chunk in docs.chunks(64) {
        server.insert_batch(chunk).unwrap();
    }
    server.flush();
    let shed_counter = shed_counter(&server);
    assert_eq!(shed_counter.get(), 0);

    // Saturate shard 0's worker queue: one job parks the worker on a
    // channel, THRESHOLD more sit queued behind it. Depth stays exactly
    // THRESHOLD + 1 (queued + busy) until the blocker is released.
    let (release, parked) = mpsc::channel::<()>();
    assert!(server.submit_background_job(
        0,
        Box::new(move || {
            let _ = parked.recv();
        })
    ));
    for _ in 0..THRESHOLD {
        assert!(server.submit_background_job(0, Box::new(|| {})));
    }
    let depth_deadline = Instant::now() + Duration::from_secs(10);
    while server.shard_queue_depth(0) < THRESHOLD {
        assert!(Instant::now() < depth_deadline, "queue never saturated");
        std::thread::yield_now();
    }

    let mut client = Client::connect(server.addr()).expect("connect");

    // Reads ride no queue: with shard 0's worker wedged they still
    // answer, and exactly as the local handle does.
    for pattern in &patterns {
        assert_eq!(client.count(pattern).unwrap(), server.count(pattern) as u64);
        let local: Vec<(u64, u64)> = server
            .find_limit(pattern, 5)
            .into_iter()
            .map(|hit| (hit.doc, hit.offset as u64))
            .collect();
        assert_eq!(client.find_limit(pattern, 5).unwrap(), local);
    }
    // Writes routed to the saturated shard: shard-scoped Busy.
    let mut to_saturated = 3_000_000u64;
    while server.shard_of(to_saturated) != 0 {
        to_saturated += 1;
    }
    match client.insert(to_saturated, b"shed me") {
        Err(ClientError::Busy { shard: Some(0), .. }) => {}
        other => panic!("expected shard-0 Busy, got {other:?}"),
    }
    // Writes routed to other shards complete while shard 0 is wedged.
    let mut to_healthy = 4_000_000u64;
    while server.shard_of(to_healthy) == 0 {
        to_healthy += 1;
    }
    client
        .insert(to_healthy, b"other shards keep serving")
        .unwrap();
    // Stats/Health are never shed — the operator's view stays up.
    let stats = client.stats().unwrap();
    assert!(stats.queued_requests as usize >= THRESHOLD);
    let (status, _) = client.health().unwrap();
    assert_eq!(status, RemoteHealth::Ok);

    assert_eq!(shed_counter.get(), 1, "only the shard-0 write was shed");

    // Release the blocker: the queue drains and the shed write goes in.
    drop(release);
    server.flush();
    client.insert(to_saturated, b"admitted now").unwrap();
    assert_eq!(shed_counter.get(), 1, "recovered requests are not shed");
}

#[test]
fn connections_past_the_cap_get_busy_and_a_freed_slot_is_reused() {
    const CAP: usize = 2;
    let server = server_with(ServeOptions {
        max_connections: CAP,
        ..ServeOptions::default()
    });
    server.insert(1, b"admission document").unwrap();
    let shed_counter = shed_counter(&server);

    // Fill the house; a served request proves each connection was
    // admitted (the acceptor counts it before spawning its handler).
    let mut admitted: Vec<Client> = (0..CAP)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    for client in &mut admitted {
        assert_eq!(client.count(b"admission").unwrap(), 1);
    }
    assert_eq!(server.open_connections(), CAP);

    // Connection CAP + 1: one Busy frame, then the server closes it.
    let mut refused = TcpStream::connect(server.addr()).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = Vec::new();
    refused
        .read_to_end(&mut reply)
        .expect("closed after the frame");
    let mut cursor = reply.as_slice();
    let (opcode, payload) = proto::read_frame(&mut cursor, DEFAULT_MAX_FRAME)
        .expect("busy frame")
        .expect("busy frame");
    assert_eq!(
        Response::decode(opcode, &payload).unwrap(),
        Response::Busy {
            shard: None,
            queued: CAP as u64
        }
    );
    assert!(cursor.is_empty(), "exactly one frame before the close");
    assert_eq!(shed_counter.get(), 1, "the refusal is counted once");
    assert_eq!(server.open_connections(), CAP);

    // One client leaves; once its handler has noticed, a newcomer is
    // admitted and served, and nothing more is shed.
    drop(admitted.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.open_connections() >= CAP {
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::yield_now();
    }
    let mut newcomer = Client::connect(server.addr()).expect("connect into the freed slot");
    assert_eq!(newcomer.count(b"admission").unwrap(), 1);
    assert_eq!(admitted[0].count(b"admission").unwrap(), 1);
    assert_eq!(shed_counter.get(), 1);
}

#[test]
fn oversized_find_reply_is_a_typed_error_and_the_connection_survives() {
    const CAP: u32 = 256;
    let server = server_with(ServeOptions {
        max_frame_len: CAP,
        ..ServeOptions::default()
    });
    // 40 hits at 16 bytes each cannot fit a 256-byte reply frame.
    for id in 0..40u64 {
        server.insert(id, b"oversize needle").unwrap();
    }
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.find(b"needle") {
        Err(ClientError::Remote(WireError::Internal { detail })) => {
            assert!(detail.contains(&format!("{CAP}-byte")), "{detail}");
            assert!(detail.contains("find_limit"), "{detail}");
        }
        other => panic!("expected a typed Internal error, got {other:?}"),
    }
    // Same socket, still in sync: the next requests are served.
    assert_eq!(client.count(b"needle").unwrap(), 40);
    assert_eq!(client.find_limit(b"needle", 3).unwrap().len(), 3);
}

// ----------------------------------------------------------------------
// Lifecycle: metrics flow into the store registry; shutdown is graceful.
// ----------------------------------------------------------------------

#[test]
fn request_metrics_and_spans_flow_into_store_telemetry() {
    let server = server();
    let registry = server.metrics().expect("telemetry enabled");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.insert(1, b"observed document").unwrap();
    assert_eq!(client.count(b"observed").unwrap(), 1);
    assert_eq!(client.find(b"document").unwrap().len(), 1);

    assert!(registry
        .find_counter("dyndex_serve_connections_total")
        .is_some_and(|c| c.get() >= 1));
    assert!(registry
        .find_counter("dyndex_serve_requests_total")
        .is_some_and(|c| c.get() >= 3));
    assert!(registry
        .find_histogram("dyndex_serve_request_duration")
        .is_some_and(|h| h.snapshot().count() >= 3));

    // Each request left a flight-recorder root span of the serve kind.
    let serve_roots = server
        .flight_spans()
        .into_iter()
        .filter(|span| span.kind == SpanKind::ServeRequest && span.parent == 0)
        .count();
    assert!(serve_roots >= 3, "serve roots recorded: {serve_roots}");

    // The text exposition carries the serving series.
    let rendered = server.render_metrics().expect("telemetry enabled");
    for series in [
        "dyndex_serve_connections_open",
        "dyndex_serve_shed_total",
        "dyndex_serve_proto_errors_total",
    ] {
        assert!(rendered.contains(series), "missing {series}");
    }
}

#[test]
fn drop_shuts_down_gracefully_and_frees_the_port() {
    let server = server();
    server.insert(1, b"shutdown document").unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.count(b"shutdown").unwrap(), 1);
    drop(server);
    // The port is released and the live connection was cut.
    assert!(std::net::TcpListener::bind(addr).is_ok());
    assert!(client.count(b"shutdown").is_err());
}
