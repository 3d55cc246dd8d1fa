//! Integration: the flight recorder and health watchdog observed the way
//! an operator sees them — over a real TCP connection to the store's
//! admin endpoint. A store runs with `admin: Some("127.0.0.1:0")`, a
//! mixed workload drives it, and raw `std::net::TcpStream` requests
//! assert that `/metrics` parses and matches `render_metrics()`, that
//! `/spans` shows a query root with per-shard execute children whose
//! epochs match the served views, and that an induced writer stall flips
//! `/health` to degraded and back.

use dyndex::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

type Store = ShardedStore<FmIndexCompressed>;

const SHARDS: usize = 4;

/// A store with the admin endpoint on an ephemeral port, a tight writer
/// stall threshold (so the test can induce one quickly), and an
/// hour-long maintenance tick — workers wake on job arrival, but no
/// periodic tick republishes views behind the test's epoch assertions.
fn admin_store() -> Store {
    Store::new(
        FmConfig { sample_rate: 8 },
        StoreOptions {
            num_shards: SHARDS,
            index: DynOptions::default(),
            mode: RebuildMode::Inline,
            maintenance: MaintenancePolicy::Periodic(Duration::from_secs(3600)),
            telemetry: Telemetry::Enabled,
            health: HealthOptions {
                writer_stall_after: Duration::from_millis(100),
                // Generous job/heartbeat bounds: the watchdog must not
                // misread this test's own pauses as a stuck worker.
                stuck_worker_after: Duration::from_secs(60),
                stalled_rebuild_after: Duration::from_secs(3600),
                ..HealthOptions::default()
            },
            admin: Some("127.0.0.1:0".to_string()),
        },
    )
}

/// One plain-text HTTP GET over a raw `TcpStream` — exactly what `curl`
/// or a Prometheus scraper would do.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to admin endpoint");
    write!(conn, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).expect("read response");
    let status: u16 = reply
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Parses Prometheus text exposition into `name{labels} -> value`,
/// failing the test on any sample line that does not parse.
fn parse_exposition(body: &str) -> BTreeMap<String, f64> {
    let mut samples = BTreeMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparsable sample line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric sample value: {line:?}"));
        samples.insert(name.to_string(), value);
    }
    samples
}

fn seed_documents(store: &Store) {
    for id in 0..48u64 {
        store
            .insert(
                id,
                format!("flightrec document {id} with shared tokens").as_bytes(),
            )
            .unwrap();
    }
    store.flush();
}

#[test]
fn metrics_over_tcp_match_render_metrics() {
    let store = admin_store();
    let addr = store.admin_addr().expect("admin endpoint is enabled");
    seed_documents(&store);
    // Mixed read workload so every query series has samples.
    for _ in 0..8 {
        assert_eq!(store.count(b"flightrec"), 48);
        assert!(!store.find(b"shared tokens").is_empty());
        assert_eq!(store.find_limit(b"document", 5).len(), 5);
    }

    let local = store.render_metrics().expect("telemetry is enabled");
    let (status, scraped) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    // Quiescent store: the scrape and the local render see identical
    // state, so the exposition matches sample-for-sample.
    let local = parse_exposition(&local);
    let scraped = parse_exposition(&scraped);
    assert!(!scraped.is_empty(), "scrape must carry samples");
    assert_eq!(local, scraped, "/metrics must match render_metrics()");

    // Spot-check the series the flight recorder contributes.
    assert!(scraped["dyndex_flight_spans_recorded"] > 0.0);

    // Unknown paths 404 rather than panicking a handler thread.
    let (status, _) = http_get(addr, "/unknown");
    assert_eq!(status, 404);
}

#[test]
fn spans_over_tcp_show_query_tree_with_served_epochs() {
    let store = admin_store();
    let addr = store.admin_addr().expect("admin endpoint is enabled");
    seed_documents(&store);

    // The epochs the next query will serve: nothing republishes views
    // between this read and the query (hour-long tick, no writes).
    let epochs: Vec<u64> = (0..SHARDS).map(|s| store.shard_view(s).epoch()).collect();
    assert_eq!(store.count(b"flightrec"), 48);

    let (status, body) = http_get(addr, "/spans");
    assert_eq!(status, 200);

    // Last `count` root in the rendered ring (roots print unindented).
    let root_line = body
        .lines()
        .rfind(|l| l.starts_with("count id="))
        .unwrap_or_else(|| panic!("no count root span in /spans:\n{body}"));
    let root_id = field(root_line, "id=");

    // Its per-shard execute children carry the epoch each was served from.
    let mut seen = vec![false; SHARDS];
    for line in body.lines() {
        let line = line.trim_start();
        if !line.starts_with("execute ") || field(line, "parent=") != root_id {
            continue;
        }
        let shard = field(line, "shard=") as usize;
        let lo = field(line, "epochs=");
        let hi = field(line, "..=");
        assert_eq!(lo, epochs[shard], "shard {shard} epoch_lo");
        assert_eq!(hi, epochs[shard], "shard {shard} epoch_hi");
        seen[shard] = true;
    }
    assert_eq!(
        seen,
        vec![true; SHARDS],
        "every shard must contribute an execute child:\n{body}"
    );

    // The read path has no other stage: execute children are the root's
    // only children.
    let children = body
        .lines()
        .map(str::trim_start)
        .filter(|l| l.contains(" parent=") && field(l, "parent=") == root_id);
    assert_eq!(
        children.count(),
        SHARDS,
        "one execute child per shard:\n{body}"
    );
}

/// Extracts the number following `key` in a rendered span line.
fn field(line: &str, key: &str) -> u64 {
    let rest = &line[line
        .find(key)
        .unwrap_or_else(|| panic!("{key} in {line:?}"))
        + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} numeric in {line:?}"))
}

#[test]
fn induced_writer_stall_flips_health_and_recovers() {
    let store = admin_store();
    let addr = store.admin_addr().expect("admin endpoint is enabled");
    seed_documents(&store);

    let (status, body) = http_get(addr, "/health");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    // Induce the stall: hold shard 0's write lock past the 100ms
    // watchdog threshold. `/health` must stay answerable (reads never
    // take shard locks) and must name the stalled shard.
    {
        let _guard = store.lock_shard(0);
        std::thread::sleep(Duration::from_millis(300));
        let (status, body) = http_get(addr, "/health");
        assert_eq!(status, 200, "degraded is still scrape-okay");
        assert!(
            body.starts_with("degraded:"),
            "expected degraded, got {body:?}"
        );
        assert!(
            body.contains("shard 0 write lock"),
            "stall must name the shard: {body:?}"
        );
        // Queries keep serving from published views mid-stall.
        assert_eq!(store.count(b"flightrec"), 48);
    }

    // Guard dropped: the next check observes the released lock.
    let (status, body) = http_get(addr, "/health");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n", "health must recover after the stall clears");
}

#[test]
fn poisoned_shard_counts_once_and_degrades_health() {
    let store = admin_store();
    let addr = store.admin_addr().expect("admin endpoint is enabled");
    seed_documents(&store);
    let registry = store.metrics().expect("telemetry is enabled");
    let poisoned_events = registry
        .find_counter("dyndex_store_shards_poisoned_total")
        .expect("poison event counter registered");
    assert_eq!(poisoned_events.get(), 0);

    let count_before = store.count(b"flightrec");
    let poisoned_shard = store.shard_of(0);

    // Poison: a duplicate insert panics while the shard write guard is
    // held; the guard's unwind path latches the poison event exactly
    // once.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = store.insert(0, b"duplicate id panics the writer");
    }))
    .expect_err("duplicate insert must panic");
    assert_eq!(poisoned_events.get(), 1, "one poisoning, one event");

    // Refused follow-up writes return the typed error without
    // re-counting the poisoning.
    let mut same_shard_id = 1_000u64;
    while store.shard_of(same_shard_id) != poisoned_shard {
        same_shard_id += 1;
    }
    assert_eq!(
        store.insert(same_shard_id, b"refused"),
        Err(ShardPoisoned {
            shard: poisoned_shard
        })
    );
    assert_eq!(
        poisoned_events.get(),
        1,
        "refused writes must not re-count the poison event"
    );

    // Reads keep serving the last published views.
    assert_eq!(store.count(b"flightrec"), count_before);
    assert!(store.contains(0));

    // Both the typed report and the endpoint name the shard.
    let report = store.health();
    assert_eq!(report.status, HealthStatus::Degraded);
    assert!(report
        .reasons
        .iter()
        .any(|r| matches!(r, HealthReason::ShardPoisoned { shard } if *shard == poisoned_shard)));
    let (status, body) = http_get(addr, "/health");
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("shard {poisoned_shard} poisoned")),
        "endpoint must name the poisoned shard: {body:?}"
    );

    // The scrape exposes both poison series: the one-shot event count
    // and the per-refusal counter.
    let (_, metrics) = http_get(addr, "/metrics");
    let samples = parse_exposition(&metrics);
    assert_eq!(samples["dyndex_store_shards_poisoned_total"], 1.0);
    assert!(samples["dyndex_store_shard_poisoned"] >= 1.0);
}

#[test]
fn admin_endpoint_shuts_down_with_the_store() {
    let store = admin_store();
    let addr = store.admin_addr().expect("admin endpoint is enabled");
    let (status, _) = http_get(addr, "/health");
    assert_eq!(status, 200);
    drop(store);
    // Graceful shutdown released the port: it can be bound again.
    assert!(std::net::TcpListener::bind(addr).is_ok());
}
