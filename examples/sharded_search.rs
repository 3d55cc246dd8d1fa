//! Sharded store: concurrent search over a hash-partitioned collection.
//!
//! Run with: `cargo run --release --example sharded_search`
//!
//! Demonstrates the `dyndex-store` layer: documents hash-route across
//! shards (each an independent Transformation-2 index), writes batch by
//! shard, queries read every shard's published view on the calling
//! thread and merge deterministically, and one resident worker per shard
//! installs background rebuilds off the query path.

use dyndex::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn main() {
    let store: ShardedStore<FmIndexCompressed> = ShardedStore::new(
        FmConfig { sample_rate: 8 },
        StoreOptions {
            num_shards: 4,
            maintenance: MaintenancePolicy::Periodic(Duration::from_micros(500)),
            // Opt-in admin endpoint on an ephemeral port: curl
            // /metrics, /health, /spans, /slow while the store runs.
            admin: Some("127.0.0.1:0".to_string()),
            ..StoreOptions::default()
        },
    );

    println!("== batched load across {} shards ==", store.num_shards());
    let services = ["auth", "billing", "search", "ingest"];
    let verbs = ["started", "completed", "failed", "retried"];
    let batch: Vec<(u64, Vec<u8>)> = (0..2_000u64)
        .map(|i| {
            let line = format!(
                "ts={i:06} service={} request {} user u{:03}",
                services[i as usize % services.len()],
                verbs[(i / 3) as usize % verbs.len()],
                i % 100,
            );
            (i, line.into_bytes())
        })
        .collect();
    for chunk in batch.chunks(128) {
        store.insert_batch(chunk).expect("insert batch");
    }
    println!(
        "loaded {} docs / {} bytes; {} rebuild jobs pending (workers drain them)",
        store.num_docs(),
        store.symbol_count(),
        store.pending_background_jobs()
    );

    println!("\n== parallel queries (readers on their own threads) ==");
    let queries = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (store, queries) = (&store, &queries);
        for pattern in ["service=auth", "failed", "user u042"] {
            scope.spawn(move || {
                let hits = store.count(pattern.as_bytes());
                let first = store.find_limit(pattern.as_bytes(), 3);
                queries.fetch_add(1, Ordering::Relaxed);
                println!(
                    "{pattern:<14} -> {hits} hit(s); first {} (sorted): {:?}",
                    first.len(),
                    first
                        .iter()
                        .map(|o| format!("doc {} @ {}", o.doc, o.offset))
                        .collect::<Vec<_>>()
                );
            });
        }
    });
    assert_eq!(queries.load(Ordering::Relaxed), 3);

    println!("\n== churn: drop completed requests, keep querying ==");
    let doomed: Vec<u64> = (0..2_000u64).filter(|i| (i / 3) % 4 == 1).collect();
    let removed = store.delete_batch(&doomed).expect("delete batch");
    println!(
        "deleted {removed} docs; count(\"completed\") = {}",
        store.count(b"completed")
    );

    store.finish_background_work();
    println!("\n== per-shard census ==");
    let stats = store.stats();
    for shard in &stats.shards {
        println!(
            "shard {}: {:>4} docs, {:>6} bytes, {} pending job(s), {} structures",
            shard.shard,
            shard.docs,
            shard.symbols,
            shard.pending_jobs,
            shard.levels.len()
        );
    }
    println!("dashboard: {stats}");
    println!(
        "workers installed {} job(s) off the foreground path, heap {} bytes",
        store.pool_installs(),
        store.heap_bytes()
    );

    println!("\n== telemetry: spans, percentiles, text exposition ==");
    // Telemetry is on by default; every query above left a root span
    // (kind, duration, epochs, result count) in the flight recorder and
    // a sample in the latency histograms.
    let spans = store.flight_spans();
    // (Only roots that parent children carry an id; here, the queries.)
    for span in spans.iter().rev().filter(|s| s.id != 0).take(3) {
        println!("span: {span}");
    }
    let registry = store.metrics().expect("telemetry on by default");
    let latency = registry
        .find_histogram("dyndex_store_query_duration")
        .expect("registered at construction")
        .snapshot();
    println!(
        "query latency over {} queries: p50 {} ns | p99 {} ns | max {} ns",
        latency.count(),
        latency.percentile(0.50),
        latency.percentile(0.99),
        latency.max()
    );
    let exposition = store.render_metrics().expect("telemetry on by default");
    println!(
        "render_metrics(): {} lines of Prometheus-style text, e.g.:",
        exposition.lines().count()
    );
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("dyndex_store_docs"))
    {
        println!("  {line}");
    }

    println!("\n== flight recorder, health report, admin endpoint ==");
    // Every query above also left a span tree in the flight recorder:
    // the query root plus one execute child per shard, each stamped
    // with the view epoch it was served from.
    let spans = store.flight_spans();
    if let Some(root) = spans.iter().rev().find(|s| s.parent == 0 && s.id != 0) {
        println!("flight span tree for one query:");
        println!("  {root}");
        for child in spans.iter().filter(|s| s.parent == root.id).take(4) {
            println!("    {child}");
        }
    }
    let health = store.health();
    println!("health: {health}");
    let addr = store.admin_addr().expect("admin endpoint opted in above");
    println!("admin endpoint live at http://{addr} — e.g.:");
    println!("  curl http://{addr}/metrics   # Prometheus text");
    println!("  curl http://{addr}/health    # ok | degraded: ...");
    println!("  curl http://{addr}/spans     # span trees");

    println!("\n== serve the store over TCP ==");
    // The serving layer wraps any ShardedStore behind a binary wire
    // protocol; reads run on the connection's handler thread through
    // the same path as the local calls above, and overload sheds with
    // typed Busy replies (connections at accept, writes per shard).
    {
        let server: Server<FmIndexCompressed> = Server::create(
            FmConfig { sample_rate: 8 },
            StoreOptions {
                num_shards: 4,
                ..StoreOptions::default()
            },
            ServeOptions::default(),
        )
        .expect("bind loopback");
        let mut client = Client::connect(server.addr()).expect("connect");
        for (id, line) in batch.iter().take(200) {
            client.insert(*id, line).expect("remote insert");
        }
        // The server derefs to its store, so local and remote answers
        // come from the same shards and must agree exactly.
        println!(
            "server at {}: remote count(\"service=auth\") = {} (local said {})",
            server.addr(),
            client.count(b"service=auth").expect("remote count"),
            server.count(b"service=auth"),
        );
        let hits = client.find_limit(b"user u042", 3).expect("remote find");
        println!("remote find_limit(\"user u042\", 3) -> {hits:?} as (doc, offset)");
        let (status, detail) = client.health().expect("remote health");
        println!("remote health: {status:?} ({detail})");
        // Dropping the server closes the port and every open connection.
    }

    println!("\n== snapshot to disk, restore in a fresh store ==");
    let dir = std::env::temp_dir().join(format!("dyndex-sharded-search-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snap = store.snapshot(&dir).expect("snapshot");
    println!(
        "snapshot generation {} wrote {} shard file(s), {} bytes on disk",
        snap.generation, snap.shards, snap.bytes_on_disk
    );
    let restored: ShardedStore<FmIndexCompressed> =
        ShardedStore::restore(&dir, RestoreOptions::default()).expect("restore");
    assert_eq!(
        restored.count(b"service=auth"),
        store.count(b"service=auth")
    );
    assert_eq!(restored.find(b"failed"), store.find(b"failed"));
    println!(
        "restored store answers identically: count(\"service=auth\") = {}",
        restored.count(b"service=auth")
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
