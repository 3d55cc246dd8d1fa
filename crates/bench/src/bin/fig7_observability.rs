//! **Figure 7 harness** (beyond the paper) — cost and yield of the
//! `dyndex-obs` telemetry layer.
//!
//! The store records every hot-path event by default: a per-shard
//! execute histogram on the read path, end-to-end query latency, write
//! latencies, WAL append/fsync, snapshot generations, and a bounded
//! ring of span trees. The design rule is *one branch when disabled* —
//! a `Telemetry::Disabled` store holds no handles and pays no clock
//! reads — and *wait-free recording when enabled* (striped atomic
//! histograms, seqlock span ring). This harness measures both claims:
//!
//! 1. **Overhead**: multi-threaded query throughput at 8 shards,
//!    telemetry enabled vs disabled. The acceptance bar is <2% cost.
//! 2. **Yield**: the percentile dashboard, span breakdown, and text
//!    exposition the enabled store produced while being measured.
//! 3. **Continuity**: a `DurableStore` snapshotted, dropped, and
//!    reopened with `Telemetry::Shared` keeps accumulating into the
//!    same registry — counters continue across the restart.

use dyndex_bench::workloads::*;
use dyndex_core::prelude::*;
use dyndex_persist::{DurableStore, RestoreOptions};
use dyndex_store::{MaintenancePolicy, MetricsRegistry, ShardedStore, StoreOptions, Telemetry};
use dyndex_text::FmIndexCompressed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 8;
const READER_THREADS: usize = 4;
const ROUNDS: usize = 3;

fn store_opts(telemetry: Telemetry) -> StoreOptions {
    StoreOptions {
        num_shards: SHARDS,
        index: DynOptions::default(),
        mode: RebuildMode::Background,
        maintenance: MaintenancePolicy::Periodic(Duration::from_micros(500)),
        telemetry,
        ..StoreOptions::default()
    }
}

fn build_store(docs: &[(u64, Vec<u8>)], telemetry: Telemetry) -> ShardedStore<FmIndexCompressed> {
    let store = ShardedStore::new(FmConfig { sample_rate: 8 }, store_opts(telemetry));
    for chunk in docs.chunks(256) {
        store.insert_batch(chunk).expect("insert batch");
    }
    store.flush();
    store
}

/// Multi-threaded query throughput over a fixed wall-clock window.
fn measure_queries_per_s(store: &ShardedStore<FmIndexCompressed>, patterns: &[Vec<u8>]) -> f64 {
    let window = Duration::from_millis(200);
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let done = &done;
        let t0 = Instant::now();
        for _ in 0..READER_THREADS {
            scope.spawn(move || {
                while t0.elapsed() < window {
                    for p in patterns {
                        std::hint::black_box(store.count(p));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    done.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
}

fn main() {
    println!("=== Fig 7: telemetry overhead and yield (measured) ===\n");
    let n = 1usize << 18;
    let mut r = rng(0xF16_0007 ^ n as u64);
    let text = markov_text(&mut r, n, 26, 3);
    let docs = split_documents(&mut r, &text, 128, 1024, 0);
    let patterns = planted_patterns(&mut r, &docs, 8, 24);
    println!(
        "corpus n={n} ({} docs), {SHARDS} shards, {READER_THREADS} reader threads, \
         best of {ROUNDS} rounds",
        docs.len()
    );

    // ------------------------------------------------------------------
    // 1. Overhead: enabled vs disabled throughput.
    // ------------------------------------------------------------------
    let enabled = build_store(&docs, Telemetry::Enabled);
    let disabled = build_store(&docs, Telemetry::Disabled);
    // Interleave rounds so drift (thermal, page cache) hits both arms;
    // keep each arm's best round, the usual bench convention.
    let (mut best_on, mut best_off) = (0f64, 0f64);
    for _ in 0..ROUNDS {
        best_off = best_off.max(measure_queries_per_s(&disabled, &patterns));
        best_on = best_on.max(measure_queries_per_s(&enabled, &patterns));
    }
    let overhead = 100.0 * (1.0 - best_on / best_off);
    println!("\ntelemetry disabled: {best_off:>12.0} queries/s");
    println!("telemetry enabled:  {best_on:>12.0} queries/s");
    println!(
        "overhead: {overhead:.2}% {}",
        if overhead < 2.0 {
            "(within the <2% budget)"
        } else {
            "(OVER the <2% budget)"
        }
    );

    // ------------------------------------------------------------------
    // 2. Yield: what the enabled store recorded while being measured.
    // ------------------------------------------------------------------
    let registry = enabled.metrics().expect("telemetry on");
    let q = registry
        .find_histogram("dyndex_store_query_duration")
        .expect("registered")
        .snapshot();
    println!("\nquery latency (end-to-end, {} samples):", q.count());
    for (label, quantile) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)] {
        println!("  {label:>5}: {:>9} ns", q.percentile(quantile));
    }
    println!("  {:>5}: {:>9} ns", "max", q.max());

    println!("\nmost recent query root spans (kind, duration, epochs, result count):");
    let spans = enabled.flight_spans();
    // Only roots that parent children carry an id; here, the queries.
    for span in spans.iter().rev().filter(|s| s.id != 0).take(4) {
        println!("  {span}");
    }

    let stats = enabled.stats();
    println!("\ndashboard: {stats}");

    // ------------------------------------------------------------------
    // 3. Continuity: a reopened DurableStore keeps the same series.
    // ------------------------------------------------------------------
    println!("\ndurable continuity (snapshot -> drop -> reopen, shared registry):");
    let dir = std::env::temp_dir().join(format!("dyndex-fig7-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shared = Arc::new(MetricsRegistry::new());
    let durable: DurableStore<FmIndexCompressed> = DurableStore::create(
        &dir,
        FmConfig { sample_rate: 8 },
        store_opts(Telemetry::Shared(Arc::clone(&shared))),
    )
    .expect("create durable store");
    for chunk in docs[..docs.len() / 4].chunks(256) {
        durable.insert_batch(chunk).expect("insert");
    }
    durable.flush();
    durable.snapshot().expect("snapshot");
    let counts = |r: &MetricsRegistry| {
        r.find_histogram("dyndex_store_insert_duration")
            .map_or(0, |h| h.snapshot().count())
    };
    let first_life = counts(&shared);
    drop(durable);
    let reopened: DurableStore<FmIndexCompressed> = DurableStore::open(
        &dir,
        RestoreOptions {
            telemetry: Telemetry::Shared(Arc::clone(&shared)),
            ..RestoreOptions::default()
        },
    )
    .expect("reopen");
    for chunk in docs[docs.len() / 4..docs.len() / 2].chunks(256) {
        reopened.insert_batch(chunk).expect("insert after reopen");
    }
    let second_life = counts(&shared);
    println!("  insert observations before restart: {first_life}");
    println!("  insert observations after restart:  {second_life}");
    assert!(
        second_life > first_life,
        "reopened store must accumulate into the same registry"
    );
    println!("  same series kept counting across the restart");

    let fsync = shared
        .find_histogram("dyndex_wal_fsync_duration")
        .expect("wal series registered")
        .snapshot();
    println!("  wal fsyncs recorded: {}", fsync.count());

    println!("\nexposition sample (first lines of render_text):");
    let text = reopened.render_metrics().expect("telemetry on");
    for line in text.lines().take(8) {
        println!("  {line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
