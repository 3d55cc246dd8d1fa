//! **Figure 9 harness** (beyond the paper) — the bulk-ingestion fast
//! path: `ShardedStore::ingest` (stream → SA-IS-built static levels,
//! installed through the normal epoch path) vs insert-at-a-time through
//! the logarithmic-method cascade, across corpus sizes and shard counts.
//!
//! Insert-at-a-time pays for every document once in `C0` and again at
//! each merge on its way down the level cascade — the amortized
//! `O(log n)` rebuild passes Transformation 2 charges for *incremental*
//! updates. An initial load needs none of that: the paper's static
//! substructures build directly from the corpus in linear time, so
//! `ingest` cuts the stream into chunk-sized batches, SA-IS-builds each
//! on the resident worker pool, and installs the finished levels as
//! tops. The gap is the whole point of the fast path.
//!
//! Also measured: **re-shard** — restore a snapshot taken at one shard
//! count, then stream the documents into a store with a different shard
//! count via `ingest` (the migration story: extract + bulk-build instead
//! of replaying the insert history).

use dyndex_bench::workloads::*;
use dyndex_core::{DynOptions, FmConfig, RebuildMode};
use dyndex_persist::{DurableStore, RestoreOptions};
use dyndex_store::{MaintenancePolicy, ShardedStore, StoreOptions};
use dyndex_text::FmIndexCompressed;

type Store = ShardedStore<FmIndexCompressed>;
type Durable = DurableStore<FmIndexCompressed>;

fn store_opts(shards: usize) -> StoreOptions {
    StoreOptions {
        num_shards: shards,
        index: DynOptions::default(),
        mode: RebuildMode::Background,
        maintenance: MaintenancePolicy::Manual,
        ..StoreOptions::default()
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn mb_per_sec(bytes: usize, ns: f64) -> f64 {
    mb(bytes) / (ns / 1_000_000_000.0).max(1e-9)
}

fn main() {
    println!("=== Fig 9: bulk ingestion — ingest() vs insert-at-a-time ===\n");
    println!(
        "{:<10} {:>7} {:>7} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "bytes", "docs", "shards", "insert", "ingest", "ins MB/s", "ing MB/s", "speedup"
    );
    for &n in &[1usize << 16, 1 << 18, 1 << 20, 1 << 22] {
        // One measured run for the big corpora: the serial baseline's
        // cascade rebuilds dominate wall-clock, and the gap we are
        // measuring is orders of magnitude, not noise-sized.
        let runs = if n >= 1 << 20 { 1 } else { 2 };
        for &shards in &[1usize, 4, 8] {
            let mut r = rng(DEFAULT_SEED ^ (n as u64) ^ ((shards as u64) << 40));
            let text = markov_text(&mut r, n, 26, 3);
            let docs = split_documents(&mut r, &text, 128, 1024, 0);
            let patterns = planted_patterns(&mut r, &docs, 8, 4);
            let expected = {
                // Reference answer from a serially-built store, reused to
                // check both measured builds below.
                let store = Store::new(FmConfig::default(), store_opts(shards));
                store.insert_batch(&docs).expect("reference insert");
                store.flush();
                store.count(&patterns[0])
            };

            // Baseline: one document at a time through the dynamic
            // buffer and the logarithmic-method cascade.
            let insert_ns = measure_ns(runs, || {
                let store = Store::new(FmConfig::default(), store_opts(shards));
                for (id, bytes) in &docs {
                    store.insert(*id, bytes).expect("insert");
                }
                store.flush();
                assert_eq!(store.count(&patterns[0]), expected);
                store.num_docs()
            });

            // Fast path: stream → chunked SA-IS builds on the pool →
            // levels installed as tops through the epoch path.
            let ingest_ns = measure_ns(runs, || {
                let store = Store::new(FmConfig::default(), store_opts(shards));
                let stats = store.ingest(docs.iter().cloned()).expect("ingest");
                assert_eq!(stats.docs as usize, docs.len());
                assert_eq!(store.count(&patterns[0]), expected);
                stats.levels
            });

            println!(
                "{:<10} {:>7} {:>7} {:>12} {:>12} {:>10.1} {:>10.1} {:>8.1}x",
                n,
                docs.len(),
                shards,
                fmt_ns(insert_ns),
                fmt_ns(ingest_ns),
                mb_per_sec(n, insert_ns),
                mb_per_sec(n, ingest_ns),
                insert_ns / ingest_ns.max(1.0),
            );
        }
    }

    reshard();

    println!("\nshape checks: ingest beats insert-at-a-time everywhere and the gap");
    println!("widens with corpus size (the cascade pays O(log n) rebuild passes the");
    println!("static construction skips); extra shards help both paths but ingest");
    println!("more (chunk builds are embarrassingly parallel across the pool).");
    println!("Re-shard = restore + extract + ingest, priced like a bulk load.");
}

/// Re-shard: snapshot a 4-shard durable store, restore it, and stream
/// its documents into a fresh 8-shard store through `ingest`.
fn reshard() {
    println!("\n--- re-shard: restore 4-shard snapshot, ingest into 8 shards ---");
    let n = 1usize << 20;
    let mut r = rng(DEFAULT_SEED ^ 0xF16_0009);
    let text = markov_text(&mut r, n, 26, 3);
    let docs = split_documents(&mut r, &text, 128, 1024, 0);
    let patterns = planted_patterns(&mut r, &docs, 8, 4);

    let dir = std::env::temp_dir().join(format!("dyndex-fig9-reshard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = Durable::create(&dir, FmConfig::default(), store_opts(4)).expect("create");
    live.ingest(docs.iter().cloned()).expect("seed ingest");
    live.snapshot().expect("snapshot");
    let expected = live.count(&patterns[0]);
    drop(live);

    let restore = RestoreOptions {
        mode: RebuildMode::Background,
        maintenance: MaintenancePolicy::Manual,
        ..RestoreOptions::default()
    };
    let t0 = std::time::Instant::now();
    let source = Durable::open(&dir, restore).expect("open");
    let restore_ns = t0.elapsed().as_nanos() as f64;

    let target = Store::new(FmConfig::default(), store_opts(8));
    let t0 = std::time::Instant::now();
    let stats = target
        .ingest(docs.iter().map(|(id, d)| {
            let bytes = source.extract(*id, 0, d.len()).expect("extract");
            (*id, bytes)
        }))
        .expect("re-shard ingest");
    let ingest_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(target.count(&patterns[0]), expected);

    println!(
        "restore(4): {:>10}   extract+ingest(8): {:>10} ({:.1} MB/s, {} levels)   total: {}",
        fmt_ns(restore_ns),
        fmt_ns(ingest_ns),
        mb_per_sec(stats.bytes as usize, ingest_ns),
        stats.levels,
        fmt_ns(restore_ns + ingest_ns),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
