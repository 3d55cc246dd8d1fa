//! **Figure 4 harness** (beyond the paper) — shard-count scaling of the
//! `dyndex-store` layer.
//!
//! The transformations bound *per-operation* cost; the store layer is
//! about *throughput*: hash-routed shards take writes in parallel, reads
//! visit every shard's published view on the calling thread, and resident
//! workers keep rebuild installs off the foreground path. This harness
//! measures, at a fixed corpus and a growing shard count:
//!
//! * bulk-load throughput (batched inserts, one writer thread per shard),
//! * single-query latency (count and find),
//! * multi-threaded query throughput (4 reader threads),
//! * mixed churn throughput (batch deletes + inserts with background
//!   maintenance running),
//! * readers-under-sustained-writes: reader throughput measured twice —
//!   idle writers vs a thread streaming batched inserts — proving the
//!   epoch-published view read path keeps readers off the shard locks
//!   (the retained fraction is the table's last column).
//!
//! Expected shape: bulk-load and churn scale up with shards (smaller
//! per-shard rebuilds, parallel writers). Single-query latency rises
//! with shards — one more view visited, in sequence, per shard.

use dyndex_bench::workloads::*;
use dyndex_core::prelude::*;
use dyndex_store::{MaintenancePolicy, ShardedStore, StoreOptions};
use dyndex_text::FmIndexCompressed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const READER_THREADS: usize = 4;

fn main() {
    println!("=== Fig 4: sharded-store scaling (measured) ===\n");
    let n = 1usize << 19;
    let mut r = rng(0xF16_0004 ^ n as u64);
    let text = markov_text(&mut r, n, 26, 3);
    let docs = split_documents(&mut r, &text, 128, 1024, 0);
    let patterns = planted_patterns(&mut r, &docs, 8, 24);
    let churn = {
        let churn_text = markov_text(&mut r, n / 8, 26, 3);
        split_documents(&mut r, &churn_text, 128, 1024, 1_000_000)
    };
    println!(
        "corpus n={n} ({} docs), churn batch {} docs, {READER_THREADS} reader threads",
        docs.len(),
        churn.len()
    );
    println!(
        "{:<8} {:>14} {:>12} {:>12} {:>14} {:>14}",
        "shards", "bulk-load", "count", "find", "queries/s", "churn MB/s"
    );
    for &shards in &[1usize, 2, 4, 8] {
        run_config(shards, &docs, &patterns, &churn);
    }
    println!();
    println!("shape checks: bulk-load and churn MB/s rise with shards (parallel");
    println!("writers, smaller rebuilds); count/find latency grows by one view");
    println!("visit per shard, with no thread hand-off anywhere on the read path.");
    println!();
    readers_under_writes(&docs, &patterns, &churn);
}

/// Readers-under-sustained-writes: quantifies the lock-free read path.
/// For each shard count, reader throughput is measured over the same
/// wall-clock window twice — once with writers idle, once while a writer
/// thread streams batched inserts into the same shards. Queries answer
/// from each shard's epoch-published view (never the shard `RwLock`), so
/// the sustained-writes column must retain most of the idle throughput
/// instead of collapsing to writer-release pacing.
fn readers_under_writes(docs: &[(u64, Vec<u8>)], patterns: &[Vec<u8>], churn: &[(u64, Vec<u8>)]) {
    println!("readers under sustained writes ({READER_THREADS} reader threads):");
    println!(
        "{:<8} {:>16} {:>16} {:>10}",
        "shards", "idle queries/s", "write queries/s", "retained"
    );
    for &shards in &[1usize, 2, 4, 8] {
        let store: ShardedStore<FmIndexCompressed> = ShardedStore::new(
            FmConfig { sample_rate: 8 },
            StoreOptions {
                num_shards: shards,
                index: DynOptions::default(),
                mode: RebuildMode::Background,
                maintenance: MaintenancePolicy::Periodic(Duration::from_micros(500)),
                ..StoreOptions::default()
            },
        );
        for chunk in docs.chunks(256) {
            store.insert_batch(chunk).expect("insert batch");
        }
        store.flush();

        let window = Duration::from_millis(150);
        let measure_readers = |write: bool| -> f64 {
            let done = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let (store, done) = (&store, &done);
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
                if write {
                    scope.spawn(move || {
                        // Sustained writer: stream churn batches (fresh
                        // ids per round) until the window closes, holding
                        // shard write locks for real rebuild work.
                        let mut round = 0u64;
                        while t0.elapsed() < window {
                            let rebased: Vec<(u64, Vec<u8>)> = churn
                                .iter()
                                .map(|(id, d)| (id + 10_000_000 * (round + 1), d.clone()))
                                .collect();
                            for chunk in rebased.chunks(64) {
                                store.insert_batch(chunk).expect("sustained insert");
                                if t0.elapsed() >= window {
                                    break;
                                }
                            }
                            round += 1;
                        }
                    });
                }
            });
            done.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
        };

        let idle = measure_readers(false);
        let under_writes = measure_readers(true);
        println!(
            "{:<8} {:>16.0} {:>16.0} {:>9.0}%",
            shards,
            idle,
            under_writes,
            100.0 * under_writes / idle
        );
    }
    println!();
    println!("shape check: readers never stall on the writer's lock — they load the");
    println!("shard's published view with one atomic op — so the retained fraction");
    println!("reflects CPU/memory-bandwidth sharing with the writer threads, not");
    println!("lock waits: reader progress is continuous even mid-install, where the");
    println!("lock-based read path serialized readers behind every rebuild install.");
}

fn run_config(
    shards: usize,
    docs: &[(u64, Vec<u8>)],
    patterns: &[Vec<u8>],
    churn: &[(u64, Vec<u8>)],
) {
    let store: ShardedStore<FmIndexCompressed> = ShardedStore::new(
        FmConfig { sample_rate: 8 },
        StoreOptions {
            num_shards: shards,
            index: DynOptions::default(),
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Periodic(Duration::from_micros(500)),
            ..StoreOptions::default()
        },
    );

    // Bulk load: batched inserts, writers parallel across shards.
    let bytes: usize = docs.iter().map(|(_, d)| d.len()).sum();
    let t0 = Instant::now();
    for chunk in docs.chunks(256) {
        store.insert_batch(chunk).expect("insert batch");
    }
    store.finish_background_work();
    let load_mbs = bytes as f64 / t0.elapsed().as_secs_f64() / 1e6;

    // Single-query latency.
    let count_ns = measure_ns(7, || patterns.iter().map(|p| store.count(p)).sum::<usize>())
        / patterns.len() as f64;
    let find_ns = measure_ns(3, || {
        patterns.iter().map(|p| store.find(p).len()).sum::<usize>()
    }) / patterns.len() as f64;

    // Parallel reader throughput: fixed wall-clock window, count queries.
    let done = AtomicUsize::new(0);
    let window = Duration::from_millis(150);
    let qps = std::thread::scope(|scope| {
        let (store, done) = (&store, &done);
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
        t0
    })
    .elapsed()
    .as_secs_f64();
    let queries_per_s = done.load(Ordering::Relaxed) as f64 / qps;

    // Mixed churn: batch deletes + inserts with maintenance running.
    let doomed: Vec<u64> = (0..docs.len() as u64).filter(|id| id % 4 == 0).collect();
    let churn_bytes: usize = churn.iter().map(|(_, d)| d.len()).sum::<usize>()
        + doomed
            .iter()
            .map(|&id| docs[id as usize].1.len())
            .sum::<usize>();
    let t1 = Instant::now();
    store.delete_batch(&doomed).expect("delete batch");
    for chunk in churn.chunks(256) {
        store.insert_batch(chunk).expect("insert churn");
    }
    store.finish_background_work();
    let churn_mbs = churn_bytes as f64 / t1.elapsed().as_secs_f64() / 1e6;

    println!(
        "{:<8} {:>11.1} MB/s {:>12} {:>12} {:>14.0} {:>14.1}",
        shards,
        load_mbs,
        fmt_ns(count_ns),
        fmt_ns(find_ns),
        queries_per_s,
        churn_mbs
    );
}
