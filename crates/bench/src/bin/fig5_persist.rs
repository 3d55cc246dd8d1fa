//! **Figure 5 harness** (beyond the paper) — cold-start cost: restoring
//! a sharded store from a `dyndex-persist` snapshot vs rebuilding it
//! from raw documents, across collection sizes.
//!
//! A full rebuild pays suffix sorting (SA-IS) plus wavelet construction
//! over every byte; a restore pays file reads plus linear directory
//! re-derivation. The gap is the whole point of the persistence
//! subsystem: restart without replaying the indexing work that
//! Transformation 2 exists to amortize.
//!
//! Also measured: snapshot write cost and bytes on disk (the space price
//! of durability); restore with a WAL tail (snapshot + logged mutations
//! replayed through the normal dynamic-buffer path); and **delta
//! snapshots** (a second snapshot after mutating a minority of shards
//! writes only the changed levels).

use dyndex_bench::workloads::*;
use dyndex_core::{DynOptions, FmConfig, RebuildMode};
use dyndex_persist::{DurableStore, RestoreOptions, StorePersist};
use dyndex_store::{MaintenancePolicy, ShardedStore, StoreOptions};
use dyndex_text::FmIndexCompressed;

type Store = ShardedStore<FmIndexCompressed>;
type Durable = DurableStore<FmIndexCompressed>;

const SHARDS: usize = 4;

fn store_opts() -> StoreOptions {
    StoreOptions {
        num_shards: SHARDS,
        index: DynOptions::default(),
        mode: RebuildMode::Background,
        maintenance: MaintenancePolicy::Manual,
        ..StoreOptions::default()
    }
}

fn restore_opts() -> RestoreOptions {
    RestoreOptions {
        mode: RebuildMode::Background,
        maintenance: MaintenancePolicy::Manual,
        ..RestoreOptions::default()
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dyndex-fig5-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    println!("=== Fig 5: cold start — restore vs full rebuild ({SHARDS} shards) ===\n");
    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>10} {:>14} {:>12}",
        "bytes", "docs", "rebuild", "restore", "speedup", "snapshot-wr", "disk"
    );
    for &n in &[1usize << 16, 1 << 18, 1 << 20] {
        let mut r = rng(0xF16_0005 ^ n as u64);
        let text = markov_text(&mut r, n, 26, 3);
        let docs = split_documents(&mut r, &text, 128, 1024, 0);
        let patterns = planted_patterns(&mut r, &docs, 8, 4);

        // Cold start A: full rebuild from raw documents.
        let rebuild_ns = measure_ns(3, || {
            let store = Store::new(FmConfig::default(), store_opts());
            for chunk in docs.chunks(256) {
                store.insert_batch(chunk).expect("insert batch");
            }
            store.flush();
            store.count(&patterns[0])
        });

        // Write the snapshot once (and measure the write itself).
        let store = Store::new(FmConfig::default(), store_opts());
        for chunk in docs.chunks(256) {
            store.insert_batch(chunk).expect("insert batch");
        }
        let dir = scratch_dir(&format!("plain-{n}"));
        let mut disk_bytes = 0u64;
        let snapshot_ns = measure_ns(3, || {
            // Wipe between runs so every measured snapshot is a *full*
            // write — otherwise generations 2+ are near-free deltas
            // (measured separately below).
            let _ = std::fs::remove_dir_all(&dir);
            let stats = store.snapshot(&dir).expect("snapshot");
            disk_bytes = stats.bytes_on_disk;
            stats.generation
        });

        // Cold start B: restore from the snapshot.
        let expected = store.count(&patterns[0]);
        let restore_ns = measure_ns(3, || {
            let restored = Store::restore(&dir, restore_opts()).expect("restore");
            let got = restored.count(&patterns[0]);
            assert_eq!(got, expected, "restored store must answer identically");
            got
        });

        println!(
            "{:<10} {:>8} {:>14} {:>14} {:>9.1}x {:>14} {:>11.1}K",
            n,
            docs.len(),
            fmt_ns(rebuild_ns),
            fmt_ns(restore_ns),
            rebuild_ns / restore_ns.max(1.0),
            fmt_ns(snapshot_ns),
            disk_bytes as f64 / 1024.0,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Restore with a WAL tail: snapshot mid-load, log the rest, reopen.
    println!("\n--- durable store: restore = snapshot + WAL-tail replay ---");
    let n = 1usize << 18;
    let mut r = rng(0xF16_0006);
    let text = markov_text(&mut r, n, 26, 3);
    let docs = split_documents(&mut r, &text, 128, 1024, 0);
    let dir = scratch_dir("wal");
    let live = Durable::create(&dir, FmConfig::default(), store_opts()).expect("create");
    let half = docs.len() / 2;
    for chunk in docs[..half].chunks(256) {
        live.insert_batch(chunk).expect("insert");
    }
    live.snapshot().expect("snapshot");
    for chunk in docs[half..].chunks(256) {
        live.insert_batch(chunk).expect("insert tail");
    }
    live.flush();
    let expected_docs = live.num_docs();
    let open_ns = measure_ns(3, || {
        let reopened = Durable::open(&dir, restore_opts()).expect("open");
        assert_eq!(reopened.num_docs(), expected_docs);
        reopened.num_docs()
    });
    println!("open (50% of corpus in the WAL tail): {}", fmt_ns(open_ns));
    println!("stats: {}", live.stats());
    let _ = std::fs::remove_dir_all(&dir);

    delta_snapshots();

    println!("\nshape checks: restore beats rebuild and the gap widens with n;");
    println!("(rebuild pays SA-IS + wavelet construction; restore pays file reads");
    println!("plus linear rank-directory re-derivation). WAL-tail opens sit between");
    println!("pure restore and pure rebuild, scaling with the logged fraction.");
    println!("Delta snapshots write a small fraction of the full snapshot after a");
    println!("minority-of-shards mutation.");
}

/// Delta vs full: snapshot, mutate only documents routed to shard 0,
/// snapshot again — the second generation reuses every untouched level.
fn delta_snapshots() {
    println!("\n--- delta snapshots: re-snapshot after mutating 1 of {SHARDS} shards ---");
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "bytes", "full-write", "delta-write", "reused", "savings", "delta-t"
    );
    for &n in &[1usize << 16, 1 << 18] {
        let mut r = rng(0xF16_0007 ^ n as u64);
        let text = markov_text(&mut r, n, 26, 3);
        let docs = split_documents(&mut r, &text, 128, 1024, 0);
        let store = Store::new(FmConfig::default(), store_opts());
        for chunk in docs.chunks(256) {
            store.insert_batch(chunk).expect("insert batch");
        }
        store.flush();
        let dir = scratch_dir(&format!("delta-{n}"));
        let first = store.snapshot(&dir).expect("first snapshot");

        // Mutate a minority of shards: delete a handful of shard-0 docs.
        // One measured run — a repeat would be a *zero*-change snapshot
        // (nothing mutated since), not the advertised one-shard delta.
        let doomed: Vec<u64> = docs
            .iter()
            .map(|(id, _)| *id)
            .filter(|&id| store.shard_of(id) == 0)
            .take(8)
            .collect();
        store.delete_batch(&doomed).expect("delete batch");
        store.flush();
        let t0 = std::time::Instant::now();
        let second = store.snapshot(&dir).expect("delta snapshot");
        let delta_ns = t0.elapsed().as_nanos() as f64;
        let total = second.bytes_written + second.bytes_reused;
        println!(
            "{:<10} {:>13.1}K {:>13.1}K {:>11.1}K {:>11.0}% {:>10}",
            n,
            first.bytes_written as f64 / 1024.0,
            second.bytes_written as f64 / 1024.0,
            second.bytes_reused as f64 / 1024.0,
            100.0 * second.bytes_reused as f64 / total.max(1) as f64,
            fmt_ns(delta_ns),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
