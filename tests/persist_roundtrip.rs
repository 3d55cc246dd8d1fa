//! Acceptance: a `ShardedStore` populated from the deterministic
//! `DEFAULT_SEED` workload, snapshotted mid-workload (so a write-ahead
//! log tail of inserts *and* deletes exists past the snapshot), then
//! restored into a fresh store, answers `count` / `find` / `find_limit`
//! / `extract` **byte-identically** to the original live store.

use dyndex::prelude::*;
use dyndex_bench::workloads::{markov_text, planted_patterns, rng, split_documents, DEFAULT_SEED};
use std::path::PathBuf;
use std::time::Duration;

type Durable = DurableStore<FmIndexCompressed>;
type Store = ShardedStore<FmIndexCompressed>;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "dyndex-persist-accept-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

type Docs = Vec<(u64, Vec<u8>)>;

/// The seeded acceptance workload (same generator pipeline as the store
/// concurrency suite): Markov text split into documents, with planted
/// patterns so every query has hits.
fn workload() -> (Docs, Vec<Vec<u8>>) {
    let mut r = rng(DEFAULT_SEED);
    let text = markov_text(&mut r, 40_000, 26, 2);
    let docs = split_documents(&mut r, &text, 64, 256, 0);
    let mut patterns = planted_patterns(&mut r, &docs, 6, 12);
    patterns.push(b"zzzzzzzz".to_vec()); // absent pattern
    (docs, patterns)
}

fn fm() -> FmConfig {
    FmConfig { sample_rate: 8 }
}

/// Deterministic mode: inline rebuilds + manual maintenance make the
/// live store's structure layout a pure function of its op sequence, so
/// even truncated (`find_limit`) answers must match byte-for-byte.
fn deterministic_opts(num_shards: usize) -> StoreOptions {
    StoreOptions {
        num_shards,
        index: DynOptions::default(),
        mode: RebuildMode::Inline,
        maintenance: MaintenancePolicy::Manual,
        ..StoreOptions::default()
    }
}

fn deterministic_restore() -> RestoreOptions {
    RestoreOptions {
        mode: RebuildMode::Inline,
        maintenance: MaintenancePolicy::Manual,
        ..RestoreOptions::default()
    }
}

fn assert_byte_identical(live: &Store, restored: &Store, patterns: &[Vec<u8>], max_id: u64) {
    assert_eq!(restored.num_docs(), live.num_docs());
    assert_eq!(restored.symbol_count(), live.symbol_count());
    for pattern in patterns {
        let tag = String::from_utf8_lossy(pattern).into_owned();
        assert_eq!(
            restored.count(pattern),
            live.count(pattern),
            "count {tag:?}"
        );
        assert_eq!(restored.find(pattern), live.find(pattern), "find {tag:?}");
        for limit in [0usize, 1, 5, 17, 1000, usize::MAX] {
            assert_eq!(
                restored.find_limit(pattern, limit),
                live.find_limit(pattern, limit),
                "find_limit({limit}) {tag:?}"
            );
        }
    }
    for id in 0..max_id {
        assert_eq!(restored.contains(id), live.contains(id), "contains {id}");
        assert_eq!(
            restored.extract(id, 0, 300),
            live.extract(id, 0, 300),
            "extract {id}"
        );
        assert_eq!(restored.extract(id, 13, 40), live.extract(id, 13, 40));
    }
}

/// The headline acceptance scenario: populate → snapshot mid-workload →
/// keep mutating (WAL tail) → restore fresh → byte-identical answers.
#[test]
fn snapshot_plus_wal_tail_restores_byte_identical() {
    let (docs, patterns) = workload();
    let dir = TempDir::new("wal-tail");
    let live = Durable::create(&dir.0, fm(), deterministic_opts(4)).expect("create");

    // First half of the workload, then a mid-workload snapshot.
    let half = docs.len() / 2;
    for chunk in docs[..half].chunks(32) {
        live.insert_batch(chunk).expect("insert");
    }
    let stats = live.snapshot().expect("mid-workload snapshot");
    assert_eq!(stats.shards, 4);
    assert!(stats.bytes_on_disk > 0);

    // The tail rides only in the write-ahead logs: the rest of the
    // inserts plus a scattered third of deletes.
    for chunk in docs[half..].chunks(32) {
        live.insert_batch(chunk).expect("insert tail");
    }
    let doomed: Vec<u64> = (0..docs.len() as u64).filter(|id| id % 3 == 0).collect();
    let removed = live.delete_batch(&doomed).expect("delete tail");
    assert_eq!(removed, doomed.len());
    live.flush();

    // Restore purely from disk into a fresh store.
    let restored = Durable::open(&dir.0, deterministic_restore()).expect("open");
    assert_byte_identical(live.store(), restored.store(), &patterns, docs.len() as u64);

    // The restored store keeps working as a normal dynamic store.
    restored
        .insert(1_000_000, b"post restore insert")
        .expect("insert after restore");
    assert_eq!(restored.count(b"post restore"), 1);
    let line = restored.stats().to_string();
    assert!(
        line.contains("last snapshot"),
        "stats dashboard must show snapshot bytes: {line}"
    );
}

/// Plain `ShardedStore::snapshot` / `restore` (no WAL layer) with
/// background rebuilds: quiesce via `flush`, snapshot, restore, and
/// compare the full query surface.
#[test]
fn plain_store_snapshot_under_background_mode() {
    let (docs, patterns) = workload();
    let store = Store::new(
        fm(),
        StoreOptions {
            num_shards: 3,
            index: DynOptions::default(),
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Manual,
            ..StoreOptions::default()
        },
    );
    for chunk in docs.chunks(48) {
        store.insert_batch(chunk).unwrap();
    }
    let doomed: Vec<u64> = (0..docs.len() as u64).filter(|id| id % 5 == 2).collect();
    store.delete_batch(&doomed).unwrap();

    let dir = TempDir::new("plain");
    // snapshot() quiesces internally; no explicit flush needed.
    let stats = store.snapshot(&dir.0).expect("snapshot");
    assert_eq!(stats.shards, 3);
    let restored = Store::restore(
        &dir.0,
        RestoreOptions {
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Manual,
            ..RestoreOptions::default()
        },
    )
    .expect("restore");

    // The snapshot captured the flushed point-in-time state; the live
    // store was not mutated afterwards, so answers must be identical
    // (find is fully sorted, so set-identical = byte-identical; the
    // restored layout mirrors the frozen one exactly, so find_limit
    // matches too).
    assert_byte_identical(&store, &restored, &patterns, docs.len() as u64);
}

// ----------------------------------------------------------------------
// Worker-pool re-creation through the restore paths
// ----------------------------------------------------------------------

/// `StorePersist::restore` must re-create the resident worker pool: the
/// restored store runs one worker per shard, and
/// its workers install background rebuilds with no manual maintenance
/// calls at all.
#[test]
fn restore_recreates_worker_pool() {
    let (docs, patterns) = workload();
    let dir = TempDir::new("pool-restore");
    let store = Store::new(fm(), deterministic_opts(3));
    for chunk in docs.chunks(48) {
        store.insert_batch(chunk).unwrap();
    }
    store.snapshot(&dir.0).expect("snapshot");
    assert_eq!(store.worker_threads(), 0, "Manual source has no workers");

    let restored = Store::restore(
        &dir.0,
        RestoreOptions {
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Periodic(Duration::from_micros(200)),
            ..RestoreOptions::default()
        },
    )
    .expect("restore");
    assert_eq!(
        restored.worker_threads(),
        3,
        "one worker per restored shard"
    );
    for pattern in &patterns {
        assert_eq!(restored.count(pattern), store.count(pattern));
        assert_eq!(restored.find(pattern), store.find(pattern));
    }

    // New writes spawn background rebuilds; only the restored workers
    // can install them (no maintain()/finish_background_work() here).
    let extra: Vec<(u64, Vec<u8>)> = (0..40u64)
        .map(|i| (5_000_000 + i, format!("post restore doc {i}").into_bytes()))
        .collect();
    restored.insert_batch(&extra).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while restored.pending_background_jobs() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        restored.pending_background_jobs(),
        0,
        "restored workers must drain rebuilds on their own"
    );
    assert_eq!(restored.count(b"post restore"), 40);
}

/// `DurableStore::open` must hand back a store whose pool is live again:
/// per-shard workers and self-draining maintenance, with the WAL tail
/// replayed underneath.
#[test]
fn open_recreates_worker_pool() {
    let (docs, patterns) = workload();
    let dir = TempDir::new("pool-open");
    let live = Durable::create(
        &dir.0,
        fm(),
        StoreOptions {
            num_shards: 4,
            index: DynOptions::default(),
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Periodic(Duration::from_micros(200)),
            ..StoreOptions::default()
        },
    )
    .expect("create");
    let half = docs.len() / 2;
    for chunk in docs[..half].chunks(32) {
        live.insert_batch(chunk).expect("insert");
    }
    live.snapshot().expect("snapshot");
    for chunk in docs[half..].chunks(32) {
        live.insert_batch(chunk).expect("wal tail");
    }
    live.flush();
    let want: Vec<usize> = patterns.iter().map(|p| live.count(p)).collect();
    drop(live); // "crash": joins the old pool

    let reopened = Durable::open(
        &dir.0,
        RestoreOptions {
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Periodic(Duration::from_micros(200)),
            ..RestoreOptions::default()
        },
    )
    .expect("open");
    assert_eq!(reopened.store().worker_threads(), 4, "pool re-created");
    for (pattern, want) in patterns.iter().zip(want) {
        assert_eq!(reopened.count(pattern), want, "snapshot + WAL tail");
    }
    // The reopened workers drain new rebuild work unprompted.
    reopened
        .insert_batch(
            &(0..30u64)
                .map(|i| (6_000_000 + i, format!("after reopen {i}").into_bytes()))
                .collect::<Vec<_>>(),
        )
        .expect("insert after open");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while reopened.store().pending_background_jobs() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(reopened.store().pending_background_jobs(), 0);
    assert_eq!(reopened.count(b"after reopen"), 30);
    let line = reopened.stats().to_string();
    assert!(
        line.contains("queued"),
        "dashboard shows queue gauge: {line}"
    );
}

/// Acceptance criterion for delta snapshots: a second snapshot after
/// mutating only a minority of shards reuses the untouched shards'
/// committed level files — `bytes_reused > 0`, measurably fewer bytes
/// written than the first snapshot — and still restores byte-identically
/// on the `DEFAULT_SEED` workload. A third snapshot with *nothing*
/// changed reuses every level file, including across restore (the
/// restored store resumes the writer's epochs and identity).
#[test]
fn delta_snapshot_reuses_unchanged_levels() {
    let (docs, patterns) = workload();
    let dir = TempDir::new("delta");
    let store = Store::new(fm(), deterministic_opts(4));
    for chunk in docs.chunks(32) {
        store.insert_batch(chunk).unwrap();
    }
    store.flush();

    let first = store.snapshot(&dir.0).expect("first snapshot");
    assert_eq!(first.levels_reused, 0, "nothing to reuse on a fresh dir");
    assert!(
        first.levels_written > 0,
        "populated shards must have levels"
    );
    assert!(first.bytes_written > 0);
    assert_eq!(first.bytes_reused, 0);

    // Mutate only documents routed to shard 0 — a minority of shards.
    let shard0: Vec<u64> = (0..docs.len() as u64)
        .filter(|&id| store.shard_of(id) == 0)
        .take(8)
        .collect();
    assert!(!shard0.is_empty());
    assert_eq!(store.delete_batch(&shard0).unwrap(), shard0.len());
    store.flush();

    let second = store.snapshot(&dir.0).expect("second snapshot");
    assert_eq!(second.generation, first.generation + 1);
    assert!(
        second.bytes_reused > 0,
        "untouched shards' levels must be reused: {second}"
    );
    assert!(second.levels_reused > 0, "{second}");
    assert!(
        second.bytes_written < first.bytes_written,
        "delta snapshot must write measurably fewer bytes: \
         first wrote {}, second wrote {}",
        first.bytes_written,
        second.bytes_written
    );

    // Nothing changed since the second snapshot: every level is reused.
    let third = store.snapshot(&dir.0).expect("third snapshot");
    assert_eq!(third.levels_written, 0, "{third}");
    assert_eq!(
        third.levels_reused,
        second.levels_reused + second.levels_written
    );
    let line = third.to_string();
    assert!(line.contains("levels reused"), "Display: {line}");
    assert!(line.contains("delta savings"), "Display: {line}");

    // The delta-restored store answers byte-identically.
    let restored = Store::restore(&dir.0, deterministic_restore()).expect("restore");
    assert_byte_identical(&store, &restored, &patterns, docs.len() as u64);

    // A restored store descends from the committed snapshot: its next
    // snapshot still reuses every unchanged level file.
    let fourth = restored.snapshot(&dir.0).expect("snapshot after restore");
    assert_eq!(
        fourth.levels_written, 0,
        "restore must preserve epochs + snapshot lineage: {fourth}"
    );
    assert!(fourth.bytes_reused > 0);

    // The original store's state now *forks* the directory's history
    // (the restored clone committed generation 4 after it): its next
    // snapshot must detect the fork and refuse to reuse, falling back
    // to a full write rather than pairing its epochs with the clone's
    // files.
    let fifth = store.snapshot(&dir.0).expect("snapshot after fork");
    assert_eq!(fifth.levels_reused, 0, "fork must disable reuse: {fifth}");
    let reread = Store::restore(&dir.0, deterministic_restore()).expect("restore after fork");
    assert_byte_identical(&store, &reread, &patterns, docs.len() as u64);
}

/// Telemetry survives restarts when the registry does: a store restored
/// with `Telemetry::Shared` over its predecessor's registry accumulates
/// into the same metric series — counters continue rather than reset —
/// and the WAL histograms keep recording on the reopened logs.
#[test]
fn restored_store_records_into_the_same_registry() {
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let shared = || Telemetry::Shared(std::sync::Arc::clone(&registry));
    let dir = TempDir::new("shared-registry");

    let live = Durable::create(
        &dir.0,
        fm(),
        StoreOptions {
            telemetry: shared(),
            ..deterministic_opts(2)
        },
    )
    .expect("create");
    live.insert(1, b"first life one").expect("insert");
    live.insert(2, b"first life two").expect("insert");
    assert_eq!(live.count(b"first life"), 2);
    live.snapshot().expect("snapshot");
    drop(live);

    let inserted = |r: &MetricsRegistry| {
        r.find_histogram("dyndex_store_insert_duration")
            .expect("registered")
            .snapshot()
            .count()
    };
    let first_life_inserts = inserted(&registry);
    assert_eq!(first_life_inserts, 2);

    let reopened = Durable::open(
        &dir.0,
        RestoreOptions {
            telemetry: shared(),
            ..deterministic_restore()
        },
    )
    .expect("open");
    assert!(
        std::sync::Arc::ptr_eq(&reopened.metrics().expect("telemetry on"), &registry),
        "restored store must hand back the registry it was given"
    );
    reopened.insert(3, b"second life three").expect("insert");
    assert_eq!(
        inserted(&registry),
        first_life_inserts + 1,
        "the same series keeps counting across the restart"
    );
    assert_eq!(reopened.count(b"second life"), 1);

    // WAL fsync latencies recorded on the reopened logs feed the
    // dashboard p99.
    reopened.sync_wal().expect("sync");
    let stats = reopened.stats();
    assert!(stats.wal_fsync_p99.is_some(), "fsyncs were recorded");
    let line = stats.to_string();
    assert!(line.contains("p99 fsync"), "{line}");

    // The exposition carries both store-side and WAL-side series.
    let text = reopened.render_metrics().expect("telemetry on");
    assert!(text.contains("dyndex_store_docs_inserted 3"), "{text}");
    assert!(text.contains("dyndex_wal_fsync_duration"), "{text}");
}

/// A logged batch group is applied under one shard guard, so it
/// publishes one view — one `C0` copy — not one per document.
#[test]
fn durable_batch_publishes_one_view_per_group() {
    let dir = TempDir::new("one-publish");
    let store = Durable::create(&dir.0, fm(), deterministic_opts(1)).expect("create");
    let registry = store.metrics().expect("telemetry on");
    let copies = registry.counter("dyndex_core_c0_freeze_copies", "", dyndex_obs::Unit::Count);
    let docs: Docs = (0..32u64)
        .map(|id| (id, format!("batched doc {id}").into_bytes()))
        .collect();
    let before = copies.get();
    store.insert_batch(&docs).expect("insert batch");
    assert_eq!(copies.get() - before, 1, "one publish for the insert group");
    let ids: Vec<u64> = (0..32).collect();
    assert_eq!(store.delete_batch(&ids).expect("delete batch"), 32);
    assert_eq!(copies.get() - before, 2, "one publish for the delete group");
}
