//! Acceptance: the bulk-ingestion fast path. `ingest(stream)` on the
//! deterministic `DEFAULT_SEED` workload answers `count` / `find` /
//! `find_limit` / `extract` **byte-identically** to insert-at-a-time,
//! with deletes interleaved between ingest waves and a background
//! snapshot racing an ingest on the worker pool. The durable layer logs
//! each ingested chunk as **one coalesced WAL frame** (counted on disk
//! against the raw frame format) and recovers cleanly from a torn
//! batched frame.

use dyndex::prelude::*;
use dyndex_bench::workloads::{markov_text, planted_patterns, rng, split_documents, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::time::Duration;

type Durable = DurableStore<FmIndexCompressed>;
type Store = ShardedStore<FmIndexCompressed>;
type Docs = Vec<(u64, Vec<u8>)>;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p =
            std::env::temp_dir().join(format!("dyndex-bulk-accept-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The seeded acceptance workload (same generator pipeline as the
/// persistence suite): Markov text split into documents, planted
/// patterns so every query has hits, plus one absent pattern.
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

fn opts(num_shards: usize) -> StoreOptions {
    StoreOptions {
        num_shards,
        index: DynOptions::default(),
        mode: RebuildMode::Inline,
        maintenance: MaintenancePolicy::Manual,
        ..StoreOptions::default()
    }
}

/// Bulk-built and serially-built stores hold *different level layouts*
/// by design, so equality is asserted where the query contract defines
/// it: `count`/`find` always (find is fully sorted — set-identical is
/// byte-identical), `extract`/`contains` per document, and `find_limit`
/// byte-identically whenever `limit >= count` or `limit == 0` (the
/// documented determinism boundary — truncation choice may differ
/// between layouts). Truncating limits still must return exactly
/// `min(limit, count)` sorted occurrences drawn from the full set.
fn assert_query_identical(bulk: &Store, serial: &Store, patterns: &[Vec<u8>], max_id: u64) {
    assert_eq!(bulk.num_docs(), serial.num_docs());
    assert_eq!(bulk.symbol_count(), serial.symbol_count());
    for pattern in patterns {
        let tag = String::from_utf8_lossy(pattern).into_owned();
        let count = serial.count(pattern);
        assert_eq!(bulk.count(pattern), count, "count {tag:?}");
        let full = serial.find(pattern);
        assert_eq!(bulk.find(pattern), full, "find {tag:?}");
        assert!(full.windows(2).all(|w| w[0] <= w[1]), "find is sorted");
        for limit in [0usize, count, count + 3, usize::MAX] {
            assert_eq!(
                bulk.find_limit(pattern, limit),
                serial.find_limit(pattern, limit),
                "find_limit({limit}) {tag:?}"
            );
        }
        for limit in [1usize, 5, 17] {
            let got = bulk.find_limit(pattern, limit);
            assert_eq!(got.len(), limit.min(count), "find_limit({limit}) {tag:?}");
            assert!(got.windows(2).all(|w| w[0] <= w[1]));
            assert!(
                got.iter().all(|occ| full.contains(occ)),
                "find_limit({limit}) must draw from the exact set: {tag:?}"
            );
        }
    }
    for id in 0..max_id {
        assert_eq!(bulk.contains(id), serial.contains(id), "contains {id}");
        assert_eq!(
            bulk.extract(id, 0, 300),
            serial.extract(id, 0, 300),
            "extract {id}"
        );
        assert_eq!(bulk.extract(id, 13, 40), serial.extract(id, 13, 40));
    }
}

/// The headline property: ingest in waves with deletes interleaved
/// between them answers identically to inserting every document one at
/// a time with the same deletes at the same points.
#[test]
fn ingest_matches_insert_at_a_time_byte_identical() {
    let (docs, patterns) = workload();
    let bulk = Store::new(fm(), opts(4));
    let serial = Store::new(fm(), opts(4));

    let third = docs.len() / 3;
    let doomed_early: Vec<u64> = (0..third as u64).filter(|id| id % 7 == 2).collect();
    let doomed_late: Vec<u64> = (0..docs.len() as u64).filter(|id| id % 11 == 5).collect();
    let doomed_late: Vec<u64> = doomed_late
        .into_iter()
        .filter(|id| !doomed_early.contains(id))
        .collect();

    // Bulk path: wave of ingest, deletes, another wave, more deletes.
    let stats = bulk
        .ingest_with_chunk_symbols(docs[..third].iter().cloned(), 4096)
        .expect("first wave");
    assert_eq!(stats.docs as usize, third);
    assert!(stats.levels > 1, "4096-byte chunks must cut levels");
    assert_eq!(
        bulk.delete_batch(&doomed_early)
            .expect("interleaved delete"),
        doomed_early.len()
    );
    bulk.ingest_with_chunk_symbols(docs[third..].iter().cloned(), 4096)
        .expect("second wave");
    assert_eq!(
        bulk.delete_batch(&doomed_late).expect("late delete"),
        doomed_late.len()
    );

    // Serial path: the same history through insert-at-a-time.
    for (id, bytes) in &docs[..third] {
        serial.insert(*id, bytes).expect("insert");
    }
    serial.delete_batch(&doomed_early).expect("delete");
    for (id, bytes) in &docs[third..] {
        serial.insert(*id, bytes).expect("insert");
    }
    serial.delete_batch(&doomed_late).expect("delete");

    assert_query_identical(&bulk, &serial, &patterns, docs.len() as u64);
    assert_eq!(bulk.stats().ingested_docs, docs.len() as u64);
}

/// A snapshot racing an ingest on the worker pool: queries and the
/// snapshot writer both keep working off published views while chunks
/// install. The snapshot captures a consistent point-in-time subset
/// (every document it holds extracts byte-identically), and the live
/// store finishes byte-identical to the serial reference.
#[test]
fn background_snapshot_races_ingest() {
    let (docs, patterns) = workload();
    let dir = TempDir::new("mid-ingest-snap");
    let bulk = Store::new(
        fm(),
        StoreOptions {
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Periodic(Duration::from_micros(200)),
            ..opts(4)
        },
    );
    let serial = Store::new(fm(), opts(4));
    for chunk in docs.chunks(64) {
        serial.insert_batch(chunk).expect("reference insert");
    }

    std::thread::scope(|scope| {
        let snap = scope.spawn(|| {
            // Land mid-ingest: small chunks below give many install
            // points for the snapshot's per-shard freezes to interleave.
            bulk.snapshot(&dir.0).expect("mid-ingest snapshot")
        });
        let mut served = 0usize;
        let ingest = scope.spawn(|| {
            bulk.ingest_with_chunk_symbols(docs.iter().cloned(), 2048)
                .expect("ingest under snapshot")
        });
        while !ingest.is_finished() {
            // Queries answer from published views the whole time.
            let _ = bulk.count(&patterns[served % patterns.len()]);
            served += 1;
        }
        let stats = ingest.join().expect("ingest thread");
        assert_eq!(stats.docs as usize, docs.len());
        let snap_stats = snap.join().expect("snapshot thread");
        assert_eq!(snap_stats.shards, 4);
        assert!(served > 0, "queries ran during ingest");
    });
    bulk.flush();
    assert_query_identical(&bulk, &serial, &patterns, docs.len() as u64);

    // The racing snapshot restores to a consistent subset: whatever
    // documents it caught answer byte-identically to their source.
    let restored = Store::restore(
        &dir.0,
        RestoreOptions {
            mode: RebuildMode::Inline,
            maintenance: MaintenancePolicy::Manual,
            ..RestoreOptions::default()
        },
    )
    .expect("restore racing snapshot");
    assert!(restored.num_docs() <= docs.len());
    let mut caught = 0usize;
    for (id, bytes) in &docs {
        if restored.contains(*id) {
            caught += 1;
            assert_eq!(
                restored.extract(*id, 0, bytes.len()).as_deref(),
                Some(bytes.as_slice()),
                "doc {id} must extract byte-identically"
            );
        }
    }
    assert_eq!(restored.num_docs(), caught);
}

// ----------------------------------------------------------------------
// WAL coalescing: one frame per ingested chunk
// ----------------------------------------------------------------------

/// Walks the raw on-disk frame format (`payload_len u32 | crc32 u32 |
/// payload`, payload = `seq u64 | kind u8 | body`) and returns the
/// frame count per record kind (1 = insert, 2 = delete, 3 = ingest).
fn wal_frames(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).expect("read wal");
    let mut kinds = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        assert!(pos + 8 + len <= bytes.len(), "frame must not overrun file");
        kinds.push(bytes[pos + 8 + 8]); // kind byte follows the u64 seq
        pos += 8 + len;
    }
    assert_eq!(pos, bytes.len(), "no trailing garbage");
    kinds
}

fn wal_path_of(dir: &Path, shard: usize) -> PathBuf {
    dir.join("wal").join(format!("shard-{shard:04}.wal"))
}

/// Durable bulk ingest logs one coalesced `IngestBatch` frame per
/// built chunk — hundreds of documents, a handful of frames — and the
/// log replays byte-identically on reopen.
#[test]
fn durable_ingest_coalesces_wal_frames() {
    let (docs, patterns) = workload();
    let dir = TempDir::new("coalesce");
    let live = Durable::create_with_wal(
        &dir.0,
        fm(),
        opts(2),
        WalOptions {
            sync: SyncPolicy::Batched {
                every: 4,
                max_delay: Duration::from_millis(50),
            },
        },
    )
    .expect("create");
    let stats = live
        .ingest_with_chunk_symbols(docs.iter().cloned(), 4096)
        .expect("ingest");
    assert_eq!(stats.docs as usize, docs.len());
    live.sync_wal().expect("sync");

    let mut frames = 0usize;
    for shard in 0..2 {
        let kinds = wal_frames(&wal_path_of(&dir.0, shard));
        assert!(
            kinds.iter().all(|&k| k == 3),
            "bulk ingest must log only IngestBatch frames, got {kinds:?}"
        );
        frames += kinds.len();
    }
    assert_eq!(
        frames, stats.levels as usize,
        "one coalesced frame per built chunk"
    );
    assert!(
        frames < docs.len() / 10,
        "coalescing must beat per-document logging: {frames} frames for {} docs",
        docs.len()
    );

    let want: Vec<usize> = patterns.iter().map(|p| live.count(p)).collect();
    drop(live);
    let reopened = Durable::open(
        &dir.0,
        RestoreOptions {
            mode: RebuildMode::Inline,
            maintenance: MaintenancePolicy::Manual,
            ..RestoreOptions::default()
        },
    )
    .expect("open");
    assert_eq!(reopened.num_docs(), docs.len());
    for (pattern, want) in patterns.iter().zip(want) {
        assert_eq!(reopened.count(pattern), want);
    }
}

/// Torn-tail recovery for the batched frame: chop a reopened log
/// mid-frame and the store must come back with every *whole* logged
/// chunk intact — the torn chunk vanishes atomically (all-or-nothing
/// per frame), never as a partial batch.
#[test]
fn torn_ingest_frame_recovers_to_last_whole_chunk() {
    let (docs, _) = workload();
    let dir = TempDir::new("torn");
    let live = Durable::create(&dir.0, fm(), opts(1)).expect("create");
    let stats = live
        .ingest_with_chunk_symbols(docs.iter().cloned(), 4096)
        .expect("ingest");
    assert!(stats.levels >= 3, "need several frames to tear one off");
    live.sync_wal().expect("sync");
    drop(live);

    // Tear the last frame: chop 5 bytes off the log so its trailing
    // IngestBatch fails the length/crc check.
    let path = wal_path_of(&dir.0, 0);
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");

    let reopened = Durable::open(
        &dir.0,
        RestoreOptions {
            mode: RebuildMode::Inline,
            maintenance: MaintenancePolicy::Manual,
            ..RestoreOptions::default()
        },
    )
    .expect("torn tail must not block recovery");
    let survivors = reopened.num_docs();
    assert!(survivors < docs.len(), "the torn chunk is gone");
    assert!(survivors > 0, "whole frames before the tear replay");

    // Replayed documents are byte-identical to their sources, and the
    // boundary is a chunk boundary: surviving ids are exactly a prefix
    // of the ingest order (single shard → routing preserves order).
    let mut seen_missing = false;
    for (id, bytes) in &docs {
        if reopened.store().contains(*id) {
            assert!(!seen_missing, "survivors must form a chunk-aligned prefix");
            assert_eq!(
                reopened.extract(*id, 0, bytes.len()).as_deref(),
                Some(bytes.as_slice())
            );
        } else {
            seen_missing = true;
        }
    }
    assert!(seen_missing);

    // The recovered store accepts new work and logs it after the tear.
    reopened.insert(9_999_999, b"life goes on").expect("insert");
    assert_eq!(reopened.count(b"life goes on"), 1);
}
