//! Integration: the sharded store vs one unsharded `Transform2Index` on
//! the deterministic `DEFAULT_SEED` workload — byte-identical `count` /
//! `find` answers while background maintenance jobs are in flight — plus
//! genuinely concurrent readers and writers.

use dyndex::prelude::*;
use dyndex_bench::workloads::{markov_text, planted_patterns, rng, split_documents, DEFAULT_SEED};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Store = ShardedStore<FmIndexCompressed>;
type Reference = Transform2Index<FmIndexCompressed>;

fn fm() -> FmConfig {
    FmConfig { sample_rate: 8 }
}

type Docs = Vec<(u64, Vec<u8>)>;

/// The acceptance workload: seeded Markov text split into documents, with
/// planted patterns (every query has hits).
fn workload() -> (Docs, Vec<Vec<u8>>) {
    let mut r = rng(DEFAULT_SEED);
    let text = markov_text(&mut r, 40_000, 26, 2);
    let docs = split_documents(&mut r, &text, 64, 256, 0);
    let mut patterns = planted_patterns(&mut r, &docs, 6, 12);
    patterns.push(b"zzzzzzzz".to_vec()); // absent pattern
    (docs, patterns)
}

fn assert_store_matches(store: &Store, reference: &Reference, patterns: &[Vec<u8>], at: &str) {
    for pattern in patterns {
        assert_eq!(
            store.count(pattern),
            reference.count(pattern),
            "count mismatch {at}, pattern {:?}",
            String::from_utf8_lossy(pattern)
        );
        let sharded = store.find(pattern);
        let mut single = reference.find(pattern);
        single.sort();
        assert_eq!(
            sharded,
            single,
            "find mismatch {at}, pattern {:?}",
            String::from_utf8_lossy(pattern)
        );
    }
}

/// Acceptance criterion: a 4-shard store answers byte-identically to an
/// unsharded index on the `DEFAULT_SEED` workload, with queries served
/// while background rebuild jobs are in flight.
#[test]
fn sharded_matches_unsharded_with_jobs_in_flight() {
    let (docs, patterns) = workload();
    let store = Store::new(
        fm(),
        StoreOptions {
            num_shards: 4,
            index: DynOptions::default(),
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Manual,
            ..StoreOptions::default()
        },
    );
    let mut reference = Reference::new(fm(), DynOptions::default(), RebuildMode::Background);

    let mut saw_pending = 0usize;
    for chunk in docs.chunks(24) {
        store.insert_batch(chunk).unwrap();
        for (id, bytes) in chunk {
            reference.insert(*id, bytes);
        }
        // Query mid-stream: background jobs from the batch are typically
        // still building; answers must already be exact.
        saw_pending += store.pending_background_jobs();
        assert_store_matches(&store, &reference, &patterns[..3], "mid-insert");
    }
    assert!(
        saw_pending > 0,
        "workload must actually exercise in-flight background jobs"
    );
    assert_store_matches(&store, &reference, &patterns, "after inserts");
    assert_eq!(store.num_docs(), docs.len());
    assert_eq!(store.symbol_count(), reference.symbol_count());

    // Delete a third of the documents through the batch path.
    let doomed: Vec<u64> = (0..docs.len() as u64).filter(|id| id % 3 == 0).collect();
    assert_eq!(store.delete_batch(&doomed).unwrap(), doomed.len());
    for id in &doomed {
        reference.delete(*id);
    }
    assert_store_matches(&store, &reference, &patterns, "after deletes");

    // Drain all maintenance on both sides; answers must not change.
    store.finish_background_work();
    reference.finish_background_work();
    assert_eq!(store.pending_background_jobs(), 0);
    assert_store_matches(&store, &reference, &patterns, "after drain");

    let stats = store.stats();
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.total_docs(), docs.len() - doomed.len());
    assert_eq!(stats.total_symbols(), store.symbol_count());
    assert_eq!(stats.pending_jobs(), 0);
}

/// Readers on their own threads get exact answers while a writer thread
/// streams inserts/deletes and the periodic scheduler installs rebuilds.
#[test]
fn concurrent_readers_during_writes_and_maintenance() {
    let (docs, patterns) = workload();
    let store = Store::new(
        fm(),
        StoreOptions {
            num_shards: 4,
            index: DynOptions::default(),
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Periodic(Duration::from_micros(500)),
            ..StoreOptions::default()
        },
    );
    let total_occurrences: usize = patterns
        .iter()
        .map(|p| {
            docs.iter()
                .map(|(_, d)| d.windows(p.len()).filter(|w| *w == p.as_slice()).count())
                .sum::<usize>()
        })
        .sum();

    let writer_done = AtomicBool::new(false);
    let reader_queries = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                while !writer_done.load(Ordering::Acquire) {
                    for pattern in &patterns {
                        // Monotone insert-only stream: every snapshot is
                        // bounded by the final corpus total. (count and
                        // find_limit are *separate* snapshots — the writer
                        // may land documents between them.)
                        let n = store.count(pattern);
                        assert!(n <= total_occurrences);
                        let hits = store.find_limit(pattern, 5);
                        assert!(hits.len() <= 5);
                        assert!(hits.windows(2).all(|w| w[0] < w[1]), "sorted merge");
                        reader_queries.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        for chunk in docs.chunks(16) {
            store.insert_batch(chunk).unwrap();
        }
        writer_done.store(true, Ordering::Release);
    });
    assert!(
        reader_queries.load(Ordering::Relaxed) > 0,
        "readers must have run concurrently with the writer"
    );

    // Settle and verify against the unsharded reference.
    store.finish_background_work();
    let mut reference = Reference::new(fm(), DynOptions::default(), RebuildMode::Inline);
    for (id, bytes) in &docs {
        reference.insert(*id, bytes);
    }
    reference.finish_background_work();
    assert_store_matches(&store, &reference, &patterns, "after concurrent run");
    assert_eq!(store.num_docs(), docs.len());
}

// ----------------------------------------------------------------------
// Stores with the resident worker pool running
// ----------------------------------------------------------------------

fn pooled_opts(mode: RebuildMode) -> StoreOptions {
    StoreOptions {
        num_shards: 4,
        index: DynOptions::default(),
        mode,
        maintenance: MaintenancePolicy::Periodic(Duration::from_micros(200)),
        ..StoreOptions::default()
    }
}

/// Acceptance criterion for the pool: a store with resident workers
/// answers `count`/`find` byte-identically to an unsharded
/// `Transform2Index` on the `DEFAULT_SEED` workload — with rebuild jobs
/// in flight and the workers installing them concurrently — and its
/// `find_limit` truncation is byte-identical to a poolless
/// (`MaintenancePolicy::Manual`) twin driven through the identical op
/// sequence: the pool never changes an answer.
#[test]
fn pooled_store_matches_unsharded_on_default_seed() {
    let (docs, patterns) = workload();
    // Inline rebuilds: shard layout is a pure function of the op
    // sequence, so the pooled and poolless twins stay layout-identical
    // and even truncated find_limit answers must agree byte-for-byte.
    let pooled = Store::new(fm(), pooled_opts(RebuildMode::Inline));
    let manual = Store::new(
        fm(),
        StoreOptions {
            maintenance: MaintenancePolicy::Manual,
            ..pooled_opts(RebuildMode::Inline)
        },
    );
    assert_eq!(pooled.worker_threads(), 4);
    assert_eq!(manual.worker_threads(), 0);
    let mut reference = Reference::new(fm(), DynOptions::default(), RebuildMode::Inline);

    for chunk in docs.chunks(24) {
        pooled.insert_batch(chunk).unwrap();
        manual.insert_batch(chunk).unwrap();
        for (id, bytes) in chunk {
            reference.insert(*id, bytes);
        }
    }
    let doomed: Vec<u64> = (0..docs.len() as u64).filter(|id| id % 3 == 0).collect();
    assert_eq!(pooled.delete_batch(&doomed).unwrap(), doomed.len());
    assert_eq!(manual.delete_batch(&doomed).unwrap(), doomed.len());
    for id in &doomed {
        reference.delete(*id);
    }

    assert_store_matches(&pooled, &reference, &patterns, "pooled vs unsharded");
    for pattern in &patterns {
        for limit in [0usize, 1, 5, 17, 1000, usize::MAX] {
            assert_eq!(
                pooled.find_limit(pattern, limit),
                manual.find_limit(pattern, limit),
                "pooled vs poolless find_limit({limit}), pattern {:?}",
                String::from_utf8_lossy(pattern)
            );
        }
    }

    // Same acceptance under background rebuilds with jobs in flight:
    // exact count/find while the workers race the queries on installs.
    let bg = Store::new(fm(), pooled_opts(RebuildMode::Background));
    let mut bg_reference = Reference::new(fm(), DynOptions::default(), RebuildMode::Background);
    for chunk in docs.chunks(24) {
        bg.insert_batch(chunk).unwrap();
        for (id, bytes) in chunk {
            bg_reference.insert(*id, bytes);
        }
        assert_store_matches(&bg, &bg_reference, &patterns[..3], "pooled mid-insert");
    }
    assert_store_matches(&bg, &bg_reference, &patterns, "pooled after inserts");
}

/// The read path is the caller's thread and the published views, nothing
/// else: with *every* shard's worker parked on a channel, `count`, `find`
/// and `find_limit` from several threads still answer — exactly as the
/// unsharded reference does — and no worker queue ever holds more than
/// the one parked job. (A read that entered a queue would sit behind the
/// parked job forever.)
#[test]
fn reads_never_enter_worker_queues() {
    let (docs, patterns) = workload();
    let store = Store::new(fm(), pooled_opts(RebuildMode::Inline));
    let mut reference = Reference::new(fm(), DynOptions::default(), RebuildMode::Inline);
    for chunk in docs.chunks(64) {
        store.insert_batch(chunk).unwrap();
        for (id, bytes) in chunk {
            reference.insert(*id, bytes);
        }
    }
    store.flush();

    // Park every worker; each job reports in before it blocks, so from
    // here every queue is exactly: nothing queued, one job busy.
    let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
    let releases: Vec<std::sync::mpsc::Sender<()>> = (0..store.num_shards())
        .map(|shard| {
            let (release, wait) = std::sync::mpsc::channel::<()>();
            let parked = parked_tx.clone();
            assert!(store.submit_background_job(
                shard,
                Box::new(move || {
                    parked.send(()).unwrap();
                    let _ = wait.recv();
                })
            ));
            release
        })
        .collect();
    for _ in 0..store.num_shards() {
        parked_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker picked its parking job up");
    }
    assert_eq!(store.max_queue_depth(), 1);

    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                assert_store_matches(&store, &reference, &patterns, "workers parked");
                for pattern in &patterns {
                    let mut all = reference.find(pattern);
                    all.sort();
                    assert_eq!(store.find_limit(pattern, usize::MAX), all);
                    let capped = store.find_limit(pattern, 3);
                    assert_eq!(capped.len(), all.len().min(3));
                    assert!(capped.iter().all(|hit| all.contains(hit)));
                    assert_eq!(store.max_queue_depth(), 1, "only the parked jobs");
                }
            });
        }
    });
    assert_eq!(store.stats().queued_requests(), 0);
    assert_eq!(store.stats().busy_workers(), store.num_shards());

    drop(releases);
    store.flush();
    assert_eq!(store.max_queue_depth(), 0);
}

/// Dropping the store while other threads still hold clones and are
/// mid-query must tear the pool down cleanly: queued jobs finish, the
/// workers observe their closed queues, and every join succeeds (a hang
/// here fails the suite's timeout; a worker panic aborts the drop).
#[test]
fn pool_drop_with_queries_in_flight() {
    let (docs, patterns) = workload();
    let patterns = Arc::new(patterns);
    let store = Arc::new(Store::new(fm(), pooled_opts(RebuildMode::Background)));
    for chunk in docs.chunks(64) {
        store.insert_batch(chunk).unwrap();
    }
    let queries = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for t in 0..4 {
        let store = Arc::clone(&store);
        let queries = Arc::clone(&queries);
        let patterns = Arc::clone(&patterns);
        handles.push(std::thread::spawn(move || {
            for round in 0..30 {
                let pattern = &patterns[(t + round) % patterns.len()];
                std::hint::black_box(store.count(pattern));
                std::hint::black_box(store.find_limit(pattern, 3));
                queries.fetch_add(1, Ordering::Relaxed);
            }
            // The last finisher drops the store (and joins the pool) here.
        }));
    }
    // Main gives up its handle while readers are still querying.
    drop(store);
    for handle in handles {
        handle.join().expect("reader thread panicked");
    }
    assert_eq!(queries.load(Ordering::Relaxed), 4 * 30);
}

/// Writer-panic containment under the view-published read path: a writer
/// panic poisons one shard's lock, but readers never touch that lock —
/// every query keeps answering from the shard's last published view.
/// Writes to the poisoned shard are refused with a typed
/// [`ShardPoisoned`] error (not a cascading panic), other shards keep
/// accepting writes, the workers all survive, and `flush` skips the
/// poisoned shard instead of panicking.
#[test]
fn poisoned_writer_keeps_reads_serving_last_view() {
    let store = Store::new(fm(), pooled_opts(RebuildMode::Inline));
    for id in 0..32u64 {
        store
            .insert(id, format!("containment doc {id}").as_bytes())
            .unwrap();
    }
    let count_before = store.count(b"containment");
    assert_eq!(count_before, 32);
    let hits_before = store.find(b"containment");
    let poisoned_shard = store.shard_of(0);
    // A healthy document routed to any other shard.
    let healthy = (1..32u64)
        .find(|&id| store.shard_of(id) != poisoned_shard)
        .unwrap();

    // Poison: duplicate insert panics while the shard's write guard is
    // held, poisoning that one RwLock. The guard's Drop sees the unwind
    // and publishes nothing, so the shard's view stays at the last good
    // state.
    let write_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = store.insert(0, b"duplicate");
    }))
    .expect_err("duplicate insert must panic");
    let msg = panic_message(write_panic.as_ref());
    assert!(msg.contains("already present"), "unexpected panic: {msg}");

    // The regression this test pins down: multi-shard queries used to
    // `.expect("shard lock poisoned")`-panic store-wide. Now `find`
    // answers exactly from the last published views, repeatedly.
    for attempt in 0..2 {
        assert_eq!(
            store.count(b"containment"),
            count_before,
            "attempt {attempt}: reads must keep serving the last view"
        );
        assert_eq!(store.find(b"containment"), hits_before);
    }
    assert!(store.contains(0), "poisoned shard still serves point reads");
    assert!(store.extract(0, 0, 11).is_some());

    // Writes to the poisoned shard fail fast with the typed error.
    let mut same = 1_000u64;
    while store.shard_of(same) != poisoned_shard {
        same += 1;
    }
    assert_eq!(
        store.insert(same, b"refused"),
        Err(ShardPoisoned {
            shard: poisoned_shard
        })
    );
    assert_eq!(
        store.delete(0),
        Err(ShardPoisoned {
            shard: poisoned_shard
        })
    );

    // Every other shard keeps accepting writes.
    assert!(store.contains(healthy));
    let mut fresh = 2_000u64;
    while store.shard_of(fresh) == poisoned_shard {
        fresh += 1;
    }
    store
        .insert(fresh, b"containment doc inserted after the poisoning")
        .unwrap();
    assert!(store.contains(fresh));
    assert_eq!(store.count(b"containment"), count_before + 1);
    // Workers are all still alive (containment, not crash-and-respawn),
    // and flush quiesces the healthy shards without panicking.
    assert_eq!(store.worker_threads(), 4);
    store.flush();
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Regression for the `flush` contract: with readers hammering the
/// store from other threads, `flush` must still return (drain the
/// worker queues without deadlocking) and leave the store settled —
/// zero pending rebuild jobs — every time.
#[test]
fn flush_drains_request_queues_under_concurrent_readers() {
    let (docs, patterns) = workload();
    let store = Store::new(fm(), pooled_opts(RebuildMode::Background));
    for chunk in docs.chunks(32) {
        store.insert_batch(chunk).unwrap();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    for pattern in &patterns {
                        std::hint::black_box(store.count(pattern));
                    }
                }
            });
        }
        for _ in 0..5 {
            store.flush();
            assert_eq!(
                store.pending_background_jobs(),
                0,
                "flush must leave no rebuild jobs in flight"
            );
        }
        stop.store(true, Ordering::Release);
    });
    // Queues empty once the readers are gone and the last flush settled.
    assert_eq!(store.stats().queued_requests(), 0);
}

// ----------------------------------------------------------------------
// Epoch-published views (lock-free read path)
// ----------------------------------------------------------------------

/// The headline acceptance criterion: queries execute without acquiring
/// the shard `RwLock`. Proven directly — this thread holds a shard's
/// write lock while a full multi-shard `find` (which includes that
/// shard) completes with exact answers. Under the old lock-based read
/// path this deadlocks; under view publication the query answers from
/// the last published views.
#[test]
fn find_completes_while_shard_write_lock_is_held() {
    let (docs, patterns) = workload();
    let store = Store::new(fm(), pooled_opts(RebuildMode::Inline));
    for chunk in docs.chunks(64) {
        store.insert_batch(chunk).unwrap();
    }
    store.flush();
    let want: Vec<_> = patterns.iter().map(|p| store.find(p)).collect();

    for shard in 0..store.num_shards() {
        let guard = store.lock_shard(shard);
        for (pattern, want) in patterns.iter().zip(&want) {
            assert_eq!(
                &store.find(pattern),
                want,
                "find must complete exactly while shard {shard} is write-locked"
            );
            assert_eq!(store.count(pattern), want.len());
        }
        drop(guard);
    }
}

/// Deterministic interleaving of view install vs a pinned reader: a
/// loaded view is an immutable snapshot — later writes never mutate it
/// ("old"), a reload observes them ("new"), and there is no third,
/// torn possibility. View epochs increase strictly across installs.
#[test]
fn pinned_view_is_immutable_and_epochs_increase() {
    let store = Store::new(
        fm(),
        StoreOptions {
            num_shards: 1,
            index: DynOptions::default(),
            mode: RebuildMode::Inline,
            maintenance: MaintenancePolicy::Manual,
            ..StoreOptions::default()
        },
    );
    store.insert(1, b"pinned alpha").unwrap();
    let old = store.shard_view(0);
    let old_epoch = old.epoch();
    assert_eq!(old.count(b"alpha"), 1);

    // Interleave three installs (insert, insert, delete) against the
    // pinned view: it must answer from its snapshot throughout.
    store.insert(2, b"pinned beta").unwrap();
    assert_eq!(old.count(b"pinned"), 1, "pinned view never sees the insert");
    store.insert(3, b"pinned gamma").unwrap();
    store.delete(1).unwrap();
    assert_eq!(old.count(b"alpha"), 1, "pinned view never sees the delete");
    assert_eq!(old.num_docs(), 1);

    // A fresh load observes everything, under a strictly larger epoch.
    let new = store.shard_view(0);
    assert!(
        new.epoch() > old_epoch,
        "epochs must increase: {} -> {}",
        old_epoch,
        new.epoch()
    );
    assert_eq!(new.count(b"alpha"), 0);
    assert_eq!(new.count(b"pinned"), 2);
    assert_eq!(new.num_docs(), 2);
}

/// Concurrent readers racing a writer can never observe a torn view.
/// Every inserted document contains both the token `alphaq` and the
/// token `betaq`, so *within any single view* the two counts are equal —
/// a reader that caught a half-installed state would see them differ.
/// Per-reader epoch monotonicity is asserted on the same loads.
#[test]
fn concurrent_view_loads_are_never_torn() {
    let store = Store::new(
        fm(),
        StoreOptions {
            num_shards: 1,
            index: DynOptions::default(),
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Manual,
            ..StoreOptions::default()
        },
    );
    let writer_done = AtomicBool::new(false);
    let loads = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut last_epoch = 0u64;
                let mut last_docs = 0usize;
                while !writer_done.load(Ordering::Acquire) {
                    let view = store.shard_view(0);
                    assert_eq!(
                        view.count(b"alphaq"),
                        view.count(b"betaq"),
                        "a single view must be internally consistent"
                    );
                    assert!(
                        view.epoch() >= last_epoch,
                        "epochs must be monotone per reader: {} then {}",
                        last_epoch,
                        view.epoch()
                    );
                    // Monotone insert-only workload: doc counts can only
                    // grow along a reader's view sequence.
                    assert!(view.num_docs() >= last_docs);
                    last_epoch = view.epoch();
                    last_docs = view.num_docs();
                    loads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for id in 0..300u64 {
            store
                .insert(id, format!("alphaq {id} betaq").as_bytes())
                .unwrap();
            if id % 16 == 0 {
                store.maintain();
            }
        }
        store.finish_background_work();
        writer_done.store(true, Ordering::Release);
    });
    assert!(loads.load(Ordering::Relaxed) > 0, "readers must have raced");
    let view = store.shard_view(0);
    assert_eq!(view.count(b"alphaq"), 300);
    assert_eq!(view.num_docs(), 300);
}

/// Long read/write soak over the epoch-published views: several readers
/// hammer views (consistency + epoch monotonicity per load) while a
/// writer churns inserts and deletes for a few seconds. Run with
/// `cargo test -- --ignored read_write_soak`.
#[test]
#[ignore = "multi-second soak; run explicitly"]
fn read_write_soak() {
    let store = Store::new(fm(), pooled_opts(RebuildMode::Background));
    let writer_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            scope.spawn(|| {
                let mut last = vec![0u64; store.num_shards()];
                while !writer_done.load(Ordering::Acquire) {
                    for (shard, last_epoch) in last.iter_mut().enumerate() {
                        let view = store.shard_view(shard);
                        assert_eq!(view.count(b"soakalpha"), view.count(b"soakbeta"));
                        assert!(view.epoch() >= *last_epoch, "epoch regressed");
                        *last_epoch = view.epoch();
                    }
                    std::hint::black_box(store.find_limit(b"soakalpha", 7));
                }
            });
            let _ = t;
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut id = 0u64;
        while std::time::Instant::now() < deadline {
            store
                .insert(id, format!("soakalpha {id} soakbeta").as_bytes())
                .unwrap();
            if id >= 64 && id.is_multiple_of(4) {
                store.delete(id - 64).unwrap();
            }
            id += 1;
        }
        writer_done.store(true, Ordering::Release);
    });
    store.flush();
    let alive = store.num_docs();
    assert_eq!(store.count(b"soakalpha"), alive);
    assert_eq!(store.count(b"soakbeta"), alive);
}

// ----------------------------------------------------------------------
// Snapshots beside live traffic
// ----------------------------------------------------------------------

struct SnapshotTempDir(std::path::PathBuf);

impl SnapshotTempDir {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "dyndex-store-concurrent-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        SnapshotTempDir(p)
    }
}

impl Drop for SnapshotTempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Acceptance criterion for the non-blocking snapshot pipeline: a
/// snapshot never holds more than one shard's write lock at a time.
/// Proven deterministically by wedging one shard's write lock open: the
/// snapshot must park on that shard with every *other* shard unlocked
/// and serviceable — a snapshot that took every shard lock in shard
/// order would hold shards 0..k locked while waiting on shard k+1.
#[test]
fn background_snapshot_holds_at_most_one_shard_lock() {
    let (docs, patterns) = workload();
    let store = Arc::new(Store::new(fm(), pooled_opts(RebuildMode::Inline)));
    for chunk in docs.chunks(64) {
        store.insert_batch(chunk).unwrap();
    }
    store.flush();
    let dir = SnapshotTempDir::new("one-lock");
    let doc_in = |s: usize| {
        docs.iter()
            .map(|(id, _)| *id)
            .find(|&id| store.shard_of(id) == s)
    };

    let blocked_shard = 2;
    let guard = store.lock_shard(blocked_shard);
    let handle = {
        let store = Arc::clone(&store);
        let dir = dir.0.clone();
        std::thread::spawn(move || store.snapshot(&dir).expect("background snapshot"))
    };
    // Let the snapshot freeze shards 0 and 1 and park on the held shard.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !handle.is_finished(),
        "snapshot cannot complete while shard {blocked_shard} is write-locked"
    );
    // Every other shard must be immediately serviceable: already-frozen
    // shards were unlocked again before the snapshot moved on.
    for s in (0..store.num_shards()).filter(|&s| s != blocked_shard) {
        let id = doc_in(s).expect("every shard is populated");
        assert!(store.contains(id), "shard {s} must answer mid-snapshot");
        assert!(store.extract(id, 0, 8).is_some());
    }
    drop(guard);
    let stats = handle.join().expect("snapshot thread");
    assert_eq!(stats.shards, store.num_shards());

    // The committed snapshot restores to the exact frozen state.
    let restored = Store::restore(
        &dir.0,
        RestoreOptions {
            mode: RebuildMode::Inline,
            maintenance: MaintenancePolicy::Manual,
            ..RestoreOptions::default()
        },
    )
    .expect("restore");
    for pattern in &patterns {
        assert_eq!(restored.count(pattern), store.count(pattern));
        assert_eq!(restored.find(pattern), store.find(pattern));
    }
}

/// Queries keep completing while a background snapshot of a populated
/// store is mid-serialization. The worker queues are wedged with sleep
/// jobs first, so the snapshot's serialization provably overlaps the
/// query window (`snapshot_in_progress` stays up for the duration) —
/// no all-shards stall, no deadlock.
#[test]
fn queries_complete_while_background_snapshot_serializes() {
    let (docs, patterns) = workload();
    let store = Arc::new(Store::new(fm(), pooled_opts(RebuildMode::Inline)));
    for chunk in docs.chunks(64) {
        store.insert_batch(chunk).unwrap();
    }
    store.flush();
    let want: Vec<usize> = patterns.iter().map(|p| store.count(p)).collect();
    let dir = SnapshotTempDir::new("no-stall");

    // Wedge every worker queue: the snapshot's per-level serialization
    // jobs queue behind these, keeping the snapshot observably
    // in-progress while the queries below run.
    for s in 0..store.num_shards() {
        store.submit_background_job(
            s,
            Box::new(|| std::thread::sleep(Duration::from_millis(100))),
        );
    }
    let handle = {
        let store = Arc::clone(&store);
        let dir = dir.0.clone();
        std::thread::spawn(move || store.snapshot(&dir).expect("background snapshot"))
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !store.snapshot_in_progress()
        && !handle.is_finished()
        && std::time::Instant::now() < deadline
    {
        std::thread::yield_now();
    }
    let mut queries_during = 0usize;
    while store.snapshot_in_progress() && std::time::Instant::now() < deadline {
        let (id, bytes) = &docs[queries_during % docs.len()];
        assert!(store.contains(*id), "query must not stall mid-snapshot");
        assert_eq!(
            store.extract(*id, 0, 4).as_deref(),
            Some(&bytes[..4.min(bytes.len())]),
            "exact answers mid-snapshot"
        );
        queries_during += 1;
    }
    let stats = handle.join().expect("snapshot thread");
    assert!(
        queries_during > 0,
        "queries must complete while serialization is in flight"
    );
    assert!(!store.snapshot_in_progress(), "gauge resets after commit");
    assert!(!store.stats().snapshot_in_progress);
    assert_eq!(stats.shards, store.num_shards());

    // Multi-shard queries answer exactly once the snapshot is done.
    for (pattern, want) in patterns.iter().zip(want) {
        assert_eq!(store.count(pattern), want, "post-snapshot count");
    }
}
