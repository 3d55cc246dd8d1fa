//! Acceptance: one write path. A store write is a routed `ShardWrite`
//! applied under one guard; the durable layer logs that same write
//! before applying it, and recovery replays it through the same apply.
//! So one seeded mix of writes answers identically through a
//! `ShardedStore`, a `DurableStore`, and that `DurableStore` reopened
//! from its write-ahead log alone — and a write costs one view publish
//! per shard, whether applied, ingested or replayed.

use dyndex::prelude::*;
use dyndex_bench::workloads::{markov_text, planted_patterns, rng, split_documents, DEFAULT_SEED};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

type Durable = DurableStore<FmIndexCompressed>;
type Store = ShardedStore<FmIndexCompressed>;
type Docs = Vec<(u64, Vec<u8>)>;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("dyndex-write-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fm() -> FmConfig {
    FmConfig { sample_rate: 8 }
}

/// Store and restore options: `Manual` + `Inline`, or `Periodic` +
/// `Background`.
fn opts(num_shards: usize, pooled: bool) -> (StoreOptions, RestoreOptions) {
    let tick = MaintenancePolicy::Periodic(Duration::from_millis(1));
    let (mode, maintenance) = match pooled {
        false => (RebuildMode::Inline, MaintenancePolicy::Manual),
        true => (RebuildMode::Background, tick),
    };
    let store = StoreOptions {
        num_shards,
        mode,
        maintenance,
        ..StoreOptions::default()
    };
    let restore = RestoreOptions {
        mode,
        maintenance,
        ..RestoreOptions::default()
    };
    (store, restore)
}

fn docs(n: u64, tag: &str) -> Docs {
    (0..n)
        .map(|id| (id, format!("{tag} doc {id}").into_bytes()))
        .collect()
}

/// Runs `write` and returns its panic message.
fn panic_message(write: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(write)).expect_err("the write must panic");
    let payload = payload.as_ref();
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or(payload.downcast_ref::<&str>().copied())
        .unwrap_or_default()
        .to_string()
}

/// One write of the differential mix.
enum Op {
    InsertBatch(Docs),
    DeleteBatch(Vec<u64>),
    Insert(u64, Vec<u8>),
    Delete(u64),
    Ingest(Docs),
}

/// The `DEFAULT_SEED` documents' patterns, and a seeded mix of every
/// write kind over those documents: batches, single writes,
/// 256-byte-chunk ingests, and deletes that mostly hit live documents,
/// sometimes ids never inserted, and once per batch a repeated id.
fn workload() -> (Vec<Op>, Vec<Vec<u8>>) {
    let mut r = rng(DEFAULT_SEED);
    let text = markov_text(&mut r, 40_000, 26, 2);
    let docs = split_documents(&mut r, &text, 64, 256, 0);
    let mut patterns = planted_patterns(&mut r, &docs, 6, 12);
    patterns.push(b"zzzzzzzz".to_vec()); // absent pattern
    let absent = docs.len() as u64 + 1;
    let mut state = DEFAULT_SEED;
    let mut next = |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % bound
    };
    let (mut pending, mut live, mut ops) = (docs.into_iter(), Vec::new(), Vec::new());
    let mut take = |n: usize, live: &mut Vec<u64>| -> Docs {
        let batch: Docs = pending.by_ref().take(n).collect();
        live.extend(batch.iter().map(|(id, _)| *id));
        batch
    };
    loop {
        let op = match next(6) {
            0 => Op::InsertBatch(take(1 + next(4), &mut live)),
            1 => match take(1, &mut live).pop() {
                Some((id, bytes)) => Op::Insert(id, bytes),
                None => break,
            },
            2 | 3 => Op::Ingest(take(2 + next(8), &mut live)),
            4 => {
                let mut ids: Vec<u64> = (0..(1 + next(4)).min(live.len()))
                    .map(|_| live.swap_remove(next(live.len())))
                    .collect();
                ids.extend([
                    absent + next(4) as u64,
                    ids.first().copied().unwrap_or(absent),
                ]);
                Op::DeleteBatch(ids)
            }
            _ if live.is_empty() || next(3) == 0 => Op::Delete(absent),
            _ => Op::Delete(live.swap_remove(next(live.len()))),
        };
        if matches!(&op, Op::InsertBatch(d) | Op::Ingest(d) if d.is_empty()) {
            break;
        }
        ops.push(op);
    }
    let kinds: std::collections::HashSet<_> = ops.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), 5, "the mix exercises every write kind");
    (ops, patterns)
}

/// Runs the mix through either store type; returns what each write
/// returned, rendered for comparison.
macro_rules! run {
    ($store:expr, $ops:expr) => {
        $ops.iter()
            .map(|op| match op {
                Op::InsertBatch(docs) => format!("{:?}", $store.insert_batch(docs).unwrap()),
                Op::DeleteBatch(ids) => format!("{:?}", $store.delete_batch(ids).unwrap()),
                Op::Insert(id, bytes) => format!("{:?}", $store.insert(*id, bytes).unwrap()),
                Op::Delete(id) => format!("{:?}", $store.delete(*id).unwrap()),
                Op::Ingest(docs) => {
                    let stats = $store.ingest_with_chunk_symbols(docs.clone(), 256).unwrap();
                    format!("{}", stats.docs)
                }
            })
            .collect::<Vec<String>>()
    };
}

fn assert_same(label: &str, want: &Store, got: &Store, patterns: &[Vec<u8>]) {
    assert_eq!(got.num_docs(), want.num_docs(), "{label}: num_docs");
    for pattern in patterns {
        let tag = String::from_utf8_lossy(pattern);
        assert_eq!(
            got.count(pattern),
            want.count(pattern),
            "{label}: count {tag}"
        );
        assert_eq!(got.find(pattern), want.find(pattern), "{label}: find {tag}");
    }
    for id in 0..1024 {
        let (got, want) = (
            got.extract(id, 0, usize::MAX),
            want.extract(id, 0, usize::MAX),
        );
        assert_eq!(got, want, "{label}: extract {id}");
    }
}

#[test]
fn store_durable_and_replay_agree() {
    let (ops, patterns) = workload();
    for (num_shards, pooled) in [(1, false), (3, false), (1, true), (3, true)] {
        let label = format!("{num_shards} shards, pooled {pooled}");
        let (options, restore) = opts(num_shards, pooled);
        let store = Store::new(fm(), options.clone());
        let expected = run!(store, ops);
        assert!(store.num_docs() > 50, "{label}: documents left to query");

        let dir = TempDir::new(&format!("diff-{num_shards}-{pooled}"));
        let durable = Durable::create(&dir.0, fm(), options).expect("create");
        assert_eq!(run!(durable, ops), expected, "{label}: write results");
        assert_same(&label, &store, durable.store(), &patterns);
        drop(durable);
        // No snapshot since create: everything comes back from the logs.
        let reopened = Durable::open(&dir.0, restore).expect("reopen");
        assert_same(
            &format!("{label}, reopened"),
            &store,
            reopened.store(),
            &patterns,
        );
    }
}

/// A rejected duplicate panics before its shard's log is touched and
/// leaves that log — and every snapshot — usable; across a multi-shard
/// batch the panic keeps its message.
#[test]
fn duplicate_panics_keep_the_wal_usable_and_their_message() {
    let dir = TempDir::new("dup");
    let (options, _) = opts(4, false);
    let store = Durable::create(&dir.0, fm(), options).expect("create");
    store.insert(1, b"first").expect("insert");
    let msg = panic_message(|| drop(store.insert(1, b"again")));
    assert!(msg.contains("already present"), "unexpected panic: {msg}");
    let routes = |id| store.store().shard_of(id);
    let same_shard = (2..64)
        .find(|&id| routes(id) == routes(1))
        .expect("a shard mate");
    store
        .insert(same_shard, b"next")
        .expect("the shard's log still takes writes");
    store
        .snapshot()
        .expect("snapshot after a rejected duplicate");
    store.sync_wal().expect("sync after a rejected duplicate");

    let msg = panic_message(|| drop(store.insert_batch(&docs(40, "batch")[1..])));
    assert!(msg.contains("already present"), "unexpected panic: {msg}");
}

/// One bulk chunk is one write: one view publish, on the store and
/// through the durable layer.
#[test]
fn bulk_chunk_publishes_one_view() {
    let (options, _) = opts(1, false);
    let store = Store::new(fm(), options.clone());
    let epoch = |store: &Store| store.shard_view(0).epoch();
    let before = epoch(&store);
    store
        .bulk_load_shard(0, &docs(8, "loaded"))
        .expect("bulk load");
    assert_eq!(epoch(&store), before + 1, "bulk_load_shard publishes once");
    let ingested: Docs = docs(16, "ingested").split_off(8);
    assert_eq!(store.ingest(ingested.clone()).expect("ingest").levels, 1);
    assert_eq!(
        epoch(&store),
        before + 2,
        "a one-chunk ingest publishes once"
    );

    let dir = TempDir::new("bulk-publish");
    let durable = Durable::create(&dir.0, fm(), options).expect("create");
    let before = epoch(durable.store());
    durable.ingest(ingested).expect("durable ingest");
    assert_eq!(
        epoch(durable.store()),
        before + 1,
        "a durable chunk publishes once"
    );
}

/// Replay applies a logged batch as one write: reopening a store whose
/// log holds one 32-document batch copies `C0` for the initial view and
/// once for the batch, not once per document.
#[test]
fn replay_publishes_once_per_record() {
    let dir = TempDir::new("replay-publish");
    let (options, restore) = opts(1, false);
    let store = Durable::create(&dir.0, fm(), options).expect("create");
    store
        .insert_batch(&docs(32, "replayed"))
        .expect("insert batch");
    drop(store);
    let reopened = Durable::open(&dir.0, restore).expect("reopen");
    assert_eq!(reopened.num_docs(), 32);
    let registry = reopened.metrics().expect("telemetry on");
    let copies = registry.counter("dyndex_core_c0_freeze_copies", "", dyndex::obs::Unit::Count);
    assert!(copies.get() <= 2, "C0 copies on reopen: {}", copies.get());
    assert!(reopened.store().shard_view(0).epoch() <= 2);
}
