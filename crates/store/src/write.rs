//! The write path: every change is a [`ShardWrite`] (the paper's insert,
//! delete, and static build), **routed** by shard, **run** per shard
//! group ([`ShardedStore::run_routed`]) and **applied** under one guard
//! and one view publish ([`ShardedStore::apply`]). The persistence layer
//! logs the same `ShardWrite` before applying it, and replays it.

use crate::shard::{ShardPoisoned, ShardSlot};
use crate::store::{route_hash, IngestStats, ShardedStore};
use crate::telemetry::StoreTelemetry;
use dyndex_core::{LevelBuilder, StaticIndex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// One unit of mutation. The store routes it by shard and applies each
/// shard's part under one guard; the write-ahead log records one shard's
/// part as one record, and recovery re-applies it.
///
/// # Examples
///
/// ```
/// use dyndex_core::FmConfig;
/// use dyndex_store::{ShardWrite, ShardedStore, StoreOptions};
/// use dyndex_text::FmIndexCompressed;
///
/// let store: ShardedStore<FmIndexCompressed> =
///     ShardedStore::new(FmConfig { sample_rate: 8 }, StoreOptions::default());
/// let shard = store.shard_of(9);
/// store.apply(shard, ShardWrite::Bulk(vec![(9, b"one static level".to_vec())])).unwrap();
/// assert_eq!(store.count(b"static"), 1);
/// let removed = store.apply(shard, ShardWrite::Delete(vec![9])).unwrap();
/// assert_eq!(removed, vec![b"one static level".to_vec()]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardWrite {
    /// Documents `(id, bytes)` inserted one at a time through `C0`.
    Insert(Vec<(u64, Vec<u8>)>),
    /// Document ids deleted.
    Delete(Vec<u64>),
    /// Documents `(id, bytes)` built together into one static level,
    /// bypassing `C0` and every cascade merge.
    Bulk(Vec<(u64, Vec<u8>)>),
}

impl ShardWrite {
    /// Number of documents (or ids) the write carries.
    pub fn len(&self) -> usize {
        match self {
            ShardWrite::Insert(docs) | ShardWrite::Bulk(docs) => docs.len(),
            ShardWrite::Delete(ids) => ids.len(),
        }
    }

    /// Whether the write carries nothing (applying it changes nothing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One write of the same kind per shard it touches, in shard order.
    fn route(self, num_shards: usize) -> Vec<(usize, ShardWrite)> {
        fn split<T>(
            items: Vec<T>,
            num_shards: usize,
            id: impl Fn(&T) -> u64,
            kind: fn(Vec<T>) -> ShardWrite,
        ) -> Vec<(usize, ShardWrite)> {
            let mut groups: Vec<Vec<T>> = (0..num_shards).map(|_| Vec::new()).collect();
            for item in items {
                groups[shard_for(id(&item), num_shards)].push(item);
            }
            let groups = groups.into_iter().map(kind).enumerate();
            groups.filter(|(_, group)| !group.is_empty()).collect()
        }
        match self {
            ShardWrite::Insert(docs) => split(docs, num_shards, |d| d.0, ShardWrite::Insert),
            ShardWrite::Delete(ids) => split(ids, num_shards, |&id| id, ShardWrite::Delete),
            ShardWrite::Bulk(docs) => split(docs, num_shards, |d| d.0, ShardWrite::Bulk),
        }
    }
}

/// The shard `id` routes to in a store of `num_shards` shards.
pub(crate) fn shard_for(id: u64, num_shards: usize) -> usize {
    (route_hash(id) % num_shards as u64) as usize
}

/// What every apply shares, behind an `Arc` so ingest jobs on the pool
/// apply through the same code as the caller.
pub(crate) struct WritePath<I: StaticIndex> {
    /// Builds `Bulk` writes. Copied from a shard at construction: every
    /// shard has the same configuration, and it never changes.
    pub(crate) builder: LevelBuilder<I>,
    pub(crate) telemetry: Option<Arc<StoreTelemetry>>,
    /// Documents loaded by `Bulk` writes (kept here, so
    /// [`crate::StoreStats`] reports it even with telemetry disabled).
    pub(crate) ingested_docs: AtomicU64,
}

impl<I: StaticIndex + Sync> WritePath<I> {
    /// The body of [`ShardedStore::apply`].
    fn apply(
        &self,
        slot: &ShardSlot<I>,
        shard: usize,
        write: ShardWrite,
    ) -> Result<Vec<Vec<u8>>, ShardPoisoned> {
        if write.is_empty() {
            return Ok(Vec::new());
        }
        let docs = write.len() as u64;
        let t = self.telemetry.as_deref();
        let clock = || t.map(|_| Instant::now());
        let since = |from: Option<Instant>| from.map_or(0, |at| at.elapsed().as_nanos() as u64);
        let started = clock();
        // SA-IS runs before the guard is taken: nothing waits on it.
        let level = match &write {
            ShardWrite::Bulk(batch) => Some(self.builder.build_batch(batch)),
            _ => None,
        };
        let (build_nanos, built) = (since(started), clock());
        let mut guard = slot.write().inspect_err(|_| {
            if let Some(t) = t {
                t.shard_poisoned.inc();
            }
        })?;
        // Each arm drops the guard (publishing the view) before it stops
        // the clock.
        match write {
            ShardWrite::Insert(batch) => {
                for (id, bytes) in &batch {
                    guard.insert(*id, bytes);
                }
                drop(guard);
                if let Some(t) = t {
                    t.insert_duration.record_at(shard, since(started));
                    t.docs_inserted.add(docs);
                }
                Ok(Vec::new())
            }
            ShardWrite::Delete(ids) => {
                let removed: Vec<_> = ids.into_iter().filter_map(|id| guard.delete(id)).collect();
                drop(guard);
                if let Some(t) = t {
                    t.delete_duration.record_at(shard, since(started));
                    t.docs_deleted.add(removed.len() as u64);
                }
                Ok(removed)
            }
            ShardWrite::Bulk(_) => {
                guard.install_bulk_level(level.expect("bulk writes are built above"));
                drop(guard);
                self.ingested_docs.fetch_add(docs, Ordering::Relaxed);
                if let Some(t) = t {
                    t.ingest_build.record_at(shard, build_nanos);
                    t.ingest_install.record_at(shard, since(built));
                    t.docs_ingested.add(docs);
                }
                Ok(Vec::new())
            }
        }
    }
}

/// One routed bulk chunk: documents of one shard whose bytes reached the
/// chunk bound, or the shard's remainder once the stream ends.
#[derive(Debug)]
pub struct Chunk {
    /// The shard every document routes to.
    pub shard: usize,
    /// Document bytes in the chunk.
    pub bytes: u64,
    /// The documents, in stream order.
    pub docs: Vec<(u64, Vec<u8>)>,
}

/// Bulk chunks allowed in flight per shard before the router blocks on
/// the oldest reply — bounds ingest memory at
/// `(1 + MAX_INGEST_IN_FLIGHT) × chunk` raw bytes per shard (one being
/// routed, the rest being built).
const MAX_INGEST_IN_FLIGHT: usize = 2;

/// A submitted chunk: its job's reply, document count and bytes.
type InFlight = (
    mpsc::Receiver<std::thread::Result<Result<Vec<Vec<u8>>, ShardPoisoned>>>,
    usize,
    u64,
);

/// Running tally of an ingest call: what the installed chunks loaded,
/// plus the first failure of each kind (every submitted chunk is still
/// drained before either propagates, so no reply is ever orphaned).
#[derive(Default)]
struct IngestProgress {
    stats: IngestStats,
    poisoned: Option<ShardPoisoned>,
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Time spent *not* routing (waiting on replies, or applying on the
    /// caller without a pool) — subtracted from the elapsed clock so
    /// `ingest_route` reports pure routing + chunk-cutting.
    off_route_nanos: u64,
}

impl IngestProgress {
    /// Blocks on one chunk's reply and folds it in.
    fn absorb(&mut self, (reply, docs, bytes): InFlight) {
        let wait = Instant::now();
        let reply = reply.recv();
        self.off_route_nanos += wait.elapsed().as_nanos() as u64;
        match reply {
            Ok(Ok(Ok(_))) => self.stats.add_chunk(docs, bytes),
            Ok(Ok(Err(poisoned))) => {
                self.poisoned.get_or_insert(poisoned);
            }
            Ok(Err(payload)) => {
                self.panic.get_or_insert(payload);
            }
            // The job was dropped unrun (only a pool being torn down
            // drops queued jobs).
            Err(_) => {
                let lost = "shard worker exited without answering a bulk build";
                self.panic.get_or_insert(Box::new(lost));
            }
        }
    }
}

impl<I: StaticIndex + Sync> ShardedStore<I> {
    /// Applies `write` to `shard` under one write guard and one view
    /// publish — the only code that changes a shard's documents. A
    /// [`ShardWrite::Bulk`] is built before the guard is taken. Returns
    /// the bytes of every document a [`ShardWrite::Delete`] removed
    /// (absent ids are skipped). An empty write takes no lock. The caller
    /// routes: every id must satisfy `shard_of(id) == shard` (see
    /// [`ShardWrite`] for an example).
    ///
    /// # Errors
    /// Returns [`ShardPoisoned`] if a previous writer panicked in
    /// `shard` — reads there keep serving the last published view, and
    /// every other shard still accepts writes.
    ///
    /// # Panics
    /// Panics if an inserted id is already present (same contract as
    /// [`Transform2Index::insert`](dyndex_core::Transform2Index::insert)).
    pub fn apply(&self, shard: usize, write: ShardWrite) -> Result<Vec<Vec<u8>>, ShardPoisoned> {
        self.writes.apply(&self.shards[shard], shard, write)
    }

    /// Routes `write` by shard and runs `apply` on each group — a lone
    /// group on the caller, several each on its own scoped thread. Every
    /// group is applied before anything is reported: then a panic resumes
    /// with its original payload (the lowest shard's, if several
    /// panicked), else the lowest shard's error is returned, else the
    /// groups' results are concatenated in shard order.
    #[doc(hidden)]
    pub fn run_routed<E: Send>(
        &self,
        write: ShardWrite,
        apply: impl Fn(usize, ShardWrite) -> Result<Vec<Vec<u8>>, E> + Sync,
    ) -> Result<Vec<Vec<u8>>, E> {
        let mut groups = write.route(self.num_shards());
        if groups.len() <= 1 {
            return groups
                .pop()
                .map_or(Ok(Vec::new()), |(shard, group)| apply(shard, group));
        }
        let joined: Vec<_> = std::thread::scope(|scope| {
            let apply = &apply;
            let handles: Vec<_> = groups
                .into_iter()
                .map(|(shard, group)| scope.spawn(move || apply(shard, group)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let results: Vec<Result<Vec<Vec<u8>>, E>> = joined
            .into_iter()
            .collect::<std::thread::Result<_>>()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        let mut removed = Vec::new();
        for result in results {
            removed.extend(result?);
        }
        Ok(removed)
    }

    /// Routes `write` and applies each shard's group.
    fn write(&self, write: ShardWrite) -> Result<Vec<Vec<u8>>, ShardPoisoned> {
        self.run_routed(write, |shard, group| self.apply(shard, group))
    }

    /// Inserts a document into its shard, on the calling thread (the
    /// worker pool is not involved). On success the shard's view is
    /// republished, so the document is immediately visible to readers.
    ///
    /// # Errors
    /// Returns [`ShardPoisoned`] if a previous writer panicked in this
    /// document's shard — reads there keep serving the last published
    /// view, and every other shard still accepts writes.
    ///
    /// # Panics
    /// Panics if `doc_id` is already present (same contract as
    /// [`Transform2Index::insert`](dyndex_core::Transform2Index::insert)).
    ///
    /// # Examples
    ///
    /// ```
    /// use dyndex_core::FmConfig;
    /// use dyndex_store::{ShardedStore, StoreOptions};
    /// use dyndex_text::FmIndexCompressed;
    ///
    /// let store: ShardedStore<FmIndexCompressed> =
    ///     ShardedStore::new(FmConfig { sample_rate: 8 }, StoreOptions::default());
    /// store.insert(7, b"a single document").unwrap();
    /// assert!(store.contains(7));
    /// assert_eq!(store.delete(7).unwrap(), Some(b"a single document".to_vec()));
    /// assert_eq!(store.delete(7).unwrap(), None);
    /// ```
    pub fn insert(&self, doc_id: u64, bytes: &[u8]) -> Result<(), ShardPoisoned> {
        self.insert_batch(&[(doc_id, bytes.to_vec())])
    }

    /// Deletes a document, returning its bytes (`Ok(None)` if absent).
    /// See [`ShardedStore::insert`] for an example and the
    /// [`ShardPoisoned`] error contract.
    pub fn delete(&self, doc_id: u64) -> Result<Option<Vec<u8>>, ShardPoisoned> {
        Ok(self.write(ShardWrite::Delete(vec![doc_id]))?.pop())
    }

    /// Inserts a batch, grouped by shard and applied under one lock
    /// acquisition (and one view publish) per shard — a lone group on
    /// the calling thread, several in parallel on scoped threads.
    ///
    /// # Errors
    /// Returns the first (lowest-shard) [`ShardPoisoned`] if any target
    /// shard's previous writer panicked; groups routed to healthy shards
    /// are still applied.
    ///
    /// # Panics
    /// Panics if any document id is already present.
    ///
    /// # Examples
    ///
    /// ```
    /// use dyndex_core::FmConfig;
    /// use dyndex_store::{ShardedStore, StoreOptions};
    /// use dyndex_text::FmIndexCompressed;
    ///
    /// let store: ShardedStore<FmIndexCompressed> =
    ///     ShardedStore::new(FmConfig { sample_rate: 8 }, StoreOptions::default());
    /// store.insert_batch(&[(1, b"alpha".to_vec()), (2, b"beta".to_vec())]).unwrap();
    /// assert_eq!(store.num_docs(), 2);
    /// assert_eq!(store.delete_batch(&[1, 2, 3]).unwrap(), 2); // 3 was never present
    /// ```
    pub fn insert_batch(&self, docs: &[(u64, Vec<u8>)]) -> Result<(), ShardPoisoned> {
        self.write(ShardWrite::Insert(docs.to_vec())).map(drop)
    }

    /// Deletes a batch (grouped like [`ShardedStore::insert_batch`], see
    /// there for an example); returns how many of the ids were present
    /// and removed. On [`ShardPoisoned`], deletions routed to healthy
    /// shards are still applied (their count is not reported).
    pub fn delete_batch(&self, ids: &[u64]) -> Result<usize, ShardPoisoned> {
        Ok(self.write(ShardWrite::Delete(ids.to_vec()))?.len())
    }

    /// Routes a document stream into per-shard [`Chunk`]s, buffering at
    /// most one per shard: a shard's chunk is cut once its bytes reach
    /// `chunk_symbols` (clamped to at least 1), and when the stream ends
    /// each shard's remainder follows, in shard order.
    #[doc(hidden)]
    pub fn chunks<D>(&self, docs: D, chunk_symbols: usize) -> impl Iterator<Item = Chunk>
    where
        D: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        let bound = chunk_symbols.max(1) as u64;
        let num_shards = self.num_shards();
        let mut docs = docs.into_iter();
        // Per shard: buffered bytes and documents.
        let mut buffers = vec![(0u64, Vec::new()); num_shards];
        let mut routed = false;
        std::iter::from_fn(move || {
            let shard = 'cut: {
                if !routed {
                    for (id, bytes) in docs.by_ref() {
                        let shard = shard_for(id, num_shards);
                        buffers[shard].0 += bytes.len() as u64;
                        buffers[shard].1.push((id, bytes));
                        if buffers[shard].0 >= bound {
                            break 'cut shard;
                        }
                    }
                    routed = true;
                }
                buffers.iter().position(|(_, docs)| !docs.is_empty())?
            };
            let (bytes, docs) = std::mem::take(&mut buffers[shard]);
            Some(Chunk { shard, bytes, docs })
        })
    }

    /// Bulk-loads a document stream through the static-construction fast
    /// path: documents are hash-routed to their shards, cut into
    /// chunk-sized batches ([`ShardedStore::chunks`]), and each chunk is
    /// applied as one [`ShardWrite::Bulk`] — SA-IS-built directly into a
    /// static level ([`LevelBuilder`]) and installed through the shard's
    /// normal view-publish path. Compared to
    /// [`ShardedStore::insert_batch`] this skips the `C0` buffer and
    /// every logarithmic-method merge a document would otherwise pay on
    /// its way down the level cascade.
    ///
    /// Each chunk is a job for its shard's resident worker, so different
    /// shards build in parallel while the caller keeps routing; without
    /// a pool ([`MaintenancePolicy::Manual`](crate::MaintenancePolicy::Manual))
    /// the same job runs on the calling thread. Either way queries keep
    /// answering from the published views throughout — each installed
    /// chunk becomes visible atomically when its shard's view
    /// republishes. Memory stays bounded: at most one chunk of raw
    /// documents is buffered per shard while routing, plus up to two
    /// submitted chunks in flight per shard.
    ///
    /// # Errors
    /// Returns the first [`ShardPoisoned`] encountered; chunks routed to
    /// healthy shards are still installed (same contract as
    /// [`ShardedStore::insert_batch`]).
    ///
    /// # Panics
    /// Panics if a document id is already present in the store or
    /// duplicated within the stream (same contract as
    /// [`ShardedStore::insert`]; the panic surfaces after in-flight
    /// chunk builds drain).
    ///
    /// # Examples
    ///
    /// ```
    /// use dyndex_core::FmConfig;
    /// use dyndex_store::{ShardedStore, StoreOptions};
    /// use dyndex_text::FmIndexCompressed;
    ///
    /// let store: ShardedStore<FmIndexCompressed> =
    ///     ShardedStore::new(FmConfig { sample_rate: 8 }, StoreOptions::default());
    /// let corpus = (0..100u64).map(|id| (id, format!("bulk doc {id}").into_bytes()));
    /// let stats = store.ingest(corpus).unwrap();
    /// assert_eq!(stats.docs, 100);
    /// assert_eq!(store.num_docs(), 100);
    /// assert_eq!(store.count(b"doc 99"), 1);
    /// assert_eq!(store.stats().ingested_docs, 100);
    /// ```
    pub fn ingest<D>(&self, docs: D) -> Result<IngestStats, ShardPoisoned>
    where
        D: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        self.ingest_with_chunk_symbols(docs, dyndex_core::bulk::DEFAULT_CHUNK_SYMBOLS)
    }

    /// [`ShardedStore::ingest`] with an explicit chunk bound (bytes of
    /// routed documents per built level, per shard). Smaller chunks
    /// lower peak memory and parallelize more finely; larger chunks
    /// amortize construction better. Values below 1 are clamped to 1.
    ///
    /// # Examples
    ///
    /// ```
    /// use dyndex_core::FmConfig;
    /// use dyndex_store::{ShardedStore, StoreOptions};
    /// use dyndex_text::FmIndexCompressed;
    ///
    /// let store: ShardedStore<FmIndexCompressed> =
    ///     ShardedStore::new(FmConfig { sample_rate: 8 }, StoreOptions::default());
    /// let corpus = (0..64u64).map(|id| (id, format!("chunked doc {id}").into_bytes()));
    /// let stats = store.ingest_with_chunk_symbols(corpus, 256).unwrap();
    /// assert!(stats.levels > 1, "a 256-byte chunk bound splits 64 docs");
    /// assert_eq!(store.count(b"chunked"), 64);
    /// ```
    pub fn ingest_with_chunk_symbols<D>(
        &self,
        docs: D,
        chunk_symbols: usize,
    ) -> Result<IngestStats, ShardPoisoned>
    where
        D: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        let started = Instant::now();
        let mut in_flight: Vec<VecDeque<InFlight>> =
            (0..self.num_shards()).map(|_| VecDeque::new()).collect();
        let mut progress = IngestProgress::default();
        for Chunk { shard, bytes, docs } in self.chunks(docs, chunk_symbols) {
            if in_flight[shard].len() >= MAX_INGEST_IN_FLIGHT {
                progress.absorb(in_flight[shard].pop_front().expect("len checked above"));
            }
            let (reply, rx) = mpsc::channel();
            in_flight[shard].push_back((rx, docs.len(), bytes));
            let (shards, writes) = (Arc::clone(&self.shards), Arc::clone(&self.writes));
            let job = Box::new(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    writes.apply(&shards[shard], shard, ShardWrite::Bulk(docs))
                }));
                let _ = reply.send(result);
            });
            let submitted = Instant::now();
            self.submit_background_job(shard, job);
            progress.off_route_nanos += submitted.elapsed().as_nanos() as u64;
        }
        // Drain every in-flight chunk before reporting or propagating
        // anything, so no reply is orphaned.
        for chunk in in_flight.into_iter().flatten() {
            progress.absorb(chunk);
        }
        let stats = IngestStats {
            elapsed: started.elapsed(),
            ..progress.stats
        };
        if let Some(t) = &self.telemetry {
            let route = (stats.elapsed.as_nanos() as u64).saturating_sub(progress.off_route_nanos);
            t.ingest_route.record(route);
            t.ingest_docs_per_sec.set(stats.docs_per_sec() as u64);
        }
        if let Some(payload) = progress.panic {
            std::panic::resume_unwind(payload);
        }
        progress.poisoned.map_or(Ok(stats), Err)
    }

    /// Builds `docs` into one bulk level on `shard`, on the calling
    /// thread: [`ShardedStore::apply`] of a [`ShardWrite::Bulk`].
    #[doc(hidden)]
    pub fn bulk_load_shard(
        &self,
        shard: usize,
        docs: &[(u64, Vec<u8>)],
    ) -> Result<(), ShardPoisoned> {
        self.apply(shard, ShardWrite::Bulk(docs.to_vec())).map(drop)
    }
}
