//! [`DurableStore`]: a [`ShardedStore`] that survives restarts.
//!
//! A durable write takes the store's one write path (see
//! [`ShardWrite`]) with one step added: the write is routed by shard,
//! and for each shard's group the runner locks that shard's write-ahead
//! log, checks the group can apply ([`check_write`]), appends it as one
//! record, and only then applies it with [`ShardedStore::apply`]. The
//! on-disk state (last snapshot plus WAL tails) therefore always covers
//! the in-memory state. [`DurableStore::open`] restores the last
//! committed snapshot, replays the tails record by record through the
//! same check and the same `apply` — recovering the exact pre-crash
//! logical state — and re-creates the store's resident worker pool per
//! [`RestoreOptions`](crate::RestoreOptions).
//!
//! Queries delegate straight to the wrapped store (same read path, same
//! deterministic merge); only mutations pay the logging detour.

use crate::codec::Persist;
use crate::error::PersistError;
use crate::snapshot::{
    read_manifest, replay_wal, restore_snapshot, write_snapshot, RestoreOptions, SnapshotStats,
    MANIFEST_FILE,
};
use crate::wal::{read_wal_records, wal_path, WalMetrics, WalOptions, WalWriter};
use dyndex_core::StaticIndex;
use dyndex_obs::MetricsRegistry;
use dyndex_store::{IngestStats, ShardWrite, ShardedStore, StoreOptions, StoreStats};
use dyndex_text::Occurrence;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A sharded store with a snapshot directory and per-shard write-ahead
/// logs. All methods take `&self` (internal synchronization), matching
/// the wrapped [`ShardedStore`].
pub struct DurableStore<I>
where
    I: StaticIndex + Sync + Persist,
    I::Config: Persist,
{
    store: ShardedStore<I>,
    dir: PathBuf,
    /// One log per shard; the mutex also serializes same-shard writers
    /// so log order matches apply order.
    wals: Vec<Mutex<WalWriter>>,
    /// Global mutation sequence; each logged record gets the next value.
    seq: AtomicU64,
    /// Bytes on disk of the last committed snapshot.
    snapshot_bytes: AtomicU64,
}

impl<I> DurableStore<I>
where
    I: StaticIndex + Sync + Persist,
    I::Config: Persist,
{
    /// Creates a fresh durable store in `dir` (which must not already
    /// hold one): builds the in-memory store, commits an initial empty
    /// snapshot, and opens the logs with the default [`WalOptions`]
    /// (snapshot-paced fsync; see [`DurableStore::create_with_wal`] for
    /// per-record or group-commit durability).
    pub fn create(
        dir: &Path,
        config: I::Config,
        options: StoreOptions,
    ) -> Result<Self, PersistError> {
        Self::create_with_wal(dir, config, options, WalOptions::default())
    }

    /// [`DurableStore::create`] with an explicit write-ahead-log fsync
    /// policy (see [`SyncPolicy`](crate::SyncPolicy)): `PerRecord` for
    /// no-loss power-failure durability, `EveryN` for group commit,
    /// `OnSnapshot` (default) for snapshot-paced durability.
    pub fn create_with_wal(
        dir: &Path,
        config: I::Config,
        options: StoreOptions,
        wal: WalOptions,
    ) -> Result<Self, PersistError> {
        if dir.join(MANIFEST_FILE).exists() {
            return Err(PersistError::manifest(format!(
                "{} already holds a durable store (use open)",
                dir.display()
            )));
        }
        let store = ShardedStore::new(config, options);
        let stats = write_snapshot(&store, dir, 0)?;
        let wals = Self::open_wals(dir, &store, wal)?;
        Ok(DurableStore {
            store,
            dir: dir.to_path_buf(),
            wals,
            seq: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(stats.bytes_on_disk),
        })
    }

    /// Opens an existing durable store: restores the last committed
    /// snapshot, replays the WAL tails, resumes logging after the
    /// highest replayed sequence number, and re-creates the per-shard
    /// worker pool (per `options.maintenance`) so the reopened store
    /// runs background installs exactly like the one that wrote the
    /// snapshot. See the crate-level
    /// example for the full create → mutate → reopen round-trip.
    pub fn open(dir: &Path, options: RestoreOptions) -> Result<Self, PersistError> {
        let manifest = read_manifest(dir)?;
        let store = restore_snapshot::<I>(dir, &manifest, &options)?;
        let max_seq = if manifest.wal_seq == crate::snapshot::NO_WAL {
            // The snapshot was written without WAL coverage (plain
            // `StorePersist::snapshot`). NO_WAL means "do not replay" —
            // but if logs with records coexist, whether they pre- or
            // post-date the snapshot is unknowable; refuse rather than
            // guess (re-applying covered records would corrupt state).
            for shard in 0..store.num_shards() {
                if !read_wal_records(&wal_path(dir, shard))?.is_empty() {
                    return Err(PersistError::manifest(
                        "snapshot carries no WAL watermark but write-ahead logs \
                         contain records; re-snapshot through DurableStore or \
                         remove the stale wal/ directory",
                    ));
                }
            }
            0
        } else {
            replay_wal(&store, dir, manifest.wal_seq)?
        };
        let wals = Self::open_wals(dir, &store, options.wal)?;
        // Same accounting as SnapshotStats::bytes_on_disk: every
        // referenced file (meta + level) plus the manifest itself.
        let snapshot_bytes =
            manifest.referenced_bytes() + std::fs::metadata(dir.join(MANIFEST_FILE))?.len();
        Ok(DurableStore {
            store,
            dir: dir.to_path_buf(),
            wals,
            seq: AtomicU64::new(max_seq),
            snapshot_bytes: AtomicU64::new(snapshot_bytes),
        })
    }

    /// Opens one log per shard, pointing each writer at the store's WAL
    /// latency histograms when telemetry is enabled.
    fn open_wals(
        dir: &Path,
        store: &ShardedStore<I>,
        options: WalOptions,
    ) -> Result<Vec<Mutex<WalWriter>>, PersistError> {
        let num_shards = store.num_shards();
        let metrics = store
            .metrics()
            .map(|registry| WalMetrics::register(&registry, num_shards, store.flight_recorder()));
        (0..num_shards)
            .map(|s| {
                let mut writer = WalWriter::open_append(wal_path(dir, s), options)?;
                writer.set_metrics(metrics.clone(), s);
                Ok(Mutex::new(writer))
            })
            .collect()
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The wrapped in-memory store. Queries through it are fine;
    /// mutations through it would bypass the log and be lost on restart —
    /// use this store's own mutation methods.
    pub fn store(&self) -> &ShardedStore<I> {
        &self.store
    }

    fn wal(&self, shard: usize) -> MutexGuard<'_, WalWriter> {
        self.wals[shard].lock().expect("wal lock poisoned")
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    // ------------------------------------------------------------------
    // Logged mutations
    // ------------------------------------------------------------------

    /// Inserts one document (logged, then applied).
    ///
    /// # Panics
    /// Panics if `doc_id` is already present (same contract as
    /// [`ShardedStore::insert`]) — checked *before* the log is written.
    pub fn insert(&self, doc_id: u64, bytes: &[u8]) -> Result<(), PersistError> {
        self.insert_batch(&[(doc_id, bytes.to_vec())])
    }

    /// Inserts a batch, logging each shard's group to its WAL before
    /// applying it as one store write (one lock acquisition, one view
    /// publish); groups for different shards proceed in parallel.
    ///
    /// # Panics
    /// Panics if any id is already present or duplicated in the batch
    /// (checked per shard before that shard's log is written).
    pub fn insert_batch(&self, docs: &[(u64, Vec<u8>)]) -> Result<(), PersistError> {
        self.write(ShardWrite::Insert(docs.to_vec())).map(drop)
    }

    /// Deletes one document (logged, then applied); returns its bytes.
    pub fn delete(&self, doc_id: u64) -> Result<Option<Vec<u8>>, PersistError> {
        Ok(self.write(ShardWrite::Delete(vec![doc_id]))?.pop())
    }

    /// Deletes a batch (logged per shard, then applied); returns how
    /// many ids were present and removed.
    pub fn delete_batch(&self, ids: &[u64]) -> Result<usize, PersistError> {
        Ok(self.write(ShardWrite::Delete(ids.to_vec()))?.len())
    }

    /// Routes `write` by shard and logs, then applies, each shard's group
    /// (see [`ShardedStore::run_routed`]).
    fn write(&self, write: ShardWrite) -> Result<Vec<Vec<u8>>, PersistError> {
        self.store
            .run_routed(write, |shard, group| self.log_and_apply(shard, group))
    }

    /// Logs one routed write to its shard's WAL, then applies it. The WAL
    /// lock is held across both, so log order matches apply order and a
    /// concurrent snapshot cuts between writes, never through one. Ids a
    /// delete names but the shard does not hold are dropped first: they
    /// change nothing, so nothing is logged for them.
    ///
    /// # Panics
    /// Panics if the write cannot apply (see [`check_write`]) — after the
    /// WAL lock is released, so the log stays usable.
    fn log_and_apply(&self, shard: usize, write: ShardWrite) -> Result<Vec<Vec<u8>>, PersistError> {
        let mut wal = self.wal(shard);
        let write = match write {
            ShardWrite::Delete(ids) => {
                ShardWrite::Delete(ids.into_iter().filter(|&id| self.contains(id)).collect())
            }
            write => write,
        };
        if write.is_empty() {
            return Ok(Vec::new());
        }
        if let Err(reason) = check_write(&self.store, &write) {
            drop(wal);
            panic!("{reason}");
        }
        wal.append(self.next_seq(), &write)?;
        Ok(self.store.apply(shard, write)?)
    }

    /// Bulk-loads a document stream through the static-construction fast
    /// path (see [`ShardedStore::ingest`]), durably: each chunk is
    /// appended to its shard's write-ahead log as **one coalesced
    /// [`ShardWrite::Bulk`] record** — one frame header, one `write_all`, and
    /// at most one policy-charged fsync per chunk, instead of per
    /// document or per small batch — and then built straight into a
    /// static bulk level on that shard. Replay after a crash routes the
    /// logged chunks back through the same bulk-build path. Memory stays
    /// bounded by one chunk of raw documents per shard.
    ///
    /// Pair with [`SyncPolicy::Batched`](crate::SyncPolicy) to also cap
    /// WAL-staleness during long loads without paying one fsync per
    /// chunk.
    ///
    /// # Errors
    /// Returns the first WAL or shard error; chunks already logged and
    /// applied stay applied (and recovery replays them).
    ///
    /// # Panics
    /// Panics if a document id is already present or duplicated in the
    /// stream — checked per chunk *before* that chunk's log record is
    /// written, so an unreplayable record never reaches the WAL.
    ///
    /// # Examples
    ///
    /// ```
    /// use dyndex_core::{FmConfig, RebuildMode};
    /// use dyndex_persist::{DurableStore, RestoreOptions};
    /// use dyndex_store::{MaintenancePolicy, StoreOptions};
    /// use dyndex_text::FmIndexCompressed;
    ///
    /// let dir = std::env::temp_dir().join(format!("dyndex-ingest-doc-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let options = StoreOptions {
    ///     num_shards: 2,
    ///     mode: RebuildMode::Inline,
    ///     maintenance: MaintenancePolicy::Manual,
    ///     ..StoreOptions::default()
    /// };
    /// let store: DurableStore<FmIndexCompressed> =
    ///     DurableStore::create(&dir, FmConfig { sample_rate: 8 }, options).unwrap();
    /// let corpus = (0..50u64).map(|id| (id, format!("durable bulk doc {id}").into_bytes()));
    /// let stats = store.ingest(corpus).unwrap();
    /// assert_eq!(stats.docs, 50);
    /// drop(store); // simulate a restart: the chunks live only in the WAL
    ///
    /// let restore_opts = RestoreOptions {
    ///     mode: RebuildMode::Inline,
    ///     maintenance: MaintenancePolicy::Manual,
    ///     ..RestoreOptions::default()
    /// };
    /// let store: DurableStore<FmIndexCompressed> = DurableStore::open(&dir, restore_opts).unwrap();
    /// assert_eq!(store.num_docs(), 50);
    /// assert_eq!(store.count(b"bulk doc 49"), 1);
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn ingest<D>(&self, docs: D) -> Result<IngestStats, PersistError>
    where
        D: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        self.ingest_with_chunk_symbols(docs, dyndex_core::bulk::DEFAULT_CHUNK_SYMBOLS)
    }

    /// [`DurableStore::ingest`] with an explicit chunk bound (bytes of
    /// routed documents per WAL record and bulk level, per shard; values
    /// below 1 are clamped to 1).
    pub fn ingest_with_chunk_symbols<D>(
        &self,
        docs: D,
        chunk_symbols: usize,
    ) -> Result<IngestStats, PersistError>
    where
        D: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        let started = Instant::now();
        let mut stats = IngestStats::default();
        for chunk in self.store.chunks(docs, chunk_symbols) {
            stats.add_chunk(chunk.docs.len(), chunk.bytes);
            self.log_and_apply(chunk.shard, ShardWrite::Bulk(chunk.docs))?;
        }
        stats.elapsed = started.elapsed();
        Ok(stats)
    }

    // ------------------------------------------------------------------
    // Durability control
    // ------------------------------------------------------------------

    /// Commits a new snapshot generation covering everything applied so
    /// far (re-serializing only changed levels — see the snapshot module
    /// docs), then truncates the logs it covers. Writers are held off
    /// via the WAL locks (which also makes the per-shard cut globally
    /// consistent), but readers keep querying throughout — shards freeze
    /// one at a time and serialization runs on the worker pool.
    pub fn snapshot(&self) -> Result<SnapshotStats, PersistError> {
        let started = Instant::now();
        let mut wals: Vec<MutexGuard<'_, WalWriter>> =
            (0..self.wals.len()).map(|s| self.wal(s)).collect();
        let seq = self.seq.load(Ordering::SeqCst);
        let stats = write_snapshot(&self.store, &self.dir, seq)?;
        for wal in wals.iter_mut() {
            wal.truncate()?;
        }
        self.snapshot_bytes
            .store(stats.bytes_on_disk, Ordering::Relaxed);
        self.store.record_snapshot_metrics(
            started.elapsed().as_nanos() as u64,
            stats.bytes_written,
            stats.bytes_reused,
        );
        Ok(stats)
    }

    /// fsyncs every log file (power-failure durability; plain appends
    /// already survive process crashes).
    pub fn sync_wal(&self) -> Result<(), PersistError> {
        for s in 0..self.wals.len() {
            self.wal(s).sync()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Delegated queries
    // ------------------------------------------------------------------

    /// See [`ShardedStore::count`].
    pub fn count(&self, pattern: &[u8]) -> usize {
        self.store.count(pattern)
    }

    /// See [`ShardedStore::find`].
    pub fn find(&self, pattern: &[u8]) -> Vec<Occurrence> {
        self.store.find(pattern)
    }

    /// See [`ShardedStore::find_limit`].
    pub fn find_limit(&self, pattern: &[u8], limit: usize) -> Vec<Occurrence> {
        self.store.find_limit(pattern, limit)
    }

    /// See [`ShardedStore::extract`].
    pub fn extract(&self, doc_id: u64, offset: usize, len: usize) -> Option<Vec<u8>> {
        self.store.extract(doc_id, offset, len)
    }

    /// See [`ShardedStore::contains`].
    pub fn contains(&self, doc_id: u64) -> bool {
        self.store.contains(doc_id)
    }

    /// See [`ShardedStore::num_docs`].
    pub fn num_docs(&self) -> usize {
        self.store.num_docs()
    }

    /// See [`ShardedStore::symbol_count`].
    pub fn symbol_count(&self) -> usize {
        self.store.symbol_count()
    }

    /// See [`ShardedStore::flush`].
    pub fn flush(&self) {
        self.store.flush();
    }

    /// Store census with [`StoreStats::snapshot_bytes`] filled in from
    /// the last committed snapshot and — when telemetry is enabled and
    /// fsyncs have been recorded — the WAL fsync p99.
    pub fn stats(&self) -> StoreStats {
        let mut stats = self.store.stats();
        stats.snapshot_bytes = Some(self.snapshot_bytes.load(Ordering::Relaxed));
        if let Some(registry) = self.store.metrics() {
            stats.wal_fsync_p99 = registry
                .find_histogram("dyndex_wal_fsync_duration")
                .map(|h| h.snapshot())
                .filter(|s| s.count() > 0)
                .map(|s| Duration::from_nanos(s.percentile(0.99)));
        }
        stats
    }

    /// See [`ShardedStore::metrics`]. The registry also carries the WAL
    /// series (`dyndex_wal_append_duration`, `dyndex_wal_fsync_duration`)
    /// and the snapshot series this layer records.
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.store.metrics()
    }

    /// See [`ShardedStore::render_metrics`].
    pub fn render_metrics(&self) -> Option<String> {
        self.store.render_metrics()
    }

    /// See [`ShardedStore::flight_spans`]. WAL appends and fsyncs show
    /// up here as `wal_append` / `wal_fsync` root spans.
    pub fn flight_spans(&self) -> Vec<dyndex_obs::Span> {
        self.store.flight_spans()
    }

    /// See [`ShardedStore::health`]. WAL I/O errors and slow fsyncs are
    /// folded into the report via the shared registry.
    pub fn health(&self) -> dyndex_obs::HealthReport {
        self.store.health()
    }
}

/// Why `write` cannot apply to `store`: an inserted id that is repeated
/// in the write or already present, or a deleted id that is absent. The
/// durable path panics with the reason before logging; replay reports it
/// as corruption.
pub(crate) fn check_write<I: StaticIndex + Sync>(
    store: &ShardedStore<I>,
    write: &ShardWrite,
) -> Result<(), String> {
    match write {
        ShardWrite::Insert(docs) | ShardWrite::Bulk(docs) => {
            let mut seen = HashSet::with_capacity(docs.len());
            for (id, _) in docs {
                if !seen.insert(*id) {
                    return Err(format!("document {id} duplicated in batch"));
                }
                if store.contains(*id) {
                    return Err(format!("document {id} already present"));
                }
            }
        }
        ShardWrite::Delete(ids) => {
            if let Some(id) = ids.iter().find(|&&id| !store.contains(id)) {
                return Err(format!("document {id} absent"));
            }
        }
    }
    Ok(())
}

impl<I> Drop for DurableStore<I>
where
    I: StaticIndex + Sync + Persist,
    I::Config: Persist,
{
    /// Best-effort close of every shard's log: under group-commit or
    /// snapshot-paced fsync policies, acknowledged records may still sit
    /// in the page cache — a cleanly dropped store must not leave them
    /// exposed to the next power failure. Errors are swallowed (callers
    /// wanting to observe the final sync use
    /// [`DurableStore::sync_wal`] before dropping).
    fn drop(&mut self) {
        for wal in &mut self.wals {
            let writer = wal
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = writer.close();
        }
    }
}
