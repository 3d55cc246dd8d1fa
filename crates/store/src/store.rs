//! [`ShardedStore`]: hash-routed shards of [`Transform2Index`], reads
//! answered on the calling thread from the shards' published views with
//! a deterministic merge, batched writes, and background maintenance on
//! a resident per-shard worker pool.

use crate::health::{HealthOptions, HealthState};
use crate::pool::WorkerPool;
use crate::shard::{ShardGuard, ShardSlot};
use crate::stats::{ShardStats, StoreStats};
use crate::telemetry::{StoreTelemetry, Telemetry};
use crate::write::{shard_for, WritePath};
use dyndex_core::transform2::FrozenSnapshot;
use dyndex_core::{DynOptions, RebuildMode, ShardView, StaticIndex, Transform2Index};
use dyndex_obs::{
    AdminResponse, AdminServer, FlightRecorder, HealthReport, MetricsRegistry, Span, SpanKind,
};
use dyndex_succinct::SpaceUsage;
use dyndex_text::Occurrence;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How background maintenance is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenancePolicy {
    /// No worker threads at all. Finished jobs install when a foreground
    /// operation touches the shard, or when the caller runs
    /// [`ShardedStore::maintain`] / [`ShardedStore::finish_background_work`].
    /// Bulk-ingest chunk builds and snapshot serialization run on the
    /// calling thread — the fully deterministic, zero-thread mode
    /// that tests build on.
    Manual,
    /// One resident worker per shard. Each worker runs that shard's
    /// queued jobs (bulk-ingest chunk builds, snapshot serialization)
    /// and, whenever this interval has elapsed since its last drain,
    /// installs finished rebuild jobs off the foreground path (busy
    /// shards are skipped via `try_write`, never contended). Reads never
    /// use the workers: they run on the calling thread either way.
    Periodic(Duration),
}

/// Tunables for a [`ShardedStore`].
///
/// # Examples
///
/// ```
/// use dyndex_store::{MaintenancePolicy, StoreOptions};
/// use std::time::Duration;
///
/// let options = StoreOptions {
///     num_shards: 8,
///     maintenance: MaintenancePolicy::Periodic(Duration::from_micros(500)),
///     ..StoreOptions::default()
/// };
/// assert_eq!(options.num_shards, 8);
/// ```
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Number of shards (≥ 1). More shards mean more write parallelism
    /// and smaller rebuilds, at O(num_shards) view visits per query.
    pub num_shards: usize,
    /// Options forwarded to every shard's [`Transform2Index`].
    pub index: DynOptions,
    /// Rebuild execution mode for every shard.
    pub mode: RebuildMode,
    /// Background maintenance driving policy (also decides whether the
    /// worker pool exists at all — see [`MaintenancePolicy`]).
    pub maintenance: MaintenancePolicy,
    /// Telemetry policy: record into a fresh registry (default), a
    /// shared one, or nothing at all — see [`Telemetry`].
    pub telemetry: Telemetry,
    /// Health-watchdog thresholds (stall/stuck detectors behind
    /// [`ShardedStore::health`] and the admin endpoint's `/health`) and
    /// the flight recorder's slow-op retention bound.
    pub health: HealthOptions,
    /// Bind address for the zero-dependency admin endpoint (e.g.
    /// `"127.0.0.1:9090"`, or port `0` to let the OS pick — read the
    /// result back via [`ShardedStore::admin_addr`]). `None` (the
    /// default) starts no listener and opens no socket.
    ///
    /// The endpoint serves `GET /metrics` (Prometheus-style text),
    /// `/health` (watchdog report; HTTP 503 when unhealthy), `/spans`
    /// (recent flight-recorder span trees), and `/slow` (retained
    /// slow-operation trees). Construction panics if the address cannot
    /// be bound — an explicitly requested admin endpoint that silently
    /// fails to listen would be worse than a loud startup failure.
    pub admin: Option<String>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            num_shards: 4,
            index: DynOptions::default(),
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Periodic(Duration::from_millis(1)),
            telemetry: Telemetry::default(),
            health: HealthOptions::default(),
            admin: None,
        }
    }
}

/// SplitMix64 — the document-id router. Sequential ids (the common
/// pattern) spread uniformly instead of striping.
pub(crate) fn route_hash(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A practically unique id (wall-clock nanos ⊕ pid ⊕ a process-global
/// counter, dispersed through SplitMix64). The persistence layer mints
/// one per snapshot commit and uses the store's recorded lineage to
/// decide whether incremental snapshots may reuse committed level
/// files — epoch counters from divergent histories must never be
/// compared.
pub fn fresh_uid() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    route_hash(nanos ^ ((std::process::id() as u64) << 32) ^ seq.wrapping_mul(0x9E37_79B9))
}

/// A sharded, concurrent document store over dynamic indexes.
///
/// All methods take `&self`, so a `ShardedStore` can be shared across
/// threads directly or behind an `Arc`. Each shard keeps its writer
/// state behind a write lock and *publishes* its read state as an
/// immutable [`ShardView`] behind a second lock held only for an `Arc`
/// clone or a swap: every query takes the current view that way and
/// never touches the shard's write lock, so readers do not wait on
/// writers (and keep answering even after a writer panic — see
/// [`ShardPoisoned`](crate::ShardPoisoned)).
/// Multi-shard queries visit the views one after the other on the
/// calling thread; the resident per-shard workers install background
/// rebuilds and run ingest builds and snapshot serialization, never
/// reads. See the crate docs for the layer's design
/// and `docs/ARCHITECTURE.md` (repo root) for the full stack
/// walk-through.
pub struct ShardedStore<I: StaticIndex + Sync> {
    pub(crate) shards: Arc<Vec<ShardSlot<I>>>,
    /// Resident workers; `None` under [`MaintenancePolicy::Manual`].
    pool: Option<WorkerPool<I>>,
    /// Whether a background snapshot currently has serialization work
    /// queued or running (set by the persistence layer; surfaced in
    /// [`StoreStats`]).
    snapshot_in_progress: AtomicBool,
    /// Snapshot lineage: the commit id of the last snapshot this
    /// store's state descends from — the one it last wrote, or the one
    /// it was restored from (see [`fresh_uid`]). A fresh store starts
    /// with a never-committed id, so its first snapshot into any
    /// directory is a full write.
    lineage: AtomicU64,
    /// Telemetry handles; `None` under [`Telemetry::Disabled`] — every
    /// instrumentation point is then one branch, no clock reads.
    pub(crate) telemetry: Option<Arc<StoreTelemetry>>,
    /// The health watchdog (always present; detectors read shared
    /// atomics, so a check never blocks on store state).
    health: Arc<HealthState<I>>,
    /// The admin listener, when [`StoreOptions::admin`] asked for one.
    /// Its handlers hold only `Arc`'d state (telemetry, watchdog), so
    /// drop order against the pool is immaterial; dropping the store
    /// joins the accept thread.
    admin: Option<AdminServer>,
    /// What every write shares: the level builder, telemetry and the
    /// ingest tally (see [`ShardedStore::apply`]).
    pub(crate) writes: Arc<WritePath<I>>,
}

/// Outcome of one [`ShardedStore::ingest`] call: how much was loaded and
/// how fast.
///
/// # Examples
///
/// ```
/// use dyndex_store::IngestStats;
/// use std::time::Duration;
///
/// let stats = IngestStats {
///     docs: 1000,
///     bytes: 4 << 20,
///     levels: 8,
///     elapsed: Duration::from_millis(500),
/// };
/// assert_eq!(stats.docs_per_sec(), 2000.0);
/// assert_eq!(stats.bytes_per_sec(), (8 << 20) as f64);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestStats {
    /// Documents built into bulk levels and installed.
    pub docs: u64,
    /// Raw document bytes ingested.
    pub bytes: u64,
    /// Bulk levels installed (one per chunk per shard).
    pub levels: u64,
    /// Wall-clock duration of the whole ingest call.
    pub elapsed: Duration,
}

impl IngestStats {
    /// Ingest throughput in documents per second (0.0 when the call took
    /// no measurable time).
    pub fn docs_per_sec(&self) -> f64 {
        self.per_sec(self.docs)
    }

    /// Ingest throughput in bytes per second (0.0 when the call took no
    /// measurable time).
    pub fn bytes_per_sec(&self) -> f64 {
        self.per_sec(self.bytes)
    }

    fn per_sec(&self, n: u64) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            n as f64 / secs
        } else {
            0.0
        }
    }

    /// Counts one chunk of `docs` documents and `bytes` bytes.
    pub fn add_chunk(&mut self, docs: usize, bytes: u64) {
        self.docs += docs as u64;
        self.bytes += bytes;
        self.levels += 1;
    }
}

impl<I: StaticIndex + Sync> ShardedStore<I> {
    /// Creates an empty store with `options.num_shards` shards, each an
    /// empty [`Transform2Index`] built from `config`.
    ///
    /// # Panics
    /// Panics if `options.num_shards` is zero.
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
    /// assert_eq!(store.num_shards(), 4);
    /// assert_eq!(store.worker_threads(), 4); // one resident worker per shard
    /// ```
    pub fn new(config: I::Config, options: StoreOptions) -> Self {
        assert!(options.num_shards >= 1, "store needs at least one shard");
        let indexes: Vec<Transform2Index<I>> = (0..options.num_shards)
            .map(|_| Transform2Index::new(config.clone(), options.index, options.mode))
            .collect();
        Self::with_shards(
            indexes,
            options.maintenance,
            &options.telemetry,
            options.health.clone(),
            options.admin.as_deref(),
        )
    }

    /// Wires shard indexes to their slots, telemetry, watchdog, admin
    /// endpoint, and (optional) worker pool — the single construction
    /// path shared by [`ShardedStore::new`] and
    /// [`ShardedStore::from_shard_indexes`]. Telemetry attaches *before*
    /// the initial views publish, so even construction-time freezes and
    /// rebuilds are recorded.
    fn with_shards(
        mut indexes: Vec<Transform2Index<I>>,
        maintenance: MaintenancePolicy,
        telemetry: &Telemetry,
        health_options: HealthOptions,
        admin_addr: Option<&str>,
    ) -> Self {
        assert!(!indexes.is_empty(), "store needs at least one shard");
        let telemetry = StoreTelemetry::from_policy(telemetry, indexes.len());
        let writes = Arc::new(WritePath {
            builder: indexes[0].level_builder(),
            telemetry: telemetry.clone(),
            ingested_docs: AtomicU64::new(0),
        });
        if let Some(t) = &telemetry {
            t.flight
                .set_slow_threshold(health_options.slow_op_threshold);
            for (shard, index) in indexes.iter_mut().enumerate() {
                index.set_metrics(Some(Arc::clone(&t.core)));
                index.set_metrics_shard(shard);
            }
        }
        let poison_events = telemetry
            .as_ref()
            .map(|t| Arc::clone(&t.shards_poisoned_events));
        let shards: Arc<Vec<ShardSlot<I>>> = Arc::new(
            indexes
                .into_iter()
                .enumerate()
                .map(|(shard, index)| ShardSlot::new(shard, index, poison_events.clone()))
                .collect(),
        );
        let pool = match maintenance {
            MaintenancePolicy::Manual => None,
            MaintenancePolicy::Periodic(tick) => Some(WorkerPool::spawn(Arc::clone(&shards), tick)),
        };
        let health = Arc::new(HealthState::new(
            Arc::clone(&shards),
            pool.as_ref().map_or_else(Vec::new, WorkerPool::gauges),
            health_options,
            telemetry.as_ref().map(|t| Arc::clone(&t.registry)),
        ));
        let admin = admin_addr.map(|addr| {
            Self::spawn_admin(addr, telemetry.clone(), Arc::clone(&health))
                .unwrap_or_else(|e| panic!("admin endpoint failed to bind {addr}: {e}"))
        });
        ShardedStore {
            shards,
            pool,
            snapshot_in_progress: AtomicBool::new(false),
            lineage: AtomicU64::new(fresh_uid()),
            telemetry,
            health,
            admin,
            writes,
        }
    }

    /// Binds the admin listener and wires its four routes. Handlers hold
    /// only `Arc`'d state, so a scrape never blocks on — and outlives —
    /// nothing in the store itself.
    fn spawn_admin(
        addr: &str,
        telemetry: Option<Arc<StoreTelemetry>>,
        health: Arc<HealthState<I>>,
    ) -> std::io::Result<AdminServer> {
        let disabled = || AdminResponse::with_status(404, "telemetry disabled\n");
        let metrics = telemetry.clone();
        let spans = telemetry.clone();
        let slow = telemetry;
        let routes: Vec<(String, dyndex_obs::AdminHandler)> = vec![
            (
                "/metrics".to_string(),
                Box::new(move || {
                    metrics.as_ref().map_or_else(disabled, |t| {
                        t.sync_exposition();
                        AdminResponse::text(t.registry.render_text())
                    })
                }),
            ),
            (
                "/health".to_string(),
                Box::new(move || {
                    let report = health.check();
                    let status = if report.status == dyndex_obs::HealthStatus::Unhealthy {
                        503
                    } else {
                        200
                    };
                    AdminResponse::with_status(status, format!("{report}\n"))
                }),
            ),
            (
                "/spans".to_string(),
                Box::new(move || {
                    spans
                        .as_ref()
                        .map_or_else(disabled, |t| AdminResponse::text(t.flight.render_spans()))
                }),
            ),
            (
                "/slow".to_string(),
                Box::new(move || {
                    slow.as_ref()
                        .map_or_else(disabled, |t| AdminResponse::text(t.flight.render_slow()))
                }),
            ),
        ];
        AdminServer::bind(addr, routes)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of resident worker threads (one per shard under
    /// [`MaintenancePolicy::Periodic`], zero under
    /// [`MaintenancePolicy::Manual`]).
    pub fn worker_threads(&self) -> usize {
        self.pool.as_ref().map_or(0, WorkerPool::len)
    }

    /// The shard `doc_id` routes to (stable for the store's lifetime).
    pub fn shard_of(&self, doc_id: u64) -> usize {
        shard_for(doc_id, self.shards.len())
    }

    /// Jobs currently waiting in `shard`'s worker queue (ingest chunk
    /// builds, snapshot serialization — never reads), counting the
    /// in-flight job as one. Zero when no pool exists
    /// ([`MaintenancePolicy::Manual`]) — with no queue there is nothing
    /// to back up behind. This is the live gauge the serving layer's
    /// write-shed decision reads; [`StoreStats`] reports the same numbers
    /// as a point-in-time census.
    pub fn shard_queue_depth(&self, shard: usize) -> usize {
        self.pool.as_ref().map_or(0, |p| {
            let (queued, busy) = p.shard_gauges(shard);
            queued + busy as usize
        })
    }

    /// The deepest worker queue across all shards (see
    /// [`ShardedStore::shard_queue_depth`]).
    pub fn max_queue_depth(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.shard_queue_depth(s))
            .max()
            .unwrap_or(0)
    }

    /// The shard's currently-published immutable [`ShardView`] — the
    /// whole read path: an `Arc` clone, never the shard's write lock.
    /// Public so callers can pin a consistent snapshot of one shard
    /// across several queries.
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
    /// store.insert(1, b"pin a consistent snapshot").unwrap();
    /// let view = store.shard_view(store.shard_of(1));
    /// store.delete(1).unwrap();
    /// assert_eq!(view.count(b"snapshot"), 1, "the pinned view is immutable");
    /// assert_eq!(store.count(b"snapshot"), 0, "fresh queries see the delete");
    /// ```
    pub fn shard_view(&self, shard: usize) -> Arc<ShardView<I>> {
        self.shards[shard].view()
    }

    /// The only read path, shared by [`ShardedStore::count`],
    /// [`ShardedStore::find`] and [`ShardedStore::find_limit`]: visits
    /// the shards in order **on the calling thread**, folding each
    /// published view's answer into `R` with `per_view` until it returns
    /// `false` (this shard and those after it were not needed), then
    /// `merge`s (returning the result count for the root span). A read
    /// takes no lock and enters no worker queue, so it proceeds while a
    /// writer holds — or has poisoned — a shard, and a panic inside
    /// `per_view` unwinds straight into the caller. With telemetry on,
    /// each visit records its `query_execute` stripe and a shard-execute
    /// flight span under the query's root.
    fn query_views<R: Default>(
        &self,
        kind: SpanKind,
        per_view: impl Fn(&ShardView<I>, &mut R) -> bool,
        merge: impl FnOnce(&mut R) -> usize,
    ) -> R {
        let mut out = R::default();
        let Some(t) = self.telemetry.as_deref() else {
            let _ = self.shards.iter().all(|s| per_view(&s.view(), &mut out));
            merge(&mut out);
            return out;
        };
        let root = t.flight.next_span_id();
        let start_nanos = t.flight.now_nanos();
        let (mut epoch_lo, mut epoch_hi) = (u64::MAX, 0);
        for (shard, slot) in self.shards.iter().enumerate() {
            let shard_start = t.flight.now_nanos();
            let view = slot.view();
            if !per_view(&view, &mut out) {
                break;
            }
            let execute_nanos = t.flight.now_nanos() - shard_start;
            t.query_execute.record_at(shard, execute_nanos);
            let epoch = view.epoch();
            epoch_lo = epoch_lo.min(epoch);
            epoch_hi = epoch_hi.max(epoch);
            t.flight.record_at(
                shard,
                Span {
                    shard: Some(shard),
                    start_nanos: shard_start,
                    duration_nanos: execute_nanos,
                    epoch_lo: epoch,
                    epoch_hi: epoch,
                    ..Span::child(root, SpanKind::ShardExecute)
                },
            );
        }
        let results = merge(&mut out);
        let total_nanos = t.flight.now_nanos() - start_nanos;
        t.query_duration.record(total_nanos);
        t.queries.inc();
        t.flight.finish_root(Span {
            start_nanos,
            duration_nanos: total_nanos,
            epoch_lo,
            epoch_hi,
            detail: results as u64,
            ..Span::root(root, kind)
        });
        out
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Whether `doc_id` is present, per the owning shard's published
    /// view (one shard, no lock; see [`ShardedStore::insert`] for an
    /// example).
    pub fn contains(&self, doc_id: u64) -> bool {
        self.shards[self.shard_of(doc_id)].view().contains(doc_id)
    }

    /// Alive documents across all shards (one view load per shard; see
    /// [`ShardedStore::insert_batch`] for an example).
    pub fn num_docs(&self) -> usize {
        self.shards.iter().map(|s| s.view().num_docs()).sum()
    }

    /// Alive bytes across all shards (cross-reference:
    /// [`ShardedStore::num_docs`]).
    pub fn symbol_count(&self) -> usize {
        self.shards.iter().map(|s| s.view().symbol_count()).sum()
    }

    /// Counts occurrences of `pattern`: the sum over every shard's
    /// published view, computed on the calling thread.
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
    /// store.insert_batch(&[(1, b"needle in shard".to_vec()), (2, b"another needle".to_vec())]).unwrap();
    /// assert_eq!(store.count(b"needle"), 2);
    /// assert_eq!(store.count(b"absent"), 0);
    /// ```
    pub fn count(&self, pattern: &[u8]) -> usize {
        self.query_views(
            SpanKind::Count,
            |view, total: &mut usize| {
                *total += view.count(pattern);
                true
            },
            |total| *total,
        )
    }

    /// All occurrences of `pattern`, gathered from every shard's view
    /// and merged deterministically: the result is sorted by
    /// `(doc, offset)`, so it is byte-identical to a sorted unsharded
    /// query over the same documents regardless of shard count.
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
    /// store.insert_batch(&[(1, b"ab ab".to_vec()), (2, b"ab".to_vec())]).unwrap();
    /// let hits = store.find(b"ab");
    /// assert_eq!(hits.len(), 3);
    /// assert!(hits.windows(2).all(|w| w[0] < w[1]), "sorted by (doc, offset)");
    /// ```
    pub fn find(&self, pattern: &[u8]) -> Vec<Occurrence> {
        self.query_views(
            SpanKind::Find,
            |view, hits: &mut Vec<Occurrence>| {
                hits.extend(view.find(pattern));
                true
            },
            |hits| {
                hits.sort_unstable();
                hits.len()
            },
        )
    }

    /// Any `min(limit, count)` distinct occurrences of `pattern`, sorted
    /// by `(doc, offset)`. **Which** ones is unspecified — not a prefix
    /// of [`ShardedStore::find`]: they are drawn shard by shard, each
    /// shard asked ([`Transform2Index::find_limit`]) only for the budget
    /// the shards before it left unspent and none once it is spent, so
    /// work is `O(shards visited · range-finding + limit · tlocate)`.
    /// Within a shard the choice follows its layout at query time:
    /// deterministic under [`RebuildMode::Inline`] with manual
    /// maintenance, varying with install timing under background
    /// rebuilds (`limit >= count` always returns everything).
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
    /// store.insert_batch(&[(1, b"xy xy xy".to_vec()), (2, b"xy".to_vec())]).unwrap();
    /// assert_eq!(store.find_limit(b"xy", 2).len(), 2);
    /// assert_eq!(store.find_limit(b"xy", 100).len(), 4); // limit >= count: everything
    /// ```
    pub fn find_limit(&self, pattern: &[u8], limit: usize) -> Vec<Occurrence> {
        self.query_views(
            SpanKind::FindLimit,
            |view, hits: &mut Vec<Occurrence>| {
                let unspent = limit - hits.len();
                hits.extend(view.find_limit(pattern, unspent));
                unspent > 0
            },
            |hits| {
                hits.sort_unstable();
                hits.len()
            },
        )
    }

    /// Extracts up to `len` bytes of a document from `offset` (per the
    /// owning shard's published view; one shard, no lock).
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
    /// store.insert(3, b"zero one two").unwrap();
    /// assert_eq!(store.extract(3, 5, 3).as_deref(), Some(b"one".as_slice()));
    /// assert_eq!(store.extract(4, 0, 3), None);
    /// ```
    pub fn extract(&self, doc_id: u64, offset: usize, len: usize) -> Option<Vec<u8>> {
        self.shards[self.shard_of(doc_id)]
            .view()
            .extract(doc_id, offset, len)
    }

    // ------------------------------------------------------------------
    // Maintenance & observability
    // ------------------------------------------------------------------

    /// Quiesce point. First drains the worker-pool job queues (every
    /// job submitted before `flush` began completes), then acquires
    /// every shard's write lock simultaneously (in shard order, so
    /// concurrent flushes cannot deadlock) — which waits out any
    /// in-flight writer batches — and installs all pending background
    /// rebuild work. After `flush` returns the store is settled: no
    /// queued jobs, no rebuilds in flight, no locked or temp structures.
    /// That is the state snapshots capture and the easiest state to
    /// assert against in tests.
    ///
    /// Unlike [`ShardedStore::finish_background_work`] (which visits
    /// shards one at a time), `flush` holds all shards at once, so no
    /// writer can slip a new job into an already-visited shard while a
    /// later one is still draining.
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
    /// store.insert_batch(&[(1, b"settle me".to_vec()), (2, b"me too".to_vec())]).unwrap();
    /// store.flush();
    /// assert_eq!(store.pending_background_jobs(), 0);
    /// ```
    pub fn flush(&self) {
        if let Some(pool) = &self.pool {
            pool.drain();
        }
        // Poisoned shards are skipped: their writer state is frozen at
        // the last published view and cannot be quiesced.
        let mut guards: Vec<ShardGuard<'_, I>> =
            self.shards.iter().filter_map(|s| s.write().ok()).collect();
        for guard in guards.iter_mut() {
            guard.finish_background_work();
        }
    }

    /// Acquires one shard's write lock (persistence-layer hook). The
    /// guard republishes the shard's view on drop.
    ///
    /// # Panics
    /// Panics if the shard is poisoned.
    #[doc(hidden)]
    pub fn lock_shard(&self, shard: usize) -> ShardGuard<'_, I> {
        self.shards[shard].write().expect("shard lock poisoned")
    }

    /// Quiesces one shard and clones its frozen decomposition — the
    /// background-snapshot hook. The shard's write lock is held only for
    /// the quiesce (finishing that shard's in-flight rebuilds) plus
    /// O(levels) `Arc` clones; every other shard keeps serving reads and
    /// writes throughout, and serialization of the returned snapshot
    /// happens entirely off-lock.
    #[doc(hidden)]
    pub fn freeze_shard(&self, shard: usize) -> FrozenSnapshot<I> {
        let mut guard = self.shards[shard].write().expect("shard lock poisoned");
        guard.finish_background_work();
        guard
            .freeze()
            .expect("finish_background_work leaves the shard quiesced")
    }

    /// Runs `f` as a job for `shard` (bulk-ingest chunks, snapshot
    /// serialization): queued on the shard's resident worker behind
    /// whatever it already has queued, or run on the caller when no pool
    /// exists ([`MaintenancePolicy::Manual`]). Returns whether `f` was
    /// queued (`false`: it already ran).
    #[doc(hidden)]
    pub fn submit_background_job(&self, shard: usize, f: Box<dyn FnOnce() + Send>) -> bool {
        match &self.pool {
            Some(pool) => {
                pool.submit(shard, Box::new(move |_slot| f()));
                true
            }
            None => {
                f();
                false
            }
        }
    }

    /// Flags a background snapshot as queued/running (persistence-layer
    /// hook; surfaced as [`StoreStats::snapshot_in_progress`]).
    #[doc(hidden)]
    pub fn set_snapshot_in_progress(&self, value: bool) {
        self.snapshot_in_progress.store(value, Ordering::Release);
    }

    /// Whether a background snapshot currently has serialization work
    /// queued or running on the worker pool.
    pub fn snapshot_in_progress(&self) -> bool {
        self.snapshot_in_progress.load(Ordering::Acquire)
    }

    /// The commit id of the snapshot this store's state descends from
    /// (persistence-layer hook: delta snapshots reuse level files only
    /// when the directory's committed snapshot matches this lineage —
    /// fork detection against diverged copies).
    #[doc(hidden)]
    pub fn snapshot_lineage(&self) -> u64 {
        self.lineage.load(Ordering::Relaxed)
    }

    /// Records the snapshot commit this store's state now descends from
    /// (persistence-layer hook: called after a successful snapshot
    /// commit and on restore), so the next snapshot into the same
    /// directory keeps reusing unchanged files.
    #[doc(hidden)]
    pub fn set_snapshot_lineage(&self, commit_uid: u64) {
        self.lineage.store(commit_uid, Ordering::Relaxed);
    }

    /// Wraps already-built shard indexes (the persistence layer's restore
    /// path), re-creating the worker pool per `maintenance`
    /// and publishing each shard's initial view — a restored store's
    /// read path answers from the restored state immediately.
    /// Passing [`Telemetry::Shared`] with the predecessor's registry
    /// makes the restored store keep recording into the same series.
    ///
    /// # Panics
    /// Panics if `indexes` is empty.
    #[doc(hidden)]
    pub fn from_shard_indexes(
        indexes: Vec<Transform2Index<I>>,
        maintenance: MaintenancePolicy,
        telemetry: &Telemetry,
    ) -> Self {
        Self::with_shards(
            indexes,
            maintenance,
            telemetry,
            HealthOptions::default(),
            None,
        )
    }

    /// Runs one manual maintenance pass: installs every finished
    /// background job in every shard (without blocking on unfinished
    /// ones). Returns the number of jobs still in flight. Cross-reference:
    /// [`ShardedStore::finish_background_work`] blocks until zero.
    pub fn maintain(&self) -> usize {
        self.shards
            .iter()
            .map(|slot| match slot.write() {
                Ok(mut guard) => guard.poll_background_work(),
                // Poisoned: nothing can install; report the last
                // published pending count.
                Err(_) => slot.view().pending_jobs(),
            })
            .sum()
    }

    /// Blocks until every shard's background work is installed (see
    /// [`ShardedStore::flush`] for the stronger all-shards-at-once
    /// quiesce, with an example).
    pub fn finish_background_work(&self) {
        for slot in self.shards.iter() {
            if let Ok(mut guard) = slot.write() {
                guard.finish_background_work();
            }
        }
    }

    /// Background jobs currently in flight across all shards
    /// (cross-reference: [`ShardedStore::flush`] drives this to zero).
    pub fn pending_background_jobs(&self) -> usize {
        self.shards.iter().map(|s| s.view().pending_jobs()).sum()
    }

    /// Rebuild jobs installed by the resident workers between jobs
    /// (0 under [`MaintenancePolicy::Manual`]) — how much install work
    /// stayed off the foreground path.
    pub fn pool_installs(&self) -> u64 {
        self.pool.as_ref().map_or(0, WorkerPool::installs)
    }

    /// Aggregated census: per-shard doc/symbol counts, pending-work and
    /// request-queue depth, worker busyness, and the full per-level
    /// structure breakdown.
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
    /// store.insert_batch(&[(1, b"census".to_vec()), (2, b"me".to_vec())]).unwrap();
    /// store.flush();
    /// let stats = store.stats();
    /// assert_eq!(stats.shards.len(), 4);
    /// assert_eq!(stats.total_docs(), 2);
    /// assert_eq!(stats.queued_requests(), 0); // settled after flush
    /// ```
    pub fn stats(&self) -> StoreStats {
        let pool = self.pool.as_ref();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, slot)| {
                // One pass per shard: a single view load carries the
                // whole index census, and the paired queue-depth/busy
                // gauges are read together from the pool handle — never
                // two separate lock acquisitions at different instants.
                let view = slot.view();
                let (queued_requests, worker_busy) =
                    pool.map_or((0, false), |p| p.shard_gauges(shard));
                ShardStats {
                    shard,
                    docs: view.num_docs(),
                    symbols: view.symbol_count(),
                    pending_jobs: view.pending_jobs(),
                    queued_requests,
                    worker_busy,
                    levels: view.structure_stats(),
                }
            })
            .collect();
        let query_p99 = self.telemetry.as_ref().and_then(|t| {
            let snap = t.query_duration.snapshot();
            (snap.count() > 0).then(|| Duration::from_nanos(snap.percentile(0.99)))
        });
        let ingest_docs_per_sec = self.telemetry.as_ref().and_then(|t| {
            let rate = t.ingest_docs_per_sec.get();
            (rate > 0).then_some(rate)
        });
        StoreStats {
            shards,
            snapshot_bytes: None,
            snapshot_in_progress: self.snapshot_in_progress(),
            query_p99,
            wal_fsync_p99: None,
            ingested_docs: self.writes.ingested_docs.load(Ordering::Relaxed),
            ingest_docs_per_sec,
        }
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// The registry this store records into, for custom metrics or
    /// direct handle access (`None` under [`Telemetry::Disabled`]).
    /// Restoring a snapshot with `Telemetry::Shared` of this registry
    /// keeps the series accumulating across the restart.
    ///
    /// # Examples
    ///
    /// ```
    /// use dyndex_core::FmConfig;
    /// use dyndex_store::{ShardedStore, StoreOptions, Telemetry};
    /// use dyndex_text::FmIndexCompressed;
    ///
    /// let store: ShardedStore<FmIndexCompressed> =
    ///     ShardedStore::new(FmConfig { sample_rate: 8 }, StoreOptions::default());
    /// store.insert(1, b"measured document").unwrap();
    /// store.count(b"measured");
    /// let registry = store.metrics().expect("telemetry defaults to enabled");
    /// let queries = registry.find_histogram("dyndex_store_query_duration").unwrap();
    /// assert_eq!(queries.snapshot().count(), 1);
    ///
    /// let silent: ShardedStore<FmIndexCompressed> = ShardedStore::new(
    ///     FmConfig { sample_rate: 8 },
    ///     StoreOptions { telemetry: Telemetry::Disabled, ..StoreOptions::default() },
    /// );
    /// assert!(silent.metrics().is_none());
    /// ```
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.telemetry.as_ref().map(|t| Arc::clone(&t.registry))
    }

    /// Prometheus-style text exposition of every metric (refreshing the
    /// epoch-reclamation gauges first); `None` under
    /// [`Telemetry::Disabled`].
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
    /// store.insert(1, b"exposed").unwrap();
    /// let text = store.render_metrics().unwrap();
    /// assert!(text.contains("dyndex_store_docs_inserted 1"));
    /// assert!(text.contains("# TYPE dyndex_store_insert_duration summary"));
    /// ```
    pub fn render_metrics(&self) -> Option<String> {
        self.telemetry.as_ref().map(|t| {
            t.sync_exposition();
            t.registry.render_text()
        })
    }

    /// Runs the health watchdog's detectors right now and folds the
    /// findings into a typed report — the same check the admin
    /// endpoint's `/health` route serves. Detectors read shared atomics
    /// (and one metric-registry lookup); a check never takes a shard
    /// lock, so it stays answerable while something is stuck.
    ///
    /// # Examples
    ///
    /// ```
    /// use dyndex_core::FmConfig;
    /// use dyndex_store::{HealthStatus, ShardedStore, StoreOptions};
    /// use dyndex_text::FmIndexCompressed;
    ///
    /// let store: ShardedStore<FmIndexCompressed> =
    ///     ShardedStore::new(FmConfig { sample_rate: 8 }, StoreOptions::default());
    /// let report = store.health();
    /// assert_eq!(report.status, HealthStatus::Ok);
    /// assert_eq!(report.to_string(), "ok");
    /// ```
    pub fn health(&self) -> HealthReport {
        self.health.check()
    }

    /// The address the admin endpoint actually listens on (`None` when
    /// [`StoreOptions::admin`] was `None`). With port `0` in the
    /// requested address, this is how the OS-picked port is read back.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(AdminServer::addr)
    }

    /// The store's flight recorder (`None` under
    /// [`Telemetry::Disabled`]) — direct access to recent span trees,
    /// the slow-op log, and the recorder's clock.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.telemetry.as_ref().map(|t| Arc::clone(&t.flight))
    }

    /// Recent flight-recorder spans (roots and children, sorted by start
    /// time), empty under [`Telemetry::Disabled`]. The rendered form —
    /// what the admin endpoint's `/spans` serves — is
    /// [`FlightRecorder::render_spans`].
    ///
    /// # Examples
    ///
    /// ```
    /// use dyndex_core::FmConfig;
    /// use dyndex_store::{ShardedStore, SpanKind, StoreOptions};
    /// use dyndex_text::FmIndexCompressed;
    ///
    /// let store: ShardedStore<FmIndexCompressed> =
    ///     ShardedStore::new(FmConfig { sample_rate: 8 }, StoreOptions::default());
    /// store.insert(1, b"flight recorded").unwrap();
    /// store.count(b"recorded");
    /// let spans = store.flight_spans();
    /// assert!(spans.iter().any(|s| s.kind == SpanKind::Count && s.parent == 0));
    /// assert!(spans.iter().any(|s| s.kind == SpanKind::ShardExecute));
    /// ```
    pub fn flight_spans(&self) -> Vec<Span> {
        self.telemetry
            .as_ref()
            .map_or_else(Vec::new, |t| t.flight.recent())
    }

    /// Records one finished snapshot generation (persistence-layer hook):
    /// wall-clock duration plus bytes newly written vs reused from the
    /// previous generation. No-op under [`Telemetry::Disabled`].
    #[doc(hidden)]
    pub fn record_snapshot_metrics(&self, nanos: u64, bytes_written: u64, bytes_reused: u64) {
        if let Some(t) = &self.telemetry {
            t.snapshot_duration.record(nanos);
            t.snapshot_bytes_written.add(bytes_written);
            t.snapshot_bytes_reused.add(bytes_reused);
        }
    }
}

impl<I: StaticIndex + Sync> SpaceUsage for ShardedStore<I> {
    fn heap_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.view().heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndex_core::{FmConfig, NaiveIndex};
    use dyndex_text::FmIndexCompressed;
    use std::sync::atomic::{AtomicBool, Ordering};

    type Store = ShardedStore<FmIndexCompressed>;

    fn small_opts(num_shards: usize, mode: RebuildMode) -> StoreOptions {
        StoreOptions {
            num_shards,
            index: DynOptions {
                min_capacity: 32,
                tau: 4,
                ..DynOptions::default()
            },
            mode,
            maintenance: MaintenancePolicy::Manual,
            telemetry: Telemetry::default(),
            health: HealthOptions::default(),
            admin: None,
        }
    }

    fn pooled_opts(num_shards: usize, mode: RebuildMode) -> StoreOptions {
        StoreOptions {
            maintenance: MaintenancePolicy::Periodic(Duration::from_micros(200)),
            ..small_opts(num_shards, mode)
        }
    }

    fn fm() -> FmConfig {
        FmConfig { sample_rate: 4 }
    }

    fn docs(n: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let doc = format!(
                    "document {i} shared needle {}",
                    "pad".repeat(i as usize % 5)
                );
                (i, doc.into_bytes())
            })
            .collect()
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let store = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        for id in 0..1000u64 {
            let s = store.shard_of(id);
            assert!(s < 4);
            assert_eq!(s, store.shard_of(id), "routing must be stable");
        }
        // SplitMix64 routing must actually spread sequential ids.
        let mut hit = [false; 4];
        for id in 0..64u64 {
            hit[store.shard_of(id)] = true;
        }
        assert!(hit.iter().all(|&h| h), "all shards reachable: {hit:?}");
    }

    #[test]
    fn matches_naive_reference() {
        let store = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        assert_eq!(store.worker_threads(), 0, "Manual spawns no workers");
        let mut naive = NaiveIndex::new();
        for (id, d) in docs(40) {
            store.insert(id, &d).unwrap();
            naive.insert(id, &d);
        }
        for pattern in [b"needle".as_slice(), b"document 1", b"pad", b"absent"] {
            assert_eq!(store.count(pattern), naive.count(pattern));
            // NaiveIndex::find returns sorted occurrences; the store's
            // deterministic merge must agree exactly.
            assert_eq!(store.find(pattern), naive.find(pattern));
        }
        assert_eq!(store.num_docs(), 40);
        assert!(store.contains(7));
        assert_eq!(store.delete(7).unwrap(), naive.delete(7));
        assert!(!store.contains(7));
        assert_eq!(store.find(b"needle"), naive.find(b"needle"));
        assert_eq!(store.delete(7).unwrap(), None);
    }

    #[test]
    fn pooled_fan_out_matches_naive_reference() {
        // Same answers with the resident workers ticking beside the reads.
        let store = Store::new(fm(), pooled_opts(4, RebuildMode::Inline));
        assert_eq!(store.worker_threads(), 4);
        let mut naive = NaiveIndex::new();
        for (id, d) in docs(40) {
            store.insert(id, &d).unwrap();
            naive.insert(id, &d);
        }
        for pattern in [b"needle".as_slice(), b"document 1", b"pad", b"absent"] {
            assert_eq!(store.count(pattern), naive.count(pattern));
            assert_eq!(store.find(pattern), naive.find(pattern));
        }
        assert_eq!(store.delete(7).unwrap(), naive.delete(7));
        assert_eq!(store.find(b"needle"), naive.find(b"needle"));
    }

    #[test]
    fn batches_match_singles() {
        let batch = docs(60);
        let batched = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        batched.insert_batch(&batch).unwrap();
        let single = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        for (id, d) in &batch {
            single.insert(*id, d).unwrap();
        }
        assert_eq!(batched.num_docs(), single.num_docs());
        assert_eq!(batched.symbol_count(), single.symbol_count());
        assert_eq!(batched.find(b"needle"), single.find(b"needle"));

        let ids: Vec<u64> = (0..30).chain(100..110).collect();
        assert_eq!(batched.delete_batch(&ids).unwrap(), 30, "10 ids are absent");
        for id in 0..30u64 {
            single.delete(id).unwrap();
        }
        assert_eq!(batched.find(b"needle"), single.find(b"needle"));
        assert_eq!(batched.num_docs(), 30);
    }

    #[test]
    fn find_limit_caps_and_sorts() {
        let store = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        store.insert_batch(&docs(50)).unwrap();
        let all = store.find(b"needle");
        assert_eq!(all.len(), 50);
        let per_shard: Vec<usize> = (0..4)
            .map(|s| store.shard_view(s).count(b"needle"))
            .collect();
        for k in [0usize, 1, 13, 49, 50, 51, 200] {
            let capped = store.find_limit(b"needle", k);
            assert_eq!(capped.len(), k.min(50), "limit {k}");
            assert!(
                capped.windows(2).all(|w| w[0] < w[1]),
                "sorted and distinct, limit {k}"
            );
            for occ in &capped {
                assert!(all.contains(occ), "phantom occurrence at limit {k}");
            }
            // The budget is shared: shards are visited in order, only
            // until the ones before have spent it.
            let mut unspent = k;
            let visited: Vec<usize> = (0..4)
                .take_while(|&s| {
                    let visit = unspent > 0;
                    unspent = unspent.saturating_sub(per_shard[s]);
                    visit
                })
                .collect();
            let spans = store.flight_spans();
            let root = spans
                .iter()
                .rfind(|s| s.kind == SpanKind::FindLimit)
                .expect("telemetry on by default");
            assert_eq!(root.detail, capped.len() as u64, "limit {k}");
            let executed: Vec<usize> = spans
                .iter()
                .filter(|s| s.parent == root.id && s.kind == SpanKind::ShardExecute)
                .map(|s| s.shard.expect("execute spans carry their shard"))
                .collect();
            assert_eq!(executed, visited, "shards visited at limit {k}");
        }
    }

    #[test]
    fn extract_routes_to_owning_shard() {
        let store = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        store.insert(9, b"zero one two three").unwrap();
        assert_eq!(store.extract(9, 5, 3).as_deref(), Some(b"one".as_slice()));
        assert_eq!(store.extract(10, 0, 4), None);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let store = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        let batch = docs(80);
        let symbols: usize = batch.iter().map(|(_, d)| d.len()).sum();
        store.insert_batch(&batch).unwrap();
        store.finish_background_work();
        let stats = store.stats();
        assert_eq!(stats.shards.len(), 4);
        assert_eq!(stats.total_docs(), 80);
        assert_eq!(stats.total_symbols(), symbols);
        assert_eq!(stats.pending_jobs(), 0);
        assert_eq!(stats.queued_requests(), 0, "no pool under Manual");
        assert_eq!(stats.busy_workers(), 0);
        assert!(stats.shards.iter().all(|s| !s.levels.is_empty()));
        assert!(stats.imbalance() >= 1.0);
    }

    #[test]
    fn manual_maintenance_drains_background_jobs() {
        let store = Store::new(fm(), small_opts(3, RebuildMode::Background));
        store.insert_batch(&docs(120)).unwrap();
        // Drain without foreground operations: poll until all installs
        // land (bounded; background builds are small and finish quickly).
        let mut pending = store.maintain();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pending > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            pending = store.maintain();
        }
        assert_eq!(pending, 0, "maintenance must drain all jobs");
        assert_eq!(store.pending_background_jobs(), 0);
        assert_eq!(store.count(b"needle"), 120);
    }

    #[test]
    fn workers_drain_rebuilds_without_foreground_ops() {
        let store = Store::new(fm(), pooled_opts(4, RebuildMode::Background));
        store.insert_batch(&docs(150)).unwrap();
        // No foreground operations from here on: only the workers'
        // between-request maintenance can install the in-flight rebuilds.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while store.pending_background_jobs() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(store.pending_background_jobs(), 0, "workers must drain");
        assert!(store.pool_installs() > 0, "installs attributed to the pool");
        assert_eq!(store.count(b"needle"), 150);
        assert_eq!(store.find(b"needle").len(), 150);
    }

    #[test]
    fn idle_ticks_do_not_republish_views() {
        let opts = StoreOptions {
            maintenance: MaintenancePolicy::Periodic(Duration::from_micros(100)),
            ..small_opts(2, RebuildMode::Background)
        };
        let store = Store::new(fm(), opts);
        store.insert_batch(&docs(100)).unwrap();
        store.flush();
        let epochs = || {
            (0..2)
                .map(|s| store.shard_view(s).epoch())
                .collect::<Vec<_>>()
        };
        let settled = epochs();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(epochs(), settled, "no job in flight, nothing to publish");
    }

    #[test]
    fn single_shard_store_works() {
        let store = Store::new(fm(), small_opts(1, RebuildMode::Inline));
        store.insert_batch(&docs(10)).unwrap();
        assert_eq!(store.num_shards(), 1);
        assert_eq!(store.count(b"needle"), 10);
        assert_eq!(store.find(b"needle").len(), 10);
    }

    #[test]
    fn flush_settles_everything() {
        let store = Store::new(fm(), small_opts(3, RebuildMode::Background));
        store.insert_batch(&docs(100)).unwrap();
        store.flush();
        assert_eq!(store.pending_background_jobs(), 0, "flush drains all jobs");
        assert_eq!(store.count(b"needle"), 100);
        // Flushing an already-settled (or empty) store is a no-op.
        store.flush();
        let empty = Store::new(fm(), small_opts(2, RebuildMode::Inline));
        empty.flush();
        assert_eq!(empty.num_docs(), 0);
    }

    #[test]
    fn flush_waits_for_queued_requests() {
        // Regression for the "all-shards quiesce" contract: a request
        // already sitting in a worker's queue when flush() starts must
        // complete before flush() returns.
        let store = Store::new(fm(), pooled_opts(2, RebuildMode::Inline));
        store.insert_batch(&docs(10)).unwrap();
        let ran = Arc::new(AtomicBool::new(false));
        let t0 = std::time::Instant::now();
        for shard in 0..store.num_shards() {
            let ran = Arc::clone(&ran);
            store.pool.as_ref().expect("pooled store").submit(
                shard,
                Box::new(move |_slot| {
                    std::thread::sleep(Duration::from_millis(25));
                    ran.store(true, Ordering::Release);
                }),
            );
        }
        store.flush();
        assert!(
            ran.load(Ordering::Acquire),
            "flush returned before the queued request completed"
        );
        // Every sleep job started after t0 and the flush barrier queues
        // behind it, so flush cannot return earlier than t0 + 25ms.
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(store.stats().queued_requests(), 0);
    }

    #[test]
    fn from_shard_indexes_rewraps_prebuilt_shards() {
        let store = Store::new(fm(), small_opts(2, RebuildMode::Inline));
        store.insert_batch(&docs(20)).unwrap();
        store.flush();
        let want = store.find(b"needle");
        let mut guards: Vec<_> = (0..store.num_shards())
            .map(|s| store.lock_shard(s))
            .collect();
        let indexes: Vec<_> = guards
            .iter_mut()
            .map(|g| {
                std::mem::replace(
                    &mut **g,
                    Transform2Index::new(fm(), DynOptions::default(), RebuildMode::Inline),
                )
            })
            .collect();
        drop(guards);
        let rebuilt = Store::from_shard_indexes(
            indexes,
            MaintenancePolicy::Periodic(Duration::from_micros(200)),
            &Telemetry::default(),
        );
        assert_eq!(rebuilt.num_shards(), 2);
        assert_eq!(rebuilt.worker_threads(), 2, "pool re-created");
        assert_eq!(rebuilt.find(b"needle"), want);
        assert_eq!(store.num_docs(), 0, "shards were moved out");
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut opts = small_opts(2, RebuildMode::Inline);
        opts.telemetry = Telemetry::Disabled;
        let store = Store::new(fm(), opts);
        store.insert_batch(&docs(10)).unwrap();
        assert_eq!(store.count(b"needle"), 10);
        assert!(store.metrics().is_none());
        assert!(store.render_metrics().is_none());
        assert!(store.flight_spans().is_empty());
        assert!(store.stats().query_p99.is_none());
    }

    #[test]
    fn queries_record_metrics_and_spans() {
        let store = Store::new(fm(), pooled_opts(4, RebuildMode::Inline));
        store.insert_batch(&docs(40)).unwrap();
        assert_eq!(store.count(b"needle"), 40);
        assert_eq!(store.find(b"document 7 ").len(), 1);

        let registry = store.metrics().expect("telemetry on by default");
        let queries = registry.counter("dyndex_store_queries", "", dyndex_obs::Unit::Count);
        assert_eq!(queries.get(), 2);
        let inserted = registry.counter("dyndex_store_docs_inserted", "", dyndex_obs::Unit::Count);
        assert_eq!(inserted.get(), 40);
        let duration = registry
            .find_histogram("dyndex_store_query_duration")
            .expect("registered at construction");
        assert_eq!(duration.snapshot().count(), 2);

        let spans = store.flight_spans();
        let roots: Vec<&Span> = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Count | SpanKind::Find))
            .collect();
        assert_eq!(roots.len(), 2, "one root span per query");
        assert!(roots.iter().all(|s| s.epoch_lo >= 1), "views published");
        assert_eq!(roots[0].kind, SpanKind::Count);
        assert_eq!(roots[1].kind, SpanKind::Find);
        assert_eq!(roots[1].detail, 1, "result count rides in detail");
        for root in roots {
            let children = spans.iter().filter(|s| s.parent == root.id);
            assert_eq!(children.count(), 4, "one execute child per shard");
        }

        let stats = store.stats();
        assert!(stats.query_p99.is_some(), "p99 fed from the histogram");
        let text = store.render_metrics().expect("telemetry on");
        assert!(text.contains("dyndex_store_queries 2"), "{text}");
    }

    #[test]
    fn shared_registry_accumulates_across_stores() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut opts = small_opts(2, RebuildMode::Inline);
        opts.telemetry = Telemetry::Shared(Arc::clone(&registry));
        let first = Store::new(fm(), opts.clone());
        first.insert(1, b"one doc").unwrap();
        drop(first);
        let second = Store::new(fm(), opts);
        second.insert(2, b"two doc").unwrap();
        let inserted = registry.counter("dyndex_store_docs_inserted", "", dyndex_obs::Unit::Count);
        assert_eq!(inserted.get(), 2, "both stores fed the same series");
    }

    #[test]
    fn poisoned_writes_are_counted() {
        let store = Store::new(fm(), small_opts(1, RebuildMode::Inline));
        store.insert(1, b"first").unwrap();
        // A panic inside the writer poisons the single shard.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = store.insert(1, b"duplicate");
        }));
        assert!(panicked.is_err());
        assert!(store.insert(2, b"rejected").is_err(), "shard is poisoned");
        let registry = store.metrics().expect("telemetry on by default");
        let poisoned = registry.counter("dyndex_store_shard_poisoned", "", dyndex_obs::Unit::Count);
        assert_eq!(poisoned.get(), 1);
    }

    #[test]
    fn ingest_matches_insert_at_a_time() {
        let bulk = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        let serial = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        let batch = docs(60);
        serial.insert_batch(&batch).unwrap();
        let stats = bulk.ingest_with_chunk_symbols(batch.clone(), 200).unwrap();
        assert_eq!(stats.docs, 60);
        assert_eq!(
            stats.bytes,
            batch.iter().map(|(_, d)| d.len() as u64).sum::<u64>()
        );
        assert!(stats.levels >= 4, "60 docs over 200-byte chunks: {stats:?}");
        assert_eq!(bulk.num_docs(), serial.num_docs());
        for pattern in [b"needle".as_slice(), b"document 1", b"pad", b"absent"] {
            assert_eq!(bulk.count(pattern), serial.count(pattern));
            assert_eq!(bulk.find(pattern), serial.find(pattern));
        }
        // Deletes treat bulk levels like any other structure.
        assert_eq!(bulk.delete(7).unwrap(), serial.delete(7).unwrap());
        assert_eq!(bulk.find(b"needle"), serial.find(b"needle"));
        assert_eq!(bulk.stats().ingested_docs, 60);
        assert_eq!(serial.stats().ingested_docs, 0);
    }

    #[test]
    fn pooled_ingest_matches_serial() {
        let bulk = Store::new(fm(), pooled_opts(4, RebuildMode::Inline));
        let serial = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        let batch = docs(80);
        serial.insert_batch(&batch).unwrap();
        let stats = bulk.ingest_with_chunk_symbols(batch, 150).unwrap();
        assert_eq!(stats.docs, 80);
        bulk.flush();
        for pattern in [b"needle".as_slice(), b"document 1", b"pad", b"absent"] {
            assert_eq!(bulk.count(pattern), serial.count(pattern));
            assert_eq!(bulk.find(pattern), serial.find(pattern));
        }
    }

    #[test]
    fn ingest_empty_stream_is_a_noop() {
        let store = Store::new(fm(), small_opts(2, RebuildMode::Inline));
        let stats = store.ingest(Vec::new()).unwrap();
        assert_eq!(stats.docs, 0);
        assert_eq!(stats.levels, 0);
        assert_eq!(store.num_docs(), 0);
        assert_eq!(store.stats().ingested_docs, 0);
    }

    #[test]
    fn ingest_records_telemetry() {
        let store = Store::new(fm(), pooled_opts(2, RebuildMode::Inline));
        store.ingest_with_chunk_symbols(docs(40), 200).unwrap();
        store.flush();
        let registry = store.metrics().expect("telemetry on by default");
        let ingested = registry.counter("dyndex_ingest_docs_total", "", dyndex_obs::Unit::Count);
        assert_eq!(ingested.get(), 40);
        let build = registry
            .find_histogram("dyndex_ingest_build_duration")
            .expect("registered at construction");
        assert!(build.snapshot().count() > 0, "chunk builds recorded");
        let install = registry
            .find_histogram("dyndex_ingest_install_duration")
            .expect("registered at construction");
        assert_eq!(
            install.snapshot().count(),
            build.snapshot().count(),
            "every built chunk was installed"
        );
        let route = registry
            .find_histogram("dyndex_ingest_route_duration")
            .expect("registered at construction");
        assert_eq!(route.snapshot().count(), 1, "one observation per call");
        let stats = store.stats();
        assert_eq!(stats.ingested_docs, 40);
        assert!(stats.ingest_docs_per_sec.is_some());
        assert!(stats.to_string().contains("40 ingested"), "{stats}");
        // Bulk installs leave flight-recorder spans.
        let spans = store.flight_spans();
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::BulkBuild),
            "bulk_build spans recorded"
        );
    }

    #[test]
    fn queries_answer_from_views_during_ingest() {
        // A pinned pre-ingest view never sees bulk levels; fresh queries
        // see each chunk as its shard's view republishes.
        let store = Store::new(fm(), small_opts(2, RebuildMode::Inline));
        store.insert(100_000, b"resident needle").unwrap();
        let views: Vec<_> = (0..store.num_shards())
            .map(|s| store.shard_view(s))
            .collect();
        store.ingest_with_chunk_symbols(docs(30), 100).unwrap();
        let pinned: usize = views.iter().map(|v| v.count(b"needle")).sum();
        assert_eq!(pinned, 1, "pinned views predate the ingest");
        assert_eq!(store.count(b"needle"), 31, "fresh queries see everything");
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn ingest_duplicate_id_panics() {
        let store = Store::new(fm(), small_opts(2, RebuildMode::Inline));
        store.insert(5, b"already here").unwrap();
        let _ = store.ingest(vec![(5, b"duplicate".to_vec())]);
    }

    #[test]
    fn bulk_load_shard_routes_one_chunk() {
        let store = Store::new(fm(), small_opts(4, RebuildMode::Inline));
        let mut group: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut shard = 0;
        for (id, bytes) in docs(40) {
            if group.is_empty() {
                shard = store.shard_of(id);
            }
            if store.shard_of(id) == shard {
                group.push((id, bytes));
            }
        }
        let expect = group.len();
        store.bulk_load_shard(shard, &group).unwrap();
        assert_eq!(store.num_docs(), expect);
        assert_eq!(store.count(b"needle"), expect);
        assert_eq!(store.stats().ingested_docs, expect as u64);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_insert_panics() {
        let store = Store::new(fm(), small_opts(2, RebuildMode::Inline));
        store.insert(1, b"first").unwrap();
        let _ = store.insert(1, b"second");
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_insert_panics_with_pool_running() {
        let store = Store::new(fm(), pooled_opts(2, RebuildMode::Inline));
        store.insert(1, b"first").unwrap();
        let _ = store.insert(1, b"second");
    }
}
