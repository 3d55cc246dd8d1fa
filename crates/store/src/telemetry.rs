//! Store-layer telemetry wiring: the public [`Telemetry`] policy and the
//! internal [`StoreTelemetry`] handle bundle every instrumented path
//! records through.
//!
//! The design rule is *one branch when disabled*: a store built with
//! [`Telemetry::Disabled`] holds `None` and every instrumentation point is
//! a single `Option` test — no clock reads, no atomics, no allocation.
//! [`Telemetry::Shared`] points a store at an existing registry;
//! registration is get-or-create by name, so a store restored from disk
//! into its predecessor's registry keeps accumulating into the same
//! series.

use std::sync::{Arc, Mutex};

use dyndex_core::CoreMetrics;
use dyndex_obs::{Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, Unit};

/// How many spans the per-store [`FlightRecorder`] ring retains across
/// its stripes.
const FLIGHT_CAPACITY: usize = 2048;

/// Telemetry policy for a store (field of
/// [`StoreOptions`](crate::StoreOptions) and of `dyndex-persist`'s
/// `RestoreOptions`).
///
/// # Examples
///
/// ```
/// use dyndex_obs::MetricsRegistry;
/// use dyndex_store::Telemetry;
/// use std::sync::Arc;
///
/// let registry = Arc::new(MetricsRegistry::new());
/// let policy = Telemetry::Shared(Arc::clone(&registry));
/// assert!(!matches!(policy, Telemetry::Disabled));
/// assert!(matches!(Telemetry::default(), Telemetry::Enabled));
/// ```
#[derive(Clone, Debug, Default)]
pub enum Telemetry {
    /// Record into a fresh private [`MetricsRegistry`] (the default; the
    /// `fig7_observability` bench puts the overhead under 2%).
    #[default]
    Enabled,
    /// Record into an existing registry. Metric names are get-or-create,
    /// so several stores — or a store and its restored successor — can
    /// share one registry and accumulate into the same series.
    Shared(Arc<MetricsRegistry>),
    /// Record nothing. Instrumentation points collapse to one branch
    /// (the `Recorder` no-op default, in `dyndex-obs` terms): no clock
    /// reads, no atomic traffic.
    Disabled,
}

/// Every handle the store records through, bound once at construction.
/// Shared (`Arc`) with the ingest job closures so pool workers record
/// per-shard build latencies themselves, on their own histogram stripes.
#[derive(Debug)]
pub(crate) struct StoreTelemetry {
    pub registry: Arc<MetricsRegistry>,
    /// Per-shard execution time against the published view (striped by
    /// shard).
    pub query_execute: Arc<Histogram>,
    /// End-to-end query latency (every shard's view + merge).
    pub query_duration: Arc<Histogram>,
    /// Queries served (all kinds).
    pub queries: Arc<Counter>,
    /// Insert latency: one observation per `insert` call and per
    /// `insert_batch` call (whole batch).
    pub insert_duration: Arc<Histogram>,
    /// Delete latency, same shape as inserts.
    pub delete_duration: Arc<Histogram>,
    pub docs_inserted: Arc<Counter>,
    pub docs_deleted: Arc<Counter>,
    /// Time spent routing + chunk-cutting a bulk-ingest stream (one
    /// observation per `ingest` call; excludes build/install waits).
    pub ingest_route: Arc<Histogram>,
    /// Per-shard SA-IS build time of one bulk-ingested chunk.
    pub ingest_build: Arc<Histogram>,
    /// Per-shard install time of one bulk-built level (lock hold + view
    /// republish).
    pub ingest_install: Arc<Histogram>,
    /// Documents loaded through the bulk-ingest fast path.
    pub docs_ingested: Arc<Counter>,
    /// Throughput of the most recent `ingest` call, in docs/second.
    pub ingest_docs_per_sec: Arc<Gauge>,
    /// Writes refused because the target shard's writer panicked.
    pub shard_poisoned: Arc<Counter>,
    /// Wall-clock duration of each snapshot generation.
    pub snapshot_duration: Arc<Histogram>,
    pub snapshot_bytes_written: Arc<Counter>,
    pub snapshot_bytes_reused: Arc<Counter>,
    /// Retired views not yet reclaimed (process-global, point-in-time).
    pub epoch_garbage: Arc<Gauge>,
    /// Reclamation passes run (process-global, cumulative).
    pub epoch_passes: Arc<Gauge>,
    /// The always-on flight recorder: hierarchical spans for queries and
    /// every kind of background work, shard-striped.
    pub flight: Arc<FlightRecorder>,
    /// Spans recorded by the flight recorder, mirrored for exposition.
    pub flight_recorded: Arc<Counter>,
    /// Poisoning *events* (one per writer panic that poisons a shard) —
    /// distinct from `shard_poisoned`, which counts refused writes.
    pub shards_poisoned_events: Arc<Counter>,
    /// Handles the shard indexes record rebuild/install/freeze events to.
    pub core: Arc<CoreMetrics>,
    /// Serializes the delta-adds in [`StoreTelemetry::sync_exposition`].
    sync_gate: Mutex<()>,
}

impl StoreTelemetry {
    /// Resolves a [`Telemetry`] policy into handles (or `None` for
    /// [`Telemetry::Disabled`]). `shards` sizes histogram striping.
    pub(crate) fn from_policy(policy: &Telemetry, shards: usize) -> Option<Arc<Self>> {
        let registry = match policy {
            Telemetry::Enabled => Arc::new(MetricsRegistry::new()),
            Telemetry::Shared(registry) => Arc::clone(registry),
            Telemetry::Disabled => return None,
        };
        Some(Arc::new(Self::bind(registry, shards)))
    }

    fn bind(registry: Arc<MetricsRegistry>, shards: usize) -> Self {
        let h = |name: &str, help: &str| registry.histogram(name, help, Unit::Nanos, shards);
        let c = |name: &str, help: &str, unit: Unit| registry.counter(name, help, unit);
        let flight = Arc::new(FlightRecorder::new(FLIGHT_CAPACITY, shards));
        StoreTelemetry {
            query_execute: h(
                "dyndex_store_query_execute",
                "per-shard query execution time against the published view",
            ),
            query_duration: h(
                "dyndex_store_query_duration",
                "end-to-end multi-shard query latency",
            ),
            queries: c("dyndex_store_queries", "queries served", Unit::Count),
            insert_duration: h(
                "dyndex_store_insert_duration",
                "insert call latency (one observation per call, batches included)",
            ),
            delete_duration: h(
                "dyndex_store_delete_duration",
                "delete call latency (one observation per call, batches included)",
            ),
            docs_inserted: c(
                "dyndex_store_docs_inserted",
                "documents inserted",
                Unit::Count,
            ),
            docs_deleted: c(
                "dyndex_store_docs_deleted",
                "documents deleted",
                Unit::Count,
            ),
            ingest_route: h(
                "dyndex_ingest_route_duration",
                "bulk-ingest routing + chunk-cutting time per ingest call",
            ),
            ingest_build: h(
                "dyndex_ingest_build_duration",
                "per-shard SA-IS build time of one bulk-ingested chunk",
            ),
            ingest_install: h(
                "dyndex_ingest_install_duration",
                "per-shard install time of one bulk-built level",
            ),
            docs_ingested: c(
                "dyndex_ingest_docs_total",
                "documents loaded through the bulk-ingest fast path",
                Unit::Count,
            ),
            ingest_docs_per_sec: registry.gauge(
                "dyndex_ingest_docs_per_sec",
                "throughput of the most recent bulk ingest (docs/second)",
                Unit::Count,
            ),
            shard_poisoned: c(
                "dyndex_store_shard_poisoned",
                "writes refused because the shard's writer panicked",
                Unit::Count,
            ),
            snapshot_duration: h(
                "dyndex_store_snapshot_duration",
                "wall-clock duration of snapshot generations",
            ),
            snapshot_bytes_written: c(
                "dyndex_store_snapshot_bytes_written",
                "snapshot bytes serialized to disk",
                Unit::Bytes,
            ),
            snapshot_bytes_reused: c(
                "dyndex_store_snapshot_bytes_reused",
                "snapshot bytes reused from the previous generation",
                Unit::Bytes,
            ),
            epoch_garbage: registry.gauge(
                "dyndex_store_epoch_garbage",
                "retired shard views awaiting epoch reclamation (process-global)",
                Unit::Count,
            ),
            epoch_passes: registry.gauge(
                "dyndex_store_epoch_passes",
                "epoch reclamation passes run (process-global)",
                Unit::Count,
            ),
            flight_recorded: c(
                "dyndex_flight_spans_recorded",
                "spans recorded by the flight recorder (all kinds)",
                Unit::Count,
            ),
            shards_poisoned_events: c(
                "dyndex_store_shards_poisoned_total",
                "shard poisoning events (one per writer panic that poisons a shard)",
                Unit::Count,
            ),
            core: CoreMetrics::register_with_flight(&registry, shards, Some(Arc::clone(&flight))),
            flight,
            sync_gate: Mutex::new(()),
            registry,
        }
    }

    /// Refreshes the process-global epoch-reclamation gauges.
    pub(crate) fn sync_epoch_gauges(&self) {
        let (garbage, passes) = crate::epoch::epoch_stats();
        self.epoch_garbage.set(garbage as u64);
        self.epoch_passes.set(passes);
    }

    /// Brings every render-time series up to date: epoch gauges, plus the
    /// flight recorder's total mirrored into its registry counter
    /// (registry counters only go up, so the mirror is a delta-add under
    /// a gate).
    pub(crate) fn sync_exposition(&self) {
        self.sync_epoch_gauges();
        let _gate = self.sync_gate.lock().unwrap();
        let live = self.flight.recorded();
        let seen = self.flight_recorded.get();
        if live > seen {
            self.flight_recorded.add(live - seen);
        }
    }
}
