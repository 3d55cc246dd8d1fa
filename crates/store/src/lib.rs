//! # dyndex-store
//!
//! A sharded, thread-safe document store layered over the dynamic index
//! transformations of *Munro–Nekrich–Vitter (PODS 2015)*.
//!
//! The transformations (`dyndex-core`) dynamize a single collection behind
//! a single-threaded API. Production traffic wants more: concurrent
//! readers that never wait on writers, batched writes, and rebuild work
//! kept off the query path. [`ShardedStore`]
//! provides exactly that layer:
//!
//! * **Routing** — documents hash-route by id across `N` shards, each an
//!   independent [`Transform2Index`](dyndex_core::Transform2Index) behind
//!   its own writer lock. Writers to different shards never contend.
//! * **Lock-free reads** — every shard *publishes* its read state as an
//!   immutable [`ShardView`](dyndex_core::ShardView) in an atomically
//!   swapped cell with epoch-based reclamation. Queries load the current
//!   view with one atomic op and never acquire the shard lock, so readers
//!   proceed even while a writer holds a shard — and keep answering from
//!   the last published view if a writer panics ([`ShardPoisoned`]).
//! * **One read path** — [`ShardedStore::count`] / [`ShardedStore::find`]
//!   / [`ShardedStore::find_limit`] visit every shard's view in shard
//!   order *on the calling thread* and merge deterministically
//!   (occurrences sorted by `(doc, offset)`), so a sharded store answers
//!   byte-identically to an unsharded index over the same documents. A
//!   query is a pure function of immutable views: there is no queue, no
//!   hand-off and no policy between the caller and the index.
//! * **Batching** — [`ShardedStore::insert_batch`] /
//!   [`ShardedStore::delete_batch`] group documents by shard and apply
//!   each shard's group on its own thread, one lock acquisition per shard.
//! * **Bulk ingestion** — [`ShardedStore::ingest`] streams a corpus
//!   through the static-construction fast path: documents route by
//!   shard, cut into bounded chunks, SA-IS-build directly into static
//!   bulk levels off the shard lock (on the resident workers when a
//!   pool exists), and install through the normal epoch-publish path —
//!   skipping the `C0` buffer and every cascade merge, while queries
//!   keep answering from published views throughout.
//! * **Maintenance** — Transformation 2 rebuilds sub-collections on
//!   background jobs that must be *installed* by someone holding the
//!   index. One resident worker per shard drains its shard's finished
//!   jobs on an idle tick with `try_write` (never stalling queries), so
//!   installs stop riding on foreground operations — no separate
//!   scheduler thread. Under [`MaintenancePolicy::Manual`] no threads
//!   exist at all and installs are driven by the caller.
//! * **Observability** — [`ShardedStore::stats`] aggregates per-shard
//!   document/symbol counts, pending background-job depth, worker
//!   request-queue depth and busyness, and the full per-level census
//!   ([`LevelStats`](dyndex_core::LevelStats)); [`StoreStats`] implements
//!   `Display` as a one-line dashboard.
//! * **Quiescing** — [`ShardedStore::flush`] drains every worker's
//!   job queue, then holds every shard at once and installs all
//!   background work, yielding the settled state that snapshots
//!   (`dyndex-persist`) and deterministic tests build on.
//!
//! The full-stack walk-through — layer diagram, the life of a query and
//! an insert, the rebuild lifecycle, crash recovery —
//! lives in `docs/ARCHITECTURE.md` at the repository root.
//!
//! ```
//! use dyndex_core::{DynOptions, RebuildMode, FmConfig};
//! use dyndex_store::{MaintenancePolicy, ShardedStore, StoreOptions, Telemetry};
//! use dyndex_text::FmIndexCompressed;
//! use std::time::Duration;
//!
//! let store: ShardedStore<FmIndexCompressed> = ShardedStore::new(
//!     FmConfig { sample_rate: 8 },
//!     StoreOptions {
//!         num_shards: 4,
//!         mode: RebuildMode::Background,
//!         maintenance: MaintenancePolicy::Periodic(Duration::from_micros(500)),
//!         index: DynOptions::default(),
//!         telemetry: Telemetry::Enabled, // the default: private registry
//!         ..StoreOptions::default()      // health watchdog thresholds, no admin listener
//!     },
//! );
//! assert_eq!(store.worker_threads(), 4); // one resident worker per shard
//! store.insert(1, b"sharded dynamic document store").unwrap();
//! store.insert(2, b"dynamic indexes behind every shard").unwrap();
//! assert_eq!(store.count(b"dynamic"), 2);
//! let hits = store.find(b"shard");
//! assert_eq!(hits.len(), 2);
//! assert!(hits.windows(2).all(|w| w[0] <= w[1]), "merge is sorted");
//! store.delete(1).unwrap();
//! assert_eq!(store.count(b"dynamic"), 1);
//! store.flush(); // drain worker queues + install all rebuilds
//! ```

mod epoch;
mod health;
mod pool;
mod shard;
mod stats;
mod store;
mod telemetry;

pub use health::HealthOptions;
pub use shard::{ShardGuard, ShardPoisoned};
pub use stats::{ShardStats, StoreStats};
pub use store::{IngestStats, MaintenancePolicy, ShardedStore, StoreOptions};
pub use telemetry::Telemetry;

// Telemetry vocabulary types, re-exported so store users need not name
// `dyndex-obs` directly: the registry handle [`ShardedStore::metrics`]
// returns, the span types [`ShardedStore::flight_spans`] yields, and
// the health report [`ShardedStore::health`] folds its detector
// findings into.
pub use dyndex_obs::{
    AdminServer, FlightRecorder, HealthReason, HealthReport, HealthStatus, MetricsRegistry, Span,
    SpanKind,
};

#[doc(hidden)]
pub use store::fresh_uid;
