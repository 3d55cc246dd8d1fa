//! # dyndex
//!
//! A from-scratch Rust implementation of
//! *J. Ian Munro, Yakov Nekrich, Jeffrey Scott Vitter:
//! **Dynamic Data Structures for Document Collections and Graphs***
//! (PODS 2015, arXiv:1503.05977).
//!
//! The paper's contribution is a general framework that converts *static*
//! compressed full-text indexes into *dynamic* ones — supporting document
//! insertion and deletion — without putting a dynamic rank/select
//! structure (and its Fredman–Saks Ω(log n / log log n) lower bound) on
//! the query path. The same framework dynamizes compressed binary
//! relations and directed graphs.
//!
//! ## Crate map
//!
//! * [`succinct`] — bit vectors, rank/select, Elias–Fano, wavelet trees,
//!   the Lemma 2/3 one-bit reporter, dynamic bit/sequence structures.
//! * [`text`] — SA-IS, BWT, FM-index, classical suffix-array index, and a
//!   generalized suffix tree with document deletion (Appendix A.2).
//! * [`core`] — the transformations themselves: deletion-only wrapper
//!   (§2), Transformation 1 (amortized), Transformation 2 (worst-case,
//!   background rebuilding), Transformation 3 (A.4), counting (Thm 1).
//! * [`relations`] — compressed dynamic binary relations (Thm 2) and
//!   directed graphs (Thm 3).
//! * [`store`] — a sharded, concurrent document store over the dynamic
//!   indexes: hash routing, reads answered on the calling thread from
//!   published views with deterministic merge, batched writes, background
//!   maintenance on a resident per-shard worker pool.
//! * [`persist`] — durability for the store: a binary codec for every
//!   static structure, crash-atomic snapshot/restore, and per-shard
//!   write-ahead logging (`DurableStore`).
//! * [`serve`] — the network serving layer: a zero-dependency TCP
//!   server speaking a length-prefixed, checksummed binary wire
//!   protocol over the store, with connection-count admission and
//!   queue-depth backpressure for writes (`Busy` shedding), typed
//!   protocol errors, and a blocking `Client` handle.
//! * [`obs`] — zero-dependency telemetry: lock-free counters/gauges,
//!   mergeable log-bucketed latency histograms,
//!   an always-on flight recorder (hierarchical spans for queries,
//!   rebuilds, snapshots, WAL I/O), a typed health report, a minimal
//!   `std::net` admin HTTP listener, and Prometheus-style text
//!   exposition. The store and persist layers record into it by default
//!   (`Telemetry` policy).
//! * [`baseline`] — prior-art comparators (dynamic-BWT FM-index,
//!   rebuild-from-scratch).
//!
//! How the layers fit together — the layer diagram, the life of a query
//! and an insert through the store, the Transformation-2
//! rebuild lifecycle, and the crash-recovery story — is documented in
//! `docs/ARCHITECTURE.md` at the repository root.
//!
//! ## Quickstart
//!
//! ```
//! use dyndex::prelude::*;
//!
//! // A dynamic collection backed by a compressed FM-index.
//! let mut index: Transform1Index<FmIndexCompressed> =
//!     Transform1Index::new(FmConfig { sample_rate: 8 }, DynOptions::default());
//!
//! index.insert(1, b"compressed dynamic indexing");
//! index.insert(2, b"dynamic graphs and relations");
//! assert_eq!(index.count(b"dynamic"), 2);
//!
//! let hits = index.find(b"dynamic");
//! assert_eq!(hits.len(), 2);
//!
//! index.delete(1);
//! assert_eq!(index.count(b"dynamic"), 1);
//! ```

pub use dyndex_baseline as baseline;
pub use dyndex_core as core;
pub use dyndex_obs as obs;
pub use dyndex_persist as persist;
pub use dyndex_relations as relations;
pub use dyndex_serve as serve;
pub use dyndex_store as store;
pub use dyndex_succinct as succinct;
pub use dyndex_text as text;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use dyndex_core::prelude::*;
    pub use dyndex_obs::{
        HealthReason, HealthReport, HealthStatus, MetricsRegistry, Span, SpanKind,
    };
    pub use dyndex_persist::{
        DurableStore, PersistError, RestoreOptions, StorePersist, SyncPolicy, WalOptions,
    };
    pub use dyndex_relations::{DynamicGraph, DynamicRelation};
    pub use dyndex_serve::{Client, ClientError, ServeOptions, Server};
    pub use dyndex_store::{
        HealthOptions, MaintenancePolicy, ShardPoisoned, ShardedStore, StoreOptions, StoreStats,
        Telemetry,
    };
    pub use dyndex_succinct::SpaceUsage;
    pub use dyndex_text::Occurrence;
}
