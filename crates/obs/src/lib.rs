//! Zero-dependency telemetry for dyndex: lock-free metrics, log-bucketed
//! latency histograms, a bounded span recorder, and Prometheus-style text
//! exposition.
//!
//! Like the `Persist` codec, this crate is std-only by design — the registry
//! must work offline, embedded in benches and tests, with nothing to vendor.
//!
//! The layers:
//!
//! - **Primitives** ([`Counter`], [`Gauge`], [`Histogram`]): plain atomics,
//!   wait-free recording, no allocation on the hot path. Histograms stripe
//!   their buckets (per thread or per shard via [`Histogram::record_at`]) so
//!   concurrent recorders don't share cache lines, and snapshots merge
//!   losslessly ([`HistogramSnapshot::merge`]).
//! - **Registry** ([`MetricsRegistry`]): named get-or-create handles plus
//!   [`MetricsRegistry::render_text`] exposition. Re-registering a name
//!   returns the same handle — a restored store pointed at the old registry
//!   keeps accumulating into the same series.
//! - **Flight recorder** ([`FlightRecorder`]): the one span recorder —
//!   always-on causal span trees ([`Span`] with `id`/`parent` links)
//!   covering foreground queries (a root carrying kind, duration, result
//!   count and the view epoch range served from, one execute child per
//!   shard) *and* background work — rebuilds, installs, WAL
//!   appends/fsyncs, snapshot freezes/serializations, epoch-GC — in a
//!   wait-free seqlock ring, with a threshold-gated slow-op log that
//!   keeps full trees for slow operations.
//! - **Health** ([`HealthReport`]): the typed Ok/Degraded/Unhealthy verdict
//!   vocabulary the store's watchdog folds its detector findings into.
//! - **Admin endpoint** ([`AdminServer`]): a std-only `GET`-route HTTP
//!   listener serving `/metrics`, `/health`, `/spans`, `/slow` with graceful
//!   shutdown on drop.
//!
//! ```
//! use dyndex_obs::{MetricsRegistry, Unit};
//!
//! let registry = MetricsRegistry::new();
//! let latency = registry.histogram("query_nanos", "query latency", Unit::Nanos, 8);
//! latency.record(1_200);
//! latency.record(3_400);
//! let snap = latency.snapshot();
//! assert_eq!(snap.count(), 2);
//! assert!(snap.percentile(0.99) >= 3_400);
//! println!("{}", registry.render_text());
//! ```

mod flight;
mod health;
mod metrics;
mod net;
mod recorder;
mod registry;
mod server;

pub use flight::{FlightRecorder, Span, SpanKind};
pub use health::{HealthReason, HealthReport, HealthStatus};
pub use metrics::{bucket_bounds, bucket_of, Counter, Gauge, Histogram, HistogramSnapshot};
pub use net::DeadlineReader;
pub use recorder::{NoopRecorder, Recorder};
pub use registry::{MetricsRegistry, Unit};
pub use server::{AdminHandler, AdminResponse, AdminServer};
