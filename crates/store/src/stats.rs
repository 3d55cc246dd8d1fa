//! Aggregated store observability: per-shard and whole-store censuses.

use dyndex_core::LevelStats;
use std::time::Duration;

/// Point-in-time census of one shard.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index in `0..num_shards`.
    pub shard: usize,
    /// Alive documents routed to this shard.
    pub docs: usize,
    /// Alive bytes in this shard.
    pub symbols: usize,
    /// Background jobs currently in flight (rebuilds + top maintenance) —
    /// the shard's pending-work depth.
    pub pending_jobs: usize,
    /// Jobs waiting in this shard's worker queue (ingest builds, snapshot
    /// serialization — never reads), excluding one currently executing —
    /// see [`ShardStats::worker_busy`] (0 when no worker pool exists —
    /// see [`MaintenancePolicy`](crate::MaintenancePolicy)).
    pub queued_requests: usize,
    /// Whether this shard's resident worker was executing a request at
    /// census time (`false` when no pool exists).
    pub worker_busy: bool,
    /// Per-structure census (`C0`, levels, locked copies, tops, …).
    pub levels: Vec<LevelStats>,
}

/// Point-in-time census of the whole store.
#[derive(Clone, Debug)]
pub struct StoreStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// Bytes on disk of the most recent snapshot, when the store is
    /// served through a durability layer (`dyndex-persist`'s
    /// `DurableStore` fills this in; a plain in-memory store reports
    /// `None`).
    pub snapshot_bytes: Option<u64>,
    /// Whether a background snapshot had serialization work queued or
    /// running on the worker pool at census time.
    pub snapshot_in_progress: bool,
    /// p99 end-to-end query latency, when telemetry is enabled and at
    /// least one query has been recorded.
    pub query_p99: Option<Duration>,
    /// p99 WAL fsync latency, when the store is served through a
    /// durability layer with telemetry enabled and at least one fsync
    /// has been recorded.
    pub wal_fsync_p99: Option<Duration>,
    /// Documents loaded through the bulk-ingest fast path
    /// ([`ShardedStore::ingest`](crate::ShardedStore::ingest)) over the
    /// store's lifetime. Tracked store-side, so it is reported even with
    /// telemetry disabled.
    pub ingested_docs: u64,
    /// Throughput of the most recent bulk ingest in docs/second, when
    /// telemetry is enabled and at least one ingest has completed.
    pub ingest_docs_per_sec: Option<u64>,
}

impl StoreStats {
    /// Alive documents across all shards.
    pub fn total_docs(&self) -> usize {
        self.shards.iter().map(|s| s.docs).sum()
    }

    /// Alive bytes across all shards.
    pub fn total_symbols(&self) -> usize {
        self.shards.iter().map(|s| s.symbols).sum()
    }

    /// In-flight background jobs across all shards.
    pub fn pending_jobs(&self) -> usize {
        self.shards.iter().map(|s| s.pending_jobs).sum()
    }

    /// Query requests waiting across all worker queues (0 without a
    /// pool). Cross-reference: [`ShardStats::queued_requests`].
    pub fn queued_requests(&self) -> usize {
        self.shards.iter().map(|s| s.queued_requests).sum()
    }

    /// Workers executing a request at census time (0 without a pool).
    /// Cross-reference: [`ShardStats::worker_busy`].
    pub fn busy_workers(&self) -> usize {
        self.shards.iter().filter(|s| s.worker_busy).count()
    }

    /// Shard-balance ratio: largest shard's symbols over the ideal
    /// per-shard share (1.0 = perfectly even). An empty or zero-doc
    /// store has no balance to measure and reports 0.0 — never NaN and
    /// never a divide-by-zero panic.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_symbols();
        if total == 0 || self.shards.is_empty() {
            return 0.0;
        }
        let max = self.shards.iter().map(|s| s.symbols).max().unwrap_or(0);
        max as f64 * self.shards.len() as f64 / total as f64
    }
}

/// Human-scale byte formatting for the dashboard line.
fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b} B")
    } else if b < 1024 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    }
}

/// Human-scale latency formatting for the dashboard line.
fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

impl std::fmt::Display for StoreStats {
    /// One readable dashboard line, e.g.
    /// `4 shards | 1500 docs | 232.4 KiB alive | 0 pending jobs |
    /// 0 queued | imbalance 1.04 | p99 query 48.2µs | p99 fsync 1.3ms |
    /// last snapshot 241.1 KiB on disk`.
    ///
    /// The latency fields appear only when telemetry recorded them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shard{} | {} docs | {} alive | {} pending job{} | {} queued | imbalance {:.2}",
            self.shards.len(),
            if self.shards.len() == 1 { "" } else { "s" },
            self.total_docs(),
            fmt_bytes(self.total_symbols() as u64),
            self.pending_jobs(),
            if self.pending_jobs() == 1 { "" } else { "s" },
            self.queued_requests(),
            self.imbalance(),
        )?;
        if self.ingested_docs > 0 {
            write!(f, " | {} ingested", self.ingested_docs)?;
            if let Some(rate) = self.ingest_docs_per_sec {
                write!(f, " ({rate} docs/s)")?;
            }
        }
        if let Some(p99) = self.query_p99 {
            write!(f, " | p99 query {}", fmt_duration(p99))?;
        }
        if let Some(p99) = self.wal_fsync_p99 {
            write!(f, " | p99 fsync {}", fmt_duration(p99))?;
        }
        match self.snapshot_bytes {
            Some(b) => write!(f, " | last snapshot {} on disk", fmt_bytes(b))?,
            None => write!(f, " | no snapshot")?,
        }
        if self.snapshot_in_progress {
            write!(f, " | snapshot in progress")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(i: usize, docs: usize, symbols: usize, pending: usize) -> ShardStats {
        ShardStats {
            shard: i,
            docs,
            symbols,
            pending_jobs: pending,
            queued_requests: 2 * i,
            worker_busy: i % 2 == 1,
            levels: Vec::new(),
        }
    }

    #[test]
    fn aggregation() {
        let stats = StoreStats {
            shards: vec![shard(0, 3, 300, 1), shard(1, 5, 100, 0)],
            snapshot_bytes: None,
            snapshot_in_progress: false,
            query_p99: None,
            wal_fsync_p99: None,
            ingested_docs: 0,
            ingest_docs_per_sec: None,
        };
        assert_eq!(stats.total_docs(), 8);
        assert_eq!(stats.total_symbols(), 400);
        assert_eq!(stats.pending_jobs(), 1);
        assert_eq!(stats.queued_requests(), 2, "shard 1 holds 2 requests");
        assert_eq!(stats.busy_workers(), 1, "only shard 1's worker is busy");
        assert_eq!(stats.imbalance(), 1.5);
    }

    #[test]
    fn empty_store_imbalance_is_zero_not_nan() {
        let empty = StoreStats {
            shards: vec![],
            snapshot_bytes: None,
            snapshot_in_progress: false,
            query_p99: None,
            wal_fsync_p99: None,
            ingested_docs: 0,
            ingest_docs_per_sec: None,
        };
        assert_eq!(empty.imbalance(), 0.0);
        assert!(!empty.imbalance().is_nan());
        assert_eq!(empty.total_docs(), 0);

        // Shards exist but hold nothing: still 0.0, not NaN or a panic.
        let zero_docs = StoreStats {
            shards: vec![shard(0, 0, 0, 0), shard(1, 0, 0, 0)],
            snapshot_bytes: None,
            snapshot_in_progress: false,
            query_p99: None,
            wal_fsync_p99: None,
            ingested_docs: 0,
            ingest_docs_per_sec: None,
        };
        assert_eq!(zero_docs.imbalance(), 0.0);
        assert!(!zero_docs.imbalance().is_nan());
        assert!(zero_docs.to_string().contains("imbalance 0.00"));
    }

    #[test]
    fn display_is_one_dashboard_line() {
        let mut stats = StoreStats {
            shards: vec![shard(0, 3, 300, 1), shard(1, 5, 100, 0)],
            snapshot_bytes: None,
            snapshot_in_progress: false,
            query_p99: None,
            wal_fsync_p99: None,
            ingested_docs: 0,
            ingest_docs_per_sec: None,
        };
        let line = stats.to_string();
        assert!(!line.contains('\n'), "single line: {line}");
        assert!(line.contains("2 shards"), "{line}");
        assert!(line.contains("8 docs"), "{line}");
        assert!(line.contains("1 pending job"), "{line}");
        assert!(line.contains("2 queued"), "{line}");
        assert!(line.contains("no snapshot"), "{line}");
        assert!(!line.contains("p99"), "absent until recorded: {line}");
        assert!(
            !line.contains("ingested"),
            "absent until an ingest ran: {line}"
        );
        stats.snapshot_bytes = Some(2048);
        let line = stats.to_string();
        assert!(line.contains("last snapshot 2.0 KiB on disk"), "{line}");
        assert!(!line.contains("snapshot in progress"), "{line}");
        stats.snapshot_in_progress = true;
        let line = stats.to_string();
        assert!(line.contains("snapshot in progress"), "{line}");
        assert!(!line.contains('\n'), "single line: {line}");
    }

    #[test]
    fn display_includes_telemetry_when_present() {
        let stats = StoreStats {
            shards: vec![shard(0, 3, 300, 1), shard(1, 5, 100, 0)],
            snapshot_bytes: None,
            snapshot_in_progress: false,
            query_p99: Some(Duration::from_micros(48)),
            wal_fsync_p99: Some(Duration::from_micros(1300)),
            ingested_docs: 5000,
            ingest_docs_per_sec: Some(125_000),
        };
        let line = stats.to_string();
        assert!(!line.contains('\n'), "single line: {line}");
        assert!(line.contains("p99 query 48.0µs"), "{line}");
        assert!(line.contains("p99 fsync 1.3ms"), "{line}");
        assert!(line.contains("5000 ingested (125000 docs/s)"), "{line}");
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(750)), "750ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1_500)), "1.5µs");
        assert_eq!(fmt_duration(Duration::from_micros(2_500)), "2.5ms");
        assert_eq!(fmt_duration(Duration::from_millis(1_250)), "1.25s");
    }
}
