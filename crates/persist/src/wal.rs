//! The per-shard write-ahead log: length-prefixed, checksummed records,
//! one per [`ShardWrite`] applied to the shard since the last snapshot.
//!
//! ## Record layout
//!
//! ```text
//! payload_len u32 | crc32(payload) u32 | payload…
//! payload = seq u64 | kind u8 | count u64 | count × entry
//! entry   = id u64 | len u64 | bytes…    (kind 1 Insert, 3 Bulk)
//!         | id u64                        (kind 2 Delete)
//! ```
//!
//! Recovery semantics are the standard WAL contract: records are read in
//! file order until the first invalid one (short header, short payload,
//! checksum mismatch, undecodable body). A torn tail — the record that
//! was mid-write when the process died — therefore truncates cleanly
//! instead of failing recovery; everything before it replays.

use crate::codec::{
    crc32, read_bytes, read_u64, read_u8, read_usize, write_bytes, write_u64, write_u8, write_usize,
};
use crate::error::PersistError;
use dyndex_obs::{Counter, FlightRecorder, Histogram, MetricsRegistry, Span, SpanKind, Unit};
use dyndex_store::ShardWrite;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_INGEST: u8 = 3;

/// When the write-ahead log fsyncs, trading mutation latency for
/// power-failure durability. Plain appends always reach the OS before
/// the mutation returns (process-crash durable); the policy decides how
/// often the OS buffer is forced to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every appended record: no acknowledged mutation is
    /// ever lost to a power failure, at one fsync per logged batch.
    PerRecord,
    /// Group commit: fsync once every `n` appended records (an `n` of 0
    /// or 1 behaves like [`SyncPolicy::PerRecord`]). A power failure can
    /// lose at most the last `n-1` acknowledged records per shard.
    EveryN(u32),
    /// Never fsync on append (the default, and the historical
    /// behavior): appends survive process crashes only; power-failure
    /// durability comes from committed snapshots and explicit
    /// `sync_wal()` calls.
    #[default]
    OnSnapshot,
    /// Group commit with a staleness bound: fsync once every `every`
    /// appended records **or** once `max_delay` has elapsed since the
    /// first un-synced record, whichever comes first. The deadline is
    /// checked on each append (no timer thread); an idle tail is covered
    /// by `sync_wal()`, close, and drop, like [`SyncPolicy::EveryN`].
    /// This is the bulk-ingest-friendly policy: a fast writer pays one
    /// fsync per `every` records, a slow writer never leaves an
    /// acknowledged record un-synced longer than `max_delay` plus one
    /// append gap.
    Batched {
        /// fsync after this many un-synced records (0/1 degenerate to
        /// per-record).
        every: u32,
        /// Upper bound on how long the first un-synced record may wait
        /// before the next append forces the group to disk.
        max_delay: Duration,
    },
}

/// Write-ahead-log tunables (see [`SyncPolicy`]).
///
/// # Examples
///
/// ```
/// use dyndex_persist::{SyncPolicy, WalOptions};
/// use std::time::Duration;
///
/// // Default: appends are process-crash durable, fsync only at
/// // snapshots / explicit sync_wal().
/// assert_eq!(WalOptions::default().sync, SyncPolicy::OnSnapshot);
/// let group_commit = WalOptions { sync: SyncPolicy::EveryN(64) };
/// assert_eq!(group_commit.sync, SyncPolicy::EveryN(64));
/// // Group commit with a staleness bound: one fsync per 64 records, but
/// // never leave the first un-synced record waiting past 5ms.
/// let batched = WalOptions {
///     sync: SyncPolicy::Batched { every: 64, max_delay: Duration::from_millis(5) },
/// };
/// assert_ne!(batched.sync, group_commit.sync);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalOptions {
    /// fsync cadence for appended records.
    pub sync: SyncPolicy,
}

/// Encodes one record's payload. Each [`ShardWrite`] kind keeps its own
/// tag; `Insert` and `Bulk` share a body layout.
fn encode_payload(seq: u64, write: &ShardWrite) -> Vec<u8> {
    let mut payload = Vec::new();
    write_u64(&mut payload, seq).expect("vec write");
    let (kind, docs) = match write {
        ShardWrite::Insert(docs) => (KIND_INSERT, docs),
        ShardWrite::Bulk(docs) => (KIND_INGEST, docs),
        ShardWrite::Delete(ids) => {
            write_u8(&mut payload, KIND_DELETE).expect("vec write");
            write_usize(&mut payload, ids.len()).expect("vec write");
            for id in ids {
                write_u64(&mut payload, *id).expect("vec write");
            }
            return payload;
        }
    };
    write_u8(&mut payload, kind).expect("vec write");
    write_usize(&mut payload, docs.len()).expect("vec write");
    for (id, bytes) in docs {
        write_u64(&mut payload, *id).expect("vec write");
        write_bytes(&mut payload, bytes).expect("vec write");
    }
    payload
}

fn decode_payload(payload: &[u8]) -> Result<(u64, ShardWrite), PersistError> {
    let mut r = std::io::Cursor::new(payload);
    let seq = read_u64(&mut r)?;
    let kind = read_u8(&mut r)?;
    let count = read_usize(&mut r)?;
    let mut read_docs = || -> Result<Vec<(u64, Vec<u8>)>, PersistError> {
        let mut docs = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let id = read_u64(&mut r)?;
            docs.push((id, read_bytes(&mut r)?));
        }
        Ok(docs)
    };
    let write = match kind {
        KIND_INSERT => ShardWrite::Insert(read_docs()?),
        KIND_INGEST => ShardWrite::Bulk(read_docs()?),
        KIND_DELETE => {
            let mut ids = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                ids.push(read_u64(&mut r)?);
            }
            ShardWrite::Delete(ids)
        }
        k => return Err(PersistError::corrupt(format!("wal: bad record kind {k}"))),
    };
    if r.position() != payload.len() as u64 {
        return Err(PersistError::corrupt("wal: trailing bytes in record"));
    }
    Ok((seq, write))
}

/// Reads every valid record from `path` in file order, stopping silently
/// at the first invalid one (torn-tail semantics). A missing file is an
/// empty log.
pub(crate) fn read_wal_records(path: &Path) -> Result<Vec<(u64, ShardWrite)>, PersistError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut out = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let start = pos + 8;
        let Some(end) = start.checked_add(len) else {
            break;
        };
        if end > bytes.len() {
            break; // torn tail
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break; // torn or corrupt tail: stop replay here
        }
        match decode_payload(payload) {
            Ok(rec) => out.push(rec),
            Err(_) => break,
        }
        pos = end;
    }
    Ok(out)
}

/// Latency handles the log records through when its owning store has
/// telemetry enabled (`None` otherwise — zero clock reads).
#[derive(Clone)]
pub(crate) struct WalMetrics {
    /// Full append latency: encode + frame + `write_all` (+ the fsync
    /// when the [`SyncPolicy`] makes this append pay one).
    pub append: Arc<Histogram>,
    /// `sync_data` latency, wherever it is paid (per record, group
    /// commit, snapshot truncation, explicit `sync_wal`, close).
    pub fsync: Arc<Histogram>,
    /// Failed appends (I/O errors; the store's health watchdog looks
    /// this series up by name). An append that fails inside its
    /// policy-charged fsync counts in both error series — the append
    /// did fail, and so did an fsync.
    pub append_errors: Arc<Counter>,
    /// Failed `sync_data` calls, wherever the fsync was paid.
    pub fsync_errors: Arc<Counter>,
    /// The store's flight recorder, for WAL append/fsync spans
    /// (`None` keeps spans off without a second policy knob).
    pub flight: Option<Arc<FlightRecorder>>,
}

impl WalMetrics {
    /// Get-or-creates the WAL series in `registry`, striped per shard;
    /// `flight`, when present, receives one span per append and fsync.
    pub(crate) fn register(
        registry: &MetricsRegistry,
        shards: usize,
        flight: Option<Arc<FlightRecorder>>,
    ) -> Self {
        WalMetrics {
            append: registry.histogram(
                "dyndex_wal_append_duration",
                "write-ahead-log record append latency (fsync included when the policy charges it)",
                Unit::Nanos,
                shards,
            ),
            fsync: registry.histogram(
                "dyndex_wal_fsync_duration",
                "write-ahead-log fsync latency",
                Unit::Nanos,
                shards,
            ),
            append_errors: registry.counter(
                "dyndex_wal_append_errors",
                "write-ahead-log appends that failed with an I/O error",
                Unit::Count,
            ),
            fsync_errors: registry.counter(
                "dyndex_wal_fsync_errors",
                "write-ahead-log fsyncs that failed with an I/O error",
                Unit::Count,
            ),
            flight,
        }
    }
}

/// Append handle for one shard's log, carrying the fsync policy and the
/// group-commit accumulator.
pub(crate) struct WalWriter {
    file: std::fs::File,
    options: WalOptions,
    /// Records appended since the last fsync (group commit).
    unsynced: u32,
    /// When the oldest un-synced record was appended — the staleness
    /// clock [`SyncPolicy::Batched`]'s `max_delay` is checked against.
    first_unsynced: Option<Instant>,
    /// Latency recording, when the owning store has telemetry enabled.
    metrics: Option<WalMetrics>,
    /// Histogram stripe hint — the shard index, so each shard's log
    /// records contention-free.
    shard: usize,
}

impl WalWriter {
    /// Opens (creating if absent) the log for appending.
    pub(crate) fn open_append(path: PathBuf, options: WalOptions) -> Result<Self, PersistError> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(WalWriter {
            file,
            options,
            unsynced: 0,
            first_unsynced: None,
            metrics: None,
            shard: 0,
        })
    }

    /// Points this writer at latency histograms (shard = stripe hint).
    pub(crate) fn set_metrics(&mut self, metrics: Option<WalMetrics>, shard: usize) {
        self.metrics = metrics;
        self.shard = shard;
    }

    /// Stamps the flight clock, when a recorder is attached.
    fn flight_now(&self) -> Option<u64> {
        self.metrics
            .as_ref()
            .and_then(|m| m.flight.as_ref())
            .map(|f| f.now_nanos())
    }

    /// Records one finished WAL operation as a root flight span (slow
    /// ones are retained by the recorder's slow-op log).
    fn record_span(&self, kind: SpanKind, start: Option<u64>, duration_nanos: u64, detail: u64) {
        let Some(flight) = self.metrics.as_ref().and_then(|m| m.flight.as_ref()) else {
            return;
        };
        let Some(start_nanos) = start else { return };
        flight.finish_root(Span {
            shard: Some(self.shard),
            start_nanos,
            duration_nanos,
            detail,
            ..Span::root(flight.next_span_id(), kind)
        });
    }

    /// Appends one record. The bytes reach the OS before this returns
    /// (single `write_all`), so the log survives process crashes; the
    /// [`SyncPolicy`] decides whether this append also pays an fsync
    /// (per record, per group of N, or never — see [`WalWriter::sync`]).
    pub(crate) fn append(&mut self, seq: u64, write: &ShardWrite) -> Result<(), PersistError> {
        let started = self.metrics.is_some().then(Instant::now);
        let flight_start = self.flight_now();
        let result = self.append_inner(seq, write);
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            match &result {
                Ok(bytes) => {
                    let nanos = started.elapsed().as_nanos() as u64;
                    m.append.record_at(self.shard, nanos);
                    self.record_span(SpanKind::WalAppend, flight_start, nanos, *bytes);
                }
                Err(_) => m.append_errors.inc(),
            }
        }
        result.map(|_| ())
    }

    /// The fallible body of [`WalWriter::append`], split out so the
    /// wrapper can count errors and record latency/spans on exactly one
    /// path each. Returns the framed bytes written (the span's payload).
    fn append_inner(&mut self, seq: u64, write: &ShardWrite) -> Result<u64, PersistError> {
        let payload = encode_payload(seq, write);
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        self.file.write_all(&framed)?;
        self.unsynced = self.unsynced.saturating_add(1);
        self.first_unsynced.get_or_insert_with(Instant::now);
        let due = match self.options.sync {
            SyncPolicy::PerRecord => true,
            // Group commit: the Nth un-synced record pays one fsync for
            // the whole batch (0 and 1 degenerate to per-record).
            SyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            SyncPolicy::OnSnapshot => false,
            // Group commit with a staleness bound: count *or* deadline.
            SyncPolicy::Batched { every, max_delay } => {
                self.unsynced >= every.max(1)
                    || self
                        .first_unsynced
                        .is_some_and(|first| first.elapsed() >= max_delay)
            }
        };
        if due {
            self.sync()?;
        }
        Ok(framed.len() as u64)
    }

    /// fsyncs the log file and resets the group-commit accumulator.
    pub(crate) fn sync(&mut self) -> Result<(), PersistError> {
        let started = self.metrics.is_some().then(Instant::now);
        let flight_start = self.flight_now();
        let result = self.file.sync_data();
        if result.is_ok() {
            self.unsynced = 0;
            self.first_unsynced = None;
        }
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            match &result {
                Ok(()) => {
                    let nanos = started.elapsed().as_nanos() as u64;
                    m.fsync.record_at(self.shard, nanos);
                    self.record_span(SpanKind::WalFsync, flight_start, nanos, 0);
                }
                Err(_) => m.fsync_errors.inc(),
            }
        }
        result.map_err(Into::into)
    }

    /// Empties the log (records are covered by a freshly committed
    /// snapshot) and keeps appending to the same file.
    pub(crate) fn truncate(&mut self) -> Result<(), PersistError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        // Through sync() so the truncation's fsync lands in the
        // latency histogram like every other one.
        self.sync()
    }

    /// Flushes the buffered tail to stable storage before the writer
    /// goes away: under [`SyncPolicy::EveryN`] / [`SyncPolicy::OnSnapshot`]
    /// up to a group (or everything since the last snapshot) may sit
    /// un-fsynced in the page cache, and a clean shutdown must not leave
    /// acknowledged records exposed to the next power failure. Errors
    /// propagate so callers can surface a failed final sync.
    pub(crate) fn close(&mut self) -> Result<(), PersistError> {
        if self.unsynced > 0 {
            self.sync()?;
        }
        Ok(())
    }
}

impl Drop for WalWriter {
    /// Best-effort tail sync for writers dropped without an explicit
    /// [`WalWriter::close`] (errors cannot propagate from a destructor).
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// The log file for shard `s` under `dir`.
pub(crate) fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join("wal").join(format!("shard-{shard:04}.wal"))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(name: &str) -> Self {
            let p =
                std::env::temp_dir().join(format!("dyndex-wal-test-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = TempDir::new("roundtrip");
        let path = wal_path(&dir.0, 0);
        let mut w = WalWriter::open_append(path.clone(), WalOptions::default()).unwrap();
        let r1 = ShardWrite::Insert(vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
        let r2 = ShardWrite::Delete(vec![1]);
        w.append(1, &r1).unwrap();
        w.append(2, &r2).unwrap();
        w.sync().unwrap();
        assert!(path.exists());
        let got = read_wal_records(&path).unwrap();
        assert_eq!(got, vec![(1, r1.clone()), (2, r2.clone())]);
        // Reopen appends after existing records.
        drop(w);
        let mut w = WalWriter::open_append(path.clone(), WalOptions::default()).unwrap();
        w.append(3, &r1).unwrap();
        assert_eq!(read_wal_records(&path).unwrap().len(), 3);
        w.truncate().unwrap();
        assert!(read_wal_records(&path).unwrap().is_empty());
        w.append(4, &r2).unwrap();
        assert_eq!(read_wal_records(&path).unwrap(), vec![(4, r2)]);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = TempDir::new("torn");
        let path = wal_path(&dir.0, 0);
        let mut w = WalWriter::open_append(path.clone(), WalOptions::default()).unwrap();
        w.append(1, &ShardWrite::Delete(vec![9])).unwrap();
        w.append(2, &ShardWrite::Delete(vec![10])).unwrap();
        drop(w);
        // Simulate a torn write: chop bytes off the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let got = read_wal_records(&path).unwrap();
        assert_eq!(got.len(), 1, "only the intact prefix replays");
        assert_eq!(got[0].0, 1);
        // Garbage appended after valid records also stops cleanly.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_wal_records(&path).unwrap().len(), 1);
    }

    /// One framed record of each kind, byte for byte as earlier builds
    /// wrote them: logs written before must keep replaying.
    #[test]
    fn record_bytes_match_golden_frames() {
        let dir = TempDir::new("golden");
        let path = wal_path(&dir.0, 0);
        let records = vec![
            (
                3,
                ShardWrite::Insert(vec![(1, b"one".to_vec()), (258, b"two!".to_vec())]),
            ),
            (4, ShardWrite::Delete(vec![1, u64::MAX])),
            (5, ShardWrite::Bulk(vec![(7, b"bulk".to_vec())])),
        ];
        let mut w = WalWriter::open_append(path.clone(), WalOptions::default()).unwrap();
        for (seq, write) in &records {
            w.append(*seq, write).unwrap();
        }
        let hex: String = std::fs::read(&path)
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let golden = "38000000d7561654030000000000000001020000000000000001000000000000000300\
            0000000000006f6e650201000000000000040000000000000074776f2121000000f702e50204\
            000000000000000202000000000000000100000000000000ffffffffffffffff25000000113c\
            b05c05000000000000000301000000000000000700000000000000040000000000000062756c6b";
        assert_eq!(hex, golden);
        assert_eq!(read_wal_records(&path).unwrap(), records);
    }

    #[test]
    fn missing_file_is_empty_log() {
        let dir = TempDir::new("missing");
        assert!(read_wal_records(&wal_path(&dir.0, 3)).unwrap().is_empty());
    }

    /// A writer wired to a fresh registry so tests can count fsyncs.
    fn metered_writer(dir: &Path, sync: SyncPolicy) -> (WalWriter, Arc<Histogram>) {
        let registry = MetricsRegistry::new();
        let metrics = WalMetrics::register(&registry, 1, None);
        let fsyncs = Arc::clone(&metrics.fsync);
        let mut w = WalWriter::open_append(wal_path(dir, 0), WalOptions { sync }).unwrap();
        w.set_metrics(Some(metrics), 0);
        (w, fsyncs)
    }

    #[test]
    fn batched_policy_syncs_on_count() {
        let dir = TempDir::new("batched-count");
        let (mut w, fsyncs) = metered_writer(
            &dir.0,
            SyncPolicy::Batched {
                every: 3,
                max_delay: Duration::from_secs(3600),
            },
        );
        for seq in 1..=2 {
            w.append(seq, &ShardWrite::Delete(vec![seq])).unwrap();
        }
        assert_eq!(fsyncs.snapshot().count(), 0, "below the group size");
        w.append(3, &ShardWrite::Delete(vec![3])).unwrap();
        assert_eq!(fsyncs.snapshot().count(), 1, "third record pays the fsync");
        // Close with nothing un-synced adds no extra fsync.
        w.close().unwrap();
        assert_eq!(fsyncs.snapshot().count(), 1);
    }

    #[test]
    fn batched_policy_syncs_on_deadline() {
        let dir = TempDir::new("batched-deadline");
        let (mut w, fsyncs) = metered_writer(
            &dir.0,
            SyncPolicy::Batched {
                every: 1000,
                max_delay: Duration::from_millis(5),
            },
        );
        w.append(1, &ShardWrite::Delete(vec![1])).unwrap();
        assert_eq!(fsyncs.snapshot().count(), 0, "deadline not reached yet");
        std::thread::sleep(Duration::from_millis(10));
        w.append(2, &ShardWrite::Delete(vec![2])).unwrap();
        assert_eq!(
            fsyncs.snapshot().count(),
            1,
            "the append past the deadline forces the group to disk"
        );
        // The staleness clock restarted: an immediate append waits again.
        w.append(3, &ShardWrite::Delete(vec![3])).unwrap();
        assert_eq!(fsyncs.snapshot().count(), 1);
        // Close covers the tail.
        w.close().unwrap();
        assert_eq!(fsyncs.snapshot().count(), 2);
    }

    #[test]
    fn ingest_batch_roundtrip_and_torn_tail() {
        let dir = TempDir::new("ingest-frames");
        let path = wal_path(&dir.0, 0);
        let mut w = WalWriter::open_append(path.clone(), WalOptions::default()).unwrap();
        let chunk1 = ShardWrite::Bulk(vec![(1, b"bulk one".to_vec()), (2, b"two".to_vec())]);
        let chunk2 = ShardWrite::Bulk(vec![(3, b"bulk three".to_vec())]);
        w.append(1, &chunk1).unwrap();
        w.append(2, &chunk2).unwrap();
        w.sync().unwrap();
        assert_eq!(
            read_wal_records(&path).unwrap(),
            vec![(1, chunk1.clone()), (2, chunk2)]
        );
        drop(w);
        // Tear the second coalesced frame mid-payload: the intact first
        // chunk replays, the torn one truncates cleanly.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert_eq!(read_wal_records(&path).unwrap(), vec![(1, chunk1)]);
    }
}
