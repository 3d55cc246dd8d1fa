//! The four workloads. They share one life cycle — set up (generate, create,
//! preload, warm up), a measured main phase, then a fixed tail (flush, oracle
//! re-check, snapshot, tail inserts, delta snapshot, copy the directory of the
//! still-open store, reopen the copy, verify) — so every workload yields every
//! metric; what differs is the transport, the preload and the main phase.

use crate::gen::{rng, zipf, Corpus, Doc, Oracle, FIND_LIMIT, PATTERNS};
use crate::layers;
use crate::measure::*;
use dyndex_core::{FmConfig, RebuildMode};
use dyndex_persist::{DurableStore, RestoreOptions, StorePersist, SyncPolicy, WalOptions};
use dyndex_serve::{Client, ClientError, ServeOptions, Server};
use dyndex_store::{ShardedStore, StoreOptions};
use dyndex_succinct::SpaceUsage;
use dyndex_text::FmIndexCompressed;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Index = FmIndexCompressed;
pub type Store = ShardedStore<Index>;
pub type Durable = DurableStore<Index>;

/// Two shards and at most two client threads: the reference box has two cores.
pub const SHARDS: usize = 2;
pub const CLIENTS: usize = 2;
/// Sizes below are stated for this `--seconds` and scale linearly with it
/// (`--smoke` passes 1). They are never calibrated at run time.
pub const REF_SECONDS: f64 = 10.0;
const FIND_SHARE: f64 = 0.3;
const CHURN_READS_PER_S: f64 = 2000.0;
const CHURN_WRITES_PER_S: f64 = 100.0;
const DURABLE_WRITE_OPS: f64 = 5000.0;
const DURABLE_DELETES_AFTER: f64 = 1000.0;
const TAIL_INSERTS: f64 = 2000.0;
const WAL_TAIL_INSERTS: f64 = 200.0;
const WARMUP_READS: f64 = 2000.0;
const SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Workload {
    ReadServe,
    ChurnServe,
    DurableWrite,
    BulkIngest,
}

pub const WORKLOADS: &[(Workload, &str)] = &[
    (Workload::ReadServe, "read_serve"),
    (Workload::ChurnServe, "churn_serve"),
    (Workload::DurableWrite, "durable_write"),
    (Workload::BulkIngest, "bulk_ingest"),
];

impl Workload {
    /// Full snapshots and reopenings per run, of which the fastest is reported:
    /// more where the store is small and the operation is mostly fsync waits.
    fn repeats(self) -> usize {
        ((40.0 / self.spec().0) as usize).max(5)
    }

    /// (MiB loaded by `ingest`, WAL policy of the in-process `DurableStore`
    /// or `None` for a `ShardedStore` behind the TCP server).
    fn spec(self) -> (f64, Option<WalOptions>) {
        match self {
            Workload::ReadServe => (8.0, None),
            Workload::ChurnServe => (2.0, None),
            Workload::DurableWrite => (2.0, Some(WalOptions { sync: SyncPolicy::PerRecord })),
            Workload::BulkIngest => (40.0, Some(WalOptions::default())),
        }
    }
}

pub fn fm() -> FmConfig {
    FmConfig { sample_rate: 8 }
}

pub fn store_options() -> StoreOptions {
    StoreOptions { num_shards: SHARDS, mode: RebuildMode::Background, ..Default::default() }
}

fn restore_options(wal: WalOptions) -> RestoreOptions {
    RestoreOptions { mode: RebuildMode::Background, wal, ..Default::default() }
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    Count,
    Find,
    Insert,
    Delete,
}

pub struct Sample {
    pub kind: Kind,
    pub us: f64,
    pub late_us: f64,
    /// Completion time in seconds since the phase began.
    pub at_s: f64,
    pub ok: bool,
}

/// Timings are taken per slice: a phase is cut into `SLICES` equal stretches
/// of time and the reported value is the mean of the `FAST` fastest slices.
/// The shared host's noise comes in bursts and only ever slows a slice down,
/// so the fast slices measure the code and the rest the neighbours.
const SLICES: usize = 20;
const FAST: usize = 3;

fn slice_of(s: &Sample, elapsed_s: f64) -> usize {
    ((s.at_s / elapsed_s * SLICES as f64) as usize).min(SLICES - 1)
}

/// Mean of the `FAST` smallest values.
fn fastest(mut per_slice: Vec<f64>) -> f64 {
    per_slice.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    per_slice.truncate(FAST);
    per_slice.iter().sum::<f64>() / per_slice.len().max(1) as f64
}

/// Successful operations per second over the fastest slices; of an open loop,
/// whose bursts are only a backlog draining, over the whole phase.
pub fn fast_rate(samples: &[Sample], elapsed_s: f64) -> f64 {
    if samples.iter().any(|s| s.late_us > 0.0) {
        return samples.iter().filter(|s| s.ok).count() as f64 / elapsed_s;
    }
    let mut done = vec![0.0; SLICES];
    samples.iter().filter(|s| s.ok).for_each(|s| done[slice_of(s, elapsed_s)] -= 1.0);
    -fastest(done) * SLICES as f64 / elapsed_s
}

/// Median latency of `kind` over the fastest slices (slices holding fewer than
/// five such operations are left out).
pub fn fast_p50(samples: &[Sample], kind: Kind, elapsed_s: f64) -> f64 {
    let mut slices = vec![Vec::new(); SLICES];
    samples.iter().filter(|s| s.ok && s.kind == kind).for_each(|s| slices[slice_of(s, elapsed_s)].push(s.us));
    fastest(slices.iter().filter(|v| v.len() >= 5).map(|v| median(v)).collect())
}

pub fn lat(samples: &[Sample], kind: Kind) -> Vec<f64> {
    samples.iter().filter(|s| s.kind == kind && s.ok).map(|s| s.us).collect()
}

/// Issues `op(0), op(1), …` until `window` has passed or `max_ops` are done.
/// Closed loop without `rate`; with it, op `i` is due at `i / rate` seconds and
/// its latency runs from that due time, so a stall is charged to the requests
/// queued behind it. Returns the samples and the elapsed seconds.
pub fn pace(
    window: Option<Duration>,
    max_ops: usize,
    rate: Option<f64>,
    mut op: impl FnMut(usize) -> (Kind, bool),
) -> (Vec<Sample>, f64) {
    let t0 = Instant::now();
    let mut out = Vec::new();
    for i in 0..max_ops {
        let (mut start, mut late_us) = (Instant::now(), 0.0);
        if let Some(rate) = rate {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            std::thread::sleep(due.saturating_duration_since(start));
            late_us = Instant::now().saturating_duration_since(due).as_nanos() as f64 / 1e3;
            start = due;
        }
        if window.is_some_and(|w| start.duration_since(t0) >= w) {
            break;
        }
        let (kind, ok) = op(i);
        out.push(Sample {
            kind,
            us: start.elapsed().as_nanos() as f64 / 1e3,
            late_us,
            at_s: t0.elapsed().as_secs_f64(),
            ok,
        });
    }
    (out, t0.elapsed().as_secs_f64())
}

/// Why a call failed: `true` when the server shed it with `Busy`.
type Refused = bool;

fn refused(e: ClientError) -> Refused {
    matches!(e, ClientError::Busy { .. })
}

/// How a workload reaches the store: a DYXS connection or direct calls.
pub enum Conn<'a> {
    Tcp(Client),
    Local(&'a Durable),
}

impl Conn<'_> {
    /// Spans are named after the layer a call enters and the operation.
    fn span_name(&self, kind: Kind) -> &'static str {
        const NAMES: [[&str; 4]; 2] = [
            ["serve.count", "serve.find", "serve.insert", "serve.delete"],
            ["store.count", "store.find", "persist.insert", "persist.delete"],
        ];
        NAMES[matches!(self, Conn::Local(_)) as usize][kind as usize]
    }

    fn count(&mut self, p: &[u8]) -> Result<u64, Refused> {
        match self {
            Conn::Tcp(c) => c.count(p).map_err(refused),
            Conn::Local(d) => Ok(d.count(p) as u64),
        }
    }

    fn find(&mut self, p: &[u8]) -> Result<Vec<(u64, u64)>, Refused> {
        match self {
            Conn::Tcp(c) => c.find_limit(p, FIND_LIMIT as u64).map_err(refused),
            Conn::Local(d) => Ok(d.find_limit(p, FIND_LIMIT).iter().map(|o| (o.doc, o.offset as u64)).collect()),
        }
    }

    fn insert(&mut self, doc: &Doc) -> Result<(), Refused> {
        match self {
            Conn::Tcp(c) => c.insert(doc.0, &doc.1).map_err(refused),
            Conn::Local(d) => d.insert(doc.0, &doc.1).map_err(|_| false),
        }
    }

    /// `Ok(true)` when the document was alive.
    fn delete(&mut self, id: u64) -> Result<bool, Refused> {
        match self {
            Conn::Tcp(c) => c.delete(id).map(|d| d.is_some()).map_err(refused),
            Conn::Local(d) => d.delete(id).map(|d| d.is_some()).map_err(|_| false),
        }
    }
}

/// Oracle answers for the `n` most requested patterns of each read type.
pub struct Expect {
    counts: Vec<u64>,
    find_counts: Vec<u64>,
}

impl Expect {
    /// About half of all requests hit `..n` under zipf(1); `n` shrinks on big
    /// corpora so the brute-force scans stay near half a GiB.
    pub fn new(oracle: &Oracle, corpus: &Corpus, corrupt: bool) -> Expect {
        let n = ((1usize << 29) / oracle.live_bytes().max(1)).clamp(8, 64);
        let mut counts: Vec<u64> = corpus.count_pats[..n].iter().map(|p| oracle.count(p)).collect();
        let find_counts = corpus.find_pats[..n].iter().map(|p| oracle.count(p)).collect();
        counts[0] += corrupt as u64;
        Expect { counts, find_counts }
    }
}

/// One reading client: 70 % `count`, 30 % `find`, patterns drawn zipf(1).
pub struct Reader<'a> {
    conn: Conn<'a>,
    corpus: &'a Corpus,
    rng: ChaCha8Rng,
    id_base: u64,
    expect: Option<&'a Expect>,
    found: Vec<Option<Vec<(u64, u64)>>>,
    pub rec: Recorder,
    gauges: Option<&'a Store>,
    pub depth_max: usize,
    pub jobs_max: usize,
    pub busy: u64,
}

impl<'a> Reader<'a> {
    /// `expect` is set only while the store is static: answers to its patterns
    /// are then checked (counts inline, the last `find` per pattern afterwards).
    pub fn new(
        conn: Conn<'a>,
        corpus: &'a Corpus,
        seed: u64,
        thread: u64,
        expect: Option<&'a Expect>,
        rec: Recorder,
        gauges: Option<&'a Store>,
    ) -> Self {
        let found = vec![None; expect.map_or(0, |e| e.find_counts.len())];
        let (rng, id_base) = (rng(seed, 100 + thread), thread << 32);
        Reader { conn, corpus, rng, id_base, expect, found, rec, gauges, depth_max: 0, jobs_max: 0, busy: 0 }
    }

    pub fn op(&mut self, i: usize) -> (Kind, bool) {
        let find = self.rng.random::<f64>() < FIND_SHARE;
        let idx = zipf(&mut self.rng, PATTERNS);
        let (kind, id) = (if find { Kind::Find } else { Kind::Count }, self.id_base + i as u64);
        let name = self.conn.span_name(kind);
        let outcome = if find {
            let p = &self.corpus.find_pats[idx];
            let (hits, _) = self.rec.span(name, 0, id, || self.conn.find(p));
            hits.map(|hits| {
                if let Some(slot) = self.found.get_mut(idx) {
                    *slot = Some(hits);
                }
                true
            })
        } else {
            let p = &self.corpus.count_pats[idx];
            let (n, _) = self.rec.span(name, 0, id, || self.conn.count(p));
            n.map(|n| self.expect.and_then(|e| e.counts.get(idx)).is_none_or(|&want| want == n))
        };
        if let (Some(store), 0) = (self.gauges, i % 16) {
            self.depth_max = self.depth_max.max(store.max_queue_depth());
            self.jobs_max = self.jobs_max.max(store.pending_background_jobs());
        }
        self.busy += (outcome == Err(true)) as u64;
        (kind, outcome.unwrap_or(false))
    }

    /// `find` answers kept for checking that the oracle rejects.
    pub fn bad_finds(&self, oracle: &Oracle) -> u64 {
        let Some(expect) = self.expect else { return 0 };
        let bad = |(i, hits): (usize, &Option<Vec<(u64, u64)>>)| {
            hits.as_ref().is_some_and(|h| !oracle.find_ok(&self.corpus.find_pats[i], expect.find_counts[i], h))
        };
        self.found.iter().enumerate().filter(|&x| bad(x)).count() as u64
    }
}

/// The single writer of a run: inserts fresh documents in order and deletes
/// random live ones; keeps what was acknowledged for the oracle.
pub struct Writer<'a> {
    fresh: &'a [Doc],
    next: usize,
    live: Vec<u64>,
    rng: ChaCha8Rng,
    acked: Vec<(usize, bool)>,
    pub busy: u64,
}

impl<'a> Writer<'a> {
    fn new(corpus: &'a Corpus, seed: u64) -> Self {
        let live = (0..corpus.preload as u64).collect();
        Writer { fresh: &corpus.docs[corpus.preload..], next: 0, live, rng: rng(seed, 2), acked: Vec::new(), busy: 0 }
    }

    /// Op `i` deletes when `i >= after` and `i % every == every - 1` (`every`
    /// 0: never), else inserts.
    fn op(&mut self, conn: &mut Conn, rec: &mut Recorder, i: usize, every: usize, after: usize) -> (Kind, bool) {
        let outcome = if every > 0 && i >= after && i % every == every - 1 && !self.live.is_empty() {
            let at = self.rng.random_range(0..self.live.len());
            let id = self.live.swap_remove(at);
            let (was_live, _) = rec.span(conn.span_name(Kind::Delete), 0, i as u64, || conn.delete(id));
            self.acked.push((id as usize, false));
            (Kind::Delete, was_live)
        } else {
            let doc = self.fresh.get(self.next).expect("fresh documents are sized for the run");
            let (done, _) = rec.span(conn.span_name(Kind::Insert), 0, i as u64, || conn.insert(doc));
            self.acked.push((self.next, true));
            self.live.push(doc.0);
            self.next += 1;
            (Kind::Insert, done.map(|()| true))
        };
        self.busy += (outcome.1 == Err(true)) as u64;
        if outcome.1 != Ok(true) {
            self.acked.pop();
        }
        (outcome.0, outcome.1 == Ok(true))
    }

    /// Moves acknowledged writes into the oracle; returns them for `verify`.
    fn apply(&mut self, oracle: &mut Oracle) -> Vec<(usize, bool)> {
        for &(x, inserted) in &self.acked {
            if inserted {
                oracle.insert(&self.fresh[x])
            } else {
                oracle.delete(x as u64)
            }
        }
        std::mem::take(&mut self.acked)
    }
}

enum Backend {
    Served(Server<Index>, Arc<Store>),
    Local(Durable),
}

impl Backend {
    fn served(store: Arc<Store>) -> Backend {
        Backend::Served(Server::over(Arc::clone(&store), ServeOptions::default()).expect("bind loopback server"), store)
    }

    fn store(&self) -> &Store {
        match self {
            Backend::Served(_, store) => store,
            Backend::Local(d) => d.store(),
        }
    }

    fn conn(&self) -> Conn<'_> {
        match self {
            Backend::Served(s, _) => Conn::Tcp(Client::connect(s.addr()).expect("connect to the benchmark's server")),
            Backend::Local(d) => Conn::Local(d),
        }
    }

    /// Bulk-loads `docs`; returns MiB/s.
    fn ingest(&self, docs: &[Doc]) -> f64 {
        let t = Instant::now();
        match self {
            Backend::Served(_, store) => drop(store.ingest(docs.iter().cloned()).expect("ingest")),
            Backend::Local(d) => {
                d.ingest(docs.iter().cloned()).expect("durable ingest");
                d.sync_wal().expect("sync_wal");
            }
        }
        docs.iter().map(|d| d.1.len()).sum::<usize>() as f64 / (1u64 << 20) as f64 / t.elapsed().as_secs_f64()
    }

    fn snapshot(&self, dir: &Path) -> dyndex_persist::SnapshotStats {
        match self {
            Backend::Served(_, store) => store.snapshot(dir).expect("snapshot"),
            Backend::Local(d) => d.snapshot().expect("durable snapshot"),
        }
    }
}

/// The crash image, reopened the way its owner would.
enum Reopened {
    Plain(Store),
    Durable(Durable),
}

impl Reopened {
    fn store(&self) -> &Store {
        match self {
            Reopened::Plain(s) => s,
            Reopened::Durable(d) => d.store(),
        }
    }
}

struct Env {
    corpus: Corpus,
    oracle: Oracle,
    backend: Backend,
    dir: PathBuf,
    ingest_mb_per_s: f64,
}

fn setup(w: Workload, seed: u64, scale: f64, dir: PathBuf) -> Env {
    let (preload_mib, wal) = w.spec();
    let fresh = (DURABLE_WRITE_OPS + TAIL_INSERTS + WAL_TAIL_INSERTS) * scale;
    let corpus = Corpus::new(seed, (preload_mib * scale * (1u64 << 20) as f64) as usize, fresh as usize);
    std::fs::create_dir_all(&dir).expect("create store dir");
    let backend = match wal {
        None => Backend::served(Arc::new(Store::new(fm(), store_options()))),
        Some(wal) => Backend::Local(Durable::create_with_wal(&dir, fm(), store_options(), wal).expect("create store")),
    };
    let (mut oracle, mut ingest_mb_per_s) = (Oracle::default(), 0.0);
    if w != Workload::BulkIngest {
        ingest_mb_per_s = backend.ingest(&corpus.docs[..corpus.preload]);
        corpus.docs[..corpus.preload].iter().for_each(|d| oracle.insert(d));
    }
    let mut warm = Reader::new(backend.conn(), &corpus, seed, 99, None, Recorder::new(false, Instant::now()), None);
    pace(None, (WARMUP_READS * scale) as usize, None, |i| warm.op(i));
    drop(warm);
    Env { corpus, oracle, backend, dir, ingest_mb_per_s }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Samples behind the timing metrics, for the printed table.
    pub samples: Vec<(&'static str, usize)>,
}

impl Outcome {
    fn ops(&mut self, samples: &[Sample]) {
        self.attempted += samples.len() as u64;
        self.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }
}

/// Closed-loop readers, one thread per connection; the main phase of
/// `read_serve` and the yardstick the layer probes reuse.
pub fn read_phase<'a>(
    conns: Vec<Conn<'a>>,
    corpus: &'a Corpus,
    seed: u64,
    window: Duration,
    expect: Option<&'a Expect>,
    rec: &Recorder,
    gauges: Option<&'a Store>,
) -> (Vec<Sample>, f64, Vec<Reader<'a>>) {
    let readers =
        conns.into_iter().enumerate().map(|(t, c)| Reader::new(c, corpus, seed, t as u64, expect, rec.fork(), gauges));
    let done: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> =
            readers.map(|mut r| s.spawn(move || (pace(Some(window), usize::MAX, None, |i| r.op(i)), r))).collect();
        threads.into_iter().map(|t| t.join().expect("reader thread")).collect()
    });
    let mut samples = Vec::new();
    let (mut elapsed, mut readers) = (0f64, Vec::new());
    for ((s, e), r) in done {
        samples.extend(s);
        elapsed = elapsed.max(e);
        readers.push(r);
    }
    (samples, elapsed, readers)
}

pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, corrupt_oracle: bool) -> Outcome {
    let (scale, name) = (seconds / REF_SECONDS, WORKLOADS.iter().find(|x| x.0 == w).expect("listed").1);
    let scratch = Scratch::new();
    let mut rec = Recorder::new(trace, Instant::now());
    let mut tally = Outcome::default();
    let (mut e2e, mut layer) = (Metrics::default(), Metrics::default());

    // Set-up, several times over so its median is steady; the last one is kept.
    let (mut setups, mut ingests, mut env) = (Vec::new(), Vec::new(), None::<Env>);
    for k in 0..SETUPS {
        drop(env.take());
        let t = Instant::now();
        let made = env.insert(setup(w, seed, scale, scratch.0.join(format!("store-{k}"))));
        setups.push(t.elapsed().as_secs_f64());
        ingests.push(made.ingest_mb_per_s);
    }
    let Env { corpus, mut oracle, backend, dir, .. } = env.expect("SETUPS > 0");
    let mut ingest_mb_per_s = quantile(&ingests, 1.0);
    let mut writer = Writer::new(&corpus, seed);
    let (mut reads, mut read_s, mut writes, mut write_s) = (Vec::new(), 0.0, Vec::new(), 0.0);
    let (mut busy, mut depth_max, mut jobs_max) = (0, 0, 0);
    let window = Duration::from_secs_f64(seconds);
    let mut absorb = |readers: Vec<Reader>, oracle: &Oracle, rec: &mut Recorder, tally: &mut Outcome| {
        for r in readers {
            let bad = r.bad_finds(oracle);
            (tally.attempted, tally.failed) = (tally.attempted + bad, tally.failed + bad);
            (busy, depth_max, jobs_max) = (busy + r.busy, depth_max.max(r.depth_max), jobs_max.max(r.jobs_max));
            rec.merge(r.rec);
        }
    };

    // Main phase.
    let mut expect = (w == Workload::ReadServe).then(|| Expect::new(&oracle, &corpus, corrupt_oracle));
    match w {
        Workload::ReadServe => {
            let conns = (0..CLIENTS).map(|_| backend.conn()).collect();
            let (s, e, readers) =
                read_phase(conns, &corpus, seed, window, expect.as_ref(), &rec, trace.then_some(backend.store()));
            (reads, read_s) = (s, e);
            absorb(readers, &oracle, &mut rec, &mut tally);
        }
        Workload::ChurnServe => {
            // Open loop: connection A reads at a fixed rate while connection B
            // writes (2/3 inserts, 1/3 deletes) at another; neither waits for
            // the other, as independent users would not.
            let (mut wconn, mut wrec) = (backend.conn(), rec.fork());
            let mut reader =
                Reader::new(backend.conn(), &corpus, seed, 0, None, rec.fork(), trace.then_some(backend.store()));
            let writer = &mut writer;
            let ((r, re), (wr, we)) = std::thread::scope(|s| {
                let a = s.spawn(|| pace(Some(window), usize::MAX, Some(CHURN_READS_PER_S), |i| reader.op(i)));
                let b = s.spawn(|| {
                    pace(Some(window), usize::MAX, Some(CHURN_WRITES_PER_S), |i| {
                        writer.op(&mut wconn, &mut wrec, i, 3, 0)
                    })
                });
                (a.join().expect("read connection"), b.join().expect("write connection"))
            });
            (reads, read_s, writes, write_s) = (r, re, wr, we);
            absorb(vec![reader], &oracle, &mut rec, &mut tally);
            rec.merge(wrec);
        }
        Workload::DurableWrite => {
            let mut conn = backend.conn();
            let (ops, after) = ((DURABLE_WRITE_OPS * scale) as usize, (DURABLE_DELETES_AFTER * scale) as usize);
            (writes, write_s) = pace(None, ops, None, |i| writer.op(&mut conn, &mut rec, i, 4, after));
        }
        Workload::BulkIngest => {
            // The stream arrives as five `ingest` calls, each made durable with
            // `sync_wal`; the reported rate is the fastest call's.
            let bulk = &corpus.docs[..corpus.preload];
            let calls = bulk.chunks(bulk.len().div_ceil(5)).enumerate();
            let rates: Vec<f64> =
                calls.map(|(i, part)| rec.span("persist.ingest", 0, i as u64, || backend.ingest(part)).0).collect();
            ingest_mb_per_s = quantile(&rates, 1.0);
            bulk.iter().for_each(|d| oracle.insert(d));
            // Then reads straight on the store: what its many un-merged tops cost a query.
            expect = Some(Expect::new(&oracle, &corpus, corrupt_oracle));
            let (conns, gauges) = ((0..CLIENTS).map(|_| backend.conn()).collect(), trace.then_some(backend.store()));
            let (s, e, readers) = read_phase(conns, &corpus, seed, window.mul_f64(0.5), expect.as_ref(), &rec, gauges);
            (reads, read_s) = (s, e);
            absorb(readers, &oracle, &mut rec, &mut tally);
        }
    }
    let acked_main = writer.apply(&mut oracle);
    tally.ops(&writes);

    // Tail. Flush, then re-check the popular patterns against the oracle.
    let t = Instant::now();
    backend.store().flush();
    layer.set("store.flush_s", t.elapsed().as_secs_f64());
    e2e.set("index_bytes_per_user_byte", backend.store().heap_bytes() as f64 / oracle.live_bytes() as f64);
    let settled = expect.take().unwrap_or_else(|| Expect::new(&oracle, &corpus, corrupt_oracle));
    let mut conn = backend.conn();
    for (i, p) in corpus.count_pats[..settled.counts.len()].iter().enumerate() {
        tally.check(conn.count(p).is_ok_and(|n| n == settled.counts[i]));
        let q = &corpus.find_pats[i];
        tally.check(conn.find(q).is_ok_and(|hits| oracle.find_ok(q, settled.find_counts[i], &hits)));
    }

    // Full snapshot, tail inserts (they are the write sample where the main
    // phase wrote nothing), delta snapshot, and on `durable_write` a WAL tail;
    // then a copy of the directory while the store is still open.
    let wal_bytes = if dir.join("wal").exists() { dir_bytes(&dir.join("wal")) } else { 0 } as f64;
    let logged_bytes = (oracle.live_bytes() + oracle.deleted_bytes) as f64;
    let full = backend.snapshot(&dir);
    let (tail, tail_s) = pace(None, (TAIL_INSERTS * scale) as usize, None, |i| writer.op(&mut conn, &mut rec, i, 0, 0));
    tally.ops(&tail);
    if writes.is_empty() {
        (writes, write_s) = (tail, tail_s);
    }
    let t = Instant::now();
    let delta = backend.snapshot(&dir);
    layer.set("persist.delta_snapshot_s", t.elapsed().as_secs_f64());
    let (loaded, crash) = (scratch.0.join("copy-snapshot"), scratch.0.join("copy-crash"));
    if trace {
        copy_dir(&dir, &loaded);
    }
    let mut sync_wal_us = 0.0;
    if let Backend::Local(d) = &backend {
        // Only `durable_write` leaves a WAL tail to replay; `bulk_ingest` reopens by pure load.
        let left = if w == Workload::DurableWrite { (WAL_TAIL_INSERTS * scale) as usize } else { 0 };
        tally.ops(&pace(None, left, None, |i| writer.op(&mut conn, &mut rec, i, 0, 0)).0);
        sync_wal_us = time_ns(1, 1000, |_| d.sync_wal().expect("sync_wal"));
    }
    drop(conn);
    copy_dir(&dir, &crash);
    let mut acked = acked_main;
    acked.extend(writer.apply(&mut oracle));

    // A full snapshot, timed as the best of several into fresh directories (the
    // store's own directory only takes deltas from here on).
    backend.store().flush();
    let full_s = |k| {
        time_ns(1, 1_000_000_000, |_| backend.store().snapshot(&scratch.0.join(format!("full-{k}"))).expect("snapshot"))
    };
    e2e.set("snapshot_s", quantile(&(0..w.repeats()).map(full_s).collect::<Vec<_>>(), 0.0));

    // Recover from the crash image and verify every acknowledged write.
    let (mut recover, mut reopened) = (Vec::new(), None);
    for _ in 0..w.repeats() {
        drop(reopened.take());
        let t = Instant::now();
        reopened = Some(match w.spec().1 {
            None => Reopened::Plain(
                Store::restore(&crash, restore_options(WalOptions::default())).expect("restore the copied directory"),
            ),
            Some(wal) => {
                Reopened::Durable(Durable::open(&crash, restore_options(wal)).expect("open the copied directory"))
            }
        });
        recover.push(t.elapsed().as_secs_f64());
    }
    e2e.set("recover_s", quantile(&recover, 0.0));
    let reopened = reopened.expect("repeats > 0");
    {
        let store = reopened.store();
        tally.check(store.num_docs() == oracle.live.len());
        let sample = corpus.docs[..corpus.preload].iter().step_by(corpus.preload / 2000 + 1);
        let written = acked.iter().filter(|a| a.1).map(|a| &corpus.docs[corpus.preload + a.0]);
        for doc in sample.chain(written) {
            let want = oracle.live.get(&doc.0);
            tally.check(store.extract(doc.0, 0, doc.1.len()) == want.cloned());
        }
        oracle.deleted.iter().for_each(|&id| tally.check(!store.contains(id)));
    }

    // `durable_write` reads last and over the wire like the served workloads (in
    // process, reads of so small a store are thread hand-offs and little else):
    // from a server over the recovered copy, every popular answer checked again.
    if reads.is_empty() {
        let plain =
            Store::restore(&crash, restore_options(WalOptions::default())).expect("restore the copied directory");
        let recovered = Backend::served(Arc::new(plain));
        expect = Some(Expect::new(&oracle, &corpus, corrupt_oracle));
        let conns = (0..CLIENTS).map(|_| recovered.conn()).collect();
        let readers;
        (reads, read_s, readers) = read_phase(conns, &corpus, seed, window.mul_f64(0.4), expect.as_ref(), &rec, None);
        absorb(readers, &oracle, &mut rec, &mut tally);
    }
    tally.ops(&reads);

    // End-to-end metrics.
    let user_bytes = oracle.live_bytes() as f64;
    let (counts, finds, inserts) = (lat(&reads, Kind::Count), lat(&reads, Kind::Find), lat(&writes, Kind::Insert));
    e2e.set("setup_s", median(&setups));
    e2e.set("read_ops_per_s", fast_rate(&reads, read_s));
    e2e.set("count_p50_us", fast_p50(&reads, Kind::Count, read_s));
    e2e.set("find_p50_us", fast_p50(&reads, Kind::Find, read_s));
    e2e.set("write_docs_per_s", fast_rate(&writes, write_s));
    e2e.set("ingest_mb_per_s", ingest_mb_per_s);
    e2e.set("disk_bytes_per_user_byte", dir_bytes(&crash) as f64 / user_bytes);
    let samples = vec![("count", counts.len()), ("find", finds.len()), ("insert", inserts.len())];

    let metrics = if trace {
        // Per-layer metrics: what the phases above saw, then the layer probes.
        let served = match &backend {
            Backend::Served(_, store) => Some(Arc::clone(store)),
            Backend::Local(_) => None,
        };
        layer.set("serve.requests", rec.spans.iter().filter(|s| s.name.starts_with("serve.")).count() as f64);
        layer.set("serve.busy_replies", (busy + writer.busy) as f64);
        layer.set("store.queue_depth_max", depth_max as f64);
        layer.set("store.pending_jobs_max", jobs_max as f64);
        layer.set("store.pool_installs", backend.store().pool_installs() as f64);
        layer.set("persist.sync_wal_us", sync_wal_us);
        layer.set("persist.wal_bytes", wal_bytes);
        layer.set("persist.wal_bytes_per_user_byte", wal_bytes / logged_bytes);
        layer.set("persist.snapshot_bytes_written", full.bytes_written as f64);
        layer.set("persist.snapshot_bytes_reused", delta.bytes_reused as f64);
        layer.set("persist.snapshot_levels_written", full.levels_written as f64);
        layer.set("bench.peak_rss_mb", peak_rss_mb());
        layer.set("bench.insert_p50_us", fast_p50(&writes, Kind::Insert, write_s));
        layer.set("bench.count_p99_us", quantile(&counts, 0.99));
        layer.set("bench.find_p99_us", quantile(&finds, 0.99));
        layer.set("bench.insert_p99_us", quantile(&inserts, 0.99));
        layer.set("bench.delete_p99_us", quantile(&lat(&writes, Kind::Delete), 0.99));
        layer.set("bench.late_p99_us", quantile(&reads.iter().map(|s| s.late_us).collect::<Vec<_>>(), 0.99));
        layers::structure(backend.store(), user_bytes, &mut layer);
        let t = Instant::now();
        let plain = Arc::new(Store::restore(&loaded, restore_options(WalOptions::default())).expect("load snapshot"));
        layer.set("persist.load_s", t.elapsed().as_secs_f64());
        layer.set("persist.replay_s", (e2e.get("recover_s") - layer.get("persist.load_s")).max(0.0));
        layers::probe(served.unwrap_or(plain), &corpus, seed, seconds, &scratch.0, &mut rec, &mut layer);
        std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
        rec.write(&out_dir().join(format!("trace_{name}.json"))).expect("write trace file");
        layer
    } else {
        e2e
    };
    drop((reopened, backend));
    Outcome { metrics, samples, ..tally }
}
