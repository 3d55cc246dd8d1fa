//! The flight recorder: a bounded lock-free buffer of hierarchical
//! [`Span`]s covering foreground queries *and* every kind of background
//! work (rebuilds, installs, WAL appends and fsyncs, snapshot freezes
//! and serializations, bulk builds).
//!
//! Every span carries a `span_id`/`parent_id` pair, so a query's root
//! span has one execute *child* per shard visited, and a background
//! snapshot has per-shard freeze/serialize children — causal trees for
//! work that never touches the query path.
//!
//! ## Recording is wait-free
//!
//! Spans land in per-stripe rings of fixed-size slots. A writer claims a
//! ticket with one `fetch_add`, then publishes the span through a
//! seqlock: the slot's sequence goes odd, the nine span words are stored
//! as relaxed atomics, and the sequence goes even again. Readers accept
//! a slot only when they observe the same even sequence before and after
//! copying the words, so a torn (mid-write) span is skipped, never
//! returned. No locks, no allocation, no waiting on the record path;
//! old spans are simply overwritten when the ring wraps.
//!
//! ## The slow-op log
//!
//! Full trees are retained only for operations beyond a configurable
//! latency bound ([`FlightRecorder::set_slow_threshold`]): when a *root*
//! span finishes over the threshold, its children are collected from the
//! ring and the whole tree is pushed into a small bounded log — the
//! flight recorder's answer to "what was that one slow query doing".

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a span measured: the three foreground query kinds, their
/// per-shard child, and every kind of background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A multi-shard `count` query (root span).
    Count,
    /// A multi-shard `find` query (root span).
    Find,
    /// A multi-shard `find_limit` query (root span).
    FindLimit,
    /// Child of a query: one shard's execution against its published
    /// view.
    ShardExecute,
    /// A static rebuild/merge job (Transformation 2 background work).
    Rebuild,
    /// A finished level job installed into the shard.
    LevelInstall,
    /// A finished top-maintenance job installed into the shard.
    TopInstall,
    /// One write-ahead-log record append.
    WalAppend,
    /// One write-ahead-log fsync.
    WalFsync,
    /// A whole snapshot generation (root span).
    Snapshot,
    /// Child of a snapshot: one shard quiesced and frozen.
    ShardFreeze,
    /// Child of a snapshot: one shard's changed levels serialized.
    ShardSerialize,
    /// One remote request served by the wire-protocol server (root
    /// span; the query it triggers contributes its own child spans).
    ServeRequest,
    /// One bulk-ingested chunk built straight to a static level and
    /// installed (the stream-to-static fast path).
    BulkBuild,
}

impl SpanKind {
    /// Stable wire code (used by the lock-free slot encoding). Codes 4
    /// and 14 belonged to removed kinds and are never reused.
    fn code(self) -> u64 {
        match self {
            SpanKind::Count => 1,
            SpanKind::Find => 2,
            SpanKind::FindLimit => 3,
            SpanKind::ShardExecute => 5,
            SpanKind::Rebuild => 6,
            SpanKind::LevelInstall => 7,
            SpanKind::TopInstall => 8,
            SpanKind::WalAppend => 9,
            SpanKind::WalFsync => 10,
            SpanKind::Snapshot => 11,
            SpanKind::ShardFreeze => 12,
            SpanKind::ShardSerialize => 13,
            SpanKind::ServeRequest => 15,
            SpanKind::BulkBuild => 16,
        }
    }

    fn from_code(code: u64) -> Option<SpanKind> {
        Some(match code {
            1 => SpanKind::Count,
            2 => SpanKind::Find,
            3 => SpanKind::FindLimit,
            5 => SpanKind::ShardExecute,
            6 => SpanKind::Rebuild,
            7 => SpanKind::LevelInstall,
            8 => SpanKind::TopInstall,
            9 => SpanKind::WalAppend,
            10 => SpanKind::WalFsync,
            11 => SpanKind::Snapshot,
            12 => SpanKind::ShardFreeze,
            13 => SpanKind::ShardSerialize,
            15 => SpanKind::ServeRequest,
            16 => SpanKind::BulkBuild,
            _ => return None,
        })
    }

    /// Snake-case name, as rendered by `/spans`.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Count => "count",
            SpanKind::Find => "find",
            SpanKind::FindLimit => "find_limit",
            SpanKind::ShardExecute => "execute",
            SpanKind::Rebuild => "rebuild",
            SpanKind::LevelInstall => "level_install",
            SpanKind::TopInstall => "top_install",
            SpanKind::WalAppend => "wal_append",
            SpanKind::WalFsync => "wal_fsync",
            SpanKind::Snapshot => "snapshot",
            SpanKind::ShardFreeze => "freeze",
            SpanKind::ShardSerialize => "serialize",
            SpanKind::ServeRequest => "serve",
            SpanKind::BulkBuild => "bulk_build",
        }
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One unit of recorded work: a node in a causal span tree.
///
/// `id` is nonzero only for spans that can have children (roots hand
/// their id to the workers that record under them); `parent` is zero for
/// roots. Timestamps are nanoseconds since the owning recorder's base
/// instant, so spans from different layers order consistently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id (0 for leaf spans that never parent anything).
    pub id: u64,
    /// Parent span id (0 = this is a root span).
    pub parent: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// The shard the work belonged to, when it was shard-scoped.
    pub shard: Option<usize>,
    /// Start time, nanoseconds since [`FlightRecorder::now_nanos`]'s
    /// zero point.
    pub start_nanos: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_nanos: u64,
    /// Smallest view epoch touched (0 when not applicable).
    pub epoch_lo: u64,
    /// Largest view epoch touched (0 when not applicable).
    pub epoch_hi: u64,
    /// Kind-specific payload: result count for queries, bytes for WAL
    /// appends and serializations, freed values for GC passes.
    pub detail: u64,
}

impl Span {
    /// A root span (no parent) with a fresh `id` slot to hand children.
    pub fn root(id: u64, kind: SpanKind) -> Span {
        Span {
            id,
            parent: 0,
            kind,
            shard: None,
            start_nanos: 0,
            duration_nanos: 0,
            epoch_lo: 0,
            epoch_hi: 0,
            detail: 0,
        }
    }

    /// A leaf child of `parent`.
    pub fn child(parent: u64, kind: SpanKind) -> Span {
        Span {
            id: 0,
            parent,
            kind,
            shard: None,
            start_nanos: 0,
            duration_nanos: 0,
            epoch_lo: 0,
            epoch_hi: 0,
            detail: 0,
        }
    }

    fn render_into(&self, out: &mut String, indent: &str) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{indent}{} id={} parent={} shard=",
            self.kind, self.id, self.parent
        );
        match self.shard {
            Some(s) => {
                let _ = write!(out, "{s}");
            }
            None => out.push('-'),
        }
        let _ = writeln!(
            out,
            " start={}ns dur={}ns epochs={}..={} detail={}",
            self.start_nanos, self.duration_nanos, self.epoch_lo, self.epoch_hi, self.detail
        );
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.render_into(&mut s, "");
        f.write_str(s.trim_end())
    }
}

/// Number of `u64` words a span encodes to inside a slot.
const SPAN_WORDS: usize = 9;
/// `shard` sentinel for "not shard-scoped".
const NO_SHARD: u64 = u64::MAX;

fn encode(span: &Span) -> [u64; SPAN_WORDS] {
    [
        span.kind.code(),
        span.shard.map_or(NO_SHARD, |s| s as u64),
        span.id,
        span.parent,
        span.start_nanos,
        span.duration_nanos,
        span.epoch_lo,
        span.epoch_hi,
        span.detail,
    ]
}

fn decode(words: [u64; SPAN_WORDS]) -> Option<Span> {
    Some(Span {
        kind: SpanKind::from_code(words[0])?,
        shard: (words[1] != NO_SHARD).then_some(words[1] as usize),
        id: words[2],
        parent: words[3],
        start_nanos: words[4],
        duration_nanos: words[5],
        epoch_lo: words[6],
        epoch_hi: words[7],
        detail: words[8],
    })
}

/// One seqlock-protected span slot. `seq == 0` means never written; odd
/// means a write is in progress; even `2t + 2` means ticket `t`'s span
/// is fully published.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SPAN_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Publishes `span` under ticket `t`. Wait-free; a concurrent writer
    /// on the same slot (tickets a full ring apart) only makes readers
    /// reject the slot, never blocks.
    fn write(&self, t: u64, span: &Span) {
        self.seq.store(2 * t + 1, Ordering::Relaxed);
        // The release fence orders the odd marker before the payload
        // stores, so a reader that observes any payload word (via its
        // own acquire fence) also observes at least the odd sequence —
        // its before/after sequence check then rejects the slot.
        fence(Ordering::Release);
        for (w, v) in self.words.iter().zip(encode(span)) {
            w.store(v, Ordering::Relaxed);
        }
        self.seq.store(2 * t + 2, Ordering::Release);
    }

    /// Returns the slot's span if a fully published one is observable.
    fn read(&self) -> Option<Span> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let mut words = [0u64; SPAN_WORDS];
        for (out, w) in words.iter_mut().zip(self.words.iter()) {
            *out = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) != s1 {
            return None; // torn: a writer overtook us mid-copy
        }
        decode(words)
    }
}

/// One recording lane: an independent ring with its own ticket counter,
/// so pool workers recording per-shard child spans never contend on a
/// shared cursor.
struct Stripe {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Stripe {
    fn new(capacity: usize) -> Stripe {
        Stripe {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
        }
    }

    fn record(&self, span: &Span) {
        let t = self.head.fetch_add(1, Ordering::Relaxed);
        self.slots[(t % self.slots.len() as u64) as usize].write(t, span);
    }
}

/// Picks a stable per-thread stripe index (same scheme as the striped
/// histograms: threads spread across lanes, no shared cache line).
fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    STRIPE.with(|s| *s)
}

/// How many retained slow-op trees the log keeps.
const SLOW_LOG_CAPACITY: usize = 32;

/// Always-on recorder of causal span trees with a threshold-gated
/// slow-op log. See the module docs for the design; recording is
/// wait-free and never allocates.
///
/// ```
/// use dyndex_obs::{FlightRecorder, Span, SpanKind};
/// use std::time::Duration;
///
/// let rec = FlightRecorder::new(256, 4);
/// rec.set_slow_threshold(Duration::from_nanos(500));
///
/// // A root query span with one per-shard execute child.
/// let root = rec.next_span_id();
/// rec.record(Span {
///     shard: Some(2),
///     start_nanos: 10,
///     duration_nanos: 700,
///     epoch_lo: 5,
///     epoch_hi: 5,
///     ..Span::child(root, SpanKind::ShardExecute)
/// });
/// rec.finish_root(Span {
///     start_nanos: 0,
///     duration_nanos: 900, // over the 500ns bound -> retained as a tree
///     detail: 3,
///     ..Span::root(root, SpanKind::Count)
/// });
///
/// assert_eq!(rec.recorded(), 2);
/// let slow = rec.slow_ops();
/// assert_eq!(slow.len(), 1);
/// assert_eq!(slow[0].len(), 2); // root + its child
/// assert!(rec.render_spans().contains("count"));
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    stripes: Box<[Stripe]>,
    base: Instant,
    next_id: AtomicU64,
    slow_threshold_nanos: AtomicU64,
    slow: Mutex<VecDeque<Vec<Span>>>,
    /// Slow trees lost because the log was contended at capture time.
    slow_dropped: AtomicU64,
}

impl std::fmt::Debug for Stripe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stripe")
            .field("capacity", &self.slots.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder retaining roughly `capacity` spans across
    /// `stripes` recording lanes (per-stripe capacity is rounded up to a
    /// power of two, minimum 16). The slow-op threshold starts at
    /// [`Duration::MAX`] — nothing is retained until
    /// [`FlightRecorder::set_slow_threshold`] lowers it.
    pub fn new(capacity: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1).next_power_of_two();
        let per_stripe = (capacity / stripes).max(16).next_power_of_two();
        FlightRecorder {
            stripes: (0..stripes).map(|_| Stripe::new(per_stripe)).collect(),
            base: Instant::now(),
            next_id: AtomicU64::new(1),
            slow_threshold_nanos: AtomicU64::new(u64::MAX),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
            slow_dropped: AtomicU64::new(0),
        }
    }

    /// Total spans the ring can hold before overwriting.
    pub fn capacity(&self) -> usize {
        self.stripes.iter().map(|s| s.slots.len()).sum()
    }

    /// Nanoseconds since this recorder's zero point — the time base
    /// every span's `start_nanos` is measured in.
    pub fn now_nanos(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Allocates a fresh span id (for roots that will parent children).
    pub fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one span on this thread's stripe. Wait-free.
    pub fn record(&self, span: Span) {
        let mask = self.stripes.len() - 1;
        self.stripes[thread_stripe() & mask].record(&span);
    }

    /// Records one span on the stripe selected by `hint` (e.g. a shard
    /// index), keeping already-partitioned recorders contention-free.
    pub fn record_at(&self, hint: usize, span: Span) {
        let mask = self.stripes.len() - 1;
        self.stripes[hint & mask].record(&span);
    }

    /// Records a finished *root* span and, when its duration is at or
    /// over the slow-op threshold, captures the full tree (root plus
    /// every child still in the ring) into the slow-op log.
    pub fn finish_root(&self, span: Span) {
        self.record(span);
        if span.duration_nanos >= self.slow_threshold_nanos.load(Ordering::Relaxed) {
            let mut tree = vec![span];
            tree.extend(self.recent().into_iter().filter(|s| s.parent == span.id));
            tree.sort_by_key(|s| (s.parent, s.start_nanos));
            match self.slow.try_lock() {
                Ok(mut slow) => {
                    if slow.len() == SLOW_LOG_CAPACITY {
                        slow.pop_front();
                    }
                    slow.push_back(tree);
                }
                Err(_) => {
                    self.slow_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Slow-op trees lost to log contention at capture time.
    pub fn slow_dropped(&self) -> u64 {
        self.slow_dropped.load(Ordering::Relaxed)
    }

    /// Sets the latency bound at or above which a finished root span's
    /// full tree is retained in the slow-op log.
    pub fn set_slow_threshold(&self, bound: Duration) {
        let nanos = u64::try_from(bound.as_nanos()).unwrap_or(u64::MAX);
        self.slow_threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The current slow-op latency bound.
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_nanos(self.slow_threshold_nanos.load(Ordering::Relaxed))
    }

    /// Every span currently observable in the ring, sorted by start
    /// time. Torn (mid-write) slots are skipped, never returned.
    pub fn recent(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .stripes
            .iter()
            .flat_map(|stripe| stripe.slots.iter().filter_map(Slot::read))
            .collect();
        spans.sort_by_key(|s| s.start_nanos);
        spans
    }

    /// The retained slow-op trees, oldest first. Each tree is the root
    /// span followed by its children sorted by start time.
    pub fn slow_ops(&self) -> Vec<Vec<Span>> {
        self.slow.lock().unwrap().iter().cloned().collect()
    }

    /// Renders the ring as text: root spans (oldest first) with their
    /// children indented beneath them — the `/spans` admin payload.
    pub fn render_spans(&self) -> String {
        let spans = self.recent();
        let mut out = String::new();
        for root in spans.iter().filter(|s| s.parent == 0) {
            root.render_into(&mut out, "");
            for child in spans.iter().filter(|s| s.id == 0 || s.id != root.id) {
                if child.parent != 0 && child.parent == root.id {
                    child.render_into(&mut out, "  ");
                }
            }
        }
        out
    }

    /// Renders the slow-op log as text — the `/slow` admin payload.
    pub fn render_slow(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# slow ops over {:?}", self.slow_threshold());
        for tree in self.slow_ops() {
            for (i, span) in tree.iter().enumerate() {
                span.render_into(&mut out, if i == 0 { "" } else { "  " });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(kind: SpanKind, start: u64) -> Span {
        Span {
            start_nanos: start,
            duration_nanos: 5,
            ..Span::child(0, kind)
        }
    }

    #[test]
    fn kind_codes_roundtrip() {
        for kind in [
            SpanKind::Count,
            SpanKind::Find,
            SpanKind::FindLimit,
            SpanKind::ShardExecute,
            SpanKind::Rebuild,
            SpanKind::LevelInstall,
            SpanKind::TopInstall,
            SpanKind::WalAppend,
            SpanKind::WalFsync,
            SpanKind::Snapshot,
            SpanKind::ShardFreeze,
            SpanKind::ShardSerialize,
            SpanKind::ServeRequest,
            SpanKind::BulkBuild,
        ] {
            assert_eq!(SpanKind::from_code(kind.code()), Some(kind));
            assert!(!kind.as_str().is_empty());
        }
        assert_eq!(SpanKind::from_code(0), None);
        assert_eq!(SpanKind::from_code(999), None);
    }

    #[test]
    fn span_encode_decode_roundtrip() {
        let span = Span {
            id: 7,
            parent: 3,
            kind: SpanKind::ShardSerialize,
            shard: Some(5),
            start_nanos: 123,
            duration_nanos: 456,
            epoch_lo: 9,
            epoch_hi: 11,
            detail: 42,
        };
        assert_eq!(decode(encode(&span)), Some(span));
        let unsharded = Span {
            shard: None,
            ..span
        };
        assert_eq!(decode(encode(&unsharded)), Some(unsharded));
    }

    #[test]
    fn ring_retains_and_overwrites() {
        let rec = FlightRecorder::new(16, 1);
        let cap = rec.capacity();
        for i in 0..(cap as u64 * 3) {
            rec.record(leaf(SpanKind::WalAppend, i));
        }
        let recent = rec.recent();
        assert_eq!(recent.len(), cap, "full ring, oldest overwritten");
        assert_eq!(rec.recorded(), cap as u64 * 3);
        // The survivors are exactly the newest `cap` spans.
        assert!(recent.iter().all(|s| s.start_nanos >= cap as u64 * 2));
    }

    #[test]
    fn recent_is_sorted_across_stripes() {
        let rec = FlightRecorder::new(64, 4);
        for i in 0..32u64 {
            rec.record_at((i % 4) as usize, leaf(SpanKind::Rebuild, 100 - i));
        }
        let recent = rec.recent();
        assert_eq!(recent.len(), 32);
        assert!(recent
            .windows(2)
            .all(|w| w[0].start_nanos <= w[1].start_nanos));
    }

    #[test]
    fn trees_link_children_to_roots() {
        let rec = FlightRecorder::new(64, 2);
        let root = rec.next_span_id();
        for shard in 0..4usize {
            rec.record_at(
                shard,
                Span {
                    shard: Some(shard),
                    start_nanos: 10 + shard as u64,
                    duration_nanos: 3,
                    epoch_lo: 7,
                    epoch_hi: 7,
                    ..Span::child(root, SpanKind::ShardExecute)
                },
            );
        }
        rec.finish_root(Span {
            start_nanos: 5,
            duration_nanos: 50,
            detail: 9,
            ..Span::root(root, SpanKind::Find)
        });
        let rendered = rec.render_spans();
        let root_line = rendered
            .lines()
            .find(|l| l.starts_with("find "))
            .expect("root rendered");
        assert!(root_line.contains(&format!("id={root}")), "{root_line}");
        let children: Vec<&str> = rendered
            .lines()
            .filter(|l| l.starts_with("  execute"))
            .collect();
        assert_eq!(children.len(), 4, "{rendered}");
        assert!(children[0].contains(&format!("parent={root}")));
    }

    #[test]
    fn slow_log_gated_by_threshold() {
        let rec = FlightRecorder::new(64, 1);
        // Threshold starts at MAX: nothing retained.
        rec.finish_root(Span {
            duration_nanos: 1_000_000,
            ..Span::root(rec.next_span_id(), SpanKind::Count)
        });
        assert!(rec.slow_ops().is_empty());

        rec.set_slow_threshold(Duration::from_nanos(100));
        let fast = rec.next_span_id();
        rec.finish_root(Span {
            duration_nanos: 99,
            ..Span::root(fast, SpanKind::Count)
        });
        assert!(rec.slow_ops().is_empty(), "under the bound");

        let slow = rec.next_span_id();
        rec.record(Span {
            shard: Some(1),
            duration_nanos: 80,
            ..Span::child(slow, SpanKind::ShardExecute)
        });
        rec.finish_root(Span {
            duration_nanos: 250,
            ..Span::root(slow, SpanKind::Count)
        });
        let trees = rec.slow_ops();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0][0].id, slow, "root first");
        assert_eq!(trees[0].len(), 2, "child captured with the tree");
        assert!(rec.render_slow().contains("execute"));
    }

    #[test]
    fn slow_log_is_bounded() {
        let rec = FlightRecorder::new(64, 1);
        rec.set_slow_threshold(Duration::from_nanos(0));
        for _ in 0..(SLOW_LOG_CAPACITY + 10) {
            rec.finish_root(Span {
                duration_nanos: 1,
                ..Span::root(rec.next_span_id(), SpanKind::Snapshot)
            });
        }
        assert_eq!(rec.slow_ops().len(), SLOW_LOG_CAPACITY);
    }

    #[test]
    fn concurrent_record_and_read_never_tears() {
        let rec = FlightRecorder::new(256, 4);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        // Every writer uses a fixed (start, duration)
                        // pair; a torn read would mix them.
                        rec.record(Span {
                            start_nanos: w * 1_000_000 + i,
                            duration_nanos: w * 1_000_000 + i,
                            ..Span::child(0, SpanKind::WalAppend)
                        });
                    }
                });
            }
            for _ in 0..2 {
                let rec = &rec;
                scope.spawn(move || {
                    for _ in 0..200 {
                        for span in rec.recent() {
                            assert_eq!(
                                span.start_nanos, span.duration_nanos,
                                "torn span escaped the seqlock"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 4 * 5_000);
    }

    #[test]
    fn display_and_render_mention_fields() {
        let span = Span {
            id: 3,
            shard: Some(2),
            start_nanos: 100,
            duration_nanos: 40,
            epoch_lo: 6,
            epoch_hi: 8,
            detail: 12,
            ..Span::root(3, SpanKind::Snapshot)
        };
        let text = span.to_string();
        assert!(text.contains("snapshot"), "{text}");
        assert!(text.contains("shard=2"), "{text}");
        assert!(text.contains("epochs=6..=8"), "{text}");
        assert!(text.contains("detail=12"), "{text}");
    }
}
