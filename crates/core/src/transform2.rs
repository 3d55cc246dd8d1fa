//! **Transformation 2** (§3): static compressed index → fully-dynamic
//! index with **worst-case** update cost, via background rebuilding.
//!
//! Layout (paper Fig. 2): sub-collections `C0..Cr` as in Transformation 1,
//! plus, per level, a **locked** copy `L_j` (an old `C_j` whose replacement
//! `N_{j+1}` is being built in the background), a one-document **Temp**
//! index holding the insertion that triggered the rebuild, **top
//! collections** `T_1..T_g` holding the bulk of the data (each
//! `Θ(nf/τ)` symbols, or a single huge document), and `L'_r` (an old `C_r`
//! awaiting top-collection maintenance).
//!
//! Rebuild lifecycle (paper Fig. 3): when `C_{j+1}` must absorb `C_j` and a
//! new document `T`, `C_j` is renamed `L_j`, `T` gets a temporary index
//! `Temp_{j+1}`, and a background job starts building
//! `N_{j+1} = L_j ∪ C_{j+1} ∪ T`. Queries keep hitting `L_j`, the old
//! `C_{j+1}`, and `Temp_{j+1}`; when the job finishes, `N_{j+1}` replaces
//! them atomically.
//!
//! Top collections are kept ≤ `O(1/τ)` deleted via the Lemma 1
//! (Dietz–Sleator) schedule: after every `nf/(2τ log τ)` deleted symbols,
//! the top with the most deletions is rebuilt (merging `L'_r` when
//! present) — one top job at a time.
//!
//! Background execution uses real threads ([`RebuildMode::Background`]),
//! matching the paper's "the cost of creating `N_{j+1}` is distributed
//! among the next `max_j` updates": foreground operations never pay for a
//! rebuild. [`RebuildMode::Inline`] computes each job synchronously at
//! spawn (deterministic; used by tests) while still exercising the same
//! lock/install state machine.

use crate::config::{CapacitySchedule, DynOptions};
use crate::deletion_only::DeletionOnlyIndex;
use crate::metrics::CoreMetrics;
use crate::stats::{LevelStats, UpdateWork};
use crate::traits::StaticIndex;
use dyndex_obs::{Span, SpanKind};
use dyndex_succinct::SpaceUsage;
use dyndex_text::{Occurrence, SuffixTree};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Shard-hint sentinel for an index not owned by a store shard: spans it
/// emits carry no shard label.
pub const NO_SHARD_HINT: usize = usize::MAX;

fn shard_hint(shard: usize) -> Option<usize> {
    (shard != NO_SHARD_HINT).then_some(shard)
}

/// Flight-recorder stripe for a shard hint (unowned indexes share lane 0).
fn shard_stripe(shard: usize) -> usize {
    if shard == NO_SHARD_HINT {
        0
    } else {
        shard
    }
}

/// How background rebuild jobs execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildMode {
    /// Jobs run on a spawned thread; the foreground never blocks unless a
    /// scheduling conflict forces a join (counted in
    /// [`UpdateWork::forced_waits`]).
    Background,
    /// Jobs are computed synchronously at spawn but installed at the next
    /// operation — deterministic, same state machine.
    Inline,
}

/// Where a document currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    C0,
    Cur(usize),
    Locked(usize),
    /// Temp index at level `i` (holds one document).
    Temp(usize),
    TempTop,
    Top(usize),
    LrPrime,
}

/// A background (or inline-deferred) index build.
struct Job<I: StaticIndex> {
    handle: Option<JoinHandle<DeletionOnlyIndex<I>>>,
    ready: Option<DeletionOnlyIndex<I>>,
    /// Deletions requested while the job ran; applied on install.
    pending_deletes: Vec<u64>,
    symbols: usize,
}

impl<I: StaticIndex> Job<I> {
    fn spawn(
        docs: Vec<(u64, Vec<u8>)>,
        config: &I::Config,
        counting: bool,
        mode: RebuildMode,
        metrics: Option<Arc<CoreMetrics>>,
        shard: usize,
    ) -> Self {
        let symbols: usize = docs.iter().map(|(_, d)| d.len()).sum();
        // Build duration is recorded where the build runs: on the spawned
        // thread for background jobs, inline otherwise. A detached index
        // (metrics == None) never reads the clock.
        let build = move |docs: &[(u64, Vec<u8>)], config: &I::Config| {
            let refs: Vec<(u64, &[u8])> = docs.iter().map(|(id, d)| (*id, d.as_slice())).collect();
            match &metrics {
                Some(m) => {
                    let flight_start = m.flight.as_ref().map(|f| f.now_nanos());
                    let start = Instant::now();
                    let index = DeletionOnlyIndex::build(&refs, config, counting);
                    let nanos = start.elapsed().as_nanos() as u64;
                    m.rebuild_duration.record(nanos);
                    if let (Some(f), Some(start_nanos)) = (&m.flight, flight_start) {
                        f.record_at(
                            shard_stripe(shard),
                            Span {
                                shard: shard_hint(shard),
                                start_nanos,
                                duration_nanos: nanos,
                                detail: symbols as u64,
                                ..Span::child(0, SpanKind::Rebuild)
                            },
                        );
                    }
                    index
                }
                None => DeletionOnlyIndex::build(&refs, config, counting),
            }
        };
        match mode {
            RebuildMode::Inline => Job {
                handle: None,
                ready: Some(build(&docs, config)),
                pending_deletes: Vec::new(),
                symbols,
            },
            RebuildMode::Background => {
                let config = config.clone();
                let handle = std::thread::spawn(move || build(&docs, &config));
                Job {
                    handle: Some(handle),
                    ready: None,
                    pending_deletes: Vec::new(),
                    symbols,
                }
            }
        }
    }

    fn is_finished(&self) -> bool {
        match &self.handle {
            Some(h) => h.is_finished(),
            None => true,
        }
    }

    /// Takes the result, blocking if necessary.
    fn join(mut self) -> (DeletionOnlyIndex<I>, Vec<u64>) {
        let mut index = match self.handle.take() {
            Some(h) => h.join().expect("rebuild thread panicked"),
            None => self.ready.take().expect("inline job must hold a result"),
        };
        for id in &self.pending_deletes {
            index.delete(*id);
        }
        (index, self.pending_deletes)
    }
}

impl<I: StaticIndex> std::fmt::Debug for Job<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("symbols", &self.symbols)
            .field("finished", &self.is_finished())
            .field("pending_deletes", &self.pending_deletes.len())
            .finish()
    }
}

/// What a finished top-maintenance job installs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TopJobKind {
    /// Replace top `t` (purge of its deleted symbols).
    Replace(usize),
    /// New top built from `L'_r` alone.
    FromLrPrime,
    /// `L'_r` merged with top `t` (single result ≤ 2nf/τ).
    MergeLrPrime(usize),
    /// Two smallest tops `a < b` merged (keeps `g = O(τ)`).
    MergeTops(usize, usize),
}

/// An installed static structure stamped with the **level epoch** it was
/// installed (or last mutated) under.
///
/// The structure itself lives behind an [`Arc`] so a frozen snapshot can
/// share it with the live index at zero copy cost: freezing clones the
/// `Arc`, and any later delete-bitmap mutation goes through
/// [`Arc::make_mut`] — copy-on-write, paying only for the bitmap
/// structures (the static payload inside [`DeletionOnlyIndex`] is itself
/// `Arc`-shared) and only while a snapshot actually holds the old
/// version.
///
/// Epochs are monotone per index: every install, merge, and
/// delete-bitmap mutation stamps a fresh value, so two structures with
/// the same epoch are byte-identical — the property incremental
/// snapshots use to skip re-serializing unchanged levels.
#[derive(Debug)]
struct Stamped<I: StaticIndex> {
    index: Arc<DeletionOnlyIndex<I>>,
    epoch: u64,
}

impl<I: StaticIndex> Stamped<I> {
    fn new(index: DeletionOnlyIndex<I>, epoch: u64) -> Self {
        Stamped {
            index: Arc::new(index),
            epoch,
        }
    }

    /// Deletes `doc_id` (copy-on-write if a snapshot shares the
    /// structure) and, on success, re-stamps with `new_epoch`.
    fn delete(&mut self, doc_id: u64, new_epoch: u64) -> Option<Vec<u8>> {
        let bytes = Arc::make_mut(&mut self.index).delete(doc_id)?;
        self.epoch = new_epoch;
        Some(bytes)
    }
}

impl<I: StaticIndex> std::ops::Deref for Stamped<I> {
    type Target = DeletionOnlyIndex<I>;

    fn deref(&self) -> &DeletionOnlyIndex<I> {
        &self.index
    }
}

/// One static level: current, locked, and temp structures.
#[derive(Debug)]
struct Level<I: StaticIndex> {
    cur: Option<Stamped<I>>,
    locked: Option<Stamped<I>>,
    /// One-document index for the insertion that triggered the level's
    /// in-flight rebuild (the paper's `Temp_i`).
    temp: Option<Stamped<I>>,
}

impl<I: StaticIndex> Default for Level<I> {
    fn default() -> Self {
        Level {
            cur: None,
            locked: None,
            temp: None,
        }
    }
}

/// Which slot a frozen structure occupies in the Transformation-2
/// layout. Positions are preserved exactly so a thawed index reproduces
/// the original query-traversal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrozenSlot {
    /// Static level `C_i` (1-based; level 0 holds no `C_i`).
    Level(usize),
    /// Top collection slot `t` (0-based into the top-slot table).
    Top(usize),
    /// `L'_r`, the old `C_r` awaiting top maintenance.
    LrPrime,
}

/// One frozen static structure: its slot, its level epoch, and a shared
/// handle to the structure itself.
pub struct FrozenLevel<I: StaticIndex> {
    /// Where the structure sits in the layout.
    pub slot: FrozenSlot,
    /// The epoch it was stamped with (identical epoch ⇒ identical bytes).
    pub epoch: u64,
    /// The structure, shared with the live index (copy-on-write there).
    pub index: Arc<DeletionOnlyIndex<I>>,
}

/// Owned decomposition of a fully-quiesced [`Transform2Index`] — no jobs
/// in flight, no locked/temp structures. Freezing costs O(levels)
/// `Arc` clones, so the producing shard's lock is needed only for the
/// clone instant, never across serialization; the live index keeps
/// mutating behind copy-on-write while a snapshot serializes this.
///
/// Also the persistence decode path's assembly type: `thaw` consumes one.
pub struct FrozenSnapshot<I: StaticIndex> {
    /// `C0` documents in insertion-age order (see
    /// `SuffixTree::export_docs_by_age`).
    pub c0_docs: Vec<(u64, Vec<u8>)>,
    /// Total level count (`schedule.caps.len()`), for validation.
    pub num_levels: usize,
    /// Total top-slot count, including empty slots.
    pub num_top_slots: usize,
    /// Every populated static structure with its slot and epoch.
    pub levels: Vec<FrozenLevel<I>>,
    /// The capacity schedule's reference size.
    pub nf: usize,
    /// Total alive bytes.
    pub n: usize,
    /// Lemma 1 pacing accumulator.
    pub deleted_since_maintenance: usize,
    /// The epoch counter's value at freeze time; a thawed index resumes
    /// stamping strictly above it (and above every entry's epoch), so
    /// restored stores keep reusing unchanged level files.
    pub epoch_counter: u64,
}

/// A fully-dynamic document index with worst-case update cost
/// (Transformation 2).
#[derive(Debug)]
pub struct Transform2Index<I: StaticIndex> {
    c0: SuffixTree,
    /// Levels `1..=r` (index 0 unused).
    levels: Vec<Level<I>>,
    /// `jobs[j]` builds `N_{j+1}` from `L_j ∪ C_{j+1} ∪ Temp_{j+1}`
    /// (for `j == r`: a new top from `L_r ∪ Temp_top`).
    jobs: Vec<Option<Job<I>>>,
    /// Top collections `T_1..T_g` (None = discarded slot).
    tops: Vec<Option<Stamped<I>>>,
    /// Temp index for a top-bound insertion.
    temp_top: Option<Stamped<I>>,
    /// `L'_r`: an old `C_r` awaiting top maintenance.
    lr_prime: Option<Stamped<I>>,
    /// The single in-flight top-maintenance job.
    top_job: Option<(TopJobKind, Job<I>)>,
    schedule: CapacitySchedule,
    config: I::Config,
    options: DynOptions,
    mode: RebuildMode,
    locations: HashMap<u64, Loc>,
    n: usize,
    /// Deleted symbols since the last top-maintenance step (Lemma 1 pacing).
    deleted_since_maintenance: usize,
    /// Monotone level-epoch counter: bumped on every install, merge, and
    /// delete-bitmap mutation (see [`Stamped`]); snapshots use it to
    /// detect unchanged structures.
    level_epoch: u64,
    /// Bumped on every `C0` mutation so [`Transform2Index::snapshot_view`]
    /// can reuse the previously-frozen `C0` overlay when nothing changed.
    c0_version: u64,
    /// Cache for the frozen `C0` overlay: `(c0_version it captures, copy)`.
    c0_frozen: Option<(u64, Arc<SuffixTree>)>,
    /// Monotone publication counter handed to each [`ShardView`].
    view_seq: u64,
    work: UpdateWork,
    /// Optional telemetry sink shared across shards; `None` = record
    /// nothing (no clock reads, no atomics).
    metrics: Option<Arc<CoreMetrics>>,
    /// Which store shard this index is, for span attribution
    /// ([`NO_SHARD_HINT`] when standalone).
    metrics_shard: usize,
}

impl<I: StaticIndex> Transform2Index<I> {
    /// Creates an empty index.
    pub fn new(config: I::Config, options: DynOptions, mode: RebuildMode) -> Self {
        let schedule = CapacitySchedule::new_truncated(0, &options);
        let levels = (0..schedule.caps.len()).map(|_| Level::default()).collect();
        let jobs = (0..schedule.caps.len()).map(|_| None).collect();
        Transform2Index {
            c0: SuffixTree::new(),
            levels,
            jobs,
            tops: Vec::new(),
            temp_top: None,
            lr_prime: None,
            top_job: None,
            schedule,
            config,
            options,
            mode,
            locations: HashMap::new(),
            n: 0,
            deleted_since_maintenance: 0,
            level_epoch: 0,
            c0_version: 0,
            c0_frozen: None,
            view_seq: 0,
            work: UpdateWork::default(),
            metrics: None,
            metrics_shard: NO_SHARD_HINT,
        }
    }

    /// Attaches (or detaches, with `None`) a shared telemetry sink. Rebuild
    /// durations, install counts, and `C0` freeze behavior are recorded
    /// into it from then on.
    pub fn set_metrics(&mut self, metrics: Option<Arc<CoreMetrics>>) {
        self.metrics = metrics;
    }

    /// Tells the telemetry sink which store shard this index is, so spans
    /// it emits (rebuilds, installs) carry the shard and land on its
    /// flight-recorder stripe.
    pub fn set_metrics_shard(&mut self, shard: usize) {
        self.metrics_shard = shard;
    }

    /// The attached flight recorder, when `set_metrics` gave us one.
    fn flight(&self) -> Option<Arc<dyndex_obs::FlightRecorder>> {
        self.metrics.as_ref().and_then(|m| m.flight.clone())
    }

    /// Number of alive documents.
    pub fn num_docs(&self) -> usize {
        self.locations.len()
    }

    /// Total alive bytes.
    pub fn symbol_count(&self) -> usize {
        self.n
    }

    /// Whether `doc_id` is present.
    pub fn contains(&self, doc_id: u64) -> bool {
        self.locations.contains_key(&doc_id)
    }

    /// Cumulative update-work statistics.
    pub fn work(&self) -> &UpdateWork {
        &self.work
    }

    /// The `r` of the current schedule.
    fn r(&self) -> usize {
        self.levels.len() - 1
    }

    fn cur_size(&self, i: usize) -> usize {
        self.levels[i].cur.as_ref().map_or(0, |c| c.alive_symbols())
    }

    /// The paper's top-size unit `nf/τ`.
    fn top_unit(&self) -> usize {
        (self.schedule.nf / self.options.tau).max(self.options.min_capacity)
    }

    /// Hands out the next level epoch (see [`Stamped`]).
    fn bump_epoch(&mut self) -> u64 {
        self.level_epoch += 1;
        self.level_epoch
    }

    // ------------------------------------------------------------------
    // Job lifecycle
    // ------------------------------------------------------------------

    /// Installs every finished job. Called at the start of each operation.
    fn poll_jobs(&mut self) {
        for j in 0..self.jobs.len() {
            if self.jobs[j].as_ref().is_some_and(|job| job.is_finished()) {
                self.install_level_job(j, false);
            }
        }
        if self
            .top_job
            .as_ref()
            .is_some_and(|(_, job)| job.is_finished())
        {
            self.install_top_job();
        }
    }

    /// Blocks until the job at `j` (if any) finishes, then installs it.
    fn force_level_job(&mut self, j: usize) {
        if self.jobs[j].is_some() {
            self.install_level_job(j, true);
        }
    }

    fn install_level_job(&mut self, j: usize, forced: bool) {
        let Some(job) = self.jobs[j].take() else {
            return;
        };
        if forced && !job.is_finished() {
            self.work.forced_waits += 1;
        }
        let flight = self.flight();
        let span_start = flight.as_ref().map(|f| (f.now_nanos(), Instant::now()));
        let symbols = job.symbols;
        let (index, _) = job.join();
        self.work.jobs_completed += 1;
        if let Some(m) = &self.metrics {
            m.level_installs.inc();
        }
        let target = j + 1;
        let epoch = self.bump_epoch();
        if target <= self.r() {
            // N_{j+1} replaces C_{j+1}; L_j and Temp_{j+1} retire.
            for id in index.doc_ids() {
                self.locations.insert(id, Loc::Cur(target));
            }
            self.levels[target].cur = Some(Stamped::new(index, epoch));
            self.levels[j].locked = None;
            self.levels[target].temp = None;
        } else {
            // N_{r+1} becomes a fresh top collection.
            let slot = self.alloc_top_slot();
            for id in index.doc_ids() {
                self.locations.insert(id, Loc::Top(slot));
            }
            self.tops[slot] = Some(Stamped::new(index, epoch));
            self.levels[j].locked = None;
            self.temp_top = None;
        }
        if let (Some(f), Some((start_nanos, t0))) = (&flight, span_start) {
            f.record_at(
                shard_stripe(self.metrics_shard),
                Span {
                    shard: shard_hint(self.metrics_shard),
                    start_nanos,
                    duration_nanos: t0.elapsed().as_nanos() as u64,
                    epoch_lo: epoch,
                    epoch_hi: epoch,
                    detail: symbols as u64,
                    ..Span::child(0, SpanKind::LevelInstall)
                },
            );
        }
    }

    fn alloc_top_slot(&mut self) -> usize {
        // Slots referenced by the in-flight top job are reserved even when
        // currently empty (a concurrent deletion may have discarded the
        // structure): the job's install writes Replace/Merge targets and
        // clears MergeTops sources, obliterating anything placed there.
        let (res_a, res_b) = match self.top_job.as_ref().map(|(kind, _)| *kind) {
            Some(TopJobKind::Replace(t)) | Some(TopJobKind::MergeLrPrime(t)) => (Some(t), None),
            Some(TopJobKind::MergeTops(a, b)) => (Some(a), Some(b)),
            Some(TopJobKind::FromLrPrime) | None => (None, None),
        };
        let free = (0..self.tops.len())
            .find(|&i| self.tops[i].is_none() && Some(i) != res_a && Some(i) != res_b);
        if let Some(i) = free {
            i
        } else {
            self.tops.push(None);
            self.tops.len() - 1
        }
    }

    fn install_top_job(&mut self) {
        let Some((kind, job)) = self.top_job.take() else {
            return;
        };
        let flight = self.flight();
        let span_start = flight.as_ref().map(|f| (f.now_nanos(), Instant::now()));
        let symbols = job.symbols;
        let (index, _) = job.join();
        self.work.jobs_completed += 1;
        if let Some(m) = &self.metrics {
            m.top_installs.inc();
        }
        let epoch = self.bump_epoch();
        let stamped = |index: DeletionOnlyIndex<I>| {
            if index.is_empty() {
                None
            } else {
                Some(Stamped::new(index, epoch))
            }
        };
        match kind {
            TopJobKind::Replace(t) => {
                for id in index.doc_ids() {
                    self.locations.insert(id, Loc::Top(t));
                }
                self.tops[t] = stamped(index);
            }
            TopJobKind::FromLrPrime => {
                let slot = self.alloc_top_slot();
                for id in index.doc_ids() {
                    self.locations.insert(id, Loc::Top(slot));
                }
                self.tops[slot] = stamped(index);
                self.lr_prime = None;
            }
            TopJobKind::MergeLrPrime(t) => {
                for id in index.doc_ids() {
                    self.locations.insert(id, Loc::Top(t));
                }
                self.tops[t] = stamped(index);
                self.lr_prime = None;
            }
            TopJobKind::MergeTops(a, b) => {
                for id in index.doc_ids() {
                    self.locations.insert(id, Loc::Top(a));
                }
                self.tops[a] = stamped(index);
                self.tops[b] = None;
            }
        }
        if let (Some(f), Some((start_nanos, t0))) = (&flight, span_start) {
            f.record_at(
                shard_stripe(self.metrics_shard),
                Span {
                    shard: shard_hint(self.metrics_shard),
                    start_nanos,
                    duration_nanos: t0.elapsed().as_nanos() as u64,
                    epoch_lo: epoch,
                    epoch_hi: epoch,
                    detail: symbols as u64,
                    ..Span::child(0, SpanKind::TopInstall)
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts a document. Worst-case `O(|T| · u(n) · log^ε n)`-class
    /// foreground work; rebuilds run in the background.
    ///
    /// # Panics
    /// Panics if `doc_id` is already present.
    pub fn insert(&mut self, doc_id: u64, bytes: &[u8]) {
        assert!(
            !self.locations.contains_key(&doc_id),
            "document {doc_id} already present"
        );
        self.poll_jobs();
        self.work.begin_op();
        self.n += bytes.len();
        self.maybe_refresh_schedule();

        // Huge documents get their own top collection immediately (§3).
        if bytes.len() >= self.top_unit() {
            let index =
                DeletionOnlyIndex::build(&[(doc_id, bytes)], &self.config, self.options.counting);
            let slot = self.alloc_top_slot();
            let epoch = self.bump_epoch();
            self.tops[slot] = Some(Stamped::new(index, epoch));
            self.locations.insert(doc_id, Loc::Top(slot));
            self.work.count_rebuild(bytes.len());
            return;
        }
        // C0 when it fits.
        if self.c0.symbol_count() + bytes.len() <= self.schedule.cap(0) {
            self.c0.insert(doc_id, bytes);
            self.c0_version += 1;
            self.locations.insert(doc_id, Loc::C0);
            self.work.count_symbols(bytes.len());
            return;
        }
        // Find the smallest j with |C_{j+1}| + |C_j| + |T| ≤ max_{j+1},
        // preferring levels not frozen by an in-flight job.
        let r = self.r();
        let mut chosen: Option<usize> = None;
        for j in 0..r {
            let fits =
                self.cur_size(j + 1) + self.cur_size(j) + bytes.len() <= self.schedule.cap(j + 1);
            if fits {
                // Slot j is busy if a job already consumes C_j / will
                // replace C_{j+1} (jobs[j]), or an in-flight job is about
                // to overwrite C_j itself (jobs[j-1] installs into C_j).
                let busy = self.jobs[j].is_some() || (j >= 1 && self.jobs[j - 1].is_some());
                if !busy {
                    chosen = Some(j);
                    break;
                }
                if chosen.is_none() {
                    chosen = Some(j); // fallback: forced wait on conflict
                }
            }
        }
        match chosen {
            Some(j) => {
                if j >= 1 {
                    self.force_level_job(j - 1);
                }
                self.force_level_job(j);
                self.start_level_merge(j, Some((doc_id, bytes)));
            }
            None => {
                // No level can absorb it: C_r moves toward the tops.
                if r >= 1 {
                    self.force_level_job(r - 1);
                }
                self.force_level_job(r);
                self.lock_level_into_top(Some((doc_id, bytes)));
            }
        }
    }

    /// A [`LevelBuilder`](crate::bulk::LevelBuilder) producing levels
    /// compatible with this index (same static-index config, same
    /// counting mode) — the handle bulk loaders build chunks with
    /// off-lock before handing them to [`Self::install_bulk_level`].
    pub fn level_builder(&self) -> crate::bulk::LevelBuilder<I> {
        crate::bulk::LevelBuilder::new(self.config.clone(), self.options.counting)
    }

    /// Installs a bulk-built static level (the stream-to-static fast
    /// path). The level becomes a top collection stamped through the
    /// normal epoch path, so snapshots, incremental deltas, and
    /// published views treat it exactly like any other structure; it is
    /// immediately queryable and deletable, and top maintenance purges
    /// it on the ordinary Lemma 1 schedule as deletions accumulate.
    ///
    /// Foreground cost is O(docs in the level) bookkeeping — the SA-IS
    /// construction already happened in the
    /// [`LevelBuilder`](crate::bulk::LevelBuilder), typically off-lock
    /// on a pool worker.
    ///
    /// # Panics
    /// Panics if any document in the level is already present (same
    /// contract as [`Self::insert`]).
    pub fn install_bulk_level(&mut self, index: DeletionOnlyIndex<I>) {
        if index.is_empty() {
            return;
        }
        for id in index.doc_ids() {
            assert!(
                !self.locations.contains_key(&id),
                "document {id} already present"
            );
        }
        self.poll_jobs();
        self.work.begin_op();
        let symbols = index.alive_symbols();
        self.n += symbols;
        self.maybe_refresh_schedule();
        let flight = self.flight();
        let span_start = flight.as_ref().map(|f| (f.now_nanos(), Instant::now()));
        let slot = self.alloc_top_slot();
        let epoch = self.bump_epoch();
        for id in index.doc_ids() {
            self.locations.insert(id, Loc::Top(slot));
        }
        self.tops[slot] = Some(Stamped::new(index, epoch));
        self.work.count_rebuild(symbols);
        if let Some(m) = &self.metrics {
            m.top_installs.inc();
        }
        if let (Some(f), Some((start_nanos, t0))) = (&flight, span_start) {
            f.record_at(
                shard_stripe(self.metrics_shard),
                Span {
                    shard: shard_hint(self.metrics_shard),
                    start_nanos,
                    duration_nanos: t0.elapsed().as_nanos() as u64,
                    epoch_lo: epoch,
                    epoch_hi: epoch,
                    detail: symbols as u64,
                    ..Span::child(0, SpanKind::BulkBuild)
                },
            );
        }
    }

    /// Locks `C_j` and starts the `N_{j+1}` job (optionally carrying a new
    /// document, which also gets a queryable Temp index).
    fn start_level_merge(&mut self, j: usize, new_doc: Option<(u64, &[u8])>) {
        debug_assert!(self.jobs[j].is_none());
        let target = j + 1;
        // If the new document is at least half the source level, the paper
        // rebuilds synchronously (the cost is charged to the document).
        let inline_threshold = self.schedule.cap(j) / 2;
        let mut docs: Vec<(u64, Vec<u8>)> = Vec::new();
        if j == 0 {
            docs.extend(self.c0.export_docs());
            self.c0 = SuffixTree::new();
            self.c0_version += 1;
        } else if let Some(cur) = self.levels[j].cur.take() {
            docs.extend(cur.export_alive_docs());
            // C_j is locked: queries keep using it as L_j.
            self.levels[j].locked = Some(cur);
        }
        for (id, _) in &docs {
            if j > 0 {
                self.locations.insert(*id, Loc::Locked(j));
            }
        }
        if let Some(cur) = self.levels[target].cur.as_ref() {
            docs.extend(cur.export_alive_docs());
        }
        let synchronous = match new_doc {
            Some((_, bytes)) => bytes.len() >= inline_threshold,
            None => false,
        };
        if j == 0 && !synchronous {
            // C0's content has no static index to serve as L_0; rebuild the
            // tiny prefix synchronously (its size is O(n/log² n)).
            let mut all = docs;
            if let Some((id, bytes)) = new_doc {
                all.push((id, bytes.to_vec()));
            }
            let total: usize = all.iter().map(|(_, d)| d.len()).sum();
            for (id, _) in &all {
                self.locations.insert(*id, Loc::Cur(target));
            }
            let refs: Vec<(u64, &[u8])> = all.iter().map(|(id, d)| (*id, d.as_slice())).collect();
            let built = DeletionOnlyIndex::build(&refs, &self.config, self.options.counting);
            let epoch = self.bump_epoch();
            self.levels[target].cur = Some(Stamped::new(built, epoch));
            self.work.count_rebuild(total);
            return;
        }
        if synchronous {
            let (id, bytes) = new_doc.expect("synchronous implies a new document");
            docs.push((id, bytes.to_vec()));
            let total: usize = docs.iter().map(|(_, d)| d.len()).sum();
            for (did, _) in &docs {
                self.locations.insert(*did, Loc::Cur(target));
            }
            let refs: Vec<(u64, &[u8])> = docs.iter().map(|(id, d)| (*id, d.as_slice())).collect();
            let built = DeletionOnlyIndex::build(&refs, &self.config, self.options.counting);
            let epoch = self.bump_epoch();
            self.levels[target].cur = Some(Stamped::new(built, epoch));
            self.levels[j].locked = None;
            self.work.count_rebuild(total);
            return;
        }
        if let Some((id, bytes)) = new_doc {
            // Temp_{j+1}: the new document must be queryable immediately.
            let temp =
                DeletionOnlyIndex::build(&[(id, bytes)], &self.config, self.options.counting);
            let epoch = self.bump_epoch();
            self.levels[target].temp = Some(Stamped::new(temp, epoch));
            self.locations.insert(id, Loc::Temp(target));
            docs.push((id, bytes.to_vec()));
            self.work.count_symbols(bytes.len());
        }
        self.jobs[j] = Some(Job::spawn(
            docs,
            &self.config,
            self.options.counting,
            self.mode,
            self.metrics.clone(),
            self.metrics_shard,
        ));
        self.work.jobs_started += 1;
    }

    /// Locks `C_r` and starts the job that turns it into a new top
    /// collection (`N_{r+1}`).
    fn lock_level_into_top(&mut self, new_doc: Option<(u64, &[u8])>) {
        let r = self.r();
        debug_assert!(self.jobs[r].is_none());
        let mut docs: Vec<(u64, Vec<u8>)> = Vec::new();
        if let Some(cur) = self.levels[r].cur.take() {
            docs.extend(cur.export_alive_docs());
            self.levels[r].locked = Some(cur);
            for (id, _) in &docs {
                self.locations.insert(*id, Loc::Locked(r));
            }
        }
        if let Some((id, bytes)) = new_doc {
            let temp =
                DeletionOnlyIndex::build(&[(id, bytes)], &self.config, self.options.counting);
            let epoch = self.bump_epoch();
            self.temp_top = Some(Stamped::new(temp, epoch));
            self.locations.insert(id, Loc::TempTop);
            docs.push((id, bytes.to_vec()));
            self.work.count_symbols(bytes.len());
        }
        if docs.is_empty() {
            self.levels[r].locked = None;
            return;
        }
        self.jobs[r] = Some(Job::spawn(
            docs,
            &self.config,
            self.options.counting,
            self.mode,
            self.metrics.clone(),
            self.metrics_shard,
        ));
        self.work.jobs_started += 1;
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Deletes a document, returning its bytes. Worst-case foreground cost
    /// `O(|T| · (tSA-ish))`; purges run in the background.
    pub fn delete(&mut self, doc_id: u64) -> Option<Vec<u8>> {
        self.poll_jobs();
        let loc = *self.locations.get(&doc_id)?;
        self.work.begin_op();
        self.locations.remove(&doc_id);
        let bytes = match loc {
            Loc::C0 => {
                self.c0_version += 1;
                self.c0.delete(doc_id).expect("location map out of sync")
            }
            Loc::Cur(i) => {
                let epoch = self.bump_epoch();
                let bytes = self.levels[i]
                    .cur
                    .as_mut()
                    .expect("location map out of sync")
                    .delete(doc_id, epoch)
                    .expect("location map out of sync");
                // If a job is about to replace C_i (jobs[i-1] targets i) or
                // reads it (jobs[i] extracted it at spawn)… extraction
                // snapshots mean the rebuilt index still contains the doc:
                // forward the deletion.
                if i >= 1 {
                    if let Some(job) = self.jobs[i - 1].as_mut() {
                        job.pending_deletes.push(doc_id);
                    }
                }
                if let Some(job) = self.jobs[i].as_mut() {
                    job.pending_deletes.push(doc_id);
                }
                self.after_cur_deletion(i);
                bytes
            }
            Loc::Locked(j) => {
                let epoch = self.bump_epoch();
                let bytes = self.levels[j]
                    .locked
                    .as_mut()
                    .expect("location map out of sync")
                    .delete(doc_id, epoch)
                    .expect("location map out of sync");
                if let Some(job) = self.jobs[j].as_mut() {
                    job.pending_deletes.push(doc_id);
                }
                bytes
            }
            Loc::Temp(t) => {
                let epoch = self.bump_epoch();
                let bytes = self.levels[t]
                    .temp
                    .as_mut()
                    .expect("location map out of sync")
                    .delete(doc_id, epoch)
                    .expect("location map out of sync");
                if t >= 1 {
                    if let Some(job) = self.jobs[t - 1].as_mut() {
                        job.pending_deletes.push(doc_id);
                    }
                }
                bytes
            }
            Loc::TempTop => {
                let epoch = self.bump_epoch();
                let bytes = self
                    .temp_top
                    .as_mut()
                    .expect("location map out of sync")
                    .delete(doc_id, epoch)
                    .expect("location map out of sync");
                let r = self.r();
                if let Some(job) = self.jobs[r].as_mut() {
                    job.pending_deletes.push(doc_id);
                }
                bytes
            }
            Loc::Top(t) => {
                let epoch = self.bump_epoch();
                let top = self.tops[t].as_mut().expect("location map out of sync");
                let bytes = top.delete(doc_id, epoch).expect("location map out of sync");
                let emptied = top.is_empty();
                // Forward to an in-flight job that snapshotted this top
                // *before* discarding an emptied structure — skipping the
                // forward would resurrect the document at install time.
                if let Some((kind, job)) = self.top_job.as_mut() {
                    if matches!(kind,
                        TopJobKind::Replace(x) | TopJobKind::MergeLrPrime(x) if *x == t)
                        || matches!(kind, TopJobKind::MergeTops(a, b) if *a == t || *b == t)
                    {
                        job.pending_deletes.push(doc_id);
                    }
                }
                if emptied {
                    // A single-document (or fully-emptied) top is discarded.
                    self.tops[t] = None;
                }
                bytes
            }
            Loc::LrPrime => {
                let epoch = self.bump_epoch();
                let bytes = self
                    .lr_prime
                    .as_mut()
                    .expect("location map out of sync")
                    .delete(doc_id, epoch)
                    .expect("location map out of sync");
                // A top job may have snapshotted L'_r; forward the delete.
                if let Some((kind, job)) = self.top_job.as_mut() {
                    if matches!(kind, TopJobKind::FromLrPrime | TopJobKind::MergeLrPrime(_)) {
                        job.pending_deletes.push(doc_id);
                    }
                }
                bytes
            }
        };
        self.n -= bytes.len();
        self.deleted_since_maintenance += bytes.len();
        self.maybe_refresh_schedule();
        self.maybe_run_top_maintenance();
        Some(bytes)
    }

    /// §3 deletion triggers: `C_j` with `max_j/2` dead symbols is locked
    /// and merged upward; `C_r` moves to `L'_r`.
    fn after_cur_deletion(&mut self, i: usize) {
        let Some(cur) = self.levels[i].cur.as_ref() else {
            return;
        };
        if cur.dead_symbols() * 2 < self.schedule.cap(i) {
            return;
        }
        let r = self.r();
        if i < r {
            if self.jobs[i].is_none() && (i == 0 || self.jobs[i - 1].is_none()) {
                self.start_level_merge(i, None);
            }
            // Busy: defer; the running job's install will purge next round.
        } else if self.lr_prime.is_none() && self.jobs[r - 1].is_none() {
            // jobs[r-1] must not be in flight: it snapshotted C_r at spawn
            // and will reinstall those documents into C_r — moving C_r to
            // L'_r underneath it would duplicate them.
            let cur = self.levels[r].cur.take().expect("checked above");
            for id in cur.doc_ids() {
                self.locations.insert(id, Loc::LrPrime);
            }
            self.lr_prime = Some(cur);
        }
    }

    /// Lemma 1 pacing: after every `nf/(2τ log τ)` deleted symbols, run one
    /// top-maintenance step (rebuild the dirtiest top / drain `L'_r`).
    fn maybe_run_top_maintenance(&mut self) {
        let tau = self.options.tau.max(2);
        let log_tau = (tau as f64).log2().max(1.0);
        let delta = ((self.schedule.nf as f64) / (2.0 * tau as f64 * log_tau))
            .ceil()
            .max(self.options.min_capacity as f64) as usize;
        if self.deleted_since_maintenance < delta || self.top_job.is_some() {
            return;
        }
        self.deleted_since_maintenance = 0;
        self.start_top_maintenance();
    }

    fn start_top_maintenance(&mut self) {
        debug_assert!(self.top_job.is_none());
        let unit = self.top_unit();
        // Priority 1: drain L'_r.
        if let Some(lr) = self.lr_prime.as_ref() {
            if lr.alive_symbols() >= unit / 2 {
                // Large enough to stand alone as a new top.
                let docs = lr.export_alive_docs();
                let job = Job::spawn(
                    docs,
                    &self.config,
                    self.options.counting,
                    self.mode,
                    self.metrics.clone(),
                    self.metrics_shard,
                );
                self.top_job = Some((TopJobKind::FromLrPrime, job));
                self.work.jobs_started += 1;
                return;
            }
            // Merge with the largest multi-document top.
            let target = self
                .tops
                .iter()
                .enumerate()
                .filter(|(_, t)| t.as_ref().is_some_and(|t| t.num_docs() > 1))
                .max_by_key(|(_, t)| t.as_ref().map_or(0, |t| t.alive_symbols()))
                .map(|(i, _)| i);
            if let Some(t) = target {
                let mut docs = lr.export_alive_docs();
                docs.extend(
                    self.tops[t]
                        .as_ref()
                        .expect("selected above")
                        .export_alive_docs(),
                );
                let job = Job::spawn(
                    docs,
                    &self.config,
                    self.options.counting,
                    self.mode,
                    self.metrics.clone(),
                    self.metrics_shard,
                );
                self.top_job = Some((TopJobKind::MergeLrPrime(t), job));
                self.work.jobs_started += 1;
                return;
            }
            // No top to merge with: stand alone regardless of size.
            let docs = lr.export_alive_docs();
            if !docs.is_empty() {
                let job = Job::spawn(
                    docs,
                    &self.config,
                    self.options.counting,
                    self.mode,
                    self.metrics.clone(),
                    self.metrics_shard,
                );
                self.top_job = Some((TopJobKind::FromLrPrime, job));
                self.work.jobs_started += 1;
            } else {
                self.lr_prime = None;
            }
            return;
        }
        // Priority 2: keep g = O(τ) by merging the two smallest tops.
        let live_tops: Vec<usize> = self
            .tops
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some())
            .map(|(i, _)| i)
            .collect();
        if live_tops.len() > 2 * self.options.tau {
            let mut by_size: Vec<usize> = live_tops.clone();
            by_size.sort_by_key(|&i| self.tops[i].as_ref().map_or(0, |t| t.alive_symbols()));
            let (a, b) = (by_size[0], by_size[1]);
            let mut docs = self.tops[a].as_ref().expect("live top").export_alive_docs();
            docs.extend(self.tops[b].as_ref().expect("live top").export_alive_docs());
            let job = Job::spawn(
                docs,
                &self.config,
                self.options.counting,
                self.mode,
                self.metrics.clone(),
                self.metrics_shard,
            );
            self.top_job = Some((TopJobKind::MergeTops(a.min(b), a.max(b)), job));
            self.work.jobs_started += 1;
            return;
        }
        // Priority 3: rebuild the top with the most deleted symbols.
        let dirtiest = live_tops
            .into_iter()
            .max_by_key(|&i| self.tops[i].as_ref().map_or(0, |t| t.dead_symbols()));
        if let Some(t) = dirtiest {
            let top = self.tops[t].as_ref().expect("live top");
            if top.dead_symbols() == 0 {
                return;
            }
            let docs = top.export_alive_docs();
            let job = Job::spawn(
                docs,
                &self.config,
                self.options.counting,
                self.mode,
                self.metrics.clone(),
                self.metrics_shard,
            );
            self.top_job = Some((TopJobKind::Replace(t), job));
            self.work.jobs_started += 1;
            self.work.purges += 1;
        }
    }

    /// A.3: keep `nf = Θ(n)` by refreshing the capacity schedule when `n`
    /// leaves `[nf/2, 2nf]`. (Top re-binning is handled lazily by the
    /// maintenance schedule rather than eagerly — see "Rebuild
    /// lifecycle" in `docs/ARCHITECTURE.md`.)
    fn maybe_refresh_schedule(&mut self) {
        let nf = self.schedule.nf.max(self.options.min_capacity);
        if self.n > 2 * nf
            || (self.n * 2 < self.schedule.nf && self.schedule.nf > self.options.min_capacity)
        {
            // A resize changes which (level, target) pairs exist; jobs
            // spawned under the old schedule would install into the wrong
            // place. Refreshes are O(log n)-rare, so synchronously finish
            // all in-flight work first.
            self.finish_background_work();
            self.schedule = CapacitySchedule::new_truncated(self.n, &self.options);
            let want = self.schedule.caps.len();
            while self.levels.len() > want {
                // Structures at vanishing levels migrate to the tops.
                let lvl = self.levels.pop().expect("len checked");
                self.jobs.pop();
                for del in [lvl.cur, lvl.locked, lvl.temp].into_iter().flatten() {
                    if del.is_empty() {
                        continue;
                    }
                    let slot = self.alloc_top_slot();
                    for id in del.doc_ids() {
                        self.locations.insert(id, Loc::Top(slot));
                    }
                    self.tops[slot] = Some(del);
                }
            }
            while self.levels.len() < want {
                self.levels.push(Level::default());
                self.jobs.push(None);
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// All occurrences of `pattern` across alive documents.
    ///
    /// Queries `C0`, every `C_i`, `L_i`, `Temp_i`, every top `T_i`, and
    /// `L'_r` — the paper's `O(τ)` extra range-find cost.
    pub fn find(&self, pattern: &[u8]) -> Vec<Occurrence> {
        self.find_limit(pattern, usize::MAX)
    }

    /// Up to `limit` occurrences of `pattern` — early-terminating locate.
    ///
    /// Structures are visited in a fixed order (`C0`, levels bottom-up,
    /// tops, `TempTop`, `L'_r`) and the scan stops as soon as `limit`
    /// occurrences are in hand, so per-query work is bounded by
    /// `O(τ · range-finding + limit · tlocate)` regardless of how many
    /// occurrences exist. Which occurrences are returned depends on the
    /// internal layout at query time — deterministic under
    /// [`RebuildMode::Inline`], but in `Background` mode it varies with
    /// rebuild-install timing (the *set queried over* is always exact;
    /// only the truncation choice shifts). Sharded callers
    /// (`dyndex-store`) use this to cap per-shard work.
    pub fn find_limit(&self, pattern: &[u8], limit: usize) -> Vec<Occurrence> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        out.extend(self.c0.find(pattern));
        out.truncate(limit);
        if out.len() == limit {
            return out;
        }
        for level in &self.levels {
            for del in [&level.cur, &level.locked, &level.temp]
                .into_iter()
                .flatten()
            {
                out.extend(del.find_limit(pattern, limit - out.len()));
                if out.len() == limit {
                    return out;
                }
            }
        }
        for top in self.tops.iter().flatten() {
            out.extend(top.find_limit(pattern, limit - out.len()));
            if out.len() == limit {
                return out;
            }
        }
        for del in [&self.temp_top, &self.lr_prime].into_iter().flatten() {
            out.extend(del.find_limit(pattern, limit - out.len()));
            if out.len() == limit {
                return out;
            }
        }
        out
    }

    /// Counts occurrences of `pattern`.
    pub fn count(&self, pattern: &[u8]) -> usize {
        let mut total = self.c0.count(pattern);
        for level in &self.levels {
            for del in [&level.cur, &level.locked, &level.temp]
                .into_iter()
                .flatten()
            {
                total += del.count(pattern);
            }
        }
        for top in self.tops.iter().flatten() {
            total += top.count(pattern);
        }
        for del in [&self.temp_top, &self.lr_prime].into_iter().flatten() {
            total += del.count(pattern);
        }
        total
    }

    /// Extracts up to `len` bytes of a document from `offset`.
    pub fn extract(&self, doc_id: u64, offset: usize, len: usize) -> Option<Vec<u8>> {
        match *self.locations.get(&doc_id)? {
            Loc::C0 => {
                let bytes = self.c0.doc_bytes(doc_id)?;
                let a = offset.min(bytes.len());
                let b = (offset + len).min(bytes.len());
                Some(bytes[a..b].to_vec())
            }
            Loc::Cur(i) => self.levels[i].cur.as_ref()?.extract(doc_id, offset, len),
            Loc::Locked(i) => self.levels[i].locked.as_ref()?.extract(doc_id, offset, len),
            Loc::Temp(i) => self.levels[i].temp.as_ref()?.extract(doc_id, offset, len),
            Loc::TempTop => self.temp_top.as_ref()?.extract(doc_id, offset, len),
            Loc::Top(t) => self.tops[t].as_ref()?.extract(doc_id, offset, len),
            Loc::LrPrime => self.lr_prime.as_ref()?.extract(doc_id, offset, len),
        }
    }

    /// Blocks until every background job has been installed (tests and
    /// shutdown paths).
    pub fn finish_background_work(&mut self) {
        for j in 0..self.jobs.len() {
            self.force_level_job(j);
        }
        if self.top_job.is_some() {
            self.install_top_job();
        }
    }

    /// Installs every *finished* background job without blocking on
    /// unfinished ones, then returns the number still in flight.
    ///
    /// Foreground operations already do this at their start; a dedicated
    /// maintenance thread (see `dyndex-store`) calls it to keep installs
    /// off the query path entirely.
    pub fn poll_background_work(&mut self) -> usize {
        self.poll_jobs();
        self.pending_jobs()
    }

    /// Number of background jobs currently in flight (level rebuilds plus
    /// the top-maintenance job).
    pub fn pending_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_some()).count() + usize::from(self.top_job.is_some())
    }

    /// Census of every live structure (the Figure 2 harness).
    pub fn structure_stats(&self) -> Vec<LevelStats> {
        let mut out = vec![LevelStats {
            name: "C0".into(),
            capacity: self.schedule.cap(0),
            alive_symbols: self.c0.symbol_count(),
            dead_symbols: self.c0.retained_dead_symbols(),
            docs: self.c0.num_docs(),
        }];
        let push =
            |out: &mut Vec<LevelStats>, name: String, cap: usize, del: &DeletionOnlyIndex<I>| {
                out.push(LevelStats {
                    name,
                    capacity: cap,
                    alive_symbols: del.alive_symbols(),
                    dead_symbols: del.dead_symbols(),
                    docs: del.num_docs(),
                });
            };
        for (i, level) in self.levels.iter().enumerate().skip(1) {
            if let Some(c) = &level.cur {
                push(&mut out, format!("C{i}"), self.schedule.cap(i), c);
            }
            if let Some(l) = &level.locked {
                push(&mut out, format!("L{i}"), self.schedule.cap(i), l);
            }
            if let Some(t) = &level.temp {
                push(&mut out, format!("Temp{i}"), 0, t);
            }
        }
        for (t, top) in self.tops.iter().enumerate() {
            if let Some(tt) = top {
                push(&mut out, format!("T{}", t + 1), 4 * self.top_unit(), tt);
            }
        }
        if let Some(lr) = &self.lr_prime {
            push(&mut out, "L'r".into(), self.schedule.cap(self.r()), lr);
        }
        if let Some(tt) = &self.temp_top {
            push(&mut out, "TempTop".into(), 0, tt);
        }
        out
    }

    /// Captures an immutable, shareable [`ShardView`] of the current
    /// queryable state.
    ///
    /// Cost is O(levels) `Arc` clones plus — only when `C0` changed since
    /// the previous call — one `C0` copy (`C0` is the one genuinely
    /// mutable structure, and it is capacity-bounded, so the copy is
    /// small). Everything else is already an [`Arc`]'d epoch-stamped
    /// structure: later delete-bitmap mutations on the live index go
    /// through [`Arc::make_mut`], so the view keeps the pre-mutation
    /// version at copy-on-write cost.
    ///
    /// Each call stamps a strictly increasing [`ShardView::epoch`].
    ///
    /// ```
    /// use dyndex_core::{DynOptions, FmConfig, RebuildMode, Transform2Index};
    /// use dyndex_text::FmIndexPlain;
    ///
    /// let mut index: Transform2Index<FmIndexPlain> = Transform2Index::new(
    ///     FmConfig { sample_rate: 4 },
    ///     DynOptions::default(),
    ///     RebuildMode::Inline,
    /// );
    /// index.insert(1, b"immutable views");
    /// let view = index.snapshot_view();
    /// index.insert(2, b"later writes are invisible to the view");
    /// assert_eq!(view.count(b"view"), 1);
    /// assert_eq!(index.count(b"view"), 2);
    /// assert!(index.snapshot_view().epoch() > view.epoch());
    /// ```
    pub fn snapshot_view(&mut self) -> ShardView<I> {
        self.view_seq += 1;
        let c0 = match &self.c0_frozen {
            Some((version, frozen)) if *version == self.c0_version => {
                if let Some(m) = &self.metrics {
                    m.c0_freeze_reused.inc();
                }
                Arc::clone(frozen)
            }
            _ => {
                if let Some(m) = &self.metrics {
                    m.c0_freeze_copies.inc();
                }
                let frozen = Arc::new(self.c0.clone());
                self.c0_frozen = Some((self.c0_version, Arc::clone(&frozen)));
                frozen
            }
        };
        let mut structures = Vec::new();
        for (i, level) in self.levels.iter().enumerate() {
            for (slot, stamped) in [
                (ViewSlot::Cur(i), &level.cur),
                (ViewSlot::Locked(i), &level.locked),
                (ViewSlot::Temp(i), &level.temp),
            ] {
                if let Some(s) = stamped {
                    let capacity = match slot {
                        ViewSlot::Temp(_) => 0,
                        _ => self.schedule.cap(i),
                    };
                    structures.push(ViewStructure {
                        slot,
                        capacity,
                        index: Arc::clone(&s.index),
                    });
                }
            }
        }
        for (t, top) in self.tops.iter().enumerate() {
            if let Some(tt) = top {
                structures.push(ViewStructure {
                    slot: ViewSlot::Top(t),
                    capacity: 4 * self.top_unit(),
                    index: Arc::clone(&tt.index),
                });
            }
        }
        if let Some(tt) = &self.temp_top {
            structures.push(ViewStructure {
                slot: ViewSlot::TempTop,
                capacity: 0,
                index: Arc::clone(&tt.index),
            });
        }
        if let Some(lr) = &self.lr_prime {
            structures.push(ViewStructure {
                slot: ViewSlot::LrPrime,
                capacity: self.schedule.cap(self.r()),
                index: Arc::clone(&lr.index),
            });
        }
        ShardView {
            c0,
            structures,
            c0_capacity: self.schedule.cap(0),
            num_docs: self.locations.len(),
            symbols: self.n,
            pending_jobs: self.pending_jobs(),
            heap_bytes: self.heap_bytes(),
            epoch: self.view_seq,
        }
    }

    // ------------------------------------------------------------------
    // Persistence (freeze / thaw)
    // ------------------------------------------------------------------

    /// The build configuration (persistence manifest).
    #[doc(hidden)]
    pub fn persist_config(&self) -> &I::Config {
        &self.config
    }

    /// The dynamization options (persistence manifest).
    #[doc(hidden)]
    pub fn persist_options(&self) -> &DynOptions {
        &self.options
    }

    /// Owned decomposition for snapshotting — O(levels) `Arc` clones and
    /// a `C0` export, so the caller's lock on this index is needed only
    /// for the duration of this call, never across serialization.
    /// Returns `None` unless the index is fully quiesced (run
    /// [`Transform2Index::finish_background_work`] first): any in-flight
    /// job, locked copy, or temp index means the state is mid-rebuild
    /// and not snapshotable.
    #[doc(hidden)]
    pub fn freeze(&self) -> Option<FrozenSnapshot<I>> {
        let quiesced = self.jobs.iter().all(|j| j.is_none())
            && self.top_job.is_none()
            && self.temp_top.is_none()
            && self
                .levels
                .iter()
                .all(|l| l.locked.is_none() && l.temp.is_none());
        if !quiesced {
            return None;
        }
        debug_assert!(self.levels[0].cur.is_none(), "level 0 holds no C_i");
        let mut levels = Vec::new();
        for (i, l) in self.levels.iter().enumerate().skip(1) {
            if let Some(c) = &l.cur {
                levels.push(FrozenLevel {
                    slot: FrozenSlot::Level(i),
                    epoch: c.epoch,
                    index: Arc::clone(&c.index),
                });
            }
        }
        for (t, top) in self.tops.iter().enumerate() {
            if let Some(tt) = top {
                levels.push(FrozenLevel {
                    slot: FrozenSlot::Top(t),
                    epoch: tt.epoch,
                    index: Arc::clone(&tt.index),
                });
            }
        }
        if let Some(lr) = &self.lr_prime {
            levels.push(FrozenLevel {
                slot: FrozenSlot::LrPrime,
                epoch: lr.epoch,
                index: Arc::clone(&lr.index),
            });
        }
        Some(FrozenSnapshot {
            c0_docs: self.c0.export_docs_by_age(),
            num_levels: self.levels.len(),
            num_top_slots: self.tops.len(),
            levels,
            nf: self.schedule.nf,
            n: self.n,
            deleted_since_maintenance: self.deleted_since_maintenance,
            epoch_counter: self.level_epoch,
        })
    }

    /// Rebuilds an index from a frozen snapshot (persistence decode
    /// path). The capacity schedule, location map, and `C0` suffix tree
    /// are all re-derived; `options` must match the ones the snapshot
    /// was taken under (the persistence manifest records them). The
    /// epoch counter resumes strictly above every frozen epoch, so a
    /// restored index keeps producing reusable delta snapshots. Returns
    /// `Err` (never panics) on structurally inconsistent input.
    #[doc(hidden)]
    pub fn thaw(
        config: I::Config,
        options: DynOptions,
        mode: RebuildMode,
        parts: FrozenSnapshot<I>,
    ) -> Result<Self, String> {
        let schedule = CapacitySchedule::new_truncated(parts.nf, &options);
        if schedule.caps.len() != parts.num_levels {
            return Err(format!(
                "schedule mismatch: snapshot has {} levels, options derive {}",
                parts.num_levels,
                schedule.caps.len()
            ));
        }
        let mut locations: HashMap<u64, Loc> = HashMap::new();
        let mut track = |id: u64, loc: Loc| -> Result<(), String> {
            match locations.insert(id, loc) {
                None => Ok(()),
                Some(_) => Err(format!("document {id} appears in two structures")),
            }
        };
        for (id, _) in &parts.c0_docs {
            track(*id, Loc::C0)?;
        }
        let mut levels: Vec<Level<I>> = (0..parts.num_levels).map(|_| Level::default()).collect();
        let mut tops: Vec<Option<Stamped<I>>> = (0..parts.num_top_slots).map(|_| None).collect();
        let mut lr_prime: Option<Stamped<I>> = None;
        let mut level_epoch = parts.epoch_counter;
        for entry in parts.levels {
            level_epoch = level_epoch.max(entry.epoch);
            let stamped = Stamped {
                index: entry.index,
                epoch: entry.epoch,
            };
            match entry.slot {
                FrozenSlot::Level(i) => {
                    if i == 0 || i >= parts.num_levels {
                        return Err(format!("level index {i} out of range"));
                    }
                    for id in stamped.doc_ids() {
                        track(id, Loc::Cur(i))?;
                    }
                    if levels[i].cur.replace(stamped).is_some() {
                        return Err(format!("level {i} appears twice"));
                    }
                }
                FrozenSlot::Top(t) => {
                    if t >= parts.num_top_slots {
                        return Err(format!("top slot {t} out of range"));
                    }
                    for id in stamped.doc_ids() {
                        track(id, Loc::Top(t))?;
                    }
                    if tops[t].replace(stamped).is_some() {
                        return Err(format!("top slot {t} appears twice"));
                    }
                }
                FrozenSlot::LrPrime => {
                    for id in stamped.doc_ids() {
                        track(id, Loc::LrPrime)?;
                    }
                    if lr_prime.replace(stamped).is_some() {
                        return Err("L'_r appears twice".into());
                    }
                }
            }
        }
        let mut c0 = SuffixTree::new();
        for (id, bytes) in &parts.c0_docs {
            c0.insert(*id, bytes);
        }
        let mut total = c0.symbol_count();
        for level in &levels {
            total += level.cur.as_ref().map_or(0, |c| c.alive_symbols());
        }
        for top in tops.iter().flatten() {
            total += top.alive_symbols();
        }
        total += lr_prime.as_ref().map_or(0, |l| l.alive_symbols());
        if total != parts.n {
            return Err(format!(
                "symbol accounting mismatch: structures hold {total}, snapshot says {}",
                parts.n
            ));
        }
        let jobs = (0..parts.num_levels).map(|_| None).collect();
        Ok(Transform2Index {
            c0,
            levels,
            jobs,
            tops,
            temp_top: None,
            lr_prime,
            top_job: None,
            schedule,
            config,
            options,
            mode,
            locations,
            n: parts.n,
            deleted_since_maintenance: parts.deleted_since_maintenance,
            level_epoch,
            c0_version: 0,
            c0_frozen: None,
            view_seq: 0,
            work: UpdateWork::default(),
            metrics: None,
            metrics_shard: NO_SHARD_HINT,
        })
    }

    /// Validates the §3 invariants.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert!(
            self.c0.symbol_count() <= self.schedule.cap(0),
            "C0 over capacity"
        );
        let mut total = self.c0.symbol_count();
        for level in &self.levels {
            for del in [&level.cur, &level.locked, &level.temp]
                .into_iter()
                .flatten()
            {
                total += del.alive_symbols();
            }
        }
        for top in self.tops.iter().flatten() {
            total += top.alive_symbols();
        }
        for del in [&self.temp_top, &self.lr_prime].into_iter().flatten() {
            total += del.alive_symbols();
        }
        assert_eq!(total, self.n, "symbol accounting out of sync");
        for (&id, &loc) in &self.locations {
            let present = match loc {
                Loc::C0 => self.c0.contains_doc(id),
                Loc::Cur(i) => self.levels[i].cur.as_ref().is_some_and(|d| d.contains(id)),
                Loc::Locked(i) => self.levels[i]
                    .locked
                    .as_ref()
                    .is_some_and(|d| d.contains(id)),
                Loc::Temp(i) => self.levels[i].temp.as_ref().is_some_and(|d| d.contains(id)),
                Loc::TempTop => self.temp_top.as_ref().is_some_and(|d| d.contains(id)),
                Loc::Top(t) => self.tops[t].as_ref().is_some_and(|d| d.contains(id)),
                Loc::LrPrime => self.lr_prime.as_ref().is_some_and(|d| d.contains(id)),
            };
            assert!(present, "{id} missing from {loc:?}");
        }
    }
}

impl<I: StaticIndex> SpaceUsage for Transform2Index<I> {
    fn heap_bytes(&self) -> usize {
        let mut sum = self.c0.heap_bytes();
        for level in &self.levels {
            for del in [&level.cur, &level.locked, &level.temp]
                .into_iter()
                .flatten()
            {
                sum += del.heap_bytes();
            }
        }
        for top in self.tops.iter().flatten() {
            sum += top.heap_bytes();
        }
        for del in [&self.temp_top, &self.lr_prime].into_iter().flatten() {
            sum += del.heap_bytes();
        }
        sum + self.locations.len() * 24
    }
}

/// Which Transformation-2 slot a [`ShardView`] structure was captured
/// from (drives the census names and ordering).
#[derive(Clone, Copy, Debug)]
enum ViewSlot {
    Cur(usize),
    Locked(usize),
    Temp(usize),
    Top(usize),
    TempTop,
    LrPrime,
}

/// One captured static structure inside a [`ShardView`].
struct ViewStructure<I: StaticIndex> {
    slot: ViewSlot,
    capacity: usize,
    index: Arc<DeletionOnlyIndex<I>>,
}

impl<I: StaticIndex> ViewStructure<I> {
    fn name(&self) -> String {
        match self.slot {
            ViewSlot::Cur(i) => format!("C{i}"),
            ViewSlot::Locked(i) => format!("L{i}"),
            ViewSlot::Temp(i) => format!("Temp{i}"),
            ViewSlot::Top(t) => format!("T{}", t + 1),
            ViewSlot::TempTop => "TempTop".into(),
            ViewSlot::LrPrime => "L'r".into(),
        }
    }
}

/// An immutable, shareable snapshot of one [`Transform2Index`]'s
/// queryable state — the unit the sharded store (`dyndex-store`)
/// publishes as an `Arc` behind its own lock so readers never take the
/// shard's index lock.
///
/// A view holds `Arc` handles to every static structure (levels `C_i`,
/// locked copies `L_i`, temp indexes, tops `T_1..T_g`, `L'_r`) plus a
/// frozen copy of the small mutable `C0` buffer, in the exact
/// query-traversal order of [`Transform2Index::find_limit`]. Queries
/// against the view therefore answer **byte-identically** to the index
/// at the instant [`Transform2Index::snapshot_view`] was called, and
/// stay valid — and internally consistent — no matter what the live
/// index does afterwards (deletes copy-on-write via [`Arc::make_mut`],
/// installs swap whole `Arc`s).
///
/// Views are cheap to capture (see [`Transform2Index::snapshot_view`])
/// and carry a strictly increasing [`ShardView::epoch`], which readers
/// use to assert publication monotonicity.
pub struct ShardView<I: StaticIndex> {
    c0: Arc<SuffixTree>,
    /// All captured structures in query-traversal order.
    structures: Vec<ViewStructure<I>>,
    c0_capacity: usize,
    num_docs: usize,
    symbols: usize,
    pending_jobs: usize,
    heap_bytes: usize,
    epoch: u64,
}

impl<I: StaticIndex> ShardView<I> {
    /// All occurrences of `pattern` — same traversal as
    /// [`Transform2Index::find`].
    pub fn find(&self, pattern: &[u8]) -> Vec<Occurrence> {
        self.find_limit(pattern, usize::MAX)
    }

    /// Up to `limit` occurrences — same early-terminating traversal as
    /// [`Transform2Index::find_limit`].
    pub fn find_limit(&self, pattern: &[u8], limit: usize) -> Vec<Occurrence> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        out.extend(self.c0.find(pattern));
        out.truncate(limit);
        if out.len() == limit {
            return out;
        }
        for s in &self.structures {
            out.extend(s.index.find_limit(pattern, limit - out.len()));
            if out.len() == limit {
                return out;
            }
        }
        out
    }

    /// Counts occurrences of `pattern`.
    pub fn count(&self, pattern: &[u8]) -> usize {
        let mut total = self.c0.count(pattern);
        for s in &self.structures {
            total += s.index.count(pattern);
        }
        total
    }

    /// Whether `doc_id` was alive when the view was captured.
    pub fn contains(&self, doc_id: u64) -> bool {
        self.c0.contains_doc(doc_id) || self.structures.iter().any(|s| s.index.contains(doc_id))
    }

    /// Extracts up to `len` bytes of a document from `offset`, as of the
    /// capture instant.
    pub fn extract(&self, doc_id: u64, offset: usize, len: usize) -> Option<Vec<u8>> {
        if let Some(bytes) = self.c0.doc_bytes(doc_id) {
            let a = offset.min(bytes.len());
            let b = (offset + len).min(bytes.len());
            return Some(bytes[a..b].to_vec());
        }
        self.structures
            .iter()
            .find_map(|s| s.index.extract(doc_id, offset, len))
    }

    /// Number of alive documents at capture.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Total alive bytes at capture.
    pub fn symbol_count(&self) -> usize {
        self.symbols
    }

    /// Background jobs in flight at capture.
    pub fn pending_jobs(&self) -> usize {
        self.pending_jobs
    }

    /// The strictly increasing publication counter this view was stamped
    /// with (monotone per index — readers use it to assert they never
    /// observe an older view after a newer one).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Census of every captured structure — same rows and order as
    /// [`Transform2Index::structure_stats`] at the capture instant.
    pub fn structure_stats(&self) -> Vec<LevelStats> {
        let mut out = vec![LevelStats {
            name: "C0".into(),
            capacity: self.c0_capacity,
            alive_symbols: self.c0.symbol_count(),
            dead_symbols: self.c0.retained_dead_symbols(),
            docs: self.c0.num_docs(),
        }];
        let row = |s: &ViewStructure<I>| LevelStats {
            name: s.name(),
            capacity: s.capacity,
            alive_symbols: s.index.alive_symbols(),
            dead_symbols: s.index.dead_symbols(),
            docs: s.index.num_docs(),
        };
        // The live census lists L'_r before TempTop (the reverse of query
        // order); reproduce that exactly.
        for s in &self.structures {
            if !matches!(s.slot, ViewSlot::TempTop | ViewSlot::LrPrime) {
                out.push(row(s));
            }
        }
        for s in &self.structures {
            if matches!(s.slot, ViewSlot::LrPrime) {
                out.push(row(s));
            }
        }
        for s in &self.structures {
            if matches!(s.slot, ViewSlot::TempTop) {
                out.push(row(s));
            }
        }
        out
    }
}

impl<I: StaticIndex> SpaceUsage for ShardView<I> {
    /// Heap bytes of the captured state (recorded at capture; the view
    /// shares, not duplicates, the live structures).
    fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }
}

impl<I: StaticIndex> std::fmt::Debug for ShardView<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardView")
            .field("epoch", &self.epoch)
            .field("num_docs", &self.num_docs)
            .field("symbols", &self.symbols)
            .field("structures", &self.structures.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveIndex;
    use crate::traits::FmConfig;
    use dyndex_succinct::HuffmanWavelet;
    use dyndex_text::FmIndex;

    type Dyn2 = Transform2Index<FmIndex<HuffmanWavelet>>;

    fn opts() -> DynOptions {
        DynOptions {
            min_capacity: 32,
            tau: 4,
            ..DynOptions::default()
        }
    }

    fn assert_matches(idx: &Dyn2, naive: &NaiveIndex, patterns: &[&[u8]]) {
        for &p in patterns {
            let mut got = idx.find(p);
            got.sort();
            let want = naive.find(p);
            assert_eq!(got, want, "pattern {:?}", String::from_utf8_lossy(p));
            assert_eq!(
                idx.count(p),
                want.len(),
                "count {:?}",
                String::from_utf8_lossy(p)
            );
        }
    }

    fn churn(mode: RebuildMode, steps: u64, check_every: u64) {
        let mut idx = Dyn2::new(FmConfig { sample_rate: 4 }, opts(), mode);
        let mut naive = NaiveIndex::new();
        let mut state = 0xABCDEF0123456789u64;
        let mut live: Vec<u64> = Vec::new();
        for step in 0..steps {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            if !r.is_multiple_of(3) || live.is_empty() {
                let id = 10_000 + step;
                let doc = format!(
                    "record {step} payload {} tail",
                    "xyzxy".repeat((r % 9) as usize)
                );
                idx.insert(id, doc.as_bytes());
                naive.insert(id, doc.as_bytes());
                live.push(id);
            } else {
                let pick = (r as usize / 3) % live.len();
                let id = live.swap_remove(pick);
                assert_eq!(idx.delete(id), naive.delete(id), "step {step}");
            }
            if step % check_every == 0 {
                if mode == RebuildMode::Inline {
                    idx.check_invariants();
                }
                assert_matches(&idx, &naive, &[b"xyzxy", b"record 1", b"payload", b"zx"]);
            }
        }
        idx.finish_background_work();
        idx.check_invariants();
        assert_matches(&idx, &naive, &[b"xyzxy", b"record", b"tail"]);
        assert!(idx.work().jobs_started >= 1, "background jobs must run");
        assert_eq!(idx.work().jobs_started, idx.work().jobs_completed);
    }

    #[test]
    fn inline_churn_matches_naive() {
        churn(RebuildMode::Inline, 250, 23);
    }

    #[test]
    fn background_churn_matches_naive() {
        churn(RebuildMode::Background, 150, 29);
    }

    #[test]
    fn huge_doc_becomes_top() {
        let mut idx = Dyn2::new(FmConfig { sample_rate: 8 }, opts(), RebuildMode::Inline);
        let big = "mammoth ".repeat(100);
        idx.insert(1, big.as_bytes());
        idx.check_invariants();
        assert_eq!(idx.count(b"mammoth"), 100);
        let stats = idx.structure_stats();
        assert!(
            stats
                .iter()
                .any(|s| s.name.starts_with('T') && s.alive_symbols > 0),
            "huge doc must land in a top collection: {stats:?}"
        );
        assert_eq!(idx.delete(1).map(|b| b.len()), Some(big.len()));
        assert_eq!(idx.count(b"mammoth"), 0);
        idx.check_invariants();
    }

    #[test]
    fn queries_during_background_job() {
        let mut idx = Dyn2::new(FmConfig { sample_rate: 4 }, opts(), RebuildMode::Background);
        let mut naive = NaiveIndex::new();
        for i in 0..50u64 {
            let doc = format!("steady stream of words number {i}");
            idx.insert(i, doc.as_bytes());
            naive.insert(i, doc.as_bytes());
            // Query immediately — jobs may be mid-flight.
            assert_eq!(idx.count(b"stream"), naive.count(b"stream"), "at {i}");
        }
        idx.finish_background_work();
        idx.check_invariants();
        assert_matches(&idx, &naive, &[b"stream", b"number 4", b"words"]);
    }

    #[test]
    fn deletion_heavy_workload_purges_tops() {
        let mut idx = Dyn2::new(FmConfig { sample_rate: 4 }, opts(), RebuildMode::Inline);
        let mut naive = NaiveIndex::new();
        for i in 0..120u64 {
            let doc = format!("bulk item {i} {}", "fill".repeat(4));
            idx.insert(i, doc.as_bytes());
            naive.insert(i, doc.as_bytes());
        }
        for i in 0..100u64 {
            assert_eq!(idx.delete(i), naive.delete(i), "delete {i}");
        }
        idx.finish_background_work();
        idx.check_invariants();
        assert_matches(&idx, &naive, &[b"bulk", b"item 10", b"fill"]);
        // Deletion-heavy workloads must trigger background maintenance.
        assert!(idx.work().jobs_started > 0 || idx.work().purges > 0);
    }

    /// Options for the in-flight-job regression tests: `min_capacity`
    /// large enough that deleting everything never triggers a schedule
    /// refresh (whose `finish_background_work` would join — and deadlock
    /// on — the deliberately-blocked job).
    fn inflight_opts() -> DynOptions {
        DynOptions {
            min_capacity: 4096,
            tau: 4,
            ..DynOptions::default()
        }
    }

    /// Builds a genuinely in-flight purge job for top `t`: the build
    /// thread blocks until the returned sender fires, so the job stays
    /// unfinished (and uninstallable by `poll_jobs`) for as long as the
    /// test needs — deterministic, no timing dependence.
    fn blocked_inflight_replace(
        idx: &Dyn2,
        t: usize,
    ) -> (
        (TopJobKind, Job<FmIndex<HuffmanWavelet>>),
        std::sync::mpsc::Sender<()>,
    ) {
        let docs = idx.tops[t].as_ref().expect("live top").export_alive_docs();
        let symbols = docs.iter().map(|(_, d)| d.len()).sum();
        let config = idx.config;
        let counting = idx.options.counting;
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            rx.recv().expect("test unblocks the job");
            let refs: Vec<(u64, &[u8])> = docs.iter().map(|(id, d)| (*id, d.as_slice())).collect();
            DeletionOnlyIndex::build(&refs, &config, counting)
        });
        (
            (
                TopJobKind::Replace(t),
                Job {
                    handle: Some(handle),
                    ready: None,
                    pending_deletes: Vec::new(),
                    symbols,
                },
            ),
            tx,
        )
    }

    /// Regression: deleting the last document of a top while a purge job
    /// for that top is in flight must forward the deletion to the job —
    /// the empty-top discard path used to skip it, so the install
    /// resurrected the document (seen as phantom `find` hits in the
    /// Background soak test).
    #[test]
    fn delete_emptying_top_mid_job_does_not_resurrect() {
        let mut idx = Dyn2::new(
            FmConfig { sample_rate: 4 },
            inflight_opts(),
            RebuildMode::Background,
        );
        let big = "solo mammoth document ".repeat(200);
        idx.insert(1, big.as_bytes());
        let t = idx
            .tops
            .iter()
            .position(|t| t.is_some())
            .expect("huge doc lands in a top");
        let (job, unblock) = blocked_inflight_replace(&idx, t);
        idx.top_job = Some(job);
        assert_eq!(idx.delete(1).map(|b| b.len()), Some(big.len()));
        unblock.send(()).expect("job thread alive");
        idx.finish_background_work();
        assert_eq!(idx.count(b"mammoth"), 0, "install must not resurrect doc 1");
        assert!(idx.find(b"mammoth").is_empty());
        assert!(!idx.contains(1));
        idx.check_invariants();
    }

    /// Regression: a top slot emptied mid-job stays reserved until the
    /// job installs — handing it to a new top would let the install
    /// overwrite (Replace/Merge target) or clear (MergeTops source) the
    /// newcomer, silently dropping its documents.
    #[test]
    fn top_slot_reserved_while_job_in_flight() {
        let mut idx = Dyn2::new(
            FmConfig { sample_rate: 4 },
            inflight_opts(),
            RebuildMode::Background,
        );
        let big = "solo mammoth document ".repeat(200);
        idx.insert(1, big.as_bytes());
        let t = idx
            .tops
            .iter()
            .position(|t| t.is_some())
            .expect("huge doc lands in a top");
        let (job, unblock) = blocked_inflight_replace(&idx, t);
        idx.top_job = Some(job);
        // Empties (and discards) top `t` while the job is in flight.
        idx.delete(1);
        assert!(idx.tops[t].is_none(), "emptied top must be discarded");
        // A new huge document must not be placed in the reserved slot.
        let other = "fresh walrus corpus ".repeat(250);
        idx.insert(2, other.as_bytes());
        assert_eq!(idx.count(b"walrus"), 250);
        unblock.send(()).expect("job thread alive");
        idx.finish_background_work();
        assert_eq!(
            idx.count(b"walrus"),
            250,
            "install must not clobber the new top"
        );
        assert_eq!(idx.count(b"mammoth"), 0);
        idx.check_invariants();
    }

    #[test]
    fn find_limit_truncates_and_agrees_with_find() {
        let mut idx = Dyn2::new(FmConfig { sample_rate: 4 }, opts(), RebuildMode::Inline);
        for i in 0..60u64 {
            let doc = format!("alpha beta gamma {i} alpha");
            idx.insert(i, doc.as_bytes());
        }
        idx.finish_background_work();
        let all = idx.find(b"alpha");
        assert_eq!(all.len(), 120);
        // No limit: identical to find (find delegates to find_limit).
        assert_eq!(idx.find_limit(b"alpha", usize::MAX), all);
        assert!(idx.find_limit(b"alpha", 0).is_empty());
        for k in [1usize, 7, 119, 120, 500] {
            let capped = idx.find_limit(b"alpha", k);
            assert_eq!(capped.len(), k.min(all.len()), "limit {k}");
            // Every reported occurrence is a real one.
            for occ in &capped {
                assert!(all.contains(occ), "phantom occurrence {occ:?}");
            }
        }
        assert!(idx.find_limit(b"absent", 10).is_empty());
    }

    #[test]
    fn poll_background_work_installs_finished_jobs() {
        let mut idx = Dyn2::new(FmConfig { sample_rate: 4 }, opts(), RebuildMode::Inline);
        for i in 0..80u64 {
            idx.insert(i, format!("steady polling workload {i}").as_bytes());
        }
        // Inline jobs are ready at spawn: one poll installs everything.
        assert_eq!(idx.poll_background_work(), 0);
        assert_eq!(idx.pending_jobs(), 0);
        assert_eq!(idx.work().jobs_started, idx.work().jobs_completed);
        idx.check_invariants();
    }

    #[test]
    fn empty_index_queries() {
        let idx = Dyn2::new(FmConfig { sample_rate: 4 }, opts(), RebuildMode::Inline);
        assert_eq!(idx.count(b"anything"), 0);
        assert!(idx.find(b"anything").is_empty());
        assert_eq!(idx.num_docs(), 0);
    }
}
