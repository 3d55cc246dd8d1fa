//! Store-level snapshots: per-level content files shared across
//! generations, one small per-shard "meta" file, and a manifest —
//! written temp-then-rename so a crash at any point leaves the previous
//! consistent snapshot readable.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/MANIFEST                               framed Manifest (written LAST)
//! <dir>/shard-g00000003-0000.bin               per-shard meta, generation 3
//! <dir>/shard-g00000003-0001.bin               (C0 docs + scheduling scalars)
//! <dir>/level-g00000002-0000-e000000000000002a.bin   level content files,
//! <dir>/level-g00000003-0001-e0000000000000031.bin   named by the generation
//! <dir>/wal/shard-0000.wal                     that *wrote* them + (shard, epoch)
//! ```
//!
//! ## Delta snapshots
//!
//! Every installed static structure carries a monotone per-shard **level
//! epoch** (bumped on rebuild install, merge, and delete-bitmap
//! mutation — see `dyndex_core::transform2`), so two structures with the
//! same `(shard, epoch)` are byte-identical. A snapshot therefore
//! serializes only levels whose epoch has no committed content file yet;
//! for the rest it copies the previous generation's manifest entry
//! verbatim — the file on disk is simply *kept*. A store where only a
//! minority of shards changed between snapshots re-writes only those
//! shards' changed levels, never the whole store.
//!
//! ## Crash atomicity
//!
//! New content files never overwrite files the committed manifest points
//! to (fresh files carry the new generation in their name; reused
//! entries keep their original names). The manifest is replaced last via
//! write-to-temp-then-rename, followed by a **mandatory** parent-
//! directory fsync — the commit point that also makes every earlier
//! rename in the same directory durable against power loss. Only after
//! the commit are unreferenced files garbage-collected. A kill between
//! any two steps restores from the last committed manifest with all of
//! its (possibly shared) content files intact.
//!
//! ## The snapshot never stalls the store
//!
//! A snapshot quiesces and freezes one shard at a time — each shard's
//! write lock is held only for an O(levels) `Arc` clone, and no two
//! shard locks are ever held together — then serializes the frozen
//! structures off-lock on the store's resident worker pool (inline when
//! no pool exists). Queries never wait on any of it. The cut is
//! per-shard: shard `i` is captured at the instant it is frozen;
//! `DurableStore` holds its WAL locks across the snapshot, which makes
//! the cut cross-shard consistent there.

use crate::codec::{
    crc32, decode_framed, encode_framed, read_frame, read_str, read_u16, read_u32, read_u64,
    read_u8, read_usize, sync_dir, write_file_atomic, write_frame, write_str, write_u16, write_u32,
    write_u64, write_u8, write_usize, Persist,
};
use crate::core_impls::{read_shard_meta, write_shard_meta};
use crate::error::PersistError;
use crate::wal::{read_wal_records, wal_path, WalOptions, WalRecord};
use dyndex_core::transform2::{FrozenLevel, FrozenSlot, FrozenSnapshot};
use dyndex_core::{DeletionOnlyIndex, DynOptions, RebuildMode, StaticIndex, Transform2Index};
use dyndex_obs::{Span, SpanKind};
use dyndex_store::{MaintenancePolicy, ShardedStore, Telemetry};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The manifest's file name inside a snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Routing algorithm id for SplitMix64 hash routing (the only one).
pub const ROUTE_SPLITMIX64: u16 = 1;
/// `wal_seq` sentinel: this snapshot was written without a write-ahead
/// log, so restore must not replay one.
pub const NO_WAL: u64 = u64::MAX;

/// Manifest frame tag. Distinct from the pre-delta manifest tag
/// (`0x00AA`), so a directory written by the old whole-shard format
/// fails restore with a typed `WrongType` error instead of mis-decoding.
const TAG_MANIFEST: u16 = 0x00AC;
/// Per-shard meta file tag (C0 documents + scheduling scalars).
const TAG_SHARD_META: u16 = 0x00AD;
/// Per-level content file tag (one serialized static structure).
const TAG_LEVEL: u16 = 0x00AE;

/// One file as recorded by the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardFileEntry {
    /// File name relative to the snapshot directory.
    pub file: String,
    /// Exact byte length.
    pub bytes: u64,
    /// CRC-32 of the whole file.
    pub crc32: u32,
}

/// One static structure's content file: its slot in the Transformation-2
/// layout, the level epoch it serializes, and the file entry. Entries
/// whose epoch is unchanged are carried verbatim into the next
/// generation's manifest instead of being re-serialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelFileEntry {
    /// Where the structure sits (level `C_i`, top slot, or `L'_r`).
    pub slot: FrozenSlot,
    /// The level epoch the file's content was stamped with.
    pub epoch: u64,
    /// The content file.
    pub entry: ShardFileEntry,
}

/// One shard's file set: the per-generation meta file plus one content
/// file per populated static structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// C0 documents + scheduling scalars (rewritten every generation).
    pub meta: ShardFileEntry,
    /// Content files, possibly shared with earlier generations.
    pub levels: Vec<LevelFileEntry>,
}

/// The snapshot manifest: everything needed to validate and reassemble
/// a store, written last for crash atomicity.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Monotone snapshot generation (names the freshly written files).
    pub generation: u64,
    /// Unique id of this *commit*, minted fresh for every snapshot. A
    /// store records the commit id of the last snapshot its state
    /// descends from (written or restored); the next snapshot reuses
    /// level files only when the directory's committed id matches that
    /// lineage. This is fork detection: a different store — or a
    /// *diverged restore* of the same snapshot — fails the match and
    /// falls back to a full write, because epochs from divergent
    /// histories can collide on different bytes.
    pub commit_uid: u64,
    /// Shard count (restore rebuilds exactly this many).
    pub num_shards: usize,
    /// Document-routing algorithm ([`ROUTE_SPLITMIX64`]).
    pub route_algo: u16,
    /// [`Persist::TAG`] of the static index type, so a store can only be
    /// restored as the type it was snapshotted as.
    pub index_tag: u16,
    /// The serialized `I::Config` (opaque here; decoded by the caller
    /// that knows `I`).
    pub config_bytes: Vec<u8>,
    /// Dynamization options every shard was built with.
    pub options: DynOptions,
    /// WAL records with sequence number `<= wal_seq` are already
    /// reflected in the shard files; [`NO_WAL`] means no log exists.
    pub wal_seq: u64,
    /// Per-shard file sets, in shard order.
    pub shards: Vec<ShardManifest>,
}

const SLOT_LEVEL: u8 = 0;
const SLOT_TOP: u8 = 1;
const SLOT_LR_PRIME: u8 = 2;

fn write_slot<W: Write>(w: &mut W, slot: FrozenSlot) -> std::io::Result<()> {
    match slot {
        FrozenSlot::Level(i) => {
            write_u8(w, SLOT_LEVEL)?;
            write_usize(w, i)
        }
        FrozenSlot::Top(t) => {
            write_u8(w, SLOT_TOP)?;
            write_usize(w, t)
        }
        FrozenSlot::LrPrime => {
            write_u8(w, SLOT_LR_PRIME)?;
            write_usize(w, 0)
        }
    }
}

fn read_slot<R: Read>(r: &mut R) -> Result<FrozenSlot, PersistError> {
    let kind = read_u8(r)?;
    let index = read_usize(r)?;
    match kind {
        SLOT_LEVEL => Ok(FrozenSlot::Level(index)),
        SLOT_TOP => Ok(FrozenSlot::Top(index)),
        SLOT_LR_PRIME => Ok(FrozenSlot::LrPrime),
        k => Err(PersistError::corrupt(format!(
            "manifest: bad level slot kind {k}"
        ))),
    }
}

fn write_file_entry<W: Write>(w: &mut W, entry: &ShardFileEntry) -> std::io::Result<()> {
    write_str(w, &entry.file)?;
    write_u64(w, entry.bytes)?;
    write_u32(w, entry.crc32)
}

fn read_file_entry<R: Read>(r: &mut R) -> Result<ShardFileEntry, PersistError> {
    let file = read_str(r)?;
    let bytes = read_u64(r)?;
    let crc = read_u32(r)?;
    Ok(ShardFileEntry {
        file,
        bytes,
        crc32: crc,
    })
}

impl Persist for Manifest {
    const TAG: u16 = TAG_MANIFEST;

    fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write_u64(w, self.generation)?;
        write_u64(w, self.commit_uid)?;
        write_usize(w, self.num_shards)?;
        write_u16(w, self.route_algo)?;
        write_u16(w, self.index_tag)?;
        write_usize(w, self.config_bytes.len())?;
        w.write_all(&self.config_bytes)?;
        self.options.write_to(w)?;
        write_u64(w, self.wal_seq)?;
        write_usize(w, self.shards.len())?;
        for shard in &self.shards {
            write_file_entry(w, &shard.meta)?;
            write_usize(w, shard.levels.len())?;
            for level in &shard.levels {
                write_slot(w, level.slot)?;
                write_u64(w, level.epoch)?;
                write_file_entry(w, &level.entry)?;
            }
        }
        Ok(())
    }

    fn read_from<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let generation = read_u64(r)?;
        let commit_uid = read_u64(r)?;
        let num_shards = read_usize(r)?;
        let route_algo = read_u16(r)?;
        let index_tag = read_u16(r)?;
        let config_len = read_usize(r)?;
        let mut config_bytes = vec![0u8; config_len.min(1 << 20)];
        if config_len > config_bytes.len() {
            return Err(PersistError::corrupt("manifest: config blob too large"));
        }
        r.read_exact(&mut config_bytes)?;
        let options = DynOptions::read_from(r)?;
        let wal_seq = read_u64(r)?;
        let n = read_usize(r)?;
        let mut shards = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            let meta = read_file_entry(r)?;
            let n_levels = read_usize(r)?;
            let mut levels = Vec::with_capacity(n_levels.min(1 << 12));
            for _ in 0..n_levels {
                let slot = read_slot(r)?;
                let epoch = read_u64(r)?;
                let entry = read_file_entry(r)?;
                levels.push(LevelFileEntry { slot, epoch, entry });
            }
            shards.push(ShardManifest { meta, levels });
        }
        Ok(Manifest {
            generation,
            commit_uid,
            num_shards,
            route_algo,
            index_tag,
            config_bytes,
            options,
            wal_seq,
            shards,
        })
    }
}

impl Manifest {
    /// Every file name this manifest references (meta + level files).
    fn referenced_files(&self) -> HashSet<&str> {
        self.shards
            .iter()
            .flat_map(|s| {
                std::iter::once(s.meta.file.as_str())
                    .chain(s.levels.iter().map(|l| l.entry.file.as_str()))
            })
            .collect()
    }

    /// Total bytes of every referenced file (the snapshot's on-disk
    /// footprint, excluding the manifest itself).
    pub(crate) fn referenced_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.meta.bytes + s.levels.iter().map(|l| l.entry.bytes).sum::<u64>())
            .sum()
    }
}

/// What a completed snapshot wrote (and reused).
#[derive(Clone, Copy, Debug)]
pub struct SnapshotStats {
    /// Generation committed by this snapshot.
    pub generation: u64,
    /// Number of shards.
    pub shards: usize,
    /// Total on-disk footprint of the committed snapshot: every
    /// referenced file (fresh + reused) plus the manifest.
    pub bytes_on_disk: u64,
    /// Bytes actually written by this snapshot (fresh level files,
    /// per-shard meta files, and the manifest).
    pub bytes_written: u64,
    /// Bytes carried over from the previous generation without
    /// re-serialization (level files whose epoch was unchanged).
    pub bytes_reused: u64,
    /// Static structures serialized fresh this generation.
    pub levels_written: usize,
    /// Static structures whose committed file was reused.
    pub levels_reused: usize,
    /// WAL sequence the snapshot covers ([`NO_WAL`] if none).
    pub wal_seq: u64,
}

impl std::fmt::Display for SnapshotStats {
    /// One readable line, e.g.
    /// `snapshot gen 4 | 4 shards | 18.2 KiB written | 210.0 KiB reused
    /// | 92% delta savings (11/13 levels reused)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmt_bytes = |b: u64| {
            if b < 1024 {
                format!("{b} B")
            } else if b < 1024 * 1024 {
                format!("{:.1} KiB", b as f64 / 1024.0)
            } else {
                format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
            }
        };
        let total = self.bytes_written + self.bytes_reused;
        let ratio = if total == 0 {
            0.0
        } else {
            100.0 * self.bytes_reused as f64 / total as f64
        };
        write!(
            f,
            "snapshot gen {} | {} shard{} | {} written | {} reused | {:.0}% delta savings ({}/{} levels reused)",
            self.generation,
            self.shards,
            if self.shards == 1 { "" } else { "s" },
            fmt_bytes(self.bytes_written),
            fmt_bytes(self.bytes_reused),
            ratio,
            self.levels_reused,
            self.levels_reused + self.levels_written,
        )
    }
}

/// How a restored store should run (everything *about the data* — shard
/// count, index config, dynamization options — comes from the manifest;
/// these are the runtime-only choices).
///
/// # Examples
///
/// ```
/// use dyndex_core::RebuildMode;
/// use dyndex_persist::{RestoreOptions, SyncPolicy};
/// use dyndex_store::MaintenancePolicy;
///
/// // The default restores into the production configuration: background
/// // rebuilds, a resident worker per shard, and snapshot-paced WAL
/// // fsyncs.
/// let options = RestoreOptions::default();
/// assert_eq!(options.mode, RebuildMode::Background);
/// assert!(matches!(options.maintenance, MaintenancePolicy::Periodic(_)));
/// assert_eq!(options.wal.sync, SyncPolicy::OnSnapshot);
/// ```
#[derive(Clone, Debug)]
pub struct RestoreOptions {
    /// Rebuild execution mode for the restored shards.
    pub mode: RebuildMode,
    /// Background maintenance driving policy (the per-shard worker pool
    /// is re-created under [`MaintenancePolicy::Periodic`]).
    pub maintenance: MaintenancePolicy,
    /// Write-ahead-log fsync policy for the reopened logs
    /// (`DurableStore::open`; ignored by plain `restore`).
    pub wal: WalOptions,
    /// Telemetry policy for the restored store. Pass
    /// [`Telemetry::Shared`] with the predecessor's registry and the
    /// restored store keeps accumulating into the same metric series
    /// (registration is get-or-create by name).
    pub telemetry: Telemetry,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        RestoreOptions {
            mode: RebuildMode::Background,
            maintenance: MaintenancePolicy::Periodic(Duration::from_millis(1)),
            wal: WalOptions::default(),
            telemetry: Telemetry::default(),
        }
    }
}

fn shard_meta_file_name(generation: u64, shard: usize) -> String {
    format!("shard-g{generation:08}-{shard:04}.bin")
}

fn level_file_name(generation: u64, shard: usize, epoch: u64) -> String {
    format!("level-g{generation:08}-{shard:04}-e{epoch:016x}.bin")
}

/// Reads and validates the manifest of a snapshot directory.
pub fn read_manifest(dir: &Path) -> Result<Manifest, PersistError> {
    let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
    let manifest: Manifest = decode_framed(&mut std::io::Cursor::new(bytes))?;
    if manifest.route_algo != ROUTE_SPLITMIX64 {
        return Err(PersistError::manifest(format!(
            "unknown routing algorithm {}",
            manifest.route_algo
        )));
    }
    if manifest.num_shards == 0 || manifest.num_shards != manifest.shards.len() {
        return Err(PersistError::manifest(format!(
            "shard count {} inconsistent with {} file entries",
            manifest.num_shards,
            manifest.shards.len()
        )));
    }
    Ok(manifest)
}

/// Best-effort garbage collection after a commit: removes snapshot files
/// (meta and level) the committed manifest does not reference, plus
/// stale atomic-write temp files.
fn cleanup_stale(dir: &Path, manifest: &Manifest) {
    let referenced = manifest.referenced_files();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let snapshot_file = name.starts_with("shard-g") || name.starts_with("level-g");
        let stale_snapshot = snapshot_file && !referenced.contains(name);
        let stale_tmp = name.starts_with('.') && name.contains(".tmp.");
        if stale_snapshot || stale_tmp {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// What one shard's snapshot pass produced: the framed meta payload plus
/// one outcome per populated static structure.
struct ShardEncoded {
    meta: Vec<u8>,
    levels: Vec<LevelOutcome>,
}

enum LevelOutcome {
    /// The previous generation already holds this `(shard, epoch)`'s
    /// bytes; carry its manifest entry forward.
    Reused(LevelFileEntry),
    /// A changed level: `framed` starts empty at planning time and is
    /// filled once the level's encoding job completes.
    Fresh {
        slot: FrozenSlot,
        epoch: u64,
        framed: Vec<u8>,
    },
}

impl LevelOutcome {
    fn set_framed(&mut self, bytes: Vec<u8>) {
        match self {
            LevelOutcome::Fresh { framed, .. } => *framed = bytes,
            LevelOutcome::Reused(_) => unreachable!("only fresh levels are encoded"),
        }
    }
}

/// Frames one static structure as a level content file.
fn encode_level<I: StaticIndex + Persist>(
    index: &DeletionOnlyIndex<I>,
) -> std::io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    index.write_to(&mut payload)?;
    let mut framed = Vec::with_capacity(payload.len() + 24);
    write_frame(&mut framed, TAG_LEVEL, &payload)?;
    Ok(framed)
}

/// Frames one shard's meta payload (C0 + scalars).
fn encode_meta<I: StaticIndex>(frozen: &FrozenSnapshot<I>) -> std::io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    write_shard_meta(&mut payload, frozen)?;
    let mut framed = Vec::with_capacity(payload.len() + 24);
    write_frame(&mut framed, TAG_SHARD_META, &payload)?;
    Ok(framed)
}

/// Splits a frozen shard into per-level outcomes: reused entries carry
/// the previous generation's file entry verbatim; changed levels become
/// empty [`LevelOutcome::Fresh`] placeholders plus an encode work item
/// `(outcome index, structure handle)` for the caller to run (inline or
/// on the worker pool).
#[allow(clippy::type_complexity)]
fn plan_shard<I: StaticIndex + Persist>(
    shard: usize,
    frozen: &FrozenSnapshot<I>,
    reuse: &HashMap<(usize, u64), LevelFileEntry>,
) -> (Vec<LevelOutcome>, Vec<(usize, Arc<DeletionOnlyIndex<I>>)>) {
    let mut outcomes: Vec<LevelOutcome> = Vec::with_capacity(frozen.levels.len());
    let mut todo = Vec::new();
    for (idx, level) in frozen.levels.iter().enumerate() {
        match reuse.get(&(shard, level.epoch)) {
            Some(entry) => outcomes.push(LevelOutcome::Reused(LevelFileEntry {
                // The slot can migrate between generations (a structure
                // moving level → top keeps its bytes); record where it
                // sits *now*, reusing only the content file.
                slot: level.slot,
                epoch: level.epoch,
                entry: entry.entry.clone(),
            })),
            None => {
                outcomes.push(LevelOutcome::Fresh {
                    slot: level.slot,
                    epoch: level.epoch,
                    framed: Vec::new(),
                });
                todo.push((idx, Arc::clone(&level.index)));
            }
        }
    }
    (outcomes, todo)
}

/// Clears the store's snapshot-in-progress gauge on scope exit (error
/// paths included).
struct SnapshotFlag<'a, I: StaticIndex + Sync>(&'a ShardedStore<I>);

impl<'a, I: StaticIndex + Sync> SnapshotFlag<'a, I> {
    fn set(store: &'a ShardedStore<I>) -> Self {
        store.set_snapshot_in_progress(true);
        SnapshotFlag(store)
    }
}

impl<I: StaticIndex + Sync> Drop for SnapshotFlag<'_, I> {
    fn drop(&mut self) {
        self.0.set_snapshot_in_progress(false);
    }
}

/// Serializes `store` into `dir` and commits a new manifest generation,
/// re-serializing only levels whose epoch has no committed content file
/// (see the module docs). `wal_seq` is the highest WAL sequence the
/// shard state reflects ([`NO_WAL`] for WAL-less stores).
pub(crate) fn write_snapshot<I>(
    store: &ShardedStore<I>,
    dir: &Path,
    wal_seq: u64,
) -> Result<SnapshotStats, PersistError>
where
    I: StaticIndex + Sync + Persist,
    I::Config: Persist,
{
    std::fs::create_dir_all(dir)?;
    // Flight-recorder spans: one `snapshot` root for the whole
    // generation, with per-shard `freeze` / `serialize` children.
    let flight = store.flight_recorder();
    let snap_start = flight
        .as_ref()
        .map(|f| (f.next_span_id(), f.now_nanos(), Instant::now()));
    let snap_root = snap_start.map_or(0, |(id, _, _)| id);
    let child_span = |shard: usize, kind: SpanKind, start: Option<(u64, Instant)>, detail: u64| {
        if let (Some(f), Some((start_nanos, started))) = (&flight, start) {
            f.record_at(
                shard,
                Span {
                    shard: Some(shard),
                    start_nanos,
                    duration_nanos: started.elapsed().as_nanos() as u64,
                    detail,
                    ..Span::child(snap_root, kind)
                },
            );
        }
    };
    let stamp = || flight.as_ref().map(|f| (f.now_nanos(), Instant::now()));
    // Pick the next generation so new files never collide with the ones
    // the committed manifest points to. A *missing* manifest means a
    // fresh directory, and a corrupt one means the previous snapshot is
    // already unrecoverable — both safely restart at generation 1 with a
    // full write. Any other I/O failure must propagate: falling back
    // would reuse a committed generation's file names and destroy crash
    // atomicity.
    let previous = match read_manifest(dir) {
        Ok(m) => Some(m),
        Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e @ PersistError::Io(_)) => return Err(e),
        Err(_) => None,
    };
    let generation = previous.as_ref().map_or(1, |m| m.generation + 1);
    // Reuse is valid only when the committed snapshot is the exact one
    // this store's state descends from (fork detection: epochs from
    // divergent histories can collide on different bytes), and only for
    // files still present on disk.
    let mut reuse: HashMap<(usize, u64), LevelFileEntry> = HashMap::new();
    if let Some(prev) = &previous {
        if prev.commit_uid == store.snapshot_lineage() {
            for (shard, sm) in prev.shards.iter().enumerate() {
                for level in &sm.levels {
                    if dir.join(&level.entry.file).is_file() {
                        reuse.insert((shard, level.epoch), level.clone());
                    }
                }
            }
        }
    }

    let (config, options) = {
        let guard = store.lock_shard(0);
        (guard.persist_config().clone(), *guard.persist_options())
    };
    // Freeze one shard at a time: each write lock is held only for the
    // quiesce + O(levels) Arc clones; every other shard keeps serving
    // throughout. No two shard locks are ever held simultaneously.
    let frozen: Vec<FrozenSnapshot<I>> = (0..store.num_shards())
        .map(|s| {
            let freeze_start = stamp();
            let fz = store.freeze_shard(s);
            child_span(s, SpanKind::ShardFreeze, freeze_start, 0);
            fz
        })
        .collect();
    let serializing = SnapshotFlag::set(store);
    // Serialize changed levels on the resident worker pool, one job per
    // level, off every lock; poolless stores encode inline.
    let (tx, rx) = mpsc::channel::<(usize, usize, std::io::Result<Vec<u8>>)>();
    let mut pending = 0usize;
    let mut plans: Vec<Vec<LevelOutcome>> = Vec::with_capacity(frozen.len());
    for (shard, fz) in frozen.iter().enumerate() {
        let (outcomes, todo) = plan_shard(shard, fz, &reuse);
        for (idx, index) in todo {
            pending += 1;
            let job_tx = tx.clone();
            let job_index = Arc::clone(&index);
            let job_flight = flight.clone();
            let job = Box::new(move || {
                let start = job_flight.as_ref().map(|f| (f.now_nanos(), Instant::now()));
                let result = encode_level(&*job_index);
                if let (Some(f), Some((start_nanos, started))) = (&job_flight, start) {
                    f.record_at(
                        shard,
                        Span {
                            shard: Some(shard),
                            start_nanos,
                            duration_nanos: started.elapsed().as_nanos() as u64,
                            detail: result.as_ref().map_or(0, |b| b.len() as u64),
                            ..Span::child(snap_root, SpanKind::ShardSerialize)
                        },
                    );
                }
                let _ = job_tx.send((shard, idx, result));
            });
            if !store.submit_background_job(shard, job) {
                let start = stamp();
                let result = encode_level(&*index);
                child_span(
                    shard,
                    SpanKind::ShardSerialize,
                    start,
                    result.as_ref().map_or(0, |b| b.len() as u64),
                );
                let _ = tx.send((shard, idx, result));
            }
        }
        plans.push(outcomes);
    }
    drop(tx);
    for _ in 0..pending {
        let (shard, idx, result) = rx
            .recv()
            .map_err(|_| PersistError::corrupt("snapshot serialization worker disappeared"))?;
        plans[shard][idx].set_framed(result?);
    }
    let mut encoded: Vec<ShardEncoded> = Vec::with_capacity(frozen.len());
    for (fz, outcomes) in frozen.iter().zip(plans) {
        encoded.push(ShardEncoded {
            meta: encode_meta(fz)?,
            levels: outcomes,
        });
    }
    drop(serializing);

    // Write fresh files, assemble the manifest, commit, collect garbage.
    let mut shards = Vec::with_capacity(encoded.len());
    let mut bytes_written = 0u64;
    let mut bytes_reused = 0u64;
    let mut levels_written = 0usize;
    let mut levels_reused = 0usize;
    for (shard, enc) in encoded.into_iter().enumerate() {
        let mut levels = Vec::with_capacity(enc.levels.len());
        for outcome in enc.levels {
            match outcome {
                LevelOutcome::Reused(entry) => {
                    bytes_reused += entry.entry.bytes;
                    levels_reused += 1;
                    levels.push(entry);
                }
                LevelOutcome::Fresh {
                    slot,
                    epoch,
                    framed,
                } => {
                    let file = level_file_name(generation, shard, epoch);
                    write_file_atomic(&dir.join(&file), &framed)?;
                    bytes_written += framed.len() as u64;
                    levels_written += 1;
                    levels.push(LevelFileEntry {
                        slot,
                        epoch,
                        entry: ShardFileEntry {
                            file,
                            bytes: framed.len() as u64,
                            crc32: crc32(&framed),
                        },
                    });
                }
            }
        }
        let meta_file = shard_meta_file_name(generation, shard);
        write_file_atomic(&dir.join(&meta_file), &enc.meta)?;
        bytes_written += enc.meta.len() as u64;
        shards.push(ShardManifest {
            meta: ShardFileEntry {
                file: meta_file,
                bytes: enc.meta.len() as u64,
                crc32: crc32(&enc.meta),
            },
            levels,
        });
    }
    let mut config_bytes = Vec::new();
    config.write_to(&mut config_bytes)?;
    let commit_uid = dyndex_store::fresh_uid();
    let manifest = Manifest {
        generation,
        commit_uid,
        num_shards: shards.len(),
        route_algo: ROUTE_SPLITMIX64,
        index_tag: I::TAG,
        config_bytes,
        options,
        wal_seq,
        shards,
    };
    let manifest_bytes = encode_framed(&manifest)?;
    // The commit point: everything before this is invisible to restore.
    write_file_atomic(&dir.join(MANIFEST_FILE), &manifest_bytes)?;
    // Mandatory directory fsync: makes the manifest rename — and every
    // earlier same-directory rename — durable against power loss. The
    // best-effort fsync inside write_file_atomic is not enough for the
    // commit point.
    sync_dir(dir)?;
    bytes_written += manifest_bytes.len() as u64;
    cleanup_stale(dir, &manifest);
    // The store's state now descends from this commit: its next
    // snapshot into the same directory may reuse unchanged files.
    store.set_snapshot_lineage(commit_uid);
    if let (Some(f), Some((id, start_nanos, started))) = (&flight, snap_start) {
        f.finish_root(Span {
            start_nanos,
            duration_nanos: started.elapsed().as_nanos() as u64,
            detail: bytes_written,
            ..Span::root(id, SpanKind::Snapshot)
        });
    }
    Ok(SnapshotStats {
        generation,
        shards: manifest.num_shards,
        bytes_on_disk: manifest.referenced_bytes() + manifest_bytes.len() as u64,
        bytes_written,
        bytes_reused,
        levels_written,
        levels_reused,
        wal_seq,
    })
}

/// Rebuilds a store from the snapshot files the manifest points to
/// (no WAL replay — [`replay_wal`] layers that on top).
pub(crate) fn restore_snapshot<I>(
    dir: &Path,
    manifest: &Manifest,
    options: &RestoreOptions,
) -> Result<ShardedStore<I>, PersistError>
where
    I: StaticIndex + Sync + Persist,
    I::Config: Persist,
{
    if manifest.index_tag != I::TAG {
        return Err(PersistError::WrongType {
            found: manifest.index_tag,
            expected: I::TAG,
        });
    }
    let mut cursor = std::io::Cursor::new(manifest.config_bytes.as_slice());
    let config = I::Config::read_from(&mut cursor)?;
    if cursor.position() != manifest.config_bytes.len() as u64 {
        return Err(PersistError::corrupt("manifest: trailing config bytes"));
    }
    let read_checked = |entry: &ShardFileEntry, tag: u16| -> Result<Vec<u8>, PersistError> {
        let bytes = std::fs::read(dir.join(&entry.file))?;
        if bytes.len() as u64 != entry.bytes || crc32(&bytes) != entry.crc32 {
            return Err(PersistError::corrupt(format!(
                "snapshot file {} does not match its manifest entry",
                entry.file
            )));
        }
        let mut reader = std::io::Cursor::new(bytes);
        let payload = read_frame(&mut reader, tag)?;
        Ok(payload)
    };
    let mut shards = Vec::with_capacity(manifest.num_shards);
    for sm in &manifest.shards {
        let meta_payload = read_checked(&sm.meta, TAG_SHARD_META)?;
        let mut meta_reader = std::io::Cursor::new(meta_payload.as_slice());
        let meta = read_shard_meta(&mut meta_reader)?;
        if meta_reader.position() != meta_payload.len() as u64 {
            return Err(PersistError::corrupt(format!(
                "snapshot file {}: trailing payload bytes",
                sm.meta.file
            )));
        }
        let mut levels = Vec::with_capacity(sm.levels.len());
        for level in &sm.levels {
            let payload = read_checked(&level.entry, TAG_LEVEL)?;
            let mut reader = std::io::Cursor::new(payload.as_slice());
            let index = DeletionOnlyIndex::<I>::read_from(&mut reader)?;
            if reader.position() != payload.len() as u64 {
                return Err(PersistError::corrupt(format!(
                    "snapshot file {}: trailing payload bytes",
                    level.entry.file
                )));
            }
            levels.push(FrozenLevel {
                slot: level.slot,
                epoch: level.epoch,
                index: Arc::new(index),
            });
        }
        let frozen = FrozenSnapshot {
            c0_docs: meta.c0_docs,
            num_levels: meta.num_levels,
            num_top_slots: meta.num_top_slots,
            levels,
            nf: meta.nf,
            n: meta.n,
            deleted_since_maintenance: meta.deleted_since_maintenance,
            epoch_counter: meta.epoch_counter,
        };
        let index = Transform2Index::thaw(config.clone(), manifest.options, options.mode, frozen)
            .map_err(PersistError::corrupt)?;
        shards.push(index);
    }
    let store = ShardedStore::from_shard_indexes(shards, options.maintenance, &options.telemetry);
    // The restored state descends from this commit: its next snapshot
    // into the same directory can reuse every unchanged level file —
    // unless someone else commits in between (fork detection).
    store.set_snapshot_lineage(manifest.commit_uid);
    Ok(store)
}

/// Replays every WAL record with sequence `> after_seq` through the
/// store's normal insert/delete path, returning the highest sequence
/// seen (or `after_seq` if the logs are empty).
pub(crate) fn replay_wal<I>(
    store: &ShardedStore<I>,
    dir: &Path,
    after_seq: u64,
) -> Result<u64, PersistError>
where
    I: StaticIndex + Sync,
{
    let mut max_seq = after_seq;
    for shard in 0..store.num_shards() {
        for (seq, record) in read_wal_records(&wal_path(dir, shard))? {
            max_seq = max_seq.max(seq);
            if seq <= after_seq {
                continue;
            }
            match record {
                WalRecord::InsertBatch(docs) => {
                    for (id, bytes) in docs {
                        if store.contains(id) {
                            return Err(PersistError::corrupt(format!(
                                "wal replays document {id} already present in the snapshot"
                            )));
                        }
                        store.insert(id, &bytes)?;
                    }
                }
                WalRecord::DeleteBatch(ids) => {
                    for id in ids {
                        store.delete(id)?;
                    }
                }
                // A logged bulk chunk replays through the same fast path
                // that built it: straight to a static level on its shard,
                // never through the C0 buffer.
                WalRecord::IngestBatch(docs) => {
                    for (id, _) in &docs {
                        if store.contains(*id) {
                            return Err(PersistError::corrupt(format!(
                                "wal replays document {id} already present in the snapshot"
                            )));
                        }
                    }
                    store.bulk_load_shard(shard, &docs)?;
                }
            }
        }
    }
    Ok(max_seq)
}

/// Snapshot/restore as methods on [`ShardedStore`].
///
/// `snapshot` writes a point-in-time image re-serializing only changed
/// levels (delta snapshot) — per-shard freezing plus worker-pool
/// serialization, so queries never stall store-wide.
/// `restore` reads the latest committed manifest, rebuilds every shard,
/// re-creates the resident worker pool (per
/// [`RestoreOptions::maintenance`]), and
/// — when the directory carries a write-ahead log (see `DurableStore`) —
/// replays the logged tail through the normal dynamic-buffer path,
/// recovering the exact pre-crash logical state.
///
/// # Examples
///
/// ```
/// use dyndex_core::FmConfig;
/// use dyndex_persist::{RestoreOptions, StorePersist};
/// use dyndex_store::{ShardedStore, StoreOptions};
/// use dyndex_text::FmIndexCompressed;
///
/// let dir = std::env::temp_dir().join(format!("dyndex-sp-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let store: ShardedStore<FmIndexCompressed> =
///     ShardedStore::new(FmConfig { sample_rate: 8 }, StoreOptions::default());
/// store.insert(1, b"snapshot me");
/// let first = store.snapshot(&dir).unwrap();
/// // A second snapshot with nothing changed reuses every level file.
/// let second = store.snapshot(&dir).unwrap();
/// assert_eq!(second.generation, first.generation + 1);
/// let restored: ShardedStore<FmIndexCompressed> =
///     ShardedStore::restore(&dir, RestoreOptions::default()).unwrap();
/// assert_eq!(restored.count(b"snapshot"), 1);
/// assert_eq!(restored.worker_threads(), restored.num_shards()); // pool re-created
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub trait StorePersist: Sized {
    /// Writes a snapshot of `self` into `dir`.
    fn snapshot(&self, dir: &Path) -> Result<SnapshotStats, PersistError>;

    /// Rebuilds a store from the snapshot (plus WAL tail) in `dir`.
    fn restore(dir: &Path, options: RestoreOptions) -> Result<Self, PersistError>;
}

impl<I> StorePersist for ShardedStore<I>
where
    I: StaticIndex + Sync + Persist,
    I::Config: Persist,
{
    fn snapshot(&self, dir: &Path) -> Result<SnapshotStats, PersistError> {
        write_snapshot(self, dir, NO_WAL)
    }

    fn restore(dir: &Path, options: RestoreOptions) -> Result<Self, PersistError> {
        let manifest = read_manifest(dir)?;
        let store = restore_snapshot::<I>(dir, &manifest, &options)?;
        if manifest.wal_seq != NO_WAL {
            replay_wal(&store, dir, manifest.wal_seq)?;
        }
        Ok(store)
    }
}
