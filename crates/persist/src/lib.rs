//! # dyndex-persist
//!
//! Durability for the `dyndex` sharded document store: binary
//! serialization of every static structure, crash-atomic snapshots, and
//! per-shard write-ahead logging.
//!
//! The Munro–Nekrich–Vitter construction keeps all static levels and
//! the dynamic buffer in RAM, so a process restart pays a full rebuild
//! of the entire collection — exactly the cost Transformation 2 exists
//! to amortize. This crate removes that cliff:
//!
//! * [`Persist`] — a zero-dependency binary codec (`write_to` /
//!   `read_from` over `std::io`) with versioned, checksummed framing,
//!   implemented bottom-up for the succinct structures (`BitVec`,
//!   rank/select, `WaveletMatrix`, int/Elias–Fano vectors), the text
//!   layer (`FmIndex` with its doc-id maps and SA samples), and the
//!   `Transform2Index` static levels. Acceleration state (rank
//!   directories, decode maps) is re-derived on load, so restore costs
//!   linear scans instead of suffix sorting.
//! * [`StorePersist`] — `snapshot(dir)` / `restore(dir, options)` on
//!   `ShardedStore`: one file per shard plus a manifest, written
//!   temp-then-rename with the manifest last, so a crash mid-snapshot
//!   leaves the previous consistent generation readable.
//! * [`DurableStore`] — a store wrapper that write-ahead-logs every
//!   write between snapshots; `open` restores the last snapshot and
//!   replays the logged tail through the store's one write path,
//!   recovering the exact pre-crash logical state.
//!
//! Restored stores answer `count` / `find` / `find_limit` / `extract`
//! byte-identically to the live store they were snapshotted from: every
//! structure keeps its position, and every enumeration order is
//! preserved.
//!
//! ```
//! use dyndex_core::{FmConfig, RebuildMode};
//! use dyndex_persist::{DurableStore, RestoreOptions};
//! use dyndex_store::{MaintenancePolicy, StoreOptions};
//! use dyndex_text::FmIndexCompressed;
//!
//! let dir = std::env::temp_dir().join(format!("dyndex-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let options = StoreOptions {
//!     num_shards: 2,
//!     mode: RebuildMode::Inline,
//!     maintenance: MaintenancePolicy::Manual,
//!     ..StoreOptions::default()
//! };
//! let store: DurableStore<FmIndexCompressed> =
//!     DurableStore::create(&dir, FmConfig { sample_rate: 8 }, options).unwrap();
//! store.insert(1, b"durable dynamic document store").unwrap();
//! store.snapshot().unwrap();
//! store.insert(2, b"this lives only in the write-ahead log").unwrap();
//! drop(store); // simulate a restart
//!
//! let restore_opts = RestoreOptions {
//!     mode: RebuildMode::Inline,
//!     maintenance: MaintenancePolicy::Manual,
//!     ..RestoreOptions::default()
//! };
//! let store: DurableStore<FmIndexCompressed> = DurableStore::open(&dir, restore_opts).unwrap();
//! assert_eq!(store.num_docs(), 2); // snapshot + replayed WAL tail
//! assert_eq!(store.count(b"durable"), 1);
//! assert_eq!(store.count(b"write-ahead"), 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod codec;
mod core_impls;
mod durable;
pub mod error;
mod snapshot;
mod succinct_impls;
mod text_impls;
mod wal;

pub use codec::Persist;
pub use durable::DurableStore;
pub use error::PersistError;
pub use snapshot::{
    read_manifest, LevelFileEntry, Manifest, RestoreOptions, ShardFileEntry, ShardManifest,
    SnapshotStats, StorePersist, MANIFEST_FILE, NO_WAL, ROUTE_SPLITMIX64,
};
pub use wal::{SyncPolicy, WalOptions};
