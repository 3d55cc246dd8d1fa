//! Bulk ingestion: the stream-to-static level builder.
//!
//! Insert-at-a-time pays for every document once in `C0` and again at
//! each logarithmic-method merge on its way down the level cascade. For
//! an initial load or a re-shard that is pure overhead: the paper's
//! static substructures can be SA-IS-built *directly* from the corpus in
//! linear time. [`LevelBuilder`] does exactly that — it chunks a
//! document stream into level-sized batches (the memory bound: at most
//! one chunk of raw documents is buffered at a time), builds each batch
//! into a [`DeletionOnlyIndex`] with the ordinary static-construction
//! machinery, and hands the finished level to the caller, who installs
//! it through the normal `Stamped`/epoch path
//! ([`Transform2Index::install_bulk_level`](crate::Transform2Index::install_bulk_level))
//! so snapshots, incremental deltas, and published views all
//! keep working unchanged.
//!
//! ```
//! use dyndex_core::bulk::LevelBuilder;
//! use dyndex_core::prelude::*;
//!
//! let mut index: Transform2Index<FmIndexCompressed> = Transform2Index::new(
//!     FmConfig { sample_rate: 8 },
//!     DynOptions::default(),
//!     RebuildMode::Inline,
//! );
//! let mut builder: LevelBuilder<FmIndexCompressed> = index.level_builder();
//! let docs = (0..100u64).map(|id| (id, format!("document number {id}").into_bytes()));
//! builder.build_stream(docs, |level| index.install_bulk_level(level));
//! assert_eq!(index.num_docs(), 100);
//! assert_eq!(index.count(b"number 42"), 1);
//! ```

use crate::deletion_only::DeletionOnlyIndex;
use crate::traits::StaticIndex;

/// Default chunk bound: documents are accumulated until their bytes
/// reach this, then one static level is built and the buffer is freed.
pub const DEFAULT_CHUNK_SYMBOLS: usize = 1 << 20;

/// Builds large static levels ([`DeletionOnlyIndex`]) directly from a
/// document stream, one bounded-size chunk at a time.
///
/// The builder holds no reference to the owning index — it is `Clone`
/// and `Send`, so a sharded store can hand one to each idle pool worker
/// and run SA-IS construction off-lock while queries keep answering from
/// published views; only the final install takes the shard lock.
pub struct LevelBuilder<I: StaticIndex> {
    config: I::Config,
    counting: bool,
    chunk_symbols: usize,
    batch: Vec<(u64, Vec<u8>)>,
    batch_symbols: usize,
}

// Manual impl: a derived `Clone` would demand `I: Clone`, but only the
// *config* is cloned — the index type itself never appears in a field.
impl<I: StaticIndex> Clone for LevelBuilder<I> {
    fn clone(&self) -> Self {
        LevelBuilder {
            config: self.config.clone(),
            counting: self.counting,
            chunk_symbols: self.chunk_symbols,
            batch: self.batch.clone(),
            batch_symbols: self.batch_symbols,
        }
    }
}

impl<I: StaticIndex> LevelBuilder<I> {
    /// A builder producing levels compatible with indexes configured by
    /// `config`/`counting` (use
    /// [`Transform2Index::level_builder`](crate::Transform2Index::level_builder)
    /// to copy them from a live index).
    pub fn new(config: I::Config, counting: bool) -> Self {
        LevelBuilder {
            config,
            counting,
            chunk_symbols: DEFAULT_CHUNK_SYMBOLS,
            batch: Vec::new(),
            batch_symbols: 0,
        }
    }

    /// Sets the chunk bound (bytes of buffered documents per built
    /// level). Values below 1 are clamped to 1.
    pub fn with_chunk_symbols(mut self, chunk_symbols: usize) -> Self {
        self.chunk_symbols = chunk_symbols.max(1);
        self
    }

    /// The current chunk bound in document bytes.
    pub fn chunk_symbols(&self) -> usize {
        self.chunk_symbols
    }

    /// Document bytes currently buffered (always `<` the bound plus one
    /// document — the bound is checked after each push).
    pub fn buffered_symbols(&self) -> usize {
        self.batch_symbols
    }

    /// Buffered documents waiting for the chunk to fill.
    pub fn buffered_docs(&self) -> usize {
        self.batch.len()
    }

    /// Adds one document to the pending chunk. When the chunk bound is
    /// reached, builds and returns the finished level (clearing the
    /// buffer); otherwise returns `None`.
    pub fn push(&mut self, doc_id: u64, bytes: Vec<u8>) -> Option<DeletionOnlyIndex<I>> {
        self.batch_symbols += bytes.len();
        self.batch.push((doc_id, bytes));
        if self.batch_symbols >= self.chunk_symbols {
            self.flush()
        } else {
            None
        }
    }

    /// Builds whatever is buffered into a level (or `None` when empty).
    pub fn flush(&mut self) -> Option<DeletionOnlyIndex<I>> {
        if self.batch.is_empty() {
            return None;
        }
        let batch = std::mem::take(&mut self.batch);
        self.batch_symbols = 0;
        Some(self.build_batch(&batch))
    }

    /// Builds one pre-chunked batch directly (no buffering). This is the
    /// off-lock entry point pool workers use: the batch was routed and
    /// cut elsewhere, the worker only pays the SA-IS construction.
    pub fn build_batch(&self, docs: &[(u64, Vec<u8>)]) -> DeletionOnlyIndex<I> {
        let refs: Vec<(u64, &[u8])> = docs.iter().map(|(id, d)| (*id, d.as_slice())).collect();
        DeletionOnlyIndex::build(&refs, &self.config, self.counting)
    }

    /// Drains a whole document stream: every full chunk (and the final
    /// partial one) is built and passed to `sink`. Memory stays bounded
    /// by one chunk of raw documents plus the level being built.
    pub fn build_stream<It, F>(&mut self, docs: It, mut sink: F)
    where
        It: IntoIterator<Item = (u64, Vec<u8>)>,
        F: FnMut(DeletionOnlyIndex<I>),
    {
        for (id, bytes) in docs {
            if let Some(level) = self.push(id, bytes) {
                sink(level);
            }
        }
        if let Some(level) = self.flush() {
            sink(level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DynOptions;
    use crate::traits::FmConfig;
    use crate::transform2::{RebuildMode, Transform2Index};
    use dyndex_text::FmIndexCompressed;

    type Builder = LevelBuilder<FmIndexCompressed>;

    fn docs(n: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|id| (id, format!("bulk document {id} payload").into_bytes()))
            .collect()
    }

    #[test]
    fn chunking_respects_bound() {
        let mut b = Builder::new(FmConfig { sample_rate: 4 }, true).with_chunk_symbols(64);
        let mut levels = Vec::new();
        b.build_stream(docs(20), |l| levels.push(l));
        assert!(levels.len() > 1, "64-byte chunks must split 20 documents");
        let total_docs: usize = levels.iter().map(|l| l.num_docs()).sum();
        assert_eq!(total_docs, 20);
        // Every level except the last was cut at/over the bound.
        for l in &levels[..levels.len() - 1] {
            assert!(l.alive_symbols() >= 64);
        }
        // Buffer is empty after the stream drains.
        assert_eq!(b.buffered_docs(), 0);
        assert_eq!(b.buffered_symbols(), 0);
    }

    #[test]
    fn levels_answer_queries() {
        let mut b = Builder::new(FmConfig { sample_rate: 4 }, true).with_chunk_symbols(128);
        let mut found = 0usize;
        b.build_stream(docs(12), |l| {
            found += l.count(b"payload");
        });
        assert_eq!(found, 12);
    }

    #[test]
    fn empty_stream_builds_nothing() {
        let mut b = Builder::new(FmConfig { sample_rate: 4 }, false);
        let mut calls = 0;
        b.build_stream(Vec::new(), |_| calls += 1);
        assert_eq!(calls, 0);
        assert!(b.flush().is_none());
    }

    #[test]
    fn install_matches_insert_at_a_time() {
        let opts = DynOptions {
            min_capacity: 32,
            tau: 4,
            ..DynOptions::default()
        };
        let config = FmConfig { sample_rate: 4 };
        let mut bulk: Transform2Index<FmIndexCompressed> =
            Transform2Index::new(config, opts, RebuildMode::Inline);
        let mut serial: Transform2Index<FmIndexCompressed> =
            Transform2Index::new(config, opts, RebuildMode::Inline);
        for (id, bytes) in docs(30) {
            serial.insert(id, &bytes);
        }
        let mut b = bulk.level_builder().with_chunk_symbols(100);
        b.build_stream(docs(30), |l| bulk.install_bulk_level(l));
        bulk.check_invariants();
        for p in [b"payload".as_slice(), b"document 7", b"bulk", b"zzz"] {
            assert_eq!(bulk.count(p), serial.count(p));
            let mut a = bulk.find(p);
            let mut c = serial.find(p);
            a.sort();
            c.sort();
            assert_eq!(a, c);
        }
        // Deletes work on bulk-installed levels like any other structure.
        bulk.delete(3);
        serial.delete(3);
        assert_eq!(bulk.count(b"payload"), serial.count(b"payload"));
        bulk.check_invariants();
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_id_panics() {
        let mut index: Transform2Index<FmIndexCompressed> = Transform2Index::new(
            FmConfig { sample_rate: 4 },
            DynOptions::default(),
            RebuildMode::Inline,
        );
        index.insert(5, b"already here");
        let b = index.level_builder();
        let level = b.build_batch(&[(5, b"duplicate".to_vec())]);
        index.install_bulk_level(level);
    }
}
