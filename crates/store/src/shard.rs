//! One shard's state pair: the writer-side [`Transform2Index`] behind its
//! `RwLock`, and the reader-side [`ShardView`] published as an `Arc`
//! behind a second, separate `RwLock`.
//!
//! The contract, enforced by construction:
//!
//! * **Readers never touch the index lock.** Every query clones the
//!   current view's `Arc` under the view lock's read side
//!   ([`ShardSlot::view`]) and runs against that immutable snapshot; the
//!   view lock is only ever held for a refcount bump or a swap.
//! * **Writers publish on release.** The only way to mutate a shard is
//!   through a [`ShardGuard`]; when the guard drops after a successful
//!   mutation it captures a fresh view and swaps it in under the view
//!   lock's write side — readers see either the old or the new view,
//!   never a torn intermediate. A replaced view is freed by whoever
//!   drops its last `Arc`: the writer, or a reader still holding it.
//! * **Panics never publish.** If the guard is dropped mid-unwind
//!   (a panicked writer), no view is captured: the lock poisons as
//!   usual, but readers keep serving the last *good* view forever, and
//!   later writers get a typed [`ShardPoisoned`] error instead of a
//!   cascading panic.

use dyndex_core::{ShardView, StaticIndex, Transform2Index};
use dyndex_obs::Counter;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockWriteGuard};

/// Error returned by writer entry points when a previous writer panicked
/// mid-mutation in the target shard, leaving its `RwLock` poisoned. The
/// shard's last published view keeps answering queries; only further
/// writes to that one shard are refused (other shards are unaffected).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPoisoned {
    /// The shard whose writer panicked.
    pub shard: usize,
}

impl std::fmt::Display for ShardPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} is poisoned by a panicked writer; reads keep serving \
             the last published view, writes to this shard are refused",
            self.shard
        )
    }
}

impl std::error::Error for ShardPoisoned {}

/// One shard: writer index + published reader view.
pub(crate) struct ShardSlot<I: StaticIndex + Sync> {
    shard: usize,
    index: RwLock<Transform2Index<I>>,
    /// The published view. Nothing that can panic runs under this lock,
    /// so a poisoned guard is recovered rather than propagated.
    view: RwLock<Arc<ShardView<I>>>,
    /// Monotonic nanos ([`crate::health::nanos_now`]) when the current
    /// write guard was taken; 0 while the lock is free. The watchdog's
    /// writer-stall detector reads this.
    locked_since: AtomicU64,
    /// Per-poisoning-event counter (distinct from the per-refused-write
    /// counter): incremented exactly once when a writer panic poisons
    /// this shard, gated by `poison_latch`.
    poison_events: Option<Arc<Counter>>,
    poison_latch: AtomicBool,
}

impl<I: StaticIndex + Sync> ShardSlot<I> {
    /// Wraps `index` and publishes its initial view. `poison_events`,
    /// when present, is incremented once if a writer panic ever poisons
    /// this shard.
    pub(crate) fn new(
        shard: usize,
        mut index: Transform2Index<I>,
        poison_events: Option<Arc<Counter>>,
    ) -> Self {
        let view = RwLock::new(Arc::new(index.snapshot_view()));
        ShardSlot {
            shard,
            index: RwLock::new(index),
            view,
            locked_since: AtomicU64::new(0),
            poison_events,
            poison_latch: AtomicBool::new(false),
        }
    }

    /// The shard's currently-published immutable view: an `Arc` clone
    /// under the view lock's read side, never the index lock.
    pub(crate) fn view(&self) -> Arc<ShardView<I>> {
        Arc::clone(&self.view.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Write access; republishes the view when the guard drops cleanly.
    pub(crate) fn write(&self) -> Result<ShardGuard<'_, I>, ShardPoisoned> {
        match self.index.write() {
            Ok(guard) => {
                self.locked_since
                    .store(crate::health::nanos_now(), Ordering::Relaxed);
                Ok(ShardGuard { slot: self, guard })
            }
            Err(_) => Err(ShardPoisoned { shard: self.shard }),
        }
    }

    /// Non-blocking write access: `None` when the lock is contended *or*
    /// poisoned (maintenance paths skip either way).
    pub(crate) fn try_write(&self) -> Option<ShardGuard<'_, I>> {
        match self.index.try_write() {
            Ok(guard) => {
                self.locked_since
                    .store(crate::health::nanos_now(), Ordering::Relaxed);
                Some(ShardGuard { slot: self, guard })
            }
            Err(_) => None,
        }
    }

    /// Whether a panicked writer has poisoned this shard's lock.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.index.is_poisoned()
    }

    /// When the current write guard was taken (0 = lock free).
    pub(crate) fn locked_since(&self) -> u64 {
        self.locked_since.load(Ordering::Relaxed)
    }
}

/// A write guard over one shard's [`Transform2Index`] that publishes a
/// fresh [`ShardView`] when dropped — unless the thread is unwinding, in
/// which case the half-mutated state is never made visible to readers.
pub struct ShardGuard<'a, I: StaticIndex + Sync> {
    slot: &'a ShardSlot<I>,
    guard: RwLockWriteGuard<'a, Transform2Index<I>>,
}

impl<I: StaticIndex + Sync> Deref for ShardGuard<'_, I> {
    type Target = Transform2Index<I>;

    fn deref(&self) -> &Transform2Index<I> {
        &self.guard
    }
}

impl<I: StaticIndex + Sync> DerefMut for ShardGuard<'_, I> {
    fn deref_mut(&mut self) -> &mut Transform2Index<I> {
        &mut self.guard
    }
}

impl<I: StaticIndex + Sync> Drop for ShardGuard<'_, I> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A panicked writer may have left the index mid-mutation:
            // readers must keep the last good view, so publish nothing.
            // Count the poisoning itself exactly once — the latch keeps
            // later refused writes from re-counting the event — and
            // clear the hold stamp so the watchdog reports the shard as
            // poisoned, not as a stalled writer too.
            if !self.slot.poison_latch.swap(true, Ordering::Relaxed) {
                if let Some(counter) = &self.slot.poison_events {
                    counter.inc();
                }
            }
            self.slot.locked_since.store(0, Ordering::Relaxed);
            return;
        }
        // Capture-then-swap happens while the index lock is still held
        // (the inner guard drops after this body), so publications are
        // serialized and view epochs stay strictly monotone. The old
        // view is dropped only after the view lock is released.
        let next = Arc::new(self.guard.snapshot_view());
        let old = std::mem::replace(
            &mut *self
                .slot
                .view
                .write()
                .unwrap_or_else(PoisonError::into_inner),
            next,
        );
        drop(old);
        self.slot.locked_since.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndex_core::{DynOptions, FmConfig, RebuildMode};
    use dyndex_text::FmIndexCompressed;

    #[test]
    fn held_view_outlives_publishes_and_dies_with_its_reader() {
        let index = Transform2Index::new(
            FmConfig { sample_rate: 4 },
            DynOptions::default(),
            RebuildMode::Inline,
        );
        let slot: ShardSlot<FmIndexCompressed> = ShardSlot::new(0, index, None);
        slot.write().unwrap().insert(1, b"old value");
        let held = slot.view();
        slot.write().unwrap().insert(2, b"new value");
        slot.write().unwrap().delete(1);
        assert_eq!(held.count(b"old value"), 1, "a held view never changes");
        assert_eq!(held.count(b"new value"), 0);
        assert_eq!(slot.view().count(b"old value"), 0);
        assert_eq!(slot.view().count(b"new value"), 1);
        assert!(slot.view().epoch() > held.epoch() + 1, "two publishes");
        // The slot kept no reference of its own: the reader's drop frees it.
        let weak = Arc::downgrade(&held);
        drop(held);
        assert!(weak.upgrade().is_none(), "freed by the reader's drop");
    }
}
