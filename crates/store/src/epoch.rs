//! Epoch-based reclamation for atomically-published shard views.
//!
//! [`ViewCell`] is the store's `ArcSwap`-style primitive: a single
//! `AtomicPtr` holding the current [`Arc`]'d value. Readers load it with
//! one atomic pointer read plus a reference-count bump; writers install a
//! successor with one pointer swap. The subtlety is the race between a
//! reader's pointer load and its refcount bump: if the writer dropped the
//! old `Arc` immediately after swapping, a reader holding the raw pointer
//! could bump a freed count. The classic fix — and the one used here — is
//! **epoch-based reclamation** (crossbeam-style):
//!
//! * A process-global epoch counter advances on every swap.
//! * Each reading thread owns a *slot*; it pins itself by storing the
//!   current epoch into its slot (`SeqCst`) before touching the pointer,
//!   and unpins (stores `u64::MAX`) after the refcount bump.
//! * A swapped-out value is not dropped but *retired* with the epoch at
//!   swap time; retired garbage is freed only once every slot is pinned
//!   strictly above (or unpinned) — at which point no reader can still
//!   hold the raw pointer without having bumped the count.
//!
//! Why a pinned reader can never see freed memory: if a reader's pointer
//! load returned the *old* value, that load preceded the writer's swap in
//! the `SeqCst` total order, so the reader's earlier slot store (its pin)
//! also preceded the writer's later slot scan — the scan must observe the
//! pin and keep the garbage. Conversely a scan that saw the slot unpinned
//! proves the reader's pointer load came after the swap and returned the
//! new value. Either way `Arc::increment_strong_count` runs on a live
//! allocation.
//!
//! Slots are registered once per thread (`thread_local!`) and recycled
//! through a free list when the thread exits, so churning threads (soak
//! tests, scoped writer batches) do not grow the registry without bound.

use dyndex_obs::{FlightRecorder, Span, SpanKind};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

/// Slot value meaning "this thread holds no pinned pointer".
const UNPINNED: u64 = u64::MAX;

/// One thread's pin state: the epoch it pinned at, or [`UNPINNED`].
struct ReaderSlot {
    epoch: AtomicU64,
}

/// Retired garbage: the epoch it was retired at plus the value itself
/// (dropping the box frees it).
type Retired = (u64, Box<dyn std::any::Any + Send>);

/// The process-global reclamation domain shared by every [`ViewCell`].
struct Domain {
    /// Advances on every [`ViewCell::store`].
    epoch: AtomicU64,
    /// Every thread slot ever registered (scanned by writers).
    slots: Mutex<Vec<Arc<ReaderSlot>>>,
    /// Indexes into `slots` whose threads have exited, free for reuse.
    free: Mutex<Vec<usize>>,
    /// Values retired but not yet provably unreachable.
    garbage: Mutex<Vec<Retired>>,
    /// Cumulative [`collect`] passes (telemetry).
    passes: AtomicU64,
}

/// Mutex poisoning cannot leave these structures torn (no panicking code
/// runs under them); recover the guard instead of cascading.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn domain() -> &'static Domain {
    static DOMAIN: OnceLock<Domain> = OnceLock::new();
    DOMAIN.get_or_init(|| Domain {
        epoch: AtomicU64::new(0),
        slots: Mutex::new(Vec::new()),
        free: Mutex::new(Vec::new()),
        garbage: Mutex::new(Vec::new()),
        passes: AtomicU64::new(0),
    })
}

/// RAII registration of this thread's [`ReaderSlot`]; returning the slot
/// index to the free list on thread exit.
struct SlotHandle {
    slot: Arc<ReaderSlot>,
    index: usize,
}

impl SlotHandle {
    fn register() -> Self {
        let d = domain();
        let mut slots = lock(&d.slots);
        if let Some(index) = lock(&d.free).pop() {
            let slot = Arc::clone(&slots[index]);
            slot.epoch.store(UNPINNED, Ordering::SeqCst);
            return SlotHandle { slot, index };
        }
        let slot = Arc::new(ReaderSlot {
            epoch: AtomicU64::new(UNPINNED),
        });
        slots.push(Arc::clone(&slot));
        SlotHandle {
            slot,
            index: slots.len() - 1,
        }
    }
}

impl Drop for SlotHandle {
    fn drop(&mut self) {
        self.slot.epoch.store(UNPINNED, Ordering::SeqCst);
        lock(&domain().free).push(self.index);
    }
}

thread_local! {
    static SLOT: SlotHandle = SlotHandle::register();
}

/// The flight recorder GC passes report spans to, registered (weakly, so
/// a dropped store never keeps its recorder alive through this global)
/// by the most recent store construction that enabled telemetry.
fn gc_flight_cell() -> &'static Mutex<Weak<FlightRecorder>> {
    static CELL: OnceLock<Mutex<Weak<FlightRecorder>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(Weak::new()))
}

/// Registers `flight` as the recorder epoch-GC passes emit spans to.
/// The domain is process-global, so the last registration wins.
pub(crate) fn set_gc_flight(flight: &Arc<FlightRecorder>) {
    *lock(gc_flight_cell()) = Arc::downgrade(flight);
}

/// Frees every retired value whose retire epoch is provably below all
/// pinned readers. Actual drops happen after both locks are released.
fn collect(d: &Domain) {
    d.passes.fetch_add(1, Ordering::Relaxed);
    let flight = lock(gc_flight_cell()).upgrade();
    let started = flight
        .as_ref()
        .map(|f| (f.now_nanos(), std::time::Instant::now()));
    let min_pinned = {
        let slots = lock(&d.slots);
        slots
            .iter()
            .map(|s| s.epoch.load(Ordering::SeqCst))
            .min()
            .unwrap_or(UNPINNED)
    };
    let mut freed = Vec::new();
    {
        let mut garbage = lock(&d.garbage);
        let mut i = 0;
        while i < garbage.len() {
            if garbage[i].0 < min_pinned {
                freed.push(garbage.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
    let freed_count = freed.len();
    drop(freed);
    // Only passes that reclaimed something become spans — empty passes
    // run on every publication and would drown the ring in noise.
    if freed_count > 0 {
        if let (Some(f), Some((start_nanos, t0))) = (flight, started) {
            f.record(Span {
                start_nanos,
                duration_nanos: t0.elapsed().as_nanos() as u64,
                detail: freed_count as u64,
                ..Span::child(0, SpanKind::EpochGc)
            });
        }
    }
}

/// Point-in-time reclamation telemetry: `(retired values not yet freed,
/// cumulative collect passes)`. Process-global, like the domain itself.
pub(crate) fn epoch_stats() -> (usize, u64) {
    let d = domain();
    (lock(&d.garbage).len(), d.passes.load(Ordering::Relaxed))
}

/// An atomically-swapped `Arc<T>` cell with epoch-reclaimed reads: one
/// atomic load (plus a refcount bump) per [`ViewCell::load`], one atomic
/// swap per [`ViewCell::store`], no locks anywhere on the read path.
pub(crate) struct ViewCell<T: Send + Sync + 'static> {
    /// Always a valid `Arc::into_raw` pointer; the cell owns one strong
    /// reference to whatever it currently points at.
    ptr: AtomicPtr<T>,
}

impl<T: Send + Sync + 'static> ViewCell<T> {
    pub(crate) fn new(value: Arc<T>) -> Self {
        ViewCell {
            ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
        }
    }

    /// Loads the current value — wait-free apart from the one-time
    /// per-thread slot registration.
    pub(crate) fn load(&self) -> Arc<T> {
        let d = domain();
        SLOT.with(|handle| {
            let slot = &handle.slot;
            // Pin: publish the epoch we are reading under *before*
            // touching the pointer. A stale (smaller) epoch only makes
            // writers more conservative.
            slot.epoch
                .store(d.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
            let ptr = self.ptr.load(Ordering::SeqCst);
            // SAFETY: `ptr` came from `Arc::into_raw` and the allocation
            // is alive: either it is still the cell's current value, or
            // it was retired at an epoch our pin prevents from being
            // freed (see module docs for the ordering argument).
            let arc = unsafe {
                Arc::increment_strong_count(ptr);
                Arc::from_raw(ptr)
            };
            slot.epoch.store(UNPINNED, Ordering::SeqCst);
            arc
        })
    }

    /// Publishes `value`, retiring the previous value into the epoch
    /// domain (freed once no reader can still hold its raw pointer).
    pub(crate) fn store(&self, value: Arc<T>) {
        let new = Arc::into_raw(value).cast_mut();
        let old = self.ptr.swap(new, Ordering::SeqCst);
        let d = domain();
        let retire_epoch = d.epoch.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `old` was this cell's `Arc::into_raw` pointer and the
        // swap transferred its strong reference to us.
        let old: Arc<T> = unsafe { Arc::from_raw(old) };
        lock(&d.garbage).push((retire_epoch, Box::new(old)));
        collect(d);
    }
}

impl<T: Send + Sync + 'static> Drop for ViewCell<T> {
    fn drop(&mut self) {
        // Exclusive access: no reader can be mid-`load` on this cell.
        // (Readers that already finished `load` hold their own strong
        // references.) Retired predecessors live in the domain's garbage
        // list independently of the cell.
        let ptr = *self.ptr.get_mut();
        // SAFETY: the cell owns one strong reference to `ptr`.
        unsafe { drop(Arc::from_raw(ptr)) };
        collect(domain());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts live instances so reclamation is observable.
    struct Tracked(Arc<AtomicUsize>);
    impl Tracked {
        fn new(live: &Arc<AtomicUsize>) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Tracked(Arc::clone(live))
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn load_returns_latest_store() {
        let cell = ViewCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
        let held = cell.load();
        cell.store(Arc::new(3));
        assert_eq!(*held, 2, "already-loaded Arcs keep their value");
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn retired_values_are_eventually_freed() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = ViewCell::new(Arc::new(Tracked::new(&live)));
        for _ in 0..100 {
            cell.store(Arc::new(Tracked::new(&live)));
        }
        // Readers in concurrently-running tests may be pinned at recent
        // epochs, deferring the newest retirees; every further store
        // advances the epoch and collects, so the garbage must drain to
        // just the current value.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while live.load(Ordering::SeqCst) > 1 && std::time::Instant::now() < deadline {
            cell.store(Arc::new(Tracked::new(&live)));
            std::thread::yield_now();
        }
        assert_eq!(live.load(Ordering::SeqCst), 1);
        drop(cell);
        // Dropping the cell frees the final value too.
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_load_store_hammer() {
        let cell = Arc::new(ViewCell::new(Arc::new(0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        assert!(v >= last, "published values must be monotone");
                        last = v;
                    }
                });
            }
            for i in 1..=10_000u64 {
                cell.store(Arc::new(i));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(*cell.load(), 10_000);
    }

    #[test]
    fn thread_slots_are_recycled() {
        // Register slots from many short-lived threads; the registry must
        // stay bounded because exited threads return their slots.
        let before = lock(&domain().slots).len();
        for _ in 0..64 {
            std::thread::spawn(|| {
                let cell = ViewCell::new(Arc::new(7u8));
                let _ = cell.load();
            })
            .join()
            .unwrap();
        }
        // Concurrently-running tests may register a handful of slots of
        // their own; the point is that 64 sequential threads reuse one.
        let after = lock(&domain().slots).len();
        assert!(
            after <= before + 8,
            "slot registry grew from {before} to {after} across 64 threads"
        );
    }
}
