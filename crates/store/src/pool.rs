//! The resident per-shard worker pool: one long-lived thread pinned to
//! each shard, running queued background jobs and draining the shard's
//! finished rebuild jobs between them.
//!
//! Reads never come here: a query is a pure function of the shards'
//! published views and runs on the calling thread. What the workers are
//! needed for is work that must not ride on a foreground operation:
//!
//! - **Idle-tick installs.** When a tick has elapsed since its last
//!   drain a worker polls its shard with `try_write` and installs any
//!   finished background rebuild jobs — installs stay off the foreground
//!   path without a separate scheduler thread, and a shard busy with a
//!   writer is skipped until the next tick, never contended.
//! - **Queued jobs** ([`WorkerPool::submit`]): bulk-ingest chunk builds,
//!   snapshot level serialization, and whatever else arrives through
//!   `ShardedStore::submit_background_job`, as boxed closures that send
//!   their result through a captured reply channel.
//! - **Gauges and heartbeat** ([`WorkerGauges`]): queue depth and busy
//!   flags for the census and the serving layer's write-shed gate, plus
//!   the liveness stamps the health watchdog reads.

use crate::shard::ShardSlot;
use dyndex_core::StaticIndex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work for one shard's worker: a closure run against the
/// shard's slot, sending its result through a captured reply channel.
pub(crate) type Job<I> = Box<dyn FnOnce(&ShardSlot<I>) + Send>;

/// Live per-worker gauges, shared with [`crate::StoreStats`] and the
/// health watchdog.
#[derive(Default)]
pub(crate) struct WorkerGauges {
    /// Requests waiting in the queue (a dequeued request moves to `busy`
    /// before this drops, so depth + busy never undercounts).
    queued: AtomicUsize,
    /// Whether the worker is currently executing a request.
    busy: AtomicBool,
    /// Monotonic nanos of the worker's last loop iteration (see
    /// [`crate::health::nanos_now`]); 0 until the worker first runs.
    heartbeat: AtomicU64,
    /// Monotonic nanos when the currently-executing request started;
    /// 0 while idle. The watchdog's stuck-worker detector reads this.
    busy_since: AtomicU64,
}

impl WorkerGauges {
    /// Last heartbeat stamp (0 = never ran).
    pub(crate) fn heartbeat(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// When the current request started (0 = idle).
    pub(crate) fn busy_since(&self) -> u64 {
        self.busy_since.load(Ordering::Relaxed)
    }

    /// Requests currently waiting in the worker's queue.
    pub(crate) fn queued_depth(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }
}

struct Worker {
    gauges: Arc<WorkerGauges>,
    handle: Option<JoinHandle<()>>,
}

/// One resident worker per shard, plus the shared install counter.
/// Dropping the pool closes every queue; workers finish the requests
/// already queued, then exit and are joined.
pub(crate) struct WorkerPool<I: StaticIndex + Sync> {
    /// Typed senders, parallel to `workers` (kept separate so `Worker`
    /// needs no `I` parameter); cleared first during teardown so the
    /// workers see their queues close before being joined.
    senders: Vec<Sender<Job<I>>>,
    workers: Vec<Worker>,
    /// Rebuild jobs installed by workers (not by foreground operations).
    installs: Arc<AtomicU64>,
}

impl<I: StaticIndex + Sync> WorkerPool<I> {
    /// Spawns one worker per shard, each polling its queue and — after
    /// `tick` of queue idleness — draining its shard's finished rebuild
    /// jobs via `try_write`.
    pub(crate) fn spawn(shards: Arc<Vec<ShardSlot<I>>>, tick: Duration) -> Self {
        let installs = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::with_capacity(shards.len());
        let workers = (0..shards.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel::<Job<I>>();
                let gauges = Arc::new(WorkerGauges::default());
                let handle = {
                    let shards = Arc::clone(&shards);
                    let gauges = Arc::clone(&gauges);
                    let installs = Arc::clone(&installs);
                    std::thread::spawn(move || {
                        worker_loop(&shards, shard, rx, &gauges, &installs, tick)
                    })
                };
                senders.push(tx);
                Worker {
                    gauges,
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool {
            senders,
            workers,
            installs,
        }
    }

    /// Number of resident workers (= shards).
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `job` on `shard`'s worker. The job runs after everything
    /// already queued there; replies travel through whatever channel the
    /// closure captured.
    pub(crate) fn submit(&self, shard: usize, job: Job<I>) {
        let worker = &self.workers[shard];
        worker.gauges.queued.fetch_add(1, Ordering::Relaxed);
        if self.senders[shard].send(job).is_err() {
            // Worker gone (only possible mid-teardown); the dropped job
            // closes its reply channel, so the caller observes the loss.
            worker.gauges.queued.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Waits until every request queued before this call has completed:
    /// submits a no-op rendezvous job to every worker and blocks for all
    /// replies. The backbone of [`crate::ShardedStore::flush`].
    pub(crate) fn drain(&self) {
        let receivers: Vec<Receiver<()>> = (0..self.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.submit(
                    shard,
                    Box::new(move |_| {
                        let _ = tx.send(());
                    }),
                );
                rx
            })
            .collect();
        for rx in receivers {
            // A disconnect (worker died without running the job) still
            // means the queue ahead of the rendezvous point is spent.
            let _ = rx.recv();
        }
    }

    /// One-pass read of `shard`'s gauges: `(queued_requests, busy)` from
    /// the same instant — the census never mixes a queue depth and a busy
    /// flag observed across separate visits. Queued excludes the request
    /// currently executing (that one is the `busy` flag).
    pub(crate) fn shard_gauges(&self, shard: usize) -> (usize, bool) {
        let gauges = &self.workers[shard].gauges;
        (
            gauges.queued.load(Ordering::Relaxed),
            gauges.busy.load(Ordering::Relaxed),
        )
    }

    /// Rebuild jobs installed by workers so far.
    pub(crate) fn installs(&self) -> u64 {
        self.installs.load(Ordering::Relaxed)
    }

    /// Shared gauge handles, one per worker — the health watchdog holds
    /// these to read heartbeats without referencing the pool itself.
    pub(crate) fn gauges(&self) -> Vec<Arc<WorkerGauges>> {
        self.workers.iter().map(|w| Arc::clone(&w.gauges)).collect()
    }
}

impl<I: StaticIndex + Sync> Drop for WorkerPool<I> {
    fn drop(&mut self) {
        // Close every queue first: workers finish what is already queued
        // (std mpsc delivers buffered messages even after the sender is
        // dropped), then observe the disconnect and exit.
        self.senders.clear();
        for worker in self.workers.iter_mut() {
            if let Some(handle) = worker.handle.take() {
                if std::thread::panicking() {
                    // Already unwinding (e.g. a panicking test dropping
                    // the store): a second panic here would abort.
                    let _ = handle.join();
                } else {
                    handle.join().expect("shard worker panicked");
                }
            }
        }
    }
}

/// The worker body: block on the request queue (up to one maintenance
/// tick), execute jobs as they arrive, and drain the shard's finished
/// rebuild work whenever a tick has elapsed since the last drain — on
/// queue idleness *or* between back-to-back requests.
fn worker_loop<I: StaticIndex + Sync>(
    shards: &[ShardSlot<I>],
    shard: usize,
    rx: Receiver<Job<I>>,
    gauges: &WorkerGauges,
    installs: &AtomicU64,
    tick: Duration,
) {
    let slot = &shards[shard];
    let mut last_maintain = Instant::now();
    loop {
        gauges
            .heartbeat
            .store(crate::health::nanos_now(), Ordering::Relaxed);
        match rx.recv_timeout(tick) {
            Ok(job) => {
                gauges.busy.store(true, Ordering::Relaxed);
                gauges
                    .busy_since
                    .store(crate::health::nanos_now(), Ordering::Relaxed);
                gauges.queued.fetch_sub(1, Ordering::Relaxed);
                // Jobs wrap their own work in `catch_unwind` and report
                // panics through their reply channel; a panic escaping
                // here would only come from the reply send itself, which
                // is infallible-by-construction. Either way the worker
                // must survive for the shard to stay serviceable, so
                // contain anything that slips through.
                let survived =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(slot))).is_ok();
                debug_assert!(survived, "job leaked a panic past its reply channel");
                gauges.busy_since.store(0, Ordering::Relaxed);
                gauges.busy.store(false, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if last_maintain.elapsed() >= tick {
            last_maintain = Instant::now();
            // Never contend with foreground work (and never touch a
            // shard poisoned by a panicked writer): skip unless the
            // write lock is free and healthy. Dropping the guard
            // republishes the shard's view, so installs become visible
            // to the lock-free read path immediately.
            let Some(mut index) = slot.try_write() else {
                continue;
            };
            let before = index.work().jobs_completed;
            index.poll_background_work();
            let installed = index.work().jobs_completed - before;
            if installed > 0 {
                installs.fetch_add(installed, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndex_core::{DynOptions, FmConfig, RebuildMode, Transform2Index};
    use dyndex_text::FmIndexCompressed;

    /// Workers stamp a heartbeat every loop iteration — the watchdog's
    /// evidence that a worker thread is alive and cycling.
    #[test]
    fn workers_heartbeat() {
        let slots: Vec<ShardSlot<FmIndexCompressed>> = (0..2)
            .map(|shard| {
                let index = Transform2Index::new(
                    FmConfig { sample_rate: 8 },
                    DynOptions::default(),
                    RebuildMode::Inline,
                );
                ShardSlot::new(shard, index, None)
            })
            .collect();
        let pool = WorkerPool::spawn(Arc::new(slots), Duration::from_micros(100));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let gauges = pool.gauges();
            if gauges.iter().all(|g| g.heartbeat() != 0) {
                assert!(gauges.iter().all(|g| g.busy_since() == 0), "idle workers");
                break;
            }
            assert!(Instant::now() < deadline, "workers never heartbeat");
            std::thread::yield_now();
        }
    }
}
