//! A fixed-size, self-healing worker thread pool over an [`mpsc`]
//! channel.
//!
//! The server's connection threads own all connection I/O and hand each
//! parsed request that the response cache cannot answer to this pool as
//! one compute job. The channel is a [`mpsc::sync_channel`] with a
//! bounded backlog, which is the server's backpressure mechanism: when
//! every worker is busy and the backlog is full,
//! [`ThreadPool::try_execute`] fails immediately and *returns the work
//! item*, so the connection thread can answer `503 Service Unavailable`
//! for the rejected request — in pipeline order, on a connection that
//! stays open — instead of queueing unboundedly or dropping it silently.
//!
//! Workers are self-healing: a handler that panics kills its thread, but
//! a sentinel guard notices the unwind, counts it, and spawns a
//! replacement before the old thread finishes dying — pool capacity
//! never silently decays. The count is exposed via
//! [`ThreadPool::with_panic_counter`]'s shared counter (the server's
//! `worker_panics_total` metric): the invariant "containment upstream
//! caught every panic" is `worker_panics_total == 0`, observable rather
//! than assumed.
//!
//! Dropping the pool (or calling [`ThreadPool::join`]) closes the
//! channel; workers — originals and respawns alike — finish the jobs
//! already queued, then exit — that is what makes the server's shutdown
//! a *drain* rather than an abort.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A fixed set of worker threads applying one handler to queued items.
pub struct ThreadPool<T: Send + 'static> {
    sender: Option<mpsc::SyncSender<T>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> std::fmt::Debug for ThreadPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .field("panics", &self.panics())
            .finish_non_exhaustive()
    }
}

/// State every worker (original or respawned) shares.
struct Shared<T> {
    receiver: Mutex<mpsc::Receiver<T>>,
    handler: Box<dyn Fn(T) + Send + Sync>,
    panics: Arc<AtomicU64>,
    /// Replacement workers spawned after panics; drained at shutdown so
    /// the join guarantee covers them too.
    respawned: Mutex<Vec<JoinHandle<()>>>,
    respawn_seq: AtomicUsize,
}

/// Why an item could not be enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// Every worker is busy and the backlog is full (backpressure).
    Saturated,
    /// The pool is shutting down and accepts no new work.
    Closed,
}

/// An item the pool refused, handed back so the caller can shed load.
#[derive(Debug)]
pub struct Rejected<T> {
    /// The item that was not enqueued.
    pub item: T,
    /// Why it was refused.
    pub reason: PoolError,
}

impl<T: Send + 'static> ThreadPool<T> {
    /// Spawns `workers` threads sharing a queue of at most `backlog`
    /// pending items, each applying `handler`. Both counts are clamped
    /// to at least 1.
    pub fn new(
        workers: usize,
        backlog: usize,
        handler: impl Fn(T) + Send + Sync + 'static,
    ) -> ThreadPool<T> {
        ThreadPool::with_panic_counter(workers, backlog, Arc::new(AtomicU64::new(0)), handler)
    }

    /// As [`ThreadPool::new`], but counting worker panics into a counter
    /// the caller keeps (the server wires its metrics' counter in here).
    pub fn with_panic_counter(
        workers: usize,
        backlog: usize,
        panics: Arc<AtomicU64>,
        handler: impl Fn(T) + Send + Sync + 'static,
    ) -> ThreadPool<T> {
        let (sender, receiver) = mpsc::sync_channel::<T>(backlog.max(1));
        let shared = Arc::new(Shared {
            receiver: Mutex::new(receiver),
            handler: Box::new(handler),
            panics,
            respawned: Mutex::new(Vec::new()),
            respawn_seq: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("accelwall-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // lint:allow(no-panic-paths): failing to spawn at startup leaves no useful fallback; dying loudly before serving is correct
                    .expect("spawning a worker thread")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
            shared,
        }
    }

    /// Worker panics observed (and healed) so far.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Enqueues an item without blocking.
    ///
    /// # Errors
    ///
    /// Returns the item with [`PoolError::Saturated`] when the backlog
    /// is full, or [`PoolError::Closed`] once shutdown began.
    pub fn try_execute(&self, item: T) -> Result<(), Rejected<T>> {
        let Some(sender) = self.sender.as_ref() else {
            return Err(Rejected {
                item,
                reason: PoolError::Closed,
            });
        };
        sender.try_send(item).map_err(|e| match e {
            mpsc::TrySendError::Full(item) => Rejected {
                item,
                reason: PoolError::Saturated,
            },
            mpsc::TrySendError::Disconnected(item) => Rejected {
                item,
                reason: PoolError::Closed,
            },
        })
    }

    /// Closes the queue and blocks until every queued item has been
    /// handled.
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.sender = None; // close the channel: workers drain then exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Respawned workers register themselves before their dying
        // predecessor exits, so by the time the joins above return the
        // list is complete up to panics *inside this loop* — hence pop
        // until empty rather than a single drain.
        loop {
            let handle = self
                .shared
                .respawned
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
    }
}

impl<T: Send + 'static> Drop for ThreadPool<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The loop every worker runs. The receiver lock is held only for the
/// `recv` — the handler runs unlocked, so a panicking handler can never
/// poison the queue for its siblings.
fn worker_loop<T: Send + 'static>(shared: &Arc<Shared<T>>) {
    let sentinel = Sentinel {
        shared: Arc::clone(shared),
        armed: true,
    };
    loop {
        let item = {
            let receiver = shared
                .receiver
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            receiver.recv()
        };
        match item {
            Ok(item) => (shared.handler)(item),
            Err(_) => break, // channel closed and drained
        }
    }
    sentinel.disarm();
}

/// Guard that turns an unwinding worker into a respawn: if the thread
/// dies panicking, `Drop` counts the panic and spawns a replacement; on
/// a clean exit the guard is disarmed first and does nothing.
struct Sentinel<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    armed: bool,
}

impl<T: Send + 'static> Sentinel<T> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl<T: Send + 'static> Drop for Sentinel<T> {
    fn drop(&mut self) {
        if !self.armed || !std::thread::panicking() {
            return;
        }
        // Relaxed: both are monotonic telemetry counters — nothing is
        // published through them, readers only want an eventual count.
        self.shared.panics.fetch_add(1, Ordering::Relaxed);
        let seq = self.shared.respawn_seq.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name(format!("accelwall-worker-respawn-{seq}"))
            .spawn(move || worker_loop(&shared));
        // Register the replacement *before* this thread finishes dying,
        // so shutdown's join of the dead worker happens-after the push.
        // If the spawn itself fails (thread exhaustion) there is nothing
        // useful to do from a Drop mid-unwind; capacity degrades by one
        // but the panic is still counted and visible in metrics.
        if let Ok(handle) = spawned {
            self.shared
                .respawned
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_every_queued_item_before_join_returns() {
        let hits = Arc::new(AtomicUsize::new(0));
        let sink = Arc::clone(&hits);
        let pool = ThreadPool::new(4, 16, move |n: usize| {
            sink.fetch_add(n, Ordering::SeqCst);
        });
        for _ in 0..16 {
            pool.try_execute(1).unwrap();
        }
        pool.join();
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn saturation_returns_the_item_instead_of_queueing() {
        let gate = Arc::new(std::sync::Barrier::new(2));
        let worker_gate = Arc::clone(&gate);
        let pool = ThreadPool::new(1, 1, move |block: bool| {
            if block {
                worker_gate.wait();
            }
        });
        // Occupy the single worker...
        pool.try_execute(true).unwrap();
        // ...and give the queue a moment to hand the item over.
        std::thread::sleep(Duration::from_millis(50));
        // One item fits in the backlog; the next must bounce back.
        let mut bounced = None;
        for _ in 0..2 {
            if let Err(rejected) = pool.try_execute(false) {
                assert_eq!(rejected.reason, PoolError::Saturated);
                bounced = Some(rejected.item);
            }
        }
        assert_eq!(
            bounced,
            Some(false),
            "a full backlog must hand the item back"
        );
        gate.wait();
        pool.join();
    }

    #[test]
    fn a_panicking_handler_respawns_the_worker_and_counts_the_panic() {
        let panics = Arc::new(AtomicU64::new(0));
        let hits = Arc::new(AtomicUsize::new(0));
        let sink = Arc::clone(&hits);
        let pool = ThreadPool::with_panic_counter(1, 16, Arc::clone(&panics), move |n: usize| {
            assert!(n != 0, "injected handler panic");
            sink.fetch_add(n, Ordering::SeqCst);
        });
        // The single worker dies on the first item; the respawned worker
        // must still drain everything behind it.
        pool.try_execute(0).unwrap();
        for _ in 0..8 {
            pool.try_execute(1).unwrap();
        }
        assert_eq!(pool.panics(), panics.load(Ordering::SeqCst));
        pool.join();
        assert_eq!(hits.load(Ordering::SeqCst), 8, "queued items all ran");
        assert_eq!(panics.load(Ordering::SeqCst), 1, "one panic, one respawn");
    }

    #[test]
    fn repeated_panics_keep_healing_the_pool() {
        let panics = Arc::new(AtomicU64::new(0));
        let hits = Arc::new(AtomicUsize::new(0));
        let sink = Arc::clone(&hits);
        let pool = ThreadPool::with_panic_counter(2, 32, Arc::clone(&panics), move |n: usize| {
            assert!(n != 0, "injected handler panic");
            sink.fetch_add(1, Ordering::SeqCst);
        });
        for round in 0..3 {
            pool.try_execute(0).unwrap();
            for _ in 0..4 {
                pool.try_execute(1).unwrap();
            }
            // Let the respawn settle between rounds.
            std::thread::sleep(Duration::from_millis(20 * (round + 1)));
        }
        pool.join();
        assert_eq!(hits.load(Ordering::SeqCst), 12);
        assert_eq!(panics.load(Ordering::SeqCst), 3);
    }
}
