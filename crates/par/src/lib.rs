//! A dependency-free data-parallel runtime for the hot compute kernels.
//!
//! The pipeline already overlaps *experiments* (dependency waves in the
//! registry, per-slot compute threads in the artifact cache); this crate
//! parallelizes the serial kernels *inside* an experiment — the
//! design-space sweeps, corpus generation, and regression accumulations
//! that dominate the cold path — without changing a single output byte.
//!
//! # Design
//!
//! * **One global pool.** Worker threads are spawned lazily on first
//!   use, sized to [`threads`]` - 1` (the caller is the remaining
//!   thread). The size comes from, in priority order: a programmatic
//!   [`set_threads`] override (the `--threads` CLI flag), the
//!   `ACCELWALL_THREADS` environment variable, and
//!   `std::thread::available_parallelism`.
//! * **Chunked jobs with tail stealing.** A job divides an index range
//!   `0..len` into fixed-size chunks and publishes a single atomic
//!   cursor packing a head and a tail index. The submitting thread
//!   claims chunks from the head; idle pool workers steal chunks from
//!   the tail. The caller always participates in its own job, so every
//!   job completes even when the pool is saturated (or has zero
//!   workers).
//! * **Deterministic ordering.** [`par_map`] places each result by its
//!   index, so its output is byte-identical to the serial loop no
//!   matter how chunks were scheduled. [`par_chunks`] and
//!   [`par_map_reduce`] take an *explicit* chunk size and fold partial
//!   results in chunk-index order (a pairwise tree), so even
//!   non-associative float reductions are independent of thread count.
//! * **Panic propagation.** A panicking chunk does not poison the pool:
//!   the payload is captured, remaining chunks finish, and the payload
//!   is re-raised on the submitting thread via `resume_unwind` — which
//!   composes with the `ArtifactCache` containment (`catch_unwind` →
//!   `ExperimentPanicked`) exactly like a serial panic.
//!
//! The pool exports three counters for `/metrics`:
//! `accelwall_par_workers`, `accelwall_par_jobs_total`, and
//! `accelwall_par_steals_total` ([`workers`], [`jobs_total`],
//! [`steals_total`]).

#![forbid(unsafe_code)]

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Environment variable overriding the pool size (a positive integer).
pub const THREADS_ENV: &str = "ACCELWALL_THREADS";

/// How long a cached detached-spawn thread stays parked waiting for its
/// next task before exiting.
const SPAWN_KEEPALIVE: Duration = Duration::from_secs(10);

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static JOBS_TOTAL: AtomicU64 = AtomicU64::new(0);
static STEALS_TOTAL: AtomicU64 = AtomicU64::new(0);
static POOL: OnceLock<Arc<Pool>> = OnceLock::new();

/// Locks a mutex, riding through poisoning: a worker that panicked
/// while holding a pool lock must not wedge every later job. Panics are
/// separately captured per chunk, so the guarded state stays coherent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Overrides the pool size (total parallelism, *including* the calling
/// thread). Takes effect only if the pool has not started yet — the
/// first `par_*` call freezes the size — so the CLI applies it before
/// any kernel runs. Zero is ignored.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The pool's total parallelism (workers + the calling thread). Reports
/// the frozen size once the pool is live, the would-be size otherwise.
pub fn threads() -> usize {
    POOL.get().map_or_else(resolve_threads, |p| p.threads)
}

/// Number of live pool worker threads (`threads() - 1`); the
/// `accelwall_par_workers` gauge.
pub fn workers() -> usize {
    POOL.get().map_or_else(
        || resolve_threads() - 1,
        |p| p.workers.load(Ordering::Relaxed),
    )
}

/// Total `par_*` jobs executed since process start; the
/// `accelwall_par_jobs_total` counter.
pub fn jobs_total() -> u64 {
    JOBS_TOTAL.load(Ordering::Relaxed)
}

/// Total chunks claimed by pool workers (rather than the submitting
/// thread); the `accelwall_par_steals_total` counter.
pub fn steals_total() -> u64 {
    STEALS_TOTAL.load(Ordering::Relaxed)
}

fn resolve_threads() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A chunked job the pool can steal from. Implemented by the private
/// generic job state; object-safe so the queue can hold any item type.
trait Job: Send + Sync {
    /// Whether unclaimed chunks remain.
    fn has_work(&self) -> bool;
    /// Claims one chunk from the tail and runs it. Returns `false` when
    /// nothing was left to steal.
    fn steal_chunk(&self) -> bool;
}

struct Pool {
    /// Frozen total parallelism (workers + caller).
    threads: usize,
    /// Worker threads actually live (spawning can fail under thread
    /// exhaustion; jobs still complete on the caller).
    workers: AtomicUsize,
    /// Jobs with potentially unclaimed chunks, oldest first.
    queue: Mutex<Vec<Arc<dyn Job>>>,
    /// Signals workers that a new job was published.
    wake: Condvar,
}

fn pool() -> &'static Arc<Pool> {
    POOL.get_or_init(|| {
        let threads = resolve_threads();
        let pool = Arc::new(Pool {
            threads,
            workers: AtomicUsize::new(0),
            queue: Mutex::new(Vec::new()),
            wake: Condvar::new(),
        });
        for id in 0..threads.saturating_sub(1) {
            let shared = Arc::clone(&pool);
            let worker = std::thread::Builder::new()
                .name(format!("accelwall-par-{id}"))
                .spawn(move || worker_loop(&shared));
            if worker.is_ok() {
                pool.workers.fetch_add(1, Ordering::Relaxed);
            }
        }
        pool
    })
}

fn worker_loop(pool: &Pool) {
    loop {
        let job = {
            let mut queue = lock(&pool.queue);
            loop {
                if let Some(job) = queue.iter().find(|j| j.has_work()).cloned() {
                    break job;
                }
                queue = pool
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        while job.steal_chunk() {}
        // The job has no stealable chunks left; drop it from the queue
        // (the owner also removes it on completion — either order works).
        lock(&pool.queue).retain(|j| !Arc::ptr_eq(j, &job));
    }
}

/// Shared state of one chunked job.
struct JobState<T, F> {
    f: F,
    len: usize,
    chunk_size: usize,
    n_chunks: usize,
    /// Packs `head` (next chunk for the owner) in the high 32 bits and
    /// `tail` (one past the last unstolen chunk) in the low 32 bits.
    /// Chunks remain while `head < tail`.
    cursor: AtomicU64,
    state: Mutex<JobProgress<T>>,
    done: Condvar,
}

struct JobProgress<T> {
    /// Per-chunk results, placed by chunk index.
    results: Vec<Option<T>>,
    /// Chunks finished (successfully or by panic).
    completed: usize,
    /// First captured panic payload, re-raised on the owner.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<T, F> JobState<T, F>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Send + Sync,
{
    fn new(len: usize, chunk_size: usize, n_chunks: usize, f: F) -> Self {
        JobState {
            f,
            len,
            chunk_size,
            n_chunks,
            cursor: AtomicU64::new(n_chunks as u64),
            state: Mutex::new(JobProgress {
                results: (0..n_chunks).map(|_| None).collect(),
                completed: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn claim_head(&self) -> Option<usize> {
        self.cursor
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |packed| {
                let (head, tail) = (packed >> 32, packed & 0xFFFF_FFFF);
                (head < tail).then(|| ((head + 1) << 32) | tail)
            })
            .ok()
            .map(|packed| (packed >> 32) as usize)
    }

    fn claim_tail(&self) -> Option<usize> {
        self.cursor
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |packed| {
                let (head, tail) = (packed >> 32, packed & 0xFFFF_FFFF);
                (head < tail).then(|| (head << 32) | (tail - 1))
            })
            .ok()
            .map(|packed| ((packed & 0xFFFF_FFFF) - 1) as usize)
    }

    fn run_chunk(&self, chunk: usize) {
        let start = chunk * self.chunk_size;
        let end = (start + self.chunk_size).min(self.len);
        let outcome = catch_unwind(AssertUnwindSafe(|| (self.f)(start..end)));
        let mut state = lock(&self.state);
        match outcome {
            Ok(value) => state.results[chunk] = Some(value),
            Err(payload) => {
                // Keep the first payload; later ones (if any) are dropped,
                // mirroring what a serial loop would have surfaced.
                state.panic.get_or_insert(payload);
            }
        }
        state.completed += 1;
        if state.completed == self.n_chunks {
            self.done.notify_all();
        }
    }
}

impl<T, F> Job for JobState<T, F>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Send + Sync,
{
    fn has_work(&self) -> bool {
        let packed = self.cursor.load(Ordering::Acquire);
        (packed >> 32) < (packed & 0xFFFF_FFFF)
    }

    fn steal_chunk(&self) -> bool {
        match self.claim_tail() {
            Some(chunk) => {
                STEALS_TOTAL.fetch_add(1, Ordering::Relaxed);
                self.run_chunk(chunk);
                true
            }
            None => false,
        }
    }
}

/// Maps `f` over each chunk of `0..len` and returns the per-chunk
/// results **in chunk-index order**.
///
/// The chunk boundaries are a pure function of `len` and `chunk_size`,
/// so for a fixed `chunk_size` the output — including every float
/// rounding inside a chunk — is independent of thread count and
/// scheduling. This is the primitive deterministic reductions build on.
///
/// # Panics
///
/// Panics if `chunk_size` is zero, and re-raises (on this thread) the
/// first panic raised by `f` in any chunk.
pub fn par_chunks<T, F>(len: usize, chunk_size: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Range<usize>) -> T + Send + Sync + 'static,
{
    assert!(chunk_size > 0, "par chunk size must be positive");
    if len == 0 {
        return Vec::new();
    }
    JOBS_TOTAL.fetch_add(1, Ordering::Relaxed);
    let n_chunks = len.div_ceil(chunk_size);
    let pool = pool();
    if pool.threads == 1 || n_chunks == 1 {
        // Inline fast path: the identical chunked traversal, no pool
        // round-trip. Panics propagate directly.
        return (0..n_chunks)
            .map(|chunk| {
                let start = chunk * chunk_size;
                f(start..(start + chunk_size).min(len))
            })
            .collect();
    }

    let job = Arc::new(JobState::new(len, chunk_size, n_chunks, f));
    let published: Arc<dyn Job> = Arc::clone(&job) as Arc<dyn Job>;
    {
        let mut queue = lock(&pool.queue);
        queue.push(Arc::clone(&published));
    }
    pool.wake.notify_all();

    // The owner drains chunks from the head while workers steal from
    // the tail; participation guarantees completion with zero workers.
    while let Some(chunk) = job.claim_head() {
        job.run_chunk(chunk);
    }
    let mut state = lock(&job.state);
    while state.completed < job.n_chunks {
        state = job.done.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
    let panic = state.panic.take();
    let results = std::mem::take(&mut state.results);
    drop(state);
    lock(&pool.queue).retain(|j| !Arc::ptr_eq(j, &published));
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    // Every chunk completed without panicking, so every slot is Some.
    results.into_iter().flatten().collect()
}

/// Maps `f` over `0..len` in parallel; `out[i] == f(i)` exactly as in
/// the serial loop, independent of chunking *and* thread count (each
/// element is placed by its index).
///
/// # Panics
///
/// Re-raises the first panic raised by `f`.
pub fn par_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let chunk_size = default_chunk_size(len);
    par_chunks(len, chunk_size, move |range| {
        range.map(&f).collect::<Vec<T>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Maps `f` over each fixed-size chunk of `0..len` and folds the chunk
/// results with `reduce` in a pairwise tree over chunk-index order.
/// Deterministic for a fixed `chunk_size` even when `reduce` is not
/// associative (float sums). Returns `None` for an empty range.
///
/// # Panics
///
/// Panics if `chunk_size` is zero; re-raises the first panic from `f`.
pub fn par_map_reduce<T, M, R>(len: usize, chunk_size: usize, map: M, reduce: R) -> Option<T>
where
    T: Send + 'static,
    M: Fn(Range<usize>) -> T + Send + Sync + 'static,
    R: Fn(T, T) -> T,
{
    tree_fold(par_chunks(len, chunk_size, map), reduce)
}

/// Pairwise tree fold: rounds of merging adjacent elements until one
/// remains. The merge order is a pure function of the input length, so
/// the result is deterministic even when `reduce` is not associative
/// (float sums). Returns `None` for an empty input.
///
/// This is the fold [`par_map_reduce`] applies to its chunk results,
/// exposed so callers that gather parts through other means — the
/// distributed work tier folds worker-computed units by index — merge
/// byte-identically to the single-process path.
pub fn tree_fold<T>(mut parts: Vec<T>, reduce: impl Fn(T, T) -> T) -> Option<T> {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut items = parts.into_iter();
        while let Some(left) = items.next() {
            match items.next() {
                Some(right) => next.push(reduce(left, right)),
                None => next.push(left),
            }
        }
        parts = next;
    }
    parts.pop()
}

/// Picks a chunk size for order-insensitive maps: enough chunks for the
/// pool to balance (4 per thread), never more chunks than elements.
fn default_chunk_size(len: usize) -> usize {
    len.div_ceil(4 * threads().max(1)).max(1)
}

type Task = Box<dyn FnOnce() + Send>;

/// A stack of parked carrier threads, each waiting on its sender.
type Carriers = Mutex<Vec<Sender<Task>>>;

static IDLE_SPAWNERS: Carriers = Mutex::new(Vec::new());

/// Runs `f` on a detached background thread, reusing a cached idle
/// thread when one is available instead of spawning a fresh OS thread
/// per call — the artifact cache routes its compute attempts here so
/// retries under backoff don't churn threads.
///
/// Semantics match `thread::spawn` of a fire-and-forget closure: the
/// task may outlive the caller (hung computes keep running), a
/// panicking task kills only its carrier thread (the next spawn gets a
/// fresh one), and if the OS refuses a new thread the task runs inline
/// on the caller. `name` is used when a fresh carrier thread must be
/// created; a reused carrier keeps its original name.
pub fn spawn_detached<F>(name: &str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    spawn_on(&IDLE_SPAWNERS, name, Box::new(f));
}

/// [`spawn_detached`] over an explicit carrier stack: carriers are taken
/// from `carriers` and park back on it. Tests pass a stack of their own
/// so concurrently running tests cannot claim each other's carriers.
fn spawn_on(carriers: &'static Carriers, name: &str, mut task: Task) {
    // Hand the task to a parked carrier if any is alive. A send fails
    // only when the carrier timed out and exited; its stale sender is
    // discarded and we try the next.
    loop {
        let idle = lock(carriers).pop();
        match idle {
            Some(sender) => match sender.send(task) {
                Ok(()) => return,
                Err(returned) => task = returned.0,
            },
            None => break,
        }
    }
    // No carrier available: spawn one that runs this task and then
    // parks for reuse. The slot indirection lets the caller recover the
    // task if the spawn itself fails (thread exhaustion) and run inline.
    let slot = Arc::new(Mutex::new(Some(task)));
    let carried = Arc::clone(&slot);
    let spawned = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let mut task = lock(&carried).take();
            while let Some(run) = task.take() {
                run();
                // lint:allow(bounded-channel): carrier handoff holds at most one task by construction — each sender is single-use, consumed when an idle spawner is claimed
                let (sender, receiver) = channel::<Task>();
                lock(carriers).push(sender);
                task = receiver.recv_timeout(SPAWN_KEEPALIVE).ok();
            }
        });
    if spawned.is_err() {
        if let Some(run) = lock(&slot).take() {
            run();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn par_map_matches_the_serial_loop() {
        let out = par_map(1000, |i| i * i);
        let serial: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn par_chunks_covers_the_range_exactly_once_in_order() {
        let ranges = par_chunks(103, 10, |r| r);
        assert_eq!(ranges.len(), 11);
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, 103);
    }

    #[test]
    fn float_reduction_is_deterministic_for_fixed_chunks() {
        let sum = |attempt: u32| {
            let _ = attempt;
            par_map_reduce(
                10_000,
                64,
                |r| r.map(|i| (i as f64).sqrt() * 1e-3).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap_or(0.0)
        };
        let first = sum(0);
        for attempt in 1..8 {
            assert!(first.to_bits() == sum(attempt).to_bits());
        }
    }

    #[test]
    fn par_map_reduce_empty_is_none() {
        assert_eq!(par_map_reduce(0, 8, |r| r.len(), |a, b| a + b), None);
    }

    #[test]
    fn tree_fold_folds_every_element() {
        let total = tree_fold((1..=100).collect(), |a: u64, b| a + b);
        assert_eq!(total, Some(5050));
    }

    #[test]
    fn tree_fold_merge_order_is_a_pure_function_of_length() {
        // A non-associative reduce (string bracketing) pins the pairwise
        // merge tree: the distributed fold relies on this exact shape.
        let parts: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let folded = tree_fold(parts, |a, b| format!("({a}+{b})"));
        assert_eq!(folded.as_deref(), Some("(((0+1)+(2+3))+4)"));
    }

    #[test]
    fn a_panicking_chunk_resurfaces_on_the_caller_and_spares_the_pool() {
        let result = catch_unwind(|| {
            par_map(500, |i| {
                assert!(i != 321, "injected par panic");
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let text = payload.downcast_ref::<&str>().map_or_else(
            || {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            },
            |s| (*s).to_string(),
        );
        assert!(text.contains("injected par panic"), "payload: {text}");
        // The pool survives and later jobs still run.
        assert_eq!(par_map(100, |i| i + 1).len(), 100);
    }

    #[test]
    fn counters_expose_pool_activity() {
        let (jobs_before, steals_before) = (jobs_total(), steals_total());
        let _ = par_map(256, |i| i);
        assert!(jobs_total() > jobs_before);
        assert!(workers() + 1 == threads() || POOL.get().is_none());
        // The steal counter only ever moves forward, and reading it
        // mid-job must not race or panic.
        assert!(steals_total() >= steals_before);
    }

    #[test]
    fn spawn_detached_runs_the_task_and_reuses_carriers() {
        // A carrier stack of this test's own: no other test's task can
        // claim the carrier parked on it.
        static CARRIERS: Carriers = Mutex::new(Vec::new());
        let (tx, rx) = channel();
        spawn_on(
            &CARRIERS,
            "accelwall-test-spawn",
            Box::new(move || tx.send(std::thread::current().id()).unwrap()),
        );
        let first = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // Wait for the carrier to park itself, then reuse it.
        let parked_by = std::time::Instant::now() + Duration::from_secs(5);
        while lock(&CARRIERS).is_empty() {
            assert!(
                std::time::Instant::now() < parked_by,
                "carrier never parked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let (tx, rx) = channel();
        spawn_on(
            &CARRIERS,
            "accelwall-test-spawn-2",
            Box::new(move || tx.send(std::thread::current().id()).unwrap()),
        );
        let second = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first, second, "second task should reuse the carrier");
    }

    #[test]
    fn spawn_detached_survives_a_panicking_task() {
        static RAN: AtomicBool = AtomicBool::new(false);
        spawn_detached("accelwall-test-panicker", || {
            panic!("contained: detached task panic")
        });
        std::thread::sleep(Duration::from_millis(50));
        let (tx, rx) = channel();
        spawn_detached("accelwall-test-after-panic", move || {
            RAN.store(true, Ordering::Relaxed);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(RAN.load(Ordering::Relaxed));
    }
}
