//! A persistent work-stealing executor.
//!
//! [`par_map_staged`](crate::par_map_staged) is a fork-join primitive:
//! it spawns scoped workers, drains one batch and joins. That is the
//! right shape for a single hot loop, but a long-lived service driving
//! thousands of concurrent auction rounds cannot afford a thread
//! spawn/join cycle per batch. [`Executor`] keeps a fixed pool of
//! workers alive for the lifetime of the service and schedules
//! heterogeneous tasks onto them:
//!
//! * **per-worker deques + a global injector** — [`Executor::spawn`]
//!   pushes to the injector; [`Executor::spawn_on`] pushes to a specific
//!   worker's deque for affinity (the service keeps one shard per worker
//!   and pins each shard's tasks to it, so a shard's state stays warm in
//!   one core's cache). A worker pops its own deque first (FIFO,
//!   preserving a shard's task order), then the injector, then *steals*
//!   from sibling deques — an idle worker never waits while queued work
//!   exists;
//! * **panic isolation** — a panicking task is caught, counted and
//!   dropped; the worker survives and sibling tasks are unaffected. The
//!   caller polls [`Executor::panicked`] to turn lost tasks into a
//!   per-shard failure instead of a poisoned process;
//! * **graceful shutdown** — [`Executor::shutdown`] stops accepting new
//!   tasks, drains everything already queued, then joins the workers.
//!   It is idempotent: a second call (or a call racing `Drop`) is a
//!   no-op.
//!
//! Determinism contract: the executor never reorders *results* because
//! it never owns any — tasks communicate through their own captured
//! state, and the service layer assembles per-area outputs by area id.
//! Scheduling (worker count, stealing, affinity) only affects timing,
//! which is why service outcomes are bit-identical for every
//! `LPPA_THREADS` setting.
//!
//! # Examples
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let pool = lppa_par::Executor::new(4);
//! let hits = Arc::new(AtomicUsize::new(0));
//! for _ in 0..64 {
//!     let hits = Arc::clone(&hits);
//!     pool.spawn(move || {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! pool.wait_idle();
//! assert_eq!(hits.load(Ordering::Relaxed), 64);
//! pool.shutdown();
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle worker parks before re-checking the queues. The
/// condvar is always notified on submission, so the timeout is purely a
/// lost-wakeup backstop — it bounds shutdown latency, not throughput.
const PARK_TIMEOUT: Duration = Duration::from_millis(20);

/// State shared between the handle and the workers.
struct Shared {
    /// Global injector queue: tasks with no placement preference.
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker; `spawn_on(w, …)` targets `deques[w]`, and
    /// workers steal from siblings' fronts when local + injector are dry.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Tasks submitted but not yet finished (queued or running).
    pending: AtomicUsize,
    /// Tasks whose closure panicked (isolated, not propagated).
    panicked: AtomicUsize,
    /// Tasks run to completion (including panicked ones).
    completed: AtomicUsize,
    /// Set once by `shutdown`; workers exit when they see it *and* all
    /// queues are drained.
    stopping: AtomicBool,
    /// Pairs with `sleep_cv` (worker parking) and `idle_cv`
    /// (`wait_idle` blocking). Guards nothing by itself — the queues
    /// have their own locks — it exists so the condvars have a mutex.
    coord: Mutex<()>,
    /// Notified whenever work is submitted or shutdown begins.
    sleep_cv: Condvar,
    /// Notified whenever `pending` reaches zero.
    idle_cv: Condvar,
}

impl Shared {
    /// Claims the next job for worker `me`: own deque, then the
    /// injector, then stealing from siblings (starting after `me` so
    /// steal pressure spreads instead of piling on worker 0).
    fn claim(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.deques[me].lock().expect("deque lock").pop_front() {
            return Some(job);
        }
        if let Some(job) = self.injector.lock().expect("injector lock").pop_front() {
            return Some(job);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            if let Some(job) = self.deques[victim].lock().expect("deque lock").pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Whether any queue still holds unclaimed work.
    fn queues_empty(&self) -> bool {
        self.injector.lock().expect("injector lock").is_empty()
            && self.deques.iter().all(|d| d.lock().expect("deque lock").is_empty())
    }

    fn run_job(&self, job: Job) {
        // A panicking task must not take its worker (or siblings on the
        // same worker) down with it: catch, count, continue. The boxed
        // closure owns its captures, so resuming after the catch cannot
        // observe broken invariants of *ours*; the caller's shared state
        // is its own responsibility (same contract as `thread::spawn`).
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.coord.lock().expect("coord lock");
            self.idle_cv.notify_all();
        }
    }

    /// The worker main loop.
    fn work(&self, me: usize) {
        loop {
            if let Some(job) = self.claim(me) {
                self.run_job(job);
                continue;
            }
            if self.stopping.load(Ordering::Acquire) && self.queues_empty() {
                return;
            }
            let guard = self.coord.lock().expect("coord lock");
            // Re-check under the coordination lock: a submission between
            // the failed claim and this park would otherwise be missed
            // until the timeout.
            if !self.queues_empty() || self.stopping.load(Ordering::Acquire) {
                continue;
            }
            let _ = self.sleep_cv.wait_timeout(guard, PARK_TIMEOUT).expect("park");
        }
    }
}

/// A persistent pool of worker threads with per-worker deques, a global
/// injector and sibling stealing. See the [module docs](self).
pub struct Executor {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Latched by the first `shutdown` call; later calls are no-ops.
    shut: AtomicBool,
    /// Set (`Release`) by the first `shutdown` call once every worker
    /// is joined; `is_shut_down` reads it with `Acquire`, so a `true`
    /// read also sees every task's writes.
    joined: AtomicBool,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.worker_count())
            .field("pending", &self.shared.pending.load(Ordering::Relaxed))
            .field("completed", &self.completed())
            .field("panicked", &self.panicked())
            .field("shut_down", &self.is_shut_down())
            .finish()
    }
}

impl Executor {
    /// Spawns a pool of `threads` workers (clamped to
    /// `[1, MAX_WORKERS]`).
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, crate::MAX_WORKERS);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            coord: Mutex::new(()),
            sleep_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lppa-exec-{me}"))
                    .spawn(move || shared.work(me))
                    .expect("spawn executor worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
            shut: AtomicBool::new(false),
            joined: AtomicBool::new(false),
        }
    }

    /// A pool sized from the `LPPA_THREADS` environment (the same
    /// [`thread_count`](crate::thread_count) the fork-join map uses).
    pub fn from_env() -> Self {
        Self::new(crate::thread_count())
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.deques.len()
    }

    /// Submits `job` to the global injector. Returns `false` (dropping
    /// the job) if the executor is shutting down.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, job: F) -> bool {
        self.submit(None, Box::new(job))
    }

    /// Submits `job` to worker `worker % worker_count()`'s own deque.
    ///
    /// Affinity is a scheduling hint, not an exclusivity guarantee: an
    /// idle sibling may steal the task. Tasks spawned on the same worker
    /// are *queued* FIFO, but because a steal can run one while the next
    /// is claimed by the owner, mutual exclusion between them must come
    /// from the state they share (the service locks its shard state).
    ///
    /// Returns `false` (dropping the job) if the executor is shutting
    /// down.
    pub fn spawn_on<F: FnOnce() + Send + 'static>(&self, worker: usize, job: F) -> bool {
        self.submit(Some(worker % self.worker_count()), Box::new(job))
    }

    fn submit(&self, target: Option<usize>, job: Job) -> bool {
        if self.shared.stopping.load(Ordering::Acquire) {
            return false;
        }
        // Count before queueing so `wait_idle` can never observe the
        // queue-empty/pending-zero window mid-submission.
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        match target {
            Some(w) => self.shared.deques[w].lock().expect("deque lock").push_back(job),
            None => self.shared.injector.lock().expect("injector lock").push_back(job),
        }
        let _guard = self.shared.coord.lock().expect("coord lock");
        self.shared.sleep_cv.notify_all();
        true
    }

    /// Blocks until every submitted task has finished (the pool is
    /// quiescent). New tasks may be submitted afterwards; the service's
    /// epoch loop alternates `spawn*` waves with `wait_idle` barriers.
    pub fn wait_idle(&self) {
        let mut guard = self.shared.coord.lock().expect("coord lock");
        while self.shared.pending.load(Ordering::Acquire) > 0 {
            let (g, _) = self.shared.idle_cv.wait_timeout(guard, PARK_TIMEOUT).expect("wait idle");
            guard = g;
        }
    }

    /// Tasks run to completion so far (panicked ones included).
    pub fn completed(&self) -> usize {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Tasks whose closure panicked. The panics were isolated — workers
    /// and sibling tasks kept running — but the tasks did not finish
    /// their work; a service maps them back to failed shards.
    pub fn panicked(&self) -> usize {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Whether `shutdown` has completed: every worker is joined. A
    /// pool that already refuses new work but still runs its queue
    /// reports `false`.
    pub fn is_shut_down(&self) -> bool {
        self.joined.load(Ordering::Acquire)
    }

    /// Graceful shutdown: rejects new submissions, drains all queued
    /// work, then joins every worker. Idempotent — the second and later
    /// calls return immediately — and safe to race with `Drop`.
    pub fn shutdown(&self) {
        // `stopping` gates submissions; workers exit once it is set and
        // the queues are empty, so everything queued before this line
        // still runs ("graceful").
        self.shared.stopping.store(true, Ordering::Release);
        {
            let _guard = self.shared.coord.lock().expect("coord lock");
            self.shared.sleep_cv.notify_all();
        }
        if self.shut.swap(true, Ordering::AcqRel) {
            return; // someone already joined (or is joining) the workers
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for handle in workers {
            // Worker threads never panic out of their loop (jobs are
            // caught), so join failure means the runtime itself is
            // broken — propagate.
            handle.join().expect("executor worker panicked outside a task");
        }
        self.joined.store(true, Ordering::Release);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn spawn_on_prefers_the_target_worker() {
        // With a single worker, affinity and the injector collapse to
        // the same FIFO — tasks run in submission order.
        let pool = Executor::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..8 {
            let log = Arc::clone(&log);
            assert!(pool.spawn_on(3, move || log.lock().unwrap().push(i)));
        }
        pool.wait_idle();
        assert_eq!(*log.lock().unwrap(), (0..8).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn stealing_drains_an_overloaded_worker() {
        let pool = Executor::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        // Everything lands on worker 0's deque; siblings must steal.
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            pool.spawn_on(0, move || {
                std::thread::sleep(Duration::from_micros(200));
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(pool.completed(), 64);
        pool.shutdown();
    }

    #[test]
    fn wait_idle_on_empty_pool_returns_immediately() {
        let pool = Executor::new(2);
        pool.wait_idle();
        assert_eq!(pool.completed(), 0);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(Executor::new(0).worker_count(), 1);
        assert_eq!(Executor::new(usize::MAX).worker_count(), crate::MAX_WORKERS);
    }
}
