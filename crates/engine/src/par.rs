//! Deterministic parallelism primitives: an order-preserving parallel
//! map and a long-lived owned work queue for daemons.
//!
//! Two kinds of caller share this module. The experiment drivers (scheme
//! comparisons, threshold sweeps, figure scripts) run many *independent*
//! simulations through [`par_map`]; each simulation stays deterministic,
//! so running N of them on N cores changes nothing about any individual
//! result; its scoped workers serve every item of one call. The
//! `dynapar-server` daemon needs workers that outlive any one call frame
//! and *survive panicking jobs*: that is [`WorkQueue`], the owned
//! (non-scoped) sibling built on the same task-queue internals.
//!
//! There is no dependency on a thread-pool crate: workers are
//! [`std::thread::scope`] (or, for [`WorkQueue`], [`std::thread::spawn`])
//! threads looping on a mutex-protected task queue with a condvar,
//! returning results over a bounded channel. A panic in any [`par_map`]
//! item is caught on the worker and re-raised on the caller, exactly
//! like the serial loop; a panic in a [`WorkQueue`] job is swallowed
//! after the job's own handler had its chance, and the worker lives on
//! to serve the next task.
//!
//! # Examples
//!
//! ```
//! use dynapar_engine::par::par_map;
//!
//! let squares = par_map((0u64..8).collect(), 4, |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Environment variable consulted by [`default_jobs`]; same meaning as
/// the `--jobs` flag on the experiment binaries.
pub const JOBS_ENV: &str = "DYNAPAR_JOBS";

/// Resolves the worker count to use when the caller gave no explicit
/// `--jobs`: the `DYNAPAR_JOBS` environment variable if set to a
/// positive integer, else the machine's available parallelism, else 1.
///
/// The environment value is capped at the available parallelism:
/// oversubscribing cores cannot make deterministic simulations faster,
/// it only adds scheduler churn, so `DYNAPAR_JOBS=64` on a 4-core box
/// means 4. Degenerate environments (no detectable parallelism) get 1.
pub fn default_jobs() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    jobs_from_env(std::env::var(JOBS_ENV).ok().as_deref(), hw)
}

/// Pure core of [`default_jobs`], split out so both paths (env override
/// capped at hardware, fallback to hardware) are testable without
/// process-global environment mutation.
fn jobs_from_env(env: Option<&str>, hw: usize) -> usize {
    let hw = hw.max(1);
    match env.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n.min(hw),
        _ => hw,
    }
}

/// Task queue shared between the submitting thread and the workers.
struct Queue<T> {
    tasks: VecDeque<T>,
    /// Set once the pool scope is over; woken workers exit instead of
    /// sleeping again.
    shutdown: bool,
}

/// The mutex+condvar task queue both [`par_map`] (scoped, borrowing) and
/// [`WorkQueue`] (owned, `'static`) workers loop on.
struct Shared<T> {
    queue: Mutex<Queue<T>>,
    cv: Condvar,
}

impl<T> Shared<T> {
    fn with_capacity(capacity: usize) -> Self {
        Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::with_capacity(capacity),
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues one task and wakes one sleeping worker.
    fn push(&self, task: T) {
        self.queue
            .lock()
            .expect("pool queue poisoned")
            .tasks
            .push_back(task);
        self.cv.notify_one();
    }

    /// Blocks until a task is available (FIFO) or shutdown is flagged
    /// with the queue empty. Queued tasks are drained before shutdown
    /// takes effect, so a graceful stop finishes accepted work.
    fn next_task(&self) -> Option<T> {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        loop {
            if let Some(t) = q.tasks.pop_front() {
                return Some(t);
            }
            if q.shutdown {
                return None;
            }
            q = self.cv.wait(q).expect("pool queue poisoned");
        }
    }

    /// Flags shutdown and wakes every worker. With `discard`, queued
    /// tasks are dropped (prompt stop); without, workers drain them
    /// first. Returns the tasks discarded, so callers can account for
    /// work that will never run.
    fn stop(&self, discard: bool) -> Vec<T> {
        let dropped = {
            let mut q = match self.queue.lock() {
                Ok(q) => q,
                Err(_) => {
                    self.cv.notify_all();
                    return Vec::new();
                }
            };
            q.shutdown = true;
            if discard {
                q.tasks.drain(..).collect()
            } else {
                Vec::new()
            }
        };
        self.cv.notify_all();
        dropped
    }

    fn queued(&self) -> usize {
        self.queue.lock().expect("pool queue poisoned").tasks.len()
    }
}

/// Sets `shutdown` and wakes every worker. Runs on drop so workers are
/// released even when `par_map` re-raises a panic — otherwise
/// `std::thread::scope` would join blocked workers forever.
struct ShutdownGuard<'a, T>(&'a Shared<T>);

impl<T> Drop for ShutdownGuard<'_, T> {
    fn drop(&mut self) {
        self.0.stop(false);
    }
}

/// A long-lived, owned worker queue: the daemon-grade sibling of
/// [`par_map`].
///
/// Where `par_map` is scoped (workers live exactly as long as one call
/// and panics re-raise on the caller), a `WorkQueue` owns `'static`
/// worker threads that keep serving tasks for the queue's whole
/// lifetime. Tasks run strictly FIFO across all submitters, which is
/// what gives the `dynapar-server` job queue its cross-client fairness.
///
/// A panicking task does **not** kill its worker: the handler is
/// expected to do its own `catch_unwind` bookkeeping (e.g. mark the job
/// failed), and the queue adds a backstop catch so even a handler that
/// panics before its own bookkeeping leaves the worker alive for the
/// next task.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use dynapar_engine::par::WorkQueue;
///
/// let sum = Arc::new(AtomicU64::new(0));
/// let s = sum.clone();
/// let q = WorkQueue::new(2, move |x: u64| {
///     s.fetch_add(x, Ordering::SeqCst);
/// });
/// for x in 1..=10 {
///     q.submit(x);
/// }
/// q.join(); // graceful: drains queued tasks, then stops the workers
/// assert_eq!(sum.load(Ordering::SeqCst), 55);
/// ```
pub struct WorkQueue<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> WorkQueue<T> {
    /// Starts `jobs.max(1)` worker threads, each running `f` on every
    /// task it pops. Unlike [`par_map`] there is no serial mode: a
    /// daemon must not execute jobs on its control thread, so even
    /// `jobs = 1` gets a real worker.
    pub fn new<F>(jobs: usize, f: F) -> Self
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared::with_capacity(64));
        let f = Arc::new(f);
        let workers = (0..jobs.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    while let Some(task) = shared.next_task() {
                        // Backstop only: the handler is responsible for
                        // recording the failure; this keeps the worker
                        // alive even if the handler itself panicked.
                        let _ = catch_unwind(AssertUnwindSafe(|| f(task)));
                    }
                })
            })
            .collect();
        WorkQueue { shared, workers }
    }

    /// Enqueues one task (FIFO). Tasks submitted after
    /// [`shutdown_now`](WorkQueue::shutdown_now) or
    /// [`join`](WorkQueue::join) began are never run.
    pub fn submit(&self, task: T) {
        self.shared.push(task);
    }

    /// Number of tasks accepted but not yet popped by a worker.
    pub fn queued(&self) -> usize {
        self.shared.queued()
    }

    /// Prompt stop: discards queued-but-unstarted tasks, waits only for
    /// tasks already running, and returns the discarded tasks so the
    /// caller can account for them (the server marks those jobs
    /// cancelled).
    pub fn shutdown_now(mut self) -> Vec<T> {
        let dropped = self.shared.stop(true);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        dropped
    }

    /// Graceful stop: drains every queued task, then joins the workers.
    pub fn join(mut self) {
        self.shared.stop(false);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<T: Send + 'static> Drop for WorkQueue<T> {
    /// Dropping without an explicit `join`/`shutdown_now` stops
    /// promptly (queued tasks discarded), so an abandoned queue cannot
    /// wedge process exit behind unbounded queued work.
    fn drop(&mut self) {
        self.shared.stop(true);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Maps `f` over `items` using up to `jobs` worker threads, returning
/// results in input order.
///
/// The output is identical to `items.into_iter().map(f).collect()` for
/// any `jobs` value: parallelism only changes wall-clock time, never
/// results. With `jobs <= 1` (or one item or fewer) the map runs on the
/// calling thread with no thread machinery at all, so `--jobs 1` is a
/// faithful serial baseline.
///
/// If any invocation of `f` panics, the panic propagates to the caller
/// (other in-flight jobs run to completion first; queued jobs are
/// abandoned).
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Tag each item with its index so completion order cannot leak into
    // the output: results land positionally.
    let shared = Shared::with_capacity(n);
    for task in items.into_iter().enumerate() {
        shared.push(task);
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let _guard = ShutdownGuard(&shared);
        // Declared after the guard so it drops first on a panic: workers
        // then stop at their next send instead of draining the queue.
        let (tx, rx) = mpsc::sync_channel(n);
        for _ in 0..jobs.min(n) {
            let tx = tx.clone();
            let shared = &shared;
            let f = &f;
            scope.spawn(move || {
                while let Some((i, item)) = shared.next_task() {
                    // Catch so one panicking item reaches the caller as a
                    // result instead of deadlocking its `recv`.
                    let res = catch_unwind(AssertUnwindSafe(|| f(item)));
                    if tx.send((i, res)).is_err() {
                        return; // caller gone (it is unwinding); stop
                    }
                }
            });
        }
        for _ in 0..n {
            match rx.recv().expect("par_map workers alive") {
                (i, Ok(r)) => out[i] = Some(r),
                (_, Err(payload)) => resume_unwind(payload),
            }
        }
        // _guard drops here: shutdown + notify_all, then the scope
        // joins the (now exiting) workers.
    });
    out.into_iter()
        .map(|slot| slot.expect("every index receives exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 200] {
            assert_eq!(
                par_map(items.clone(), jobs, |x| x * 3 + 1),
                expect,
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, 8, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![41], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn handles_non_clone_items_and_results() {
        // T and R only need Send: boxed values exercise the move path.
        let items: Vec<Box<u64>> = (0..20).map(Box::new).collect();
        let out = par_map(items, 4, |b| Box::new(*b + 100));
        for (i, b) in out.iter().enumerate() {
            assert_eq!(**b, i as u64 + 100);
        }
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Early items take longest, so completion order inverts input
        // order — results must not.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map(items, 8, |x| {
            let mut acc = x;
            for _ in 0..(16 - x) * 50_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn panic_in_job_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map((0..8).collect::<Vec<u32>>(), 4, |x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn serial_mode_runs_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = par_map((0..5).collect::<Vec<u32>>(), 1, |x| {
            assert_eq!(std::thread::current().id(), caller);
            x * x
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn panic_with_items_still_queued_does_not_deadlock() {
        // The first item panics while hundreds wait in the queue; the
        // shutdown guard must release the workers so the scope joins.
        for jobs in [1, 2] {
            let r = std::panic::catch_unwind(|| {
                par_map((0..500).collect::<Vec<u32>>(), jobs, |x| {
                    if x == 0 {
                        panic!("first item boom");
                    }
                    x
                })
            });
            assert!(r.is_err(), "jobs {jobs}");
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn env_jobs_capped_at_available_parallelism() {
        // DYNAPAR_JOBS above the machine's parallelism is clamped down.
        assert_eq!(jobs_from_env(Some("64"), 4), 4);
        assert_eq!(jobs_from_env(Some("3"), 4), 3);
        assert_eq!(jobs_from_env(Some("4"), 4), 4);
        assert_eq!(jobs_from_env(Some(" 2 "), 8), 2);
    }

    #[test]
    fn degenerate_environments_resolve_to_at_least_one() {
        // No detectable parallelism never yields 0 and never panics.
        assert_eq!(jobs_from_env(None, 0), 1);
        assert_eq!(jobs_from_env(Some("16"), 0), 1);
        // Unset / invalid / zero env falls back to the hardware count.
        assert_eq!(jobs_from_env(None, 6), 6);
        assert_eq!(jobs_from_env(Some("zap"), 6), 6);
        assert_eq!(jobs_from_env(Some("0"), 6), 6);
        assert_eq!(jobs_from_env(Some(""), 6), 6);
    }

    #[test]
    fn work_queue_runs_tasks_fifo_with_one_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let started = std::sync::Arc::new(AtomicUsize::new(0));
        let (o, s) = (order.clone(), started.clone());
        let q = WorkQueue::new(1, move |x: u32| {
            o.lock().unwrap().push(x);
            s.fetch_add(1, Ordering::SeqCst);
        });
        for x in 0..32 {
            q.submit(x);
        }
        q.join();
        assert_eq!(*order.lock().unwrap(), (0..32).collect::<Vec<u32>>());
        assert_eq!(started.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn work_queue_workers_survive_panicking_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        let q = WorkQueue::new(2, move |x: u32| {
            if x.is_multiple_of(3) {
                panic!("task {x} boom");
            }
            d.fetch_add(1, Ordering::SeqCst);
        });
        for x in 0..30 {
            q.submit(x);
        }
        q.join();
        // 10 of the 30 tasks panic; the other 20 must all have run.
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn work_queue_shutdown_now_returns_undrained_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // One worker blocked on a gate; everything behind it stays
        // queued until shutdown_now discards it.
        let gate = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let ran = std::sync::Arc::new(AtomicUsize::new(0));
        let (g, r) = (gate.clone(), ran.clone());
        let q = WorkQueue::new(1, move |_x: u32| {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            r.fetch_add(1, Ordering::SeqCst);
        });
        for x in 0..5 {
            q.submit(x);
        }
        // Wait until the worker has popped the first task.
        while q.queued() > 4 {
            std::thread::yield_now();
        }
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let dropped = q.shutdown_now();
        // The running task finishes; between 0 and 4 remain discarded
        // (the worker may pop more after the gate opens, racing stop).
        assert!(dropped.len() <= 4, "dropped {:?}", dropped);
        assert_eq!(ran.load(Ordering::SeqCst) + dropped.len(), 5);
    }
}
