//! A fixed thread pool with a bounded work queue.
//!
//! The epoll listener parses requests on its reactor thread and hands
//! each complete one to this pool through [`ThreadPool::try_execute`].
//! The queue bound is the server's backpressure: the reactor keeps its
//! in-flight budget within the queue capacity and, at the budget,
//! stops accepting, which pushes the pressure into the listener's
//! kernel backlog where clients experience it as connection latency,
//! not memory growth. [`ThreadPool::execute`] is the blocking submit
//! for callers that would rather wait than be refused.
//!
//! Shutdown is cooperative: dropping the pool wakes every worker,
//! lets the queue drain, and joins the threads. Panicking jobs are
//! isolated with `catch_unwind` — the pool is fixed-size, so a dead
//! worker would never be replaced.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    not_empty: Condvar,
    not_full: Condvar,
    queue_cap: usize,
}

/// The pool is closed: the job was rejected because the pool is
/// shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool is shut down")
    }
}

impl std::error::Error for PoolClosed {}

/// A fixed-size worker pool over a bounded FIFO queue.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn `threads` workers (clamped to at least 1) sharing a queue
    /// of at most `queue_cap` pending jobs (clamped to at least 1).
    pub fn new(threads: usize, queue_cap: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            queue_cap: queue_cap.max(1),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tpn-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// Enqueue a job, blocking while the queue is full. Returns
    /// [`PoolClosed`] if the pool is (or becomes) shut down instead of
    /// accepting work that would never run.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolClosed> {
        let mut state = self.shared.state.lock().expect("pool lock");
        while state.queue.len() >= self.shared.queue_cap && !state.shutdown {
            state = self.shared.not_full.wait(state).expect("pool lock");
        }
        if state.shutdown {
            return Err(PoolClosed);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Enqueue a job without blocking. Returns the job back as
    /// `Ok(Some(job))` when the queue is full — the epoll reactor must
    /// never block its event loop on the pool, so it keeps the request
    /// parked on the connection and pauses accepting instead.
    #[allow(clippy::type_complexity)]
    pub fn try_execute(
        &self,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<Option<Box<dyn FnOnce() + Send + 'static>>, PoolClosed> {
        let mut state = self.shared.state.lock().expect("pool lock");
        if state.shutdown {
            return Err(PoolClosed);
        }
        if state.queue.len() >= self.shared.queue_cap {
            return Ok(Some(Box::new(job)));
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(None)
    }

    /// Number of queued (not yet running) jobs right now.
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("pool lock").queue.len()
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maximum number of queued (not yet running) jobs.
    pub fn queue_cap(&self) -> usize {
        self.shared.queue_cap
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    shared.not_full.notify_one();
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.not_empty.wait(state).expect("pool lock");
            }
        };
        match job {
            // A panicking job must not kill the worker: the pool is
            // fixed-size and never respawns threads, so without this a
            // request that trips a panic (e.g. exact-arithmetic
            // overflow deep in an analysis pipeline) would permanently
            // shrink the pool until the daemon stops serving.
            Some(job) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_every_job() {
        let pool = ThreadPool::new(3, 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        drop(pool); // drains the queue and joins
        assert_eq!(done.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn bounded_queue_applies_backpressure_then_drains() {
        // One worker blocked on a slow job, capacity 1: the third submit
        // must wait until the worker frees a slot — but everything still
        // completes.
        let pool = ThreadPool::new(1, 1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                std::thread::sleep(Duration::from_millis(20));
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        // One worker; the panicking job must not shrink the pool.
        let pool = ThreadPool::new(1, 4);
        pool.execute(|| panic!("hostile request")).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 3, "worker survived the panic");
    }

    #[test]
    fn clamps_degenerate_sizes() {
        let pool = ThreadPool::new(0, 0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.queue_cap(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }
}
