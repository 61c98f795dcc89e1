//! A fixed thread pool with a bounded work queue.
//!
//! The epoll listener parses requests on its reactor thread and hands
//! each complete one to this pool through [`ThreadPool::try_execute`].
//! The queue bound is the server's backpressure: the reactor keeps its
//! in-flight budget within the queue capacity and, at the budget,
//! stops accepting, which pushes the pressure into the listener's
//! kernel backlog where clients experience it as connection latency,
//! not memory growth. Submitting never blocks: a full queue hands the
//! job back to the caller.
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

    /// Enqueue a job without blocking. Returns the job back as
    /// `Ok(Some(job))` when the queue is full — the epoll reactor must
    /// never block its event loop on the pool, so it keeps the request
    /// parked on the connection and pauses accepting instead. Returns
    /// [`PoolClosed`] once the pool is shutting down instead of
    /// accepting work that would never run.
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
    use std::sync::mpsc;
    use std::time::Duration;

    /// Submit `job`, retrying while the queue is full.
    fn submit(pool: &ThreadPool, job: impl FnOnce() + Send + Clone + 'static) {
        while pool.try_execute(job.clone()).unwrap().is_some() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn runs_every_job() {
        let pool = ThreadPool::new(3, 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            submit(&pool, move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // drains the queue and joins
        assert_eq!(done.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn bounded_queue_applies_backpressure_then_drains() {
        // One worker held inside a job, capacity 1: the second job fills
        // the queue and the third is handed back, then runs once
        // resubmitted after the queue drains.
        let pool = ThreadPool::new(1, 1);
        let done = Arc::new(AtomicUsize::new(0));
        let job = {
            let done = Arc::clone(&done);
            move || {
                done.fetch_add(1, Ordering::Relaxed);
            }
        };
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let held = job.clone();
        let first = move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            held();
        };
        assert!(pool.try_execute(first).unwrap().is_none());
        started.recv().unwrap(); // the worker is busy, the queue empty
        assert!(pool.try_execute(job.clone()).unwrap().is_none());
        let refused = pool
            .try_execute(job)
            .unwrap()
            .expect("a full queue hands the job back");
        release.send(()).unwrap();
        while pool.queued() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(pool.try_execute(refused).unwrap().is_none());
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        // One worker; the panicking job must not shrink the pool.
        let pool = ThreadPool::new(1, 4);
        assert!(pool
            .try_execute(|| panic!("hostile request"))
            .unwrap()
            .is_none());
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let done = Arc::clone(&done);
            submit(&pool, move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
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
        assert!(pool
            .try_execute(move || {
                d.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap()
            .is_none());
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }
}
