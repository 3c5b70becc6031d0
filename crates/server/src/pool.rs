//! A bounded worker thread pool.
//!
//! Fixed worker count, bounded job queue, explicit backpressure: when
//! the queue is full, [`Pool::try_execute`] refuses the job so the
//! reactor can answer 503 instead of queueing unbounded work.
//! Shutdown drains — queued and in-flight jobs finish, then workers
//! exit and are joined.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Returned by [`Pool::try_execute`] when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy;

struct State {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    queue_cap: usize,
}

/// The pool. Dropping it without calling [`Pool::shutdown`] detaches
/// the workers (used nowhere in the server, which always drains).
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn `workers` threads with a queue bounded at `queue_cap`
    /// pending jobs (both clamped to at least 1).
    pub fn new(workers: usize, queue_cap: usize) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
            queue_cap: queue_cap.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Enqueue a job, or refuse with [`Busy`] when the queue is full
    /// (or the pool is shutting down).
    pub fn try_execute(&self, job: Job) -> Result<(), Busy> {
        let mut state = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.shutting_down || state.jobs.len() >= self.shared.queue_cap {
            return Err(Busy);
        }
        state.jobs.push_back(job);
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .jobs
            .len()
    }

    /// Drain and stop: already-queued jobs still run, new ones are
    /// refused, and all workers are joined before returning.
    pub fn shutdown(self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            state.shutting_down = true;
        }
        self.shared.work_ready.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutting_down {
                    break None;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        match job {
            // A panicking job must not take its worker down with it;
            // request handlers have their own panic boundary, this
            // is the backstop.
            Some(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
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
    fn runs_jobs_and_drains_on_shutdown() {
        let pool = Pool::new(3, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.try_execute(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 50, "shutdown lost queued jobs");
    }

    #[test]
    fn backpressure_refuses_when_full() {
        let pool = Pool::new(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Block the single worker.
        let g = Arc::clone(&gate);
        pool.try_execute(Box::new(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }))
        .unwrap();
        // Give the worker a moment to pick the blocker up, then fill
        // the queue.
        std::thread::sleep(Duration::from_millis(50));
        let mut accepted = 0;
        let mut refused = 0;
        for _ in 0..10 {
            match pool.try_execute(Box::new(|| {})) {
                Ok(()) => accepted += 1,
                Err(Busy) => refused += 1,
            }
        }
        assert!(
            accepted <= 2,
            "queue cap not enforced ({accepted} accepted)"
        );
        assert!(refused >= 8);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let pool = Pool::new(1, 8);
        pool.try_execute(Box::new(|| panic!("boom"))).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.try_execute(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap();
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
