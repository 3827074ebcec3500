//! Completion-notified task submission: a long-lived shard pool for
//! serving-style workloads.
//!
//! [`par_map`](crate::par_map) fits batch pipelines — fork, compute,
//! join — but a serving engine lives in the opposite shape: work units
//! trickle in one dispatch at a time, run on a resident worker shard, and
//! the submitter learns about each completion individually (to schedule
//! the next dispatch, account latency, or back-pressure the queue).
//! [`NotifyPool`] provides exactly that: `submit` hands a closure to one
//! of `shards` resident threads and returns a ticket; completions flow
//! back over a channel as `(ticket, result)` pairs in completion order.
//!
//! Like the rest of the crate this is `std`-only: an `mpsc` task channel
//! shared by the shards behind a mutex, and an `mpsc` completion channel
//! cloned into each shard. A task runs under `catch_unwind`, so a panic
//! travels back as that task's completion and resumes in the submitter
//! (as [`par_map`](crate::par_map) rethrows a worker's panic) while the
//! shard lives on. Dropping the pool closes the task channel and joins
//! every shard, so no work is silently abandoned.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

type Task<T> = (u64, Box<dyn FnOnce() -> T + Send + 'static>);

/// A fixed set of resident worker shards with per-task completion
/// notification.
#[derive(Debug)]
pub struct NotifyPool<T: Send + 'static> {
    /// `Some` until drop; taken to close the channel and stop the shards.
    task_tx: Option<Sender<Task<T>>>,
    done_rx: Receiver<(u64, thread::Result<T>)>,
    shards: Vec<JoinHandle<()>>,
    next_ticket: u64,
    outstanding: u64,
}

impl<T: Send + 'static> NotifyPool<T> {
    /// Spawns `shards.max(1)` resident worker threads.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let (task_tx, task_rx) = channel::<Task<T>>();
        let (done_tx, done_rx) = channel::<(u64, thread::Result<T>)>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let shards = (0..shards)
            .map(|_| {
                let rx = Arc::clone(&task_rx);
                let tx = done_tx.clone();
                std::thread::spawn(move || loop {
                    // Hold the lock only to receive: shards block here
                    // one at a time, and a closed channel ends the loop.
                    let task = {
                        let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    };
                    let Ok((ticket, f)) = task else { break };
                    // If the submitter is gone the result is undeliverable;
                    // keep draining so Drop's join terminates.
                    let _ = tx.send((ticket, catch_unwind(AssertUnwindSafe(f))));
                })
            })
            .collect();
        NotifyPool {
            task_tx: Some(task_tx),
            done_rx,
            shards,
            next_ticket: 0,
            outstanding: 0,
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Tasks submitted but not yet received back via [`recv`](Self::recv).
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Submits a task to the pool, returning its ticket. Tickets are
    /// assigned in submission order starting at 0.
    pub fn submit(&mut self, f: impl FnOnce() -> T + Send + 'static) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.outstanding += 1;
        self.task_tx
            .as_ref()
            .expect("pool alive until drop")
            .send((ticket, Box::new(f)))
            .expect("shards alive until drop");
        ticket
    }

    /// Blocks for the next completion, in completion order (ties between
    /// shards resolve by channel arrival). Returns `None` when nothing is
    /// outstanding — a caller bug, not a shard failure.
    ///
    /// # Panics
    ///
    /// Resumes the panic of a task that panicked, with its payload:
    /// losing a completion silently would deadlock the serving loop.
    pub fn recv(&mut self) -> Option<(u64, T)> {
        if self.outstanding == 0 {
            return None;
        }
        let done = self.done_rx.recv().expect("shards alive until drop");
        Some(self.settle(done))
    }

    /// Non-blocking variant of [`recv`](Self::recv): `None` when nothing
    /// has completed yet (or nothing is outstanding).
    pub fn try_recv(&mut self) -> Option<(u64, T)> {
        if self.outstanding == 0 {
            return None;
        }
        let done = self.done_rx.try_recv().ok()?;
        Some(self.settle(done))
    }

    /// Counts one completion in and unwraps it, resuming a task's panic.
    fn settle(&mut self, (ticket, result): (u64, thread::Result<T>)) -> (u64, T) {
        self.outstanding -= 1;
        match result {
            Ok(v) => (ticket, v),
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Blocks until every outstanding task has completed, returning the
    /// drained `(ticket, result)` pairs in completion order. Like
    /// [`recv`](Self::recv), resumes the first panic it receives.
    pub fn drain(&mut self) -> Vec<(u64, T)> {
        let mut out = Vec::with_capacity(self.outstanding as usize);
        while let Some(pair) = self.recv() {
            out.push(pair);
        }
        out
    }
}

impl<T: Send + 'static> Drop for NotifyPool<T> {
    fn drop(&mut self) {
        // Closing the task channel ends each shard's recv loop.
        drop(self.task_tx.take());
        for h in self.shards.drain(..) {
            // Task panics are caught and reported through recv(); a shard
            // itself has nothing left to propagate.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_submission_completes_with_its_ticket() {
        let mut pool = NotifyPool::new(4);
        for i in 0u64..64 {
            let t = pool.submit(move || i * 3);
            assert_eq!(t, i, "tickets count submissions");
        }
        let mut done = pool.drain();
        assert_eq!(done.len(), 64);
        done.sort_unstable_by_key(|&(t, _)| t);
        for (i, (ticket, v)) in done.into_iter().enumerate() {
            assert_eq!(ticket, i as u64);
            assert_eq!(v, ticket * 3);
        }
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn single_shard_preserves_submission_order() {
        let mut pool = NotifyPool::new(1);
        for i in 0u64..16 {
            pool.submit(move || i);
        }
        let done = pool.drain();
        let order: Vec<u64> = done.iter().map(|&(t, _)| t).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn submit_recv_interleaves() {
        // The serving shape: one outstanding dispatch at a time, blocking
        // on its completion before scheduling the next.
        let mut pool = NotifyPool::new(2);
        for i in 0u64..10 {
            let t = pool.submit(move || i + 100);
            let (ticket, v) = pool.recv().expect("one outstanding");
            assert_eq!(ticket, t);
            assert_eq!(v, i + 100);
        }
        assert!(pool.recv().is_none(), "nothing outstanding");
        assert!(pool.try_recv().is_none());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let mut pool = NotifyPool::new(0);
        assert_eq!(pool.shards(), 1);
        pool.submit(|| 7u64);
        assert_eq!(pool.recv(), Some((0, 7)));
    }

    #[test]
    fn concurrent_shards_run_work_in_parallel_threads() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        let mut pool = NotifyPool::new(3);
        let main = std::thread::current().id();
        for _ in 0..24 {
            pool.submit(std::thread::current);
        }
        let ids: HashSet<ThreadId> = pool.drain().into_iter().map(|(_, t)| t.id()).collect();
        assert!(!ids.contains(&main), "work must run on shards, not the submitter");
        assert!(!ids.is_empty() && ids.len() <= 3);
    }

    /// A panicking task must surface from `recv` with its payload, with 1
    /// and 2 shards, and the pool must still drop. `recv` runs on a helper
    /// thread so a regression (a surviving shard holding the completion
    /// channel open) fails by timeout instead of hanging the suite.
    #[test]
    fn a_panicking_task_resumes_in_recv_and_the_pool_drops() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc::channel;
        use std::thread;
        use std::time::Duration;
        for shards in [2, 1] {
            let (tx, rx) = channel();
            let helper = thread::spawn(move || {
                let mut pool = NotifyPool::new(shards);
                pool.submit(|| -> u64 { panic!("kernel failed") });
                let caught = catch_unwind(AssertUnwindSafe(|| pool.recv()));
                let message = caught.err().and_then(|p| p.downcast_ref::<&str>().copied());
                assert_eq!(pool.outstanding(), 0);
                // The shard survived its task: the pool still serves.
                pool.submit(|| 7);
                let next = pool.recv();
                drop(pool);
                let _ = tx.send((message, next));
            });
            let got = rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(
                got,
                Ok((Some("kernel failed"), Some((1, 7)))),
                "{shards} shard(s): the panic must resume in recv and the pool must drop"
            );
            helper.join().expect("the helper returned its reading");
        }
    }

    #[test]
    fn drop_joins_cleanly_with_unreceived_completions() {
        let mut pool = NotifyPool::new(2);
        for i in 0u64..8 {
            pool.submit(move || i);
        }
        drop(pool); // must not hang or panic
    }
}
