//! The scoped worker pool: one claim loop with the caller as a
//! worker, and the lockstep shard loop.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Condvar, Mutex, PoisonError};
use std::thread;

/// The first panic payload captured across a fleet of workers. Workers
/// never unwind through `thread::scope` themselves — they stash the
/// payload here and return normally, and the *calling* thread re-raises
/// it after the scope has joined. Keeping unwinding off the scoped
/// threads sidesteps scope's own "a scoped thread panicked" panic and
/// keeps panic propagation single-sourced.
struct FirstPanic(Mutex<Option<Box<dyn Any + Send>>>);

impl FirstPanic {
    fn new() -> Self {
        FirstPanic(Mutex::new(None))
    }

    fn store(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Re-raises the stored panic on the current thread, if any.
    fn rethrow(self) {
        if let Some(payload) = self.0.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(payload);
        }
    }
}

/// A boxed one-shot task for [`WorkerPool::run_each`].
pub type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (0 resets to the initial
/// serial default). Drivers wire this to a `--workers N` flag once;
/// library code reads it back with [`default_workers`].
pub fn set_default_workers(workers: usize) {
    DEFAULT_WORKERS.store(workers, Ordering::Relaxed);
}

/// The process-wide default worker count; 1 (serial) unless
/// [`set_default_workers`] was called.
pub fn default_workers() -> usize {
    match DEFAULT_WORKERS.load(Ordering::Relaxed) {
        0 => 1,
        n => n,
    }
}

/// The hardware parallelism available to this process (at least 1).
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed-width pool of scoped workers, the calling thread among them.
/// Creating one is free — the other `workers - 1` threads are spawned
/// per call and joined before the call returns, so borrowed data may
/// flow into tasks.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool running at most `workers` tasks concurrently (min 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every task and hands each result to `each` **on the
    /// calling thread, in task order**, while later tasks may still be
    /// running. The calling thread is one of the workers: it spawns
    /// `workers - 1` threads and claims tasks from the same queue as
    /// they do, in task order, so with one worker every task runs
    /// inline.
    /// Between two claims it hands over every result that is ready —
    /// result `i` once task `i` is done and results `0..i` have been
    /// handed over — and once nothing is left to claim it waits for
    /// the next result in order. Work done in `each` therefore
    /// overlaps the tasks still running on the spawned threads.
    ///
    /// # Panics
    /// Re-raises the first panic of a task or of `each` once every
    /// worker has stopped. Either stops the workers from claiming more
    /// tasks, and no result is handed over after it.
    pub fn run_each<'a, T: Send>(&self, tasks: Vec<Task<'a, T>>, mut each: impl FnMut(usize, T)) {
        let n = tasks.len();
        let spawned = self.workers.min(n).saturating_sub(1);
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let done = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<T>>>());
        let ready = Condvar::new();
        let poisoned = AtomicBool::new(false);
        let first_panic = FirstPanic::new();
        let fail = |panic| {
            first_panic.store(panic);
            poisoned.store(true, Ordering::SeqCst);
            // Taking the lock orders the flag before a waiting caller's
            // next check, so the wake-up cannot be lost.
            let _done = done.lock().unwrap_or_else(PoisonError::into_inner);
            ready.notify_one();
        };
        // Claims and runs one task; false once none is left or a
        // worker failed.
        let claim = || {
            if poisoned.load(Ordering::SeqCst) {
                return false;
            }
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, task)) = next else {
                return false;
            };
            match catch_unwind(AssertUnwindSafe(task)) {
                Ok(out) => {
                    done.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(out);
                    ready.notify_one();
                    true
                }
                Err(panic) => {
                    fail(panic);
                    false
                }
            }
        };
        thread::scope(|scope| {
            for _ in 0..spawned {
                scope.spawn(|| while claim() {});
            }
            let mut handed = 0;
            let mut claiming = true;
            while handed < n && !poisoned.load(Ordering::SeqCst) {
                let mut slots = done.lock().unwrap_or_else(PoisonError::into_inner);
                if slots[handed].is_none() {
                    if claiming {
                        drop(slots);
                        claiming = claim();
                        continue;
                    }
                    slots = ready
                        .wait_while(slots, |slots| {
                            slots[handed].is_none() && !poisoned.load(Ordering::SeqCst)
                        })
                        .unwrap_or_else(PoisonError::into_inner);
                }
                let Some(out) = slots[handed].take() else {
                    continue;
                };
                drop(slots);
                if let Err(panic) = catch_unwind(AssertUnwindSafe(|| each(handed, out))) {
                    fail(panic);
                }
                handed += 1;
            }
        });
        first_panic.rethrow();
    }

    /// Advances every shard by `ticks` steps, with a barrier after each
    /// tick: no shard starts tick `k + 1` until all shards finished tick
    /// `k`. Shards are partitioned contiguously across workers, and
    /// `step` receives the shard's global index, so work assignment is
    /// deterministic in everything except thread interleaving *within*
    /// one tick — which is invisible as long as shards are independent.
    ///
    /// # Panics
    /// If `step` panics, every worker stops at the end of that tick
    /// (still meeting the barrier, so nobody deadlocks) and the first
    /// panic is re-raised.
    pub fn step_ticks<S: Send>(
        &self,
        shards: &mut [S],
        ticks: u64,
        step: impl Fn(usize, &mut S) + Sync,
    ) {
        if shards.is_empty() || ticks == 0 {
            return;
        }
        let workers = self.workers.min(shards.len());
        if workers == 1 {
            for _ in 0..ticks {
                for (i, shard) in shards.iter_mut().enumerate() {
                    step(i, shard);
                }
            }
            return;
        }
        // Contiguous partition: worker w gets shards [start, start+len).
        let n = shards.len();
        let base = n / workers;
        let extra = n % workers;
        let mut chunks = Vec::with_capacity(workers);
        let mut rest = shards;
        let mut start = 0;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let (head, tail) = rest.split_at_mut(len);
            chunks.push((start, head));
            start += len;
            rest = tail;
        }
        let barrier = Barrier::new(workers);
        let poisoned = AtomicBool::new(false);
        let first_panic = FirstPanic::new();
        let step = &step;
        thread::scope(|scope| {
            for (start, chunk) in chunks {
                let barrier = &barrier;
                let poisoned = &poisoned;
                let first_panic = &first_panic;
                scope.spawn(move || {
                    for _ in 0..ticks {
                        for (offset, shard) in chunk.iter_mut().enumerate() {
                            let result =
                                catch_unwind(AssertUnwindSafe(|| step(start + offset, shard)));
                            if let Err(panic) = result {
                                poisoned.store(true, Ordering::SeqCst);
                                first_panic.store(panic);
                                break;
                            }
                        }
                        // Everyone meets the barrier, poisoned or not,
                        // so a panicking tick cannot deadlock the rest.
                        barrier.wait();
                        // Double barrier: snapshot the stop flag while
                        // no worker can be computing (writes to
                        // `poisoned` happen only in the step phase,
                        // which both waits fence off). Checking after a
                        // single wait is racy: a fast worker could start
                        // the next tick and poison it before a slow
                        // worker finished checking, splitting the fleet
                        // across two ticks and deadlocking the barrier.
                        let stop = poisoned.load(Ordering::SeqCst);
                        barrier.wait();
                        if stop {
                            break;
                        }
                    }
                });
            }
        });
        first_panic.rethrow();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let pool = WorkerPool::new(16);
        pool.run_each(Vec::<Task<'_, i32>>::new(), |_, _| {
            panic!("no task, no result")
        });
        let mut out = Vec::new();
        pool.run_each(vec![Box::new(|| 1 + 1) as Task<'_, i32>], |_, v| {
            out.push(v)
        });
        assert_eq!(out, vec![2]);
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    /// Runs `f` on a fresh thread and fails the test if it has not
    /// returned within 30 s, so a deadlock fails instead of hanging.
    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(catch_unwind(AssertUnwindSafe(f))));
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(Ok(out)) => out,
            Ok(Err(panic)) => resume_unwind(panic),
            Err(_) => panic!("pool deadlocked"),
        }
    }

    #[test]
    fn run_each_hands_results_over_in_order_on_the_caller() {
        use std::collections::HashSet;
        for workers in [1, 2, 3, 8] {
            let n = 24;
            let caller = thread::current().id();
            let finished: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            let threads = Mutex::new(HashSet::new());
            let (finished_ref, threads_ref) = (&finished, &threads);
            let tasks: Vec<Task<'_, usize>> = (0..n)
                .map(|i| {
                    Box::new(move || {
                        threads_ref.lock().unwrap().insert(thread::current().id());
                        // Staggered costs: later tasks often finish first.
                        thread::sleep(std::time::Duration::from_micros(((n - i) % 5) as u64 * 300));
                        finished_ref[i].store(true, Ordering::SeqCst);
                        i * 3
                    }) as Task<'_, usize>
                })
                .collect();
            let mut handed = Vec::new();
            WorkerPool::new(workers).run_each(tasks, |i, out| {
                assert_eq!(thread::current().id(), caller, "workers={workers}");
                assert_eq!(i, handed.len(), "out of order at workers={workers}");
                assert_eq!(out, i * 3);
                assert!(
                    finished[..=i].iter().all(|f| f.load(Ordering::SeqCst)),
                    "result {i} handed over before an earlier task finished"
                );
                handed.push(i);
            });
            assert_eq!(handed.len(), n);
            let threads = threads.into_inner().unwrap();
            assert!(
                threads.len() <= workers,
                "{} threads ran tasks",
                threads.len()
            );
            if workers == 1 {
                assert!(threads.contains(&caller));
            }
        }
    }

    #[test]
    fn task_panic_while_the_caller_waits_is_reraised() {
        let err = within_deadline(|| {
            let caller = thread::current().id();
            let both_running = Barrier::new(2);
            let both_running = &both_running;
            // Two tasks on two workers: each holds its worker until the
            // other has started, so one runs on the caller and one on
            // the spawned thread. The caller's returns at once; the
            // spawned thread's panics 20 ms later, by when the caller is
            // almost surely waiting for it. Should the caller be slower,
            // it sees the panic before waiting, which must re-raise too.
            let tasks: Vec<Task<'_, ()>> = (0..2)
                .map(|_| {
                    Box::new(move || {
                        both_running.wait();
                        if thread::current().id() != caller {
                            thread::sleep(std::time::Duration::from_millis(20));
                            panic!("spawned task failed");
                        }
                    }) as Task<'_, ()>
                })
                .collect();
            catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::new(2).run_each(tasks, |_, ()| {})
            }))
            .map_err(|e| e.downcast_ref::<&str>().copied())
        });
        assert_eq!(err, Err(Some("spawned task failed")));
    }

    #[test]
    fn callback_panic_stops_claiming_and_is_reraised() {
        // The first callback runs a few ms in; the spawned worker alone
        // would need about 800 ms for every task.
        let n = 400;
        let (started, handed) = within_deadline(move || {
            let started = AtomicUsize::new(0);
            let started_ref = &started;
            let tasks: Vec<Task<'_, ()>> = (0..n)
                .map(|_| {
                    Box::new(move || {
                        started_ref.fetch_add(1, Ordering::SeqCst);
                        thread::sleep(std::time::Duration::from_millis(2));
                    }) as Task<'_, ()>
                })
                .collect();
            let mut handed = 0;
            let err = catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::new(2).run_each(tasks, |_, ()| {
                    handed += 1;
                    panic!("callback failed");
                })
            }))
            .expect_err("the callback's panic must reach the caller");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"callback failed"));
            (started.into_inner(), handed)
        });
        assert_eq!(handed, 1, "no result is handed over after the panic");
        assert!(
            started < n,
            "workers kept claiming: {started} of {n} tasks ran"
        );
    }

    #[test]
    fn step_ticks_matches_serial_stepping() {
        // Each shard accumulates a function of (index, tick); any
        // cross-tick reordering would change the value.
        let run = |workers: usize| {
            let mut shards: Vec<(usize, u64)> = (0..9).map(|i| (0usize, i as u64)).collect();
            WorkerPool::new(workers).step_ticks(&mut shards, 50, |idx, shard| {
                shard.0 += 1;
                shard.1 = shard
                    .1
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(idx as u64);
            });
            shards
        };
        let serial = run(1);
        assert!(serial.iter().all(|s| s.0 == 50));
        assert_eq!(serial, run(3));
        assert_eq!(serial, run(16));
    }

    #[test]
    fn barrier_keeps_shards_in_lockstep() {
        use std::sync::atomic::AtomicU64;
        // Every shard checks that no other shard is more than one tick
        // ahead when it steps.
        let ticks: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let ticks = &ticks;
        let mut shards: Vec<usize> = (0..4).collect();
        WorkerPool::new(4).step_ticks(&mut shards, 100, |idx, _| {
            let mine = ticks[idx].fetch_add(1, Ordering::SeqCst);
            for other in ticks {
                let t = other.load(Ordering::SeqCst);
                assert!(
                    t >= mine && t <= mine + 1,
                    "shard ran ahead of the barrier: {t} vs {mine}"
                );
            }
        });
    }

    #[test]
    fn run_propagates_panics() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<'_, ()>> = (0..8)
            .map(|i| {
                Box::new(move || {
                    if i == 5 {
                        panic!("task 5 failed");
                    }
                }) as Task<'_, ()>
            })
            .collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run_each(tasks, |_, ()| {})));
        assert_eq!(
            err.unwrap_err().downcast_ref::<&str>(),
            Some(&"task 5 failed")
        );
    }

    #[test]
    fn step_ticks_propagates_panics_without_deadlock() {
        let mut shards: Vec<u64> = vec![0; 6];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::new(3).step_ticks(&mut shards, 10, |idx, shard| {
                if idx == 4 && *shard == 3 {
                    panic!("shard 4 died at tick 3");
                }
                *shard += 1;
            });
        }));
        assert!(err.is_err());
    }

    #[test]
    fn default_workers_roundtrip() {
        assert_eq!(default_workers(), 1);
        set_default_workers(6);
        assert_eq!(default_workers(), 6);
        set_default_workers(0);
        assert_eq!(default_workers(), 1);
        assert!(available_workers() >= 1);
    }
}
