//! Independent shards stepped under per-shard telemetry captures,
//! replayed in shard order.

use crate::pool::WorkerPool;

use ampere_telemetry::{fanin, Capture, Telemetry};

/// A set of independent shards (row domains) advanced on a
/// [`WorkerPool`].
///
/// The set binds a parent [`Telemetry`] once, at construction. Shard
/// `i` is built by a closure that receives `i` (and derives the shard's
/// seed from it) under a private [`Capture`] of that parent, so every
/// component the shard constructs reports into the capture. Stepping
/// and serial mutable access run under the same capture. Shards share
/// nothing while [`run`] steps them, so it has no per-tick barrier;
/// coupling between shards runs serially between two `run` calls, in
/// [`for_each_mut`]. [`finish`]
/// replays the captures once, in shard order, into the bound parent —
/// never into whatever pipeline is global at that moment — so the
/// merged event stream is byte-identical at any worker count and a
/// concurrently installed pipeline cannot pick up this set's events.
///
/// With a disabled parent there are no captures: shards build and step
/// on the default no-op handle and nothing replays.
///
/// [`run`]: ShardSet::run
/// [`for_each_mut`]: ShardSet::for_each_mut
/// [`finish`]: ShardSet::finish
pub struct ShardSet<S> {
    shards: Vec<S>,
    /// Parallel to `shards`; all `None` once [`ShardSet::finish`] ran.
    captures: Vec<Option<Capture>>,
    parent: Telemetry,
    pool: WorkerPool,
}

impl<S: Send> ShardSet<S> {
    /// Builds `count` shards under captures of `parent`, in index
    /// order, to be stepped by `workers` threads.
    pub fn new(
        parent: &Telemetry,
        count: usize,
        workers: usize,
        mut build: impl FnMut(usize) -> S,
    ) -> Self {
        let (shards, captures) = (0..count)
            .map(|i| {
                let capture = Capture::new_under(parent);
                let shard = match &capture {
                    Some(c) => c.with(|| build(i)),
                    None => build(i),
                };
                (shard, capture)
            })
            .unzip();
        ShardSet {
            shards,
            captures,
            parent: parent.clone(),
            pool: WorkerPool::new(workers),
        }
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Advances every shard `ticks` times on the pool, under the
    /// shard's capture. Shards share nothing while stepping, so there is
    /// no barrier between ticks: workers claim whole shards as they
    /// free up ([`WorkerPool::map`]) and step each through all `ticks`.
    /// Coupling between shards belongs between two `run` calls (see
    /// [`ShardSet::for_each_mut`]).
    ///
    /// # Panics
    /// Re-raises the first panic of `step` once every worker stopped.
    pub fn run(&mut self, ticks: u64, step: impl Fn(&mut S) + Sync) {
        let slots: Vec<(&mut S, Option<&Capture>)> = self
            .shards
            .iter_mut()
            .zip(self.captures.iter().map(Option::as_ref))
            .collect();
        let steps = |shard: &mut S| (0..ticks).for_each(|_| step(shard));
        self.pool.map(slots, |_, (shard, capture)| match capture {
            Some(c) => c.with(|| steps(shard)),
            None => steps(shard),
        });
    }

    /// Serial mutable access to every shard in index order, each under
    /// its capture — for coupling work between two [`ShardSet::run`]
    /// calls, such as applying new budgets.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut S)) {
        let captures = self.captures.iter().map(Option::as_ref);
        for (i, (shard, capture)) in self.shards.iter_mut().zip(captures).enumerate() {
            match capture {
                Some(c) => c.with(|| f(i, shard)),
                None => f(i, shard),
            }
        }
    }

    /// Replays every shard's captured telemetry into the bound parent,
    /// in shard order. Idempotent: later calls replay nothing.
    pub fn finish(&mut self) {
        for capture in self.captures.iter_mut().filter_map(Option::take) {
            fanin::replay_into(&self.parent, capture.finish());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::SimTime;
    use ampere_telemetry::{Event, RingBufferSink, Severity};

    /// A shard that emits one event per step through the handle it
    /// bound at construction.
    struct Toy {
        id: usize,
        ticks: u64,
        /// Folds in every step, so a lost or repeated step shows.
        state: u64,
        telemetry: Telemetry,
    }

    impl Toy {
        fn step(&mut self) {
            self.ticks += 1;
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(self.ticks ^ self.id as u64);
            self.telemetry.emit(
                Event::new(
                    SimTime::from_mins(self.ticks),
                    Severity::Info,
                    "toy",
                    "tick",
                )
                .with("id", self.id as u64),
            );
        }
    }

    fn toy(id: usize) -> Toy {
        Toy {
            id,
            ticks: 0,
            state: 0,
            telemetry: ampere_telemetry::global(),
        }
    }

    fn run_with(workers: usize) -> Vec<String> {
        let (sink, events) = RingBufferSink::new(1024);
        let parent = Telemetry::builder().sink(sink).build();
        let mut set = ShardSet::new(&parent, 5, workers, toy);
        set.run(3, Toy::step);
        set.for_each_mut(|i, s| {
            s.telemetry.emit(
                Event::new(SimTime::ZERO, Severity::Info, "toy", "coupled").with("id", i as u64),
            )
        });
        set.run(2, Toy::step);
        assert!(set.shards().iter().all(|s| s.ticks == 5));
        set.finish();
        set.finish();
        events.events().iter().map(|e| e.to_json()).collect()
    }

    #[test]
    fn replay_is_in_shard_order_at_any_worker_count() {
        let serial = run_with(1);
        assert_eq!(serial.len(), 5 * 6, "every event replayed exactly once");
        // Shard 0's six events come first, then shard 1's.
        assert!(serial[..6].iter().all(|l| l.contains("\"id\":0")));
        assert!(serial[6..12].iter().all(|l| l.contains("\"id\":1")));
        for workers in [2, 3, 8] {
            assert_eq!(serial, run_with(workers), "workers={workers} diverged");
        }
    }

    /// Steps `count` shards whose step costs grow with the shard index,
    /// so fast workers claim several shards while a slow one is still on
    /// its first. Returns each shard's (ticks, state) and the replayed
    /// event lines.
    fn run_uneven(count: usize, workers: usize) -> (Vec<(u64, u64)>, Vec<String>) {
        let (sink, events) = RingBufferSink::new(1024);
        let parent = Telemetry::builder().sink(sink).build();
        let mut set = ShardSet::new(&parent, count, workers, toy);
        let step = |s: &mut Toy| {
            for _ in 0..s.id * 2_000 {
                s.state = std::hint::black_box(s.state.rotate_left(7) ^ 0x9e37);
            }
            s.step();
        };
        set.run(7, step);
        set.for_each_mut(|i, s| s.state ^= i as u64);
        set.run(4, step);
        set.finish();
        let states = set.shards().iter().map(|s| (s.ticks, s.state)).collect();
        (
            states,
            events.events().iter().map(|e| e.to_json()).collect(),
        )
    }

    #[test]
    fn uneven_shards_on_any_worker_count_match_serial() {
        // 9 shards on 2 workers and 7 on 4 leave a partial last round.
        for count in [9, 7] {
            let serial = run_uneven(count, 1);
            assert!(serial.0.iter().all(|&(ticks, _)| ticks == 11));
            assert_eq!(serial.1.len(), count * 11);
            for workers in [2, 3, 4, 8] {
                assert_eq!(
                    serial,
                    run_uneven(count, workers),
                    "{count} shards on {workers} workers diverged"
                );
            }
        }
    }

    #[test]
    fn panicking_shard_propagates_without_deadlock() {
        let mut set = ShardSet::new(&Telemetry::disabled(), 6, 3, toy);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.run(10, |s| {
                if s.id == 4 && s.ticks == 3 {
                    panic!("shard 4 died at tick 3");
                }
                s.step();
            })
        }))
        .expect_err("the shard's panic must reach the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"shard 4 died at tick 3"));
    }

    #[test]
    fn replays_into_the_parent_bound_at_construction() {
        let (sink, bound) = RingBufferSink::new(64);
        let parent = Telemetry::builder().sink(sink).build();
        let mut set = ShardSet::new(&parent, 2, 2, toy);
        set.run(1, Toy::step);
        // A pipeline made current after construction sees nothing.
        let later = Capture::standalone();
        later.with(|| set.finish());
        assert_eq!(bound.events().len(), 2);
        assert!(later.finish().events.is_empty());
    }

    #[test]
    fn disabled_parent_builds_and_steps_without_captures() {
        let mut set = ShardSet::new(&Telemetry::disabled(), 3, 2, toy);
        set.run(4, Toy::step);
        set.for_each_mut(|_, s| s.step());
        set.finish();
        assert!(set.shards().iter().all(|s| s.ticks == 5));
    }
}
