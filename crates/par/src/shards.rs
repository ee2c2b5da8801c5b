//! Independent shards stepped in lockstep under per-shard telemetry
//! captures, replayed in shard order.

use crate::pool::WorkerPool;

use ampere_telemetry::{fanin, Capture, Telemetry};

/// A set of independent shards (row domains) advanced in lockstep on a
/// [`WorkerPool`].
///
/// The set binds a parent [`Telemetry`] once, at construction. Shard
/// `i` is built by a closure that receives `i` (and derives the shard's
/// seed from it) under a private [`Capture`] of that parent, so every
/// component the shard constructs reports into the capture. Stepping
/// and serial mutable access run under the same capture. [`finish`]
/// replays the captures once, in shard order, into the bound parent —
/// never into whatever pipeline is global at that moment — so the
/// merged event stream is byte-identical at any worker count and a
/// concurrently installed pipeline cannot pick up this set's events.
///
/// With a disabled parent there are no captures: shards build and step
/// on the default no-op handle and nothing replays.
///
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

    /// Advances every shard `ticks` times on the pool, each step under
    /// the shard's capture, with a barrier between ticks (see
    /// [`WorkerPool::step_ticks`]).
    pub fn run(&mut self, ticks: u64, step: impl Fn(&mut S) + Sync) {
        let mut slots: Vec<(&mut S, Option<&Capture>)> = self
            .shards
            .iter_mut()
            .zip(self.captures.iter().map(Option::as_ref))
            .collect();
        self.pool
            .step_ticks(&mut slots, ticks, |_, (shard, capture)| match capture {
                Some(c) => c.with(|| step(shard)),
                None => step(shard),
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
        telemetry: Telemetry,
    }

    impl Toy {
        fn step(&mut self) {
            self.ticks += 1;
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
