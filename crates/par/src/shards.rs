//! Fan-outs under per-index telemetry captures, replayed in index
//! order: [`fan_out`] for one-shot tasks, [`ShardSet`] for shards
//! stepped over several runs.

use crate::pool::{Task, WorkerPool};

use ampere_telemetry::{fanin, Capture, Telemetry};

/// Maps `f` over `items` on `workers` threads, the calling thread among
/// them, and returns the results in item order.
///
/// Each call `f(i, item)` runs in the scope of its own [`Capture`] of
/// `parent`, so every component it constructs reports there. Once all
/// calls returned, the captures replay into `parent` in item order, so
/// the merged event stream, span ids and metrics are those of a serial
/// run at any worker count. A call may fan out again with the handle in
/// its scope as the parent: the inner captures then replay into the
/// outer one. With a disabled parent there are no captures: every call
/// runs in the parent's scope and nothing replays.
///
/// # Panics
/// Re-raises the first panic of `f` once every worker stopped.
pub fn fan_out<I: Send, T: Send>(
    parent: &Telemetry,
    workers: usize,
    items: Vec<I>,
    f: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    let mut captures = Captures::new(parent, items.len());
    let mut out = Vec::with_capacity(items.len());
    let f = &f;
    let tasks = items
        .into_iter()
        .zip(captures.scopes())
        .enumerate()
        .map(|(i, (item, tel))| Box::new(move || tel.scope(|| f(i, item))) as Task<'_, T>)
        .collect();
    WorkerPool::new(workers).run_each(tasks, |_, result| out.push(result));
    captures.replay();
    out
}

/// One private [`Capture`] of a parent per index: the single
/// create/scope/replay path behind [`fan_out`] and [`ShardSet`].
struct Captures {
    parent: Telemetry,
    /// One per index; all `None` under a disabled parent and once
    /// [`Captures::replay`] ran.
    captures: Vec<Option<Capture>>,
}

impl Captures {
    fn new(parent: &Telemetry, count: usize) -> Self {
        Captures {
            parent: parent.clone(),
            captures: (0..count).map(|_| Capture::new_under(parent)).collect(),
        }
    }

    /// The handle each index runs in, in index order: its capture's, or
    /// the parent's when it has none.
    fn scopes(&self) -> impl Iterator<Item = &Telemetry> {
        self.captures
            .iter()
            .map(|capture| capture.as_ref().map_or(&self.parent, Capture::telemetry))
    }

    /// Replays every capture into the parent, in index order.
    /// Idempotent: later calls replay nothing.
    fn replay(&mut self) {
        for capture in self.captures.iter_mut().filter_map(Option::take) {
            fanin::replay_into(&self.parent, capture.finish());
        }
    }
}

/// A set of independent shards (row domains) advanced on a
/// [`WorkerPool`].
///
/// The set binds a parent [`Telemetry`] once, at construction. Shard
/// `i` is built by a closure that receives `i` (and derives the shard's
/// seed from it) under a private [`Capture`] of that parent, so every
/// component the shard constructs reports into the capture. Stepping
/// and serial mutable access run under the same capture. Shards share
/// nothing while [`run`] steps them, so it has no per-tick barrier;
/// [`run_each`] also hands each finished shard back to the calling
/// thread, in shard order, while later shards still step. Coupling
/// between shards runs serially between two `run` calls, in
/// [`for_each_mut`]. [`finish`]
/// replays the captures once, in shard order, into the bound parent —
/// never into whatever pipeline is in scope at that moment — so the
/// merged event stream is byte-identical at any worker count and a
/// pipeline that comes into scope later cannot pick up this set's
/// events.
///
/// With a disabled parent there are no captures: shards build and step
/// in the disabled parent's [`Telemetry::scope`] and nothing replays.
///
/// [`run`]: ShardSet::run
/// [`run_each`]: ShardSet::run_each
/// [`for_each_mut`]: ShardSet::for_each_mut
/// [`finish`]: ShardSet::finish
pub struct ShardSet<S> {
    shards: Vec<S>,
    captures: Captures,
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
        let captures = Captures::new(parent, count);
        let shards = captures
            .scopes()
            .enumerate()
            .map(|(i, tel)| tel.scope(|| build(i)))
            .collect();
        ShardSet {
            shards,
            captures,
            pool: WorkerPool::new(workers),
        }
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Advances every shard `ticks` times on the pool, under the
    /// shard's capture; [`ShardSet::run_each`] with nothing to do per
    /// finished shard.
    ///
    /// # Panics
    /// Re-raises the first panic of `step` once every worker stopped.
    pub fn run(&mut self, ticks: u64, step: impl Fn(&mut S) + Sync) {
        self.run_each(ticks, step, |_, _| {});
    }

    /// Advances every shard `ticks` times on the pool, under the
    /// shard's capture, and hands each shard to `finished` on the
    /// calling thread, in shard order, once it has run all `ticks`.
    /// Shards share nothing while stepping, so there is no barrier
    /// between ticks: workers — the calling thread among them — claim
    /// whole shards as they free up and step each through all `ticks`
    /// ([`WorkerPool::run_each`]). `finished` runs between the calling
    /// thread's claims, so reading the shards that are done overlaps
    /// the stepping of later ones. Coupling between shards belongs
    /// between two `run` calls (see [`ShardSet::for_each_mut`]).
    ///
    /// # Panics
    /// Re-raises the first panic of `step` or `finished` once every
    /// worker stopped.
    pub fn run_each<'s>(
        &'s mut self,
        ticks: u64,
        step: impl Fn(&mut S) + Sync,
        mut finished: impl FnMut(usize, &'s S),
    ) {
        let steps = |shard: &mut S| (0..ticks).for_each(|_| step(shard));
        let steps = &steps;
        let tasks = self
            .shards
            .iter_mut()
            .zip(self.captures.scopes())
            .map(|(shard, tel)| {
                Box::new(move || {
                    tel.scope(|| steps(shard));
                    shard
                }) as Task<'_, &mut S>
            })
            .collect();
        self.pool.run_each(tasks, |i, shard| finished(i, shard));
    }

    /// Serial mutable access to every shard in index order, each under
    /// its capture — for coupling work between two [`ShardSet::run`]
    /// calls, such as applying new budgets.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut S)) {
        let scopes = self.captures.scopes();
        for (i, (shard, tel)) in self.shards.iter_mut().zip(scopes).enumerate() {
            tel.scope(|| f(i, shard));
        }
    }

    /// Replays every shard's captured telemetry into the bound parent,
    /// in shard order. Idempotent: later calls replay nothing.
    pub fn finish(&mut self) {
        self.captures.replay();
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

    /// What one uneven run leaves: each shard's (ticks, state), the
    /// replayed event lines and every (index, ticks) the finished-shard
    /// callback saw, in call order.
    type Uneven = (Vec<(u64, u64)>, Vec<String>, Vec<(usize, u64)>);

    /// Steps `count` shards whose step costs grow with the shard index,
    /// so fast workers claim several shards while a slow one is still on
    /// its first.
    fn run_uneven(count: usize, workers: usize) -> Uneven {
        let (sink, events) = RingBufferSink::new(1024);
        let parent = Telemetry::builder().sink(sink).build();
        let mut set = ShardSet::new(&parent, count, workers, toy);
        let step = |s: &mut Toy| {
            for _ in 0..s.id * 2_000 {
                s.state = std::hint::black_box(s.state.rotate_left(7) ^ 0x9e37);
            }
            s.step();
        };
        let mut seen = Vec::new();
        set.run_each(7, step, |i, s| seen.push((i, s.ticks)));
        set.for_each_mut(|i, s| s.state ^= i as u64);
        set.run_each(4, step, |i, s| seen.push((i, s.ticks)));
        set.finish();
        let states = set.shards().iter().map(|s| (s.ticks, s.state)).collect();
        (
            states,
            events.events().iter().map(|e| e.to_json()).collect(),
            seen,
        )
    }

    #[test]
    fn uneven_shards_on_any_worker_count_match_serial() {
        // 9 shards on 2 workers and 7 on 4 leave a partial last round.
        for count in [9, 7] {
            let serial = run_uneven(count, 1);
            assert!(serial.0.iter().all(|&(ticks, _)| ticks == 11));
            assert_eq!(serial.1.len(), count * 11);
            // Each shard once per run, in index order, with every tick
            // of that run done.
            let seen: Vec<(usize, u64)> = [7, 11]
                .into_iter()
                .flat_map(|ticks| (0..count).map(move |i| (i, ticks)))
                .collect();
            assert_eq!(serial.2, seen);
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

    /// One task of a fan-out: allocates a root and a child span, counts
    /// itself and emits one event, all through the handle in scope.
    fn toy_task(id: usize) -> usize {
        let tel = ampere_telemetry::global();
        let root = tel.root_span();
        let child = tel.child_span(root);
        tel.counter("tasks", &[]).inc();
        tel.gauge("last", &[]).set(id as f64);
        tel.emit(
            Event::new(SimTime::from_mins(id as u64), Severity::Info, "toy", "run")
                .with("id", id as u64)
                .in_span(child),
        );
        id * 2
    }

    /// The parent's event lines and metrics snapshot after `run` ran in
    /// its scope, and what `run` returned.
    fn observed<R>(run: impl FnOnce(&Telemetry) -> R) -> (Vec<String>, String, R) {
        let (sink, events) = RingBufferSink::new(1024);
        let parent = Telemetry::builder().sink(sink).build();
        let out = parent.scope(|| run(&parent));
        let lines = events.events().iter().map(|e| e.to_json()).collect();
        (lines, parent.snapshot().unwrap().to_jsonl(), out)
    }

    #[test]
    fn fan_out_is_byte_identical_at_any_worker_count() {
        let run = |workers| {
            observed(|parent| fan_out(parent, workers, (0..12).collect(), |_, id| toy_task(id)))
        };
        let serial = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(serial, run(workers), "workers={workers} diverged");
        }
        assert_eq!(serial.2, (0..12).map(|i| i * 2).collect::<Vec<_>>());
        // Span ids are contiguous from 1 in task order: task i uses
        // root 2i+1, child 2i+2.
        assert!(serial.0[3].contains("\"trace\":7,\"span\":8,\"parent\":7"));
    }

    #[test]
    fn nested_fan_outs_match_a_serial_run() {
        let serial = observed(|_| {
            (0..4)
                .map(|i| toy_task(i) + (0..3).map(|j| toy_task(10 * i + j)).sum::<usize>())
                .collect::<Vec<_>>()
        });
        assert_eq!(serial.0.len(), 16);
        for workers in [1, 2, 4] {
            // Each outer task does its own work, then fans out again with
            // the handle in its scope as the parent, as a figure that fans
            // out its cases does inside the figure fan-out.
            let outer = |_, i: usize| {
                let own = toy_task(i);
                let inner = (0..3).map(|j| 10 * i + j).collect();
                let parent = ampere_telemetry::global();
                own + fan_out(&parent, workers, inner, |_, id| toy_task(id))
                    .iter()
                    .sum::<usize>()
            };
            let nested = observed(|parent| fan_out(parent, workers, (0..4).collect(), outer));
            assert_eq!(serial, nested, "workers={workers} diverged from serial");
        }
    }

    #[test]
    fn fan_out_under_a_disabled_parent_runs_in_its_scope() {
        for workers in [1, 4] {
            // Called from an enabled scope: the tasks on this thread see
            // the disabled parent, not the caller's pipeline.
            let (_, _, enabled) = observed(|_| {
                fan_out(&Telemetry::disabled(), workers, vec![(); 4], |_, ()| {
                    ampere_telemetry::global().enabled()
                })
            });
            assert_eq!(enabled, vec![false; 4], "workers={workers}");
        }
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
