//! The scheduler's low level: queueing, candidate tracking, dispatch,
//! and the freeze/unfreeze interface Ampere controls power through.

use std::collections::{HashMap, VecDeque};
use std::mem;

use ampere_cluster::{Cluster, JobId, Resources, ServerId};
use ampere_sim::{derive_stream, rng::streams, SimRng, SimTime};
use ampere_stats::Summary;
use ampere_telemetry::{
    buckets, Counter, Event, Gauge, Histogram, PhaseProfiler, Severity, SpanCtx, Telemetry,
    TickPhase,
};
use ampere_workload::JobRequest;

use crate::policy::{self, Candidate, PlacementContext, PlacementPolicy};
use crate::queue::BlockQueue;

/// Counters the evaluation reads after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStats {
    /// Jobs handed to the scheduler, drawn or not.
    pub submitted: u64,
    /// Jobs placed on a server ("accepted" — the paper's throughput
    /// unit, §4.1.3).
    pub placed: u64,
    /// Jobs that finished running.
    pub completed: u64,
    /// Largest queue length observed, drawn or not.
    pub peak_queue: usize,
}

/// Result of one dispatch round.
#[derive(Debug, Clone)]
pub struct DispatchOutcome {
    /// `(job, server)` pairs placed this round.
    pub placed: Vec<(JobId, ServerId)>,
    /// Jobs still waiting after the round, drawn or not.
    pub queued: usize,
}

/// Outcome of a [`Scheduler::freeze`] or [`Scheduler::unfreeze`] call.
///
/// The two-call API stays idempotent — a redundant call is not an error
/// — but callers that *should* know the server's state (the controller,
/// failover drills) can now see when their view drifted from reality.
/// Redundant calls also tick the `sched_redundant_ops` counter, making
/// a confused controller visible in metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeStatus {
    /// The server changed state.
    Applied,
    /// The server was already in the requested state; nothing happened.
    AlreadyInState,
    /// No such server in the cluster; nothing happened.
    UnknownServer,
}

/// What the scheduler remembers about an in-force freeze: the span the
/// decision was traced under (so the unfreeze closes the same span) and
/// when it took effect (so the unfreeze can report the hold duration).
#[derive(Debug, Clone, Copy)]
struct FreezeRecord {
    span: SpanCtx,
    at: Option<SimTime>,
}

/// The low-level scheduler.
///
/// Its backlog has two parts. The drawn window holds queued jobs with
/// their shapes, in arrival order; dispatch only ever reads it. Behind
/// it, the undrawn tail holds per-round arrival counts whose jobs the
/// workload has not drawn yet. [`Scheduler::arrive`] draws from the
/// tail, oldest round first, only until the window holds the dispatch
/// budget, so a backlog far deeper than dispatch can reach costs a
/// counter, not a job record per arrival. Everything that reports the
/// backlog (queue length, [`SchedStats`], metrics, dispatch events)
/// counts both parts.
pub struct Scheduler {
    policy: Box<dyn PlacementPolicy>,
    /// The drawn window: queued jobs with the dispatch round they
    /// arrived before, in fixed-size blocks: a growing backlog never
    /// copies itself, and compaction closes a gap from its shorter side.
    queue: BlockQueue<(JobRequest, u64)>,
    /// The undrawn tail: `(round, count)` per dispatch round that had
    /// arrivals, oldest first, all queued behind the drawn window.
    undrawn: VecDeque<(u64, usize)>,
    /// Jobs in the undrawn tail.
    undrawn_len: usize,
    /// Per-dimension minimum demand over the jobs drawn since the
    /// window was last empty: a lower bound on every job in the window,
    /// since removals can only raise the true minimum.
    queue_floor: Resources,
    rng: SimRng,
    stats: SchedStats,
    /// Max queued jobs examined per dispatch round (bounded backfill:
    /// a huge backlog must not stall the simulation tick). "Examined"
    /// means checked against the round's max-free bound, whether one by
    /// one or, once nothing left can fit, in one step.
    dispatch_budget: usize,
    /// Dispatch rounds run so far (≈ simulation ticks).
    round: u64,
    /// Queue-wait summary in dispatch rounds: 0 = placed in the first
    /// round after submission. Freezing servers statistically shifts
    /// this distribution — the paper's throughput cost made visible.
    wait_rounds: Summary,
    /// Sim time of the current tick, for stamping telemetry events.
    /// Maintained by [`Scheduler::set_clock`]; `None` until the driver
    /// first calls it (events then carry `t_ms=0` plus `t_unset=true`
    /// and a one-shot warning fires, instead of silently lying).
    clock: Option<SimTime>,
    /// Whether the missing-clock warning has already been emitted.
    clock_warned: bool,
    /// Trace context of the controller tick currently driving this
    /// scheduler (set by [`Scheduler::set_tick_span`]); freeze and
    /// dispatch events emitted while it is live link back to that tick.
    tick_span: SpanCtx,
    /// Span + start time per frozen server, keyed by raw server id.
    freeze_book: HashMap<u64, FreezeRecord>,
    /// Reusable candidate-snapshot buffers: dispatch runs every tick
    /// over the whole fleet, so the snapshot must not reallocate.
    cand_scratch: Vec<Candidate>,
    by_row_scratch: Vec<Vec<usize>>,
    telemetry: Telemetry,
    submitted_counter: Counter,
    placed_counter: Counter,
    completed_counter: Counter,
    frozen_counter: Counter,
    unfrozen_counter: Counter,
    redundant_counter: Counter,
    queue_gauge: Gauge,
    wait_hist: Histogram,
    freeze_hist: Histogram,
    profiler: PhaseProfiler,
}

impl Scheduler {
    /// Creates a scheduler with the given upper-level policy, reporting
    /// into the global telemetry pipeline (no-op unless installed).
    pub fn new(policy: Box<dyn PlacementPolicy>, seed: u64) -> Self {
        Self::with_telemetry(policy, seed, ampere_telemetry::global())
    }

    /// Like [`Scheduler::new`] with an explicit telemetry pipeline.
    pub fn with_telemetry(
        policy: Box<dyn PlacementPolicy>,
        seed: u64,
        telemetry: Telemetry,
    ) -> Self {
        Self {
            policy,
            queue: BlockQueue::new(),
            undrawn: VecDeque::new(),
            undrawn_len: 0,
            queue_floor: Resources::ZERO,
            rng: derive_stream(seed, streams::PLACEMENT),
            stats: SchedStats::default(),
            dispatch_budget: 50_000,
            round: 0,
            wait_rounds: Summary::new(),
            clock: None,
            clock_warned: false,
            tick_span: SpanCtx::NONE,
            freeze_book: HashMap::new(),
            cand_scratch: Vec::new(),
            by_row_scratch: Vec::new(),
            submitted_counter: telemetry.counter("sched_jobs_submitted", &[]),
            placed_counter: telemetry.counter("sched_jobs_placed", &[]),
            completed_counter: telemetry.counter("sched_jobs_completed", &[]),
            frozen_counter: telemetry.counter("sched_servers_frozen", &[]),
            unfrozen_counter: telemetry.counter("sched_servers_unfrozen", &[]),
            redundant_counter: telemetry.counter("sched_redundant_ops", &[]),
            queue_gauge: telemetry.gauge("sched_queue_len", &[]),
            wait_hist: telemetry.histogram(
                "sched_wait_rounds",
                &[],
                &buckets::exponential(1.0, 2.0, 10),
            ),
            freeze_hist: telemetry.histogram(
                "sched_freeze_mins",
                &[],
                &buckets::exponential(5.0, 2.0, 10),
            ),
            profiler: PhaseProfiler::new(&telemetry),
            telemetry,
        }
    }

    /// Sets the sim time stamped onto telemetry events emitted by the
    /// freeze/unfreeze/dispatch paths. Drivers call this once per tick.
    /// If a driver never does, emitted events carry `t_ms=0` with a
    /// `t_unset=true` marker and a one-shot `clock_unset` warning.
    pub fn set_clock(&mut self, now: SimTime) {
        self.clock = Some(now);
    }

    /// Sets the trace context of the controller tick currently driving
    /// freezes and dispatch. [`SpanCtx::NONE`] detaches (freeze spans
    /// then start their own root traces).
    pub fn set_tick_span(&mut self, span: SpanCtx) {
        self.tick_span = span;
    }

    /// The timestamp for an event emitted now, plus whether the clock
    /// was never set (callers mark such events with `t_unset=true`).
    /// Fires the one-shot `clock_unset` warning on first unset use.
    fn stamp(&mut self) -> (SimTime, bool) {
        match self.clock {
            Some(t) => (t, false),
            None => {
                if !self.clock_warned {
                    self.clock_warned = true;
                    self.telemetry.emit_with(|| {
                        Event::new(SimTime::ZERO, Severity::Warn, "scheduler", "clock_unset").with(
                            "hint",
                            "Scheduler::set_clock was never called; \
                                 events carry t_ms=0 and t_unset=true",
                        )
                    });
                }
                (SimTime::ZERO, true)
            }
        }
    }

    /// Accepts already-drawn jobs into the queue.
    ///
    /// Panics while the undrawn tail holds arrivals: the jobs would
    /// jump ahead of them. A driver that feeds the scheduler through
    /// [`Scheduler::arrive`] hands it every arrival that way.
    pub fn submit(&mut self, jobs: impl IntoIterator<Item = JobRequest>) {
        assert!(
            self.undrawn.is_empty(),
            "submit would queue jobs ahead of {} undrawn arrivals",
            self.undrawn_len
        );
        let before = self.queue.len();
        let round = self.round;
        self.push_drawn(jobs.into_iter().map(|j| (j, round)));
        self.count_arrivals(self.queue.len() - before);
    }

    /// Accepts `count` jobs arriving this round, drawn from `next_job`
    /// only when dispatch can reach them.
    ///
    /// The count joins the back of the undrawn tail, stamped with the
    /// current round; then the tail is drawn, oldest round first, until
    /// the window holds the dispatch budget. The trajectory is the one
    /// [`Scheduler::submit`] of every job on arrival gives, as long as
    /// `next_job` yields the same jobs in the same order however late it
    /// is called (as `BatchWorkload::next_job` does): DESIGN §9 says
    /// why. Call it before every dispatch, with a zero count when
    /// nothing arrived, so the window is topped up after the last
    /// round's placements.
    pub fn arrive(&mut self, count: u64, mut next_job: impl FnMut() -> JobRequest) {
        if count > 0 {
            let count = usize::try_from(count).expect("arrival count fits in memory");
            self.undrawn.push_back((self.round, count));
            self.undrawn_len += count;
            self.count_arrivals(count);
        }
        while self.queue.len() < self.dispatch_budget {
            let Some(front) = self.undrawn.front_mut() else {
                break;
            };
            let round = front.0;
            let n = front.1.min(self.dispatch_budget - self.queue.len());
            front.1 -= n;
            if front.1 == 0 {
                self.undrawn.pop_front();
            }
            self.undrawn_len -= n;
            self.push_drawn((0..n).map(|_| (next_job(), round)));
        }
    }

    /// Appends drawn jobs to the window, keeping the floor. A push onto
    /// an empty window resets the floor.
    fn push_drawn(&mut self, jobs: impl Iterator<Item = (JobRequest, u64)>) {
        let mut floor = (self.queue.len() > 0).then_some(self.queue_floor);
        self.queue.extend(jobs.inspect(|(j, _)| {
            let d = j.resources;
            floor = Some(floor.map_or(d, |f| {
                Resources::new(f.cpu_millis.min(d.cpu_millis), f.memory_mb.min(d.memory_mb))
            }));
        }));
        if let Some(floor) = floor {
            self.queue_floor = floor;
        }
    }

    /// Counts `added` arrivals in the stats and the metric.
    fn count_arrivals(&mut self, added: usize) {
        self.stats.submitted += added as u64;
        self.submitted_counter.inc_by(added as u64);
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue_len());
    }

    /// Queue-wait statistics of placed jobs, in dispatch rounds (one
    /// round per simulation tick): 0 means placed at the first
    /// opportunity.
    pub fn wait_rounds(&self) -> &Summary {
        &self.wait_rounds
    }

    /// Number of queued (not yet placed) jobs, drawn or not.
    pub fn queue_len(&self) -> usize {
        self.queue.len() + self.undrawn_len
    }

    /// Accumulated counters.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// The `freeze` API (§2.1): advise that `server` get no new jobs.
    /// Running jobs are unaffected. Idempotent (repeat calls on an
    /// already-frozen server emit no telemetry, return
    /// [`FreezeStatus::AlreadyInState`] and tick `sched_redundant_ops`).
    pub fn freeze(&mut self, cluster: &mut Cluster, server: ServerId) -> FreezeStatus {
        if server.raw() as usize >= cluster.server_count() {
            self.redundant_counter.inc();
            return FreezeStatus::UnknownServer;
        }
        let mut s = cluster.server_mut(server);
        if s.is_frozen() {
            self.redundant_counter.inc();
            return FreezeStatus::AlreadyInState;
        }
        s.freeze();
        self.frozen_counter.inc();
        let (now, unset) = self.stamp();
        // One child span per freeze, under the controller tick that
        // decided it; the matching unfreeze closes the same span.
        let span = self.telemetry.child_span(self.tick_span);
        self.freeze_book.insert(
            server.raw(),
            FreezeRecord {
                span,
                at: (!unset).then_some(now),
            },
        );
        self.telemetry.emit_with(|| {
            let mut e = Event::new(now, Severity::Info, "scheduler", "freeze")
                .in_span(span)
                .with("server", server.raw());
            if unset {
                e = e.with("t_unset", true);
            }
            e
        });
        FreezeStatus::Applied
    }

    /// The `unfreeze` API: make `server` schedulable again. Idempotent,
    /// with the same status reporting as [`Scheduler::freeze`].
    pub fn unfreeze(&mut self, cluster: &mut Cluster, server: ServerId) -> FreezeStatus {
        if server.raw() as usize >= cluster.server_count() {
            self.redundant_counter.inc();
            return FreezeStatus::UnknownServer;
        }
        let mut s = cluster.server_mut(server);
        if !s.is_frozen() {
            self.redundant_counter.inc();
            return FreezeStatus::AlreadyInState;
        }
        s.unfreeze();
        self.unfrozen_counter.inc();
        let (now, unset) = self.stamp();
        let rec = self.freeze_book.remove(&server.raw());
        let span = rec.map_or(SpanCtx::NONE, |r| r.span);
        let held_mins = rec
            .and_then(|r| r.at)
            .map(|at| now.as_millis().saturating_sub(at.as_millis()) as f64 / 60_000.0);
        if let Some(h) = held_mins {
            self.freeze_hist.record(h);
        }
        self.telemetry.emit_with(|| {
            let mut e = Event::new(now, Severity::Info, "scheduler", "unfreeze")
                .in_span(span)
                .with("server", server.raw());
            if let Some(h) = held_mins {
                e = e.with("held_mins", h);
            }
            if unset {
                e = e.with("t_unset", true);
            }
            e
        });
        FreezeStatus::Applied
    }

    /// Records completions so throughput accounting stays in one place.
    pub fn on_completed(&mut self, count: u64) {
        self.stats.completed += count;
        self.completed_counter.inc_by(count);
    }

    /// One dispatch round: builds the candidate snapshot (unfrozen
    /// servers), then walks the queue placing jobs through the policy.
    /// Jobs that do not fit anywhere stay queued (the paper: "there are
    /// often jobs waiting in the scheduler queue").
    ///
    /// A job larger than every candidate's free resources on some
    /// dimension is requeued without calling the policy when the policy
    /// declares its miss cost ([`PlacementPolicy::unplaceable_draws`]);
    /// the RNG is jumped ahead by that cost, so the trajectory is the
    /// same as if `place` had run and missed. Once the bound does not
    /// fit even the queue's demand floor, no job left in the window can
    /// fit, so the walk ends there and the rest of the window's misses
    /// are charged in one jump.
    ///
    /// `row_headroom` optionally carries per-row normalized unused power
    /// for headroom-aware policies; pass `&[]` otherwise.
    pub fn dispatch(&mut self, cluster: &mut Cluster, row_headroom: &[f64]) -> DispatchOutcome {
        let _phase = self.profiler.phase(TickPhase::Schedule);
        let (now, unset) = self.stamp();
        let mut candidates = mem::take(&mut self.cand_scratch);
        candidates.clear();
        let mut by_row = mem::take(&mut self.by_row_scratch);
        by_row.iter_mut().for_each(Vec::clear);
        by_row.resize_with(cluster.row_count(), Vec::new);
        cluster.each_candidate(|id, row, free, utilization| {
            by_row[row.index()].push(candidates.len());
            candidates.push(Candidate {
                id,
                row,
                free,
                utilization,
            });
        });

        // Free resources only shrink within a round, so the bound stays
        // sound as jobs place. Shrinking a candidate that held a maximum
        // only marks it stale; it is recomputed after a miss, which
        // already costs a sweep of the candidates.
        let mut max_free = policy::max_free(&candidates);
        let mut max_free_stale = false;
        // Draws owed by skipped jobs, replayed before the next `place`.
        let mut pending_draws = 0u64;

        let mut placed = Vec::new();
        let budget = self.dispatch_budget.min(self.queue.len());
        let floor = self.queue_floor;
        // The examined window is compacted in place: jobs that stay
        // queued slide down over placed ones, so retries keep their order
        // ahead of the unexamined (over-budget) tail.
        let mut kept = 0;
        // Where the walk stopped: jobs in `end..budget` stay where they are.
        let mut end = budget;
        for i in 0..budget {
            let (job, submitted_round) = self.queue.get(i);
            let ctx = PlacementContext {
                candidates: &candidates,
                by_row: &by_row,
                row_headroom,
                max_free,
            };
            let skip = if max_free.fits(&job.resources) {
                None
            } else {
                self.policy.unplaceable_draws(&ctx)
            };
            let pick = match skip {
                // Every queued job dominates the floor, and no placement
                // (so no change to `max_free` or `ctx`) happens before
                // the next `place`: each job in `i..budget` would skip
                // here too, owing the same draws.
                Some(draws) if !max_free.fits(&floor) => {
                    pending_draws += draws * (budget - i) as u64;
                    end = i;
                    break;
                }
                Some(draws) => {
                    pending_draws += draws;
                    None
                }
                None => {
                    self.rng.advance(mem::take(&mut pending_draws));
                    let pick = self.policy.place(&job, &ctx, &mut self.rng);
                    if pick.is_none() && max_free_stale {
                        max_free = policy::max_free(&candidates);
                        max_free_stale = false;
                    }
                    // A stale pick fails to place and is requeued.
                    pick.filter(|&idx| {
                        cluster
                            .server_mut(candidates[idx].id)
                            .place(job.id, job.resources, job.duration)
                            .is_ok()
                    })
                }
            };
            let Some(idx) = pick else {
                // Until the first placement every job is already in place.
                if kept < i {
                    self.queue.set(kept, (job, submitted_round));
                }
                kept += 1;
                continue;
            };
            let target = candidates[idx].id;
            let s = cluster.server(target);
            let was = candidates[idx].free;
            max_free_stale |=
                was.cpu_millis == max_free.cpu_millis || was.memory_mb == max_free.memory_mb;
            candidates[idx].free = s.free();
            candidates[idx].utilization = s.utilization();
            self.stats.placed += 1;
            let waited = (self.round - submitted_round) as f64;
            self.wait_rounds.push(waited);
            self.wait_hist.record(waited);
            placed.push((job.id, target));
        }
        self.rng.advance(pending_draws);
        self.queue.remove_range(kept..end);
        self.cand_scratch = candidates;
        self.by_row_scratch = by_row;
        self.round += 1;
        self.placed_counter.inc_by(placed.len() as u64);
        let queued = self.queue_len();
        self.queue_gauge.set(queued as f64);
        self.telemetry.emit_with(|| {
            let mut e = Event::new(now, Severity::Debug, "scheduler", "dispatch")
                .in_span(self.tick_span)
                .with("placed", placed.len())
                .with("queued", queued)
                .with("examined", budget);
            if unset {
                e = e.with("t_unset", true);
            }
            e
        });
        DispatchOutcome { placed, queued }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.policy.name())
            .field("queued", &self.queue_len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RandomFit;
    use ampere_cluster::{ClusterSpec, RowId};
    use ampere_sim::SimDuration;
    use std::ops::Range;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn scheduler() -> Scheduler {
        Scheduler::new(Box::new(RandomFit::default()), 11)
    }

    fn request(id: u64, cores: u64, mins: u64) -> JobRequest {
        JobRequest {
            id: JobId::new(id),
            resources: Resources::cores_gb(cores, 2),
            duration: SimDuration::from_mins(mins),
        }
    }

    #[test]
    fn telemetry_counts_lifecycle_and_stamps_freeze_events() {
        use ampere_telemetry::{MetricKind, RingBufferSink};

        let (sink, events) = RingBufferSink::new(64);
        let tel = Telemetry::builder().sink(sink).build();
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = Scheduler::with_telemetry(Box::new(RandomFit::default()), 11, tel.clone());
        sched.set_clock(SimTime::from_mins(7));

        let target = ServerId::new(0);
        assert_eq!(sched.freeze(&mut cluster, target), FreezeStatus::Applied);
        // Idempotent: no second event, but the redundancy is reported.
        assert_eq!(
            sched.freeze(&mut cluster, target),
            FreezeStatus::AlreadyInState
        );
        sched.submit((0..5).map(|i| request(i, 2, 5)));
        sched.dispatch(&mut cluster, &[]);
        sched.unfreeze(&mut cluster, target);
        sched.on_completed(3);

        let evs = events.events();
        let freezes: Vec<_> = evs.iter().filter(|e| e.name == "freeze").collect();
        assert_eq!(freezes.len(), 1);
        assert_eq!(freezes[0].sim_time, SimTime::from_mins(7));
        assert_eq!(freezes[0].field("server").unwrap().as_u64(), Some(0));
        assert_eq!(evs.iter().filter(|e| e.name == "unfreeze").count(), 1);
        assert_eq!(evs.iter().filter(|e| e.name == "dispatch").count(), 1);

        let snap = tel.snapshot().unwrap();
        let count = |name| match snap.get(name, &[]).unwrap().kind {
            MetricKind::Counter(n) => n,
            ref other => panic!("unexpected kind {other:?}"),
        };
        assert_eq!(count("sched_jobs_submitted"), 5);
        assert_eq!(count("sched_jobs_placed"), 5);
        assert_eq!(count("sched_jobs_completed"), 3);
        assert_eq!(count("sched_servers_frozen"), 1);
        assert_eq!(count("sched_servers_unfrozen"), 1);
        assert_eq!(count("sched_redundant_ops"), 1);
    }

    #[test]
    fn freeze_status_reports_redundant_and_unknown_calls() {
        use ampere_telemetry::MetricKind;

        let tel = Telemetry::builder().build();
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = Scheduler::with_telemetry(Box::new(RandomFit::default()), 11, tel.clone());
        sched.set_clock(SimTime::from_mins(1));

        let s = ServerId::new(2);
        // Unfreeze of a never-frozen server is redundant, not an error.
        assert_eq!(
            sched.unfreeze(&mut cluster, s),
            FreezeStatus::AlreadyInState
        );
        assert_eq!(sched.freeze(&mut cluster, s), FreezeStatus::Applied);
        assert_eq!(sched.freeze(&mut cluster, s), FreezeStatus::AlreadyInState);
        assert_eq!(sched.unfreeze(&mut cluster, s), FreezeStatus::Applied);
        // A lost RPC retried against a decommissioned id must not panic.
        let ghost = ServerId::new(cluster.server_count() as u64 + 7);
        assert_eq!(
            sched.freeze(&mut cluster, ghost),
            FreezeStatus::UnknownServer
        );
        assert_eq!(
            sched.unfreeze(&mut cluster, ghost),
            FreezeStatus::UnknownServer
        );
        assert!(!cluster.server(s).is_frozen());

        let snap = tel.snapshot().unwrap();
        match snap.get("sched_redundant_ops", &[]).unwrap().kind {
            MetricKind::Counter(n) => assert_eq!(n, 4),
            ref other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn freeze_spans_link_to_the_tick_and_unfreeze_reports_hold_time() {
        use ampere_telemetry::RingBufferSink;

        let (sink, events) = RingBufferSink::new(64);
        let tel = Telemetry::builder().sink(sink).build();
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = Scheduler::with_telemetry(Box::new(RandomFit::default()), 11, tel.clone());

        let tick = tel.root_span();
        sched.set_clock(SimTime::from_mins(10));
        sched.set_tick_span(tick);
        sched.freeze(&mut cluster, ServerId::new(3));
        sched.dispatch(&mut cluster, &[]);
        sched.set_clock(SimTime::from_mins(25));
        sched.unfreeze(&mut cluster, ServerId::new(3));

        let evs = events.events();
        let freeze = evs.iter().find(|e| e.name == "freeze").unwrap();
        assert_eq!(freeze.span.trace, tick.trace);
        assert_eq!(freeze.span.parent, Some(tick.span));
        let dispatch = evs.iter().find(|e| e.name == "dispatch").unwrap();
        assert_eq!(dispatch.span, tick);
        let unfreeze = evs.iter().find(|e| e.name == "unfreeze").unwrap();
        // The unfreeze closes the same span the freeze opened and
        // reports how long the advice was in force.
        assert_eq!(unfreeze.span, freeze.span);
        assert_eq!(unfreeze.field("held_mins").unwrap().as_f64(), Some(15.0));
    }

    #[test]
    fn unset_clock_warns_once_and_marks_events() {
        use ampere_telemetry::RingBufferSink;

        let (sink, events) = RingBufferSink::new(64);
        let tel = Telemetry::builder().sink(sink).build();
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = Scheduler::with_telemetry(Box::new(RandomFit::default()), 11, tel);

        // No set_clock call: events must not pretend t=0 is real.
        sched.freeze(&mut cluster, ServerId::new(0));
        sched.freeze(&mut cluster, ServerId::new(1));

        let evs = events.events();
        let warns: Vec<_> = evs.iter().filter(|e| e.name == "clock_unset").collect();
        assert_eq!(warns.len(), 1, "warning must be one-shot");
        assert_eq!(warns[0].severity, Severity::Warn);
        for freeze in evs.iter().filter(|e| e.name == "freeze") {
            assert_eq!(freeze.sim_time, SimTime::ZERO);
            assert_eq!(
                freeze.field("t_unset"),
                Some(&ampere_telemetry::Value::Bool(true))
            );
        }

        // Once the clock is set the marker disappears.
        sched.set_clock(SimTime::from_mins(3));
        sched.unfreeze(&mut cluster, ServerId::new(0));
        let evs = events.events();
        let unfreeze = evs.iter().find(|e| e.name == "unfreeze").unwrap();
        assert_eq!(unfreeze.sim_time, SimTime::from_mins(3));
        assert!(unfreeze.field("t_unset").is_none());
        // Frozen-at time was unknown, so no hold duration is claimed.
        assert!(unfreeze.field("held_mins").is_none());
    }

    #[test]
    fn places_submitted_jobs() {
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = scheduler();
        sched.submit((0..10).map(|i| request(i, 4, 5)));
        let out = sched.dispatch(&mut cluster, &[]);
        assert_eq!(out.placed.len(), 10);
        assert_eq!(out.queued, 0);
        assert_eq!(sched.stats().placed, 10);
        assert_eq!(sched.stats().submitted, 10);
        let total_alloc: u64 = cluster.iter().map(|s| s.allocated().cpu_millis).sum();
        assert_eq!(total_alloc, 40_000);
    }

    #[test]
    fn frozen_servers_receive_no_jobs() {
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = scheduler();
        // Freeze all of row 0.
        let ids: Vec<ServerId> = cluster.row_server_ids(RowId::new(0)).collect();
        for id in &ids {
            sched.freeze(&mut cluster, *id);
        }
        sched.submit((0..40).map(|i| request(i, 2, 5)));
        let out = sched.dispatch(&mut cluster, &[]);
        assert_eq!(out.placed.len(), 40);
        for (_, server) in &out.placed {
            assert_eq!(cluster.server(*server).row(), RowId::new(1));
        }
        // Unfreeze and the row becomes eligible again.
        for id in &ids {
            sched.unfreeze(&mut cluster, *id);
        }
        sched.submit([request(100, 2, 5)]);
        sched.dispatch(&mut cluster, &[]);
    }

    #[test]
    fn oversize_jobs_wait_in_queue() {
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = scheduler();
        sched.submit([request(0, 33, 5)]); // Bigger than any server.
        let out = sched.dispatch(&mut cluster, &[]);
        assert!(out.placed.is_empty());
        assert_eq!(out.queued, 1);
        assert_eq!(sched.queue_len(), 1);
    }

    #[test]
    fn queue_drains_as_capacity_frees() {
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = scheduler();
        // Saturate: 16 servers x 32 cores = 512 cores; submit 20 x 32.
        sched.submit((0..20).map(|i| request(i, 32, 1)));
        let out = sched.dispatch(&mut cluster, &[]);
        assert_eq!(out.placed.len(), 16);
        assert_eq!(out.queued, 4);
        // After the 1-minute jobs finish, the rest place.
        let done = cluster.advance(SimDuration::from_mins(1));
        sched.on_completed(done.len() as u64);
        let out = sched.dispatch(&mut cluster, &[]);
        assert_eq!(out.placed.len(), 4);
        assert_eq!(sched.stats().completed, 16);
        assert_eq!(sched.stats().peak_queue, 20);
    }

    #[test]
    fn queue_wait_is_tracked_per_round() {
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = scheduler();
        // Saturate with 1-minute jobs, then submit one more: it waits
        // exactly one round.
        sched.submit((0..16).map(|i| request(i, 32, 1)));
        sched.dispatch(&mut cluster, &[]);
        assert_eq!(sched.wait_rounds().mean(), Some(0.0));
        sched.submit([request(99, 32, 1)]);
        sched.dispatch(&mut cluster, &[]); // Still full: waits.
        let done = cluster.advance(SimDuration::from_mins(1));
        sched.on_completed(done.len() as u64);
        sched.dispatch(&mut cluster, &[]); // Now it places.
                                           // 16 immediate placements + 1 that waited one full round.
        assert_eq!(sched.wait_rounds().count(), 17);
        assert_eq!(sched.wait_rounds().max(), Some(1.0));
    }

    #[test]
    fn all_frozen_means_nothing_places() {
        let mut cluster = Cluster::new(ClusterSpec::tiny());
        let mut sched = scheduler();
        let ids: Vec<ServerId> = (0..cluster.server_count() as u64)
            .map(ServerId::new)
            .collect();
        for id in ids {
            sched.freeze(&mut cluster, id);
        }
        sched.submit([request(0, 1, 1)]);
        let out = sched.dispatch(&mut cluster, &[]);
        assert!(out.placed.is_empty());
        assert_eq!(out.queued, 1);
    }

    /// `RandomFit` with the skip path disabled: `place` runs for every
    /// examined job, as it did before dispatch learned to skip.
    struct AlwaysPlace(RandomFit);

    impl PlacementPolicy for AlwaysPlace {
        fn name(&self) -> &'static str {
            "always-place"
        }

        fn place(
            &mut self,
            job: &JobRequest,
            ctx: &PlacementContext<'_>,
            rng: &mut SimRng,
        ) -> Option<usize> {
            self.0.place(job, ctx, rng)
        }
    }

    /// `RandomFit` that counts the jobs dispatch hands it one by one:
    /// every `place` call and every miss-cost query.
    struct Counted(RandomFit, Arc<AtomicU64>);

    impl PlacementPolicy for Counted {
        fn name(&self) -> &'static str {
            "counted"
        }

        fn place(
            &mut self,
            job: &JobRequest,
            ctx: &PlacementContext<'_>,
            rng: &mut SimRng,
        ) -> Option<usize> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.place(job, ctx, rng)
        }

        fn unplaceable_draws(&self, ctx: &PlacementContext<'_>) -> Option<u64> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.unplaceable_draws(ctx)
        }
    }

    /// One row of eight 32-core servers.
    fn one_row() -> ClusterSpec {
        ClusterSpec {
            rows: 1,
            racks_per_row: 2,
            servers_per_rack: 4,
            ..ClusterSpec::tiny()
        }
    }

    /// The skip path (`fast`) and the plain `place` path (`slow`) on twin
    /// clusters, dispatched in lockstep: every round must agree on
    /// placements, queue contents and order, RNG state and queue waits.
    struct Lockstep {
        fast: Scheduler,
        slow: Scheduler,
        fast_cluster: Cluster,
        slow_cluster: Cluster,
        /// Jobs the fast side's policy saw one by one.
        walked: Arc<AtomicU64>,
        /// Jobs examined (checked against the bound), summed over rounds.
        examined: u64,
    }

    impl Lockstep {
        fn new(spec: ClusterSpec, budget: usize) -> Self {
            let walked = Arc::new(AtomicU64::new(0));
            let policy = Counted(RandomFit::default(), Arc::clone(&walked));
            let mut fast = Scheduler::new(Box::new(policy), 11);
            let mut slow = Scheduler::new(Box::new(AlwaysPlace(RandomFit::default())), 11);
            fast.dispatch_budget = budget;
            slow.dispatch_budget = budget;
            Self {
                fast,
                slow,
                fast_cluster: Cluster::new(spec),
                slow_cluster: Cluster::new(spec),
                walked,
                examined: 0,
            }
        }

        fn submit(&mut self, jobs: &[JobRequest]) {
            self.fast.submit(jobs.iter().copied());
            self.slow.submit(jobs.iter().copied());
        }

        fn set_frozen(&mut self, id: ServerId, frozen: bool) {
            for (sched, cluster) in [
                (&mut self.fast, &mut self.fast_cluster),
                (&mut self.slow, &mut self.slow_cluster),
            ] {
                if frozen {
                    sched.freeze(cluster, id);
                } else {
                    sched.unfreeze(cluster, id);
                }
            }
        }

        /// One dispatch round on both sides, compared, then one simulated
        /// minute on both clusters.
        fn round(&mut self, round: usize) -> DispatchOutcome {
            self.examined += self.fast.dispatch_budget.min(self.fast.queue_len()) as u64;
            let a = self.fast.dispatch(&mut self.fast_cluster, &[]);
            let b = self.slow.dispatch(&mut self.slow_cluster, &[]);
            assert_eq!(a.placed, b.placed, "round {round}");
            assert_eq!(a.queued, b.queued, "round {round}");
            assert_eq!(self.fast.queue, self.slow.queue, "round {round}");
            assert_eq!(self.fast.rng, self.slow.rng, "round {round}");
            assert_eq!(
                format!("{:?}", self.fast.wait_rounds()),
                format!("{:?}", self.slow.wait_rounds()),
                "round {round}"
            );
            let floor = self.fast.queue_floor;
            assert!(
                self.fast
                    .queue
                    .iter()
                    .all(|(j, _)| j.resources.cpu_millis >= floor.cpu_millis
                        && j.resources.memory_mb >= floor.memory_mb),
                "round {round}: floor {floor:?} above a queued job"
            );
            for (sched, cluster) in [
                (&mut self.fast, &mut self.fast_cluster),
                (&mut self.slow, &mut self.slow_cluster),
            ] {
                let done = cluster.advance(SimDuration::from_mins(1));
                sched.on_completed(done.len() as u64);
            }
            a
        }

        /// Jobs handed to the policy one by one and jobs examined, since
        /// the last call. Without the one-step skip the two are equal.
        fn take_walk(&mut self) -> (u64, u64) {
            (
                self.walked.swap(0, Ordering::Relaxed),
                mem::take(&mut self.examined),
            )
        }
    }

    /// `n` jobs of `cores` whole cores, 1–16 GB and 2–7 minutes.
    fn batch(gen: &mut SimRng, next_id: &mut u64, n: u64, cores: Range<u64>) -> Vec<JobRequest> {
        (0..n)
            .map(|_| {
                *next_id += 1;
                JobRequest {
                    id: JobId::new(*next_id),
                    resources: Resources::cores_gb(
                        gen.gen_range(cores.clone()),
                        gen.gen_range(1..17u64),
                    ),
                    duration: SimDuration::from_mins(gen.gen_range(2..8u64)),
                }
            })
            .collect()
    }

    #[test]
    fn skipping_unplaceable_jobs_keeps_the_trajectory() {
        let spec = one_row();
        let mut pair = Lockstep::new(spec, 300);
        let mut gen = derive_stream(77, 1);
        let mut next_id = 0;
        for round in 0..30 {
            // A mixed-size backlog: many jobs fit an idle server, some
            // only when it is nearly empty, some never (over 32 cores).
            let batch: Vec<JobRequest> = (0..gen.gen_range(20..120u64))
                .map(|_| {
                    next_id += 1;
                    JobRequest {
                        id: JobId::new(next_id),
                        resources: Resources::new(
                            gen.gen_range(500..40_000u64),
                            gen.gen_range(256..140_000u64),
                        ),
                        duration: SimDuration::from_mins(gen.gen_range(1..6u64)),
                    }
                })
                .collect();
            pair.submit(&batch);
            let all_frozen = round == 17;
            for id in (0..8).map(ServerId::new) {
                let freeze = all_frozen || gen.gen_bool(0.25);
                pair.set_frozen(id, freeze);
            }
            pair.round(round);
        }
        // The backlog exceeds the budget and holds jobs no server can
        // ever fit, so the skip path ran every round.
        assert!(pair.fast.queue_len() > 300);
        assert!(pair.fast.stats().placed > 50);
        assert!(pair
            .fast
            .queue
            .iter()
            .any(|(j, _)| j.resources.cpu_millis > spec.capacity.cpu_millis));
    }

    /// The one-step skip against the plain path, at a budget below the
    /// backlog (the unexamined tail must keep its order) and one above
    /// it: rounds that end on a full row, the all-frozen round, a
    /// zero-demand job behind a saturated backlog (the floor drops to
    /// zero, so the walk must still reach and place it) and a queue
    /// drained to empty, then refilled with larger jobs (the floor
    /// resets upwards).
    #[test]
    fn one_step_skip_keeps_the_trajectory_at_the_floor_edges() {
        for budget in [40, 100_000] {
            let mut pair = Lockstep::new(one_row(), budget);
            let mut gen = derive_stream(78, 1);
            let mut next_id = 0;
            let mut round = 0;
            let mut placed = Vec::new();
            let servers: Vec<ServerId> = (0..8).map(ServerId::new).collect();

            // Jobs of 9–32 cores arriving faster than the row drains
            // them: most rounds fill every unfrozen server past the floor,
            // so after a stale-bound miss the bound falls below it.
            for _ in 0..12 {
                let n = gen.gen_range(15..35u64);
                pair.submit(&batch(&mut gen, &mut next_id, n, 9..33));
                for &id in &servers {
                    let freeze = gen.gen_bool(0.25);
                    pair.set_frozen(id, freeze);
                }
                placed.extend(pair.round(round).placed);
                round += 1;
            }
            assert!(pair.fast.queue_len() > 100, "budget {budget}");

            // No candidates at all: the bound is zero.
            for &id in &servers {
                pair.set_frozen(id, true);
            }
            assert!(pair.round(round).placed.is_empty());
            round += 1;
            for &id in &servers {
                pair.set_frozen(id, false);
            }
            let (walked, examined) = pair.take_walk();
            assert!(
                walked * 2 < examined,
                "budget {budget}: {walked} of {examined}"
            );

            // A zero-demand job behind the saturated backlog.
            let zero = JobRequest {
                id: JobId::new(u64::MAX),
                resources: Resources::ZERO,
                duration: SimDuration::from_mins(3),
            };
            let ahead = pair.fast.queue_len();
            pair.submit(&[zero]);
            assert_eq!(pair.fast.queue_floor, Resources::ZERO);
            let out = pair.round(round);
            round += 1;
            if ahead < budget {
                assert!(out.placed.iter().any(|&(id, _)| id == zero.id));
            }
            placed.extend(out.placed);

            // Drain to empty, then refill with larger jobs while the row
            // is still busy: the floor resets to the new jobs' minimum.
            while pair.fast.queue_len() > 0 {
                assert!(round < 500, "budget {budget}: queue never drained");
                placed.extend(pair.round(round).placed);
                round += 1;
            }
            assert!(placed.iter().any(|&(id, _)| id == zero.id));
            // Until the queue emptied the floor stayed zero: every
            // examined job was walked.
            let (walked, examined) = pair.take_walk();
            assert_eq!(walked, examined, "budget {budget}");
            let refill = batch(&mut gen, &mut next_id, 40, 20..33);
            pair.submit(&refill);
            let min = |f: fn(&Resources) -> u64| refill.iter().map(|j| f(&j.resources)).min();
            assert_eq!(
                Some(pair.fast.queue_floor.cpu_millis),
                min(|r| r.cpu_millis)
            );
            assert_eq!(Some(pair.fast.queue_floor.memory_mb), min(|r| r.memory_mb));
            for _ in 0..6 {
                pair.round(round);
                round += 1;
            }
            let (walked, examined) = pair.take_walk();
            assert!(
                walked * 2 < examined,
                "budget {budget}: {walked} of {examined}"
            );
        }
    }

    /// One `BatchWorkload` stream fed to two schedulers on twin
    /// clusters: `eager` submits each round's jobs as they arrive,
    /// `deferred` takes the round's count through `arrive` and draws
    /// jobs only when dispatch can reach them. The backlog passes the
    /// dispatch budget while every server is frozen, is retried against
    /// a quarter of the row that fills up, and falls back under the
    /// budget once every server thaws. Every round both sides agree on
    /// placements, backlog, counters, queue waits, events and metrics.
    #[test]
    fn drawing_arrivals_on_demand_keeps_the_trajectory() {
        use ampere_telemetry::{RingBufferHandle, RingBufferSink};
        use ampere_workload::generator::BurstConfig;
        use ampere_workload::{BatchWorkload, RateProfile};
        use std::panic::{self, AssertUnwindSafe};

        const BUDGET: usize = 120;
        // Every server frozen, then three in four.
        let frozen = |round: u64, id: ServerId| {
            (10..40).contains(&round) || (40..60).contains(&round) && !id.raw().is_multiple_of(4)
        };
        let spec = ClusterSpec {
            rows: 4,
            ..ClusterSpec::tiny()
        };
        struct Side {
            sched: Scheduler,
            cluster: Cluster,
            jobs: BatchWorkload,
            tel: Telemetry,
            events: RingBufferHandle,
        }
        let side = || {
            let (sink, events) = RingBufferSink::new(1 << 14);
            let tel = Telemetry::builder().sink(sink).build();
            let mut sched =
                Scheduler::with_telemetry(Box::new(RandomFit::default()), 11, tel.clone());
            sched.dispatch_budget = BUDGET;
            // No gang bursts: the frozen rounds alone build the backlog.
            let jobs = BatchWorkload::new(RateProfile::Constant { per_min: 40.0 }, 9, 0)
                .with_bursts(BurstConfig {
                    per_min: 0.0,
                    size: (1, 1),
                });
            Side {
                sched,
                cluster: Cluster::new(spec),
                jobs,
                tel,
                events,
            }
        };
        let (mut eager, mut deferred) = (side(), side());
        let servers: Vec<ServerId> = (0..eager.cluster.server_count() as u64)
            .map(ServerId::new)
            .collect();
        let (mut peak, mut tail_rounds, mut retry_rounds) = (0, 0, 0);
        for round in 0..120 {
            let now = SimTime::from_mins(round);
            for s in [&mut eager, &mut deferred] {
                s.sched.set_clock(now);
                for &id in &servers {
                    if frozen(round, id) {
                        s.sched.freeze(&mut s.cluster, id);
                    } else {
                        s.sched.unfreeze(&mut s.cluster, id);
                    }
                }
            }
            let jobs = eager.jobs.tick(now, SimDuration::MINUTE);
            eager.sched.submit(jobs);
            let count = deferred.jobs.arrivals(now, SimDuration::MINUTE);
            let Side { sched, jobs, .. } = &mut deferred;
            sched.arrive(count, || jobs.next_job());

            let tail = deferred.sched.undrawn_len > 0;
            if tail {
                tail_rounds += 1;
                assert!(deferred.sched.queue.len() <= BUDGET, "round {round}");
                // Explicit jobs would jump ahead of the undrawn tail.
                let sched = &mut deferred.sched;
                let jumped = panic::catch_unwind(AssertUnwindSafe(|| {
                    sched.submit([request(u64::MAX, 1, 1)]);
                }));
                assert!(jumped.is_err(), "round {round}");
            }
            let a = eager.sched.dispatch(&mut eager.cluster, &[]);
            let b = deferred.sched.dispatch(&mut deferred.cluster, &[]);
            assert_eq!(a.placed, b.placed, "round {round}");
            assert_eq!(a.queued, b.queued, "round {round}");
            assert_eq!(eager.sched.queue_len(), b.queued, "round {round}");
            assert_eq!(deferred.sched.queue_len(), b.queued, "round {round}");
            assert_eq!(eager.sched.stats(), deferred.sched.stats(), "round {round}");
            assert_eq!(
                format!("{:?}", eager.sched.wait_rounds()),
                format!("{:?}", deferred.sched.wait_rounds()),
                "round {round}"
            );
            assert_eq!(
                eager.events.events(),
                deferred.events.events(),
                "round {round}"
            );
            assert_eq!(
                eager.tel.snapshot(),
                deferred.tel.snapshot(),
                "round {round}"
            );
            peak = peak.max(b.queued);
            if tail && !b.placed.is_empty() && b.placed.len() < BUDGET {
                retry_rounds += 1;
            }
            for s in [&mut eager, &mut deferred] {
                let done = s.cluster.advance(SimDuration::from_mins(1));
                s.sched.on_completed(done.len() as u64);
            }
        }
        // The backlog went well past the budget, and back under it.
        assert!(peak > 5 * BUDGET, "peak {peak}");
        assert!(tail_rounds > 20, "{tail_rounds} rounds with a tail");
        // Some of those rounds placed part of the window and requeued
        // the rest.
        assert!(retry_rounds > 5, "{retry_rounds} rounds with retries");
        assert!(deferred.sched.queue_len() < BUDGET);
        assert_eq!(deferred.sched.undrawn_len, 0);
    }

    #[test]
    fn freezing_is_statistical_not_absolute() {
        // Freezing half of row 0 shifts load away proportionally but
        // does not forbid the row: §3.4's statistical effect.
        let mut cluster = Cluster::new(ClusterSpec::data_center(2));
        let mut sched = scheduler();
        let row0: Vec<ServerId> = cluster.row_server_ids(RowId::new(0)).collect();
        for id in row0.iter().take(row0.len() / 2) {
            sched.freeze(&mut cluster, *id);
        }
        sched.submit((0..3_000).map(|i| request(i, 1, 5)));
        let out = sched.dispatch(&mut cluster, &[]);
        let row0_jobs = out
            .placed
            .iter()
            .filter(|(_, s)| cluster.server(*s).row() == RowId::new(0))
            .count();
        let frac = row0_jobs as f64 / out.placed.len() as f64;
        // Candidates: 400 in row 0 vs 800 in row 1 → expect ~1/3.
        assert!((0.25..=0.42).contains(&frac), "frac = {frac}");
    }
}
