//! Telemetry-aware task fan-out: capture on workers, replay in order.

use crate::pool::{Task, WorkerPool};

use ampere_telemetry::fanin;

/// Runs every task on the pool with telemetry capture + replay:
///
/// - the parent handle is resolved **on the calling thread** (so an
///   enclosing capture override is honoured — fan-out nests);
/// - each task runs under a private capture pipeline, so components it
///   constructs report there instead of racing on the parent;
/// - after all tasks finish, the captured buffers replay into the parent
///   **in task order**, reserving span-id blocks as they go.
///
/// The merged event stream, span ids and metrics are therefore identical
/// to running the tasks serially — at any worker count. With a disabled
/// parent, tasks run in its (disabled) scope and nothing replays.
pub fn run_captured<'a, T: Send + 'a>(pool: &WorkerPool, tasks: Vec<Task<'a, T>>) -> Vec<T> {
    let parent = ampere_telemetry::global();
    let wrapped: Vec<Task<'a, (T, Option<fanin::Captured>)>> = tasks
        .into_iter()
        .map(|task| {
            let parent = parent.clone();
            Box::new(move || fanin::capture_into(&parent, task)) as Task<'a, _>
        })
        .collect();
    pool.run(wrapped)
        .into_iter()
        .map(|(out, captured)| {
            if let Some(captured) = captured {
                fanin::replay_into(&parent, captured);
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampere_sim::SimTime;
    use ampere_telemetry::{Event, RingBufferSink, Severity, Telemetry};

    fn toy_task(tel: &Telemetry, id: usize) -> usize {
        let root = tel.root_span();
        let child = tel.child_span(root);
        tel.counter("tasks", &[]).inc();
        tel.emit(
            Event::new(SimTime::from_mins(id as u64), Severity::Info, "toy", "run")
                .with("id", id as u64)
                .in_span(child),
        );
        id * 2
    }

    fn run_with(workers: usize) -> (Vec<String>, Vec<usize>, u64) {
        let (sink, events) = RingBufferSink::new(256);
        let parent = Telemetry::builder().sink(sink).build();
        let capture = ampere_telemetry::Capture::new_under(&parent).unwrap();
        // Drive the fan-out *under* the capture override so the test
        // exercises the calling-thread parent resolution.
        let out = capture.with(|| {
            let pool = WorkerPool::new(workers);
            let tasks: Vec<Task<'_, usize>> = (0..12)
                .map(|i| {
                    Box::new(move || toy_task(&ampere_telemetry::global(), i)) as Task<'_, usize>
                })
                .collect();
            run_captured(&pool, tasks)
        });
        ampere_telemetry::fanin::replay_into(&parent, capture.finish());
        let lines = events.events().iter().map(|e| e.to_json()).collect();
        let ticks = match parent.snapshot().unwrap().get("tasks", &[]).unwrap().kind {
            ampere_telemetry::MetricKind::Counter(v) => v,
            _ => unreachable!(),
        };
        (lines, out, ticks)
    }

    #[test]
    fn byte_identical_at_any_worker_count() {
        let serial = run_with(1);
        for workers in [2, 4, 8] {
            assert_eq!(serial, run_with(workers), "workers={workers} diverged");
        }
        assert_eq!(serial.1, (0..12).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(serial.2, 12);
        // Span ids are contiguous from 1 in task order: task i uses
        // root 2i+1, child 2i+2.
        assert!(serial.0[3].contains("\"trace\":7,\"span\":8,\"parent\":7"));
    }

    #[test]
    fn disabled_parent_still_runs_tasks() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<'_, bool>> = (0..4)
            .map(|_| Box::new(|| ampere_telemetry::global().enabled()) as Task<'_, bool>)
            .collect();
        let enabled = Telemetry::disabled().scope(|| run_captured(&pool, tasks));
        // Every task, on whichever worker, sees the caller's scope.
        assert_eq!(enabled, vec![false; 4]);
    }
}
