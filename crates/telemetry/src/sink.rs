//! Event sinks: where emitted [`Event`]s go.
//!
//! A [`Telemetry`](crate::Telemetry) pipeline fans each event out to
//! every attached sink. Sinks are deliberately dumb: a sink only formats
//! or stores.

use crate::event::Event;
use crate::registry::Counter;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

thread_local! {
    /// Scratch buffer reused by [`JsonlSink`]: serializing an event
    /// sits on the flush path, and a fresh `String` per event is
    /// real allocator traffic at hyperscale event rates.
    static JSON_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Receives every event the pipeline emits.
///
/// Sinks sit on the event-emit path and must never panic: a sink that
/// can fail (file I/O) drops the event and reports through the error
/// counter bound by [`EventSink::bind_error_counter`] instead.
pub trait EventSink: Send {
    /// Handles one event.
    fn record(&mut self, event: &Event);

    /// Flushes buffered output (no-op by default).
    fn flush(&mut self) {}

    /// Hands the sink the pipeline's `telemetry_sink_errors` counter
    /// (called once by `TelemetryBuilder::build`). Sinks that cannot
    /// fail ignore it.
    fn bind_error_counter(&mut self, _errors: Counter) {}
}

/// Keeps the last `capacity` events in memory, for tests and live
/// inspection. Constructed in a pair with a read handle that stays valid
/// after the sink moves into the pipeline.
pub struct RingBufferSink {
    capacity: usize,
    shared: Arc<Mutex<VecDeque<Event>>>,
}

/// Read side of a [`RingBufferSink`].
#[derive(Clone)]
pub struct RingBufferHandle {
    shared: Arc<Mutex<VecDeque<Event>>>,
}

impl RingBufferSink {
    /// Creates a sink holding at most `capacity` events plus its reader.
    pub fn new(capacity: usize) -> (Self, RingBufferHandle) {
        assert!(capacity > 0, "ring buffer needs capacity");
        let shared = Arc::new(Mutex::new(VecDeque::with_capacity(capacity)));
        (
            RingBufferSink {
                capacity,
                shared: Arc::clone(&shared),
            },
            RingBufferHandle { shared },
        )
    }
}

impl EventSink for RingBufferSink {
    fn record(&mut self, event: &Event) {
        let mut buf = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

impl RingBufferHandle {
    /// A copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Writes one JSON line per event to any [`Write`] target.
///
/// I/O errors degrade gracefully: the event is dropped, the pipeline's
/// `telemetry_sink_errors` counter is incremented, and the emit path
/// never panics (a full disk must not take the simulation down).
pub struct JsonlSink<W: Write + Send> {
    out: BufWriter<W>,
    errors: Counter,
}

impl JsonlSink<File> {
    /// Creates (truncates) `path` and streams events to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: BufWriter::new(out),
            errors: Counter::noop(),
        }
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        // The scratch buffer is cleared, not shrunk, so steady state
        // allocates nothing.
        let ok = JSON_SCRATCH.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            event.write_json(&mut buf);
            writeln!(self.out, "{buf}").is_ok()
        });
        if !ok {
            self.errors.inc();
        }
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.errors.inc();
        }
    }

    fn bind_error_counter(&mut self, errors: Counter) {
        self.errors = errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Severity;
    use ampere_sim::SimTime;

    fn ev(n: u64) -> Event {
        Event::new(SimTime::from_mins(n), Severity::Info, "test", "e").with("n", n)
    }

    #[test]
    fn ring_buffer_keeps_latest() {
        let (mut sink, handle) = RingBufferSink::new(3);
        for n in 0..5 {
            sink.record(&ev(n));
        }
        let ns: Vec<u64> = handle
            .events()
            .iter()
            .map(|e| e.field("n").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(ns, vec![2, 3, 4]);
        assert_eq!(handle.len(), 3);
    }

    #[test]
    fn ring_buffer_evicts_oldest_first_across_capacity_boundary() {
        // Fill exactly to capacity: nothing evicted yet.
        let (mut sink, handle) = RingBufferSink::new(4);
        for n in 0..4 {
            sink.record(&ev(n));
        }
        assert_eq!(handle.len(), 4);
        let first = |h: &RingBufferHandle| h.events()[0].field("n").unwrap().as_u64().unwrap();
        assert_eq!(first(&handle), 0, "no eviction at exactly capacity");
        // Each overflow evicts exactly the oldest event, in order.
        for n in 4..7 {
            sink.record(&ev(n));
            assert_eq!(handle.len(), 4, "capacity is a hard bound");
            assert_eq!(first(&handle), n - 3, "oldest-first eviction");
        }
        let ns: Vec<u64> = handle
            .events()
            .iter()
            .map(|e| e.field("n").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(ns, vec![3, 4, 5, 6]);
    }

    #[test]
    fn jsonl_sink_drops_events_and_counts_errors_on_io_failure() {
        use crate::{MetricKind, Severity, Telemetry};

        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
        }

        // BufWriter only hits the device when its buffer fills or on
        // flush, so emit enough bytes to force real write attempts.
        let tel = Telemetry::builder()
            .sink(JsonlSink::new(FailingWriter))
            .build();
        for n in 0..10_000 {
            tel.emit(
                Event::new(
                    ampere_sim::SimTime::from_mins(n),
                    Severity::Info,
                    "test",
                    "e",
                )
                .with("n", n),
            );
        }
        tel.flush(); // Must not panic.
        let snap = tel.snapshot().unwrap();
        let errors = match snap.get("telemetry_sink_errors", &[]).unwrap().kind {
            MetricKind::Counter(n) => n,
            ref other => panic!("unexpected kind {other:?}"),
        };
        assert!(errors > 0, "I/O failures were not counted");
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(1));
        sink.record(&ev(2));
        sink.flush();
        let text = String::from_utf8(sink.out.into_inner().unwrap()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            Event::parse_json(line).expect("line parses back");
        }
    }
}
