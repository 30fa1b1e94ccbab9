//! Event consumers and the handle that feeds them.

use crate::{ChunkAssignment, TraceEvent};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A consumer of trace events.
///
/// Implementations must be passive observers: recording an event may not
/// influence the simulation in any way (the bit-identical-outputs guarantee
/// is enforced by tests at the workspace root).
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, ev: TraceEvent);
}

/// A bounded in-memory recorder: keeps the most recent `capacity` events
/// and counts how many older ones were evicted.
///
/// Bounded so that tracing a 524,288-task SS run (one million-plus events)
/// cannot exhaust memory by accident; size the capacity to the scenario
/// when the full record matters.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    evicted: u64,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` events (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be at least 1");
        RingRecorder { capacity, events: VecDeque::with_capacity(capacity.min(4096)), evicted: 0 }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// The retained events as a contiguous vector, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }

    /// Number of events evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total events ever recorded (retained + evicted).
    pub fn total(&self) -> u64 {
        self.evicted + self.events.len() as u64
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(ev);
    }
}

/// An unbounded recorder of chunk assignments only: every
/// [`TraceKind::ChunkAssigned`](crate::TraceKind::ChunkAssigned) event, in
/// assignment order. It holds one entry per scheduling operation and
/// nothing else, so unlike a [`RingRecorder`] it never loses the early
/// chunks of a long run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkRecorder {
    chunks: Vec<ChunkAssignment>,
}

impl ChunkRecorder {
    /// The recorded assignments, in assignment order.
    pub fn chunks(&self) -> &[ChunkAssignment] {
        &self.chunks
    }
}

impl TraceSink for ChunkRecorder {
    fn record(&mut self, ev: TraceEvent) {
        if let Some(chunk) = ev.chunk_assignment() {
            self.chunks.push(chunk);
        }
    }
}

/// The cheap, cloneable handle the simulators carry.
///
/// A disabled tracer holds no sink: every hook reduces to one `Option`
/// branch, no event is constructed, and nothing allocates — the zero-cost
/// path that keeps untraced runs bit-identical. Clones share the same sink,
/// so the engine and every actor of one run feed a single recorder.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

impl Tracer {
    /// The no-op tracer (also the `Default`).
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// A tracer feeding the given sink.
    pub fn new(sink: Rc<RefCell<dyn TraceSink>>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Convenience: a tracer feeding a fresh [`RingRecorder`], returning
    /// both so the caller can read the record after the run.
    pub fn ring(capacity: usize) -> (Self, Rc<RefCell<RingRecorder>>) {
        let recorder = Rc::new(RefCell::new(RingRecorder::new(capacity)));
        (Tracer::new(Rc::clone(&recorder) as Rc<RefCell<dyn TraceSink>>), recorder)
    }

    /// Convenience: a tracer feeding a fresh [`ChunkRecorder`], returning
    /// both so the caller can read the chunk stream after the run.
    pub fn chunks() -> (Self, Rc<RefCell<ChunkRecorder>>) {
        let recorder = Rc::new(RefCell::new(ChunkRecorder::default()));
        (Tracer::new(Rc::clone(&recorder) as Rc<RefCell<dyn TraceSink>>), recorder)
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records `kind` at virtual time `at` (no-op when disabled).
    ///
    /// `#[inline]` so the disabled check — one branch on a local `Option` —
    /// folds into callers in other crates; without it every engine event
    /// pays a real call (and eager argument construction) just to discover
    /// tracing is off.
    #[inline]
    pub fn emit(&self, at: f64, kind: crate::TraceKind) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(TraceEvent { at, kind });
        }
    }

    /// Records the event produced by `f`, calling `f` only when enabled —
    /// use when building the event itself costs something.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(f());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceKind;

    fn ev(at: f64) -> TraceEvent {
        TraceEvent { at, kind: TraceKind::WorkerRetry { worker: 0 } }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = RingRecorder::new(3);
        for i in 0..5 {
            r.record(ev(i as f64));
        }
        assert_eq!(r.evicted(), 2);
        assert_eq!(r.total(), 5);
        let kept: Vec<f64> = r.events().iter().map(|e| e.at).collect();
        assert_eq!(kept, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        RingRecorder::new(0);
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit_with(|| panic!("must not be called"));
        t.emit(1.0, TraceKind::WorkerRetry { worker: 0 });
    }

    #[test]
    fn chunk_recorder_keeps_only_assignments() {
        let (t, rec) = Tracer::chunks();
        t.emit(
            1.0,
            TraceKind::ChunkAssigned { worker: 2, id: 0, start: 8, count: 4, work_secs: 4.0 },
        );
        t.emit(1.5, TraceKind::WorkerRetry { worker: 0 });
        t.emit(2.0, TraceKind::ChunkCompleted { worker: 2, id: 0, count: 4 });
        let chunk = ChunkAssignment { at: 1.0, worker: 2, start: 8, count: 4 };
        assert_eq!(rec.borrow().chunks(), [chunk]);
    }

    #[test]
    fn clones_share_the_sink() {
        let (t, rec) = Tracer::ring(16);
        let t2 = t.clone();
        t.emit(1.0, TraceKind::WorkerRetry { worker: 0 });
        t2.emit(2.0, TraceKind::WorkerRetry { worker: 1 });
        assert_eq!(rec.borrow().events().len(), 2);
    }
}
