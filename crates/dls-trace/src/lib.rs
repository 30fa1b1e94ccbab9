//! Simulation observability: structured trace events with virtual
//! timestamps, a zero-cost-when-disabled recording handle, and exporters.
//!
//! The paper's diagnosis work is all observability: the Figure 9 FAC
//! outlier is explained only by inspecting *per-run* behaviour, and the
//! TSS-reproduction failure is attributed to contention effects invisible
//! in end-of-run aggregates. This crate supplies the missing substrate:
//!
//! * [`TraceEvent`] — one structured event (chunk assigned / started /
//!   completed / reassigned, message send / deliver / drop / delay, worker
//!   fail-stop, watchdog retries) stamped with the virtual time at which it
//!   happened;
//! * [`TraceSink`] — the consumer interface, with [`RingRecorder`] as the
//!   bounded in-memory implementation and [`ChunkRecorder`] keeping every
//!   chunk assignment and nothing else;
//! * [`Tracer`] — the cheap, cloneable handle threaded through the
//!   simulators. A disabled tracer ([`Tracer::disabled`]) is a `None`
//!   branch per hook: no event is constructed, no allocation happens, and
//!   every simulation output stays bit-identical to an untraced run;
//! * [`chrome`] — Chrome `trace_event` JSON export (one track per PE,
//!   loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev));
//! * [`timeline`] — per-PE busy-interval extraction and timeline CSV.
//!
//! Timestamps are `f64` seconds of virtual time, matching the second-based
//! quantities of every figure; the underlying DES clock is integer
//! nanoseconds, so conversions are exact for the spans simulated here.
//!
//! # Example
//!
//! ```
//! use dls_trace::{TraceEvent, TraceKind, Tracer};
//!
//! let (tracer, recorder) = Tracer::ring(1024);
//! tracer.emit(0.5, TraceKind::ChunkAssigned {
//!     worker: 0, id: 0, start: 0, count: 64, work_secs: 64.0,
//! });
//! assert_eq!(recorder.borrow().events().len(), 1);
//!
//! // A disabled tracer never constructs the event.
//! let off = Tracer::disabled();
//! off.emit_with(|| unreachable!("disabled tracers must not build events"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod event;
mod sink;
pub mod timeline;

pub use event::{ChunkAssignment, TraceEvent, TraceKind};
pub use sink::{ChunkRecorder, RingRecorder, TraceSink, Tracer};
