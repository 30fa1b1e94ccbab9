//! A deterministic discrete-event simulation (DES) engine.
//!
//! This is the workspace's substitute for the SimGrid simulation kernel: a
//! virtual clock, a priority queue of timestamped events, and an actor model
//! for event-driven processes (the master and workers of `dls-msgsim`).
//! Its priority queue, [`QuadHeap`], is shared with the direct replica in
//! `dls-hagerup`, whose PE ready queue is the same structure.
//!
//! Design points:
//!
//! * **Integer virtual time.** [`SimTime`] is a `u64` count of nanoseconds.
//!   Events compare exactly — no floating-point ordering hazards inside the
//!   heap — while conversions to/from `f64` seconds happen only at the API
//!   boundary. One nanosecond resolution spans ~584 simulated years, far
//!   beyond any experiment here (largest makespan ≈ 2.6·10⁵ s).
//! * **Total determinism.** Ties in time are broken by a monotonically
//!   increasing sequence number, so two runs of the same scenario produce
//!   identical schedules, event orders and statistics.
//! * **One packed key per event.** The queue is a 4-ary min-heap
//!   ([`QuadHeap`]) over 16-byte keys, `time_ns << 64 | seq << 24 | slot`:
//!   they order by `(time, seq)`, and the low bits name the slab slot that
//!   holds the event's payload, so a node is the key alone. Sibling
//!   selection is branch-free.
//! * **One sift per event.** A callback's [`Ctx`] borrows the queue, so
//!   every send and timer is queued the moment it is issued, and the
//!   event being dispatched stays at the root until the callback's first
//!   push overwrites it ([`QuadHeap::replace_top`]) — the same queue, in
//!   the same order, as popping it first.
//! * **Storage that outlives a run.** [`Engine::reset`] empties an engine
//!   but keeps its actor, queue and slab allocations, and
//!   [`Engine::run_in_place`] runs it without consuming it, so a simulator
//!   running many short simulations allocates that storage once.
//! * **Boxed or typed actors.** [`Engine<M>`] holds `Box<dyn Actor<M>>`;
//!   `Engine<M, A>` holds one actor type `A` (say, an `enum` over a
//!   simulator's roles) and dispatches without a vtable.
//! * **Chunk-level granularity.** Actors schedule one event per message or
//!   completion, never per task, keeping the event count proportional to the
//!   number of scheduling operations (important at n = 524,288 × 1,000 runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod heap;
mod time;

pub use engine::{
    Actor, ActorId, Ctx, DeliveryMeta, Engine, EngineStats, Interceptor, TimerId, Verdict,
};
pub use heap::QuadHeap;
pub use time::SimTime;
