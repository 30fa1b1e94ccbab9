//! The event loop: actors, messages, timers, faults.

use crate::{QuadHeap, SimTime};
use dls_trace::{TraceKind, Tracer};

/// Identifies an actor within one [`Engine`].
pub type ActorId = usize;

/// Handle to a pending cancellable timer (see [`Ctx::set_cancellable_timer`]).
///
/// Ids are unique for the lifetime of one engine and never reused, so a
/// stale handle can never cancel a timer it does not own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// An event-driven simulated process.
///
/// Actors never block: each callback runs at one instant of virtual time and
/// schedules future work through the [`Ctx`]. This mirrors how SimGrid-MSG
/// processes were used by the paper (request → compute chunk → reply), minus
/// the cooperative-coroutine machinery MSG needed for C.
pub trait Actor<M> {
    /// Called once at simulation start (time zero), in actor-id order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Called when a message addressed to this actor is delivered.
    fn on_message(&mut self, from: ActorId, msg: M, ctx: &mut Ctx<'_, M>);

    /// Called when a timer set by this actor fires.
    fn on_timer(&mut self, _key: u64, _ctx: &mut Ctx<'_, M>) {}
}

/// A boxed actor is an actor, so [`Engine<M>`] (whose actor type defaults
/// to `Box<dyn Actor<M>>`) can hold actors of different types.
impl<M, T: Actor<M> + ?Sized> Actor<M> for Box<T> {
    #[inline]
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        (**self).on_start(ctx);
    }

    #[inline]
    fn on_message(&mut self, from: ActorId, msg: M, ctx: &mut Ctx<'_, M>) {
        (**self).on_message(from, msg, ctx);
    }

    #[inline]
    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, M>) {
        (**self).on_timer(key, ctx);
    }
}

/// Metadata describing one in-flight message, shown to the [`Interceptor`]
/// before the delivery event is enqueued.
///
/// The payload itself is *not* exposed: fault decisions must depend only on
/// topology (who talks to whom), timing and the interceptor's own seeded
/// state, which keeps the hook object-safe over any message type and keeps
/// fault plans deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryMeta {
    /// Sending actor.
    pub from: ActorId,
    /// Receiving actor.
    pub to: ActorId,
    /// Virtual time at which the send was issued.
    pub sent_at: SimTime,
    /// Virtual time at which the message would normally arrive.
    pub deliver_at: SimTime,
    /// Sequence number the delivery event will receive (unique, monotone).
    pub seq: u64,
}

/// An [`Interceptor`]'s decision for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver normally at `deliver_at`.
    Deliver,
    /// Silently discard the message (models a lossy link).
    Drop,
    /// Deliver late, at `deliver_at + delay` (models a latency spike).
    Delay(SimTime),
}

/// A pluggable hook consulted for every message send.
///
/// Installed via [`Engine::set_interceptor`]; `dls-faults` implements this
/// to realise loss, partition and latency-spike plans. The engine calls it
/// exactly once per send, inside [`Ctx::send`], so calls follow the
/// deterministic order in which actors issue sends and a seeded
/// interceptor yields bit-identical runs.
pub trait Interceptor {
    /// Decides the fate of one message.
    fn intercept(&mut self, meta: &DeliveryMeta) -> Verdict;
}

/// One pending event. Actor ids are stored as `u32` ([`Engine::spawn`]
/// refuses more actors) and a plain timer's id is [`PLAIN_TIMER`], so a
/// slab slot holding `Option<EventKind<M>>` stays small: 40 bytes for
/// msgsim's message type.
enum EventKind<M> {
    Deliver { from: u32, to: u32, msg: M },
    Timer { actor: u32, key: u64, id: u64 },
}

/// The `id` of a timer set by [`Ctx::set_timer`], which cannot be
/// cancelled. Cancellable ids count up from 0 and never reach it.
const PLAIN_TIMER: u64 = u64::MAX;

/// Low bits of a queue key's low word that hold the event's slab slot.
const SLOT_BITS: u32 = 24;

/// Most events one engine may hold pending at once (slots `0..MAX_PENDING`).
const MAX_PENDING: usize = 1 << SLOT_BITS;

/// Most events one run may schedule: `seq` fills the key's low word above
/// the slot.
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);

/// Queue key of one pending event: `time_ns << 64 | seq << 24 | slot`.
///
/// Ordering is by `(time, seq)` alone: `seq` is unique, so the slot bits
/// (the slab index, which is reused and carries no temporal meaning) never
/// decide a comparison. Carrying the slot in the key leaves the heap node
/// at the key's 16 bytes.
///
/// # Panics
///
/// When `seq` does not fit above the slot bits (2^40 events in one run).
#[inline(always)]
fn event_key(time: SimTime, seq: u64, slot: u32) -> u128 {
    assert!(seq < MAX_SEQ, "more than 2^40 events scheduled in one run");
    (time.as_nanos() as u128) << 64 | (seq << SLOT_BITS | u64::from(slot)) as u128
}

/// The slab slot packed into `key` by [`event_key`].
#[inline(always)]
fn key_slot(key: u128) -> u32 {
    key as u32 & (MAX_PENDING as u32 - 1)
}

/// The slot a slab of `len` slots appends next.
///
/// # Panics
///
/// When the slot would not fit in [`SLOT_BITS`] (2^24 pending events).
#[inline]
fn next_slot(len: usize) -> u32 {
    assert!(len < MAX_PENDING, "more than 2^24 events pending at once");
    len as u32
}

/// Free-list slab holding the payloads of pending events.
///
/// `insert` prefers recycled slots, so steady-state runs stop allocating
/// once the high-water mark of simultaneously pending events is reached.
struct EventSlab<M> {
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> EventSlab<M> {
    fn new() -> Self {
        EventSlab { slots: Vec::new(), free: Vec::new() }
    }

    /// Stores `kind` and returns its slot. Inlined into every push, so the
    /// caller's event is written straight into the slot rather than built
    /// on the stack and copied.
    #[inline(always)]
    fn insert(&mut self, kind: EventKind<M>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = next_slot(self.slots.len());
                self.slots.push(Some(kind));
                slot
            }
        }
    }

    /// Removes and returns the payload at `slot`, recycling the slot.
    #[inline]
    fn take(&mut self, slot: u32) -> EventKind<M> {
        let kind = self.slots[slot as usize].take().expect("slot must be occupied");
        self.free.push(slot);
        kind
    }

    fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.free.reserve(additional);
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// Outstanding cancellations, stored as a sorted vec of monotone timer ids.
///
/// The common case is an empty set (no cancellation issued, or every
/// cancelled timer already reaped), which the engine's pop loop detects
/// with a single `is_empty` check before any lookup. Entries are removed
/// lazily when the matching timer event reaches the head of the queue, so
/// the set never outgrows the number of cancelled-but-still-queued timers.
#[derive(Default)]
struct CancelSet {
    ids: Vec<u64>,
    peak: usize,
}

impl CancelSet {
    #[inline]
    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn insert(&mut self, id: u64) {
        if let Err(pos) = self.ids.binary_search(&id) {
            self.ids.insert(pos, id);
            self.peak = self.peak.max(self.ids.len());
        }
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.peak = 0;
    }

    /// Removes `id` if present, reporting whether it was.
    fn remove(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// Everything in an [`Engine`] except the actors: the part a callback's
/// [`Ctx`] borrows, so every `Ctx` call takes effect on the spot.
struct Core<M> {
    dead: Vec<bool>,
    /// Pending events keyed by [`event_key`], whose low bits name the slab
    /// slot of the event's [`EventKind`]: only 16-byte keys move in sifts.
    heap: QuadHeap<()>,
    slab: EventSlab<M>,
    now: SimTime,
    seq: u64,
    next_timer_id: u64,
    cancelled: CancelSet,
    interceptor: Option<Box<dyn Interceptor>>,
    tracer: Tracer,
    stats: EngineStats,
    /// The queue's root is the event being dispatched. Its payload has
    /// left the slab; the callback's first push overwrites the root (one
    /// sift instead of a pop's and a push's), and if nothing is pushed the
    /// loop pops the root after the callback.
    head_consumed: bool,
    stop: bool,
}

impl<M> Core<M> {
    fn new(actors: usize) -> Self {
        Core {
            dead: Vec::with_capacity(actors),
            heap: QuadHeap::new(),
            slab: EventSlab::new(),
            now: SimTime::ZERO,
            seq: 0,
            next_timer_id: 0,
            cancelled: CancelSet::default(),
            interceptor: None,
            tracer: Tracer::disabled(),
            stats: EngineStats::default(),
            head_consumed: false,
            stop: false,
        }
    }

    /// Returns to the state of [`Core::new`], keeping every allocation.
    /// The exhaustive pattern makes a new field a compile error here until
    /// it is reset too.
    fn reset(&mut self) {
        let Core {
            dead,
            heap,
            slab,
            now,
            seq,
            next_timer_id,
            cancelled,
            interceptor,
            tracer,
            stats,
            head_consumed,
            stop,
        } = self;
        dead.clear();
        heap.clear();
        slab.clear();
        *now = SimTime::ZERO;
        *seq = 0;
        *next_timer_id = 0;
        cancelled.clear();
        *interceptor = None;
        *tracer = Tracer::disabled();
        *stats = EngineStats::default();
        *head_consumed = false;
        *stop = false;
    }

    /// Queues `kind` at `time`. Inlined, with [`Core::send`] and
    /// [`EventSlab::insert`], into each call site, so the event goes from
    /// the caller's arguments straight into its slab slot.
    #[inline(always)]
    fn push_event(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.slab.insert(kind);
        let key = event_key(time, seq, slot);
        if self.head_consumed {
            // Equal to popping the consumed head and then pushing: keys are
            // unique, so the pop order and every later length are the same.
            self.head_consumed = false;
            self.heap.replace_top(key, ());
        } else {
            self.heap.push(key, ());
        }
        self.stats.max_queue = self.stats.max_queue.max(self.heap.len());
    }

    #[inline(always)]
    fn send(&mut self, from: ActorId, to: ActorId, delay: SimTime, msg: M) {
        let at = self.now.saturating_add(delay);
        let verdict = match self.interceptor.as_mut() {
            None => Verdict::Deliver,
            Some(hook) => hook.intercept(&DeliveryMeta {
                from,
                to,
                sent_at: self.now,
                deliver_at: at,
                seq: self.seq,
            }),
        };
        match verdict {
            Verdict::Deliver => {
                self.tracer.emit_with(|| dls_trace::TraceEvent {
                    at: self.now.as_secs_f64(),
                    kind: TraceKind::MsgSent {
                        from,
                        to,
                        deliver_at: at.as_secs_f64(),
                        seq: self.seq,
                    },
                });
                self.push_event(at, EventKind::Deliver { from: from as u32, to: to as u32, msg });
            }
            Verdict::Drop => {
                self.tracer.emit(self.now.as_secs_f64(), TraceKind::MsgDropped { from, to });
                self.stats.dropped_sends += 1;
            }
            Verdict::Delay(extra) => {
                self.tracer.emit(
                    self.now.as_secs_f64(),
                    TraceKind::MsgDelayed { from, to, extra: extra.as_secs_f64() },
                );
                self.stats.delayed_sends += 1;
                let kind = EventKind::Deliver { from: from as u32, to: to as u32, msg };
                self.push_event(at.saturating_add(extra), kind);
            }
        }
    }
}

/// The per-callback handle through which an actor interacts with the engine.
///
/// It borrows the engine's queue and bookkeeping for the duration of one
/// callback, and every call takes effect immediately, in issue order: a
/// send is intercepted, traced and queued before `send` returns. Nothing
/// is buffered until the callback ends.
pub struct Ctx<'a, M> {
    core: &'a mut Core<M>,
    self_id: ActorId,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This actor's id.
    #[inline]
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Schedules `msg` for delivery to `to` after `delay`.
    ///
    /// The delay is the caller-computed transfer time (the network model
    /// lives in `dls-platform`, not in the engine).
    #[inline]
    pub fn send(&mut self, to: ActorId, delay: SimTime, msg: M) {
        assert!(to < self.core.dead.len(), "send to unknown actor {to}");
        self.core.send(self.self_id, to, delay, msg);
    }

    /// Schedules an `on_timer(key)` callback on this actor after `delay`.
    #[inline]
    pub fn set_timer(&mut self, delay: SimTime, key: u64) {
        let at = self.core.now.saturating_add(delay);
        let actor = self.self_id as u32;
        self.core.push_event(at, EventKind::Timer { actor, key, id: PLAIN_TIMER });
    }

    /// Like [`Ctx::set_timer`], but returns a handle that can later be
    /// passed to [`Ctx::cancel_timer`]. Used for watchdogs that are armed
    /// per outstanding chunk and disarmed when the result arrives.
    pub fn set_cancellable_timer(&mut self, delay: SimTime, key: u64) -> TimerId {
        let id = self.core.next_timer_id;
        self.core.next_timer_id += 1;
        let at = self.core.now.saturating_add(delay);
        self.core.push_event(at, EventKind::Timer { actor: self.self_id as u32, key, id });
        TimerId(id)
    }

    /// Cancels a pending cancellable timer.
    ///
    /// Cancelling a timer that already fired (or was already cancelled) is
    /// a no-op — ids are never reused, so no later timer can be affected.
    pub fn cancel_timer(&mut self, id: TimerId) {
        let core = &mut *self.core;
        core.cancelled.insert(id.0);
        core.stats.max_cancelled = core.stats.max_cancelled.max(core.cancelled.peak);
    }

    /// Fail-stops `victim` at the current instant.
    ///
    /// The victim's state is left in place (it can be inspected after the
    /// run) but it receives no further callbacks: queued and future
    /// deliveries and timers addressed to it become dead letters, counted
    /// in [`EngineStats::dead_letters`]. Killing an already-dead actor is
    /// a no-op; an actor may kill itself (its current callback still runs
    /// to the end).
    pub fn kill(&mut self, victim: ActorId) {
        assert!(victim < self.core.dead.len(), "kill of unknown actor {victim}");
        self.core.tracer.emit(self.core.now.as_secs_f64(), TraceKind::ActorKilled { victim });
        self.core.dead[victim] = true;
    }

    /// Halts the simulation after the current callback returns; queued
    /// events are discarded.
    pub fn stop(&mut self) {
        self.core.stop = true;
    }
}

/// Counters describing a finished run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Number of events dispatched.
    pub events: u64,
    /// Largest number of simultaneously pending events.
    pub max_queue: usize,
    /// Virtual time at which the run ended.
    pub end_time: SimTime,
    /// Whether the run ended via [`Ctx::stop`] (vs. queue exhaustion).
    pub stopped: bool,
    /// Messages discarded by the interceptor ([`Verdict::Drop`]).
    pub dropped_sends: u64,
    /// Messages postponed by the interceptor ([`Verdict::Delay`]).
    pub delayed_sends: u64,
    /// Deliveries and timers discarded because the target was killed.
    pub dead_letters: u64,
    /// Largest number of simultaneously outstanding timer cancellations
    /// (cancelled timers whose queue entry had not yet been reaped).
    pub max_cancelled: usize,
}

/// The discrete-event engine: owns actors and the event queue.
///
/// `A` is the actor type. The default, `Box<dyn Actor<M>>`, holds actors
/// of any types ([`Engine::new`], [`Engine::add_actor`]); a simulator whose
/// actors fit one type (such as an `enum` over its roles) names it and
/// builds the engine with [`Engine::with_capacity`] and [`Engine::spawn`],
/// so each callback is a direct, inlinable call instead of a vtable one.
pub struct Engine<M, A = Box<dyn Actor<M>>> {
    actors: Vec<A>,
    core: Core<M>,
}

impl<M> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Engine<M> {
    /// Creates an empty engine at time zero, for boxed actors.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Registers a boxed actor, returning its id (ids are dense, start at
    /// 0).
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        self.spawn(actor)
    }
}

impl<M, A: Actor<M>> Engine<M, A> {
    /// Creates an empty engine at time zero with room for `actors` actors.
    pub fn with_capacity(actors: usize) -> Self {
        Engine { actors: Vec::with_capacity(actors), core: Core::new(actors) }
    }

    /// Registers an actor, returning its id (ids are dense, start at 0).
    ///
    /// # Panics
    ///
    /// Past 2^32 actors: queued events store actor ids as `u32`.
    pub fn spawn(&mut self, actor: A) -> ActorId {
        let id = self.actors.len();
        assert!(u32::try_from(id).is_ok(), "more than 2^32 actors");
        self.actors.push(actor);
        self.core.dead.push(false);
        id
    }

    /// Installs the delivery interceptor consulted for every send.
    ///
    /// Without one, every message is delivered (the verdict is always
    /// [`Verdict::Deliver`]) and the event stream is byte-identical to an
    /// engine built before this hook existed.
    pub fn set_interceptor(&mut self, interceptor: Box<dyn Interceptor>) {
        self.core.interceptor = Some(interceptor);
    }

    /// Attaches a trace sink through its [`Tracer`] handle.
    ///
    /// The engine then emits message-level events (send, deliver, drop,
    /// delay), timer firings, kills and dead letters. A disabled tracer
    /// (the default) costs one branch per hook and constructs nothing, so
    /// untraced runs are bit-identical to an engine built before this hook
    /// existed.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.core.tracer = tracer;
    }

    /// Empties the engine for another run: drops the actors, the pending
    /// events, the interceptor and the tracer, and rewinds the clock, the
    /// sequence and timer counters and the statistics to zero. The actor,
    /// queue and slab allocations are kept, so a simulator that runs many
    /// short simulations on one engine stops allocating them per run.
    ///
    /// A reset engine behaves exactly as a new one: event order depends
    /// only on `(time, seq)`, never on which slab slot an event occupies.
    pub fn reset(&mut self) {
        self.actors.clear();
        self.core.reset();
    }

    /// Removes the actors, in id order, keeping the allocation. After
    /// [`Engine::run_in_place`] they hold their end-of-run state.
    pub fn drain_actors(&mut self) -> std::vec::Drain<'_, A> {
        self.actors.drain(..)
    }

    /// Runs the simulation to completion (empty queue or [`Ctx::stop`]).
    ///
    /// Returns the actors and the final statistics.
    pub fn run(mut self) -> (Vec<A>, EngineStats) {
        let stats = self.run_in_place();
        (self.actors, stats)
    }

    /// [`Engine::run`], leaving the actors (see [`Engine::drain_actors`])
    /// and the engine's storage in place for [`Engine::reset`]. Reset and
    /// spawn again before running another simulation.
    ///
    /// Each dispatched event costs one queue sift: the head is peeked, not
    /// popped, and the callback's first push replaces it in place. The
    /// queue therefore passes through the same contents, in the same
    /// order, as a pop-then-push loop.
    pub fn run_in_place(&mut self) -> EngineStats {
        let Engine { actors, core } = self;
        // Reserve for the common steady state (one in-flight event per actor
        // plus slack) so the first ramp-up does not reallocate repeatedly.
        let cap = 2 * actors.len() + 16;
        core.heap.reserve(cap);
        core.slab.reserve(cap);
        // Start phase: give every actor a chance to seed the queue.
        for (id, actor) in actors.iter_mut().enumerate() {
            actor.on_start(&mut Ctx { core, self_id: id });
            if core.stop {
                core.stats.stopped = true;
                core.stats.end_time = core.now;
                return core.stats;
            }
        }

        while let Some((key, ())) = core.heap.peek() {
            let time = SimTime::from_nanos((key >> 64) as u64);
            debug_assert!(time >= core.now, "time must be monotone");
            let kind = core.slab.take(key_slot(key));
            // Cancelled timers and traffic to killed actors are popped
            // without advancing the clock or the event counter — a fault-free
            // plan leaves both sets empty, so that path is untouched. The
            // `is_empty` check keeps the common no-cancellation case free of
            // any per-timer lookup.
            let dead_target = match kind {
                EventKind::Timer { id, .. }
                    if id != PLAIN_TIMER
                        && !core.cancelled.is_empty()
                        && core.cancelled.remove(id) =>
                {
                    core.heap.pop();
                    continue;
                }
                EventKind::Timer { actor: to, .. } | EventKind::Deliver { to, .. } => {
                    let to = to as usize;
                    core.dead[to].then_some(to)
                }
            };
            if let Some(to) = dead_target {
                core.tracer.emit_with(|| dls_trace::TraceEvent {
                    at: time.as_secs_f64(),
                    kind: TraceKind::DeadLetter { to },
                });
                core.stats.dead_letters += 1;
                core.heap.pop();
                continue;
            }
            core.now = time;
            core.stats.events += 1;
            core.head_consumed = true;
            match kind {
                EventKind::Deliver { from, to, msg } => {
                    let (from, to) = (from as usize, to as usize);
                    core.tracer.emit_with(|| dls_trace::TraceEvent {
                        at: time.as_secs_f64(),
                        kind: TraceKind::MsgDelivered { from, to },
                    });
                    actors[to].on_message(from, msg, &mut Ctx { core, self_id: to });
                }
                EventKind::Timer { actor, key, id: _ } => {
                    let actor = actor as usize;
                    core.tracer.emit_with(|| dls_trace::TraceEvent {
                        at: time.as_secs_f64(),
                        kind: TraceKind::TimerFired { actor, key },
                    });
                    actors[actor].on_timer(key, &mut Ctx { core, self_id: actor });
                }
            }
            if core.head_consumed {
                // The callback pushed nothing: retire the head now.
                core.head_consumed = false;
                core.heap.pop();
            }
            if core.stop {
                core.stats.stopped = true;
                break;
            }
        }
        core.stats.end_time = core.now;
        core.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A log shared between a test and the actors it runs: the engine
    /// consumes the boxed actors, the test keeps the other handle.
    type Log<T> = Rc<RefCell<Vec<T>>>;

    /// Ping-pong: actor 0 sends to 1, 1 replies, N rounds, fixed latency.
    struct Pinger {
        peer: ActorId,
        rounds: u32,
        latency: SimTime,
        done_at: Option<SimTime>,
    }

    impl Actor<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.self_id() == 0 {
                ctx.send(self.peer, self.latency, self.rounds);
            }
        }
        fn on_message(&mut self, from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            if msg == 0 {
                self.done_at = Some(ctx.now());
                ctx.stop();
            } else {
                ctx.send(from, self.latency, msg - 1);
            }
        }
    }

    #[test]
    fn ping_pong_timing_is_exact() {
        let lat = SimTime::from_nanos(500);
        let mut eng = Engine::new();
        let a = Box::new(Pinger { peer: 1, rounds: 10, latency: lat, done_at: None });
        let b = Box::new(Pinger { peer: 0, rounds: 10, latency: lat, done_at: None });
        eng.add_actor(a);
        eng.add_actor(b);
        let (_, stats) = eng.run();
        // 11 message hops: initial send with payload 10, then 10 replies
        // decrementing to 0.
        assert_eq!(stats.events, 11);
        assert_eq!(stats.end_time, SimTime::from_nanos(500 * 11));
        assert!(stats.stopped);
    }

    /// Events at the identical timestamp are dispatched in scheduling order.
    struct Recorder {
        log: Log<(SimTime, u32)>,
    }
    impl Actor<u32> for Recorder {
        fn on_message(&mut self, _from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.log.borrow_mut().push((ctx.now(), msg));
        }
    }
    struct Burst;
    impl Actor<u32> for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for i in 0..16 {
                ctx.send(1, SimTime::from_nanos(1000), i);
            }
        }
        fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {}
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let log = Log::default();
        let mut eng = Engine::new();
        eng.add_actor(Box::new(Burst));
        eng.add_actor(Box::new(Recorder { log: log.clone() }));
        let (_, stats) = eng.run();
        assert_eq!(stats.events, 16);
        let at = SimTime::from_nanos(1000);
        assert_eq!(*log.borrow(), (0..16).map(|i| (at, i)).collect::<Vec<_>>());
    }

    /// Timers fire at the right time with the right key.
    struct TimerUser {
        fired: Log<(u64, SimTime)>,
    }
    impl Actor<()> for TimerUser {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(SimTime::from_nanos(30), 3);
            ctx.set_timer(SimTime::from_nanos(10), 1);
            ctx.set_timer(SimTime::from_nanos(20), 2);
        }
        fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Ctx<'_, ()>) {}
        fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, ()>) {
            self.fired.borrow_mut().push((key, ctx.now()));
        }
    }

    #[test]
    fn timers_fire_in_time_order() {
        let fired = Log::default();
        let mut eng = Engine::new();
        eng.add_actor(Box::new(TimerUser { fired: fired.clone() }));
        let (_, stats) = eng.run();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.end_time, SimTime::from_nanos(30));
        let ns = SimTime::from_nanos;
        assert_eq!(*fired.borrow(), [(1, ns(10)), (2, ns(20)), (3, ns(30))]);
    }

    #[test]
    fn empty_engine_terminates_immediately() {
        let eng: Engine<()> = Engine::new();
        let (_, stats) = eng.run();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.end_time, SimTime::ZERO);
        assert!(!stats.stopped);
    }

    #[test]
    #[should_panic(expected = "unknown actor")]
    fn send_to_unknown_actor_panics() {
        struct Bad;
        impl Actor<()> for Bad {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.send(7, SimTime::ZERO, ());
            }
            fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Ctx<'_, ()>) {}
        }
        let mut eng = Engine::new();
        eng.add_actor(Box::new(Bad));
        let _ = eng.run();
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let lat = SimTime::from_nanos(123);
            let mut eng = Engine::new();
            eng.add_actor(Box::new(Pinger { peer: 1, rounds: 100, latency: lat, done_at: None }));
            eng.add_actor(Box::new(Pinger { peer: 0, rounds: 100, latency: lat, done_at: None }));
            let (_, stats) = eng.run();
            (stats.events, stats.end_time)
        };
        assert_eq!(run(), run());
    }

    /// A cancelled timer never fires; an uncancelled sibling still does.
    struct CancelUser {
        fired: Log<(u64, SimTime)>,
        handle: Option<TimerId>,
    }
    impl Actor<()> for CancelUser {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.handle = Some(ctx.set_cancellable_timer(SimTime::from_nanos(50), 1));
            ctx.set_cancellable_timer(SimTime::from_nanos(80), 2);
            ctx.set_timer(SimTime::from_nanos(10), 0);
        }
        fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Ctx<'_, ()>) {}
        fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, ()>) {
            self.fired.borrow_mut().push((key, ctx.now()));
            if key == 0 {
                ctx.cancel_timer(self.handle.take().expect("armed in on_start"));
            }
        }
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let fired = Log::default();
        let mut eng = Engine::new();
        eng.add_actor(Box::new(CancelUser { fired: fired.clone(), handle: None }));
        let (_, stats) = eng.run();
        // Key 1's timer was cancelled at t=10ns; keys 0 and 2 fire.
        assert_eq!(stats.events, 2);
        assert_eq!(stats.end_time, SimTime::from_nanos(80));
        let ns = SimTime::from_nanos;
        assert_eq!(*fired.borrow(), [(0, ns(10)), (2, ns(80))]);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        struct LateCancel {
            handle: Option<TimerId>,
        }
        impl Actor<()> for LateCancel {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.handle = Some(ctx.set_cancellable_timer(SimTime::from_nanos(10), 1));
                ctx.set_timer(SimTime::from_nanos(20), 2);
            }
            fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, ()>) {
                if key == 2 {
                    // Timer 1 already fired; cancelling its handle is inert.
                    ctx.cancel_timer(self.handle.take().expect("armed"));
                }
            }
        }
        let mut eng = Engine::new();
        eng.add_actor(Box::new(LateCancel { handle: None }));
        let (_, stats) = eng.run();
        assert_eq!(stats.events, 2);
    }

    /// Killing an actor turns its queued and future traffic into dead letters.
    struct Assassin {
        victim: ActorId,
        log: Log<(SimTime, &'static str)>,
    }
    impl Actor<u32> for Assassin {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            // Two messages racing the kill: one lands before, one after.
            ctx.send(self.victim, SimTime::from_nanos(5), 1);
            ctx.send(self.victim, SimTime::from_nanos(50), 2);
            ctx.set_timer(SimTime::from_nanos(20), 0);
        }
        fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {}
        fn on_timer(&mut self, _key: u64, ctx: &mut Ctx<'_, u32>) {
            self.log.borrow_mut().push((ctx.now(), "kill"));
            ctx.kill(self.victim);
        }
    }
    struct Victim {
        log: Log<(SimTime, &'static str)>,
    }
    impl Actor<u32> for Victim {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            // A timer that would fire after the kill.
            ctx.set_timer(SimTime::from_nanos(100), 9);
        }
        fn on_message(&mut self, _f: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.log.borrow_mut().push((ctx.now(), if msg == 1 { "got 1" } else { "got 2" }));
        }
        fn on_timer(&mut self, _key: u64, _ctx: &mut Ctx<'_, u32>) {
            panic!("dead actor's timer must not fire");
        }
    }

    #[test]
    fn killed_actor_receives_nothing_further() {
        let log = Log::default();
        let mut eng = Engine::new();
        eng.add_actor(Box::new(Assassin { victim: 1, log: log.clone() }));
        eng.add_actor(Box::new(Victim { log: log.clone() }));
        let (_, stats) = eng.run();
        // Events: first delivery (t=5), kill timer (t=20). The second
        // delivery and the victim's own timer become dead letters.
        assert_eq!(stats.events, 2);
        assert_eq!(stats.dead_letters, 2);
        assert!(!stats.stopped);
        let ns = SimTime::from_nanos;
        assert_eq!(*log.borrow(), [(ns(5), "got 1"), (ns(20), "kill")]);
    }

    /// An interceptor that drops every Nth message and delays the rest.
    struct EveryOther {
        n: u64,
        extra: SimTime,
    }
    impl Interceptor for EveryOther {
        fn intercept(&mut self, _meta: &DeliveryMeta) -> Verdict {
            self.n += 1;
            if self.n.is_multiple_of(2) {
                Verdict::Drop
            } else {
                Verdict::Delay(self.extra)
            }
        }
    }

    #[test]
    fn interceptor_drops_and_delays() {
        let mut eng = Engine::new();
        eng.add_actor(Box::new(Burst));
        eng.add_actor(Box::new(Recorder { log: Log::default() }));
        eng.set_interceptor(Box::new(EveryOther { n: 0, extra: SimTime::from_nanos(7) }));
        let (_, stats) = eng.run();
        // 16 sends: 8 dropped, 8 delayed-but-delivered.
        assert_eq!(stats.dropped_sends, 8);
        assert_eq!(stats.delayed_sends, 8);
        assert_eq!(stats.events, 8);
        assert_eq!(stats.end_time, SimTime::from_nanos(1007));
    }

    /// No interceptor and a pass-through interceptor produce identical runs.
    struct PassThrough;
    impl Interceptor for PassThrough {
        fn intercept(&mut self, _meta: &DeliveryMeta) -> Verdict {
            Verdict::Deliver
        }
    }

    /// A send with no interceptor installed must be indistinguishable from
    /// one under a pass-through hook — identical stats *and* an identical
    /// trace stream (same events, same order, same seq numbers).
    #[test]
    fn pass_through_interceptor_is_invisible() {
        let run = |hook: bool| {
            let lat = SimTime::from_nanos(123);
            let (tracer, recorder) = Tracer::ring(8192);
            let mut eng = Engine::new();
            eng.add_actor(Box::new(Pinger { peer: 1, rounds: 50, latency: lat, done_at: None }));
            eng.add_actor(Box::new(Pinger { peer: 0, rounds: 50, latency: lat, done_at: None }));
            eng.set_tracer(tracer);
            if hook {
                eng.set_interceptor(Box::new(PassThrough));
            }
            let (_, stats) = eng.run();
            let rec = recorder.borrow();
            assert_eq!(rec.evicted(), 0);
            (stats, rec.to_vec())
        };
        assert_eq!(run(false), run(true));
    }

    /// Timer-churn stress: 10k set/cancel cycles may not grow the cancelled
    /// bookkeeping — every cancellation must be reaped when its (earlier)
    /// watchdog event pops, so the peak stays at one batch.
    #[test]
    fn timer_churn_keeps_cancel_bookkeeping_bounded() {
        struct Churner {
            cycles: u32,
        }
        impl Actor<()> for Churner {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimTime::from_nanos(10), 0);
            }
            fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, ()>) {
                assert_eq!(key, 0, "a cancelled watchdog fired");
                if self.cycles == 0 {
                    return;
                }
                self.cycles -= 1;
                for k in 0..8 {
                    let id = ctx.set_cancellable_timer(SimTime::from_nanos(5), 100 + k);
                    ctx.cancel_timer(id);
                }
                ctx.set_timer(SimTime::from_nanos(10), 0);
            }
        }
        let run = || {
            let mut eng = Engine::new();
            eng.add_actor(Box::new(Churner { cycles: 10_000 }));
            let (_, stats) = eng.run();
            stats
        };
        let stats = run();
        // 80k cancellations total, but never more than one 8-timer batch
        // outstanding: the set is reaped, not monotone.
        assert_eq!(stats.max_cancelled, 8);
        // Only the driving tick timers count as dispatched events.
        assert_eq!(stats.events, 10_001);
        // And the structure is deterministic across identical runs.
        assert_eq!(stats, run());
    }

    /// A slab slot holds one `Option<EventKind<M>>`: at most 40 bytes for
    /// a 32-byte message whose tag has spare values (msgsim's `Msg`, pinned
    /// at 32 bytes in that crate, is one). The queue's `QuadHeap<()>` node
    /// is pinned at 16 bytes in `heap.rs`.
    #[test]
    fn queue_entries_stay_compact() {
        assert_eq!(std::mem::size_of::<Option<[u64; 3]>>(), 32);
        assert!(std::mem::size_of::<Option<EventKind<Option<[u64; 3]>>>>() <= 40);
        assert_eq!(std::mem::size_of::<Option<EventKind<u32>>>(), 24);
    }

    #[test]
    fn packed_key_round_trips_at_its_bounds() {
        let t = SimTime::from_nanos(u64::MAX);
        let slot = (MAX_PENDING - 1) as u32;
        let key = event_key(t, MAX_SEQ - 1, slot);
        assert_eq!((key >> 64) as u64, u64::MAX);
        assert_eq!(key_slot(key), slot);
        assert_eq!(key as u64 >> SLOT_BITS, MAX_SEQ - 1);
        // The sequence orders before the slot: a later seq in slot 0 is
        // still the larger key.
        assert!(event_key(t, 1, 0) > event_key(t, 0, slot));
        assert_eq!(next_slot(MAX_PENDING - 1), slot);
    }

    #[test]
    #[should_panic(expected = "more than 2^40 events scheduled in one run")]
    fn sequence_past_the_key_bound_panics() {
        event_key(SimTime::ZERO, MAX_SEQ, 0);
    }

    #[test]
    #[should_panic(expected = "more than 2^24 events pending at once")]
    fn slot_past_the_key_bound_panics() {
        next_slot(MAX_PENDING);
    }

    /// A reset engine runs exactly as a new one, whatever the previous run
    /// left behind: queued events after a stop, an unreaped cancellation,
    /// a kill, an interceptor, a tracer and advanced counters. The later
    /// runs see the sequence numbers (in their trace, and through an
    /// interceptor keyed on them) and arm a cancellable timer, whose id a
    /// stale cancellation would match.
    #[test]
    fn reset_engine_runs_like_a_new_one() {
        /// Cancels one timer, then stops at 25 ns with a cancelled timer,
        /// a dead letter and a dead actor's timer still queued.
        struct Leaver;
        impl Actor<u32> for Leaver {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                let id = ctx.set_cancellable_timer(SimTime::from_nanos(30), 1);
                ctx.cancel_timer(id);
                ctx.set_timer(SimTime::from_nanos(25), 0);
            }
            fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {}
            fn on_timer(&mut self, _key: u64, ctx: &mut Ctx<'_, u32>) {
                ctx.stop();
            }
        }
        /// Arms one cancellable timer and lets it fire.
        struct Ticker;
        impl Actor<u32> for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.set_cancellable_timer(SimTime::from_nanos(5), 1);
            }
            fn on_message(&mut self, _f: ActorId, _m: u32, _c: &mut Ctx<'_, u32>) {}
        }
        /// Delays every send whose sequence number is a multiple of 5.
        struct SeqDelay;
        impl Interceptor for SeqDelay {
            fn intercept(&mut self, meta: &DeliveryMeta) -> Verdict {
                if meta.seq.is_multiple_of(5) {
                    Verdict::Delay(SimTime::from_nanos(1))
                } else {
                    Verdict::Deliver
                }
            }
        }
        let later_run = |eng: &mut Engine<u32>, hook: bool| {
            let (tracer, recorder) = Tracer::ring(256);
            eng.add_actor(Box::new(Burst));
            eng.add_actor(Box::new(Recorder { log: Log::default() }));
            // Actor 2, the one the first run killed.
            eng.add_actor(Box::new(Ticker));
            if hook {
                eng.set_interceptor(Box::new(SeqDelay));
            }
            eng.set_tracer(tracer);
            let stats = eng.run_in_place();
            let trace = recorder.borrow().to_vec();
            (stats, trace)
        };

        let (tracer, recorder) = Tracer::ring(64);
        let mut eng = Engine::new();
        eng.add_actor(Box::new(Leaver));
        eng.add_actor(Box::new(Assassin { victim: 2, log: Log::default() }));
        eng.add_actor(Box::new(Victim { log: Log::default() }));
        eng.set_interceptor(Box::new(PassThrough));
        eng.set_tracer(tracer);
        let first = eng.run_in_place();
        assert!(first.stopped && first.max_cancelled == 1 && first.end_time.as_nanos() == 25);
        let traced = recorder.borrow().to_vec().len();
        for hook in [false, true, false] {
            eng.reset();
            let reused = later_run(&mut eng, hook);
            assert_eq!(reused, later_run(&mut Engine::new(), hook));
            // 16 sends (seq 0..16) and the timer; sends 0, 5, 10 and 15 delayed.
            assert_eq!((reused.0.events, reused.0.delayed_sends), (17, if hook { 4 } else { 0 }));
        }
        assert_eq!(recorder.borrow().to_vec().len(), traced, "reset detaches the tracer");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The engine's queue pops exactly what a reference `BinaryHeap`
        /// ordered by `(time, seq)` pops, over random push/pop
        /// interleavings, and every popped key still names its slot. Times
        /// come from a tiny range, so most pushes tie on time and only
        /// `seq` separates them; slots are drawn independently of `seq`,
        /// so they never decide the order.
        #[test]
        fn event_queue_matches_a_reference_binary_heap(
            ops in proptest::collection::vec(0u64..12 << SLOT_BITS, 1..400),
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut heap = QuadHeap::new();
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let unpack = |key: u128| ((key >> 64) as u64, key_slot(key));
            for draw in ops {
                // The high bits pick the op: 0..8 pushes at time `op % 4`,
                // 8..12 pops. The low bits are the slot.
                let (op, slot) = (draw >> SLOT_BITS, draw as u32 & (MAX_PENDING as u32 - 1));
                if op < 8 {
                    let time = SimTime::from_nanos(op % 4);
                    heap.push(event_key(time, seq, slot), ());
                    reference.push(Reverse((time, seq, slot)));
                    seq += 1;
                } else {
                    let got = heap.pop().map(|(key, ())| unpack(key));
                    let want = reference.pop().map(|Reverse((t, _, slot))| (t.as_nanos(), slot));
                    proptest::prop_assert_eq!(got, want);
                }
                proptest::prop_assert_eq!(heap.len(), reference.len());
            }
            while let Some(Reverse((t, _, slot))) = reference.pop() {
                let got = heap.pop().map(|(key, ())| unpack(key));
                proptest::prop_assert_eq!(got, Some((t.as_nanos(), slot)));
            }
            proptest::prop_assert!(heap.pop().is_none());
        }
    }
}
