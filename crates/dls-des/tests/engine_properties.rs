//! Property tests for the event engine's ordering guarantees, and for the
//! engine loop against a plain pop-then-push reference model.

use dls_des::{
    Actor, ActorId, Ctx, DeliveryMeta, Engine, EngineStats, Interceptor, SimTime, TimerId, Verdict,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::rc::Rc;

/// Schedules an arbitrary set of timers on start, then records the
/// (time, key) order in which they fire into a log the test also holds.
struct Scheduler {
    delays: Vec<u64>,
    fired: Rc<RefCell<Vec<(SimTime, u64)>>>,
}

impl Actor<()> for Scheduler {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for (key, &d) in self.delays.iter().enumerate() {
            ctx.set_timer(SimTime::from_nanos(d), key as u64);
        }
    }
    fn on_message(&mut self, _f: ActorId, _m: (), _c: &mut Ctx<'_, ()>) {}
    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, ()>) {
        self.fired.borrow_mut().push((ctx.now(), key));
    }
}

/// A forwarding chain: actor i sends to i+1 with a per-hop delay.
struct Chain {
    next: Option<ActorId>,
    delay: u64,
    received_at: Option<SimTime>,
}

impl Actor<u64> for Chain {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.self_id() == 0 {
            if let Some(n) = self.next {
                ctx.send(n, SimTime::from_nanos(self.delay), 1);
            }
        }
    }
    fn on_message(&mut self, _f: ActorId, hop: u64, ctx: &mut Ctx<'_, u64>) {
        self.received_at = Some(ctx.now());
        if let Some(n) = self.next {
            ctx.send(n, SimTime::from_nanos(self.delay), hop + 1);
        }
    }
}

proptest! {
    /// Timers fire in non-decreasing time order, ties in scheduling order,
    /// and every timer fires exactly once. Delays come from a small range,
    /// so most timers share their firing time with others.
    #[test]
    fn timers_fire_sorted(delays in proptest::collection::vec(0u64..8, 1..64)) {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut eng = Engine::new();
        eng.add_actor(Box::new(Scheduler { delays: delays.clone(), fired: fired.clone() }));
        let (_, stats) = eng.run();
        prop_assert_eq!(stats.events, delays.len() as u64);
        // The exact expected sequence: a stable sort by delay keeps the
        // scheduling (key) order among equal delays.
        let mut want: Vec<(SimTime, u64)> = delays
            .iter()
            .enumerate()
            .map(|(key, &d)| (SimTime::from_nanos(d), key as u64))
            .collect();
        want.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(&*fired.borrow(), &want);
        let max = delays.iter().copied().max().unwrap();
        prop_assert_eq!(stats.end_time, SimTime::from_nanos(max));
    }

    /// A forwarding chain accumulates exactly the sum of hop delays.
    #[test]
    fn chain_latency_accumulates(
        hops in 1usize..50,
        delay in 1u64..10_000,
    ) {
        let mut eng = Engine::new();
        for i in 0..hops + 1 {
            let next = if i < hops { Some(i + 1) } else { None };
            eng.add_actor(Box::new(Chain { next, delay, received_at: None }));
        }
        let (_, stats) = eng.run();
        prop_assert_eq!(stats.events, hops as u64);
        prop_assert_eq!(stats.end_time, SimTime::from_nanos(delay * hops as u64));
    }

    /// SimTime seconds round trip within a nanosecond for the simulation's
    /// value range.
    #[test]
    fn simtime_round_trip(secs in 0.0f64..1e9) {
        let t = SimTime::from_secs_f64(secs);
        prop_assert!((t.as_secs_f64() - secs).abs() <= 1e-9 * secs.max(1.0));
    }

    /// Saturating arithmetic never panics and stays ordered.
    #[test]
    fn simtime_saturating_ops(a in any::<u64>(), b in any::<u64>()) {
        let x = SimTime::from_nanos(a);
        let y = SimTime::from_nanos(b);
        let sum = x.saturating_add(y);
        prop_assert!(sum >= x && sum >= y);
        let diff = x.saturating_sub(y);
        prop_assert!(diff <= x);
    }
}

/// One step of a random actor program.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Send to actor `to % actors` (possibly itself, possibly dead).
    Send {
        to: usize,
        delay: u64,
    },
    Timer {
        delay: u64,
    },
    Cancellable {
        delay: u64,
    },
    /// Cancel the oldest handle this actor holds; the timer may already
    /// have fired or been cancelled.
    CancelOldest,
    /// Kill actor `victim % actors` (possibly the caller itself).
    Kill {
        victim: usize,
    },
    Stop,
}

/// Draws one [`Op`]: mostly sends and timers, some cancellations, and the
/// occasional kill or stop. Delays 0..4 ns make ties and delay-0 pushes
/// (an event at the current instant) common.
struct AnyOp;

impl Strategy for AnyOp {
    type Value = Op;
    fn generate(&self, rng: &mut TestRng) -> Op {
        let target = rng.below(8) as usize;
        let delay = rng.below(4);
        match rng.below(36) {
            0..=15 => Op::Send { to: target, delay },
            16..=22 => Op::Timer { delay },
            23..=29 => Op::Cancellable { delay: delay + rng.below(3) },
            30..=32 => Op::CancelOldest,
            33 | 34 => Op::Kill { victim: target },
            _ => Op::Stop,
        }
    }
}

/// The engine surface a program drives: the real [`Ctx`], or the model's.
trait Api {
    type Timer: Copy;
    fn now(&self) -> SimTime;
    fn self_id(&self) -> ActorId;
    fn send(&mut self, to: ActorId, delay: SimTime, msg: u32);
    fn set_timer(&mut self, delay: SimTime, key: u64);
    fn set_cancellable_timer(&mut self, delay: SimTime, key: u64) -> Self::Timer;
    fn cancel_timer(&mut self, id: Self::Timer);
    fn kill(&mut self, victim: ActorId);
    fn stop(&mut self);
}

impl Api for Ctx<'_, u32> {
    type Timer = TimerId;
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }
    fn self_id(&self) -> ActorId {
        Ctx::self_id(self)
    }
    fn send(&mut self, to: ActorId, delay: SimTime, msg: u32) {
        Ctx::send(self, to, delay, msg);
    }
    fn set_timer(&mut self, delay: SimTime, key: u64) {
        Ctx::set_timer(self, delay, key);
    }
    fn set_cancellable_timer(&mut self, delay: SimTime, key: u64) -> TimerId {
        Ctx::set_cancellable_timer(self, delay, key)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        Ctx::cancel_timer(self, id);
    }
    fn kill(&mut self, victim: ActorId) {
        Ctx::kill(self, victim);
    }
    fn stop(&mut self) {
        Ctx::stop(self);
    }
}

/// What a callback was invoked with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Input {
    Start,
    Msg { from: ActorId, msg: u32 },
    Timer(u64),
}

/// Every callback, in dispatch order: `(time_ns, actor, input)`.
type DispatchLog = Rc<RefCell<Vec<(u64, ActorId, Input)>>>;

/// A random actor: callback `k` of actor `a` runs block `(k + a) % len`
/// until its budget of callbacks is spent, then only logs.
struct Program<T> {
    blocks: Rc<Vec<Vec<Op>>>,
    actors: usize,
    budget: u32,
    calls: u32,
    next_tag: u32,
    handles: VecDeque<T>,
    log: DispatchLog,
}

impl<T: Copy> Program<T> {
    /// One program per actor, all logging to `log`.
    fn all(blocks: &Rc<Vec<Vec<Op>>>, actors: usize, budget: u32, log: &DispatchLog) -> Vec<Self> {
        let program = || Program {
            blocks: Rc::clone(blocks),
            actors,
            budget,
            calls: 0,
            next_tag: 0,
            handles: VecDeque::new(),
            log: Rc::clone(log),
        };
        (0..actors).map(|_| program()).collect()
    }

    fn step(&mut self, input: Input, api: &mut impl Api<Timer = T>) {
        let me = api.self_id();
        self.log.borrow_mut().push((api.now().as_nanos(), me, input));
        if self.calls == self.budget {
            return;
        }
        let blocks = Rc::clone(&self.blocks);
        let block = &blocks[(self.calls as usize + me) % blocks.len()];
        self.calls += 1;
        for &op in block {
            let tag = (me as u32) << 16 | self.next_tag;
            self.next_tag += 1;
            let ns = SimTime::from_nanos;
            match op {
                Op::Send { to, delay } => api.send(to % self.actors, ns(delay), tag),
                Op::Timer { delay } => api.set_timer(ns(delay), tag.into()),
                Op::Cancellable { delay } => {
                    let id = api.set_cancellable_timer(ns(delay), tag.into());
                    self.handles.push_back(id);
                }
                Op::CancelOldest => {
                    if let Some(id) = self.handles.pop_front() {
                        api.cancel_timer(id);
                    }
                }
                Op::Kill { victim } => api.kill(victim % self.actors),
                Op::Stop => api.stop(),
            }
        }
    }
}

impl Actor<u32> for Program<TimerId> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.step(Input::Start, ctx);
    }
    fn on_message(&mut self, from: ActorId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.step(Input::Msg { from, msg }, ctx);
    }
    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, u32>) {
        self.step(Input::Timer(key), ctx);
    }
}

/// Link faults as a pure function of the send: the engine's interceptor
/// and the model both call it with the same arguments.
fn link_verdict(from: ActorId, seq: u64) -> Verdict {
    match (seq + 3 * from as u64) % 7 {
        0 => Verdict::Drop,
        1 => Verdict::Delay(SimTime::from_nanos(2)),
        _ => Verdict::Deliver,
    }
}

struct SeqFaults;

impl Interceptor for SeqFaults {
    fn intercept(&mut self, meta: &DeliveryMeta) -> Verdict {
        link_verdict(meta.from, meta.seq)
    }
}

enum ModelEvent {
    Deliver { from: ActorId, to: ActorId, msg: u32 },
    Timer { actor: ActorId, key: u64, id: Option<u64> },
}

/// The reference: a `BinaryHeap` of `(time, seq)` popped before every
/// dispatch, payloads in a map, and the engine's documented rules for
/// cancellation, kills, dead letters, link faults and `stop`.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    payloads: HashMap<u64, ModelEvent>,
    now: u64,
    seq: u64,
    next_timer: u64,
    cancelled: BTreeSet<u64>,
    dead: Vec<bool>,
    faults: bool,
    stop: bool,
    stats: EngineStats,
}

impl Model {
    fn push(&mut self, at: u64, event: ModelEvent) {
        self.heap.push(Reverse((at, self.seq)));
        self.payloads.insert(self.seq, event);
        self.seq += 1;
        self.stats.max_queue = self.stats.max_queue.max(self.heap.len());
    }
}

struct ModelCtx<'a> {
    model: &'a mut Model,
    me: ActorId,
}

impl Api for ModelCtx<'_> {
    type Timer = u64;
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.model.now)
    }
    fn self_id(&self) -> ActorId {
        self.me
    }
    fn send(&mut self, to: ActorId, delay: SimTime, msg: u32) {
        let m = &mut *self.model;
        let at = m.now + delay.as_nanos();
        let verdict = if m.faults { link_verdict(self.me, m.seq) } else { Verdict::Deliver };
        let event = ModelEvent::Deliver { from: self.me, to, msg };
        match verdict {
            Verdict::Deliver => m.push(at, event),
            Verdict::Drop => m.stats.dropped_sends += 1,
            Verdict::Delay(extra) => {
                m.stats.delayed_sends += 1;
                m.push(at + extra.as_nanos(), event);
            }
        }
    }
    fn set_timer(&mut self, delay: SimTime, key: u64) {
        let at = self.model.now + delay.as_nanos();
        self.model.push(at, ModelEvent::Timer { actor: self.me, key, id: None });
    }
    fn set_cancellable_timer(&mut self, delay: SimTime, key: u64) -> u64 {
        let id = self.model.next_timer;
        self.model.next_timer += 1;
        let at = self.model.now + delay.as_nanos();
        self.model.push(at, ModelEvent::Timer { actor: self.me, key, id: Some(id) });
        id
    }
    fn cancel_timer(&mut self, id: u64) {
        let m = &mut *self.model;
        m.cancelled.insert(id);
        m.stats.max_cancelled = m.stats.max_cancelled.max(m.cancelled.len());
    }
    fn kill(&mut self, victim: ActorId) {
        self.model.dead[victim] = true;
    }
    fn stop(&mut self) {
        self.model.stop = true;
    }
}

fn run_model(mut programs: Vec<Program<u64>>, faults: bool) -> EngineStats {
    let mut m = Model { dead: vec![false; programs.len()], faults, ..Model::default() };
    for (me, program) in programs.iter_mut().enumerate() {
        program.step(Input::Start, &mut ModelCtx { model: &mut m, me });
        if m.stop {
            m.stats.stopped = true;
            return m.stats;
        }
    }
    while let Some(Reverse((at, seq))) = m.heap.pop() {
        let event = m.payloads.remove(&seq).expect("queued payload");
        let (me, input) = match event {
            ModelEvent::Timer { id: Some(id), .. } if m.cancelled.remove(&id) => continue,
            ModelEvent::Timer { actor, key, .. } => (actor, Input::Timer(key)),
            ModelEvent::Deliver { from, to, msg } => (to, Input::Msg { from, msg }),
        };
        if m.dead[me] {
            m.stats.dead_letters += 1;
            continue;
        }
        m.now = at;
        m.stats.events += 1;
        programs[me].step(input, &mut ModelCtx { model: &mut m, me });
        if m.stop {
            m.stats.stopped = true;
            break;
        }
    }
    m.stats.end_time = SimTime::from_nanos(m.now);
    m.stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The engine loop (direct pushes, the head reused by the first push)
    /// dispatches exactly what a pop-then-push `BinaryHeap` model does and
    /// reports the same statistics, for programs that push 0, 1 or many
    /// events per callback (delay 0 included), cancel timers, kill actors
    /// (themselves too), send to dead actors and stop mid-callback. The
    /// boxed and the typed engine agree with it and with each other.
    #[test]
    fn engine_matches_a_pop_then_push_model(
        actors in 1usize..6,
        blocks in proptest::collection::vec(proptest::collection::vec(AnyOp, 1..6), 1..8),
        budget in 1u32..40,
        faults in any::<bool>(),
    ) {
        let blocks = Rc::new(blocks);
        let programs = |log: &DispatchLog| Program::all(&blocks, actors, budget, log);

        let boxed_log = DispatchLog::default();
        let mut boxed = Engine::new();
        for program in programs(&boxed_log) {
            boxed.add_actor(Box::new(program));
        }
        let typed_log = DispatchLog::default();
        let mut typed = Engine::with_capacity(actors);
        for program in programs(&typed_log) {
            typed.spawn(program);
        }
        if faults {
            boxed.set_interceptor(Box::new(SeqFaults));
            typed.set_interceptor(Box::new(SeqFaults));
        }
        let (_, boxed_stats) = boxed.run();
        let (_, typed_stats) = typed.run();
        let model_log = DispatchLog::default();
        let model_stats = run_model(Program::all(&blocks, actors, budget, &model_log), faults);

        prop_assert_eq!(&*boxed_log.borrow(), &*model_log.borrow());
        prop_assert_eq!(boxed_stats, model_stats);
        prop_assert_eq!(&*typed_log.borrow(), &*boxed_log.borrow());
        prop_assert_eq!(typed_stats, boxed_stats);
    }
}
