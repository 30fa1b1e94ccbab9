//! Property tests for the event engine's ordering guarantees.

use dls_des::{Actor, ActorId, Ctx, Engine, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
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
