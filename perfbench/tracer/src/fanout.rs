//! `dls-des` fan-out driver: a hub actor sends one message to each of `p`
//! leaf actors, every leaf replies after its own delay, and the hub starts
//! the next round once all replies are in — the request/reply shape of the
//! msgsim master, without msgsim. `Engine::run` is otherwise reachable only
//! inside `simulate*`, so this is the only place the engine's own rate is
//! measured.

use dls_des::{Actor, ActorId, Ctx, Engine, SimTime};
use std::time::{Duration, Instant};

/// PE counts of the figure cells the driver runs at.
pub const FANOUT_PES: [usize; 3] = [64, 256, 1024];

/// Events each engine run dispatches (about; whole rounds).
const EVENTS_PER_RUN: u64 = 200_000;

enum Msg {
    Work,
    Done,
}

struct Hub {
    p: usize,
    rounds_left: u64,
    pending: usize,
}

impl Hub {
    fn fan_out(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.rounds_left -= 1;
        self.pending = self.p;
        for leaf in 1..=self.p {
            ctx.send(leaf, SimTime::from_nanos(1), Msg::Work);
        }
    }
}

impl Actor<Msg> for Hub {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.fan_out(ctx);
    }

    fn on_message(&mut self, _from: ActorId, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.pending -= 1;
        if self.pending == 0 && self.rounds_left > 0 {
            self.fan_out(ctx);
        }
    }
}

struct Leaf {
    delay: SimTime,
}

impl Actor<Msg> for Leaf {
    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Work = msg {
            ctx.send(from, self.delay, Msg::Done);
        }
    }
}

/// Engine events per second, overall and per PE count.
pub struct Rates {
    /// Events over engine time, summed across every PE count.
    pub overall: f64,
    /// `(p, events per second)`.
    pub per_p: Vec<(usize, f64)>,
}

/// One engine run at `p` leaves; returns (events, seconds inside `run`).
fn one_run(p: usize) -> (u64, f64) {
    let mut engine: Engine<Msg> = Engine::new();
    let rounds = (EVENTS_PER_RUN / (2 * p as u64)).max(1);
    engine.add_actor(Box::new(Hub { p, rounds_left: rounds, pending: 0 }));
    // Distinct reply delays (splitmix64 of the leaf index) make replies
    // arrive out of order, so the event queue reorders every round.
    for leaf in 0..p as u64 {
        let mut z = (leaf + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        engine.add_actor(Box::new(Leaf { delay: SimTime::from_nanos(1 + z % 1_000_000) }));
    }
    let start = Instant::now();
    let (_actors, stats) = std::hint::black_box(engine).run();
    (stats.events, start.elapsed().as_secs_f64())
}

/// Runs the driver at every PE count of [`FANOUT_PES`], splitting `budget`
/// evenly (at least one engine run each).
pub fn measure(budget: Duration) -> Rates {
    let share = budget / FANOUT_PES.len() as u32;
    let (mut events, mut secs) = (0u64, 0.0f64);
    let mut per_p = Vec::new();
    for &p in &FANOUT_PES {
        let deadline = Instant::now() + share;
        let (mut e, mut s) = (0u64, 0.0f64);
        loop {
            let (re, rs) = one_run(p);
            e += re;
            s += rs;
            if Instant::now() >= deadline {
                break;
            }
        }
        per_p.push((p, e as f64 / s));
        events += e;
        secs += s;
    }
    Rates { overall: events as f64 / secs, per_p }
}
