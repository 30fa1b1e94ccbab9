//! Replica of Hagerup's direct simulator (paper §III-B).
//!
//! The BOLD publication measured its eight DLS techniques with a simulator
//! written by its author; the system was never described. The paper being
//! reproduced found that no fictitious platform reproduced those numbers —
//! so its authors *replicated the simulator itself*: no network, no message
//! passing, just list scheduling against per-PE availability times, with the
//! fixed scheduling overhead `h` accounted per scheduling operation.
//!
//! [`DirectSimulator`] is that replica. It is the comparison oracle for
//! Figures 5–8: `dls-msgsim` (the SimGrid-MSG analog) is verified by its
//! discrepancy against this simulator, mirroring how the paper compared
//! SimGrid-MSG against Hagerup's published values.
//!
//! # Mechanics
//!
//! A priority queue holds each PE's next-available time — the same 4-ary
//! [`QuadHeap`] the `dls-des` engine uses for its events, keyed so that
//! ties go to the smaller PE index and a NaN time panics. Repeatedly, the
//! earliest-available PE requests work, receives a chunk from the technique
//! under test, and becomes available again after executing it (consecutive
//! task times come from the shared [`TaskTimes`] realization). The
//! scheduling overhead is charged according to the configured
//! [`OverheadModel`]: post-hoc (`h × chunks` added to the run's average
//! wasted time — Hagerup's accounting, reproduced by the paper) or
//! in-dynamics (each chunk costs `h` on its PE before execution).
//!
//! # Entry points
//!
//! [`DirectSimulator::run`] validates the setup and builds the technique's
//! scheduler; [`DirectSimulator::run_with_ref`] takes a caller-built
//! scheduler plus a [`Tracer`] and a [`Telemetry`] registry (pass disabled
//! handles for a plain run). [`BatchDirectSimulator::run_batch`] runs many
//! seeds of one cell, bit-identical to `run` per seed, and
//! [`BatchDirectSimulator::run_batch_metered`] adds telemetry to it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dls_core::{ChunkScheduler, LoopSetup, SetupError, Technique};
use dls_des::QuadHeap;
use dls_metrics::{OverheadModel, RunCost};
use dls_telemetry::Telemetry;
use dls_trace::{TraceKind, Tracer};
use dls_workload::TaskTimes;

mod batch;
pub use batch::{BatchDirectSimulator, LOCKSTEP_MAX_P};

/// Ready-queue key of PE `pe` available at time `t`:
/// `ordered_bits(t) << 64 | pe`.
///
/// Orders exactly as `(t, pe)` under `f64::partial_cmp` — earlier
/// availability first, ties to the smaller PE — for every non-NaN `t`,
/// negative times and infinities included. The f64's sign-magnitude bits
/// become a two's-complement integer (a negative `t` maps to minus its
/// magnitude, so `-0.0` and `+0.0` both map to 0, as they compare equal),
/// and flipping the sign bit turns signed order into unsigned order. Each
/// PE is queued at most once, so keys are unique and the pop sequence is
/// fully determined.
///
/// # Panics
///
/// On a NaN `t`: it has no place in the order and must never be sorted
/// silently.
#[inline]
fn ready_key(t: f64, pe: usize) -> u128 {
    assert!(!t.is_nan(), "availability times are never NaN");
    let bits = t.to_bits() as i64;
    let signed = if bits < 0 { (bits & i64::MAX).wrapping_neg() } else { bits };
    let ordered = signed as u64 ^ 1 << 63;
    (ordered as u128) << 64 | pe as u128
}

/// Result of one direct-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectOutcome {
    /// Makespan (time the last PE finishes), seconds.
    pub makespan: f64,
    /// Per-PE compute time (task execution only, no overhead), seconds.
    pub compute: Vec<f64>,
    /// Number of chunks assigned (= scheduling operations).
    pub chunks: u64,
    /// Per-PE number of chunks executed.
    pub chunks_per_pe: Vec<u64>,
    /// Per-PE number of tasks executed (sums to the loop's `n`).
    pub tasks_per_pe: Vec<u64>,
}

impl DirectOutcome {
    /// Converts to the metric crate's [`RunCost`].
    pub fn run_cost(&self) -> RunCost {
        RunCost { makespan: self.makespan, compute: self.compute.clone(), chunks: self.chunks }
    }

    /// The run's average wasted time under the given overhead model
    /// (paper §III-B definition).
    pub fn average_wasted(&self, overhead: OverheadModel) -> f64 {
        self.run_cost().average_wasted(overhead)
    }
}

/// The direct list-scheduling simulator.
#[derive(Debug, Clone)]
pub struct DirectSimulator {
    p: usize,
    overhead: OverheadModel,
    /// Per-PE relative speeds (1.0 = executes task times verbatim).
    speeds: Vec<f64>,
}

impl DirectSimulator {
    /// Creates a simulator for `p` homogeneous unit-speed PEs.
    pub fn new(p: usize, overhead: OverheadModel) -> Self {
        DirectSimulator { p, overhead, speeds: vec![1.0; p] }
    }

    /// Creates a simulator with per-PE speeds (heterogeneous extension).
    pub fn with_speeds(speeds: Vec<f64>, overhead: OverheadModel) -> Self {
        assert!(!speeds.is_empty() && speeds.iter().all(|&s| s > 0.0), "speeds must be > 0");
        DirectSimulator { p: speeds.len(), overhead, speeds }
    }

    /// Number of PEs.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Runs one uninstrumented simulation of `technique` over the
    /// task-time realization, with a fresh scheduler built (and its setup
    /// validated) by [`Technique::build`].
    ///
    /// The `setup` must agree with the simulator (`setup.p == self.p`) and
    /// the workload (`setup.n == tasks.len()`).
    pub fn run(
        &self,
        technique: Technique,
        setup: &LoopSetup,
        tasks: &TaskTimes,
    ) -> Result<DirectOutcome, SetupError> {
        if setup.p != self.p {
            return Err(SetupError::BadParam("setup.p must match the simulator's PE count"));
        }
        if setup.n != tasks.len() as u64 {
            return Err(SetupError::BadParam("setup.n must match the workload length"));
        }
        let mut scheduler = technique.build(setup)?;
        Ok(self.run_with_ref(
            scheduler.as_mut(),
            tasks,
            &Tracer::disabled(),
            &Telemetry::disabled(),
        ))
    }

    /// Runs with a borrowed, caller-built scheduler — custom techniques,
    /// instrumented runs, and the time-stepping building block: call
    /// [`ChunkScheduler::start_time_step`] between invocations and the
    /// scheduler's adaptive state carries across steps.
    ///
    /// The [`Tracer`] receives chunk-lifecycle events (assign, start,
    /// complete); the [`Telemetry`] registry receives host-side `hagerup.*`
    /// metrics (wall time, chunk and task counts), recorded only after the
    /// dispatch loop finishes. Both are per-call arguments, not simulator
    /// state, so the simulator stays `Sync` and shareable across campaign
    /// threads; an instrumented run is bit-identical to one with disabled
    /// handles (enforced by the workspace `trace_determinism` and
    /// `telemetry_determinism` tests).
    pub fn run_with_ref(
        &self,
        scheduler: &mut dyn ChunkScheduler,
        tasks: &TaskTimes,
        tracer: &Tracer,
        telemetry: &Telemetry,
    ) -> DirectOutcome {
        let wall = telemetry.span("hagerup.run_wall_s");
        let out = self.run_core(scheduler, tasks, tracer);
        wall.finish();
        telemetry.counter_inc("hagerup.run_calls");
        telemetry.counter_add("hagerup.chunks", out.chunks);
        telemetry.counter_add("hagerup.tasks", tasks.len() as u64);
        out
    }

    fn run_core(
        &self,
        scheduler: &mut dyn ChunkScheduler,
        tasks: &TaskTimes,
        tracer: &Tracer,
    ) -> DirectOutcome {
        let in_sim_h = self.overhead.in_sim_h();
        let mut compute = vec![0.0f64; self.p];
        let mut chunks_per_pe = vec![0u64; self.p];
        let mut tasks_per_pe = vec![0u64; self.p];
        let mut finish = vec![0.0f64; self.p];
        // Completion reports are delivered when the PE next requests work —
        // matching the master–worker protocol, where the worker's next
        // work-request message carries the previous chunk's timing. This
        // keeps adaptive techniques (AWF, AF) bit-compatible across the two
        // simulators.
        let mut pending: Vec<Option<(u64, f64)>> = vec![None; self.p];
        let mut next_task = 0usize;
        let mut chunks = 0u64;
        // The key folds -0.0 onto +0.0, so the payload carries the time
        // itself and dispatch reads back the exact f64 that was queued.
        let mut queue = QuadHeap::with_capacity(self.p);
        for pe in 0..self.p {
            queue.push(ready_key(0.0, pe), 0.0f64);
        }

        while next_task < tasks.len() {
            // The earliest PE stays at the top while it is served: a PE
            // that gets a chunk is re-keyed in place (`replace_top`, one
            // sift), one that gets nothing leaves the queue.
            let (key, t) = queue.peek().expect("queue holds all PEs");
            let pe = key as u64 as usize;
            if let Some((c, elapsed)) = pending[pe].take() {
                scheduler.record_completion(pe, c, elapsed);
            }
            let c = scheduler.next_chunk(pe);
            if c == 0 {
                // This PE gets nothing more (e.g. STAT after its block);
                // drop it from the rotation.
                queue.pop();
                continue;
            }
            let c = c as usize;
            debug_assert!(next_task + c <= tasks.len(), "scheduler over-assigned");
            let work_secs = tasks.chunk_sum(next_task, next_task + c);
            let work = work_secs / self.speeds[pe];
            let done = t + in_sim_h + work;
            if tracer.is_enabled() {
                // The direct simulator has no messages: a chunk is assigned,
                // started and (virtually) completed in one dispatch.
                let (id, count) = (chunks, c as u64);
                tracer.emit(
                    t,
                    TraceKind::ChunkAssigned {
                        worker: pe,
                        id,
                        start: next_task as u64,
                        count,
                        work_secs,
                    },
                );
                tracer.emit(
                    t,
                    TraceKind::ChunkStarted { worker: pe, id, count, exec_secs: in_sim_h + work },
                );
                tracer.emit(done, TraceKind::ChunkCompleted { worker: pe, id, count });
            }
            next_task += c;
            chunks += 1;
            chunks_per_pe[pe] += 1;
            tasks_per_pe[pe] += c as u64;
            compute[pe] += work;
            finish[pe] = done;
            pending[pe] = Some((c as u64, work));
            queue.replace_top(ready_key(done, pe), done);
        }
        // Flush the final completions (the master receives them with the
        // requests that get answered by finalization messages). Popping in
        // (avail, pe) order matters for persistent adaptive schedulers that
        // carry state across time steps.
        while let Some((key, _)) = queue.pop() {
            let pe = key as u64 as usize;
            if let Some((c, elapsed)) = pending[pe].take() {
                scheduler.record_completion(pe, c, elapsed);
            }
        }

        let makespan = finish.iter().fold(0.0f64, |a, &b| a.max(b));
        DirectOutcome { makespan, compute, chunks, chunks_per_pe, tasks_per_pe }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_workload::Workload;

    fn constant_tasks(n: u64, t: f64) -> TaskTimes {
        Workload::constant(n, t).generate(0)
    }

    fn setup(n: u64, p: usize) -> LoopSetup {
        LoopSetup::new(n, p).with_moments(1.0, 0.0)
    }

    #[test]
    fn stat_constant_workload_is_perfectly_balanced() {
        let tasks = constant_tasks(100, 1.0);
        let sim = DirectSimulator::new(4, OverheadModel::None);
        let out = sim.run(Technique::Stat, &setup(100, 4), &tasks).unwrap();
        assert_eq!(out.chunks, 4);
        assert!((out.makespan - 25.0).abs() < 1e-9);
        assert!(out.compute.iter().all(|&c| (c - 25.0).abs() < 1e-9));
        assert_eq!(out.average_wasted(OverheadModel::None), 0.0);
    }

    #[test]
    fn ss_assigns_every_task_individually() {
        let tasks = constant_tasks(12, 1.0);
        let sim = DirectSimulator::new(3, OverheadModel::None);
        let out = sim.run(Technique::SS, &setup(12, 3), &tasks).unwrap();
        assert_eq!(out.chunks, 12);
        assert!((out.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    fn post_hoc_overhead_accounting() {
        let tasks = constant_tasks(12, 1.0);
        let sim = DirectSimulator::new(3, OverheadModel::PostHocTotal { h: 0.5 });
        let out = sim.run(Technique::SS, &setup(12, 3), &tasks).unwrap();
        // Balanced run: idle 0, overhead 0.5 × 12 chunks = 6 s.
        let w = out.average_wasted(OverheadModel::PostHocTotal { h: 0.5 });
        assert!((w - 6.0).abs() < 1e-9);
        // Post-hoc model leaves the dynamics untouched.
        assert!((out.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    fn in_dynamics_overhead_stretches_makespan() {
        let tasks = constant_tasks(12, 1.0);
        let m = OverheadModel::InDynamics { h: 0.5 };
        let sim = DirectSimulator::new(3, m);
        let out = sim.run(Technique::SS, &setup(12, 3), &tasks).unwrap();
        // Each of the 4 tasks per PE now costs 1.5 s.
        assert!((out.makespan - 6.0).abs() < 1e-9);
        // ... and nothing is added post-hoc.
        assert!((out.average_wasted(m) - 2.0).abs() < 1e-9); // idle = overhead share
    }

    #[test]
    fn heterogeneous_speeds_scale_execution() {
        let tasks = constant_tasks(30, 1.0);
        let sim = DirectSimulator::with_speeds(vec![1.0, 2.0], OverheadModel::None);
        let s = setup(30, 2);
        let out = sim.run(Technique::SS, &s, &tasks).unwrap();
        // The 2x PE executes roughly twice the tasks; makespan ≈ 10 s.
        assert!(out.makespan < 11.0, "makespan = {}", out.makespan);
        assert!(out.compute[1] <= out.makespan + 1e-9);
    }

    #[test]
    fn greedy_dispatch_follows_availability() {
        // Decreasing workload: first chunks are the heavy ones.
        let w = dls_workload::Workload::new(
            4,
            dls_workload::TimeModel::LinearDecreasing { first: 4.0, last: 1.0 },
        )
        .unwrap();
        let tasks = w.generate(0);
        let sim = DirectSimulator::new(2, OverheadModel::None);
        let out = sim.run(Technique::SS, &setup(4, 2), &tasks).unwrap();
        // Timeline: PE0 ← 4s, PE1 ← 3s; PE1 free at 3 ← 2s (done 5);
        // PE0 free at 4 ← 1s (done 5). Perfect 5s makespan.
        assert!((out.makespan - 5.0).abs() < 1e-9);
        assert_eq!(out.chunks, 4);
    }

    #[test]
    fn mismatched_setup_rejected() {
        let tasks = constant_tasks(10, 1.0);
        let sim = DirectSimulator::new(2, OverheadModel::None);
        assert!(sim.run(Technique::SS, &setup(10, 3), &tasks).is_err());
        assert!(sim.run(Technique::SS, &setup(11, 2), &tasks).is_err());
    }

    #[test]
    fn exponential_workload_statistics_are_plausible() {
        // n=1024, p=2, exp(µ=1): avg wasted (idle only) should be small
        // relative to the ~512 s makespan, and makespan ≈ n·µ/p.
        let wl = Workload::exponential(1024, 1.0).unwrap();
        let tasks = wl.generate(42);
        let sim = DirectSimulator::new(2, OverheadModel::None);
        let s = LoopSetup::new(1024, 2).with_moments(1.0, 1.0);
        let out = sim.run(Technique::Fac2, &s, &tasks).unwrap();
        assert!((out.makespan - 512.0).abs() < 100.0, "makespan = {}", out.makespan);
        let w = out.average_wasted(OverheadModel::None);
        assert!(w < 20.0, "idle-only wasted time = {w}");
    }

    #[test]
    fn chunk_counts_match_scheduler_behavior() {
        let tasks = constant_tasks(1000, 0.001);
        let sim = DirectSimulator::new(4, OverheadModel::None);
        let out = sim.run(Technique::Gss { min_chunk: 1 }, &setup(1000, 4), &tasks).unwrap();
        assert_eq!(out.chunks_per_pe.iter().sum::<u64>(), out.chunks);
        assert!(out.chunks < 100);
    }

    #[test]
    fn metered_run_is_identical_and_records_host_metrics() {
        let tasks = constant_tasks(1000, 0.001);
        let sim = DirectSimulator::new(4, OverheadModel::None);
        let s = setup(1000, 4);
        let plain = sim.run(Technique::Fac2, &s, &tasks).unwrap();
        let tel = Telemetry::enabled();
        let mut sched = Technique::Fac2.build(&s).unwrap();
        let metered = sim.run_with_ref(sched.as_mut(), &tasks, &Tracer::disabled(), &tel);
        assert_eq!(plain, metered);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("hagerup.run_calls"), Some(1));
        assert_eq!(snap.counter("hagerup.chunks"), Some(plain.chunks));
        assert_eq!(snap.counter("hagerup.tasks"), Some(1000));
        assert_eq!(snap.histogram("hagerup.run_wall_s").unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "speeds must be > 0")]
    fn invalid_speeds_panic() {
        DirectSimulator::with_speeds(vec![1.0, 0.0], OverheadModel::None);
    }

    /// Reference order for the ready queue: `(RefAvail(t), pe)` tuples,
    /// `t` compared by `f64::partial_cmp` and a NaN panicking.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct RefAvail(f64);
    impl Eq for RefAvail {}
    impl PartialOrd for RefAvail {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefAvail {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("availability times are never NaN")
        }
    }

    /// Availability values that stress the key mapping: signed zeros,
    /// negatives, subnormals, extremes, infinities, plus near-duplicates.
    const SPECIAL: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0000000000000002,
        0.9999999999999999,
    ];

    #[test]
    fn ready_key_orders_exactly_as_the_tuple_comparator() {
        for &a in &SPECIAL {
            for &b in &SPECIAL {
                for (pa, pb) in [(0usize, 1usize), (1, 0), (3, 3)] {
                    let want = (RefAvail(a), pa).cmp(&(RefAvail(b), pb));
                    let got = ready_key(a, pa).cmp(&ready_key(b, pb));
                    assert_eq!(got, want, "({a:e}, {pa}) vs ({b:e}, {pb})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "availability times are never NaN")]
    fn nan_availability_panics() {
        ready_key(f64::NAN, 0);
    }

    #[test]
    #[should_panic(expected = "availability times are never NaN")]
    fn nan_availability_panics_inside_a_run() {
        // An in-dynamics overhead of NaN makes the first chunk's completion
        // time NaN; re-queueing that PE must panic, even at a small PE count.
        let tasks = constant_tasks(4, 1.0);
        let sim = DirectSimulator::new(2, OverheadModel::InDynamics { h: f64::NAN });
        let _ = sim.run(Technique::SS, &setup(4, 2), &tasks);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The replica's queue pops exactly what a reference `BinaryHeap`
        /// over `Reverse((RefAvail, pe))` pops, over random interleavings
        /// of push, pop and the simulator's re-key of the top PE
        /// (`replace_top` against a reference pop + push). Availabilities
        /// come from a handful of values (negative ones and both zeros
        /// included), so most pushes tie and the PE index decides; as in
        /// the simulator, a PE is queued at most once at a time.
        #[test]
        fn ready_queue_matches_a_reference_binary_heap(
            ops in proptest::collection::vec(0usize..32, 1..400),
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            const P: usize = 8;
            let avails = [0.0, -0.0, -2.5, 1.0, 1.0, 3.0, f64::INFINITY, -1e-300];
            let mut heap = QuadHeap::<f64>::new();
            let mut reference = BinaryHeap::new();
            let mut queued = [false; P];
            for op in ops {
                // 0..16 pushes avails[op % 8] for the first idle PE at or
                // after op % 8; 16..24 pops; 24..32 re-keys the top PE to
                // avails[op % 8].
                if op >= 24 {
                    let Some(Reverse((RefAvail(top), pe))) = reference.pop() else {
                        continue;
                    };
                    let (key, t) = heap.peek().expect("both heaps hold the same PEs");
                    proptest::prop_assert_eq!((t.to_bits(), key as u64 as usize), (top.to_bits(), pe));
                    let t = avails[op % avails.len()];
                    heap.replace_top(ready_key(t, pe), t);
                    reference.push(Reverse((RefAvail(t), pe)));
                } else if op < 16 {
                    let start = op % P;
                    let Some(pe) = (0..P).map(|d| (start + d) % P).find(|&pe| !queued[pe])
                    else {
                        continue;
                    };
                    let t = avails[op % avails.len()];
                    queued[pe] = true;
                    heap.push(ready_key(t, pe), t);
                    reference.push(Reverse((RefAvail(t), pe)));
                } else {
                    let got = heap.pop().map(|(key, t)| (t.to_bits(), key as u64 as usize));
                    let want = reference.pop().map(|Reverse((RefAvail(t), pe))| (t.to_bits(), pe));
                    proptest::prop_assert_eq!(got, want);
                    if let Some((_, pe)) = want {
                        queued[pe] = false;
                    }
                }
            }
            while let Some(Reverse((RefAvail(t), pe))) = reference.pop() {
                let got = heap.pop().map(|(key, t)| (t.to_bits(), key as u64 as usize));
                proptest::prop_assert_eq!(got, Some((t.to_bits(), pe)));
            }
            proptest::prop_assert!(heap.pop().is_none());
        }
    }

    #[test]
    fn time_stepping_with_persistent_scheduler() {
        use dls_core::AwfVariant;
        // One straggler at 1/5 speed, unknown to the technique.
        let sim = DirectSimulator::with_speeds(vec![1.0, 1.0, 1.0, 0.2], OverheadModel::None);
        let workload = Workload::constant(4_000, 1e-3);
        let setup = LoopSetup::new(4_000, 4).with_moments(1e-3, 0.0);
        let mut sched = Technique::Awf { variant: AwfVariant::TimeStep }.build(&setup).unwrap();
        let mut makespans = Vec::new();
        for step in 0..5 {
            sched.start_time_step();
            let tasks = workload.generate(step);
            let out = sim.run_with_ref(
                sched.as_mut(),
                &tasks,
                &Tracer::disabled(),
                &Telemetry::disabled(),
            );
            makespans.push(out.makespan);
        }
        // Step 1 is uniform-weighted (imbalanced); later steps learn.
        assert!(makespans[4] < 0.75 * makespans[0], "AWF must improve across steps: {makespans:?}");
    }
}
