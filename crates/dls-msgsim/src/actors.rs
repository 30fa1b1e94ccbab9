//! The master and worker actors of the MSG execution model (Figure 1),
//! plus the fault-tolerance machinery (watchdogs, re-requests, reassignment)
//! that activates only when the spec carries a non-empty fault plan.

use crate::outcome::FaultStats;
use crate::spec::{Recovery, SimSpec};
use dls_core::ChunkScheduler;
use dls_des::{Actor, ActorId, Ctx, SimTime, TimerId};
use dls_trace::{TraceKind, Tracer};
use dls_workload::{PerturbationModel, TaskTimes};
use std::collections::{BTreeMap, VecDeque};

/// Messages exchanged between master and workers.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Worker → master: "I am idle"; carries the previous chunk's timing so
    /// adaptive techniques receive their feedback.
    Request {
        /// Completion report for the previously executed chunk, if any.
        prev: Option<Completion>,
    },
    /// Master → worker: execute `count` tasks totalling `work_secs` of
    /// unit-speed work.
    Work {
        /// Assignment id, echoed back in the completion report so the
        /// master can pair replies with outstanding chunks (and discard
        /// stale duplicates after a retry or reassignment).
        id: u64,
        /// Number of tasks in the chunk.
        count: u64,
        /// Sum of the chunk's task times at unit speed, seconds.
        work_secs: f64,
    },
    /// Master → worker: no more work; terminate.
    Finalize,
}

/// A worker's report about its last chunk.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The assignment id from the [`Msg::Work`] message.
    pub id: u64,
    /// Tasks in the chunk.
    pub chunk: u64,
    /// Wall time the chunk took on the worker, seconds.
    pub elapsed: f64,
}

const MASTER: ActorId = 0;

/// Worker timer keys (the master uses assignment ids as keys instead).
const TIMER_CHUNK_DONE: u64 = 0;
const TIMER_REQUEST_RETRY: u64 = 1;

/// A chunk's identity independent of who executes it: the task range and
/// its total unit-speed work. Re-queued on failure, re-dispatched verbatim.
#[derive(Debug, Clone, Copy)]
struct ChunkJob {
    start: u64,
    count: u64,
    work_secs: f64,
}

/// One chunk the master has dispatched and not yet seen completed.
#[derive(Debug)]
struct Outstanding {
    worker: usize,
    job: ChunkJob,
    /// Timeout expiries so far (0 while the first watchdog is armed).
    attempts: u32,
    /// The armed watchdog, cancelled when the completion arrives.
    timer: TimerId,
    /// Base timeout in seconds; retries arm `base × backoff^attempts`.
    base_timeout: f64,
}

/// Master-side fault-tolerance state; present only when the spec's fault
/// plan is non-empty, so fault-free runs take the exact legacy code path.
#[derive(Debug)]
struct Ft {
    /// Effective per-worker speed (host speed × availability weight), used
    /// to estimate chunk execution times for watchdog timeouts.
    eff_speed: Vec<f64>,
    in_sim_h: f64,
    /// `comm_time(work) + comm_time(request)`, seconds — the round-trip
    /// term of the watchdog budget.
    round_comm_secs: f64,
    recovery: Recovery,
    next_id: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    /// Per-worker outstanding assignment id (at most one chunk per worker).
    worker_chunk: Vec<Option<u64>>,
    /// Workers the master has given up on.
    dead: Vec<bool>,
    /// Idle workers waiting because the scheduler is drained but chunks are
    /// still outstanding — a failure would re-queue work for them, so they
    /// must not be finalized yet.
    parked: VecDeque<usize>,
    /// Chunks recovered from declared-dead workers, awaiting reassignment.
    requeue: VecDeque<ChunkJob>,
}

impl Ft {
    fn new(spec: &SimSpec) -> Self {
        let p = spec.num_workers();
        let eff_speed = (0..p)
            .map(|w| {
                let host = spec.platform.host(w);
                (host.speed * host.availability.weight).max(f64::MIN_POSITIVE)
            })
            .collect();
        let link = spec.platform.link();
        Ft {
            eff_speed,
            in_sim_h: spec.overhead.in_sim_h(),
            round_comm_secs: link.comm_time(spec.messages.work)
                + link.comm_time(spec.messages.request),
            recovery: spec.recovery,
            next_id: 0,
            outstanding: BTreeMap::new(),
            worker_chunk: vec![None; p],
            dead: vec![false; p],
            parked: VecDeque::new(),
            requeue: VecDeque::new(),
        }
    }

    /// Watchdog budget for one chunk on one worker: the estimated round
    /// trip (work message + execution + overhead + report) stretched by the
    /// recovery grace factor, floored at the configured minimum.
    fn base_timeout(&self, job: &ChunkJob, worker: usize) -> f64 {
        let exec = job.work_secs / self.eff_speed[worker];
        (self.recovery.grace * (exec + self.in_sim_h + self.round_comm_secs))
            .max(self.recovery.min_timeout)
    }
}

/// The master: owns the scheduler, the task-time realization and the
/// run's assignment counters.
pub struct Master {
    /// The run's scheduler, lent by its owner for the run and handed back
    /// when the run ends.
    pub scheduler: Box<dyn ChunkScheduler>,
    tasks: TaskTimes,
    /// Transfer time of one Work message. The link and message sizes are
    /// fixed for the lifetime of a run, so the per-send computation is done
    /// once here and every send reuses the identical value.
    work_comm: SimTime,
    /// Transfer time of one Finalize message (same hoisting).
    finalize_comm: SimTime,
    /// Per-request service time (0 = instantaneous master).
    service: SimTime,
    /// Time until which the master's single scheduling "core" is busy.
    busy_until: SimTime,
    next_task: usize,
    ft: Option<Ft>,
    /// Total chunks assigned (scheduling operations).
    pub chunks: u64,
    /// Per-worker chunk counts.
    pub chunks_per_worker: Vec<u64>,
    /// Total tasks assigned (must end at `n`).
    pub assigned_tasks: u64,
    /// Fault and recovery counters; the engine-level fields and the
    /// workers' retransmits are filled in by the driver after the run.
    pub faults: FaultStats,
    tracer: Tracer,
}

impl Master {
    /// Builds the master for one run around the scheduler it drives.
    pub fn new(
        scheduler: Box<dyn ChunkScheduler>,
        tasks: TaskTimes,
        spec: &SimSpec,
        tracer: Tracer,
    ) -> Self {
        let link = spec.platform.link();
        Master {
            scheduler,
            tasks,
            work_comm: SimTime::from_secs_f64(link.comm_time(spec.messages.work)),
            finalize_comm: SimTime::from_secs_f64(link.comm_time(spec.messages.finalize)),
            service: SimTime::from_secs_f64(spec.master_service),
            busy_until: SimTime::ZERO,
            next_task: 0,
            ft: (!spec.faults.is_none()).then(|| Ft::new(spec)),
            chunks: 0,
            chunks_per_worker: vec![0; spec.num_workers()],
            assigned_tasks: 0,
            faults: FaultStats::default(),
            tracer,
        }
    }

    /// Serializes this request through the master's scheduling core and
    /// returns the extra delay (queueing + service) to add to the reply.
    fn serve(&mut self, now: SimTime) -> SimTime {
        if self.service == SimTime::ZERO {
            return SimTime::ZERO;
        }
        let start = self.busy_until.max(now);
        let done = start.saturating_add(self.service);
        self.busy_until = done;
        done - now
    }

    /// Dispatches `job` to `worker` under a fresh assignment id and arms
    /// its watchdog. Fault-tolerant mode only.
    fn dispatch(
        &mut self,
        worker: usize,
        job: ChunkJob,
        queueing: SimTime,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        let comm = self.work_comm;
        let ft = self.ft.as_mut().expect("dispatch is fault-tolerant-only");
        let base_timeout = ft.base_timeout(&job, worker);
        let id = ft.next_id;
        ft.next_id += 1;
        self.tracer.emit(
            ctx.now().as_secs_f64(),
            TraceKind::ChunkAssigned {
                worker,
                id,
                start: job.start,
                count: job.count,
                work_secs: job.work_secs,
            },
        );
        ctx.send(
            worker + 1,
            queueing.saturating_add(comm),
            Msg::Work { id, count: job.count, work_secs: job.work_secs },
        );
        let delay = queueing.saturating_add(SimTime::from_secs_f64(base_timeout));
        let timer = ctx.set_cancellable_timer(delay, id);
        ft.outstanding.insert(id, Outstanding { worker, job, attempts: 0, timer, base_timeout });
        ft.worker_chunk[worker] = Some(id);
    }

    /// Pulls the next fresh chunk from the scheduler, if any, updating the
    /// assignment statistics exactly as the legacy path does.
    fn fresh_chunk(&mut self, worker: usize) -> Option<ChunkJob> {
        let count = self.scheduler.next_chunk(worker);
        if count == 0 {
            return None;
        }
        let start = self.next_task as u64;
        let end = self.next_task + count as usize;
        let work_secs = self.tasks.chunk_sum(self.next_task, end);
        self.next_task = end;
        self.chunks += 1;
        self.chunks_per_worker[worker] += 1;
        self.assigned_tasks += count;
        Some(ChunkJob { start, count, work_secs })
    }

    /// Counts a reassignment and traces it (the same task range appears a
    /// second time, under the surviving worker).
    fn note_reassignment(&mut self, worker: usize, job: &ChunkJob, now: SimTime) {
        self.tracer.emit(
            now.as_secs_f64(),
            TraceKind::ChunkReassigned { worker, start: job.start, count: job.count },
        );
        self.faults.reassigned_chunks += 1;
        self.faults.reassigned_tasks += job.count;
    }

    /// Sends Finalize to `worker` (actor `worker + 1`).
    fn finalize_worker(&self, worker: usize, queueing: SimTime, ctx: &mut Ctx<'_, Msg>) {
        ctx.send(worker + 1, queueing.saturating_add(self.finalize_comm), Msg::Finalize);
    }

    /// The legacy, fault-oblivious request handler — byte-identical
    /// behaviour to the pre-fault-tolerance master.
    fn on_request_simple(
        &mut self,
        worker: usize,
        prev: Option<Completion>,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        let queueing = self.serve(ctx.now());
        if let Some(c) = prev {
            self.scheduler.record_completion(worker, c.chunk, c.elapsed);
            self.faults.completed_tasks += c.chunk;
        }
        let count = self.scheduler.next_chunk(worker);
        if count == 0 {
            self.finalize_worker(worker, queueing, ctx);
            return;
        }
        let end = self.next_task + count as usize;
        let work_secs = self.tasks.chunk_sum(self.next_task, end);
        self.next_task = end;
        self.chunks += 1;
        self.chunks_per_worker[worker] += 1;
        self.assigned_tasks += count;
        self.tracer.emit(
            ctx.now().as_secs_f64(),
            TraceKind::ChunkAssigned {
                worker,
                id: 0,
                start: (end - count as usize) as u64,
                count,
                work_secs,
            },
        );
        let delay = queueing.saturating_add(self.work_comm);
        ctx.send(worker + 1, delay, Msg::Work { id: 0, count, work_secs });
    }

    /// The fault-tolerant request handler: dedup completions, serve the
    /// re-queue before the scheduler, park idle workers while chunks are
    /// still in flight.
    fn on_request_ft(&mut self, worker: usize, prev: Option<Completion>, ctx: &mut Ctx<'_, Msg>) {
        let queueing = self.serve(ctx.now());

        // 1. Completion handling with duplicate/stale detection: only the
        // report matching the worker's outstanding assignment id counts.
        if let Some(c) = prev {
            let ft = self.ft.as_mut().expect("ft handler");
            if ft.worker_chunk[worker] == Some(c.id) {
                let o = ft.outstanding.remove(&c.id).expect("tracked chunk");
                ctx.cancel_timer(o.timer);
                ft.worker_chunk[worker] = None;
                self.scheduler.record_completion(worker, c.chunk, c.elapsed);
                self.faults.completed_tasks += o.job.count;
            } else {
                self.faults.duplicate_completions += 1;
            }
        }

        let ft = self.ft.as_mut().expect("ft handler");

        // 2. A worker declared dead gets finalized if it turns out to still
        // be alive (e.g. it was only partitioned): its chunk has already
        // been re-queued, so there is nothing else to tell it.
        if ft.dead[worker] {
            self.finalize_worker(worker, queueing, ctx);
            return;
        }

        // 3. The worker retransmitted its request while its chunk is still
        // tracked (our Work reply was lost or is in flight): resend the same
        // assignment; the armed watchdog keeps running.
        if let Some(id) = ft.worker_chunk[worker] {
            let o = &ft.outstanding[&id];
            let msg = Msg::Work { id, count: o.job.count, work_secs: o.job.work_secs };
            let comm = self.work_comm;
            ctx.send(worker + 1, queueing.saturating_add(comm), msg);
            return;
        }

        // 4. Recovered chunks take priority over fresh scheduler output so
        // a failure cannot starve behind a long tail of small chunks.
        if let Some(job) = ft.requeue.pop_front() {
            self.note_reassignment(worker, &job, ctx.now());
            self.dispatch(worker, job, queueing, ctx);
            return;
        }

        if let Some(job) = self.fresh_chunk(worker) {
            self.dispatch(worker, job, queueing, ctx);
            return;
        }

        // 5. Scheduler drained. Finalize only when nothing is in flight or
        // awaiting reassignment — otherwise a failure could re-queue work
        // with no survivor left to take it.
        let ft = self.ft.as_mut().expect("ft handler");
        if ft.outstanding.is_empty() && ft.requeue.is_empty() {
            let parked: Vec<usize> = ft.parked.drain(..).collect();
            self.finalize_worker(worker, queueing, ctx);
            for w in parked {
                if w != worker {
                    self.finalize_worker(w, queueing, ctx);
                }
            }
        } else if !ft.parked.contains(&worker) {
            ft.parked.push_back(worker);
        }
    }
}

impl Actor<Msg> for Master {
    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Request { prev } = msg else {
            unreachable!("master only receives work requests");
        };
        let worker = from - 1; // actor ids: master 0, worker w at w+1
        if self.ft.is_some() {
            self.on_request_ft(worker, prev, ctx);
        } else {
            self.on_request_simple(worker, prev, ctx);
        }
    }

    /// Watchdog expiry for assignment `key`: re-request with exponential
    /// backoff, then declare the worker dead and re-queue its chunk.
    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        let queueing = self.serve(now);
        let comm = self.work_comm;
        let ft = self.ft.as_mut().expect("master timers exist only in ft mode");
        let (backoff, max_attempts) = (ft.recovery.backoff, ft.recovery.max_attempts);
        let Some(o) = ft.outstanding.get_mut(&key) else {
            // Completion raced the expiry inside one instant; nothing to do.
            return;
        };
        o.attempts += 1;
        if o.attempts <= max_attempts {
            // Re-request: resend the identical assignment and re-arm the
            // watchdog with an exponentially stretched budget. The retry is
            // traced before the send, whose engine events follow it.
            let (w, attempt) = (o.worker, o.attempts);
            self.tracer
                .emit(now.as_secs_f64(), TraceKind::MasterRetry { worker: w, id: key, attempt });
            let msg = Msg::Work { id: key, count: o.job.count, work_secs: o.job.work_secs };
            ctx.send(o.worker + 1, queueing.saturating_add(comm), msg);
            let stretched = o.base_timeout * backoff.powi(o.attempts as i32);
            let delay = queueing.saturating_add(SimTime::from_secs_f64(stretched));
            o.timer = ctx.set_cancellable_timer(delay, key);
            self.faults.master_retries += 1;
            return;
        }
        // Out of patience: declare the worker dead, recover the chunk and
        // hand it to a parked survivor if one is waiting.
        let o = ft.outstanding.remove(&key).expect("still tracked");
        ft.dead[o.worker] = true;
        ft.worker_chunk[o.worker] = None;
        ft.requeue.push_back(o.job);
        self.tracer.emit(now.as_secs_f64(), TraceKind::WorkerDeclaredDead { worker: o.worker });
        self.faults.detected_failures.push((o.worker, now.as_secs_f64()));
        let survivor = loop {
            match ft.parked.pop_front() {
                Some(w) if ft.dead[w] => continue,
                other => break other,
            }
        };
        if let Some(w) = survivor {
            let job =
                self.ft.as_mut().expect("ft handler").requeue.pop_front().expect("just pushed");
            self.note_reassignment(w, &job, now);
            self.dispatch(w, job, queueing, ctx);
        }
    }
}

/// A worker: request → execute → request, until finalized. It keeps its
/// own compute and finish-time totals, read by the driver after the run.
pub struct Worker {
    index: usize,
    /// Host speed × availability weight: the unit-speed work a nominal
    /// second of execution covers.
    rate: f64,
    perturbation: PerturbationModel,
    /// Transfer time of one Request message, precomputed once (the link and
    /// message sizes never change within a run).
    request_comm: SimTime,
    in_sim_h: f64,
    /// The chunk currently executing (set between Work and the timer).
    executing: Option<Completion>,
    /// Total computing time (task execution only), seconds.
    pub compute: f64,
    /// Time this worker's last chunk execution finished, seconds.
    pub last_finish: f64,
    /// Fault-tolerant mode only: retransmit unanswered requests.
    ft: Option<Box<WorkerFt>>,
    tracer: Tracer,
}

/// A worker's request-retransmit state, present only in fault-tolerant
/// mode, so a fault-free worker stays small.
struct WorkerFt {
    recovery: Recovery,
    /// `comm_time(request) + comm_time(work)`, seconds — the round-trip
    /// estimate behind the retransmit watchdog.
    round_comm_secs: f64,
    /// The request awaiting a master reply (payload kept for retransmits).
    outbox: Option<Option<Completion>>,
    retry_timer: Option<TimerId>,
    /// Current retransmit budget in seconds (grows by the backoff factor).
    retry_delay: f64,
    /// Requests retransmitted after the watchdog expired.
    retries: u64,
}

impl Worker {
    /// Builds worker `index` (platform host `index`, actor id `index + 1`).
    pub fn new(index: usize, spec: &SimSpec, tracer: Tracer) -> Self {
        let host = spec.platform.host(index);
        let link = spec.platform.link();
        let ft = (!spec.faults.is_none()).then(|| {
            Box::new(WorkerFt {
                recovery: spec.recovery,
                round_comm_secs: link.comm_time(spec.messages.request)
                    + link.comm_time(spec.messages.work),
                outbox: None,
                retry_timer: None,
                retry_delay: 0.0,
                retries: 0,
            })
        });
        Worker {
            index,
            rate: host.speed * host.availability.weight,
            perturbation: host.availability.perturbation.clone(),
            request_comm: SimTime::from_secs_f64(link.comm_time(spec.messages.request)),
            in_sim_h: spec.overhead.in_sim_h(),
            executing: None,
            compute: 0.0,
            last_finish: 0.0,
            ft,
            tracer,
        }
    }

    /// Requests this worker retransmitted (0 outside fault-tolerant mode).
    pub fn retries(&self) -> u64 {
        self.ft.as_ref().map_or(0, |ft| ft.retries)
    }

    fn send_request(&mut self, prev: Option<Completion>, ctx: &mut Ctx<'_, Msg>) {
        ctx.send(MASTER, self.request_comm, Msg::Request { prev });
        if let Some(ft) = self.ft.as_mut() {
            // Arm the request-retransmit watchdog: a lost request (or lost
            // reply) would otherwise idle this worker forever.
            ft.retry_delay = (ft.recovery.grace * ft.round_comm_secs).max(ft.recovery.min_timeout);
            ft.outbox = Some(prev);
            ft.retry_timer = Some(ctx.set_cancellable_timer(
                SimTime::from_secs_f64(ft.retry_delay),
                TIMER_REQUEST_RETRY,
            ));
        }
    }

    /// Disarms the retransmit watchdog once the master has replied.
    fn reply_received(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(ft) = self.ft.as_mut() {
            if let Some(t) = ft.retry_timer.take() {
                ctx.cancel_timer(t);
            }
            ft.outbox = None;
        }
    }
}

impl Actor<Msg> for Worker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.send_request(None, ctx);
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Work { id, count, work_secs } => {
                self.reply_received(ctx);
                if self.executing.is_some() {
                    // A master re-request raced our still-running execution;
                    // we will report the chunk when the timer fires.
                    return;
                }
                let now = ctx.now().as_secs_f64();
                // Nominal execution at the host's rated speed, corrected by
                // the availability model averaged over the execution window.
                // Unperturbed, that factor is exactly 1 and `x / 1.0 == x`,
                // so the division is skipped.
                let nominal = work_secs / self.rate;
                let exec = match &self.perturbation {
                    PerturbationModel::None => nominal,
                    model => {
                        let factor = model.average_factor(now, now + nominal);
                        nominal / factor.max(f64::MIN_POSITIVE)
                    }
                };
                self.compute += exec;
                self.executing = Some(Completion { id, chunk: count, elapsed: exec });
                self.tracer.emit(
                    now,
                    TraceKind::ChunkStarted {
                        worker: self.index,
                        id,
                        count,
                        exec_secs: self.in_sim_h + exec,
                    },
                );
                ctx.set_timer(SimTime::from_secs_f64(self.in_sim_h + exec), TIMER_CHUNK_DONE);
            }
            Msg::Finalize => {
                // Idle worker shuts down; nothing to schedule.
                self.tracer.emit(
                    ctx.now().as_secs_f64(),
                    TraceKind::WorkerFinalized { worker: self.index },
                );
                self.reply_received(ctx);
            }
            Msg::Request { .. } => unreachable!("workers never receive requests"),
        }
    }

    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, Msg>) {
        if key == TIMER_REQUEST_RETRY {
            // Still waiting for the master: retransmit with backoff.
            let ft = self.ft.as_mut().expect("retransmit timers exist only in ft mode");
            let Some(prev) = ft.outbox else { return };
            self.tracer
                .emit(ctx.now().as_secs_f64(), TraceKind::WorkerRetry { worker: self.index });
            ft.retries += 1;
            ctx.send(MASTER, self.request_comm, Msg::Request { prev });
            ft.retry_delay *= ft.recovery.backoff;
            ft.retry_timer = Some(ctx.set_cancellable_timer(
                SimTime::from_secs_f64(ft.retry_delay),
                TIMER_REQUEST_RETRY,
            ));
            return;
        }
        let done = self.executing.take().expect("timer fires only while executing");
        let now = ctx.now().as_secs_f64();
        self.tracer.emit(
            now,
            TraceKind::ChunkCompleted { worker: self.index, id: done.id, count: done.chunk },
        );
        // Virtual time never runs backwards, so this is the latest finish.
        self.last_finish = now;
        self.send_request(Some(done), ctx);
    }
}

/// Injects the plan's fail-stops: one timer per crash, killing the worker's
/// actor when it fires. Added to the engine only when the plan has
/// fail-stops, so fault-free runs carry no extra actor or events.
pub struct FaultInjector {
    /// `(worker, time)` pairs, index = timer key.
    schedule: Vec<(usize, SimTime)>,
    tracer: Tracer,
}

impl FaultInjector {
    /// Builds the injector from a sorted fail-stop schedule
    /// (see `FaultPlan::fail_stop_schedule`).
    pub fn new(schedule: Vec<(usize, SimTime)>, tracer: Tracer) -> Self {
        FaultInjector { schedule, tracer }
    }
}

impl Actor<Msg> for FaultInjector {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for (i, &(_, at)) in self.schedule.iter().enumerate() {
            ctx.set_timer(at, i as u64);
        }
    }

    fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
        unreachable!("nobody addresses the fault injector");
    }

    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, Msg>) {
        let (worker, _) = self.schedule[key as usize];
        self.tracer.emit(ctx.now().as_secs_f64(), TraceKind::WorkerFailStop { worker });
        ctx.kill(worker + 1);
    }
}

/// Every actor of one simulation, as one type: the engine dispatches a
/// `match` instead of a vtable call per event. The one master is boxed so
/// the enum, and the engine's actor `Vec`, are sized for a worker.
pub enum SimActor {
    /// Actor 0.
    Master(Box<Master>),
    /// Worker `w` is actor `w + 1`.
    Worker(Worker),
    /// The last actor, present only when the plan has fail-stops.
    Injector(FaultInjector),
}

impl Actor<Msg> for SimActor {
    #[inline]
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match self {
            SimActor::Master(a) => a.on_start(ctx),
            SimActor::Worker(a) => a.on_start(ctx),
            SimActor::Injector(a) => a.on_start(ctx),
        }
    }

    #[inline]
    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match self {
            SimActor::Master(a) => a.on_message(from, msg, ctx),
            SimActor::Worker(a) => a.on_message(from, msg, ctx),
            SimActor::Injector(a) => a.on_message(from, msg, ctx),
        }
    }

    #[inline]
    fn on_timer(&mut self, key: u64, ctx: &mut Ctx<'_, Msg>) {
        match self {
            SimActor::Master(a) => a.on_timer(key, ctx),
            SimActor::Worker(a) => a.on_timer(key, ctx),
            SimActor::Injector(a) => a.on_timer(key, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine's actor `Vec` holds one `SimActor` per worker and its
    /// slab one message per pending event: both stay small.
    #[test]
    fn actors_and_messages_stay_compact() {
        assert!(std::mem::size_of::<SimActor>() <= 128, "{}", std::mem::size_of::<SimActor>());
        assert_eq!(std::mem::size_of::<Msg>(), 32);
    }
}
