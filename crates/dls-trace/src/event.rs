//! The trace event model.

/// One trace event: what happened, and when (virtual seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event, seconds.
    pub at: f64,
    /// What happened.
    pub kind: TraceKind,
}

/// The event vocabulary, covering the chunk lifecycle of the master–worker
/// protocol, message-level fates decided by the DES engine, and the
/// fault/recovery machinery.
///
/// `worker` fields are *worker/PE indices* (0-based, as in every outcome
/// vector); `from`/`to`/`actor` fields are raw DES actor ids (in
/// `dls-msgsim`, actor 0 is the master and worker `w` is actor `w + 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// The master performed one scheduling operation: it drew a fresh chunk
    /// from the technique and assigned it to a worker.
    ChunkAssigned {
        /// Executing worker index.
        worker: usize,
        /// Assignment id (0 in the fault-oblivious path, unique otherwise).
        id: u64,
        /// First task index of the chunk.
        start: u64,
        /// Number of tasks in the chunk.
        count: u64,
        /// Sum of the chunk's task times at unit speed, seconds.
        work_secs: f64,
    },
    /// A worker began executing a chunk.
    ChunkStarted {
        /// Worker index.
        worker: usize,
        /// Assignment id echoed from the work message.
        id: u64,
        /// Number of tasks in the chunk.
        count: u64,
        /// Execution time the chunk will take on this worker, seconds.
        exec_secs: f64,
    },
    /// A worker finished executing a chunk.
    ChunkCompleted {
        /// Worker index.
        worker: usize,
        /// Assignment id.
        id: u64,
        /// Number of tasks in the chunk.
        count: u64,
    },
    /// A chunk recovered from a declared-dead worker was re-dispatched.
    ChunkReassigned {
        /// The surviving worker receiving the chunk.
        worker: usize,
        /// First task index of the chunk.
        start: u64,
        /// Number of tasks in the chunk.
        count: u64,
    },
    /// A message was handed to the engine for delivery.
    MsgSent {
        /// Sending actor id.
        from: usize,
        /// Receiving actor id.
        to: usize,
        /// Scheduled delivery time, seconds.
        deliver_at: f64,
        /// Engine sequence number of the delivery event.
        seq: u64,
    },
    /// A message reached its target and its callback ran.
    MsgDelivered {
        /// Sending actor id.
        from: usize,
        /// Receiving actor id.
        to: usize,
    },
    /// The interceptor discarded a message (lossy link / partition).
    MsgDropped {
        /// Sending actor id.
        from: usize,
        /// Receiving actor id.
        to: usize,
    },
    /// The interceptor postponed a message (latency spike).
    MsgDelayed {
        /// Sending actor id.
        from: usize,
        /// Receiving actor id.
        to: usize,
        /// Extra delay added on top of the nominal delivery time, seconds.
        extra: f64,
    },
    /// A timer fired and its callback ran.
    TimerFired {
        /// Owning actor id.
        actor: usize,
        /// Timer key.
        key: u64,
    },
    /// An actor was fail-stopped.
    ActorKilled {
        /// The killed actor id.
        victim: usize,
    },
    /// A delivery or timer was discarded because its target was dead.
    DeadLetter {
        /// The dead target's actor id.
        to: usize,
    },
    /// The fault plan crashed a worker (worker-index view of
    /// [`TraceKind::ActorKilled`]).
    WorkerFailStop {
        /// Crashed worker index.
        worker: usize,
    },
    /// A chunk watchdog expired and the master re-requested the chunk.
    MasterRetry {
        /// Worker the chunk is outstanding on.
        worker: usize,
        /// Assignment id.
        id: u64,
        /// Expiries so far for this chunk (1 = first retry).
        attempt: u32,
    },
    /// A worker's reply watchdog expired and it retransmitted its request.
    WorkerRetry {
        /// Retransmitting worker index.
        worker: usize,
    },
    /// The master gave up on a worker and declared it dead.
    WorkerDeclaredDead {
        /// The abandoned worker index.
        worker: usize,
    },
    /// The master sent a finalization message to a worker.
    WorkerFinalized {
        /// Finalized worker index.
        worker: usize,
    },
}

/// One scheduling operation, as a [`TraceKind::ChunkAssigned`] event
/// records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkAssignment {
    /// Virtual time of the assignment, seconds.
    pub at: f64,
    /// Executing worker index.
    pub worker: usize,
    /// First task index of the chunk.
    pub start: u64,
    /// Number of tasks in the chunk.
    pub count: u64,
}

impl TraceEvent {
    /// The chunk assignment this event records, if it is a
    /// [`TraceKind::ChunkAssigned`].
    pub fn chunk_assignment(&self) -> Option<ChunkAssignment> {
        match self.kind {
            TraceKind::ChunkAssigned { worker, start, count, .. } => {
                Some(ChunkAssignment { at: self.at, worker, start, count })
            }
            _ => None,
        }
    }
}

impl TraceKind {
    /// The worker/PE index this event belongs to, if it is PE-scoped.
    pub fn worker(&self) -> Option<usize> {
        match *self {
            TraceKind::ChunkAssigned { worker, .. }
            | TraceKind::ChunkStarted { worker, .. }
            | TraceKind::ChunkCompleted { worker, .. }
            | TraceKind::ChunkReassigned { worker, .. }
            | TraceKind::WorkerFailStop { worker }
            | TraceKind::MasterRetry { worker, .. }
            | TraceKind::WorkerRetry { worker }
            | TraceKind::WorkerDeclaredDead { worker }
            | TraceKind::WorkerFinalized { worker } => Some(worker),
            _ => None,
        }
    }

    /// A short, stable label for exporters.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::ChunkAssigned { .. } => "chunk_assigned",
            TraceKind::ChunkStarted { .. } => "chunk_started",
            TraceKind::ChunkCompleted { .. } => "chunk_completed",
            TraceKind::ChunkReassigned { .. } => "chunk_reassigned",
            TraceKind::MsgSent { .. } => "msg_sent",
            TraceKind::MsgDelivered { .. } => "msg_delivered",
            TraceKind::MsgDropped { .. } => "msg_dropped",
            TraceKind::MsgDelayed { .. } => "msg_delayed",
            TraceKind::TimerFired { .. } => "timer_fired",
            TraceKind::ActorKilled { .. } => "actor_killed",
            TraceKind::DeadLetter { .. } => "dead_letter",
            TraceKind::WorkerFailStop { .. } => "worker_fail_stop",
            TraceKind::MasterRetry { .. } => "master_retry",
            TraceKind::WorkerRetry { .. } => "worker_retry",
            TraceKind::WorkerDeclaredDead { .. } => "worker_declared_dead",
            TraceKind::WorkerFinalized { .. } => "worker_finalized",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_scoping() {
        assert_eq!(
            TraceKind::ChunkStarted { worker: 3, id: 0, count: 1, exec_secs: 1.0 }.worker(),
            Some(3)
        );
        assert_eq!(TraceKind::MsgDropped { from: 0, to: 1 }.worker(), None);
        assert_eq!(TraceKind::WorkerRetry { worker: 7 }.worker(), Some(7));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TraceKind::ActorKilled { victim: 1 }.label(), "actor_killed");
        assert_eq!(
            TraceKind::ChunkReassigned { worker: 0, start: 0, count: 1 }.label(),
            "chunk_reassigned"
        );
    }
}
