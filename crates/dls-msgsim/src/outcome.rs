//! Simulation outcome and derived metrics.

use dls_metrics::{average_wasted_time, OverheadModel, ResourceSplit, RunCost};

/// Fault-injection and recovery counters for one run.
///
/// All-zero (the `Default`) for fault-free runs. Message-level counters come
/// from the engine; protocol-level counters from the fault-tolerant master
/// and workers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultStats {
    /// Messages dropped by the fault plan (loss draws + partitions).
    pub lost_messages: u64,
    /// Messages delivered late because of latency spikes.
    pub delayed_messages: u64,
    /// Deliveries and timers discarded because their target was killed.
    pub dead_letters: u64,
    /// Work re-requests the master sent after a chunk watchdog expired.
    pub master_retries: u64,
    /// Request retransmits workers sent after a reply watchdog expired.
    pub worker_retries: u64,
    /// Chunks recovered from declared-dead workers and re-dispatched.
    pub reassigned_chunks: u64,
    /// Tasks inside those reassigned chunks.
    pub reassigned_tasks: u64,
    /// Completion reports discarded as duplicates or stale (the chunk had
    /// already completed elsewhere, or the report was retransmitted).
    pub duplicate_completions: u64,
    /// Tasks whose completion the master accepted exactly once. Equals the
    /// loop size `n` whenever at least one worker survives.
    pub completed_tasks: u64,
    /// `(worker, time)` pairs for each worker the master declared dead.
    pub detected_failures: Vec<(usize, f64)>,
}

impl FaultStats {
    /// True when no fault manifested and no recovery action was taken.
    pub fn quiet(&self) -> bool {
        self.lost_messages == 0
            && self.delayed_messages == 0
            && self.dead_letters == 0
            && self.master_retries == 0
            && self.worker_retries == 0
            && self.reassigned_chunks == 0
            && self.duplicate_completions == 0
            && self.detected_failures.is_empty()
    }
}

/// The measurements produced by one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Time the last chunk execution finished (the application makespan),
    /// seconds.
    pub makespan: f64,
    /// Virtual time at which the simulation ended (makespan plus the final
    /// finalization message exchanges), seconds.
    pub sim_end: f64,
    /// Per-worker computing time, seconds.
    pub compute: Vec<f64>,
    /// Total scheduling operations (chunks assigned).
    pub chunks: u64,
    /// Per-worker chunk counts.
    pub chunks_per_worker: Vec<u64>,
    /// Serial execution time (sum of all task times at unit speed), seconds.
    pub serial_time: f64,
    /// Discrete events processed by the engine.
    pub events: u64,
    /// The overhead model the run was configured with.
    pub overhead: OverheadModel,
    /// Fault-injection and recovery counters (all zero when fault-free).
    pub faults: FaultStats,
}

impl SimOutcome {
    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.compute.len()
    }

    /// Speedup against the serial time (paper Figures 3–4).
    pub fn speedup(&self) -> f64 {
        dls_metrics::speedup(self.serial_time, self.makespan)
    }

    /// The run's average wasted time under the configured overhead model
    /// (paper Figures 5–8).
    pub fn average_wasted(&self) -> f64 {
        average_wasted_time(self.makespan, &self.compute, self.chunks, self.overhead)
    }

    /// Compute time spent beyond the useful serial work, seconds.
    ///
    /// Fault recovery re-executes chunks (a lost completion report, or a
    /// chunk started by a worker that then died), so the summed per-worker
    /// compute can exceed the serial time; the excess is the work wasted to
    /// failures. Zero for fault-free runs (up to rounding).
    pub fn wasted_work(&self) -> f64 {
        (self.compute.iter().sum::<f64>() - self.serial_time).max(0.0)
    }

    /// Converts to the metric crate's [`RunCost`].
    pub fn run_cost(&self) -> RunCost {
        RunCost { makespan: self.makespan, compute: self.compute.clone(), chunks: self.chunks }
    }

    /// Tzen & Ni resource split for this run.
    ///
    /// * `X` = total compute; `L` = serial time (no contention modeled, so
    ///   `X = L` up to host-speed scaling);
    /// * `O` = `h × chunks` (the scheduling state);
    /// * `W` = total idle time (the waiting state).
    pub fn resource_split(&self) -> ResourceSplit {
        let h = match self.overhead {
            OverheadModel::None => 0.0,
            OverheadModel::PostHocTotal { h } | OverheadModel::InDynamics { h } => h,
        };
        let compute: f64 = self.compute.iter().sum();
        let scheduling = h * self.chunks as f64;
        let span_total = self.makespan * self.compute.len() as f64;
        let waiting = (span_total - compute - scheduling).max(0.0);
        ResourceSplit {
            ideal_compute: self.serial_time,
            compute,
            scheduling,
            waiting,
            p: self.compute.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> SimOutcome {
        SimOutcome {
            makespan: 10.0,
            sim_end: 10.0,
            compute: vec![10.0, 8.0],
            chunks: 4,
            chunks_per_worker: vec![2, 2],
            serial_time: 18.0,
            events: 100,
            overhead: OverheadModel::PostHocTotal { h: 0.5 },
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn speedup_uses_serial_time() {
        assert!((outcome().speedup() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn average_wasted_applies_overhead() {
        // idle = (0 + 2)/2 = 1; + 0.5·4 = 3.
        assert!((outcome().average_wasted() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn resource_split_accounts_all_time() {
        let o = outcome();
        let s = o.resource_split();
        assert_eq!(s.p, 2);
        assert!((s.compute - 18.0).abs() < 1e-12);
        assert!((s.scheduling - 2.0).abs() < 1e-12);
        // span 20 − compute 18 − sched 2 = 0 waiting.
        assert!(s.waiting.abs() < 1e-12);
        let m = s.metrics();
        assert!(m.speedup <= 2.0 + 1e-12);
    }
}
