//! Simulation specification: the full "information required for performing
//! a DLS simulation" of paper Figure 2.

use dls_core::{ChunkScheduler, LoopSetup, SetupError, Technique};
use dls_faults::FaultPlan;
use dls_metrics::OverheadModel;
use dls_platform::Platform;
use dls_workload::Workload;
use std::cell::RefCell;
use std::rc::Rc;

/// Recovery-protocol tuning for the fault-tolerant master and workers.
///
/// Only consulted when the spec's [`FaultPlan`] is non-empty; a fault-free
/// run never arms a watchdog, so these values cannot perturb it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recovery {
    /// Multiplier on the estimated chunk round-trip time (work message +
    /// execution + overhead + report) when arming a chunk watchdog, and on
    /// the request round-trip for worker retransmits. Values well above 1
    /// tolerate perturbation-slowed executions without spurious retries.
    pub grace: f64,
    /// Floor for any watchdog, seconds (protects negligible-latency links).
    pub min_timeout: f64,
    /// Exponential factor stretching the budget after each expiry.
    pub backoff: f64,
    /// Watchdog expiries tolerated per chunk before the master declares the
    /// worker dead and re-queues its chunk for reassignment.
    pub max_attempts: u32,
}

impl Default for Recovery {
    fn default() -> Self {
        Recovery { grace: 3.0, min_timeout: 1e-3, backoff: 2.0, max_attempts: 3 }
    }
}

/// Control-message sizes in bytes (paper: data is replicated, so messages
/// carry only scheduling control information).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    /// A worker's work-request message.
    pub request: u64,
    /// The master's work (chunk assignment) message.
    pub work: u64,
    /// The master's finalization message.
    pub finalize: u64,
}

impl Default for MessageSizes {
    fn default() -> Self {
        // A few cache lines of control data, as an MSG task descriptor
        // without payload would be.
        MessageSizes { request: 64, work: 64, finalize: 64 }
    }
}

/// Everything one simulated execution needs (Figure 2: application
/// information + system information + execution information).
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// The DLS technique under test.
    pub technique: Technique,
    /// The application's workload (task count + time model).
    pub workload: Workload,
    /// The system (hosts + network).
    pub platform: Platform,
    /// How the scheduling overhead `h` is accounted.
    pub overhead: OverheadModel,
    /// Control-message sizes.
    pub messages: MessageSizes,
    /// Master-side service time per scheduling request, seconds.
    ///
    /// Zero models SimGrid-MSG's instantaneous master (the paper's
    /// Figures 3b/4b). A positive value serializes scheduling decisions —
    /// the analog of the shared-loop-index critical section / GSS locking
    /// on the original BBN GP-1000, which the paper names as the likely
    /// cause of the failed SS/GSS(1) reproduction. With it, the degraded
    /// curves of Figures 3a/4a re-emerge (see `dls-repro::tss_exp`).
    pub master_service: f64,
    /// Faults injected into the run ([`FaultPlan::none`] = fault-free; the
    /// simulation is then byte-identical to one without fault machinery).
    pub faults: FaultPlan,
    /// Recovery-protocol tuning (watchdog grace, backoff, retry budget).
    pub recovery: Recovery,
}

impl SimSpec {
    /// Creates a spec with no overhead accounting and default message sizes.
    pub fn new(technique: Technique, workload: Workload, platform: Platform) -> Self {
        SimSpec {
            technique,
            workload,
            platform,
            overhead: OverheadModel::None,
            messages: MessageSizes::default(),
            master_service: 0.0,
            faults: FaultPlan::none(),
            recovery: Recovery::default(),
        }
    }

    /// Sets the fault plan (builder style). A non-empty plan switches the
    /// master and workers into fault-tolerant mode.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the overhead model (builder style).
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the master-side per-request service time (builder style).
    pub fn with_master_service(mut self, service: f64) -> Self {
        self.master_service = service;
        self
    }

    /// Number of worker PEs (every platform host runs one worker).
    pub fn num_workers(&self) -> usize {
        self.platform.num_hosts()
    }

    /// The `h` relevant for chunk-size formulas (FSC, BOLD): either model's
    /// per-operation overhead.
    pub fn overhead_h(&self) -> f64 {
        match self.overhead {
            OverheadModel::None => 0.0,
            OverheadModel::PostHocTotal { h } | OverheadModel::InDynamics { h } => h,
        }
    }

    /// Derives the a-priori loop information handed to the technique.
    ///
    /// Weights come from the platform's host speeds when they are not all
    /// equal (the WF/AWF heterogeneous case).
    pub fn loop_setup(&self) -> LoopSetup {
        let speeds = self.platform.speeds();
        let heterogeneous = speeds.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-12);
        let mut setup = LoopSetup::new(self.workload.n(), self.num_workers())
            .with_moments(self.workload.mean(), self.workload.std_dev())
            .with_overhead(self.overhead_h());
        if heterogeneous {
            setup = setup.with_weights(speeds);
        }
        setup
    }

    /// Decides whether this spec is runnable — the one check every
    /// simulation entry point and every campaign's up-front validation
    /// share. It rejects an invalid [`LoopSetup`] (n = 0, p = 0, bad
    /// moments or `h`), an invalid technique parameter, an inconsistent
    /// fault plan, and a plan that names a worker the platform lacks.
    ///
    /// Returns the scheduler a run starts with: `held` when the caller
    /// keeps its own scheduler across runs (its technique is then the
    /// caller's business), otherwise a fresh one built from `technique` —
    /// so no run builds a scheduler twice. A campaign checking a spec up
    /// front passes `None` and drops the result.
    pub fn check(
        &self,
        held: Option<Rc<RefCell<Box<dyn ChunkScheduler>>>>,
    ) -> Result<Rc<RefCell<Box<dyn ChunkScheduler>>>, SetupError> {
        let setup = self.loop_setup();
        let scheduler = match held {
            Some(scheduler) => {
                setup.validate()?;
                scheduler
            }
            None => Rc::new(RefCell::new(self.technique.build(&setup)?)),
        };
        if self.faults.validate().is_err() {
            return Err(SetupError::BadParam("invalid fault plan"));
        }
        if self.faults.max_worker().is_some_and(|w| w >= self.num_workers()) {
            return Err(SetupError::BadParam("fault plan references a worker the platform lacks"));
        }
        Ok(scheduler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_platform::LinkSpec;

    #[test]
    fn loop_setup_derivation() {
        let spec = SimSpec::new(
            Technique::Fac,
            Workload::exponential(1024, 1.0).unwrap(),
            Platform::homogeneous_star("w", 8, 1.0, LinkSpec::negligible()),
        )
        .with_overhead(OverheadModel::PostHocTotal { h: 0.5 });
        let s = spec.loop_setup();
        assert_eq!(s.n, 1024);
        assert_eq!(s.p, 8);
        assert_eq!(s.h, 0.5);
        assert_eq!(s.mean, 1.0);
        assert_eq!(s.sigma, 1.0);
        assert!(s.weights.is_none(), "homogeneous platform has no weights");
    }

    #[test]
    fn heterogeneous_platform_supplies_weights() {
        let spec = SimSpec::new(
            Technique::Wf,
            Workload::constant(100, 1.0),
            Platform::weighted_star("w", &[1.0, 2.0], 1.0, LinkSpec::negligible()).unwrap(),
        );
        let s = spec.loop_setup();
        assert_eq!(s.weights, Some(vec![1.0, 2.0]));
    }

    #[test]
    fn overhead_h_extraction() {
        let base = SimSpec::new(
            Technique::SS,
            Workload::constant(1, 1.0),
            Platform::homogeneous_star("w", 1, 1.0, LinkSpec::negligible()),
        );
        assert_eq!(base.overhead_h(), 0.0);
        assert_eq!(
            base.clone().with_overhead(OverheadModel::PostHocTotal { h: 0.5 }).overhead_h(),
            0.5
        );
        assert_eq!(base.with_overhead(OverheadModel::InDynamics { h: 0.25 }).overhead_h(), 0.25);
    }

    #[test]
    fn default_message_sizes_are_small() {
        let m = MessageSizes::default();
        assert!(m.request <= 1024 && m.work <= 1024 && m.finalize <= 1024);
    }
}
