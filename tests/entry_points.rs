//! One input table for every simulator entry point.
//!
//! Invalid inputs must come back as a typed [`SetupError`] — never a panic,
//! never a silent run — from each of `simulate_with_tasks`,
//! `simulate_with_scheduler_metered`, `DirectSimulator::run` and
//! `BatchDirectSimulator::run_batch`. The msgsim side takes its workload
//! and platform from JSON, as a spec file would: deserialization skips the
//! constructors' validation, so `SimSpec::check` is the only line of
//! defence there. Degenerate but valid inputs must run on all three
//! simulators, conserve every task and agree on the chunk count.

use dls_core::{LoopSetup, SetupError, Technique};
use dls_faults::FaultPlan;
use dls_hagerup::{BatchDirectSimulator, DirectSimulator};
use dls_metrics::OverheadModel;
use dls_msgsim::{simulate_with_scheduler_metered, simulate_with_tasks, SimSpec};
use dls_platform::{LinkSpec, Platform};
use dls_telemetry::Telemetry;
use dls_trace::Tracer;
use dls_workload::{TaskTimes, Workload};
use std::cell::RefCell;
use std::rc::Rc;

const EXP_8: &str = r#"{"n":8,"model":{"Exponential":{"mean":1.0}}}"#;

/// A `p`-host star, `p = 0` included (which `Platform::new` refuses, but a
/// spec file can still describe).
fn platform(p: usize) -> Platform {
    let one = Platform::homogeneous_star("pe", p.max(1), 1.0, LinkSpec::negligible());
    if p > 0 {
        return one;
    }
    let json = serde_json::to_string(&one).unwrap();
    let rest = &json[json.find("\"topology\"").expect("platform serializes its topology")..];
    serde_json::from_str(&format!("{{\"hosts\":[],{rest}")).unwrap()
}

/// One invalid input, in msgsim form and (where the direct simulators have
/// the concept) in direct form.
struct Invalid {
    name: &'static str,
    /// The error every entry point must return (compared by variant).
    want: SetupError,
    spec: SimSpec,
    tasks: TaskTimes,
    /// `None` when the input has no direct-simulator analog (fault plans
    /// exist only in the message-passing model).
    direct: Option<(LoopSetup, TaskTimes)>,
}

/// `tasks` is the realization length both forms receive.
fn invalid(
    name: &'static str,
    want: SetupError,
    workload_json: &str,
    p: usize,
    h: f64,
    tasks: usize,
    direct: Option<LoopSetup>,
) -> Invalid {
    let workload: Workload = serde_json::from_str(workload_json).unwrap();
    let spec = SimSpec::new(Technique::Fac2, workload, platform(p))
        .with_overhead(OverheadModel::PostHocTotal { h });
    let tasks = TaskTimes::new(vec![1.0; tasks]);
    let direct = direct.map(|setup| (setup, tasks.clone()));
    Invalid { name, want, spec, tasks, direct }
}

fn invalid_inputs() -> Vec<Invalid> {
    let ok = |n: u64, p: usize| LoopSetup::new(n, p).with_moments(1.0, 1.0).with_overhead(0.5);
    let bad_moment = SetupError::BadMoment("");
    let bad_param = SetupError::BadParam("");
    let mut missing_worker = invalid("missing worker", bad_param.clone(), EXP_8, 2, 0.5, 8, None);
    missing_worker.spec.faults = FaultPlan::none().with_fail_stop(5, 1.0);
    vec![
        invalid(
            "n = 0",
            SetupError::NoTasks,
            r#"{"n":0,"model":{"Exponential":{"mean":1.0}}}"#,
            2,
            0.5,
            0,
            Some(ok(0, 2)),
        ),
        invalid("p = 0", SetupError::NoPes, EXP_8, 0, 0.5, 8, Some(ok(8, 0))),
        // An empty trace has a 0/0 mean: the JSON form of a NaN mean.
        invalid(
            "NaN mean",
            bad_moment.clone(),
            r#"{"n":8,"model":{"Trace":{"times":[]}}}"#,
            2,
            0.5,
            8,
            Some(ok(8, 2).with_moments(f64::NAN, 1.0)),
        ),
        invalid(
            "negative mean",
            bad_moment.clone(),
            r#"{"n":8,"model":{"Exponential":{"mean":-1.0}}}"#,
            2,
            0.5,
            8,
            Some(ok(8, 2).with_moments(-1.0, 1.0)),
        ),
        // A spec's σ is a square root, so its invalid form is the NaN of a
        // negative variance (gamma with shape · scale² < 0).
        invalid(
            "sigma < 0",
            bad_moment,
            r#"{"n":8,"model":{"Gamma":{"shape":-1.0,"scale":-1.0}}}"#,
            2,
            0.5,
            8,
            Some(ok(8, 2).with_moments(1.0, -1.0)),
        ),
        invalid(
            "NaN h",
            SetupError::BadOverhead,
            EXP_8,
            2,
            f64::NAN,
            8,
            Some(ok(8, 2).with_overhead(f64::NAN)),
        ),
        invalid("tasks length", bad_param, EXP_8, 2, 0.5, 7, Some(ok(8, 2))),
        missing_worker,
    ]
}

fn expect_err<T: std::fmt::Debug>(row: &Invalid, entry: &str, result: Result<T, SetupError>) {
    match result {
        Err(e) => assert_eq!(
            std::mem::discriminant(&e),
            std::mem::discriminant(&row.want),
            "{}: {entry} refused for the wrong reason: {e}",
            row.name
        ),
        Ok(out) => panic!("{}: {entry} accepted the input: {out:?}", row.name),
    }
}

#[test]
fn invalid_inputs_are_typed_errors_at_every_entry_point() {
    let off = (&Tracer::disabled(), &Telemetry::disabled());
    for row in invalid_inputs() {
        expect_err(
            &row,
            "simulate_with_tasks",
            simulate_with_tasks(&row.spec, &row.tasks, off.0, off.1),
        );
        let held = LoopSetup::new(8, 2).with_moments(1.0, 1.0);
        let scheduler = Rc::new(RefCell::new(Technique::Fac2.build(&held).unwrap()));
        expect_err(
            &row,
            "simulate_with_scheduler_metered",
            simulate_with_scheduler_metered(&row.spec, &row.tasks, scheduler, off.0, off.1),
        );
        let Some((setup, tasks)) = &row.direct else { continue };
        let overhead = OverheadModel::PostHocTotal { h: setup.h };
        let direct = DirectSimulator::new(setup.p, overhead);
        expect_err(&row, "DirectSimulator::run", direct.run(Technique::Fac2, setup, tasks));
        let batch = BatchDirectSimulator::new(setup.p, overhead);
        let pair = [tasks.clone(), tasks.clone()];
        expect_err(&row, "run_batch", batch.run_batch(Technique::Fac2, setup, &pair));
    }
}

#[test]
fn degenerate_valid_inputs_conserve_tasks_and_agree_on_chunks() {
    let exp = |n| Workload::exponential(n, 1.0).unwrap();
    let rows = [
        ("sigma = 0", Workload::constant(64, 1.0), 4, 0.5),
        ("h = 0", exp(64), 4, 0.0),
        ("n < p", exp(3), 8, 0.5),
        ("n = 1", exp(1), 4, 0.5),
    ];
    for (name, workload, p, h) in rows {
        let overhead = OverheadModel::PostHocTotal { h };
        let n = workload.n();
        let tasks = [workload.generate(1), workload.generate(2)];
        for technique in Technique::hagerup_set() {
            let spec = SimSpec::new(
                technique,
                workload.clone(),
                Platform::homogeneous_star("pe", p, 1.0, LinkSpec::negligible()),
            )
            .with_overhead(overhead);
            let setup = spec.loop_setup();
            let msg =
                simulate_with_tasks(&spec, &tasks[0], &Tracer::disabled(), &Telemetry::disabled())
                    .unwrap_or_else(|e| panic!("{name} {technique}: msgsim refused: {e}"));
            let direct = DirectSimulator::new(p, overhead).run(technique, &setup, &tasks[0]);
            let direct = direct.unwrap_or_else(|e| panic!("{name} {technique}: direct: {e}"));
            let batched =
                BatchDirectSimulator::new(p, overhead).run_batch(technique, &setup, &tasks);
            let batched = batched.unwrap_or_else(|e| panic!("{name} {technique}: batch: {e}"));

            assert_eq!(msg.faults.completed_tasks, n, "{name} {technique}: msgsim lost tasks");
            assert_eq!(direct.tasks_per_pe.iter().sum::<u64>(), n, "{name} {technique}: direct");
            for lane in &batched {
                assert_eq!(lane.tasks_per_pe.iter().sum::<u64>(), n, "{name} {technique}: batch");
            }
            assert_eq!(msg.chunks, direct.chunks, "{name} {technique}: msgsim vs direct chunks");
            assert_eq!(batched[0], direct, "{name} {technique}: batch lane 0 vs scalar");
        }
    }
}
