//! Fault injection on multi-controller machines: chaos plans route
//! through `Topology::partition` to the owning shard, coordination
//! faults quarantine exactly the controller they strike, chaotic runs
//! replay bit-identically, and durable sweeps (checkpoint/resume, deadlines) now cover
//! multi-controller cells too.

use std::path::PathBuf;
use tcm_chaos::{FaultKind, FaultPlan, FaultSpec};
use tcm_core::TcmParams;
use tcm_sim::{CellFailureKind, PolicyKind, RunConfig, Session, SweepResult, System};
use tcm_telemetry::{DegradationAnomaly, QuarantineReason};
use tcm_types::{ControllerId, Invariant, SimError, SystemConfig, Topology};
use tcm_workload::{random_workload, WorkloadSpec};

const HORIZON: u64 = 120_000;

fn cfg(threads: usize, topology: &str) -> SystemConfig {
    SystemConfig::builder()
        .num_threads(threads)
        .topology(Topology::parse(topology).expect("topology parses"))
        .build()
        .expect("config is valid")
}

/// TCM with quanta short enough that a test-sized horizon crosses
/// several meta-controller exchanges (and a quarantine round-trip).
fn fast_tcm(threads: usize) -> PolicyKind {
    PolicyKind::Tcm(TcmParams {
        quantum: 20_000,
        ..TcmParams::paper_default(threads)
    })
}

fn build(cfg: &SystemConfig, policy: &PolicyKind, workload: &WorkloadSpec) -> System {
    System::for_policy(cfg, workload, policy, 7)
}

/// A blackout that lands *after* the target controller's first clean
/// exchange (first boundary at 20k), so staleness is attributable.
fn blackout_on(controller: usize) -> FaultPlan {
    FaultPlan::none()
        .with_fault(FaultSpec::new(FaultKind::ControllerBlackout, 30_000).on_controller(controller))
}

#[test]
fn chaos_outcomes_replay_bit_identically() {
    let cfg = cfg(4, "2x2");
    let workload = random_workload(11, 4, 0.75);

    // Ok outcome: a quarantine round-trip replays exactly — the fault
    // fires at a barrier, never inside a window.
    let run_ok = || {
        let mut sys = build(&cfg, &fast_tcm(4), &workload);
        sys.install_chaos(&blackout_on(1));
        let result = sys.try_run(HORIZON).expect("quarantine is graceful");
        let events: Vec<String> = sys
            .degradation_events()
            .iter()
            .map(|a| a.to_string())
            .collect();
        (result, events)
    };
    let (base_result, base_events) = run_ok();
    assert!(!base_events.is_empty(), "the blackout must be detected");
    let (result, events) = run_ok();
    assert_eq!(result, base_result, "replay diverged");
    assert_eq!(events, base_events, "event log diverged on replay");

    // Err outcome: a channel fault on the *last* global channel is
    // detected identically — same violation, same site — on replay.
    let run_err = || {
        let mut sys = build(&cfg, &PolicyKind::FrFcfs, &workload);
        sys.install_chaos(
            &FaultPlan::none()
                .with_fault(FaultSpec::new(FaultKind::TimingViolation, 30_000).on_channel(3)),
        );
        sys.try_run(HORIZON)
            .expect_err("the fault must be detected")
    };
    let base_err = run_err();
    match &base_err {
        SimError::InvariantViolation(v) => assert_eq!(v.channel.index(), 3, "wrong site"),
        other => panic!("expected an invariant violation, got {other}"),
    }
    assert_eq!(run_err(), base_err, "error diverged on replay");
}

#[test]
fn zero_fault_plan_is_a_no_op_on_the_multi_engine() {
    let cfg = cfg(4, "2x2");
    let workload = random_workload(3, 4, 0.75);
    let mut bare = build(&cfg, &fast_tcm(4), &workload);
    bare.enable_verification();
    let baseline = bare.try_run(HORIZON).expect("clean run");

    let mut chaos = build(&cfg, &fast_tcm(4), &workload);
    chaos.install_chaos(&FaultPlan::none());
    let with_plan = chaos.try_run(HORIZON).expect("clean run");
    assert_eq!(baseline, with_plan, "empty plan must be a strict no-op");
    assert!(
        chaos.degradation_events().is_empty(),
        "no false quarantines on a clean run"
    );
}

/// The headline scenario: a blackout on one controller of a 2x2 machine
/// quarantines that controller alone — typed events name it, the run
/// completes, and after the configured clean quanta it is re-admitted.
#[test]
fn blackout_quarantines_only_the_struck_controller() {
    let cfg = cfg(4, "2x2");
    let workload = random_workload(5, 4, 0.75);
    let mut sys = build(&cfg, &fast_tcm(4), &workload);
    sys.install_chaos(&blackout_on(1));
    let run = sys
        .try_run(HORIZON)
        .expect("quarantine must not kill the run");
    assert!(run.total_serviced > 0, "the system kept serving memory");

    let events = sys.degradation_events();
    let mut quarantined = 0;
    let mut readmitted = 0;
    for event in events {
        match event {
            DegradationAnomaly::ControllerQuarantined {
                cycle,
                controller,
                reason,
            } => {
                assert_eq!(*controller, 1, "only the struck controller is quarantined");
                assert_eq!(*reason, QuarantineReason::StaleSample);
                assert_eq!(
                    *cycle, 40_000,
                    "detected at the first boundary after the fault"
                );
                quarantined += 1;
            }
            DegradationAnomaly::ControllerReadmitted {
                controller,
                clean_quanta,
                ..
            } => {
                assert_eq!(*controller, 1, "only the struck controller re-admits");
                assert_eq!(*clean_quanta, 2, "after the configured clean streak");
                readmitted += 1;
            }
            other => panic!("unexpected anomaly: {other}"),
        }
    }
    assert_eq!(quarantined, 1, "exactly one quarantine: {events:?}");
    assert_eq!(readmitted, 1, "exactly one re-admission: {events:?}");

    // The other three controllers never degraded: a run struck on mc1
    // differs from a clean run (mc1's quanta fell back to FR-FCFS), but
    // still completes with every request conserved.
    let mut clean = build(&cfg, &fast_tcm(4), &workload);
    clean.enable_verification();
    let clean_run = clean.try_run(HORIZON).expect("clean run");
    assert_eq!(run.retired.len(), clean_run.retired.len());
}

#[test]
fn scheduler_spin_stall_names_the_frozen_controller() {
    let cfg = cfg(4, "2x2");
    let workload = random_workload(1, 4, 1.0);
    let mut sys = build(&cfg, &PolicyKind::FrFcfs, &workload);
    sys.install_chaos(
        &FaultPlan::none()
            .with_fault(FaultSpec::new(FaultKind::SchedulerSpin, 30_000).on_controller(1)),
    );
    match sys
        .try_run(HORIZON)
        .expect_err("a spinning shard must be caught")
    {
        SimError::Stalled(report) => {
            assert_eq!(
                report.controller,
                Some(ControllerId::new(1)),
                "the stall is attributed to the spinning controller: {}",
                report.summary()
            );
            assert!(
                report.summary().contains("mc1"),
                "summary names the controller"
            );
        }
        other => panic!("expected Stalled, got {other}"),
    }
}

/// A spill flood trips the resource bound at its own cycle on a 2x2
/// machine, under every policy of the lineup. The phantoms are admitted
/// back to back: with a scheduling pass after each one, issued requests
/// freed buffer slots, the bound tripped late or not at all, and a
/// serviced phantom retired at a core that never issued it (a panic).
#[test]
fn spill_flood_trips_the_bound_at_its_cycle_under_every_policy() {
    let cfg = cfg(4, "2x2");
    let workload = random_workload(1, 4, 1.0);
    for policy in PolicyKind::paper_lineup(4) {
        for at in [20_300, 20_333, 20_370, 20_400] {
            let mut sys = System::for_policy(&cfg, &workload, &policy, 0);
            sys.install_chaos(&FaultPlan::single(FaultKind::SpillFlood, at));
            let label = policy.label();
            match sys.try_run(60_000) {
                Err(SimError::InvariantViolation(v)) => {
                    assert_eq!(
                        v.invariant,
                        Invariant::ResourceBound,
                        "{label} at {at}: {v}"
                    );
                    assert_eq!(v.cycle, at, "{label} at {at}: {v}");
                }
                other => panic!("{label} at {at}: expected the resource bound, got {other:?}"),
            }
        }
    }
}

#[test]
fn out_of_range_chaos_targets_are_rejected_up_front() {
    let topo = Topology::parse("2x2").expect("topology parses");

    // Channel index past the topology: typed error, field `chaos`.
    let plan = FaultPlan::none()
        .with_fault(FaultSpec::new(FaultKind::TimingViolation, 1_000).on_channel(4));
    let err = plan
        .validate(&topo)
        .expect_err("channel 4 of 4 is out of range");
    assert_eq!(
        err.field(),
        "chaos",
        "typed as a chaos-plan config error: {err}"
    );

    // Controller index past the topology — including on a flat machine,
    // where anything but controller 0 is meaningless.
    let plan = FaultPlan::none()
        .with_fault(FaultSpec::new(FaultKind::SchedulerSpin, 1_000).on_controller(2));
    assert!(
        plan.validate(&topo).is_err(),
        "controller 2 of 2 is out of range"
    );
    let flat = Topology::parse("4").expect("topology parses");
    assert!(plan.validate(&flat).is_err(), "a flat machine has only mc0");

    // End to end: a sweep refuses the cell with a typed failure instead
    // of silently clamping the target.
    let rc = RunConfig::builder()
        .system(cfg(4, "2x2"))
        .horizon(40_000)
        .chaos(Some(FaultPlan::none().with_fault(
            FaultSpec::new(FaultKind::TimingViolation, 1_000).on_channel(99),
        )))
        .build();
    let result = Session::new(rc)
        .sweep()
        .policies([PolicyKind::FrFcfs])
        .workloads([random_workload(0, 4, 0.75)])
        .run();
    assert!(!result.is_complete(), "the invalid plan must fail the cell");
    let failure = &result.failures()[0];
    assert!(
        matches!(&failure.kind, CellFailureKind::Sim(SimError::Config(_))),
        "typed rejection, not a crash: {failure}"
    );
}

/// Unique scratch path per test (the suite runs tests concurrently).
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tcm-ckpt-{}-{name}.jsonl", std::process::id()))
}

#[test]
fn chaotic_multi_sweep_resumes_bit_identically() {
    // Multi-controller cells now flow through the same durability path
    // as flat ones: checkpoint a chaos-bearing 2x2 sweep, emulate a kill
    // by truncating to a prefix, and resume into a fresh session.
    let run_config = || {
        RunConfig::builder()
            .system(cfg(4, "2x2"))
            .horizon(HORIZON)
            .chaos(Some(blackout_on(1)))
            .build()
    };
    let sweep_with = |session: &Session, checkpoint: Option<&PathBuf>| -> SweepResult {
        let mut sweep = session
            .sweep()
            .policies([fast_tcm(4), PolicyKind::FrFcfs])
            .workloads((0..2).map(|s| random_workload(s, 4, 0.75)))
            .seeds([0, 17]);
        if let Some(path) = checkpoint {
            sweep = sweep.checkpoint(path.clone());
        }
        sweep.run_parallel(2)
    };
    let path = scratch("chaos-multi");
    let _ = std::fs::remove_file(&path);

    let reference = sweep_with(&Session::new(run_config()), None);
    assert!(
        reference.is_complete(),
        "quarantine is graceful in every cell"
    );

    let first = sweep_with(&Session::new(run_config()), Some(&path));
    assert!(first.is_complete());
    let full = std::fs::read_to_string(&path).expect("checkpoint exists");
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), reference.cells().len());
    std::fs::write(&path, format!("{}\n", lines[..3].join("\n"))).expect("truncate checkpoint");

    let resumed = sweep_with(&Session::new(run_config()), Some(&path));
    assert!(resumed.is_complete());
    assert_eq!(resumed.stats().resumed, 3, "restored the surviving prefix");
    assert_eq!(
        resumed.cells(),
        reference.cells(),
        "merged result is bit-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_file(&path);
}
