//! Detector-coverage matrix for the fault-injection layer: every
//! `tcm-chaos` fault class, injected end-to-end through a full
//! simulation, provokes exactly the detector it is mapped to — with the
//! correct invariant class and site — and a clean control run with the
//! detectors armed reports nothing.
//!
//! The zero-fault property is checked twice: once deterministically
//! against an explicit baseline, and once property-style across random
//! workloads (an installed-but-empty `FaultPlan` must be a strict
//! no-op, bit for bit).

use proptest::prelude::*;
use tcm_chaos::{FaultKind, FaultPlan, FaultSpec};
use tcm_core::TcmParams;
use tcm_sched::FrFcfs;
use tcm_sim::{PolicyKind, RunResult, System};
use tcm_types::{Cycle, Invariant, SimError, SystemConfig, Topology};
use tcm_workload::random_workload;

/// Single-channel pressure cooker: all traffic fights over one data
/// bus, so every channel-level fault has an eligible operation to
/// strike soon after it arms.
fn single_channel_cfg(threads: usize) -> SystemConfig {
    SystemConfig::builder()
        .num_threads(threads)
        .num_channels(1)
        .build()
        .expect("config is valid")
}

const FAULT_AT: Cycle = 20_000;
const HORIZON: Cycle = 200_000;

/// Runs a 4-thread, single-channel simulation under FR-FCFS with `plan`
/// installed (which also arms the protocol checker).
fn run_with_plan(plan: &FaultPlan) -> Result<RunResult, SimError> {
    let cfg = single_channel_cfg(4);
    let workload = random_workload(1, 4, 1.0);
    let mut sys = System::new(&cfg, &workload, Box::new(FrFcfs::new()), 0);
    sys.install_chaos(plan);
    sys.try_run(HORIZON)
}

/// Asserts that injecting `kind` surfaces an invariant violation of
/// class `expected` on the targeted channel, at or after the arm cycle.
fn assert_invariant_caught(kind: FaultKind, expected: Invariant) {
    let err = run_with_plan(&FaultPlan::single(kind, FAULT_AT))
        .expect_err("the injected fault must be detected");
    match err {
        SimError::InvariantViolation(v) => {
            assert_eq!(v.invariant, expected, "wrong detector class for {kind}");
            assert_eq!(v.channel.index(), 0, "wrong site for {kind}");
            assert!(
                v.cycle >= FAULT_AT,
                "{kind} detected at cycle {} before it armed at {FAULT_AT}",
                v.cycle
            );
            assert!(!v.detail.is_empty(), "violation must carry specifics");
        }
        other => panic!("expected an invariant violation for {kind}, got {other}"),
    }
}

#[test]
fn timing_violation_is_caught_by_the_bank_timing_invariant() {
    assert_invariant_caught(FaultKind::TimingViolation, Invariant::BankTiming);
}

#[test]
fn row_corruption_is_caught_by_the_row_state_invariant() {
    assert_invariant_caught(FaultKind::RowCorruption, Invariant::RowState);
}

#[test]
fn bus_overlap_is_caught_by_the_bus_overlap_invariant() {
    assert_invariant_caught(FaultKind::BusOverlap, Invariant::BusOverlap);
}

#[test]
fn duplicate_request_is_caught_by_the_conservation_invariant() {
    assert_invariant_caught(FaultKind::DuplicateRequest, Invariant::Conservation);
}

#[test]
fn dropped_request_is_caught_by_the_conservation_invariant() {
    assert_invariant_caught(FaultKind::DropRequest, Invariant::Conservation);
}

#[test]
fn spill_flood_is_caught_by_the_resource_bound_invariant() {
    assert_invariant_caught(FaultKind::SpillFlood, Invariant::ResourceBound);
}

#[test]
fn scheduler_spin_is_caught_by_the_livelock_watchdog() {
    let err = run_with_plan(&FaultPlan::single(FaultKind::SchedulerSpin, FAULT_AT))
        .expect_err("a spinning scheduler must be caught");
    match err {
        SimError::Stalled(report) => {
            assert!(!report.summary().is_empty(), "stall report must diagnose");
        }
        other => panic!("expected Stalled, got {other}"),
    }
}

/// A policy whose own timer is already due later (ATLAS's 10M-cycle
/// quantum, STFM's interval) must still spin at the fault's cycle: the
/// wrapper's first tick is what the run queues, on one controller or
/// several.
#[test]
fn scheduler_spin_engages_under_policies_with_timers() {
    let workload = random_workload(1, 4, 1.0);
    let policies = [
        PolicyKind::Atlas(tcm_sched::AtlasParams::paper_default()),
        PolicyKind::Stfm(tcm_sched::StfmParams::paper_default()),
    ];
    for topology in ["4", "2x2"] {
        let cfg = SystemConfig::builder()
            .num_threads(4)
            .topology(Topology::parse(topology).expect("topology parses"))
            .build()
            .expect("config is valid");
        for policy in &policies {
            let mut sys = System::for_policy(&cfg, &workload, policy, 0);
            sys.install_chaos(&FaultPlan::single(FaultKind::SchedulerSpin, FAULT_AT));
            match sys.try_run(HORIZON) {
                Err(SimError::Stalled(report)) => assert_eq!(
                    report.now,
                    FAULT_AT,
                    "{topology} {}: {}",
                    policy.label(),
                    report.summary()
                ),
                other => panic!(
                    "{topology} {}: expected Stalled, got {other:?}",
                    policy.label()
                ),
            }
        }
    }
}

#[test]
fn monitor_corruption_degrades_tcm_instead_of_failing_the_run() {
    // Short quantum so the corrupted counters reach a plausibility check
    // within a test-sized horizon.
    let params = TcmParams {
        quantum: 50_000,
        ..TcmParams::paper_default(4)
    };
    let cfg = single_channel_cfg(4);
    let workload = random_workload(1, 4, 1.0);
    let build = |chaos: bool| {
        let mut sys = System::new(&cfg, &workload, PolicyKind::Tcm(params).build(4, &cfg), 0);
        if chaos {
            sys.install_chaos(
                &FaultPlan::none()
                    .with_fault(FaultSpec::new(FaultKind::MonitorCorruption, 10_000).on_thread(1)),
            );
        } else {
            sys.enable_verification();
        }
        sys
    };

    let mut corrupted = build(true);
    let run = corrupted
        .try_run(HORIZON)
        .expect("degradation is graceful: the run itself completes");
    assert!(run.total_serviced > 0, "the system kept serving memory");
    let anomalies = corrupted.degradation_events();
    assert!(
        !anomalies.is_empty(),
        "the plausibility guard must log the anomaly"
    );
    assert!(
        anomalies[0]
            .to_string()
            .contains("implausible monitor data"),
        "anomaly names the cause: {}",
        anomalies[0]
    );

    let mut clean = build(false);
    clean.try_run(HORIZON).expect("control run is clean");
    assert!(
        clean.degradation_events().is_empty(),
        "no false positives on the clean control"
    );
}

#[test]
fn coordination_faults_are_inert_on_a_flat_machine() {
    // Blackout and skew strike the controller↔meta-controller exchange
    // at a quantum boundary; a flat single-controller machine has no such
    // exchange, so the two kinds must pass through a flat run without
    // detection — and without perturbing a single bit. Their detection
    // is covered end-to-end in `chaos_multi.rs`.
    let workload = random_workload(3, 4, 1.0);
    let cfg = single_channel_cfg(4);
    let mut bare = System::new(&cfg, &workload, Box::new(FrFcfs::new()), 0);
    bare.enable_verification();
    let baseline = bare.try_run(HORIZON).expect("clean run");
    for kind in FaultKind::ALL
        .into_iter()
        .filter(|k| k.is_coordination_fault())
    {
        let run = run_with_plan_seeded(&FaultPlan::single(kind, FAULT_AT), &workload);
        assert_eq!(baseline, run, "{kind} must be a no-op on a flat machine");
    }
}

#[test]
fn clean_control_run_reports_no_detections() {
    // Detectors armed, zero faults: the run must succeed.
    let run = run_with_plan(&FaultPlan::none()).expect("no false positives");
    assert!(run.total_serviced > 0);
}

#[test]
fn zero_fault_plan_is_bit_identical_to_no_chaos_layer() {
    let cfg = single_channel_cfg(4);
    let workload = random_workload(3, 4, 1.0);
    let mut bare = System::new(&cfg, &workload, Box::new(FrFcfs::new()), 0);
    bare.enable_verification();
    let baseline = bare.try_run(HORIZON).expect("clean run");
    let chaos = run_with_plan_seeded(&FaultPlan::none(), &workload);
    assert_eq!(baseline, chaos, "empty plan must be a strict no-op");
}

fn run_with_plan_seeded(plan: &FaultPlan, workload: &tcm_workload::WorkloadSpec) -> RunResult {
    let cfg = single_channel_cfg(workload.threads.len());
    let mut sys = System::new(&cfg, workload, Box::new(FrFcfs::new()), 0);
    sys.install_chaos(plan);
    sys.try_run(HORIZON).expect("clean run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form of the zero-fault guarantee, across workloads.
    #[test]
    fn zero_fault_plan_is_a_no_op_for_any_workload(seed in 0u64..64, tenths in 3u64..11) {
        let intensity = tenths as f64 / 10.0;
        let cfg = single_channel_cfg(4);
        let workload = random_workload(seed, 4, intensity);
        let mut bare = System::new(&cfg, &workload, Box::new(FrFcfs::new()), 0);
        bare.enable_verification();
        let baseline = bare.try_run(60_000).expect("clean run");
        let mut chaos = System::new(&cfg, &workload, Box::new(FrFcfs::new()), 0);
        chaos.install_chaos(&FaultPlan::none());
        let with_plan = chaos.try_run(60_000).expect("clean run");
        prop_assert_eq!(baseline, with_plan);
    }
}

#[test]
fn seeded_campaign_is_detected_and_replays_identically() {
    // A full campaign schedules every class at once; whichever detector
    // trips first wins, and equal seeds must reproduce the exact error.
    let cfg = single_channel_cfg(4);
    let workload = random_workload(1, 4, 1.0);
    let run = |plan: &FaultPlan| {
        let mut sys = System::new(&cfg, &workload, Box::new(FrFcfs::new()), 0);
        sys.install_chaos(plan);
        sys.try_run(HORIZON)
    };
    let plan = FaultPlan::campaign(7, HORIZON, 1, 4);
    let a = run(&plan).expect_err("a full campaign cannot pass unnoticed");
    let b = run(&FaultPlan::campaign(7, HORIZON, 1, 4)).expect_err("same seed, same campaign");
    assert_eq!(a, b, "campaign replay must be bit-identical");
}
