//! Robustness-layer integration tests: the forward-progress watchdog,
//! the DRAM protocol checker's transparency, and panic isolation in
//! sweeps.

use tcm_core::TcmParams;
use tcm_sched::{FrFcfs, PickContext, Scheduler};
use tcm_sim::{PolicyKind, RunConfig, Session, System};
use tcm_types::{Cycle, Request, SimError, SystemConfig, Topology};
use tcm_workload::{random_workload, spec_by_name, WorkloadSpec};

fn cfg(threads: usize) -> SystemConfig {
    SystemConfig::builder()
        .num_threads(threads)
        .build()
        .expect("config is valid")
}

/// A deliberately broken policy: its `next_tick` violates the trait's
/// "strictly after `now`" contract, so the event loop would re-process
/// scheduler ticks at a frozen cycle forever.
#[derive(Debug)]
struct SpinningScheduler;

impl Scheduler for SpinningScheduler {
    fn name(&self) -> &'static str {
        "spin"
    }

    fn pick(&mut self, _pending: &[Request], _ctx: &PickContext) -> usize {
        0
    }

    fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        Some(now) // broken: must be strictly after `now`
    }
}

#[test]
fn watchdog_catches_a_same_cycle_livelock() {
    let c = cfg(2);
    let w = random_workload(0, 2, 0.75);
    let mut sys = System::new(&c, &w, Box::new(SpinningScheduler), 0);
    let err = sys
        .try_run(100_000)
        .expect_err("a spinning scheduler must be caught");
    match err {
        SimError::Stalled(report) => {
            assert!(!report.summary().is_empty(), "diagnostic must not be empty");
            assert!(
                report.events_since_retire > 0,
                "the spin shows up as events without retirement"
            );
        }
        other => panic!("expected Stalled, got {other}"),
    }
}

#[test]
fn watchdog_reports_missing_forward_progress() {
    // A healthy run with an absurdly tight stall limit: the first
    // hundreds-of-cycles DRAM round trip exceeds it, which exercises the
    // cycle-gap detection path and the diagnostic snapshot.
    let c = cfg(2);
    let w = random_workload(1, 2, 1.0);
    let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 0);
    sys.set_watchdog(Some(10));
    let err = sys.try_run(100_000).expect_err("limit 10 must trip");
    match err {
        SimError::Stalled(report) => {
            assert!(report.total_outstanding() > 0, "requests were in flight");
            assert!(report.now.saturating_sub(report.last_retire) > 10);
            let summary = report.summary();
            assert!(summary.contains("outstanding"), "summary: {summary}");
        }
        other => panic!("expected Stalled, got {other}"),
    }
    // The same run with the watchdog disabled finishes.
    let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 0);
    sys.set_watchdog(None);
    assert!(sys.try_run(100_000).is_ok());
}

#[test]
fn watchdog_counts_the_end_of_an_idle_stretch_as_progress() {
    // Table 8's povray at half its MPKI (0.005), alone: it computes for
    // more than the default 1M-cycle stall limit with nothing
    // outstanding. Measured from the last retirement alone, its next
    // miss looked like a stall; the burst that ends an idle stretch
    // restarts the count.
    let povray = spec_by_name("povray").expect("povray is a SPEC profile");
    let alone = WorkloadSpec::new("povray", vec![povray.with_mpki_scaled(0.5)]);
    let mut sys = System::new(&cfg(1), &alone, Box::new(FrFcfs::new()), 0);
    let run = sys
        .try_run(20_000_000)
        .expect("an idle stretch is not a stall");
    assert!(run.misses[0] > 0, "the run did miss");
    assert!((run.ipc[0] - 2.998).abs() < 5e-4, "IPC {}", run.ipc[0]);
    // The window loop's barrier check and window skipping read the
    // same mark.
    let two_by_two = SystemConfig::builder()
        .num_threads(1)
        .topology(Topology::uniform(2, 2))
        .build()
        .expect("config is valid");
    let mut sys = System::for_policy(&two_by_two, &alone, &PolicyKind::FrFcfs, 0);
    sys.try_run(20_000_000)
        .expect("an idle stretch is not a stall on 2x2");
}

#[test]
fn protocol_checker_is_observation_only() {
    let c = cfg(4);
    let w = random_workload(2, 4, 0.75);
    let mut with_checker = System::new(&c, &w, Box::new(FrFcfs::new()), 3);
    with_checker.set_verification(true);
    assert!(with_checker.verification_enabled());
    let mut without = System::new(&c, &w, Box::new(FrFcfs::new()), 3);
    without.set_verification(false);
    assert!(!without.verification_enabled());
    let checked = with_checker
        .try_run(150_000)
        .expect("the real channel obeys its own protocol");
    let unchecked = without.try_run(150_000).expect("healthy run");
    assert_eq!(checked, unchecked, "checker must not perturb results");
}

#[test]
fn paper_lineup_passes_verification() {
    let c = cfg(4);
    let w = random_workload(4, 4, 1.0);
    for policy in PolicyKind::paper_lineup(4) {
        let mut sys = System::new(&c, &w, policy.build(4, &c), 11);
        sys.set_verification(true);
        sys.try_run(120_000)
            .unwrap_or_else(|e| panic!("{}: {e}", policy.label()));
    }
}

/// `cluster_thresh` 0.0 fails `TcmParams::validate`, so building the
/// policy panics inside the sweep cell — a deterministic stand-in for
/// any mid-cell panic.
fn panicking_policy() -> PolicyKind {
    PolicyKind::Tcm(TcmParams {
        cluster_thresh: 0.0,
        ..TcmParams::paper_default(4)
    })
}

#[test]
fn sweep_isolates_a_panicking_cell() {
    let rc = RunConfig::builder().system(cfg(4)).horizon(60_000).build();
    let workloads = || (0..2).map(|s| random_workload(s, 4, 0.75));

    let session = Session::new(rc.clone());
    let mixed = session
        .sweep()
        .policies([PolicyKind::FrFcfs, panicking_policy(), PolicyKind::Fcfs])
        .workloads(workloads())
        .run_parallel(3);

    assert!(!mixed.is_complete());
    assert_eq!(mixed.failures().len(), 2, "one failure per workload");
    assert_eq!(mixed.stats().failed, 2);
    assert_eq!(mixed.cells().len(), 4, "healthy cells all survive");
    for failure in mixed.failures() {
        assert_eq!(failure.policy, 1);
        let text = failure.to_string();
        assert!(text.contains("panicked"), "failure text: {text}");
        assert!(text.contains("seed"), "failure text names the seed: {text}");
        assert!(mixed
            .try_get(failure.policy, failure.workload, failure.seed)
            .is_none());
    }

    // The surviving cells are bit-identical to a sweep that never
    // contained the poisoned policy.
    let clean = Session::new(rc)
        .sweep()
        .policies([PolicyKind::FrFcfs, PolicyKind::Fcfs])
        .workloads(workloads())
        .run();
    assert!(clean.is_complete());
    for w in 0..2 {
        assert_eq!(mixed.get(0, w, 0), clean.get(0, w, 0), "FR-FCFS");
        assert_eq!(mixed.get(2, w, 0), clean.get(1, w, 0), "FCFS");
    }
}

#[test]
fn sweep_surfaces_typed_sim_errors() {
    // An impossible watchdog limit turns every cell into a typed
    // `Stalled` failure rather than a panic.
    let rc = RunConfig::builder()
        .system(cfg(4))
        .horizon(60_000)
        .watchdog(Some(1))
        .build();
    let session = Session::new(rc);
    let result = session
        .sweep()
        .policies([PolicyKind::FrFcfs])
        .workloads([random_workload(0, 4, 1.0)])
        .run();
    assert_eq!(result.failures().len(), 1);
    let text = result.failures()[0].to_string();
    assert!(text.contains("stalled"), "failure text: {text}");
}
