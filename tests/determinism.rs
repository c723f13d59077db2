//! End-to-end determinism: the simulator must be bit-reproducible, every
//! policy must see the identical workload trace, and parallel sweep
//! execution must be bit-identical to serial execution.

use tcm::sim::{PolicyKind, RunConfig, Session, System};
use tcm::types::SystemConfig;
use tcm::workload::random_workload;

fn small_system(threads: usize) -> SystemConfig {
    SystemConfig::builder().num_threads(threads).build().unwrap()
}

fn session(threads: usize, horizon: u64) -> Session {
    Session::new(
        RunConfig::builder()
            .system(small_system(threads))
            .horizon(horizon)
            .build(),
    )
}

#[test]
fn identical_runs_produce_identical_results() {
    let cfg = small_system(8);
    let workload = random_workload(11, 8, 0.75);
    let run = |seed| {
        let mut sys = System::new(&cfg, &workload, PolicyKind::FrFcfs.build(8, &cfg), seed);
        sys.run(400_000)
    };
    assert_eq!(run(3), run(3));
}

#[test]
fn different_seeds_differ() {
    let cfg = small_system(8);
    let workload = random_workload(11, 8, 0.75);
    let run = |seed| {
        let mut sys = System::new(&cfg, &workload, PolicyKind::FrFcfs.build(8, &cfg), seed);
        sys.run(400_000)
    };
    assert_ne!(run(3).retired, run(4).retired);
}

#[test]
fn eval_is_reproducible_across_calls_and_sessions() {
    let workload = random_workload(5, 6, 0.5);
    let s1 = session(6, 300_000);
    let a = s1.eval(&PolicyKind::FrFcfs, &workload);
    let b = s1.eval(&PolicyKind::FrFcfs, &workload);
    assert_eq!(a.metrics.weighted_speedup, b.metrics.weighted_speedup);
    assert_eq!(a.run, b.run);
    // A fresh session (empty cache) reproduces the same result.
    let c = session(6, 300_000).eval(&PolicyKind::FrFcfs, &workload);
    assert_eq!(a, c);
}

#[test]
fn policies_see_identical_traces() {
    // Each policy's run injects the same total misses for the same
    // workload: trace generation is independent of scheduling until
    // backpressure, and at this horizon backpressure differences only
    // affect in-flight tails.
    let s = session(4, 200_000);
    let workload = random_workload(9, 4, 0.25);
    let a = s.eval(&PolicyKind::FrFcfs, &workload);
    let b = s.eval(&PolicyKind::Fcfs, &workload);
    // Light workload: neither policy should starve anything badly, and
    // the per-thread miss totals should be near-identical.
    for (ma, mb) in a.run.misses.iter().zip(&b.run.misses) {
        let hi = (*ma).max(*mb) as f64;
        let lo = (*ma).min(*mb) as f64;
        assert!(lo / hi > 0.9, "trace divergence: {ma} vs {mb}");
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    // 3 policies x 4 workloads; the same grid run serially and sharded
    // across 4 workers must agree on every metric of every cell.
    let policies = || {
        vec![
            PolicyKind::Fcfs,
            PolicyKind::FrFcfs,
            PolicyKind::FairQueueing,
        ]
    };
    let workloads = || (0..4).map(|s| random_workload(s, 6, 0.75));

    let serial = session(6, 250_000)
        .sweep()
        .policies(policies())
        .workloads(workloads())
        .run();
    let parallel = session(6, 250_000)
        .sweep()
        .policies(policies())
        .workloads(workloads())
        .run_parallel(4);

    assert_eq!(serial.stats().cells, 12);
    assert_eq!(parallel.stats().workers, 4);
    for p in 0..3 {
        for w in 0..4 {
            let a = serial.get(p, w, 0);
            let b = parallel.get(p, w, 0);
            assert_eq!(a.metrics, b.metrics, "metrics differ at ({p},{w})");
            assert_eq!(a, b, "full cell differs at ({p},{w})");
        }
        assert_eq!(serial.policy_average(p), parallel.policy_average(p));
    }
    assert_eq!(serial.cells(), parallel.cells());
}
