//! Sanity of the slowdown/metric pipeline: alone runs, contention, and
//! metric identities.

use tcm::sim::{PolicyKind, RunConfig, Session};
use tcm::types::SystemConfig;
use tcm::workload::{random_workload, BenchmarkProfile, WorkloadSpec};

#[test]
fn solo_thread_has_unit_slowdown() {
    // A "workload" of one thread is its own alone run: slowdown == 1.
    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::builder().num_threads(1).build().unwrap())
            .horizon(400_000)
            .build(),
    );
    let profile = tcm::workload::spec_by_name("libquantum").unwrap();
    let workload = WorkloadSpec::new("solo", vec![profile]);
    let r = session.eval(&PolicyKind::FrFcfs, &workload);
    // Not exactly 1.0: the alone cache uses its own seed; the tolerance
    // bounds the statistical wobble of the generator.
    assert!(
        (r.slowdowns[0] - 1.0).abs() < 0.15,
        "solo slowdown {} should be ~1",
        r.slowdowns[0]
    );
}

#[test]
fn compute_only_threads_never_slow_down() {
    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::builder().num_threads(4).build().unwrap())
            .horizon(300_000)
            .build(),
    );
    let mut threads = vec![BenchmarkProfile::new("idle", 0.0, 0.5, 1.0)];
    for _ in 0..3 {
        threads.push(BenchmarkProfile::random_access());
    }
    let workload = WorkloadSpec::new("idle-mix", threads);
    let r = session.eval(&PolicyKind::FrFcfs, &workload);
    assert!(
        (r.slowdowns[0] - 1.0).abs() < 1e-9,
        "compute-only thread is unaffected"
    );
}

#[test]
fn contention_produces_slowdowns_and_valid_metrics() {
    let threads = 12;
    let session = Session::new(
        RunConfig::builder()
            .system(
                SystemConfig::builder()
                    .num_threads(threads)
                    .build()
                    .unwrap(),
            )
            .horizon(500_000)
            .build(),
    );
    let workload = random_workload(2, threads, 1.0);
    let r = session.eval(&PolicyKind::FrFcfs, &workload);
    assert!(r.metrics.max_slowdown > 1.5, "full intensity must contend");
    assert!(r.metrics.weighted_speedup > 0.0);
    assert!(r.metrics.weighted_speedup <= threads as f64 + 1e-9);
    assert!(r.metrics.harmonic_speedup > 0.0);
    assert!(r.metrics.harmonic_speedup <= 1.2);
    // Max slowdown is the max of the per-thread slowdowns.
    let max = r.slowdowns.iter().cloned().fold(f64::MIN, f64::max);
    assert!((max - r.metrics.max_slowdown).abs() < 1e-9);
}

#[test]
fn alone_cache_is_reused_across_policies() {
    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::builder().num_threads(4).build().unwrap())
            .horizon(200_000)
            .build(),
    );
    let workload = random_workload(3, 4, 0.5);
    session.eval(&PolicyKind::FrFcfs, &workload);
    let after_first = session.alone_cache().len();
    let misses_after_first = session.alone_cache().misses();
    session.eval(&PolicyKind::Fcfs, &workload);
    assert_eq!(
        session.alone_cache().len(),
        after_first,
        "second policy reuses alone runs"
    );
    assert_eq!(
        session.alone_cache().misses(),
        misses_after_first,
        "second policy triggers no new alone simulations"
    );
}
