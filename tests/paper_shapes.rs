//! Small-scale checks of the paper's qualitative claims. These run at
//! reduced horizons (with proportionally reduced TCM quanta) so they are
//! fast in debug builds; the full-scale shapes are regenerated by
//! `tcm-bench`'s `reproduce`.

use tcm::core::TcmParams;
use tcm::sched::AtlasParams;
use tcm::sim::{PolicyKind, RunConfig, Session, System};
use tcm::types::{SystemConfig, ThreadId};
use tcm::workload::{BenchmarkProfile, WorkloadSpec};

/// TCM with quanta scaled down to suit short test runs.
fn test_tcm(n: usize, cluster_thresh: f64) -> PolicyKind {
    let mut params = TcmParams::reproduction_default(n).with_cluster_thresh(cluster_thresh);
    params.quantum = 100_000;
    params.shuffle_interval = 800;
    PolicyKind::Tcm(params)
}

fn atlas_fast() -> PolicyKind {
    PolicyKind::Atlas(AtlasParams::with_quantum(100_000))
}

/// An adversarial mix: one light thread, one hostile streaming thread,
/// several fragile high-BLP threads.
fn adversarial_workload(n: usize) -> WorkloadSpec {
    let mut threads = vec![tcm::workload::spec_by_name("povray").unwrap()];
    threads.push(BenchmarkProfile::streaming());
    while threads.len() < n {
        threads.push(BenchmarkProfile::random_access());
    }
    WorkloadSpec::new("adversarial", threads)
}

#[test]
fn fig2_shape_deprioritized_random_access_suffers_more() {
    use tcm::sched::select::{age_key, pick_max_by_key, row_hit};
    use tcm::sched::{PickContext, Scheduler};
    use tcm::types::Request;

    #[derive(Debug)]
    struct Strict(ThreadId);
    impl Scheduler for Strict {
        fn name(&self) -> &'static str {
            "strict"
        }
        fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
            pick_max_by_key(pending, |r| {
                (r.thread == self.0, row_hit(r, ctx.open_row), age_key(r))
            })
        }
    }

    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_threads = 2;
    let horizon = 2_000_000;
    let workload = WorkloadSpec::new(
        "fig2",
        vec![
            BenchmarkProfile::random_access(),
            BenchmarkProfile::streaming(),
        ],
    );
    let session = Session::new(
        RunConfig::builder()
            .system(cfg.clone())
            .horizon(horizon)
            .build(),
    );
    let alone_random = session.alone_ipc(&workload.threads[0]);
    let alone_streaming = session.alone_ipc(&workload.threads[1]);

    // Streaming prioritized => random-access deprioritized.
    let mut sys = System::new(&cfg, &workload, Box::new(Strict(ThreadId::new(1))), 5);
    let run = sys.run(horizon);
    let random_deprioritized = alone_random / run.ipc[0];

    // Random prioritized => streaming deprioritized.
    let mut sys = System::new(&cfg, &workload, Box::new(Strict(ThreadId::new(0))), 5);
    let run = sys.run(horizon);
    let streaming_deprioritized = alone_streaming / run.ipc[1];

    assert!(
        random_deprioritized > streaming_deprioritized,
        "paper Fig 2: random-access ({random_deprioritized:.1}x) must suffer more than \
         streaming ({streaming_deprioritized:.1}x)"
    );
}

#[test]
fn tcm_protects_latency_sensitive_threads() {
    // The light thread barely slows under TCM even in an adversarial mix.
    let n = 8;
    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::builder().num_threads(n).build().unwrap())
            .horizon(800_000)
            .build(),
    );
    let workload = adversarial_workload(n);
    let tcm = session.eval(&test_tcm(n, 2.0 / n as f64), &workload);
    assert!(
        tcm.slowdowns[0] < 2.0,
        "light thread slowdown under TCM: {:.2}",
        tcm.slowdowns[0]
    );
}

#[test]
fn tcm_is_fairer_than_atlas_under_contention() {
    // Averaged over a few fully memory-intensive SPEC mixes (the
    // paper's Figure 7 regime where ATLAS's strict ranking hurts most).
    let n = 8;
    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::builder().num_threads(n).build().unwrap())
            .horizon(1_000_000)
            .build(),
    );
    let (mut atlas_ms, mut tcm_ms) = (0.0, 0.0);
    for seed in 0..3 {
        let workload = tcm::workload::random_workload(seed, n, 1.0);
        atlas_ms += session.eval(&atlas_fast(), &workload).metrics.max_slowdown;
        tcm_ms += session
            .eval(&test_tcm(n, 2.0 / n as f64), &workload)
            .metrics
            .max_slowdown;
    }
    assert!(
        tcm_ms < atlas_ms * 1.05,
        "TCM avg maxSD {:.2} should not exceed ATLAS {:.2}",
        tcm_ms / 3.0,
        atlas_ms / 3.0
    );
}

#[test]
fn cluster_thresh_knob_trades_fairness_for_throughput() {
    // The paper's Section 7.1 knob: a larger latency-cluster budget must
    // not reduce weighted speedup (and generally raises it) on a
    // contended mix.
    let n = 8;
    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::builder().num_threads(n).build().unwrap())
            .horizon(1_000_000)
            .build(),
    );
    let workload = adversarial_workload(n);
    let conservative = session.eval(&test_tcm(n, 1.0 / n as f64), &workload);
    let aggressive = session.eval(&test_tcm(n, 6.0 / n as f64), &workload);
    assert!(
        aggressive.metrics.weighted_speedup >= conservative.metrics.weighted_speedup * 0.95,
        "aggressive thresh WS {:.2} vs conservative {:.2}",
        aggressive.metrics.weighted_speedup,
        conservative.metrics.weighted_speedup
    );
}
