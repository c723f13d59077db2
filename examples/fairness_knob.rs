//! TCM's fairness/performance knob (paper Section 7.1): sweeping
//! `ClusterThresh` trades system throughput against fairness smoothly —
//! something single-policy schedulers cannot do.
//!
//! Run with: `cargo run --release --example fairness_knob`

use tcm::core::TcmParams;
use tcm::sim::{PolicyKind, RunConfig, Session};
use tcm::types::SystemConfig;
use tcm::workload::random_workload;

fn main() {
    let n = 24;
    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::paper_baseline())
            .horizon(10_000_000)
            .build(),
    );
    let workload = random_workload(7, n, 0.5);

    println!("workload: {workload}");

    // All five knob settings run as one sweep.
    let grid = session
        .sweep()
        .policies((2..=6).map(|k| {
            let thresh = k as f64 / n as f64;
            PolicyKind::Tcm(TcmParams::reproduction_default(n).with_cluster_thresh(thresh))
        }))
        .workloads([workload])
        .run_auto();

    println!();
    println!("{:>13} | {:>8} {:>8}", "ClusterThresh", "WS", "maxSD");
    for (i, k) in (2..=6).enumerate() {
        let m = grid.get(i, 0, 0).metrics;
        println!(
            "{:>11}/{} | {:8.2} {:8.2}",
            k, n, m.weighted_speedup, m.max_slowdown
        );
    }
    println!();
    println!("Expected shape (paper Fig. 6): larger thresholds admit more");
    println!("threads into the latency-sensitive cluster, raising weighted");
    println!("speedup while the shrinking bandwidth share raises the maximum");
    println!("slowdown — a smooth throughput/fairness continuum.");
}
