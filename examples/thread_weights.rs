//! OS-assigned thread weights (paper Section 7.4 / Figure 8): weights are
//! assigned in the worst possible way for throughput — higher weights to
//! more memory-intensive threads. ATLAS adheres to the weights blindly;
//! TCM honors them *within* clusters, protecting latency-sensitive
//! threads.
//!
//! Run with: `cargo run --release --example thread_weights`

use tcm::core::TcmParams;
use tcm::sched::AtlasParams;
use tcm::sim::{PolicyKind, RunConfig, Session};
use tcm::types::SystemConfig;
use tcm::workload::{spec_by_name, WorkloadSpec};

fn main() {
    // The paper's Figure 8 mix: gcc(1), wrf(2), GemsFDTD(4), lbm(8),
    // libquantum(16), mcf(32) — weight rises with memory intensity.
    let apps = [
        ("gcc", 1.0),
        ("wrf", 2.0),
        ("GemsFDTD", 4.0),
        ("lbm", 8.0),
        ("libquantum", 16.0),
        ("mcf", 32.0),
    ];
    let copies = 4; // 6 apps x 4 copies = 24 threads
    let mut threads = Vec::new();
    let mut weights = Vec::new();
    for (name, weight) in apps {
        let profile = spec_by_name(name).expect("Table 4 benchmark");
        for _ in 0..copies {
            threads.push(profile.clone());
            weights.push(weight);
        }
    }
    let workload = WorkloadSpec::new("weights", threads);

    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::paper_baseline())
            .horizon(10_000_000)
            .build(),
    );

    let grid = session
        .sweep()
        .policies([
            PolicyKind::Atlas(AtlasParams::paper_default()),
            PolicyKind::Tcm(TcmParams::reproduction_default(24)),
        ])
        .workloads([workload])
        .weights(&weights)
        .run_auto();
    for cell in grid.cells() {
        let r = &cell.result;
        println!("{} (weights favor intensive threads):", r.policy);
        for (a, (name, weight)) in apps.iter().enumerate() {
            let avg: f64 =
                (0..copies).map(|c| r.speedups[a * copies + c]).sum::<f64>() / copies as f64;
            println!("  {name:>10} (weight {weight:>4}): speedup {avg:5.2}");
        }
        println!(
            "  => WS {:.2}, maxSD {:.2}\n",
            r.metrics.weighted_speedup, r.metrics.max_slowdown
        );
    }
    println!("Expected shape (paper Fig. 8): TCM keeps the light (gcc/wrf)");
    println!("threads fast despite their low weights, yielding much better");
    println!("system throughput and fairness than ATLAS's blind adherence.");
}
