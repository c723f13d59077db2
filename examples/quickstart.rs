//! Quickstart: compare TCM against FR-FCFS on one multiprogrammed
//! workload and print the paper's three metrics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tcm::sim::{PolicyKind, RunConfig, Session};
use tcm::types::SystemConfig;
use tcm::workload::random_workload;
use tcm_core::TcmParams;

fn main() {
    // The paper's baseline machine: 24 cores, 4 memory controllers,
    // DDR2-800 timing (Table 3). A Session fixes the machine and caches
    // the alone-run IPCs (the slowdown denominators) across policies.
    let session = Session::new(
        RunConfig::builder()
            .system(SystemConfig::paper_baseline())
            .horizon(5_000_000)
            .build(),
    );

    // A random 24-thread workload, half memory-intensive — the paper's
    // default workload category.
    let workload = random_workload(42, 24, 0.5);
    println!("workload: {workload}");
    for (i, profile) in workload.threads.iter().enumerate() {
        println!("  T{i:<2} {profile}");
    }

    // Both policies run as one sweep, on worker threads sharing a queue;
    // parallel execution is bit-identical to serial.
    let grid = session
        .sweep()
        .policies([
            PolicyKind::FrFcfs,
            PolicyKind::Tcm(TcmParams::reproduction_default(24)),
        ])
        .workloads([workload])
        .run_auto();

    println!();
    println!("{:>8} | {:>8} {:>8} {:>8}", "policy", "WS", "maxSD", "HS");
    for cell in grid.cells() {
        let result = &cell.result;
        println!(
            "{:>8} | {:8.2} {:8.2} {:8.3}",
            result.policy,
            result.metrics.weighted_speedup,
            result.metrics.max_slowdown,
            result.metrics.harmonic_speedup,
        );
    }
    println!();
    println!("{}", grid.stats().throughput_line());
    println!("WS = weighted speedup (throughput, higher is better)");
    println!("maxSD = maximum slowdown (unfairness, lower is better)");
    println!("HS = harmonic speedup (balance, higher is better)");
}
