//! A walkthrough of TCM's internal machinery on synthetic monitor data:
//! clustering (Algorithm 1), niceness, and the insertion shuffle
//! (Algorithm 2) — without running the full simulator.
//!
//! Run with: `cargo run --example cluster_walkthrough`

use tcm::core::{cluster_threads, niceness_scores, InsertionShuffler, RoundRobinShuffler};
use tcm::types::ThreadId;

fn main() {
    // Eight threads with measured per-quantum behavior (as TCM's
    // monitors would report): MPKI, bandwidth usage (bank-busy cycles),
    // BLP, RBL.
    let names = [
        "povray", "gcc", "h264ref", "hmmer", "omnetpp", "lbm", "soplex", "mcf",
    ];
    let mpki = [0.01, 0.34, 2.30, 5.66, 21.63, 43.52, 46.70, 97.38];
    let bw: [u64; 8] = [40, 1_300, 8_000, 18_000, 95_000, 140_000, 150_000, 210_000];
    let blp = [1.4, 2.0, 1.2, 1.3, 4.4, 2.8, 1.8, 6.2];
    let rbl = [0.87, 0.71, 0.90, 0.34, 0.46, 0.95, 0.89, 0.42];

    // --- Step 1: clustering (Algorithm 1) --------------------------------
    let thresh = 4.0 / 8.0; // ClusterThresh 4/N
    let clusters = cluster_threads(&mpki, &bw, thresh);
    println!("ClusterThresh {thresh}: latency cluster gets that fraction of");
    println!("last quantum's total bandwidth usage.\n");
    println!("latency-sensitive cluster (strictly prioritized, lowest MPKI first):");
    for t in &clusters.latency {
        println!("  {} (MPKI {})", names[t.index()], mpki[t.index()]);
    }
    println!("bandwidth-sensitive cluster (shares leftover bandwidth fairly):");
    for t in &clusters.bandwidth {
        println!("  {} (MPKI {})", names[t.index()], mpki[t.index()]);
    }

    // --- Step 2: niceness -------------------------------------------------
    let bw_threads = clusters.bandwidth.clone();
    let bw_blp: Vec<f64> = bw_threads.iter().map(|t| blp[t.index()]).collect();
    let bw_rbl: Vec<f64> = bw_threads.iter().map(|t| rbl[t.index()]).collect();
    let niceness = niceness_scores(&bw_blp, &bw_rbl);
    println!("\nniceness (high BLP => fragile => nice; high RBL => hostile):");
    for (t, n) in bw_threads.iter().zip(&niceness) {
        println!(
            "  {:>8}: BLP {:4.1} RBL {:4.2} -> niceness {:+}",
            names[t.index()],
            blp[t.index()],
            rbl[t.index()],
            n
        );
    }

    // --- Step 3: insertion shuffle (Algorithm 2) --------------------------
    let entries: Vec<(ThreadId, i64)> = bw_threads
        .iter()
        .copied()
        .zip(niceness.iter().copied())
        .collect();
    let mut insertion = InsertionShuffler::new(entries);
    let mut round_robin = RoundRobinShuffler::new(bw_threads.clone());
    let n = bw_threads.len();
    println!("\npriority order over one shuffle period (top = highest priority):");
    println!(
        "{:>10}  {:<20} {:<20}",
        "interval", "insertion", "round-robin"
    );
    for interval in 0..2 * n {
        let ins: Vec<&str> = insertion
            .ranking_vec()
            .iter()
            .rev()
            .map(|t| names[t.index()])
            .collect();
        let rr: Vec<&str> = round_robin
            .ranking()
            .iter()
            .rev()
            .map(|t| names[t.index()])
            .collect();
        println!(
            "{:>10}  {:<20} {:<20}",
            interval,
            ins.join(">"),
            rr.join(">")
        );
        insertion.advance();
        round_robin.advance();
    }
    println!("\nNote how under insertion shuffle the least nice (streaming-like)");
    println!("thread sits at the lowest priority almost always, while nicer");
    println!("threads share the top; round-robin instead preserves relative");
    println!("positions, so a thread stuck behind a hostile one stays stuck.");
}
