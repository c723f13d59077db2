//! The paper's motivating experiment (Table 1 / Figure 2): two
//! bandwidth-sensitive threads with identical memory intensity but
//! opposite bank-level parallelism and row-buffer locality, run under
//! both strict prioritization orders.
//!
//! The paper's observation — reproduced here — is that the
//! *random-access* thread (high BLP, low RBL) is far more vulnerable to
//! deprioritization than the *streaming* thread (low BLP, high RBL):
//! a bank conflict destroys the random-access thread's bank-level
//! parallelism and serializes its requests, while the streaming thread
//! keeps streaming whenever it gets its bank. This asymmetry is what
//! TCM's *niceness* metric captures.
//!
//! This example also demonstrates implementing a custom scheduling policy
//! against the public [`tcm::sched::Scheduler`] trait.
//!
//! Run with: `cargo run --release --example random_vs_streaming`

use tcm::sched::select::{age_key, pick_max_by_key, row_hit};
use tcm::sched::{PickContext, Scheduler};
use tcm::sim::{RunConfig, Session, System};
use tcm::types::{Request, SystemConfig, ThreadId};
use tcm::workload::{BenchmarkProfile, WorkloadSpec};

/// Strict static priority: `top` always wins, then row-hit, then oldest.
#[derive(Debug)]
struct StrictPriority {
    top: ThreadId,
}

impl Scheduler for StrictPriority {
    fn name(&self) -> &'static str {
        "strict-priority"
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        pick_max_by_key(pending, |r| {
            (r.thread == self.top, row_hit(r, ctx.open_row), age_key(r))
        })
    }
}

fn main() {
    let horizon = 10_000_000;
    let mut system_cfg = SystemConfig::paper_baseline();
    system_cfg.num_threads = 2;

    let random = BenchmarkProfile::random_access();
    let streaming = BenchmarkProfile::streaming();
    println!("Table 1 microbenchmarks:");
    println!("  {random}");
    println!("  {streaming}");

    // Alone IPCs for the slowdown denominators, via a Session on the
    // same two-thread machine.
    let session = Session::new(
        RunConfig::builder()
            .system(system_cfg.clone())
            .horizon(horizon)
            .build(),
    );
    let alone_random = session.alone_ipc(&random);
    let alone_streaming = session.alone_ipc(&streaming);

    let workload = WorkloadSpec::new("fig2", vec![random, streaming]);
    println!();
    for (label, top) in [("random-access", 0usize), ("streaming", 1usize)] {
        let policy = StrictPriority {
            top: ThreadId::new(top),
        };
        let mut sys = System::new(&system_cfg, &workload, Box::new(policy), 5);
        let run = sys.run(horizon);
        println!("strictly prioritizing the {label} thread:");
        println!(
            "  random-access slowdown: {:5.2}x",
            alone_random / run.ipc[0]
        );
        println!(
            "  streaming slowdown:     {:5.2}x",
            alone_streaming / run.ipc[1]
        );
    }
    println!();
    println!("Expected shape (paper Fig. 2): the random-access thread suffers");
    println!("far more when deprioritized than the streaming thread does.");
}
