//! System simulator and experiment runner for the TCM reproduction.
//!
//! Binds the substrates together: [`System`] couples `tcm-cpu` cores,
//! `tcm-dram` channels and a `tcm-sched` policy behind a deterministic
//! event queue. Experiments run through the [`Session`] / [`Sweep`]
//! layer: a session fixes the machine configuration and caches alone-run
//! IPCs, a sweep names a policies × workloads (× seeds) grid and
//! executes it serially or sharded across threads — with bit-identical
//! results either way — computing the paper's metrics (weighted speedup,
//! harmonic speedup, maximum slowdown) per cell.
//!
//! # Example: compare the paper's lineup on two workloads
//!
//! ```
//! use tcm_sim::{PolicyKind, RunConfig, Session};
//! use tcm_types::SystemConfig;
//! use tcm_workload::random_workload;
//!
//! let session = Session::new(
//!     RunConfig::builder()
//!         .system(SystemConfig::builder().num_threads(4).build()?)
//!         .horizon(50_000)
//!         .build(),
//! );
//! let result = session
//!     .sweep()
//!     .policies(PolicyKind::paper_lineup(4))
//!     .workloads((0..2).map(|s| random_workload(s, 4, 0.75)))
//!     .run_parallel(2);
//! for (policy, avg) in result.averages() {
//!     println!("{policy}: WS {:.2}, maxSD {:.2}", avg.weighted_speedup, avg.max_slowdown);
//! }
//! println!("{}", result.stats().throughput_line());
//! # Ok::<(), tcm_types::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

mod alone;
mod checkpoint;
mod event;
mod metrics;
mod multi;
pub mod report;
mod runner;
pub mod scatter;
pub mod sweep;
mod system;

pub use checkpoint::write_durable;
pub use event::{Event, EventQueue};
pub use multi::MultiSystem;
pub use metrics::{mean, variance, workload_metrics, IpcPair, WorkloadMetrics};
pub use runner::{
    average_metrics, EvalResult, PolicyKind, RunConfig, RunConfigBuilder, PAPER_LINEUP_LABELS,
};
pub use sweep::{
    AloneIpcCache, CellError, CellFailureKind, ProfileFingerprint, RetryPolicy, Session,
    SessionStats, Sweep, SweepCell, SweepResult, SweepStats,
};
pub use system::{RunResult, System, DEFAULT_STALL_LIMIT};
