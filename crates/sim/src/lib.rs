//! System simulator and experiment runner for the TCM reproduction.
//!
//! Binds the substrates together into one machine model: a core front
//! end (`tcm-cpu` cores fed by `tcm-workload` trace generators) and one
//! memory controller per controller of the topology (`tcm-dram`
//! channels under a `tcm-sched` policy). One engine type, [`System`],
//! simulates every topology with one deterministic stepping rule: it
//! pops one global `(cycle, seq)` event queue and routes each event to
//! the controller owning its channel, and on two or more controllers a
//! meta-controller's timer runs the paper's §5.3 quantum exchange.
//!
//! Experiments run through the [`Session`] / [`Sweep`] layer: a session
//! fixes the machine configuration and caches alone-run IPCs, a sweep
//! names a policies × workloads (× seeds) grid and executes it serially
//! or on threads sharing one work queue — bit-identical either way —
//! computing the paper's metrics (weighted speedup, harmonic speedup,
//! maximum slowdown) per cell. The fault-injection [`campaign`] runs
//! through the same cell builder to prove the simulator's detectors fire.
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
pub mod campaign;
mod checkpoint;
pub mod durable;
mod event;
mod machine;
mod metrics;
mod multi;
pub mod report;
mod runner;
pub mod scatter;
pub mod sweep;
mod system;

#[doc(hidden)]
pub use alone::{parse_entry as parse_alone_entry, render_entry as render_alone_entry};
#[doc(hidden)]
pub use checkpoint::parse_entry as parse_checkpoint_entry;
pub use durable::write_durable;
#[doc(hidden)]
pub use event::WINDOW as EVENT_WINDOW;
pub use event::{Event, EventQueue, Timer};
pub use machine::{RunResult, DEFAULT_STALL_LIMIT};
pub use metrics::{mean, variance, workload_metrics, IpcPair, WorkloadMetrics};
pub use runner::{EvalResult, PolicyKind, RunConfig, RunConfigBuilder, PAPER_LINEUP_LABELS};
pub use sweep::{
    AloneIpcCache, CellError, CellFailureKind, ProfileFingerprint, Session, SessionStats, Sweep,
    SweepCell, SweepResult, SweepStats,
};
pub use system::{MultiSystem, System};
