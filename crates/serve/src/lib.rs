//! `tcm-serve` — the long-running sweep service, completing the
//! workspace's engine/service/client split:
//!
//! * **engine** — `tcm-sim`'s [`Session`](tcm_sim::Session)/`Sweep`
//!   layer runs the actual policy × workload × seed cells;
//! * **service** — this crate's [`server`] wraps the engine in a daemon
//!   listening on a Unix-domain socket: a bounded priority job queue,
//!   a worker pool, per-job wall-clock deadlines, and streamed
//!   per-cell events;
//! * **client** — [`client`] plus the `tcm-run serve`/`tcm-run client`
//!   subcommands speak `tcm-proto` frames to the daemon.
//!
//! Durability is layered: every admitted job is recorded in a fsynced
//! write-ahead log ([`wal`]) before it is acknowledged, and every sweep
//! job checkpoints completed cells through the engine's crash-
//! consistent JSONL checkpoint. A SIGKILL'd daemon therefore restarts,
//! re-admits queued and in-flight jobs from the WAL, resumes their
//! checkpoints, and produces **bit-identical** merged grids. SIGTERM
//! drains gracefully: admission stops, in-flight cells finish or
//! checkpoint, the WAL is flushed, and the process exits 0 within the
//! configured drain deadline.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

pub mod client;
pub mod job;
pub mod log;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod signal;
pub mod wal;

pub use client::Client;
pub use log::Level;
pub use metrics::DaemonMetrics;
pub use queue::{JobQueue, QueueFull};
pub use server::{Server, ServerConfig};
pub use wal::{ReplayedJob, Wal};
