//! Foundational types shared by every crate in the TCM reproduction.
//!
//! This crate defines the vocabulary of the simulated machine:
//!
//! * strongly-typed identifiers for threads, channels, banks and rows
//!   ([`ThreadId`], [`ChannelId`], [`BankId`], [`Row`]),
//! * the unit of work that flows through the memory system
//!   ([`Request`] and [`MemAddress`]),
//! * the static machine description ([`SystemConfig`], [`DramTiming`]) with
//!   the paper's baseline configuration (Table 3 of the paper),
//! * shared error types, and
//! * the one JSON codec every durable and wire format goes through
//!   ([`json`]).
//!
//! Everything here is plain data: `Copy` where cheap, free of I/O concerns,
//! and free of simulation logic (the codec works on in-memory text). Higher-level crates (`tcm-dram`,
//! `tcm-cpu`, `tcm-sched`, `tcm-core`, `tcm-sim`) build on these types.
//!
//! # Example
//!
//! ```
//! use tcm_types::{SystemConfig, ThreadId};
//!
//! let cfg = SystemConfig::paper_baseline();
//! assert_eq!(cfg.num_threads, 24);
//! assert_eq!(cfg.total_banks(), 16);
//! let t = ThreadId::new(3);
//! assert_eq!(t.index(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

mod cancel;
mod config;
mod error;
mod ids;
pub mod json;
mod request;

pub use cancel::CancelToken;
pub use config::{
    DramTiming, SystemConfig, SystemConfigBuilder, Topology, MAX_BANKS_PER_CHANNEL, MAX_CHANNELS,
};
pub use error::{ConfigError, Invariant, InvariantViolation, SimError, StallReport};
pub use ids::{BankId, ChannelId, ControllerId, GlobalBank, Row, ThreadId};
pub use request::{MemAddress, Request, RequestId, RowState};

/// Simulation time, measured in processor core cycles.
///
/// The simulated core runs at 5 GHz (0.2 ns per cycle), matching the
/// paper's round-trip L2 miss latencies of 200/300/400 cycles for
/// row-hit/closed/conflict accesses.
pub type Cycle = u64;
