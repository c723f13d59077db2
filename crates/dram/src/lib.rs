//! DRAM timing substrate: banks, per-channel data buses, request queues.
//!
//! This crate models the memory system the schedulers arbitrate over, at
//! *bank service* granularity:
//!
//! * each bank serves one request at a time (state lives in the
//!   struct-of-arrays [`BankArray`]); the service latency depends on the
//!   row-buffer state (hit / closed / conflict) exactly as in the
//!   paper's DDR2-800 baseline (200/300/400-cycle round trips),
//! * each channel has one shared [`DataBus`]; 32-byte transfers from the
//!   channel's banks serialize on it,
//! * each [`Channel`] owns a bounded [`RequestQueue`] (the controller's
//!   request buffer) and per-thread bank-busy-cycle accounting — the
//!   paper's definition of a thread's *memory bandwidth usage* and of
//!   ATLAS's *attained service*,
//! * [`ShadowRowBuffer`] tracks, per thread and bank, the row that would
//!   be open if the thread ran alone — the paper's mechanism for
//!   measuring *inherent* row-buffer locality (used by TCM's monitor and
//!   by STFM's interference estimation).
//!
//! The simulation driver (in `tcm-sim`) decides *when* to schedule and
//! *which* request to pick (via a `tcm-sched` policy); this crate answers
//! *what happens* when a chosen request is issued to its bank.
//!
//! # Example
//!
//! ```
//! use tcm_dram::Channel;
//! use tcm_types::{BankId, ChannelId, DramTiming, MemAddress, Request, RequestId, Row,
//!     RowState, ThreadId};
//!
//! let timing = DramTiming::ddr2_800();
//! let mut ch = Channel::new(ChannelId::new(0), 4, 128);
//! let req = Request::new(
//!     RequestId::new(0),
//!     ThreadId::new(0),
//!     MemAddress::new(ChannelId::new(0), BankId::new(1), Row::new(42)),
//!     0,
//! );
//! ch.enqueue(req)?;
//! let outcome = ch.issue(1, 0, &timing); // bank 1, first pending request
//! assert_eq!(outcome.row_state, RowState::Closed);
//! assert_eq!(outcome.completes_at, 300); // closed-row round trip
//! # Ok::<(), tcm_dram::QueueFullError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

mod bank;
mod bus;
mod channel;
mod queue;
mod shadow;
mod stats;
mod verify;

pub use bank::{BankArray, BankService};
pub use bus::DataBus;
pub use channel::{Channel, ServiceOutcome};
pub use queue::{BankSet, BankSetIter, QueueFullError, RequestQueue};
pub use shadow::ShadowRowBuffer;
pub use stats::{BankStats, ChannelStats};
pub use verify::ProtocolChecker;
