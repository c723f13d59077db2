//! `tcm-proto` — the versioned wire protocol between the `tcm-serve`
//! daemon and its clients.
//!
//! The protocol is deliberately minimal; its only dependency is the
//! workspace's JSON codec in `tcm-types`:
//!
//! * **Framing** ([`frame`]): length-prefixed JSONL over any byte
//!   stream (in practice a Unix-domain socket). Each frame is
//!   `tcmp1 <len>\n<payload>\n` — the textual header makes a captured
//!   stream greppable while the explicit length makes reads exact.
//! * **Payloads** are one JSON document each, written and parsed by
//!   [`tcm_types::json`] — the same codec as the sweep checkpoint and
//!   the trace JSONL. All floats travel as IEEE-754 bit patterns
//!   (`f64::to_bits`), so every metric survives the wire
//!   **bit-identically**; booleans travel as `0`/`1`.
//! * **Messages** ([`Request`], [`Response`]): submit/status/cancel/
//!   watch/drain requests and their typed responses, including the
//!   streamed per-cell events a `Watch` subscription receives.
//!
//! Every frame payload is a JSON object carrying a `"v"` field; peers
//! reject frames whose version they do not speak (see
//! [`PROTO_VERSION`]). The crate knows nothing about sockets, jobs or
//! scheduling — it only defines the bytes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

pub mod frame;
mod msg;

/// The codec's path before it moved to `tcm-types`, kept for callers
/// outside the workspace (the `perf/` benchmark) that still name it.
/// Workspace crates use [`tcm_types::json`] directly.
pub use tcm_types::json;

pub use frame::{read_frame, write_frame, MAX_FRAME_LEN};
pub use msg::{
    Event, JobKind, JobProgress, JobSpec, JobState, JobStatusInfo, ProtoError, Request, Response,
    ServerInfo, SoakSpec, SweepSpec, WorkloadRef,
};

/// Protocol version spoken by this build. Bumped on any incompatible
/// change to the frame format or message schema.
pub const PROTO_VERSION: u64 = 1;
