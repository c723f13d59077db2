//! Memory-request scheduling policies: the common [`Scheduler`] interface
//! and the four baseline algorithms the paper compares TCM against.
//!
//! * [`Fcfs`] — oldest-first (thread-unaware sanity baseline).
//! * [`FrFcfs`] — row-hit-first, then oldest (Rixner et al., ISCA 2000);
//!   the policy commonly used in real controllers.
//! * [`Stfm`] — stall-time fair memory scheduling (Mutlu & Moscibroda,
//!   MICRO 2007): estimates each thread's slowdown and prioritizes the
//!   most-slowed thread when unfairness exceeds a threshold.
//! * [`ParBs`] — parallelism-aware batch scheduling (Mutlu & Moscibroda,
//!   ISCA 2008): batches requests and ranks threads shortest-job-first
//!   within a batch.
//! * [`Atlas`] — least-attained-service scheduling over long quanta
//!   (Kim et al., HPCA 2010).
//! * [`FairQueueing`] — a network-fair-queueing-style scheduler (after
//!   Nesbit et al., MICRO 2006), an extension baseline representing the
//!   fairness-only designs the paper's related work discusses.
//!
//! TCM itself lives in the `tcm-core` crate and implements the same
//! [`Scheduler`] trait.
//!
//! # Scheduling model
//!
//! The simulator consults the policy each time a DRAM bank is idle and
//! has pending requests, passing the bank's pending set and a
//! [`PickContext`], which also lends the whole channel's buffer
//! read-only; the policy returns the index of the request to issue.
//! Policies keep their own state current via the notification hooks
//! (`on_enqueue` / `on_service` / `on_complete`) and via periodic
//! [`Scheduler::tick`]s, which receive a [`SystemView`] of per-thread
//! counters (retired instructions, misses, attained service) — the same
//! signals the paper's hardware monitors expose.
//!
//! # Example
//!
//! ```
//! use tcm_dram::RequestQueue;
//! use tcm_sched::{FrFcfs, PickContext, Scheduler};
//! use tcm_types::{BankId, ChannelId, MemAddress, Request, RequestId, Row, ThreadId};
//!
//! let mut policy = FrFcfs::new();
//! let addr = |row| MemAddress::new(ChannelId::new(0), BankId::new(0), Row::new(row));
//! let mut queue = RequestQueue::new(128, 4);
//! queue.push(Request::new(RequestId::new(0), ThreadId::new(0), addr(1), 0))?;
//! queue.push(Request::new(RequestId::new(1), ThreadId::new(1), addr(2), 5))?;
//! let ctx = PickContext {
//!     now: 10,
//!     channel: ChannelId::new(0),
//!     bank: BankId::new(0),
//!     open_row: Some(Row::new(2)), // request 1 is a row hit
//!     queue: &queue,
//! };
//! let pending = queue.pending_for_bank(BankId::new(0));
//! assert_eq!(policy.pick(pending, &ctx), 1);
//! # Ok::<(), tcm_dram::QueueFullError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

mod atlas;
pub mod chaos;
mod fcfs;
mod fqm;
mod frfcfs;
mod parbs;
pub mod select;
mod stfm;

pub use atlas::{Atlas, AtlasParams};
pub use chaos::ChaosScheduler;
pub use fcfs::Fcfs;
pub use fqm::FairQueueing;
pub use frfcfs::FrFcfs;
pub use parbs::{ParBs, ParBsParams};
pub use stfm::{Stfm, StfmParams};

use tcm_chaos::FaultSpec;
use tcm_dram::{RequestQueue, ServiceOutcome};
use tcm_telemetry::{DegradationAnomaly, Telemetry};
use tcm_types::{BankId, ChannelId, Cycle, Request, Row};

/// Everything a policy may inspect when choosing the next request for a
/// bank.
#[derive(Debug, Clone, Copy)]
pub struct PickContext<'a> {
    /// Current cycle.
    pub now: Cycle,
    /// Channel owning the bank being scheduled.
    pub channel: ChannelId,
    /// The bank being scheduled (per-channel index).
    pub bank: BankId,
    /// Row currently open in the bank's row-buffer, if any.
    pub open_row: Option<Row>,
    /// The whole channel's request buffer, read-only. Each per-bank lane
    /// is in arrival order, and a channel admits requests in id order,
    /// so within a lane ids ascend. The pending set passed to
    /// [`Scheduler::pick`] is this buffer's lane for `bank`. Policies
    /// whose decision spans banks (PAR-BS batch formation) read it
    /// instead of mirroring the buffer through [`Scheduler::on_enqueue`].
    pub queue: &'a RequestQueue,
}

/// Snapshot of per-thread hardware counters, indexed by thread id.
///
/// All counters are cumulative since simulation start; policies that need
/// per-quantum deltas (ATLAS, TCM) keep their own previous snapshots.
#[derive(Debug, Clone, Copy)]
pub struct SystemView<'a> {
    /// Instructions retired per thread.
    pub retired: &'a [u64],
    /// LLC misses generated per thread.
    pub misses: &'a [u64],
    /// Bank-busy cycles attained per thread, summed over all channels —
    /// the paper's *memory service time*.
    pub service: &'a [u64],
}

impl SystemView<'_> {
    /// Number of threads in the system.
    pub fn num_threads(&self) -> usize {
        self.retired.len()
    }
}

/// Per-controller monitor state harvested at a quantum boundary for
/// meta-controller aggregation (paper §5.3).
///
/// Each field is a *delta since the previous harvest*; the harvesting
/// controller resets its local accumulators, so the meta-controller can
/// sum samples across controllers without double counting. All vectors
/// are indexed by thread id and sized to the full thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorSample {
    /// Shadow row-buffer hits per thread (RBL numerator).
    pub shadow_hits: Vec<u64>,
    /// Shadow row-buffer accesses per thread (RBL denominator).
    pub shadow_accesses: Vec<u64>,
    /// Integral of concurrently busy banks over memory-busy cycles per
    /// thread (BLP numerator).
    pub blp_integral: Vec<u64>,
    /// Cycles each thread had at least one request outstanding (BLP
    /// denominator).
    pub busy_time: Vec<u64>,
}

/// The unified scheduling directive a meta-controller broadcasts to
/// every controller after a quantum exchange (paper §5.3): one shared
/// thread ranking, so all controllers prioritize identically until the
/// next broadcast.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterPlan {
    /// Per-thread priority; larger wins, ties broken row-hit-first then
    /// oldest-first at each controller.
    pub priorities: Vec<usize>,
    /// Whether the meta-controller's plausibility guard rejected the
    /// aggregated monitor data and degraded to FR-FCFS for this quantum
    /// (all priorities equal).
    pub degraded: bool,
    /// Per-controller quarantine flags (indexed by controller), set by
    /// the meta-controller's staleness/plausibility guard. Empty when no
    /// controller has ever been quarantined — the engine treats an
    /// empty vector exactly like all-healthy, so clean runs stay
    /// bit-identical to plans without the field. A flagged controller's
    /// samples were excluded from this quantum's aggregation and the
    /// engine drops it to local FR-FCFS ordering until re-admission.
    pub quarantined: Vec<bool>,
}

/// A memory-request scheduling policy.
///
/// A policy instance arbitrates every channel *of one controller*;
/// per-channel state, where an algorithm requires it (e.g. PAR-BS
/// batches), is keyed by [`PickContext::channel`]. Flat (single
/// controller) topologies therefore behave exactly as the paper's
/// synchronized single-instance designs. In multi-controller topologies
/// each controller owns its own instance, and policies that participate
/// in §5.3-style coordination do so through the
/// [`Scheduler::quantum_exchange`] / [`Scheduler::apply_broadcast`]
/// hooks driven by a meta-controller.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Human-readable policy name (used in reports and plots).
    fn name(&self) -> &'static str;

    /// Chooses which request the bank should service next.
    ///
    /// `pending` is the non-empty, arrival-ordered set of requests queued
    /// for `ctx.bank` on `ctx.channel` — the bank's lane of `ctx.queue`;
    /// the returned value is an index into it.
    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize;

    /// Called when a request enters a controller's request buffer.
    fn on_enqueue(&mut self, _req: &Request, _now: Cycle) {}

    /// Called when a request is issued to its bank. `remaining_same_bank`
    /// is the set of requests still queued for that bank (the serviced
    /// request already removed) — the information STFM-style interference
    /// accounting needs.
    fn on_service(
        &mut self,
        _outcome: &ServiceOutcome,
        _remaining_same_bank: &[Request],
        _now: Cycle,
    ) {
    }

    /// Called when a request's data returns to the core.
    fn on_complete(&mut self, _req: &Request, _now: Cycle) {}

    /// The next cycle strictly after `now` at which [`Scheduler::tick`]
    /// should run, or `None` for policies without timers.
    fn next_tick(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Timer callback (quantum/shuffle boundaries) with fresh counters.
    fn tick(&mut self, _now: Cycle, _view: &SystemView<'_>) {}

    /// Installs OS-assigned thread weights (1.0 = default). Policies that
    /// do not support weights ignore this.
    fn set_thread_weights(&mut self, _weights: &[f64]) {}

    /// Arms a monitor-state fault (from the `tcm-chaos` fault-injection
    /// layer) to corrupt this policy's internal hardware-counter state at
    /// the fault's scheduled time. Policies without internal monitors
    /// ignore it — the default is a no-op.
    fn inject_monitor_fault(&mut self, _fault: &FaultSpec) {}

    /// Hands the policy a telemetry handle for structured event tracing.
    /// Policies that emit no events ignore it — the default is a no-op.
    /// Emitting is observation-only: attaching telemetry must not change
    /// any scheduling decision.
    fn attach_telemetry(&mut self, _telemetry: &Telemetry) {}

    /// Typed anomaly log of the policy's plausibility guard: one entry
    /// per quantum in which implausible monitor data forced the policy to
    /// degrade to a fallback ordering. Policies without a guard return
    /// the empty slice.
    fn degradation_events(&self) -> &[DegradationAnomaly] {
        &[]
    }

    /// Harvests this controller's monitor deltas for meta-controller
    /// aggregation at a quantum boundary, resetting the local
    /// accumulators. Policies that do not participate in coordinated
    /// scheduling return `None` (the default) and are skipped by the
    /// meta-controller.
    fn quantum_exchange(&mut self, _now: Cycle) -> Option<MonitorSample> {
        None
    }

    /// Installs the meta-controller's broadcast directive. The default
    /// ignores it; coordinated policies replace their thread ranking
    /// with the plan's.
    fn apply_broadcast(&mut self, _plan: &ClusterPlan, _now: Cycle) {}
}

/// A meta-controller policy: aggregates [`MonitorSample`]s from every
/// controller at quantum boundaries and computes the unified
/// [`ClusterPlan`] broadcast back to them (paper §5.3).
///
/// The simulation engine drives the protocol: at each cycle returned by
/// [`MetaScheduler::next_tick`] the meta-controller's timer event calls
/// [`Scheduler::quantum_exchange`] on each controller's policy, hands
/// the samples (in controller order) to [`MetaScheduler::exchange`], and
/// installs the resulting plan via [`Scheduler::apply_broadcast`] on
/// every controller before the engine processes another event.
pub trait MetaScheduler: std::fmt::Debug + Send {
    /// The next cycle strictly after `now` at which the meta-controller
    /// must run an exchange, or `None` if it never needs one.
    fn next_tick(&self, now: Cycle) -> Option<Cycle>;

    /// Whether the exchange due at `now` needs fresh controller samples
    /// (a quantum boundary). When `false` (a shuffle boundary) the
    /// engine skips the per-controller harvest entirely, leaving each
    /// controller's quantum accumulation windows intact.
    fn needs_samples(&self, now: Cycle) -> bool;

    /// Installs OS-assigned thread weights (1.0 = default).
    fn set_thread_weights(&mut self, _weights: &[f64]) {}

    /// Runs one exchange: `samples` holds each controller's harvest in
    /// controller order (`None` for non-participating policies), `view`
    /// the system-wide cumulative counters.
    fn exchange(
        &mut self,
        now: Cycle,
        view: &SystemView<'_>,
        samples: &[Option<MonitorSample>],
    ) -> ClusterPlan;

    /// Typed anomaly log of the meta-controller's plausibility guard
    /// (mirrors [`Scheduler::degradation_events`]).
    fn degradation_events(&self) -> &[DegradationAnomaly] {
        &[]
    }

    /// Arms a monitor-state fault (from the `tcm-chaos` layer) against
    /// the *aggregated* snapshot the meta-controller computes at its
    /// next quantum boundary (mirrors
    /// [`Scheduler::inject_monitor_fault`]). Meta-controllers without
    /// monitors ignore it — the default is a no-op.
    fn inject_monitor_fault(&mut self, _fault: &FaultSpec) {}

    /// Hands the meta-controller a telemetry handle. Observation-only.
    fn attach_telemetry(&mut self, _telemetry: &Telemetry) {}
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod testutil {
    //! Shared helpers for scheduler unit tests.

    use std::sync::OnceLock;
    use tcm_dram::RequestQueue;
    use tcm_types::{BankId, ChannelId, Cycle, MemAddress, Request, RequestId, Row, ThreadId};

    /// Builds a request on channel 0, bank 0.
    pub fn req(id: u64, thread: usize, row: usize, at: Cycle) -> Request {
        req_at_bank(id, thread, 0, row, at)
    }

    /// Builds a request on channel 0 with an explicit bank.
    pub fn req_at_bank(id: u64, thread: usize, bank: usize, row: usize, at: Cycle) -> Request {
        Request::new(
            RequestId::new(id),
            ThreadId::new(thread),
            MemAddress::new(ChannelId::new(0), BankId::new(bank), Row::new(row)),
            at,
        )
    }

    /// A pick context for channel 0 / bank 0 over an empty buffer, for
    /// policies that read only the pending set.
    pub fn ctx(now: Cycle, open_row: Option<usize>) -> crate::PickContext<'static> {
        static EMPTY: OnceLock<RequestQueue> = OnceLock::new();
        crate::PickContext {
            now,
            channel: ChannelId::new(0),
            bank: BankId::new(0),
            open_row: open_row.map(Row::new),
            queue: EMPTY.get_or_init(|| RequestQueue::new(0, 0)),
        }
    }
}
