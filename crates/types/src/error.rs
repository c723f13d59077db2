//! Error types shared across the workspace.
//!
//! Three failure classes cover every fallible library path (see
//! DESIGN.md §"Hardening"):
//!
//! * [`ConfigError`] — an invalid machine or algorithm configuration,
//!   rejected before any simulation starts;
//! * [`SimError::Stalled`] — the simulator's forward-progress watchdog
//!   tripped: the event loop was still executing but no memory request
//!   retired for too long (or the same cycle replayed events without
//!   bound). Carries a [`StallReport`] diagnostic snapshot;
//! * [`SimError::InvariantViolation`] — the runtime DRAM protocol
//!   checker (in `tcm-dram`) observed the memory system breaking one of
//!   its timing or conservation invariants. Carries a structured
//!   [`InvariantViolation`] with cycle, bank and request context.

use crate::{BankId, ChannelId, ControllerId, Cycle, RequestId};
use std::error::Error;
use std::fmt;

/// An invalid machine or algorithm configuration.
///
/// Produced by `validate`/`build` methods on configuration types; carries
/// the offending field name and a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    field: String,
    reason: String,
}

impl ConfigError {
    /// Creates an error naming the invalid `field` and the `reason` it is
    /// invalid.
    pub fn invalid(field: impl Into<String>, reason: impl Into<String>) -> Self {
        Self {
            field: field.into(),
            reason: reason.into(),
        }
    }

    /// The configuration field that failed validation.
    pub fn field(&self) -> &str {
        &self.field
    }

    /// Why the field is invalid.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config field `{}`: {}", self.field, self.reason)
    }
}

impl Error for ConfigError {}

/// The specific protocol invariant a violation report refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Per-bank access timing: a bank began a new access before its
    /// previous one released it, or the access phase did not match the
    /// tRCD/tRP/tCL spacing implied by the row-buffer state.
    BankTiming,
    /// The row-buffer state reported for an access disagrees with the
    /// row the checker's shadow row-buffer says was open.
    RowState,
    /// Two data-bus transfers on one channel overlapped in time.
    BusOverlap,
    /// Request conservation: a request was serviced that was never
    /// admitted, serviced twice, admitted twice, or requests went
    /// missing (admitted ≠ serviced + still queued).
    Conservation,
    /// A bounded resource (e.g. the controller spill queue) grew beyond
    /// the bound implied by the machine configuration.
    ResourceBound,
}

impl Invariant {
    /// Short human-readable name of the invariant.
    pub const fn name(self) -> &'static str {
        match self {
            Invariant::BankTiming => "bank-timing",
            Invariant::RowState => "row-state",
            Invariant::BusOverlap => "bus-overlap",
            Invariant::Conservation => "conservation",
            Invariant::ResourceBound => "resource-bound",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured report of one DRAM protocol invariant violation.
///
/// Produced by the runtime protocol checker in `tcm-dram`; always names
/// the cycle and channel, and — where the invariant concerns a specific
/// bank or request — the bank and request too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant was broken.
    pub invariant: Invariant,
    /// Cycle at which the violation was observed.
    pub cycle: Cycle,
    /// Channel on which it was observed.
    pub channel: ChannelId,
    /// The bank involved, when the invariant is per-bank.
    pub bank: Option<BankId>,
    /// The request involved, when one request can be blamed.
    pub request: Option<RequestId>,
    /// Human-readable specifics (expected vs observed values).
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol invariant `{}` violated at cycle {} on {}",
            self.invariant, self.cycle, self.channel
        )?;
        if let Some(bank) = self.bank {
            write!(f, " {bank}")?;
        }
        if let Some(request) = self.request {
            write!(f, " ({request})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl Error for InvariantViolation {}

/// Diagnostic snapshot attached to [`SimError::Stalled`]: everything
/// needed to see *why* the system stopped making forward progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Cycle at which the watchdog fired.
    pub now: Cycle,
    /// Cycle of the last request retirement (0 if none ever retired).
    pub last_retire: Cycle,
    /// Events processed since the last retirement.
    pub events_since_retire: u64,
    /// Outstanding (injected but not completed) misses, per thread.
    pub outstanding: Vec<usize>,
    /// Request-buffer depth, per channel.
    pub queue_depths: Vec<usize>,
    /// Spill-queue depth, per channel.
    pub spill_depths: Vec<usize>,
    /// Number of busy banks, per channel.
    pub busy_banks: Vec<usize>,
    /// The controller attributed as the stall site, when the engine can
    /// name one. A single-controller machine reports `None`; a
    /// multi-controller machine names the controller whose timer froze
    /// or whose queues back up the most.
    pub controller: Option<ControllerId>,
}

impl StallReport {
    /// Total outstanding misses across all threads.
    pub fn total_outstanding(&self) -> usize {
        self.outstanding.iter().sum()
    }

    /// Multi-line human-readable rendering of the snapshot (never
    /// empty).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "no forward progress: cycle {}, last retirement at cycle {} \
             ({} events since), {} outstanding misses\n",
            self.now,
            self.last_retire,
            self.events_since_retire,
            self.total_outstanding(),
        );
        if let Some(controller) = self.controller {
            s.push_str(&format!("  attributed controller: {controller}\n"));
        }
        s.push_str(&format!("  per-thread outstanding: {:?}\n", self.outstanding));
        s.push_str(&format!("  per-channel queue depths: {:?}\n", self.queue_depths));
        s.push_str(&format!("  per-channel spill depths: {:?}\n", self.spill_depths));
        s.push_str(&format!("  per-channel busy banks: {:?}", self.busy_banks));
        s
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Any failure a simulation run can surface: configuration rejection,
/// loss of forward progress, or a broken protocol invariant.
///
/// Returned by fallible simulation entry points (e.g.
/// `System::try_run` in `tcm-sim`); sweep engines record it per cell
/// instead of letting one bad cell take down the whole experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The machine or algorithm configuration was invalid.
    Config(ConfigError),
    /// The forward-progress watchdog fired; the report says why.
    /// Boxed: the report carries four per-thread/per-channel vectors,
    /// and the error type rides in every hot `Result` return.
    Stalled(Box<StallReport>),
    /// The runtime DRAM protocol checker observed a violation.
    InvariantViolation(InvariantViolation),
    /// The run's cooperative cancellation token fired (a per-cell
    /// deadline expired or the run was cancelled externally); carries
    /// the cycle at which the event loop noticed. The simulation is
    /// sound up to that cycle but incomplete.
    Cancelled(Cycle),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::Stalled(r) => write!(f, "simulation stalled: {}", r.summary()),
            SimError::InvariantViolation(v) => write!(f, "{v}"),
            SimError::Cancelled(cycle) => {
                write!(f, "simulation cancelled at cycle {cycle} (deadline or external cancel)")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::InvariantViolation(v) => Some(v),
            SimError::Stalled(_) | SimError::Cancelled(_) => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> Self {
        SimError::InvariantViolation(v)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_field_and_reason() {
        let e = ConfigError::invalid("num_threads", "must be non-zero");
        let msg = e.to_string();
        assert!(msg.contains("num_threads"));
        assert!(msg.contains("must be non-zero"));
        assert_eq!(e.field(), "num_threads");
        assert_eq!(e.reason(), "must be non-zero");
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<ConfigError>();
        assert_traits::<SimError>();
        assert_traits::<InvariantViolation>();
    }

    #[test]
    fn violation_display_names_context() {
        let v = InvariantViolation {
            invariant: Invariant::BankTiming,
            cycle: 1234,
            channel: ChannelId::new(2),
            bank: Some(BankId::new(3)),
            request: Some(RequestId::new(77)),
            detail: "bank re-issued 40 cycles early".into(),
        };
        let msg = v.to_string();
        assert!(msg.contains("bank-timing"), "{msg}");
        assert!(msg.contains("1234"), "{msg}");
        assert!(msg.contains("40 cycles early"), "{msg}");
        let sim: SimError = v.clone().into();
        assert_eq!(sim, SimError::InvariantViolation(v));
        assert!(sim.source().is_some());
    }

    #[test]
    fn stall_report_summary_is_never_empty() {
        let r = StallReport {
            now: 500,
            last_retire: 100,
            events_since_retire: 42,
            outstanding: vec![3, 0],
            queue_depths: vec![2],
            spill_depths: vec![0],
            busy_banks: vec![1],
            controller: None,
        };
        assert_eq!(r.total_outstanding(), 3);
        assert!(r.summary().contains("cycle 500"));
        assert!(r.summary().contains("42 events"));
        assert!(!r.summary().contains("attributed controller"));
        let mut attributed = r.clone();
        attributed.controller = Some(ControllerId::new(1));
        assert!(attributed.summary().contains("attributed controller: mc1"));
        let sim = SimError::Stalled(Box::new(r));
        assert!(sim.to_string().contains("stalled"));
        assert!(sim.source().is_none());
    }

    #[test]
    fn cancelled_names_the_cycle_and_has_no_source() {
        let sim = SimError::Cancelled(4321);
        assert!(sim.to_string().contains("cancelled at cycle 4321"));
        assert!(sim.source().is_none());
        assert_eq!(sim, SimError::Cancelled(4321));
        assert_ne!(sim, SimError::Cancelled(4322));
    }

    #[test]
    fn config_error_converts_into_sim_error() {
        let e = ConfigError::invalid("horizon", "too small");
        let sim: SimError = e.clone().into();
        assert_eq!(sim, SimError::Config(e));
        assert!(sim.to_string().contains("horizon"));
    }

    #[test]
    fn invariant_names_are_distinct() {
        let all = [
            Invariant::BankTiming,
            Invariant::RowState,
            Invariant::BusOverlap,
            Invariant::Conservation,
            Invariant::ResourceBound,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
