//! Runtime DRAM protocol checker: an observation-only watchdog over one
//! channel's timing and conservation invariants.
//!
//! The cycle-level results in this repository are only as trustworthy as
//! the memory model underneath them, so — following the runtime protocol
//! checking used by gem5-style DRAM controller models — every channel
//! can carry a [`ProtocolChecker`] that watches the *actual* service
//! stream and reports the first invariant it sees broken as a structured
//! [`InvariantViolation`]:
//!
//! * **bank timing** — a bank never begins a new access before the
//!   previous one released it, and every access phase matches the
//!   tRCD/tRP/tCL spacing implied by its row-buffer state;
//! * **row state** — the row-buffer state reported for each access
//!   agrees with an independently tracked shadow of each bank's open
//!   row;
//! * **bus non-overlap** — data-bus transfers on the channel never
//!   overlap in time and never start before the access phase ends;
//! * **conservation** — every admitted request is serviced at most once,
//!   nothing is serviced that was never admitted, and at end of run
//!   `admitted = serviced + still queued`.
//!
//! The checker is pure observation: it never mutates channel state, so a
//! run with the checker enabled is bit-identical to one without it. It is
//! enabled automatically in debug builds (see
//! [`Channel::with_threads`](crate::Channel::with_threads)), by the
//! `TCM_VERIFY` environment variable, or explicitly via
//! [`Channel::enable_verification`](crate::Channel::enable_verification)
//! / the `RunConfig` verify flag in `tcm-sim`.

use crate::channel::ServiceOutcome;
use std::collections::HashSet;
use tcm_types::{
    BankId, ChannelId, Cycle, DramTiming, Invariant, InvariantViolation, Request, Row,
};

/// Per-bank shadow state the checker tracks independently of [`Bank`]
/// (crate::Bank): what row *should* be open and when the bank *should*
/// next be free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BankShadow {
    open_row: Option<Row>,
    free_at: Cycle,
}

/// Observation-only runtime checker for one channel's DRAM protocol
/// invariants. The module docs of `verify.rs` list the invariants.
#[derive(Debug, Clone)]
pub struct ProtocolChecker {
    channel: ChannelId,
    banks: Vec<BankShadow>,
    /// End of the last data-bus transfer observed on this channel.
    bus_free_at: Cycle,
    /// Ids admitted into the request buffer (each exactly once).
    admitted: HashSet<u64>,
    /// Ids serviced by a bank (each exactly once).
    serviced: HashSet<u64>,
    /// First violation observed; sticky until [`ProtocolChecker::take_violation`].
    violation: Option<InvariantViolation>,
    /// Individual invariant checks performed (for tests/diagnostics).
    checks: u64,
}

impl ProtocolChecker {
    /// Creates a checker for `channel` with `num_banks` banks.
    pub fn new(channel: ChannelId, num_banks: usize) -> Self {
        Self {
            channel,
            banks: vec![
                BankShadow {
                    open_row: None,
                    free_at: 0,
                };
                num_banks
            ],
            bus_free_at: 0,
            admitted: HashSet::new(),
            serviced: HashSet::new(),
            violation: None,
            checks: 0,
        }
    }

    /// The first violation observed, if any.
    pub fn violation(&self) -> Option<&InvariantViolation> {
        self.violation.as_ref()
    }

    /// Removes and returns the first violation observed, if any.
    pub fn take_violation(&mut self) -> Option<InvariantViolation> {
        self.violation.take()
    }

    /// Number of individual invariant checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of distinct requests admitted so far.
    pub fn admitted(&self) -> usize {
        self.admitted.len()
    }

    /// Number of distinct requests serviced so far.
    pub fn serviced(&self) -> usize {
        self.serviced.len()
    }

    fn report(
        &mut self,
        invariant: Invariant,
        cycle: Cycle,
        bank: Option<BankId>,
        request: Option<Request>,
        detail: String,
    ) {
        if self.violation.is_none() {
            self.violation = Some(InvariantViolation {
                invariant,
                cycle,
                channel: self.channel,
                bank,
                request: request.map(|r| r.id),
                detail,
            });
        }
    }

    /// Observes a request being admitted into the channel's buffer at
    /// cycle `now` (call only on *successful* admission).
    pub fn on_admit(&mut self, request: &Request, now: Cycle) {
        self.checks += 1;
        if !self.admitted.insert(request.id.raw()) {
            self.report(
                Invariant::Conservation,
                now,
                None,
                Some(*request),
                format!("request {} admitted twice", request.id),
            );
        }
    }

    /// Observes one completed issue decision: the outcome the channel
    /// computed for a request, checked against the checker's own shadow
    /// state and `timing`.
    pub fn on_issue(&mut self, outcome: &ServiceOutcome, timing: &DramTiming, now: Cycle) {
        let request = outcome.request;
        let bank = request.addr.bank;
        let Some(shadow) = self.banks.get(bank.index()).copied() else {
            self.report(
                Invariant::BankTiming,
                now,
                Some(bank),
                Some(request),
                format!("request addressed bank {} of {}", bank, self.banks.len()),
            );
            return;
        };

        // Conservation: serviced exactly once, and only after admission.
        self.checks += 1;
        if !self.admitted.contains(&request.id.raw()) {
            self.report(
                Invariant::Conservation,
                now,
                Some(bank),
                Some(request),
                format!("request {} serviced but never admitted", request.id),
            );
        }
        self.checks += 1;
        if !self.serviced.insert(request.id.raw()) {
            self.report(
                Invariant::Conservation,
                now,
                Some(bank),
                Some(request),
                format!("request {} serviced twice", request.id),
            );
        }

        // Causality: service cannot begin before the request arrived.
        self.checks += 1;
        if outcome.bank_start < request.issued_at {
            self.report(
                Invariant::BankTiming,
                now,
                Some(bank),
                Some(request),
                format!(
                    "service began at cycle {} before arrival at cycle {}",
                    outcome.bank_start, request.issued_at
                ),
            );
        }

        // Bank timing: no overlap with the bank's previous service.
        self.checks += 1;
        if outcome.bank_start < shadow.free_at {
            self.report(
                Invariant::BankTiming,
                now,
                Some(bank),
                Some(request),
                format!(
                    "bank re-issued at cycle {} but busy until cycle {}",
                    outcome.bank_start, shadow.free_at
                ),
            );
        }

        // Row state: must match the shadow row-buffer's prediction.
        let predicted = match shadow.open_row {
            Some(open) if open == request.addr.row => tcm_types::RowState::Hit,
            Some(_) => tcm_types::RowState::Conflict,
            None => tcm_types::RowState::Closed,
        };
        self.checks += 1;
        if outcome.row_state != predicted {
            self.report(
                Invariant::RowState,
                now,
                Some(bank),
                Some(request),
                format!(
                    "reported row state `{}` but shadow row-buffer (open row {:?}) \
                     implies `{}`",
                    outcome.row_state, shadow.open_row, predicted
                ),
            );
        }

        // Bank timing: the access phase must match the tRCD/tRP/tCL
        // spacing for the row state actually encountered, and the data
        // transfer must follow the access phase.
        let access_done = outcome.bank_start + timing.access_phase(outcome.row_state);
        let bus_start = outcome
            .completes_at
            .saturating_sub(timing.fixed_overhead + timing.bus_burst);
        self.checks += 1;
        if bus_start < access_done {
            self.report(
                Invariant::BankTiming,
                now,
                Some(bank),
                Some(request),
                format!(
                    "data transfer began at cycle {} before the {} access phase \
                     ended at cycle {}",
                    bus_start, outcome.row_state, access_done
                ),
            );
        }
        self.checks += 1;
        let expected_service = timing.access_phase(outcome.row_state) + timing.bus_burst;
        if outcome.service_cycles != expected_service {
            self.report(
                Invariant::BankTiming,
                now,
                Some(bank),
                Some(request),
                format!(
                    "charged {} service cycles but {} spacing implies {}",
                    outcome.service_cycles, outcome.row_state, expected_service
                ),
            );
        }

        // Bus non-overlap: this transfer must start at or after the end
        // of the previous transfer on this channel.
        self.checks += 1;
        if bus_start < self.bus_free_at {
            self.report(
                Invariant::BusOverlap,
                now,
                Some(bank),
                Some(request),
                format!(
                    "data-bus transfer began at cycle {} while the bus was \
                     occupied until cycle {}",
                    bus_start, self.bus_free_at
                ),
            );
        }
        let bus_end = bus_start + timing.bus_burst;
        self.bus_free_at = self.bus_free_at.max(bus_end);

        // Bank held until its data left the bus (model invariant).
        self.checks += 1;
        if outcome.bank_free < bus_end {
            self.report(
                Invariant::BankTiming,
                now,
                Some(bank),
                Some(request),
                format!(
                    "bank released at cycle {} before its transfer ended at cycle {}",
                    outcome.bank_free, bus_end
                ),
            );
        }

        if let Some(shadow) = self.banks.get_mut(bank.index()) {
            shadow.open_row = Some(request.addr.row);
            shadow.free_at = outcome.bank_free;
        }
    }

    /// End-of-run conservation check: every admitted request must have
    /// been serviced exactly once or still be queued (`still_queued`
    /// ids, in any order). Reports a violation on mismatch.
    pub fn on_finish<'a>(
        &mut self,
        still_queued: impl IntoIterator<Item = &'a Request>,
        now: Cycle,
    ) {
        let queued: Vec<&Request> = still_queued.into_iter().collect();
        self.checks += 1;
        for request in &queued {
            if !self.admitted.contains(&request.id.raw()) {
                self.report(
                    Invariant::Conservation,
                    now,
                    None,
                    Some(**request),
                    format!(
                        "request {} queued at end of run but never admitted",
                        request.id
                    ),
                );
                return;
            }
            if self.serviced.contains(&request.id.raw()) {
                self.report(
                    Invariant::Conservation,
                    now,
                    None,
                    Some(**request),
                    format!("request {} both serviced and still queued", request.id),
                );
                return;
            }
        }
        let accounted = self.serviced.len() + queued.len();
        if accounted != self.admitted.len() {
            self.report(
                Invariant::Conservation,
                now,
                None,
                None,
                format!(
                    "{} requests admitted but only {} accounted for \
                     ({} serviced + {} still queued)",
                    self.admitted.len(),
                    accounted,
                    self.serviced.len(),
                    queued.len()
                ),
            );
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_types::{MemAddress, RequestId, RowState, ThreadId};

    fn timing() -> DramTiming {
        DramTiming::ddr2_800()
    }

    fn req(id: u64, bank: usize, row: usize, at: Cycle) -> Request {
        Request::new(
            RequestId::new(id),
            ThreadId::new(0),
            MemAddress::new(ChannelId::new(0), BankId::new(bank), Row::new(row)),
            at,
        )
    }

    /// A legal closed-row outcome starting at `start` for a fresh bank.
    fn legal_outcome(request: Request, start: Cycle, t: &DramTiming) -> ServiceOutcome {
        let access_done = start + t.access_phase(RowState::Closed);
        let bus_end = access_done + t.bus_burst;
        ServiceOutcome {
            request,
            row_state: RowState::Closed,
            bank_start: start,
            bank_free: bus_end,
            completes_at: bus_end + t.fixed_overhead,
            service_cycles: t.access_phase(RowState::Closed) + t.bus_burst,
        }
    }

    #[test]
    fn legal_stream_passes_all_checks() {
        let t = timing();
        let mut c = ProtocolChecker::new(ChannelId::new(0), 4);
        let r0 = req(0, 0, 7, 0);
        let r1 = req(1, 1, 9, 0);
        c.on_admit(&r0, 0);
        c.on_admit(&r1, 0);
        let o0 = legal_outcome(r0, 0, &t);
        c.on_issue(&o0, &t, 0);
        // Bank 1 starts at 0 but its transfer must wait for the bus.
        let access_done = t.access_phase(RowState::Closed);
        let bus_start = access_done + t.bus_burst; // after r0's transfer
        let o1 = ServiceOutcome {
            request: r1,
            row_state: RowState::Closed,
            bank_start: 0,
            bank_free: bus_start + t.bus_burst,
            completes_at: bus_start + t.bus_burst + t.fixed_overhead,
            service_cycles: t.access_phase(RowState::Closed) + t.bus_burst,
        };
        c.on_issue(&o1, &t, 0);
        c.on_finish([], o1.completes_at);
        assert!(c.violation().is_none(), "{:?}", c.violation());
        assert!(c.checks() > 10);
        assert_eq!(c.admitted(), 2);
        assert_eq!(c.serviced(), 2);
    }

    #[test]
    fn bank_overlap_is_reported() {
        let t = timing();
        let mut c = ProtocolChecker::new(ChannelId::new(0), 1);
        let (r0, r1) = (req(0, 0, 1, 0), req(1, 0, 2, 0));
        c.on_admit(&r0, 0);
        c.on_admit(&r1, 0);
        let o0 = legal_outcome(r0, 0, &t);
        c.on_issue(&o0, &t, 0);
        // Second access starts before the bank frees: violation.
        let mut o1 = legal_outcome(r1, o0.bank_free - 10, &t);
        o1.row_state = RowState::Conflict;
        o1.service_cycles = t.access_phase(RowState::Conflict) + t.bus_burst;
        let v = {
            c.on_issue(&o1, &t, 0);
            c.take_violation().expect("overlap must be reported")
        };
        assert_eq!(v.invariant, Invariant::BankTiming);
        assert_eq!(v.bank, Some(BankId::new(0)));
        assert_eq!(v.request, Some(RequestId::new(1)));
        assert!(v.detail.contains("busy until"), "{}", v.detail);
    }

    #[test]
    fn wrong_row_state_is_reported() {
        let t = timing();
        let mut c = ProtocolChecker::new(ChannelId::new(0), 1);
        let r0 = req(0, 0, 1, 0);
        c.on_admit(&r0, 0);
        // Fresh bank: claiming a Hit contradicts the shadow (Closed).
        let mut o0 = legal_outcome(r0, 0, &t);
        o0.row_state = RowState::Hit;
        o0.service_cycles = t.access_phase(RowState::Hit) + t.bus_burst;
        c.on_issue(&o0, &t, 0);
        let v = c
            .take_violation()
            .expect("row-state mismatch must be reported");
        assert_eq!(v.invariant, Invariant::RowState);
        assert!(v.detail.contains("hit"), "{}", v.detail);
    }

    #[test]
    fn bus_overlap_is_reported() {
        let t = timing();
        let mut c = ProtocolChecker::new(ChannelId::new(0), 2);
        let (r0, r1) = (req(0, 0, 1, 0), req(1, 1, 1, 0));
        c.on_admit(&r0, 0);
        c.on_admit(&r1, 0);
        c.on_issue(&legal_outcome(r0, 0, &t), &t, 0);
        // Bank 1's transfer claims the same bus window as bank 0's.
        let o1 = legal_outcome(r1, 0, &t);
        c.on_issue(&o1, &t, 0);
        let v = c.take_violation().expect("bus overlap must be reported");
        assert_eq!(v.invariant, Invariant::BusOverlap);
        assert!(v.detail.contains("occupied"), "{}", v.detail);
    }

    #[test]
    fn double_service_and_unadmitted_service_are_reported() {
        let t = timing();
        let mut c = ProtocolChecker::new(ChannelId::new(0), 1);
        let r0 = req(0, 0, 1, 0);
        // Serviced but never admitted.
        c.on_issue(&legal_outcome(r0, 0, &t), &t, 0);
        let v = c
            .take_violation()
            .expect("unadmitted service must be reported");
        assert_eq!(v.invariant, Invariant::Conservation);
        assert!(v.detail.contains("never admitted"), "{}", v.detail);

        // Serviced twice.
        let mut c = ProtocolChecker::new(ChannelId::new(0), 1);
        c.on_admit(&r0, 0);
        let o0 = legal_outcome(r0, 0, &t);
        c.on_issue(&o0, &t, 0);
        let mut o1 = legal_outcome(r0, o0.bank_free, &t);
        o1.row_state = RowState::Hit;
        o1.service_cycles = t.access_phase(RowState::Hit) + t.bus_burst;
        // Keep the other fields legal so only conservation trips.
        o1.completes_at =
            o1.bank_start + t.access_phase(RowState::Hit) + t.bus_burst + t.fixed_overhead;
        o1.bank_free = o1.bank_start + t.access_phase(RowState::Hit) + t.bus_burst;
        c.on_issue(&o1, &t, 0);
        let v = c.take_violation().expect("double service must be reported");
        assert_eq!(v.invariant, Invariant::Conservation);
        assert!(v.detail.contains("twice"), "{}", v.detail);
    }

    #[test]
    fn finish_detects_lost_requests() {
        let t = timing();
        let mut c = ProtocolChecker::new(ChannelId::new(0), 1);
        let (r0, r1) = (req(0, 0, 1, 0), req(1, 0, 2, 0));
        c.on_admit(&r0, 0);
        c.on_admit(&r1, 0);
        c.on_issue(&legal_outcome(r0, 0, &t), &t, 0);
        // r1 was admitted, never serviced, and is not in the queue: lost.
        c.on_finish([], 1000);
        let v = c.take_violation().expect("lost request must be reported");
        assert_eq!(v.invariant, Invariant::Conservation);
        assert!(v.detail.contains("admitted"), "{}", v.detail);

        // The same stream with r1 still queued is fine.
        let mut c = ProtocolChecker::new(ChannelId::new(0), 1);
        c.on_admit(&r0, 0);
        c.on_admit(&r1, 0);
        c.on_issue(&legal_outcome(r0, 0, &t), &t, 0);
        c.on_finish([&r1], 1000);
        assert!(c.violation().is_none());
    }

    #[test]
    fn first_violation_is_sticky() {
        let t = timing();
        let mut c = ProtocolChecker::new(ChannelId::new(0), 1);
        let r0 = req(0, 0, 1, 0);
        c.on_issue(&legal_outcome(r0, 0, &t), &t, 0); // never admitted
        let first = c.violation().cloned().expect("violation");
        c.on_issue(&legal_outcome(req(1, 0, 1, 0), 0, &t), &t, 0); // more trouble
        assert_eq!(c.violation(), Some(&first), "first violation wins");
    }
}
