//! One memory channel: banks + data bus + request buffer + accounting.

use crate::verify::ProtocolChecker;
use crate::{BankArray, BankSet, ChannelStats, DataBus, QueueFullError, RequestQueue};
use tcm_chaos::{ChannelChaos, FaultKind};
use tcm_telemetry::{RowOutcome, Telemetry, TraceEvent};
use tcm_types::{BankId, ChannelId, Cycle, DramTiming, InvariantViolation, Request, Row, RowState};

/// The full timing result of issuing one request to its bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// The serviced request.
    pub request: Request,
    /// Row-buffer state the request encountered at the bank.
    pub row_state: RowState,
    /// Cycle the bank began the access.
    pub bank_start: Cycle,
    /// Cycle the bank can begin its next access (row hits pipeline, so
    /// this can precede the data transfer's end).
    pub bank_free: Cycle,
    /// Cycle the data arrived back at the core (request completion).
    pub completes_at: Cycle,
    /// Memory service time charged to the thread: access phase plus data
    /// transfer (the paper's "cycles the banks were kept busy servicing
    /// its requests" — the unit of bandwidth usage and attained service).
    pub service_cycles: u64,
}

impl ServiceOutcome {
    /// Bank-busy cycles this request consumed (the paper's unit of
    /// memory service time / bandwidth usage).
    #[inline]
    pub fn bank_busy(&self) -> u64 {
        self.service_cycles
    }
}

/// One memory channel with an independent controller.
///
/// The channel owns the mechanical state (banks, bus, request buffer,
/// stats); the *policy* deciding which pending request to issue lives in
/// `tcm-sched` and is consulted by the simulator, which then calls
/// [`Channel::issue`] with the chosen position.
#[derive(Debug, Clone)]
pub struct Channel {
    id: ChannelId,
    banks: BankArray,
    bus: DataBus,
    queue: RequestQueue,
    stats: ChannelStats,
    /// Observation-only runtime protocol checker (always on in debug
    /// builds; opt-in in release via [`Channel::enable_verification`]).
    checker: Option<Box<ProtocolChecker>>,
    /// Injected-fault execution state (`None` in normal operation; see
    /// [`Channel::set_chaos`] and the `tcm-chaos` crate).
    chaos: Option<Box<ChannelChaos>>,
    /// Whether `chaos` holds at least one armed fault. A plan's fault
    /// list per channel is fixed for the run, so this is precomputed at
    /// install time: channels with an inert (empty) state skip the
    /// injection hooks entirely on the hot path, which is what makes an
    /// empty fault plan genuinely free.
    chaos_active: bool,
    /// Telemetry sink (disabled by default — one pointer test per hook;
    /// see [`Channel::set_telemetry`]).
    telemetry: Telemetry,
}

impl Channel {
    /// Creates a channel with `num_banks` banks and a request buffer of
    /// `buffer_capacity` entries. Stats assume up to 1024 threads; use
    /// [`Channel::with_threads`] to size exactly.
    pub fn new(id: ChannelId, num_banks: usize, buffer_capacity: usize) -> Self {
        Self::with_threads(id, num_banks, buffer_capacity, 1024)
    }

    /// Creates a channel sized for `num_threads` threads.
    pub fn with_threads(
        id: ChannelId,
        num_banks: usize,
        buffer_capacity: usize,
        num_threads: usize,
    ) -> Self {
        let mut channel = Self {
            id,
            banks: BankArray::new(num_banks),
            bus: DataBus::new(),
            queue: RequestQueue::new(buffer_capacity, num_banks),
            stats: ChannelStats::new(num_banks, num_threads),
            checker: None,
            chaos: None,
            chaos_active: false,
            telemetry: Telemetry::disabled(),
        };
        // Keep the timing model honest wherever tests run: the checker is
        // observation-only, so results are unaffected.
        if cfg!(debug_assertions) {
            channel.enable_verification();
        }
        channel
    }

    /// Turns on the runtime protocol checker (idempotent). The checker
    /// is pure observation: enabling it never changes simulation
    /// results, only whether violations are detected and reported.
    pub fn enable_verification(&mut self) {
        if self.checker.is_none() {
            self.checker = Some(Box::new(ProtocolChecker::new(self.id, self.banks.len())));
        }
    }

    /// Turns the runtime protocol checker off, discarding its state.
    pub fn disable_verification(&mut self) {
        self.checker = None;
    }

    /// Installs (or clears, with `None`) this channel's fault-injection
    /// state. An empty [`ChannelChaos`] is a strict no-op: the
    /// injection hooks are skipped outright (they could never mutate
    /// anything), so results stay bit-identical and the inert state is
    /// free.
    ///
    /// Detecting the injected faults is the checker's job — callers
    /// that want detections must also enable verification.
    pub fn set_chaos(&mut self, chaos: Option<ChannelChaos>) {
        self.chaos = chaos.map(Box::new);
        self.chaos_active = self.chaos.as_ref().is_some_and(|c| !c.is_empty());
    }

    /// Attaches a telemetry sink (a clone of the run's shared handle).
    /// Telemetry is observation-only: results are bit-identical with a
    /// sink attached or not.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Whether the runtime protocol checker is active.
    pub fn verification_enabled(&self) -> bool {
        self.checker.is_some()
    }

    /// The protocol checker's state, when verification is enabled.
    pub fn checker(&self) -> Option<&ProtocolChecker> {
        self.checker.as_deref()
    }

    /// The first protocol violation observed on this channel, if any.
    pub fn violation(&self) -> Option<&InvariantViolation> {
        self.checker.as_ref().and_then(|c| c.violation())
    }

    /// End-of-run conservation check: verifies every admitted request
    /// was serviced exactly once or is still queued.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] observed during the run
    /// (including any conservation mismatch found by this call). A
    /// no-op returning `Ok(())` when verification is disabled.
    pub fn finish_verification(&mut self, now: Cycle) -> Result<(), InvariantViolation> {
        let Some(checker) = self.checker.as_mut() else {
            return Ok(());
        };
        checker.on_finish(self.queue.iter(), now);
        match checker.violation() {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    /// This channel's id.
    #[inline]
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// Number of banks.
    #[inline]
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// The row currently open in `bank`'s row-buffer, if any.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn open_row(&self, bank: BankId) -> Option<Row> {
        self.banks.open_row(bank)
    }

    /// Whether `bank` is currently servicing a request.
    #[inline]
    pub fn bank_busy(&self, bank: BankId) -> bool {
        self.banks.is_busy(bank)
    }

    /// Whether `bank` is idle and past its ready cycle at `now` — i.e.
    /// it could accept an issue this cycle if work were pending.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn bank_idle_ready(&self, bank: BankId, now: Cycle) -> bool {
        !self.banks.is_busy(bank) && self.banks.ready_at(bank) <= now
    }

    /// Number of banks currently servicing a request.
    #[inline]
    pub fn busy_bank_count(&self) -> usize {
        self.banks.busy_count()
    }

    /// The request buffer.
    #[inline]
    pub fn queue(&self) -> &RequestQueue {
        &self.queue
    }

    /// Accumulated service statistics.
    #[inline]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Enqueues a request into the controller's buffer.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if the buffer is full.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the request is addressed to a different
    /// channel.
    pub fn enqueue(&mut self, request: Request) -> Result<(), QueueFullError> {
        debug_assert_eq!(
            request.addr.channel, self.id,
            "request routed to wrong channel"
        );
        self.queue.push(request)?;
        self.stats.observe_queue_depth(self.queue.len());
        if let Some(checker) = self.checker.as_mut() {
            checker.on_admit(&request, request.issued_at);
        }
        if self.chaos_active {
            self.inject_admission_faults(&request);
        }
        Ok(())
    }

    /// Chaos hooks on the admission path: duplicate or silently drop
    /// the request that was just admitted. Each fault fires at most
    /// once; without an armed fault this never mutates anything.
    fn inject_admission_faults(&mut self, request: &Request) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        let now = request.issued_at;
        if chaos.due(FaultKind::DuplicateRequest, now) {
            // Admit the same request a second time: the conservation
            // checker sees the id admitted twice.
            if self.queue.push(*request).is_ok() {
                chaos.fire(FaultKind::DuplicateRequest, now);
                if let Some(checker) = self.checker.as_mut() {
                    checker.on_admit(request, now);
                }
                self.telemetry.emit(|| TraceEvent::ChaosInjected {
                    cycle: now,
                    kind: FaultKind::DuplicateRequest,
                });
            }
        } else if chaos.fire(FaultKind::DropRequest, now) {
            // Lose the request after admission: its data never returns,
            // and end-of-run conservation accounting comes up short.
            let _ = self.queue.remove(request.id);
            self.telemetry.emit(|| TraceEvent::ChaosInjected {
                cycle: now,
                kind: FaultKind::DropRequest,
            });
        }
    }

    /// Requests currently pending for `bank`, in arrival order, as a
    /// borrowed slice; positions index into [`Channel::issue`].
    pub fn pending_for_bank(&self, bank: BankId) -> &[Request] {
        self.queue.pending_for_bank(bank)
    }

    /// Banks that are idle *and* have at least one pending request at
    /// cycle `now` — the banks for which a scheduling decision is due.
    /// One batched mask kernel (see [`BankArray::schedulable`]); the
    /// iterator yields ascending bank ids, allocation-free.
    pub fn schedulable_banks(&self, now: Cycle) -> impl Iterator<Item = BankId> + '_ {
        self.schedulable_bank_set(now).into_iter()
    }

    /// The batched form of [`Channel::schedulable_banks`]: the whole
    /// answer as one bank set.
    #[inline]
    pub fn schedulable_bank_set(&self, now: Cycle) -> BankSet {
        self.banks.schedulable(self.queue.banks_with_pending(), now)
    }

    /// Issues the `pos`-th pending request of its bank (position as
    /// returned by [`Channel::pending_for_bank`]) at cycle `now`.
    ///
    /// Computes the complete timing: bank access phase (row-state
    /// dependent), data-bus arbitration, and core round-trip; updates the
    /// bank's open row, the bus reservation and the channel statistics;
    /// removes the request from the buffer.
    ///
    /// # Panics
    ///
    /// Panics if no such pending request exists or the bank is busy —
    /// both indicate a scheduling-driver bug.
    pub fn issue(&mut self, bank_index: usize, pos: usize, timing: &DramTiming) -> ServiceOutcome {
        let ready = self.banks.ready_at(BankId::new(bank_index));
        self.issue_at(bank_index, pos, ready, timing)
    }

    /// Like [`Channel::issue`] but with an explicit schedule cycle `now`
    /// (the access starts at `max(now, bank ready)`).
    ///
    /// # Panics
    ///
    /// Panics if no such pending request exists or the bank is busy.
    pub fn issue_at(
        &mut self,
        bank_index: usize,
        pos: usize,
        now: Cycle,
        timing: &DramTiming,
    ) -> ServiceOutcome {
        let bank_id = BankId::new(bank_index);
        let request = self
            .queue
            .take_for_bank(bank_id, pos)
            .expect("scheduler picked a request position that does not exist");
        let service = self
            .banks
            .begin_service(bank_id, request.addr.row, now, timing);
        let (_, bus_end) = self.bus.reserve(service.access_done, timing.bus_burst);
        // The bank is held until its data has left on the bus, for every
        // row-buffer state. (Deliberately not modeling CAS pipelining:
        // the paper's own 200-cycle row-hit round trip implies hits are
        // latency-bound, and making hits bus-rate here would inflate
        // streaming threads' alone-run IPC — and therefore their
        // apparent slowdowns — by ~4x relative to the paper's model.)
        let bank_ready = bus_end;
        self.banks.finish_service(bank_id, bank_ready);
        let completes_at = bus_end + timing.fixed_overhead;
        let mut outcome = ServiceOutcome {
            request,
            row_state: service.row_state,
            bank_start: service.start,
            bank_free: bank_ready,
            completes_at,
            service_cycles: timing.access_phase(service.row_state) + timing.bus_burst,
        };
        if self.chaos_active {
            self.inject_service_faults(&mut outcome, timing, now);
        }
        self.stats.record(
            bank_index,
            request.thread,
            outcome.row_state,
            outcome.bank_busy(),
            timing.bus_burst,
            outcome.completes_at,
        );
        if let Some(checker) = self.checker.as_mut() {
            checker.on_issue(&outcome, timing, now);
        }
        if self.telemetry.is_enabled() {
            self.trace_service(&outcome, bank_index);
        }
        outcome
    }

    /// Emits the trace events for one serviced request: the implied
    /// bank commands (precharge on a conflict, activate whenever the
    /// needed row was not open) and the service itself.
    fn trace_service(&self, outcome: &ServiceOutcome, bank: usize) {
        let channel = self.id.index();
        let row_outcome = match outcome.row_state {
            RowState::Hit => RowOutcome::Hit,
            RowState::Closed => RowOutcome::Closed,
            RowState::Conflict => RowOutcome::Conflict,
        };
        let cycle = outcome.bank_start;
        if row_outcome == RowOutcome::Conflict {
            self.telemetry.emit(|| TraceEvent::BankPrecharge {
                cycle,
                channel,
                bank,
            });
        }
        if row_outcome != RowOutcome::Hit {
            self.telemetry.emit(|| TraceEvent::BankActivate {
                cycle,
                channel,
                bank,
                row: outcome.request.addr.row.index(),
            });
        }
        self.telemetry.emit(|| TraceEvent::RequestServiced {
            cycle,
            thread: outcome.request.thread.index(),
            channel,
            bank,
            outcome: row_outcome,
        });
    }

    /// Chaos hooks on the service path, applied between computing the
    /// legal [`ServiceOutcome`] and reporting it to stats/checker. Each
    /// fault corrupts the outcome in a way its matching invariant
    /// detector observes; without armed faults the outcome is untouched.
    fn inject_service_faults(
        &mut self,
        outcome: &mut ServiceOutcome,
        timing: &DramTiming,
        now: Cycle,
    ) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        if chaos.fire(FaultKind::TimingViolation, now) {
            // Report a service shorter than the row state allows — as if
            // the column access skipped the tRCD activation wait.
            outcome.service_cycles = outcome.service_cycles.saturating_sub(timing.rcd.max(1));
            self.telemetry.emit(|| TraceEvent::ChaosInjected {
                cycle: now,
                kind: FaultKind::TimingViolation,
            });
        }
        if chaos.fire(FaultKind::RowCorruption, now) {
            // Misreport the row-buffer state; the checker's shadow row
            // buffer disagrees.
            outcome.row_state = match outcome.row_state {
                RowState::Hit => RowState::Conflict,
                RowState::Closed | RowState::Conflict => RowState::Hit,
            };
            self.telemetry.emit(|| TraceEvent::ChaosInjected {
                cycle: now,
                kind: FaultKind::RowCorruption,
            });
        }
        if chaos.due(FaultKind::BusOverlap, now) {
            // Re-time the transfer so it starts one cycle before the
            // previous transfer released the bus. Only sound once the
            // bank's access phase is done before that point — otherwise
            // the access-phase check would fire first and misclassify
            // the fault — so stay armed until an eligible issue arrives.
            let access_done = outcome.bank_start + timing.access_phase(outcome.row_state);
            let prev_end = chaos.last_bus_end();
            if prev_end > access_done {
                chaos.fire(FaultKind::BusOverlap, now);
                let bus_start = prev_end - 1;
                outcome.completes_at = bus_start + timing.bus_burst + timing.fixed_overhead;
                self.telemetry.emit(|| TraceEvent::ChaosInjected {
                    cycle: now,
                    kind: FaultKind::BusOverlap,
                });
            }
        }
        // Track bus occupancy exactly as the checker reconstructs it, so
        // the overlap fault above knows when the bus is genuinely busy.
        chaos.observe_bus(outcome.completes_at.saturating_sub(timing.fixed_overhead));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_types::{MemAddress, RequestId, Row, ThreadId};

    fn req(id: u64, thread: usize, bank: usize, row: usize, at: Cycle) -> Request {
        Request::new(
            RequestId::new(id),
            ThreadId::new(thread),
            MemAddress::new(ChannelId::new(0), BankId::new(bank), Row::new(row)),
            at,
        )
    }

    fn channel() -> Channel {
        Channel::with_threads(ChannelId::new(0), 4, 128, 4)
    }

    #[test]
    fn single_request_round_trip_matches_timing() {
        let t = DramTiming::ddr2_800();
        let mut ch = channel();
        ch.enqueue(req(0, 0, 1, 42, 0)).unwrap();
        let out = ch.issue_at(1, 0, 0, &t);
        assert_eq!(out.row_state, RowState::Closed);
        assert_eq!(out.completes_at, t.round_trip(RowState::Closed));
        assert_eq!(out.bank_busy(), t.rcd + t.cl + t.bus_burst);
        assert!(ch.queue().is_empty());
        assert_eq!(ch.stats().total_serviced(), 1);
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let t = DramTiming::ddr2_800();
        let mut ch = channel();
        ch.enqueue(req(0, 0, 0, 5, 0)).unwrap();
        ch.enqueue(req(1, 0, 0, 5, 0)).unwrap();
        ch.enqueue(req(2, 0, 0, 9, 0)).unwrap();
        let o1 = ch.issue_at(0, 0, 0, &t);
        let o2 = ch.issue_at(0, 0, o1.bank_free, &t);
        let o3 = ch.issue_at(0, 0, o2.bank_free, &t);
        assert_eq!(o2.row_state, RowState::Hit);
        assert_eq!(o3.row_state, RowState::Conflict);
        let hit_time = o2.completes_at - o2.bank_start;
        let conflict_time = o3.completes_at - o3.bank_start;
        assert!(hit_time < conflict_time);
    }

    #[test]
    fn bus_serializes_concurrent_banks() {
        let t = DramTiming::ddr2_800();
        let mut ch = channel();
        ch.enqueue(req(0, 0, 0, 1, 0)).unwrap();
        ch.enqueue(req(1, 0, 1, 1, 0)).unwrap();
        let o1 = ch.issue_at(0, 0, 0, &t);
        let o2 = ch.issue_at(1, 0, 0, &t);
        // Both banks finish the access phase at the same cycle; the second
        // transfer must wait for the bus.
        assert_eq!(o2.completes_at, o1.completes_at + t.bus_burst);
    }

    #[test]
    fn schedulable_banks_requires_idle_and_pending() {
        let t = DramTiming::ddr2_800();
        let mut ch = channel();
        ch.enqueue(req(0, 0, 0, 1, 0)).unwrap();
        ch.enqueue(req(1, 0, 2, 1, 0)).unwrap();
        assert_eq!(
            ch.schedulable_banks(0).collect::<Vec<_>>(),
            vec![BankId::new(0), BankId::new(2)]
        );
        let out = ch.issue_at(0, 0, 0, &t);
        // Bank 0 has no pending request now; bank 2 still does.
        assert_eq!(
            ch.schedulable_banks(0).collect::<Vec<_>>(),
            vec![BankId::new(2)]
        );
        // A new request for bank 0 only becomes schedulable once the bank
        // frees up.
        ch.enqueue(req(2, 0, 0, 1, 0)).unwrap();
        assert_eq!(
            ch.schedulable_banks(0).collect::<Vec<_>>(),
            vec![BankId::new(2)]
        );
        assert_eq!(
            ch.schedulable_banks(out.bank_free).collect::<Vec<_>>(),
            vec![BankId::new(0), BankId::new(2)]
        );
    }

    #[test]
    fn per_thread_service_time_accumulates() {
        let t = DramTiming::ddr2_800();
        let mut ch = channel();
        ch.enqueue(req(0, 0, 0, 1, 0)).unwrap();
        ch.enqueue(req(1, 1, 1, 1, 0)).unwrap();
        let o1 = ch.issue_at(0, 0, 0, &t);
        let o2 = ch.issue_at(1, 0, 0, &t);
        assert_eq!(ch.stats().thread_service(ThreadId::new(0)), o1.bank_busy());
        assert_eq!(ch.stats().thread_service(ThreadId::new(1)), o2.bank_busy());
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn issuing_nonexistent_position_panics() {
        let t = DramTiming::ddr2_800();
        let mut ch = channel();
        ch.issue_at(0, 0, 0, &t);
    }
}
