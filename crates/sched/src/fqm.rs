//! FQM: fair-queueing memory scheduling (after Nesbit et al., MICRO
//! 2006), included as an extension baseline beyond the paper's four.
//!
//! The TCM paper's related-work section cites fair-queueing schedulers
//! as the archetype of fairness-only designs ("by trying to equalize the
//! amount of bandwidth each thread receives, some notion of fairness can
//! be achieved, but at a large expense to system throughput"). This
//! implementation lets that claim be checked in this substrate (the
//! `ablation` experiment binary includes it).

use crate::select::{age_key, pick_max_by_key, row_hit};
use crate::{PickContext, Scheduler};
use std::cmp::Reverse;
use tcm_dram::ServiceOutcome;
use tcm_types::{Cycle, Request, ThreadId};

/// Network-fair-queueing-style memory scheduler.
///
/// Each thread has a *virtual time* that advances by the service it
/// consumes, scaled by the inverse of its share (equal shares here, as in
/// the original's default). Banks service the pending request whose
/// thread has the smallest virtual time — approximating the schedule of
/// an idealized processor-sharing memory system. Row hits and age break
/// ties.
#[derive(Debug, Clone)]
pub struct FairQueueing {
    /// Virtual start time per thread.
    virtual_time: Vec<u64>,
}

impl FairQueueing {
    /// Creates the policy for `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        Self {
            virtual_time: vec![0; num_threads],
        }
    }

    /// The current virtual time of `thread`.
    pub fn virtual_time(&self, thread: ThreadId) -> u64 {
        self.virtual_time.get(thread.index()).copied().unwrap_or(0)
    }
}

impl Scheduler for FairQueueing {
    fn name(&self) -> &'static str {
        "FQM"
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        pick_max_by_key(pending, |r| {
            (
                Reverse(self.virtual_time(r.thread)),
                row_hit(r, ctx.open_row),
                age_key(r),
            )
        })
    }

    fn on_service(
        &mut self,
        outcome: &ServiceOutcome,
        _remaining_same_bank: &[Request],
        _now: Cycle,
    ) {
        // Advance the servicing thread's virtual clock by the consumed
        // service. Idle threads' clocks are caught up lazily below so a
        // long-idle thread cannot bank unbounded credit.
        let i = outcome.request.thread.index();
        if let Some(vt) = self.virtual_time.get_mut(i) {
            *vt += outcome.bank_busy();
        }
    }

    fn on_enqueue(&mut self, req: &Request, _now: Cycle) {
        // Catch-up rule: a newly arriving thread's virtual time jumps to
        // at least the minimum active virtual time, preventing idle-time
        // credit hoarding (the fair-queueing "virtual start" rule).
        let min = self.virtual_time.iter().copied().min().unwrap_or(0);
        if let Some(vt) = self.virtual_time.get_mut(req.thread.index()) {
            *vt = (*vt).max(min);
        }
    }

    fn observes_completions(&self) -> bool {
        false
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, req};

    fn outcome(thread: usize, busy: u64) -> ServiceOutcome {
        use tcm_types::{BankId, ChannelId, MemAddress, RequestId, Row};
        ServiceOutcome {
            request: Request::new(
                RequestId::new(0),
                ThreadId::new(thread),
                MemAddress::new(ChannelId::new(0), BankId::new(0), Row::new(0)),
                0,
            ),
            row_state: tcm_types::RowState::Closed,
            bank_start: 0,
            bank_free: busy,
            completes_at: busy + 75,
            service_cycles: busy,
        }
    }

    #[test]
    fn least_served_thread_wins() {
        let mut s = FairQueueing::new(2);
        // Thread 0 consumed lots of service.
        s.on_service(&outcome(0, 10_000), &[], 10_000);
        let pending = vec![req(0, 0, 9, 0), req(1, 1, 1, 50)];
        // Thread 0 has the row hit and the age, but thread 1's virtual
        // time is smaller.
        assert_eq!(s.pick(&pending, &ctx(100, Some(9))), 1);
    }

    #[test]
    fn equal_virtual_times_fall_back_to_frfcfs() {
        let mut s = FairQueueing::new(2);
        let pending = vec![req(0, 0, 1, 0), req(1, 1, 9, 100)];
        assert_eq!(s.pick(&pending, &ctx(200, Some(9))), 1, "row hit wins");
        assert_eq!(s.pick(&pending, &ctx(200, None)), 0, "age wins");
    }

    #[test]
    fn virtual_time_accumulates_service() {
        let mut s = FairQueueing::new(2);
        s.on_service(&outcome(1, 325), &[], 325);
        s.on_service(&outcome(1, 125), &[], 450);
        assert_eq!(s.virtual_time(ThreadId::new(1)), 450);
        assert_eq!(s.virtual_time(ThreadId::new(0)), 0);
    }

    #[test]
    fn arrival_catch_up_prevents_credit_hoarding() {
        let mut s = FairQueueing::new(2);
        s.on_service(&outcome(0, 1_000), &[], 1_000);
        s.on_service(&outcome(1, 4_000), &[], 5_000);
        // Thread 0 arrives after a long idle period: it catches up to the
        // minimum (its own 1_000 is already >= min), stays put.
        s.on_enqueue(&req(5, 0, 1, 6_000), 6_000);
        assert_eq!(s.virtual_time(ThreadId::new(0)), 1_000);
    }
}
