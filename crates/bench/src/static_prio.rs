//! A strict static-priority policy, used by the Figure 2 experiment.

use tcm_sched::select::{age_key, pick_max_by_key, row_hit};
use tcm_sched::{PickContext, Scheduler};
use tcm_types::{Request, ThreadId};

/// Strictly prioritizes one thread over all others (then row-hit, then
/// age) — the scheduling policy behind the paper's Figure 2 motivation
/// experiment, which strictly prioritizes either the random-access or
/// the streaming microbenchmark thread.
#[derive(Debug, Clone, Copy)]
pub struct StaticPriority {
    top: ThreadId,
}

impl StaticPriority {
    /// Creates the policy with `top` as the always-preferred thread.
    pub fn new(top: ThreadId) -> Self {
        Self { top }
    }
}

impl Scheduler for StaticPriority {
    fn name(&self) -> &'static str {
        "static-priority"
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        pick_max_by_key(pending, |r| {
            (r.thread == self.top, row_hit(r, ctx.open_row), age_key(r))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcm_dram::RequestQueue;
    use tcm_types::{BankId, ChannelId, MemAddress, RequestId, Row};

    #[test]
    fn top_thread_always_wins() {
        let mut s = StaticPriority::new(ThreadId::new(1));
        let addr = |row| MemAddress::new(ChannelId::new(0), BankId::new(0), Row::new(row));
        let mut queue = RequestQueue::new(128, 4);
        queue
            .push(Request::new(
                RequestId::new(0),
                ThreadId::new(0),
                addr(9),
                0,
            ))
            .unwrap();
        queue
            .push(Request::new(
                RequestId::new(1),
                ThreadId::new(1),
                addr(1),
                100,
            ))
            .unwrap();
        let ctx = PickContext {
            now: 200,
            channel: ChannelId::new(0),
            bank: BankId::new(0),
            open_row: Some(Row::new(9)),
            queue: &queue,
        };
        // Thread 0 has the row hit and the age, but thread 1 is static top.
        assert_eq!(s.pick(queue.pending_for_bank(BankId::new(0)), &ctx), 1);
    }
}
