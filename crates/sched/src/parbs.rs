//! PAR-BS: parallelism-aware batch scheduling (Mutlu & Moscibroda, ISCA
//! 2008).

use crate::select::{age_key, pick_max_by_key, row_hit};
use crate::{PickContext, Scheduler};
use tcm_dram::{RequestQueue, ServiceOutcome};
use tcm_types::{Cycle, Request};

/// PAR-BS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParBsParams {
    /// Maximum marked requests per thread per bank when forming a batch
    /// (the TCM paper evaluates PAR-BS with BatchCap 5 and sweeps 1–10 in
    /// its Figure 6).
    pub batch_cap: usize,
}

impl ParBsParams {
    /// The TCM paper's PAR-BS configuration (BatchCap 5).
    pub fn paper_default() -> Self {
        Self { batch_cap: 5 }
    }
}

impl Default for ParBsParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-channel batch state, overwritten by each batch formation.
#[derive(Debug, Clone, Default)]
struct BatchState {
    /// Marked requests not yet serviced; a new batch forms at zero.
    marked_left: usize,
    /// `[bank][thread]`: that thread's requests at that bank with ids
    /// below this are marked.
    below: Vec<Vec<u64>>,
    /// Per thread: requests marked at the bank being walked (formation
    /// scratch), and `(max, total)` marked over all banks.
    count: Vec<usize>,
    load: Vec<(usize, usize)>,
}

impl BatchState {
    /// Whether `r` belongs to the current batch.
    fn is_marked(&self, r: &Request) -> bool {
        self.below
            .get(r.addr.bank.index())
            .and_then(|bank| bank.get(r.thread.index()))
            .is_some_and(|&below| r.id.raw() < below)
    }

    /// Shortest-job-first rank of thread `t`, larger first. Ascending
    /// (max load, total load, thread) is the order a stable sort by
    /// (max load, total load) over thread index gives, so the rank is
    /// that triple packed 42 bits a field and inverted, below the pick
    /// key's two flag bits. Threads beyond the policy's count rank last.
    fn rank(&self, t: usize) -> u128 {
        self.load.get(t).map_or(0, |&(max, total)| {
            !((max as u128) << 84 | (total as u128) << 42 | t as u128) & ((1 << 126) - 1)
        })
    }

    /// Marks up to `cap` oldest requests per thread per bank. A channel
    /// admits ids in increasing order and each lane is in arrival order,
    /// so a (thread, bank)'s first `cap` requests in its lane are its
    /// oldest by `(issued_at, id)`, and every later admission carries a
    /// higher id: one cutoff id per (thread, bank) marks the batch.
    fn form(&mut self, queue: &RequestQueue, cap: usize) {
        self.marked_left = 0;
        self.load.fill((0, 0));
        self.below.iter_mut().for_each(|below| below.fill(0));
        for bank in queue.banks_with_pending() {
            if bank.index() >= self.below.len() {
                self.below.resize(bank.index() + 1, Vec::new());
            }
            let below = &mut self.below[bank.index()];
            self.count.fill(0);
            for r in queue.pending_for_bank(bank) {
                let t = r.thread.index();
                // Rows and `count` grow together, so `count` is never
                // shorter than a row.
                if t >= below.len() {
                    below.resize(t + 1, 0);
                    self.count.resize(self.count.len().max(t + 1), 0);
                }
                if self.count[t] < cap {
                    self.count[t] += 1;
                    below[t] = r.id.raw() + 1;
                    if let Some((max, total)) = self.load.get_mut(t) {
                        *max = (*max).max(self.count[t]);
                        *total += 1;
                    }
                }
                // Counted by the marking rule itself, so a request the
                // buffer holds twice is counted as often as it can be
                // serviced.
                self.marked_left += usize::from(r.id.raw() < below[t]);
            }
        }
    }
}

/// Parallelism-aware batch scheduler.
///
/// Forms *batches*: when no marked request remains on a channel, up to
/// `batch_cap` oldest requests per thread per bank are marked. Marked
/// requests are strictly prioritized over unmarked ones (this provides
/// starvation freedom), and within a batch threads are ranked
/// shortest-job-first by their maximum per-bank marked load (ties by
/// total load) so that light threads finish the batch quickly and each
/// thread's requests are serviced in parallel across banks. The full
/// priority order is the published rule: marked-first, then row-hit, then
/// rank, then oldest. A batch is formed from the channel's buffer,
/// [`PickContext::queue`]; the policy keeps no copy of it.
#[derive(Debug, Clone)]
pub struct ParBs {
    params: ParBsParams,
    num_threads: usize,
    /// Batch state indexed densely by channel, grown on first touch.
    channels: Vec<BatchState>,
}

impl ParBs {
    /// Creates PAR-BS for `num_threads` threads with the paper defaults.
    pub fn new(num_threads: usize) -> Self {
        Self::with_params(num_threads, ParBsParams::paper_default())
    }

    /// Creates PAR-BS with explicit parameters.
    pub fn with_params(num_threads: usize, params: ParBsParams) -> Self {
        assert!(params.batch_cap > 0, "batch cap must be non-zero");
        Self {
            params,
            num_threads,
            channels: Vec::new(),
        }
    }
}

impl Scheduler for ParBs {
    fn name(&self) -> &'static str {
        "PAR-BS"
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        let (index, n) = (ctx.channel.index(), self.num_threads);
        if index >= self.channels.len() {
            self.channels.resize_with(index + 1, || BatchState {
                count: vec![0; n],
                load: vec![(0, 0); n],
                ..BatchState::default()
            });
        }
        let state = &mut self.channels[index];
        if state.marked_left == 0 {
            state.form(ctx.queue, self.params.batch_cap);
        }
        // Every candidate is at `ctx.bank`, so one row of cutoffs serves.
        let below = state
            .below
            .get(ctx.bank.index())
            .map_or(&[][..], Vec::as_slice);
        pick_max_by_key(pending, |r| {
            let t = r.thread.index();
            let marked = below.get(t).is_some_and(|&below| r.id.raw() < below);
            let key = u128::from(marked) << 127
                | u128::from(row_hit(r, ctx.open_row)) << 126
                | state.rank(t);
            (key, age_key(r))
        })
    }

    fn on_service(&mut self, outcome: &ServiceOutcome, _remaining: &[Request], _now: Cycle) {
        let r = &outcome.request;
        if let Some(state) = self.channels.get_mut(r.addr.channel.index()) {
            if state.is_marked(r) {
                state.marked_left -= 1;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::testutil::{req, req_at_bank};
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use tcm_types::{BankId, ChannelId, MemAddress, RequestId, Row, ThreadId};

    /// Today's batch former, kept as the oracle: it mirrors the channel's
    /// requests through `on_enqueue`, sorts the mirror by (thread, bank,
    /// age) to mark, and sorts the threads by load to rank.
    mod reference {
        use crate::select::{age_key, pick_max_by_key, row_hit};
        use crate::{PickContext, Scheduler};
        use std::collections::HashSet;
        use tcm_dram::ServiceOutcome;
        use tcm_types::{Cycle, Request, RequestId};

        #[derive(Debug, Clone, Default)]
        struct BatchState {
            marked: HashSet<RequestId>,
            priority: Vec<usize>,
            queued: Vec<Request>,
        }

        #[derive(Debug, Clone)]
        pub struct ParBsReference {
            cap: usize,
            num_threads: usize,
            channels: Vec<BatchState>,
        }

        impl ParBsReference {
            pub fn new(num_threads: usize, cap: usize) -> Self {
                Self {
                    cap,
                    num_threads,
                    channels: Vec::new(),
                }
            }

            fn state_mut(&mut self, channel: usize) -> &mut BatchState {
                if channel >= self.channels.len() {
                    self.channels.resize_with(channel + 1, BatchState::default);
                }
                &mut self.channels[channel]
            }

            fn form_batch(state: &mut BatchState, cap: usize, num_threads: usize) {
                state.marked.clear();
                state.queued.sort_unstable_by_key(|r| {
                    (
                        r.thread.index(),
                        r.addr.bank.index(),
                        r.issued_at,
                        r.id.raw(),
                    )
                });
                let mut max_load = vec![0usize; num_threads];
                let mut total_load = vec![0usize; num_threads];
                let mut start = 0;
                while start < state.queued.len() {
                    let thread = state.queued[start].thread.index();
                    let bank = state.queued[start].addr.bank.index();
                    let mut end = start + 1;
                    while end < state.queued.len()
                        && state.queued[end].thread.index() == thread
                        && state.queued[end].addr.bank.index() == bank
                    {
                        end += 1;
                    }
                    let marked = (end - start).min(cap);
                    for r in &state.queued[start..start + marked] {
                        state.marked.insert(r.id);
                    }
                    if thread < num_threads {
                        max_load[thread] = max_load[thread].max(marked);
                        total_load[thread] += marked;
                    }
                    start = end;
                }
                let mut order: Vec<usize> = (0..num_threads).collect();
                order.sort_by_key(|&t| (max_load[t], total_load[t]));
                state.priority = vec![0; num_threads];
                for (pos, &t) in order.iter().enumerate() {
                    state.priority[t] = num_threads - pos;
                }
            }
        }

        impl Scheduler for ParBsReference {
            fn name(&self) -> &'static str {
                "PAR-BS reference"
            }

            fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
                let (cap, num_threads) = (self.cap, self.num_threads);
                let state = self.state_mut(ctx.channel.index());
                if state.marked.is_empty() && !state.queued.is_empty() {
                    Self::form_batch(state, cap, num_threads);
                }
                pick_max_by_key(pending, |r| {
                    (
                        state.marked.contains(&r.id),
                        row_hit(r, ctx.open_row),
                        state.priority.get(r.thread.index()).copied().unwrap_or(0),
                        age_key(r),
                    )
                })
            }

            fn on_enqueue(&mut self, req: &Request, _now: Cycle) {
                self.state_mut(req.addr.channel.index()).queued.push(*req);
            }

            fn on_service(&mut self, outcome: &ServiceOutcome, _rest: &[Request], _now: Cycle) {
                let id = outcome.request.id;
                let state = self.state_mut(outcome.request.addr.channel.index());
                state.marked.remove(&id);
                if let Some(pos) = state.queued.iter().position(|r| r.id == id) {
                    state.queued.swap_remove(pos);
                }
            }
        }
    }

    fn outcome_for(r: &Request) -> ServiceOutcome {
        ServiceOutcome {
            request: *r,
            row_state: tcm_types::RowState::Closed,
            bank_start: 0,
            bank_free: 275,
            completes_at: 400,
            service_cycles: 325,
        }
    }

    /// A channel-0 buffer holding `requests`, admitted in order.
    fn buffer(requests: &[Request]) -> RequestQueue {
        let mut queue = RequestQueue::new(128, 4);
        for r in requests {
            queue.push(*r).unwrap();
        }
        queue
    }

    /// A pick context for channel 0 / `bank` over `queue`.
    fn ctx_in(
        queue: &RequestQueue,
        bank: usize,
        now: Cycle,
        open_row: Option<usize>,
    ) -> PickContext<'_> {
        PickContext {
            now,
            channel: ChannelId::new(0),
            bank: BankId::new(bank),
            open_row: open_row.map(Row::new),
            queue,
        }
    }

    /// Picks at `bank` of `queue` (`pending` is the bank's lane).
    fn pick_at(s: &mut ParBs, queue: &RequestQueue, bank: usize, now: Cycle) -> Request {
        let pending = queue.pending_for_bank(BankId::new(bank));
        pending[s.pick(pending, &ctx_in(queue, bank, now, None))]
    }

    #[test]
    fn marked_requests_beat_unmarked_row_hits() {
        let mut s = ParBs::with_params(2, ParBsParams { batch_cap: 1 });
        // Thread 0 has two requests on bank 0; cap 1 marks only the older.
        let queue = buffer(&[req(0, 0, 1, 0), req(1, 0, 9, 10)]);
        // Row 9 open: unmarked r1 is a row hit, but marked r0 wins.
        let pending = queue.pending_for_bank(BankId::new(0));
        assert_eq!(s.pick(pending, &ctx_in(&queue, 0, 20, Some(9))), 0);
    }

    #[test]
    fn shortest_job_first_ranks_light_thread_higher() {
        let mut s = ParBs::new(2);
        // Thread 0: 4 requests on bank 0 (heavy). Thread 1: 1 request.
        let mut all: Vec<Request> = (0..4).map(|i| req(i, 0, 1, i)).collect();
        all.push(req(10, 1, 2, 4));
        let queue = buffer(&all);
        // All five are marked (cap 5); light thread must rank higher.
        assert_eq!(pick_at(&mut s, &queue, 0, 10).thread.index(), 1);
    }

    #[test]
    fn new_batch_forms_when_previous_drains() {
        let mut s = ParBs::with_params(1, ParBsParams { batch_cap: 1 });
        let (r0, r1) = (req(0, 0, 1, 0), req(1, 0, 2, 10));
        let mut queue = buffer(&[r0, r1]);
        assert_eq!(pick_at(&mut s, &queue, 0, 20), r0, "older marked first");
        let state = &s.channels[0];
        assert_eq!((state.marked_left, state.is_marked(&r1)), (1, false));
        queue.take_for_bank(BankId::new(0), 0).unwrap();
        s.on_service(
            &outcome_for(&r0),
            queue.pending_for_bank(BankId::new(0)),
            300,
        );
        assert_eq!(s.channels[0].marked_left, 0);
        // Batch drained; r1 becomes marked in the new batch.
        assert_eq!(pick_at(&mut s, &queue, 0, 400), r1);
        let state = &s.channels[0];
        assert_eq!((state.marked_left, state.is_marked(&r1)), (1, true));
    }

    #[test]
    fn batching_is_per_channel() {
        let mut s = ParBs::new(1);
        let queue = buffer(&[req(0, 0, 1, 0)]); // channel 0
        pick_at(&mut s, &queue, 0, 1);
        assert_eq!(s.channels[ChannelId::new(0).index()].marked_left, 1);
        assert!(s.channels.get(ChannelId::new(1).index()).is_none());
    }

    #[test]
    fn max_bank_load_drives_rank_not_total() {
        let mut s = ParBs::new(2);
        // Thread 0: 4 requests all on bank 0 (max load 4, total 4).
        // Thread 1: one request on each of banks 0–3 (max load 1, total
        // 4). Both contest bank 0.
        let mut all: Vec<Request> = (0..4).map(|i| req_at_bank(i, 0, 0, 1, i)).collect();
        all.extend((0..4).map(|b| req_at_bank(10 + b as u64, 1, b, 1, 4 + b as u64)));
        let queue = buffer(&all);
        assert_eq!(
            pick_at(&mut s, &queue, 0, 10).thread.index(),
            1,
            "thread with lower max bank load ranks first"
        );
    }

    #[test]
    fn requests_admitted_after_formation_stay_unmarked() {
        let mut s = ParBs::new(1);
        let mut queue = buffer(&[req(0, 0, 1, 0)]);
        pick_at(&mut s, &queue, 0, 1);
        // Below the cap, but it arrived after the batch formed.
        let late = req(1, 0, 1, 2);
        queue.push(late).unwrap();
        let state = &s.channels[0];
        assert!(state.is_marked(&req(0, 0, 1, 0)) && !state.is_marked(&late));
        assert_eq!(state.marked_left, 1);
    }

    /// One step of a random controller: admit a request, or pick and
    /// service one at a bank.
    #[derive(Debug, Clone)]
    enum Op {
        Admit {
            channel: usize,
            thread: usize,
            bank: usize,
            row: usize,
            gap: Cycle,
        },
        Pick {
            channel: usize,
            bank: usize,
            open_row: Option<usize>,
            gap: Cycle,
        },
    }

    /// Three parts admit to two parts pick; an open row of 3 means a
    /// closed bank.
    fn op() -> impl Strategy<Value = Op> {
        (0..5u8, 0..2usize, 0..4usize, 0..3usize, 0..4usize, 0..40u64).prop_map(
            |(kind, channel, thread, bank, row, gap)| {
                if kind < 3 {
                    Op::Admit {
                        channel,
                        thread,
                        bank,
                        row: row % 3,
                        gap,
                    }
                } else {
                    let open_row = (row < 3).then_some(row);
                    Op::Pick {
                        channel,
                        bank,
                        open_row,
                        gap,
                    }
                }
            },
        )
    }

    /// Admits `r` as a controller does: straight into the buffer when no
    /// request waits in the spill queue and there is room, else spilled.
    fn admit(
        queue: &mut RequestQueue,
        spill: &mut VecDeque<Request>,
        oracle: &mut reference::ParBsReference,
        r: Request,
        now: Cycle,
    ) {
        if spill.is_empty() && queue.push(r).is_ok() {
            oracle.on_enqueue(&r, now);
        } else {
            spill.push_back(r);
        }
    }

    /// Drains the spill queue in FIFO order, re-stamped at `now`.
    fn drain(
        queue: &mut RequestQueue,
        spill: &mut VecDeque<Request>,
        oracle: &mut reference::ParBsReference,
        now: Cycle,
    ) {
        while let Some(&r) = spill.front() {
            let r = Request {
                issued_at: now,
                ..r
            };
            if queue.push(r).is_err() {
                break;
            }
            spill.pop_front();
            oracle.on_enqueue(&r, now);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The buffer-reading batch former picks exactly what the
        /// mirroring one picked, over random admit, spill, drain, pick
        /// and service streams on two channels. Thread 3 lies beyond
        /// the policy's thread count: marked, but unranked.
        #[test]
        fn picks_match_the_mirroring_reference(
            cap in 1..11usize,
            capacity in 2..12usize,
            ops in proptest::collection::vec(op(), 1..300),
        ) {
            let threads = 3;
            let mut policy = ParBs::with_params(threads, ParBsParams { batch_cap: cap });
            let mut oracle = reference::ParBsReference::new(threads, cap);
            let mut queues: Vec<RequestQueue> =
                (0..2).map(|_| RequestQueue::new(capacity, 3)).collect();
            let mut spills: Vec<VecDeque<Request>> = vec![VecDeque::new(); 2];
            let (mut now, mut next_id) = (0, 0);
            for op in ops {
                match op {
                    Op::Admit { channel, thread, bank, row, gap } => {
                        now += gap;
                        let addr = MemAddress::new(
                            ChannelId::new(channel),
                            BankId::new(bank),
                            Row::new(row),
                        );
                        let r = Request::new(
                            RequestId::new(next_id),
                            ThreadId::new(thread),
                            addr,
                            now,
                        );
                        next_id += 1;
                        admit(&mut queues[channel], &mut spills[channel], &mut oracle, r, now);
                    }
                    Op::Pick { channel, bank, open_row, gap } => {
                        now += gap;
                        let queue = &mut queues[channel];
                        let banks: Vec<BankId> = queue.banks_with_pending().iter().collect();
                        let Some(&bank) = banks.get(bank % banks.len().max(1)) else {
                            continue;
                        };
                        let ctx = PickContext {
                            now,
                            channel: ChannelId::new(channel),
                            bank,
                            open_row: open_row.map(Row::new),
                            queue: &*queue,
                        };
                        let pending = queue.pending_for_bank(bank);
                        let got = policy.pick(pending, &ctx);
                        let want = oracle.pick(pending, &ctx);
                        prop_assert_eq!(got, want, "pick at {:?} cycle {}", bank, now);
                        let served = queue.take_for_bank(bank, got).unwrap();
                        let rest = queue.pending_for_bank(bank);
                        policy.on_service(&outcome_for(&served), rest, now);
                        oracle.on_service(&outcome_for(&served), rest, now);
                        drain(queue, &mut spills[channel], &mut oracle, now);
                    }
                }
            }
        }
    }
}
