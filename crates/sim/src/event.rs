//! Deterministic event queue for both simulator loops: the flat
//! [`System`](crate::System)'s global queue, and the coordinator and
//! per-shard queues of [`MultiSystem`](crate::MultiSystem).
//!
//! Structurally this is a small binary heap plus FIFO *lanes*. The heap
//! only ever holds core bursts and scheduler ticks (a handful of
//! entries); the high-volume event classes ride the lanes:
//!
//! * `Completion` cycles are `bus_end + fixed_overhead`, and
//! * `BankReady` cycles are `bus_end`,
//!
//! where `bus_end` comes from [`DataBus::reserve`], which is strictly
//! increasing per channel. Each class is therefore pushed in
//! nondecreasing cycle order *per channel*, so a plain `VecDeque` per
//! (channel, class) replaces heap sift traffic with O(1) pushes and
//! pops. A shard's queue also receives `Arrival`s and completion
//! notifications routed from the coordinator, in coordinator processing
//! order — nondecreasing, so both share one *routed* lane there. A
//! single monotone sequence number is stamped on every push —
//! lane or heap — and the pop side takes the global minimum of
//! `(cycle, seq)` across the heap and all lane fronts, which reproduces
//! the old pure-heap pop order bit for bit (same-cycle events pop in
//! insertion order). Should a push ever violate a lane's monotonicity
//! (only a chaos spill flood does, stamping phantom arrivals ahead of
//! in-flight core events; the chaos bus-overlap re-timing keeps
//! completions nondecreasing since `burst >= 1`), it falls back to the
//! heap and ordering is still exact.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use tcm_types::{BankId, ChannelId, Cycle, Request, ThreadId};

/// A simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A core reaches its next miss-burst instruction. Carries the core's
    /// epoch at scheduling time; stale epochs are ignored (the core was
    /// re-polled in the meantime).
    CoreBurst {
        /// Core reaching its burst.
        thread: ThreadId,
        /// Epoch stamp for staleness detection.
        epoch: u64,
    },
    /// A bank finished its previous service and can be scheduled again.
    BankReady {
        /// Channel owning the bank.
        channel: ChannelId,
        /// The bank.
        bank: BankId,
    },
    /// A request's data arrives back at its core.
    Completion {
        /// The completed request.
        request: Request,
    },
    /// The scheduling policy's timer (quantum / shuffle boundary).
    SchedTick,
    /// A request reaches its memory controller (a shard's queue only:
    /// the flat loop admits requests as their burst injects).
    Arrival {
        /// The arriving request.
        request: Request,
    },
}

/// Which structure currently holds the earliest event.
#[derive(Debug, Clone, Copy)]
enum Source {
    Heap,
    Routed,
    Completion(usize),
    BankReady(usize),
}

/// Time-ordered event queue. Events at the same cycle pop in insertion
/// order (a monotone sequence number breaks ties), making runs exactly
/// reproducible.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Cycle, u64, EventEntry)>>,
    /// Events routed in from another queue, in its processing order
    /// (arrivals, plus completions on a shard's queue): nondecreasing
    /// cycles by construction.
    routed: VecDeque<(Cycle, u64, Event)>,
    /// Whether completions ride the routed lane (a shard's queue) rather
    /// than per-channel lanes.
    route_completions: bool,
    /// Per-channel completion lane: nondecreasing cycles by construction.
    completions: Vec<VecDeque<(Cycle, u64, Request)>>,
    /// Per-channel bank-ready lane: nondecreasing cycles by construction.
    bank_ready: Vec<VecDeque<(Cycle, u64, BankId)>>,
    /// Global index of the channel behind lane 0 (a shard's queue only
    /// sees its own controller's channels).
    lane_base: usize,
    len: usize,
    seq: u64,
    /// Test hook: route every push through the heap (the pre-lane
    /// reference behavior) so equivalence tests can prove the lanes
    /// change nothing observable.
    reference_mode: bool,
}

/// Wrapper giving `Event` a total order for heap membership (never
/// actually compared: the `(cycle, seq)` prefix is unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventEntry(Event);

impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventEntry {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl EventQueue {
    /// Creates an empty queue. Lanes grow on first use per channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue for a shard whose channels start at global
    /// channel `base`: its channel lanes start there, and completions
    /// share the routed lane with arrivals.
    pub(crate) fn for_shard(base: usize) -> Self {
        Self {
            lane_base: base,
            route_completions: true,
            ..Self::default()
        }
    }

    /// Routes all future pushes through the heap (the reference, pure
    /// binary-heap order). Pop order is identical either way; this exists
    /// so tests can assert that, not for production use.
    #[doc(hidden)]
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference_mode = on;
    }

    /// The lane of local channel `c`, created on first use.
    #[inline]
    fn lane<T>(lanes: &mut Vec<VecDeque<T>>, c: usize) -> &mut VecDeque<T> {
        if c >= lanes.len() {
            Self::grow_lanes(lanes, c);
        }
        &mut lanes[c]
    }

    #[cold]
    fn grow_lanes<T>(lanes: &mut Vec<VecDeque<T>>, c: usize) {
        lanes.resize_with(c + 1, VecDeque::new);
    }

    /// Schedules `event` at `cycle`.
    pub fn push(&mut self, cycle: Cycle, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        if !self.reference_mode {
            match event {
                Event::Completion { request } if !self.route_completions => {
                    let c = request.addr.channel.index() - self.lane_base;
                    let lane = Self::lane(&mut self.completions, c);
                    if lane.back().is_none_or(|&(last, _, _)| cycle >= last) {
                        lane.push_back((cycle, seq, request));
                        return;
                    }
                }
                Event::BankReady { channel, bank } => {
                    let c = channel.index() - self.lane_base;
                    let lane = Self::lane(&mut self.bank_ready, c);
                    if lane.back().is_none_or(|&(last, _, _)| cycle >= last) {
                        lane.push_back((cycle, seq, bank));
                        return;
                    }
                }
                Event::Arrival { .. } | Event::Completion { .. } => {
                    let lane = &mut self.routed;
                    if lane.back().is_none_or(|&(last, _, _)| cycle >= last) {
                        lane.push_back((cycle, seq, event));
                        return;
                    }
                }
                Event::CoreBurst { .. } | Event::SchedTick => {}
            }
        }
        self.heap.push(Reverse((cycle, seq, EventEntry(event))));
    }

    /// `(cycle, seq)` of the earliest pending event and where it lives.
    fn min_source(&self) -> Option<(Cycle, u64, Source)> {
        let mut best = self
            .heap
            .peek()
            .map(|Reverse((c, s, _))| (*c, *s, Source::Heap));
        if let Some(&(c, s, _)) = self.routed.front() {
            if best.is_none_or(|(bc, bs, _)| (c, s) < (bc, bs)) {
                best = Some((c, s, Source::Routed));
            }
        }
        for (i, lane) in self.completions.iter().enumerate() {
            if let Some(&(c, s, _)) = lane.front() {
                if best.is_none_or(|(bc, bs, _)| (c, s) < (bc, bs)) {
                    best = Some((c, s, Source::Completion(i)));
                }
            }
        }
        for (i, lane) in self.bank_ready.iter().enumerate() {
            if let Some(&(c, s, _)) = lane.front() {
                if best.is_none_or(|(bc, bs, _)| (c, s) < (bc, bs)) {
                    best = Some((c, s, Source::BankReady(i)));
                }
            }
        }
        best
    }

    fn pop_source(&mut self, source: Source) -> (Cycle, Event) {
        self.len -= 1;
        match source {
            Source::Heap => {
                let Reverse((c, _, e)) = self.heap.pop().expect("heap source vanished");
                (c, e.0)
            }
            Source::Routed => {
                let (c, _, event) = self.routed.pop_front().expect("lane source vanished");
                (c, event)
            }
            Source::Completion(i) => {
                let (c, _, request) =
                    self.completions[i].pop_front().expect("lane source vanished");
                (c, Event::Completion { request })
            }
            Source::BankReady(i) => {
                let (c, _, bank) =
                    self.bank_ready[i].pop_front().expect("lane source vanished");
                (
                    c,
                    Event::BankReady {
                        channel: ChannelId::new(self.lane_base + i),
                        bank,
                    },
                )
            }
        }
    }

    /// Removes and returns the earliest event as `(cycle, event)`.
    pub fn pop(&mut self) -> Option<(Cycle, Event)> {
        let (_, _, source) = self.min_source()?;
        Some(self.pop_source(source))
    }

    /// Removes and returns the earliest event if it is scheduled at or
    /// before `bound` — the peek and the pop in one scan, so the event
    /// loop's `peek_cycle()` + `pop().expect(...)` pair becomes a single
    /// conditional pop.
    pub fn pop_at_or_before(&mut self, bound: Cycle) -> Option<(Cycle, Event)> {
        let (cycle, _, source) = self.min_source()?;
        if cycle > bound {
            return None;
        }
        Some(self.pop_source(source))
    }

    /// The cycle of the earliest pending event.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.min_source().map(|(c, _, _)| c)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_types::{MemAddress, RequestId, Row};

    fn completion(channel: usize, id: u64) -> Event {
        Event::Completion {
            request: Request::new(
                RequestId::new(id),
                ThreadId::new(0),
                MemAddress::new(ChannelId::new(channel), BankId::new(0), Row::new(0)),
                0,
            ),
        }
    }

    fn arrival(channel: usize, id: u64) -> Event {
        match completion(channel, id) {
            Event::Completion { request } => Event::Arrival { request },
            _ => unreachable!(),
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::SchedTick);
        q.push(10, Event::SchedTick);
        q.push(20, Event::SchedTick);
        let order: Vec<Cycle> = std::iter::from_fn(|| q.pop().map(|(c, _)| c)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::CoreBurst { thread: ThreadId::new(0), epoch: 0 });
        q.push(5, Event::CoreBurst { thread: ThreadId::new(1), epoch: 0 });
        q.push(5, Event::CoreBurst { thread: ThreadId::new(2), epoch: 0 });
        let threads: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::CoreBurst { thread, .. } => thread.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(threads, vec![0, 1, 2]);
    }

    #[test]
    fn ties_across_lanes_and_heap_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, completion(1, 100)); // lane: channel 1
        q.push(5, Event::SchedTick); // heap
        q.push(5, completion(0, 101)); // lane: channel 0
        q.push(
            5,
            Event::BankReady { channel: ChannelId::new(1), bank: BankId::new(3) },
        );
        q.push(5, arrival(1, 4)); // lane: routed
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Completion { request } => request.id.raw(),
                Event::SchedTick => 0,
                Event::BankReady { bank, .. } => 200 + bank.index() as u64,
                Event::Arrival { request } => 300 + request.id.raw(),
                Event::CoreBurst { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![100, 0, 101, 203, 304]);
    }

    #[test]
    fn shard_lanes_keep_global_channel_ids() {
        let mut q = EventQueue::for_shard(2);
        q.push(9, Event::BankReady { channel: ChannelId::new(3), bank: BankId::new(1) });
        q.push(7, completion(2, 5));
        q.push(8, arrival(3, 6));
        assert_eq!(q.pop(), Some((7, completion(2, 5))));
        assert_eq!(q.pop(), Some((8, arrival(3, 6))));
        assert_eq!(
            q.pop(),
            Some((9, Event::BankReady { channel: ChannelId::new(3), bank: BankId::new(1) }))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn non_monotone_lane_push_falls_back_to_heap() {
        let mut q = EventQueue::new();
        q.push(50, completion(0, 1));
        q.push(40, completion(0, 2)); // violates lane order: heap fallback
        q.push(50, completion(0, 3));
        let order: Vec<(Cycle, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(c, e)| match e {
                Event::Completion { request } => (c, request.id.raw()),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(40, 2), (50, 1), (50, 3)]);
    }

    #[test]
    fn pop_at_or_before_respects_bound() {
        let mut q = EventQueue::new();
        q.push(10, Event::SchedTick);
        q.push(20, completion(0, 7));
        assert_eq!(q.pop_at_or_before(5), None);
        assert_eq!(q.pop_at_or_before(10).map(|(c, _)| c), Some(10));
        assert_eq!(q.pop_at_or_before(19), None);
        assert_eq!(q.pop_at_or_before(20).map(|(c, _)| c), Some(20));
        assert!(q.is_empty());
    }

    #[test]
    fn reference_mode_orders_identically() {
        let pushes = [
            (5, completion(0, 1)),
            (3, Event::SchedTick),
            (5, completion(1, 2)),
            (5, Event::BankReady { channel: ChannelId::new(0), bank: BankId::new(1) }),
            (4, completion(0, 3)),
            (5, completion(0, 4)),
            (6, arrival(1, 5)),
            (2, arrival(0, 6)),
            (6, arrival(0, 7)),
        ];
        for mut fast in [EventQueue::new(), EventQueue::for_shard(0)] {
            let mut reference = EventQueue::new();
            reference.set_reference_mode(true);
            for &(c, e) in &pushes {
                fast.push(c, e);
                reference.push(c, e);
            }
            loop {
                let (a, b) = (fast.pop(), reference.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_cycle(), None);
        q.push(7, Event::SchedTick);
        assert_eq!(q.peek_cycle(), Some(7));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
