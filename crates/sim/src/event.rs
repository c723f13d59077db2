//! Deterministic event queue for both of [`System`](crate::System)'s
//! stepping rules: the flat loop's global queue, and the window loop's
//! core-side and per-shard queues.
//!
//! It is a calendar queue (R. Brown, "Calendar Queues", CACM 1988) with
//! one bucket per cycle. Each cycle of the *near window*
//! `[base, base + WINDOW)`, where `base` is the last popped cycle, owns
//! a FIFO slot linked through a node arena; an occupancy bitmap (plus
//! one summary bit per 64 slots) finds the next non-empty slot with two
//! `trailing_zeros`, so pushes and pops are O(1). Events at or beyond
//! the window's end wait in a `(cycle, seq)` heap, `seq` being a
//! monotone stamp taken by every push. Whenever `base` advances, every
//! far event the window now covers moves into its slot in heap order,
//! before any direct push can reach that slot. Each slot's FIFO is thus
//! in `seq` order, and pops come out in exact `(cycle, seq)` order for
//! every event kind: same-cycle events pop in insertion order.
//!
//! Pushing before the last popped cycle is a caller bug and panics in
//! every build. A bounded pop that finds nothing due leaves the window
//! alone, so the window loop may still push arrivals up to its bound.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tcm_types::{BankId, ChannelId, Cycle, Request, ThreadId};

/// Width of the near window in cycles: a power of two, wide enough that
/// completions, bank wakeups and core bursts almost never go far.
pub const WINDOW: usize = 4096;
/// Occupancy words, one bit per slot.
const WORDS: usize = WINDOW / 64;

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

impl Event {
    /// The `kind` label of each variant in the metric catalog, indexed
    /// by [`Event::kind`].
    pub(crate) const KINDS: [&'static str; 5] = [
        "core_burst",
        "bank_ready",
        "completion",
        "sched_tick",
        "arrival",
    ];

    /// Index of this event's variant in [`Event::KINDS`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Event::CoreBurst { .. } => 0,
            Event::BankReady { .. } => 1,
            Event::Completion { .. } => 2,
            Event::SchedTick => 3,
            Event::Arrival { .. } => 4,
        }
    }
}

/// Deterministic counters of one queue, or summed over a machine's
/// queues; absorbed into the metric catalog at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EventCounts {
    /// Events popped, by [`Event::kind`].
    pub(crate) popped: [u64; 5],
    /// Pushes that landed at or beyond the near window's end.
    pub(crate) far_pushes: u64,
}

impl std::ops::AddAssign for EventCounts {
    fn add_assign(&mut self, other: Self) {
        self.popped
            .iter_mut()
            .zip(other.popped)
            .for_each(|(a, b)| *a += b);
        self.far_pushes += other.far_pushes;
    }
}

/// One queued event and the next node of its slot's FIFO (meaningless
/// at the tail).
#[derive(Debug, Clone, Copy)]
struct Node {
    event: Event,
    next: u32,
}

/// Time-ordered event queue. Events at the same cycle pop in insertion
/// order, making runs exactly reproducible.
#[derive(Debug)]
pub struct EventQueue {
    /// First cycle of the near window: the last popped cycle.
    base: Cycle,
    /// Near-window width: [`WINDOW`], or 0 in reference mode.
    width: Cycle,
    /// `(head, tail)` node of each slot's FIFO; slot `c % WINDOW` holds
    /// the events at cycle `c`. Valid only while the slot's bit is set.
    slots: Box<[(u32, u32); WINDOW]>,
    /// Bit `s % 64` of word `s / 64` is set while slot `s` is non-empty.
    bits: [u64; WORDS],
    /// Bit `w` is set while `bits[w]` is non-zero.
    summary: u64,
    nodes: Vec<Node>,
    /// Indices of unused `nodes`.
    free: Vec<u32>,
    /// Nodes of the events at or beyond the window's end, in
    /// `(cycle, seq)` order.
    far: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    seq: u64,
    pub(crate) counts: EventCounts,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            base: 0,
            width: WINDOW as Cycle,
            slots: vec![(0, 0); WINDOW].try_into().expect("WINDOW slots"),
            bits: [0; WORDS],
            summary: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            far: BinaryHeap::new(),
            seq: 0,
            counts: EventCounts::default(),
        }
    }

    /// Sends all future pushes to the far heap, as if the window had
    /// width 0: the pure binary-heap order. Pop order is identical either
    /// way; this exists so tests can assert that.
    #[doc(hidden)]
    pub fn set_reference_mode(&mut self, on: bool) {
        self.width = if on { 0 } else { WINDOW as Cycle };
        self.slide(self.base);
    }

    /// Schedules `event` at `cycle`; panics if `cycle` is before the
    /// last popped cycle.
    pub fn push(&mut self, cycle: Cycle, event: Event) {
        assert!(
            cycle >= self.base,
            "event pushed at cycle {cycle}, before the last popped cycle {}",
            self.base
        );
        self.seq += 1;
        let n = self.free.pop().unwrap_or_else(|| {
            self.nodes.push(Node { event, next: 0 });
            u32::try_from(self.nodes.len() - 1).expect("event arena overflow")
        });
        self.nodes[n as usize] = Node { event, next: 0 };
        if cycle - self.base < self.width {
            self.link(cycle, n);
        } else {
            self.counts.far_pushes += 1;
            self.far.push(Reverse((cycle, self.seq, n)));
        }
    }

    /// Appends node `n` to the FIFO of `cycle`'s slot.
    fn link(&mut self, cycle: Cycle, n: u32) {
        let s = cycle as usize % WINDOW;
        let (w, bit) = (s / 64, 1u64 << (s % 64));
        if self.bits[w] & bit == 0 {
            self.bits[w] |= bit;
            self.summary |= 1 << w;
            self.slots[s] = (n, n);
        } else {
            let tail = &mut self.slots[s].1;
            self.nodes[*tail as usize].next = n;
            *tail = n;
        }
    }

    /// Moves the window to start at `base` and files every far event it
    /// now covers into its slot, in `(cycle, seq)` order.
    fn slide(&mut self, base: Cycle) {
        self.base = base;
        while let Some(&Reverse((cycle, _, n))) = self.far.peek() {
            if cycle - base >= self.width {
                break;
            }
            self.far.pop();
            self.link(cycle, n);
        }
    }

    /// The first non-empty slot at or after `base`'s, wrapping around.
    fn next_slot(&self) -> Option<usize> {
        let p = self.base as usize % WINDOW;
        let here = self.bits[p / 64] & (!0u64 << (p % 64));
        if here != 0 {
            return Some(p / 64 * 64 + here.trailing_zeros() as usize);
        }
        let later = self.summary & (!1u64 << (p / 64));
        let w = match (later, self.summary) {
            (0, 0) => return None,
            (0, all) => all.trailing_zeros(),
            (later, _) => later.trailing_zeros(),
        } as usize;
        Some(w * 64 + self.bits[w].trailing_zeros() as usize)
    }

    /// Removes and returns the earliest event as `(cycle, event)`.
    pub fn pop(&mut self) -> Option<(Cycle, Event)> {
        self.pop_at_or_before(Cycle::MAX)
    }

    /// Removes and returns the earliest event if it is scheduled at or
    /// before `bound`. Returns `None`, and leaves the window alone, when
    /// nothing is due.
    pub fn pop_at_or_before(&mut self, bound: Cycle) -> Option<(Cycle, Event)> {
        let cycle = self.peek_cycle().filter(|&c| c <= bound)?;
        self.slide(cycle);
        let s = cycle as usize % WINDOW;
        let (w, bit) = (s / 64, 1u64 << (s % 64));
        // The slot holds `cycle`'s events unless, in reference mode, the
        // earliest event is a far one.
        let n = if self.bits[w] & bit != 0 {
            let (head, tail) = self.slots[s];
            if head == tail {
                self.bits[w] &= !bit;
                if self.bits[w] == 0 {
                    self.summary &= !(1 << w);
                }
            } else {
                self.slots[s].0 = self.nodes[head as usize].next;
            }
            head
        } else {
            self.far.pop().expect("far event vanished").0 .2
        };
        self.free.push(n);
        let event = self.nodes[n as usize].event;
        self.counts.popped[event.kind()] += 1;
        Some((cycle, event))
    }

    /// The cycle of the earliest pending event.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        let near = self
            .next_slot()
            .map(|s| self.base + (s.wrapping_sub(self.base as usize) % WINDOW) as Cycle);
        let far = self.far.peek().map(|Reverse((cycle, _, _))| *cycle);
        near.into_iter().chain(far).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    fn drain(q: &mut EventQueue) -> Vec<(Cycle, Event)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::SchedTick);
        q.push(10, Event::SchedTick);
        q.push(20, Event::SchedTick);
        let order: Vec<Cycle> = drain(&mut q).into_iter().map(|(c, _)| c).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(
            5,
            Event::CoreBurst {
                thread: ThreadId::new(0),
                epoch: 0,
            },
        );
        q.push(
            5,
            Event::CoreBurst {
                thread: ThreadId::new(1),
                epoch: 0,
            },
        );
        q.push(
            5,
            Event::CoreBurst {
                thread: ThreadId::new(2),
                epoch: 0,
            },
        );
        let threads: Vec<usize> = drain(&mut q)
            .into_iter()
            .map(|(_, e)| match e {
                Event::CoreBurst { thread, .. } => thread.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(threads, vec![0, 1, 2]);
    }

    #[test]
    fn ties_across_kinds_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let pushes = [
            completion(1, 100),
            Event::SchedTick,
            completion(0, 101),
            Event::BankReady {
                channel: ChannelId::new(1),
                bank: BankId::new(3),
            },
            arrival(1, 4),
        ];
        for e in pushes {
            q.push(5, e);
        }
        let popped: Vec<Event> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(popped, pushes);
    }

    #[test]
    fn far_events_join_their_slot_ahead_of_later_pushes() {
        let w = WINDOW as Cycle;
        let mut q = EventQueue::new();
        // Both beyond the window: they wait in the far heap.
        q.push(w + 7, completion(0, 1));
        q.push(w + 7, completion(0, 2));
        q.push(8, Event::SchedTick);
        assert_eq!(q.counts.far_pushes, 2);
        assert_eq!(q.pop(), Some((8, Event::SchedTick)));
        // The window now covers `w + 7`: the far events moved into its
        // slot, so this direct push queues behind them.
        q.push(w + 7, completion(0, 3));
        assert_eq!(q.counts.far_pushes, 2);
        let ids: Vec<u64> = drain(&mut q)
            .into_iter()
            .map(|(c, e)| match e {
                Event::Completion { request } if c == w + 7 => request.id.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(q.counts.popped, [0, 0, 3, 1, 0]);
    }

    #[test]
    fn slots_wrap_around_the_window() {
        let w = WINDOW as Cycle;
        let mut q = EventQueue::new();
        for round in 0..5 {
            // Each round starts where the previous one popped last.
            let at = round * (w - 1) + 10;
            q.push(at, Event::SchedTick);
            assert_eq!(q.pop(), Some((at, Event::SchedTick)));
            // The slot just below `at`'s: reached only by wrapping.
            q.push(at + w - 1, completion(0, round));
            q.push(at + 1, Event::SchedTick);
            assert_eq!(q.pop(), Some((at + 1, Event::SchedTick)));
            assert_eq!(q.peek_cycle(), Some(at + w - 1));
            assert_eq!(q.pop(), Some((at + w - 1, completion(0, round))));
        }
        assert!(q.is_empty());
        assert_eq!(q.counts.far_pushes, 0);
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
    fn refused_pop_leaves_the_window_alone() {
        let mut q = EventQueue::new();
        q.push(10, Event::SchedTick);
        q.push(10 + 3 * WINDOW as Cycle, completion(0, 1));
        assert_eq!(q.pop_at_or_before(100).map(|(c, _)| c), Some(10));
        assert_eq!(q.pop_at_or_before(100), None);
        // Still legal: the refused pop did not move past cycle 10.
        q.push(50, arrival(0, 2));
        assert_eq!(q.pop(), Some((50, arrival(0, 2))));
        assert_eq!(q.pop().map(|(c, _)| c), Some(10 + 3 * WINDOW as Cycle));
    }

    #[test]
    #[should_panic(expected = "event pushed at cycle 9, before the last popped cycle 10")]
    fn push_before_the_last_pop_panics() {
        let mut q = EventQueue::new();
        q.push(10, Event::SchedTick);
        q.pop();
        q.push(9, Event::SchedTick);
    }

    #[test]
    fn reference_mode_orders_identically() {
        let w = WINDOW as Cycle;
        let pushes = [
            (5, completion(0, 1)),
            (3, Event::SchedTick),
            (5, completion(1, 2)),
            (
                5,
                Event::BankReady {
                    channel: ChannelId::new(0),
                    bank: BankId::new(1),
                },
            ),
            (w + 4, completion(0, 3)),
            (5, completion(0, 4)),
            (w + 6, arrival(1, 5)),
            (2, arrival(0, 6)),
            (6, arrival(0, 7)),
        ];
        // Reference mode switched on before any push, and after some,
        // as the systems' test hooks do once the cores are bootstrapped.
        for switch_at in [0, 4] {
            let (mut fast, mut reference) = (EventQueue::new(), EventQueue::new());
            for (i, &(c, e)) in pushes.iter().enumerate() {
                if i == switch_at {
                    reference.set_reference_mode(true);
                }
                fast.push(c, e);
                reference.push(c, e);
            }
            assert_eq!(drain(&mut fast), drain(&mut reference));
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
