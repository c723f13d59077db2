//! Model-based equivalence test for the indexed request queue.
//!
//! The reference model is the pre-refactor representation: one flat
//! arrival-ordered `Vec<Request>` answering every query by scan. For
//! arbitrary interleavings of push / take_for_bank / remove the real
//! queue must agree with the model on every observable: per-bank pending
//! slices (content *and* order), take results by position, the
//! bank-occupancy set, and the len/full/empty bookkeeping.
//!
//! This is what makes the indexed representation trustworthy: the lane
//! layout and the occupancy bitmask are each redundant encodings of the
//! flat model's state, and this test pins them to it under random
//! traffic.

use proptest::prelude::*;
use tcm_dram::{BankSet, RequestQueue};
use tcm_types::{BankId, ChannelId, MemAddress, Request, RequestId, Row, ThreadId};

const NUM_BANKS: usize = 4;
const NUM_THREADS: usize = 6;
const CAPACITY: usize = 24;

/// The reference: a flat arrival-ordered vector, scanned per query.
#[derive(Debug, Default)]
struct FlatModel {
    requests: Vec<Request>,
}

impl FlatModel {
    fn push(&mut self, request: Request) -> bool {
        if self.requests.len() >= CAPACITY {
            return false;
        }
        self.requests.push(request);
        true
    }

    fn pending_for_bank(&self, bank: BankId) -> Vec<Request> {
        self.requests
            .iter()
            .filter(|r| r.addr.bank == bank)
            .copied()
            .collect()
    }

    fn take_for_bank(&mut self, bank: BankId, pos: usize) -> Option<Request> {
        let idx = self
            .requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.addr.bank == bank)
            .map(|(i, _)| i)
            .nth(pos)?;
        Some(self.requests.remove(idx))
    }

    fn remove(&mut self, id: RequestId) -> Option<Request> {
        let idx = self.requests.iter().position(|r| r.id == id)?;
        Some(self.requests.remove(idx))
    }

    fn banks_with_pending(&self) -> BankSet {
        let mut set = BankSet::empty();
        for r in &self.requests {
            set.insert(r.addr.bank);
        }
        set
    }
}

/// One random operation against both queue and model.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push a request for (thread, bank, row).
    Push {
        thread: usize,
        bank: usize,
        row: usize,
    },
    /// Take the `pos % pending`-th request of `bank`.
    Take { bank: usize, pos: usize },
    /// Remove by id, selected as the `nth % len`-th buffered request.
    Remove { nth: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice via a selector (the vendored proptest stub has no
    // prop_oneof): 3 parts push, 2 parts take, 1 part remove.
    (0usize..6, 0..NUM_THREADS, 0..NUM_BANKS, 0usize..32).prop_map(|(select, thread, bank, arg)| {
        match select {
            0..=2 => Op::Push {
                thread,
                bank,
                row: arg % 8,
            },
            3..=4 => Op::Take { bank, pos: arg },
            _ => Op::Remove { nth: arg },
        }
    })
}

/// Every observable of `queue` must match `model`.
fn assert_equivalent(queue: &mut RequestQueue, model: &FlatModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(queue.len(), model.requests.len());
    prop_assert_eq!(queue.is_empty(), model.requests.is_empty());
    prop_assert_eq!(queue.is_full(), model.requests.len() >= CAPACITY);
    prop_assert_eq!(queue.banks_with_pending(), model.banks_with_pending());
    prop_assert_eq!(queue.iter().count(), model.requests.len());
    for b in 0..NUM_BANKS {
        let bank = BankId::new(b);
        prop_assert_eq!(
            queue.has_pending_for_bank(bank),
            !model.pending_for_bank(bank).is_empty()
        );
        let expected = model.pending_for_bank(bank);
        prop_assert_eq!(
            queue.pending_for_bank(bank),
            expected.as_slice(),
            "bank {} pending slice (content and arrival order)",
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random push/take/remove interleavings leave the indexed queue
    /// observably identical to the flat reference model at every step.
    #[test]
    fn indexed_queue_matches_flat_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut queue = RequestQueue::new(CAPACITY, NUM_BANKS);
        let mut model = FlatModel::default();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Push { thread, bank, row } => {
                    let request = Request::new(
                        RequestId::new(next_id),
                        ThreadId::new(thread),
                        MemAddress::new(ChannelId::new(0), BankId::new(bank), Row::new(row)),
                        next_id,
                    );
                    next_id += 1;
                    let fits = model.push(request);
                    prop_assert_eq!(
                        queue.push(request).is_ok(),
                        fits,
                        "capacity behavior must agree"
                    );
                }
                Op::Take { bank, pos } => {
                    let bank = BankId::new(bank);
                    let pending = model.pending_for_bank(bank).len();
                    // In-range positions must yield the same request;
                    // out-of-range must be None on both sides.
                    let pos = if pending == 0 { pos } else { pos % (pending + 1) };
                    prop_assert_eq!(
                        queue.take_for_bank(bank, pos),
                        model.take_for_bank(bank, pos)
                    );
                }
                Op::Remove { nth } => {
                    // Pick an id that usually exists (any buffered request)
                    // and occasionally does not (already drained).
                    let id = RequestId::new(if model.requests.is_empty() {
                        nth as u64
                    } else {
                        model.requests[nth % model.requests.len()].id.raw()
                    });
                    prop_assert_eq!(queue.remove(id), model.remove(id));
                }
            }
            assert_equivalent(&mut queue, &model)?;
        }
    }
}
