//! The controller's bounded request buffer.
//!
//! Requests are stored in per-bank *lanes* with an incrementally
//! maintained bank-occupancy bitmask ([`BankSet`]). Every
//! scheduler-facing query is allocation-free:
//! [`RequestQueue::pending_for_bank`] returns a borrowed slice,
//! [`RequestQueue::banks_with_pending`] is a bitmask read,
//! [`RequestQueue::has_pending_for_bank`] is one bit test, and
//! [`RequestQueue::take_for_bank`] is a direct position lookup within one
//! bank's lane. This mirrors the paper's Table 2 argument that scheduler
//! state must be cheap incremental hardware counters, not full-queue
//! scans.

use std::error::Error;
use std::fmt;
use tcm_types::{BankId, Request, RequestId};

/// Error returned when the controller's request buffer is full.
///
/// In the simulator the core model applies backpressure (MSHR and window
/// limits) long before a 128-entry buffer fills at realistic intensities,
/// but the bound is enforced for fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError {
    capacity: usize,
}

impl QueueFullError {
    /// The buffer capacity that was exceeded.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl fmt::Display for QueueFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request buffer full (capacity {})", self.capacity)
    }
}

impl Error for QueueFullError {}

/// A set of per-channel bank ids backed by a `u128` bitmask.
///
/// The scheduler's "which banks have pending work" question is answered
/// by handing out one of these: membership tests are single bit
/// operations and [`BankSet::iter`] walks the set bits in ascending
/// bank order with no allocation or sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankSet(u128);

impl BankSet {
    /// Most banks per channel the bitmask can track. The paper baseline
    /// uses 4 and the Table 8 sensitivity sweeps stay far below this.
    pub const MAX_BANKS: usize = 128;

    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        Self(0)
    }

    /// Whether no bank is in the set.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of banks in the set.
    #[inline]
    pub const fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `bank` is in the set.
    #[inline]
    pub fn contains(&self, bank: BankId) -> bool {
        bank.index() < Self::MAX_BANKS && self.0 & (1u128 << bank.index()) != 0
    }

    /// Adds `bank` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is beyond [`BankSet::MAX_BANKS`].
    #[inline]
    pub fn insert(&mut self, bank: BankId) {
        assert!(
            bank.index() < Self::MAX_BANKS,
            "bank {} exceeds BankSet capacity {}",
            bank.index(),
            Self::MAX_BANKS
        );
        self.0 |= 1u128 << bank.index();
    }

    /// Removes `bank` from the set.
    #[inline]
    pub fn remove(&mut self, bank: BankId) {
        if bank.index() < Self::MAX_BANKS {
            self.0 &= !(1u128 << bank.index());
        }
    }

    /// Set difference: the banks in `self` that are not in `other`
    /// (`self & !other`). One mask operation; the schedulability kernel
    /// uses it to strip busy banks from the pending set.
    #[inline]
    pub const fn and_not(self, other: Self) -> Self {
        Self(self.0 & !other.0)
    }

    /// Iterates the set banks in ascending id order.
    #[inline]
    pub fn iter(&self) -> BankSetIter {
        BankSetIter(self.0)
    }
}

impl IntoIterator for BankSet {
    type Item = BankId;
    type IntoIter = BankSetIter;

    fn into_iter(self) -> BankSetIter {
        self.iter()
    }
}

/// Ascending-order iterator over a [`BankSet`] (see [`BankSet::iter`]).
#[derive(Debug, Clone)]
pub struct BankSetIter(u128);

impl Iterator for BankSetIter {
    type Item = BankId;

    #[inline]
    fn next(&mut self) -> Option<BankId> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1; // clear lowest set bit
        Some(BankId::new(bit))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BankSetIter {}

/// A bounded buffer of requests waiting at one memory controller.
///
/// Requests stay in the buffer until a scheduling policy picks them for
/// service; lookups are by *position within a bank's pending set*, which
/// is how scheduling decisions are phrased. The layout is described in
/// the module docs of `queue.rs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestQueue {
    /// Per-bank lanes, each in arrival order. A request lives in exactly
    /// one lane, so `pending_for_bank` *is* the lane.
    lanes: Vec<Vec<Request>>,
    /// Banks whose lane is non-empty.
    occupied: BankSet,
    /// Total buffered requests across all lanes.
    len: usize,
    capacity: usize,
}

impl RequestQueue {
    /// Creates an empty buffer with room for `capacity` requests spread
    /// over `num_banks` per-bank lanes.
    ///
    /// Each lane pre-allocates `capacity / num_banks` (rounded up)
    /// entries — the expected occupancy under an even spread — so total
    /// pre-allocation is bounded by `capacity + num_banks` entries
    /// rather than the pathological `num_banks * capacity` a
    /// full-capacity lane reservation would cost. Skewed traffic (e.g.
    /// a streaming thread parked on one bank) grows its lane amortized
    /// up to `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` exceeds [`BankSet::MAX_BANKS`].
    pub fn new(capacity: usize, num_banks: usize) -> Self {
        assert!(
            num_banks <= BankSet::MAX_BANKS,
            "num_banks {num_banks} exceeds BankSet capacity {}",
            BankSet::MAX_BANKS
        );
        let per_lane = capacity.div_ceil(num_banks.max(1)).min(capacity);
        Self {
            lanes: (0..num_banks)
                .map(|_| Vec::with_capacity(per_lane))
                .collect(),
            occupied: BankSet::empty(),
            len: 0,
            capacity,
        }
    }

    /// Number of buffered requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the buffer is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Buffer capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a request to its bank's lane.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if the buffer is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if the request's bank exceeds [`BankSet::MAX_BANKS`].
    pub fn push(&mut self, request: Request) -> Result<(), QueueFullError> {
        if self.is_full() {
            return Err(QueueFullError {
                capacity: self.capacity,
            });
        }
        let bank = request.addr.bank;
        if bank.index() >= self.lanes.len() {
            // Standalone uses may push banks the constructor did not
            // announce; grow (bounded by the BankSet insert below).
            self.lanes.resize_with(bank.index() + 1, Vec::new);
        }
        self.occupied.insert(bank);
        self.lanes[bank.index()].push(request);
        self.len += 1;
        Ok(())
    }

    /// Iterates over all buffered requests, bank-major (each bank's
    /// requests in arrival order; order *across* banks is not the
    /// global arrival order).
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.lanes.iter().flatten()
    }

    /// The requests pending for `bank`, in arrival order, as a borrowed
    /// slice of the bank's lane — no copy, no allocation.
    ///
    /// The slice's positions are the indices expected by
    /// [`RequestQueue::take_for_bank`].
    #[inline]
    pub fn pending_for_bank(&self, bank: BankId) -> &[Request] {
        self.lanes.get(bank.index()).map_or(&[], Vec::as_slice)
    }

    /// Whether any request is pending for `bank` (one bit test).
    #[inline]
    pub fn has_pending_for_bank(&self, bank: BankId) -> bool {
        self.occupied.contains(bank)
    }

    /// Removes and returns the `pos`-th pending request for `bank`
    /// (position as in [`RequestQueue::pending_for_bank`]).
    ///
    /// Returns `None` if fewer than `pos + 1` requests are pending for
    /// the bank. The position lookup is O(1); the removal shifts only
    /// the tail of that one bank's lane.
    pub fn take_for_bank(&mut self, bank: BankId, pos: usize) -> Option<Request> {
        let lane = self.lanes.get_mut(bank.index())?;
        if pos >= lane.len() {
            return None;
        }
        let request = lane.remove(pos);
        if lane.is_empty() {
            self.occupied.remove(bank);
        }
        self.len -= 1;
        Some(request)
    }

    /// Removes a request by id, returning it if present.
    pub fn remove(&mut self, id: RequestId) -> Option<Request> {
        for (bank, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(pos) = lane.iter().position(|r| r.id == id) {
                let request = lane.remove(pos);
                if lane.is_empty() {
                    self.occupied.remove(BankId::new(bank));
                }
                self.len -= 1;
                return Some(request);
            }
        }
        None
    }

    /// The set of banks with at least one pending request; iterating it
    /// yields ascending bank ids with no sort or allocation.
    #[inline]
    pub fn banks_with_pending(&self) -> BankSet {
        self.occupied
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_types::{ChannelId, MemAddress, Row, ThreadId};

    fn req(id: u64, thread: usize, bank: usize, row: u64) -> Request {
        Request::new(
            RequestId::new(id),
            ThreadId::new(thread),
            MemAddress::new(ChannelId::new(0), BankId::new(bank), Row::new(row as usize)),
            id,
        )
    }

    #[test]
    fn push_respects_capacity() {
        let mut q = RequestQueue::new(2, 4);
        q.push(req(0, 0, 0, 0)).unwrap();
        q.push(req(1, 0, 0, 0)).unwrap();
        let err = q.push(req(2, 0, 0, 0)).unwrap_err();
        assert_eq!(err.capacity(), 2);
        assert!(q.is_full());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pending_for_bank_filters_and_preserves_order() {
        let mut q = RequestQueue::new(16, 4);
        q.push(req(0, 0, 1, 10)).unwrap();
        q.push(req(1, 1, 0, 20)).unwrap();
        q.push(req(2, 2, 1, 30)).unwrap();
        let pending = q.pending_for_bank(BankId::new(1));
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].id, RequestId::new(0));
        assert_eq!(pending[1].id, RequestId::new(2));
        assert!(q.has_pending_for_bank(BankId::new(0)));
        assert!(!q.has_pending_for_bank(BankId::new(3)));
    }

    #[test]
    fn take_for_bank_removes_selected_position() {
        let mut q = RequestQueue::new(16, 4);
        q.push(req(0, 0, 1, 10)).unwrap();
        q.push(req(1, 1, 0, 20)).unwrap();
        q.push(req(2, 2, 1, 30)).unwrap();
        let taken = q.take_for_bank(BankId::new(1), 1).unwrap();
        assert_eq!(taken.id, RequestId::new(2));
        assert_eq!(q.len(), 2);
        assert!(q.take_for_bank(BankId::new(1), 1).is_none());
        let taken = q.take_for_bank(BankId::new(1), 0).unwrap();
        assert_eq!(taken.id, RequestId::new(0));
    }

    #[test]
    fn remove_by_id() {
        let mut q = RequestQueue::new(16, 4);
        q.push(req(0, 0, 1, 10)).unwrap();
        q.push(req(1, 0, 1, 10)).unwrap();
        assert_eq!(q.remove(RequestId::new(0)).unwrap().id, RequestId::new(0));
        assert!(q.remove(RequestId::new(0)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn bank_sets_track_occupied_lanes() {
        let mut q = RequestQueue::new(16, 4);
        q.push(req(0, 0, 1, 1)).unwrap();
        q.push(req(1, 0, 2, 1)).unwrap();
        q.push(req(2, 1, 2, 1)).unwrap();
        assert_eq!(
            q.banks_with_pending().iter().collect::<Vec<_>>(),
            vec![BankId::new(1), BankId::new(2)]
        );
        assert_eq!(q.banks_with_pending().len(), 2);
        assert!(q.banks_with_pending().contains(BankId::new(2)));
        assert!(!q.banks_with_pending().contains(BankId::new(0)));
    }

    #[test]
    fn len_tracks_takes_and_removes() {
        let mut q = RequestQueue::new(16, 4);
        for i in 0..6u64 {
            q.push(req(i, (i % 2) as usize, (i % 3) as usize, i))
                .unwrap();
        }
        q.take_for_bank(BankId::new(0), 0).unwrap();
        q.remove(RequestId::new(1)).unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(q.iter().count(), 4);
    }

    #[test]
    fn bank_set_iterates_ascending_and_supports_edits() {
        let mut set = BankSet::empty();
        assert!(set.is_empty());
        for b in [5usize, 0, 127, 63] {
            set.insert(BankId::new(b));
        }
        assert_eq!(
            set.iter().map(|b| b.index()).collect::<Vec<_>>(),
            vec![0, 5, 63, 127]
        );
        assert_eq!(set.iter().len(), 4);
        set.remove(BankId::new(5));
        assert!(!set.contains(BankId::new(5)));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn draining_every_bank_empties_the_set() {
        let mut q = RequestQueue::new(32, 8);
        for i in 0..12u64 {
            q.push(req(i, 0, (i % 5) as usize, i)).unwrap();
        }
        for bank in q.banks_with_pending() {
            while q.take_for_bank(bank, 0).is_some() {}
        }
        assert!(q.banks_with_pending().is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn config_bank_cap_mirrors_the_bitmask_width() {
        // tcm-types cannot depend on this crate, so it duplicates the
        // bitmask width as MAX_BANKS_PER_CHANNEL; the two must agree.
        assert_eq!(tcm_types::MAX_BANKS_PER_CHANNEL, BankSet::MAX_BANKS);
    }
}
