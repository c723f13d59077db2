//! Shadow row-buffers: per-thread, per-bank "what row would be open if
//! this thread ran alone".
//!
//! The paper (Section 3.4) uses a *shadow row-buffer index* per thread per
//! bank to measure a thread's inherent row-buffer locality (RBL) free of
//! interference from other threads: an access counts as a shadow hit when
//! it targets the row that the *same thread's previous access to that
//! bank* opened, regardless of what other threads did to the physical
//! row-buffer in between. STFM uses the same structure to estimate the
//! extra latency caused by row-buffer interference.

use tcm_types::{BankId, Row, ThreadId};

/// Shadow row-buffer state for every `(thread, bank)` pair of one channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowRowBuffer {
    banks_per_channel: usize,
    /// `rows[thread * banks_per_channel + bank]`
    rows: Vec<Option<Row>>,
    hits: Vec<u64>,
    accesses: Vec<u64>,
}

impl ShadowRowBuffer {
    /// Creates shadow state for `num_threads` threads over
    /// `banks_per_channel` banks.
    pub fn new(num_threads: usize, banks_per_channel: usize) -> Self {
        let n = num_threads * banks_per_channel;
        Self {
            banks_per_channel,
            rows: vec![None; n],
            hits: vec![0; n],
            accesses: vec![0; n],
        }
    }

    #[inline]
    fn slot(&self, thread: ThreadId, bank: BankId) -> usize {
        thread.index() * self.banks_per_channel + bank.index()
    }

    /// Records an access by `thread` to `(bank, row)` and returns whether
    /// it was a shadow hit (the thread's previous access to this bank
    /// touched the same row).
    pub fn access(&mut self, thread: ThreadId, bank: BankId, row: Row) -> bool {
        let slot = self.slot(thread, bank);
        let hit = self.rows[slot] == Some(row);
        self.rows[slot] = Some(row);
        self.accesses[slot] += 1;
        if hit {
            self.hits[slot] += 1;
        }
        hit
    }

    /// The row `thread`'s shadow row-buffer currently holds for `bank`.
    pub fn shadow_row(&self, thread: ThreadId, bank: BankId) -> Option<Row> {
        self.rows[self.slot(thread, bank)]
    }

    /// `(shadow hits, accesses)` recorded for `thread` across all banks
    /// since the last [`ShadowRowBuffer::reset_counters`].
    pub fn hits_and_accesses(&self, thread: ThreadId) -> (u64, u64) {
        let base = thread.index() * self.banks_per_channel;
        let mut hits = 0;
        let mut accesses = 0;
        for i in 0..self.banks_per_channel {
            hits += self.hits[base + i];
            accesses += self.accesses[base + i];
        }
        (hits, accesses)
    }

    /// Inherent row-buffer locality of `thread` over the counting window:
    /// shadow hits / accesses, or `None` if the thread made no accesses.
    pub fn thread_rbl(&self, thread: ThreadId) -> Option<f64> {
        let (hits, accesses) = self.hits_and_accesses(thread);
        if accesses == 0 {
            None
        } else {
            Some(hits as f64 / accesses as f64)
        }
    }

    /// Clears hit/access counters (start of a new quantum) while keeping
    /// the shadow row indices, mirroring the hardware structure.
    pub fn reset_counters(&mut self) {
        self.hits.iter_mut().for_each(|h| *h = 0);
        self.accesses.iter_mut().for_each(|a| *a = 0);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn shadow_hits_are_per_thread_not_physical() {
        let mut s = ShadowRowBuffer::new(2, 4);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let b = BankId::new(2);

        assert!(!s.access(t0, b, Row::new(5))); // first touch: miss
        assert!(!s.access(t1, b, Row::new(9))); // other thread, own shadow
        assert!(s.access(t0, b, Row::new(5))); // t0 still sees its row
        assert!(s.access(t1, b, Row::new(9)));

        assert_eq!(s.hits_and_accesses(t0), (1, 2));
        assert_eq!(s.thread_rbl(t0), Some(0.5));
    }

    #[test]
    fn rbl_none_without_accesses() {
        let s = ShadowRowBuffer::new(1, 1);
        assert_eq!(s.thread_rbl(ThreadId::new(0)), None);
    }

    #[test]
    fn counters_reset_but_rows_persist() {
        let mut s = ShadowRowBuffer::new(1, 2);
        let t = ThreadId::new(0);
        s.access(t, BankId::new(0), Row::new(3));
        s.access(t, BankId::new(0), Row::new(3));
        s.reset_counters();
        assert_eq!(s.hits_and_accesses(t), (0, 0));
        assert_eq!(s.shadow_row(t, BankId::new(0)), Some(Row::new(3)));
        // Hit streak continues across the quantum boundary.
        assert!(s.access(t, BankId::new(0), Row::new(3)));
    }

    #[test]
    fn different_banks_have_independent_shadows() {
        let mut s = ShadowRowBuffer::new(1, 2);
        let t = ThreadId::new(0);
        s.access(t, BankId::new(0), Row::new(1));
        assert!(!s.access(t, BankId::new(1), Row::new(1)));
        assert_eq!(s.shadow_row(t, BankId::new(0)), Some(Row::new(1)));
        assert_eq!(s.shadow_row(t, BankId::new(1)), Some(Row::new(1)));
    }
}
