//! Shuffling algorithms for the bandwidth-sensitive cluster.
//!
//! All shufflers expose the same shape: a `ranking()` of the cluster's
//! threads (index 0 = lowest priority, last = highest priority) and an
//! `advance()` called every `ShuffleInterval` cycles. Because one TCM
//! instance arbitrates every memory controller, the ranking is
//! automatically synchronized across all banks and channels — the
//! property the paper requires for preserving bank-level parallelism.
//!
//! Three algorithms are provided:
//!
//! * [`RoundRobinShuffler`] — the strawman: rotate the order by one. It
//!   preserves relative positions, so a thread stuck behind a
//!   service-leaking neighbor stays stuck (paper Section 3.3).
//! * [`RandomShuffler`] — a fresh uniform permutation each interval;
//!   niceness-oblivious but breaks persistent adjacency. TCM falls back
//!   to it for homogeneous clusters.
//! * [`InsertionShuffler`] — the paper's niceness-aware algorithm
//!   (Algorithm 2). See the type-level docs for the exact permutation
//!   cycle and for how we resolved the paper's garbled pseudocode.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcm_types::ThreadId;

/// Round-robin shuffling: each advance moves every thread up one priority
/// position and wraps the former top thread to the bottom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinShuffler {
    /// index 0 = lowest priority, last = highest.
    ranking: Vec<ThreadId>,
}

impl RoundRobinShuffler {
    /// Creates the shuffler with an initial order (first element lowest
    /// priority).
    pub fn new(threads: Vec<ThreadId>) -> Self {
        Self { ranking: threads }
    }

    /// Current priority order (last = highest priority).
    pub fn ranking(&self) -> &[ThreadId] {
        &self.ranking
    }

    /// Rotates the priority order by one position.
    pub fn advance(&mut self) {
        if self.ranking.len() > 1 {
            self.ranking.rotate_right(1);
        }
    }
}

/// Random shuffling: an independent uniform permutation every interval.
#[derive(Debug, Clone)]
pub struct RandomShuffler {
    ranking: Vec<ThreadId>,
    rng: StdRng,
}

impl RandomShuffler {
    /// Creates the shuffler; `seed` makes the permutation stream
    /// deterministic (the hardware would use an LFSR).
    pub fn new(threads: Vec<ThreadId>, seed: u64) -> Self {
        Self {
            ranking: threads,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Current priority order (last = highest priority).
    pub fn ranking(&self) -> &[ThreadId] {
        &self.ranking
    }

    /// Draws a fresh uniform permutation (Fisher–Yates).
    pub fn advance(&mut self) {
        let n = self.ranking.len();
        for i in (1..n).rev() {
            let j = self.rng.gen_range(0..=i);
            self.ranking.swap(i, j);
        }
    }
}

/// Which reading of the paper's Algorithm 2 the insertion shuffler uses.
///
/// Phase 1 is unambiguous (suffix sorts in descending niceness,
/// `decSort(i, N)` for `i = N..1`: successively less nice threads are
/// briefly "inserted" at the top). The printed pseudocode's phase 2 is
/// `incSort(1, i)` prefix sorts — but traced under the paper's own rank
/// convention that keeps the *least nice* thread at the top for half of
/// every period, contradicting the paper's prose and Figure 3(b) ("the
/// least nice thread spends most of its time at the lowest priority
/// position"). The two variants resolve the conflict in opposite ways;
/// both are first-class here and unit-tested (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InsertionVariant {
    /// The literal printed pseudocode: phase 2 = `incSort(1, i)` prefix
    /// sorts. Every state is an insertion-sort intermediate state; the
    /// least nice thread alternates between the extremes (N intervals at
    /// the top, N at the bottom per period).
    #[default]
    Printed,
    /// Phase 2 = `incSort(i, N)` suffix sorts (a one-subscript
    /// emendation). Matches the paper's *behavioral* description exactly:
    /// the least nice thread sits at the bottom 2N−1 of 2N intervals and
    /// tops exactly once; the nicest thread tops N+1 intervals.
    SuffixRestore,
}

/// Insertion shuffling: the paper's niceness-aware algorithm
/// (Algorithm 2).
///
/// The priority order starts sorted ascending by niceness (nicest thread
/// at the highest rank) and cycles through `2N` states per full period:
/// a *descent* phase in which successively less nice threads take the top
/// for one interval each, and a *restore* phase whose exact permutations
/// depend on the [`InsertionVariant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertionShuffler {
    /// `(thread, niceness)`, index 0 = lowest priority.
    entries: Vec<(ThreadId, i64)>,
    /// Advances performed so far, modulo `2N`.
    step: usize,
    variant: InsertionVariant,
}

impl InsertionShuffler {
    /// Creates the shuffler from the cluster's threads and their
    /// niceness values using the default (printed-pseudocode) variant;
    /// initializes to ascending-niceness order (nicest thread highest
    /// ranked), breaking ties by the given order.
    pub fn new(threads: Vec<(ThreadId, i64)>) -> Self {
        Self::with_variant(threads, InsertionVariant::default())
    }

    /// Creates the shuffler with an explicit [`InsertionVariant`].
    pub fn with_variant(threads: Vec<(ThreadId, i64)>, variant: InsertionVariant) -> Self {
        let mut entries = threads;
        entries.sort_by_key(|&(_, n)| n);
        Self {
            entries,
            step: 0,
            variant,
        }
    }

    /// Current priority order (last = highest priority).
    pub fn ranking_vec(&self) -> Vec<ThreadId> {
        self.entries.iter().map(|&(t, _)| t).collect()
    }

    /// Applies the next permutation of the cycle.
    pub fn advance(&mut self) {
        let n = self.entries.len();
        if n <= 1 {
            return;
        }
        if self.step < n {
            // Descent: decSort(i, N) with i = N - step (1-based).
            let start = n - 1 - self.step; // 0-based suffix start
            self.entries[start..].sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        } else {
            match self.variant {
                InsertionVariant::Printed => {
                    // incSort(1, i) with i = step - N + 1 (1-based).
                    let end = self.step - n + 1;
                    self.entries[..end].sort_by_key(|&(_, v)| v);
                }
                InsertionVariant::SuffixRestore => {
                    // incSort(i, N) with i = step - N + 1 (1-based).
                    let start = self.step - n; // 0-based suffix start
                    self.entries[start..].sort_by_key(|&(_, v)| v);
                }
            }
        }
        self.step = (self.step + 1) % (2 * n);
    }
}

/// A shuffling strategy for the bandwidth-sensitive cluster, selected per
/// quantum by TCM (or pinned by the Table 6 comparison modes).
#[derive(Debug, Clone)]
pub enum Shuffler {
    /// Niceness-aware insertion shuffle.
    Insertion(InsertionShuffler),
    /// Uniform random permutations.
    Random(RandomShuffler),
    /// Simple rotation.
    RoundRobin(RoundRobinShuffler),
}

impl Shuffler {
    /// Current priority order (last = highest priority).
    pub fn ranking_vec(&self) -> Vec<ThreadId> {
        match self {
            Shuffler::Insertion(s) => s.ranking_vec(),
            Shuffler::Random(s) => s.ranking().to_vec(),
            Shuffler::RoundRobin(s) => s.ranking().to_vec(),
        }
    }

    /// Advances to the next permutation.
    pub fn advance(&mut self) {
        match self {
            Shuffler::Insertion(s) => s.advance(),
            Shuffler::Random(s) => s.advance(),
            Shuffler::RoundRobin(s) => s.advance(),
        }
    }
}

/// Draws a permutation where the probability of landing *at the top* is
/// proportional to a thread's weight (successively for each lower
/// position) — TCM's *weighted shuffling* for OS-assigned thread weights:
/// the expected fraction of intervals a thread spends at the highest
/// priority is proportional to its weight.
///
/// Returns the order with index 0 = lowest priority, last = highest.
///
/// # Panics
///
/// Panics if lengths differ or any weight is non-positive.
pub fn weighted_random_permutation(
    threads: &[ThreadId],
    weights: &[f64],
    rng: &mut StdRng,
) -> Vec<ThreadId> {
    assert_eq!(threads.len(), weights.len(), "weights must align");
    assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
    let mut pool: Vec<(ThreadId, f64)> = threads
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .collect();
    let mut order_top_down = Vec::with_capacity(pool.len());
    while !pool.is_empty() {
        let total: f64 = pool.iter().map(|&(_, w)| w).sum();
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = pool.len() - 1;
        for (i, &(_, w)) in pool.iter().enumerate() {
            if pick < w {
                chosen = i;
                break;
            }
            pick -= w;
        }
        order_top_down.push(pool.swap_remove(chosen).0);
    }
    order_top_down.reverse();
    order_top_down
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tid(n: usize) -> ThreadId {
        ThreadId::new(n)
    }

    fn is_permutation(ranking: &[ThreadId], n: usize) -> bool {
        let set: HashSet<_> = ranking.iter().collect();
        set.len() == n && ranking.len() == n
    }

    #[test]
    fn round_robin_rotates_and_cycles() {
        let mut s = RoundRobinShuffler::new(vec![tid(0), tid(1), tid(2), tid(3)]);
        assert_eq!(*s.ranking().last().unwrap(), tid(3));
        s.advance();
        assert_eq!(*s.ranking().last().unwrap(), tid(2));
        assert_eq!(s.ranking()[0], tid(3), "former top wraps to bottom");
        for _ in 0..3 {
            s.advance();
        }
        assert_eq!(s.ranking(), &[tid(0), tid(1), tid(2), tid(3)]);
    }

    #[test]
    fn round_robin_preserves_relative_order() {
        // The paper's complaint: thread adjacency never changes.
        let mut s = RoundRobinShuffler::new(vec![tid(0), tid(1), tid(2)]);
        for _ in 0..7 {
            s.advance();
            let r = s.ranking();
            let pos = |t| r.iter().position(|&x| x == t).unwrap();
            let dist = (pos(tid(1)) + 3 - pos(tid(0))) % 3;
            assert_eq!(dist, 1, "thread 1 always directly above thread 0");
        }
    }

    #[test]
    fn random_shuffle_produces_permutations_and_varies() {
        let mut s = RandomShuffler::new((0..8).map(tid).collect(), 42);
        let mut seen = HashSet::new();
        for _ in 0..50 {
            s.advance();
            assert!(is_permutation(s.ranking(), 8));
            seen.insert(s.ranking().to_vec());
        }
        assert!(
            seen.len() > 10,
            "permutations vary ({} distinct)",
            seen.len()
        );
    }

    #[test]
    fn random_shuffle_is_deterministic_per_seed() {
        let mut a = RandomShuffler::new((0..6).map(tid).collect(), 7);
        let mut b = RandomShuffler::new((0..6).map(tid).collect(), 7);
        for _ in 0..10 {
            a.advance();
            b.advance();
            assert_eq!(a.ranking(), b.ranking());
        }
    }

    /// Builds the insertion shuffler with thread i having niceness i
    /// (thread n-1 nicest).
    fn insertion(n: usize) -> InsertionShuffler {
        InsertionShuffler::new((0..n).map(|i| (tid(i), i as i64)).collect())
    }

    fn insertion_suffix(n: usize) -> InsertionShuffler {
        InsertionShuffler::with_variant(
            (0..n).map(|i| (tid(i), i as i64)).collect(),
            InsertionVariant::SuffixRestore,
        )
    }

    #[test]
    fn insertion_initializes_nicest_on_top() {
        let s = insertion(4);
        let r = s.ranking_vec();
        assert_eq!(r, vec![tid(0), tid(1), tid(2), tid(3)]);
    }

    #[test]
    fn insertion_descent_visits_tops_in_decreasing_niceness() {
        let mut s = insertion(4);
        let mut tops = vec![*s.ranking_vec().last().unwrap()];
        for _ in 0..3 {
            s.advance();
            tops.push(*s.ranking_vec().last().unwrap());
        }
        // Initial + first advance are both the nicest (decSort(N,N) is a
        // no-op), then successively less nice threads.
        assert_eq!(tops, vec![tid(3), tid(3), tid(2), tid(1)]);
        s.advance();
        assert_eq!(
            *s.ranking_vec().last().unwrap(),
            tid(0),
            "least nice tops once"
        );
    }

    #[test]
    fn suffix_restore_cycle_statistics_match_paper_prose() {
        let n = 6;
        let mut s = insertion_suffix(n);
        let period = 2 * n;
        let mut top_counts = vec![0usize; n];
        let mut bottom_counts = vec![0usize; n];
        for _ in 0..period {
            let r = s.ranking_vec();
            assert!(is_permutation(&r, n));
            top_counts[r.last().unwrap().index()] += 1;
            bottom_counts[r[0].index()] += 1;
            s.advance();
        }
        // Least nice thread (0): at the bottom in every interval except
        // the single full-descending one; at the top exactly once.
        assert_eq!(bottom_counts[0], period - 1);
        assert_eq!(top_counts[0], 1);
        // Nicest thread (n-1): top N+1 intervals.
        assert_eq!(top_counts[n - 1], n + 1);
        // Everyone reaches the top at least once (no starvation).
        assert!(top_counts.iter().all(|&c| c >= 1));
        // Cycle returned to the initial state.
        assert_eq!(s.ranking_vec()[0], tid(0));
        assert_eq!(*s.ranking_vec().last().unwrap(), tid(n - 1));
    }

    #[test]
    fn printed_variant_alternates_least_nice_between_extremes() {
        // The literal pseudocode: every state is an insertion-sort
        // intermediate state; the least nice thread (0) splits its time
        // evenly between the top and the bottom, and each state is a
        // permutation.
        let n = 6;
        let mut s = insertion(n);
        let period = 2 * n;
        let mut top0 = 0;
        let mut bottom0 = 0;
        for _ in 0..period {
            let r = s.ranking_vec();
            assert!(is_permutation(&r, n));
            if r.last().unwrap().index() == 0 {
                top0 += 1;
            }
            if r[0].index() == 0 {
                bottom0 += 1;
            }
            s.advance();
        }
        assert_eq!(top0 + bottom0, period, "least nice lives at the extremes");
        assert_eq!(top0, n);
        // Cycle closes: back to ascending order.
        assert_eq!(s.ranking_vec()[0], tid(0));
        assert_eq!(*s.ranking_vec().last().unwrap(), tid(n - 1));
    }

    #[test]
    fn insertion_handles_trivial_sizes() {
        let mut s = insertion(1);
        s.advance();
        assert_eq!(s.ranking_vec(), vec![tid(0)]);
        let mut s = insertion(0);
        s.advance();
        assert!(s.ranking_vec().is_empty());
    }

    #[test]
    fn insertion_niceness_ties_keep_given_order() {
        let s = InsertionShuffler::new(vec![(tid(5), 0), (tid(2), 0), (tid(9), 0)]);
        assert_eq!(s.ranking_vec(), vec![tid(5), tid(2), tid(9)]);
    }

    #[test]
    fn shuffler_enum_delegates() {
        let mut s = Shuffler::RoundRobin(RoundRobinShuffler::new(vec![tid(0), tid(1)]));
        let before = s.ranking_vec();
        s.advance();
        assert_ne!(s.ranking_vec(), before);
    }

    #[test]
    fn weighted_permutation_tops_proportionally_to_weight() {
        let threads: Vec<_> = (0..3).map(tid).collect();
        let weights = [1.0, 1.0, 8.0];
        let mut rng = StdRng::seed_from_u64(3);
        let mut top_counts = [0usize; 3];
        let trials = 4000;
        for _ in 0..trials {
            let p = weighted_random_permutation(&threads, &weights, &mut rng);
            assert!(is_permutation(&p, 3));
            top_counts[p.last().unwrap().index()] += 1;
        }
        let heavy_frac = top_counts[2] as f64 / trials as f64;
        assert!(
            (heavy_frac - 0.8).abs() < 0.04,
            "weight-8 thread topped {heavy_frac:.3} of draws"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_permutation_rejects_zero_weight() {
        let mut rng = StdRng::seed_from_u64(0);
        weighted_random_permutation(&[tid(0)], &[0.0], &mut rng);
    }
}
